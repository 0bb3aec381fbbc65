//! The top-level PLFS interface: a POSIX-flavoured virtual file system.
//!
//! `Plfs` is the piece an interposition layer (FUSE in the original; any
//! caller here) talks to. Logical files are containers on the backing
//! store; `open_writer`/`open_reader` hand out the log-structured
//! handles; `flatten` materializes a container back into a flat file
//! (the offline conversion tool shipped with PLFS).

use crate::backend::Backend;
use crate::container::{
    create_container, discover_droppings, is_container, read_meta, reserve_session, ContainerPaths,
};
use crate::metrics::PlfsMetrics;
use crate::read::Reader;
use crate::record::{err_token, OpLogRecorder};
use crate::retry::{append_at_reliable, RetriedBackend, RetryPolicy};
use crate::write::{Writer, WriterConfig};
use obs::recorder::Recorder;
use obs::trace::{TraceCtx, TraceSink};
use obs::Registry;
use std::io;
use std::sync::Arc;
use workloads::oplog::{OpKind, OpResult};

/// Global PLFS configuration.
#[derive(Debug, Clone)]
pub struct PlfsConfig {
    /// Subdirectories to spread droppings over within each container.
    pub hostdirs: u32,
    pub writer: WriterConfig,
    /// Retry policy for every backend operation: metadata, reads and
    /// the write path (each writer jitters its backoff by session).
    pub retry: RetryPolicy,
    /// Registry this instance records into. Cloning a `Registry` shares
    /// it, so pass an experiment-wide registry to collect `plfs.*` and
    /// `retry.*` series alongside everything else; the default is a
    /// private one.
    pub metrics: Registry,
    /// Causal trace sink shared by every handle of this instance
    /// (disabled by default; spans are timed from the instance clock).
    pub trace: TraceSink,
    /// Op-log capture (see [`crate::record`]): when set, every
    /// operation this instance performs on the recorder's logical file
    /// is appended to the recorder. Off by default.
    pub record: Option<Arc<OpLogRecorder>>,
    /// Flight-recorder probe shared by every handle (see
    /// [`obs::recorder::Recorder`]); the hot paths poll it once per op.
    /// Build it over this config's `metrics` registry so frames see the
    /// instance's series. Its clock becomes the instance clock, so a
    /// wall-clock recorder makes `plfs.*.lat_ns` and spans measure real
    /// time. Disabled by default, leaving the logical clock.
    pub flight: Recorder,
}

impl Default for PlfsConfig {
    fn default() -> Self {
        PlfsConfig {
            hostdirs: 32,
            writer: WriterConfig::default(),
            retry: RetryPolicy::default(),
            metrics: Registry::new(),
            trace: TraceSink::disabled(),
            record: None,
            flight: Recorder::disabled(),
        }
    }
}

/// Result of `stat` on a logical file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    pub size: u64,
    pub writers: usize,
    /// Whether the size came from close-time metadata droppings (fast
    /// path) rather than a full index merge.
    pub from_meta: bool,
}

/// The PLFS middleware instance.
pub struct Plfs {
    backend: Arc<dyn Backend>,
    cfg: PlfsConfig,
    /// Shared registry + clock + counter handles for every writer and
    /// reader this instance hands out.
    metrics: Arc<PlfsMetrics>,
}

impl Plfs {
    pub fn new(backend: Arc<dyn Backend>, mut cfg: PlfsConfig) -> Self {
        // Bind the retry policy to the instance registry so masked /
        // surfaced / backoff counts land next to the plfs.* series.
        cfg.retry = cfg.retry.bound_to(&cfg.metrics);
        let metrics = PlfsMetrics::new(&cfg);
        Plfs { backend, cfg, metrics }
    }

    /// The instrumentation bundle (registry, clock, counters) shared by
    /// all handles of this instance.
    pub fn metrics(&self) -> &Arc<PlfsMetrics> {
        &self.metrics
    }

    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    pub fn config(&self) -> &PlfsConfig {
        &self.cfg
    }

    fn paths(&self, logical: &str) -> ContainerPaths {
        ContainerPaths::new(logical, self.cfg.hostdirs)
    }

    /// The backend with per-operation transient-fault masking. Retry
    /// must wrap individual operations: wrapping a multi-call helper
    /// compounds the per-call fault probability instead of masking it.
    fn retried(&self) -> RetriedBackend<'_> {
        RetriedBackend::new(self.backend.as_ref(), &self.cfg.retry)
    }

    /// Append one op to the capture log, if capture is on.
    fn record(
        &self,
        logical: &str,
        rank: u32,
        op: OpKind,
        offset: u64,
        len: u64,
        result: OpResult,
    ) {
        if let Some(rec) = &self.metrics.recorder {
            rec.record(logical, rank, op, offset, len, result);
        }
    }

    /// `Ok`/`err:<kind>` result of a metadata op, recorded pass-through.
    fn record_meta<T>(
        &self,
        logical: &str,
        op: OpKind,
        len: u64,
        res: io::Result<T>,
    ) -> io::Result<T> {
        match &res {
            Ok(_) => self.record(logical, 0, op, 0, len, OpResult::Ok),
            Err(e) => self.record(logical, 0, op, 0, len, err_token(e)),
        }
        res
    }

    /// Create a logical file (container). Idempotent.
    pub fn create(&self, logical: &str) -> io::Result<()> {
        let res = create_container(&self.retried(), &self.paths(logical));
        self.record_meta(logical, OpKind::Create, 0, res)
    }

    /// Does the logical file exist?
    pub fn exists(&self, logical: &str) -> bool {
        is_container(self.backend.as_ref(), logical)
    }

    /// Open a write handle for `rank`, creating the container if needed.
    pub fn open_writer(&self, logical: &str, rank: u32) -> io::Result<Writer> {
        let paths = self.paths(logical);
        if !self.exists(logical) {
            create_container(&self.retried(), &paths)?;
        }
        // Atomically reserve this session *before* computing its epoch
        // floor. Reading a count of sessions and computing from it would
        // let two concurrent opens read the same count and mint colliding
        // stamp epochs, silently corrupting overwrite resolution; the CAS
        // marker makes every reservation globally unique.
        let session = reserve_session(&self.retried(), &paths)?;
        // A new session's stamps must exceed everything already stored:
        // reserve a fresh epoch in the high bits.
        let epoch_floor = (session + 1) << 40;
        self.metrics.clock.advance_to(epoch_floor);
        // Decorrelate this writer's retry backoff from its siblings: a
        // swarm stalled on the same group commit must not re-hit the
        // backend in lockstep.
        let retry = self.cfg.retry.clone().with_jitter_seed(session + 1);
        let res = Writer::new(
            self.backend.clone(),
            paths,
            self.cfg.writer.clone(),
            retry,
            rank,
            self.metrics.clone(),
            session,
        );
        match &res {
            Ok(_) => self.record(logical, rank, OpKind::OpenWriter, 0, 0, OpResult::Ok),
            Err(e) => self.record(logical, rank, OpKind::OpenWriter, 0, 0, err_token(e)),
        }
        res
    }

    /// Open a read handle (merges all indices).
    pub fn open_reader(&self, logical: &str) -> io::Result<Reader> {
        self.open_reader_as(logical, 0)
    }

    /// [`Plfs::open_reader`] attributed to `rank` in the capture log.
    /// Only readers opened through this API record their ops — internal
    /// reads (stat's slow path, flatten) stay out of the log.
    pub fn open_reader_as(&self, logical: &str, rank: u32) -> io::Result<Reader> {
        if !self.exists(logical) {
            let e = io::Error::new(io::ErrorKind::NotFound, format!("no such file: {logical}"));
            self.record(logical, rank, OpKind::OpenReader, 0, 0, err_token(&e));
            return Err(e);
        }
        let res = Reader::open(
            self.backend.clone(),
            self.paths(logical),
            self.cfg.retry.clone(),
            self.metrics.clone(),
        );
        match res {
            Ok(mut r) => {
                r.enable_recording(rank);
                self.record(logical, rank, OpKind::OpenReader, 0, 0, OpResult::Ok);
                Ok(r)
            }
            Err(e) => {
                self.record(logical, rank, OpKind::OpenReader, 0, 0, err_token(&e));
                Err(e)
            }
        }
    }

    /// `stat` without a full index merge when possible: closed
    /// containers answer from metadata droppings.
    pub fn stat(&self, logical: &str) -> io::Result<FileStat> {
        let res = self.stat_inner(logical);
        // `len` carries the observed size — stat's replay-checkable fact.
        let size = res.as_ref().map(|s| s.size).unwrap_or(0);
        self.record_meta(logical, OpKind::Stat, size, res)
    }

    fn stat_inner(&self, logical: &str) -> io::Result<FileStat> {
        if !self.exists(logical) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {logical}"),
            ));
        }
        let paths = self.paths(logical);
        let retried = self.retried();
        let metas = read_meta(&retried, &paths)?;
        let open_sessions =
            self.backend.list(&paths.openhosts_dir()).map(|v| !v.is_empty()).unwrap_or(false);
        let writers = discover_droppings(&retried, &paths)?.len();
        if !metas.is_empty() && !open_sessions && metas.len() == writers {
            // Fast path: every writer closed cleanly.
            return Ok(FileStat {
                size: metas.iter().map(|m| m.eof).max().unwrap_or(0),
                writers,
                from_meta: true,
            });
        }
        let reader = Reader::open(
            self.backend.clone(),
            paths,
            self.cfg.retry.clone(),
            self.metrics.clone(),
        )?;
        Ok(FileStat { size: reader.size(), writers, from_meta: false })
    }

    /// Remove a logical file and all its droppings.
    pub fn unlink(&self, logical: &str) -> io::Result<()> {
        let res = if !self.exists(logical) {
            Err(io::Error::new(io::ErrorKind::NotFound, format!("no such file: {logical}")))
        } else {
            self.cfg.retry.run(|| self.backend.remove_dir_all(logical.trim_end_matches('/')))
        };
        self.record_meta(logical, OpKind::Unlink, 0, res)
    }

    /// Materialize the container into a flat file at `dest` on the same
    /// backing store, in `chunk`-byte pieces. Returns bytes written.
    pub fn flatten(&self, logical: &str, dest: &str, chunk: usize) -> io::Result<u64> {
        assert!(chunk > 0);
        let reader = self.open_reader(logical)?;
        self.cfg.retry.run(|| self.backend.create(dest))?;
        let size = reader.size();
        let mut buf = vec![0u8; chunk];
        let mut pos = 0u64;
        let (backend, retry, untraced) =
            (self.backend.as_ref(), &self.cfg.retry, TraceCtx::disabled());
        while pos < size {
            let n = reader.read_at(pos, &mut buf)?;
            if n == 0 {
                break;
            }
            append_at_reliable(backend, retry, dest, pos, &buf[..n], false, &untraced, "", 0)?;
            pos += n as u64;
        }
        Ok(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn plfs() -> (Plfs, Arc<MemBackend>) {
        let b = Arc::new(MemBackend::new());
        (
            Plfs::new(
                b.clone() as Arc<dyn Backend>,
                PlfsConfig { hostdirs: 4, ..Default::default() },
            ),
            b,
        )
    }

    #[test]
    fn create_exists_unlink() {
        let (fs, _) = plfs();
        assert!(!fs.exists("/ckpt"));
        fs.create("/ckpt").unwrap();
        assert!(fs.exists("/ckpt"));
        fs.unlink("/ckpt").unwrap();
        assert!(!fs.exists("/ckpt"));
        assert!(fs.unlink("/ckpt").is_err());
    }

    #[test]
    fn write_read_roundtrip_via_fs() {
        let (fs, _) = plfs();
        let mut w = fs.open_writer("/data", 0).unwrap();
        w.write_at(0, b"top-level api").unwrap();
        w.close().unwrap();
        let r = fs.open_reader("/data").unwrap();
        assert_eq!(r.read_all().unwrap(), b"top-level api");
    }

    #[test]
    fn stat_fast_path_after_clean_close() {
        let (fs, _) = plfs();
        let mut w = fs.open_writer("/data", 0).unwrap();
        w.write_at(0, &[0u8; 4096]).unwrap();
        w.close().unwrap();
        let st = fs.stat("/data").unwrap();
        assert_eq!(st.size, 4096);
        assert!(st.from_meta, "clean close should stat from metadata");
    }

    #[test]
    fn stat_slow_path_while_open() {
        let (fs, _) = plfs();
        let mut w = fs.open_writer("/data", 0).unwrap();
        w.write_at(0, &[0u8; 100]).unwrap();
        w.sync().unwrap();
        let st = fs.stat("/data").unwrap();
        assert_eq!(st.size, 100);
        assert!(!st.from_meta, "open writer must force index merge");
        w.close().unwrap();
    }

    #[test]
    fn second_session_overwrites_first() {
        let (fs, _) = plfs();
        let mut w = fs.open_writer("/f", 0).unwrap();
        w.write_at(0, &[b'a'; 10]).unwrap();
        w.close().unwrap();
        // Re-open (new session) and overwrite the middle.
        let mut w2 = fs.open_writer("/f", 0).unwrap();
        w2.write_at(3, &[b'b'; 4]).unwrap();
        w2.close().unwrap();
        let data = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(&data, b"aaabbbbaaa");
    }

    #[test]
    fn flatten_produces_flat_copy() {
        let (fs, b) = plfs();
        let mut w0 = fs.open_writer("/f", 0).unwrap();
        let mut w1 = fs.open_writer("/f", 1).unwrap();
        for i in 0..50u64 {
            let (w, fill) = if i % 2 == 0 { (&mut w0, 0xAA) } else { (&mut w1, 0xBB) };
            w.write_at(i * 64, &[fill; 64]).unwrap();
        }
        w0.close().unwrap();
        w1.close().unwrap();
        let n = fs.flatten("/f", "/flat", 1000).unwrap();
        assert_eq!(n, 3200);
        let flat = b.read_all("/flat").unwrap();
        let logical = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(flat, logical);
    }

    #[test]
    fn open_reader_on_missing_file_errors() {
        let (fs, _) = plfs();
        assert!(fs.open_reader("/nope").is_err());
        assert!(fs.stat("/nope").is_err());
    }

    #[test]
    fn concurrent_writers_from_threads() {
        let (fs, _) = plfs();
        let fs = Arc::new(fs);
        fs.create("/par").unwrap();
        let mut handles = Vec::new();
        for rank in 0..8u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                let mut w = fs.open_writer("/par", rank).unwrap();
                // Rank-segmented N-1: each rank owns a 1 KiB region.
                w.write_at(rank as u64 * 1024, &[rank as u8; 1024]).unwrap();
                w.close().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let data = fs.open_reader("/par").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 8 * 1024);
        for rank in 0..8usize {
            assert!(data[rank * 1024..(rank + 1) * 1024].iter().all(|&x| x == rank as u8));
        }
    }
}
