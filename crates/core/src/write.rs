//! The PLFS write path.
//!
//! Each writing process gets a [`Writer`]: every `write_at` appends the
//! bytes to the rank's private data dropping and queues one index
//! entry. Nothing is ever overwritten and no two processes touch the
//! same backing file — the transformation that turns an N-1 strided
//! checkpoint into N independent sequential streams.
//!
//! Every file a writer touches — data dropping, index dropping and the
//! two checksum sidecars — is one private append log (`Log`): bytes
//! queue in memory and land, in order, at the log's known tail, with a
//! torn attempt resumed rather than duplicated. A write's physical
//! offset is the data log's tail plus what is already queued, so
//! small-write batching (a post-PDSI PLFS extension, report §1.1 item
//! 4) is just the flush threshold: data lands once `data_buffer` bytes
//! are queued, and write-through is the same path with threshold 0.
//! Each log's queue is allocated once per writer: a flush clears it and
//! keeps its capacity, so the data queue is a staging buffer the writer
//! keeps for its lifetime rather than one it regrows after every flush.
//! A write of at least `data_buffer` bytes is never staged: the staged
//! bytes land first, then the write straight from the caller's slice,
//! so the data queue stays below twice `data_buffer`.

use crate::backend::Backend;
use crate::checksum::{chk_header, ChkBuilder, VERIFY_BLOCK};
use crate::container::ContainerPaths;
use crate::index::{encode_compressed_into, IndexEntry};
use crate::metrics::PlfsMetrics;
use crate::record::err_token;
use crate::retry::{append_at_reliable, len_or_zero, RetryPolicy};
use obs::trace::{Phase, TraceCtx};
use std::io;
use std::sync::Arc;
use workloads::oplog::{OpKind, OpResult};

/// Writer-side knobs. The index is always pattern-compressed and every
/// dropping always gets a checksum sidecar (`chk.R` / `chki.R`, see
/// [`crate::checksum`]).
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Stage data locally and append once this many bytes are queued
    /// (0 = write-through: every write appends).
    pub data_buffer: usize,
    /// Flush the in-memory index every N entries (it always flushes on
    /// sync/close).
    pub index_flush_every: usize,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig { data_buffer: 1 << 20, index_flush_every: 4096 }
    }
}

/// One append-only file this writer owns exclusively.
///
/// Its queue is allocated once: a flush hands the bytes that landed to
/// the caller and then clears the queue, keeping its capacity, so a
/// steady stream of flushes neither regrows it by doubling nor faults
/// in fresh pages for it. The capacity kept is the largest the queue
/// reached; the writer never stages a write of `data_buffer` bytes or
/// more, which bounds the data queue's.
struct Log {
    path: String,
    /// Byte length of the file on the store.
    stored: u64,
    /// Bytes queued for `stored`; after a failed flush a prefix of them
    /// may already be on the store.
    pending: Vec<u8>,
    /// The last flush failed and may have torn: the next one re-measures
    /// the tail before appending.
    uncertain: bool,
}

impl Log {
    fn new(path: String, stored: u64) -> Self {
        Log { path, stored, pending: Vec::new(), uncertain: false }
    }

    /// Land `pending` at `stored`, resuming a torn earlier attempt, then
    /// `direct` straight from the caller's slice, so a large write is not
    /// copied into the queue first. Each run of bytes that lands is
    /// passed to `landed`; returns how many bytes landed in all. On
    /// failure whatever did not land stays queued, in order, for the
    /// next flush.
    fn flush(
        &mut self,
        to: &Sink,
        direct: &[u8],
        mut landed: impl FnMut(&[u8]),
    ) -> io::Result<usize> {
        let Log { path, stored, pending, uncertain } = self;
        let torn = *uncertain;
        let mut append = |bytes: &[u8], verify_first| {
            let res = to.append_at(path, *stored, bytes, verify_first);
            *uncertain = res.is_err();
            res.map(|()| {
                *stored += bytes.len() as u64;
                landed(bytes);
            })
        };
        let queued = pending.len();
        let res = append(pending, torn);
        if res.is_ok() {
            pending.clear();
        }
        // Only the queue can hold a torn attempt: once it has landed,
        // `stored` is exact.
        match res.and_then(|()| append(direct, false)) {
            Ok(()) => Ok(queued + direct.len()),
            Err(e) => {
                pending.extend_from_slice(direct);
                Err(e)
            }
        }
    }
}

/// Where a flush lands its bytes: the store, its retry policy, and the
/// trace span the appends are recorded under.
struct Sink<'a> {
    backend: &'a dyn Backend,
    retry: &'a RetryPolicy,
    trace: &'a TraceCtx,
    track: &'a str,
    parent: u64,
}

impl Sink<'_> {
    fn append_at(&self, path: &str, base: u64, bytes: &[u8], verify_first: bool) -> io::Result<()> {
        let Sink { backend, retry, trace, track, parent } = *self;
        append_at_reliable(backend, retry, path, base, bytes, verify_first, trace, track, parent)
    }
}

/// Per-writer cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriterStats {
    pub writes: u64,
    pub bytes: u64,
    pub data_appends: u64,
    pub index_appends: u64,
    pub index_bytes: u64,
}

/// An open write handle for one rank on one container.
///
/// Errors from `write_at`, `sync` and `close` mean that queued bytes
/// are not on the store yet. The writer keeps every accepted write —
/// including the one whose call failed — queued in order, and the next
/// `write_at`, `sync` or `close` lands it or surfaces the error again.
/// A write is durable once a later `sync` or `close` returns `Ok`.
pub struct Writer {
    backend: Arc<dyn Backend>,
    paths: ContainerPaths,
    cfg: WriterConfig,
    /// How hard to mask transient backend errors (see [`crate::retry`]).
    retry: RetryPolicy,
    rank: u32,
    /// Shared instrumentation + monotone stamp source (one per `Plfs`
    /// instance).
    metrics: Arc<PlfsMetrics>,
    max_logical: u64,
    /// The data dropping; its queue is the staging buffer.
    data: Log,
    /// Index entries not yet encoded into `index`'s queue.
    pending_index: Vec<IndexEntry>,
    /// The index dropping. Encoded bytes whose append failed stay queued
    /// as they are: re-encoding them with newer entries would not be
    /// prefix-compatible with a torn part already on the store.
    index: Log,
    /// Checksum sidecars and their builders: bytes are hashed the moment
    /// their append succeeds, sidecar entries land lazily on sync/close
    /// — so a sidecar may under-cover its file (crash artifact, reported
    /// as "uncovered") but never over-cover.
    chk: Log,
    data_crcs: ChkBuilder,
    chki: Log,
    index_crcs: ChkBuilder,
    stats: WriterStats,
    open_dropping: String,
    closed: bool,
}

impl Writer {
    pub(crate) fn new(
        backend: Arc<dyn Backend>,
        paths: ContainerPaths,
        cfg: WriterConfig,
        retry: RetryPolicy,
        rank: u32,
        metrics: Arc<PlfsMetrics>,
        session: u64,
    ) -> io::Result<Self> {
        // A new writer session invalidates any flattened-index cache a
        // previous reader left behind (see `crate::canonical`), and the
        // removal must come *before* the session becomes visible (the
        // open dropping below): a reader racing this open must see
        // either no cache or a stamp mismatch, never a stale cache
        // whose stamp still matches. Unconditional (no `exists` gate —
        // an exists/remove pair reintroduces the window); a concurrent
        // delete racing us is fine (NotFound == done).
        let canonical = paths.canonical_index();
        retry.run(|| match backend.remove(&canonical) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            r => r,
        })?;
        let open_dropping = paths.open_dropping(rank, session);
        retry.run(|| backend.create(&open_dropping))?;
        // Appending to an existing dropping resumes at its tail. The
        // length queries are retried: silently treating a transient
        // failure as "empty" would restart the log at 0 and corrupt it.
        let resume = |path: String| -> io::Result<Log> {
            let stored = len_or_zero(backend.as_ref(), &retry, &path)?;
            Ok(Log::new(path, stored))
        };
        let data = resume(paths.data_dropping(rank))?;
        let index = resume(paths.index_dropping(rank))?;
        // A previous session's sidecars go stale the moment this session
        // appends to the covered files (their close-time tail CRC no
        // longer matches the grown tail block), so remove them *before*
        // any append — a reader must never see a stale sidecar next to
        // grown data.
        for stale in [paths.chk_dropping(rank), paths.index_chk_dropping(rank)] {
            if backend.exists(&stale) {
                retry.run(|| match backend.remove(&stale) {
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                    r => r,
                })?;
            }
        }
        // Resuming a session re-hashes the whole existing dropping: the
        // rank is the sole writer of its log, so the writer trusts its
        // own bytes (verification is the reader's and scrub's job). This
        // also invalidates a previous close's tail CRC, which the
        // resumed appends would outgrow.
        let sidecar = |path: String, covered: &Log| -> io::Result<(Log, ChkBuilder)> {
            let mut crcs = ChkBuilder::new(VERIFY_BLOCK);
            if covered.stored > 0 {
                crcs.absorb(&retry.run(|| backend.read_all(&covered.path))?);
            }
            let mut log = Log::new(path, 0);
            log.pending = chk_header(VERIFY_BLOCK as u32);
            Ok((log, crcs))
        };
        let (chk, data_crcs) = sidecar(paths.chk_dropping(rank), &data)?;
        let (chki, index_crcs) = sidecar(paths.index_chk_dropping(rank), &index)?;
        Ok(Writer {
            backend,
            paths,
            cfg,
            retry,
            rank,
            metrics,
            max_logical: 0,
            data,
            pending_index: Vec::new(),
            index,
            chk,
            data_crcs,
            chki,
            index_crcs,
            stats: WriterStats::default(),
            open_dropping,
            closed: false,
        })
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn stats(&self) -> WriterStats {
        self.stats
    }

    /// Trace track naming this writer's logical thread.
    fn track(&self) -> String {
        if self.metrics.trace.enabled() {
            format!("rank.{}", self.rank)
        } else {
            String::new()
        }
    }

    /// Write `data` at logical offset `offset` — O(1) regardless of the
    /// logical layout: one log append plus one index record.
    ///
    /// An error means queued bytes (this write's among them) are not on
    /// the store yet; they stay queued, and the next `write_at`, `sync`
    /// or `close` lands them or returns the error again.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.write_at_opt(offset, data, None)
    }

    /// [`Writer::write_at`] with a caller-supplied index timestamp
    /// instead of a fresh clock stamp. This is the replay entry point:
    /// re-issuing a captured write with its *recorded* stamp makes the
    /// read path resolve cross-rank overlaps exactly as the capture run
    /// did, regardless of replay mode or parallelism. Callers own stamp
    /// hygiene — replays use recorded capture stamps or the generated
    /// epoch well above any live clock value.
    pub fn write_at_stamped(&mut self, offset: u64, data: &[u8], ts: u64) -> io::Result<()> {
        self.write_at_opt(offset, data, Some(ts))
    }

    fn write_at_opt(&mut self, offset: u64, data: &[u8], ts: Option<u64>) -> io::Result<()> {
        let t0 = self.metrics.clock.now_nanos();
        let res = self.write_at_inner(offset, data, ts);
        let dt = self.metrics.clock.now_nanos().saturating_sub(t0);
        self.metrics.write_lat.observe(dt);
        if res.is_err() {
            self.metrics.write_errors.inc();
        }
        self.metrics.flight.maybe_sample();
        if let Some(rec) = &self.metrics.recorder {
            let result = match &res {
                Ok(used) => OpResult::Write { stamp: *used },
                Err(e) => err_token(e),
            };
            rec.record(
                self.paths.base(),
                self.rank,
                OpKind::Write,
                offset,
                data.len() as u64,
                result,
            );
        }
        res.map(|_| ())
    }

    /// Returns the index stamp the write used (caller-supplied, or
    /// freshly taken from the instance clock).
    fn write_at_inner(&mut self, offset: u64, data: &[u8], ts: Option<u64>) -> io::Result<u64> {
        assert!(!self.closed, "write on closed Writer");
        if data.is_empty() {
            return Ok(ts.unwrap_or(0));
        }
        let op = self.metrics.trace.start("plfs.write_at", Phase::Compute, &self.track(), 0);
        let op_id = op.id();
        // A fresh stamp is taken *inside* the span: on the logical
        // clock, span durations are measured in stamps.
        let ts = ts.unwrap_or_else(|| self.metrics.clock.stamp());
        self.pending_index.push(IndexEntry {
            logical_offset: offset,
            length: data.len() as u64,
            physical_offset: self.data.stored + self.data.pending.len() as u64,
            writer: self.rank,
            timestamp: ts,
        });
        self.max_logical = self.max_logical.max(offset + data.len() as u64);
        self.stats.writes += 1;
        self.stats.bytes += data.len() as u64;
        self.metrics.write_ops.inc();
        self.metrics.write_bytes.add(data.len() as u64);

        if data.len() >= self.cfg.data_buffer {
            // Staging a write this large would only copy it.
            self.flush_data(op_id, data)?;
        } else {
            self.data.pending.extend_from_slice(data);
            if self.data.pending.len() >= self.cfg.data_buffer {
                self.flush_data(op_id, &[])?;
            }
        }
        if self.pending_index.len() >= self.cfg.index_flush_every {
            self.flush_index(op_id)?;
        }
        Ok(ts)
    }

    /// Land the staged data, then `direct` from the caller's slice (see
    /// `Log::flush`). The index entries stay queued behind both.
    fn flush_data(&mut self, parent: u64, direct: &[u8]) -> io::Result<()> {
        let appends = !self.data.pending.is_empty() as u64 + !direct.is_empty() as u64;
        if appends == 0 {
            return Ok(());
        }
        let track = self.track();
        let span = self.metrics.trace.start("plfs.data_append", Phase::Transfer, &track, parent);
        let to = Sink {
            backend: self.backend.as_ref(),
            retry: &self.retry,
            trace: &self.metrics.trace,
            track: &track,
            parent: span.id(),
        };
        let res = self.data.flush(&to, direct, |landed| self.data_crcs.absorb(landed));
        span.end();
        res?;
        self.stats.data_appends += appends;
        self.metrics.data_appends.add(appends);
        Ok(())
    }

    /// Land the queued index entries, after the data they point at: no
    /// index record may reach the store before its bytes.
    fn flush_index(&mut self, parent: u64) -> io::Result<()> {
        self.flush_data(parent, &[])?;
        encode_compressed_into(&self.pending_index, &mut self.index.pending);
        self.pending_index.clear();
        if self.index.pending.is_empty() {
            return Ok(());
        }
        let track = self.track();
        let span = self.metrics.trace.start("plfs.index_append", Phase::Transfer, &track, parent);
        let to = Sink {
            backend: self.backend.as_ref(),
            retry: &self.retry,
            trace: &self.metrics.trace,
            track: &track,
            parent: span.id(),
        };
        let res = self.index.flush(&to, &[], |landed| self.index_crcs.absorb(landed));
        span.end();
        let landed = res? as u64;
        self.stats.index_appends += 1;
        self.stats.index_bytes += landed;
        self.metrics.index_appends.inc();
        self.metrics.index_bytes_written.add(landed);
        Ok(())
    }

    /// Land pending sidecar entries (completed-block CRCs) after the
    /// bytes they cover; `seal` (close only) also covers the final
    /// partial block, so a cleanly closed container is checksummed to
    /// its last byte. Both sidecars are tried even if one fails.
    /// Sidecar appends bypass the data/index append counters: they are
    /// integrity overhead, not workload I/O.
    fn flush_sidecars(&mut self, seal: bool) -> io::Result<()> {
        let untraced = TraceCtx::disabled();
        let to = Sink {
            backend: self.backend.as_ref(),
            retry: &self.retry,
            trace: &untraced,
            track: "",
            parent: 0,
        };
        let mut res = Ok(());
        for (log, crcs) in
            [(&mut self.chk, &mut self.data_crcs), (&mut self.chki, &mut self.index_crcs)]
        {
            crcs.take_pending_into(&mut log.pending);
            if let Some(crc) = crcs.tail_crc().filter(|_| seal) {
                log.pending.extend_from_slice(&crc.to_le_bytes());
            }
            res = res.and(log.flush(&to, &[], |_| ()).map(drop));
        }
        res
    }

    /// Flush everything to the backing store. On error, whatever did not
    /// land stays queued for the next `write_at`, `sync` or `close`.
    pub fn sync(&mut self) -> io::Result<()> {
        let span = self.metrics.trace.start("plfs.sync", Phase::Compute, &self.track(), 0);
        let id = span.id();
        let res = (|| {
            self.flush_index(id)?;
            let chk =
                self.metrics.trace.start("plfs.chk_append", Phase::Transfer, &self.track(), id);
            let res = self.flush_sidecars(false);
            chk.end();
            res
        })();
        if let Some(rec) = &self.metrics.recorder {
            let result = match &res {
                Ok(()) => OpResult::Ok,
                Err(e) => err_token(e),
            };
            rec.record(self.paths.base(), self.rank, OpKind::Sync, 0, 0, result);
        }
        res
    }

    /// Close the handle: flush, seal the sidecars, drop the openhosts
    /// dropping, and leave a metadata summary so later opens can
    /// shortcut stat calls. On error the handle is dropped, which makes
    /// one more best-effort `sync` of whatever is still queued.
    pub fn close(mut self) -> io::Result<WriterStats> {
        let res = (|| {
            self.sync()?;
            self.flush_sidecars(true)?;
            let max_ts = self.metrics.clock.current();
            let meta =
                self.paths.meta_dropping(self.rank, self.max_logical, self.stats.bytes, max_ts);
            self.retry.run(|| self.backend.create(&meta))?;
            let _ = self.retry.run(|| self.backend.remove(&self.open_dropping));
            self.closed = true;
            Ok(())
        })();
        if let Some(rec) = &self.metrics.recorder {
            let result = match &res {
                Ok(()) => OpResult::Ok,
                Err(e) => err_token(e),
            };
            rec.record(self.paths.base(), self.rank, OpKind::CloseWriter, 0, 0, result);
        }
        res.map(|()| self.stats)
    }

    /// Drop the handle without flushing, as a crash would: for a writer
    /// whose state is unknown because a panic unwound through one of
    /// its calls. Whatever it still queues is lost.
    pub(crate) fn abandon(mut self) {
        self.closed = true;
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        if !self.closed {
            // Best-effort flush; errors surface on explicit sync/close.
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::checksum::Sidecar;
    use crate::container::{create_container, ContainerPaths};
    use crate::index::decode;
    use std::ops::ControlFlow::{Break, Continue};

    fn setup() -> (Arc<MemBackend>, ContainerPaths, Arc<PlfsMetrics>) {
        let b = Arc::new(MemBackend::new());
        let p = ContainerPaths::new("/f", 2);
        create_container(b.as_ref(), &p).unwrap();
        (b, p, PlfsMetrics::detached())
    }

    fn writer(
        b: &Arc<MemBackend>,
        p: &ContainerPaths,
        metrics: &Arc<PlfsMetrics>,
        rank: u32,
        cfg: WriterConfig,
    ) -> Writer {
        let b = b.clone() as Arc<dyn Backend>;
        Writer::new(b, p.clone(), cfg, RetryPolicy::default(), rank, metrics.clone(), 0).unwrap()
    }

    #[test]
    fn writes_append_sequentially_to_log() {
        let (b, p, clock) = setup();
        let mut w =
            writer(&b, &p, &clock, 0, WriterConfig { data_buffer: 0, ..Default::default() });
        // Wildly scattered logical offsets...
        w.write_at(1_000_000, b"aaa").unwrap();
        w.write_at(0, b"bb").unwrap();
        w.write_at(500, b"cccc").unwrap();
        w.sync().unwrap();
        // ...but the data dropping is a dense log.
        let log = b.read_all(&p.data_dropping(0)).unwrap();
        assert_eq!(log, b"aaabbcccc");
        let idx = decode(&b.read_all(&p.index_dropping(0)).unwrap()).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[0].physical_offset, 0);
        assert_eq!(idx[1].physical_offset, 3);
        assert_eq!(idx[2].physical_offset, 5);
        assert_eq!(idx[2].logical_offset, 500);
    }

    #[test]
    fn buffered_writes_batch_appends() {
        let (b, p, clock) = setup();
        let cfg = WriterConfig { data_buffer: 1024, index_flush_every: 1 << 30 };
        let mut w = writer(&b, &p, &clock, 1, cfg);
        for i in 0..64u64 {
            w.write_at(i * 100, &[7u8; 100]).unwrap();
        }
        w.sync().unwrap();
        let st = w.stats();
        assert_eq!(st.writes, 64);
        assert_eq!(st.bytes, 6400);
        // 6400 bytes at 1 KiB buffer: 6 full flushes + 1 final = 7.
        assert!(st.data_appends <= 8, "batching failed: {} appends", st.data_appends);
        assert_eq!(b.len(&p.data_dropping(1)).unwrap(), 6400);
    }

    #[test]
    fn close_leaves_meta_and_clears_openhosts() {
        let (b, p, clock) = setup();
        let mut w = writer(&b, &p, &clock, 2, WriterConfig::default());
        w.write_at(0, &[1u8; 128]).unwrap();
        let stats = w.close().unwrap();
        assert_eq!(stats.bytes, 128);
        assert!(b.list(&p.openhosts_dir()).unwrap().is_empty());
        let metas = crate::container::read_meta(b.as_ref(), &p).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].rank, 2);
        assert_eq!(metas[0].eof, 128);
    }

    #[test]
    fn compressed_index_is_smaller_for_strided_pattern() {
        let (b, p, clock) = setup();
        let cfg = WriterConfig { data_buffer: 0, index_flush_every: 1 << 30 };
        let mut w = writer(&b, &p, &clock, 0, cfg);
        for i in 0..1000u64 {
            w.write_at(i * 8192, &[0u8; 1024]).unwrap();
        }
        w.sync().unwrap();
        let compressed = w.stats().index_bytes;
        let entries = decode(&b.read_all(&p.index_dropping(0)).unwrap()).unwrap();
        let raw = crate::index::encode_raw(&entries).len() as u64;
        assert!(compressed * 20 < raw, "pattern compression ineffective: {compressed} vs {raw}");
    }

    #[test]
    fn reopen_resumes_at_log_tail() {
        let (b, p, clock) = setup();
        let mut w =
            writer(&b, &p, &clock, 0, WriterConfig { data_buffer: 0, ..Default::default() });
        w.write_at(0, b"12345").unwrap();
        w.close().unwrap();
        let mut w2 =
            writer(&b, &p, &clock, 0, WriterConfig { data_buffer: 0, ..Default::default() });
        w2.write_at(100, b"678").unwrap();
        w2.sync().unwrap();
        let idx = decode(&b.read_all(&p.index_dropping(0)).unwrap()).unwrap();
        assert_eq!(idx[1].physical_offset, 5, "second session must resume at tail");
        assert_eq!(b.read_all(&p.data_dropping(0)).unwrap(), b"12345678");
    }

    #[test]
    fn metrics_track_write_path_exactly() {
        let (b, p, m) = setup();
        let mut w = writer(&b, &p, &m, 0, WriterConfig { data_buffer: 0, ..Default::default() });
        w.write_at(0, &[1u8; 100]).unwrap();
        w.write_at(100, &[2u8; 28]).unwrap();
        w.sync().unwrap();
        let reg = &m.registry;
        assert_eq!(reg.value("plfs.write.ops"), Some(2));
        assert_eq!(reg.value("plfs.write.bytes"), Some(128));
        assert_eq!(reg.value("plfs.write.data_appends"), Some(2));
        assert_eq!(reg.value("plfs.write.index_appends"), Some(1));
        let idx_bytes = reg.value("plfs.write.index_bytes").unwrap();
        assert_eq!(idx_bytes, w.stats().index_bytes);
        assert!(idx_bytes > 0);
    }

    /// Every byte of `covered` in exactly one matching `sidecar` entry.
    fn assert_sidecar_covers(b: &MemBackend, sidecar: &str, covered: &str) {
        let Ok(Sidecar::Parsed(cov)) = Sidecar::load(b, covered, sidecar) else {
            panic!("{sidecar} did not parse");
        };
        assert_eq!((cov.block, cov.uncovered(), cov.overclaim()), (VERIFY_BLOCK, 0, None));
        let bad = cov.walk(b, covered, |k, _, ok| if ok { Continue(()) } else { Break(k) });
        assert_eq!(bad.unwrap(), None, "{sidecar}: first mismatched block");
    }

    #[test]
    fn close_leaves_sidecars_covering_every_byte() {
        let (b, p, m) = setup();
        let mut w = writer(&b, &p, &m, 0, WriterConfig { data_buffer: 0, ..Default::default() });
        w.write_at(0, &vec![3u8; 5000]).unwrap(); // spans a block boundary
        w.write_at(5000, b"tail").unwrap();
        w.close().unwrap();
        assert_sidecar_covers(&b, &p.chk_dropping(0), &p.data_dropping(0));
        assert_sidecar_covers(&b, &p.index_chk_dropping(0), &p.index_dropping(0));
    }

    /// Several buffered flushes, then close: every byte lands once, in
    /// order, and both sidecars cover it with matching CRCs.
    #[test]
    fn buffered_flushes_land_and_cover_every_byte() {
        let (b, p, m) = setup();
        let cfg = WriterConfig { data_buffer: 5000, ..Default::default() };
        let mut w = writer(&b, &p, &m, 0, cfg.clone());
        let total = 3 * cfg.data_buffer + 17;
        let bytes: Vec<u8> = (0..total).map(|i| (i * 7 + i / 251) as u8).collect();
        for (k, piece) in bytes.chunks(777).enumerate() {
            w.write_at((k * 777) as u64, piece).unwrap();
        }
        assert!(w.stats().data_appends >= 2, "expected several flushes before close");
        w.close().unwrap();
        assert_eq!(b.read_all(&p.data_dropping(0)).unwrap(), bytes);
        assert_sidecar_covers(&b, &p.chk_dropping(0), &p.data_dropping(0));
        assert_sidecar_covers(&b, &p.index_chk_dropping(0), &p.index_dropping(0));
    }

    /// A flush clears its log's queue rather than taking it: across
    /// identical rounds of writes and syncs, all four queues keep the
    /// allocation and capacity the first round gave them.
    #[test]
    fn log_queues_keep_their_allocation_across_flushes() {
        let (b, p, m) = setup();
        let cfg = WriterConfig { data_buffer: 1 << 20, index_flush_every: 1 << 30 };
        let mut w = writer(&b, &p, &m, 0, cfg);
        let queues = |w: &Writer| {
            [&w.data, &w.index, &w.chk, &w.chki].map(|log| {
                assert!(log.pending.is_empty());
                (log.pending.as_ptr(), log.pending.capacity())
            })
        };
        let mut first = None;
        let mut off = 0;
        for round in 0..5u8 {
            // 256 KiB of alternating 1 KiB / 3 KiB writes: 64 sidecar
            // entries a round, and 128 raw index records (5 248 B), so the
            // index sidecar gains an entry or two each round as well.
            for len in [1024, 3072].repeat(64) {
                w.write_at(off, &vec![round; len]).unwrap();
                off += len as u64;
            }
            w.sync().unwrap();
            let now = queues(&w);
            assert!(now.iter().all(|&(_, cap)| cap > 0), "round {round}: a queue was taken");
            assert_eq!(now, *first.get_or_insert(now), "round {round}: a queue moved");
        }
        assert_eq!(w.stats().data_appends, 5);
        assert_eq!(w.stats().index_appends, 5);
        w.close().unwrap();
        assert_eq!(b.len(&p.data_dropping(0)).unwrap(), off);
        assert_sidecar_covers(&b, &p.chk_dropping(0), &p.data_dropping(0));
        assert_sidecar_covers(&b, &p.index_chk_dropping(0), &p.index_dropping(0));
    }

    /// A write far larger than `data_buffer` lands from the caller's
    /// slice and never grows the data queue, write-through (threshold
    /// 0) included.
    #[test]
    fn data_queue_never_stages_an_oversized_write() {
        for data_buffer in [0, 4096] {
            let (b, p, m) = setup();
            let cfg = WriterConfig { data_buffer, index_flush_every: 1 << 30 };
            let mut w = writer(&b, &p, &m, 0, cfg);
            w.write_at(0, &vec![7u8; 1 << 20]).unwrap();
            let cap = w.data.pending.capacity();
            assert!(cap <= 2 * data_buffer, "data_buffer {data_buffer}: kept {cap} B");
            w.write_at(1 << 20, &[8u8; 100]).unwrap();
            w.close().unwrap();
            assert_eq!(b.len(&p.data_dropping(0)).unwrap(), (1 << 20) + 100);
            assert_sidecar_covers(&b, &p.chk_dropping(0), &p.data_dropping(0));
        }
    }

    #[test]
    fn reopen_rebuilds_sidecars_over_all_sessions() {
        let (b, p, m) = setup();
        let mut w = writer(&b, &p, &m, 0, WriterConfig::default());
        w.write_at(0, &vec![1u8; 3000]).unwrap();
        w.close().unwrap();
        // Session two grows the same partial block the first close's
        // tail CRC covered — the sidecar must be rebuilt, not extended.
        let mut w2 = writer(&b, &p, &m, 0, WriterConfig::default());
        w2.write_at(3000, &vec![2u8; 3000]).unwrap();
        w2.close().unwrap();
        assert_sidecar_covers(&b, &p.chk_dropping(0), &p.data_dropping(0));
        assert_sidecar_covers(&b, &p.index_chk_dropping(0), &p.index_dropping(0));
    }

    /// With the default config, small writes fill the index queue long
    /// before the data buffer. The index flush must land the staged
    /// data first, or its extents name bytes that are not on the store.
    #[test]
    fn index_flush_lands_data_first() {
        use crate::filesystem::{Plfs, PlfsConfig};
        use crate::fsck::{fsck, FsckError};
        let b = Arc::new(MemBackend::new());
        let cfg = PlfsConfig::default();
        let hostdirs = cfg.hostdirs;
        let fs = Plfs::new(b.clone() as Arc<dyn Backend>, cfg);
        let mut w = fs.open_writer("/f", 0).unwrap();
        let n = WriterConfig::default().index_flush_every as u64;
        for i in 0..n {
            w.write_at(i * 64, &[(i % 251) as u8; 64]).unwrap();
        }
        // No sync: only the index threshold has flushed anything.
        let report = fsck(b.as_ref(), "/f", hostdirs).unwrap();
        assert!(
            report.errors.len() == 1
                && matches!(report.errors[0], FsckError::StaleOpenSession { .. }),
            "expected only the open session, got {} errors, first {:?}",
            report.errors.len(),
            &report.errors[..report.errors.len().min(3)],
        );
        let data = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 262_144);
        for (i, rec) in data.chunks(64).enumerate() {
            assert!(rec.iter().all(|&x| x == (i % 251) as u8), "record {i}");
        }
        w.close().unwrap();
    }

    #[test]
    fn drop_without_close_still_flushes() {
        let (b, p, clock) = setup();
        {
            let mut w = writer(&b, &p, &clock, 0, WriterConfig::default());
            w.write_at(0, &[9u8; 10]).unwrap();
            // dropped here
        }
        assert_eq!(b.len(&p.data_dropping(0)).unwrap(), 10);
        assert!(b.len(&p.index_dropping(0)).unwrap() > 0);
    }
}
