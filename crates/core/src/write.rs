//! The PLFS write path.
//!
//! Each writing process gets a [`Writer`]: every `write_at` appends the
//! bytes to the rank's private data dropping and queues one index
//! entry. Nothing is ever overwritten and no two processes touch the
//! same backing file — the transformation that turns an N-1 strided
//! checkpoint into N independent sequential streams.
//!
//! Small-write batching (a post-PDSI PLFS extension, report §1.1 item 4)
//! is built in: data is staged in a local buffer and appended to the
//! backing store in large chunks; correctness is unaffected because
//! physical offsets are assigned from the writer's private cursor.

use crate::backend::Backend;
use crate::checksum::{chk_header, ChkBuilder, VERIFY_BLOCK};
use crate::container::ContainerPaths;
use crate::index::{encode_compressed, IndexEntry};
use crate::metrics::PlfsMetrics;
use crate::record::err_token;
use crate::retry::{append_at_reliable, append_at_reliable_traced, len_or_zero, RetryPolicy};
use obs::trace::Phase;
use std::io;
use std::sync::Arc;
use workloads::oplog::{OpKind, OpResult};

/// Writer-side knobs. The index is always pattern-compressed and every
/// dropping always gets a checksum sidecar (`chk.R` / `chki.R`, see
/// [`crate::checksum`]).
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Stage data locally and append in chunks of this size (0 =
    /// write-through).
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

/// In-flight state of one checksum sidecar (`chk.R` or `chki.R`).
struct SidecarState {
    path: String,
    builder: ChkBuilder,
    /// Encoded sidecar bytes not yet on the store (header first, then
    /// completed-block CRC entries).
    pending: Vec<u8>,
    /// Byte length of the sidecar on the store.
    cursor: u64,
    /// Last sidecar append failed and may have torn.
    uncertain: bool,
}

/// Flush a sidecar's pending bytes, resuming any torn prior attempt.
/// `seal` (close only) also covers the final partial block, so a
/// cleanly closed container is checksummed to its last byte.
fn flush_sidecar(
    backend: &dyn Backend,
    retry: &RetryPolicy,
    sc: &mut SidecarState,
    seal: bool,
) -> io::Result<()> {
    let completed = sc.builder.take_pending();
    sc.pending.extend_from_slice(&completed);
    if let Some(crc) = sc.builder.tail_crc().filter(|_| seal) {
        sc.pending.extend_from_slice(&crc.to_le_bytes());
    }
    if sc.pending.is_empty() {
        return Ok(());
    }
    let pending = std::mem::take(&mut sc.pending);
    match append_at_reliable(backend, retry, &sc.path, sc.cursor, &pending, sc.uncertain) {
        Ok(()) => {
            sc.cursor += pending.len() as u64;
            sc.uncertain = false;
            Ok(())
        }
        Err(e) => {
            sc.pending = pending;
            sc.uncertain = true;
            Err(e)
        }
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
    /// Next physical offset in the data dropping.
    cursor: u64,
    max_logical: u64,
    buf: Vec<u8>,
    /// Physical offset of buf[0].
    buf_base: u64,
    pending_index: Vec<IndexEntry>,
    /// Already-encoded index bytes whose append failed part-way: they
    /// must land (resumed, not duplicated) before anything newer.
    pending_encoded: Vec<u8>,
    /// Byte length of the index dropping on the store.
    index_cursor: u64,
    /// A data/index append failed and may have torn — the next append
    /// to that file must re-measure the tail before writing.
    data_tail_uncertain: bool,
    index_tail_uncertain: bool,
    /// Checksum sidecars: bytes are hashed the moment their append
    /// succeeds, sidecar entries land lazily on sync/close — so a
    /// sidecar may under-cover its file (crash artifact, reported as
    /// "uncovered") but never over-cover.
    chk: SidecarState,
    chki: SidecarState,
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
        // failure as "empty" would restart the cursor at 0 and corrupt
        // the log.
        let cursor = len_or_zero(backend.as_ref(), &retry, &paths.data_dropping(rank))?;
        let index_cursor = len_or_zero(backend.as_ref(), &retry, &paths.index_dropping(rank))?;
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
        let mk = |path: String, covered_path: String, covered: u64| -> io::Result<SidecarState> {
            let mut builder = ChkBuilder::new(VERIFY_BLOCK);
            let mut pending = chk_header(VERIFY_BLOCK as u32);
            if covered > 0 {
                let existing = retry.run(|| backend.read_all(&covered_path))?;
                builder.absorb(&existing);
                pending.extend_from_slice(&builder.take_pending());
            }
            Ok(SidecarState { path, builder, pending, cursor: 0, uncertain: false })
        };
        let chk = mk(paths.chk_dropping(rank), paths.data_dropping(rank), cursor)?;
        let chki = mk(paths.index_chk_dropping(rank), paths.index_dropping(rank), index_cursor)?;
        Ok(Writer {
            backend,
            paths,
            cfg,
            retry,
            rank,
            metrics,
            cursor,
            max_logical: 0,
            buf: Vec::new(),
            buf_base: cursor,
            pending_index: Vec::new(),
            pending_encoded: Vec::new(),
            index_cursor,
            data_tail_uncertain: false,
            index_tail_uncertain: false,
            chk,
            chki,
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
        if let Some(m) = &self.metrics.meters {
            m.write_rate.mark(data.len() as u64);
            m.write_lat.observe(dt);
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
        let phys = self.cursor;
        self.pending_index.push(IndexEntry {
            logical_offset: offset,
            length: data.len() as u64,
            physical_offset: phys,
            writer: self.rank,
            timestamp: ts,
        });
        self.cursor += data.len() as u64;
        self.max_logical = self.max_logical.max(offset + data.len() as u64);
        self.stats.writes += 1;
        self.stats.bytes += data.len() as u64;
        self.metrics.write_ops.inc();
        self.metrics.write_bytes.add(data.len() as u64);

        if self.cfg.data_buffer == 0 {
            self.append_data(phys, data, op_id)?;
            self.buf_base = self.cursor;
            self.stats.data_appends += 1;
            self.metrics.data_appends.inc();
        } else {
            self.buf.extend_from_slice(data);
            if self.buf.len() >= self.cfg.data_buffer {
                self.flush_data(op_id)?;
            }
        }
        if self.pending_index.len() >= self.cfg.index_flush_every {
            self.flush_index(op_id)?;
        }
        Ok(ts)
    }

    /// Land `data` at exactly `base` in the data dropping, resuming any
    /// torn previous attempt. On a surfaced failure the tail is marked
    /// uncertain so the next attempt re-measures instead of duplicating.
    fn append_data(&mut self, base: u64, data: &[u8], parent: u64) -> io::Result<()> {
        let path = self.paths.data_dropping(self.rank);
        let track = self.track();
        let span = self.metrics.trace.start("plfs.data_append", Phase::Transfer, &track, parent);
        let res = append_at_reliable_traced(
            self.backend.as_ref(),
            &self.retry,
            &path,
            base,
            data,
            self.data_tail_uncertain,
            &self.metrics.trace,
            &track,
            span.id(),
        );
        span.end();
        self.data_tail_uncertain = res.is_err();
        if res.is_ok() {
            self.chk.builder.absorb(data);
        }
        res
    }

    fn flush_data(&mut self, parent: u64) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let base = self.buf_base;
        // `buf` is only appended to between attempts, so a torn prefix
        // left by a failed flush is still a prefix of the current buf
        // and the resume logic in `append_data` stays valid.
        let buf = std::mem::take(&mut self.buf);
        let res = self.append_data(base, &buf, parent);
        match res {
            Ok(()) => {
                self.buf_base += buf.len() as u64;
                self.stats.data_appends += 1;
                self.metrics.data_appends.inc();
                Ok(())
            }
            Err(e) => {
                self.buf = buf; // keep the bytes for the next attempt
                Err(e)
            }
        }
    }

    fn flush_index(&mut self, parent: u64) -> io::Result<()> {
        // First finish any encoded batch whose append previously failed:
        // its bytes may already partially be on the store, and nothing
        // newer may land before it.
        if !self.pending_encoded.is_empty() {
            let encoded = std::mem::take(&mut self.pending_encoded);
            if let Err(e) = self.append_index_bytes(&encoded, parent) {
                self.pending_encoded = encoded;
                return Err(e);
            }
        }
        if self.pending_index.is_empty() {
            return Ok(());
        }
        let encoded = encode_compressed(&self.pending_index);
        self.pending_index.clear();
        if let Err(e) = self.append_index_bytes(&encoded, parent) {
            // Keep the exact bytes: re-encoding later (after more
            // entries queued) would not be prefix-compatible with what
            // already landed.
            self.pending_encoded = encoded;
            return Err(e);
        }
        Ok(())
    }

    fn append_index_bytes(&mut self, encoded: &[u8], parent: u64) -> io::Result<()> {
        let path = self.paths.index_dropping(self.rank);
        let track = self.track();
        let span = self.metrics.trace.start("plfs.index_append", Phase::Transfer, &track, parent);
        let res = append_at_reliable_traced(
            self.backend.as_ref(),
            &self.retry,
            &path,
            self.index_cursor,
            encoded,
            self.index_tail_uncertain,
            &self.metrics.trace,
            &track,
            span.id(),
        );
        span.end();
        self.index_tail_uncertain = res.is_err();
        if res.is_ok() {
            self.index_cursor += encoded.len() as u64;
            self.stats.index_appends += 1;
            self.stats.index_bytes += encoded.len() as u64;
            self.metrics.index_appends.inc();
            self.metrics.index_bytes_written.add(encoded.len() as u64);
            self.chki.builder.absorb(encoded);
        }
        res
    }

    /// Land pending sidecar entries (completed-block CRCs) after the
    /// bytes they cover. Sidecar appends bypass the data/index append
    /// counters: they are integrity overhead, not workload I/O.
    fn flush_sidecars(&mut self, parent: u64) -> io::Result<()> {
        let span =
            self.metrics.trace.start("plfs.chk_append", Phase::Transfer, &self.track(), parent);
        let mut res = Ok(());
        for sc in [&mut self.chk, &mut self.chki] {
            let r = flush_sidecar(self.backend.as_ref(), &self.retry, sc, false);
            if res.is_ok() {
                res = r;
            }
        }
        span.end();
        res
    }

    /// Flush everything to the backing store.
    pub fn sync(&mut self) -> io::Result<()> {
        let span = self.metrics.trace.start("plfs.sync", Phase::Compute, &self.track(), 0);
        let id = span.id();
        let res = (|| {
            self.flush_data(id)?;
            self.flush_index(id)?;
            self.flush_sidecars(id)
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

    /// Close the handle: flush, drop the openhosts dropping, and leave
    /// a metadata summary so later opens can shortcut stat calls.
    pub fn close(mut self) -> io::Result<WriterStats> {
        let res = (|| {
            self.sync()?;
            for sc in [&mut self.chk, &mut self.chki] {
                flush_sidecar(self.backend.as_ref(), &self.retry, sc, true)?;
            }
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
