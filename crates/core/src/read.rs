//! The PLFS read path.
//!
//! Reading is where the deferred work happens: every writer's index
//! dropping is fetched and decoded on a bounded worker pool (the
//! "parallelize index redistribution" extension of report §1.1 item 5),
//! pre-merged per rank, k-way merged into one overlap-resolved
//! [`IndexMap`], and then `read_at` scatter-gathers from the per-rank
//! data droppings. Unwritten holes read as zeros, POSIX-style.
//!
//! `read_at` is a parallel, coalescing engine: the extent pieces a
//! request maps to are grouped per data dropping, physically-adjacent
//! runs are coalesced into single backend reads (one open batch
//! per writer, built in a single pass over the pieces), and the
//! per-dropping batches fan out onto the bounded worker pool with
//! results scattered straight into the caller's buffer. A
//! per-reader dropping cache keeps the resolved dropping paths and a
//! readahead block per writer, so sequential [`Reader::read_all`]-style
//! scans stream instead of paying per-piece path resolution and one
//! backend op per extent. The serial per-piece path survives as
//! [`Reader::read_at_serial`] — the differential-testing oracle and the
//! baseline `repro readscale` measures the engine against.
//!
//! After a successful merge the reader persists the flattened extent
//! list as a `canonical.index` dropping (see [`crate::canonical`]); a
//! warm re-open loads it and decodes zero raw entries, or just the
//! tails of droppings that grew since. The cache is best-effort both
//! ways: failing to write it never fails the open, and anything
//! suspicious about it falls back to a full rebuild.

use crate::backend::Backend;
use crate::canonical::{self, CanonicalIndex, Tail};
use crate::checksum::{crc32, Coverage, Sidecar};
use crate::container::{discover_droppings, epoch_watermark, ContainerPaths};
use crate::index::{decode_backed, Backing, IndexEntry, IndexMap};
use crate::metrics::PlfsMetrics;
use crate::pool;
use crate::retry::{len_or_zero_once, IntegrityError, RetriedBackend, RetryPolicy};
use obs::trace::Phase;
use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use workloads::oplog::{OpKind, OpResult};

/// Upper bound on bytes buffered at once by whole-file reads
/// ([`Reader::read_all`] / [`Reader::for_each_chunk`]). A sparse file
/// with one byte at a multi-GB offset streams through a scratch buffer
/// of at most this size instead of materializing `eof` bytes up front.
pub const READ_CHUNK: usize = 8 << 20;

/// Default per-dropping readahead for sequential scans: when a batch
/// continues exactly where the previous read of that dropping ended,
/// the engine over-reads by up to this much and serves the follow-on
/// batch from memory.
pub const DEFAULT_READAHEAD: u64 = 128 * 1024;

/// Statistics about an assembled container index.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    pub writers: usize,
    /// Raw index entries decoded by this open. A warm open served
    /// entirely from the flattened-index cache decodes zero.
    pub raw_entries: usize,
    pub merged_extents: usize,
    pub index_bytes: u64,
    /// Whether a valid `canonical.index` seeded the merge.
    pub from_canonical: bool,
    /// Entries decoded from dropping tails newer than the cache stamp.
    pub tail_entries: usize,
    /// Logical merge cost (see [`IndexMap::merge_steps`]).
    pub merge_steps: u64,
}

/// What a reader does upon detecting corrupt (checksum-mismatched)
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuarantinePolicy {
    /// Surface an [`IntegrityError`] — no corrupt byte ever reaches the
    /// caller. The right default for checkpoint restart: a silently
    /// wrong restart is worse than a failed one.
    #[default]
    FailStop,
    /// Serve zeros for the bad block, count the failure, keep going —
    /// graceful degradation for bulk analysis over mostly-good data.
    /// Bytes from an *unverifiable* dropping (corrupt sidecar) are
    /// served raw under this policy.
    ZeroFill,
}

/// Verification state of one writer's data dropping, loaded at open.
enum ChkState {
    /// No sidecar (a crash before the first sidecar flush, or a sidecar
    /// `repair` removed).
    Uncovered,
    /// Sidecar loaded; per-block verification runs lazily on first
    /// touch, memoized in the bitmaps.
    Covered(ChkTable),
    /// The sidecar itself is unreadable/inconsistent: nothing about the
    /// dropping can be trusted.
    Corrupt(String),
}

impl ChkState {
    /// The reader's policy over [`Sidecar::load`]: trust nothing about
    /// a dropping whose sidecar is unreadable, unparseable, or claims
    /// blocks past its end.
    fn load(backend: &dyn Backend, data_path: &str, sidecar: &str) -> Self {
        match Sidecar::load(backend, data_path, sidecar) {
            Err(e) => ChkState::Corrupt(format!("sidecar unreadable: {e}")),
            Ok(Sidecar::Absent) => ChkState::Uncovered,
            Ok(Sidecar::Unparseable { why, .. }) => ChkState::Corrupt(why),
            Ok(Sidecar::Parsed(cov)) if cov.overclaim().is_some() => ChkState::Corrupt(format!(
                "sidecar covers {} blocks but dropping holds {} bytes",
                cov.crcs.len(),
                cov.len
            )),
            Ok(Sidecar::Parsed(cov)) => ChkState::Covered(ChkTable::new(cov)),
        }
    }
}

/// A dropping's coverage (never overclaimed) plus verify-once
/// memoization, one bit per entry.
struct ChkTable {
    cov: Coverage,
    verified: Vec<AtomicU64>,
    corrupt: Vec<AtomicU64>,
}

impl ChkTable {
    fn new(cov: Coverage) -> Self {
        let words = cov.crcs.len().div_ceil(64);
        ChkTable {
            cov,
            verified: (0..words).map(|_| AtomicU64::new(0)).collect(),
            corrupt: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn get(bits: &[AtomicU64], k: u64) -> bool {
        bits[(k / 64) as usize].load(Ordering::Relaxed) >> (k % 64) & 1 == 1
    }

    fn set(bits: &[AtomicU64], k: u64) {
        bits[(k / 64) as usize].fetch_or(1 << (k % 64), Ordering::Relaxed);
    }
}

/// An open read handle on a container.
pub struct Reader {
    backend: Arc<dyn Backend>,
    paths: ContainerPaths,
    retry: RetryPolicy,
    map: IndexMap,
    stats: ReadStats,
    metrics: Arc<PlfsMetrics>,
    /// Per-dropping handle/readahead cache (see [`DropState`]). The
    /// index is immutable for the reader's lifetime and droppings are
    /// append-only, so cached bytes can never go stale.
    drops: Mutex<HashMap<u32, DropState>>,
    readahead: u64,
    /// Per-writer checksum tables, loaded once at open (droppings and
    /// sidecars are append-only; the table never goes stale for the
    /// bytes it covers).
    chk: HashMap<u32, ChkState>,
    verify: bool,
    quarantine: QuarantinePolicy,
    /// `Some(rank)` when this handle's reads go into the capture log
    /// attributed to `rank` (set by [`crate::Plfs::open_reader_as`]);
    /// internal readers (stat, flatten) stay `None` and record nothing.
    record_rank: Option<u32>,
}

/// Cached per-dropping state: the resolved path (the "handle" — path
/// formatting is the per-piece cost the cache exists to kill) plus the
/// most recent readahead surplus.
struct DropState {
    path: Arc<str>,
    /// Physical offset the cached block starts at.
    cache_phys: u64,
    /// Bytes `[cache_phys, cache_phys + cache.len())` of the dropping.
    cache: Vec<u8>,
    /// Physical offset one past the last read — the sequential-scan
    /// detector that arms readahead.
    next_phys: u64,
}

/// One coalesced backend read: a contiguous physical run of one
/// writer's data dropping, scattered into (possibly many) disjoint
/// segments of the caller's buffer. Built by [`Reader::read_at`] in a
/// single pass over the lookup pieces — each writer keeps one open
/// batch, and a piece continuing that batch's physical run is appended
/// instead of starting a new backend read. No sorting: the pieces tile
/// the buffer in logical order, which is also per-writer physical
/// order for append-only droppings, so the common N-1 strided restart
/// collapses to one batch per dropping.
struct Batch<'a> {
    writer: u32,
    physical: u64,
    len: u64,
    /// `(offset within the run, destination slice of the caller's buf)`.
    segs: Vec<(u64, &'a mut [u8])>,
}

/// Read at least `need` bytes of `buf` starting at `off`, looping at
/// the advanced offset on short-but-nonzero reads (POSIX `pread` may
/// deliver fewer bytes than asked anywhere in the file; only `Ok(0)`
/// means EOF). Each backend call is individually retried per `retry`.
/// Returns the total bytes read (may exceed `need` up to `buf.len()` —
/// the readahead surplus); errors with `UnexpectedEof` only when true
/// EOF arrives before `need` bytes.
pub(crate) fn read_at_least(
    backend: &dyn Backend,
    retry: &RetryPolicy,
    path: &str,
    off: u64,
    buf: &mut [u8],
    need: usize,
    backend_ops: &mut u64,
) -> io::Result<usize> {
    let mut filled = 0usize;
    while filled < need {
        *backend_ops += 1;
        let got = retry.run(|| backend.read_at(path, off + filled as u64, &mut buf[filled..]))?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{path} truncated: wanted {need} at {off}, got {filled}"),
            ));
        }
        filled += got;
    }
    Ok(filled)
}

/// What the ingest stage produced for the merge.
struct Ingest {
    /// Per-source pre-merged fragments (canonical cache and/or ranks).
    fragment_lists: Vec<Vec<IndexEntry>>,
    raw_entries: usize,
    tail_entries: usize,
    index_bytes: u64,
    from_canonical: bool,
    /// Peak concurrently-running fetch+decode jobs.
    peak_workers: usize,
    /// Cache stamps to persist after the merge (`None`: don't persist —
    /// the cache is already exactly current).
    persist: Option<(u64, Vec<(u32, u64)>)>,
}

impl Reader {
    /// Open the container: discover droppings, fetch + decode every
    /// index concurrently (bounded by the host's parallelism), merge.
    /// Transient backend errors during discovery and index fetch are
    /// masked per `retry`.
    pub(crate) fn open(
        backend: Arc<dyn Backend>,
        paths: ContainerPaths,
        retry: RetryPolicy,
        metrics: Arc<PlfsMetrics>,
    ) -> io::Result<Self> {
        let span = metrics.open_timer.start();
        let root = metrics.trace.start("plfs.open", Phase::Compute, "plfs.read", 0);
        let root_id = root.id();
        // Per-operation retry: wrapping the whole discovery (dozens of
        // backend calls) in one retry unit would compound the per-call
        // fault probability instead of masking it.
        let retried = RetriedBackend::new(backend.as_ref(), &retry);
        let droppings = discover_droppings(&retried, &paths)?;
        let writers = droppings.len();

        let ingest = ingest(&retried, &paths, &droppings, &metrics, root_id)?;

        let merge_span = metrics.trace.start("index.merge", Phase::Compute, "plfs.read", root_id);
        let total_fragments: usize = ingest.fragment_lists.iter().map(Vec::len).sum();
        let mut all = Vec::with_capacity(total_fragments);
        for list in &ingest.fragment_lists {
            all.extend_from_slice(list);
        }
        let map = IndexMap::build(all);
        merge_span.end();

        // Persist the flattened view for the next open (best-effort:
        // the cache is never load-bearing).
        if let Some((watermark, covered)) = ingest.persist {
            let canon = CanonicalIndex { watermark, covered, fragments: map.fragments() };
            if write_canonical(&retried, &paths, &canon).is_ok() {
                metrics.canonical_writes.inc();
            }
        }

        metrics.merge_fanin.observe(writers as u64);
        metrics.raw_entries.add(ingest.raw_entries as u64);
        metrics.tail_entries.add(ingest.tail_entries as u64);
        metrics.merged_extents.add(map.extents().len() as u64);
        metrics.index_bytes_read.add(ingest.index_bytes);
        metrics.merge_steps.add(map.merge_steps());
        metrics.decode_concurrency.observe(ingest.peak_workers as u64);
        if ingest.from_canonical {
            metrics.canonical_hits.inc();
        }
        // Load checksum sidecars (verify-on-read). Droppings and
        // sidecars are append-only and a new writer session deletes its
        // rank's sidecars before touching data, so a table loaded here
        // stays valid for every byte it covers.
        let mut chk = HashMap::new();
        for (rank, _, data_path) in &droppings {
            chk.insert(*rank, ChkState::load(&retried, data_path, &paths.chk_dropping(*rank)));
        }

        root.end();
        span.stop();
        Ok(Reader {
            backend,
            paths,
            retry,
            stats: ReadStats {
                writers,
                raw_entries: ingest.raw_entries,
                merged_extents: map.extents().len(),
                index_bytes: ingest.index_bytes,
                from_canonical: ingest.from_canonical,
                tail_entries: ingest.tail_entries,
                merge_steps: map.merge_steps(),
            },
            map,
            metrics,
            drops: Mutex::new(HashMap::new()),
            readahead: DEFAULT_READAHEAD,
            chk,
            verify: true,
            quarantine: QuarantinePolicy::default(),
            record_rank: None,
        })
    }

    /// Attribute this handle's ops to `rank` in the instance capture
    /// log. Only [`crate::Plfs::open_reader_as`] calls this — internal
    /// readers never record.
    pub(crate) fn enable_recording(&mut self, rank: u32) {
        self.record_rank = rank.into();
    }

    /// Capture one delivered read: requested length in the len column,
    /// delivered count + CRC32 of the delivered bytes in the result.
    fn record_read(&self, offset: u64, requested: usize, delivered: &[u8]) {
        if let Some(rank) = self.record_rank {
            if let Some(rec) = &self.metrics.recorder {
                rec.record(
                    self.paths.base(),
                    rank,
                    OpKind::Read,
                    offset,
                    requested as u64,
                    OpResult::Read { got: delivered.len() as u64, crc: crc32(delivered) },
                );
            }
        }
    }

    /// Tune the per-dropping readahead (bytes; 0 disables over-reads).
    /// Benchmarks use this to isolate coalescing from readahead.
    pub fn set_readahead(&mut self, bytes: u64) {
        self.readahead = bytes;
    }

    /// Enable/disable checksum verification on reads (default on).
    /// Disabling is for benchmarking the verification overhead; data
    /// from droppings no sidecar covers is served either way.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Choose what happens when verification detects corruption.
    pub fn set_quarantine(&mut self, policy: QuarantinePolicy) {
        self.quarantine = policy;
    }

    /// Verify the checksummed blocks overlapping `buf`, which holds the
    /// bytes at physical `[phys, phys + buf.len())` of `writer`'s data
    /// dropping. Each covered block is CRC-checked once per reader
    /// (memoized in the table's bitmaps); blocks only partially inside
    /// `buf` are re-read in full from the backend (counted in `ops`).
    /// On mismatch: `FailStop` surfaces an [`IntegrityError`];
    /// `ZeroFill` zeroes the block's overlap with `buf` and continues.
    fn verify_span(&self, writer: u32, phys: u64, buf: &mut [u8], ops: &mut u64) -> io::Result<()> {
        if !self.verify || buf.is_empty() {
            return Ok(());
        }
        let table = match self.chk.get(&writer) {
            None | Some(ChkState::Uncovered) => return Ok(()),
            Some(ChkState::Corrupt(detail)) => {
                return match self.quarantine {
                    QuarantinePolicy::FailStop => Err(IntegrityError {
                        path: self.paths.chk_dropping(writer),
                        offset: 0,
                        detail: detail.clone(),
                    }
                    .into_io()),
                    // Nothing provably bad, nothing verifiable: serve
                    // the bytes raw. `fsck::scrub` reports the sidecar.
                    QuarantinePolicy::ZeroFill => Ok(()),
                };
            }
            Some(ChkState::Covered(t)) => t,
        };
        let bsz = table.cov.block;
        let span_end = phys + buf.len() as u64;
        for k in phys / bsz..=(span_end - 1) / bsz {
            if k as usize >= table.cov.crcs.len() {
                break; // uncovered tail (crash or mid-session bytes)
            }
            let Range { start: bstart, end: bend } = table.cov.block_range(k as usize);
            let mut bad = ChkTable::get(&table.corrupt, k);
            if !bad && !ChkTable::get(&table.verified, k) {
                let crc = if bstart >= phys && bend <= span_end {
                    crc32(&buf[(bstart - phys) as usize..(bend - phys) as usize])
                } else {
                    // Block straddles the span: verify a full re-read.
                    let mut whole = vec![0u8; (bend - bstart) as usize];
                    let need = whole.len();
                    read_at_least(
                        self.backend.as_ref(),
                        &self.retry,
                        &self.paths.data_dropping(writer),
                        bstart,
                        &mut whole,
                        need,
                        ops,
                    )?;
                    crc32(&whole)
                };
                self.metrics.verify_blocks.inc();
                self.metrics.verify_bytes.add(bend - bstart);
                if crc == table.cov.crcs[k as usize] {
                    ChkTable::set(&table.verified, k);
                } else {
                    ChkTable::set(&table.corrupt, k);
                    self.metrics.verify_failures.inc();
                    bad = true;
                }
            }
            if bad {
                match self.quarantine {
                    QuarantinePolicy::FailStop => {
                        return Err(IntegrityError {
                            path: self.paths.data_dropping(writer),
                            offset: bstart,
                            detail: format!(
                                "block {k} checksum mismatch ({} bytes)",
                                bend - bstart
                            ),
                        }
                        .into_io());
                    }
                    QuarantinePolicy::ZeroFill => {
                        let zs = (bstart.max(phys) - phys) as usize;
                        let ze = (bend.min(span_end) - phys) as usize;
                        buf[zs..ze].fill(0);
                    }
                }
            }
        }
        Ok(())
    }

    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Logical file size.
    pub fn size(&self) -> u64 {
        self.map.eof()
    }

    /// The merged index (for flattening and analysis).
    pub fn index(&self) -> &IndexMap {
        &self.map
    }

    /// Read into `buf` at `offset`. Returns bytes read (short at EOF);
    /// holes within the file read as zeros.
    ///
    /// This is the parallel coalescing engine: extent pieces are
    /// grouped per data dropping, physically-adjacent runs become one
    /// backend read each, and the batches fan out
    /// onto the bounded worker pool with results scattered straight
    /// into `buf`. `plfs.read.bytes` counts only bytes actually
    /// delivered: a failed read contributes nothing.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let t0 = self.metrics.clock.now_nanos();
        let res = self.read_at_uninstrumented(offset, buf);
        let dt = self.metrics.clock.now_nanos().saturating_sub(t0);
        self.metrics.read_lat.observe(dt);
        if res.is_err() {
            self.metrics.read_errors.inc();
        }
        self.metrics.flight.maybe_sample();
        res
    }

    fn read_at_uninstrumented(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let eof = self.map.eof();
        let requested = buf.len();
        self.metrics.read_ops.inc();
        if offset >= eof {
            self.record_read(offset, requested, &[]);
            return Ok(0);
        }
        let want = (buf.len() as u64).min(eof - offset) as usize;
        let mut rest = &mut buf[..want];
        let pieces = self.map.lookup(offset, want as u64);
        let root = self.metrics.trace.start("plfs.read", Phase::Transfer, "plfs.read", 0);
        let root_id = root.id();

        // One pass over the pieces — they tile `[offset, offset+want)`
        // in logical order, so the caller's buffer is peeled into
        // disjoint per-piece slices as we go: holes are zero-filled
        // immediately, data slices attach to the writer's open batch
        // when they continue its physical run, else start a new one.
        let mut batches: Vec<Batch> = Vec::new();
        let mut open: HashMap<u32, usize> = HashMap::new();
        for (_, piece_len, extent) in pieces {
            let tail = std::mem::take(&mut rest);
            let (seg, tail) = tail.split_at_mut(piece_len as usize);
            rest = tail;
            let Some(x) = extent else {
                seg.fill(0);
                continue;
            };
            match open.get(&x.writer) {
                Some(&j) if batches[j].physical + batches[j].len == x.physical => {
                    let b = &mut batches[j];
                    b.segs.push((b.len, seg));
                    b.len += piece_len;
                }
                _ => {
                    open.insert(x.writer, batches.len());
                    batches.push(Batch {
                        writer: x.writer,
                        physical: x.physical,
                        len: piece_len,
                        segs: vec![(0, seg)],
                    });
                }
            }
        }

        // Fan out, one job per batch. Each batch sits in a Mutex so the
        // shared `Fn` closure can hand its worker exclusive access.
        let coalesced: u64 = batches.iter().filter(|b| b.segs.len() >= 2).map(|b| b.len).sum();
        let n_batches = batches.len();
        let jobs: Vec<Mutex<Batch>> = batches.into_iter().map(Mutex::new).collect();
        let cap = pool::available_parallelism();
        let (results, peak) = pool::run_bounded(n_batches, cap, |i| {
            self.serve_batch(&mut jobs[i].lock().unwrap(), root_id)
        });
        let mut backend_ops = 0u64;
        for r in results {
            backend_ops += r?;
        }

        if n_batches > 0 {
            self.metrics.read_batches.add(n_batches as u64);
            self.metrics.read_backend_ops.add(backend_ops);
            self.metrics.read_parallelism.observe(peak as u64);
            self.metrics.read_coalesced_bytes.add(coalesced);
        }
        self.metrics.read_bytes.add(want as u64);
        root.end();
        // The batch borrows end here; capture sees the delivered bytes.
        drop(jobs);
        self.record_read(offset, requested, &buf[..want]);
        Ok(want)
    }

    /// [`Reader::verify_span`] under a `read.verify` trace span
    /// parented to the batch that fetched the bytes.
    fn verify_traced(
        &self,
        writer: u32,
        phys: u64,
        buf: &mut [u8],
        ops: &mut u64,
        parent: u64,
    ) -> io::Result<()> {
        if !self.verify {
            return Ok(());
        }
        let span = self.metrics.trace.start("read.verify", Phase::Compute, "plfs.read", parent);
        let res = self.verify_span(writer, phys, buf, ops);
        span.end();
        res
    }

    /// Serve one coalesced batch: one contiguous physical run of one
    /// dropping, scattered into its routed buffer segments. Returns the
    /// number of backend reads issued (0 on a readahead-cache hit).
    fn serve_batch(&self, b: &mut Batch<'_>, root_id: u64) -> io::Result<u64> {
        let span = self.metrics.trace.start("read.batch", Phase::Transfer, "plfs.read", root_id);
        let blen = b.len as usize;
        let mut ops = 0u64;

        let mut drops = self.drops.lock().unwrap();
        let st = drops.entry(b.writer).or_insert_with(|| DropState {
            path: Arc::from(self.paths.data_dropping(b.writer).as_str()),
            cache_phys: 0,
            cache: Vec::new(),
            next_phys: 0,
        });
        // Served entirely from the readahead block?
        if b.physical >= st.cache_phys
            && b.physical + b.len <= st.cache_phys + st.cache.len() as u64
        {
            let base = (b.physical - st.cache_phys) as usize;
            for (run_off, seg) in b.segs.iter_mut() {
                let s = base + *run_off as usize;
                seg.copy_from_slice(&st.cache[s..s + seg.len()]);
            }
            st.next_phys = b.physical + b.len;
            self.metrics.read_readahead_hits.inc();
            span.end();
            return Ok(0);
        }
        // A batch continuing exactly where the last one ended is a
        // sequential scan: over-read so the next batch hits the cache.
        let sequential = st.next_phys == b.physical && self.readahead > 0;
        let path = st.path.clone();
        st.next_phys = b.physical + b.len;
        // Never hold the dropping-map lock across backend I/O — other
        // batches of this read would serialize behind it.
        drop(drops);

        let ext = if sequential { self.readahead as usize } else { 0 };
        if ext == 0 && b.segs.len() == 1 && b.segs[0].1.len() == blen {
            // Single-segment batch, no over-read: straight into `buf`.
            let (_, seg) = &mut b.segs[0];
            read_at_least(
                self.backend.as_ref(),
                &self.retry,
                &path,
                b.physical,
                seg,
                blen,
                &mut ops,
            )?;
            self.verify_traced(b.writer, b.physical, seg, &mut ops, span.id())?;
            span.end();
            return Ok(ops);
        }
        let mut scratch = vec![0u8; blen + ext];
        let got = read_at_least(
            self.backend.as_ref(),
            &self.retry,
            &path,
            b.physical,
            &mut scratch,
            blen,
            &mut ops,
        )?;
        // Verify everything fetched — including readahead surplus — so
        // the cache only ever holds verified (or quarantine-zeroed)
        // bytes; the cache-hit path above serves without re-checking.
        self.verify_traced(b.writer, b.physical, &mut scratch[..got], &mut ops, span.id())?;
        for (run_off, seg) in b.segs.iter_mut() {
            let s = *run_off as usize;
            seg.copy_from_slice(&scratch[s..s + seg.len()]);
        }
        if got > blen {
            // Stash the over-read surplus for the follow-on batch.
            let mut drops = self.drops.lock().unwrap();
            if let Some(st) = drops.get_mut(&b.writer) {
                scratch.copy_within(blen..got, 0);
                scratch.truncate(got - blen);
                st.cache = scratch;
                st.cache_phys = b.physical + b.len;
            }
        }
        span.end();
        Ok(ops)
    }

    /// The serial per-piece read path: one backend read per extent, no
    /// coalescing, no fan-out, no readahead. Kept as the differential-
    /// testing oracle for the engine and the baseline `repro readscale`
    /// measures against. Same POSIX semantics as [`Reader::read_at`]
    /// (short reads looped, holes zeroed, bytes counted on delivery).
    pub fn read_at_serial(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let eof = self.map.eof();
        let requested = buf.len();
        self.metrics.read_ops.inc();
        if offset >= eof {
            self.record_read(offset, requested, &[]);
            return Ok(0);
        }
        let want = (buf.len() as u64).min(eof - offset) as usize;
        let mut ops = 0u64;
        for (piece_off, piece_len, extent) in self.map.lookup(offset, want as u64) {
            let dst = (piece_off - offset) as usize;
            let dst_end = dst + piece_len as usize;
            match extent {
                None => buf[dst..dst_end].fill(0),
                Some(x) => {
                    let data_path = self.paths.data_dropping(x.writer);
                    read_at_least(
                        self.backend.as_ref(),
                        &self.retry,
                        &data_path,
                        x.physical,
                        &mut buf[dst..dst_end],
                        piece_len as usize,
                        &mut ops,
                    )?;
                    self.verify_span(x.writer, x.physical, &mut buf[dst..dst_end], &mut ops)?;
                }
            }
        }
        self.metrics.read_backend_ops.add(ops);
        self.metrics.read_bytes.add(want as u64);
        self.record_read(offset, requested, &buf[..want]);
        Ok(want)
    }

    /// Stream the whole logical file through `f(offset, chunk)` in
    /// chunks of at most [`READ_CHUNK`] bytes. Peak buffering is one
    /// chunk regardless of EOF — a sparse file with one byte at a
    /// multi-GB offset never materializes the hole.
    pub fn for_each_chunk<F>(&self, mut f: F) -> io::Result<()>
    where
        F: FnMut(u64, &[u8]) -> io::Result<()>,
    {
        let eof = self.size();
        let mut scratch = vec![0u8; eof.min(READ_CHUNK as u64) as usize];
        let mut off = 0u64;
        while off < eof {
            let n = ((eof - off) as usize).min(READ_CHUNK);
            let got = self.read_at(off, &mut scratch[..n])?;
            debug_assert_eq!(got, n, "mid-file reads are never short");
            f(off, &scratch[..got])?;
            off += got as u64;
        }
        Ok(())
    }

    /// Read the whole logical file (convenience for flatten/tests).
    /// Streams via [`Reader::for_each_chunk`], so transient buffering
    /// stays bounded even though the returned vector is the full file.
    pub fn read_all(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.size() as usize);
        self.for_each_chunk(|_, chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(out)
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        // Capture-visible readers bracket their reads with rclose so a
        // replayed log tears down read handles where the capture did.
        if let Some(rank) = self.record_rank {
            if let Some(rec) = &self.metrics.recorder {
                rec.record(self.paths.base(), rank, OpKind::CloseReader, 0, 0, OpResult::Ok);
            }
        }
    }
}

/// Load, validate, fetch, and decode everything the merge needs:
/// the canonical cache if fresh, plus whole droppings (cold) or just
/// grown tails (warm-with-appends) on the bounded pool.
fn ingest(
    retried: &RetriedBackend<'_>,
    paths: &ContainerPaths,
    droppings: &[(u32, String, String)],
    metrics: &Arc<PlfsMetrics>,
    root_id: u64,
) -> io::Result<Ingest> {
    // Try the flattened-index cache first; any other outcome rebuilds.
    if let canonical::Loaded::Fresh(canon, tails) = canonical::load(retried, paths) {
        if tails.is_empty() {
            return Ok(Ingest {
                index_bytes: canon.covered.iter().map(|&(_, l)| l).sum(),
                fragment_lists: vec![canon.fragments],
                raw_entries: 0,
                tail_entries: 0,
                from_canonical: true,
                peak_workers: 0,
                persist: None, // exactly current already
            });
        }
        if let Some(mut ingest) = ingest_tails(retried, paths, &tails, metrics, root_id) {
            // Stamp the refreshed cache with the grown lengths.
            let mut covered: std::collections::HashMap<u32, u64> =
                canon.covered.iter().copied().collect();
            for t in &tails {
                covered.insert(t.rank, t.len);
            }
            let mut covered: Vec<(u32, u64)> = covered.into_iter().collect();
            covered.sort_unstable();
            ingest.persist = Some((canon.watermark, covered));
            ingest.fragment_lists.push(canon.fragments);
            ingest.from_canonical = true;
            ingest.index_bytes += canon.covered.iter().map(|&(_, l)| l).sum::<u64>();
            return Ok(ingest);
        }
        // A torn or undecodable tail: fall through to a cold rebuild.
    }

    // Cold path: fetch + decode + pre-merge every rank concurrently.
    // Stamp with the epoch watermark *before* reading the droppings: a
    // writer session that lands mid-merge advances the watermark, so
    // the stale stamp invalidates whatever this merge saw.
    let watermark = epoch_watermark(retried, paths);
    let cap = pool::available_parallelism();
    let results: Vec<io::Result<(Vec<IndexEntry>, usize, u64)>>;
    let peak;
    (results, peak) = pool::run_bounded(droppings.len(), cap, |i| {
        let (_, idx_path, data_path) = &droppings[i];
        let fetch = metrics.trace.start("index.fetch", Phase::Transfer, "plfs.read", root_id);
        let blob = retried.read_all(idx_path)?;
        // Measured after the index: data lands before the records that
        // map it, so a record read here never outruns this length.
        let data_len = len_or_zero_once(retried, data_path)?;
        fetch.end();
        let span = metrics.trace.start("index.decode", Phase::Compute, "plfs.read", root_id);
        let entries = decode_backed(&blob, Backing::Data(data_len)).whole()?;
        span.end();
        let raw = entries.len();
        // Pre-merge this rank's entries so the global merge is a k-way
        // merge of already-disjoint runs.
        let pre = crate::index::sweep_merge(entries);
        Ok((pre.frags, raw, blob.len() as u64))
    });
    let mut fragment_lists = Vec::with_capacity(droppings.len());
    let mut raw_entries = 0usize;
    let mut index_bytes = 0u64;
    let mut covered = Vec::with_capacity(droppings.len());
    for (r, (rank, ..)) in results.into_iter().zip(droppings) {
        let (frags, raw, bytes) = r?;
        raw_entries += raw;
        index_bytes += bytes;
        covered.push((*rank, bytes));
        fragment_lists.push(frags);
    }
    Ok(Ingest {
        fragment_lists,
        raw_entries,
        tail_entries: 0,
        index_bytes,
        from_canonical: false,
        peak_workers: peak,
        persist: Some((watermark, covered)),
    })
}

/// Fetch + decode just the grown tails a fresh cache listed.
/// `None` means a tail was unreadable — caller rebuilds cold.
fn ingest_tails(
    retried: &RetriedBackend<'_>,
    paths: &ContainerPaths,
    tails: &[Tail],
    metrics: &Arc<PlfsMetrics>,
    root_id: u64,
) -> Option<Ingest> {
    let cap = pool::available_parallelism();
    let (results, peak) = pool::run_bounded(tails.len(), cap, |i| {
        let t = &tails[i];
        let fetch = metrics.trace.start("index.fetch", Phase::Transfer, "plfs.read", root_id);
        let mut buf = vec![0u8; (t.len - t.covered) as usize];
        let got = retried.read_at(&t.index_path, t.covered, &mut buf).ok()?;
        buf.truncate(got);
        let data_len = len_or_zero_once(retried, &paths.data_dropping(t.rank)).ok()?;
        fetch.end();
        let span = metrics.trace.start("index.decode", Phase::Compute, "plfs.read", root_id);
        // The covered stamp always ends on a record boundary (it was a
        // whole dropping when stamped), so the tail decodes standalone.
        let entries = decode_backed(&buf, Backing::Data(data_len)).whole().ok()?;
        span.end();
        Some((entries, buf.len() as u64))
    });
    let mut fragment_lists = Vec::with_capacity(tails.len() + 1);
    let mut raw_entries = 0usize;
    let mut index_bytes = 0u64;
    for r in results {
        let (entries, bytes) = r?;
        raw_entries += entries.len();
        index_bytes += bytes;
        fragment_lists.push(entries);
    }
    Some(Ingest {
        fragment_lists,
        raw_entries,
        tail_entries: raw_entries,
        index_bytes,
        from_canonical: false, // caller flips after attaching fragments
        peak_workers: peak,
        persist: None, // caller stamps
    })
}

/// Persist a canonical index (create truncates any stale one first).
fn write_canonical(
    retried: &RetriedBackend<'_>,
    paths: &ContainerPaths,
    canon: &CanonicalIndex,
) -> io::Result<()> {
    let path = paths.canonical_index();
    retried.create(&path)?;
    retried.append(&path, &canon.encode())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::container::{create_container, ContainerPaths};
    use crate::filesystem::PlfsConfig;
    use crate::write::{Writer, WriterConfig};

    fn setup(hostdirs: u32) -> (Arc<MemBackend>, ContainerPaths, Arc<PlfsMetrics>) {
        let b = Arc::new(MemBackend::new());
        let p = ContainerPaths::new("/f", hostdirs);
        create_container(b.as_ref(), &p).unwrap();
        (b, p, PlfsMetrics::detached())
    }

    fn mkwriter(
        b: &Arc<MemBackend>,
        p: &ContainerPaths,
        metrics: &Arc<PlfsMetrics>,
        rank: u32,
    ) -> Writer {
        Writer::new(
            b.clone() as Arc<dyn Backend>,
            p.clone(),
            WriterConfig::default(),
            RetryPolicy::default(),
            rank,
            metrics.clone(),
            0,
        )
        .unwrap()
    }

    fn reader(b: &Arc<MemBackend>, p: &ContainerPaths) -> Reader {
        Reader::open(
            b.clone() as Arc<dyn Backend>,
            p.clone(),
            RetryPolicy::none(),
            PlfsMetrics::detached(),
        )
        .unwrap()
    }

    #[test]
    fn single_writer_roundtrip() {
        let (b, p, clock) = setup(2);
        let mut w = mkwriter(&b, &p, &clock, 0);
        w.write_at(0, b"hello ").unwrap();
        w.write_at(6, b"world").unwrap();
        w.close().unwrap();
        let r = reader(&b, &p);
        assert_eq!(r.size(), 11);
        assert_eq!(r.read_all().unwrap(), b"hello world");
    }

    #[test]
    fn n1_strided_reassembles() {
        // 8 ranks write a strided N-1 checkpoint of 64 records.
        let (b, p, clock) = setup(4);
        let ranks = 8u32;
        let rec = 1000usize;
        let total_recs = 64u64;
        let mut writers: Vec<Writer> = (0..ranks).map(|r| mkwriter(&b, &p, &clock, r)).collect();
        for record in 0..total_recs {
            let rank = (record % ranks as u64) as usize;
            let fill = (record % 251) as u8;
            writers[rank].write_at(record * rec as u64, &vec![fill; rec]).unwrap();
        }
        for w in writers {
            w.close().unwrap();
        }
        let r = reader(&b, &p);
        assert_eq!(r.size(), total_recs * rec as u64);
        let data = r.read_all().unwrap();
        for record in 0..total_recs {
            let fill = (record % 251) as u8;
            let s = record as usize * rec;
            assert!(data[s..s + rec].iter().all(|&x| x == fill), "record {record} corrupt");
        }
        assert_eq!(r.stats().writers, ranks as usize);
        assert_eq!(r.stats().raw_entries, total_recs as usize);
    }

    #[test]
    fn holes_read_as_zeros() {
        let (b, p, clock) = setup(1);
        let mut w = mkwriter(&b, &p, &clock, 0);
        w.write_at(100, b"xx").unwrap();
        w.close().unwrap();
        let r = reader(&b, &p);
        assert_eq!(r.size(), 102);
        let data = r.read_all().unwrap();
        assert!(data[..100].iter().all(|&x| x == 0));
        assert_eq!(&data[100..], b"xx");
    }

    #[test]
    fn read_past_eof_is_short() {
        let (b, p, clock) = setup(1);
        let mut w = mkwriter(&b, &p, &clock, 0);
        w.write_at(0, b"abc").unwrap();
        w.close().unwrap();
        let r = reader(&b, &p);
        let mut buf = [0u8; 10];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 3);
        assert_eq!(r.read_at(3, &mut buf).unwrap(), 0);
        assert_eq!(r.read_at(999, &mut buf).unwrap(), 0);
    }

    #[test]
    fn overwrite_last_writer_wins() {
        let (b, p, clock) = setup(2);
        let mut w0 = mkwriter(&b, &p, &clock, 0);
        let mut w1 = mkwriter(&b, &p, &clock, 1);
        w0.write_at(0, &[b'a'; 100]).unwrap();
        w1.write_at(50, &[b'b'; 100]).unwrap();
        w0.close().unwrap();
        w1.close().unwrap();
        let r = reader(&b, &p);
        let data = r.read_all().unwrap();
        assert_eq!(data.len(), 150);
        assert!(data[..50].iter().all(|&x| x == b'a'));
        assert!(data[50..].iter().all(|&x| x == b'b'));
    }

    #[test]
    fn many_writers_parallel_decode_path() {
        let (b, p, clock) = setup(8);
        for rank in 0..16u32 {
            let mut w = mkwriter(&b, &p, &clock, rank);
            w.write_at(rank as u64 * 10, &[rank as u8; 10]).unwrap();
            w.close().unwrap();
        }
        let r = reader(&b, &p);
        assert_eq!(r.stats().writers, 16);
        let data = r.read_all().unwrap();
        for rank in 0..16usize {
            assert!(data[rank * 10..(rank + 1) * 10].iter().all(|&x| x == rank as u8));
        }
    }

    #[test]
    fn decoder_concurrency_stays_bounded() {
        let (b, p, clock) = setup(8);
        let ranks = (pool::available_parallelism() * 3).max(12) as u32;
        for rank in 0..ranks {
            let mut w = mkwriter(&b, &p, &clock, rank);
            w.write_at(rank as u64 * 10, &[rank as u8; 10]).unwrap();
            w.close().unwrap();
        }
        let rm = PlfsMetrics::detached();
        let r =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        assert_eq!(r.stats().writers, ranks as usize);
        let h = rm.registry.histogram("plfs.index.decode_concurrency");
        assert_eq!(h.count(), 1);
        assert!(
            h.max() <= pool::available_parallelism() as u64,
            "peak decoder concurrency {} exceeds available parallelism {}",
            h.max(),
            pool::available_parallelism()
        );
    }

    #[test]
    fn unaligned_reads_cross_extents() {
        let (b, p, clock) = setup(2);
        let mut w0 = mkwriter(&b, &p, &clock, 0);
        let mut w1 = mkwriter(&b, &p, &clock, 1);
        // Alternating 10-byte records from two ranks.
        for i in 0..10u64 {
            let (w, fill) = if i % 2 == 0 { (&mut w0, b'e') } else { (&mut w1, b'o') };
            w.write_at(i * 10, &[fill; 10]).unwrap();
        }
        w0.close().unwrap();
        w1.close().unwrap();
        let r = reader(&b, &p);
        let mut buf = [0u8; 25];
        let n = r.read_at(5, &mut buf).unwrap();
        assert_eq!(n, 25);
        assert_eq!(&buf[..5], b"eeeee");
        assert_eq!(&buf[5..15], b"oooooooooo");
        assert_eq!(&buf[15..25], b"eeeeeeeeee");
    }

    #[test]
    fn metrics_record_merge_fanin_and_read_bytes() {
        let (b, p, m) = setup(4);
        for rank in 0..6u32 {
            let mut w = mkwriter(&b, &p, &m, rank);
            w.write_at(rank as u64 * 10, &[rank as u8; 10]).unwrap();
            w.close().unwrap();
        }
        let rm = PlfsMetrics::detached();
        let r =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        let reg = &rm.registry;
        let fanin = reg.histogram("plfs.index.merge_fanin");
        assert_eq!(fanin.count(), 1);
        assert_eq!(fanin.max(), 6, "six writers merged");
        assert_eq!(reg.value("plfs.index.raw_entries"), Some(6));
        assert!(reg.value("plfs.index.bytes_read").unwrap() > 0);
        let data = r.read_all().unwrap();
        assert_eq!(reg.value("plfs.read.ops"), Some(1));
        assert_eq!(reg.value("plfs.read.bytes"), Some(data.len() as u64));
    }

    #[test]
    fn warm_open_decodes_zero_raw_entries() {
        let (b, p, m) = setup(4);
        for rank in 0..6u32 {
            let mut w = mkwriter(&b, &p, &m, rank);
            w.write_at(rank as u64 * 10, &[rank as u8; 10]).unwrap();
            w.close().unwrap();
        }
        // Cold open builds and persists the flattened index.
        let cold = reader(&b, &p);
        assert!(!cold.stats().from_canonical);
        assert_eq!(cold.stats().raw_entries, 6);
        assert!(b.exists(&p.canonical_index()), "cold open persists the cache");

        // Warm open: everything from the cache, zero raw decodes.
        let rm = PlfsMetrics::detached();
        let warm =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        assert!(warm.stats().from_canonical);
        assert_eq!(warm.stats().raw_entries, 0);
        assert_eq!(rm.registry.value("plfs.index.raw_entries"), Some(0));
        assert_eq!(rm.registry.value("plfs.index.canonical_hits"), Some(1));
        assert_eq!(warm.read_all().unwrap(), cold.read_all().unwrap());
        assert_eq!(warm.size(), cold.size());
        assert_eq!(warm.stats().merged_extents, cold.stats().merged_extents);
    }

    #[test]
    fn canonical_tail_merge_after_midsession_appends() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[b'a'; 100]).unwrap();
        w.sync().unwrap();
        // Reader opens mid-session: cache stamped at the current index
        // length, session still open.
        let r1 = reader(&b, &p);
        assert_eq!(r1.size(), 100);
        // The same session appends more (watermark unchanged!).
        w.write_at(50, &[b'b'; 100]).unwrap();
        w.sync().unwrap();
        let rm = PlfsMetrics::detached();
        let r2 =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        assert!(r2.stats().from_canonical, "cache plus tail, not a rebuild");
        assert_eq!(r2.stats().tail_entries, 1);
        assert_eq!(r2.stats().raw_entries, 1, "only the tail is decoded");
        let data = r2.read_all().unwrap();
        assert_eq!(data.len(), 150);
        assert!(data[..50].iter().all(|&x| x == b'a'));
        assert!(data[50..].iter().all(|&x| x == b'b'));
        // The refreshed cache covers the tail: a third open is fully warm.
        let r3 = reader(&b, &p);
        assert!(r3.stats().from_canonical);
        assert_eq!(r3.stats().raw_entries, 0);
        w.close().unwrap();
    }

    #[test]
    fn new_writer_session_invalidates_canonical() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[b'a'; 10]).unwrap();
        w.close().unwrap();
        let _ = reader(&b, &p); // persists the cache
        assert!(b.exists(&p.canonical_index()));
        // A new session must not see stale cached extents.
        let mut w2 = Writer::new(
            b.clone() as Arc<dyn Backend>,
            p.clone(),
            WriterConfig::default(),
            RetryPolicy::default(),
            0,
            m.clone(),
            1,
        )
        .unwrap();
        assert!(!b.exists(&p.canonical_index()), "writer open deletes the cache");
        w2.write_at(3, &[b'b'; 4]).unwrap();
        w2.close().unwrap();
        let r = reader(&b, &p);
        assert!(!r.stats().from_canonical);
        assert_eq!(r.read_all().unwrap(), b"aaabbbbaaa");
    }

    #[test]
    fn corrupt_canonical_falls_back_to_rebuild() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, b"payload").unwrap();
        w.close().unwrap();
        let _ = reader(&b, &p);
        // Tear the cache mid-file.
        let blob = b.read_all(&p.canonical_index()).unwrap();
        b.remove(&p.canonical_index()).unwrap();
        b.append(&p.canonical_index(), &blob[..blob.len() / 2]).unwrap();
        let r = reader(&b, &p);
        assert!(!r.stats().from_canonical, "torn cache ignored");
        assert_eq!(r.read_all().unwrap(), b"payload");
    }

    /// A pathological but POSIX-legal backend: every `read_at` delivers
    /// exactly one byte. The old read path treated any short-but-
    /// nonzero read as `UnexpectedEof`; the engine must loop at the
    /// advanced offset instead.
    struct ShortReadBackend(Arc<MemBackend>);

    impl crate::backend::Layer for ShortReadBackend {
        fn below(&self) -> &dyn Backend {
            self.0.as_ref()
        }
        fn read_at(&self, path: &str, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read_at(path, offset, &mut buf[..n])
        }
    }

    #[test]
    fn short_read_backend_roundtrips_byte_at_a_time() {
        // Regression: a backend delivering 1 byte per read is legal
        // POSIX behaviour, not EOF. Before the fix this errored with
        // UnexpectedEof on any multi-byte piece.
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, b"hello world, short reads are legal").unwrap();
        w.close().unwrap();
        let short = Arc::new(ShortReadBackend(b));
        let r = Reader::open(
            short as Arc<dyn Backend>,
            p,
            RetryPolicy::none(),
            PlfsMetrics::detached(),
        )
        .unwrap();
        assert_eq!(r.read_all().unwrap(), b"hello world, short reads are legal");
        let mut buf = [0u8; 9];
        assert_eq!(r.read_at(6, &mut buf).unwrap(), 9);
        assert_eq!(&buf, b"world, sh");
        assert_eq!(r.read_at_serial(6, &mut buf).unwrap(), 9);
        assert_eq!(&buf, b"world, sh");
    }

    #[test]
    fn sparse_multi_gb_file_streams_bounded() {
        // Regression: read_all used to allocate `vec![0; eof]` up
        // front, so one byte at an 8 GiB offset OOMed the reader.
        // for_each_chunk must buffer at most READ_CHUNK at a time.
        let (b, p, m) = setup(1);
        let eof: u64 = 8 << 30;
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(eof - 1, b"z").unwrap();
        w.close().unwrap();
        let r = reader(&b, &p);
        assert_eq!(r.size(), eof);
        let mut seen = 0u64;
        let mut last = Vec::new();
        r.for_each_chunk(|off, chunk| {
            assert_eq!(off, seen);
            assert!(chunk.len() <= READ_CHUNK, "chunk {} exceeds bound", chunk.len());
            // Spot-check hole bytes without scanning 8 GiB per-byte.
            if off + (chunk.len() as u64) < eof {
                assert_eq!(chunk[0], 0);
            }
            seen += chunk.len() as u64;
            if seen == eof {
                last = chunk.to_vec();
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, eof);
        assert_eq!(*last.last().unwrap(), b'z');
        assert!(last[..last.len() - 1].iter().rev().take(64).all(|&x| x == 0));
    }

    #[test]
    fn engine_coalesces_and_matches_serial_oracle() {
        // 4 ranks × 64 strided records: the engine should need ~1
        // coalesced backend read per dropping where the serial path
        // pays one per record.
        let (b, p, m) = setup(2);
        let ranks = 4u32;
        let rec = 100usize;
        let total = 64u64;
        let mut writers: Vec<Writer> = (0..ranks).map(|r| mkwriter(&b, &p, &m, r)).collect();
        for i in 0..total {
            let rank = (i % ranks as u64) as usize;
            writers[rank].write_at(i * rec as u64, &vec![(i % 251) as u8; rec]).unwrap();
        }
        for w in writers {
            w.close().unwrap();
        }
        let rm = PlfsMetrics::detached();
        let r =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        let mut fast = vec![0u8; (total as usize) * rec];
        let mut slow = vec![1u8; (total as usize) * rec];
        assert_eq!(r.read_at(0, &mut fast).unwrap(), fast.len());
        let engine_ops = rm.registry.value("plfs.read.backend_ops").unwrap();
        assert_eq!(r.read_at_serial(0, &mut slow).unwrap(), slow.len());
        let serial_ops = rm.registry.value("plfs.read.backend_ops").unwrap() - engine_ops;
        assert_eq!(fast, slow, "engine and serial oracle must agree byte-for-byte");
        assert_eq!(engine_ops, ranks as u64, "one coalesced read per dropping");
        assert_eq!(serial_ops, total, "serial pays one read per record");
        assert_eq!(rm.registry.value("plfs.read.batches"), Some(ranks as u64));
        assert_eq!(
            rm.registry.value("plfs.read.coalesced_bytes"),
            Some(total * rec as u64),
            "every batch merged ≥ 2 extents"
        );
        let par = rm.registry.histogram("plfs.read.parallelism");
        assert_eq!(par.count(), 1);
        assert!(par.max() >= 1 && par.max() <= pool::available_parallelism() as u64);
    }

    #[test]
    fn readahead_serves_sequential_scans_from_cache() {
        let (b, p, m) = setup(1);
        let mut w = mkwriter(&b, &p, &m, 0);
        let total = 64 * 1024;
        for i in 0..(total / 1024) as u64 {
            w.write_at(i * 1024, &[(i % 7) as u8 + 1; 1024]).unwrap();
        }
        w.close().unwrap();
        let rm = PlfsMetrics::detached();
        let r =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        // Sequential 4 KiB reads: the first read arms readahead (the
        // scan starts at physical 0) and over-reads DEFAULT_READAHEAD,
        // so follow-on reads hit the cache with zero backend ops.
        let mut buf = vec![0u8; 4096];
        let mut off = 0u64;
        while off < total as u64 {
            assert_eq!(r.read_at(off, &mut buf).unwrap(), 4096);
            for (j, block) in buf.chunks(1024).enumerate() {
                let rec = off / 1024 + j as u64;
                assert!(block.iter().all(|&x| x == (rec % 7) as u8 + 1), "record {rec} corrupt");
            }
            off += 4096;
        }
        let hits = rm.registry.value("plfs.read.readahead_hits").unwrap();
        let ops = rm.registry.value("plfs.read.backend_ops").unwrap();
        assert!(hits >= 12, "most sequential reads served from readahead, got {hits}");
        assert!(ops <= 2, "sequential scan needs almost no backend reads, got {ops}");
    }

    #[test]
    fn readahead_can_be_disabled() {
        let (b, p, m) = setup(1);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[7u8; 8192]).unwrap();
        w.close().unwrap();
        let rm = PlfsMetrics::detached();
        let mut r =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        r.set_readahead(0);
        let mut buf = vec![0u8; 4096];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 4096);
        assert_eq!(r.read_at(4096, &mut buf).unwrap(), 4096);
        assert_eq!(rm.registry.value("plfs.read.readahead_hits"), Some(0));
        assert_eq!(rm.registry.value("plfs.read.backend_ops"), Some(2));
    }

    #[test]
    fn failed_read_counts_no_delivered_bytes() {
        // Regression: read_bytes used to be incremented with `want`
        // before the backend was ever touched, so failed reads inflated
        // the delivered-bytes counter.
        let (b, p, m) = setup(1);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[1u8; 512]).unwrap();
        w.close().unwrap();
        let rm = PlfsMetrics::detached();
        let r =
            Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm.clone())
                .unwrap();
        // Truncate the data dropping behind the reader's back so the
        // read fails with UnexpectedEof.
        let data_path = p.data_dropping(0);
        b.remove(&data_path).unwrap();
        b.create(&data_path).unwrap();
        b.append(&data_path, &[1u8; 100]).unwrap();
        let mut buf = vec![0u8; 512];
        assert!(r.read_at(0, &mut buf).is_err());
        assert_eq!(rm.registry.value("plfs.read.bytes"), Some(0), "no bytes delivered");
        // A successful read after healing counts exactly what arrived.
        b.append(&data_path, &[1u8; 412]).unwrap();
        let fresh = PlfsMetrics::detached();
        let r2 = Reader::open(
            b.clone() as Arc<dyn Backend>,
            p.clone(),
            RetryPolicy::none(),
            fresh.clone(),
        )
        .unwrap();
        assert_eq!(r2.read_at(0, &mut buf).unwrap(), 512);
        assert_eq!(fresh.registry.value("plfs.read.bytes"), Some(512));
    }

    #[test]
    fn read_emits_batch_spans() {
        use obs::trace::TraceSink;
        let (b, p, m) = setup(2);
        for rank in 0..3u32 {
            let mut w = mkwriter(&b, &p, &m, rank);
            w.write_at(rank as u64 * 16, &[rank as u8; 16]).unwrap();
            w.close().unwrap();
        }
        let sink = TraceSink::bounded(4096);
        let rm = PlfsMetrics::new(&PlfsConfig { trace: sink.clone(), ..Default::default() });
        let r = Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm)
            .unwrap();
        let _ = r.read_all().unwrap();
        let spans = sink.snapshot();
        obs::trace::validate(&spans).unwrap();
        let root = spans.iter().find(|s| s.name == "plfs.read").expect("plfs.read span");
        let kids: Vec<_> = spans.iter().filter(|s| s.name == "read.batch").collect();
        assert_eq!(kids.len(), 3, "one batch span per dropping");
        for k in &kids {
            assert_eq!(k.parent, root.id, "read.batch hangs off plfs.read");
        }
    }

    #[test]
    fn open_emits_causal_spans() {
        use obs::trace::TraceSink;
        let (b, p, m) = setup(4);
        for rank in 0..4u32 {
            let mut w = mkwriter(&b, &p, &m, rank);
            w.write_at(rank as u64 * 8, &[rank as u8; 8]).unwrap();
            w.close().unwrap();
        }
        let sink = TraceSink::bounded(4096);
        let rm = PlfsMetrics::new(&PlfsConfig { trace: sink.clone(), ..Default::default() });
        let _ = Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm)
            .unwrap();
        let spans = sink.snapshot();
        obs::trace::validate(&spans).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"plfs.open"));
        assert!(names.contains(&"index.fetch"));
        assert!(names.contains(&"index.decode"));
        assert!(names.contains(&"index.merge"));
        let root = spans.iter().find(|s| s.name == "plfs.open").unwrap();
        for child in spans.iter().filter(|s| s.name.starts_with("index.")) {
            assert_eq!(child.parent, root.id, "{} hangs off plfs.open", child.name);
        }
    }

    // ----------------------------------------------------- verify-on-read

    /// Corrupt one byte of a file out from under the container.
    fn rot(b: &MemBackend, path: &str, offset: usize, mask: u8) {
        let mut blob = b.read_all(path).unwrap();
        blob[offset] ^= mask;
        b.remove(path).unwrap();
        b.create(path).unwrap();
        b.append(path, &blob).unwrap();
    }

    #[test]
    fn clean_reads_verify_every_covered_block_without_failures() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[5u8; 9000]).unwrap(); // 3 blocks: 2 full + tail
        w.close().unwrap();
        let r = reader(&b, &p);
        assert_eq!(r.read_all().unwrap(), vec![5u8; 9000]);
        let reg = &r.metrics.registry;
        assert_eq!(reg.value("plfs.verify.blocks"), Some(3));
        assert_eq!(reg.value("plfs.verify.bytes"), Some(9000));
        assert_eq!(reg.value("plfs.verify.failures"), Some(0));
        // Verify-once: a second pass re-checks nothing.
        assert_eq!(r.read_all().unwrap().len(), 9000);
        assert_eq!(reg.value("plfs.verify.blocks"), Some(3));
    }

    #[test]
    fn failstop_surfaces_integrity_error_from_both_paths() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[7u8; 6000]).unwrap();
        w.close().unwrap();
        rot(&b, &p.data_dropping(0), 4500, 0x08); // block 1
        let r = reader(&b, &p);
        let err = r.read_all().unwrap_err();
        assert!(crate::retry::is_integrity(&err), "typed error survives: {err}");
        // The engine delivered nothing for the failed read.
        assert_eq!(r.metrics.registry.value("plfs.read.bytes"), Some(0));
        // The serial oracle detects the same corruption.
        let r2 = reader(&b, &p);
        let mut buf = vec![0u8; 6000];
        assert!(crate::retry::is_integrity(&r2.read_at_serial(0, &mut buf).unwrap_err()));
        // Bytes fully inside the clean block still read (serial path
        // touches only the pieces asked for).
        let mut head = vec![0u8; 1000];
        assert_eq!(r2.read_at_serial(0, &mut head).unwrap(), 1000);
        assert_eq!(head, vec![7u8; 1000]);
    }

    #[test]
    fn zero_fill_quarantine_zeroes_bad_block_and_counts_it() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[9u8; 6000]).unwrap();
        w.close().unwrap();
        rot(&b, &p.data_dropping(0), 100, 0x01); // block 0
        let mut r = reader(&b, &p);
        r.set_quarantine(QuarantinePolicy::ZeroFill);
        let data = r.read_all().unwrap();
        assert_eq!(&data[..4096], &vec![0u8; 4096][..], "bad block zeroed");
        assert_eq!(&data[4096..], &vec![9u8; 6000 - 4096][..], "good tail intact");
        let reg = &r.metrics.registry;
        assert_eq!(reg.value("plfs.verify.failures"), Some(1));
        // The corrupt-block bitmap memoizes: re-reads stay zeroed and
        // don't recount the failure.
        assert_eq!(&r.read_all().unwrap()[..4096], &vec![0u8; 4096][..]);
        assert_eq!(reg.value("plfs.verify.failures"), Some(1));
    }

    #[test]
    fn verify_off_serves_corrupt_bytes_raw() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[3u8; 1000]).unwrap();
        w.close().unwrap();
        rot(&b, &p.data_dropping(0), 10, 0xFF);
        let mut r = reader(&b, &p);
        r.set_verify(false);
        let data = r.read_all().unwrap();
        assert_eq!(data[10], 3u8 ^ 0xFF);
        assert_eq!(r.metrics.registry.value("plfs.verify.blocks"), Some(0));
    }

    #[test]
    fn sidecarless_dropping_reads_without_verification() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[4u8; 2000]).unwrap();
        w.close().unwrap();
        // Droppings no sidecar covers, as a crash before the first
        // sidecar flush or a sidecar `repair` removed leaves them.
        b.remove(&p.chk_dropping(0)).unwrap();
        b.remove(&p.index_chk_dropping(0)).unwrap();
        assert!(!b.exists(&p.chk_dropping(0)));
        let r = reader(&b, &p);
        assert_eq!(r.read_all().unwrap(), vec![4u8; 2000]);
        assert_eq!(r.metrics.registry.value("plfs.verify.blocks"), Some(0));
        assert_eq!(r.metrics.registry.value("plfs.verify.failures"), Some(0));
    }

    #[test]
    fn corrupt_sidecar_failstops_but_zero_fill_serves_raw() {
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[6u8; 1000]).unwrap();
        w.close().unwrap();
        rot(&b, &p.chk_dropping(0), 2, 0x40); // break the magic
        let r = reader(&b, &p);
        assert!(crate::retry::is_integrity(&r.read_all().unwrap_err()));
        let mut r2 = reader(&b, &p);
        r2.set_quarantine(QuarantinePolicy::ZeroFill);
        assert_eq!(r2.read_all().unwrap(), vec![6u8; 1000], "unverifiable ≠ provably bad");
        assert_eq!(r2.metrics.registry.value("plfs.verify.failures"), Some(0));
    }

    #[test]
    fn verification_covers_readahead_cache_stash() {
        // The surplus stashed by readahead must be verified at stash
        // time: a later cache hit serves it without re-checking.
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        let data: Vec<u8> = (0..65536u32).map(|i| (i % 241) as u8).collect();
        w.write_at(0, &data).unwrap();
        w.close().unwrap();
        rot(&b, &p.data_dropping(0), 40_000, 0x10); // lands in readahead surplus
        let r = reader(&b, &p);
        let mut head = vec![0u8; 4096];
        // Sequential scan: first batch over-reads 128 KiB — the whole
        // file — and verification must catch the rot in the surplus
        // before it is stashed, even though the caller only asked for
        // the (clean) first block.
        let err = r.read_at(0, &mut head).unwrap_err();
        assert!(crate::retry::is_integrity(&err), "{err}");
    }

    #[test]
    fn read_emits_verify_spans_under_batches() {
        use obs::trace::TraceSink;
        let (b, p, m) = setup(2);
        let mut w = mkwriter(&b, &p, &m, 0);
        w.write_at(0, &[8u8; 2000]).unwrap();
        w.close().unwrap();
        let sink = TraceSink::bounded(4096);
        let rm = PlfsMetrics::new(&PlfsConfig { trace: sink.clone(), ..Default::default() });
        let r = Reader::open(b.clone() as Arc<dyn Backend>, p.clone(), RetryPolicy::none(), rm)
            .unwrap();
        let mut buf = vec![0u8; 2000];
        r.read_at(0, &mut buf).unwrap();
        let spans = sink.snapshot();
        obs::trace::validate(&spans).unwrap();
        let batch = spans.iter().find(|s| s.name == "read.batch").expect("batch span");
        let verify = spans.iter().find(|s| s.name == "read.verify").expect("verify span");
        assert_eq!(verify.parent, batch.id, "verify hangs off its batch");
    }
}
