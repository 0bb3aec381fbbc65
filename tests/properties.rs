//! Property-based tests over the core data structures and invariants.
//!
//! These used to run under `proptest`; they are now driven by the
//! in-tree deterministic PRNG (`simkit::Rng`) so the workspace builds
//! and tests fully offline with zero external dependencies. Each
//! property runs over a fixed set of seeds; a failing seed reproduces
//! exactly.

use pdsi::diskmodel::{BlockDevice, DevOp, FlashDevice, FtlConfig};
use pdsi::giga::GigaDirectory;
use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::checksum::CHK_HEADER_BYTES;
use pdsi::plfs::chunk::{ChunkBackend, ChunkParams, DEFAULT_POOL_ROOT};
use pdsi::plfs::faults::{FaultPlan, FaultyBackend};
use pdsi::plfs::index::{
    decode, decode_prefix, encode_compressed, encode_raw, IndexEntry, IndexMap,
};
use pdsi::plfs::retry::RetryPolicy;
use pdsi::plfs::{
    fsck, is_integrity, CanonicalIndex, ContainerPaths, IngestService, Plfs, PlfsConfig,
    QuarantinePolicy, ServiceConfig, WriterConfig, VERIFY_BLOCK,
};
use pdsi::simkit::stats::Cdf;
use pdsi::simkit::Rng;
use pdsi::workloads::{Trace, TraceOp};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Seeds every property iterates over (64 cases, like the old
/// `ProptestConfig::with_cases(64)`).
const CASES: u64 = 64;

/// One random write workload: `(logical_offset, len, writer)`.
fn random_writes(rng: &mut Rng) -> Vec<(u64, u64, u32)> {
    let n = rng.range_inclusive(1, 59) as usize;
    (0..n)
        .map(|_| (rng.below(60_000), rng.range_inclusive(1, 1_999), rng.below(6) as u32))
        .collect()
}

// --------------------------------------------------------- PLFS index

/// The IndexMap must agree byte-for-byte with a naive flat-array
/// last-writer-wins model, for arbitrary overlapping writes.
#[test]
fn index_map_matches_naive_model() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let writes = random_writes(&mut rng);
        let mut naive: Vec<Option<(u32, u64)>> = vec![None; 64_000];
        let mut entries = Vec::new();
        let mut phys = [0u64; 8];
        for (ts, &(off, len, writer)) in writes.iter().enumerate() {
            for b in off..off + len {
                naive[b as usize] = Some((writer, phys[writer as usize] + (b - off)));
            }
            entries.push(IndexEntry {
                logical_offset: off,
                length: len,
                physical_offset: phys[writer as usize],
                writer,
                timestamp: ts as u64,
            });
            phys[writer as usize] += len;
        }
        let map = IndexMap::build(entries);
        map.check_invariants();
        let naive_eof = naive.iter().rposition(|x| x.is_some()).map(|i| i as u64 + 1).unwrap_or(0);
        assert_eq!(map.eof(), naive_eof, "seed {seed}");
        for (b, cell) in naive.iter().enumerate() {
            let pieces = map.lookup(b as u64, 1);
            match cell {
                None => {
                    if !pieces.is_empty() {
                        assert!(pieces[0].2.is_none(), "seed {seed}: byte {b} should be a hole");
                    }
                }
                Some((writer, phys_pos)) => {
                    assert_eq!(pieces.len(), 1, "seed {seed}");
                    let x = pieces[0].2.expect("mapped byte missing");
                    assert_eq!(x.writer, *writer, "seed {seed}: byte {b}");
                    assert_eq!(x.physical, *phys_pos, "seed {seed}: byte {b}");
                }
            }
        }
    }
}

/// The O(n log n) sweep merge and the old splice merge are two
/// implementations of the same specification: on arbitrary
/// overlapping, out-of-order writes they must produce identical
/// extent lists, and the ghost cost model used by `repro openscale`
/// must charge the splice baseline exactly what the real splice pays.
#[test]
fn sweep_and_splice_merges_agree_with_each_other_and_the_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(7_000 + seed);
        let writes = random_writes(&mut rng);
        let mut naive: Vec<Option<u32>> = vec![None; 64_000];
        let mut entries = Vec::new();
        let mut phys = [0u64; 8];
        for (ts, &(off, len, writer)) in writes.iter().enumerate() {
            for b in off..off + len {
                naive[b as usize] = Some(writer);
            }
            entries.push(IndexEntry {
                logical_offset: off,
                length: len,
                physical_offset: phys[writer as usize],
                writer,
                timestamp: ts as u64,
            });
            phys[writer as usize] += len;
        }
        let sweep = IndexMap::build(entries.clone());
        let splice = IndexMap::build_splice_baseline(entries.clone());
        sweep.check_invariants();
        splice.check_invariants();
        assert_eq!(sweep.extents(), splice.extents(), "seed {seed}: merges disagree");
        assert_eq!(sweep.fragments(), splice.fragments(), "seed {seed}: stamps disagree");
        assert_eq!(
            pdsi::plfs::index::splice_merge_cost(&entries),
            splice.merge_steps(),
            "seed {seed}: ghost cost model drifted from the real splice"
        );
        // Both agree with the byte-level oracle on who owns each byte.
        for map in [&sweep, &splice] {
            for (b, cell) in naive.iter().enumerate() {
                let pieces = map.lookup(b as u64, 1);
                match cell {
                    None => {
                        if !pieces.is_empty() {
                            assert!(pieces[0].2.is_none(), "seed {seed}: byte {b} not a hole");
                        }
                    }
                    Some(writer) => {
                        assert_eq!(pieces[0].2.expect("mapped").writer, *writer, "seed {seed}");
                    }
                }
            }
        }
    }
}

/// Raw and compressed encodings always decode to the same entries.
#[test]
fn index_encodings_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(1_000 + seed);
        let entries: Vec<IndexEntry> = random_writes(&mut rng)
            .iter()
            .enumerate()
            .map(|(ts, &(off, len, writer))| IndexEntry {
                logical_offset: off,
                length: len,
                physical_offset: ts as u64 * 2_000,
                writer,
                timestamp: ts as u64,
            })
            .collect();
        assert_eq!(decode(&encode_raw(&entries)).unwrap(), entries, "seed {seed}");
        assert_eq!(decode(&encode_compressed(&entries)).unwrap(), entries, "seed {seed}");
    }
}

// ------------------------------------------------- crash & recovery
//
// One driver crash-sweeps every stack under every workload: run the
// workload on a store that crash-stops after `k` appended bytes (or
// crash the first repair of such a wreck), reboot, and hold recovery
// to the invariants of `check_recovery`.

/// What a crashed workload must still hold: every write acked by a
/// barrier that returned `Ok` before the crash.
#[derive(Default)]
struct Acks {
    /// The byte each acked logical offset must read back as.
    acked: Vec<Option<u8>>,
    /// Per lane (a writer's rank, or the service): writes since its
    /// last successful barrier.
    pending: HashMap<usize, Vec<(u64, Vec<u8>)>>,
}

impl Acks {
    fn wrote(&mut self, lane: usize, off: u64, data: &[u8]) {
        self.pending.entry(lane).or_default().push((off, data.to_vec()));
    }

    /// `lane`'s barrier (a writer's `sync` or `close`, the service's
    /// `sync` or `close`) returned `res`; on `Ok` everything the lane
    /// wrote is acked. Returns whether it was.
    fn barrier<T>(&mut self, lane: usize, res: io::Result<T>) -> bool {
        if res.is_err() {
            return false;
        }
        for (off, data) in self.pending.remove(&lane).unwrap_or_default() {
            let (off, end) = (off as usize, off as usize + data.len());
            if self.acked.len() < end {
                self.acked.resize(end, None);
            }
            for (cell, &b) in self.acked[off..end].iter_mut().zip(&data) {
                *cell = Some(b);
            }
        }
        true
    }

    fn assert_read_back(&self, got: &[u8], ctx: &str) {
        for (off, want) in self.acked.iter().enumerate() {
            if let Some(want) = want {
                assert!(
                    got.get(off) == Some(want),
                    "{ctx}: acked byte at {off} lost or corrupt (got {:?}, want {want})",
                    got.get(off),
                );
            }
        }
    }
}

/// A crash workload: a fixed shape and `WriterConfig`, data from the
/// seed. Writes are disjoint (each record owns its logical slot), so an
/// acked record can never be legitimately superseded by an unacked one
/// and byte-for-byte read-back is an invariant, not a probability.
#[derive(Clone, Copy, Debug)]
enum Workload {
    /// Three ranks write 40 slots of 16 B in random rank order, each
    /// write followed by a `sync` a quarter of the time, then close.
    Random { data_buffer: usize },
    /// Four ranks write 16 rounds of interleaved 8 B records (rank `r`
    /// owns every offset `(4j + r)·8`, the N-1 strided signature), each
    /// rank syncing every fourth round, then close.
    Strided,
    /// Six clients write 4 rounds of 24 B slots through a 2-shard
    /// [`IngestService`], with the service's `sync` after each round.
    Service,
}

impl Workload {
    fn writer(self) -> WriterConfig {
        let (data_buffer, index_flush_every) = match self {
            Workload::Random { data_buffer } => (data_buffer, 4),
            Workload::Strided => (64, 3),
            Workload::Service => (128, 4),
        };
        WriterConfig { data_buffer, index_flush_every }
    }

    /// `(rank or client, offset, record, barrier after it)` in issue order.
    fn schedule(self, seed: u64) -> Vec<(usize, u64, Vec<u8>, bool)> {
        match self {
            Workload::Random { .. } => {
                let mut rng = Rng::new(seed);
                (0..40)
                    .map(|slot| {
                        let r = rng.below(3) as usize;
                        let fill = (rng.below(251) + 1) as u8;
                        (r, slot * 16, vec![fill; 16], rng.chance(0.25))
                    })
                    .collect()
            }
            Workload::Strided => (0..16u64)
                .flat_map(|j| {
                    (0..4u64).map(move |r| {
                        let fill = 1 + ((r * 67 + j * 13 + seed) % 251) as u8;
                        (r as usize, (j * 4 + r) * 8, vec![fill; 8], j % 4 == 3)
                    })
                })
                .collect(),
            Workload::Service => (0..4u64)
                .flat_map(|round| {
                    (0..6u64).map(move |c| {
                        let fill = 1 + ((c * 67 + round * 13 + seed) % 250) as u8;
                        (c as usize, (round * 6 + c) * 24, vec![fill; 24], c == 5)
                    })
                })
                .collect(),
        }
    }

    /// Issue the schedule on `fs`, reporting writes and barriers to
    /// `acks`. Errors are expected (the store may freeze at any op) and
    /// only decide what is acked.
    fn run(self, fs: &Plfs, seed: u64, acks: &mut Acks) {
        let writes = self.schedule(seed);
        if let Workload::Service = self {
            let cfg = ServiceConfig { shards: 2, batch_ops: 4, ..Default::default() };
            let Ok(svc) = IngestService::start(fs, "/f", cfg) else { return };
            for (c, off, rec, barrier) in writes {
                // A refused write is not acked: it failed its shard,
                // and a shard's failure is sticky, so nothing later
                // acks.
                if svc.write(c as u32, off, &rec).is_err() {
                    break;
                }
                acks.wrote(0, off, &rec);
                if barrier && !acks.barrier(0, svc.sync()) {
                    break;
                }
            }
            acks.barrier(0, svc.close());
            return;
        }
        let ranks = if let Workload::Strided = self { 4 } else { 3 };
        let writers = (0..ranks).map(|r| fs.open_writer("/f", r)).collect::<io::Result<Vec<_>>>();
        let Ok(mut writers) = writers else { return };
        for (r, off, rec, barrier) in writes {
            // A failed write stays queued: a later barrier's `Ok` acks it.
            acks.wrote(r, off, &rec);
            let _ = writers[r].write_at(off, &rec);
            if barrier {
                acks.barrier(r, writers[r].sync());
            }
        }
        for (r, w) in writers.into_iter().enumerate() {
            acks.barrier(r, w.close());
        }
    }
}

/// The stores PLFS runs on in a sweep, each over one crash-stopping
/// `FaultyBackend<MemBackend>`.
#[derive(Clone, Copy, Debug)]
enum Stack {
    Plain,
    /// A [`ChunkBackend`] with small chunks, so each record spans blobs.
    Chunked,
}

type Faulty = Arc<FaultyBackend<MemBackend>>;

impl Stack {
    /// A fresh instance over `faulty`, as after a reboot: the chunk
    /// layer's cache starts empty, so a swept blob cannot hide in it.
    fn over(self, faulty: &Faulty) -> (Arc<dyn Backend>, Option<Arc<ChunkBackend>>) {
        match self {
            Stack::Plain => (faulty.clone(), None),
            Stack::Chunked => {
                let params = ChunkParams { min: 64, max: 1024, mask_bits: 6, seed: 0xFEED };
                let chunked = Arc::new(ChunkBackend::with_params(faulty.clone(), params));
                (chunked.clone(), Some(chunked))
            }
        }
    }

    /// Run `workload` under [`OrderCheck`] on a store that crash-stops
    /// after `crash_after` appended bytes.
    fn run(self, workload: Workload, seed: u64, crash_after: u64) -> (Faulty, Acks) {
        let plan = FaultPlan { crash_after_bytes: Some(crash_after), ..FaultPlan::none(seed) };
        let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), plan));
        let cfg = PlfsConfig {
            hostdirs: 2,
            writer: workload.writer(),
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let order = Arc::new(OrderCheck::new(self.over(&faulty).0));
        let mut acks = Acks::default();
        workload.run(&Plfs::new(order.clone(), cfg), seed, &mut acks);
        order.assert_in_order();
        (faulty, acks)
    }

    fn repair(self, faulty: &Faulty) -> io::Result<fsck::RepairReport> {
        fsck::repair(self.over(faulty).0.as_ref(), "/f", 2, &fsck::RepairOptions::default())
    }

    /// Reboot a crashed store and hold recovery to every invariant:
    /// data lands before the index records that point at it (so a
    /// crash leaves no dangling extent, and on `Chunked` every complete
    /// manifest record names a blob in the pool); repair leaves a clean
    /// container and a second repair finds nothing to do; on `Chunked`,
    /// gc then a pool scrub come back clean; a container scrub is
    /// clean; every acked byte reads back; and the read-open's
    /// `canonical.index` covers no index byte that has not landed.
    fn check_recovery(self, faulty: &Faulty, acks: &Acks, ctx: &str) {
        faulty.heal();
        let (store, chunked) = self.over(faulty);
        if chunked.is_some() {
            assert_manifests_resolve(faulty.as_ref(), "/f", ctx);
        }
        let report = self.repair(faulty).unwrap();
        assert!(
            !report
                .before
                .errors
                .iter()
                .any(|e| matches!(e, fsck::FsckError::DanglingExtent { .. })),
            "{ctx}: an index record reached the store before its data: {:?}",
            report.before.errors
        );
        assert!(report.after.is_clean(), "{ctx}: repair left {:?}", report.after.errors);
        let again = self.repair(faulty).unwrap().actions;
        assert!(again.is_empty(), "{ctx}: a second repair still acted: {again:?}");
        if let Some(chunked) = chunked {
            chunked.gc(&["/f"]).unwrap();
            let pool = chunked.scrub_pool().unwrap();
            assert!(pool.corrupt.is_empty(), "{ctx}: pool scrub after gc: {:?}", pool.corrupt);
        }
        let scrub = fsck::scrub(store.as_ref(), "/f", 2).unwrap();
        assert!(scrub.is_clean(), "{ctx}: scrub found {:?}", scrub.findings);
        let order = Arc::new(OrderCheck::new(store));
        let fs = Plfs::new(order.clone(), PlfsConfig { hostdirs: 2, ..Default::default() });
        let reader = fs.open_reader("/f").expect("container must open after repair");
        acks.assert_read_back(&reader.read_all().unwrap(), ctx);
        order.assert_in_order();
    }
}

/// Every complete record of every manifest under `dir` in the store
/// below a [`ChunkBackend`] names a blob that exists in the pool.
fn assert_manifests_resolve(store: &dyn Backend, dir: &str, ctx: &str) {
    for name in store.list(dir).unwrap() {
        let path = format!("{dir}/{name}");
        if store.list(&path).is_ok_and(|children| !children.is_empty()) {
            assert_manifests_resolve(store, &path, ctx);
            continue;
        }
        let Ok(manifest) = store.read_all(&path) else { continue };
        for record in manifest.chunks_exact(36) {
            let hex: String = record[4..].iter().map(|b| format!("{b:02x}")).collect();
            let blob = format!("{DEFAULT_POOL_ROOT}/{hex}");
            assert!(
                store.exists(&blob),
                "{ctx}: {path} references {blob}, which is not in the pool"
            );
        }
    }
}

/// Which crash points a sweep visits: every byte of the last `tail`
/// bytes, and every `stride`-th byte before them.
#[derive(Clone, Copy)]
struct Points {
    tail: u64,
    stride: usize,
}

const EVERY_BYTE: Points = Points { tail: u64::MAX, stride: 1 };

impl Points {
    fn of(self, total: u64) -> impl Iterator<Item = u64> {
        let tail_start = total.saturating_sub(self.tail);
        (0..tail_start).step_by(self.stride).chain(tail_start..=total)
    }
}

/// Where a sweep crashes the store.
#[derive(Clone, Copy)]
enum Crash {
    /// In the workload, at these points of the bytes it appends.
    Workload(Points),
    /// In the first repair of two wrecks, the workload crashed half way
    /// and 29 bytes before its end, at these points of the bytes that
    /// repair appends (0 crashes its first append). This is the sweep
    /// for the old read–remove–re-append rewrite, which lost acked
    /// bytes when a crash fell between the remove and the re-append.
    Repair(Points),
}

/// Crash `workload` on `stack` at every point `crash` names, for each
/// seed, and check each recovery.
fn sweep(stack: Stack, workload: Workload, seeds: &[u64], crash: Crash) {
    for &seed in seeds {
        let total = stack.run(workload, seed, u64::MAX).0.bytes_appended();
        assert!(total > 0);
        // (workload crash point, crash point inside the first repair)
        let crashes: Vec<(u64, Option<u64>)> = match crash {
            Crash::Workload(points) => points.of(total).map(|at| (at, None)).collect(),
            Crash::Repair(points) => [total / 2, total.saturating_sub(29)]
                .into_iter()
                .flat_map(|wreck| {
                    let (faulty, _) = stack.run(workload, seed, wreck);
                    faulty.heal();
                    let base = faulty.bytes_appended();
                    stack.repair(&faulty).unwrap();
                    let delta = faulty.bytes_appended() - base;
                    points.of(delta).map(move |k| (wreck, Some(base + k)))
                })
                .collect(),
        };
        let check = |&(wreck, in_repair): &(u64, Option<u64>)| {
            let mut ctx = format!("{stack:?} {workload:?} seed {seed} crash@{wreck}");
            let (faulty, acks) = stack.run(workload, seed, wreck);
            if let Some(at) = in_repair {
                ctx += &format!(" repair-crash@{at}");
                faulty.heal();
                faulty.set_plan(FaultPlan { crash_after_bytes: Some(at), ..FaultPlan::none(seed) });
                // Allowed to die mid-flight, never to corrupt what it
                // has not committed.
                let _ = stack.repair(&faulty);
            }
            stack.check_recovery(&faulty, &acks, &ctx);
        };
        // Crash points are independent: spread them over the cores.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|s| {
            for t in 0..threads {
                let (crashes, check) = (&crashes, &check);
                s.spawn(move || crashes.iter().skip(t).step_by(threads).for_each(check));
            }
        });
    }
}

#[test]
fn crash_repair_preserves_acked_data_at_every_boundary() {
    let points = Points { tail: 96, stride: 61 };
    for data_buffer in [0, 128] {
        sweep(Stack::Plain, Workload::Random { data_buffer }, &[0, 7, 42], Crash::Workload(points));
    }
}

#[test]
fn crash_inside_repair_converges_on_second_pass() {
    let workload = Workload::Random { data_buffer: 128 };
    sweep(Stack::Plain, workload, &[0, 7, 42], Crash::Repair(EVERY_BYTE));
}

#[test]
fn strided_four_rank_crash_sweep_preserves_per_rank_acked_data() {
    sweep(Stack::Plain, Workload::Strided, &[3, 19], Crash::Workload(EVERY_BYTE));
}

#[test]
fn service_crash_sweep_preserves_barriered_data() {
    let points = Points { tail: 80, stride: 53 };
    sweep(Stack::Plain, Workload::Service, &[1, 11], Crash::Workload(points));
}

#[test]
fn chunked_random_crash_sweep() {
    let points = Points { tail: 128, stride: 97 };
    for data_buffer in [0, 128] {
        sweep(Stack::Chunked, Workload::Random { data_buffer }, &[0], Crash::Workload(points));
    }
}

#[test]
fn chunked_crash_inside_repair() {
    let workload = Workload::Random { data_buffer: 128 };
    sweep(Stack::Chunked, workload, &[0], Crash::Repair(Points { tail: 128, stride: 29 }));
}

#[test]
fn chunked_strided_crash_sweep() {
    let points = Points { tail: 128, stride: 61 };
    sweep(Stack::Chunked, Workload::Strided, &[3], Crash::Workload(points));
}

#[test]
fn chunked_service_crash_sweep() {
    let points = Points { tail: 128, stride: 53 };
    sweep(Stack::Chunked, Workload::Service, &[1], Crash::Workload(points));
}

/// A failed write is not lost: the writer keeps it queued in order and
/// the next write, `sync` or `close` lands it. Errors surface (no
/// retries) from transient and torn appends on every file the writer
/// touches, the workload keeps writing through them, then syncs until
/// one succeeds. Every issued write must read back, at every buffer
/// size, and when writes of mixed sizes take both the staged path and
/// the direct one (a write of at least `data_buffer` bytes lands from
/// the caller's slice). Write-through (`data_buffer: 0`) once dropped
/// the bytes of a failed append while keeping its index entry: later
/// writes failed forever with "shrank under us", and `sync`/`close`
/// still committed index entries for bytes that never landed.
#[test]
fn failed_writes_stay_queued_and_land_at_every_buffer_size() {
    const SLOTS: u64 = 48;
    let inputs: [(usize, &[u64]); 4] =
        [(0, &[24]), (64, &[24]), (1 << 20, &[24]), (64, &[24, 100, 40, 64, 8, 200])];
    for (data_buffer, lens) in inputs {
        let mut surfaced = 0;
        for seed in 0..8u64 {
            let tag = format!("buffer {data_buffer} lens {lens:?} seed {seed}");
            let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(seed)));
            let order = Arc::new(OrderCheck::new(faulty.clone()));
            let fs = Plfs::new(
                order.clone(),
                PlfsConfig {
                    hostdirs: 2,
                    writer: WriterConfig { data_buffer, index_flush_every: 4 },
                    retry: RetryPolicy::none(),
                    ..Default::default()
                },
            );
            let mut writers: Vec<_> = (0..2).map(|r| fs.open_writer("/w", r).unwrap()).collect();
            faulty.set_plan(FaultPlan {
                transient_error_rate: 0.15,
                torn_append_rate: 0.1,
                ..FaultPlan::none(seed)
            });
            let mut rng = Rng::new(500 + seed);
            let mut want = Vec::new();
            for slot in 0..SLOTS {
                let w = &mut writers[rng.below(2) as usize];
                let fill = (rng.below(251) + 1) as u8;
                let (off, len) = (want.len(), lens[slot as usize % lens.len()] as usize);
                want.resize(off + len, fill);
                surfaced += w.write_at(off as u64, &want[off..]).is_err() as u32;
                if rng.chance(0.2) {
                    surfaced += w.sync().is_err() as u32;
                }
            }
            for w in &mut writers {
                let synced = (0..64).any(|_| w.sync().is_ok());
                assert!(synced, "{tag}: sync never succeeded");
            }
            faulty.set_plan(FaultPlan::none(seed));
            for w in writers {
                w.close().unwrap_or_else(|e| panic!("{tag}: close failed: {e}"));
            }
            order.assert_in_order();
            let report = fsck::fsck(faulty.as_ref(), "/w", 2).unwrap();
            assert!(report.is_clean(), "{tag}: fsck found {:?}", report.errors);
            let got = fs.open_reader("/w").unwrap().read_all();
            let got = got.unwrap_or_else(|e| panic!("{tag}: read_all failed: {e}"));
            assert!(got == want, "{tag}: read back {} B, wrote {} B", got.len(), want.len());
            order.assert_in_order(); // the read-open's canonical.index too
        }
        assert!(surfaced > 0, "buffer {data_buffer} lens {lens:?}: no error surfaced — weak test");
    }
}

/// Test-support layer directly under `Plfs` that catches a write
/// landing out of order: an index record past the landed end of its
/// data dropping, sidecar entry `k` while the file it covers holds at
/// most `k·block` bytes, or a `canonical.index` whose covered length of
/// a rank's index dropping is more than has landed there. It learns
/// what landed from each append's offset and, after a failed append,
/// from the next `len` of the file: a torn append lands a prefix of its
/// bytes, and the writer re-measures the file before it resumes. A file
/// it first meets through `len` (a reader over a store written without
/// it) it takes as the store holds it.
struct OrderCheck {
    below: Arc<dyn Backend>,
    landed: Mutex<Landed>,
}

#[derive(Default)]
struct Landed {
    /// Per path: the bytes landed through the layer, and the bytes of
    /// its last failed append.
    files: HashMap<String, (Vec<u8>, Vec<u8>)>,
    /// The first write that broke the order.
    violation: Option<String>,
}

impl OrderCheck {
    fn new(below: Arc<dyn Backend>) -> Self {
        OrderCheck { below, landed: Mutex::new(Landed::default()) }
    }

    /// Panics naming the first write that landed out of order. The
    /// check cannot panic where it fires: in an ingest service's drain
    /// thread that would leave every `sync` caller waiting.
    fn assert_in_order(&self) {
        if let Some(violation) = &self.landed.lock().unwrap().violation {
            panic!("{violation}");
        }
    }
}

impl Landed {
    /// `path` holds `data` from offset `at` on; bytes between what was
    /// known and `at` are a torn prefix of its last failed append.
    fn note(&mut self, path: &str, at: u64, data: &[u8]) {
        let (bytes, failed) = self.files.entry(path.to_string()).or_default();
        let (known, at) = (bytes.len(), at as usize);
        if at > known {
            let gap = at - known;
            let Some(torn) = failed.get(..gap) else {
                let msg =
                    format!("{path}: grew by {gap} B that no append through the layer explains");
                self.violation.get_or_insert(msg);
                return;
            };
            bytes.extend_from_slice(torn);
        }
        bytes.truncate(at);
        bytes.extend_from_slice(data);
        if self.violation.is_none() {
            self.violation = self.check(path).err();
        }
    }

    /// Whether what has landed at `path` keeps data before index.
    fn check(&self, path: &str) -> Result<(), String> {
        let Some((dir, name)) = path.rsplit_once('/') else { return Ok(()) };
        let Some((kind, rank)) = name.split_once('.') else { return Ok(()) };
        let landed =
            |kind: &str| self.files.get(&format!("{dir}/{kind}.{rank}")).map_or(0, |f| f.0.len());
        let bytes = &self.files[path].0;
        match kind {
            "index" => {
                let data = landed("data") as u64;
                for e in decode_prefix(bytes).0 {
                    let end = e.physical_offset + e.length;
                    if end > data {
                        return Err(format!(
                            "{path}: an index record for data [{}, {end}) landed while \
                             {dir}/data.{rank} holds {data} B",
                            e.physical_offset
                        ));
                    }
                }
            }
            "canonical" => {
                // A torn landing does not decode, and no reader trusts it.
                let Ok(canon) = CanonicalIndex::decode(bytes) else { return Ok(()) };
                for (rank, covered) in canon.covered {
                    let suffix = format!("/index.{rank}");
                    let index = self.files.iter().find(|(p, _)| {
                        p.strip_prefix(dir).is_some_and(|rest| rest.starts_with('/'))
                            && p.ends_with(&suffix)
                    });
                    let (index, holds) =
                        index.map_or((suffix.as_str(), 0), |(p, f)| (p, f.0.len()));
                    if covered > holds as u64 {
                        return Err(format!(
                            "{path}: covers {covered} B of {index}, which holds {holds} B"
                        ));
                    }
                }
            }
            "chk" | "chki" => {
                let covered = if kind == "chk" { "data" } else { "index" };
                let entries = bytes.len().saturating_sub(CHK_HEADER_BYTES) / 4;
                let holds = landed(covered) as u64;
                if let Some(k) =
                    entries.checked_sub(1).filter(|&k| holds <= k as u64 * VERIFY_BLOCK)
                {
                    return Err(format!(
                        "{path}: sidecar entry {k} (at offset {}) landed while \
                         {dir}/{covered}.{rank} holds {holds} B",
                        CHK_HEADER_BYTES + 4 * k
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

impl pdsi::plfs::backend::Layer for OrderCheck {
    fn below(&self) -> &dyn Backend {
        self.below.as_ref()
    }

    // The lock is held across the forwarded call, so what the layer
    // knows never lags the store.
    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let mut landed = self.landed.lock().unwrap();
        let res = self.below.append(path, data);
        match &res {
            Ok(off) => landed.note(path, *off, data),
            Err(_) => landed.files.entry(path.to_string()).or_default().1 = data.to_vec(),
        }
        res
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        let mut landed = self.landed.lock().unwrap();
        let res = self.below.len(path);
        match (&res, landed.files.get(path)) {
            (Ok(n), Some((bytes, _))) if *n > bytes.len() as u64 => landed.note(path, *n, &[]),
            (Ok(_), None) => {
                if let Ok(bytes) = self.below.read_all(path) {
                    landed.files.insert(path.to_string(), (bytes, Vec::new()));
                }
            }
            _ => {}
        }
        res
    }
}

/// Transient faults below the give-up threshold must be fully masked by
/// the retry policy: the workload completes with zero surfaced errors.
#[test]
fn retry_masks_transient_faults() {
    for seed in 0..16u64 {
        let faulty = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            FaultPlan {
                transient_error_rate: 0.10,
                torn_append_rate: 0.05,
                ..FaultPlan::none(seed)
            },
        ));
        let fs = Plfs::new(
            faulty.clone() as Arc<dyn Backend>,
            PlfsConfig {
                hostdirs: 2,
                writer: WriterConfig { data_buffer: 256, ..Default::default() },
                retry: RetryPolicy::fast_test(),
                ..Default::default()
            },
        );
        let mut rng = Rng::new(900 + seed);
        for rank in 0..3u32 {
            let mut w = fs.open_writer("/r", rank).expect("open must be retried to success");
            for i in 0..30u64 {
                let off = (i * 3 + rank as u64) * 64;
                let fill = (rng.below(250) + 1) as u8;
                w.write_at(off, &[fill; 64]).expect("write must be masked");
            }
            w.close().expect("close must be masked");
        }
        let r = fs.open_reader("/r").expect("read-side must be masked too");
        let data = r.read_all().expect("reads must be masked");
        assert_eq!(data.len(), 90 * 64, "seed {seed}");
        assert!(faulty.stats().injected_transient > 0, "seed {seed}: plan injected nothing");
    }
}

/// Differential test for the coalescing read engine: over random
/// overlapping, hole-y multi-writer histories, `Reader::read_at` (the
/// parallel batched path) must return byte-identical results to
/// `Reader::read_at_serial` (one backend read per piece) and to a naive
/// last-write-wins byte map — even when the backend injects transient
/// errors and caps every read at a few bytes (forcing the short-read
/// loop on every batch).
#[test]
fn read_engine_matches_serial_oracle_and_byte_map() {
    let mut injected_any = false;
    for seed in 0..CASES {
        let mut rng = Rng::new(6_000 + seed);
        let faulty = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            FaultPlan {
                transient_error_rate: 0.05,
                short_read_cap: Some(7),
                ..FaultPlan::none(seed)
            },
        ));
        let fs = Plfs::new(
            faulty.clone() as Arc<dyn Backend>,
            PlfsConfig { hostdirs: 2, retry: RetryPolicy::fast_test(), ..Default::default() },
        );
        // All writers share one Plfs (one clock), so issue order is
        // timestamp order and a replay-in-order byte map is the truth.
        let writes = random_writes(&mut rng);
        let mut writers: Vec<_> =
            (0..6u32).map(|r| fs.open_writer("/f", r).expect("open masked")).collect();
        let mut naive: Vec<Option<u8>> = vec![None; 64_000];
        for (i, &(off, len, writer)) in writes.iter().enumerate() {
            let fill = 1 + ((i as u64 * 31 + seed) % 250) as u8;
            writers[writer as usize]
                .write_at(off, &vec![fill; len as usize])
                .expect("write masked");
            for b in off..off + len {
                naive[b as usize] = Some(fill);
            }
        }
        for w in writers {
            w.close().expect("close masked");
        }
        let reader = fs.open_reader("/f").expect("open_reader masked");
        // Random windows plus the full file, each read both ways.
        let mut windows: Vec<(u64, usize)> =
            (0..6).map(|_| (rng.below(64_000), rng.range_inclusive(1, 4_000) as usize)).collect();
        let naive_eof = naive.iter().rposition(|x| x.is_some()).map(|i| i as u64 + 1).unwrap_or(0);
        windows.push((0, naive_eof as usize));
        for (off, len) in windows {
            let mut fast = vec![0u8; len];
            let mut slow = vec![0u8; len];
            let n_fast = reader.read_at(off, &mut fast).expect("engine read masked");
            let n_slow = reader.read_at_serial(off, &mut slow).expect("serial read masked");
            assert_eq!(n_fast, n_slow, "seed {seed}: lengths diverge at ({off}, {len})");
            assert_eq!(
                fast[..n_fast],
                slow[..n_slow],
                "seed {seed}: bytes diverge at ({off}, {len})"
            );
            for (j, &got) in fast[..n_fast].iter().enumerate() {
                let want = naive[(off + j as u64) as usize].unwrap_or(0);
                assert_eq!(got, want, "seed {seed}: byte {} wrong", off + j as u64);
            }
        }
        injected_any |= faulty.stats().injected_transient > 0;
    }
    assert!(injected_any, "fault plans injected nothing — engine never saw an error");
}

/// Detection-completeness sweep: flip one seeded bit at *every byte* of
/// every covered file of a multi-writer container — data and index
/// droppings, both checksum sidecars, and the canonical index — and
/// assert the corruption machinery catches 100% of them: `scrub` must
/// report a finding (or flag the canonical cache), and for data bytes
/// verify-on-read must independently fail stop with a typed integrity
/// error.
///
/// The single tolerated exception is a flip inside a sidecar's 4-byte
/// block-size field that leaves the coverage geometry equivalent (a
/// single-entry sidecar whose block size is still >= the covered
/// length: every CRC still covers exactly the same bytes). Those are
/// not detectable *by construction* — nothing observable changed — so
/// the sweep instead proves them harmless: scrub stays fully clean and
/// the whole file reads back byte-identical.
#[test]
fn every_injected_bit_flip_in_covered_regions_is_detected() {
    const RANKS: u32 = 3;
    const REC: u64 = 1500;
    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(77)));
    let fs = Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        PlfsConfig { hostdirs: 2, ..Default::default() },
    );
    for r in 0..RANKS {
        let mut w = fs.open_writer("/f", r).unwrap();
        for j in 0..3u64 {
            // > VERIFY_BLOCK bytes per rank, position-dependent fill:
            // multi-entry sidecars whose blocks all hash differently.
            let off = (j * RANKS as u64 + r as u64) * REC;
            let buf: Vec<u8> =
                (0..REC).map(|i| (((off + i) * 7 + r as u64) % 251 + 1) as u8).collect();
            w.write_at(off, &buf).unwrap();
        }
        w.close().unwrap();
    }
    // Clean read-open persists the canonical index and establishes the
    // zero-false-positive baseline.
    let baseline = fs.open_reader("/f").unwrap().read_all().unwrap();
    assert!(fsck::scrub(faulty.as_ref(), "/f", 2).unwrap().is_clean(), "clean container flagged");
    assert!(fsck::fsck(faulty.as_ref(), "/f", 2).unwrap().is_clean());

    let paths = ContainerPaths::new("/f", 2);
    let mut targets: Vec<String> = vec![paths.canonical_index()];
    for r in 0..RANKS {
        targets.extend([
            paths.data_dropping(r),
            paths.index_dropping(r),
            paths.chk_dropping(r),
            paths.index_chk_dropping(r),
        ]);
    }
    let (mut total, mut benign) = (0u64, 0u64);
    for path in &targets {
        let len = faulty.len(path).unwrap();
        assert!(len > 0, "{path} empty — sweep would be vacuous");
        let is_data = path.contains("/data.");
        let is_sidecar = path.contains("/chk.") || path.contains("/chki.");
        for off in 0..len {
            total += 1;
            let mask = 1u8 << (off % 8);
            faulty.set_plan(FaultPlan {
                corrupt_byte_at: Some((path.clone(), off, mask)),
                ..FaultPlan::none(77)
            });
            let report = fsck::scrub(faulty.as_ref(), "/f", 2).unwrap();
            if is_data {
                // Verify-on-read must catch every data flip on its own.
                let err = fs.open_reader("/f").unwrap().read_all().unwrap_err();
                assert!(is_integrity(&err), "{path}@{off}: read served rotten bytes ({err})");
            }
            if !report.is_clean() {
                continue;
            }
            assert!(
                is_sidecar && (9..13).contains(&off),
                "{path}@{off} mask {mask:#04x}: undetected bit flip"
            );
            let reread = fs.open_reader("/f").unwrap().read_all().unwrap();
            assert_eq!(reread, baseline, "{path}@{off}: undetected flip changed read bytes");
            benign += 1;
        }
    }
    faulty.set_plan(FaultPlan::none(77));
    assert!(total > 10_000, "sweep too small to mean anything: {total} bytes");
    assert!(benign <= 4 * RANKS as u64, "benign corner wider than the block-size field: {benign}");
}

/// The engine/oracle differential must survive *corruption*, not just
/// transient faults: with one rotten byte planted in a random data
/// dropping and a zero-fill quarantine, `read_at` and `read_at_serial`
/// must stay byte-identical in both verification orders (whichever path
/// detects first, the verify-once memoization hands the other the same
/// quarantined answer), every delivered byte is either the model's or a
/// zero from the quarantined block, and a fail-stop reader over the
/// same rot either surfaces a typed integrity error or delivers exactly
/// the model bytes — never silently wrong data.
#[test]
fn read_engine_and_serial_oracle_agree_under_corruption() {
    let mut any_quarantined = false;
    for seed in 0..16u64 {
        let mut rng = Rng::new(8_000 + seed);
        let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(seed)));
        let fs = Plfs::new(
            faulty.clone() as Arc<dyn Backend>,
            PlfsConfig { hostdirs: 2, ..Default::default() },
        );
        let writes = random_writes(&mut rng);
        let mut writers: Vec<_> = (0..6u32).map(|r| fs.open_writer("/f", r).unwrap()).collect();
        let mut naive: Vec<Option<u8>> = vec![None; 64_000];
        for (i, &(off, len, writer)) in writes.iter().enumerate() {
            let fill = 1 + ((i as u64 * 31 + seed) % 250) as u8;
            writers[writer as usize].write_at(off, &vec![fill; len as usize]).unwrap();
            for b in off..off + len {
                naive[b as usize] = Some(fill);
            }
        }
        for w in writers {
            w.close().unwrap();
        }
        let naive_eof = naive.iter().rposition(|x| x.is_some()).map(|i| i as u64 + 1).unwrap_or(0);
        // Open every reader while the store is healthy, then plant one
        // rotten byte in a random nonempty data dropping.
        let mut ra = fs.open_reader("/f").unwrap();
        let mut rb = fs.open_reader("/f").unwrap();
        let rc = fs.open_reader("/f").unwrap();
        let rd = fs.open_reader("/f").unwrap();
        let paths = ContainerPaths::new("/f", 2);
        let candidates: Vec<(String, u64)> = (0..6u32)
            .map(|r| paths.data_dropping(r))
            .filter_map(|p| faulty.len(&p).ok().map(|l| (p, l)))
            .filter(|&(_, l)| l > 0)
            .collect();
        let (path, flen) = candidates[rng.below(candidates.len() as u64) as usize].clone();
        let target = rng.below(flen);
        faulty.set_plan(FaultPlan {
            corrupt_byte_at: Some((path, target, 1u8 << rng.below(8))),
            ..FaultPlan::none(seed)
        });
        for (which, reader) in [&mut ra, &mut rb].into_iter().enumerate() {
            reader.set_quarantine(QuarantinePolicy::ZeroFill);
            let mut windows: Vec<(u64, usize)> = (0..4)
                .map(|_| (rng.below(64_000), rng.range_inclusive(1, 4_000) as usize))
                .collect();
            windows.push((0, naive_eof as usize));
            for (off, len) in windows {
                let mut fast = vec![0u8; len];
                let mut slow = vec![0u8; len];
                // Alternate which path verifies first; memoization must
                // hand the other path the same quarantined answer.
                let (n_fast, n_slow) = if which == 0 {
                    let nf = reader.read_at(off, &mut fast).unwrap();
                    (nf, reader.read_at_serial(off, &mut slow).unwrap())
                } else {
                    let ns = reader.read_at_serial(off, &mut slow).unwrap();
                    (reader.read_at(off, &mut fast).unwrap(), ns)
                };
                assert_eq!(n_fast, n_slow, "seed {seed}: lengths diverge at ({off}, {len})");
                assert_eq!(
                    fast[..n_fast],
                    slow[..n_slow],
                    "seed {seed}: paths diverge at ({off}, {len})"
                );
                let mut zeroed = 0usize;
                for (j, &got) in fast[..n_fast].iter().enumerate() {
                    let want = naive[(off + j as u64) as usize].unwrap_or(0);
                    assert!(
                        got == want || got == 0,
                        "seed {seed}: byte {} is neither model nor quarantine zero",
                        off + j as u64
                    );
                    zeroed += (got != want) as usize;
                }
                assert!(
                    zeroed <= VERIFY_BLOCK as usize,
                    "seed {seed}: quarantine zeroed {zeroed} bytes, more than one block"
                );
                any_quarantined |= zeroed > 0;
            }
        }
        // Fail-stop over the same rot: a typed error or the exact model
        // bytes (the rotten byte may be dead — superseded physical
        // bytes are only pulled in by coalescing, never delivered).
        let mut buf = vec![0u8; naive_eof as usize];
        match rc.read_at(0, &mut buf) {
            Err(e) => assert!(is_integrity(&e), "seed {seed}: wrong error class: {e}"),
            Ok(n) => {
                for (j, &got) in buf[..n].iter().enumerate() {
                    assert_eq!(got, naive[j].unwrap_or(0), "seed {seed}: silent wrong byte {j}");
                }
            }
        }
        // Rate-based rot on the data path: fail-stop still never
        // delivers a wrong byte, whether or not a flip lands.
        faulty.set_plan(FaultPlan { bit_flip_rate: 0.0005, ..FaultPlan::none(seed) });
        match rd.read_at(0, &mut buf) {
            Err(e) => assert!(is_integrity(&e), "seed {seed}: wrong error class: {e}"),
            Ok(n) => {
                for (j, &got) in buf[..n].iter().enumerate() {
                    assert_eq!(got, naive[j].unwrap_or(0), "seed {seed}: silent wrong byte {j}");
                }
            }
        }
    }
    assert!(any_quarantined, "no sweep window ever covered the rotten block — test was vacuous");
}

// ------------------------------------------------------- GIGA+

/// Random insert/remove sequences preserve GIGA+ invariants and agree
/// with a HashSet model.
#[test]
fn giga_agrees_with_set_model() {
    for seed in 0..CASES {
        let mut rng = Rng::new(2_000 + seed);
        let servers = rng.range_inclusive(1, 8) as usize;
        let threshold = rng.range_inclusive(4, 63) as usize;
        let nops = rng.range_inclusive(1, 399);
        let mut dir = GigaDirectory::new(servers, threshold);
        let mut model = std::collections::HashSet::new();
        for _ in 0..nops {
            let key = rng.below(800);
            let name = format!("n{key}");
            if rng.chance(0.5) {
                assert_eq!(dir.insert(&name), model.insert(name.clone()), "seed {seed}");
            } else {
                assert_eq!(dir.remove(&name), model.remove(&name), "seed {seed}");
            }
        }
        dir.check_invariants();
        assert_eq!(dir.len(), model.len(), "seed {seed}");
        for name in &model {
            assert!(dir.contains(name), "seed {seed}: {name} lost");
        }
    }
}

// ------------------------------------------------------- traces

/// Any trace serializes and parses back identically.
#[test]
fn trace_text_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(3_000 + seed);
        let nops = rng.below(100) as usize;
        let t = Trace {
            app: "prop".into(),
            ranks: 64,
            ops: (0..nops)
                .map(|_| TraceOp {
                    rank: rng.below(64) as u32,
                    is_write: rng.chance(0.5),
                    offset: rng.below(1_000_000),
                    len: rng.range_inclusive(1, 99_999),
                })
                .collect(),
        };
        let parsed = Trace::parse(&t.to_text()).unwrap();
        assert_eq!(parsed, t, "seed {seed}");
    }
}

// ------------------------------------------------------- stats

/// CDF is monotone and quantiles invert it.
#[test]
fn cdf_monotone_and_quantiles_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::new(4_000 + seed);
        let n = rng.range_inclusive(1, 199) as usize;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0e6, 1.0e6)).collect();
        let cdf = Cdf::from_samples(xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in xs.windows(2) {
            assert!(cdf.at(w[0]) <= cdf.at(w[1]) + 1e-12, "seed {seed}");
        }
        for &q in &[0.1, 0.5, 0.9, 1.0] {
            let v = cdf.quantile(q);
            assert!(cdf.at(v) + 1e-12 >= q, "seed {seed}: quantile({q})");
        }
    }
}

// ------------------------------------------------------- FTL

/// Arbitrary page-write sequences keep the FTL maps consistent and
/// never lose the free pool.
#[test]
fn ftl_invariants_under_random_writes() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(5_000 + seed);
        let op = rng.range_inclusive(1, 3) as u32;
        let mut dev = FlashDevice::new(FtlConfig::from_headline(
            "prop-flash",
            2048 * 4096,
            200.0,
            100.0,
            20.0,
            2.0,
            0.1 * op as f64 + 0.05,
        ));
        let nwrites = rng.range_inclusive(1, 2_999);
        for _ in 0..nwrites {
            dev.service(DevOp::write(rng.below(2048) * 4096, 4096));
        }
        dev.check_invariants();
        assert!(dev.ftl_stats().write_amplification() >= 1.0, "seed {seed}");
        assert!(dev.free_pool_blocks() > 0, "seed {seed}");
    }
}
