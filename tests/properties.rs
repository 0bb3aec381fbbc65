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
use pdsi::plfs::faults::{FaultPlan, FaultyBackend};
use pdsi::plfs::index::{decode, encode_compressed, encode_raw, IndexEntry, IndexMap};
use pdsi::plfs::retry::RetryPolicy;
use pdsi::plfs::{
    fsck, is_integrity, ContainerPaths, IngestService, Plfs, PlfsConfig, QuarantinePolicy,
    ServiceConfig, WriterConfig, VERIFY_BLOCK,
};
use pdsi::simkit::stats::Cdf;
use pdsi::simkit::Rng;
use pdsi::workloads::{Trace, TraceOp};
use std::sync::Arc;

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

/// Model of what the logical file must contain after recovery: the
/// bytes of every write acked (synced) before the crash.
struct AckedModel {
    bytes: Vec<Option<u8>>,
}

impl AckedModel {
    fn assert_readable(&self, fs: &Plfs, seed: u64, tag: &str) {
        let reader = fs.open_reader("/f").expect("container must open after repair");
        let data = reader.read_all().unwrap();
        for (off, cell) in self.bytes.iter().enumerate() {
            if let Some(expect) = cell {
                assert!(
                    off < data.len() && data[off] == *expect,
                    "seed {seed} {tag}: acked byte at {off} lost or corrupt \
                     (got {:?}, want {expect})",
                    data.get(off),
                );
            }
        }
    }
}

/// Under crash-stop, data lands before the index records that point at
/// it, so a crash can leave orphaned data but never a dangling extent.
fn assert_no_dangling_extent(report: &fsck::RepairReport, ctx: &str) {
    assert!(
        !report.before.errors.iter().any(|e| matches!(e, fsck::FsckError::DanglingExtent { .. })),
        "{ctx}: an index record reached the store before its data: {:?}",
        report.before.errors
    );
}

/// Deterministic multi-writer workload over a faulty backend, staging
/// `data_buffer` bytes per data append (0 = write-through). Returns the
/// acked model at the moment the backend froze.
///
/// Writes are disjoint (each record owns its logical slot) so an acked
/// record can never be legitimately superseded by an unacked one —
/// byte-for-byte readback is then an invariant, not a probability.
fn crash_workload(
    crash_after: u64,
    seed: u64,
    data_buffer: usize,
) -> (Arc<FaultyBackend<MemBackend>>, AckedModel) {
    let faulty = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FaultPlan { crash_after_bytes: Some(crash_after), ..FaultPlan::none(seed) },
    ));
    let fs = Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        PlfsConfig {
            hostdirs: 2,
            writer: WriterConfig { data_buffer, index_flush_every: 4 },
            retry: RetryPolicy::none(),
            ..Default::default()
        },
    );
    let mut rng = Rng::new(seed);
    let ranks = 3u32;
    let rec = 16u64;
    let slots = 40u64;
    let mut model = AckedModel { bytes: vec![None; (slots * rec) as usize] };
    let writers: Vec<_> = (0..ranks).filter_map(|r| fs.open_writer("/f", r).ok()).collect();
    let mut writers = writers;
    if writers.len() < ranks as usize {
        return (faulty, model); // crashed during open: nothing acked yet
    }
    let mut pending: Vec<Vec<(u64, u8)>> = vec![Vec::new(); ranks as usize];
    for slot in 0..slots {
        let r = rng.below(ranks as u64) as usize;
        let fill = (rng.below(251) + 1) as u8;
        let off = slot * rec;
        if writers[r].write_at(off, &[fill; 16]).is_ok() {
            pending[r].push((off, fill));
        }
        // Periodic sync = the ack point.
        if rng.chance(0.25) {
            if writers[r].sync().is_ok() {
                for &(o, f) in &pending[r] {
                    for b in 0..rec {
                        model.bytes[(o + b) as usize] = Some(f);
                    }
                }
            }
            pending[r].clear();
        }
    }
    for (r, w) in writers.into_iter().enumerate() {
        let flushed = pending[r].clone();
        if w.close().is_ok() {
            for (o, f) in flushed {
                for b in 0..rec {
                    model.bytes[(o + b) as usize] = Some(f);
                }
            }
        }
    }
    (faulty, model)
}

/// Crash-stop the backend at *every byte boundary* of the tail of the
/// workload, repair, and verify every acked byte reads back — both
/// write-through and buffered.
#[test]
fn crash_repair_preserves_acked_data_at_every_boundary() {
    for (seed, data_buffer) in [0u64, 7, 42].into_iter().flat_map(|s| [(s, 0), (s, 128)]) {
        // Probe run without a crash to learn the total appended bytes.
        let (probe, _) = crash_workload(u64::MAX, seed, data_buffer);
        let total = probe.bytes_appended();
        assert!(total > 0);
        // Sweep crash points: every byte boundary in the final stretch,
        // coarser (but covering) earlier.
        let tail_start = total.saturating_sub(96);
        let mut points: Vec<u64> = (0..tail_start).step_by(61).collect();
        points.extend(tail_start..=total);
        for crash_after in points {
            let (faulty, model) = crash_workload(crash_after, seed, data_buffer);
            faulty.heal();
            let report =
                fsck::repair(faulty.as_ref(), "/f", 2, &fsck::RepairOptions::default()).unwrap();
            let tag = format!("buffer {data_buffer} crash@{crash_after}");
            assert_no_dangling_extent(&report, &format!("seed {seed} {tag}"));
            assert!(
                report.after.is_clean(),
                "seed {seed} {tag}: repair left errors {:?}",
                report.after.errors
            );
            let fs = Plfs::new(
                faulty.clone() as Arc<dyn Backend>,
                PlfsConfig { hostdirs: 2, ..Default::default() },
            );
            model.assert_readable(&fs, seed, &tag);
        }
    }
}

/// A failed write is not lost: the writer keeps it queued in order and
/// the next write, `sync` or `close` lands it. Errors surface (no
/// retries) from transient and torn appends on every file the writer
/// touches, the workload keeps writing through them, then syncs until
/// one succeeds. Every issued write must read back, at every buffer
/// size. Write-through (`data_buffer: 0`) once dropped the bytes of a
/// failed append while keeping its index entry: later writes failed
/// forever with "shrank under us", and `sync`/`close` still committed
/// index entries for bytes that never landed.
#[test]
fn failed_writes_stay_queued_and_land_at_every_buffer_size() {
    const REC: u64 = 24;
    const SLOTS: u64 = 48;
    for data_buffer in [0, 64, 1 << 20] {
        let mut surfaced = 0;
        for seed in 0..8u64 {
            let tag = format!("buffer {data_buffer} seed {seed}");
            let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(seed)));
            let fs = Plfs::new(
                faulty.clone() as Arc<dyn Backend>,
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
            let mut want = vec![0u8; (SLOTS * REC) as usize];
            for slot in 0..SLOTS {
                let w = &mut writers[rng.below(2) as usize];
                let fill = (rng.below(251) + 1) as u8;
                want[(slot * REC) as usize..((slot + 1) * REC) as usize].fill(fill);
                surfaced += w.write_at(slot * REC, &[fill; REC as usize]).is_err() as u32;
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
            let report = fsck::fsck(faulty.as_ref(), "/w", 2).unwrap();
            assert!(report.is_clean(), "{tag}: fsck found {:?}", report.errors);
            let got = fs.open_reader("/w").unwrap().read_all();
            let got = got.unwrap_or_else(|e| panic!("{tag}: read_all failed: {e}"));
            assert!(got == want, "{tag}: read back {} B, wrote {} B", got.len(), want.len());
        }
        assert!(surfaced > 0, "buffer {data_buffer}: no error surfaced — weak test");
    }
}

/// Crash the store again *inside repair itself*, at every byte repair
/// appends, and prove a second repair pass still converges with every
/// acked byte intact. This is the regression sweep for the old
/// read–remove–re-append rewrite in `truncate_file`: a crash between
/// the remove and the re-append lost the surviving prefix of an index
/// or data dropping — acked bytes gone. The staged-temp-plus-atomic-
/// rename rewrite must leave the original untouched until the commit.
#[test]
fn crash_inside_repair_converges_on_second_pass() {
    for seed in [0u64, 7, 42] {
        let (probe, _) = crash_workload(u64::MAX, seed, 128);
        let total = probe.bytes_appended();
        // Workload crash points that leave torn state for repair to
        // rewrite: mid-run and deep in the tail.
        for wc in [total / 2, total.saturating_sub(29)] {
            // Probe: how many bytes does repairing this wreck append?
            let (faulty, _) = crash_workload(wc, seed, 128);
            faulty.heal();
            let base = faulty.bytes_appended();
            fsck::repair(faulty.as_ref(), "/f", 2, &fsck::RepairOptions::default()).unwrap();
            let delta = faulty.bytes_appended() - base;
            // Sweep: re-create the identical wreck, then crash repair
            // at every byte it appends (k = 0 crashes its first write).
            for k in 0..=delta {
                let (faulty, model) = crash_workload(wc, seed, 128);
                faulty.heal();
                faulty.set_plan(FaultPlan {
                    crash_after_bytes: Some(base + k),
                    ..FaultPlan::none(seed)
                });
                // First repair: allowed to die mid-flight (that's the
                // point) — but never to corrupt what it hasn't
                // committed.
                let _ = fsck::repair(faulty.as_ref(), "/f", 2, &fsck::RepairOptions::default());
                faulty.heal();
                let report =
                    fsck::repair(faulty.as_ref(), "/f", 2, &fsck::RepairOptions::default())
                        .unwrap();
                assert!(
                    report.after.is_clean(),
                    "seed {seed} wreck@{wc} repair-crash@{k}: second repair left {:?}",
                    report.after.errors
                );
                let fs = Plfs::new(
                    faulty.clone() as Arc<dyn Backend>,
                    PlfsConfig { hostdirs: 2, ..Default::default() },
                );
                model.assert_readable(&fs, seed, &format!("wreck@{wc} repair-crash@{k}"));
            }
        }
    }
}

/// Four concurrent ranks writing interleaved strided records: rank `r`
/// owns every offset `(j*4 + r) * REC`, so neighbouring records always
/// belong to different ranks (the pathological N-1 signature). Each
/// rank syncs (= ack point) every fourth record. Returns the frozen
/// backend and each rank's independently-tracked acked model.
fn strided_crash_workload(
    crash_after: u64,
    seed: u64,
) -> (Arc<FaultyBackend<MemBackend>>, Vec<AckedModel>) {
    const RANKS: usize = 4;
    const RECORDS: u64 = 16;
    const REC: u64 = 8;
    let faulty = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FaultPlan { crash_after_bytes: Some(crash_after), ..FaultPlan::none(seed) },
    ));
    let fs = Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        PlfsConfig {
            hostdirs: 2,
            writer: WriterConfig { data_buffer: 64, index_flush_every: 3 },
            retry: RetryPolicy::none(),
            ..Default::default()
        },
    );
    let size = (RECORDS * RANKS as u64 * REC) as usize;
    let mut models: Vec<AckedModel> =
        (0..RANKS).map(|_| AckedModel { bytes: vec![None; size] }).collect();
    let mut writers = Vec::new();
    for r in 0..RANKS as u32 {
        match fs.open_writer("/f", r) {
            Ok(w) => writers.push(w),
            Err(_) => return (faulty, models), // crashed during open
        }
    }
    let mut pending: Vec<Vec<(u64, u8)>> = vec![Vec::new(); RANKS];
    for j in 0..RECORDS {
        for (r, w) in writers.iter_mut().enumerate() {
            let off = (j * RANKS as u64 + r as u64) * REC;
            let fill = 1 + ((r as u64 * 67 + j * 13 + seed) % 251) as u8;
            if w.write_at(off, &[fill; REC as usize]).is_ok() {
                pending[r].push((off, fill));
            }
            if (j + 1) % 4 == 0 {
                if w.sync().is_ok() {
                    for &(o, f) in &pending[r] {
                        for b in 0..REC {
                            models[r].bytes[(o + b) as usize] = Some(f);
                        }
                    }
                }
                pending[r].clear();
            }
        }
    }
    for (r, w) in writers.into_iter().enumerate() {
        let flushed = pending[r].clone();
        if w.close().is_ok() {
            for (o, f) in flushed {
                for b in 0..REC {
                    models[r].bytes[(o + b) as usize] = Some(f);
                }
            }
        }
    }
    (faulty, models)
}

/// Crash-stop the 4-rank interleaved-strided workload at EVERY byte the
/// backend ever appends, repair, and verify each rank's acked records
/// read back intact — acked data must survive no matter where in whose
/// dropping the crash lands.
#[test]
fn strided_four_rank_crash_sweep_preserves_per_rank_acked_data() {
    for seed in [3u64, 19] {
        // Probe run without a crash to learn the total appended bytes.
        let (probe, _) = strided_crash_workload(u64::MAX, seed);
        let total = probe.bytes_appended();
        assert!(total > 0);
        for crash_after in 0..=total {
            let (faulty, models) = strided_crash_workload(crash_after, seed);
            faulty.heal();
            let report =
                fsck::repair(faulty.as_ref(), "/f", 2, &fsck::RepairOptions::default()).unwrap();
            assert_no_dangling_extent(&report, &format!("seed {seed} crash@{crash_after}"));
            assert!(
                report.after.is_clean(),
                "seed {seed} crash@{crash_after}: repair left errors {:?}",
                report.after.errors
            );
            let fs = Plfs::new(
                faulty.clone() as Arc<dyn Backend>,
                PlfsConfig { hostdirs: 2, ..Default::default() },
            );
            for (r, model) in models.iter().enumerate() {
                model.assert_readable(&fs, seed, &format!("rank {r} crash@{crash_after}"));
            }
        }
    }
}

/// The ingest-service version of the crash workload: clients write
/// disjoint slots through a 2-shard [`IngestService`], with
/// `service.sync()` — the service's durability barrier — as the ack
/// point. Everything acked by a successful barrier goes into the
/// model; writes merely *accepted* (queued) do not.
fn service_crash_workload(
    crash_after: u64,
    seed: u64,
) -> (Arc<FaultyBackend<MemBackend>>, AckedModel) {
    const CLIENTS: u32 = 6;
    const ROUNDS: u64 = 4;
    const REC: u64 = 24;
    let faulty = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FaultPlan { crash_after_bytes: Some(crash_after), ..FaultPlan::none(seed) },
    ));
    let cfg = PlfsConfig {
        hostdirs: 2,
        writer: WriterConfig { data_buffer: 128, index_flush_every: 4 },
        retry: RetryPolicy::none(),
        ..Default::default()
    };
    let fs = Plfs::new(faulty.clone() as Arc<dyn Backend>, cfg);
    let mut model = AckedModel { bytes: vec![None; (CLIENTS as u64 * ROUNDS * REC) as usize] };
    let svc = match IngestService::start(
        &fs,
        "/f",
        ServiceConfig { shards: 2, batch_ops: 4, ..Default::default() },
    ) {
        Ok(svc) => svc,
        Err(_) => return (faulty, model), // crashed during open: nothing acked
    };
    let mut pending: Vec<(u64, u8)> = Vec::new();
    'rounds: for round in 0..ROUNDS {
        for c in 0..CLIENTS {
            let off = (round * CLIENTS as u64 + c as u64) * REC;
            let fill = 1 + ((c as u64 * 67 + round * 13 + seed) % 250) as u8;
            if svc.write(c, off, &vec![fill; REC as usize]).is_ok() {
                pending.push((off, fill));
            } else {
                break 'rounds; // sticky shard failure: nothing later acks
            }
        }
        if svc.sync().is_ok() {
            for &(o, f) in &pending {
                for b in 0..REC {
                    model.bytes[(o + b) as usize] = Some(f);
                }
            }
            pending.clear();
        } else {
            break;
        }
    }
    // Close may fail (frozen store) — acked data must survive anyway.
    let _ = svc.close();
    (faulty, model)
}

/// Crash-stop the ingest service at append-byte boundaries across the
/// whole workload (every byte in the tail, covering strides earlier),
/// repair, and verify every barriered byte reads back: a service crash
/// loses only data that was accepted but never acked by `sync`.
#[test]
fn service_crash_sweep_preserves_barriered_data() {
    for seed in [1u64, 11] {
        // Probe run without a crash to learn the total appended bytes.
        let (probe, _) = service_crash_workload(u64::MAX, seed);
        let total = probe.bytes_appended();
        assert!(total > 0);
        let tail_start = total.saturating_sub(80);
        let mut points: Vec<u64> = (0..tail_start).step_by(53).collect();
        points.extend(tail_start..=total);
        for crash_after in points {
            let (faulty, model) = service_crash_workload(crash_after, seed);
            faulty.heal();
            let report =
                fsck::repair(faulty.as_ref(), "/f", 2, &fsck::RepairOptions::default()).unwrap();
            assert_no_dangling_extent(&report, &format!("seed {seed} service crash@{crash_after}"));
            assert!(
                report.after.is_clean(),
                "seed {seed} service crash@{crash_after}: repair left errors {:?}",
                report.after.errors
            );
            let fs = Plfs::new(
                faulty.clone() as Arc<dyn Backend>,
                PlfsConfig { hostdirs: 2, ..Default::default() },
            );
            model.assert_readable(&fs, seed, &format!("service crash@{crash_after}"));
        }
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
