//! Capture→replay round-trip and differential-replay tests: the
//! op-log subsystem's end-to-end guarantees, checked through the
//! public `pdsi` facade.
//!
//! The oracle is a *byte map* built directly from the op log — apply
//! every write's canonical payload in stamp order — so the replayed
//! container's logical contents are compared against something that
//! never went through PLFS at all.

use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::record::OpLogRecorder;
use pdsi::plfs::replay::{content_hash, differential, path_for, replay, ReplayMode, ReplayOptions};
use pdsi::plfs::{FaultPlan, FaultyBackend, Plfs, PlfsConfig, RetryPolicy};
use pdsi::workloads::gen::{generate, GenConfig, Scenario, SCENARIOS};
use pdsi::workloads::oplog::{fill_payload, OpKind, OpLog, OpResult, Shape};
use pdsi::workloads::sample::{ArrivalDist, SizeDist};
use std::collections::HashMap;
use std::sync::Arc;

fn mem_fs() -> Plfs {
    Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, PlfsConfig::default())
}

/// Logical file contents the log's writes should produce: canonical
/// payloads applied in stamp order (bigger stamp wins overlaps —
/// exactly the index merge's resolution rule).
fn byte_map_oracle(log: &OpLog) -> HashMap<String, Vec<u8>> {
    let mut writes: Vec<_> =
        log.ops.iter().filter(|o| o.op == OpKind::Write && o.len > 0).collect();
    writes.sort_by_key(|o| match o.result {
        OpResult::Write { stamp } => stamp,
        _ => panic!("generated write without a stamp"),
    });
    let mut files: HashMap<String, Vec<u8>> = HashMap::new();
    for op in writes {
        let f = files.entry(path_for(log, op.rank)).or_default();
        let end = (op.offset + op.len) as usize;
        if f.len() < end {
            f.resize(end, 0);
        }
        fill_payload(op.rank, op.offset, &mut f[op.offset as usize..end]);
    }
    files
}

/// Capture→replay round-trip over the full generator grid: executing
/// a generated log through a *recording* instance and then replaying
/// the capture on a fresh store must reproduce (a) the capture's
/// delivered read bytes and (b) the byte-map oracle's container
/// contents — for every scenario, size/arrival shape, and replay mode.
#[test]
fn capture_replay_round_trip_over_generator_grid() {
    let shapes = [
        (SizeDist::Uniform { min: 512, max: 8192 }, ArrivalDist::Immediate),
        (
            SizeDist::LogNormal { median: 4096, sigma: 1.2, min: 256, max: 32 * 1024 },
            ArrivalDist::Poisson { mean_gap_ns: 20_000 },
        ),
    ];
    for &(_, scenario) in SCENARIOS {
        for (gi, &(size, arrival)) in shapes.iter().enumerate() {
            let cfg =
                GenConfig { ranks: 4, ops_per_rank: 5, size, arrival, seed: 1000 + gi as u64 };
            let log = generate(scenario, &cfg);
            let oracle = byte_map_oracle(&log);

            // Capture: run the generated log through a recording
            // instance (sequential = the reference interleaving). N-N
            // logs need the rank-family recorder.
            let recorder = Arc::new(match log.shape {
                Shape::N1 => OpLogRecorder::new(),
                Shape::NN => OpLogRecorder::for_file_nn(&log.file),
            });
            let capture_backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
            let capture_fs = Plfs::new(
                capture_backend,
                PlfsConfig { record: Some(recorder.clone()), ..Default::default() },
            );
            let base = replay(
                &capture_fs,
                &log,
                &ReplayOptions { mode: ReplayMode::Sequential, ..Default::default() },
            )
            .unwrap();
            assert_eq!(base.errors, 0, "{scenario:?}/{gi}: capture errored");
            let capture = recorder.snapshot();
            assert!(!capture.ops.is_empty(), "{scenario:?}/{gi}: capture recorded nothing");
            let capture_content = content_hash(&capture_fs, &log).unwrap();

            // Replay the capture in both scheduled modes on fresh stores.
            for mode in [ReplayMode::Sequential, ReplayMode::Asap] {
                let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
                let fs = Plfs::new(backend.clone(), PlfsConfig::default());
                let out =
                    replay(&fs, &capture, &ReplayOptions { mode, ..Default::default() }).unwrap();
                assert_eq!(out.errors, 0, "{scenario:?}/{gi}/{mode:?}");
                assert_eq!(out.read_mismatches, 0, "{scenario:?}/{gi}/{mode:?}: reads diverged");
                assert_eq!(
                    out.delivered_hash,
                    capture.delivered_hash(),
                    "{scenario:?}/{gi}/{mode:?}: delivered bytes diverged from capture"
                );
                assert_eq!(
                    out.content_hash, capture_content,
                    "{scenario:?}/{gi}/{mode:?}: container contents diverged from capture"
                );

                // Byte-map oracle: the replayed container's logical
                // files match the map, byte for byte.
                let clean = Plfs::new(backend, PlfsConfig::default());
                for (file, want) in &oracle {
                    let r = clean
                        .open_reader(file)
                        .unwrap_or_else(|e| panic!("{scenario:?}/{gi}/{mode:?}: open {file}: {e}"));
                    let got = r.read_all().unwrap();
                    assert_eq!(
                        &got, want,
                        "{scenario:?}/{gi}/{mode:?}: {file} bytes diverged from oracle"
                    );
                }
            }
        }
    }
}

/// Differential satellite: the same log replayed on a clean store and
/// on a store injecting transient faults plus pathological short reads
/// must be observationally identical — the retry layer and the
/// POSIX-correct partial-read handling absorb every injected fault.
#[test]
fn differential_faulty_store_matches_clean_run() {
    let cfg = GenConfig {
        ranks: 6,
        ops_per_rank: 5,
        size: SizeDist::Uniform { min: 700, max: 9000 },
        arrival: ArrivalDist::Immediate,
        seed: 77,
    };
    for &(_, scenario) in
        &[("", Scenario::N1Strided), ("", Scenario::Mixed), ("", Scenario::ReadHeavyRestart)]
    {
        let log = generate(scenario, &cfg);
        let clean = mem_fs();
        let plan = FaultPlan {
            transient_error_rate: 0.06,
            short_read_cap: Some(1500),
            ..FaultPlan::none(91)
        };
        let faulty_store = Arc::new(FaultyBackend::new(MemBackend::new(), plan));
        let fcfg = PlfsConfig { retry: RetryPolicy::fast_test(), ..Default::default() };
        let faulty = Plfs::new(faulty_store.clone() as Arc<dyn Backend>, fcfg);

        let diff = differential(
            &log,
            &clean,
            &ReplayOptions::default(),
            &faulty,
            &ReplayOptions::default(),
        )
        .unwrap();
        assert!(
            diff.identical(),
            "{scenario:?}: faulty-store replay diverged from clean \
             (delivered={} content={} invariants={})",
            diff.delivered_match(),
            diff.content_match(),
            diff.invariants_match()
        );
        let st = faulty_store.stats();
        assert!(
            st.injected_transient > 0,
            "{scenario:?}: no transient faults injected — differential was vacuous"
        );
    }
}

/// The acceptance bar, pinned as a test: the bench-side 64-rank grid —
/// three modes hash-identical to the capture, three differential
/// engine-config pairs clean, timing-faithful actually paced.
#[test]
fn bench_replay_gate_holds() {
    let summary = pdsi_bench::replay_results();
    assert_eq!(summary.ranks, 64);
    assert!(summary.pairs.len() >= 3, "need >= 3 differential engine-config pairs");
    pdsi_bench::replay_gate(&summary).unwrap();
}

/// Replaying one log twice on independent stores is bit-deterministic:
/// same delivered hash, same content hash, in every mode pairing.
#[test]
fn replay_is_deterministic_across_runs_and_modes() {
    let cfg = GenConfig {
        ranks: 5,
        ops_per_rank: 6,
        size: SizeDist::LogNormal { median: 6000, sigma: 1.0, min: 128, max: 40_000 },
        arrival: ArrivalDist::Burst { burst: 3, intra_gap_ns: 10, inter_gap_ns: 40_000 },
        seed: 13,
    };
    let log = generate(Scenario::Mixed, &cfg);
    let mut seen = Vec::new();
    for mode in [ReplayMode::Asap, ReplayMode::Asap, ReplayMode::Sequential] {
        let out = replay(&mem_fs(), &log, &ReplayOptions { mode, ..Default::default() }).unwrap();
        assert_eq!(out.errors, 0);
        seen.push((out.delivered_hash, out.content_hash));
    }
    assert_eq!(seen[0], seen[1], "same mode, two runs");
    assert_eq!(seen[1], seen[2], "asap vs sequential");
}
