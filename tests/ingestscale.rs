//! Acceptance tests for the sharded checkpoint ingest service and the
//! atomic epoch-reservation bugfix underneath it, through the public
//! `pdsi` facade.
//!
//! The wall-clock shard-scaling gate (the ISSUE's ≥ 3× criterion) runs
//! in release builds only — debug codegen would measure the optimizer,
//! not the service. Everything else here is deterministic and runs in
//! both profiles: epoch-collision stress, canonical-invalidation
//! ordering, and the capture → differential-replay bridge between the
//! concurrent service and the single-writer engine.

use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::container::{create_container, epoch_watermark, reserve_session};
use pdsi::plfs::record::OpLogRecorder;
use pdsi::plfs::replay::{differential, ReplayMode, ReplayOptions};
use pdsi::plfs::{pool, ContainerPaths, IngestService, Plfs, PlfsConfig, ServiceConfig};
use pdsi::workloads::oplog::{fill_payload, OpKind};
use pdsi::workloads::swarm::{plan, SwarmConfig, SwarmPlan};
use pdsi::workloads::SizeDist;
use std::collections::BTreeSet;
use std::sync::Arc;

fn mem_fs() -> Plfs {
    Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, PlfsConfig::default())
}

fn small_swarm() -> SwarmPlan {
    plan(&SwarmConfig {
        clients: 24,
        ops_per_client: 3,
        size: SizeDist::Uniform { min: 128, max: 1024 },
        seed: 0xe19e,
    })
}

/// The ISSUE's epoch-collision stress: 1000 seeded iterations of
/// concurrent session reservation on one container must never hand two
/// callers the same session. This is the CAS-loop fix for the
/// read-then-compute session-count race — before it, two
/// simultaneous opens could mint overlapping stamp epochs and silently
/// corrupt overwrite resolution.
#[test]
fn concurrent_session_reservation_is_collision_free_for_1000_iterations() {
    for iter in 0u64..1000 {
        let contenders = 2 + (iter % 7) as usize; // 2..=8 racers
        let backend = Arc::new(MemBackend::new());
        let paths = ContainerPaths::new("/stress", 2);
        create_container(backend.as_ref(), &paths).unwrap();
        let sessions: Vec<u64> = {
            let results: Vec<std::sync::Mutex<Option<u64>>> =
                (0..contenders).map(|_| std::sync::Mutex::new(None)).collect();
            let barrier = std::sync::Barrier::new(contenders);
            std::thread::scope(|s| {
                for slot in &results {
                    let backend = &backend;
                    let paths = &paths;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait(); // maximize simultaneity
                        let got = reserve_session(backend.as_ref(), paths).unwrap();
                        *slot.lock().unwrap() = Some(got);
                    });
                }
            });
            results.iter().map(|m| m.lock().unwrap().expect("reservation ran")).collect()
        };
        let distinct: BTreeSet<u64> = sessions.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            contenders,
            "iteration {iter}: session collision among {sessions:?}"
        );
        // The watermark readers trust must sit above every minted session.
        let hi = *distinct.iter().next_back().unwrap();
        assert!(
            epoch_watermark(backend.as_ref(), &paths) > hi,
            "iteration {iter}: watermark not past session {hi}"
        );
    }
}

/// The same race through the full `open_writer` path: concurrently
/// opened writers must land on disjoint epochs (observable as the
/// watermark covering one marker per writer), and a record overwritten
/// by all of them must read back as exactly one writer's payload —
/// never a torn mix, which is what colliding stamp epochs produced.
#[test]
fn concurrent_writer_opens_mint_disjoint_epochs() {
    for iter in 0u64..48 {
        let ranks = 2 + (iter % 3) as u32; // 2..=4 concurrent opens
        let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
        let fs = Plfs::new(backend.clone(), PlfsConfig { hostdirs: 2, ..Default::default() });
        let writers: Vec<std::sync::Mutex<Option<pdsi::plfs::Writer>>> =
            (0..ranks).map(|_| std::sync::Mutex::new(None)).collect();
        let barrier = std::sync::Barrier::new(ranks as usize);
        std::thread::scope(|s| {
            for (r, slot) in writers.iter().enumerate() {
                let fs = &fs;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    *slot.lock().unwrap() = Some(fs.open_writer("/race", r as u32).unwrap());
                });
            }
        });
        for (r, slot) in writers.into_iter().enumerate() {
            let mut w = slot.into_inner().unwrap().unwrap();
            w.write_at(0, &[b'A' + r as u8; 64]).unwrap();
            w.close().unwrap();
        }
        let paths = ContainerPaths::new("/race", 2);
        assert!(
            epoch_watermark(backend.as_ref(), &paths) >= ranks as u64,
            "iteration {iter}: fewer epoch markers than concurrent opens"
        );
        let data = fs.open_reader("/race").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 64, "iteration {iter}");
        assert!(
            data.iter().all(|&b| b == data[0]),
            "iteration {iter}: torn overwrite {data:?} — epochs collided"
        );
    }
}

/// Regression for the canonical-index invalidation race: the cached
/// canonical index must be invalidated *before* a new write session
/// becomes visible, so no reader can persist — and no later reader can
/// trust — a canonical that predates the session. Observable ordering:
/// immediately after `open_writer` returns, the canonical is gone; and
/// a canonical persisted by a reader racing the open is stale by epoch
/// watermark, so post-close readers see the new data.
#[test]
fn canonical_cache_is_invalidated_before_a_new_session_is_visible() {
    let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
    let fs = Plfs::new(backend.clone(), PlfsConfig { hostdirs: 2, ..Default::default() });
    let paths = ContainerPaths::new("/canon", 2);

    let mut w = fs.open_writer("/canon", 0).unwrap();
    w.write_at(0, &[1u8; 256]).unwrap();
    w.close().unwrap();
    // A clean read-open persists the canonical cache.
    assert_eq!(fs.open_reader("/canon").unwrap().read_all().unwrap(), vec![1u8; 256]);
    assert!(backend.exists(&paths.canonical_index()), "clean open must persist the canonical");

    // The instant a new writer session is visible, the stale canonical
    // must already be invalidated.
    let mut w2 = fs.open_writer("/canon", 1).unwrap();
    assert!(
        !backend.exists(&paths.canonical_index()),
        "canonical survived past session-open — the invalidation race is back"
    );

    // A reader racing the open may rebuild and persist a canonical that
    // predates the new session's writes...
    assert_eq!(fs.open_reader("/canon").unwrap().read_all().unwrap(), vec![1u8; 256]);
    w2.write_at(0, &[2u8; 256]).unwrap();
    w2.close().unwrap();
    // ...but it is stale by epoch watermark, so a post-close reader
    // must rebuild and see the second session's bytes.
    assert_eq!(
        fs.open_reader("/canon").unwrap().read_all().unwrap(),
        vec![2u8; 256],
        "reader trusted a canonical persisted before the second session"
    );
}

/// The capture bridge: a swarm ingested through the *concurrent*
/// service, recorded by the PR 7 op-log recorder, must (a) land the
/// plan's exact bytes, (b) differential-replay identically under the
/// sequential and as-fast-as-possible schedulers on the single-writer
/// engine, and (c) leave the replayed container byte-identical to the
/// service's own file — the concurrent path and the single-writer path
/// are observationally the same engine.
#[test]
fn service_capture_differentially_replays_against_single_writer_engine() {
    let swarm = small_swarm();
    let recorder = Arc::new(OpLogRecorder::for_file("/swarm"));
    let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
    let fs =
        Plfs::new(backend, PlfsConfig { record: Some(recorder.clone()), ..Default::default() });
    let svc =
        IngestService::start(&fs, "/swarm", ServiceConfig { shards: 4, ..Default::default() })
            .unwrap();
    pool::run_bounded(swarm.per_client.len(), 8, |c| {
        for op in &swarm.per_client[c] {
            svc.write(op.client, op.offset, &op.payload()).unwrap();
        }
    });
    svc.sync().unwrap();
    let service_bytes = fs.open_reader("/swarm").unwrap().read_all().unwrap();
    assert_eq!(service_bytes, swarm.expected_contents(), "service diverged from the plan");
    svc.close().unwrap();

    let capture = recorder.snapshot();
    let writes = capture.ops.iter().filter(|o| o.len > 0).count() as u64;
    assert!(writes >= swarm.total_ops(), "capture missed writes: {writes}");

    let a = mem_fs();
    let b = mem_fs();
    let out = differential(
        &capture,
        &a,
        &ReplayOptions { mode: ReplayMode::Sequential, ..Default::default() },
        &b,
        &ReplayOptions { mode: ReplayMode::Asap, ..Default::default() },
    )
    .unwrap();
    assert!(out.delivered_match(), "replay schedulers delivered different bytes");
    assert!(out.content_match(), "replay schedulers left different container contents");
    assert!(out.identical(), "differential replay diverged: {out:?}");

    // The replayed container must match the capture's own byte-map
    // oracle: canonical payloads of (rank, offset) — rank here is the
    // *shard* that carried the write — applied over the same disjoint
    // geometry the service committed.
    let mut oracle = vec![0u8; swarm.file_size as usize];
    for op in capture.ops.iter().filter(|o| o.op == OpKind::Write && o.len > 0) {
        let lo = op.offset as usize;
        fill_payload(op.rank, op.offset, &mut oracle[lo..lo + op.len as usize]);
    }
    let replayed = a.open_reader("/swarm").unwrap().read_all().unwrap();
    assert_eq!(replayed, oracle, "replayed capture diverged from its byte-map oracle");

    // And the plan itself, driven through ONE writer in the seeded
    // issue order, must land the same bytes the concurrent service did
    // — the service and the single-writer engine are observationally
    // the same store.
    let ref_fs = mem_fs();
    let mut w = ref_fs.open_writer("/ref", 0).unwrap();
    for op in swarm.issue_order(7) {
        w.write_at(op.offset, &op.payload()).unwrap();
    }
    w.close().unwrap();
    assert_eq!(
        ref_fs.open_reader("/ref").unwrap().read_all().unwrap(),
        service_bytes,
        "single-writer reference run diverged from the concurrent service run"
    );
}

/// Deterministic slice of the grid in both profiles: a small swarm
/// through `ingest_cell` must land byte-identical contents, commit
/// every accepted write, and amortize multiple writes per index fsync.
#[test]
fn small_swarm_cell_commits_everything_with_amortized_fsyncs() {
    let swarm = plan(&SwarmConfig {
        clients: 64,
        ops_per_client: 2,
        size: SizeDist::Uniform { min: 512, max: 2048 },
        seed: 0xce11,
    });
    let cell = pdsi_bench::ingest_cell(2, &swarm);
    assert!(cell.contents_ok, "read-back diverged from the plan");
    assert_eq!(cell.clients, 64);
    assert_eq!(cell.ops, swarm.total_ops());
    assert_eq!(cell.committed_ops, cell.ops, "accepted writes never committed");
    assert!(cell.group_commits >= 1);
    assert!(cell.fanin() >= 4.0, "group commit failed to amortize: fan-in {:.1}", cell.fanin());
}

/// `repro ingestscale` must emit the machine-readable results with the
/// schema EXPERIMENTS.md documents.
#[test]
fn ingest_json_has_documented_schema() {
    let swarm = plan(&SwarmConfig {
        clients: 8,
        ops_per_client: 2,
        size: SizeDist::Uniform { min: 256, max: 512 },
        seed: 3,
    });
    let cells = vec![pdsi_bench::ingest_cell(1, &swarm)];
    let v = pdsi_bench::ingest_json_from(&cells);
    let cells = v.get("cells").and_then(|c| c.as_arr()).expect("cells array");
    assert_eq!(cells.len(), 1);
    for c in cells {
        for key in [
            "shards",
            "clients",
            "ops",
            "bytes",
            "wall_ns",
            "group_commits",
            "committed_ops",
            "backpressure_stalls",
            "backpressure_stall_ns",
            "contents_ok",
        ] {
            assert!(c.get(key).and_then(|x| x.as_i64()).is_some(), "cell missing {key}");
        }
        for key in ["bandwidth_bps", "speedup_vs_1shard", "fanin"] {
            assert!(c.get(key).and_then(|x| x.as_f64()).is_some(), "cell missing {key}");
        }
        assert_eq!(c.get("contents_ok").unwrap().as_i64(), Some(1));
    }
}

/// The CI scaling gate: the full 1000-client grid, with the ≥ 3×
/// 8-shard bandwidth and ≥ 8 fan-in criteria. Wall-clock comparison,
/// so release builds only.
#[cfg(not(debug_assertions))]
#[test]
fn ingest_grid_passes_the_scaling_gate() {
    let cells = pdsi_bench::ingest_results();
    let verdict = pdsi_bench::ingest_gate(&cells);
    assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
}
