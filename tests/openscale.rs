//! Acceptance tests for the read-open index merge work: the O(n log n)
//! sweep must beat the old splice merge by an order of magnitude at
//! scale, and a warm open must be served entirely from the
//! flattened-index cache. All cost comparisons use logical merge-step
//! counters (deterministic, machine-independent) — never wall clock.

use pdsi::obs::Registry;
use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::{Plfs, PlfsConfig};
use std::sync::Arc;

/// The ISSUE's headline number: at 64 ranks x 10k entries/rank the
/// sweep merge costs at least 10x fewer logical steps than the splice
/// baseline (measured on the same worst-case interleaved workload by
/// `repro openscale`'s cell runner).
#[test]
fn sweep_is_10x_cheaper_than_splice_at_64_ranks_10k_entries() {
    let cell = pdsi_bench::openscale_cell(64, 10_000);
    assert_eq!(cell.entries, 640_000);
    assert!(cell.sweep_steps > 0 && cell.splice_steps > 0);
    let speedup = cell.splice_steps as f64 / cell.sweep_steps as f64;
    assert!(
        speedup >= 10.0,
        "sweep must be >= 10x cheaper than splice at 64x10k: \
         sweep {} steps, splice {} steps, ratio {speedup:.1}x",
        cell.sweep_steps,
        cell.splice_steps
    );
}

/// The sweep's cost curve is near-linearithmic while the splice's is
/// quadratic: growing the workload 16x (4k -> 64k entries) must grow
/// sweep steps far less than the ~256x a quadratic algorithm shows.
#[test]
fn sweep_cost_scales_near_linearithmically() {
    let small = pdsi_bench::openscale_cell(4, 1000);
    let large = pdsi_bench::openscale_cell(64, 1000);
    let sweep_growth = large.sweep_steps as f64 / small.sweep_steps as f64;
    let splice_growth = large.splice_steps as f64 / small.splice_steps as f64;
    assert!(sweep_growth < 64.0, "16x entries grew sweep cost {sweep_growth:.0}x — not n log n");
    assert!(
        splice_growth > 100.0,
        "16x entries grew splice cost only {splice_growth:.0}x — baseline lost its quadratic \
         behaviour, the comparison is meaningless"
    );
}

/// A warm open must decode zero raw index entries: everything comes
/// from `canonical.index`. Asserted on the `plfs.index.*` metrics, not
/// just ReadStats, so the claim holds at the registry level CI dumps.
#[test]
fn warm_open_serves_from_cache_with_zero_raw_entries() {
    let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
    let fs = Plfs::new(backend.clone(), PlfsConfig::default());
    let ranks = 8u32;
    let mut writers: Vec<_> = (0..ranks).map(|r| fs.open_writer("/ckpt", r).unwrap()).collect();
    for i in 0..32u64 {
        for (r, w) in writers.iter_mut().enumerate() {
            w.write_at((i * ranks as u64 + r as u64) * 512, &[r as u8; 512]).unwrap();
        }
    }
    for w in writers {
        w.close().unwrap();
    }

    let open = || {
        let reg = Registry::new();
        let fs =
            Plfs::new(backend.clone(), PlfsConfig { metrics: reg.clone(), ..Default::default() });
        (fs.open_reader("/ckpt").unwrap(), reg)
    };

    let (cold, cold_reg) = open();
    assert!(!cold.stats().from_canonical);
    assert_eq!(cold_reg.value("plfs.index.raw_entries"), Some(8 * 32));
    assert_eq!(cold_reg.value("plfs.index.canonical_writes"), Some(1));

    let (warm, warm_reg) = open();
    assert!(warm.stats().from_canonical, "second open must hit the cache");
    assert_eq!(warm.stats().raw_entries, 0);
    assert_eq!(warm_reg.value("plfs.index.raw_entries"), Some(0), "warm open decoded raw entries");
    assert_eq!(warm_reg.value("plfs.index.canonical_hits"), Some(1));
    // The cached view answers reads identically.
    assert_eq!(warm.read_all().unwrap(), cold.read_all().unwrap());
    // And far cheaper: the warm merge only walks already-disjoint
    // fragments (logical-clock comparison again, no wall time).
    assert!(
        warm.stats().merge_steps * 10 <= cold.stats().merge_steps,
        "warm merge ({} steps) should be an order of magnitude under cold ({} steps)",
        warm.stats().merge_steps,
        cold.stats().merge_steps
    );
}

/// `repro openscale` must emit the machine-readable results with the
/// schema EXPERIMENTS.md documents.
#[test]
fn openscale_json_has_documented_schema() {
    let out = pdsi_bench::experiment("openscale").unwrap().run_observed(&Registry::new());
    let (file, v) = out.bench.expect("openscale writes a BENCH file");
    assert_eq!(file, "BENCH_openscale.json");
    let cells = v.get("cells").and_then(|c| c.as_arr()).expect("cells array");
    assert_eq!(cells.len(), 4);
    for c in cells {
        for key in [
            "ranks",
            "per_rank",
            "entries",
            "sweep_steps",
            "splice_steps",
            "extents",
            "merge_wall_ns",
        ] {
            assert!(c.get(key).and_then(|x| x.as_i64()).is_some(), "cell missing {key}");
        }
        assert!(c.get("speedup").and_then(|x| x.as_f64()).is_some());
    }
    let e2e = v.get("e2e").expect("e2e object");
    for key in [
        "ranks",
        "writes_per_rank",
        "cold_open_ns",
        "warm_open_ns",
        "cold_raw_entries",
        "warm_raw_entries",
        "cold_merge_steps",
        "warm_merge_steps",
        "merged_extents",
    ] {
        assert!(e2e.get(key).and_then(|x| x.as_i64()).is_some(), "e2e missing {key}");
    }
    assert_eq!(e2e.get("warm_raw_entries").unwrap().as_i64(), Some(0));
}
