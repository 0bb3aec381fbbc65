//! Metric-asserting tests: these check the *values* the `obs` layer
//! records, not stdout — proving the stack computed its answers for the
//! right reasons (the PR-1 fault-injection work becomes checkable by
//! invariant instead of by eyeball).

use pdsi::obs::{json, Registry};
use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::{Plfs, PlfsConfig};
use std::sync::Arc;

/// The ISSUE's exact masking invariant, on the `repro faults` scenario:
/// with zero surfaced errors, every injected transient must show up as
/// exactly one masked retry and every injected torn append as exactly
/// one torn recovery — counted independently by the injector
/// (`faults.*`) and the retry layer (`retry.*`).
#[test]
fn masked_retries_equal_injected_faults_exactly() {
    let mut injected_any = false;
    for (transient, torn) in [(0.0, 0.0), (0.02, 0.01), (0.10, 0.05)] {
        let (stats, surfaced, reg) = pdsi_bench::faults_masking_run(transient, torn);
        assert_eq!(surfaced, 0, "scenario must mask everything (p_eio={transient}, p_torn={torn})");
        injected_any |= stats.injected_transient + stats.injected_torn > 0;
        // Registry vs injector stats.
        assert_eq!(reg.value("retry.masked_transient"), Some(stats.injected_transient));
        assert_eq!(reg.value("retry.torn_recovered"), Some(stats.injected_torn));
        assert_eq!(reg.value("retry.surfaced"), Some(0));
        // Registry vs registry: the injector also exports its counts.
        assert_eq!(reg.value("retry.masked_transient"), reg.value("faults.injected_transient"));
        assert_eq!(reg.value("retry.torn_recovered"), reg.value("faults.injected_torn"));
    }
    assert!(injected_any, "fault plans injected nothing — the invariant was tested vacuously");
}

/// Every `repro` experiment must produce a real report and emit at
/// least 20 distinct metric series (the stable schema future perf PRs
/// assert against).
#[test]
fn every_experiment_emits_at_least_20_series() {
    for exp in pdsi_bench::EXPERIMENTS {
        let id = exp.id;
        let reg = Registry::new();
        let out = exp.run_observed(&reg);
        assert!(out.report.len() > 100, "{id} produced a suspiciously short report");
        assert!(
            reg.series_count() >= 20,
            "{id} emitted only {} series (schema floor is 20)",
            reg.series_count()
        );
    }
}

/// End-to-end counter check through the public `Plfs` API: the write
/// and read paths must record exactly what the workload did.
#[test]
fn plfs_counters_track_write_and_read_path() {
    let reg = Registry::new();
    let fs = Plfs::new(
        Arc::new(MemBackend::new()) as Arc<dyn Backend>,
        PlfsConfig { metrics: reg.clone(), ..Default::default() },
    );
    for rank in 0..4u32 {
        let mut w = fs.open_writer("/ckpt", rank).unwrap();
        for i in 0..8u64 {
            w.write_at((i * 4 + rank as u64) * 512, &[rank as u8; 512]).unwrap();
        }
        w.close().unwrap();
    }
    let r = fs.open_reader("/ckpt").unwrap();
    let data = r.read_all().unwrap();
    assert_eq!(data.len(), 4 * 8 * 512);

    assert_eq!(reg.value("plfs.write.ops"), Some(32), "4 ranks x 8 writes");
    assert_eq!(reg.value("plfs.write.bytes"), Some(32 * 512));
    assert_eq!(reg.value("plfs.read.bytes"), Some(4 * 8 * 512));
    assert_eq!(reg.value("plfs.index.raw_entries"), Some(32), "one entry per write");
    let fanin = reg.histogram("plfs.index.merge_fanin");
    assert_eq!(fanin.count(), 1, "one container open");
    assert_eq!(fanin.max(), 4, "four droppings merged");
    // A healthy store still pays one attempt per retried operation.
    assert!(reg.value("retry.attempts").unwrap() > 0);
    assert_eq!(reg.value("retry.surfaced"), Some(0));
}

/// `plfs.read.bytes` counts what a read *delivered*, not what it
/// attempted: a read that surfaces an error must contribute zero, and
/// the counter must equal exactly the bytes handed back once the
/// backend heals.
#[test]
fn read_bytes_counts_only_delivered_bytes() {
    use pdsi::plfs::faults::{FaultPlan, FaultyBackend};
    use pdsi::plfs::retry::RetryPolicy;

    let reg = Registry::new();
    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(11)));
    let fs = Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        PlfsConfig { metrics: reg.clone(), retry: RetryPolicy::none(), ..Default::default() },
    );
    let mut w = fs.open_writer("/ckpt", 0).unwrap();
    w.write_at(0, &[7u8; 512]).unwrap();
    w.close().unwrap();

    // Open while healthy (the index must be readable), then break the
    // data path: every backend read now fails and nothing is retried.
    let reader = fs.open_reader("/ckpt").unwrap();
    faulty.set_plan(FaultPlan { transient_error_rate: 1.0, ..FaultPlan::none(11) });
    let mut buf = vec![0u8; 512];
    assert!(reader.read_at(0, &mut buf).is_err(), "unretried faulty read must surface");
    assert_eq!(reg.value("plfs.read.bytes"), Some(0), "failed read delivered nothing");

    faulty.set_plan(FaultPlan::none(11));
    assert_eq!(reader.read_at(0, &mut buf).unwrap(), 512);
    assert_eq!(buf, vec![7u8; 512]);
    assert_eq!(reg.value("plfs.read.bytes"), Some(512), "exactly the delivered bytes");
    assert!(reg.value("plfs.read.backend_ops").unwrap() >= 1);
    assert_eq!(reg.value("plfs.read.batches"), Some(1), "only the delivered read counts");
}

/// Silent corruption is not a transient fault: the retry layer must
/// never "mask" it (a retried read of a rotten sector returns the same
/// rotten bytes), and the reader's typed [`IntegrityError`] must
/// surface on the first detection. Transient I/O errors injected at
/// the same time keep being masked — the two failure classes stay in
/// separate ledgers.
///
/// [`IntegrityError`]: pdsi::plfs::retry::IntegrityError
#[test]
fn corruption_is_never_counted_as_a_masked_transient() {
    use pdsi::plfs::faults::{FaultPlan, FaultyBackend};
    use pdsi::plfs::retry::is_integrity;

    let reg = Registry::new();
    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(23)));
    let fs = Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        PlfsConfig { metrics: reg.clone(), ..Default::default() },
    );
    let mut w = fs.open_writer("/ckpt", 0).unwrap();
    w.write_at(0, &[1u8; 2048]).unwrap();
    w.close().unwrap();
    let reader = fs.open_reader("/ckpt").unwrap();

    // Rot one data byte and make the store flaky at the same time:
    // transients must keep getting masked, corruption must surface.
    faulty.set_plan(FaultPlan {
        transient_error_rate: 0.05,
        corrupt_byte_at: Some(("data.0".into(), 100, 0x01)),
        ..FaultPlan::none(23)
    });
    let mut buf = vec![0u8; 2048];
    let err = reader.read_at(0, &mut buf).unwrap_err();
    assert!(is_integrity(&err), "corruption surfaces typed, not as I/O noise: {err}");
    assert_eq!(reg.value("plfs.read.bytes"), Some(0), "nothing delivered");
    assert_eq!(reg.value("plfs.verify.failures"), Some(1));

    faulty.export_into(&reg);
    let stats = faulty.stats();
    assert!(stats.injected_bit_flips >= 1, "the rotten byte was read");
    // Every injected transient was masked by a retry; the bit flips
    // contributed nothing to that ledger.
    assert_eq!(reg.value("retry.masked_transient"), Some(stats.injected_transient));
    assert_eq!(reg.value("retry.surfaced"), Some(0), "retry layer never saw the corruption");
}

/// The JSON dump must round-trip through the hand-rolled parser and
/// preserve every series and its value.
#[test]
fn metrics_json_roundtrips() {
    let reg = Registry::new();
    reg.counter("a.count").add(41);
    reg.gauge_with("b.level", &[("osd", "3")]).set(-7);
    reg.histogram("c.lat").observe(1000);
    let v = json::parse(&reg.to_json()).expect("dump must be valid JSON");
    let series = v.get("series").and_then(|s| s.as_arr()).expect("series array");
    assert_eq!(series.len(), reg.series_count());
    let a = series
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("a.count"))
        .expect("a.count present");
    assert_eq!(a.get("value").and_then(|x| x.as_i64()), Some(41));
}
