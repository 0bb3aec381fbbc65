//! Trace-capture experiments: rerun key scenarios with a bounded
//! [`TraceSink`] installed and hand back the span forest plus its
//! critical-path attribution — the data behind `repro trace <exp>`.
//!
//! Each experiment answers a "where did the time go" question the
//! aggregate counters can't: the N-1 collapse is *lock wait* (not slow
//! disks), the friendly N-N pattern is *media transfer* (the floor),
//! the PLFS write path under a flaky store is punctuated by *retry*
//! spans, and incast latency lives in the switch *queue* and RTO
//! stalls. The spans export to Chrome trace-event JSON for Perfetto.

use obs::trace::{self, Attribution, SpanRecord, TraceSink};
use pfs::{Cluster, ClusterConfig};
use simkit::units::{fmt_bytes, KIB, MIB};

/// All trace experiment ids, with a one-line description.
pub const TRACE_EXPERIMENTS: &[(&str, &str)] = &[
    ("plfs_n1", "unaligned strided N-1 checkpoint, direct vs through PLFS (lock-wait collapse)"),
    ("plfs_nn", "aligned N-N per-rank files: the pattern the file system loves"),
    ("plfs_io", "functional PLFS write path over a flaky store: retry + torn-append spans"),
    ("incast", "32-way synchronized fan-in through one switch port: queue + RTO spans"),
];

/// One captured trace: the merged span forest, a critical-path
/// attribution per traced scenario, and a short text summary.
pub struct TraceRun {
    pub spans: Vec<SpanRecord>,
    /// `(scenario title, attribution)` — one per traced scenario.
    pub attributions: Vec<(String, Attribution)>,
    pub summary: String,
}

impl TraceRun {
    /// Attribution tables plus the summary, ready to print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, attr) in &self.attributions {
            out.push_str(&attr.render_table(title));
            out.push('\n');
        }
        out.push_str(&self.summary);
        out
    }
}

/// Run one trace experiment by id; `None` for unknown ids.
pub fn run_trace(id: &str) -> Option<TraceRun> {
    match id {
        "plfs_n1" => Some(trace_plfs_n1()),
        "plfs_nn" => Some(trace_plfs_nn()),
        "plfs_io" => Some(trace_plfs_io()),
        "incast" => Some(trace_incast()),
        _ => None,
    }
}

/// The headline experiment: the same unaligned strided N-1 pattern
/// replayed twice — directly (lock false sharing, forced flushes) and
/// through PLFS (per-rank sequential logs). Both spans land in one
/// export under `direct/` and `plfs/` track prefixes so Perfetto shows
/// the two causal forests side by side.
fn trace_plfs_n1() -> TraceRun {
    let pattern = plfs::strided_n1_pattern(16, 48, 47 * KIB);

    let direct_sink = TraceSink::bounded(1 << 18);
    let mut cfg = ClusterConfig::lustre_like(8, MIB);
    cfg.trace = direct_sink.clone();
    let direct_rep = plfs::run_direct(cfg, &pattern);
    let mut spans = direct_sink.snapshot();
    let direct_attr = trace::critical_path(&spans);

    let plfs_sink = TraceSink::bounded(1 << 18);
    let mut cfg = ClusterConfig::lustre_like(8, MIB);
    cfg.trace = plfs_sink.clone();
    let plfs_rep = plfs::run_plfs(cfg, &pattern);
    let mut plfs_spans = plfs_sink.snapshot();
    let plfs_attr = trace::critical_path(&plfs_spans);

    trace::rebase(&mut spans, 0, "direct/");
    trace::rebase(&mut plfs_spans, trace::max_id(&spans), "plfs/");
    spans.extend(plfs_spans);

    let summary = format!(
        "N-1 strided 16 ranks x 48 x 47 KiB on lustre_like(8, 1 MiB):\n  \
         direct   {}/s  (lock revocations: {})\n  \
         via PLFS {}/s  ({:.1}x)\n",
        fmt_bytes(direct_rep.write_bandwidth() as u64),
        direct_rep.lock_stats.revocations,
        fmt_bytes(plfs_rep.write_bandwidth() as u64),
        plfs_rep.write_bandwidth() / direct_rep.write_bandwidth()
    );
    TraceRun {
        spans,
        attributions: vec![
            ("direct N-1 (unaligned strided)".into(), direct_attr),
            ("through PLFS (per-rank logs)".into(), plfs_attr),
        ],
        summary,
    }
}

/// The contrast case: per-rank files with stripe-aligned records.
/// No sharing, no revocations — the critical path is media transfer.
fn trace_plfs_nn() -> TraceRun {
    let [_, streams] = crate::experiments::aligned_n1_nn();

    let sink = TraceSink::bounded(1 << 18);
    let mut cfg = ClusterConfig::lustre_like(8, MIB);
    cfg.trace = sink.clone();
    let rep = Cluster::new(cfg).run_phase(&streams);
    let spans = sink.snapshot();
    let attr = trace::critical_path(&spans);

    let summary = format!(
        "N-N aligned 16 ranks x 48 x 1 MiB on lustre_like(8, 1 MiB):\n  \
         {}/s durable  (lock revocations: {})\n",
        fmt_bytes(rep.write_bandwidth() as u64),
        rep.lock_stats.revocations
    );
    TraceRun { spans, attributions: vec![("N-N per-rank files (aligned)".into(), attr)], summary }
}

/// The functional (non-simulated) PLFS write path over a fault-injecting
/// in-memory store: `plfs.write_at` roots with data/index append
/// children, `retry.attempt` spans where transient errors were masked,
/// and `torn.recovery` markers where a torn append was resumed.
fn trace_plfs_io() -> TraceRun {
    use plfs::{Backend, FaultPlan, FaultyBackend, MemBackend, Plfs, PlfsConfig, RetryPolicy};
    use std::sync::Arc;

    let sink = TraceSink::bounded(1 << 16);
    let mut cfg = PlfsConfig {
        trace: sink.clone(),
        retry: RetryPolicy::fast_test(),
        ..PlfsConfig::default()
    };
    // One append per write so every write_at exercises the store.
    cfg.writer.data_buffer = 0;

    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::flaky(7)));
    let fs = Plfs::new(faulty.clone() as Arc<dyn Backend>, cfg);

    let ranks = 4u32;
    let per_rank = 32u64;
    let record = 4 * KIB;
    let payload = vec![0xA5u8; record as usize];
    for rank in 0..ranks {
        let mut w = fs.open_writer("/ckpt", rank).expect("open_writer");
        for i in 0..per_rank {
            let offset = (i * ranks as u64 + rank as u64) * record;
            w.write_at(offset, &payload).expect("write_at");
        }
        w.close().expect("close");
    }

    let spans = sink.snapshot();
    let attr = trace::critical_path(&spans);
    let st = faulty.stats();
    let retries = spans.iter().filter(|s| s.name == "retry.attempt").count();
    let torn = spans.iter().filter(|s| s.name == "torn.recovery").count();
    let summary = format!(
        "functional PLFS, 4 ranks x 32 x 4 KiB strided over FaultPlan::flaky:\n  \
         injected: {} transient, {} torn  ->  traced: {} retry.attempt, {} torn.recovery\n",
        st.injected_transient, st.injected_torn, retries, torn
    );
    TraceRun {
        spans,
        attributions: vec![("PLFS write path over flaky store".into(), attr)],
        summary,
    }
}

/// Incast fan-in: per-packet queue/transmit spans on the bottleneck
/// port, drop markers, and RTO-stall markers.
fn trace_incast() -> TraceRun {
    use netsim::{run_incast, IncastConfig, RtoPolicy};

    let sink = TraceSink::bounded(1 << 18);
    let mut cfg = IncastConfig::gbe(32, RtoPolicy::legacy_200ms());
    cfg.trace = sink.clone();
    let rep = run_incast(&cfg);
    let spans = sink.snapshot();
    let attr = trace::critical_path(&spans);

    let summary = format!(
        "incast 32 senders, 1 GbE, legacy 200 ms RTO:\n  \
         goodput {}/s ({:.1}% of link)  drops {}  timeouts {}\n",
        fmt_bytes((rep.goodput_bps / 8.0) as u64),
        100.0 * rep.efficiency(&cfg),
        rep.drops,
        rep.timeouts
    );
    TraceRun { spans, attributions: vec![("incast fan-in (32 senders)".into(), attr)], summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::Phase;

    #[test]
    fn every_trace_experiment_yields_a_valid_forest() {
        for (id, _) in TRACE_EXPERIMENTS {
            let run = run_trace(id).unwrap();
            assert!(!run.spans.is_empty(), "{id}: no spans captured");
            let stats = trace::validate(&run.spans)
                .unwrap_or_else(|e| panic!("{id}: invalid span tree: {e}"));
            assert!(stats.roots > 0, "{id}: no roots");
            for (_, attr) in &run.attributions {
                assert!(attr.total > 0, "{id}: empty attribution");
            }
            assert!(run.render().contains("critical path"));
        }
    }

    #[test]
    fn unknown_trace_id_is_none() {
        assert!(run_trace("nope").is_none());
    }

    #[test]
    fn n1_merges_both_modes_under_prefixed_tracks() {
        let run = run_trace("plfs_n1").unwrap();
        assert!(run.spans.iter().any(|s| s.track.starts_with("direct/")));
        assert!(run.spans.iter().any(|s| s.track.starts_with("plfs/")));
        // The direct half pins the paper's diagnosis: stripe-lock wait
        // dominates the unaligned N-1 critical path.
        let direct = &run.attributions[0].1;
        assert!(
            direct.share(Phase::LockWait) >= 0.5,
            "lock wait share {:.2} < 0.5",
            direct.share(Phase::LockWait)
        );
    }

    #[test]
    fn nn_critical_path_is_transfer_dominated() {
        let run = run_trace("plfs_nn").unwrap();
        let attr = &run.attributions[0].1;
        assert_eq!(attr.dominant(), Some(Phase::Transfer), "by_phase: {:?}", attr.by_phase);
    }
}
