//! # pdsi-bench — experiment harness regenerating every figure and
//! table in the PDSI final report.
//!
//! [`EXPERIMENTS`] is one table of every experiment. A figure row wraps
//! a `figNN_report()` that runs the simulators and returns the
//! paper-style table; a gated row's `*_experiment()` runs once and
//! builds its report, BENCH JSON and gate verdict from that run. The
//! `repro` binary is a thin CLI over the table. Absolute numbers come
//! from the simulated substrate (see `DESIGN.md`), so the *shapes* —
//! who wins, by what factor, where crossovers fall — are the
//! reproduction targets, recorded against the paper in `EXPERIMENTS.md`.

pub mod dedup_experiments;
pub mod experiments;
pub mod ingest_experiments;
pub mod monitor_experiments;
pub mod replay_experiments;
pub mod trace_experiments;

pub use dedup_experiments::{
    dedup_experiment, dedup_gate, dedup_json_from, dedup_results, DedupDiffCell, DedupIterCell,
    DedupSummary,
};
pub use experiments::*;
pub use ingest_experiments::{
    ingest_cell, ingest_experiment, ingest_gate, ingest_json_from, ingest_results, ingest_swarm,
    IngestCell, PacedBackend,
};
pub use monitor_experiments::{
    monitor_experiment, monitor_gate, monitor_json_from, monitorscale_results, run_monitor,
    FlakyMonitorCell, MonitorRun, MonitorSummary, SimMonitorCell, MONITOR_SCENARIOS,
};
pub use replay_experiments::{
    backend_from_spec, drive_log, replay_experiment, replay_gate, replay_json_from, replay_results,
    DiffCell, ReplayModeCell, ReplaySummary,
};
pub use trace_experiments::{run_trace, TraceRun, TRACE_EXPERIMENTS};

use obs::Registry;

/// What one run of an experiment produced. The report, the BENCH file
/// and the gate verdict are all built from the same run, so the table
/// a reader sees is the data the gate judged.
pub struct Outcome {
    /// The paper-style table `repro` prints.
    pub report: String,
    /// The machine-readable results: file name and payload.
    pub bench: Option<(&'static str, obs::json::Value)>,
    /// The acceptance gate's verdict (`Err` fails `repro`).
    pub gate: Option<Result<String, String>>,
}

impl Outcome {
    /// A figure: a report with no BENCH file and no gate.
    fn figure(report: String) -> Self {
        Outcome { report, bench: None, gate: None }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    pub id: &'static str,
    /// One-line description, listed by `repro` with no arguments.
    pub desc: &'static str,
    pub run: fn(&Registry) -> Outcome,
}

impl Experiment {
    /// Run once, absorbing every metric series it records into `reg`
    /// under an `exp=<id>` label. Each experiment emits at least 20
    /// distinct series (asserted by `tests/metrics.rs`), plus the
    /// harness-level `bench.runs` / `bench.report_bytes` /
    /// `bench.report_lines`.
    pub fn run_observed(&self, reg: &Registry) -> Outcome {
        let local = Registry::new();
        let outcome = (self.run)(&local);
        local.counter("bench.runs").inc();
        local.gauge("bench.report_bytes").set(outcome.report.len() as i64);
        local.gauge("bench.report_lines").set(outcome.report.lines().count() as i64);
        reg.absorb(&local.snapshot(), &[("exp", self.id)]);
        outcome
    }
}

macro_rules! figure {
    ($id:literal, $desc:literal, $report:path) => {
        Experiment { id: $id, desc: $desc, run: |reg| Outcome::figure($report(reg)) }
    };
}

/// Every experiment the harness knows, in `repro all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    figure!(
        "fig2",
        "S3D checkpoint time under weak scaling + 12-hour-run prediction",
        fig2_s3d_report
    ),
    figure!(
        "fig3",
        "CDF of file sizes across eleven surveyed file systems (fsstats)",
        fig3_fsstats_report
    ),
    figure!("fig4", "interrupts linear in chips; MTTI projection to exascale", fig4_mtti_report),
    figure!(
        "fig5",
        "effective application utilization; 50% crossing; disk growth",
        fig5_utilization_report
    ),
    figure!("fig7", "GIGA+ create throughput vs servers (Metarates)", fig7_giga_report),
    figure!(
        "fig8",
        "PLFS vs direct N-1 checkpoint bandwidth on three file systems",
        fig8_plfs_report
    ),
    figure!("fig9", "TCP incast goodput collapse and RTO fixes (1GE and 10GE)", fig9_incast_report),
    figure!(
        "fig10",
        "Argon performance insulation: shares under three policies",
        fig10_argon_report
    ),
    figure!("fig11", "flash vs disk: bandwidth and random IOPS", fig11_flash_report),
    figure!(
        "tab1",
        "Table 1 flash device characteristics (modeled vs published)",
        tab1_flash_table
    ),
    figure!("fig13", "stacked formatted-I/O optimization gains (Chombo & GCRM)", fig13_hdf5_report),
    figure!(
        "fig14",
        "sustained random-write IOPS degradation per flash device",
        fig14_degradation_report
    ),
    figure!("fig15", "Ninjat visualization of an N-1 strided checkpoint", fig15_ninjat_report),
    figure!(
        "speedups",
        "per-application PLFS speedup table (report headline claims)",
        speedup_table_report
    ),
    figure!(
        "faults",
        "degraded-mode bandwidth under OSD crash/restart; PLFS retry masking",
        faults_report
    ),
    figure!("pnfs", "pNFS vs plain NFS aggregate bandwidth scaling", pnfs_report),
    figure!("spyglass", "partitioned metadata search vs full scan", spyglass_report),
    Experiment {
        id: "openscale",
        desc: "read-open index merge scaling: sweep vs splice; flattened-index cache",
        run: openscale_experiment,
    },
    Experiment {
        id: "readscale",
        desc: "restart read-back: parallel coalesced engine vs serial per-piece reads",
        run: readscale_experiment,
    },
    Experiment {
        id: "integrity",
        desc: "end-to-end corruption detection: verify-on-read, bit-flip sweep, scrub",
        run: integrity_experiment,
    },
    Experiment {
        id: "replay",
        desc: "workload capture & replay: 3-mode determinism + differential engine pairs",
        run: replay_experiment,
    },
    Experiment {
        id: "monitorscale",
        desc: "continuous telemetry: flight recorder, SLO burn rates, tail-sampled traces",
        run: monitor_experiment,
    },
    Experiment {
        id: "ingestscale",
        desc: "sharded ingest service: shard scaling, group-commit fan-in, backpressure",
        run: ingest_experiment,
    },
    Experiment {
        id: "dedupscale",
        desc: "content-addressed dedup: repeated-checkpoint ratio, orphan GC, chunked diff",
        run: dedup_experiment,
    },
];

/// Look an experiment up by id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The headline reproduction numbers the repo stands behind, as a JSON
/// object. `tests/golden.rs` pins these against a committed fixture
/// with ±10% tolerance; `repro golden` prints them.
pub fn headline_numbers() -> obs::json::Value {
    use giga::{run_metarates, MetaratesConfig, Scheme};
    use netsim::{run_incast, IncastConfig, RtoPolicy};
    use pfs::sim::Cluster;
    use pfs::ClusterConfig;
    use plfs::simadapter::compare;
    use simkit::units::MIB;
    use workloads::AppProfile;

    // The N-1 vs N-N speedup factor: PLFS converts FLASH-IO's strided
    // N-1 file into N sequential logs (256 ranks, Lustre-like; fig8).
    let flash = AppProfile::by_name("FLASH-IO").unwrap();
    let (_, _, plfs_speedup) = compare(ClusterConfig::lustre_like(16, MIB), &flash.pattern(256));

    // Raw N-N over N-1 on stripe-ALIGNED 1 MiB records (the faults
    // workload, healthy cluster). Alignment rescues direct N-1 (~1.0x),
    // which is itself a paper point: the collapse — and PLFS's win
    // above — comes from small unaligned strided records.
    let [n1_bw, nn_bw] = experiments::aligned_n1_nn()
        .map(|s| Cluster::new(ClusterConfig::lustre_like(8, MIB)).run_phase(&s).write_bandwidth());

    // Incast collapse point: smallest 1 GbE fan-in where legacy-RTO
    // goodput drops below half of the single-sender goodput (fig9).
    let single = run_incast(&IncastConfig::gbe(1, RtoPolicy::legacy_200ms())).goodput_bps;
    let collapse = (2..=64)
        .find(|&n| {
            run_incast(&IncastConfig::gbe(n, RtoPolicy::legacy_200ms())).goodput_bps < 0.5 * single
        })
        .unwrap_or(0);

    // GIGA+ directory partitioning at 32 servers (fig7).
    let mut cfg = MetaratesConfig::new(64, 1000, 32, Scheme::GigaPlus);
    cfg.split_threshold = 256;
    let giga = run_metarates(&cfg);

    obs::json::Value::Obj(vec![
        ("plfs_flashio_speedup".into(), obs::json::Value::Float(plfs_speedup)),
        ("nn_over_n1_aligned".into(), obs::json::Value::Float(nn_bw / n1_bw)),
        ("incast_collapse_senders".into(), obs::json::Value::Int(collapse as i64)),
        ("giga_splits_32srv".into(), obs::json::Value::Int(giga.splits as i64)),
        ("giga_partitions_32srv".into(), obs::json::Value::Int(giga.partitions as i64)),
    ])
}
