//! The experiment implementations behind the `repro` harness.
//!
//! Every experiment takes an [`obs::Registry`] and records the numbers
//! it prints as metric series, so tests (and the `repro --metrics`
//! dump) can assert on the *values* rather than scraping stdout. Use
//! [`crate::Experiment::run_observed`] to collect them with an `exp=<id>`
//! label.

use std::fmt::Write;

use crate::Outcome;
use diskmodel::{profiles, BlockDevice, DevOp, DeviceStats};
use miniio::{optimization_ladder, FormattedWorkload};
use obs::Registry;
use pfs::fsstats::{survey_all_sites, Survey};
use pfs::ClusterConfig;
use plfs::simadapter::{compare, PlfsSimOptions};
use reliability::{
    fit_rate_vs_chips, lanl_like_fleet, process_pairs_utilization, CheckpointModel, DiskGrowth,
    ProjectionConfig,
};
use simkit::units::{ascii_bar, fmt_bytes, fmt_ops, fmt_rate, MIB};
use simkit::{Rng, SimDuration};
use workloads::sample::uniform_aligned_offset;
use workloads::{AppProfile, IoShape, Trace, APP_PROFILES};

fn header(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n== {title} ==");
}

/// Record a float as an integer gauge (round to nearest).
fn gauge(reg: &Registry, name: &str, labels: &[(&str, &str)], v: f64) {
    reg.gauge_with(name, labels).set(v.round() as i64);
}

/// Scale a ratio/factor to thousandths so it survives integer storage.
fn milli(x: f64) -> f64 {
    x * 1000.0
}

/// Export one device's [`DeviceStats`] as `dev.*` series.
fn export_device_stats(reg: &Registry, labels: &[(&str, &str)], st: &DeviceStats) {
    let c = |name: &str, v: u64| reg.counter_with(name, labels).add(v);
    c("dev.reads", st.reads);
    c("dev.writes", st.writes);
    c("dev.bytes_read", st.bytes_read);
    c("dev.bytes_written", st.bytes_written);
    c("dev.sequential_hits", st.sequential_hits);
    c("dev.busy_ns", st.busy.0);
    c("dev.seek_ns", st.seek_time.0);
    c("dev.rotate_ns", st.rotate_time.0);
    c("dev.transfer_ns", st.transfer_time.0);
}

// ---------------------------------------------------------------- fig2

/// Fig. 2: S3D checkpoint I/O time under weak scaling, plus the
/// predicted fraction of a 12-hour run spent checkpointing.
pub fn fig2_s3d_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 2 - S3D checkpoint time, c2h4 weak scaling");
    let s3d = AppProfile::by_name("S3D").unwrap();
    let servers = 32;
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>14} {:>16} {:>18}",
        "cores", "ckpt bytes", "ckpt time (s)", "aggregate MB/s", "12h run in IO (%)"
    );
    for &cores in &[64u32, 128, 256, 512, 1024, 2048] {
        let pattern = s3d.pattern(cores);
        let cfg = ClusterConfig::lustre_like(servers, MIB);
        let rep = plfs::simadapter::run_direct(cfg, &pattern);
        let cores_s = cores.to_string();
        let labels = [("cores", cores_s.as_str())];
        rep.export_metrics(reg, &labels, false);
        let t = rep.makespan.as_secs_f64();
        // Prediction: a 12-hour run checkpoints every 30 minutes.
        let ckpts = 12.0 * 2.0;
        let io_frac = (ckpts * t) / (12.0 * 3600.0) * 100.0;
        gauge(reg, "s3d.io_frac_permille", &labels, milli(io_frac / 100.0));
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>14.2} {:>16.1} {:>18.2}",
            cores,
            fmt_bytes(s3d.checkpoint_bytes(cores)),
            t,
            rep.write_bandwidth() / 1e6,
            io_frac
        );
    }
    let _ = writeln!(
        out,
        "(paper: I/O grows from ~1% of runtime at 512 cores toward ~30% at 16k \
         as checkpoint volume outruns fixed storage; same monotone trend above)"
    );
    out
}

// ---------------------------------------------------------------- fig3

/// Fig. 3: CDF of file sizes across eleven surveyed file systems.
pub fn fig3_fsstats_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 3 - CDF of file sizes, eleven non-archival file systems");
    let surveys = survey_all_sites(2006);
    for s in &surveys {
        let labels = [("site", s.name.as_str())];
        gauge(reg, "fsstats.median_bytes", &labels, s.median());
        gauge(
            reg,
            "fsstats.small_count_permille",
            &labels,
            milli(s.count_cdf().at(64.0 * MIB as f64)),
        );
        gauge(
            reg,
            "fsstats.small_bytes_permille",
            &labels,
            milli(s.bytes_cdf_at(64.0 * MIB as f64)),
        );
    }
    let points: Vec<f64> =
        [512.0, 4096.0, 65536.0, 1048576.0, 16777216.0, 268435456.0, 4294967296.0].to_vec();
    let _ = write!(out, "{:<16}", "site");
    for p in &points {
        let _ = write!(out, "{:>10}", fmt_bytes(*p as u64));
    }
    let _ = writeln!(out, "{:>10}", "median");
    for s in &surveys {
        let cdf = s.count_cdf();
        let _ = write!(out, "{:<16}", s.name);
        for p in &points {
            let _ = write!(out, "{:>10.3}", cdf.at(*p));
        }
        let _ = writeln!(out, "{:>10}", fmt_bytes(s.median() as u64));
    }
    // The headline fsstats finding.
    let s0: &Survey = &surveys[0];
    let _ = writeln!(
        out,
        "{}: {:.1}% of files are <= 64 MiB, yet they hold only {:.1}% of the bytes",
        s0.name,
        s0.count_cdf().at(64.0 * MIB as f64) * 100.0,
        s0.bytes_cdf_at(64.0 * MIB as f64) * 100.0
    );
    out
}

// ---------------------------------------------------------------- fig4

/// Fig. 4: interrupts linear in chips (fit over the synthetic fleet)
/// and MTTI projection under three Moore's-law scenarios.
pub fn fig4_mtti_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 4 - failure rate fit and MTTI projection");
    let fit = fit_rate_vs_chips(&lanl_like_fleet(), 6.0, 2006);
    gauge(reg, "reliability.fit.slope_micro", &[], fit.slope * 1e6);
    gauge(reg, "reliability.fit.intercept_milli", &[], milli(fit.intercept));
    gauge(reg, "reliability.fit.r2_permille", &[], milli(fit.r2));
    let _ = writeln!(
        out,
        "fleet fit: interrupts/yr = {:.4} x chips + {:.1}   (r2 = {:.3}; report uses 0.1/chip-yr)",
        fit.slope, fit.intercept, fit.r2
    );
    let _ = writeln!(
        out,
        "\n{:>6} {:>10} | {:>22} {:>22} {:>22}",
        "year", "PFLOPs", "MTTI h (chip 2x/18mo)", "MTTI h (2x/24mo)", "MTTI h (2x/30mo)"
    );
    let p18 = ProjectionConfig::report_baseline(18.0);
    let p24 = ProjectionConfig::report_baseline(24.0);
    let p30 = ProjectionConfig::report_baseline(30.0);
    for y in 0..=10 {
        let year = 2008.0 + y as f64;
        let year_s = (year as i64).to_string();
        for (doubling, p) in [("18mo", &p18), ("24mo", &p24), ("30mo", &p30)] {
            let labels = [("year", year_s.as_str()), ("doubling", doubling)];
            gauge(reg, "reliability.mtti_hours_milli", &labels, milli(p.mtti_hours(year)));
        }
        let _ = writeln!(
            out,
            "{:>6} {:>10.0} | {:>22.2} {:>22.2} {:>22.2}",
            year,
            p24.pflops(year),
            p18.mtti_hours(year),
            p24.mtti_hours(year),
            p30.mtti_hours(year)
        );
    }
    let _ = writeln!(
        out,
        "exascale (~{:.0}): MTTI down to {:.0} minutes in the slow-chip case \
         (paper: 'as little as a few minutes')",
        p30.exascale_year(),
        p30.mtti_hours(p30.exascale_year()) * 60.0
    );
    out
}

// ---------------------------------------------------------------- fig5

/// Fig. 5: effective application utilization and the mitigation menu.
pub fn fig5_utilization_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 5 - effective utilization under checkpoint/restart");
    let model = CheckpointModel::report_baseline();
    let proj = ProjectionConfig::report_baseline(24.0);
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>14} {:>12}",
        "year", "MTTI (h)", "Daly tau (min)", "util (%)"
    );
    for (year, util) in model.utilization_series(&proj, 2018.0) {
        let mtti = proj.mtti_hours(year);
        let tau = model.optimal_interval(mtti * 3600.0) / 60.0;
        let year_s = (year as i64).to_string();
        let labels = [("year", year_s.as_str())];
        gauge(reg, "reliability.util_permille", &labels, milli(util));
        gauge(reg, "reliability.tau_minutes_milli", &labels, milli(tau));
        let _ = writeln!(out, "{:>6} {:>10.2} {:>14.1} {:>12.1}", year, mtti, tau, util * 100.0);
    }
    let crossing = model.crossing_year(&proj, 0.5).unwrap();
    gauge(reg, "reliability.crossing_year", &[], crossing);
    gauge(reg, "reliability.disk_growth_permille", &[], {
        let d = DiskGrowth::report_numbers();
        milli(d.disk_count_growth() - 1.0)
    });
    gauge(
        reg,
        "reliability.compression_permille",
        &[],
        milli(model.required_compression_per_year(&proj) - 1.0),
    );
    gauge(reg, "reliability.process_pairs_permille", &[], milli(process_pairs_utilization(0.02)));
    let _ = writeln!(out, "50% crossing: {crossing} (paper: 'may cross under 50% before 2014')");
    let d = DiskGrowth::report_numbers();
    let _ = writeln!(
        out,
        "balanced-bandwidth disk count growth: {:.0}%/yr (paper: 'about 67% per year')",
        (d.disk_count_growth() - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "compression needed to hold utilization: {:.0}%/yr better each year (paper: 25-50%)",
        (model.required_compression_per_year(&proj) - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "process pairs alternative: flat {:.1}% utilization (of the doubled machine)",
        process_pairs_utilization(0.02) * 100.0
    );
    out
}

// ---------------------------------------------------------------- fig7

/// Fig. 7: GIGA+ Metarates create throughput vs server count.
pub fn fig7_giga_report(reg: &Registry) -> String {
    use giga::{run_metarates, MetaratesConfig, Scheme};
    let mut out = String::new();
    header(&mut out, "Fig. 7 - GIGA+ scale and performance (Metarates)");
    let clients = 64;
    let files = 1000;
    let _ = writeln!(
        out,
        "{:>8} {:>16} {:>16} {:>10} {:>12} {:>12}",
        "servers", "GIGA+ creates/s", "1-server base", "speedup", "addr errors", "partitions"
    );
    for &s in &[1usize, 2, 4, 8, 16, 32] {
        let mut cfg = MetaratesConfig::new(clients, files, s, Scheme::GigaPlus);
        cfg.split_threshold = 256;
        let giga_rep = run_metarates(&cfg);
        let base = run_metarates(&MetaratesConfig::new(clients, files, s, Scheme::SingleServer));
        let s_s = s.to_string();
        let labels = [("servers", s_s.as_str())];
        gauge(reg, "giga.create_rate", &labels, giga_rep.create_rate());
        gauge(reg, "giga.base_rate", &labels, base.create_rate());
        gauge(
            reg,
            "giga.speedup_milli",
            &labels,
            milli(giga_rep.create_rate() / base.create_rate()),
        );
        gauge(reg, "giga.addressing_errors", &labels, giga_rep.addressing_errors as f64);
        gauge(reg, "giga.splits", &labels, giga_rep.splits as f64);
        gauge(reg, "giga.partitions", &labels, giga_rep.partitions as f64);
        let _ = writeln!(
            out,
            "{:>8} {:>16.0} {:>16.0} {:>9.1}x {:>12} {:>12}",
            s,
            giga_rep.create_rate(),
            base.create_rate(),
            giga_rep.create_rate() / base.create_rate(),
            giga_rep.addressing_errors,
            giga_rep.partitions
        );
    }
    let _ = writeln!(out, "(paper: near-linear scaling vs a flat single-MDS baseline)");
    out
}

// ---------------------------------------------------------------- fig8

/// Fig. 8: PLFS vs direct N-1 checkpoint bandwidth on three simulated
/// parallel file systems, plus rank scaling.
pub fn fig8_plfs_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 8 - PLFS checkpoint bandwidth vs direct N-1");
    let flash = AppProfile::by_name("FLASH-IO").unwrap();
    let ranks = 256;
    let pattern = flash.pattern(ranks);
    let opt = PlfsSimOptions::default();
    let _ = writeln!(
        out,
        "FLASH-IO profile, {ranks} ranks, {} per rank:",
        fmt_bytes(flash.bytes_per_rank)
    );
    let _ = writeln!(
        out,
        "{:<14} {:>14} {:>14} {:>9}",
        "file system", "direct MB/s", "PLFS MB/s", "speedup"
    );
    let cases: [(&str, ClusterConfig); 3] = [
        ("PanFS-like", ClusterConfig::panfs_like(16, MIB)),
        ("Lustre-like", ClusterConfig::lustre_like(16, MIB)),
        ("GPFS-like", ClusterConfig::gpfs_like(16, MIB)),
    ];
    for (name, cfg) in cases {
        let (d, p, s) = compare(cfg, &pattern, &opt);
        d.export_metrics(reg, &[("fs", name), ("mode", "direct")], false);
        p.export_metrics(reg, &[("fs", name), ("mode", "plfs")], false);
        gauge(reg, "plfs.sim.speedup_milli", &[("fs", name)], milli(s));
        let _ = writeln!(
            out,
            "{:<14} {:>14.1} {:>14.1} {:>8.1}x",
            name,
            d.write_bandwidth() / 1e6,
            p.write_bandwidth() / 1e6,
            s
        );
    }
    let _ = writeln!(out, "\nLustre-like rank scaling (write bandwidth, MB/s):");
    let _ = writeln!(out, "{:>7} {:>12} {:>12} {:>9}", "ranks", "direct", "PLFS", "speedup");
    for &r in &[16u32, 64, 256, 512] {
        let (d, p, s) = compare(ClusterConfig::lustre_like(16, MIB), &flash.pattern(r), &opt);
        let r_s = r.to_string();
        let labels = [("ranks", r_s.as_str())];
        gauge(reg, "plfs.sim.direct_bps", &labels, d.write_bandwidth());
        gauge(reg, "plfs.sim.plfs_bps", &labels, p.write_bandwidth());
        gauge(reg, "plfs.sim.speedup_milli", &labels, milli(s));
        let _ = writeln!(
            out,
            "{:>7} {:>12.1} {:>12.1} {:>8.1}x",
            r,
            d.write_bandwidth() / 1e6,
            p.write_bandwidth() / 1e6,
            s
        );
    }
    let _ = writeln!(out, "(paper: order-of-magnitude gains for strided N-1, growing with scale)");
    out
}

// ---------------------------------------------------------------- fig9

/// Fig. 9: incast goodput vs fan-in, under the RTO variants.
pub fn fig9_incast_report(reg: &Registry) -> String {
    use netsim::{run_incast, IncastConfig, RtoPolicy};
    let mut out = String::new();
    header(&mut out, "Fig. 9 - incast goodput collapse and the RTO fix");
    let _ = writeln!(out, "1 GbE, 256 KiB SRU, 64-packet port buffer (goodput, Mbps):");
    let _ = writeln!(
        out,
        "{:>9} {:>14} {:>14} {:>10}",
        "senders", "RTOmin=200ms", "RTOmin=1ms", "timeouts"
    );
    for &n in &[1usize, 2, 4, 8, 16, 32, 47] {
        let slow = run_incast(&IncastConfig::gbe(n, RtoPolicy::legacy_200ms()));
        let fast = run_incast(&IncastConfig::gbe(n, RtoPolicy::hires_1ms()));
        let n_s = n.to_string();
        gauge(
            reg,
            "incast.goodput_bps",
            &[("nic", "1ge"), ("rto", "200ms"), ("senders", &n_s)],
            slow.goodput_bps,
        );
        gauge(
            reg,
            "incast.goodput_bps",
            &[("nic", "1ge"), ("rto", "1ms"), ("senders", &n_s)],
            fast.goodput_bps,
        );
        gauge(
            reg,
            "incast.timeouts",
            &[("nic", "1ge"), ("rto", "200ms"), ("senders", &n_s)],
            slow.timeouts as f64,
        );
        let _ = writeln!(
            out,
            "{:>9} {:>14.0} {:>14.0} {:>10}",
            n,
            slow.goodput_bps / 1e6,
            fast.goodput_bps / 1e6,
            slow.timeouts
        );
    }
    let _ = writeln!(out, "\n10 GbE, 64 KiB SRU, 256-packet buffer (goodput, Mbps):");
    let _ = writeln!(out, "{:>9} {:>14} {:>18}", "senders", "RTOmin=1ms", "1ms randomized");
    for &n in &[32usize, 128, 512, 1024, 2048] {
        let fixed = run_incast(&IncastConfig::ten_gbe(n, RtoPolicy::hires_1ms()));
        let rand = run_incast(&IncastConfig::ten_gbe(n, RtoPolicy::hires_1ms_randomized()));
        let n_s = n.to_string();
        gauge(
            reg,
            "incast.goodput_bps",
            &[("nic", "10ge"), ("rto", "1ms"), ("senders", &n_s)],
            fixed.goodput_bps,
        );
        gauge(
            reg,
            "incast.goodput_bps",
            &[("nic", "10ge"), ("rto", "1ms-rand"), ("senders", &n_s)],
            rand.goodput_bps,
        );
        let _ = writeln!(
            out,
            "{:>9} {:>14.0} {:>18.0}",
            n,
            fixed.goodput_bps / 1e6,
            rand.goodput_bps / 1e6
        );
    }
    let _ = writeln!(
        out,
        "(paper: 200 ms RTO crushes goodput beyond ~10 senders; 1 ms restores it;\n\
         randomization needed at kiloserver fan-in)"
    );
    out
}

// --------------------------------------------------------------- fig10

/// Fig. 10: Argon insulation shares.
pub fn fig10_argon_report(reg: &Registry) -> String {
    use argon::{run_insulation, InsulationConfig, Policy};
    let mut out = String::new();
    header(&mut out, "Fig. 10 - performance insulation in shared storage");
    let base = InsulationConfig::default();
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>12} {:>12}",
        "policy", "seq MB/s", "seq share", "rand IOPS", "rand share"
    );
    let rows = [
        ("uninsulated FCFS interleave", Policy::Interleaved, false),
        ("Argon timeslices", Policy::TimeSliced { coordinated: true }, false),
        ("striped, uncoordinated slices", Policy::TimeSliced { coordinated: false }, true),
        ("striped, co-scheduled (Argon)", Policy::TimeSliced { coordinated: true }, true),
    ];
    for (name, policy, striped) in rows {
        let cfg =
            InsulationConfig { striped, servers: if striped { 8 } else { 4 }, ..base.clone() };
        let r = run_insulation(&cfg, policy);
        let labels = [("policy", name)];
        gauge(reg, "argon.seq_bps", &labels, r.seq_bps);
        gauge(reg, "argon.seq_eff_permille", &labels, milli(r.seq_efficiency));
        gauge(reg, "argon.rand_iops", &labels, r.rand_iops);
        gauge(reg, "argon.rand_eff_permille", &labels, milli(r.rand_efficiency));
        gauge(reg, "argon.servers", &labels, cfg.servers as f64);
        let _ = writeln!(
            out,
            "{:<34} {:>12.1} {:>11.0}% {:>12.0} {:>11.0}%",
            name,
            r.seq_bps / 1e6,
            r.seq_efficiency * 100.0,
            r.rand_iops,
            r.rand_efficiency * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(paper: guard band <~10%; uncoordinated slices on striped storage are\n\
         worse than no insulation; co-scheduling delivers ~90% of best case)"
    );
    out
}

// --------------------------------------------------------------- fig11

/// Fig. 11 / §4.2.6: flash vs disk characterization.
pub fn fig11_flash_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 11 - flash vs disk behaviour");
    let mut disk = profiles::reference_sata(256);
    // Sequential disk bandwidth.
    let mut t = SimDuration::ZERO;
    for i in 0..64u64 {
        t += disk.service(DevOp::read(i * MIB, MIB));
    }
    let disk_seq = t.throughput(64 * MIB);
    // Random disk IOPS.
    let cap = disk.capacity();
    let mut t = SimDuration::ZERO;
    let mut pos = 0;
    for _ in 0..500 {
        pos = (pos + cap / 3 + 11 * MIB) % (cap - 4096);
        t += disk.service(DevOp::read(pos, 4096));
    }
    let disk_iops = 500.0 / t.as_secs_f64();
    gauge(reg, "flash.disk_seq_bps", &[], disk_seq);
    gauge(reg, "flash.disk_rand_iops", &[], disk_iops);
    export_device_stats(reg, &[("dev", "ref-sata")], &disk.stats());
    let _ = writeln!(
        out,
        "reference SATA disk: seq {} | random {:.0} IOPS",
        fmt_rate(disk_seq),
        disk_iops
    );

    let x25 = profiles::flash_by_name("x25").unwrap();
    let mut d = x25.device(64 * MIB);
    let mut rng = Rng::new(7);
    let pages = 64 * MIB / 4096;
    let mut tr = SimDuration::ZERO;
    for _ in 0..2000 {
        tr += d.service(DevOp::read(uniform_aligned_offset(&mut rng, pages * 4096, 4096), 4096));
    }
    let read_iops = 2000.0 / tr.as_secs_f64();
    let mut tw = SimDuration::ZERO;
    for _ in 0..2000 {
        tw += d.service(DevOp::write(uniform_aligned_offset(&mut rng, pages * 4096, 4096), 4096));
    }
    let write_iops = 2000.0 / tw.as_secs_f64();
    gauge(reg, "flash.read_iops", &[], read_iops);
    gauge(reg, "flash.write_iops", &[], write_iops);
    gauge(reg, "flash.read_vs_disk_milli", &[], milli(read_iops / disk_iops));
    export_device_stats(reg, &[("dev", "x25")], &d.stats());
    let _ = writeln!(
        out,
        "Intel X25-M flash:   random read {} | random write {} ({}x slower than reads)",
        fmt_ops(read_iops),
        fmt_ops(write_iops),
        (read_iops / write_iops).round()
    );
    let _ = writeln!(
        out,
        "flash random reads vs disk: {:.0}x (paper: 'phenomenally higher')",
        read_iops / disk_iops
    );
    let _ = writeln!(out, "(paper findings 1-5 all hold: see fig14 for the sustained-write cliff)");
    out
}

// ---------------------------------------------------------------- tab1

/// Table 1: modeled device numbers vs published headline numbers.
pub fn tab1_flash_table(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Table 1 - flash device characteristics (modeled vs published)");
    let _ = writeln!(
        out,
        "{:<22} {:<9} {:>9} {:>9} {:>11} {:>11}",
        "device", "conn", "R MB/s", "W MB/s", "R kIOPS", "W kIOPS"
    );
    for h in &profiles::TABLE1 {
        // Measure the model.
        let mut d = h.device(64 * MIB);
        let mut rng = Rng::new(3);
        let pages = 64 * MIB / 4096;
        let n = 1000;
        let mut tr = SimDuration::ZERO;
        for _ in 0..n {
            tr +=
                d.service(DevOp::read(uniform_aligned_offset(&mut rng, pages * 4096, 4096), 4096));
        }
        let r_kiops = n as f64 / tr.as_secs_f64() / 1e3;
        let mut tw = SimDuration::ZERO;
        for _ in 0..n {
            tw +=
                d.service(DevOp::write(uniform_aligned_offset(&mut rng, pages * 4096, 4096), 4096));
        }
        let w_kiops = n as f64 / tw.as_secs_f64() / 1e3;
        let seq_r = {
            let t = d.service(DevOp::read(0, 32 * MIB));
            t.throughput(32 * MIB) / 1e6
        };
        let labels = [("dev", h.name)];
        gauge(reg, "flash.modeled_read_kiops_milli", &labels, milli(r_kiops));
        gauge(reg, "flash.modeled_write_kiops_milli", &labels, milli(w_kiops));
        gauge(reg, "flash.modeled_seq_read_bps", &labels, seq_r * 1e6);
        export_device_stats(reg, &labels, &d.stats());
        let _ = writeln!(
            out,
            "{:<22} {:<9} {:>6.0}/{:<6.0} {:>8.0} {:>7.1}/{:<7.1} {:>7.2}/{:<7.2}",
            h.name,
            h.connection,
            seq_r,
            h.read_mb_s,
            h.write_mb_s,
            r_kiops,
            h.read_kiops,
            w_kiops,
            h.write_kiops
        );
    }
    let _ = writeln!(out, "(each cell: modeled/published; writes measured on a fresh device)");
    out
}

// --------------------------------------------------------------- fig13

/// Fig. 13: the stacked formatted-I/O optimization gains.
pub fn fig13_hdf5_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 13 - cumulative HDF5-style optimization gains");
    for (app, w) in
        [("Chombo", FormattedWorkload::chombo(128)), ("GCRM", FormattedWorkload::gcrm(128))]
    {
        let cfg = ClusterConfig::lustre_like(16, MIB);
        let rows = optimization_ladder(&w, &cfg);
        let base = rows[0].1;
        let _ = writeln!(out, "\n{app} (128 ranks):");
        for (stage, bw) in &rows {
            let labels = [("app", app), ("stage", stage.name())];
            gauge(reg, "miniio.bandwidth_bps", &labels, *bw);
            gauge(reg, "miniio.gain_milli", &labels, milli(bw / base));
            let _ = writeln!(
                out,
                "  {:<38} {:>10.1} MB/s  {:>6.1}x  {}",
                stage.name(),
                bw / 1e6,
                bw / base,
                ascii_bar(bw / base, 40.0, 30)
            );
        }
    }
    let _ = writeln!(out, "(paper: up to 33x cumulative, approaching the file system peak)");
    out
}

// --------------------------------------------------------------- fig14

/// Fig. 14: sustained 4 KiB random-write IOPS over time per device.
pub fn fig14_degradation_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 14 - sustained random-write IOPS degradation");
    let windows = 10;
    let _ = write!(out, "{:<22}", "device");
    for w in 1..=windows {
        let _ = write!(out, "{:>7}", format!("w{w}"));
    }
    let _ = writeln!(out, " {:>11} {:>5}", "fresh", "WA");
    for h in &profiles::TABLE1 {
        let mut d = h.device(32 * MIB);
        let pages = 32 * MIB / 4096;
        let mut rng = Rng::new(11);
        // Fresh-device rate over the first 1000 writes.
        let mut t = SimDuration::ZERO;
        for _ in 0..1000 {
            t +=
                d.service(DevOp::write(uniform_aligned_offset(&mut rng, pages * 4096, 4096), 4096));
        }
        let fresh = 1000.0 / t.as_secs_f64();
        // Then hammer: several full overwrites split into windows.
        let per_window = (pages * 4 / windows as u64).max(1);
        let mut rates = Vec::new();
        for _ in 0..windows {
            let mut t = SimDuration::ZERO;
            for _ in 0..per_window {
                t += d.service(DevOp::write(
                    uniform_aligned_offset(&mut rng, pages * 4096, 4096),
                    4096,
                ));
            }
            rates.push(per_window as f64 / t.as_secs_f64());
        }
        let _ = write!(out, "{:<22}", h.name);
        gauge(reg, "flash.fresh_iops", &[("dev", h.name)], fresh);
        gauge(
            reg,
            "flash.write_amp_milli",
            &[("dev", h.name)],
            milli(d.ftl_stats().write_amplification()),
        );
        for (w, r) in rates.iter().enumerate() {
            let w_s = (w + 1).to_string();
            gauge(
                reg,
                "flash.sustained_permille",
                &[("dev", h.name), ("window", w_s.as_str())],
                milli(r / fresh),
            );
            let _ = write!(out, "{:>7.0}", r / fresh * 100.0);
        }
        let _ =
            writeln!(out, " {:>11} {:>5.1}", fmt_ops(fresh), d.ftl_stats().write_amplification());
    }
    let _ = writeln!(
        out,
        "(cells: % of fresh IOPS per successive window; paper: pre-erased pool\n\
         depletion exposes GC, up to ~10x slower; more spare flash degrades less)"
    );
    out
}

// --------------------------------------------------------------- fig15

/// Fig. 15: Ninjat rendering of an N-1 strided checkpoint.
pub fn fig15_ninjat_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "Fig. 15 - Ninjat view of an N-1 strided checkpoint (rank = symbol)");
    let p = AppProfile::by_name("FLASH-IO").unwrap().pattern(12);
    let trace = Trace::from_pattern("FLASH-IO", &p);
    for rank in 0..trace.ranks {
        let rank_s = rank.to_string();
        let labels = [("rank", rank_s.as_str())];
        let ops = trace.ops.iter().filter(|o| o.rank == rank);
        gauge(reg, "trace.ops", &labels, ops.clone().count() as f64);
        gauge(reg, "trace.bytes", &labels, ops.map(|o| o.len).sum::<u64>() as f64);
    }
    gauge(reg, "trace.total_ops", &[], trace.ops.len() as f64);
    gauge(reg, "trace.interleave_milli", &[], milli(workloads::interleave_factor(&trace)));
    let _ = writeln!(out, "offset ^  (time ->)");
    for row in workloads::render(&trace, 76, 20) {
        let _ = writeln!(out, "| {row}");
    }
    let _ = writeln!(
        out,
        "interleave factor: {:.2} (1.0 = every offset-neighbour pair is a\n\
         different rank - the pathological N-1 strided signature)",
        workloads::interleave_factor(&trace)
    );
    out
}

// ---------------------------------------------------------------- pnfs

/// §2.2 / §5.7: pNFS vs plain NFS aggregate bandwidth.
pub fn pnfs_report(reg: &Registry) -> String {
    use pnfs::{run_access, AccessProtocol, ScalingConfig};
    let mut out = String::new();
    header(&mut out, "pNFS - parallel vs proxied NFS access (report SS2.2)");
    let _ =
        writeln!(out, "{:>9} {:>12} {:>14} {:>9}", "clients", "NFS MB/s", "pNFS MB/s", "speedup");
    for &clients in &[1usize, 4, 16, 64] {
        let cfg = ScalingConfig { clients, ..Default::default() };
        let nfs = run_access(&cfg, AccessProtocol::Nfs);
        let pnfs_r = run_access(&cfg, AccessProtocol::Pnfs);
        let c_s = clients.to_string();
        let labels = [("clients", c_s.as_str())];
        gauge(reg, "pnfs.nfs_bps", &labels, nfs.aggregate_bps);
        gauge(reg, "pnfs.pnfs_bps", &labels, pnfs_r.aggregate_bps);
        gauge(reg, "pnfs.speedup_milli", &labels, milli(pnfs_r.aggregate_bps / nfs.aggregate_bps));
        gauge(reg, "pnfs.layout_grants", &labels, pnfs_r.layout_grants as f64);
        gauge(reg, "pnfs.layout_recalls", &labels, pnfs_r.layout_recalls as f64);
        let _ = writeln!(
            out,
            "{:>9} {:>12.1} {:>14.1} {:>8.1}x",
            clients,
            nfs.aggregate_bps / 1e6,
            pnfs_r.aggregate_bps / 1e6,
            pnfs_r.aggregate_bps / nfs.aggregate_bps
        );
    }
    let _ = writeln!(
        out,
        "(8 data servers; paper: direct parallel access 'eliminates the server\n\
         bottlenecks inherent to NAS access methods')"
    );
    out
}

// ------------------------------------------------------------ spyglass

/// §4.2.2 Content Indexing: partitioned metadata search vs full scan.
pub fn spyglass_report(reg: &Registry) -> String {
    use spyglass::{synthesize_population, Query, SpyglassIndex};
    let mut out = String::new();
    header(&mut out, "Metadata search - partitioned index vs full scan (report SS4.2.2)");
    let idx = SpyglassIndex::build(synthesize_population(200_000, 400, 42), 1024);
    gauge(reg, "spyglass.files", &[], idx.len() as f64);
    gauge(reg, "spyglass.partitions", &[], idx.partition_count() as f64);
    let _ = writeln!(out, "{} files in {} partitions", idx.len(), idx.partition_count());
    let queries: [(&str, Query); 4] = [
        ("owner=5", Query { owner: Some(5), ..Default::default() }),
        ("owner=5 & ext=1", Query { owner: Some(5), ext: Some(1), ..Default::default() }),
        (
            "owner & ext & recent",
            Query {
                owner: Some(5),
                ext: Some(1),
                mtime_max: Some(86_400 * 30),
                ..Default::default()
            },
        ),
        ("size > 1 GiB", Query { size_min: Some(1 << 30), ..Default::default() }),
    ];
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>16} {:>16} {:>9}",
        "query", "hits", "records scanned", "full-scan cost", "speedup"
    );
    for (name, q) in &queries {
        let fast = idx.query(q);
        let slow = idx.full_scan(q);
        assert_eq!(fast.ids, slow.ids);
        let labels = [("query", *name)];
        gauge(reg, "spyglass.hits", &labels, fast.ids.len() as f64);
        gauge(reg, "spyglass.records_scanned", &labels, fast.records_touched as f64);
        gauge(reg, "spyglass.full_scan_cost", &labels, slow.records_touched as f64);
        gauge(
            reg,
            "spyglass.speedup_milli",
            &labels,
            milli(slow.records_touched as f64 / fast.records_touched.max(1) as f64),
        );
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>16} {:>16} {:>8.0}x",
            name,
            fast.ids.len(),
            fast.records_touched,
            slow.records_touched,
            slow.records_touched as f64 / fast.records_touched.max(1) as f64
        );
    }
    let _ = writeln!(out, "(paper: '10-1000 times faster than existing database systems')");
    out
}

// ------------------------------------------------------------ speedups

/// The report's headline per-application PLFS speedup claims.
pub fn speedup_table_report(reg: &Registry) -> String {
    let mut out = String::new();
    header(&mut out, "PLFS per-application speedups (report headline claims)");
    let ranks = 512;
    let opt = PlfsSimOptions::default();
    let _ = writeln!(
        out,
        "{:<10} {:<12} {:>12} {:>12} {:>9}  paper claim",
        "app", "shape", "direct MB/s", "PLFS MB/s", "speedup"
    );
    for app in &APP_PROFILES {
        if app.shape == IoShape::NtoN {
            // Already per-process files: PLFS passes through.
            let _ = writeln!(
                out,
                "{:<10} {:<12} {:>12} {:>12} {:>9}  {}",
                app.name, "N-N", "-", "-", "~1.0x", app.paper_speedup_hint
            );
            continue;
        }
        let shape = match app.shape {
            IoShape::StridedN1 => "N-1 strided",
            IoShape::SegmentedN1 => "N-1 segment",
            IoShape::NtoN => unreachable!(),
        };
        let cfg = ClusterConfig::lustre_like(16, MIB);
        let (d, p, s) = compare(cfg, &app.pattern(ranks), &opt);
        let labels = [("app", app.name)];
        gauge(reg, "plfs.sim.direct_bps", &labels, d.write_bandwidth());
        gauge(reg, "plfs.sim.plfs_bps", &labels, p.write_bandwidth());
        gauge(reg, "plfs.sim.speedup_milli", &labels, milli(s));
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:>12.1} {:>12.1} {:>8.1}x  {}",
            app.name,
            shape,
            d.write_bandwidth() / 1e6,
            p.write_bandwidth() / 1e6,
            s,
            app.paper_speedup_hint
        );
    }
    out
}

// -------------------------------------------------------------- faults

/// One row of the `faults` masking experiment: 64 ranks checkpoint
/// through PLFS over a store that errors transiently with probability
/// `transient` and tears appends with probability `torn`.
///
/// Returns the injected-fault stats, the number of errors surfaced to
/// the application, and a registry holding the full `plfs.*` /
/// `retry.*` / `faults.*` series — the basis of the masking invariant
/// (`retry.masked_transient == faults.injected_transient` and
/// `retry.torn_recovered == faults.injected_torn` whenever
/// `surfaced == 0`), which `tests/metrics.rs` asserts exactly.
pub fn faults_masking_run(transient: f64, torn: f64) -> (plfs::FaultStats, u64, Registry) {
    use plfs::backend::{Backend, MemBackend};
    use plfs::faults::{FaultPlan, FaultyBackend};
    use plfs::retry::RetryPolicy;
    use std::sync::Arc;

    let row_reg = Registry::new();
    let faulty = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FaultPlan {
            transient_error_rate: transient,
            torn_append_rate: torn,
            ..FaultPlan::none(42)
        },
    ));
    let fs = plfs::Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        plfs::PlfsConfig {
            retry: RetryPolicy::fast_test(),
            metrics: row_reg.clone(),
            ..Default::default()
        },
    );
    let mut surfaced = 0u64;
    for rank in 0..64u32 {
        let Ok(mut w) = fs.open_writer("/ckpt", rank) else {
            surfaced += 1;
            continue;
        };
        for i in 0..32u64 {
            let off = (i * 64 + rank as u64) * 47 * 1024;
            if w.write_at(off, &[rank as u8; 47 * 1024]).is_err() {
                surfaced += 1;
            }
        }
        if w.close().is_err() {
            surfaced += 1;
        }
    }
    faulty.export_into(&row_reg);
    (faulty.stats(), surfaced, row_reg)
}

/// Fault injection: checkpoint bandwidth with one OSD crash/restart
/// mid-phase, for both N-1 strided and N-N patterns, plus the PLFS
/// retry layer masking a lossy backing store.
pub fn faults_report(reg: &Registry) -> String {
    use pfs::sim::{Cluster, Op};
    use simkit::SimTime;

    let mut out = String::new();
    header(&mut out, "Degraded-mode checkpointing: one OSD crash/restart mid-phase");

    let servers = 8;
    let clients = 16usize;
    let per_client = 48usize;
    let rec = MIB;
    let n1: Vec<Vec<Op>> = (0..clients)
        .map(|r| {
            let mut ops = vec![Op::Open(0)];
            for i in 0..per_client {
                let record = (i * clients + r) as u64;
                ops.push(Op::Write { file: 0, offset: record * rec, len: rec });
            }
            ops
        })
        .collect();
    let nn: Vec<Vec<Op>> = (0..clients)
        .map(|r| {
            let file = 1 + r as u64;
            let mut ops = vec![Op::Create(file)];
            for i in 0..per_client {
                ops.push(Op::Write { file, offset: i as u64 * rec, len: rec });
            }
            ops
        })
        .collect();

    let down = SimDuration::from_secs(5);
    let _ = writeln!(
        out,
        "Lustre-like, {servers} OSDs, {clients} clients x {per_client} x {} records;",
        fmt_bytes(rec)
    );
    let _ = writeln!(out, "OSD 0 crashes 50 ms into the phase, restarts {down} later.\n");
    let _ = writeln!(
        out,
        "{:<14} {:>14} {:>15} {:>10}",
        "pattern", "healthy MB/s", "degraded MB/s", "slowdown"
    );
    for (name, streams) in [("N-1 strided", &n1), ("N-N", &nn)] {
        let pat = if name == "N-N" { "nn" } else { "n1" };
        let mut healthy = Cluster::new(ClusterConfig::lustre_like(servers, MIB));
        let h = healthy.run_phase(streams);
        let mut faulty = Cluster::new(ClusterConfig::lustre_like(servers, MIB));
        faulty.schedule_crash(0, SimTime::ZERO + SimDuration::from_millis(50), down);
        let d = faulty.run_phase(streams);
        assert_eq!(d.crashes, 1, "crash event must fire");
        assert_eq!(d.bytes_written, h.bytes_written, "outage must not lose acked data");
        h.export_metrics(reg, &[("pattern", pat), ("mode", "healthy")], false);
        d.export_metrics(reg, &[("pattern", pat), ("mode", "degraded")], true);
        gauge(
            reg,
            "pfs.phase.slowdown_milli",
            &[("pattern", pat)],
            milli(h.write_bandwidth() / d.write_bandwidth()),
        );
        let _ = writeln!(
            out,
            "{:<14} {:>14.1} {:>15.1} {:>9.1}x",
            name,
            h.write_bandwidth() / 1e6,
            d.write_bandwidth() / 1e6,
            h.write_bandwidth() / d.write_bandwidth()
        );
    }

    // Middleware-level fault masking: the PLFS write path over a
    // backing store that fails transiently / tears appends.
    let _ = writeln!(out, "\nPLFS retry layer over a lossy store (64 ranks x 32 x 47 KiB):");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>12} {:>10}",
        "p(EIO)", "p(torn)", "injected", "torn", "surfaced"
    );
    for (transient, torn) in [(0.0, 0.0), (0.02, 0.01), (0.10, 0.05)] {
        let (st, surfaced, row_reg) = faults_masking_run(transient, torn);
        let t_s = format!("{transient}");
        let torn_s = format!("{torn}");
        reg.absorb(&row_reg.snapshot(), &[("p_eio", &t_s), ("p_torn", &torn_s)]);
        let _ = writeln!(
            out,
            "{:>10.2} {:>10.2} {:>12} {:>12} {:>10}",
            transient, torn, st.injected_transient, st.injected_torn, surfaced
        );
    }
    let _ =
        writeln!(out, "(acked writes survive OSD restarts; bounded retry masks transient faults)");
    out
}

// ---------------------------------------------------------------- openscale

/// One read-open merge scaling cell: a worst-case interleaved N-1
/// index of `ranks * per_rank` entries merged by the O(n log n) sweep,
/// with the splice baseline's cost simulated on the same input (see
/// `plfs::index::splice_merge_cost`). Costs are logical merge steps —
/// deterministic and machine-independent; `merge_wall_ns` is the only
/// wall-clock number and goes to `BENCH_openscale.json`, not the report.
pub struct OpenScaleCell {
    pub ranks: usize,
    pub per_rank: usize,
    pub entries: usize,
    pub sweep_steps: u64,
    pub splice_steps: u64,
    pub extents: usize,
    pub merge_wall_ns: u64,
}

/// The workload the original PLFS paper calls out as pathological for
/// read-open: every rank writes strided records interleaved with every
/// other rank's, so sorted-by-time insertion lands each entry in the
/// middle of the growing extent list. A ~6% sprinkle of overwrites
/// (seeded, deterministic) keeps the overlap-resolution path honest.
fn openscale_entries(ranks: usize, per_rank: usize) -> Vec<plfs::IndexEntry> {
    const REC: u64 = 47 * 1024;
    let mut rng = Rng::new(0x6f70656e7363 ^ (ranks * per_rank) as u64);
    let mut out = Vec::with_capacity(ranks * per_rank);
    for r in 0..ranks {
        for i in 0..per_rank {
            let record = (i * ranks + r) as u64;
            let logical =
                if record > 0 && rng.below(16) == 0 { (record - 1) * REC } else { record * REC };
            out.push(plfs::IndexEntry {
                logical_offset: logical,
                length: REC,
                physical_offset: i as u64 * REC,
                writer: r as u32,
                timestamp: (r * per_rank + i) as u64,
            });
        }
    }
    out
}

/// Merge one cell's workload both ways and collect the costs.
pub fn openscale_cell(ranks: usize, per_rank: usize) -> OpenScaleCell {
    let entries = openscale_entries(ranks, per_rank);
    let n = entries.len();
    let splice_steps = plfs::index::splice_merge_cost(&entries);
    let t0 = std::time::Instant::now();
    let map = plfs::IndexMap::build(entries);
    let merge_wall_ns = t0.elapsed().as_nanos() as u64;
    OpenScaleCell {
        ranks,
        per_rank,
        entries: n,
        sweep_steps: map.merge_steps(),
        splice_steps,
        extents: map.extents().len(),
        merge_wall_ns,
    }
}

/// The sweep grid (`repro openscale` and `tests/openscale.rs` share it).
pub fn openscale_results() -> Vec<OpenScaleCell> {
    [(4usize, 1000usize), (16, 1000), (64, 1000), (64, 10_000)]
        .iter()
        .map(|&(r, p)| openscale_cell(r, p))
        .collect()
}

/// End-to-end open latency through the real stack: cold open (fetch +
/// decode + merge every dropping) vs warm open (flattened-index cache).
pub struct OpenScaleE2e {
    pub ranks: u32,
    pub writes_per_rank: u64,
    pub cold_ns: u64,
    pub warm_ns: u64,
    pub cold_raw_entries: usize,
    pub warm_raw_entries: usize,
    pub cold_merge_steps: u64,
    pub warm_merge_steps: u64,
    pub merged_extents: usize,
}

pub fn openscale_e2e() -> OpenScaleE2e {
    use plfs::backend::{Backend, MemBackend};
    use std::sync::Arc;

    let ranks = 16u32;
    let writes_per_rank = 64u64;
    let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
    let fs = plfs::Plfs::new(backend.clone(), plfs::PlfsConfig::default());
    let rec = 4096u64;
    let mut writers: Vec<_> = (0..ranks).map(|r| fs.open_writer("/ckpt", r).unwrap()).collect();
    for i in 0..writes_per_rank {
        for (r, w) in writers.iter_mut().enumerate() {
            let record = i * ranks as u64 + r as u64;
            w.write_at(record * rec, &[r as u8; 4096]).unwrap();
        }
    }
    for w in writers {
        w.close().unwrap();
    }

    // Cold and warm opens on fresh Plfs instances so each gets its own
    // registry and nothing is cached in memory between them.
    let open = |_| {
        let reg = Registry::new();
        let fs = plfs::Plfs::new(
            backend.clone(),
            plfs::PlfsConfig { metrics: reg.clone(), ..Default::default() },
        );
        let t0 = std::time::Instant::now();
        let r = fs.open_reader("/ckpt").unwrap();
        (t0.elapsed().as_nanos() as u64, r.stats())
    };
    let (cold_ns, cold) = open(());
    let (warm_ns, warm) = open(());
    assert!(warm.from_canonical, "second open must hit the flattened-index cache");
    OpenScaleE2e {
        ranks,
        writes_per_rank,
        cold_ns,
        warm_ns,
        cold_raw_entries: cold.raw_entries,
        warm_raw_entries: warm.raw_entries,
        cold_merge_steps: cold.merge_steps,
        warm_merge_steps: warm.merge_steps,
        merged_extents: warm.merged_extents,
    }
}

/// The `openscale` experiment: merge-cost scaling table plus the
/// cold/warm open comparison. Every printed number is deterministic;
/// wall-clock latencies go only to `BENCH_openscale.json`. There is no
/// gate: `tests/openscale.rs` holds the acceptance bars.
pub fn openscale_experiment(reg: &Registry) -> Outcome {
    let cells = openscale_results();
    let e = openscale_e2e();
    let mut out = String::new();
    header(&mut out, "Read-open index merge: O(n log n) sweep vs splice baseline");
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>9} {:>13} {:>14} {:>9}",
        "ranks", "ents/rank", "entries", "sweep steps", "splice steps", "speedup"
    );
    for c in &cells {
        let r_s = c.ranks.to_string();
        let p_s = c.per_rank.to_string();
        let labels = [("ranks", r_s.as_str()), ("per_rank", p_s.as_str())];
        reg.counter_with("openscale.entries", &labels).add(c.entries as u64);
        reg.counter_with("openscale.sweep_steps", &labels).add(c.sweep_steps);
        reg.counter_with("openscale.splice_steps", &labels).add(c.splice_steps);
        reg.counter_with("openscale.extents", &labels).add(c.extents as u64);
        let speedup = c.splice_steps as f64 / c.sweep_steps as f64;
        gauge(reg, "openscale.speedup_milli", &labels, milli(speedup));
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>9} {:>13} {:>14} {:>8.1}x",
            c.ranks, c.per_rank, c.entries, c.sweep_steps, c.splice_steps, speedup
        );
    }
    let _ = writeln!(
        out,
        "\nEnd-to-end open, {} ranks x {} writes (in-memory store):",
        e.ranks, e.writes_per_rank
    );
    let _ = writeln!(
        out,
        "  cold open: {} raw entries decoded, {} merge steps",
        e.cold_raw_entries, e.cold_merge_steps
    );
    let _ = writeln!(
        out,
        "  warm open: {} raw entries decoded, {} merge steps (flattened-index cache)",
        e.warm_raw_entries, e.warm_merge_steps
    );
    reg.counter("openscale.cold_raw_entries").add(e.cold_raw_entries as u64);
    reg.counter("openscale.warm_raw_entries").add(e.warm_raw_entries as u64);
    reg.counter("openscale.cold_merge_steps").add(e.cold_merge_steps);
    reg.counter("openscale.warm_merge_steps").add(e.warm_merge_steps);
    reg.counter("openscale.merged_extents").add(e.merged_extents as u64);
    let _ = writeln!(
        out,
        "(steps are logical merge cost, machine-independent; wall-clock open\n\
         latencies are exported to BENCH_openscale.json by `repro openscale`)"
    );
    let bench = Some(("BENCH_openscale.json", openscale_json_from(&cells, &e)));
    Outcome { report: out, bench, gate: None }
}

/// The `BENCH_openscale.json` payload: the scaling grid plus the
/// end-to-end cold/warm open numbers, wall-clock included.
pub fn openscale_json_from(cells: &[OpenScaleCell], e: &OpenScaleE2e) -> obs::json::Value {
    use obs::json::Value;
    let cells = cells
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("ranks".into(), Value::Int(c.ranks as i64)),
                ("per_rank".into(), Value::Int(c.per_rank as i64)),
                ("entries".into(), Value::Int(c.entries as i64)),
                ("sweep_steps".into(), Value::Int(c.sweep_steps as i64)),
                ("splice_steps".into(), Value::Int(c.splice_steps as i64)),
                ("speedup".into(), Value::Float(c.splice_steps as f64 / c.sweep_steps as f64)),
                ("extents".into(), Value::Int(c.extents as i64)),
                ("merge_wall_ns".into(), Value::Int(c.merge_wall_ns as i64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("cells".into(), Value::Arr(cells)),
        (
            "e2e".into(),
            Value::Obj(vec![
                ("ranks".into(), Value::Int(e.ranks as i64)),
                ("writes_per_rank".into(), Value::Int(e.writes_per_rank as i64)),
                ("cold_open_ns".into(), Value::Int(e.cold_ns as i64)),
                ("warm_open_ns".into(), Value::Int(e.warm_ns as i64)),
                ("cold_raw_entries".into(), Value::Int(e.cold_raw_entries as i64)),
                ("warm_raw_entries".into(), Value::Int(e.warm_raw_entries as i64)),
                ("cold_merge_steps".into(), Value::Int(e.cold_merge_steps as i64)),
                ("warm_merge_steps".into(), Value::Int(e.warm_merge_steps as i64)),
                ("merged_extents".into(), Value::Int(e.merged_extents as i64)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------- readscale

/// One restart read-back scaling cell: an N-1 strided checkpoint of
/// `ranks * per_rank` 64-byte records written through the real stack
/// into an in-memory store, then read back three ways — the serial
/// per-piece oracle, a cold pass of the coalescing engine (fresh
/// reader, empty dropping cache), and a warm pass (same reader, handle
/// cache armed). Backend-op counts come from the fault wrapper's op
/// counter — logical and deterministic; `*_wall_ns` are the only
/// wall-clock numbers and go to `BENCH_readscale.json`, not the report.
pub struct ReadScaleCell {
    pub ranks: usize,
    pub per_rank: usize,
    pub entries: usize,
    pub bytes: u64,
    pub serial_ops: u64,
    pub cold_ops: u64,
    pub warm_ops: u64,
    pub batches: u64,
    pub coalesced_bytes: u64,
    pub serial_wall_ns: u64,
    pub cold_wall_ns: u64,
    pub warm_wall_ns: u64,
    /// Engine output byte-identical to the serial oracle's.
    pub identical: bool,
}

/// Write + read back one cell through the real PLFS stack.
pub fn readscale_cell(ranks: usize, per_rank: usize) -> ReadScaleCell {
    use plfs::backend::Backend;
    use plfs::faults::{FaultPlan, FaultyBackend};
    use plfs::MemBackend;
    use std::sync::Arc;
    use std::time::Instant;

    const REC: u64 = 64;
    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(0x7265616473630a)));
    let backend = faulty.clone() as Arc<dyn Backend>;
    let fs = plfs::Plfs::new(backend.clone(), plfs::PlfsConfig::default());
    let mut writers: Vec<_> =
        (0..ranks as u32).map(|r| fs.open_writer("/ckpt", r).unwrap()).collect();
    for i in 0..per_rank as u64 {
        for (r, w) in writers.iter_mut().enumerate() {
            let record = i * ranks as u64 + r as u64;
            w.write_at(record * REC, &[(record % 251) as u8; REC as usize]).unwrap();
        }
    }
    for w in writers {
        w.close().unwrap();
    }
    let total = (ranks * per_rank) as u64 * REC;

    let open = || {
        let reg = Registry::new();
        let fs = plfs::Plfs::new(
            backend.clone(),
            plfs::PlfsConfig { metrics: reg.clone(), ..Default::default() },
        );
        (fs.open_reader("/ckpt").unwrap(), reg)
    };

    // Serial per-piece oracle: one backend read per extent. Wall time
    // is min-of-3 — the box running CI shares cores, and the minimum is
    // the standard noise-robust estimator for CPU-bound passes.
    // Verification is disabled on the oracle so its op count stays
    // exactly per-extent (the first verify of each block re-reads it,
    // skewing the 10x-scaling shape); the verify overhead is measured
    // by the `integrity` experiment, not here.
    const PASSES: u32 = 3;
    let (mut serial_reader, _) = open();
    serial_reader.set_verify(false);
    let mut oracle = vec![0u8; total as usize];
    let ops0 = faulty.stats().ops;
    let mut serial_wall_ns = u64::MAX;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        serial_reader.read_at_serial(0, &mut oracle).unwrap();
        serial_wall_ns = serial_wall_ns.min(t0.elapsed().as_nanos() as u64);
    }
    let serial_ops = (faulty.stats().ops - ops0) / PASSES as u64;

    // Cold engine pass: fresh reader, empty per-dropping cache.
    let (engine_reader, reg) = open();
    let mut out = vec![0u8; total as usize];
    let ops1 = faulty.stats().ops;
    let t1 = Instant::now();
    engine_reader.read_at(0, &mut out).unwrap();
    let cold_wall_ns = t1.elapsed().as_nanos() as u64;
    let cold_ops = faulty.stats().ops - ops1;
    let batches = reg.value("plfs.read.batches").unwrap_or(0);
    let coalesced_bytes = reg.value("plfs.read.coalesced_bytes").unwrap_or(0);
    let identical = out == oracle;

    // Warm passes: same reader — dropping handles resolved, cache armed.
    let mut warm = vec![0u8; total as usize];
    let ops2 = faulty.stats().ops;
    let mut warm_wall_ns = u64::MAX;
    for _ in 0..PASSES {
        let t2 = Instant::now();
        engine_reader.read_at(0, &mut warm).unwrap();
        warm_wall_ns = warm_wall_ns.min(t2.elapsed().as_nanos() as u64);
    }
    let warm_ops = (faulty.stats().ops - ops2) / PASSES as u64;

    ReadScaleCell {
        ranks,
        per_rank,
        entries: ranks * per_rank,
        bytes: total,
        serial_ops,
        cold_ops,
        warm_ops,
        batches,
        coalesced_bytes,
        serial_wall_ns,
        cold_wall_ns,
        warm_wall_ns,
        identical: identical && warm == oracle,
    }
}

/// The read-back grid (`repro readscale` and `tests/readscale.rs`
/// share it).
pub fn readscale_results() -> Vec<ReadScaleCell> {
    [(4usize, 1000usize), (16, 1000), (64, 1000), (64, 10_000)]
        .iter()
        .map(|&(r, p)| readscale_cell(r, p))
        .collect()
}

/// Acceptance gate over a grid: engine output byte-identical to the
/// oracle everywhere, a ≥ 4x logical backend-op reduction on the
/// largest cell, and (the only wall-clock criterion — CI runs this in
/// release) warm engine bandwidth no worse than the serial baseline.
pub fn readscale_gate(cells: &[ReadScaleCell]) -> Result<String, String> {
    for c in cells {
        if !c.identical {
            return Err(format!(
                "readscale gate: engine output diverged from the serial oracle at \
                 {} ranks x {} entries",
                c.ranks, c.per_rank
            ));
        }
    }
    let big = cells.iter().max_by_key(|c| c.entries).ok_or("readscale gate: empty grid")?;
    if big.cold_ops * 4 > big.serial_ops {
        return Err(format!(
            "readscale gate: coalescing reduced backend ops only {:.1}x \
             ({} -> {}) at {} ranks x {} entries; need >= 4x",
            big.serial_ops as f64 / big.cold_ops.max(1) as f64,
            big.serial_ops,
            big.cold_ops,
            big.ranks,
            big.per_rank
        ));
    }
    if big.warm_wall_ns > big.serial_wall_ns {
        return Err(format!(
            "readscale gate: warm engine read slower than the serial baseline \
             ({} ns vs {} ns) at {} ranks x {} entries",
            big.warm_wall_ns, big.serial_wall_ns, big.ranks, big.per_rank
        ));
    }
    Ok(format!(
        "readscale gate: ok ({:.1}x op reduction, warm {:.2}x serial wall)",
        big.serial_ops as f64 / big.cold_ops.max(1) as f64,
        big.serial_wall_ns as f64 / big.warm_wall_ns.max(1) as f64
    ))
}

/// The `readscale` experiment: coalescing/fan-out scaling table for the
/// restart read-back, plus the simulated cluster-level restart. Every
/// printed number is deterministic; wall-clock latencies go only to
/// `BENCH_readscale.json`.
pub fn readscale_experiment(reg: &Registry) -> Outcome {
    use plfs::simadapter::compare_restart;
    use plfs::strided_n1_pattern;

    let cells = readscale_results();
    let mut out = String::new();
    header(&mut out, "Restart read-back: parallel coalesced engine vs serial per-piece");
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>11} {:>12} {:>12} {:>10} {:>9} {:>6}",
        "ranks", "ents/rank", "bytes", "serial ops", "engine ops", "reduction", "batches", "same"
    );
    for c in &cells {
        let r_s = c.ranks.to_string();
        let p_s = c.per_rank.to_string();
        let labels = [("ranks", r_s.as_str()), ("per_rank", p_s.as_str())];
        reg.counter_with("readscale.bytes", &labels).add(c.bytes);
        reg.counter_with("readscale.serial_ops", &labels).add(c.serial_ops);
        reg.counter_with("readscale.engine_ops", &labels).add(c.cold_ops);
        reg.counter_with("readscale.warm_ops", &labels).add(c.warm_ops);
        reg.counter_with("readscale.batches", &labels).add(c.batches);
        reg.counter_with("readscale.coalesced_bytes", &labels).add(c.coalesced_bytes);
        reg.counter_with("readscale.identical", &labels).add(c.identical as u64);
        let reduction = c.serial_ops as f64 / c.cold_ops.max(1) as f64;
        gauge(reg, "readscale.reduction_milli", &labels, milli(reduction));
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>11} {:>12} {:>12} {:>9.1}x {:>9} {:>6}",
            c.ranks,
            c.per_rank,
            fmt_bytes(c.bytes),
            c.serial_ops,
            c.cold_ops,
            reduction,
            c.batches,
            if c.identical { "yes" } else { "NO" }
        );
    }

    // Cluster-level restart: what the coalesced sweep buys once disks
    // and striping are in the picture (the same simulator the write-side
    // speedup table uses, replayed in read mode).
    let _ = writeln!(out, "\nSimulated cluster restart (8 servers, 47 KiB records):");
    let _ = writeln!(
        out,
        "{:>6} {:>17} {:>17} {:>9}",
        "ranks", "direct (MB/s)", "coalesced (MB/s)", "speedup"
    );
    for &ranks in &[32u32, 128] {
        let pattern = strided_n1_pattern(ranks, 64, 47 * 1024);
        let cfg = ClusterConfig::lustre_like(8, MIB);
        let (direct, plfs_rep, speedup) =
            compare_restart(cfg, &pattern, &PlfsSimOptions::default());
        let ranks_s = ranks.to_string();
        let labels = [("ranks", ranks_s.as_str()), ("mode", "restart")];
        gauge(reg, "readscale.sim_direct_read_bw", &labels, direct.read_bandwidth());
        gauge(reg, "readscale.sim_plfs_read_bw", &labels, plfs_rep.read_bandwidth());
        gauge(reg, "readscale.sim_speedup_milli", &labels, milli(speedup));
        let _ = writeln!(
            out,
            "{:>6} {:>17.1} {:>17.1} {:>8.2}x",
            ranks,
            direct.read_bandwidth() / 1e6,
            plfs_rep.read_bandwidth() / 1e6,
            speedup
        );
    }
    let _ = writeln!(
        out,
        "(ops are logical backend reads, machine-independent; wall-clock\n\
         bandwidths are exported to BENCH_readscale.json by `repro readscale`)"
    );
    Outcome {
        report: out,
        bench: Some(("BENCH_readscale.json", readscale_json_from(&cells))),
        gate: Some(readscale_gate(&cells)),
    }
}

/// The `BENCH_readscale.json` payload for an already-computed grid.
pub fn readscale_json_from(cells: &[ReadScaleCell]) -> obs::json::Value {
    use obs::json::Value;
    let cells = cells
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("ranks".into(), Value::Int(c.ranks as i64)),
                ("per_rank".into(), Value::Int(c.per_rank as i64)),
                ("entries".into(), Value::Int(c.entries as i64)),
                ("bytes".into(), Value::Int(c.bytes as i64)),
                ("serial_ops".into(), Value::Int(c.serial_ops as i64)),
                ("cold_ops".into(), Value::Int(c.cold_ops as i64)),
                ("warm_ops".into(), Value::Int(c.warm_ops as i64)),
                ("batches".into(), Value::Int(c.batches as i64)),
                ("coalesced_bytes".into(), Value::Int(c.coalesced_bytes as i64)),
                (
                    "op_reduction".into(),
                    Value::Float(c.serial_ops as f64 / c.cold_ops.max(1) as f64),
                ),
                ("serial_wall_ns".into(), Value::Int(c.serial_wall_ns as i64)),
                ("cold_wall_ns".into(), Value::Int(c.cold_wall_ns as i64)),
                ("warm_wall_ns".into(), Value::Int(c.warm_wall_ns as i64)),
                ("identical".into(), Value::Int(c.identical as i64)),
            ])
        })
        .collect();
    Value::Obj(vec![("cells".into(), Value::Arr(cells))])
}

// ---------------------------------------------------------------- integrity

/// One verify-overhead cell: the readscale checkpoint shape read back
/// through the engine twice — once with verification off (the PR-5
/// engine's behavior) and once with per-block CRC verification on —
/// with first-read and warm wall-clocks for each. Only the warm
/// numbers are gated: verify-once memoization and the verified read
/// cache mean steady-state restart reads should pay (almost) nothing
/// for integrity.
pub struct IntegrityCell {
    pub ranks: usize,
    pub per_rank: usize,
    pub bytes: u64,
    /// First full read, verification off / on (the `on` pass hashes
    /// every covered block exactly once).
    pub first_off_ns: u64,
    pub first_on_ns: u64,
    /// Warm re-reads (min-of-N, passes interleaved off, on, off, on…),
    /// verification off / on.
    pub warm_off_ns: u64,
    pub warm_on_ns: u64,
    /// Blocks / bytes the first verified read hashed.
    pub verify_blocks: u64,
    pub verify_bytes: u64,
    /// Growth of `plfs.verify.blocks` over the warm verified passes:
    /// the exact, machine-independent half of the overhead gate (warm
    /// reads must re-hash nothing).
    pub warm_verify_blocks: u64,
    /// Verified output byte-identical to the unverified read.
    pub identical: bool,
}

/// Everything `repro integrity` measures: the overhead grid, the
/// bit-flip detection sweep, and scrub throughput.
pub struct IntegritySummary {
    pub cells: Vec<IntegrityCell>,
    /// Bit flips injected by the sweep, one per covered byte.
    pub injected: u64,
    /// Flips the scrub walk reported (findings or a corrupt canonical).
    pub detected: u64,
    /// Findings or verify failures on the *clean* container.
    pub false_positives: u64,
    /// Data-dropping flips additionally checked through verify-on-read,
    /// and how many of those fail-stopped with a typed integrity error.
    pub read_sampled: u64,
    pub read_caught: u64,
    pub scrub_blocks: u64,
    pub scrub_bytes: u64,
    pub scrub_wall_ns: u64,
}

/// Write the readscale checkpoint shape and read it back with
/// verification off, then on.
pub fn integrity_cell(ranks: usize, per_rank: usize) -> IntegrityCell {
    use plfs::backend::Backend;
    use plfs::MemBackend;
    use std::sync::Arc;
    use std::time::Instant;

    const REC: u64 = 64;
    const PASSES: u32 = 3;
    let backend = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
    let fs = plfs::Plfs::new(backend.clone(), plfs::PlfsConfig::default());
    let mut writers: Vec<_> =
        (0..ranks as u32).map(|r| fs.open_writer("/ckpt", r).unwrap()).collect();
    for i in 0..per_rank as u64 {
        for (r, w) in writers.iter_mut().enumerate() {
            let record = i * ranks as u64 + r as u64;
            w.write_at(record * REC, &[(record % 251) as u8; REC as usize]).unwrap();
        }
    }
    for w in writers {
        w.close().unwrap();
    }
    let total = (ranks * per_rank) as u64 * REC;

    let open = |reg: &Registry| {
        let fs = plfs::Plfs::new(
            backend.clone(),
            plfs::PlfsConfig { metrics: reg.clone(), ..Default::default() },
        );
        fs.open_reader("/ckpt").unwrap()
    };

    let timed = |reader: &plfs::Reader, buf: &mut [u8]| {
        let t = Instant::now();
        reader.read_at(0, buf).unwrap();
        t.elapsed().as_nanos() as u64
    };

    // Verification off: the PR-5 engine, as readscale measures it.
    let mut off_reader = open(&Registry::new());
    off_reader.set_verify(false);
    let mut plain = vec![0u8; total as usize];
    let first_off_ns = timed(&off_reader, &mut plain);

    // Verification on (the default): the first pass CRCs every covered
    // block; warm passes ride the verified cache and the verify-once
    // bitmap.
    let on_reg = Registry::new();
    let on_reader = open(&on_reg);
    let mut checked = vec![0u8; total as usize];
    let first_on_ns = timed(&on_reader, &mut checked);
    let verify_blocks = on_reg.value("plfs.verify.blocks").unwrap_or(0);
    let verify_bytes = on_reg.value("plfs.verify.bytes").unwrap_or(0);

    // Warm passes alternate off, on, off, on…, so neither side always
    // runs first.
    let (mut warm_off_ns, mut warm_on_ns) = (u64::MAX, u64::MAX);
    for _ in 0..PASSES {
        warm_off_ns = warm_off_ns.min(timed(&off_reader, &mut plain));
        warm_on_ns = warm_on_ns.min(timed(&on_reader, &mut checked));
    }
    let warm_verify_blocks = on_reg.value("plfs.verify.blocks").unwrap_or(0) - verify_blocks;

    IntegrityCell {
        ranks,
        per_rank,
        bytes: total,
        first_off_ns,
        first_on_ns,
        warm_off_ns,
        warm_on_ns,
        verify_blocks,
        verify_bytes,
        warm_verify_blocks,
        identical: plain == checked,
    }
}

/// The full integrity run: overhead grid, detection sweep, scrub
/// throughput. Shared by `repro integrity`, the report, and the gate.
pub fn integrity_results() -> IntegritySummary {
    use plfs::backend::Backend;
    use plfs::faults::{FaultPlan, FaultyBackend};
    use plfs::{fsck, ContainerPaths, MemBackend};
    use std::sync::Arc;
    use std::time::Instant;

    const SEED: u64 = 0x696e746567;
    let cells: Vec<IntegrityCell> = [(4usize, 1000usize), (16, 1000), (64, 1000)]
        .iter()
        .map(|&(r, p)| integrity_cell(r, p))
        .collect();

    // Detection sweep: a small multi-writer container, one seeded bit
    // flip injected at every covered byte in turn, a scrub per flip.
    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(SEED)));
    let fs = plfs::Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        plfs::PlfsConfig { hostdirs: 2, ..Default::default() },
    );
    const RANKS: u32 = 3;
    const REC: u64 = 500;
    for r in 0..RANKS {
        let mut w = fs.open_writer("/f", r).unwrap();
        for j in 0..3u64 {
            let off = (j * RANKS as u64 + r as u64) * REC;
            let buf: Vec<u8> =
                (0..REC).map(|i| (((off + i) * 7 + r as u64) % 251 + 1) as u8).collect();
            w.write_at(off, &buf).unwrap();
        }
        w.close().unwrap();
    }
    // Clean read-open persists the canonical index and is the
    // zero-false-positive baseline.
    let clean_reg = Registry::new();
    let clean_fs = plfs::Plfs::new(
        faulty.clone() as Arc<dyn Backend>,
        plfs::PlfsConfig { hostdirs: 2, metrics: clean_reg.clone(), ..Default::default() },
    );
    clean_fs.open_reader("/f").unwrap().read_all().unwrap();
    let clean = fsck::scrub(faulty.as_ref(), "/f", 2).unwrap();
    let false_positives = clean.findings.len() as u64
        + clean.canonical_corrupt as u64
        + clean_reg.value("plfs.verify.failures").unwrap_or(0);

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
    let (mut injected, mut detected) = (0u64, 0u64);
    let (mut read_sampled, mut read_caught) = (0u64, 0u64);
    for path in &targets {
        let len = faulty.len(path).unwrap();
        let is_data = path.contains("/data.");
        let is_sidecar = path.contains("/chk.") || path.contains("/chki.");
        for off in 0..len {
            // Flips inside a sidecar's block-size field can leave the
            // coverage geometry equivalent (nothing observable changed);
            // tests/properties.rs proves those harmless byte-for-byte,
            // so the rate here stays an exact 100%-or-fail number.
            if is_sidecar && (9..13).contains(&off) {
                continue;
            }
            injected += 1;
            faulty.set_plan(FaultPlan {
                corrupt_byte_at: Some((path.clone(), off, 1u8 << (off % 8))),
                ..FaultPlan::none(SEED)
            });
            let report = fsck::scrub(faulty.as_ref(), "/f", 2).unwrap();
            detected += (!report.is_clean()) as u64;
            if is_data && off % 37 == 0 {
                // Spot-check the online detector too: a fail-stop read
                // over the same flip must surface a typed error.
                read_sampled += 1;
                let res = fs.open_reader("/f").unwrap().read_all();
                read_caught += matches!(&res, Err(e) if plfs::is_integrity(e)) as u64;
            }
        }
    }
    faulty.set_plan(FaultPlan::none(SEED));

    // Scrub throughput on a real checkpoint (the largest grid cell's
    // shape): full-container checksum walk on the bounded worker pool.
    let sb = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
    let sfs = plfs::Plfs::new(sb.clone(), plfs::PlfsConfig::default());
    let mut writers: Vec<_> = (0..64u32).map(|r| sfs.open_writer("/big", r).unwrap()).collect();
    for i in 0..1000u64 {
        for (r, w) in writers.iter_mut().enumerate() {
            let record = i * 64 + r as u64;
            w.write_at(record * 64, &[(record % 251) as u8; 64]).unwrap();
        }
    }
    for w in writers {
        w.close().unwrap();
    }
    let mut scrub_wall_ns = u64::MAX;
    let mut scrub_report = None;
    for _ in 0..3 {
        let t = Instant::now();
        let rep = fsck::scrub(sb.as_ref(), "/big", 32).unwrap();
        scrub_wall_ns = scrub_wall_ns.min(t.elapsed().as_nanos() as u64);
        scrub_report = Some(rep);
    }
    let rep = scrub_report.unwrap();

    IntegritySummary {
        cells,
        injected,
        detected,
        false_positives,
        read_sampled,
        read_caught,
        scrub_blocks: rep.checked_blocks,
        scrub_bytes: rep.checked_bytes,
        scrub_wall_ns,
    }
}

/// Acceptance gate: 100% of injected flips detected, zero false
/// positives, every spot-checked read fail-stopped, verified output
/// byte-identical, warm verified passes hashing no block, and (the
/// only wall-clock criterion — CI runs this in release) warm verified
/// reads within 10% of unverified ones on the largest cell, plus half
/// a millisecond of absolute slack so microsecond-scale cells cannot
/// fail on scheduler noise.
pub fn integrity_gate(s: &IntegritySummary) -> Result<String, String> {
    if s.injected == 0 {
        return Err("integrity gate: sweep injected nothing — vacuous".into());
    }
    if s.detected != s.injected {
        return Err(format!(
            "integrity gate: detected only {}/{} injected bit flips",
            s.detected, s.injected
        ));
    }
    if s.false_positives != 0 {
        return Err(format!(
            "integrity gate: {} false positives on a clean container",
            s.false_positives
        ));
    }
    if s.read_caught != s.read_sampled {
        return Err(format!(
            "integrity gate: verify-on-read caught only {}/{} sampled data flips",
            s.read_caught, s.read_sampled
        ));
    }
    for c in &s.cells {
        if !c.identical {
            return Err(format!(
                "integrity gate: verified read diverged from unverified at \
                 {} ranks x {} entries",
                c.ranks, c.per_rank
            ));
        }
        if c.warm_verify_blocks != 0 {
            return Err(format!(
                "integrity gate: warm verified passes re-hashed {} blocks at \
                 {} ranks x {} entries",
                c.warm_verify_blocks, c.ranks, c.per_rank
            ));
        }
    }
    let big = s.cells.iter().max_by_key(|c| c.bytes).ok_or("integrity gate: empty grid")?;
    let budget = big.warm_off_ns + big.warm_off_ns / 10 + 500_000;
    if big.warm_on_ns > budget {
        return Err(format!(
            "integrity gate: warm verified read {} ns vs budget {} ns \
             (unverified {} ns) at {} ranks x {} entries",
            big.warm_on_ns, budget, big.warm_off_ns, big.ranks, big.per_rank
        ));
    }
    Ok(format!(
        "integrity gate: ok ({}/{} flips detected, 0 false positives, \
         warm verify overhead {:+.1}%, scrub {:.0} MB/s)",
        s.detected,
        s.injected,
        (big.warm_on_ns as f64 / big.warm_off_ns.max(1) as f64 - 1.0) * 100.0,
        s.scrub_bytes as f64 / 1e6 / (s.scrub_wall_ns.max(1) as f64 / 1e9)
    ))
}

/// The `integrity` experiment: end-to-end corruption detection.
pub fn integrity_experiment(reg: &Registry) -> Outcome {
    let s = integrity_results();
    let mut out = String::new();
    header(&mut out, "End-to-end integrity: verify-on-read, bit-flip sweep, scrub");
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>11} {:>9} {:>11} {:>10} {:>10} {:>6}",
        "ranks", "ents/rank", "bytes", "vblocks", "vbytes", "first ovh", "warm ovh", "same"
    );
    for c in &s.cells {
        let r_s = c.ranks.to_string();
        let p_s = c.per_rank.to_string();
        let labels = [("ranks", r_s.as_str()), ("per_rank", p_s.as_str())];
        reg.counter_with("integrity.bytes", &labels).add(c.bytes);
        reg.counter_with("integrity.verify_blocks", &labels).add(c.verify_blocks);
        reg.counter_with("integrity.verify_bytes", &labels).add(c.verify_bytes);
        reg.counter_with("integrity.identical", &labels).add(c.identical as u64);
        let first_ovh = c.first_on_ns as f64 / c.first_off_ns.max(1) as f64 - 1.0;
        let warm_ovh = c.warm_on_ns as f64 / c.warm_off_ns.max(1) as f64 - 1.0;
        gauge(reg, "integrity.first_overhead_milli", &labels, milli(first_ovh));
        gauge(reg, "integrity.warm_overhead_milli", &labels, milli(warm_ovh));
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>11} {:>9} {:>11} {:>9.1}% {:>9.1}% {:>6}",
            c.ranks,
            c.per_rank,
            fmt_bytes(c.bytes),
            c.verify_blocks,
            fmt_bytes(c.verify_bytes),
            first_ovh * 100.0,
            warm_ovh * 100.0,
            if c.identical { "yes" } else { "NO" }
        );
    }
    reg.counter("integrity.injected").add(s.injected);
    reg.counter("integrity.detected").add(s.detected);
    reg.counter("integrity.false_positives").add(s.false_positives);
    reg.counter("integrity.read_sampled").add(s.read_sampled);
    reg.counter("integrity.read_caught").add(s.read_caught);
    reg.counter("integrity.scrub_blocks").add(s.scrub_blocks);
    reg.counter("integrity.scrub_bytes").add(s.scrub_bytes);
    gauge(
        reg,
        "integrity.detection_rate_milli",
        &[],
        milli(s.detected as f64 / s.injected.max(1) as f64),
    );
    let _ = writeln!(
        out,
        "\nBit-flip sweep: {}/{} detected by scrub, {} false positives on clean;\n\
         verify-on-read spot checks: {}/{} fail-stopped.\n\
         Scrub: {} blocks / {} walked on the worker pool.\n\
         (overheads are wall-clock and machine-dependent; the gated numbers\n\
         go to BENCH_integrity.json via `repro integrity`)",
        s.detected,
        s.injected,
        s.false_positives,
        s.read_caught,
        s.read_sampled,
        s.scrub_blocks,
        fmt_bytes(s.scrub_bytes),
    );
    Outcome {
        report: out,
        bench: Some(("BENCH_integrity.json", integrity_json_from(&s))),
        gate: Some(integrity_gate(&s)),
    }
}

/// The `BENCH_integrity.json` payload for an already-computed run.
pub fn integrity_json_from(s: &IntegritySummary) -> obs::json::Value {
    use obs::json::Value;
    let cells = s
        .cells
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("ranks".into(), Value::Int(c.ranks as i64)),
                ("per_rank".into(), Value::Int(c.per_rank as i64)),
                ("bytes".into(), Value::Int(c.bytes as i64)),
                ("first_off_ns".into(), Value::Int(c.first_off_ns as i64)),
                ("first_on_ns".into(), Value::Int(c.first_on_ns as i64)),
                ("warm_off_ns".into(), Value::Int(c.warm_off_ns as i64)),
                ("warm_on_ns".into(), Value::Int(c.warm_on_ns as i64)),
                (
                    "warm_overhead".into(),
                    Value::Float(c.warm_on_ns as f64 / c.warm_off_ns.max(1) as f64 - 1.0),
                ),
                ("verify_blocks".into(), Value::Int(c.verify_blocks as i64)),
                ("verify_bytes".into(), Value::Int(c.verify_bytes as i64)),
                ("warm_verify_blocks".into(), Value::Int(c.warm_verify_blocks as i64)),
                ("identical".into(), Value::Int(c.identical as i64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("cells".into(), Value::Arr(cells)),
        (
            "detection".into(),
            Value::Obj(vec![
                ("injected".into(), Value::Int(s.injected as i64)),
                ("detected".into(), Value::Int(s.detected as i64)),
                ("false_positives".into(), Value::Int(s.false_positives as i64)),
                ("read_sampled".into(), Value::Int(s.read_sampled as i64)),
                ("read_caught".into(), Value::Int(s.read_caught as i64)),
            ]),
        ),
        (
            "scrub".into(),
            Value::Obj(vec![
                ("blocks".into(), Value::Int(s.scrub_blocks as i64)),
                ("bytes".into(), Value::Int(s.scrub_bytes as i64)),
                ("wall_ns".into(), Value::Int(s.scrub_wall_ns as i64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_id_is_none() {
        assert!(crate::experiment("fig99").is_none());
    }
}
