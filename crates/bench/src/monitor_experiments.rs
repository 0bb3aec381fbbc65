//! The `monitorscale` experiment: continuous telemetry end to end.
//!
//! Three scenarios exercise the whole `obs` observability stack —
//! flight recorder frames, SLO burn-rate evaluation, and tail-sampled
//! slow-op traces — the way an operator would use it:
//!
//! 1. **sim-clean**: 8 clients drive strided N-1 checkpoint waves at an
//!    8-OSD Lustre-like cluster. A flight [`Recorder`] captures a frame
//!    at every wave boundary; a [`TailSampler`] watches the cluster's
//!    span trees; an [`SloEngine`] with a write-latency budget and an
//!    ingest-bandwidth floor evaluates the frames. A healthy run must
//!    produce **zero** alerts and sample **zero** traces.
//! 2. **sim-degraded**: the same waves with OSD 0 crash-stopped for
//!    four simulated seconds mid-run. The latency objective and the
//!    throughput floor must both fire, every kept exemplar's trace id
//!    must resolve in the Chrome-trace export of the sampled trees, and
//!    the recorder's per-wave frames localize the stall to the dead
//!    OSD's queue-wait series.
//! 3. **flaky**: a live PLFS instance over a transiently failing store.
//!    [`FaultyBackend::bind_obs`] streams injected-fault counters into
//!    the registry the flight recorder samples, so the masked-transient
//!    spike is visible in exactly the frames where faults were injected
//!    (and nowhere else); an error-budget objective on
//!    `retry.masked_transient / retry.attempts` fires. The run ends
//!    with an injected crash-stop whose final frame — the forensic one
//!    a post-mortem would read — carries the surfaced write errors.
//!
//! `repro monitorscale` gates on those claims and exits 1 when one
//! fails; `repro monitor <scenario>` replays any scenario with a
//! per-frame dashboard and writes the JSONL timeline / Prometheus
//! artifacts.

use std::fmt::Write;
use std::sync::Arc;

use crate::Outcome;
use obs::recorder::{counter_delta, hist_delta, Frame, Recorder};
use obs::slo::{
    alerts_to_json, render_alerts, Alert, AlertKind, BurnWindows, Objective, SloEngine,
};
use obs::tail::{ExemplarStore, TailSampler};
use obs::trace::{to_chrome, SpanRecord, TraceSink};
use obs::{json, Clock, Registry};
use pfs::sim::{Cluster, Op};
use pfs::{ClusterConfig, QueueStats};
use plfs::backend::{Backend, MemBackend};
use plfs::{FaultPlan, FaultyBackend, Plfs, PlfsConfig, RetryPolicy};
use simkit::units::{KIB, MIB};
use simkit::SimDuration;

// ------------------------------------------------ scenario parameters

const SIM_CLIENTS: usize = 8;
const SIM_OSDS: usize = 8;
const SIM_WAVES: usize = 12;
const SIM_WRITES_PER_WAVE: usize = 4;
const SIM_RECORD: u64 = 256 * KIB;
/// Declared write-latency objective: ops over this are "slow". Clean
/// op latencies sit in the low tens of milliseconds; ops queued behind
/// the outage take seconds, so the threshold separates them cleanly.
const LAT_THRESHOLD_NS: u64 = 400_000_000;
/// Fraction of ops allowed over the threshold (a "p98" objective).
const LAT_BUDGET: f64 = 0.02;
/// The ingest floor as a fraction of the measured healthy bandwidth.
const FLOOR_FRAC: f64 = 0.2;
/// OSD 0 outage length in the degraded scenario.
const OUTAGE_NS: u64 = 4_000_000_000;
/// Wave at whose start the outage begins.
const CRASH_WAVE: usize = 4;
/// Tail-sampler span budget for kept slow-op trees.
const TAIL_CAP_SPANS: usize = 512;

const FLAKY_ROUNDS: usize = 8;
const FLAKY_WRITES_PER_ROUND: usize = 16;
/// Rounds `[start, end)` that run with transient injection on.
const FLAKY_DEGRADED: (usize, usize) = (3, 5);
/// Injection probability while degraded. `RetryPolicy::fast_test`
/// allows 16 retries, so the chance of any op surfacing is ~0.45^17.
const FLAKY_RATE: f64 = 0.45;
/// Failed writes attempted after the injected crash-stop.
const CRASH_WRITE_ATTEMPTS: usize = 4;
/// Error budget for `retry.masked_transient / retry.attempts`.
const FLAKY_BUDGET: f64 = 0.05;

// ----------------------------------------------------------- results

/// One pfs-sim monitoring scenario (clean or degraded) after SLO
/// evaluation.
#[derive(Debug, Clone)]
pub struct SimMonitorCell {
    pub name: &'static str,
    pub waves: usize,
    pub frames: usize,
    pub span_ns: u64,
    pub bytes_written: u64,
    pub write_ops: u64,
    pub p99_ns: f64,
    pub max_lat_ns: u64,
    pub tail_sampled: u64,
    pub tail_discarded: u64,
    pub kept_spans: usize,
    pub alerts: Vec<Alert>,
    /// Trace ids attached to the fired alerts as exemplars.
    pub exemplar_ids: Vec<u64>,
    /// Span ids present in the Chrome-trace export of the kept trees
    /// (exemplar ids must round-trip into this set).
    pub chrome_ids: Vec<u64>,
    pub timeline: String,
    pub prometheus: String,
    pub dashboard: String,
}

/// The live flaky-store scenario after SLO evaluation.
#[derive(Debug, Clone)]
pub struct FlakyMonitorCell {
    pub rounds: usize,
    pub frames: usize,
    /// Per-frame delta of `faults.injected{kind=transient}` (index 0 is
    /// the baseline frame, then one per round, then the crash frame).
    pub injected_by_frame: Vec<u64>,
    pub masked_transient: u64,
    pub retry_attempts: u64,
    /// `retry.surfaced` before the crash-stop (must be zero: every
    /// injected transient was masked).
    pub surfaced_before_crash: u64,
    /// `plfs.write.errors` delta in the final (post-crash) frame.
    pub crash_frame_write_errors: u64,
    /// `faults.injected{kind=crash}` total at the end.
    pub crash_injected: u64,
    pub alerts: Vec<Alert>,
    pub timeline: String,
    pub dashboard: String,
}

/// Everything `repro monitorscale`, its gate, and `BENCH_monitor.json`
/// share.
#[derive(Debug, Clone)]
pub struct MonitorSummary {
    pub lat_threshold_ns: u64,
    pub lat_budget: f64,
    pub floor_bytes_per_sec: f64,
    pub flaky_budget: f64,
    pub clean: SimMonitorCell,
    pub degraded: SimMonitorCell,
    pub flaky: FlakyMonitorCell,
}

// ------------------------------------------------------ sim scenario

/// Raw artifacts of one sim scenario run, before SLO evaluation (the
/// floor objective is calibrated from the clean run, so evaluation is
/// a separate step).
struct SimRaw {
    frames: Vec<Frame>,
    timeline: String,
    prometheus: String,
    bytes_written: u64,
    write_ops: u64,
    max_lat_ns: u64,
    tail_sampled: u64,
    tail_discarded: u64,
    kept: Vec<SpanRecord>,
    exemplars: ExemplarStore,
}

impl SimRaw {
    fn span_ns(&self) -> u64 {
        match (self.frames.first(), self.frames.last()) {
            (Some(a), Some(b)) => b.t_ns.saturating_sub(a.t_ns),
            _ => 0,
        }
    }
}

fn wave_streams(wave: usize) -> Vec<Vec<Op>> {
    (0..SIM_CLIENTS)
        .map(|r| {
            let mut ops = Vec::with_capacity(SIM_WRITES_PER_WAVE + 1);
            if wave == 0 {
                ops.push(Op::Open(0));
            }
            for i in 0..SIM_WRITES_PER_WAVE {
                let record = ((wave * SIM_WRITES_PER_WAVE + i) * SIM_CLIENTS + r) as u64;
                ops.push(Op::Write { file: 0, offset: record * SIM_RECORD, len: SIM_RECORD });
            }
            ops
        })
        .collect()
}

/// Drive the checkpoint waves, capturing one flight-recorder frame per
/// wave boundary and tail-draining the cluster's trace sink. The obs
/// clock is logical, advanced to simulated time after every wave, so
/// frame timestamps, burn windows, and tail thresholds are all in
/// simulated nanoseconds.
fn sim_run(degraded: bool) -> SimRaw {
    let reg = Registry::new();
    let clock = Clock::logical();
    let sink = TraceSink::bounded(1 << 15);
    // Cadence far in the future: frames are captured explicitly at
    // wave boundaries via `sample_now`.
    let recorder = Recorder::new(&reg, &clock, 1 << 62, SIM_WAVES + 2);
    let exemplars = ExemplarStore::new(4);
    let sampler =
        TailSampler::new(sink.clone(), LAT_THRESHOLD_NS, TAIL_CAP_SPANS, exemplars.clone());

    let mut ccfg = ClusterConfig::lustre_like(SIM_OSDS, MIB);
    ccfg.trace = sink.clone();
    let mut cluster = Cluster::new(ccfg);

    let bytes = reg.counter("pfs.bytes_written");
    let ops_ctr = reg.counter("pfs.write.ops");
    let lat = reg.histogram("pfs.write.lat_ns");

    let mut prev_queue: Vec<QueueStats> = Vec::new();
    let mut bytes_total = 0u64;
    let mut write_ops = 0u64;
    let mut max_lat = 0u64;

    recorder.sample_now(); // baseline frame at t=0

    for wave in 0..SIM_WAVES {
        if degraded && wave == CRASH_WAVE {
            cluster.schedule_crash(0, cluster.now(), SimDuration(OUTAGE_NS));
        }
        let streams = wave_streams(wave);
        let (report, spans) = cluster.run_phase_traced(&streams);
        clock.advance_to(cluster.now().0);

        bytes.add(report.bytes_written);
        bytes_total += report.bytes_written;
        for ops in &spans {
            for (i, s) in ops.iter().enumerate() {
                if wave == 0 && i == 0 {
                    continue; // the Open(0) op, not a write
                }
                let dt = s.end.0.saturating_sub(s.begin.0);
                lat.observe(dt);
                ops_ctr.inc();
                write_ops += 1;
                max_lat = max_lat.max(dt);
            }
        }
        // Per-OSD queue deltas: cumulative server stats minus the
        // previous wave's snapshot, so a stall shows up in the frame
        // covering the wave it happened in, on the OSD it happened at.
        for (i, q) in report.server_queue.iter().enumerate() {
            let d = match prev_queue.get(i) {
                Some(p) => q.since(p),
                None => *q,
            };
            let osd = i.to_string();
            let labels = [("osd", osd.as_str())];
            reg.counter_with("pfs.osd.queue_wait_ns", &labels).add(d.queue_wait.0);
            reg.counter_with("pfs.osd.requests", &labels).add(d.requests);
            reg.counter_with("pfs.osd.downtime_ns", &labels).add(d.downtime.0);
        }
        prev_queue = report.server_queue.clone();

        recorder.sample_now();
        sampler.drain();
    }
    sampler.drain();

    SimRaw {
        frames: recorder.frames(),
        timeline: recorder.to_jsonl(),
        prometheus: recorder.to_prometheus(),
        bytes_written: bytes_total,
        write_ops,
        max_lat_ns: max_lat,
        tail_sampled: sampler.sampled(),
        tail_discarded: sampler.discarded(),
        kept: sampler.kept(),
        exemplars: sampler.exemplars(),
    }
}

/// Healthy aggregate ingest rate, from which the floor objective is
/// derived.
fn sim_rate(raw: &SimRaw) -> f64 {
    raw.bytes_written as f64 / (raw.span_ns().max(1) as f64 / 1e9)
}

/// Burn windows sized from the run itself: fast = span/4, slow =
/// span/2. Offline evaluation sees the whole frame ring, so windows
/// proportional to the observed span work for both the ~0.2 s clean
/// run and the ~4 s degraded one.
fn windows_from(frames: &[Frame], fast_div: u64, slow_div: u64) -> BurnWindows {
    let span = match (frames.first(), frames.last()) {
        (Some(a), Some(b)) => b.t_ns.saturating_sub(a.t_ns).max(1),
        _ => 1,
    };
    BurnWindows::new((span / fast_div).max(1), (span / slow_div).max(1))
}

/// Every span id present in the Chrome-trace export's event args —
/// exemplar trace ids must round-trip into this set.
pub fn chrome_event_ids(doc: &json::Value) -> Vec<u64> {
    let mut ids = Vec::new();
    let json::Value::Obj(fields) = doc else { return ids };
    for (k, v) in fields {
        let (true, json::Value::Arr(events)) = (k == "traceEvents", v) else { continue };
        for e in events {
            let json::Value::Obj(ef) = e else { continue };
            for (ek, ev) in ef {
                let (true, json::Value::Obj(af)) = (ek == "args", ev) else { continue };
                for (ak, av) in af {
                    if let (true, json::Value::Int(i)) = (ak == "id", av) {
                        ids.push(*i as u64);
                    }
                }
            }
        }
    }
    ids
}

fn sim_eval(raw: SimRaw, floor_bytes_per_sec: f64, name: &'static str) -> SimMonitorCell {
    let windows = windows_from(&raw.frames, 4, 2);
    let engine = SloEngine::new()
        .with_exemplars(raw.exemplars.clone())
        .objective(Objective::LatencyBudget {
            name: "checkpoint-write-p99".into(),
            hist: "pfs.write.lat_ns".into(),
            threshold_ns: LAT_THRESHOLD_NS,
            budget: LAT_BUDGET,
            windows,
            exemplar_key: Some("pfs.write".into()),
        })
        .objective(Objective::RateFloor {
            name: "ingest-bandwidth-floor".into(),
            counter: "pfs.bytes_written".into(),
            floor_per_sec: floor_bytes_per_sec,
            windows,
            exemplar_key: Some("pfs.write".into()),
        });
    let alerts = engine.eval(&raw.frames);
    let chrome_ids = chrome_event_ids(&to_chrome(&raw.kept));
    let exemplar_ids = alerts.iter().flat_map(|a| a.exemplars.iter().map(|e| e.trace_id)).collect();
    let p99_ns = raw
        .frames
        .last()
        .and_then(|f| f.hist("pfs.write.lat_ns").map(|h| h.quantile(0.99)))
        .unwrap_or(0.0);
    let dashboard = render_sim_dashboard(&raw.frames);
    SimMonitorCell {
        name,
        waves: SIM_WAVES,
        frames: raw.frames.len(),
        span_ns: raw.span_ns(),
        bytes_written: raw.bytes_written,
        write_ops: raw.write_ops,
        p99_ns,
        max_lat_ns: raw.max_lat_ns,
        tail_sampled: raw.tail_sampled,
        tail_discarded: raw.tail_discarded,
        kept_spans: raw.kept.len(),
        alerts,
        exemplar_ids,
        chrome_ids,
        timeline: raw.timeline,
        prometheus: raw.prometheus,
        dashboard,
    }
}

/// Per-wave dashboard from recorder frames alone (what `repro monitor`
/// prints): windowed ingest rate, op deltas, windowed and cumulative
/// p99, and the dead OSD's accumulating downtime.
pub fn render_sim_dashboard(frames: &[Frame]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>8} {:>9} {:>6} {:>10} {:>10} {:>12}",
        "frame", "t(ms)", "dMiB", "MiB/s", "dops", "p99w(ms)", "p99(ms)", "osd0 down(ms)"
    );
    for i in 1..frames.len() {
        let prev = &frames[i - 1];
        let cur = &frames[i];
        let dt_s = cur.t_ns.saturating_sub(prev.t_ns).max(1) as f64 / 1e9;
        let db = counter_delta(Some(prev), cur, "pfs.bytes_written");
        let dops = counter_delta(Some(prev), cur, "pfs.write.ops");
        let wh = hist_delta(Some(prev), cur, "pfs.write.lat_ns");
        let down = cur.counter_with("pfs.osd.downtime_ns", &[("osd", "0")]).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>5} {:>10.2} {:>8.2} {:>9.1} {:>6} {:>10.2} {:>10.2} {:>12.1}",
            cur.seq,
            cur.t_ns as f64 / 1e6,
            db as f64 / MIB as f64,
            db as f64 / MIB as f64 / dt_s,
            dops,
            wh.quantile(0.99) / 1e6,
            cur.hist("pfs.write.lat_ns").map(|h| h.quantile(0.99)).unwrap_or(0.0) / 1e6,
            down as f64 / 1e6,
        );
    }
    out
}

// ---------------------------------------------------- flaky scenario

fn counter_delta_with(
    prev: Option<&Frame>,
    cur: &Frame,
    name: &str,
    labels: &[(&str, &str)],
) -> u64 {
    let c = cur.counter_with(name, labels).unwrap_or(0);
    let p = prev.and_then(|f| f.counter_with(name, labels)).unwrap_or(0);
    c.saturating_sub(p)
}

/// Per-round dashboard for the live flaky-store run: write deltas next
/// to injected-fault and masked-retry deltas, so the correlation (and
/// the final crash frame's surfaced errors) is visible line by line.
pub fn render_flaky_dashboard(frames: &[Frame]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>7} {:>9} {:>8} {:>7}",
        "frame", "t(ticks)", "dwrites", "dinjected", "dmasked", "derrs"
    );
    for i in 1..frames.len() {
        let prev = &frames[i - 1];
        let cur = &frames[i];
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>7} {:>9} {:>8} {:>7}",
            cur.seq,
            cur.t_ns.saturating_sub(frames[0].t_ns),
            counter_delta(Some(prev), cur, "plfs.write.ops"),
            counter_delta_with(Some(prev), cur, "faults.injected", &[("kind", "transient")]),
            counter_delta(Some(prev), cur, "retry.masked_transient"),
            counter_delta(Some(prev), cur, "plfs.write.errors"),
        );
    }
    out
}

/// The live scenario: PLFS with a wall of telemetry switched on — a
/// flight recorder whose logical clock is the instance clock, live
/// injected-fault counters — over a store that turns hostile for two
/// rounds and finally crash-stops.
fn flaky_run() -> FlakyMonitorCell {
    let reg = Registry::new();
    let flight = Recorder::new(&reg, &Clock::logical(), 1 << 62, FLAKY_ROUNDS + 2);
    let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(11)));
    faulty.bind_obs(&reg);

    let mut cfg = PlfsConfig {
        metrics: reg.clone(),
        flight: flight.clone(),
        retry: RetryPolicy::fast_test(),
        ..Default::default()
    };
    cfg.writer.data_buffer = 0; // one backend append per write

    let fs = Plfs::new(faulty.clone() as Arc<dyn Backend>, cfg);
    let mut w = fs.open_writer("/ckpt", 0).expect("open writer");

    flight.sample_now(); // baseline frame

    let payload = vec![0xA5u8; 4 * KIB as usize];
    let mut offset = 0u64;
    for round in 0..FLAKY_ROUNDS {
        let hostile = round >= FLAKY_DEGRADED.0 && round < FLAKY_DEGRADED.1;
        faulty.set_plan(if hostile {
            FaultPlan { transient_error_rate: FLAKY_RATE, ..FaultPlan::none(11 + round as u64) }
        } else {
            FaultPlan::none(11)
        });
        for _ in 0..FLAKY_WRITES_PER_ROUND {
            w.write_at(offset, &payload).expect("masked write failed");
            offset += payload.len() as u64;
        }
        flight.sample_now();
    }

    // Everything before this point was masked by the retry layer.
    let pre_crash = flight.frames();
    let pre = pre_crash.last().expect("frames");
    let masked_transient = pre.counter("retry.masked_transient").unwrap_or(0);
    let retry_attempts = pre.counter("retry.attempts").unwrap_or(0);
    let surfaced_before_crash = pre.counter("retry.surfaced").unwrap_or(0);

    // Crash-stop: the store freezes, writes surface errors, and the
    // final frame is the black-box record of the failure.
    faulty.set_plan(FaultPlan::none(11));
    faulty.crash_now();
    for _ in 0..CRASH_WRITE_ATTEMPTS {
        let _ = w.write_at(offset, &payload);
        offset += payload.len() as u64;
    }
    flight.sample_now();
    faulty.heal();
    let _ = w.close();

    let frames = flight.frames();
    let injected_by_frame: Vec<u64> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let prev = if i == 0 { None } else { Some(&frames[i - 1]) };
            counter_delta_with(prev, f, "faults.injected", &[("kind", "transient")])
        })
        .collect();
    let crash_frame_write_errors = {
        let n = frames.len();
        counter_delta(Some(&frames[n - 2]), &frames[n - 1], "plfs.write.errors")
    };
    let crash_injected = frames
        .last()
        .and_then(|f| f.counter_with("faults.injected", &[("kind", "crash")]))
        .unwrap_or(0);

    // The error-budget objective is evaluated over the pre-crash
    // frames: the crash is a separate, surfaced failure, not budget
    // burn.
    let windows = windows_from(&pre_crash, 3, 2);
    let engine = SloEngine::new().objective(Objective::ErrorRate {
        name: "masked-transient-budget".into(),
        errors: "retry.masked_transient".into(),
        total: "retry.attempts".into(),
        budget: FLAKY_BUDGET,
        windows,
        exemplar_key: None,
    });
    let alerts = engine.eval(&pre_crash);

    FlakyMonitorCell {
        rounds: FLAKY_ROUNDS,
        frames: frames.len(),
        injected_by_frame,
        masked_transient,
        retry_attempts,
        surfaced_before_crash,
        crash_frame_write_errors,
        crash_injected,
        alerts,
        timeline: flight.to_jsonl(),
        dashboard: render_flaky_dashboard(&frames),
    }
}

// --------------------------------------------------- results + gate

/// The full monitoring grid (`repro monitorscale`, `tests/monitor.rs`,
/// and the gate share it).
pub fn monitorscale_results() -> MonitorSummary {
    let raw_clean = sim_run(false);
    let floor_bytes_per_sec = FLOOR_FRAC * sim_rate(&raw_clean);
    let clean = sim_eval(raw_clean, floor_bytes_per_sec, "sim-clean");
    let degraded = sim_eval(sim_run(true), floor_bytes_per_sec, "sim-degraded");
    let flaky = flaky_run();
    MonitorSummary {
        lat_threshold_ns: LAT_THRESHOLD_NS,
        lat_budget: LAT_BUDGET,
        floor_bytes_per_sec,
        flaky_budget: FLAKY_BUDGET,
        clean,
        degraded,
        flaky,
    }
}

/// Acceptance gate: a healthy run is silent; a degraded run fires the
/// matching objectives with exemplar traces that resolve in the
/// Chrome-trace export; fault injection is visible in exactly the
/// frames it happened in; the crash-stop's last frame carries the
/// surfaced errors.
pub fn monitor_gate(s: &MonitorSummary) -> Result<String, String> {
    if !s.clean.alerts.is_empty() {
        return Err(format!(
            "monitor gate: clean run fired {} alert(s):\n{}",
            s.clean.alerts.len(),
            render_alerts(&s.clean.alerts)
        ));
    }
    if s.clean.kept_spans != 0 {
        return Err(format!(
            "monitor gate: clean run tail-sampled {} spans (threshold too low?)",
            s.clean.kept_spans
        ));
    }
    for cell in [&s.clean, &s.degraded] {
        if cell.frames != cell.waves + 1 {
            return Err(format!(
                "monitor gate: {} captured {} frames for {} waves (+1 baseline)",
                cell.name, cell.frames, cell.waves
            ));
        }
    }
    for kind in [AlertKind::LatencyBudget, AlertKind::ThroughputFloor] {
        if !s.degraded.alerts.iter().any(|a| a.kind == kind) {
            return Err(format!(
                "monitor gate: degraded run did not fire a {} alert",
                kind.as_str()
            ));
        }
    }
    if s.degraded.exemplar_ids.is_empty() {
        return Err("monitor gate: degraded alerts carry no exemplar trace ids".into());
    }
    for id in &s.degraded.exemplar_ids {
        if !s.degraded.chrome_ids.contains(id) {
            return Err(format!(
                "monitor gate: exemplar trace id {id} not present in the Chrome-trace export"
            ));
        }
    }
    if s.degraded.tail_sampled == 0 {
        return Err("monitor gate: degraded run tail-sampled no slow ops".into());
    }

    let (d0, d1) = FLAKY_DEGRADED;
    for (i, &n) in s.flaky.injected_by_frame.iter().enumerate() {
        // Frame 0 is the baseline; frame r+1 covers round r; the last
        // frame covers the crash-stop.
        let round = i.checked_sub(1);
        let hostile = matches!(round, Some(r) if r >= d0 && r < d1 && r < FLAKY_ROUNDS);
        if hostile && n == 0 {
            return Err(format!(
                "monitor gate: hostile round {} left no transient spike in its frame",
                round.unwrap()
            ));
        }
        if !hostile && n != 0 {
            return Err(format!(
                "monitor gate: frame {i} shows {n} injected transients outside hostile rounds"
            ));
        }
    }
    if s.flaky.surfaced_before_crash != 0 {
        return Err(format!(
            "monitor gate: {} retry errors surfaced before the crash",
            s.flaky.surfaced_before_crash
        ));
    }
    if !s.flaky.alerts.iter().any(|a| a.kind == AlertKind::ErrorBudget) {
        return Err("monitor gate: flaky run did not fire the error-budget alert".into());
    }
    if s.flaky.crash_frame_write_errors == 0 {
        return Err("monitor gate: crash frame shows no surfaced write errors".into());
    }
    if s.flaky.crash_injected == 0 {
        return Err("monitor gate: crash-stop not visible in faults.injected{kind=crash}".into());
    }
    Ok(format!(
        "monitor gate: ok (clean silent; degraded fired {} alert(s) with {} exemplar trace(s); \
         flaky spiked in rounds {}..{} and the crash frame carries {} surfaced error(s))",
        s.degraded.alerts.len(),
        s.degraded.exemplar_ids.len(),
        d0,
        d1,
        s.flaky.crash_frame_write_errors
    ))
}

/// The `monitorscale` experiment (its report also emits the metric
/// series the schema tests assert on).
pub fn monitor_experiment(reg: &Registry) -> Outcome {
    let s = monitorscale_results();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Continuous telemetry - flight recorder, SLO burn rates, tail sampling =="
    );
    let _ = writeln!(
        out,
        "objectives: write p99 < {} ms (budget {:.0}%), ingest floor {:.1} MiB/s, \
         masked-transient budget {:.0}%",
        s.lat_threshold_ns / 1_000_000,
        s.lat_budget * 100.0,
        s.floor_bytes_per_sec / MIB as f64,
        s.flaky_budget * 100.0
    );

    let _ = writeln!(
        out,
        "\n{:>13} {:>5} {:>6} {:>8} {:>9} {:>9} {:>8} {:>6} {:>6} {:>9}",
        "scenario",
        "waves",
        "frames",
        "MiB",
        "p99(ms)",
        "max(ms)",
        "sampled",
        "kept",
        "alerts",
        "exemplars"
    );
    for cell in [&s.clean, &s.degraded] {
        let labels = [("scn", cell.name)];
        reg.counter_with("monitor.waves", &labels).add(cell.waves as u64);
        reg.counter_with("monitor.frames", &labels).add(cell.frames as u64);
        reg.counter_with("monitor.bytes", &labels).add(cell.bytes_written);
        reg.counter_with("monitor.ops", &labels).add(cell.write_ops);
        reg.counter_with("monitor.span_ns", &labels).add(cell.span_ns);
        reg.counter_with("monitor.alerts", &labels).add(cell.alerts.len() as u64);
        reg.counter_with("monitor.exemplars", &labels).add(cell.exemplar_ids.len() as u64);
        reg.counter_with("monitor.tail_sampled", &labels).add(cell.tail_sampled);
        reg.counter_with("monitor.tail_kept_spans", &labels).add(cell.kept_spans as u64);
        for a in &cell.alerts {
            reg.counter_with(
                "monitor.alerts_kind",
                &[("scn", cell.name), ("kind", a.kind.as_str())],
            )
            .inc();
        }
        let _ = writeln!(
            out,
            "{:>13} {:>5} {:>6} {:>8.1} {:>9.1} {:>9.1} {:>8} {:>6} {:>6} {:>9}",
            cell.name,
            cell.waves,
            cell.frames,
            cell.bytes_written as f64 / MIB as f64,
            cell.p99_ns / 1e6,
            cell.max_lat_ns as f64 / 1e6,
            cell.tail_sampled,
            cell.kept_spans,
            cell.alerts.len(),
            cell.exemplar_ids.len()
        );
    }
    if !s.degraded.alerts.is_empty() {
        let _ = writeln!(out, "\nalerts (sim-degraded):");
        let _ = write!(out, "{}", render_alerts(&s.degraded.alerts));
    }

    let f = &s.flaky;
    reg.counter_with("monitor.flaky.rounds", &[]).add(f.rounds as u64);
    reg.counter_with("monitor.flaky.frames", &[]).add(f.frames as u64);
    reg.counter_with("monitor.flaky.masked", &[]).add(f.masked_transient);
    reg.counter_with("monitor.flaky.attempts", &[]).add(f.retry_attempts);
    reg.counter_with("monitor.flaky.surfaced", &[]).add(f.surfaced_before_crash);
    reg.counter_with("monitor.flaky.alerts", &[]).add(f.alerts.len() as u64);
    reg.counter_with("monitor.flaky.crash_errors", &[]).add(f.crash_frame_write_errors);
    reg.counter_with("monitor.flaky.spike_frames", &[])
        .add(f.injected_by_frame.iter().filter(|&&n| n > 0).count() as u64);
    let _ = writeln!(
        out,
        "\nflaky store: {} rounds (hostile {}..{}), {} masked transients over {} attempts, \
         {} surfaced pre-crash; crash frame +{} write errors",
        f.rounds,
        FLAKY_DEGRADED.0,
        FLAKY_DEGRADED.1,
        f.masked_transient,
        f.retry_attempts,
        f.surfaced_before_crash,
        f.crash_frame_write_errors
    );
    if !f.alerts.is_empty() {
        let _ = write!(out, "{}", render_alerts(&f.alerts));
    }
    let _ = writeln!(
        out,
        "(per-frame dashboards: `repro monitor <sim-clean|sim-degraded|flaky>`;\n\
         timelines and Prometheus text go to BENCH_monitor.json / --out artifacts)"
    );
    Outcome {
        report: out,
        bench: Some(("BENCH_monitor.json", monitor_json_from(&s))),
        gate: Some(monitor_gate(&s)),
    }
}

/// The `BENCH_monitor.json` payload for an already-computed summary.
pub fn monitor_json_from(s: &MonitorSummary) -> json::Value {
    use json::Value;
    let sim = |c: &SimMonitorCell| {
        Value::Obj(vec![
            ("name".into(), Value::Str(c.name.into())),
            ("waves".into(), Value::Int(c.waves as i64)),
            ("frames".into(), Value::Int(c.frames as i64)),
            ("span_ns".into(), Value::Int(c.span_ns as i64)),
            ("bytes_written".into(), Value::Int(c.bytes_written as i64)),
            ("write_ops".into(), Value::Int(c.write_ops as i64)),
            ("p99_ns".into(), Value::Float(c.p99_ns)),
            ("max_lat_ns".into(), Value::Int(c.max_lat_ns as i64)),
            ("tail_sampled".into(), Value::Int(c.tail_sampled as i64)),
            ("tail_discarded".into(), Value::Int(c.tail_discarded as i64)),
            ("kept_spans".into(), Value::Int(c.kept_spans as i64)),
            ("alerts".into(), alerts_to_json(&c.alerts)),
            (
                "exemplar_trace_ids".into(),
                Value::Arr(c.exemplar_ids.iter().map(|&i| Value::Int(i as i64)).collect()),
            ),
        ])
    };
    let f = &s.flaky;
    Value::Obj(vec![
        ("lat_threshold_ns".into(), Value::Int(s.lat_threshold_ns as i64)),
        ("lat_budget".into(), Value::Float(s.lat_budget)),
        ("floor_bytes_per_sec".into(), Value::Float(s.floor_bytes_per_sec)),
        ("flaky_budget".into(), Value::Float(s.flaky_budget)),
        ("sim_clean".into(), sim(&s.clean)),
        ("sim_degraded".into(), sim(&s.degraded)),
        (
            "flaky".into(),
            Value::Obj(vec![
                ("rounds".into(), Value::Int(f.rounds as i64)),
                ("frames".into(), Value::Int(f.frames as i64)),
                (
                    "injected_by_frame".into(),
                    Value::Arr(f.injected_by_frame.iter().map(|&n| Value::Int(n as i64)).collect()),
                ),
                ("masked_transient".into(), Value::Int(f.masked_transient as i64)),
                ("retry_attempts".into(), Value::Int(f.retry_attempts as i64)),
                ("surfaced_before_crash".into(), Value::Int(f.surfaced_before_crash as i64)),
                ("crash_frame_write_errors".into(), Value::Int(f.crash_frame_write_errors as i64)),
                ("crash_injected".into(), Value::Int(f.crash_injected as i64)),
                ("alerts".into(), alerts_to_json(&f.alerts)),
            ]),
        ),
    ])
}

// ------------------------------------------------------- CLI support

/// Live-monitor scenarios `repro monitor` can drive.
pub const MONITOR_SCENARIOS: &[(&str, &str)] = &[
    ("sim-clean", "healthy 8-OSD checkpoint waves (expect a silent dashboard)"),
    ("sim-degraded", "same waves with a 4 s OSD outage (expect alerts + exemplar traces)"),
    ("flaky", "live PLFS over a transiently failing store, ending in a crash-stop"),
];

/// One `repro monitor` run: the dashboard text, fired alerts, and the
/// timeline/Prometheus artifacts to write.
pub struct MonitorRun {
    pub dashboard: String,
    pub alerts: Vec<Alert>,
    pub timeline: String,
    pub prometheus: Option<String>,
    pub summary: String,
}

/// Drive one monitoring scenario for the CLI.
pub fn run_monitor(scenario: &str) -> Result<MonitorRun, String> {
    match scenario {
        "sim-clean" | "sim-degraded" => {
            let raw_clean = sim_run(false);
            let floor = FLOOR_FRAC * sim_rate(&raw_clean);
            let cell = if scenario == "sim-degraded" {
                sim_eval(sim_run(true), floor, "sim-degraded")
            } else {
                sim_eval(raw_clean, floor, "sim-clean")
            };
            let summary = format!(
                "{}: {} waves, {:.1} MiB in {:.1} ms simulated, p99 {:.1} ms, \
                 {} slow op(s) tail-sampled, {} alert(s)",
                cell.name,
                cell.waves,
                cell.bytes_written as f64 / MIB as f64,
                cell.span_ns as f64 / 1e6,
                cell.p99_ns / 1e6,
                cell.tail_sampled,
                cell.alerts.len()
            );
            Ok(MonitorRun {
                dashboard: cell.dashboard,
                alerts: cell.alerts,
                timeline: cell.timeline,
                prometheus: Some(cell.prometheus),
                summary,
            })
        }
        "flaky" => {
            let cell = flaky_run();
            let summary = format!(
                "flaky: {} rounds, {} masked transients / {} attempts, \
                 crash frame +{} write errors, {} alert(s)",
                cell.rounds,
                cell.masked_transient,
                cell.retry_attempts,
                cell.crash_frame_write_errors,
                cell.alerts.len()
            );
            Ok(MonitorRun {
                dashboard: cell.dashboard,
                alerts: cell.alerts,
                timeline: cell.timeline,
                prometheus: None,
                summary,
            })
        }
        _ => Err(format!(
            "unknown monitor scenario {scenario:?} (want sim-clean | sim-degraded | flaky)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_ids_round_trip_through_export() {
        let spans = vec![SpanRecord {
            id: 42,
            parent: 0,
            name: "pfs.write".into(),
            phase: obs::trace::Phase::Network,
            track: "client.0".into(),
            begin: 0,
            end: 10,
            labels: Vec::new(),
        }];
        let ids = chrome_event_ids(&to_chrome(&spans));
        assert_eq!(ids, vec![42]);
    }

    #[test]
    fn unknown_monitor_scenario_is_an_error() {
        assert!(run_monitor("nope").is_err());
    }
}
