//! The `replay` experiment: workload capture & replay, end to end.
//!
//! Flow: generate a 64-rank strided N-1 checkpoint+restart op log,
//! execute it once through a *recording* PLFS instance (sequential —
//! the reference interleaving), take the recorder's capture, then
//! replay that capture in all three scheduling modes and across
//! differential engine-configuration pairs. The reproduction claims:
//!
//! 1. every mode re-delivers the capture's exact read bytes
//!    (delivered-hash identity) and lays down identical container
//!    contents (content-hash identity);
//! 2. engine configuration — coalescing vs serial oracle, readahead,
//!    verification, hostdir spreading — never changes observable
//!    behaviour (the differential pairs);
//! 3. timing-faithful replay actually paces: its wall clock is bounded
//!    below by the capture's span divided by the speedup.
//!
//! `repro replay` gates on those claims and exits 1 when any of them
//! breaks. The helpers behind `repro replay <log>`
//! and `repro genlog` (file-driving, backend specs) also live here.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use crate::Outcome;
use obs::Registry;
use plfs::backend::{Backend, DirBackend, MemBackend};
use plfs::chunk::ChunkBackend;
use plfs::record::OpLogRecorder;
use plfs::replay::{differential, replay, DiffOutcome, ReplayMode, ReplayOptions, ReplayOutcome};
use plfs::{FaultPlan, FaultyBackend, Plfs, PlfsConfig};
use workloads::gen::{generate, GenConfig, Scenario};
use workloads::oplog::OpLog;
use workloads::sample::{ArrivalDist, SizeDist};

/// One scheduling mode's replay of the capture log.
#[derive(Debug, Clone)]
pub struct ReplayModeCell {
    pub mode: ReplayMode,
    pub ops: u64,
    pub errors: u64,
    pub epochs: u64,
    pub write_bytes: u64,
    pub read_bytes: u64,
    pub mismatches: u64,
    pub delivered_hash: u64,
    pub content_hash: u64,
    pub wall_ns: u64,
}

/// One differential engine-configuration pair.
#[derive(Debug, Clone)]
pub struct DiffCell {
    pub name: &'static str,
    pub delivered_match: bool,
    pub content_match: bool,
    pub invariants_match: bool,
}

impl DiffCell {
    fn from(name: &'static str, d: &DiffOutcome) -> DiffCell {
        DiffCell {
            name,
            delivered_match: d.delivered_match(),
            content_match: d.content_match(),
            invariants_match: d.invariants_match(),
        }
    }

    pub fn identical(&self) -> bool {
        self.delivered_match && self.content_match && self.invariants_match
    }
}

/// Everything `repro replay`, its gate, and `BENCH_replay.json` share.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    pub ranks: u32,
    pub capture_ops: u64,
    pub capture_write_bytes: u64,
    pub capture_read_bytes: u64,
    pub capture_span_ns: u64,
    pub capture_hash: u64,
    pub capture_wall_ns: u64,
    /// Wall-time compression used for the timing-faithful cell.
    pub speedup: f64,
    pub modes: Vec<ReplayModeCell>,
    pub pairs: Vec<DiffCell>,
}

fn mem_fs(cfg: PlfsConfig) -> Plfs {
    Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, cfg)
}

fn cell(mode: ReplayMode, out: &ReplayOutcome) -> ReplayModeCell {
    ReplayModeCell {
        mode,
        ops: out.ops,
        errors: out.errors,
        epochs: out.epochs,
        write_bytes: out.write_bytes,
        read_bytes: out.read_bytes,
        mismatches: out.read_mismatches,
        delivered_hash: out.delivered_hash,
        content_hash: out.content_hash,
        wall_ns: out.wall_ns,
    }
}

/// The capture→replay grid (`repro replay` and `tests/replay.rs`
/// share it). 64 ranks per the acceptance bar; sizes kept moderate so
/// the whole grid (one capture run, three mode replays, three
/// differential pairs = six more replays) stays test-suite fast.
pub fn replay_results() -> ReplaySummary {
    let cfg = GenConfig {
        ranks: 64,
        ops_per_rank: 6,
        size: SizeDist::Uniform { min: 4096, max: 32 * 1024 },
        arrival: ArrivalDist::Immediate,
        seed: 907,
    };
    let gen_log = generate(Scenario::N1Strided, &cfg);

    // Capture: one sequential pass through a recording instance. The
    // recorder's snapshot — real timestamps, real write stamps, real
    // read outcomes — is the log every replay below must reproduce.
    let recorder = Arc::new(OpLogRecorder::new());
    let fs = mem_fs(PlfsConfig { record: Some(recorder.clone()), ..Default::default() });
    let t = Instant::now();
    let base = replay(
        &fs,
        &gen_log,
        &ReplayOptions { mode: ReplayMode::Sequential, ..Default::default() },
    )
    .expect("capture run failed");
    let capture_wall_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(base.errors, 0, "capture run surfaced errors");
    let capture = recorder.snapshot();

    let speedup = 16.0;
    let modes = [ReplayMode::Sequential, ReplayMode::Asap, ReplayMode::TimingFaithful]
        .iter()
        .map(|&mode| {
            let fs = mem_fs(PlfsConfig::default());
            let out = replay(&fs, &capture, &ReplayOptions { mode, speedup, ..Default::default() })
                .expect("mode replay failed");
            cell(mode, &out)
        })
        .collect();

    // Differential pairs: one log, two engine configurations each.
    // Every pair must be observationally identical.
    let mut pairs = Vec::new();
    {
        let a = mem_fs(PlfsConfig::default());
        let b = mem_fs(PlfsConfig::default());
        let d = differential(
            &capture,
            &a,
            &ReplayOptions::default(),
            &b,
            &ReplayOptions { serial_reads: true, ..Default::default() },
        )
        .expect("differential failed");
        pairs.push(DiffCell::from("coalescing-vs-serial-oracle", &d));
    }
    {
        let a = mem_fs(PlfsConfig::default());
        let b = mem_fs(PlfsConfig::default());
        let d = differential(
            &capture,
            &a,
            &ReplayOptions { readahead: Some(0), verify: Some(true), ..Default::default() },
            &b,
            &ReplayOptions::default(),
        )
        .expect("differential failed");
        pairs.push(DiffCell::from("verify+no-readahead-vs-default", &d));
    }
    {
        let a = mem_fs(PlfsConfig { hostdirs: 1, ..Default::default() });
        let b = mem_fs(PlfsConfig { hostdirs: 16, ..Default::default() });
        let d =
            differential(&capture, &a, &ReplayOptions::default(), &b, &ReplayOptions::default())
                .expect("differential failed");
        pairs.push(DiffCell::from("hostdirs-1-vs-16", &d));
    }

    ReplaySummary {
        ranks: cfg.ranks,
        capture_ops: capture.ops.len() as u64,
        capture_write_bytes: capture.write_bytes(),
        capture_read_bytes: capture.read_bytes(),
        capture_span_ns: capture.span_ns(),
        capture_hash: capture.delivered_hash(),
        capture_wall_ns,
        speedup,
        modes,
        pairs,
    }
}

/// Acceptance gate: hash identity in all three modes, zero read
/// mismatches, every differential pair observationally identical, and
/// the timing-faithful cell actually paced.
pub fn replay_gate(s: &ReplaySummary) -> Result<String, String> {
    for m in &s.modes {
        if m.errors != 0 {
            return Err(format!("replay gate: {} surfaced {} errors", m.mode.name(), m.errors));
        }
        if m.mismatches != 0 {
            return Err(format!(
                "replay gate: {} had {} read mismatches vs the capture",
                m.mode.name(),
                m.mismatches
            ));
        }
        if m.delivered_hash != s.capture_hash {
            return Err(format!(
                "replay gate: {} delivered-hash {:016x} != capture {:016x}",
                m.mode.name(),
                m.delivered_hash,
                s.capture_hash
            ));
        }
    }
    if s.modes.windows(2).any(|w| w[0].content_hash != w[1].content_hash) {
        return Err("replay gate: modes disagree on final container contents".into());
    }
    for p in &s.pairs {
        if !p.identical() {
            return Err(format!(
                "replay gate: differential pair {} diverged \
                 (delivered={} content={} invariants={})",
                p.name, p.delivered_match, p.content_match, p.invariants_match
            ));
        }
    }
    if let Some(t) = s.modes.iter().find(|m| m.mode == ReplayMode::TimingFaithful) {
        let floor = (s.capture_span_ns as f64 / s.speedup) as u64;
        // 1 ms grace: sleep granularity near a zero-length span.
        if t.wall_ns + 1_000_000 < floor {
            return Err(format!(
                "replay gate: timing-faithful ran in {} ns, under the paced floor {} ns",
                t.wall_ns, floor
            ));
        }
    }
    Ok(format!(
        "replay gate: ok ({} ops, 3 modes hash-identical to capture, {} differential pairs clean)",
        s.capture_ops,
        s.pairs.len()
    ))
}

/// The `replay` experiment (its report also emits the metric series
/// the schema tests assert on).
pub fn replay_experiment(reg: &Registry) -> Outcome {
    let s = replay_results();
    let mut out = String::new();
    let _ = writeln!(out, "\n== Workload capture & replay - 3-mode determinism ==");
    let _ = writeln!(
        out,
        "capture: {} ranks, {} ops, {} B written, {} B read, span {:.2} ms",
        s.ranks,
        s.capture_ops,
        s.capture_write_bytes,
        s.capture_read_bytes,
        s.capture_span_ns as f64 / 1e6
    );
    reg.counter("replay.capture_ops").add(s.capture_ops);
    reg.counter("replay.capture_write_bytes").add(s.capture_write_bytes);
    reg.counter("replay.capture_read_bytes").add(s.capture_read_bytes);
    reg.counter("replay.capture_span_ns").add(s.capture_span_ns);
    reg.counter("replay.capture_wall_ns").add(s.capture_wall_ns);

    let _ = writeln!(
        out,
        "\n{:>16} {:>7} {:>7} {:>8} {:>11} {:>11} {:>11} {:>6}",
        "mode", "ops", "errors", "epochs", "wr bytes", "rd bytes", "wall (ms)", "hash"
    );
    for m in &s.modes {
        let labels = [("mode", m.mode.name())];
        reg.counter_with("replay.ops", &labels).add(m.ops);
        reg.counter_with("replay.errors", &labels).add(m.errors);
        reg.counter_with("replay.epochs", &labels).add(m.epochs);
        reg.counter_with("replay.write_bytes", &labels).add(m.write_bytes);
        reg.counter_with("replay.read_bytes", &labels).add(m.read_bytes);
        reg.counter_with("replay.mismatches", &labels).add(m.mismatches);
        reg.counter_with("replay.wall_ns", &labels).add(m.wall_ns);
        reg.counter_with("replay.hash_match", &labels)
            .add((m.delivered_hash == s.capture_hash) as u64);
        let _ = writeln!(
            out,
            "{:>16} {:>7} {:>7} {:>8} {:>11} {:>11} {:>11.2} {:>6}",
            m.mode.name(),
            m.ops,
            m.errors,
            m.epochs,
            m.write_bytes,
            m.read_bytes,
            m.wall_ns as f64 / 1e6,
            if m.delivered_hash == s.capture_hash { "same" } else { "DIFF" }
        );
    }

    let _ = writeln!(out, "\nDifferential pairs (one log, two engine configurations):");
    for p in &s.pairs {
        let labels = [("pair", p.name)];
        reg.counter_with("replay.diff_identical", &labels).add(p.identical() as u64);
        let _ = writeln!(
            out,
            "  {:<32} delivered={:<5} content={:<5} invariants={:<5} -> {}",
            p.name,
            p.delivered_match,
            p.content_match,
            p.invariants_match,
            if p.identical() { "identical" } else { "DIVERGED" }
        );
    }
    let _ = writeln!(
        out,
        "(timing-faithful paced at {}x; wall-clock details go to BENCH_replay.json;\n\
         drive your own logs with `repro genlog` + `repro replay <log>`)",
        s.speedup
    );
    Outcome {
        report: out,
        bench: Some(("BENCH_replay.json", replay_json_from(&s))),
        gate: Some(replay_gate(&s)),
    }
}

/// The `BENCH_replay.json` payload for an already-computed summary.
pub fn replay_json_from(s: &ReplaySummary) -> obs::json::Value {
    use obs::json::Value;
    let modes = s
        .modes
        .iter()
        .map(|m| {
            Value::Obj(vec![
                ("mode".into(), Value::Str(m.mode.name().into())),
                ("ops".into(), Value::Int(m.ops as i64)),
                ("errors".into(), Value::Int(m.errors as i64)),
                ("epochs".into(), Value::Int(m.epochs as i64)),
                ("write_bytes".into(), Value::Int(m.write_bytes as i64)),
                ("read_bytes".into(), Value::Int(m.read_bytes as i64)),
                ("mismatches".into(), Value::Int(m.mismatches as i64)),
                ("wall_ns".into(), Value::Int(m.wall_ns as i64)),
                ("delivered_hash".into(), Value::Str(format!("{:016x}", m.delivered_hash))),
                ("content_hash".into(), Value::Str(format!("{:016x}", m.content_hash))),
                ("hash_match".into(), Value::Int((m.delivered_hash == s.capture_hash) as i64)),
            ])
        })
        .collect();
    let pairs = s
        .pairs
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("pair".into(), Value::Str(p.name.into())),
                ("delivered_match".into(), Value::Int(p.delivered_match as i64)),
                ("content_match".into(), Value::Int(p.content_match as i64)),
                ("invariants_match".into(), Value::Int(p.invariants_match as i64)),
                ("identical".into(), Value::Int(p.identical() as i64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("ranks".into(), Value::Int(s.ranks as i64)),
        ("capture_ops".into(), Value::Int(s.capture_ops as i64)),
        ("capture_write_bytes".into(), Value::Int(s.capture_write_bytes as i64)),
        ("capture_read_bytes".into(), Value::Int(s.capture_read_bytes as i64)),
        ("capture_span_ns".into(), Value::Int(s.capture_span_ns as i64)),
        ("capture_wall_ns".into(), Value::Int(s.capture_wall_ns as i64)),
        ("capture_hash".into(), Value::Str(format!("{:016x}", s.capture_hash))),
        ("speedup".into(), Value::Float(s.speedup)),
        ("modes".into(), Value::Arr(modes)),
        ("pairs".into(), Value::Arr(pairs)),
    ])
}

// ------------------------------------------------------- CLI helpers

/// Build a backend from a `repro replay --backend` spec:
/// `mem` | `dir:<path>` | `faulty[:<seed>]` (transient faults + short
/// reads on an in-memory store; the retry layer must mask them) |
/// `chunked[:<spec>]` (the content-addressed dedup layer over any of
/// the former, default `mem`).
pub fn backend_from_spec(spec: &str) -> Result<Arc<dyn Backend>, String> {
    if spec == "mem" {
        return Ok(Arc::new(MemBackend::new()));
    }
    if let Some(path) = spec.strip_prefix("dir:") {
        return DirBackend::new(path)
            .map(|b| Arc::new(b) as Arc<dyn Backend>)
            .map_err(|e| format!("cannot open dir backend at {path}: {e}"));
    }
    if spec == "faulty" || spec.starts_with("faulty:") {
        let seed = match spec.strip_prefix("faulty:") {
            Some(s) => s.parse::<u64>().map_err(|_| format!("bad faulty seed {s:?}"))?,
            None => 42,
        };
        return Ok(Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::flaky(seed))));
    }
    if spec == "chunked" || spec.starts_with("chunked:") {
        let inner = backend_from_spec(spec.strip_prefix("chunked:").unwrap_or("mem"))?;
        return Ok(Arc::new(ChunkBackend::new(inner)));
    }
    Err(format!(
        "unknown backend spec {spec:?} \
         (want mem | dir:<path> | faulty[:<seed>] | chunked[:<spec>])"
    ))
}

/// Drive a parsed op log once and render the outcome (the body of
/// `repro replay <log>`).
pub fn drive_log(
    log: &OpLog,
    backend: Arc<dyn Backend>,
    opts: &ReplayOptions,
) -> Result<(String, OpLog), String> {
    let fs = Plfs::new(backend, PlfsConfig::default());
    let out = replay(&fs, log, opts).map_err(|e| format!("replay failed: {e}"))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "replayed {} ops ({} ranks, {} epochs) in {:.2} ms [{}]",
        out.ops,
        log.ranks,
        out.epochs,
        out.wall_ns as f64 / 1e6,
        opts.mode.name()
    );
    let _ = writeln!(
        text,
        "  wrote {} B, read {} B, {} errors, {} read mismatches vs recorded results",
        out.write_bytes, out.read_bytes, out.errors, out.read_mismatches
    );
    let _ = writeln!(
        text,
        "  delivered-hash {:016x}  content-hash {:016x}",
        out.delivered_hash, out.content_hash
    );
    let recorded = log.delivered_hash();
    if log.ops.iter().any(|o| matches!(o.result, workloads::oplog::OpResult::Read { .. })) {
        let _ = writeln!(
            text,
            "  recorded delivered-hash {:016x} -> {}",
            recorded,
            if recorded == out.delivered_hash { "MATCH" } else { "MISMATCH" }
        );
    }
    Ok((text, out.log))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_parse() {
        assert!(backend_from_spec("mem").is_ok());
        assert!(backend_from_spec("faulty").is_ok());
        assert!(backend_from_spec("faulty:7").is_ok());
        assert!(backend_from_spec("faulty:x").is_err());
        assert!(backend_from_spec("s3://nope").is_err());
        assert!(backend_from_spec("chunked").is_ok());
        assert!(backend_from_spec("chunked:mem").is_ok());
        assert!(backend_from_spec("chunked:faulty:7").is_ok());
        assert!(backend_from_spec("chunked:bogus").is_err());
    }

    #[test]
    fn drive_log_reports_hash_match_against_recorded_results() {
        let cfg = GenConfig { ranks: 2, ops_per_rank: 2, ..Default::default() };
        let log = generate(Scenario::NN, &cfg);
        let (_, replayed) =
            drive_log(&log, Arc::new(MemBackend::new()), &Default::default()).unwrap();
        let (text, _) =
            drive_log(&replayed, Arc::new(MemBackend::new()), &Default::default()).unwrap();
        assert!(text.contains("-> MATCH"), "{text}");
        assert!(!text.contains("MISMATCH"), "{text}");
        assert!(text.contains("0 read mismatches") || text.contains("0 errors"), "{text}");
    }
}
