//! Guard: the flight-recorder probes on the PLFS hot paths must be
//! effectively free when the recorder is disabled (the default
//! everywhere), and a live 100 ms-cadence recorder must stay under a
//! pinned budget.
//!
//! As with `trace_overhead.rs`, there is no probe-free build to A/B
//! against, so the guard is synthetic but honest: run a real
//! checkpoint-write + restart-read workload, measure the per-probe
//! cost of `Recorder::maybe_sample` directly (loop overhead
//! subtracted), charge it for every hot-path probe the workload
//! executes, and demand the total stays under 5% of the workload's
//! wall time (50% in debug builds, where nothing is inlined).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use obs::recorder::Recorder;
use obs::{Clock, Registry};
use plfs::backend::{Backend, MemBackend};
use plfs::{Plfs, PlfsConfig};

const RANKS: u32 = 8;
const WRITES_PER_RANK: u64 = 128;
const RECORD: usize = 16 * 1024;

/// One checkpoint write (strided N-1) and one full read-back through a
/// PLFS instance with the given flight recorder attached.
fn workload(flight: Recorder) -> std::time::Duration {
    let cfg = PlfsConfig { flight, ..Default::default() };
    let fs = Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, cfg);
    let buf = vec![0x5Au8; RECORD];
    let t0 = Instant::now();
    for r in 0..RANKS {
        let mut w = fs.open_writer("/ckpt", r).unwrap();
        for i in 0..WRITES_PER_RANK {
            let record = i * RANKS as u64 + r as u64;
            w.write_at(record * RECORD as u64, &buf).unwrap();
        }
        w.close().unwrap();
    }
    let reader = fs.open_reader("/ckpt").unwrap();
    black_box(reader.read_all().unwrap().len());
    t0.elapsed()
}

/// The write path probes once per `write_at`, the read path once per
/// chunked `read_at`; two probes per write plus a generous read
/// allowance over-covers the real census.
fn probe_census() -> u64 {
    2 * RANKS as u64 * WRITES_PER_RANK + 256
}

fn per_call_cost(f: impl Fn(u64)) -> f64 {
    let iters: u64 = 2_000_000;
    let t = Instant::now();
    for i in 0..iters {
        black_box(i);
    }
    let baseline = t.elapsed();
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().saturating_sub(baseline).as_secs_f64() / iters as f64
}

fn limit() -> f64 {
    if cfg!(debug_assertions) {
        0.50
    } else {
        0.05
    }
}

#[test]
fn disabled_flight_recorder_costs_under_five_percent_of_workload() {
    // Untraced workload wall time, best of three runs.
    let mut wall = std::time::Duration::MAX;
    for _ in 0..3 {
        wall = wall.min(workload(Recorder::disabled()));
    }

    let off = Recorder::disabled();
    let per_probe = per_call_cost(|_| {
        let r = black_box(&off);
        black_box(r.maybe_sample());
    });
    let total = per_probe * probe_census() as f64;
    let budget = limit() * wall.as_secs_f64();
    assert!(
        total < budget,
        "disabled flight probes would add {:.3} ms over {} probes, \
         budget is {:.3} ms ({:.0}% of {:.3} ms workload)",
        total * 1e3,
        probe_census(),
        budget * 1e3,
        limit() * 100.0,
        wall.as_secs_f64() * 1e3
    );
}

#[test]
fn hundred_ms_cadence_recorder_stays_under_budget() {
    let mut wall = std::time::Duration::MAX;
    for _ in 0..3 {
        wall = wall.min(workload(Recorder::disabled()));
    }

    // Not-due probe cost on an *enabled* recorder: a clock read plus a
    // deadline compare (cadence pushed out so the branch never takes).
    let reg = Registry::new();
    reg.counter("plfs.write.ops").add(1);
    let clock = Clock::wall();
    let armed = Recorder::new(&reg, &clock, 1 << 62, 8);
    let per_probe = per_call_cost(|_| {
        let r = black_box(&armed);
        black_box(r.maybe_sample());
    });

    // Cost of actually capturing a frame of a realistically-sized
    // registry (every PLFS series the instrumented run would carry).
    let populated = Registry::new();
    {
        let cfg = PlfsConfig { metrics: populated.clone(), ..Default::default() };
        let fs = Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, cfg);
        let mut w = fs.open_writer("/x", 0).unwrap();
        w.write_at(0, b"warm").unwrap();
        w.close().unwrap();
    }
    let sampler = Recorder::new(&populated, &clock, 1, 8);
    let samples: u64 = 512;
    let t = Instant::now();
    for _ in 0..samples {
        black_box(sampler.sample_now());
    }
    let per_sample = t.elapsed().as_secs_f64() / samples as f64;

    // A 100 ms cadence over this workload: every hot-path probe pays
    // the not-due check, plus one full frame capture per elapsed
    // 100 ms window.
    let frames = (wall.as_secs_f64() / 0.1).ceil() + 1.0;
    let total = per_probe * probe_census() as f64 + per_sample * frames;
    let budget = limit() * wall.as_secs_f64();
    assert!(
        total < budget,
        "100 ms-cadence recorder would add {:.3} ms ({} probes at {:.1} ns, \
         {frames} frames at {:.1} us), budget is {:.3} ms ({:.0}% of {:.3} ms workload)",
        total * 1e3,
        probe_census(),
        per_probe * 1e9,
        per_sample * 1e6,
        budget * 1e3,
        limit() * 100.0,
        wall.as_secs_f64() * 1e3
    );
}

#[test]
fn live_recorder_captures_frames_from_the_hot_path() {
    // Integration smoke: with a real (wall-clock, short-cadence)
    // recorder wired through PlfsConfig, the write/read-path probes
    // alone must produce frames — no explicit sample_now anywhere.
    let reg = Registry::new();
    let flight = Recorder::new(&reg, &Clock::wall(), 250_000, 1024); // 250 us
    let cfg = PlfsConfig { metrics: reg.clone(), flight: flight.clone(), ..Default::default() };
    let fs = Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, cfg);
    assert!(fs.metrics().clock.is_wall(), "the instance clock is the recorder's");
    let buf = vec![0xC3u8; RECORD];
    for r in 0..RANKS {
        let mut w = fs.open_writer("/ckpt", r).unwrap();
        for i in 0..WRITES_PER_RANK {
            let record = i * RANKS as u64 + r as u64;
            w.write_at(record * RECORD as u64, &buf).unwrap();
        }
        w.close().unwrap();
    }
    assert!(flight.enabled());
    assert!(!flight.is_empty(), "no frames captured by hot-path probes");
    // The last frame landed mid-run (whenever the cadence last came
    // due), so it carries some prefix of the write counter.
    let last = flight.frames().pop().unwrap();
    let ops = last.counter("plfs.write.ops").unwrap_or(0);
    assert!(
        (1..=RANKS as u64 * WRITES_PER_RANK).contains(&ops),
        "last frame write counter out of range: {ops}"
    );
}
