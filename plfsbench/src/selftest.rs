//! Self-test of the benchmark on tiny inputs: every named metric is
//! emitted with its unit, the traced run's shares add up, and the
//! oracle catches a flipped byte.
//!
//! Run with `cargo test --release --offline --manifest-path plfsbench/Cargo.toml`.

use crate::run::{Ctx, PHASES};
use crate::{execute, layers, per_layer, pick, GATED};
use std::sync::Mutex;

/// Tracing state is process-wide, so workloads run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run `workload` on tiny inputs; returns whether it passed its oracle,
/// and the context holding its metric tables.
fn bench(workload: &str, trace: bool, corrupt: bool) -> (bool, Ctx) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut ctx = Ctx::new(3, 0.2, trace, true, corrupt);
    let correct = execute(workload, &mut ctx);
    (correct, ctx)
}

/// `(name, unit)` of every metric in the `key` array of BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array ends")];
    let value = |s: &str, field: &str| {
        let at = s.find(&format!("\"{field}\": \"")).expect("field present") + field.len() + 5;
        s[at..at + s[at..].find('"').unwrap()].to_string()
    };
    section.split("{").skip(1).map(|m| (value(m, "name"), value(m, "unit"))).collect()
}

fn expect_e2e(workload: &str, own: &[(&str, &str)]) {
    let (correct, ctx) = bench(workload, false, false);
    assert!(correct, "{workload} passes its oracle");
    assert_eq!(ctx.failed, 0);
    let gated: Vec<(String, String)> =
        GATED.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(declared("end_to_end"), gated, "BENCHMARK.json declares the gated metrics");
    let always = [("write_MBps", "MB/s"), ("fail_ratio", "1")];
    for &(name, unit) in GATED.iter().chain(&always).chain(own) {
        let (value, got_unit) =
            ctx.e2e.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got_unit, unit, "{workload}: {name} unit");
        if name == "fail_ratio" {
            assert_eq!(value, 0.0);
        } else {
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn n1_strided_emits_its_metrics() {
    expect_e2e(
        "n1-strided",
        &[
            ("read_MBps", "MB/s"),
            ("open_cold_ms", "ms"),
            ("open_warm_ms", "ms"),
            ("read4k_p50_us", "us"),
            ("read4k_p99_us", "us"),
        ],
    );
}

#[test]
fn svc_swarm_emits_its_metrics() {
    expect_e2e(
        "svc-swarm",
        &[("ack_p50_us", "us"), ("ack_p99_us", "us"), ("sync_p50_us", "us"), ("sync_p99_us", "us")],
    );
}

#[test]
fn dedup_ckpt_emits_its_metrics() {
    expect_e2e("dedup-ckpt", &[("read_MBps", "MB/s")]);
}

#[test]
fn traced_run_attributes_every_phase() {
    let printed: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(declared("per_layer"), printed, "BENCHMARK.json declares the per-layer metrics");
    for workload in ["n1-strided", "svc-swarm", "dedup-ckpt"] {
        let (correct, ctx) = bench(workload, true, false);
        assert!(correct, "{workload} traced run passes its oracle");
        // As printed: a layer the workload bypasses reads 0.
        let rows = pick(&ctx.layers, per_layer());
        let value = |n: &str| {
            rows.iter().find(|r| r.0 == n).map(|r| r.1).unwrap_or_else(|| panic!("{n} missing"))
        };
        for p in PHASES {
            // Generator shares partition the phase: none exceeds it, and
            // what is left over is never negative. Helper shares are busy
            // time of other threads and only have to be non-negative.
            let ran = ctx.phases.iter().any(|ph| ph.name == p && ph.wall_ns() > 0.0);
            let unit = -1e-9..=1.0 + 1e-9;
            for l in layers::LAYERS {
                let share = value(&format!("phase.{p}.{}_share", l.name()));
                assert!(unit.contains(&share), "{workload}/{p}/{l:?}: {share}");
            }
            let rest = value(&format!("phase.{p}.unattributed_share"));
            assert!(unit.contains(&rest), "{workload}/{p}: unattributed {rest}");
            if !ran {
                assert_eq!(rest, 0.0, "{workload}/{p}: a phase that did not run reads 0");
            }
            for l in ["chunk", "backend"] {
                assert!(value(&format!("phase.{p}.helper_{l}_share")) >= 0.0);
            }
        }
        let chunked = workload == "dedup-ckpt";
        let serviced = workload == "svc-swarm";
        assert_eq!(value("chunk.write_share") > 0.0, chunked, "{workload}: chunk.write_share");
        assert_eq!(
            value("chunk.dedup_hit_ratio") > 0.0,
            chunked,
            "{workload}: chunk.dedup_hit_ratio"
        );
        assert_eq!(value("phase.write.service_share") > 0.0, serviced, "{workload}: service share");
        assert_eq!(value("svc.fanin") > 0.0, serviced, "{workload}: svc.fanin");
        assert!(value("checksum.crc32_ns_per_B") > 0.0);
        assert!(value("backend.append_share") > 0.0, "{workload}: backend.append_share");
    }
}

#[test]
fn flipped_byte_shows_in_fail_ratio() {
    for workload in ["n1-strided", "svc-swarm", "dedup-ckpt"] {
        let (correct, ctx) = bench(workload, false, true);
        assert!(!correct, "{workload}: corruption must fail the run");
        assert!(ctx.e2e.get("fail_ratio").unwrap().0 > 0.0, "{workload}: fail_ratio");
    }
}

#[test]
fn same_seed_same_inputs() {
    let key = "stored_bytes_per_user_byte";
    let a = bench("dedup-ckpt", false, false).1.e2e.get(key);
    let b = bench("dedup-ckpt", false, false).1.e2e.get(key);
    assert_eq!(a, b);
}
