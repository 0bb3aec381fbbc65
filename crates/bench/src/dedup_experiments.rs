//! The `dedupscale` experiment: content-addressed dedup under a
//! repeated-checkpoint swarm workload.
//!
//! Flow: a swarm of ranks checkpoints the *same* application state ten
//! times into ten containers stacked on one shared [`ChunkBackend`]
//! pool, so every iteration after the first should be almost entirely
//! dedup hits. Then the orphan path: a scratch container with unique
//! content is written and deleted, and the mark-and-sweep GC must
//! reclaim 100% of its blobs and 0% of the referenced ones. Finally the
//! same differential harness the `replay` experiment uses pits a plain
//! store against a chunked store on capture logs with read-backs — the
//! layer must be observationally invisible.
//!
//! The reproduction claims, gated by `repro dedupscale`:
//!
//! 1. dedup ratio (logical bytes / pool bytes) is at least 5x on the
//!    10-iteration repeated-checkpoint workload;
//! 2. plain-vs-chunked differential replay is byte-identical (delivered
//!    reads, container contents, invariants) on every scenario pair;
//! 3. GC sweeps every orphan (a second sweep finds nothing) and no
//!    referenced chunk (pool == live set; survivors read back
//!    byte-identical through a fresh layer), and the pool scrubs clean.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use crate::Outcome;
use obs::trace::TraceCtx;
use obs::Registry;
use plfs::backend::{Backend, MemBackend};
use plfs::chunk::{ChunkBackend, ChunkParams};
use plfs::replay::{differential, ReplayMode, ReplayOptions};
use plfs::{Plfs, PlfsConfig};
use workloads::gen::{generate, GenConfig, Scenario};
use workloads::oplog::fill_payload;
use workloads::sample::{ArrivalDist, SizeDist};

/// Pool state after one checkpoint iteration landed.
#[derive(Debug, Clone)]
pub struct DedupIterCell {
    pub iter: u64,
    /// Cumulative plaintext bytes appended through the layer.
    pub logical_bytes: u64,
    /// Pool population after this iteration.
    pub pool_blobs: u64,
    pub pool_bytes: u64,
    /// Blobs this iteration actually published (not deduped away).
    pub new_blobs: u64,
    /// Chunks this iteration resolved to already-stored blobs.
    pub new_dedup_hits: u64,
    pub wall_ns: u64,
}

/// One plain-vs-chunked differential scenario.
#[derive(Debug, Clone)]
pub struct DedupDiffCell {
    pub name: &'static str,
    pub delivered_match: bool,
    pub content_match: bool,
    pub invariants_match: bool,
}

impl DedupDiffCell {
    pub fn identical(&self) -> bool {
        self.delivered_match && self.content_match && self.invariants_match
    }
}

/// Everything `repro dedupscale`, its gate, and `BENCH_dedup.json`
/// share.
#[derive(Debug, Clone)]
pub struct DedupSummary {
    pub iterations: u64,
    pub ranks: u32,
    pub bytes_per_rank: u64,
    pub iters: Vec<DedupIterCell>,
    /// Total plaintext bytes across all iterations.
    pub logical_bytes: u64,
    /// Final pool footprint.
    pub pool_blobs: u64,
    pub pool_bytes: u64,
    /// logical_bytes / pool_bytes — the headline number.
    pub dedup_ratio: f64,
    /// Final `chunk.*` counter values for the checkpoint phase.
    pub dedup_hits: u64,
    pub dedup_bytes: u64,
    pub compressed_bytes: u64,
    pub blobs_written: u64,
    /// Plain-vs-chunked differential pairs.
    pub pairs: Vec<DedupDiffCell>,
    /// Orphan GC: blobs referenced after the scratch container died,
    /// orphans reclaimed, what a second sweep found (must be 0), and
    /// whether pool == live set and survivors read back identical.
    pub gc_live: u64,
    pub gc_swept: u64,
    pub gc_swept_bytes: u64,
    pub gc_second_swept: u64,
    pub gc_pool_matches_live: bool,
    pub gc_survivor_intact: bool,
    /// Pool scrub after GC.
    pub scrub_blobs: u64,
    pub scrub_corrupt: u64,
    pub wall_ns: u64,
}

/// Write one checkpoint iteration: every rank lays down its strided
/// slice of the (iteration-invariant) application state.
fn checkpoint(fs: &Plfs, file: &str, ranks: u32, bytes_per_rank: u64) {
    for r in 0..ranks {
        let mut w = fs.open_writer(file, r).expect("open_writer");
        let off = r as u64 * bytes_per_rank;
        let mut buf = vec![0u8; bytes_per_rank as usize];
        fill_payload(r, off, &mut buf);
        w.write_at(off, &buf).expect("write_at");
        w.close().expect("close");
    }
}

/// The repeated-checkpoint grid (`repro dedupscale` and
/// `tests/metrics.rs` share it). 10 iterations per the acceptance bar;
/// sizes kept moderate so the full grid (10 checkpoints, GC, scrub,
/// differential pairs) stays test-suite fast.
pub fn dedup_results() -> DedupSummary {
    let iterations = 10u64;
    let ranks = 8u32;
    let bytes_per_rank = 96 * 1024u64;
    let t0 = Instant::now();

    // Phase 1: repeated checkpoints of identical state over one pool.
    let chunk_reg = Registry::new();
    let mem = Arc::new(MemBackend::new());
    let cb = Arc::new(ChunkBackend::observed(
        mem.clone() as Arc<dyn Backend>,
        ChunkParams::default(),
        &chunk_reg,
        TraceCtx::disabled(),
    ));
    let fs = Plfs::new(cb.clone() as Arc<dyn Backend>, PlfsConfig::default());
    let counter = |name: &str| chunk_reg.value(name).unwrap_or(0);
    let mut iters = Vec::new();
    let (mut prev_blobs, mut prev_hits) = (0u64, 0u64);
    for iter in 0..iterations {
        let t = Instant::now();
        checkpoint(&fs, &format!("/ckpt.{iter}"), ranks, bytes_per_rank);
        let (pool_blobs, pool_bytes) = cb.pool_usage().expect("pool_usage");
        let (blobs, hits) = (counter("chunk.blobs_written"), counter("chunk.dedup_hits"));
        iters.push(DedupIterCell {
            iter,
            logical_bytes: (iter + 1) * ranks as u64 * bytes_per_rank,
            pool_blobs,
            pool_bytes,
            new_blobs: blobs - prev_blobs,
            new_dedup_hits: hits - prev_hits,
            wall_ns: t.elapsed().as_nanos() as u64,
        });
        prev_blobs = blobs;
        prev_hits = hits;
    }
    let logical_bytes = iterations * ranks as u64 * bytes_per_rank;
    let (pool_blobs, pool_bytes) = cb.pool_usage().expect("pool_usage");
    let dedup_ratio = logical_bytes as f64 / pool_bytes.max(1) as f64;

    // Phase 2: orphan GC. A scratch container with content no
    // checkpoint shares (distinct rank ids shift every payload) is
    // written and deleted; the sweep must reclaim exactly its blobs.
    let survivor_before =
        fs.open_reader("/ckpt.0").expect("open_reader").read_all().expect("read_all");
    checkpoint(&fs, "/scratch", ranks + 17, 16 * 1024);
    cb.remove_dir_all("/scratch").expect("remove scratch");
    let roots: Vec<String> = (0..iterations).map(|i| format!("/ckpt.{i}")).collect();
    let root_refs: Vec<&str> = roots.iter().map(|s| s.as_str()).collect();
    let gc = cb.gc(&root_refs).expect("gc");
    let gc_second = cb.gc(&root_refs).expect("second gc");
    let (after_blobs, _) = cb.pool_usage().expect("pool_usage");
    let fresh = Plfs::new(
        Arc::new(ChunkBackend::new(mem.clone() as Arc<dyn Backend>)) as Arc<dyn Backend>,
        PlfsConfig::default(),
    );
    let gc_survivor_intact =
        fresh.open_reader("/ckpt.0").expect("open_reader").read_all().expect("read_all")
            == survivor_before;
    let scrub = cb.scrub_pool().expect("scrub_pool");

    // Phase 3: the layer is observationally invisible — plain vs
    // chunked through the full replay differential harness, on a
    // write-heavy and a read-heavy capture.
    let mut pairs = Vec::new();
    for (name, scenario, seed) in [
        ("n1-strided-plain-vs-chunked", Scenario::N1Strided, 1201u64),
        ("restart-readback-plain-vs-chunked", Scenario::ReadHeavyRestart, 1202),
    ] {
        let log = generate(
            scenario,
            &GenConfig {
                ranks: 8,
                ops_per_rank: 6,
                size: SizeDist::Uniform { min: 1024, max: 16 * 1024 },
                arrival: ArrivalDist::Immediate,
                seed,
            },
        );
        let plain =
            Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, PlfsConfig::default());
        let chunked = Plfs::new(
            Arc::new(ChunkBackend::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>))
                as Arc<dyn Backend>,
            PlfsConfig::default(),
        );
        let opts = ReplayOptions { mode: ReplayMode::Sequential, ..Default::default() };
        let d = differential(&log, &plain, &opts, &chunked, &opts).expect("differential");
        pairs.push(DedupDiffCell {
            name,
            delivered_match: d.delivered_match(),
            content_match: d.content_match(),
            invariants_match: d.invariants_match(),
        });
    }

    DedupSummary {
        iterations,
        ranks,
        bytes_per_rank,
        iters,
        logical_bytes,
        pool_blobs,
        pool_bytes,
        dedup_ratio,
        dedup_hits: counter("chunk.dedup_hits"),
        dedup_bytes: counter("chunk.dedup_bytes"),
        compressed_bytes: counter("chunk.compressed_bytes"),
        blobs_written: counter("chunk.blobs_written"),
        pairs,
        gc_live: gc.live as u64,
        gc_swept: gc.swept as u64,
        gc_swept_bytes: gc.swept_bytes,
        gc_second_swept: gc_second.swept as u64,
        gc_pool_matches_live: after_blobs == gc.live as u64,
        gc_survivor_intact,
        scrub_blobs: scrub.blobs as u64,
        scrub_corrupt: scrub.corrupt.len() as u64,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Acceptance gate: >=5x dedup, byte-identical differential replay,
/// GC reclaims 100% of orphans and 0% of referenced chunks, clean
/// scrub.
pub fn dedup_gate(s: &DedupSummary) -> Result<String, String> {
    if s.dedup_ratio < 5.0 {
        return Err(format!(
            "dedup gate: ratio {:.2}x below the 5x bar ({} logical / {} pooled)",
            s.dedup_ratio, s.logical_bytes, s.pool_bytes
        ));
    }
    for p in &s.pairs {
        if !p.identical() {
            return Err(format!(
                "dedup gate: differential pair {} diverged \
                 (delivered={} content={} invariants={})",
                p.name, p.delivered_match, p.content_match, p.invariants_match
            ));
        }
    }
    if s.gc_swept == 0 {
        return Err("dedup gate: GC swept no orphans (the scratch container left none?)".into());
    }
    if s.gc_second_swept != 0 {
        return Err(format!(
            "dedup gate: second GC sweep found {} stragglers — the first missed orphans",
            s.gc_second_swept
        ));
    }
    if !s.gc_pool_matches_live {
        return Err(format!(
            "dedup gate: pool does not equal the live set after GC (live={})",
            s.gc_live
        ));
    }
    if !s.gc_survivor_intact {
        return Err("dedup gate: GC corrupted a referenced container".into());
    }
    if s.scrub_corrupt != 0 {
        return Err(format!("dedup gate: scrub found {} corrupt blobs", s.scrub_corrupt));
    }
    Ok(format!(
        "dedup gate: ok ({:.2}x dedup over {} iterations, {} orphans swept 100%/0%, \
         {} differential pairs byte-identical, {} blobs scrub clean)",
        s.dedup_ratio,
        s.iterations,
        s.gc_swept,
        s.pairs.len(),
        s.scrub_blobs
    ))
}

/// The `dedupscale` experiment (its report also emits the metric series
/// the schema tests assert on).
pub fn dedup_experiment(reg: &Registry) -> Outcome {
    const ITER_NAMES: [&str; 10] = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9"];
    let s = dedup_results();
    let mut out = String::new();
    let _ = writeln!(out, "\n== Content-addressed dedup - repeated-checkpoint swarm ==");
    let _ = writeln!(
        out,
        "{} iterations x {} ranks x {} KiB = {} KiB logical; pool holds {} blobs / {} KiB",
        s.iterations,
        s.ranks,
        s.bytes_per_rank / 1024,
        s.logical_bytes / 1024,
        s.pool_blobs,
        s.pool_bytes / 1024
    );
    let _ = writeln!(
        out,
        "\n{:>5} {:>12} {:>11} {:>11} {:>10} {:>11} {:>10}",
        "iter", "logical KiB", "pool blobs", "pool KiB", "new blobs", "dedup hits", "wall (ms)"
    );
    for c in &s.iters {
        let labels = [("iter", ITER_NAMES[c.iter.min(9) as usize])];
        reg.counter_with("dedup.pool_bytes", &labels).add(c.pool_bytes);
        reg.counter_with("dedup.new_blobs", &labels).add(c.new_blobs);
        reg.counter_with("dedup.iter_hits", &labels).add(c.new_dedup_hits);
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>11} {:>11} {:>10} {:>11} {:>10.2}",
            c.iter,
            c.logical_bytes / 1024,
            c.pool_blobs,
            c.pool_bytes / 1024,
            c.new_blobs,
            c.new_dedup_hits,
            c.wall_ns as f64 / 1e6
        );
    }
    reg.counter("dedup.logical_bytes").add(s.logical_bytes);
    reg.counter("dedup.pool_bytes_final").add(s.pool_bytes);
    reg.counter("dedup.pool_blobs_final").add(s.pool_blobs);
    reg.counter("dedup.hits").add(s.dedup_hits);
    reg.counter("dedup.bytes_avoided").add(s.dedup_bytes);
    reg.counter("dedup.compressed_bytes").add(s.compressed_bytes);
    reg.counter("dedup.blobs_written").add(s.blobs_written);
    reg.gauge("dedup.ratio_milli").set((s.dedup_ratio * 1000.0) as i64);
    let _ = writeln!(
        out,
        "\ndedup ratio {:.2}x  ({} hits avoided {} KiB; {} blobs written, {} KiB compressed)",
        s.dedup_ratio,
        s.dedup_hits,
        s.dedup_bytes / 1024,
        s.blobs_written,
        s.compressed_bytes / 1024
    );

    reg.counter("dedup.gc_live").add(s.gc_live);
    reg.counter("dedup.gc_swept").add(s.gc_swept);
    reg.counter("dedup.gc_swept_bytes").add(s.gc_swept_bytes);
    reg.counter("dedup.gc_second_swept").add(s.gc_second_swept);
    reg.counter("dedup.gc_survivor_intact").add(s.gc_survivor_intact as u64);
    reg.counter("dedup.scrub_blobs").add(s.scrub_blobs);
    reg.counter("dedup.scrub_corrupt").add(s.scrub_corrupt);
    let _ = writeln!(
        out,
        "GC: {} live, {} orphans swept ({} KiB), second sweep {}, \
         pool==live {}, survivor intact {}; scrub {}/{} clean",
        s.gc_live,
        s.gc_swept,
        s.gc_swept_bytes / 1024,
        s.gc_second_swept,
        s.gc_pool_matches_live,
        s.gc_survivor_intact,
        s.scrub_blobs - s.scrub_corrupt,
        s.scrub_blobs
    );

    let _ = writeln!(out, "\nDifferential pairs (one log, plain vs chunked store):");
    for p in &s.pairs {
        reg.counter_with("dedup.diff_identical", &[("pair", p.name)]).add(p.identical() as u64);
        let _ = writeln!(
            out,
            "  {:<36} delivered={:<5} content={:<5} invariants={:<5} -> {}",
            p.name,
            p.delivered_match,
            p.content_match,
            p.invariants_match,
            if p.identical() { "identical" } else { "DIVERGED" }
        );
    }
    let _ = writeln!(
        out,
        "(full per-iteration detail goes to BENCH_dedup.json; stack your own runs\n\
         with `repro replay <log> --backend chunked`)"
    );
    Outcome {
        report: out,
        bench: Some(("BENCH_dedup.json", dedup_json_from(&s))),
        gate: Some(dedup_gate(&s)),
    }
}

/// The `BENCH_dedup.json` payload for an already-computed summary.
pub fn dedup_json_from(s: &DedupSummary) -> obs::json::Value {
    use obs::json::Value;
    let iters = s
        .iters
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("iter".into(), Value::Int(c.iter as i64)),
                ("logical_bytes".into(), Value::Int(c.logical_bytes as i64)),
                ("pool_blobs".into(), Value::Int(c.pool_blobs as i64)),
                ("pool_bytes".into(), Value::Int(c.pool_bytes as i64)),
                ("new_blobs".into(), Value::Int(c.new_blobs as i64)),
                ("new_dedup_hits".into(), Value::Int(c.new_dedup_hits as i64)),
                ("wall_ns".into(), Value::Int(c.wall_ns as i64)),
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
        ("iterations".into(), Value::Int(s.iterations as i64)),
        ("ranks".into(), Value::Int(s.ranks as i64)),
        ("bytes_per_rank".into(), Value::Int(s.bytes_per_rank as i64)),
        ("logical_bytes".into(), Value::Int(s.logical_bytes as i64)),
        ("pool_blobs".into(), Value::Int(s.pool_blobs as i64)),
        ("pool_bytes".into(), Value::Int(s.pool_bytes as i64)),
        ("dedup_ratio".into(), Value::Float(s.dedup_ratio)),
        ("dedup_hits".into(), Value::Int(s.dedup_hits as i64)),
        ("dedup_bytes".into(), Value::Int(s.dedup_bytes as i64)),
        ("compressed_bytes".into(), Value::Int(s.compressed_bytes as i64)),
        ("blobs_written".into(), Value::Int(s.blobs_written as i64)),
        ("gc_live".into(), Value::Int(s.gc_live as i64)),
        ("gc_swept".into(), Value::Int(s.gc_swept as i64)),
        ("gc_swept_bytes".into(), Value::Int(s.gc_swept_bytes as i64)),
        ("gc_second_swept".into(), Value::Int(s.gc_second_swept as i64)),
        ("gc_pool_matches_live".into(), Value::Int(s.gc_pool_matches_live as i64)),
        ("gc_survivor_intact".into(), Value::Int(s.gc_survivor_intact as i64)),
        ("scrub_blobs".into(), Value::Int(s.scrub_blobs as i64)),
        ("scrub_corrupt".into(), Value::Int(s.scrub_corrupt as i64)),
        ("wall_ns".into(), Value::Int(s.wall_ns as i64)),
        ("iters".into(), Value::Arr(iters)),
        ("pairs".into(), Value::Arr(pairs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full grid passes its own gate, and the report, the BENCH
    /// JSON and the gate all read one run. Wall-clock times are the only
    /// numbers that differ between two runs, so the report's per-iteration
    /// `wall (ms)` column must equal the JSON's `wall_ns` exactly.
    #[test]
    fn dedupscale_report_json_and_gate_share_one_run() {
        let out = dedup_experiment(&Registry::new());
        if let Some(Err(e)) = &out.gate {
            panic!("{e}");
        }
        assert!(out.gate.is_some(), "dedupscale must be gated");
        let (file, json) = out.bench.expect("dedupscale writes a BENCH file");
        assert_eq!(file, "BENCH_dedup.json");
        let iters = json.get("iters").and_then(|v| v.as_arr()).expect("iters array");
        let field = |c: &obs::json::Value, k: &str| c.get(k).and_then(|v| v.as_i64()).unwrap();
        assert_eq!(iters.len() as i64, field(&json, "iterations"));
        // Iteration 0 seeds the pool; later iterations mostly hit it.
        assert!(field(&iters[0], "new_blobs") > 0);
        let late_hits: i64 = iters[1..].iter().map(|c| field(c, "new_dedup_hits")).sum();
        assert!(late_hits > 0, "repeat iterations never hit the pool");

        let rows: Vec<&str> = out
            .report
            .lines()
            .skip_while(|l| !l.ends_with("wall (ms)"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        assert_eq!(rows.len(), iters.len(), "one report row per iteration");
        for (row, c) in rows.iter().zip(iters) {
            let cols: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cols[0], field(c, "iter").to_string());
            let wall_ms = format!("{:.2}", field(c, "wall_ns") as f64 / 1e6);
            assert_eq!(*cols.last().unwrap(), wall_ms, "iteration {}: report vs JSON", cols[0]);
        }
    }
}
