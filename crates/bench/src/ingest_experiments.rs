//! The `ingestscale` experiment: the sharded checkpoint ingest service
//! under a 1000-client swarm.
//!
//! The question this answers is the service-layer version of the
//! paper's headline: once PLFS has turned N-1 into per-writer logs,
//! does a *service* front-end — sharded writers, queued appends, group
//! commit — actually scale aggregate ingest bandwidth with shard
//! count, and does group commit actually amortize index fsyncs?
//!
//! The store is a [`PacedBackend`]: an in-memory backend whose
//! `append` sleeps per byte (plus a fixed per-append floor), modeling
//! a device with finite *per-stream* bandwidth. Sleeps overlap across
//! threads, so aggregate bandwidth scales with concurrent appenders —
//! exactly the property a sharded service is supposed to exploit, and
//! one a raw `MemBackend` (a single mutex, zero cost per byte) cannot
//! show. Pacing applies only to appends; reads (verification) and
//! metadata stay fast.
//!
//! Grid: shards ∈ {1, 2, 4, 8}, same 1000-client segmented swarm each
//! time. The gate fails `repro` unless the final file is byte-identical
//! to the plan everywhere, 8 shards deliver ≥ 3× the 1-shard bandwidth,
//! and steady-state group-commit fan-in at 8 shards is ≥ 8 logical
//! writes per index fsync.

use std::fmt::Write;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::Outcome;
use obs::Registry;
use plfs::backend::Backend;
use plfs::{pool, IngestService, MemBackend, Plfs, PlfsConfig, ServiceConfig};
use simkit::units::fmt_bytes;
use workloads::swarm::{plan, SwarmConfig, SwarmPlan};
use workloads::SizeDist;

/// In-memory backend with finite per-stream append bandwidth: every
/// `append` sleeps `floor_ns + len * ns_per_byte` *before* delegating,
/// outside any lock, so concurrent appenders overlap their sleeps the
/// way concurrent streams overlap on a real device. Everything else
/// forwards unpaced.
pub struct PacedBackend {
    inner: MemBackend,
    ns_per_byte: u64,
    floor_ns: u64,
}

impl PacedBackend {
    pub fn new(ns_per_byte: u64, floor_ns: u64) -> Self {
        PacedBackend { inner: MemBackend::new(), ns_per_byte, floor_ns }
    }

    fn pace(&self, bytes: usize) {
        let ns = self.floor_ns + bytes as u64 * self.ns_per_byte;
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

impl plfs::backend::Layer for PacedBackend {
    fn below(&self) -> &dyn Backend {
        &self.inner
    }
    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        self.pace(data.len());
        self.inner.append(path, data)
    }
}

/// The swarm every cell runs: 1000 clients, 4 records each, sizes in
/// [1 KiB, 8 KiB] — ~18 MB of small unaligned checkpoint records.
pub fn ingest_swarm() -> SwarmPlan {
    plan(&SwarmConfig {
        clients: 1000,
        ops_per_client: 4,
        size: SizeDist::Uniform { min: 1024, max: 8192 },
        seed: 0x1000_c11e,
    })
}

/// Producer threads multiplexing the swarm's clients.
const SWARM_DRIVERS: usize = 64;
/// Per-stream device model: 50 ns/B ≈ 20 MB/s per append stream (a
/// disk-like figure, deliberately slow enough that device time — which
/// overlaps across shards — dwarfs the CPU time of the pipeline, which
/// on a small CI box does not), plus a 10 µs per-append floor (the
/// "fsync" cost group commit amortizes).
const PACE_NS_PER_BYTE: u64 = 50;
const PACE_FLOOR_NS: u64 = 10_000;

/// One shard-count cell of the ingest grid.
pub struct IngestCell {
    pub shards: usize,
    /// Clients in the plan with at least one op.
    pub clients: u64,
    pub ops: u64,
    pub bytes: u64,
    /// Accept → durability-barrier wall clock (what bandwidth is
    /// computed from).
    pub wall_ns: u64,
    pub group_commits: u64,
    pub committed_ops: u64,
    pub backpressure_stalls: u64,
    pub backpressure_stall_ns: u64,
    /// Read-back byte-identical to the plan's expected contents.
    pub contents_ok: bool,
}

impl IngestCell {
    /// Mean logical writes per index fsync.
    pub fn fanin(&self) -> f64 {
        if self.group_commits == 0 {
            0.0
        } else {
            self.committed_ops as f64 / self.group_commits as f64
        }
    }

    /// Aggregate ingest bandwidth, bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.bytes as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Run the swarm through an `shards`-way service on a paced store.
pub fn ingest_cell(shards: usize, swarm: &SwarmPlan) -> IngestCell {
    let reg = Registry::new();
    let backend = Arc::new(PacedBackend::new(PACE_NS_PER_BYTE, PACE_FLOOR_NS)) as Arc<dyn Backend>;
    let fs = Plfs::new(backend, PlfsConfig { metrics: reg.clone(), ..Default::default() });
    let svc = IngestService::start(&fs, "/swarm", ServiceConfig { shards, ..Default::default() })
        .expect("service start");

    // Materialize payloads before the clock starts: the timed region
    // measures the service (accept → group commit → barrier), not
    // record synthesis — real checkpoint clients arrive with their
    // bytes already in hand.
    let prepared: Vec<Vec<(u32, u64, Vec<u8>)>> = swarm
        .per_client
        .iter()
        .map(|ops| ops.iter().map(|op| (op.client, op.offset, op.payload())).collect())
        .collect();

    let t0 = Instant::now();
    pool::run_bounded(prepared.len(), SWARM_DRIVERS, |c| {
        for (client, offset, data) in &prepared[c] {
            svc.write(*client, *offset, data).expect("swarm write");
        }
    });
    svc.sync().expect("durability barrier");
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stats = svc.close().expect("service close");

    let data = fs.open_reader("/swarm").expect("open").read_all().expect("read back");
    let contents_ok = data == swarm.expected_contents();

    IngestCell {
        shards,
        clients: swarm.per_client.iter().filter(|ops| !ops.is_empty()).count() as u64,
        ops: stats.enqueued_ops,
        bytes: stats.enqueued_bytes,
        wall_ns,
        group_commits: stats.group_commits,
        committed_ops: stats.committed_ops,
        backpressure_stalls: stats.backpressure_stalls,
        backpressure_stall_ns: stats.backpressure_stall_ns,
        contents_ok,
    }
}

/// The shard-scaling grid (`repro ingestscale` and `tests/ingestscale.rs`
/// share it).
pub fn ingest_results() -> Vec<IngestCell> {
    let swarm = ingest_swarm();
    [1usize, 2, 4, 8].iter().map(|&s| ingest_cell(s, &swarm)).collect()
}

/// Acceptance gate: byte-identical contents everywhere, ≥ 3× aggregate
/// bandwidth at 8 shards vs 1 (the wall-clock criterion — CI runs this
/// in release), and steady-state group-commit fan-in ≥ 8 at 8 shards.
pub fn ingest_gate(cells: &[IngestCell]) -> Result<String, String> {
    for c in cells {
        if !c.contents_ok {
            return Err(format!(
                "ingest gate: read-back diverged from the swarm plan at {} shards",
                c.shards
            ));
        }
        if c.committed_ops != c.ops {
            return Err(format!(
                "ingest gate: {} of {} accepted writes never committed at {} shards",
                c.ops - c.committed_ops,
                c.ops,
                c.shards
            ));
        }
    }
    let one = cells.iter().find(|c| c.shards == 1).ok_or("ingest gate: no 1-shard cell")?;
    let eight = cells.iter().find(|c| c.shards == 8).ok_or("ingest gate: no 8-shard cell")?;
    let scaling = eight.bandwidth() / one.bandwidth().max(1.0);
    if scaling < 3.0 {
        return Err(format!(
            "ingest gate: 8-shard bandwidth only {:.2}x the 1-shard baseline \
             ({:.1} vs {:.1} MB/s); need >= 3x",
            scaling,
            eight.bandwidth() / 1e6,
            one.bandwidth() / 1e6
        ));
    }
    if eight.fanin() < 8.0 {
        return Err(format!(
            "ingest gate: group-commit fan-in {:.1} writes/fsync at 8 shards; need >= 8",
            eight.fanin()
        ));
    }
    Ok(format!(
        "ingest gate: ok ({scaling:.1}x bandwidth at 8 shards, fan-in {:.0} writes/fsync)",
        eight.fanin()
    ))
}

fn header(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n== {title} ==");
}

/// The `ingestscale` experiment report: the shard-scaling table plus
/// group-commit and backpressure accounting, every number recorded as
/// a metric series.
pub fn ingest_experiment(reg: &Registry) -> Outcome {
    let mut out = String::new();
    header(&mut out, "Sharded ingest service: 1000-client swarm, paced store");
    let _ = writeln!(
        out,
        "{:>7} {:>8} {:>10} {:>10} {:>8} {:>9} {:>8} {:>8} {:>6}",
        "shards", "ops", "bytes", "MB/s", "commits", "fanin", "stalls", "speedup", "same"
    );
    let cells = ingest_results();
    let base_bw = cells.iter().find(|c| c.shards == 1).map(|c| c.bandwidth()).unwrap_or(1.0);
    for c in &cells {
        let s = c.shards.to_string();
        let labels = [("shards", s.as_str())];
        reg.counter_with("ingest.clients", &labels).add(c.clients);
        reg.counter_with("ingest.ops", &labels).add(c.ops);
        reg.counter_with("ingest.bytes", &labels).add(c.bytes);
        reg.counter_with("ingest.commits", &labels).add(c.group_commits);
        reg.counter_with("ingest.committed_ops", &labels).add(c.committed_ops);
        reg.counter_with("ingest.stalls", &labels).add(c.backpressure_stalls);
        reg.counter_with("ingest.stall_ns", &labels).add(c.backpressure_stall_ns);
        reg.counter_with("ingest.contents_ok", &labels).add(c.contents_ok as u64);
        reg.gauge_with("ingest.bw_kbps", &labels).set((c.bandwidth() / 1e3).round() as i64);
        reg.gauge_with("ingest.fanin_milli", &labels).set((c.fanin() * 1000.0).round() as i64);
        reg.gauge_with("ingest.speedup_milli", &labels)
            .set((c.bandwidth() / base_bw * 1000.0).round() as i64);
        let _ = writeln!(
            out,
            "{:>7} {:>8} {:>10} {:>10.1} {:>8} {:>9.1} {:>8} {:>7.2}x {:>6}",
            c.shards,
            c.ops,
            fmt_bytes(c.bytes),
            c.bandwidth() / 1e6,
            c.group_commits,
            c.fanin(),
            c.backpressure_stalls,
            c.bandwidth() / base_bw,
            if c.contents_ok { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "(paced store: {PACE_NS_PER_BYTE} ns/B per append stream + {} us/append floor;\n\
         sleeps overlap across shards, so bandwidth scaling is the service's own.\n\
         wall-clock cells are exported to BENCH_ingest.json by `repro ingestscale`)",
        PACE_FLOOR_NS / 1000
    );
    Outcome {
        report: out,
        bench: Some(("BENCH_ingest.json", ingest_json_from(&cells))),
        gate: Some(ingest_gate(&cells)),
    }
}

/// The `BENCH_ingest.json` payload for an already-computed grid.
pub fn ingest_json_from(cells: &[IngestCell]) -> obs::json::Value {
    use obs::json::Value;
    let base_bw = cells.iter().find(|c| c.shards == 1).map(|c| c.bandwidth()).unwrap_or(1.0);
    let cells = cells
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("shards".into(), Value::Int(c.shards as i64)),
                ("clients".into(), Value::Int(c.clients as i64)),
                ("ops".into(), Value::Int(c.ops as i64)),
                ("bytes".into(), Value::Int(c.bytes as i64)),
                ("wall_ns".into(), Value::Int(c.wall_ns as i64)),
                ("bandwidth_bps".into(), Value::Float(c.bandwidth())),
                ("speedup_vs_1shard".into(), Value::Float(c.bandwidth() / base_bw)),
                ("group_commits".into(), Value::Int(c.group_commits as i64)),
                ("committed_ops".into(), Value::Int(c.committed_ops as i64)),
                ("fanin".into(), Value::Float(c.fanin())),
                ("backpressure_stalls".into(), Value::Int(c.backpressure_stalls as i64)),
                ("backpressure_stall_ns".into(), Value::Int(c.backpressure_stall_ns as i64)),
                ("contents_ok".into(), Value::Int(c.contents_ok as i64)),
            ])
        })
        .collect();
    obs::json::Value::Obj(vec![("cells".into(), Value::Arr(cells))])
}
