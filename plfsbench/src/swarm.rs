//! `svc-swarm`: the `workloads::swarm` plan (1000 clients, 1–8 KiB
//! uniform records) in its seeded issue order, through an
//! `IngestService` with the default `ServiceConfig`, from one closed-loop
//! generator thread. A `sync()` barrier follows every 64 writes, then
//! `close()`. Each round writes a fresh file; its read-back is verified
//! but not timed (its layout depends on group-commit timing).

use crate::layers::{self, span, Layer};
use crate::run::{common_layer_metrics, flip_byte, micros, Ctx, Probe, Rate, Store};
use crate::stats::{median, p99, process_cpu_ns, ratio};
use plfs::container::ContainerPaths;
use plfs::service::{IngestService, ServiceConfig, ServiceStats};
use plfs::Plfs;
use std::io;
use std::time::Instant;
use workloads::sample::SizeDist;
use workloads::swarm::{plan, SwarmConfig, SwarmOp};

const SYNC_EVERY: usize = 64;
const VERIFY_CHUNK: usize = 8 << 20;

struct State {
    order: Vec<SwarmOp>,
    /// The file every round must hold: the oracle, and the payload
    /// source (each op writes its own slice of it).
    expected: Vec<u8>,
    store: Store,
    fs: Plfs,
    /// The first round's service, started during set-up.
    first: Option<IngestService>,
}

fn file(round: usize) -> String {
    format!("/swarm.{round}")
}

/// The plan's seeded issue order and `SwarmPlan::expected_contents`,
/// generated once per run, before set-up.
fn inputs(ctx: &Ctx) -> (Vec<SwarmOp>, Vec<u8>) {
    let (clients, ops_per_client) = if ctx.tiny { (64, 16) } else { (1000, 64) };
    let cfg = SwarmConfig {
        clients,
        ops_per_client,
        size: SizeDist::Uniform { min: 1024, max: 8192 },
        seed: ctx.seed,
    };
    let plan = plan(&cfg);
    let expected = plan.expected_contents();
    (plan.issue_order(ctx.seed), expected)
}

#[derive(Default)]
struct Samples {
    write: Rate,
    ack_us: Vec<f64>,
    sync_us: Vec<f64>,
    stored_per_user: Vec<f64>,
    // Traced rounds only.
    svc: ServiceStats,
    syncs: u64,
    sync_ns: u64,
}

pub fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (order, expected) = inputs(ctx);
    // The stack `setup_s` times: bottom store, `Plfs` and the first
    // round's running service. Services of discarded builds are
    // dropped (stopped) untimed.
    let build = |ctx: &Ctx| {
        let store = Store::new(ctx.trace);
        let fs = Plfs::new(store.top.clone(), ctx.plfs_config());
        let first = IngestService::start(&fs, &file(0), ServiceConfig::default())?;
        Ok((store, fs, first))
    };
    let (store, fs, first) = ctx.set_up(build)?;
    let mut st = State { order, expected, store, fs, first: Some(first) };
    let mut s = Samples::default();
    let mut round = 0;
    let mut last = 0.0;
    // A p99 needs 1000 barriers; small inputs take more rounds.
    while ctx.another(round, last) || s.sync_us.len() < 1000 {
        let t0 = Instant::now();
        if round > 0 {
            drop(ctx.set_up(build)?);
        }
        generation(ctx, &mut st, &mut s, round)?;
        last = t0.elapsed().as_secs_f64();
        round += 1;
    }
    layers::set_enabled(false);

    let e = &mut ctx.e2e;
    e.put("write_MBps", s.write.mbps(), "MB/s");
    e.put("write_cpu_ns_per_B", s.write.cpu_ns_per_byte(), "ns/B");
    e.put("ack_p50_us", median(&s.ack_us), "us");
    if let Some(v) = p99(&s.ack_us) {
        e.put("ack_p99_us", v, "us");
    }
    e.put("sync_p50_us", median(&s.sync_us), "us");
    if let Some(v) = p99(&s.sync_us) {
        e.put("sync_p99_us", v, "us");
    }
    e.put("stored_bytes_per_user_byte", median(&s.stored_per_user), "B/B");
    if ctx.trace {
        common_layer_metrics(ctx, st.store.stats.counts());
        let wall = ctx.phases[0].wall_ns();
        let t = &mut ctx.layers;
        let ops = s.svc.enqueued_ops as f64;
        t.put("svc.fanin", s.svc.fanin(), "ops/commit");
        t.put("svc.commits_per_sync", ratio(s.svc.group_commits as f64, s.syncs as f64), "1");
        t.put("svc.sync_wait_share", ratio(s.sync_ns as f64, wall), "1");
        t.put("svc.stalls_per_kop", ratio(s.svc.backpressure_stalls as f64, ops / 1000.0), "1/kop");
        t.put("svc.stall_share", ratio(s.svc.backpressure_stall_ns as f64, wall), "1");
    }
    Ok(())
}

fn generation(ctx: &mut Ctx, st: &mut State, s: &mut Samples, round: usize) -> io::Result<()> {
    let name = file(round);
    let svc = match st.first.take() {
        Some(svc) => svc,
        None => ctx.op(IngestService::start(&st.fs, &name, ServiceConfig::default()))?,
    };
    let traced = ctx.trace_round(round);
    // The service's counters live in the shared registry, so its stats
    // are cumulative over the run.
    let before = svc.stats();

    // Write phase: first svc.write until close() returns.
    let (probe, marks, cpu0) = (Probe::start(), ctx.write_marks(), process_cpu_ns());
    let t0 = Instant::now();
    let mut sync_ns = 0u64;
    for (k, op) in st.order.iter().enumerate() {
        let data = &st.expected[op.offset as usize..(op.offset + op.len) as usize];
        let t = Instant::now();
        let res = span(Layer::Service, || svc.write(op.client, op.offset, data));
        s.ack_us.push(micros(t));
        ctx.op(res)?;
        if (k + 1) % SYNC_EVERY == 0 {
            let t = Instant::now();
            let res = span(Layer::Service, || svc.sync());
            let dt = t.elapsed().as_nanos() as u64;
            sync_ns += dt;
            s.sync_us.push(dt as f64 / 1e3);
            ctx.op(res)?;
        }
    }
    let stats = ctx.op(span(Layer::Service, || svc.close()))?;
    let wall = t0.elapsed();
    let user_bytes = st.expected.len() as u64;
    // Checksums run on the drain threads, so none is carved out of the
    // generator's service time.
    ctx.end_write(probe, marks, wall, user_bytes, &[]);
    s.write.add_with_cpu(user_bytes, wall, cpu0);
    s.stored_per_user.push(st.store.mem.total_bytes() as f64 / user_bytes as f64);
    if traced {
        let acc = &mut s.svc;
        acc.enqueued_ops += stats.enqueued_ops - before.enqueued_ops;
        acc.committed_ops += stats.committed_ops - before.committed_ops;
        acc.group_commits += stats.group_commits - before.group_commits;
        acc.backpressure_stalls += stats.backpressure_stalls - before.backpressure_stalls;
        acc.backpressure_stall_ns += stats.backpressure_stall_ns - before.backpressure_stall_ns;
        s.syncs += (st.order.len() / SYNC_EVERY) as u64;
        s.sync_ns += sync_ns;
    }
    layers::set_enabled(false);
    if ctx.corrupt && round == 0 {
        let paths = ContainerPaths::new(&name, st.fs.config().hostdirs);
        flip_byte(st.store.mem.as_ref(), &paths.data_dropping(0))?;
    }

    // Untimed read-back through a fresh Plfs, checked against the plan.
    let fs = Plfs::new(st.store.top.clone(), ctx.plfs_config());
    let reader = ctx.op(fs.open_reader(&name))?;
    ctx.check(reader.size() == user_bytes);
    let mut buf = vec![0u8; VERIFY_CHUNK];
    for (i, want) in st.expected.chunks(VERIFY_CHUNK).enumerate() {
        let off = (i * VERIFY_CHUNK) as u64;
        if let Ok(n) = ctx.op(reader.read_at(off, &mut buf[..want.len()])) {
            ctx.check(buf[..n] == *want);
        }
    }
    drop(reader);
    ctx.op(st.fs.unlink(&name))?;
    Ok(())
}
