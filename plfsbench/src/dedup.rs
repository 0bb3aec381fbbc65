//! `dedup-ckpt`: repeated checkpoints through a `ChunkBackend` over a
//! `MemBackend`. In each generation eight ranks rewrite a segmented
//! 4 MiB-per-rank state in 64 KiB writes; a seeded 10% of the records
//! change between generations. Each generation is restart-read (fresh
//! `ChunkBackend` and `Plfs` over the same store) and verified. A round
//! is a series of generations ended by maintenance: unlink all but the
//! newest generation, `fsck::gc_chunks`, then `fsck::scrub_chunks`.

use crate::layers::{self, span, Count, Layer, OpCounts, OpStats};
use crate::run::{
    checkpoint, common_layer_metrics, flip_byte, scan, wrap, Ctx, OpenClose, Probe, Rate, Store,
};
use crate::stats::{median, process_cpu_ns, ratio};
use obs::trace::TraceCtx;
use plfs::container::ContainerPaths;
use plfs::{fsck, Backend, ChunkBackend, ChunkParams, Plfs};
use simkit::Rng;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::oplog::fill_payload;

struct Shape {
    ranks: usize,
    state: usize,
    write: usize,
    generations: usize,
}

const FULL: Shape = Shape { ranks: 8, state: 4 << 20, write: 64 << 10, generations: 10 };
const TINY: Shape = Shape { state: 256 << 10, generations: 3, ..FULL };

/// PLFS over a `ChunkBackend` over the bottom store; in a traced run a
/// second timing decorator sits above the chunk layer.
struct Stack {
    chunked: Arc<ChunkBackend>,
    upper: Arc<OpStats>,
    fs: Plfs,
}

fn stack(ctx: &Ctx, bottom: &Store) -> Stack {
    let chunked = Arc::new(ChunkBackend::observed(
        bottom.top.clone(),
        ChunkParams::default(),
        &ctx.registry,
        TraceCtx::disabled(),
    ));
    let (top, upper) = wrap(chunked.clone(), ctx.trace, Layer::Chunk);
    Stack { chunked, upper, fs: Plfs::new(top, ctx.plfs_config()) }
}

struct State {
    shape: &'static Shape,
    /// `ranks[r]` = rank `r`'s current segment (the oracle).
    ranks: Vec<Vec<u8>>,
    /// `changes[g]` = records (global index) rewritten before generation `g`.
    changes: Vec<Vec<usize>>,
    bottom: Store,
    stack: Stack,
}

impl Shape {
    fn records(&self) -> usize {
        self.ranks * self.state / self.write
    }

    fn user_bytes(&self) -> u64 {
        (self.ranks * self.state) as u64
    }
}

/// Fill every rank's segment with generation-0 content.
fn initial(shape: &Shape, ranks: &mut [Vec<u8>]) {
    for (r, seg) in ranks.iter_mut().enumerate() {
        fill_payload(r as u32, (r * shape.state) as u64, seg);
    }
}

/// Rewrite the records scheduled for generation `g`.
fn mutate(st: &mut State, g: usize) {
    let per_rank = st.shape.state / st.shape.write;
    for &k in &st.changes[g] {
        let (r, i) = (k / per_rank, k % per_rank);
        let lo = i * st.shape.write;
        let tag = ((g as u32) << 8) | r as u32;
        let off = (r * st.shape.state + lo) as u64;
        fill_payload(tag, off, &mut st.ranks[r][lo..lo + st.shape.write]);
    }
}

impl State {
    /// Whether `got` is exactly the current state at logical `off`.
    fn matches(&self, mut off: usize, mut got: &[u8]) -> bool {
        while !got.is_empty() {
            let (r, lo) = (off / self.shape.state, off % self.shape.state);
            let n = (self.shape.state - lo).min(got.len());
            if self.ranks.get(r).map(|seg| &seg[lo..lo + n]) != Some(&got[..n]) {
                return false;
            }
            got = &got[n..];
            off += n;
        }
        true
    }
}

/// The seeded schedule of changed records: `changes[g]` for each
/// generation, none before the first.
fn changes(shape: &Shape, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed);
    (0..shape.generations)
        .map(|g| {
            let mut all: Vec<usize> = (0..shape.records()).collect();
            rng.shuffle(&mut all);
            all.truncate(if g == 0 { 0 } else { shape.records() / 10 });
            all
        })
        .collect()
}

/// The stack `setup_s` times: bottom store, chunk layer, `Plfs`.
fn build(ctx: &Ctx) -> io::Result<(Store, Stack)> {
    let bottom = Store::new(ctx.trace);
    let top = stack(ctx, &bottom);
    Ok((bottom, top))
}

fn file(g: usize) -> String {
    format!("/ckpt.g{g}")
}

#[derive(Default)]
struct Samples {
    write: Rate,
    read: Rate,
    stored_per_user: Vec<f64>,
    open_close: OpenClose,
    gc_ms: Vec<f64>,
    scrub_mbps: Vec<f64>,
    gc_swept: Vec<f64>,
    /// Store calls under and above the chunk layer, per phase.
    bottom: OpCounts,
    write_bottom: OpCounts,
    write_upper: OpCounts,
    read_bottom: OpCounts,
    read_upper: OpCounts,
    chunks: u64,
    dedup_hits: u64,
}

pub fn run(ctx: &mut Ctx) -> io::Result<()> {
    let shape = if ctx.tiny { &TINY } else { &FULL };
    let mut ranks = vec![vec![0u8; shape.state]; shape.ranks];
    initial(shape, &mut ranks);
    let changes = changes(shape, ctx.seed);
    let (bottom, top) = ctx.set_up(build)?;
    let mut st = State { shape, ranks, changes, bottom, stack: top };
    let mut s = Samples::default();
    let mut series = 0;
    let mut last = 0.0;
    while ctx.another(series, last) {
        let t0 = Instant::now();
        if series > 0 {
            initial(st.shape, &mut st.ranks);
            (st.bottom, st.stack) = ctx.set_up(build)?;
        }
        run_series(ctx, &mut st, &mut s, series)?;
        s.bottom += st.bottom.stats.counts();
        last = t0.elapsed().as_secs_f64();
        series += 1;
    }
    layers::set_enabled(false);

    let e = &mut ctx.e2e;
    e.put("write_MBps", s.write.mbps(), "MB/s");
    e.put("write_cpu_ns_per_B", s.write.cpu_ns_per_byte(), "ns/B");
    e.put("read_MBps", s.read.mbps(), "MB/s");
    e.put("stored_bytes_per_user_byte", median(&s.stored_per_user), "B/B");
    if ctx.trace {
        common_layer_metrics(ctx, s.bottom);
        let t = &mut ctx.layers;
        s.open_close.report(t);
        let (wb, wu) = (s.write_bottom, s.write_upper);
        t.put(
            "chunk.exists_probes_per_chunk",
            ratio(wb[Count::PoolExists] as f64, s.chunks as f64),
            "1",
        );
        let manifest_b = ratio(wb[Count::NonpoolReadBytes] as f64, wu[Count::Appends] as f64);
        t.put("chunk.manifest_B_read_per_append", manifest_b, "B");
        t.put("chunk.dedup_hit_ratio", ratio(s.dedup_hits as f64, s.chunks as f64), "1");
        let inner = ratio(s.read_bottom[Count::Reads] as f64, s.read_upper[Count::Reads] as f64);
        t.put("chunk.inner_reads_per_read", inner, "1");
        t.put("chunk.gc_swept", median(&s.gc_swept), "count");
        t.put("fsck.gc_ms", median(&s.gc_ms), "ms");
        t.put("fsck.scrub_MBps", median(&s.scrub_mbps), "MB/s");
    }
    Ok(())
}

fn run_series(ctx: &mut Ctx, st: &mut State, s: &mut Samples, series: usize) -> io::Result<()> {
    let gens = st.shape.generations;
    for g in 0..gens {
        if g > 0 {
            drop(ctx.set_up(build)?);
            mutate(st, g);
        }
        generation(ctx, st, s, series * gens + g, g)?;
        if g == gens - 1 {
            let stored = st.bottom.mem.total_bytes() as f64;
            s.stored_per_user.push(stored / (gens as f64 * st.shape.user_bytes() as f64));
        }
        // Restart read of generation `g` (fresh chunk layer and PLFS).
        let restart = stack(ctx, &st.bottom);
        restart_read(ctx, st, &restart, s, g, true)?;
        layers::set_enabled(false);
    }

    // Maintenance: keep only the newest generation, collect, scrub.
    let fs = &st.stack.fs;
    for g in 0..gens - 1 {
        ctx.op(fs.unlink(&file(g)))?;
    }
    let newest = file(gens - 1);
    let t = Instant::now();
    let gc = ctx.op(fsck::gc_chunks(&st.stack.chunked, &[newest.as_str()]))?;
    s.gc_ms.push(t.elapsed().as_secs_f64() * 1e3);
    s.gc_swept.push(gc.swept as f64);
    let pool_bytes = st.stack.chunked.pool_usage()?.1;
    let t = Instant::now();
    let scrub = ctx.op(fsck::scrub_chunks(&st.stack.chunked))?;
    s.scrub_mbps.push(pool_bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    ctx.check(scrub.corrupt.is_empty());
    // Whatever GC swept, the newest generation must still read back.
    let restart = stack(ctx, &st.bottom);
    restart_read(ctx, st, &restart, s, gens - 1, false)
}

fn generation(
    ctx: &mut Ctx,
    st: &State,
    s: &mut Samples,
    round: usize,
    g: usize,
) -> io::Result<()> {
    let traced = ctx.trace_round(round);
    let shape = st.shape;
    let name = file(g);
    let (hits0, blobs0) = (ctx.counter("chunk.dedup_hits"), ctx.counter("chunk.blobs_written"));
    let (bottom0, upper0) = (st.bottom.stats.counts(), st.stack.upper.counts());

    let (probe, marks, cpu0) = (Probe::start(), ctx.write_marks(), process_cpu_ns());
    let record = |r: usize, i: usize| {
        let lo = i * shape.write;
        ((r * shape.state + lo) as u64, &st.ranks[r][lo..lo + shape.write])
    };
    let records = shape.state / shape.write;
    let wall =
        checkpoint(ctx, &st.stack.fs, &name, shape.ranks, records, record, &mut s.open_close)?;
    let user_bytes = shape.user_bytes();
    ctx.end_write(probe, marks, wall, user_bytes, &[Layer::Write, Layer::Filesystem]);
    s.write.add_with_cpu(user_bytes, wall, cpu0);
    if traced {
        let hits = ctx.counter("chunk.dedup_hits") - hits0;
        s.dedup_hits += hits;
        s.chunks += hits + ctx.counter("chunk.blobs_written") - blobs0;
        s.write_bottom += st.bottom.stats.counts() - bottom0;
        s.write_upper += st.stack.upper.counts() - upper0;
    }
    if ctx.corrupt && round == 0 {
        let paths = ContainerPaths::new(&name, st.stack.fs.config().hostdirs);
        let top: &dyn Backend = st.stack.chunked.as_ref();
        flip_byte(top, &paths.data_dropping(0))?;
    }
    Ok(())
}

/// Open generation `g` on `restart` and read it sequentially in 1 MiB
/// calls, checking every byte; `timed` reads count toward the open and
/// read phases and `read_MBps`.
fn restart_read(
    ctx: &mut Ctx,
    st: &State,
    restart: &Stack,
    s: &mut Samples,
    g: usize,
    timed: bool,
) -> io::Result<()> {
    let name = file(g);
    let probe = Probe::start();
    let t = Instant::now();
    let reader = span(Layer::Index, || restart.fs.open_reader(&name));
    let open_ns = t.elapsed().as_nanos() as u64;
    let reader = ctx.op(reader)?;
    if timed {
        ctx.phase("open").end(probe, open_ns, 0, &[]);
    }
    let size = st.shape.user_bytes();
    ctx.check(reader.size() == size);
    let verify0 = ctx.counter("plfs.verify.bytes");
    let (bottom0, upper0) = (st.bottom.stats.counts(), restart.upper.counts());
    let probe = Probe::start();
    let read_ns = scan(ctx, &reader, size, |off, got| st.matches(off as usize, got));
    if timed {
        let verified = ctx.counter("plfs.verify.bytes") - verify0;
        ctx.phase("read").end(probe, read_ns, verified, &[Layer::Read]);
        s.read.add(size, Duration::from_nanos(read_ns));
        if layers::enabled() {
            s.read_bottom += st.bottom.stats.counts() - bottom0;
            s.read_upper += restart.upper.counts() - upper0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_byte() {
        let ctx = Ctx::new(1, 0.0, false, true, false);
        let mut ranks = vec![vec![0u8; TINY.state]; TINY.ranks];
        initial(&TINY, &mut ranks);
        let (bottom, stack) = build(&ctx).unwrap();
        let st = State { shape: &TINY, ranks, changes: changes(&TINY, 1), bottom, stack };
        // The last 100 bytes of rank 0's segment, then rank 1's.
        let mut got = st.ranks[0][TINY.state - 100..].to_vec();
        got.extend_from_slice(&st.ranks[1][..3996]);
        let off = TINY.state - 100;
        assert!(st.matches(off, &got));
        for at in [0, 99, 100, 4095] {
            got[at] ^= 1;
            assert!(!st.matches(off, &got), "byte {at} flipped");
            got[at] ^= 1;
        }
        assert!(!st.matches(TINY.state * TINY.ranks - 10, &got), "past the end");
    }
}
