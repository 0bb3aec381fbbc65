//! `n1-strided`: the paper's pattern. Sixteen ranks write unaligned
//! 47,008-byte records (FLASH-like) into one shared file in N-1
//! strided order, issued round-robin from one thread. Each round is a
//! checkpoint generation: write + close, then a restart through a
//! fresh `Plfs` on the same store (cold opens, warm opens, a sequential
//! 1 MiB scan, seeded uniform 4 KiB reads), then unlink.

use crate::layers::{span, Count, Layer};
use crate::run::{
    checkpoint, common_layer_metrics, flip_byte, scan, Ctx, OpenClose, Probe, Rate, Store, MIB,
};
use crate::stats::{median, p99, process_cpu_ns, ratio};
use plfs::container::{discover_droppings, ContainerPaths};
use plfs::index::{decode, IndexMap};
use plfs::{Backend, Plfs};
use simkit::Rng;
use std::io;
use std::time::{Duration, Instant};
use workloads::oplog::fill_payload;

struct Shape {
    ranks: usize,
    record: usize,
    records_per_rank: usize,
    cold_opens: usize,
    warm_opens: usize,
    reads_4k: usize,
}

const FULL: Shape = Shape {
    ranks: 16,
    record: 47_008,
    records_per_rank: 360,
    cold_opens: 32,
    warm_opens: 32,
    reads_4k: 2000,
};

const TINY: Shape =
    Shape { records_per_rank: 4, cold_opens: 4, warm_opens: 4, reads_4k: 1000, ..FULL };

impl Shape {
    /// Logical offset of rank `r`'s record `i`.
    fn offset(&self, r: usize, i: usize) -> u64 {
        ((i * self.ranks + r) * self.record) as u64
    }
}

struct State {
    shape: &'static Shape,
    /// `payload[r]` = rank `r`'s records back to back, as the oracle
    /// [`fill_payload`] defines them at their logical offsets.
    payload: Vec<Vec<u8>>,
    store: Store,
    fs: Plfs,
}

impl State {
    fn file_size(&self) -> u64 {
        (self.shape.ranks * self.shape.records_per_rank * self.shape.record) as u64
    }

    /// Whether `got` is exactly the file's content at `off`.
    fn matches(&self, mut off: u64, mut got: &[u8]) -> bool {
        let rec = self.shape.record;
        while !got.is_empty() {
            let k = (off / rec as u64) as usize;
            let within = (off % rec as u64) as usize;
            let (r, i) = (k % self.shape.ranks, k / self.shape.ranks);
            if i >= self.shape.records_per_rank {
                return false;
            }
            let n = (rec - within).min(got.len());
            let at = i * rec + within;
            if got[..n] != self.payload[r][at..at + n] {
                return false;
            }
            got = &got[n..];
            off += n as u64;
        }
        true
    }
}

/// `payload[r]`: rank `r`'s records back to back, from the oracle
/// [`fill_payload`], generated once per run, before set-up.
fn payload(shape: &Shape) -> Vec<Vec<u8>> {
    let mut payload = vec![vec![0u8; shape.records_per_rank * shape.record]; shape.ranks];
    for (r, buf) in payload.iter_mut().enumerate() {
        for (i, rec) in buf.chunks_mut(shape.record).enumerate() {
            fill_payload(r as u32, shape.offset(r, i), rec);
        }
    }
    payload
}

/// The stack `setup_s` times: the bottom store and a `Plfs` over it.
fn stack(ctx: &Ctx) -> io::Result<(Store, Plfs)> {
    let store = Store::new(ctx.trace);
    let fs = Plfs::new(store.top.clone(), ctx.plfs_config());
    Ok((store, fs))
}

/// Samples pooled over a run.
#[derive(Default)]
struct Samples {
    write: Rate,
    read: Rate,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    read4k_us: Vec<f64>,
    stored_per_user: Vec<f64>,
    open_close: OpenClose,
    merge_ms: Vec<f64>,
}

pub fn run(ctx: &mut Ctx) -> io::Result<()> {
    let shape = if ctx.tiny { &TINY } else { &FULL };
    let payload = payload(shape);
    let (store, fs) = ctx.set_up(stack)?;
    let st = State { shape, payload, store, fs };
    let mut s = Samples::default();
    let mut round = 0;
    let mut last = 0.0;
    while ctx.another(round, last) {
        let t0 = Instant::now();
        if round > 0 {
            drop(ctx.set_up(stack)?);
        }
        generation(ctx, &st, &mut s, round)?;
        last = t0.elapsed().as_secs_f64();
        round += 1;
    }
    crate::layers::set_enabled(false);

    let e = &mut ctx.e2e;
    e.put("write_MBps", s.write.mbps(), "MB/s");
    e.put("write_cpu_ns_per_B", s.write.cpu_ns_per_byte(), "ns/B");
    e.put("read_MBps", s.read.mbps(), "MB/s");
    e.put("open_cold_ms", median(&s.cold_ms), "ms");
    e.put("open_warm_ms", median(&s.warm_ms), "ms");
    e.put("read4k_p50_us", median(&s.read4k_us), "us");
    if let Some(v) = p99(&s.read4k_us) {
        e.put("read4k_p99_us", v, "us");
    }
    e.put("stored_bytes_per_user_byte", median(&s.stored_per_user), "B/B");
    if ctx.trace {
        common_layer_metrics(ctx, st.store.stats.counts());
        s.open_close.report(&mut ctx.layers);
        ctx.layers.put("index.merge_ms", median(&s.merge_ms), "ms");
    }
    Ok(())
}

fn generation(ctx: &mut Ctx, st: &State, s: &mut Samples, round: usize) -> io::Result<()> {
    let traced = ctx.trace_round(round);
    let shape = st.shape;
    let file = format!("/ckpt.{round}");
    let user_bytes = st.file_size();
    let reg = ctx.registry.clone();
    let reg_at = |name: &str| reg.value(name).unwrap_or(0);

    // Write phase: first open_writer to last close.
    let (probe, marks, cpu0) = (Probe::start(), ctx.write_marks(), process_cpu_ns());
    let record = |r: usize, i: usize| {
        (shape.offset(r, i), &st.payload[r][i * shape.record..(i + 1) * shape.record])
    };
    let wall = checkpoint(
        ctx,
        &st.fs,
        &file,
        shape.ranks,
        shape.records_per_rank,
        record,
        &mut s.open_close,
    )?;
    ctx.end_write(probe, marks, wall, user_bytes, &[Layer::Write, Layer::Filesystem]);
    s.write.add_with_cpu(user_bytes, wall, cpu0);
    s.stored_per_user.push(st.store.mem.total_bytes() as f64 / user_bytes as f64);
    if traced {
        s.merge_ms.push(merge_ms(st, &file)?);
    }
    if ctx.corrupt && round == 0 {
        let paths = ContainerPaths::new(&file, st.fs.config().hostdirs);
        flip_byte(st.store.mem.as_ref(), &paths.data_dropping(0))?;
    }

    // Restart: a fresh Plfs over the same store.
    let fs = Plfs::new(st.store.top.clone(), ctx.plfs_config());
    let canonical = ContainerPaths::new(&file, fs.config().hostdirs).canonical_index();
    let probe = Probe::start();
    let mut open_ns = 0u64;
    let mut cold_stats = None;
    for _ in 0..shape.cold_opens {
        let _ = st.store.mem.remove(&canonical);
        let t = Instant::now();
        let r = span(Layer::Index, || fs.open_reader(&file));
        let dt = t.elapsed();
        open_ns += dt.as_nanos() as u64;
        s.cold_ms.push(dt.as_secs_f64() * 1e3);
        cold_stats = Some(ctx.op(r)?.stats());
    }
    let hits_cold = reg_at("plfs.index.canonical_hits");
    for _ in 0..shape.warm_opens {
        let t = Instant::now();
        let r = span(Layer::Index, || fs.open_reader(&file));
        let dt = t.elapsed();
        open_ns += dt.as_nanos() as u64;
        s.warm_ms.push(dt.as_secs_f64() * 1e3);
        ctx.op(r)?;
    }
    ctx.phase("open").end(probe, open_ns, 0, &[]);
    if traced {
        let cs = cold_stats.expect("cold opens ran");
        let t = &mut ctx.layers;
        t.put("index.raw_entries", cs.raw_entries as f64, "count");
        t.put("index.merged_extents", cs.merged_extents as f64, "count");
        t.put("index.bytes_per_user_B", cs.index_bytes as f64 / user_bytes as f64, "B/B");
        let warm_hits = reg_at("plfs.index.canonical_hits") - hits_cold;
        t.put("canonical.hit_ratio", ratio(warm_hits as f64, shape.warm_opens as f64), "1");
    }

    // Sequential 1 MiB scan on a fresh reader; open time excluded.
    let reader = ctx.op(fs.open_reader(&file))?;
    let (ops0, ra0, bytes0) = (
        reg_at("plfs.read.backend_ops"),
        reg_at("plfs.read.readahead_hits"),
        reg_at("plfs.read.bytes"),
    );
    let verify0 = reg_at("plfs.verify.bytes");
    let bottom0 = st.store.stats.counts();
    let probe = Probe::start();
    let read_ns = scan(ctx, &reader, user_bytes, |off, got| st.matches(off, got));
    let verified = reg_at("plfs.verify.bytes") - verify0;
    // A 1 MiB read spans all sixteen droppings, so the engine fans it
    // out to pool threads and they, not the generator, verify it.
    ctx.phase("read").end(probe, read_ns, verified, &[]);
    s.read.add(user_bytes, Duration::from_nanos(read_ns));
    if traced {
        let delivered = (reg_at("plfs.read.bytes") - bytes0) as f64;
        let ops = (reg_at("plfs.read.backend_ops") - ops0) as f64;
        let hits = (reg_at("plfs.read.readahead_hits") - ra0) as f64;
        let backend_b = (st.store.stats.counts() - bottom0)[Count::ReadBytes] as f64;
        let t = &mut ctx.layers;
        t.put("read.backend_ops_per_MiB", ratio(ops, delivered / MIB), "1/MiB");
        t.put("read.readahead_hit_ratio", ratio(hits, hits + ops), "1");
        t.put("read.backend_B_per_delivered_B", ratio(backend_b, delivered), "B/B");
    }
    drop(reader);

    // Seeded uniform 4 KiB reads on a fresh reader.
    let reader = ctx.op(fs.open_reader(&file))?;
    let mut rng = Rng::new(ctx.seed).fork(round as u64);
    let offsets: Vec<u64> = (0..shape.reads_4k).map(|_| rng.below(user_bytes - 4096 + 1)).collect();
    let batches = reg.counter("plfs.read.batches");
    let (verify0, bytes0) = (reg_at("plfs.verify.bytes"), reg_at("plfs.read.bytes"));
    let probe = Probe::start();
    let mut multi = 0u64;
    let mut small_ns = 0u64;
    let mut small = [0u8; 4096];
    for &off in &offsets {
        let b0 = batches.get();
        let t = Instant::now();
        let got = span(Layer::Read, || reader.read_at(off, &mut small));
        let dt = t.elapsed();
        small_ns += dt.as_nanos() as u64;
        multi += (batches.get() - b0 > 1) as u64;
        s.read4k_us.push(dt.as_secs_f64() * 1e6);
        if let Ok(n) = ctx.op(got) {
            ctx.check(n == small.len() && st.matches(off, &small));
        }
    }
    let verified = reg_at("plfs.verify.bytes") - verify0;
    ctx.phase("read4k").end(probe, small_ns, verified, &[Layer::Read]);
    if traced {
        let delivered = (reg_at("plfs.read.bytes") - bytes0) as f64;
        let t = &mut ctx.layers;
        t.put("read.multi_batch_share", multi as f64 / offsets.len() as f64, "1");
        t.put("checksum.verify_B_per_read_B", ratio(verified as f64, delivered), "B/B");
    }
    drop(reader);
    crate::layers::set_enabled(false);
    ctx.op(st.fs.unlink(&file))?;
    Ok(())
}

/// Decode + merge of the container's index droppings, timed directly on
/// the `index` module (store reads excluded).
fn merge_ms(st: &State, file: &str) -> io::Result<f64> {
    let store: &dyn Backend = st.store.mem.as_ref();
    let paths = ContainerPaths::new(file, st.fs.config().hostdirs);
    let blobs = discover_droppings(store, &paths)?
        .iter()
        .map(|(_, index, _)| store.read_all(index))
        .collect::<io::Result<Vec<_>>>()?;
    let t = Instant::now();
    let mut entries = Vec::new();
    for blob in &blobs {
        entries.extend(decode(blob)?);
    }
    let map = IndexMap::build(entries);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(map.extents().len());
    Ok(ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_byte() {
        let ctx = Ctx::new(1, 0.0, false, true, false);
        let (store, fs) = stack(&ctx).unwrap();
        let st = State { shape: &TINY, payload: payload(&TINY), store, fs };
        // 100 bytes of rank 0's first record, then rank 1's first record.
        let rec = TINY.record;
        let mut got = st.payload[0][rec - 100..rec].to_vec();
        got.extend_from_slice(&st.payload[1][..3996]);
        let off = rec as u64 - 100;
        assert!(st.matches(off, &got));
        for at in [0, 99, 100, 4095] {
            got[at] ^= 1;
            assert!(!st.matches(off, &got), "byte {at} flipped");
            got[at] ^= 1;
        }
        assert!(!st.matches(st.file_size() - 10, &got), "past the end");
    }
}
