//! What every workload shares: the run context (seed, time budget,
//! op ledger, metric tables), the store stack, set-up timing, and the
//! traced run's phase accounting.

use crate::layers::{self, span, Count, Layer, OpCounts, OpStats, Timed, LAYERS};
use crate::stats::{median, process_cpu_ns, ratio, Table};
use plfs::read::Reader;
use plfs::{Backend, MemBackend, Plfs};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MIB: f64 = 1048576.0;
const SEQ_READ: usize = 1 << 20;
/// Stack builds timed for `setup_s` per call of [`Ctx::set_up`].
const SETUP_REPS: usize = 31;

/// Phases a traced run splits; every workload reports all of them
/// (zeros for a phase it does not run).
pub const PHASES: [&str; 4] = ["write", "read", "open", "read4k"];

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the self-test.
    pub tiny: bool,
    /// Flip one byte of a data dropping after the first write phase
    /// (self-test of the oracle).
    pub corrupt: bool,
    /// Public `plfs` calls made, and how many failed or delivered
    /// wrong bytes.
    pub attempted: u64,
    pub failed: u64,
    /// Calls made while tracing was on.
    pub traced_ops: u64,
    /// Every timed stack build (s); `setup_s` is their median.
    pub setup_s: Vec<f64>,
    pub e2e: Table,
    pub layers: Table,
    /// Shared by every `Plfs` (and `ChunkBackend`) the workload builds,
    /// so the program's own `plfs.*`/`chunk.*`/`svc.*` series can be read.
    pub registry: obs::Registry,
    /// When measurement began (after set-up).
    measure_start: Instant,
    pub phases: Vec<Phase>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, tiny: bool, corrupt: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            tiny,
            corrupt,
            attempted: 0,
            failed: 0,
            traced_ops: 0,
            setup_s: Vec::new(),
            e2e: Table::default(),
            layers: Table::default(),
            registry: obs::Registry::new(),
            measure_start: Instant::now(),
            phases: PHASES.iter().map(|&name| Phase::new(name)).collect(),
        }
    }

    /// Count one public call; a failed call counts as failed.
    pub fn op<T>(&mut self, res: io::Result<T>) -> io::Result<T> {
        self.attempted += 1;
        self.traced_ops += layers::enabled() as u64;
        if res.is_err() {
            self.failed += 1;
        }
        res
    }

    /// A delivered buffer that does not match the oracle.
    pub fn check(&mut self, matches: bool) {
        if !matches {
            self.failed += 1;
        }
    }

    /// A `PlfsConfig` that records into the run's registry.
    pub fn plfs_config(&self) -> plfs::PlfsConfig {
        plfs::PlfsConfig { metrics: self.registry.clone(), ..Default::default() }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.registry.value(name).unwrap_or(0)
    }

    /// Build the workload's stack `SETUP_REPS` times, timing each build
    /// alone for `setup_s`; returns the last build and drops the others
    /// untimed. The inputs are generated before, untimed, so `setup_s`
    /// is the program's own construction cost. A workload calls this
    /// once before measurement starts and again before every later
    /// round, discarding those builds, so that the median samples the
    /// whole run rather than one moment of a shared host.
    pub fn set_up<S>(&mut self, mut build: impl FnMut(&Ctx) -> io::Result<S>) -> io::Result<S> {
        let first = self.setup_s.is_empty();
        let reps = if self.tiny { 3 } else { SETUP_REPS };
        let mut stack = None;
        for _ in 0..reps {
            drop(stack.take());
            let t0 = Instant::now();
            let built = build(self)?;
            self.setup_s.push(t0.elapsed().as_secs_f64());
            stack = Some(built);
        }
        if first {
            self.measure_start = Instant::now();
        }
        Ok(stack.expect("at least one build"))
    }

    /// Whether to start another round, expected to take `last_s`
    /// seconds like the last, having done `done`: the run ends at the
    /// round boundary nearest the time budget. One round always runs; a
    /// traced run needs two (one traced, one not).
    pub fn another(&self, done: usize, last_s: f64) -> bool {
        let end = self.measure_start.elapsed().as_secs_f64() + last_s / 2.0;
        done < 1 + self.trace as usize || end <= self.seconds
    }

    /// In a traced run, alternate traced and untraced rounds so each
    /// phase's tracing overhead can be measured; returns whether round
    /// `n` is traced.
    pub fn trace_round(&self, n: usize) -> bool {
        let on = self.trace && n % 2 == 1;
        layers::set_enabled(on);
        on
    }

    pub fn phase(&mut self, name: &str) -> &mut Phase {
        self.phases.iter_mut().find(|p| p.name == name).expect("known phase")
    }

    /// Bytes checksummed on the write path so far (data and index
    /// droppings are both covered), and data appends issued.
    pub fn write_marks(&self) -> [u64; 2] {
        let bytes = self.counter("plfs.write.bytes") + self.counter("plfs.write.index_bytes");
        [bytes, self.counter("plfs.write.data_appends")]
    }

    /// Close a write-phase round begun at `probe`/`marks` that took
    /// `wall` for `user_bytes`; checksum time is carved out of the
    /// generator's `carve` layers (empty when other threads checksum).
    pub fn end_write(
        &mut self,
        probe: Probe,
        marks: [u64; 2],
        wall: Duration,
        user_bytes: u64,
        carve: &'static [Layer],
    ) {
        let now = self.write_marks();
        if probe.traced {
            let per_mib = (now[1] - marks[1]) as f64 / (user_bytes as f64 / MIB);
            self.layers.put("write.data_appends_per_MiB", per_mib, "1/MiB");
        }
        self.phase("write").end(probe, wall.as_nanos() as u64, now[0] - marks[0], carve);
    }
}

/// Bytes moved and the time it took, summed over a run's rounds: a
/// rate over the whole run rather than a median of per-round rates.
/// `cpu_ns` is the process CPU time of the same stretches, where the
/// caller measured it.
#[derive(Default)]
pub struct Rate {
    bytes: u64,
    ns: u128,
    cpu_ns: u64,
}

impl Rate {
    pub fn add(&mut self, bytes: u64, took: Duration) {
        self.bytes += bytes;
        self.ns += took.as_nanos();
    }

    /// Like [`Rate::add`], for a stretch that began at `cpu0` =
    /// [`process_cpu_ns`] and ends now.
    pub fn add_with_cpu(&mut self, bytes: u64, took: Duration, cpu0: u64) {
        self.add(bytes, took);
        self.cpu_ns += process_cpu_ns() - cpu0;
    }

    pub fn mbps(&self) -> f64 {
        ratio(self.bytes as f64 * 1e3, self.ns as f64)
    }

    pub fn cpu_ns_per_byte(&self) -> f64 {
        ratio(self.cpu_ns as f64, self.bytes as f64)
    }
}

/// Microseconds since `t`.
pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Latencies of the filesystem calls that open and close writers.
#[derive(Default)]
pub struct OpenClose {
    pub open_writer_us: Vec<f64>,
    pub close_us: Vec<f64>,
}

impl OpenClose {
    pub fn report(&self, t: &mut Table) {
        t.put("filesystem.open_writer_us", median(&self.open_writer_us), "us");
        t.put("filesystem.close_us", median(&self.close_us), "us");
    }
}

/// A rank-strided checkpoint of `file`: a writer per rank, then
/// `records` rounds of one `write_at` per rank issued round-robin from
/// this thread, then every `close`. `record(r, i)` gives the offset and
/// bytes of rank `r`'s record `i`. Returns the time from the first open
/// to the last close.
pub fn checkpoint<'a>(
    ctx: &mut Ctx,
    fs: &Plfs,
    file: &str,
    ranks: usize,
    records: usize,
    record: impl Fn(usize, usize) -> (u64, &'a [u8]),
    lat: &mut OpenClose,
) -> io::Result<Duration> {
    let t0 = Instant::now();
    let mut writers = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let t = Instant::now();
        let w = span(Layer::Filesystem, || fs.open_writer(file, r as u32));
        lat.open_writer_us.push(micros(t));
        writers.push(ctx.op(w)?);
    }
    for i in 0..records {
        for (r, w) in writers.iter_mut().enumerate() {
            let (off, data) = record(r, i);
            ctx.op(span(Layer::Write, || w.write_at(off, data)))?;
        }
    }
    for w in writers {
        let t = Instant::now();
        let res = span(Layer::Filesystem, || w.close());
        lat.close_us.push(micros(t));
        ctx.op(res)?;
    }
    Ok(t0.elapsed())
}

/// Read `size` bytes of `reader` front to back in 1 MiB calls, checking
/// each delivered buffer with `matches(offset, bytes)`. Returns the time
/// spent inside `read_at`, in ns.
pub fn scan(
    ctx: &mut Ctx,
    reader: &Reader,
    size: u64,
    matches: impl Fn(u64, &[u8]) -> bool,
) -> u64 {
    let mut buf = vec![0u8; SEQ_READ];
    let mut ns = 0u64;
    let mut pos = 0u64;
    while pos < size {
        let t = Instant::now();
        let got = span(Layer::Read, || reader.read_at(pos, &mut buf));
        ns += t.elapsed().as_nanos() as u64;
        match ctx.op(got) {
            Ok(0) => {
                ctx.check(false);
                break;
            }
            Ok(n) => {
                ctx.check(matches(pos, &buf[..n]));
                pos += n as u64;
            }
            Err(_) => pos += SEQ_READ as u64,
        }
    }
    ns
}

/// The bottom store: a plain `MemBackend`, under a [`Timed`] decorator
/// in a traced run.
pub struct Store {
    pub mem: Arc<MemBackend>,
    pub top: Arc<dyn Backend>,
    pub stats: Arc<OpStats>,
}

impl Store {
    pub fn new(trace: bool) -> Store {
        let mem = Arc::new(MemBackend::new());
        let (top, stats) = wrap(mem.clone(), trace, Layer::Backend);
        Store { mem, top, stats }
    }
}

/// `inner` under a [`Timed`] decorator of `layer` if tracing, else bare.
pub fn wrap(
    inner: Arc<dyn Backend>,
    trace: bool,
    layer: Layer,
) -> (Arc<dyn Backend>, Arc<OpStats>) {
    if trace {
        let timed = Timed::new(inner, layer);
        let stats = timed.stats.clone();
        (Arc::new(timed), stats)
    } else {
        (inner, Arc::default())
    }
}

/// Flip one byte in the middle of `path`, through the `Backend` API.
pub fn flip_byte(store: &dyn Backend, path: &str) -> io::Result<()> {
    let mut data = store.read_all(path)?;
    let mid = data.len() / 2;
    data[mid] ^= 0x5a;
    store.create(path)?;
    store.append(path, &data).map(|_| ())
}

/// One phase of a traced run, accumulated over rounds.
pub struct Phase {
    pub name: &'static str,
    /// Per-round wall time (ns) of traced and untraced rounds.
    traced: Vec<f64>,
    untraced: Vec<f64>,
    /// Self time per layer over traced rounds: generator, helpers.
    self_ns: [[u64; LAYERS.len()]; 2],
    wall_ns: u64,
    /// Bytes the generator thread checksummed inside calls of the given
    /// layer (write or read), over traced rounds.
    checksummed: u64,
    checksum_in: &'static [Layer],
}

/// Snapshot taken when a phase round starts.
pub struct Probe {
    traced: bool,
    self_ns: [[u64; LAYERS.len()]; 2],
}

impl Probe {
    pub fn start() -> Probe {
        Probe { traced: layers::enabled(), self_ns: layers::self_times() }
    }
}

impl Phase {
    fn new(name: &'static str) -> Phase {
        Phase {
            name,
            traced: Vec::new(),
            untraced: Vec::new(),
            self_ns: [[0; LAYERS.len()]; 2],
            wall_ns: 0,
            checksummed: 0,
            checksum_in: &[],
        }
    }

    /// Close a round begun at `probe` that took `wall_ns` of the
    /// phase's wall time, during which `checksummed` bytes were
    /// checksummed, by the generator inside calls of the layers
    /// `checksum_in` (empty when other threads did it).
    pub fn end(
        &mut self,
        probe: Probe,
        wall_ns: u64,
        checksummed: u64,
        checksum_in: &'static [Layer],
    ) {
        if !probe.traced {
            self.untraced.push(wall_ns as f64);
            return;
        }
        self.traced.push(wall_ns as f64);
        let now = layers::self_times();
        let deltas = now.iter().flatten().zip(probe.self_ns.iter().flatten()).map(|(n, p)| n - p);
        for (acc, d) in self.self_ns.iter_mut().flatten().zip(deltas) {
            *acc += d;
        }
        self.wall_ns += wall_ns;
        self.checksummed += checksummed;
        self.checksum_in = checksum_in;
    }

    /// Generator self-time share per layer, and the unattributed
    /// remainder, so that the shares sum to 1. Checksum time (bytes ×
    /// the measured kernel rate) is carved out of the layers that ran
    /// it, in order, as far as their self time goes.
    pub fn shares(&self, crc_ns_per_b: f64) -> Option<([f64; LAYERS.len()], f64)> {
        if self.wall_ns == 0 {
            return None;
        }
        let mut ns = self.self_ns[0].map(|v| v as f64);
        let mut left = self.checksummed as f64 * crc_ns_per_b;
        for &host in self.checksum_in {
            let carve = left.min(ns[host as usize]);
            ns[host as usize] -= carve;
            ns[Layer::Checksum as usize] += carve;
            left -= carve;
        }
        let wall = self.wall_ns as f64;
        let shares = ns.map(|v| v / wall);
        Some((shares, 1.0 - shares.iter().sum::<f64>()))
    }

    pub fn share_of(&self, layer: Layer, crc_ns_per_b: f64) -> f64 {
        self.shares(crc_ns_per_b).map_or(0.0, |(s, _)| s[layer as usize])
    }

    /// Helper-thread self time of `layer` ÷ the phase wall.
    pub fn helper_share(&self, layer: Layer) -> f64 {
        ratio(self.self_ns[1][layer as usize] as f64, self.wall_ns as f64)
    }

    pub fn wall_ns(&self) -> f64 {
        self.wall_ns as f64
    }

    /// Traced wall ÷ untraced wall − 1, on the round medians.
    pub fn overhead(&self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return 0.0;
        }
        median(&self.traced) / median(&self.untraced) - 1.0
    }
}

/// Kernel rate in ns per byte: `f` over `buf` repeated for ~40 ms.
fn ns_per_byte(buf: &[u8], f: impl Fn(&[u8]) -> u64) -> f64 {
    let mut sink = 0u64;
    let mut bytes = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 40 {
        sink = sink.wrapping_add(f(std::hint::black_box(buf)));
        bytes += buf.len() as u64;
    }
    std::hint::black_box(sink);
    t0.elapsed().as_nanos() as f64 / bytes as f64
}

/// Per-layer metrics every workload reports in a traced run: kernel
/// rates, per-phase shares and tracing overhead, and the named shares
/// of the write and read phases. `bottom` is what the bottom store saw
/// in traced rounds. Returns the CRC32 rate (ns/B).
pub fn common_layer_metrics(ctx: &mut Ctx, bottom: OpCounts) -> f64 {
    let mut buf = vec![0u8; 1 << 20];
    workloads::oplog::fill_payload(7, 0, &mut buf);
    let crc = ns_per_byte(&buf, |b| plfs::crc32(b) as u64);
    let crc4k = ns_per_byte(&buf[..4096], |b| plfs::crc32(b) as u64);
    let sha = ns_per_byte(&buf, |b| plfs::sha256(b)[0] as u64);
    let Ctx { layers: t, phases, traced_ops, .. } = ctx;
    t.put("checksum.crc32_ns_per_B", crc, "ns/B");
    t.put("checksum.crc32_4k_ns_per_B", crc4k, "ns/B");
    t.put("chunk.sha256_ns_per_B", sha, "ns/B");
    let mut all_wall = 0.0;
    for p in phases.iter() {
        all_wall += p.wall_ns();
        let (shares, rest) = p.shares(crc).unwrap_or(([0.0; LAYERS.len()], 0.0));
        for l in LAYERS {
            t.put(format!("phase.{}.{}_share", p.name, l.name()), shares[l as usize], "1");
        }
        t.put(format!("phase.{}.unattributed_share", p.name), rest, "1");
        for l in [Layer::Chunk, Layer::Backend] {
            t.put(format!("phase.{}.helper_{}_share", p.name, l.name()), p.helper_share(l), "1");
        }
        t.put(format!("trace.overhead.{}", p.name), p.overhead(), "1");
    }
    let (w, r) = (&phases[0], &phases[1]);
    t.put("checksum.write_share", ratio(w.checksummed as f64 * crc, w.wall_ns()), "1");
    t.put("checksum.read_share", ratio(r.checksummed as f64 * crc, r.wall_ns()), "1");
    t.put("write.self_share", w.share_of(Layer::Write, crc), "1");
    t.put("chunk.write_share", w.share_of(Layer::Chunk, crc), "1");
    t.put("read.self_share", r.share_of(Layer::Read, crc), "1");
    t.put("chunk.read_share", r.share_of(Layer::Chunk, crc), "1");
    t.put("backend.append_share", ratio(bottom[Count::AppendNs] as f64, w.wall_ns()), "1");
    t.put("backend.read_share", ratio(bottom[Count::ReadNs] as f64, all_wall), "1");
    t.put(
        "backend.meta_calls_per_op",
        ratio(bottom[Count::Meta] as f64, *traced_ops as f64),
        "calls/op",
    );
    crc
}
