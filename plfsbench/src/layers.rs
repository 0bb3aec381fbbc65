//! Per-layer attribution for the traced run.
//!
//! Nothing here reaches inside the program. The benchmark wraps each
//! call it makes into a `plfs` public function in [`span`], and wraps
//! the stores under PLFS in [`Timed`], a `Backend` decorator that does
//! the same for every store call. A span's *self time* is its duration
//! minus the spans nested inside it on the same thread, so the self
//! times of one thread partition that thread's time in spans.
//!
//! Self times from the generator thread (the one thread that drives a
//! workload) are kept apart from those of helper threads (the read
//! engine's scoped workers, the ingest service's drains, the scrub
//! pool): shares of a phase are computed from the generator thread
//! only, so they sum to 1 with the phase's `unattributed_share`. Helper
//! threads only ever enter the [`Timed`] stores, so their self time is
//! known for the `chunk` and `backend` layers and is reported as
//! separate busy shares, which may overlap the generator's time.
//!
//! Tracing is off unless [`set_enabled`] turns it on; when off, a span
//! costs one relaxed atomic load.

use plfs::Backend;
use std::cell::{Cell, RefCell};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The `plfs` modules a phase's time is split across (`fsck` runs
/// outside the timed phases and is timed directly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Filesystem,
    Write,
    Checksum,
    Index,
    Read,
    Chunk,
    Service,
    Backend,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Filesystem,
    Layer::Write,
    Layer::Checksum,
    Layer::Index,
    Layer::Read,
    Layer::Chunk,
    Layer::Service,
    Layer::Backend,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Filesystem => "filesystem",
            Layer::Write => "write",
            Layer::Checksum => "checksum",
            Layer::Index => "index",
            Layer::Read => "read",
            Layer::Chunk => "chunk",
            Layer::Service => "service",
            Layer::Backend => "backend",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GEN_SELF: [AtomicU64; LAYERS.len()] = [const { AtomicU64::new(0) }; LAYERS.len()];
static HELPER_SELF: [AtomicU64; LAYERS.len()] = [const { AtomicU64::new(0) }; LAYERS.len()];

thread_local! {
    /// Child-time accumulators of the spans open on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static GENERATOR: Cell<bool> = const { Cell::new(false) };
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Mark the calling thread as the workload's generator.
pub fn mark_generator() {
    GENERATOR.with(|g| g.set(true));
}

/// Run `f` as a span of `layer`.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push(0));
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_nanos() as u64;
    let child = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let child = s.pop().unwrap_or(0);
        if let Some(parent) = s.last_mut() {
            *parent += dt;
        }
        child
    });
    let table = if GENERATOR.with(|g| g.get()) { &GEN_SELF } else { &HELPER_SELF };
    table[layer as usize].fetch_add(dt.saturating_sub(child), Relaxed);
    out
}

/// Self time per layer since process start, in ns: generator thread
/// first, helper threads second.
pub fn self_times() -> [[u64; LAYERS.len()]; 2] {
    [&GEN_SELF, &HELPER_SELF].map(|t| std::array::from_fn(|i| t[i].load(Relaxed)))
}

/// Totals a [`Timed`] store keeps.
#[derive(Clone, Copy)]
pub enum Count {
    Appends,
    AppendBytes,
    AppendNs,
    Reads,
    ReadBytes,
    ReadNs,
    /// Bytes read from paths outside the chunk pool (manifests, for
    /// the store under a `ChunkBackend`).
    NonpoolReadBytes,
    /// `exists` probes on chunk-pool paths.
    PoolExists,
    /// Every call other than append and read.
    Meta,
    MetaNs,
}

const COUNTS: usize = Count::MetaNs as usize + 1;

#[derive(Default)]
pub struct OpStats([AtomicU64; COUNTS]);

/// A plain-number copy of [`OpStats`], for deltas.
#[derive(Clone, Copy, Default)]
pub struct OpCounts([u64; COUNTS]);

impl OpStats {
    fn add(&self, c: Count, n: u64) {
        self.0[c as usize].fetch_add(n, Relaxed);
    }

    pub fn counts(&self) -> OpCounts {
        OpCounts(std::array::from_fn(|i| self.0[i].load(Relaxed)))
    }
}

impl std::ops::Index<Count> for OpCounts {
    type Output = u64;
    fn index(&self, c: Count) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::Sub for OpCounts {
    type Output = OpCounts;
    fn sub(self, o: OpCounts) -> OpCounts {
        OpCounts(std::array::from_fn(|i| self.0[i] - o.0[i]))
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }
}

fn in_pool(path: &str) -> bool {
    path.starts_with(plfs::chunk::DEFAULT_POOL_ROOT)
}

/// Timing `Backend` decorator: every call becomes a span of `layer`
/// and is counted in `stats`.
pub struct Timed {
    inner: Arc<dyn Backend>,
    layer: Layer,
    pub stats: Arc<OpStats>,
}

enum Kind {
    Append(u64),
    Read,
    Exists,
    Meta,
}

impl Timed {
    pub fn new(inner: Arc<dyn Backend>, layer: Layer) -> Self {
        Timed { inner, layer, stats: Arc::default() }
    }

    fn call<T>(&self, kind: Kind, path: &str, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = span(self.layer, f);
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &self.stats;
        match kind {
            Kind::Append(n) => {
                s.add(Count::Appends, 1);
                s.add(Count::AppendBytes, n);
                s.add(Count::AppendNs, ns);
            }
            Kind::Read => {
                s.add(Count::Reads, 1);
                s.add(Count::ReadNs, ns);
            }
            Kind::Exists | Kind::Meta => {
                if matches!(kind, Kind::Exists) && in_pool(path) {
                    s.add(Count::PoolExists, 1);
                }
                s.add(Count::Meta, 1);
                s.add(Count::MetaNs, ns);
            }
        }
        out
    }

    fn count_read(&self, path: &str, n: usize) {
        if enabled() {
            self.stats.add(Count::ReadBytes, n as u64);
            if !in_pool(path) {
                self.stats.add(Count::NonpoolReadBytes, n as u64);
            }
        }
    }
}

impl Backend for Timed {
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        self.call(Kind::Meta, path, || self.inner.mkdir_all(path))
    }
    fn create(&self, path: &str) -> io::Result<()> {
        self.call(Kind::Meta, path, || self.inner.create(path))
    }
    fn create_new(&self, path: &str) -> io::Result<()> {
        self.call(Kind::Meta, path, || self.inner.create_new(path))
    }
    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        self.call(Kind::Append(data.len() as u64), path, || self.inner.append(path, data))
    }
    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let got = self.call(Kind::Read, path, || self.inner.read_at(path, off, buf));
        if let Ok(n) = &got {
            self.count_read(path, *n);
        }
        got
    }
    fn read_all(&self, path: &str) -> io::Result<Vec<u8>> {
        let got = self.call(Kind::Read, path, || self.inner.read_all(path));
        if let Ok(v) = &got {
            self.count_read(path, v.len());
        }
        got
    }
    fn len(&self, path: &str) -> io::Result<u64> {
        self.call(Kind::Meta, path, || self.inner.len(path))
    }
    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.call(Kind::Meta, dir, || self.inner.list(dir))
    }
    fn exists(&self, path: &str) -> bool {
        self.call(Kind::Exists, path, || self.inner.exists(path))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.call(Kind::Meta, from, || self.inner.rename(from, to))
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        self.call(Kind::Meta, path, || self.inner.remove(path))
    }
    fn remove_dir_all(&self, path: &str) -> io::Result<()> {
        self.call(Kind::Meta, path, || self.inner.remove_dir_all(path))
    }
}
