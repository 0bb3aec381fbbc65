//! The PLFS instrumentation bundle.
//!
//! One [`PlfsMetrics`] is built from the [`PlfsConfig`] of each
//! [`crate::Plfs`] instance and cloned (via `Arc`) into every writer
//! and reader it hands out, so the whole stack records into a single
//! [`Registry`] and stamps from a single [`Clock`] — the flight
//! recorder's when one is attached, else logical from 1. The write
//! path, read path, retry layer and recorder share one time source
//! instead of threading ad-hoc `Arc<AtomicU64>`s.
//!
//! Series schema (all under the instance's registry):
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `plfs.write.ops` | counter | `write_at` calls |
//! | `plfs.write.bytes` | counter | logical bytes written |
//! | `plfs.write.errors` | counter | `write_at` calls that returned an error |
//! | `plfs.write.lat_ns` | histogram | `write_at` wall/logical duration |
//! | `plfs.write.data_appends` | counter | data-dropping appends issued |
//! | `plfs.write.index_appends` | counter | index-dropping appends issued |
//! | `plfs.write.index_bytes` | counter | encoded index bytes persisted |
//! | `plfs.read.ops` | counter | `read_at` calls |
//! | `plfs.read.bytes` | counter | logical bytes actually delivered (failed reads count nothing) |
//! | `plfs.read.errors` | counter | `read_at` calls that returned an error |
//! | `plfs.read.lat_ns` | histogram | `read_at` wall/logical duration |
//! | `plfs.read.batches` | counter | coalesced per-dropping read batches issued |
//! | `plfs.read.backend_ops` | counter | backend `read_at` calls the engine issued |
//! | `plfs.read.coalesced_bytes` | counter | bytes served by batches that merged ≥ 2 extents |
//! | `plfs.read.readahead_hits` | counter | batches served entirely from the readahead cache |
//! | `plfs.read.parallelism` | histogram | peak concurrent batch workers per `read_at` |
//! | `plfs.read.open_ns` | histogram | container-open (index merge) spans |
//! | `plfs.index.merge_fanin` | histogram | writers merged per open |
//! | `plfs.index.raw_entries` | counter | index entries decoded |
//! | `plfs.index.tail_entries` | counter | entries decoded from dropping tails past a cache stamp |
//! | `plfs.index.merged_extents` | counter | extents after overlap merge |
//! | `plfs.index.bytes_read` | counter | index-dropping bytes fetched |
//! | `plfs.index.merge_steps` | counter | logical merge cost (see [`crate::index::IndexMap::merge_steps`]) |
//! | `plfs.index.decode_concurrency` | histogram | peak concurrent fetch+decode workers per open |
//! | `plfs.index.canonical_hits` | counter | opens served from the flattened-index cache |
//! | `plfs.index.canonical_writes` | counter | flattened-index caches persisted |
//! | `plfs.verify.blocks` | counter | checksum blocks verified on the read path |
//! | `plfs.verify.bytes` | counter | bytes covered by read-path verification |
//! | `plfs.verify.failures` | counter | blocks whose checksum mismatched (first detection per reader) |
//!
//! The retry layer adds `retry.*` (see [`crate::retry::RetryObs`]) and
//! fault injection adds `faults.*` (see
//! [`crate::faults::FaultyBackend::export_into`]).

use crate::filesystem::PlfsConfig;
use crate::record::OpLogRecorder;
use obs::recorder::Recorder;
use obs::trace::TraceCtx;
use obs::{Clock, Counter, Histogram, Registry, Timer};
use std::sync::Arc;

/// Counter/histogram handles for one PLFS instance.
#[derive(Debug, Clone)]
pub struct PlfsMetrics {
    /// The registry every series lives in (shared, clonable).
    pub registry: Registry,
    /// The instance-wide time source: the flight recorder's clock when
    /// one is attached, else logical from 1 (index timestamps are
    /// sequence numbers).
    pub clock: Clock,
    /// Causal trace handle (disabled unless [`PlfsConfig::trace`] is
    /// set); reads the clock without stamping, so enabling tracing
    /// never perturbs index timestamps.
    pub trace: TraceCtx,
    pub write_ops: Counter,
    pub write_bytes: Counter,
    pub write_errors: Counter,
    pub read_errors: Counter,
    pub data_appends: Counter,
    pub index_appends: Counter,
    pub index_bytes_written: Counter,
    pub read_ops: Counter,
    pub read_bytes: Counter,
    pub read_batches: Counter,
    pub read_backend_ops: Counter,
    pub read_coalesced_bytes: Counter,
    pub read_readahead_hits: Counter,
    pub index_bytes_read: Counter,
    pub raw_entries: Counter,
    pub tail_entries: Counter,
    pub merged_extents: Counter,
    pub merge_steps: Counter,
    pub canonical_hits: Counter,
    pub canonical_writes: Counter,
    pub verify_blocks: Counter,
    pub verify_bytes: Counter,
    pub verify_failures: Counter,
    pub merge_fanin: Histogram,
    pub decode_concurrency: Histogram,
    pub read_parallelism: Histogram,
    pub write_lat: Histogram,
    pub read_lat: Histogram,
    pub open_timer: Timer,
    /// Op-log capture hook (see [`crate::record`]); `None` = capture
    /// off, the default. Rides in the metrics bundle because writers
    /// and readers already receive exactly this bundle.
    pub recorder: Option<Arc<OpLogRecorder>>,
    /// Flight-recorder probe (see [`obs::recorder`]): the hot paths
    /// call `flight.maybe_sample()` once per op, which snapshots the
    /// registry onto the recorder's ring whenever a cadence deadline
    /// has passed. Disabled by default — the disabled probe is a single
    /// branch on `None`.
    pub flight: Recorder,
}

impl PlfsMetrics {
    /// Handles registered in `cfg.metrics`, with `cfg`'s trace sink,
    /// op-log capture and flight recorder. The instance clock is the
    /// recorder's, so frame cadence, `lat_ns` and spans share one time
    /// base; without a recorder it is logical from 1, keeping stamp 0
    /// "never written". Index ordering only needs monotonicity, which
    /// both modes provide.
    pub fn new(cfg: &PlfsConfig) -> Arc<Self> {
        let clock = cfg.flight.clock().cloned().unwrap_or_else(|| Clock::logical_at(1));
        let registry = &cfg.metrics;
        Arc::new(PlfsMetrics {
            registry: registry.clone(),
            clock: clock.clone(),
            trace: TraceCtx::new(cfg.trace.clone(), clock.clone()),
            write_ops: registry.counter("plfs.write.ops"),
            write_bytes: registry.counter("plfs.write.bytes"),
            write_errors: registry.counter("plfs.write.errors"),
            read_errors: registry.counter("plfs.read.errors"),
            data_appends: registry.counter("plfs.write.data_appends"),
            index_appends: registry.counter("plfs.write.index_appends"),
            index_bytes_written: registry.counter("plfs.write.index_bytes"),
            read_ops: registry.counter("plfs.read.ops"),
            read_bytes: registry.counter("plfs.read.bytes"),
            read_batches: registry.counter("plfs.read.batches"),
            read_backend_ops: registry.counter("plfs.read.backend_ops"),
            read_coalesced_bytes: registry.counter("plfs.read.coalesced_bytes"),
            read_readahead_hits: registry.counter("plfs.read.readahead_hits"),
            index_bytes_read: registry.counter("plfs.index.bytes_read"),
            raw_entries: registry.counter("plfs.index.raw_entries"),
            tail_entries: registry.counter("plfs.index.tail_entries"),
            merged_extents: registry.counter("plfs.index.merged_extents"),
            merge_steps: registry.counter("plfs.index.merge_steps"),
            canonical_hits: registry.counter("plfs.index.canonical_hits"),
            canonical_writes: registry.counter("plfs.index.canonical_writes"),
            verify_blocks: registry.counter("plfs.verify.blocks"),
            verify_bytes: registry.counter("plfs.verify.bytes"),
            verify_failures: registry.counter("plfs.verify.failures"),
            merge_fanin: registry.histogram("plfs.index.merge_fanin"),
            decode_concurrency: registry.histogram("plfs.index.decode_concurrency"),
            read_parallelism: registry.histogram("plfs.read.parallelism"),
            write_lat: registry.histogram("plfs.write.lat_ns"),
            read_lat: registry.histogram("plfs.read.lat_ns"),
            open_timer: registry.timer("plfs.read.open_ns", &clock),
            recorder: cfg.record.clone(),
            flight: cfg.flight.clone(),
        })
    }

    /// A standalone bundle with its own private registry and the
    /// default logical clock — for tests and components used outside a
    /// [`crate::Plfs`] instance.
    pub fn detached() -> Arc<Self> {
        PlfsMetrics::new(&PlfsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_record_into_shared_registry() {
        let reg = Registry::new();
        let m = PlfsMetrics::new(&PlfsConfig { metrics: reg.clone(), ..Default::default() });
        m.write_ops.inc();
        m.write_bytes.add(100);
        m.merge_fanin.observe(8);
        assert_eq!(reg.value("plfs.write.ops"), Some(1));
        assert_eq!(reg.value("plfs.write.bytes"), Some(100));
        assert_eq!(reg.histogram("plfs.index.merge_fanin").count(), 1);
    }

    #[test]
    fn instance_clock_follows_the_flight_recorder() {
        let m = PlfsMetrics::new(&PlfsConfig::default());
        assert!(!m.clock.is_wall(), "no recorder: logical clock");
        assert_eq!(m.clock.stamp(), 1, "stamp 0 stays \"never written\"");

        let reg = Registry::new();
        let clock = Clock::logical_at(40);
        let flight = Recorder::new(&reg, &clock, 10, 4);
        let m = PlfsMetrics::new(&PlfsConfig { metrics: reg, flight, ..Default::default() });
        assert_eq!(m.clock.stamp(), 40, "the recorder's clock is the instance clock");
        assert_eq!(clock.current(), 41, "one shared time base, not a copy");
    }

    #[test]
    fn detached_bundles_are_independent() {
        let a = PlfsMetrics::detached();
        let b = PlfsMetrics::detached();
        a.write_ops.inc();
        assert_eq!(a.registry.value("plfs.write.ops"), Some(1));
        assert_eq!(b.registry.value("plfs.write.ops"), Some(0));
    }
}
