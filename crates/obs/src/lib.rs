//! Deterministic observability for the PDSI reproduction.
//!
//! Every claim in the source report is a measured number, so the
//! reproduction needs to expose its *mechanics* — not just its outputs —
//! as numbers tests can assert against. This crate provides the three
//! pieces the rest of the workspace instruments itself with:
//!
//! * [`Registry`] — a thread-safe, clonable (shared) registry of named,
//!   labeled series: monotone [`Counter`]s, signed [`Gauge`]s, and
//!   log2-bucketed [`Histogram`]s.
//! * [`Clock`] — one time source that runs off either wall time or a
//!   logical (simulator) tick counter, so instrumented code does not
//!   care which world it lives in.
//! * [`Timer`]/[`Span`] — scoped duration measurement feeding a
//!   histogram.
//! * [`trace`] — causal span trees collected into a bounded
//!   [`trace::TraceSink`], with Chrome/Perfetto export and
//!   critical-path latency attribution.
//!
//! Everything is std-only: no external crates, no global state. A
//! registry is passed explicitly (usually inside a config struct), which
//! keeps tests hermetic — each test owns its registry and asserts exact
//! counter values.
//!
//! Snapshots serialize to JSON via the in-tree [`json`] module and to a
//! human table via [`Registry::render_table`].

pub mod json;
pub mod prom;
pub mod recorder;
pub mod slo;
pub mod tail;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` covers values `v` with
/// `bucket_index(v) == i`, i.e. upper bound `2^i` (exclusive), except the
/// last which absorbs everything.
pub const HIST_BUCKETS: usize = 65;

pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive-ish upper bound label for bucket `i` (values `< 2^i`).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Lower bound of the bucket whose upper bound is `upper`: bucket
/// `upper=1` holds only the value 0, bucket `upper=2^i` covers
/// `[2^(i-1), 2^i)`, and the overflow bucket starts at `2^63`.
pub(crate) fn bucket_lower(upper: u64) -> u64 {
    match upper {
        0 | 1 => 0,
        u64::MAX => 1u64 << 63,
        u => u / 2,
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotone counter. Cheap to clone (shared atomic).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed gauge: set/add, last-write-wins.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    v: Arc<AtomicI64>,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `n` if it is below (peak tracking).
    pub fn raise_to(&self, n: i64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram of u64 samples (durations, sizes, fan-in).
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { core: Arc::new(HistCore::new()) }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    pub fn observe(&self, v: u64) {
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Approximate quantile of everything observed so far; see
    /// [`HistSnapshot::quantile`] for the estimator's semantics.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// Point-in-time copy of the bucket contents.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets = (0..HIST_BUCKETS)
            .filter_map(|i| {
                let c = self.core.buckets[i].load(Ordering::Relaxed);
                if c == 0 {
                    None
                } else {
                    Some((bucket_upper(i), c))
                }
            })
            .collect();
        HistSnapshot { count: self.count(), sum: self.sum(), max: self.max(), buckets }
    }

    fn merge(&self, snap: &HistSnapshot) {
        for &(upper, c) in &snap.buckets {
            // Invert bucket_upper: upper is 2^i (or MAX for the last bucket).
            let i = if upper == u64::MAX { 64 } else { upper.trailing_zeros() as usize };
            self.core.buckets[i].fetch_add(c, Ordering::Relaxed);
        }
        self.core.count.fetch_add(snap.count, Ordering::Relaxed);
        self.core.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.core.max.fetch_max(snap.max, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Sorted `(key, value)` label pairs identifying one series of a name.
pub type Labels = Vec<(String, String)>;

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time copy of one series, for export and merging.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub name: String,
    pub labels: Labels,
    pub value: SeriesValue,
}

#[derive(Clone, Debug, PartialEq)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistSnapshot),
}

#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `(bucket_upper, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile by linear interpolation inside the log2
    /// bucket holding rank `q * count` — the shared estimator behind
    /// cumulative histograms and flight-recorder frame deltas.
    ///
    /// Semantics (exact at bucket boundaries):
    /// * an empty snapshot returns 0,
    /// * `q = 0` returns the lower bound of the first non-empty bucket,
    /// * a rank landing exactly on a bucket's cumulative count returns
    ///   that bucket's upper bound,
    /// * the tracked `max` clamps the estimate (so the last bucket
    ///   interpolates toward the largest value actually observed, and
    ///   `q = 1` returns it exactly).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0)) * self.count as f64;
        let mut cum_before = 0u64;
        for &(upper, c) in &self.buckets {
            let cum = cum_before + c;
            if (cum as f64) >= rank {
                let lower = bucket_lower(upper);
                if upper <= 1 {
                    return 0.0; // the zero bucket holds only zeros
                }
                // Interpolate toward max inside the last non-empty
                // bucket; toward the bucket edge everywhere else.
                let hi = if upper == self.buckets.last().unwrap().0 {
                    (self.max.max(lower)) as f64
                } else {
                    upper as f64
                };
                let f = ((rank - cum_before as f64) / c as f64).clamp(0.0, 1.0);
                let est = lower as f64 + (hi - lower as f64) * f;
                return est.min(self.max as f64);
            }
            cum_before = cum;
        }
        self.max as f64
    }
}

/// Thread-safe metrics registry. `Clone` shares the underlying map, so a
/// registry stored in a config struct and cloned into components keeps a
/// single set of series.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<(String, Labels), Instrument>>>,
}

fn norm_labels(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
    v.sort();
    v
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or create the counter `name` with the given labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_string(), norm_labels(labels));
        let mut map = self.inner.lock().unwrap();
        match map.entry(key).or_insert_with(|| Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c.clone(),
            other => panic!("series {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_string(), norm_labels(labels));
        let mut map = self.inner.lock().unwrap();
        match map.entry(key).or_insert_with(|| Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("series {name:?} already registered as {other:?}, wanted gauge"),
        }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = (name.to_string(), norm_labels(labels));
        let mut map = self.inner.lock().unwrap();
        match map.entry(key).or_insert_with(|| Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("series {name:?} already registered as {other:?}, wanted histogram"),
        }
    }

    /// A timer whose spans observe into histogram `name` using `clock`.
    pub fn timer(&self, name: &str, clock: &Clock) -> Timer {
        Timer { hist: self.histogram(name), clock: clock.clone() }
    }

    /// Current value of the unlabeled counter `name`, if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.value_with(name, &[])
    }

    /// Current value of counter `name` with `labels`, if present.
    pub fn value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = (name.to_string(), norm_labels(labels));
        let map = self.inner.lock().unwrap();
        match map.get(&key) {
            Some(Instrument::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Point-in-time copy of every series, sorted by (name, labels).
    pub fn snapshot(&self) -> Vec<Series> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .map(|((name, labels), inst)| Series {
                name: name.clone(),
                labels: labels.clone(),
                value: match inst {
                    Instrument::Counter(c) => SeriesValue::Counter(c.get()),
                    Instrument::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Number of distinct series (name + label combinations).
    pub fn series_count(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Merge a snapshot into this registry, appending `extra` labels to
    /// every series. Counters and gauges accumulate; histograms merge
    /// bucket-wise. Used to roll per-experiment registries into one dump
    /// under an `exp=<id>` label.
    pub fn absorb(&self, series: &[Series], extra: &[(&str, &str)]) {
        for s in series {
            let mut labels: Vec<(&str, &str)> =
                s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            labels.extend_from_slice(extra);
            match &s.value {
                SeriesValue::Counter(v) => self.counter_with(&s.name, &labels).add(*v),
                SeriesValue::Gauge(v) => self.gauge_with(&s.name, &labels).add(*v),
                SeriesValue::Histogram(h) => self.histogram_with(&s.name, &labels).merge(h),
            }
        }
    }

    /// Serialize the current snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        snapshot_to_json(&self.snapshot()).to_string()
    }

    /// Render the current snapshot as an aligned text table.
    pub fn render_table(&self) -> String {
        render_table(&self.snapshot())
    }
}

/// Build the canonical JSON value for a snapshot:
/// `{"version":1,"series":[{name,labels,type,...}]}`.
pub fn snapshot_to_json(series: &[Series]) -> json::Value {
    use json::Value;
    let rows = series
        .iter()
        .map(|s| {
            let labels = Value::Obj(
                s.labels.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect(),
            );
            let mut obj = vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("labels".to_string(), labels),
            ];
            match &s.value {
                SeriesValue::Counter(v) => {
                    obj.push(("type".to_string(), Value::Str("counter".into())));
                    obj.push(("value".to_string(), Value::Int(*v as i64)));
                }
                SeriesValue::Gauge(v) => {
                    obj.push(("type".to_string(), Value::Str("gauge".into())));
                    obj.push(("value".to_string(), Value::Int(*v)));
                }
                SeriesValue::Histogram(h) => {
                    obj.push(("type".to_string(), Value::Str("histogram".into())));
                    obj.push(("count".to_string(), Value::Int(h.count as i64)));
                    obj.push(("sum".to_string(), Value::Int(h.sum as i64)));
                    obj.push(("max".to_string(), Value::Int(h.max as i64)));
                    obj.push((
                        "buckets".to_string(),
                        Value::Arr(
                            h.buckets
                                .iter()
                                .map(|&(u, c)| {
                                    Value::Arr(vec![Value::Int(u as i64), Value::Int(c as i64)])
                                })
                                .collect(),
                        ),
                    ));
                }
            }
            Value::Obj(obj)
        })
        .collect();
    Value::Obj(vec![
        ("version".to_string(), Value::Int(1)),
        ("series".to_string(), Value::Arr(rows)),
    ])
}

/// Render a snapshot as an aligned text table.
pub fn render_table(series: &[Series]) -> String {
    let mut rows: Vec<(String, String, String)> = Vec::new();
    for s in series {
        let mut id = s.name.clone();
        if !s.labels.is_empty() {
            let inner: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            id.push('{');
            id.push_str(&inner.join(","));
            id.push('}');
        }
        let (ty, val) = match &s.value {
            SeriesValue::Counter(v) => ("counter", v.to_string()),
            SeriesValue::Gauge(v) => ("gauge", v.to_string()),
            SeriesValue::Histogram(h) => (
                "histogram",
                format!(
                    "count={} sum={} max={} mean={:.1} p50={:.0} p99={:.0}",
                    h.count,
                    h.sum,
                    h.max,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99)
                ),
            ),
        };
        rows.push((id, ty.to_string(), val));
    }
    let w0 = rows.iter().map(|r| r.0.len()).max().unwrap_or(6).max(6);
    let w1 = rows.iter().map(|r| r.1.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    out.push_str(&format!("{:<w0$}  {:<w1$}  value\n", "series", "type"));
    out.push_str(&format!("{}  {}  {}\n", "-".repeat(w0), "-".repeat(w1), "-".repeat(5)));
    for (id, ty, val) in rows {
        out.push_str(&format!("{id:<w0$}  {ty:<w1$}  {val}\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ClockMode {
    /// Real time; `now_nanos` is the elapsed wall time since creation.
    Wall(Instant),
    /// Logical time: a monotone tick counter driven by `stamp` /
    /// `advance_to` (the simulator or the PLFS timestamp sequencer).
    Logical,
}

#[derive(Debug)]
struct ClockInner {
    mode: ClockMode,
    ticks: AtomicU64,
}

/// One time source for instrumented code: either wall time or a logical
/// tick counter. Clones share state, so every component handed a clone
/// of the same clock observes one monotone sequence.
#[derive(Clone, Debug)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

impl Clock {
    /// A wall clock; `now_nanos` is nanoseconds since creation.
    pub fn wall() -> Self {
        Clock {
            inner: Arc::new(ClockInner {
                mode: ClockMode::Wall(Instant::now()),
                ticks: AtomicU64::new(0),
            }),
        }
    }

    /// A logical clock starting at tick 0.
    pub fn logical() -> Self {
        Clock::logical_at(0)
    }

    /// A logical clock starting at `start`.
    pub fn logical_at(start: u64) -> Self {
        Clock {
            inner: Arc::new(ClockInner { mode: ClockMode::Logical, ticks: AtomicU64::new(start) }),
        }
    }

    pub fn is_wall(&self) -> bool {
        matches!(self.inner.mode, ClockMode::Wall(_))
    }

    /// Take the next logical tick (post-increment). On a wall clock this
    /// still advances the tick counter, which keeps sequence numbers
    /// usable regardless of mode.
    pub fn stamp(&self) -> u64 {
        self.inner.ticks.fetch_add(1, Ordering::Relaxed)
    }

    /// Raise the tick counter to at least `floor` (epoch reservation).
    pub fn advance_to(&self, floor: u64) {
        self.inner.ticks.fetch_max(floor, Ordering::Relaxed);
    }

    /// Current tick counter without advancing it.
    pub fn current(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Nanoseconds for span timing: elapsed wall time, or the logical
    /// tick counter when in logical mode.
    pub fn now_nanos(&self) -> u64 {
        match self.inner.mode {
            ClockMode::Wall(origin) => origin.elapsed().as_nanos() as u64,
            ClockMode::Logical => self.current(),
        }
    }
}

/// Factory for spans observing into one histogram.
#[derive(Clone, Debug)]
pub struct Timer {
    hist: Histogram,
    clock: Clock,
}

impl Timer {
    pub fn start(&self) -> Span {
        Span {
            hist: self.hist.clone(),
            clock: self.clock.clone(),
            start: self.clock.now_nanos(),
            armed: true,
        }
    }
}

/// An in-flight span; records its duration on `stop` or drop.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    clock: Clock,
    start: u64,
    armed: bool,
}

impl Span {
    /// Stop the span, record it, and return the elapsed nanos/ticks.
    pub fn stop(mut self) -> u64 {
        self.armed = false;
        let d = self.clock.now_nanos().saturating_sub(self.start);
        self.hist.observe(d);
        d
    }

    /// Abandon the span without recording.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            let d = self.clock.now_nanos().saturating_sub(self.start);
            self.hist.observe(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.value("x"), Some(3));
    }

    #[test]
    fn labels_distinguish_series() {
        let reg = Registry::new();
        reg.counter_with("ops", &[("osd", "0")]).add(5);
        reg.counter_with("ops", &[("osd", "1")]).add(7);
        assert_eq!(reg.value_with("ops", &[("osd", "0")]), Some(5));
        assert_eq!(reg.value_with("ops", &[("osd", "1")]), Some(7));
        assert_eq!(reg.series_count(), 2);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let reg = Registry::new();
        reg.counter_with("ops", &[("a", "1"), ("b", "2")]).inc();
        reg.counter_with("ops", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.series_count(), 1);
        assert_eq!(reg.value_with("ops", &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn histogram_buckets_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        let h = Histogram::new();
        for v in [0, 1, 3, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.4).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert!(!h.mean().is_nan());
        let snap = h.snapshot();
        assert_eq!(snap.mean(), 0.0);
        assert!(!snap.mean().is_nan());
        // And the rendered table stays finite for empty histograms.
        let reg = Registry::new();
        reg.histogram("empty");
        assert!(reg.render_table().contains("mean=0.0"));
    }

    #[test]
    fn quantile_is_exact_at_bucket_boundaries() {
        // 50 samples of 2 (bucket [2,4)) and 50 of 1000 (bucket
        // [512,1024), max 1000). Rank 50 lands exactly on the first
        // bucket's cumulative count, so p50 is exactly its upper bound.
        let h = Histogram::new();
        for _ in 0..50 {
            h.observe(2);
            h.observe(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 4.0, "boundary rank returns the bucket's upper bound");
        assert_eq!(s.quantile(0.0), 2.0, "q=0 returns the first bucket's lower bound");
        assert_eq!(s.quantile(1.0), 1000.0, "q=1 returns the observed max exactly");
        // Interior ranks interpolate linearly toward max inside the
        // last bucket: rank 99 is 49/50 of the way through [512, 1000].
        let p99 = s.quantile(0.99);
        assert!((p99 - (512.0 + 488.0 * 49.0 / 50.0)).abs() < 1e-9, "p99={p99}");
    }

    #[test]
    fn quantile_degenerate_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        let zeros = Histogram::new();
        zeros.observe(0);
        zeros.observe(0);
        assert_eq!(zeros.quantile(0.99), 0.0, "the zero bucket holds only zeros");
        // All samples equal to a power of two: every quantile is that
        // value, because max clamps the last-bucket interpolation.
        let flat = Histogram::new();
        for _ in 0..10 {
            flat.observe(1024);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(flat.quantile(q), 1024.0, "q={q}");
        }
    }

    #[test]
    fn table_shows_histogram_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for _ in 0..100 {
            h.observe(1024);
        }
        let t = reg.render_table();
        assert!(t.contains("p50=1024"), "table has a p50 column: {t}");
        assert!(t.contains("p99=1024"), "table has a p99 column: {t}");
    }

    #[test]
    fn json_dump_is_deterministic_across_insertion_order() {
        // Two registries populated in opposite orders (and with label
        // pairs given in different orders) must serialize byte-for-byte
        // identically: series sort by (name, labels), labels sort by
        // key.
        let a = Registry::new();
        a.counter_with("ops", &[("osd", "1"), ("kind", "w")]).add(3);
        a.counter_with("ops", &[("osd", "0"), ("kind", "w")]).add(2);
        a.gauge("depth").set(4);
        a.histogram("lat").observe(9);

        let b = Registry::new();
        b.histogram("lat").observe(9);
        b.gauge("depth").set(4);
        b.counter_with("ops", &[("kind", "w"), ("osd", "0")]).add(2);
        b.counter_with("ops", &[("kind", "w"), ("osd", "1")]).add(3);

        assert_eq!(a.to_json(), b.to_json());
        let names: Vec<String> = a
            .snapshot()
            .iter()
            .map(|s| {
                let l: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{}{{{}}}", s.name, l.join(","))
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "series must come out sorted by (name, labels)");
    }

    #[test]
    fn snapshot_merge_roundtrip() {
        let src = Registry::new();
        src.counter("c").add(4);
        src.gauge("g").set(-2);
        let h = src.histogram("h");
        h.observe(10);
        h.observe(1000);

        let dst = Registry::new();
        dst.absorb(&src.snapshot(), &[("exp", "t")]);
        dst.absorb(&src.snapshot(), &[("exp", "t")]);
        assert_eq!(dst.value_with("c", &[("exp", "t")]), Some(8));
        let snap = dst.snapshot();
        let hist = snap
            .iter()
            .find(|s| s.name == "h")
            .map(|s| match &s.value {
                SeriesValue::Histogram(h) => h.clone(),
                _ => panic!("wrong type"),
            })
            .unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 2020);
        assert_eq!(hist.max, 1000);
    }

    #[test]
    fn logical_clock_stamps_monotone() {
        let c = Clock::logical_at(10);
        assert_eq!(c.stamp(), 10);
        assert_eq!(c.stamp(), 11);
        c.advance_to(100);
        c.advance_to(50); // no-op: fetch_max
        assert_eq!(c.current(), 100);
        assert_eq!(c.stamp(), 100);
        let c2 = c.clone();
        c2.stamp();
        assert_eq!(c.current(), 102);
    }

    #[test]
    fn spans_record_into_histogram() {
        let reg = Registry::new();
        let clock = Clock::logical();
        let timer = reg.timer("op_ns", &clock);
        let span = timer.start();
        clock.advance_to(64);
        assert_eq!(span.stop(), 64);
        let h = reg.histogram("op_ns");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 64);

        // Drop also records.
        {
            let _s = timer.start();
            clock.advance_to(128);
        }
        assert_eq!(h.count(), 2);

        // Cancel does not.
        {
            let s = timer.start();
            s.cancel();
        }
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let c = Clock::wall();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
        assert!(c.is_wall());
    }

    #[test]
    fn json_snapshot_parses_back() {
        let reg = Registry::new();
        reg.counter_with("ops", &[("kind", "read")]).add(3);
        reg.histogram("lat").observe(7);
        let text = reg.to_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("version").and_then(|v| v.as_i64()), Some(1));
        let series = doc.get("series").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(series.len(), 2);
        let names: Vec<_> =
            series.iter().filter_map(|s| s.get("name").and_then(|n| n.as_str())).collect();
        assert_eq!(names, vec!["lat", "ops"]);
    }

    #[test]
    fn table_renders_every_series() {
        let reg = Registry::new();
        reg.counter_with("ops", &[("osd", "3")]).add(9);
        reg.gauge("depth").set(4);
        let t = reg.render_table();
        assert!(t.contains("ops{osd=3}"));
        assert!(t.contains("depth"));
        assert!(t.contains("gauge"));
        assert!(t.lines().count() >= 4);
    }
}
