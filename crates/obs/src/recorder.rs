//! The flight recorder: periodic [`Registry`] snapshots in a bounded
//! in-memory ring.
//!
//! A recorder samples the registry at a configurable cadence on the
//! shared [`Clock`] — wall nanoseconds in live runs, ticks/sim-nanos in
//! deterministic ones — keeping the last `capacity` frames. After an
//! injected crash-stop the surviving ring is the black box: the final
//! frames show exactly which counters were moving (and which stopped)
//! when the system died.
//!
//! Sampling is pull-based: instrumented code calls
//! [`Recorder::maybe_sample`] from convenient points (per op, per
//! wave); the call is a branch on a disabled recorder and an atomic
//! compare against the next deadline otherwise, so hot paths can carry
//! it unconditionally. Frames export as a JSONL timeline (one frame per
//! line, with per-counter deltas against the previous frame) and as
//! Prometheus text exposition of the newest frame.

use crate::{json, prom, Clock, HistSnapshot, Registry, Series, SeriesValue};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One sampled frame: a full registry snapshot at `t_ns`.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Monotone frame number (keeps counting across ring eviction).
    pub seq: u64,
    /// Clock reading when the frame was captured.
    pub t_ns: u64,
    /// Sorted point-in-time copy of every series.
    pub series: Vec<Series>,
}

impl Frame {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name && labels_match(&s.labels, labels))
    }

    /// Value of the unlabeled counter `name` in this frame.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_with(name, &[])
    }

    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SeriesValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name, &[])?.value {
            SeriesValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram snapshot of the unlabeled series `name`.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        match &self.find(name, &[])?.value {
            SeriesValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && want.iter().all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

/// `cur - prev` for the unlabeled counter `name` (0 when absent; a
/// missing previous frame means "since zero").
pub fn counter_delta(prev: Option<&Frame>, cur: &Frame, name: &str) -> u64 {
    let now = cur.counter(name).unwrap_or(0);
    let before = prev.and_then(|f| f.counter(name)).unwrap_or(0);
    now.saturating_sub(before)
}

/// Bucket-wise `cur - prev` for the unlabeled histogram `name`: what
/// landed in the histogram between the two frames. `max` carries the
/// cumulative max (per-window maxima are not recoverable from
/// cumulative buckets), which upper-bounds the window and keeps
/// [`HistSnapshot::quantile`]'s clamp safe.
pub fn hist_delta(prev: Option<&Frame>, cur: &Frame, name: &str) -> HistSnapshot {
    let empty = HistSnapshot { count: 0, sum: 0, max: 0, buckets: Vec::new() };
    let Some(now) = cur.hist(name) else { return empty };
    let Some(before) = prev.and_then(|f| f.hist(name)) else { return now.clone() };
    let mut buckets = Vec::with_capacity(now.buckets.len());
    for &(upper, c) in &now.buckets {
        let prev_c =
            before.buckets.iter().find(|&&(u, _)| u == upper).map(|&(_, c)| c).unwrap_or(0);
        if c > prev_c {
            buckets.push((upper, c - prev_c));
        }
    }
    HistSnapshot {
        count: now.count.saturating_sub(before.count),
        sum: now.sum.saturating_sub(before.sum),
        max: now.max,
        buckets,
    }
}

#[derive(Debug)]
struct RecState {
    frames: VecDeque<Frame>,
    seq: u64,
    evicted: u64,
}

#[derive(Debug)]
struct RecShared {
    registry: Registry,
    clock: Clock,
    cadence_ns: u64,
    capacity: usize,
    /// Next sampling deadline, kept outside the mutex so the not-due
    /// fast path is one clock read plus one atomic load.
    next_due: AtomicU64,
    state: Mutex<RecState>,
}

/// The flight recorder handle. `Clone` shares the ring; the
/// [`Recorder::disabled`] variant costs one branch per probe.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    shared: Option<Arc<RecShared>>,
}

impl Recorder {
    /// The no-op recorder: every probe is a branch on `None`.
    pub fn disabled() -> Self {
        Recorder { shared: None }
    }

    /// A recorder sampling `registry` every `cadence_ns` clock units,
    /// retaining the newest `capacity` frames.
    pub fn new(registry: &Registry, clock: &Clock, cadence_ns: u64, capacity: usize) -> Self {
        assert!(cadence_ns > 0, "recorder cadence must be nonzero");
        assert!(capacity > 0, "recorder ring must hold at least one frame");
        Recorder {
            shared: Some(Arc::new(RecShared {
                registry: registry.clone(),
                clock: clock.clone(),
                cadence_ns,
                capacity,
                next_due: AtomicU64::new(clock.now_nanos()),
                state: Mutex::new(RecState { frames: VecDeque::new(), seq: 0, evicted: 0 }),
            })),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The clock frames are stamped from; `None` when disabled.
    pub fn clock(&self) -> Option<&Clock> {
        self.shared.as_ref().map(|s| &s.clock)
    }

    /// Sample if the cadence deadline has passed. The probe hot paths
    /// carry: a branch when disabled, a clock read and an atomic
    /// compare when not yet due. Returns whether a frame was captured.
    #[inline]
    pub fn maybe_sample(&self) -> bool {
        match &self.shared {
            None => false,
            Some(s) => {
                let now = s.clock.now_nanos();
                if now < s.next_due.load(Ordering::Relaxed) {
                    false
                } else {
                    Self::capture(s, now);
                    true
                }
            }
        }
    }

    /// Capture a frame right now, cadence or not (run boundaries,
    /// crash handlers). No-op on a disabled recorder.
    pub fn sample_now(&self) -> bool {
        match &self.shared {
            None => false,
            Some(s) => {
                let now = s.clock.now_nanos();
                Self::capture(s, now);
                true
            }
        }
    }

    fn capture(s: &RecShared, now: u64) {
        let mut st = s.state.lock().unwrap();
        let frame = Frame { seq: st.seq, t_ns: now, series: s.registry.snapshot() };
        st.seq += 1;
        if st.frames.len() >= s.capacity {
            st.frames.pop_front();
            st.evicted += 1;
        }
        st.frames.push_back(frame);
        // Align the next deadline to the cadence grid so frame times
        // are stable regardless of when probes happen to fire.
        let next = (now / s.cadence_ns + 1) * s.cadence_ns;
        s.next_due.store(next, Ordering::Relaxed);
    }

    /// Every retained frame, oldest first.
    pub fn frames(&self) -> Vec<Frame> {
        match &self.shared {
            None => Vec::new(),
            Some(s) => s.state.lock().unwrap().frames.iter().cloned().collect(),
        }
    }

    /// The newest `n` frames, oldest of them first — "what was the
    /// system doing just before it stopped".
    pub fn last_frames(&self, n: usize) -> Vec<Frame> {
        let frames = self.frames();
        let skip = frames.len().saturating_sub(n);
        frames.into_iter().skip(skip).collect()
    }

    /// Retained frame count.
    pub fn len(&self) -> usize {
        self.shared.as_ref().map_or(0, |s| s.state.lock().unwrap().frames.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames evicted by the ring bound.
    pub fn evicted(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.state.lock().unwrap().evicted)
    }

    /// The JSONL timeline: one frame per line,
    /// `{"seq","t_ns","series":[...],"deltas":{...}}` where `deltas`
    /// holds every counter that moved since the previous retained
    /// frame (`name{k=v,...}` keys for labeled series).
    pub fn to_jsonl(&self) -> String {
        let frames = self.frames();
        let mut out = String::new();
        for (i, f) in frames.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(&frames[i - 1]) };
            out.push_str(&frame_to_json(prev, f).to_string());
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition of the newest frame (empty string
    /// when no frame was captured yet).
    pub fn to_prometheus(&self) -> String {
        match self.frames().last() {
            None => String::new(),
            Some(f) => prom::render(&f.series),
        }
    }
}

/// Series key for delta maps: `name` or `name{k=v,...}`.
fn series_key(s: &Series) -> String {
    if s.labels.is_empty() {
        s.name.clone()
    } else {
        let inner: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", s.name, inner.join(","))
    }
}

/// One frame as a JSON object (the JSONL line's value).
pub fn frame_to_json(prev: Option<&Frame>, f: &Frame) -> json::Value {
    use json::Value;
    let series = match crate::snapshot_to_json(&f.series) {
        Value::Obj(fields) => fields
            .into_iter()
            .find(|(k, _)| k == "series")
            .map(|(_, v)| v)
            .unwrap_or(Value::Arr(Vec::new())),
        _ => Value::Arr(Vec::new()),
    };
    let mut deltas = Vec::new();
    for s in &f.series {
        if let SeriesValue::Counter(now) = s.value {
            let before = prev
                .and_then(|p| p.series.iter().find(|ps| ps.name == s.name && ps.labels == s.labels))
                .and_then(|ps| match ps.value {
                    SeriesValue::Counter(v) => Some(v),
                    _ => None,
                })
                .unwrap_or(0);
            let d = now.saturating_sub(before);
            if d > 0 {
                deltas.push((series_key(s), Value::Int(d as i64)));
            }
        }
    }
    Value::Obj(vec![
        ("seq".to_string(), Value::Int(f.seq as i64)),
        ("t_ns".to_string(), Value::Int(f.t_ns as i64)),
        ("series".to_string(), series),
        ("deltas".to_string(), Value::Obj(deltas)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        assert!(!r.maybe_sample());
        assert!(!r.sample_now());
        assert!(r.frames().is_empty());
        assert_eq!(r.to_jsonl(), "");
        assert_eq!(r.to_prometheus(), "");
    }

    #[test]
    fn samples_on_the_cadence_grid() {
        let reg = Registry::new();
        let clock = Clock::logical();
        let r = Recorder::new(&reg, &clock, 100, 64);
        let ops = reg.counter("ops");

        assert!(r.maybe_sample(), "first probe captures the baseline frame");
        assert!(!r.maybe_sample(), "not due again until the next grid point");
        ops.add(3);
        clock.advance_to(99);
        assert!(!r.maybe_sample());
        clock.advance_to(100);
        assert!(r.maybe_sample());
        ops.add(4);
        clock.advance_to(350);
        assert!(r.maybe_sample(), "one frame fires even after skipping grid points");
        assert!(!r.maybe_sample());

        let frames = r.frames();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].t_ns, 0);
        assert_eq!(frames[1].t_ns, 100);
        assert_eq!(frames[2].t_ns, 350);
        assert_eq!(frames[0].counter("ops"), Some(0));
        assert_eq!(frames[1].counter("ops"), Some(3));
        assert_eq!(counter_delta(Some(&frames[1]), &frames[2], "ops"), 4);
    }

    #[test]
    fn ring_keeps_only_the_newest_frames() {
        let reg = Registry::new();
        let clock = Clock::logical();
        let r = Recorder::new(&reg, &clock, 1, 4);
        for t in 1..=10 {
            clock.advance_to(t * 10);
            assert!(r.maybe_sample());
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.evicted(), 6);
        let last = r.last_frames(2);
        assert_eq!(last.len(), 2);
        assert_eq!(last[1].seq, 9, "seq keeps counting across eviction");
        assert!(last[0].seq < last[1].seq);
    }

    #[test]
    fn jsonl_lines_carry_counter_deltas() {
        let reg = Registry::new();
        let clock = Clock::logical();
        let r = Recorder::new(&reg, &clock, 10, 8);
        let ops = reg.counter_with("faults.injected", &[("kind", "transient")]);
        r.sample_now();
        ops.add(7);
        clock.advance_to(20);
        r.sample_now();
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = json::parse(lines[1]).expect("each line is a JSON document");
        let deltas = second.get("deltas").expect("deltas object");
        assert_eq!(
            deltas.get("faults.injected{kind=transient}").and_then(|v| v.as_i64()),
            Some(7),
            "the injected spike shows in the frame where it happened"
        );
        assert_eq!(second.get("seq").and_then(|v| v.as_i64()), Some(1));
    }

    #[test]
    fn hist_delta_subtracts_buckets() {
        let reg = Registry::new();
        let clock = Clock::logical();
        let r = Recorder::new(&reg, &clock, 10, 8);
        let h = reg.histogram("lat");
        h.observe(5);
        r.sample_now();
        h.observe(5);
        h.observe(1000);
        clock.advance_to(10);
        r.sample_now();
        let frames = r.frames();
        let d = hist_delta(Some(&frames[0]), &frames[1], "lat");
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 1005);
        assert_eq!(d.buckets, vec![(8, 1), (1024, 1)]);
    }

    #[test]
    fn prometheus_export_is_the_newest_frame() {
        let reg = Registry::new();
        let clock = Clock::logical();
        let r = Recorder::new(&reg, &clock, 10, 8);
        reg.counter("plfs.write.ops").add(5);
        r.sample_now();
        reg.counter("plfs.write.ops").add(1);
        clock.advance_to(10);
        r.sample_now();
        let text = r.to_prometheus();
        let samples = prom::parse(&text).unwrap();
        let s = samples.iter().find(|s| s.name == "plfs_write_ops").unwrap();
        assert_eq!(s.value, 6.0);
    }
}
