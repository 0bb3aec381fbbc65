//! Bounded retry with exponential backoff for backend operations.
//!
//! At petascale the storage substrate routinely returns transient
//! errors (`EINTR`/`EAGAIN`, network-store timeouts); middleware that
//! surfaces every one of them to the application makes checkpointing
//! hopeless. [`RetryPolicy`] masks transient failures with bounded
//! exponential backoff and deterministic jitter, and gives up
//! immediately on errors classified as fatal.
//!
//! The delicate case is a **torn append**: the store advanced by an
//! unknown prefix before the error surfaced, so blindly re-appending
//! would duplicate bytes. [`append_at_reliable`] exploits the PLFS
//! ownership rule — each rank is the *only* writer of its droppings —
//! to recover exactly: it re-queries the file length, computes how much
//! of the buffer already landed, and appends only the remaining suffix.

use crate::backend::Backend;
use obs::trace::{Phase, TraceCtx};
use obs::{Counter, Registry};
use simkit::rng::splitmix64;
use std::fmt;
use std::io;
use std::time::Duration;

/// A checksum-verified read observed data that does not match its
/// recorded checksum: silent corruption, detected.
///
/// Always **fatal** to the retry machinery — the store happily serves
/// the same rotten bytes again, so a retry can only mask the corruption
/// and burn the retry budget (see [`classify`]). Carried as the source
/// of an [`io::ErrorKind::InvalidData`] error so it flows through every
/// `io::Result` path unchanged; use [`is_integrity`] to tell it apart
/// from other invalid-data errors (e.g. a bad record tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// The dropping (or sidecar) holding the bad bytes.
    pub path: String,
    /// Byte offset of the start of the failing verify block.
    pub offset: u64,
    /// Human-readable detail (what was checked, what mismatched).
    pub detail: String,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "integrity violation in {} at byte {}: {}", self.path, self.offset, self.detail)
    }
}

impl std::error::Error for IntegrityError {}

impl IntegrityError {
    /// Wrap into the `io::Error` the read path surfaces.
    pub fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }
}

/// Does this error carry an [`IntegrityError`] (at any wrap depth the
/// read path produces)?
pub fn is_integrity(err: &io::Error) -> bool {
    err.get_ref().is_some_and(|inner| inner.is::<IntegrityError>())
}

/// Retryability of an I/O error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if retried (store state unharmed or
    /// recoverable).
    Transient,
    /// Retrying cannot help (missing file, permission, crashed store).
    Fatal,
}

/// Classify an error the way the retry machinery does.
///
/// `Interrupted` (EINTR), `WouldBlock` (EAGAIN) and `TimedOut` are
/// transient; everything else — `NotFound`, `PermissionDenied`,
/// `BrokenPipe` (our crash-stop marker), `InvalidData`, ... — is fatal.
///
/// [`IntegrityError`] is checked *first* and is always fatal, even if a
/// future wrapping ever gave it a retryable kind: re-reading silently
/// corrupted data returns the same corrupted data, so a retry would
/// count the corruption as a masked transient and hide it.
pub fn classify(err: &io::Error) -> ErrorClass {
    if is_integrity(err) {
        return ErrorClass::Fatal;
    }
    match err.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            ErrorClass::Transient
        }
        _ => ErrorClass::Fatal,
    }
}

/// Observable counters for the retry machinery: one clonable bundle of
/// [`Counter`] handles shared by every policy derived from it.
///
/// The counters carry the `retry.*` schema:
///
/// - `retry.attempts` — backend operation attempts issued through the
///   retry layer (first tries included);
/// - `retry.masked_transient` — transient failures absorbed by a retry
///   where the store had *not* advanced;
/// - `retry.torn_recovered` — absorbed append failures where the store
///   *had* advanced (a torn append resumed mid-buffer);
/// - `retry.surfaced` — errors returned to the caller (fatal, or budget
///   exhausted);
/// - `retry.backoff_ns` — cumulative backoff slept, nanoseconds.
///
/// Under zero surfaced errors these tie exactly to the fault injector:
/// `retry.masked_transient == faults.injected_transient` and
/// `retry.torn_recovered == faults.injected_torn`.
#[derive(Debug, Clone)]
pub struct RetryObs {
    pub attempts: Counter,
    pub masked_transient: Counter,
    pub torn_recovered: Counter,
    pub surfaced: Counter,
    pub backoff_ns: Counter,
}

impl RetryObs {
    /// Counters registered in `reg` under the `retry.*` names.
    pub fn registered(reg: &Registry) -> Self {
        RetryObs {
            attempts: reg.counter("retry.attempts"),
            masked_transient: reg.counter("retry.masked_transient"),
            torn_recovered: reg.counter("retry.torn_recovered"),
            surfaced: reg.counter("retry.surfaced"),
            backoff_ns: reg.counter("retry.backoff_ns"),
        }
    }

    /// Standalone counters not attached to any registry (the default for
    /// a bare policy; [`crate::Plfs`] rebinds to its registry on open).
    pub fn detached() -> Self {
        Self::registered(&Registry::new())
    }
}

impl Default for RetryObs {
    fn default() -> Self {
        RetryObs::detached()
    }
}

/// Bounded exponential backoff policy.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter: each delay is scaled by a deterministic factor in
    /// `[1 - jitter, 1]`. 0 disables.
    pub jitter_frac: f64,
    /// Seed mixed into the jitter hash. Two policies with different
    /// seeds sleep *differently* on the same attempt number — the
    /// decorrelation that keeps a swarm of clients retrying after a
    /// shared stall from thundering-herding the backend in lockstep.
    /// Each policy remains individually deterministic.
    pub jitter_seed: u64,
    /// Counter handles this policy records into.
    pub obs: RetryObs,
}

// Equality is over the numeric tuning only: two policies with the same
// budget and delay envelope are equal regardless of where they record
// or which jitter seed decorrelates them.
impl PartialEq for RetryPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.max_retries == other.max_retries
            && self.base_delay == other.base_delay
            && self.max_delay == other.max_delay
            && self.jitter_frac == other.jitter_frac
    }
}

impl Default for RetryPolicy {
    /// Production-flavoured: 4 retries backing off 5, 10, 20 and 40 ms
    /// before 50% jitter (so `max_delay` is never reached).
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            jitter_frac: 0.5,
            jitter_seed: 0,
            obs: RetryObs::detached(),
        }
    }
}

impl RetryPolicy {
    /// Never retry: every error surfaces immediately. This is the
    /// pre-fault-injection behaviour and the right choice inside crash
    /// experiments, where a frozen store must not be hammered.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_frac: 0.0,
            jitter_seed: 0,
            obs: RetryObs::detached(),
        }
    }

    /// The same policy recording into `reg` (shares `reg`'s `retry.*`
    /// counters with every other policy bound to it).
    pub fn bound_to(mut self, reg: &Registry) -> Self {
        self.obs = RetryObs::registered(reg);
        self
    }

    /// The same policy with its jitter decorrelated by `seed` (see
    /// [`RetryPolicy::jitter_seed`]). [`crate::Plfs::open_writer`] seeds
    /// each writer's policy with its reserved session so concurrent
    /// clients spread their retries instead of colliding in lockstep.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Aggressive and sleepless, for tests: enough attempts that a
    /// ≤10% transient fault rate is masked with overwhelming
    /// probability (0.1^16 per operation), with zero wall-clock delay.
    pub fn fast_test() -> Self {
        RetryPolicy {
            max_retries: 16,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_frac: 0.0,
            jitter_seed: 0,
            obs: RetryObs::detached(),
        }
    }

    /// Backoff before retry number `attempt` (1-based). Deterministic:
    /// the jitter comes from a hash of `(jitter_seed, attempt)`, not a
    /// global RNG, so identical runs sleep identically — while policies
    /// with different seeds (one per swarm client) sleep out of phase.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.max_delay);
        if self.jitter_frac <= 0.0 {
            return exp;
        }
        // splitmix64 of (seed, attempt) → factor in [1-jitter, 1].
        let mut z =
            (attempt as u64).wrapping_add(self.jitter_seed.wrapping_mul(0xd6e8_feb8_6659_fd93));
        let unit = (splitmix64(&mut z) >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - self.jitter_frac * unit;
        exp.mul_f64(factor)
    }

    /// Run `op`, retrying transient failures per the policy. The final
    /// error (transient budget exhausted, or any fatal error) surfaces
    /// unchanged.
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            self.obs.attempts.inc();
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if classify(&e) == ErrorClass::Fatal || attempt >= self.max_retries {
                        self.obs.surfaced.inc();
                        return Err(e);
                    }
                    attempt += 1;
                    self.obs.masked_transient.inc();
                    let d = self.backoff(attempt);
                    if !d.is_zero() {
                        self.obs.backoff_ns.add(d.as_nanos() as u64);
                        std::thread::sleep(d);
                    }
                }
            }
        }
    }
}

/// A [`Backend`] view that retries every *idempotent* operation per a
/// policy. Composite helpers (container creation, dropping discovery)
/// issue dozens of backend calls; retrying them as a unit compounds the
/// per-call fault probability instead of masking it, so the retry must
/// sit at the single-operation level.
///
/// `append` is deliberately NOT retried here: a torn append needs
/// offset-aware resume ([`append_at_reliable`]), and blind re-append
/// would duplicate the landed prefix. `exists` is infallible and passes
/// through.
pub struct RetriedBackend<'a> {
    inner: &'a dyn Backend,
    policy: &'a RetryPolicy,
}

impl<'a> RetriedBackend<'a> {
    pub fn new(inner: &'a dyn Backend, policy: &'a RetryPolicy) -> Self {
        RetriedBackend { inner, policy }
    }
}

impl crate::backend::Layer for RetriedBackend<'_> {
    fn below(&self) -> &dyn Backend {
        self.inner
    }

    fn call<T>(&self, mut op: impl FnMut(&dyn Backend) -> io::Result<T>) -> io::Result<T> {
        self.policy.run(|| op(self.inner))
    }

    fn create_new(&self, path: &str) -> io::Result<()> {
        // `AlreadyExists` is the *expected* answer for the CAS loser,
        // not a failure: smuggle it through `run` as a success so it is
        // neither retried nor counted in `retry.surfaced` (which must
        // stay zero on a healthy store even while openers race).
        match self.policy.run(|| match self.inner.create_new(path) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(Some(e)),
            Err(e) => Err(e),
            Ok(()) => Ok(None),
        })? {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        // Single-shot: see type-level docs.
        self.policy.obs.attempts.inc();
        self.inner.append(path, data).inspect_err(|_| self.policy.obs.surfaced.inc())
    }
}

/// `len()` that treats a missing file as empty, retried per policy.
pub fn len_or_zero(backend: &dyn Backend, policy: &RetryPolicy, path: &str) -> io::Result<u64> {
    policy.run(|| len_or_zero_once(backend, path))
}

/// One `len()` where only `NotFound` reads as empty: any other error
/// surfaces, so a failed measurement never passes for a 0 B file.
pub(crate) fn len_or_zero_once(backend: &dyn Backend, path: &str) -> io::Result<u64> {
    match backend.len(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        res => res,
    }
}

/// Append `data` to `path` such that, on success, the file holds
/// exactly one copy of `data` starting at `expected_base` — even when
/// attempts tear (land a prefix).
///
/// Requires exclusive ownership of `path` (the PLFS dropping rule) and
/// that the file's length was `expected_base` when this logical append
/// began. Pass `verify_first = true` when a *previous* call for this
/// same buffer failed: the file may already hold a prefix (or all) of
/// `data`, and the call resumes instead of duplicating.
///
/// Each retried backend attempt (and every torn-append resume) is
/// recorded as a child span of `parent` on `track` when `trace` is
/// enabled. Retry spans are how checkpoints that *succeeded but
/// crawled* show their masked-fault tax in a trace.
#[allow(clippy::too_many_arguments)]
pub fn append_at_reliable(
    backend: &dyn Backend,
    policy: &RetryPolicy,
    path: &str,
    expected_base: u64,
    data: &[u8],
    verify_first: bool,
    trace: &TraceCtx,
    track: &str,
    parent: u64,
) -> io::Result<()> {
    let record_attempt = |n: u32, t0: u64, outcome: &str| {
        if trace.enabled() {
            let t1 = trace.clock.now_nanos().max(t0);
            trace.sink.record_labeled(
                "retry.attempt",
                Phase::Retry,
                track,
                t0,
                t1,
                parent,
                &[("attempt", &n.to_string()), ("outcome", outcome)],
            );
        }
    };
    let mut landed = if verify_first {
        recovered_progress(backend, policy, path, expected_base, data.len())?
    } else {
        0
    };
    if landed >= data.len() {
        return Ok(());
    }
    let mut attempt = 0u32;
    loop {
        policy.obs.attempts.inc();
        let t0 = if trace.enabled() { trace.clock.now_nanos() } else { 0 };
        match backend.append(path, &data[landed..]) {
            Ok(off) => {
                if off != expected_base + landed as u64 {
                    policy.obs.surfaced.inc();
                    record_attempt(attempt + 1, t0, "inconsistent");
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "exclusive-append violated on {path}: landed at {off}, \
                             expected {}",
                            expected_base + landed as u64
                        ),
                    ));
                }
                // The common first-try success stays invisible: only
                // actual *re*-tries earn spans, keeping fault-free
                // traces free of per-append noise.
                if attempt > 0 {
                    record_attempt(attempt + 1, t0, "ok");
                }
                return Ok(());
            }
            Err(e) => {
                if classify(&e) == ErrorClass::Fatal || attempt >= policy.max_retries {
                    policy.obs.surfaced.inc();
                    record_attempt(attempt + 1, t0, "surfaced");
                    return Err(e);
                }
                attempt += 1;
                record_attempt(attempt, t0, "absorbed");
                let d = policy.backoff(attempt);
                if !d.is_zero() {
                    policy.obs.backoff_ns.add(d.as_nanos() as u64);
                    std::thread::sleep(d);
                }
                // The failed attempt may have torn: re-measure. If the
                // store advanced, this absorbed failure was a torn append
                // we are now resuming; otherwise it was a plain transient.
                // (Tears always land a nonempty prefix — see
                // `FaultyBackend::append` — so the distinction is exact.)
                let before = landed;
                landed = recovered_progress(backend, policy, path, expected_base, data.len())?;
                if landed > before {
                    policy.obs.torn_recovered.inc();
                    if trace.enabled() {
                        let t = trace.clock.now_nanos();
                        trace.sink.record_labeled(
                            "torn.recovery",
                            Phase::Retry,
                            track,
                            t,
                            t,
                            parent,
                            &[("resumed_at", &landed.to_string())],
                        );
                    }
                } else {
                    policy.obs.masked_transient.inc();
                }
                if landed >= data.len() {
                    return Ok(());
                }
            }
        }
    }
}

/// How many bytes of the current buffer already reached the store.
fn recovered_progress(
    backend: &dyn Backend,
    policy: &RetryPolicy,
    path: &str,
    expected_base: u64,
    buf_len: usize,
) -> io::Result<usize> {
    let cur = len_or_zero(backend, policy, path)?;
    if cur < expected_base {
        policy.obs.surfaced.inc();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{path} shrank under us: len {cur} < expected base {expected_base}"),
        ));
    }
    Ok(((cur - expected_base) as usize).min(buf_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::faults::{FaultPlan, FaultyBackend};

    /// Jitter is a pure hash of `(jitter_seed, attempt)`; pin it.
    #[test]
    fn backoff_jitter_is_pinned() {
        let sleeps: Vec<u128> = [0u64, 3, 1000]
            .iter()
            .flat_map(|&seed| {
                let p = RetryPolicy::default().with_jitter_seed(seed);
                (1..=3).map(move |a| p.backoff(a).as_nanos())
            })
            .collect();
        assert_eq!(
            sleeps,
            [3583596, 7044051, 18865497, 4386854, 5699575, 19949596, 3548563, 5996977, 17873973]
        );
    }

    #[test]
    fn classify_splits_transient_from_fatal() {
        for k in [io::ErrorKind::Interrupted, io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert_eq!(classify(&io::Error::new(k, "x")), ErrorClass::Transient);
        }
        for k in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::InvalidData,
        ] {
            assert_eq!(classify(&io::Error::new(k, "x")), ErrorClass::Fatal);
        }
    }

    #[test]
    fn integrity_errors_are_fatal_and_never_retried() {
        let err = IntegrityError {
            path: "/c/hostdir.0/data.3".into(),
            offset: 8192,
            detail: "block CRC mismatch".into(),
        }
        .into_io();
        assert!(is_integrity(&err));
        assert!(!is_integrity(&io::Error::new(io::ErrorKind::InvalidData, "bad tag")));
        assert_eq!(classify(&err), ErrorClass::Fatal);

        // The retry loop must surface it on the first attempt and count
        // nothing as masked.
        let reg = Registry::new();
        let policy = RetryPolicy::fast_test().bound_to(&reg);
        let mut calls = 0;
        let got: io::Result<()> = policy.run(|| {
            calls += 1;
            Err(IntegrityError { path: "/f".into(), offset: 0, detail: "rot".into() }.into_io())
        });
        assert!(is_integrity(&got.unwrap_err()), "identity survives the retry layer");
        assert_eq!(calls, 1, "corrupt data must not be re-read");
        assert_eq!(reg.value("retry.masked_transient"), Some(0));
        assert_eq!(reg.value("retry.surfaced"), Some(1));
    }

    #[test]
    fn run_retries_transient_until_success() {
        let policy = RetryPolicy::fast_test();
        let mut left = 5;
        let got = policy.run(|| {
            if left > 0 {
                left -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "flap"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(got.unwrap(), 42);
    }

    #[test]
    fn run_gives_up_after_budget() {
        let policy = RetryPolicy { max_retries: 3, ..RetryPolicy::fast_test() };
        let mut calls = 0;
        let got: io::Result<()> = policy.run(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::TimedOut, "always"))
        });
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls, 4, "first try + 3 retries");
    }

    #[test]
    fn run_fails_fast_on_fatal() {
        let policy = RetryPolicy::fast_test();
        let mut calls = 0;
        let got: io::Result<()> = policy.run(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        });
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1, "fatal errors must not be retried");
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_frac: 0.5,
            jitter_seed: 0,
            obs: RetryObs::detached(),
        };
        for a in 1..=10 {
            let d = p.backoff(a);
            assert_eq!(d, p.backoff(a), "jitter must be deterministic");
            assert!(d <= Duration::from_millis(100));
            assert!(d >= Duration::from_millis(5), "attempt {a}: {d:?}");
        }
        assert!(p.backoff(4) > p.backoff(1));
        let last = RetryPolicy::default().backoff(4);
        assert!(
            (Duration::from_millis(20)..=Duration::from_millis(40)).contains(&last),
            "{last:?}"
        );
    }

    /// The anti-thundering-herd property: policies seeded differently
    /// must sleep different amounts on the same attempt (while each
    /// stays within the `[exp·(1-jitter), exp]` envelope and remains
    /// individually deterministic).
    #[test]
    fn jitter_seed_decorrelates_backoff_across_clients() {
        let base = RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_frac: 0.5,
            jitter_seed: 0,
            obs: RetryObs::detached(),
        };
        for attempt in 1..=4u32 {
            let sleeps: std::collections::HashSet<Duration> = (0..64u64)
                .map(|seed| base.clone().with_jitter_seed(seed).backoff(attempt))
                .collect();
            assert!(
                sleeps.len() >= 48,
                "attempt {attempt}: only {} distinct backoffs across 64 seeds — \
                 a swarm would herd",
                sleeps.len()
            );
        }
        // Seeding must not break the envelope or per-policy determinism.
        for seed in [1u64, 7, 1000] {
            let p = base.clone().with_jitter_seed(seed);
            for a in 1..=4 {
                let d = p.backoff(a);
                assert_eq!(d, p.backoff(a));
                assert!(d <= Duration::from_millis(100));
                assert!(d >= Duration::from_millis(5));
            }
        }
    }

    /// A lost `create_new` race through the retried view is a normal
    /// outcome: the `AlreadyExists` must surface to the caller but never
    /// count as `retry.surfaced` or trigger a retry.
    #[test]
    fn retried_create_new_does_not_count_cas_losses() {
        let reg = Registry::new();
        let policy = RetryPolicy::fast_test().bound_to(&reg);
        let b = MemBackend::new();
        let retried = RetriedBackend::new(&b, &policy);
        retried.create_new("/m").unwrap();
        let err = retried.create_new("/m").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(reg.value("retry.surfaced"), Some(0), "a CAS loss is not a failure");
        assert_eq!(reg.value("retry.masked_transient"), Some(0));
        assert_eq!(reg.value("retry.attempts"), Some(2), "one attempt each, no retries");
    }

    #[test]
    fn torn_appends_recovered_without_duplication() {
        // Most appends tear (rate 1.0 would mean no append can ever
        // fully land); recovery must still assemble one exact copy.
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { torn_append_rate: 0.7, ..FaultPlan::none(11) },
        );
        let policy = RetryPolicy { max_retries: 64, ..RetryPolicy::fast_test() };
        let payload: Vec<u8> = (0..=255u8).collect();
        let off = TraceCtx::disabled();
        append_at_reliable(&b, &policy, "/f", 0, &payload, false, &off, "", 0).unwrap();
        assert_eq!(b.inner().read_all("/f").unwrap(), payload);
        // A second logical append continues cleanly at the new base.
        append_at_reliable(&b, &policy, "/f", 256, b"tail", false, &off, "", 0).unwrap();
        assert_eq!(b.inner().len("/f").unwrap(), 260);
        assert!(b.stats().injected_torn > 0);
    }

    #[test]
    fn verify_first_resumes_partial_buffer_across_calls() {
        let b = MemBackend::new();
        // A previous failed flush left 3 of 8 bytes on the store.
        b.append("/f", b"abc").unwrap();
        let policy = RetryPolicy::none();
        let off = TraceCtx::disabled();
        append_at_reliable(&b, &policy, "/f", 0, b"abcdefgh", true, &off, "", 0).unwrap();
        assert_eq!(b.read_all("/f").unwrap(), b"abcdefgh");
        // And is a no-op when everything already landed.
        append_at_reliable(&b, &policy, "/f", 0, b"abcdefgh", true, &off, "", 0).unwrap();
        assert_eq!(b.read_all("/f").unwrap(), b"abcdefgh");
    }

    #[test]
    fn shrunken_file_is_a_fatal_inconsistency() {
        let b = MemBackend::new();
        b.append("/f", b"ab").unwrap();
        let (policy, off) = (RetryPolicy::none(), TraceCtx::disabled());
        let err = append_at_reliable(&b, &policy, "/f", 10, b"zz", true, &off, "", 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn run_counts_masked_and_surfaced() {
        let reg = Registry::new();
        let policy = RetryPolicy::fast_test().bound_to(&reg);
        let mut left = 3;
        policy
            .run(|| {
                if left > 0 {
                    left -= 1;
                    Err(io::Error::new(io::ErrorKind::Interrupted, "flap"))
                } else {
                    Ok(())
                }
            })
            .unwrap();
        assert_eq!(reg.value("retry.attempts"), Some(4), "3 failures + 1 success");
        assert_eq!(reg.value("retry.masked_transient"), Some(3));
        assert_eq!(reg.value("retry.surfaced"), Some(0));

        let _ = policy.run(|| -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        });
        assert_eq!(reg.value("retry.surfaced"), Some(1));
    }

    #[test]
    fn append_recovery_distinguishes_torn_from_transient() {
        // Torn-only plans: every absorbed failure advanced the store, so
        // each one must count as torn_recovered, never masked_transient.
        let payload: Vec<u8> = (0..200u8).collect();
        let off = TraceCtx::disabled();
        let mut torn_seen = 0;
        for seed in 0..16u64 {
            let reg = Registry::new();
            let b = FaultyBackend::new(
                MemBackend::new(),
                FaultPlan { torn_append_rate: 0.6, ..FaultPlan::none(seed) },
            );
            let policy = RetryPolicy { max_retries: 64, ..RetryPolicy::fast_test() }.bound_to(&reg);
            append_at_reliable(&b, &policy, "/f", 0, &payload, false, &off, "", 0).unwrap();
            assert_eq!(b.inner().read_all("/f").unwrap(), payload);
            let st = b.stats();
            torn_seen += st.injected_torn;
            assert_eq!(reg.value("retry.torn_recovered"), Some(st.injected_torn));
            assert_eq!(reg.value("retry.masked_transient"), Some(st.injected_transient));
            assert_eq!(reg.value("retry.surfaced"), Some(0));
        }
        assert!(torn_seen > 0, "no seed injected a torn append — weak test");

        // Transient-only plans: no absorbed failure advanced the store.
        let mut transient_seen = 0;
        for seed in 0..16u64 {
            let reg = Registry::new();
            let b = FaultyBackend::new(
                MemBackend::new(),
                FaultPlan { transient_error_rate: 0.4, ..FaultPlan::none(seed) },
            );
            let policy = RetryPolicy::fast_test().bound_to(&reg);
            append_at_reliable(&b, &policy, "/g", 0, &payload, false, &off, "", 0).unwrap();
            let st = b.stats();
            transient_seen += st.injected_transient;
            assert_eq!(reg.value("retry.masked_transient"), Some(st.injected_transient));
            assert_eq!(reg.value("retry.torn_recovered"), Some(0));
        }
        assert!(transient_seen > 0, "no seed injected a transient — weak test");
    }
}
