//! Deterministic fault injection for the storage backend.
//!
//! The PDSI report's reliability chapter argues that a petascale
//! machine is *always* partially failed: transient I/O errors, torn
//! writes, and node losses are the steady state, not the exception.
//! This module makes those failures reproducible: [`FaultyBackend`]
//! wraps any [`Backend`] and injects faults from a seeded [`FaultPlan`],
//! so every crash-recovery scenario in the test suite replays
//! bit-for-bit from its seed.
//!
//! Three fault classes are modeled:
//!
//! - **transient errors** (`EIO`/`EAGAIN`-style): the operation fails
//!   but the store is untouched; a retry may succeed. Mapped to
//!   [`io::ErrorKind::Interrupted`] / [`io::ErrorKind::WouldBlock`] /
//!   [`io::ErrorKind::TimedOut`], which [`crate::retry::classify`]
//!   treats as retryable.
//! - **torn appends**: only a prefix of the buffer reaches the store
//!   before the error surfaces — the on-store state advanced, the
//!   caller doesn't know by how much. This is what a power cut mid
//!   `write(2)` leaves behind and what
//!   [`crate::retry::append_at_reliable`] recovers from.
//! - **crash-stop**: once the cumulative appended-byte budget is
//!   exhausted, the backend freezes at that exact byte state; every
//!   subsequent operation fails until [`FaultyBackend::heal`] simulates
//!   a reboot. Sweeping the budget over every byte boundary of a
//!   workload exhaustively enumerates all power-loss states.

use crate::backend::Backend;
use obs::{Counter, Registry};
use simkit::rng::splitmix64;
use simkit::Rng;
use std::io;
use std::sync::Mutex;

/// Seeded description of the faults to inject.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// PRNG seed: two runs with the same plan inject identical faults.
    pub seed: u64,
    /// Probability that any fallible operation fails transiently
    /// (store untouched).
    pub transient_error_rate: f64,
    /// Probability that an append lands only a random prefix and then
    /// fails transiently.
    pub torn_append_rate: f64,
    /// Crash-stop once this many bytes (cumulative, across all files)
    /// have been appended: the append crossing the budget is truncated
    /// at exactly the budget and the backend freezes.
    pub crash_after_bytes: Option<u64>,
    /// Clamp every `read_at` to at most this many bytes per call —
    /// the POSIX-`pread` short-read behaviour real stores exhibit under
    /// load. `Some(1)` is the pathological one-byte-at-a-time store the
    /// read path must tolerate. Not an error: the data is correct, just
    /// delivered in slivers.
    pub short_read_cap: Option<usize>,
    /// Probability that any given *stored byte* has silently rotted:
    /// reads of it return a bit-flipped value, with no error. Whether a
    /// byte is rotten is a pure function of `(seed, path, offset)` — the
    /// same byte is corrupt on every read path that touches it (engine,
    /// oracle, cache fill, scrub), which is what lets differential tests
    /// agree under corruption. The store's real content is untouched.
    pub bit_flip_rate: f64,
    /// Deterministically corrupt one exact byte: `(path suffix, byte
    /// offset, XOR mask)`. Reads of files whose path ends with the
    /// suffix see the byte at that offset XORed with the mask (`0`
    /// normalizes to `0x01` so the target is never a silent no-op).
    /// Composes with `bit_flip_rate`; targeting beats rate for the
    /// detection-completeness sweep, which must hit *every* byte once.
    pub corrupt_byte_at: Option<(String, u64, u8)>,
}

impl FaultPlan {
    /// A plan that injects nothing (base for struct-update syntax).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_error_rate: 0.0,
            torn_append_rate: 0.0,
            crash_after_bytes: None,
            short_read_cap: None,
            bit_flip_rate: 0.0,
            corrupt_byte_at: None,
        }
    }

    /// A mildly hostile storage substrate: occasional transient errors
    /// and rare torn appends, no crash.
    pub fn flaky(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_error_rate: 0.05,
            torn_append_rate: 0.02,
            crash_after_bytes: None,
            short_read_cap: None,
            bit_flip_rate: 0.0,
            corrupt_byte_at: None,
        }
    }
}

/// Counters for what was actually injected.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Fallible operations that reached the wrapper.
    pub ops: u64,
    /// Transient errors injected (store untouched).
    pub injected_transient: u64,
    /// Torn appends injected (prefix landed, then error).
    pub injected_torn: u64,
    /// Operations rejected because the backend was crash-stopped.
    pub rejected_while_crashed: u64,
    /// 1 once the crash budget fired (or `crash_now` was called).
    pub crashes: u64,
    /// Corrupted bytes *served*: every read of a rotten byte counts, so
    /// the same byte read twice counts twice (it models observations,
    /// not distinct bad sectors).
    pub injected_bit_flips: u64,
}

/// Live counter handles incremented *at the injection site*, so a
/// flight-recorder frame taken mid-run shows the fault in the interval
/// it actually happened (the end-of-run [`FaultyBackend::export_into`]
/// dump can't). All series share the name `faults.injected`, split by a
/// `kind` label — distinct from the `faults.injected_*` export names,
/// so binding live counters and exporting at the end never double-books
/// a series.
#[derive(Debug, Clone)]
pub struct FaultObs {
    pub transient: Counter,
    pub torn: Counter,
    pub bit_flips: Counter,
    pub crashes: Counter,
    pub rejected: Counter,
}

impl FaultObs {
    /// Counters registered in `reg` as `faults.injected{kind=...}`.
    pub fn registered(reg: &Registry) -> Self {
        let kind = |k| reg.counter_with("faults.injected", &[("kind", k)]);
        FaultObs {
            transient: kind("transient"),
            torn: kind("torn"),
            bit_flips: kind("bit_flip"),
            crashes: kind("crash"),
            rejected: kind("rejected"),
        }
    }
}

struct FaultState {
    rng: Rng,
    plan: FaultPlan,
    appended: u64,
    crashed: bool,
    stats: FaultStats,
    obs: Option<FaultObs>,
}

impl FaultState {
    fn note_transient(&mut self) {
        self.stats.injected_transient += 1;
        if let Some(o) = &self.obs {
            o.transient.inc();
        }
    }

    fn note_torn(&mut self) {
        self.stats.injected_torn += 1;
        if let Some(o) = &self.obs {
            o.torn.inc();
        }
    }

    fn note_crash(&mut self) {
        self.crashed = true;
        self.stats.crashes += 1;
        if let Some(o) = &self.obs {
            o.crashes.inc();
        }
    }

    fn note_rejected(&mut self) {
        self.stats.rejected_while_crashed += 1;
        if let Some(o) = &self.obs {
            o.rejected.inc();
        }
    }
}

/// A [`Backend`] wrapper injecting faults per a [`FaultPlan`].
///
/// The wrapper is deterministic: the fault sequence depends only on the
/// plan's seed and the order of operations. Concurrent callers
/// serialize on an internal mutex for the *decision*, so a
/// multi-threaded workload still gets a well-defined (if
/// schedule-dependent) fault stream.
///
/// Every call but `append` and `read_at` is gated the same way: it
/// fails while crash-stopped, else may fail transiently, else reaches
/// the store untouched. Metadata calls such as `rename` are atomic on
/// the stores modeled here, so a crash can reject them but never tear
/// them, and they do not advance the crash budget. `exists` is
/// infallible in the trait: a crashed store answers from its frozen
/// state.
pub struct FaultyBackend<B: Backend> {
    inner: B,
    state: Mutex<FaultState>,
}

fn crashed_error() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "backend crash-stopped (power loss)")
}

impl<B: Backend> FaultyBackend<B> {
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            state: Mutex::new(FaultState {
                rng: Rng::new(plan.seed),
                plan,
                appended: 0,
                crashed: false,
                stats: FaultStats::default(),
                obs: None,
            }),
        }
    }

    /// The wrapped backend (e.g. to inspect the frozen byte state).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Total bytes appended through the wrapper so far (the coordinate
    /// system `crash_after_bytes` budgets against).
    pub fn bytes_appended(&self) -> u64 {
        self.state.lock().unwrap().appended
    }

    /// Injection counters.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().unwrap().stats
    }

    /// Export the injection counters into a metrics registry as the
    /// `faults.*` series. Counters accumulate, so export once per
    /// backend (or use labels to keep backends apart).
    pub fn export_into(&self, reg: &obs::Registry) {
        self.export_into_labeled(reg, &[]);
    }

    /// [`Self::export_into`] with extra labels on every series.
    pub fn export_into_labeled(&self, reg: &obs::Registry, labels: &[(&str, &str)]) {
        let st = self.stats();
        reg.counter_with("faults.ops", labels).add(st.ops);
        reg.counter_with("faults.injected_transient", labels).add(st.injected_transient);
        reg.counter_with("faults.injected_torn", labels).add(st.injected_torn);
        reg.counter_with("faults.rejected_while_crashed", labels).add(st.rejected_while_crashed);
        reg.counter_with("faults.crashes", labels).add(st.crashes);
        reg.counter_with("faults.injected_bit_flips", labels).add(st.injected_bit_flips);
    }

    /// Record every *future* injection live into `reg` as the
    /// `faults.injected{kind=...}` series (see [`FaultObs`]). Unlike
    /// [`Self::export_into`], which dumps totals once at the end,
    /// live counters move at the moment of injection — which is what
    /// lets a flight-recorder frame localize a fault burst in time.
    pub fn bind_obs(&self, reg: &Registry) {
        self.state.lock().unwrap().obs = Some(FaultObs::registered(reg));
    }

    /// Has the crash-stop fired?
    pub fn is_crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Crash-stop immediately, regardless of the byte budget.
    pub fn crash_now(&self) {
        let mut st = self.state.lock().unwrap();
        if !st.crashed {
            st.note_crash();
        }
    }

    /// Simulate a reboot: the store becomes reachable again in exactly
    /// the byte state it froze in. The crash budget is disarmed so
    /// recovery tooling can write; transient/torn rates stay armed.
    pub fn heal(&self) {
        let mut st = self.state.lock().unwrap();
        st.crashed = false;
        st.plan.crash_after_bytes = None;
    }

    /// Replace the plan mid-flight (keeps the crash state and byte
    /// count; reseeds the PRNG from the new plan).
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.state.lock().unwrap();
        st.rng = Rng::new(plan.seed);
        st.plan = plan;
    }

    /// Gate a non-append operation: fail if crashed, else maybe inject
    /// a transient error.
    fn gate(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.stats.ops += 1;
        if st.crashed {
            st.note_rejected();
            return Err(crashed_error());
        }
        let p = st.plan.transient_error_rate;
        if p > 0.0 && st.rng.chance(p) {
            st.note_transient();
            return Err(transient_error(&mut st.rng));
        }
        Ok(())
    }
}

/// Hashes through splitmix64: the per-byte rot decision must be a pure
/// function of `(seed, path, offset)`, independent of the shared RNG
/// stream, so every read path observes the same corruption.
fn path_hash(seed: u64, path: &str) -> u64 {
    let mut h = splitmix64(&mut (seed ^ 0x5DEE_CE66_D1CE_5BBD));
    for chunk in path.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(&mut (h ^ u64::from_le_bytes(word)));
    }
    h
}

/// Is the byte at `offset` rotten, and if so which bit flips?
fn rot_bit(path_h: u64, offset: u64, rate: f64) -> Option<u8> {
    let r = splitmix64(&mut (path_h ^ offset));
    // 53 high bits → uniform in [0, 1).
    let u = (r >> 11) as f64 / (1u64 << 53) as f64;
    (u < rate).then_some(1u8 << (r & 7))
}

fn transient_error(rng: &mut Rng) -> io::Error {
    let kind = match rng.below(3) {
        0 => io::ErrorKind::Interrupted, // EINTR-style
        1 => io::ErrorKind::WouldBlock,  // EAGAIN-style
        _ => io::ErrorKind::TimedOut,    // network store hiccup
    };
    io::Error::new(kind, "injected transient fault")
}

impl<B: Backend> crate::backend::Layer for FaultyBackend<B> {
    fn below(&self) -> &dyn Backend {
        &self.inner
    }

    fn call<T>(&self, mut op: impl FnMut(&dyn Backend) -> io::Result<T>) -> io::Result<T> {
        self.gate()?;
        op(&self.inner)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let mut st = self.state.lock().unwrap();
        st.stats.ops += 1;
        if st.crashed {
            st.note_rejected();
            return Err(crashed_error());
        }
        // Crash budget: the append crossing it lands exactly up to the
        // budget, then the backend freezes.
        if let Some(budget) = st.plan.crash_after_bytes {
            if st.appended + data.len() as u64 > budget {
                let room = (budget - st.appended) as usize;
                if room > 0 {
                    self.inner.append(path, &data[..room])?;
                    st.appended += room as u64;
                }
                st.note_crash();
                return Err(crashed_error());
            }
        }
        // Torn append: a random *nonempty* strict prefix lands, then the
        // error. Guaranteeing progress keeps torn faults observably
        // distinct from plain transients (the file grew), which is what
        // lets the retry layer classify its recoveries exactly. A 1-byte
        // append cannot tear — it degrades to a plain transient below.
        let torn = st.plan.torn_append_rate;
        if torn > 0.0 && !data.is_empty() && st.rng.chance(torn) {
            if data.len() >= 2 {
                let prefix = 1 + st.rng.below(data.len() as u64 - 1) as usize;
                self.inner.append(path, &data[..prefix])?;
                st.appended += prefix as u64;
                st.note_torn();
            } else {
                st.note_transient();
            }
            return Err(transient_error(&mut st.rng));
        }
        // Plain transient: nothing lands.
        let p = st.plan.transient_error_rate;
        if p > 0.0 && st.rng.chance(p) {
            st.note_transient();
            return Err(transient_error(&mut st.rng));
        }
        let off = self.inner.append(path, data)?;
        st.appended += data.len() as u64;
        Ok(off)
    }

    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.gate()?;
        let (cap, seed, rate, target) = {
            let st = self.state.lock().unwrap();
            (
                st.plan.short_read_cap,
                st.plan.seed,
                st.plan.bit_flip_rate,
                st.plan.corrupt_byte_at.clone(),
            )
        };
        let n = match cap {
            Some(cap) => buf.len().min(cap.max(1)),
            None => buf.len(),
        };
        let got = self.inner.read_at(path, off, &mut buf[..n])?;
        if rate > 0.0 || target.is_some() {
            let ph = path_hash(seed, path);
            let targeted = target.as_ref().filter(|(suffix, _, _)| path.ends_with(suffix.as_str()));
            let mut flipped = 0u64;
            for (i, byte) in buf[..got].iter_mut().enumerate() {
                let abs = off + i as u64;
                if let Some((_, t_off, mask)) = targeted {
                    if *t_off == abs {
                        *byte ^= if *mask == 0 { 0x01 } else { *mask };
                        flipped += 1;
                        continue;
                    }
                }
                if rate > 0.0 {
                    if let Some(bit) = rot_bit(ph, abs, rate) {
                        *byte ^= bit;
                        flipped += 1;
                    }
                }
            }
            if flipped > 0 {
                let mut st = self.state.lock().unwrap();
                st.stats.injected_bit_flips += flipped;
                if let Some(o) = &st.obs {
                    o.bit_flips.add(flipped);
                }
            }
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    /// The rot decision is a pure function of `(seed, path, offset)`
    /// that corruption tests depend on; pin a few outputs exactly.
    #[test]
    fn rot_bit_and_path_hash_are_pinned() {
        let hashes: Vec<u64> = [(1, "/ckpt/data.0"), (42, "/a"), (7, "")]
            .iter()
            .map(|&(s, p)| path_hash(s, p))
            .collect();
        let ph = path_hash(1, "/ckpt/data.0");
        // 0 = byte not rotten, else the flipped bit's mask.
        let bits: Vec<u8> = (0..16u64).map(|off| rot_bit(ph, off, 0.5).unwrap_or(0)).collect();
        assert_eq!(hashes, [0xa4e2_297e_79da_03bd, 0x6693_91b3_0bdd_537c, 0x6791_e16e_812d_a43e]);
        assert_eq!(bits, [4, 16, 4, 0, 64, 0, 8, 0, 16, 64, 16, 2, 0, 32, 0, 2]);
    }

    #[test]
    fn no_faults_is_transparent() {
        let b = FaultyBackend::new(MemBackend::new(), FaultPlan::none(1));
        b.mkdir_all("/d").unwrap();
        b.append("/d/f", b"hello").unwrap();
        assert_eq!(b.read_all("/d/f").unwrap(), b"hello");
        assert_eq!(b.bytes_appended(), 5);
        assert_eq!(b.stats().injected_transient, 0);
    }

    #[test]
    fn crash_budget_freezes_exact_byte_state() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { crash_after_bytes: Some(7), ..FaultPlan::none(1) },
        );
        b.append("/f", b"abcde").unwrap(); // 5 bytes, within budget
        let err = b.append("/f", b"fghij").unwrap_err(); // crosses at 7
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(b.is_crashed());
        // Frozen: reads fail too.
        assert!(b.len("/f").is_err());
        // Reboot: exactly 7 bytes are there.
        b.heal();
        assert_eq!(b.read_all("/f").unwrap(), b"abcdefg");
        assert_eq!(b.stats().crashes, 1);
    }

    #[test]
    fn crash_now_rejects_everything_until_heal() {
        let b = FaultyBackend::new(MemBackend::new(), FaultPlan::none(3));
        b.append("/f", b"x").unwrap();
        b.crash_now();
        assert!(b.append("/f", b"y").is_err());
        assert!(b.list("/").is_err());
        assert!(b.stats().rejected_while_crashed >= 2);
        b.heal();
        b.append("/f", b"y").unwrap();
        assert_eq!(b.read_all("/f").unwrap(), b"xy");
    }

    #[test]
    fn transient_rate_injects_deterministically() {
        let run = |seed| {
            let b = FaultyBackend::new(
                MemBackend::new(),
                FaultPlan { transient_error_rate: 0.3, ..FaultPlan::none(seed) },
            );
            let mut failures = Vec::new();
            for i in 0..100 {
                failures.push(b.append("/f", &[i as u8]).is_err());
            }
            failures
        };
        assert_eq!(run(9), run(9), "same seed must inject identically");
        assert_ne!(run(9), run(10), "different seeds must differ");
        let n_fail = run(9).iter().filter(|&&x| x).count();
        assert!((10..60).contains(&n_fail), "rate wildly off: {n_fail}/100");
    }

    #[test]
    fn torn_append_lands_a_strict_prefix() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { torn_append_rate: 1.0, ..FaultPlan::none(5) },
        );
        let err = b.append("/f", b"0123456789").unwrap_err();
        assert!(crate::retry::classify(&err) == crate::retry::ErrorClass::Transient);
        let landed = b.inner().len("/f").unwrap_or(0);
        assert!(landed < 10, "torn append must not land everything");
        assert!(landed >= 1, "torn append must land a nonempty prefix");
        assert_eq!(b.stats().injected_torn, 1);
        assert_eq!(b.bytes_appended(), landed);
    }

    #[test]
    fn torn_appends_always_make_progress() {
        // Every injected tear lands at least one byte — the property the
        // retry layer relies on to tell torn from plain-transient.
        for seed in 0..32 {
            let b = FaultyBackend::new(
                MemBackend::new(),
                FaultPlan { torn_append_rate: 1.0, ..FaultPlan::none(seed) },
            );
            let before = b.inner().len("/f").unwrap_or(0);
            b.append("/f", b"abcdef").unwrap_err();
            let after = b.inner().len("/f").unwrap_or(0);
            assert!(after > before, "seed {seed}: tear landed nothing");
            assert!(after - before < 6, "seed {seed}: tear landed everything");
        }
    }

    #[test]
    fn one_byte_appends_degrade_to_plain_transient() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { torn_append_rate: 1.0, ..FaultPlan::none(2) },
        );
        b.append("/f", b"x").unwrap_err();
        let st = b.stats();
        assert_eq!(st.injected_torn, 0);
        assert_eq!(st.injected_transient, 1);
        assert_eq!(b.inner().len("/f").unwrap_or(0), 0, "store untouched");
    }

    #[test]
    fn bit_flips_are_deterministic_per_byte() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { bit_flip_rate: 0.1, ..FaultPlan::none(11) },
        );
        let clean: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        b.append("/f", &clean).unwrap();
        // Same corruption no matter how the region is read.
        let whole = b.read_all("/f").unwrap();
        let mut pieces = vec![0u8; 2000];
        for (i, chunk) in pieces.chunks_mut(63).enumerate() {
            let got = b.read_at("/f", (i * 63) as u64, chunk).unwrap();
            assert_eq!(got, chunk.len());
        }
        assert_eq!(whole, pieces, "rot must not depend on read slicing");
        let rotten = whole.iter().zip(&clean).filter(|(a, b)| a != b).count();
        assert!((50..400).contains(&rotten), "rate wildly off: {rotten}/2000");
        assert!(b.stats().injected_bit_flips >= rotten as u64 * 2);
        // Other files rot independently.
        b.set_plan(FaultPlan { bit_flip_rate: 0.1, ..FaultPlan::none(11) });
        b.append("/g", &clean).unwrap();
        let other = b.read_all("/g").unwrap();
        assert_ne!(whole, other, "per-path rot must differ");
    }

    #[test]
    fn corrupt_byte_at_targets_one_exact_byte() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan {
                corrupt_byte_at: Some(("data.3".to_string(), 5, 0x40)),
                ..FaultPlan::none(4)
            },
        );
        b.append("/c/hostdir.0/data.3", &[0u8; 16]).unwrap();
        b.append("/c/hostdir.0/index.3", &[0u8; 16]).unwrap();
        let data = b.read_all("/c/hostdir.0/data.3").unwrap();
        let mut want = vec![0u8; 16];
        want[5] = 0x40;
        assert_eq!(data, want, "exactly byte 5 of the target flips");
        assert_eq!(b.read_all("/c/hostdir.0/index.3").unwrap(), vec![0u8; 16]);
        assert_eq!(b.stats().injected_bit_flips, 1);
    }

    #[test]
    fn bound_obs_counts_injections_live() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { transient_error_rate: 1.0, ..FaultPlan::none(7) },
        );
        let reg = obs::Registry::new();
        b.bind_obs(&reg);
        let live = reg.counter_with("faults.injected", &[("kind", "transient")]);
        assert_eq!(live.get(), 0);
        let _ = b.append("/f", b"xy");
        assert_eq!(live.get(), 1, "live counter moves at the injection site");
        b.crash_now();
        let _ = b.list("/");
        assert_eq!(reg.counter_with("faults.injected", &[("kind", "crash")]).get(), 1);
        assert_eq!(reg.counter_with("faults.injected", &[("kind", "rejected")]).get(), 1);
        // The end-of-run export still works and lands on distinct names.
        b.export_into(&reg);
        assert_eq!(reg.value("faults.injected_transient"), Some(1));
    }

    #[test]
    fn export_into_mirrors_stats() {
        let b = FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { transient_error_rate: 0.5, ..FaultPlan::none(7) },
        );
        for i in 0..50 {
            let _ = b.append("/f", &[i as u8, i as u8]);
        }
        let reg = obs::Registry::new();
        b.export_into(&reg);
        let st = b.stats();
        assert_eq!(reg.value("faults.ops"), Some(st.ops));
        assert_eq!(reg.value("faults.injected_transient"), Some(st.injected_transient));
        assert!(st.injected_transient > 0);
    }
}
