//! Sample statistics and the metric table a run prints.

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The 99th percentile, or `None` when fewer than ten samples lie
/// beyond it (the sample cannot support it).
pub fn p99(xs: &[f64]) -> Option<f64> {
    (xs.len() >= 1000).then(|| quantile(xs, 0.99))
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("plfsbench reads Linux process clocks with a 64-bit `timespec`");

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU time used so far by every thread of this process, exited ones
/// included, in ns. A kernel with paravirtual steal accounting leaves
/// out time the hypervisor gave to other guests, so this follows the
/// program's own work rather than the host's load.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets the compile_error above admits),
    // and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Named, unit-carrying values in the order they were recorded.
#[derive(Default)]
pub struct Table {
    pub rows: Vec<(String, f64, &'static str)>,
}

impl Table {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => *row = (name, value, unit),
            None => self.rows.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.rows.iter().find(|r| r.0 == name).map(|r| (r.1, r.2))
    }
}
