//! Order statistics, the output digest, and the process's own CPU and
//! memory readings.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// `--repeat-check` reports the same spread the acceptance driver computes.
/// A single value is its own three quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the bounds in `BENCHMARK.json` are sized against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// FNV-1a (64-bit) over a workload's simulated or stored outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a slice of integers in, length first.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Folds a float in by bit pattern: a digest match means bit-identical
    /// statistics, not merely close ones.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process,
/// exited ones included.
///
/// Read with `clock_gettime`, not from `/proc/self/stat`: the latter counts
/// in 10 ms ticks, so the median of a dozen ~0.6 s repetitions would read
/// the same two-digit value on every run.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target this benchmark builds for), and the
    // clock id is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb = parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status");
    kb as f64 * 1024.0 / 1e6
}

/// Wall and CPU seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    (r, wall, cpu_seconds() - cpu0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_separates_slices_by_length() {
        let mut a = Fnv::default();
        a.u64s(&[1, 2]);
        a.u64s(&[]);
        let mut b = Fnv::default();
        b.u64s(&[1]);
        b.u64s(&[2]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1692 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1692));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 1u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..100_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        let (_, wall, cpu) = timed(|| std::hint::black_box(x));
        assert!(wall >= 0.0 && cpu >= 0.0);
    }
}
