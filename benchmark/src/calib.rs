//! The host-speed index: how much slower than nominal this host is running
//! *right now*.
//!
//! The reference host is a 2-vCPU slice of a shared server. Its speed drifts
//! by ±20 % in regimes that last from seconds to minutes (neighbours
//! contending for the core's sibling thread, the shared L3 and memory), and
//! the drift reaches every workload, whatever its footprint — see
//! `README.md` for the measurements. No amount of repetition inside a 15 s
//! run averages a minutes-long regime away, so every timed section is
//! bracketed by two readings of this index and its time is divided by their
//! mean: the end-to-end times are *seconds at nominal host speed*.
//!
//! The index is the geometric mean, over four frozen kernels, of the
//! kernel's time divided by its nominal time. The kernels live here, not in
//! the product crates, so no product change can move the index; together
//! they lean on what the workloads lean on (branchy compare-and-move,
//! multi-issue integer arithmetic, streaming reads, hashed inserts).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds each kernel takes on the reference host in its quiet regime
/// (median of the fastest half of 1 700 readings, `run.sh --calibrate`,
/// 2026-09-27).
const NOMINAL_SECONDS: [f64; 4] = [0.0074, 0.0103, 0.0018, 0.0118];

/// The frozen kernels' inputs.
pub struct HostSpeed {
    unsorted: Vec<u64>,
    stream: Vec<u64>,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut state = 1;
        HostSpeed {
            unsorted: (0..400_000).map(|_| lcg(&mut state)).collect(),
            stream: (0..512u64 << 10).collect(),
        }
    }
}

impl HostSpeed {
    /// Seconds each kernel takes now: sort 400 k integers; four independent
    /// integer dependency chains; sum 4 MB (twice the L2) eight times over;
    /// 100 k hashed inserts.
    pub fn kernel_seconds(&self) -> [f64; 4] {
        let t = Instant::now();
        let mut v = self.unsorted.clone();
        v.sort_unstable();
        black_box(&v);
        let sort = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..8_000_000u64 {
            a = a.wrapping_mul(5).wrapping_add(i);
            b = (b ^ (b << 13)).wrapping_add(i);
            c = c.rotate_left(7) ^ i;
            d = d.wrapping_add(a >> 3);
        }
        black_box((a, b, c, d));
        let alu = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for _ in 0..8 {
            black_box(
                black_box(&self.stream)
                    .iter()
                    .fold(0u64, |s, &x| s.wrapping_add(x)),
            );
        }
        let stream = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut map = HashMap::new();
        for (i, &k) in self.unsorted.iter().enumerate().take(100_000) {
            *map.entry(k & 0xffff).or_insert(0u64) += i as u64;
            map.insert(k, i as u64);
        }
        black_box(&map);
        let hash = t.elapsed().as_secs_f64();
        [sort, alu, stream, hash]
    }

    /// The index now: 1.0 on the reference host in its quiet regime, 1.2
    /// when the host runs 20 % slower.
    pub fn slowdown(&self) -> f64 {
        let logs: f64 = self
            .kernel_seconds()
            .iter()
            .zip(NOMINAL_SECONDS)
            .map(|(t, nominal)| (t / nominal).ln())
            .sum();
        (logs / NOMINAL_SECONDS.len() as f64).exp()
    }
}

/// Times sections of work at nominal host speed: each section is bracketed
/// by the index reading that followed the previous section and a fresh one.
pub struct Bracket {
    host: HostSpeed,
    last: f64,
    /// The mean index of every section timed so far.
    pub slowdowns: Vec<f64>,
}

/// The times of one bracketed section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds as measured.
    pub raw_wall: f64,
    /// Wall seconds at nominal host speed.
    pub wall: f64,
    /// CPU seconds (all threads) at nominal host speed.
    pub cpu: f64,
}

impl Default for Bracket {
    fn default() -> Self {
        let host = HostSpeed::default();
        let last = host.slowdown();
        Bracket {
            host,
            last,
            slowdowns: Vec::new(),
        }
    }
}

impl Bracket {
    /// Runs `f` and divides its wall and CPU time by the mean of the index
    /// readings on either side of it.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let (value, raw_wall, raw_cpu) = crate::stats::timed(f);
        let after = self.host.slowdown();
        let slowdown = (self.last + after) / 2.0;
        self.last = after;
        self.slowdowns.push(slowdown);
        let times = Timed {
            raw_wall,
            wall: raw_wall / slowdown,
            cpu: raw_cpu / slowdown,
        };
        (value, times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_is_positive_and_finite() {
        let host = HostSpeed::default();
        let s = host.slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
        assert!(host.kernel_seconds().iter().all(|&t| t > 0.0));
    }

    #[test]
    fn a_bracketed_section_is_scaled_by_the_index_around_it() {
        let mut b = Bracket::default();
        let ((), t) = b.timed(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(t.raw_wall >= 0.02);
        let slowdown = b.slowdowns[0];
        assert!((t.wall * slowdown - t.raw_wall).abs() < 1e-12);
        // The CPU clock is the whole process's, other tests' threads
        // included: all that can be said here is that it did not run
        // backwards.
        assert!(t.cpu >= 0.0, "{}", t.cpu);
    }
}
