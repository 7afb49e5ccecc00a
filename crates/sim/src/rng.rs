//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own PRNG (xoshiro256**) instead of depending on
//! the `rand` crate so that every experiment is bit-reproducible from a seed
//! across platforms and across `rand` version bumps. The distribution
//! samplers implemented here are the ones the workload models need:
//! exponential (Poisson arrivals), normal/lognormal (response sizes),
//! Pareto (heavy-tailed ON periods), and uniform utilities.

/// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
///
/// This is the generator family recommended by its authors for all-purpose
/// simulation use; it is small, fast, and passes BigCrush.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal variate from the Box–Muller pair.
    spare_normal: Option<f64>,
}

/// SplitMix64's increment, the 64-bit golden ratio.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output finalizer: a strong 64-bit bit mixer, and the one
/// seed-mixing hash of the workspace. ECMP path choice, Hadoop wave
/// schedules, per-rack ECMP seeds, rendezvous region weights and
/// per-switch fault plans all derive from it, so changing it moves every
/// report.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 step, used to expand a single `u64` seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is fine;
    /// SplitMix64 expansion guarantees a non-degenerate state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give every node its own
    /// stream so that adding a node never perturbs another node's randomness.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(GOLDEN_GAMMA))
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method to avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential with the given mean (inverse-CDF method). The mean is the
    /// natural parameterization for inter-arrival times.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller, caching the spare variate.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 so ln(u) is finite.
        let u = 1.0 - self.f64();
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Pareto (type I) with minimum `scale` and tail index `shape`.
    /// Smaller `shape` means a heavier tail; `shape <= 1` has infinite mean.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        debug_assert!(scale > 0.0 && shape > 0.0);
        scale / (1.0 - self.f64()).powf(1.0 / shape)
    }

    /// Samples `k` distinct indices from `[0, n)` using Floyd's algorithm.
    /// Returned order is insertion order of Floyd's method (effectively
    /// arbitrary but deterministic for a given RNG state).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below((j + 1) as u64) as usize;
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }

    /// Picks one element of a slice uniformly.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = Rng::new(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for c in counts {
            // Each bucket expects 10_000; a 10% tolerance is ~30 sigma.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = Rng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.range(3, 5);
            assert!((3..=5).contains(&x));
            saw_lo |= x == 3;
            saw_hi |= x == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(17);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = Rng::new(19);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal(2.0, 0.7)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Median of lognormal is exp(mu).
        assert!((median - 2.0f64.exp()).abs() / 2.0f64.exp() < 0.05);
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = Rng::new(23);
        for _ in 0..10_000 {
            assert!(r.pareto(3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::new(29);
        for _ in 0..100 {
            let s = r.sample_indices(20, 8);
            assert_eq!(s.len(), 8);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "duplicates in {s:?}");
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_range() {
        let mut r = Rng::new(31);
        let mut s = r.sample_indices(5, 5);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(37);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(99);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
