//! The Pearson matrix under the pooled driver's name.
//!
//! Kept only because `benchmark/` links it, ROADMAP item 3a: its
//! `bench.pearson_pool.speedup_2t` row times it on one and on two threads.
//! Its measured verdict was retire — fanned over the worker pool it was
//! slower than the serial [`uburst_analysis::correlation_matrix`] at every
//! matrix size — so it is that function, and Fig. 8 calls that.

/// [`uburst_analysis::correlation_matrix`]; `threads` is ignored. Kept
/// only because `benchmark/` links it, ROADMAP item 3a.
///
/// # Panics
/// Panics if series lengths differ.
pub fn correlation_matrix_pooled_on(_threads: usize, series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    uburst_analysis::correlation_matrix(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_analysis::correlation_matrix;

    /// `k` seeded series of `n` samples: a shared factor at per-series
    /// weights plus noise, one flat series at index `flat` (the
    /// zero-variance path) and one on a 1e9 offset (cancellation in the
    /// centring). The same shapes the analysis crate's kernel test uses.
    fn fixture(k: usize, n: usize, flat: usize) -> Vec<Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (k * 10_007 + n) as u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let factor: Vec<f64> = (0..n).map(|_| unit()).collect();
        let mut out: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                let w = 4.0 * unit() - 2.0;
                factor.iter().map(|&f| w * f + unit()).collect()
            })
            .collect();
        out[(flat + 1) % k] = (0..n).map(|_| 1e9 + unit()).collect();
        out[flat] = vec![0.25; n];
        out
    }

    /// Every `(k, n)` of the kernel's edge cases — tile remainders, lane
    /// tails and the analysis kernel's 128-sample block boundaries — with
    /// the flat series first, in the middle and last.
    fn fixtures() -> impl Iterator<Item = Vec<Vec<f64>>> {
        [1usize, 2, 3, 4, 5, 8, 9, 31, 32, 33]
            .into_iter()
            .flat_map(|k| {
                [1usize, 3, 4, 5, 127, 128, 129, 259]
                    .into_iter()
                    .flat_map(move |n| [0, k / 2, k - 1].map(|flat| fixture(k, n, flat)))
            })
    }

    fn assert_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: size");
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry ({i},{j})");
            }
        }
    }

    /// The pooled matrix must match the serial one to the bit for every
    /// thread count and every edge-case fixture — the report strings
    /// rendered from it depend on it.
    #[test]
    fn pooled_matrix_is_thread_count_invariant() {
        for s in fixtures() {
            let serial = correlation_matrix(&s);
            for threads in [1, 2, 4, 8] {
                let what = format!("k={} n={} threads={threads}", s.len(), s[0].len());
                assert_bit_identical(&correlation_matrix_pooled_on(threads, &s), &serial, &what);
            }
        }
    }
}
