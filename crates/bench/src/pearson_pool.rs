//! The Pearson correlation matrix fanned over the worker pool.
//!
//! Kept only for the standalone `benchmark/` workspace, which still links
//! it for its pooled-speedup row; no `repro` path calls it, and it
//! retires with ROADMAP item 3. Its measured verdict is retire: on two
//! threads it was slower than the serial
//! [`uburst_analysis::correlation_matrix`] at every matrix size, so Fig. 8
//! and `calibrate` call that.
//!
//! `uburst-analysis` takes each series' mean and norm once
//! ([`CenteredMatrix`]) and runs one blocked kernel over any contiguous
//! range of the **linearized upper triangle**; this module splits the
//! triangle into `PAIR_CHUNKS` near-equal pair ranges, runs them with
//! [`run_jobs_on`] and stitches the pieces back in submission order. The
//! kernel runs each pair's float operations in the same order whatever
//! other pairs share its range, so the result is bit-identical to the
//! serial matrix at any thread count.

use uburst_analysis::CenteredMatrix;

use crate::pool::run_jobs_on;

/// Target number of pair-range chunks per matrix. Fixed — **not** derived
/// from the thread count — for two reasons: the telemetry contract
/// (`uburst_pool_jobs_total` counts submitted jobs, and a snapshot must
/// be a function of the work, never of `UBURST_THREADS`), and balance
/// (64 chunks give any plausible worker count several chunks each, so a
/// straggling chunk is back-filled by idle workers instead of setting
/// the critical path).
const PAIR_CHUNKS: usize = 64;

/// Splits `[0, total)` into at most `chunks` non-empty, near-equal,
/// contiguous ranges.
fn pair_ranges(total: usize, chunks: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, total);
    let base = total / chunks;
    let rem = total % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// [`uburst_analysis::correlation_matrix`] with the upper triangle fanned
/// over `threads` workers (see [`run_jobs_on`]) in balanced pair ranges.
/// Bit-identical to the serial function at any thread count (asserted by
/// `pooled_matrix_is_thread_count_invariant` below).
///
/// # Panics
/// Panics if series lengths differ.
pub fn correlation_matrix_pooled_on(threads: usize, series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let c = CenteredMatrix::new(series);
    let ranges = pair_ranges(c.pairs(), PAIR_CHUNKS);
    let parts = run_jobs_on(threads, ranges, |(s, e)| c.upper_triangle(s..e));
    c.assemble(&parts.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_analysis::{correlation_matrix, pearson};

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

    /// Single-pair ranges walk the row-major upper triangle: range
    /// `p..p+1` is the `p`-th pair `(0,1), (0,2), …, (1,2), …`.
    #[test]
    fn pair_indexing_walks_the_upper_triangle() {
        for k in [2usize, 3, 5, 9, 24] {
            let s = fixture(k, 37, k / 2);
            let c = CenteredMatrix::new(&s);
            let mut p = 0;
            for i in 0..k {
                for j in (i + 1)..k {
                    let got = c.upper_triangle(p..p + 1);
                    assert_eq!(
                        got[0].to_bits(),
                        pearson(&s[i], &s[j]).to_bits(),
                        "k={k} p={p} ({i},{j})"
                    );
                    p += 1;
                }
            }
            assert_eq!(p, c.pairs());
        }
    }

    #[test]
    fn pair_ranges_cover_exactly_without_empties() {
        for total in [0usize, 1, 2, 7, 100, 276] {
            for chunks in [1usize, 2, 8, 32, 500] {
                let ranges = pair_ranges(total, chunks);
                let mut next = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, next, "contiguous");
                    assert!(e > s, "non-empty");
                    next = e;
                }
                assert_eq!(next, total, "covers [0,{total})");
                if total > 0 {
                    assert!(ranges.len() <= chunks.max(1));
                }
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

    /// Matrices too small to fill every chunk (k(k-1)/2 < threads×8) must
    /// still come back exact — the range splitter clamps, never pads.
    #[test]
    fn tiny_matrices_survive_chunk_clamping() {
        for k in [1usize, 2, 3, 4] {
            let s = fixture(k, 37, 0);
            let serial = correlation_matrix(&s);
            for threads in [1, 4, 16] {
                assert_eq!(correlation_matrix_pooled_on(threads, &s), serial, "k={k}");
            }
        }
    }
}
