//! Pooled evaluation of the Pearson correlation matrix.
//!
//! Fig. 8's heatmap and the calibration sweep compute k×k correlation
//! matrices over campaign-length series — the O(k²·n) dot products
//! dominate. The serial driver in `uburst-analysis` already centers each
//! series once ([`CenteredMatrix`]); this module fans the **linearized
//! upper triangle** across the campaign worker pool
//! ([`crate::pool::run_jobs`]) and stitches the pieces back in submission
//! order.
//!
//! The unit of work is a contiguous range of pair indices, not a row.
//! Row-tail jobs are pathologically unbalanced — row 0 carries `k-1`
//! dot products and row `k-1` carries none, so one worker drags the whole
//! matrix while the rest idle. Every pair costs the same `O(n)`, so a
//! fixed budget of near-equal pair ranges (`PAIR_CHUNKS`, several per
//! worker at any realistic thread count, to absorb scheduling jitter)
//! keeps all workers busy to the end and lets `pearson_pooled` throughput
//! actually scale with `UBURST_THREADS`.
//!
//! Bit-identity at any thread count comes for free from the split:
//! [`CenteredMatrix::entry`] depends only on `(i, j)` — same float ops in
//! the same order regardless of which worker evaluates it — and
//! `run_jobs` returns chunks indexed by submission order, so concatenating
//! them reproduces the row-major upper triangle exactly as the serial
//! loop emits it. `UBURST_THREADS=1` runs the chunks inline on the
//! caller, which *is* the serial code path.

use uburst_analysis::CenteredMatrix;

use crate::pool::{run_jobs, run_jobs_on};

/// Target number of pair-range chunks per matrix. Fixed — **not** derived
/// from the thread count — for two reasons: the telemetry contract
/// (`uburst_pool_jobs_total` counts submitted jobs, and a snapshot must
/// be a function of the work, never of `UBURST_THREADS`), and balance
/// (64 chunks give any plausible worker count several chunks each, so a
/// straggling chunk is back-filled by idle workers instead of setting
/// the critical path).
const PAIR_CHUNKS: usize = 64;

/// Number of upper-triangle pairs of a `k`-series matrix.
fn n_pairs(k: usize) -> usize {
    k * (k - 1) / 2
}

/// The pair at linear index `p` of the row-major upper triangle
/// (`(0,1), (0,2), …, (0,k-1), (1,2), …`).
fn pair_at(k: usize, mut p: usize) -> (usize, usize) {
    let mut i = 0;
    loop {
        let row = k - 1 - i;
        if p < row {
            return (i, i + 1 + p);
        }
        p -= row;
        i += 1;
    }
}

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

/// Evaluates the entries for one pair range, in linear-index order.
fn eval_range(c: &CenteredMatrix, (start, end): (usize, usize)) -> Vec<f64> {
    let k = c.len();
    let mut out = Vec::with_capacity(end - start);
    let (mut i, mut j) = pair_at(k, start);
    for _ in start..end {
        out.push(c.entry(i, j));
        j += 1;
        if j == k {
            i += 1;
            j = i + 1;
        }
    }
    out
}

/// Rebuilds the full symmetric matrix from the concatenated chunk results
/// (which are exactly the row-major upper triangle).
fn stitch(c: &CenteredMatrix, parts: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let k = c.len();
    let mut flat = parts.into_iter().flatten();
    let tails: Vec<Vec<f64>> = (0..k)
        .map(|i| flat.by_ref().take(k - 1 - i).collect())
        .collect();
    c.assemble(tails)
}

/// [`uburst_analysis::correlation_matrix`] with the upper triangle fanned
/// over the worker pool in balanced pair ranges. Bit-identical to the
/// serial function at any thread count (asserted by
/// `pooled_matrix_is_thread_count_invariant` below).
///
/// # Panics
/// Panics if series lengths differ.
pub fn correlation_matrix_pooled(series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let c = CenteredMatrix::new(series);
    if c.is_empty() {
        return Vec::new();
    }
    let ranges = pair_ranges(n_pairs(c.len()), PAIR_CHUNKS);
    let parts = run_jobs(ranges, |r| eval_range(&c, r));
    stitch(&c, parts)
}

/// [`correlation_matrix_pooled`] with an explicit thread count (see
/// [`run_jobs_on`]), bypassing `UBURST_THREADS` and the global budget.
/// Tests use this to pin both sides of the invariance assertion.
pub fn correlation_matrix_pooled_on(threads: usize, series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let c = CenteredMatrix::new(series);
    if c.is_empty() {
        return Vec::new();
    }
    let ranges = pair_ranges(n_pairs(c.len()), PAIR_CHUNKS);
    let parts = run_jobs_on(threads, ranges, |r| eval_range(&c, r));
    stitch(&c, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_analysis::correlation_matrix;

    fn series(k: usize, n: usize) -> Vec<Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut out: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 11) as f64 / (1u64 << 53) as f64
                    })
                    .collect()
            })
            .collect();
        // A flat series exercises the zero-variance path.
        out[k / 2] = vec![0.25; n];
        out
    }

    #[test]
    fn pair_indexing_walks_the_upper_triangle() {
        for k in [2usize, 3, 5, 9, 24] {
            let mut p = 0;
            for i in 0..k {
                for j in (i + 1)..k {
                    assert_eq!(pair_at(k, p), (i, j), "k={k} p={p}");
                    p += 1;
                }
            }
            assert_eq!(p, n_pairs(k));
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
    /// thread count — the report strings rendered from it depend on it.
    #[test]
    fn pooled_matrix_is_thread_count_invariant() {
        let s = series(9, 401);
        let serial = correlation_matrix(&s);
        for threads in [1, 2, 4, 8] {
            let pooled = correlation_matrix_pooled_on(threads, &s);
            assert_eq!(pooled.len(), serial.len());
            for (i, (pr, sr)) in pooled.iter().zip(&serial).enumerate() {
                for (j, (p, r)) in pr.iter().zip(sr).enumerate() {
                    assert_eq!(
                        p.to_bits(),
                        r.to_bits(),
                        "entry ({i},{j}) differs at {threads} threads"
                    );
                }
            }
        }
    }

    /// Matrices too small to fill every chunk (k(k-1)/2 < threads×8) must
    /// still come back exact — the range splitter clamps, never pads.
    #[test]
    fn tiny_matrices_survive_chunk_clamping() {
        for k in [1usize, 2, 3, 4] {
            let s = series(k.max(1), 37);
            let serial = correlation_matrix(&s);
            for threads in [1, 4, 16] {
                assert_eq!(correlation_matrix_pooled_on(threads, &s), serial, "k={k}");
            }
        }
    }

    #[test]
    fn pooled_matrix_uses_the_global_pool() {
        let s = series(5, 101);
        assert_eq!(correlation_matrix_pooled(&s), correlation_matrix(&s));
        assert!(correlation_matrix_pooled(&[]).is_empty());
    }
}
