//! Pearson correlation (Fig. 1's corr coefficient, Fig. 8's heatmaps).

use std::ops::Range;

/// Number of independent accumulator lanes in the dot-product kernels.
///
/// A single running sum is a serial dependency chain: each add waits on
/// the previous one (~4 cycles on current cores), capping the campaign-
/// length dot products that dominate the k×k matrices at one element per
/// add latency. Four interleaved lanes keep the FP adder pipeline full.
/// The lane split and the combine order `(a0+a2)+(a1+a3)` then the tail
/// are part of the *defined* summation order: [`pearson`] and the matrix
/// kernel behind [`CenteredMatrix`] use the same scheme, which is what
/// keeps them bit-identical to each other.
const LANES: usize = 4;

/// Samples per block of the matrix kernel, a multiple of [`LANES`]. The
/// centred block of every series a range touches (32 series × 1 KiB for
/// the benchmark's 32×160 k matrix) stays in L1 while each pair of the
/// range reads it, so a series is streamed from memory once per range
/// instead of once per pair. 256 and 512 measured slower on a 48 KiB L1.
const BLOCK: usize = 128;

/// Pairs per register tile: up to four pairs that share a row load the
/// row's lane group once for four multiply-adds.
const TILE: usize = 4;

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0.0 when either sample has zero variance (a flat series is
/// uncorrelated with everything; this matches how heatmaps render idle
/// ports rather than propagating NaN).
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(!xs.is_empty(), "empty sample");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    // One pass, three sums, each in the lane scheme of the matrix kernel
    // (`centered_dots`), so this stays bit-identical to its entries.
    let split = xs.len() - xs.len() % LANES;
    let mut axy = [0.0f64; LANES];
    let mut axx = [0.0f64; LANES];
    let mut ayy = [0.0f64; LANES];
    for (xc, yc) in xs[..split]
        .chunks_exact(LANES)
        .zip(ys[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            let dx = xc[l] - mx;
            let dy = yc[l] - my;
            axy[l] += dx * dy;
            axx[l] += dx * dx;
            ayy[l] += dy * dy;
        }
    }
    let mut sxy = (axy[0] + axy[2]) + (axy[1] + axy[3]);
    let mut sxx = (axx[0] + axx[2]) + (axx[1] + axx[3]);
    let mut syy = (ayy[0] + ayy[2]) + (ayy[1] + ayy[3]);
    for (&x, &y) in xs[split..].iter().zip(&ys[split..]) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// The O(k·n) part of [`correlation_matrix`] — each series' mean and norm,
/// computed once — and the matrix kernel over any contiguous range of the
/// row-major strict upper triangle `(0,1), (0,2), …, (0,k-1), (1,2), …`.
///
/// Holds no copy of the series: the kernel centres them block by block
/// as it goes. Splitting the two lets callers distribute the O(k²·n) part
/// however they like — one range covering every pair, or a worker pool
/// fanning pair ranges (the bench crate's pooled driver) — while every
/// entry stays bit-identical to [`pearson`]: the kernel runs each pair's
/// float operations in `pearson`'s order whatever other pairs share its
/// range, so any partition of the pairs yields the same bits.
pub struct CenteredMatrix<'a> {
    series: &'a [Vec<f64>],
    means: Vec<f64>,
    norms: Vec<f64>,
}

impl<'a> CenteredMatrix<'a> {
    /// Takes every series' mean (the serial sum [`pearson`] takes) and
    /// norm (the root of the kernel's diagonal sum, which is `pearson`'s
    /// `sxx`).
    ///
    /// # Panics
    /// Panics if series lengths differ.
    pub fn new(series: &'a [Vec<f64>]) -> Self {
        let n = series.first().map_or(0, Vec::len);
        assert!(series.iter().all(|s| s.len() == n), "unaligned series");
        let means: Vec<f64> = series
            .iter()
            .map(|s| s.iter().sum::<f64>() / n as f64)
            .collect();
        let diagonal: Vec<(usize, usize)> = (0..series.len()).map(|i| (i, i)).collect();
        let norms = centered_dots(series, &means, &diagonal)
            .into_iter()
            .map(f64::sqrt)
            .collect();
        Self {
            series,
            means,
            norms,
        }
    }

    /// Number of pairs in the strict upper triangle, `k(k-1)/2`.
    pub fn pairs(&self) -> usize {
        let k = self.series.len();
        k * k.saturating_sub(1) / 2
    }

    /// The correlations at linear indices `range` of the strict upper
    /// triangle, in order — entry `(i, j)` bit-identical to
    /// `pearson(&series[i], &series[j])`.
    ///
    /// # Panics
    /// Panics if `range` reaches past [`Self::pairs`].
    pub fn upper_triangle(&self, range: Range<usize>) -> Vec<f64> {
        assert!(range.end <= self.pairs(), "pair index out of range");
        let pairs = pairs_in(self.series.len(), range);
        let dots = centered_dots(self.series, &self.means, &pairs);
        pairs
            .iter()
            .zip(dots)
            .map(|(&(i, j), sxy)| {
                let (ni, nj) = (self.norms[i], self.norms[j]);
                if ni == 0.0 || nj == 0.0 {
                    0.0
                } else {
                    (sxy / (ni * nj)).clamp(-1.0, 1.0)
                }
            })
            .collect()
    }

    /// The full symmetric matrix, unit diagonal, from the whole strict
    /// upper triangle in order (the concatenation of
    /// [`Self::upper_triangle`] over ranges tiling `0..pairs()`).
    ///
    /// # Panics
    /// Panics if `upper` is not [`Self::pairs`] long.
    pub fn assemble(&self, upper: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(upper.len(), self.pairs(), "not a whole upper triangle");
        let k = self.series.len();
        let mut m = vec![vec![0.0; k]; k];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for (&(i, j), &r) in pairs_in(k, 0..upper.len()).iter().zip(upper) {
            m[i][j] = r;
            m[j][i] = r;
        }
        m
    }
}

/// The pairs at linear indices `range` of a `k`-series strict upper
/// triangle, in row-major order.
fn pairs_in(k: usize, range: Range<usize>) -> Vec<(usize, usize)> {
    let (mut i, mut skip) = (0, range.start);
    while i < k && skip >= k - 1 - i {
        skip -= k - 1 - i;
        i += 1;
    }
    let mut j = i + 1 + skip;
    let mut out = Vec::with_capacity(range.len());
    for _ in range {
        out.push((i, j));
        j += 1;
        if j == k {
            i += 1;
            j = i + 1;
        }
    }
    out
}

/// The matrix kernel: `Σ_t (x_i[t] − m_i)·(x_j[t] − m_j)` for every listed
/// pair `(i, j)`, in one pass over the samples.
///
/// The samples are walked in blocks of [`BLOCK`]. Each block of every
/// series the pairs read is centred once, and every pair adds its
/// products into its own [`LANES`] persistent accumulators, [`TILE`]
/// pairs of a row at a time. Lane `l` of a pair therefore sums the
/// products at `t ≡ l (mod LANES)` in increasing `t`, exactly as
/// [`pearson`] does; the lanes combine `(a0+a2)+(a1+a3)` and the last
/// `n % LANES` products follow serially, also as there. Neither the
/// blocking, the tiling, nor the other pairs in the list move a bit.
fn centered_dots(series: &[Vec<f64>], means: &[f64], pairs: &[(usize, usize)]) -> Vec<f64> {
    const GROUPS: usize = BLOCK / LANES;
    let n = series.first().map_or(0, Vec::len);
    let split = n - n % LANES;
    // One slot of the block buffer per series the pairs read.
    let mut slot = vec![usize::MAX; series.len()];
    let mut touched = Vec::new();
    for &(i, j) in pairs {
        for s in [i, j] {
            if slot[s] == usize::MAX {
                slot[s] = touched.len();
                touched.push(s);
            }
        }
    }
    // Runs of at most TILE consecutive pairs sharing a row.
    let mut tiles: Vec<Range<usize>> = Vec::new();
    for (p, &(i, _)) in pairs.iter().enumerate() {
        match tiles.last_mut() {
            Some(t) if t.len() < TILE && pairs[t.start].0 == i => t.end = p + 1,
            _ => tiles.push(p..p + 1),
        }
    }
    let mut block = vec![[0.0f64; LANES]; touched.len() * GROUPS];
    let mut acc = vec![[0.0f64; LANES]; pairs.len()];
    for start in (0..split).step_by(BLOCK) {
        let groups = (split - start).min(BLOCK) / LANES;
        for (q, &s) in touched.iter().enumerate() {
            let (m, xs) = (means[s], &series[s][start..start + groups * LANES]);
            for (c, x) in block[q * GROUPS..][..groups]
                .iter_mut()
                .zip(xs.chunks_exact(LANES))
            {
                for l in 0..LANES {
                    c[l] = x[l] - m;
                }
            }
        }
        let centred = |s: usize| &block[slot[s] * GROUPS..][..groups];
        for t in &tiles {
            let (ps, a) = (&pairs[t.clone()], &mut acc[t.clone()]);
            let row = centred(ps[0].0);
            let col = |w: usize| centred(ps[w].1);
            match ps.len() {
                1 => tile::<1>(row, std::array::from_fn(col), a),
                2 => tile::<2>(row, std::array::from_fn(col), a),
                3 => tile::<3>(row, std::array::from_fn(col), a),
                _ => tile::<TILE>(row, std::array::from_fn(col), a),
            }
        }
    }
    pairs
        .iter()
        .zip(&acc)
        .map(|(&(i, j), a)| {
            let mut sum = (a[0] + a[2]) + (a[1] + a[3]);
            for (&x, &y) in series[i][split..].iter().zip(&series[j][split..]) {
                sum += (x - means[i]) * (y - means[j]);
            }
            sum
        })
        .collect()
}

/// Adds one block of `W` pairs that share the centred `row` into their
/// lane accumulators `acc` (`W` long); `cols` are the pairs' other series.
#[inline(always)]
fn tile<const W: usize>(
    row: &[[f64; LANES]],
    cols: [&[[f64; LANES]]; W],
    acc: &mut [[f64; LANES]],
) {
    let cols = cols.map(|c| &c[..row.len()]);
    let mut a: [[f64; LANES]; W] = std::array::from_fn(|w| acc[w]);
    for (g, x) in row.iter().enumerate() {
        for w in 0..W {
            let y = &cols[w][g];
            for l in 0..LANES {
                a[w][l] += x[l] * y[l];
            }
        }
    }
    acc.copy_from_slice(&a);
}

/// Full correlation matrix across several aligned series — the server ×
/// server heatmap of Fig. 8.
///
/// Calling [`pearson`] per pair re-derives each series' mean and centred
/// values once per *pair* and streams two whole series per pair. This is
/// [`CenteredMatrix`]'s kernel over the whole upper triangle, which reads
/// every series from memory once; every entry is bit-identical to the
/// naive pairwise evaluation (asserted by `matches_naive_pairwise_pearson`
/// below).
///
/// # Panics
/// Panics if series lengths differ.
pub fn correlation_matrix(series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let c = CenteredMatrix::new(series);
    c.assemble(&c.upper_triangle(0..c.pairs()))
}

/// Mean of the off-diagonal entries — a scalar "how correlated is this
/// rack" summary used when comparing rack types.
pub fn mean_offdiagonal(matrix: &[Vec<f64>]) -> f64 {
    let k = matrix.len();
    if k < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for (i, row) in matrix.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j {
                sum += v;
                cnt += 1;
            }
        }
    }
    sum / cnt as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_correlation() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_anticorrelation() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![3.0, 2.0, 1.0];
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_is_near_zero() {
        // Deterministic "independent" pair: orthogonal sinusoid samples.
        let n = 10_000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        assert!(pearson(&x, &y).abs() < 0.02);
    }

    #[test]
    fn constant_series_gives_zero() {
        let x = vec![5.0, 5.0, 5.0];
        let y = vec![1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let s = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![4.0, 3.0, 2.0, 1.0],
            vec![1.0, 1.0, 2.0, 2.0],
        ];
        let m = correlation_matrix(&s);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert!((m[0][1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_offdiagonal_summary() {
        let m = vec![vec![1.0, 0.5], vec![0.5, 1.0]];
        assert!((mean_offdiagonal(&m) - 0.5).abs() < 1e-12);
        assert_eq!(mean_offdiagonal(&[]), 0.0);
    }

    #[test]
    fn empty_matrix_ok() {
        assert!(correlation_matrix(&[]).is_empty());
    }

    /// The optimized matrix must equal the naive per-pair evaluation
    /// **exactly** (same float ops in the same order), not just within an
    /// epsilon — Fig. 8's report strings depend on it.
    #[test]
    fn matches_naive_pairwise_pearson() {
        // Deterministic pseudo-random series, including a constant one to
        // exercise the zero-variance path.
        let k = 9;
        let n = 257;
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut series: Vec<Vec<f64>> = (0..k)
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
        series[4] = vec![0.375; n];

        let fast = correlation_matrix(&series);
        for i in 0..k {
            for j in 0..k {
                let naive = if i == j {
                    1.0
                } else {
                    pearson(&series[i], &series[j])
                };
                assert_eq!(
                    fast[i][j].to_bits(),
                    naive.to_bits(),
                    "entry ({i},{j}): fast {} != naive {naive}",
                    fast[i][j]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    /// `k` seeded series of `n` samples: a shared factor at per-series
    /// weights plus noise, one flat series at index `flat` (the
    /// zero-variance path) and one on a 1e9 offset (cancellation in the
    /// centring).
    fn fixture(k: usize, n: usize, flat: usize) -> Vec<Vec<f64>> {
        let mut state = 0x243F_6A88_85A3_08D3u64 ^ (k * 10_007 + n) as u64;
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
        out[flat] = vec![0.375; n];
        out
    }

    /// The kernel is `pearson`, bit for bit, at every edge: tile
    /// remainders (k), lane tails and block boundaries (n), the flat
    /// series first, in the middle and last.
    #[test]
    fn kernel_is_pearson_bit_for_bit_at_every_edge() {
        for k in [1usize, 2, 3, 4, 5, 8, 9, 31, 32, 33] {
            for n in [1usize, 3, 4, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3] {
                for flat in [0, k / 2, k - 1] {
                    let s = fixture(k, n, flat);
                    let m = correlation_matrix(&s);
                    assert_eq!(m.len(), k);
                    for i in 0..k {
                        assert_eq!(m[i][i], 1.0);
                        for j in (i + 1)..k {
                            let naive = pearson(&s[i], &s[j]);
                            assert_eq!(
                                m[i][j].to_bits(),
                                naive.to_bits(),
                                "k={k} n={n} flat={flat} ({i},{j}): {} != {naive}",
                                m[i][j]
                            );
                            assert_eq!(m[j][i].to_bits(), naive.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// Any partition of the pairs into ranges gives the same entries as
    /// one range over all of them — what the pooled driver relies on.
    #[test]
    fn any_partition_of_the_pairs_gives_the_same_bits() {
        let s = fixture(9, BLOCK + 7, 4);
        let c = CenteredMatrix::new(&s);
        let whole = c.upper_triangle(0..c.pairs());
        for cut in 0..=c.pairs() {
            let mut parts = c.upper_triangle(0..cut);
            parts.extend(c.upper_triangle(cut..c.pairs()));
            assert!(
                parts
                    .iter()
                    .zip(&whole)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "cut at {cut}"
            );
        }
        for (p, r) in whole.iter().enumerate() {
            assert_eq!(c.upper_triangle(p..p + 1)[0].to_bits(), r.to_bits());
        }
    }

    /// Series of length 0 (the fleet report can truncate its aggregates
    /// that far) give the identity, with no NaN in it.
    #[test]
    fn zero_length_series_give_the_identity() {
        for k in [1usize, 2, 5] {
            let m = correlation_matrix(&vec![Vec::new(); k]);
            assert_eq!(m.len(), k);
            for (i, row) in m.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    let want: f64 = if i == j { 1.0 } else { 0.0 };
                    assert_eq!(v.to_bits(), want.to_bits(), "k={k} ({i},{j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pair index out of range")]
    fn ranges_past_the_triangle_panic() {
        let s = fixture(3, 8, 0);
        CenteredMatrix::new(&s).upper_triangle(2..4);
    }
}
