//! Exact nearest-rank indexing: the rank behind every pXX the analyses
//! report through [`Ecdf::quantile`](crate::Ecdf::quantile).

/// The 1-indexed nearest rank for quantile `q` of an `n`-sample:
/// `ceil(q·n)` clamped to `[1, n]`, with `q = 0` meaning the minimum.
///
/// The naive `(q * n as f64).ceil()` double-rounds: the product can land
/// one ulp past an exact rank boundary (`q` like 0.9 or 0.99 at round
/// `n`), silently shifting pXX by one order statistic. This computes the
/// ceiling in integer arithmetic instead:
///
/// * `q` that is exactly the f64 nearest a 6-digit decimal `p/10^6` —
///   every pXX the paper uses — ranks as `ceil(p·n / 10^6)` over `u128`,
///   honoring the decimal the caller wrote;
/// * any other `q` ranks via its exact binary value `m·2^-s`, so the
///   result is still a true ceiling rather than a rounded product.
///
/// # Panics
/// Panics if `n == 0` or `q` is outside [0, 1].
pub fn nearest_rank(q: f64, n: usize) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    assert!(n > 0, "empty sample");
    if q == 0.0 {
        return 1;
    }
    const DEN: u128 = 1_000_000;
    let p = (q * DEN as f64).round() as u64;
    let rank = if p as f64 / DEN as f64 == q {
        let num = p as u128 * n as u128;
        num.div_ceil(DEN) as usize
    } else {
        // q = m·2^-s exactly (s = 1075 - biased exponent; subnormals use
        // s = 1074 with no implicit bit).
        let bits = q.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as u32;
        let frac = bits & ((1u64 << 52) - 1);
        let (m, s) = if exp == 0 {
            (frac, 1074)
        } else {
            (frac | (1u64 << 52), 1075 - exp)
        };
        if s >= 128 {
            // q < 2^-75, so q·n < 1 for any representable n: rank 1.
            1
        } else {
            let num = m as u128 * n as u128;
            ((num + (1u128 << s) - 1) >> s) as usize
        }
    };
    rank.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ecdf;

    fn lcg_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// `Ecdf::quantile` is the order statistic at the nearest rank, as an
    /// independent selection finds it, for every rank, including edge qs
    /// and heavily tied samples.
    #[test]
    fn agrees_with_ecdf_quantile() {
        let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        for n in [1usize, 2, 3, 10, 101, 1024] {
            for seed in [1u64, 42] {
                let sample = lcg_sample(n, seed);
                let tied: Vec<f64> = sample.iter().map(|x| (x * 4.0).round()).collect();
                for xs in [sample, tied] {
                    let e = Ecdf::new(xs.clone());
                    for &q in &qs {
                        let mut scratch = xs.clone();
                        let (_, selected, _) =
                            scratch.select_nth_unstable_by(nearest_rank(q, n) - 1, f64::total_cmp);
                        assert_eq!(
                            selected.to_bits(),
                            e.quantile(q).to_bits(),
                            "n={n} seed={seed} q={q}"
                        );
                    }
                }
            }
        }
    }

    /// The hardening contract: for every paper pXX (written as an exact
    /// decimal num/den) and every n up to 1000, the rank is the true
    /// decimal ceiling — no float product to drift one ulp across an
    /// exact boundary (q·n integral).
    #[test]
    fn nearest_rank_sweeps_paper_quantiles() {
        // (q literal, numerator, denominator) — q is the f64 nearest num/den.
        let paper_qs: [(f64, u128, u128); 10] = [
            (0.01, 1, 100),
            (0.05, 5, 100),
            (0.25, 25, 100),
            (0.5, 5, 10),
            (0.75, 75, 100),
            (0.9, 9, 10),
            (0.95, 95, 100),
            (0.99, 99, 100),
            (0.999, 999, 1000),
            (1.0, 1, 1),
        ];
        for n in 1usize..=1000 {
            assert_eq!(nearest_rank(0.0, n), 1, "q=0 n={n}");
            for &(q, num, den) in &paper_qs {
                let expected = ((num * n as u128).div_ceil(den) as usize).clamp(1, n);
                assert_eq!(nearest_rank(q, n), expected, "q={q} n={n}");
            }
        }
    }

    /// Ranks of arbitrary (non-decimal) qs are exact ceilings of the
    /// binary value: rank-1 < q·n <= rank, verified in integers.
    #[test]
    fn nearest_rank_is_exact_for_binary_qs() {
        for q in [
            1e-300_f64,
            2f64.powi(-80),
            0.1 + 1e-17,
            1.0 / 3.0,
            0.7654321,
        ] {
            for n in [1usize, 9, 10, 999, 1000, 1_000_000] {
                let r = nearest_rank(q, n);
                assert!((1..=n).contains(&r), "q={q} n={n} r={r}");
                // Compare q·n against r and r-1 without rounding:
                // q = m·2^-s, so q·n >= k  <=>  m·n >= k·2^s.
                let bits = q.to_bits();
                let exp = ((bits >> 52) & 0x7FF) as u32;
                let frac = bits & ((1u64 << 52) - 1);
                let (m, s) = if exp == 0 {
                    (frac, 1074u32)
                } else {
                    (frac | (1u64 << 52), 1075 - exp)
                };
                let prod = m as u128 * n as u128;
                if s < 128 {
                    assert!(prod <= (r as u128) << s, "q·n > rank: q={q} n={n} r={r}");
                    if r > 1 {
                        assert!(
                            prod > ((r - 1) as u128) << s,
                            "q·n <= rank-1: q={q} n={n} r={r}"
                        );
                    }
                } else {
                    assert_eq!(r, 1, "tiny q must rank 1: q={q} n={n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        nearest_rank(0.5, 0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn out_of_range_rejected() {
        nearest_rank(1.5, 1);
    }
}
