//! Sorting of `f64` samples through their order-preserving `u64` image.
//!
//! Every distribution the paper reports (Figs. 3, 4, 6, 7; the KS test of
//! §5.2) starts by sorting a campaign-sized sample. Integer keys sort
//! without the `partial_cmp` branch per compare, so the sample is mapped
//! to keys, the keys are sorted with std's `sort_unstable`, and the keys
//! are mapped back — the standard trick for IEEE-754:
//!
//! * for `x >= 0.0`, `key = bits(x) ^ SIGN_BIT` (sets the top bit, so
//!   positives sort above negatives);
//! * for `x < 0.0`, `key = !bits(x)` (flips everything: more-negative
//!   values get smaller keys).
//!
//! The map is strictly monotone on non-NaN floats, so sorting keys sorts
//! values, and equal keys mean bit-identical values, so an unstable sort
//! cannot produce an observable reordering. The one exception is `-0.0`:
//! `partial_cmp` calls the two zeros equal while their bit patterns
//! differ, so the key normalizes `-0.0` to `+0.0` (`x + 0.0`) and is not
//! invertible there. A sample that contains a `-0.0` is sorted by the
//! stable `sort_by(partial_cmp)` itself — the reference the contract
//! names.

/// Sorts `xs` ascending by `partial_cmp`, bit-identically to
/// `xs.sort_by(|a, b| a.partial_cmp(b).unwrap())`.
///
/// # Panics
/// Panics if any value is NaN, at every length (infinities order fine and
/// are accepted; callers that reject non-finite input do so before or
/// after sorting).
pub fn sort_f64(xs: &mut [f64]) {
    let mut has_neg_zero = false;
    for &x in xs.iter() {
        assert!(!x.is_nan(), "NaN observation");
        has_neg_zero |= x.to_bits() == SIGN;
    }
    if has_neg_zero {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN refused by the prescan"));
        return;
    }
    let mut keys: Vec<u64> = xs.iter().map(|&x| key_of(x)).collect();
    keys.sort_unstable();
    for (x, &k) in xs.iter_mut().zip(&keys) {
        *x = f64::from_bits(val_of(k));
    }
}

const SIGN: u64 = 1u64 << 63;

/// The order-preserving key. `+ 0.0` collapses `-0.0` onto `+0.0` so the
/// two zeros — equal under `partial_cmp` — share a key. Branchless: the
/// arithmetic shift smears the sign bit into an all-ones mask for
/// negatives (flip everything) and all-zeros for non-negatives (flip the
/// sign bit only).
#[inline]
fn key_of(x: f64) -> u64 {
    let b = (x + 0.0).to_bits();
    b ^ ((((b as i64) >> 63) as u64) | SIGN)
}

/// Inverse of [`key_of`] (exact: without `-0.0` the key map is a
/// bijection). Keys of originally non-negative values carry a set top
/// bit, so the mask reconstruction mirrors the forward transform.
#[inline]
fn val_of(k: u64) -> u64 {
    k ^ ((((!k as i64) >> 63) as u64) | SIGN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(n: usize, seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        })
    }

    fn reference_sort(mut xs: Vec<f64>) -> Vec<f64> {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs
    }

    /// The one oracle: `sort_f64` against the stable comparison sort,
    /// bit for bit.
    fn assert_bit_identical(xs: Vec<f64>) {
        let expected = reference_sort(xs.clone());
        let mut got = xs;
        sort_f64(&mut got);
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "index {i}: sort_f64 {g} vs comparison {e}"
            );
        }
    }

    fn unit(u: u64) -> f64 {
        (u >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn key_transform_is_monotone() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-308,
            0.0,
            1e-308,
            0.5,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(key_of(w[0]) < key_of(w[1]), "{} !< {}", w[0], w[1]);
        }
        // The two zeros share a key (partial_cmp calls them equal).
        assert_eq!(key_of(-0.0), key_of(0.0));
    }

    #[test]
    fn key_transform_round_trips() {
        // val_of inverts key_of on every non-(-0.0) bit pattern class.
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1e-308,
            0.0,
            1e-308,
            0.5,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for &v in &vals {
            assert_eq!(val_of(key_of(v)), v.to_bits(), "round trip of {v}");
        }
        for u in lcg(10_000, 77) {
            let v = f64::from_bits(u >> 2); // clear top bits: finite, positive
            assert_eq!(val_of(key_of(v)), v.to_bits());
            let w = -v;
            if w.to_bits() != SIGN {
                assert_eq!(val_of(key_of(w)), w.to_bits());
            }
        }
    }

    #[test]
    fn sorts_mixed_signs_and_magnitudes() {
        let xs: Vec<f64> = lcg(10_000, 7)
            .map(|u| {
                let mag = (u >> 11) as f64 / (1u64 << 53) as f64;
                if u & 1 == 0 {
                    mag * 1e6
                } else {
                    -mag * 1e-6
                }
            })
            .collect();
        assert_bit_identical(xs);
    }

    #[test]
    fn sorts_nonnegative_samples() {
        // The common case: durations/utilizations, all >= 0, narrow range.
        let xs: Vec<f64> = lcg(50_000, 13)
            .map(|u| (u >> 11) as f64 / (1u64 << 53) as f64 * 300.0)
            .collect();
        assert_bit_identical(xs);
    }

    #[test]
    fn sorts_exponential_like_samples() {
        // Wide exponent spread, like inter-burst gaps.
        let xs: Vec<f64> = lcg(100_000, 17)
            .map(|u| {
                let uniform = (u >> 11) as f64 / (1u64 << 53) as f64;
                -100.0 * (1.0 - uniform).ln()
            })
            .collect();
        assert_bit_identical(xs);
    }

    #[test]
    fn handles_ties_zeros_and_infinities() {
        let mut xs = vec![0.0, -0.0, 1.0, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        // Pad with duplicates to exercise counting ties.
        for u in lcg(1000, 3) {
            xs.push(f64::from(((u >> 13) % 7) as u32));
        }
        assert_bit_identical(xs);
    }

    #[test]
    fn negative_zeros_keep_stable_order() {
        // Interleave -0.0/+0.0 among other values; the stable fallback
        // must reproduce the comparison sort's bit pattern exactly.
        let xs: Vec<f64> = lcg(20_000, 29)
            .map(|u| match u % 5 {
                0 => -0.0,
                1 => 0.0,
                2 => ((u >> 20) % 100) as f64,
                _ => -(((u >> 20) % 100) as f64) - 1.0,
            })
            .collect();
        assert_bit_identical(xs);
    }

    #[test]
    fn all_equal_sample_is_untouched() {
        assert_bit_identical(vec![42.5; 5000]);
    }

    #[test]
    fn sorts_few_distinct_values() {
        // Quantised samples (queue depths in cells, packet-size bins):
        // 160 000 observations over 40 distinct values.
        let xs: Vec<f64> = lcg(160_000, 31)
            .map(|u| ((u >> 33) % 40) as f64 * 0.025)
            .collect();
        assert_bit_identical(xs);
    }

    #[test]
    fn sorts_mostly_idle_utilisation() {
        // Fig. 6's shape: 70 % of intervals carry no traffic at all.
        let xs: Vec<f64> = lcg(50_000, 37)
            .map(|u| if u % 10 < 7 { 0.0 } else { unit(u) })
            .collect();
        assert_bit_identical(xs);
    }

    #[test]
    fn sorts_every_length_around_the_old_threshold() {
        // 4 096 is where the retired radix path used to take over.
        for n in [0usize, 1, 2, 4095, 4096, 4097] {
            assert_bit_identical(lcg(n, n as u64 + 1).map(|u| unit(u) - 0.5).collect());
        }
    }

    #[test]
    fn sorts_a_three_element_sample_and_an_empty_one() {
        let mut xs = vec![3.0, 1.0, 2.0];
        sort_f64(&mut xs);
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        let mut empty: Vec<f64> = Vec::new();
        sort_f64(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn sorts_ten_thousand_uniform_samples() {
        assert_bit_identical(lcg(10_000, 21).map(unit).collect());
    }

    fn sort_with_nan_at(n: usize, at: usize) {
        let mut xs: Vec<f64> = (0..n as u32).map(f64::from).collect();
        xs[at] = f64::NAN;
        sort_f64(&mut xs);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected_at_length_1() {
        sort_with_nan_at(1, 0);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected_at_length_3() {
        sort_with_nan_at(3, 1);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected_at_length_5000() {
        sort_with_nan_at(5000, 4321);
    }
}
