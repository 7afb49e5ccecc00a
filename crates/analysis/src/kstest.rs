//! Kolmogorov–Smirnov goodness-of-fit test against an exponential.
//!
//! §5.2: "we can also see that the arrival rate of µbursts is not a
//! homogeneous/constant-rate Poisson process. We tested that using a
//! Kolmogorov-Smirnov goodness of fit test on the inter-arrival time with
//! exponential distribution, and got a p-value close to 0."
//!
//! The statistic is the usual sup-distance between the ECDF and the fitted
//! exponential CDF; the p-value uses the asymptotic Kolmogorov distribution.
//! (Fitting the rate from the same data makes the test slightly
//! conservative — the Lilliefors correction would shrink p further, which
//! only strengthens a rejection.)

/// Result of a KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D = sup |F_n(x) - F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

/// Tests whether `samples` are exponentially distributed, with the rate
/// fitted as `1/mean` (the MLE).
///
/// Copies and sorts the sample (via
/// [`sort_f64`](crate::sortf64::sort_f64)). A caller that also plots the
/// sample's CDF should use [`ks_test_exponential_with_ecdf`] and sort
/// once.
///
/// # Panics
/// Panics on an empty sample, on an observation that is negative,
/// infinite or NaN (outside the exponential's support), or on a
/// non-positive mean.
pub fn ks_test_exponential(samples: &[f64]) -> KsResult {
    assert!(!samples.is_empty(), "empty sample");
    // The rate is fitted before sorting: summation order is part of the
    // result's bit pattern, and entry points must agree on it.
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let mut xs = samples.to_vec();
    crate::sortf64::sort_f64(&mut xs);
    ks_sorted_with_mean(&xs, mean)
}

/// KS test and [`Ecdf`](crate::Ecdf) over one sample, sorting **once**.
///
/// Bit-identical to the pair
/// `(ks_test_exponential(&samples), Ecdf::new(samples))` — the rate is
/// fitted from the sample in its given order before the single shared
/// sort — but does half the work, for the harnesses (Fig. 4) that plot
/// the CDF the test was run on.
///
/// # Panics
/// As [`ks_test_exponential`].
pub fn ks_test_exponential_with_ecdf(samples: Vec<f64>) -> (KsResult, crate::Ecdf) {
    assert!(!samples.is_empty(), "empty sample");
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let ecdf = crate::Ecdf::new(samples);
    (ks_sorted_with_mean(ecdf.values(), mean), ecdf)
}

/// The KS core over order statistics: `D = sup |F_n(x) - F(x)|` against
/// `Exp(1/mean)`, then the asymptotic p-value.
fn ks_sorted_with_mean(xs: &[f64], mean: f64) -> KsResult {
    let n = xs.len();
    // The exponential's support is [0, ∞): outside it `F` leaves [0, 1]
    // and D can exceed 1, and an infinite point's deviation is NaN, which
    // `f64::max` would drop. The sort refused NaN, so the two extremes
    // decide.
    assert!(
        xs[0] >= 0.0 && xs[n - 1].is_finite(),
        "observation outside [0, ∞)"
    );
    assert!(mean > 0.0, "non-positive mean");

    // D = max over order statistics of the one-sided deviations.
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let f = 1.0 - (-x / mean).exp();
        let upper = (i as f64 + 1.0) / n as f64 - f;
        let lower = f - i as f64 / n as f64;
        d = d.max(upper).max(lower);
    }
    KsResult {
        statistic: d,
        p_value: kolmogorov_sf((n as f64).sqrt() * d),
        n,
    }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2 k² λ²}`.
///
/// For small λ the alternating series converges too slowly for floating
/// point, so (as numerical references do) the dual theta-function form
/// `P(λ) = (√(2π)/λ) Σ_{k≥1} e^{-(2k-1)² π² / (8 λ²)}` is used there.
pub fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if lambda > 6.0 {
        return 0.0; // below double precision
    }
    if lambda < 1.18 {
        // CDF via the small-λ series, then SF = 1 - CDF.
        let f = std::f64::consts::PI * std::f64::consts::PI / (8.0 * lambda * lambda);
        let mut cdf_sum = 0.0;
        for k in 1..=20u32 {
            let m = f64::from(2 * k - 1);
            let term = (-(m * m) * f).exp();
            cdf_sum += term;
            if term < 1e-16 {
                break;
            }
        }
        let cdf = (2.0 * std::f64::consts::PI).sqrt() / lambda * cdf_sum;
        return (1.0 - cdf).clamp(0.0, 1.0);
    }
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::rng::Rng;

    #[test]
    fn exponential_data_is_not_rejected() {
        let mut rng = Rng::new(5);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.exp(3.0)).collect();
        let r = ks_test_exponential(&xs);
        assert!(
            r.p_value > 0.01,
            "true exponential rejected: D={} p={}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn heavy_tailed_data_is_rejected() {
        let mut rng = Rng::new(6);
        // Pareto inter-arrivals — the kind of process µbursts resemble.
        let xs: Vec<f64> = (0..5_000).map(|_| rng.pareto(1.0, 1.2)).collect();
        let r = ks_test_exponential(&xs);
        assert!(r.p_value < 1e-6, "pareto not rejected: p={}", r.p_value);
    }

    #[test]
    fn bimodal_data_is_rejected() {
        let mut rng = Rng::new(7);
        let xs: Vec<f64> = (0..5_000)
            .map(|_| if rng.chance(0.5) { 1.0 } else { 100.0 })
            .collect();
        let r = ks_test_exponential(&xs);
        assert!(r.p_value < 1e-9);
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Known points of the Kolmogorov distribution.
        assert!((kolmogorov_sf(1.36) - 0.049).abs() < 0.005, "K(1.36)");
        assert!((kolmogorov_sf(1.63) - 0.010).abs() < 0.003, "K(1.63)");
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert_eq!(kolmogorov_sf(10.0), 0.0);
        // Small-lambda branch: essentially certain to exceed.
        assert!(kolmogorov_sf(1e-6) > 0.999999);
        assert!(kolmogorov_sf(0.3) > 0.999);
        // Continuity across the branch switch at 1.18.
        let below = kolmogorov_sf(1.1799);
        let above = kolmogorov_sf(1.1801);
        assert!((below - above).abs() < 1e-3, "{below} vs {above}");
    }

    #[test]
    fn statistic_in_unit_interval() {
        let mut rng = Rng::new(8);
        let xs: Vec<f64> = (0..100).map(|_| rng.exp(1.0)).collect();
        let r = ks_test_exponential(&xs);
        assert!((0.0..=1.0).contains(&r.statistic));
        assert_eq!(r.n, 100);
    }

    #[test]
    fn with_ecdf_is_bit_identical_to_the_pair() {
        let mut rng = Rng::new(10);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.exp(0.7)).collect();
        let separate_ks = ks_test_exponential(&xs);
        let separate_ecdf = crate::Ecdf::new(xs.clone());
        let (ks, ecdf) = ks_test_exponential_with_ecdf(xs);
        assert_eq!(ks.statistic.to_bits(), separate_ks.statistic.to_bits());
        assert_eq!(ks.p_value.to_bits(), separate_ks.p_value.to_bits());
        assert_eq!(ks.n, separate_ks.n);
        for (a, b) in ecdf.values().iter().zip(separate_ecdf.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        ks_test_exponential(&[]);
    }

    #[test]
    #[should_panic(expected = "outside [0, ∞)")]
    fn negative_observation_rejected() {
        // Used to return D = 2.218.
        ks_test_exponential(&[-1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "outside [0, ∞)")]
    fn negative_observation_rejected_with_ecdf() {
        ks_test_exponential_with_ecdf(vec![-1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "outside [0, ∞)")]
    fn infinite_observation_rejected() {
        // Used to return D = 0.667, the infinite point's NaN deviation
        // dropped by `f64::max`.
        ks_test_exponential(&[1.0, 2.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "non-finite observation")]
    fn infinite_observation_rejected_with_ecdf() {
        ks_test_exponential_with_ecdf(vec![1.0, 2.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_observation_rejected() {
        ks_test_exponential(&[1.0, f64::NAN, 2.0]);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_observation_rejected_with_ecdf() {
        ks_test_exponential_with_ecdf(vec![1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn signed_zeros_are_in_the_support() {
        let xs = [0.0, -0.0, 0.5, 1.0, 2.0, 4.0];
        let r = ks_test_exponential(&xs);
        assert!((0.0..=1.0).contains(&r.statistic), "D={}", r.statistic);
        assert_eq!(r.n, xs.len());
        let (with_ecdf, _) = ks_test_exponential_with_ecdf(xs.to_vec());
        assert_eq!(with_ecdf.statistic.to_bits(), r.statistic.to_bits());
    }
}
