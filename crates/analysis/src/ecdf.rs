//! Empirical cumulative distribution functions.
//!
//! Every CDF figure in the paper (Figs. 3, 4, 6, 7) is an ECDF over one of
//! the derived per-sample quantities; this module is the shared machinery.

use crate::quantile::nearest_rank;
use crate::sortf64::sort_f64;

/// An empirical CDF over `f64` observations.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds from unsorted observations. Non-finite values are rejected.
    ///
    /// The sample is sorted by [`sort_f64`] (`sort_unstable` over the
    /// order-preserving integer image), bit-identically to the stable
    /// comparison sort.
    ///
    /// # Panics
    /// Panics on NaN (caught by the sort's prescan), infinite input
    /// (caught at the extremes after sorting), or an empty sample.
    pub fn new(mut xs: Vec<f64>) -> Self {
        assert!(!xs.is_empty(), "empty sample");
        // The sort rejects NaN in its own prescan, and infinities sort to
        // the ends — so finiteness of the two extremes is finiteness of
        // the whole sample. O(1) instead of a second streaming pass over
        // a campaign-sized sample.
        sort_f64(&mut xs);
        assert!(
            xs[0].is_finite() && xs[xs.len() - 1].is_finite(),
            "non-finite observation"
        );
        Ecdf { sorted: xs }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples); present for
    /// `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — fraction of observations `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        // partition_point gives the first index with value > x.
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in [0, 1], by the nearest-rank method
    /// (what the paper's pXX notation means). The rank is computed with
    /// exact integer arithmetic ([`nearest_rank`]), so `q` values like
    /// 0.9 or 0.99 never round across an exact rank boundary.
    pub fn quantile(&self, q: f64) -> f64 {
        self.sorted[nearest_rank(q, self.sorted.len()) - 1]
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sorted observations (read-only view).
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates the ECDF at each of `points`, yielding `(x, F(x))` rows —
    /// the series a figure harness prints.
    pub fn curve(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&x| (x, self.fraction_at_or_below(x)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_fractions() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.5), 0.5);
        assert_eq!(e.fraction_at_or_below(4.0), 1.0);
        assert_eq!(e.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(0.9), 90.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
        assert!((e.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_single_point() {
        let e = Ecdf::new(vec![7.0]);
        assert_eq!(e.quantile(0.0), 7.0);
        assert_eq!(e.quantile(0.5), 7.0);
        assert_eq!(e.quantile(1.0), 7.0);
    }

    #[test]
    fn ties_are_counted() {
        let e = Ecdf::new(vec![2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.fraction_at_or_below(2.0), 0.75);
    }

    #[test]
    fn curve_evaluates_points() {
        let e = Ecdf::new(vec![1.0, 2.0]);
        let c = e.curve(&[0.0, 1.0, 3.0]);
        assert_eq!(c, vec![(0.0, 0.0), (1.0, 0.5), (3.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn infinity_rejected() {
        Ecdf::new(vec![1.0, f64::INFINITY, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn negative_infinity_rejected() {
        Ecdf::new(vec![f64::NEG_INFINITY, 1.0, 2.0]);
    }
}
