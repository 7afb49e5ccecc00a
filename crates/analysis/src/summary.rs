//! Five-number summaries / boxplot statistics (Fig. 10).

/// Boxplot statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Computes the summary. Quartiles use linear interpolation between
    /// order statistics (type-7, the numpy/R default).
    ///
    /// # Panics
    /// Panics on empty or non-finite input.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "empty sample");
        assert!(samples.iter().all(|x| x.is_finite()), "non-finite sample");
        let mut xs = samples.to_vec();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Summary {
            min: xs[0],
            q1: interpolated_quantile(&xs, 0.25),
            median: interpolated_quantile(&xs, 0.5),
            q3: interpolated_quantile(&xs, 0.75),
            max: *xs.last().expect("non-empty"),
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
            n: xs.len(),
        }
    }
}

/// Type-7 quantile of an already sorted slice.
fn interpolated_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Groups `(key, value)` observations by key and summarizes each group —
/// the "boxplot of peak buffer occupancy versus number of hot ports"
/// structure of Fig. 10. Returns `(key, Summary)` sorted by key; keys with
/// no observations are absent.
pub fn grouped_summaries(pairs: &[(usize, f64)]) -> Vec<(usize, Summary)> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(k, v) in pairs {
        groups.entry(k).or_default().push(v);
    }
    groups
        .into_iter()
        .map(|(k, vs)| (k, Summary::of(&vs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn interpolation_between_points() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn single_point() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn order_does_not_matter() {
        let a = Summary::of(&[3.0, 1.0, 2.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn grouping() {
        let pairs = [(1, 10.0), (2, 30.0), (1, 20.0), (3, 1.0)];
        let groups = grouped_summaries(&pairs);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, 1);
        assert_eq!(groups[0].1.median, 15.0);
        assert_eq!(groups[0].1.n, 2);
        assert_eq!(groups[1].0, 2);
        assert_eq!(groups[2].0, 3);
        assert_eq!(groups[2].1.n, 1);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_rejected() {
        Summary::of(&[]);
    }
}
