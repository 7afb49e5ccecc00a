//! Packet-size histogram analysis (Fig. 5).
//!
//! Fig. 5 compares the normalized packet-size distribution *inside* bursts
//! against *outside* bursts. The input is a sequence of per-interval
//! histogram deltas (the ASIC's cumulative bins, differenced per sampling
//! period) plus the hot/cold classification of each interval; this module
//! splits, sums, and normalizes them.

/// A normalized histogram: bin fractions summing to 1 (or all zeros when
/// no packets were observed).
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedHistogram {
    /// Per-bin fraction of packets.
    pub fractions: Vec<f64>,
    /// Total packets the histogram was built from.
    pub total: u64,
}

impl NormalizedHistogram {
    /// Normalizes raw bin counts.
    pub fn from_counts(counts: &[u64]) -> Self {
        let total: u64 = counts.iter().sum();
        let fractions = if total == 0 {
            vec![0.0; counts.len()]
        } else {
            counts.iter().map(|&c| c as f64 / total as f64).collect()
        };
        NormalizedHistogram { fractions, total }
    }

    /// Fraction of packets in bins `>= first_large_bin` — "large packets"
    /// for the Fig. 5 comparison (bin 5 = 1024–1518 in the default layout).
    pub fn large_fraction(&self, first_large_bin: usize) -> f64 {
        self.fractions[first_large_bin.min(self.fractions.len())..]
            .iter()
            .sum()
    }
}

/// Splits per-interval histogram deltas by the hot/cold flag and returns
/// the summed `(inside_bursts, outside_bursts)` bin counts; normalize with
/// [`NormalizedHistogram::from_counts`] once every count is in.
///
/// `deltas[i]` are the per-bin packet counts observed during interval `i`;
/// `hot[i]` says whether that interval was part of a burst.
///
/// # Panics
/// Panics if lengths differ or bin counts are inconsistent.
pub fn split_by_burst(deltas: &[Vec<u64>], hot: &[bool]) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(deltas.len(), hot.len(), "length mismatch");
    let n_bins = deltas.first().map_or(0, Vec::len);
    let mut inside = vec![0u64; n_bins];
    let mut outside = vec![0u64; n_bins];
    for (d, &h) in deltas.iter().zip(hot) {
        assert_eq!(d.len(), n_bins, "inconsistent bin count");
        let acc = if h { &mut inside } else { &mut outside };
        for (a, &c) in acc.iter_mut().zip(d) {
            *a += c;
        }
    }
    (inside, outside)
}

/// Differences consecutive snapshots of cumulative per-bin counters into
/// per-interval deltas: `out[i][b] = snaps[i+1][b] - snaps[i][b]`.
///
/// # Panics
/// Panics when snapshots have inconsistent arity or counters decrease.
pub fn diff_histogram_snapshots(snaps: &[Vec<u64>]) -> Vec<Vec<u64>> {
    snaps
        .windows(2)
        .map(|w| {
            assert_eq!(w[0].len(), w[1].len(), "inconsistent bins");
            w[1].iter()
                .zip(&w[0])
                .map(|(&b, &a)| b.checked_sub(a).expect("cumulative counter decreased"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let h = NormalizedHistogram::from_counts(&[1, 3, 0, 4]);
        assert_eq!(h.total, 8);
        assert_eq!(h.fractions, vec![0.125, 0.375, 0.0, 0.5]);
        assert!((h.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_zeros() {
        let h = NormalizedHistogram::from_counts(&[0, 0, 0]);
        assert_eq!(h.total, 0);
        assert_eq!(h.fractions, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn large_fraction() {
        let h = NormalizedHistogram::from_counts(&[2, 2, 2, 2]);
        assert!((h.large_fraction(2) - 0.5).abs() < 1e-12);
        assert_eq!(h.large_fraction(0), 1.0);
        assert_eq!(h.large_fraction(10), 0.0);
    }

    #[test]
    fn split_routes_by_flag() {
        let deltas = vec![vec![1, 0], vec![0, 4], vec![3, 0]];
        let hot = vec![false, true, false];
        let (inside, outside) = split_by_burst(&deltas, &hot);
        assert_eq!(inside, vec![0, 4]);
        assert_eq!(outside, vec![4, 0]);
    }

    #[test]
    fn diff_snapshots() {
        let snaps = vec![vec![0, 0], vec![2, 1], vec![2, 5]];
        let d = diff_histogram_snapshots(&snaps);
        assert_eq!(d, vec![vec![2, 1], vec![0, 4]]);
    }

    #[test]
    #[should_panic(expected = "decreased")]
    fn decreasing_counter_panics() {
        diff_histogram_snapshots(&[vec![5], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn split_length_mismatch() {
        split_by_burst(&[vec![1]], &[true, false]);
    }
}
