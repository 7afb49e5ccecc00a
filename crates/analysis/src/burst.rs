//! Burst extraction.
//!
//! The paper's operational definition (§5.1): "we say a switch's egress link
//! is *hot* if, for the measurement period, its utilization exceeds 50%. An
//! unbroken sequence of hot samples indicates a burst." Durations and
//! inter-burst gaps are measured in wall time covered by the constituent
//! sampling intervals, so a one-sample burst at 25 µs granularity has
//! duration 25 µs.

use uburst_core::UtilSample;
use uburst_sim::time::Nanos;

/// The paper's hot-link threshold.
pub const HOT_THRESHOLD: f64 = 0.5;

/// A maximal run of consecutive hot samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Start of the first hot interval.
    pub start: Nanos,
    /// End of the last hot interval.
    pub end: Nanos,
    /// Number of hot samples in the run.
    pub samples: usize,
}

impl Burst {
    /// Wall time the burst covers.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// Bursts and the gaps between them for one utilization series.
#[derive(Debug, Clone, Default)]
pub struct BurstAnalysis {
    /// Maximal hot runs in time order.
    pub bursts: Vec<Burst>,
    /// Time between consecutive bursts (end of k to start of k+1);
    /// `bursts.len().saturating_sub(1)` entries.
    pub gaps: Vec<Nanos>,
    /// Total hot samples.
    pub hot_samples: usize,
    /// Total samples examined.
    pub total_samples: usize,
}

impl BurstAnalysis {
    /// Fraction of sampling periods spent hot.
    pub fn hot_fraction(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.hot_samples as f64 / self.total_samples as f64
        }
    }

    /// Burst durations, for ECDF construction (Fig. 3).
    pub fn durations(&self) -> Vec<Nanos> {
        self.bursts.iter().map(Burst::duration).collect()
    }
}

/// Extracts bursts from a utilization series using `threshold`.
///
/// Samples must be in time order. A trailing in-progress burst is included
/// (its duration is a lower bound, like any windowed measurement).
pub fn extract_bursts(samples: &[UtilSample], threshold: f64) -> BurstAnalysis {
    let mut out = BurstAnalysis {
        total_samples: samples.len(),
        ..BurstAnalysis::default()
    };
    let mut current: Option<Burst> = None;
    for s in samples {
        let hot = s.util > threshold;
        if hot {
            out.hot_samples += 1;
            let start = s.t - s.dt;
            match current.as_mut() {
                Some(b) => {
                    b.end = s.t;
                    b.samples += 1;
                }
                None => {
                    current = Some(Burst {
                        start,
                        end: s.t,
                        samples: 1,
                    });
                }
            }
        } else if let Some(b) = current.take() {
            out.bursts.push(b);
        }
    }
    if let Some(b) = current.take() {
        out.bursts.push(b);
    }
    out.gaps = out
        .bursts
        .windows(2)
        .map(|w| w[1].start - w[0].end)
        .collect();
    out
}

/// Classifies each sample hot/cold — the 0/1 chain the Markov model
/// (Table 2) is fit on.
pub fn hot_chain(samples: &[UtilSample], threshold: f64) -> Vec<bool> {
    samples.iter().map(|s| s.util > threshold).collect()
}

/// Counts, for each aligned sampling period across several port series, how
/// many ports were hot — the quantity behind Fig. 9 (uplink vs. downlink
/// share of hot ports) and Fig. 10 (hot ports vs. buffer occupancy).
///
/// All series must be aligned (same poll timestamps), which holds when they
/// come from one multi-counter campaign.
///
/// # Panics
/// Panics if series lengths differ.
pub fn hot_port_counts(port_series: &[Vec<UtilSample>], threshold: f64) -> Vec<usize> {
    (0..aligned_len(port_series))
        .map(|i| port_series.iter().filter(|s| s[i].util > threshold).count())
        .collect()
}

/// Counts, for each full window of `window_len` aligned sampling periods,
/// how many ports were hot in any of its periods — Fig. 10's hot-port
/// count per buffer-peak window. Trailing periods that do not fill a
/// window are not counted; the caller reports them.
///
/// # Panics
/// Panics if series lengths differ or `window_len` is 0.
pub fn hot_ports_per_window(
    port_series: &[Vec<UtilSample>],
    window_len: usize,
    threshold: f64,
) -> Vec<usize> {
    assert!(window_len > 0, "a window holds at least one period");
    (0..aligned_len(port_series) / window_len)
        .map(|w| {
            let window = w * window_len..(w + 1) * window_len;
            port_series
                .iter()
                .filter(|s| s[window.clone()].iter().any(|u| u.util > threshold))
                .count()
        })
        .collect()
}

/// The common length of aligned port series (0 for none).
fn aligned_len(port_series: &[Vec<UtilSample>]) -> usize {
    let n = port_series.first().map_or(0, Vec::len);
    assert!(
        port_series.iter().all(|s| s.len() == n),
        "unaligned port series"
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a utilization series with 25us intervals from raw utils.
    fn series(utils: &[f64]) -> Vec<UtilSample> {
        let dt = Nanos::from_micros(25);
        utils
            .iter()
            .enumerate()
            .map(|(i, &u)| UtilSample {
                t: dt * (i as u64 + 1),
                dt,
                util: u,
            })
            .collect()
    }

    #[test]
    fn single_sample_burst() {
        let a = extract_bursts(&series(&[0.1, 0.9, 0.1]), HOT_THRESHOLD);
        assert_eq!(a.bursts.len(), 1);
        assert_eq!(a.bursts[0].duration(), Nanos::from_micros(25));
        assert_eq!(a.bursts[0].samples, 1);
        assert_eq!(a.hot_samples, 1);
        assert_eq!(a.total_samples, 3);
        assert!(a.gaps.is_empty());
    }

    #[test]
    fn run_of_hot_samples_is_one_burst() {
        let a = extract_bursts(&series(&[0.9, 0.8, 0.7, 0.1]), HOT_THRESHOLD);
        assert_eq!(a.bursts.len(), 1);
        assert_eq!(a.bursts[0].duration(), Nanos::from_micros(75));
        assert_eq!(a.bursts[0].samples, 3);
    }

    #[test]
    fn gaps_between_bursts() {
        // hot, cold, cold, hot → one 50us gap.
        let a = extract_bursts(&series(&[0.9, 0.1, 0.1, 0.9]), HOT_THRESHOLD);
        assert_eq!(a.bursts.len(), 2);
        assert_eq!(a.gaps, vec![Nanos::from_micros(50)]);
    }

    #[test]
    fn trailing_burst_is_kept() {
        let a = extract_bursts(&series(&[0.1, 0.9, 0.9]), HOT_THRESHOLD);
        assert_eq!(a.bursts.len(), 1);
        assert_eq!(a.bursts[0].duration(), Nanos::from_micros(50));
    }

    #[test]
    fn all_cold_means_no_bursts() {
        let a = extract_bursts(&series(&[0.0, 0.2, 0.49]), HOT_THRESHOLD);
        assert!(a.bursts.is_empty());
        assert_eq!(a.hot_fraction(), 0.0);
    }

    #[test]
    fn threshold_is_exclusive() {
        let a = extract_bursts(&series(&[0.5]), HOT_THRESHOLD);
        assert!(a.bursts.is_empty(), "exactly 50% is not hot");
    }

    #[test]
    fn hot_fraction_counts() {
        let a = extract_bursts(&series(&[0.9, 0.9, 0.1, 0.9]), HOT_THRESHOLD);
        assert!((a.hot_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(a.durations().len(), 2);
    }

    #[test]
    fn hot_chain_matches() {
        let c = hot_chain(&series(&[0.9, 0.1, 0.6]), HOT_THRESHOLD);
        assert_eq!(c, vec![true, false, true]);
    }

    #[test]
    fn hot_port_counts_across_ports() {
        let a = series(&[0.9, 0.1, 0.9]);
        let b = series(&[0.9, 0.9, 0.1]);
        let counts = hot_port_counts(&[a, b], HOT_THRESHOLD);
        assert_eq!(counts, vec![2, 1, 1]);
        assert!(hot_port_counts(&[], HOT_THRESHOLD).is_empty());
    }

    #[test]
    fn hot_ports_per_window_counts_any_hot_period_in_full_windows() {
        // Windows of 2: [0,1] [2,3]; period 4 is a partial window.
        let ports = [
            series(&[0.9, 0.1, 0.1, 0.1, 0.9]),
            series(&[0.1, 0.9, 0.1, 0.9, 0.9]),
            series(&[0.1, 0.1, 0.1, 0.1, 0.9]),
        ];
        assert_eq!(hot_ports_per_window(&ports, 2, HOT_THRESHOLD), vec![2, 1]);
        assert_eq!(hot_ports_per_window(&ports, 5, HOT_THRESHOLD), vec![3]);
        assert!(hot_ports_per_window(&ports, 6, HOT_THRESHOLD).is_empty());
        assert!(hot_ports_per_window(&[], 2, HOT_THRESHOLD).is_empty());
    }

    #[test]
    fn widened_intervals_lengthen_durations() {
        // A burst spanning a missed poll (one 50us interval) counts the
        // full covered wall time.
        let samples = vec![
            UtilSample {
                t: Nanos::from_micros(25),
                dt: Nanos::from_micros(25),
                util: 0.9,
            },
            UtilSample {
                t: Nanos::from_micros(75),
                dt: Nanos::from_micros(50),
                util: 0.9,
            },
        ];
        let a = extract_bursts(&samples, HOT_THRESHOLD);
        assert_eq!(a.bursts.len(), 1);
        assert_eq!(a.bursts[0].duration(), Nanos::from_micros(75));
    }
}
