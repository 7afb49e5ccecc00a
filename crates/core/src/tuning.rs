//! Sampling-interval auto-tuning.
//!
//! The paper tuned each counter's polling interval by hand: "For the
//! counters we measure, we manually determine the minimum sampling interval
//! possible while maintaining ~1 % sampling loss" (§4.1), and Table 1 shows
//! the loss-vs-interval curve for a byte counter. This module automates
//! that procedure: run short probe campaigns at candidate intervals and
//! binary-search the smallest interval whose deadline-miss fraction stays
//! under the target.
//!
//! The miss fraction is monotonically non-increasing in the interval (a
//! longer budget can only help), which is what makes bisection sound; the
//! probe noise is handled by a tolerance band and by probing long enough
//! windows.

use std::rc::Rc;

use uburst_asic::{AccessModel, AsicCounters, CounterId};
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;

use crate::poller::{Poller, PollerStats};
use crate::spec::{CampaignConfig, CoreMode};

/// One probe measurement from the tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// Interval probed.
    pub interval: Nanos,
    /// Observed deadline-miss fraction.
    pub miss_fraction: f64,
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The smallest probed interval meeting the target.
    pub min_interval: Nanos,
    /// Every probe taken, in probing order (Table 1 is exactly this list
    /// for intervals {1, 10, 25} µs).
    pub probes: Vec<ProbePoint>,
}

/// Acceptable miss fraction (paper: ~1 %).
const TARGET_LOSS: f64 = 0.01;
/// Lower end of the search range.
const MIN_INTERVAL: Nanos = Nanos::from_micros(1);
/// Bisection stops when the bracket is this tight.
const RESOLUTION: Nanos = Nanos::from_micros(1);

/// Tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct TuningConfig {
    /// Upper end of the search range, probed first: it must meet the
    /// target.
    pub max_interval: Nanos,
    /// Campaign length per probe — longer probes, steadier estimates.
    pub probe_duration: Nanos,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig {
            max_interval: Nanos::from_micros(200),
            probe_duration: Nanos::from_millis(250),
        }
    }
}

/// Runs one probe campaign against an idle counter bank and returns the
/// poller's accounting (its deadline-miss, late and CPU fractions). Polling
/// cost does not depend on traffic, so an idle bank probes exactly as a
/// busy one would.
pub fn probe_idle_bank(
    counters: &[CounterId],
    access: AccessModel,
    interval: Nanos,
    duration: Nanos,
    core_mode: CoreMode,
    seed: u64,
) -> PollerStats {
    let n_ports = counters
        .iter()
        .map(|c| match *c {
            CounterId::RxBytes(p)
            | CounterId::RxPackets(p)
            | CounterId::TxBytes(p)
            | CounterId::TxPackets(p)
            | CounterId::Drops(p)
            | CounterId::RxSizeHist(p, _)
            | CounterId::TxSizeHist(p, _) => p.0 as usize + 1,
            CounterId::BufferLevel | CounterId::BufferPeak => 1,
        })
        .max()
        .unwrap_or(1);
    let mut sim = Simulator::new();
    let bank: Rc<AsicCounters> = AsicCounters::new_shared(n_ports);
    let mut campaign = CampaignConfig::group("tuning-probe", counters.to_vec(), interval);
    campaign.core_mode = core_mode;
    let id = Poller::in_memory(bank, access, campaign, seed)
        .expect("probe campaign is non-empty with a nonzero interval")
        .spawn(&mut sim, Nanos::ZERO, duration)
        .expect("probe window is non-empty");
    sim.run_until(Nanos::MAX);
    sim.node_mut::<Poller>(id).stats()
}

/// Finds the minimum interval with miss fraction ≤ `TARGET_LOSS` (1 %) for a
/// campaign reading `counters` together, probing on a dedicated core.
///
/// # Panics
/// Panics if even `cfg.max_interval` cannot meet the target (the counter is
/// unpollable at the asked loss level — widen the range).
pub fn tune_min_interval(
    counters: &[CounterId],
    access: AccessModel,
    cfg: &TuningConfig,
) -> TuningResult {
    assert!(MIN_INTERVAL < cfg.max_interval);
    let mut probes = Vec::new();
    let mut probe = |interval: Nanos, salt: u64| -> f64 {
        let f = probe_idle_bank(
            counters,
            access,
            interval,
            cfg.probe_duration,
            CoreMode::Dedicated,
            0xF00D ^ salt,
        )
        .deadline_miss_fraction();
        probes.push(ProbePoint {
            interval,
            miss_fraction: f,
        });
        f
    };

    let hi_loss = probe(cfg.max_interval, 0);
    assert!(
        hi_loss <= TARGET_LOSS,
        "even {} misses {:.1}% > target {:.1}%",
        cfg.max_interval,
        hi_loss * 100.0,
        TARGET_LOSS * 100.0
    );

    // Bisect [lo, hi] where lo fails (or is untested-and-assumed-failing)
    // and hi passes.
    let mut lo = MIN_INTERVAL;
    let mut hi = cfg.max_interval;
    let mut salt = 1;
    while hi.saturating_sub(lo) > RESOLUTION {
        let mid = Nanos((lo.as_nanos() + hi.as_nanos()) / 2);
        if probe(mid, salt) <= TARGET_LOSS {
            hi = mid;
        } else {
            lo = mid;
        }
        salt += 1;
    }

    TuningResult {
        min_interval: hi,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::node::PortId;

    #[test]
    fn byte_counter_tunes_near_25us() {
        // The headline calibration: ~1% loss lands in the neighbourhood the
        // paper chose (25us) for a single byte counter.
        let r = tune_min_interval(
            &[CounterId::TxBytes(PortId(0))],
            AccessModel::default(),
            &TuningConfig::default(),
        );
        let us = r.min_interval.as_micros_f64();
        assert!(
            (18.0..=40.0).contains(&us),
            "tuned interval {us}us should be near the paper's 25us"
        );
        assert!(r.probes.len() >= 3);
    }

    #[test]
    fn buffer_peak_tunes_near_50us() {
        let cfg = TuningConfig {
            max_interval: Nanos::from_micros(400),
            ..TuningConfig::default()
        };
        let r = tune_min_interval(&[CounterId::BufferPeak], AccessModel::default(), &cfg);
        let us = r.min_interval.as_micros_f64();
        assert!(
            (45.0..=90.0).contains(&us),
            "peak register tuned to {us}us; paper used 50us"
        );
    }

    #[test]
    fn multi_counter_needs_longer_interval_than_single_but_sublinear() {
        // Memory-class counters make the deterministic gap large enough to
        // dominate probe noise: 1 read ≈ 4.2us vs 8 batched ≈ 10.9us.
        let single = tune_min_interval(
            &[CounterId::TxSizeHist(PortId(0), 0)],
            AccessModel::default(),
            &TuningConfig::default(),
        )
        .min_interval;
        let eight: Vec<CounterId> = (0..8)
            .map(|b| CounterId::TxSizeHist(PortId(0), b % 7))
            .collect();
        let grouped = tune_min_interval(&eight, AccessModel::default(), &TuningConfig::default())
            .min_interval;
        assert!(
            grouped.as_nanos() >= single.as_nanos() + 3_000,
            "8 counters ({grouped}) should need a clearly longer interval than 1 ({single})"
        );
        assert!(
            grouped.as_nanos() < single.as_nanos() * 4,
            "grouped {grouped} must stay far below 8x the single-counter interval {single}"
        );
    }

    #[test]
    fn probe_is_deterministic_for_seed() {
        let probe = || {
            probe_idle_bank(
                &[CounterId::TxBytes(PortId(0))],
                AccessModel::default(),
                Nanos::from_micros(10),
                Nanos::from_millis(50),
                CoreMode::Dedicated,
                1,
            )
        };
        assert_eq!(probe(), probe());
    }

    #[test]
    #[should_panic(expected = "misses")]
    fn impossible_target_panics() {
        let cfg = TuningConfig {
            max_interval: Nanos::from_micros(2),
            ..TuningConfig::default()
        };
        // A 2us budget can never fit a ~2.5us+jitter poll at 1% loss.
        tune_min_interval(
            &[CounterId::TxBytes(PortId(0))],
            AccessModel::default(),
            &cfg,
        );
    }
}
