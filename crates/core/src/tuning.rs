//! Sampling-interval auto-tuning.
//!
//! The paper tuned each counter's polling interval by hand: "For the
//! counters we measure, we manually determine the minimum sampling interval
//! possible while maintaining ~1 % sampling loss" (§4.1), and Table 1 shows
//! the loss-vs-interval curve for a byte counter. Here that loss is a law,
//! not a measurement. A fault-free poll at deadline `d` completes at
//! `d + c + J`, with `c` the campaign's `AccessModel::poll_cost` and `J` one
//! `CoreMode::sample_jitter` draw, and misses `M = ⌊(c + J)/T⌋` deadlines.
//! By renewal-reward the long-run deadline-miss fraction is
//! `E[M]/(1 + E[M])`, with `E[M] = Σ_{k≥1} P(J ≥ kT − c)` on the
//! nanosecond grid the jitter is drawn on. The tuner scans the 1 µs grid
//! upward for the first interval whose miss fraction meets the target; the
//! jitter is bounded, so the scan always stops.
//! `crates/core/tests/miss_process.rs` holds the simulated poller to the
//! same law.

use std::rc::Rc;

use uburst_asic::{AccessModel, AsicCounters, CounterId};
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;

use crate::poller::{Poller, PollerStats};
use crate::spec::{CampaignConfig, CoreMode};

/// Acceptable miss fraction (paper: ~1 %).
const TARGET_LOSS: f64 = 0.01;
/// The tuner's interval grid.
const GRID: Nanos = Nanos::from_micros(1);

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

/// `E[M]`: the expected number of deadlines one fault-free poll of cost
/// `cost` misses at interval `interval`, `Σ_{k≥1} P(J ≥ kT − c)`.
pub fn expected_misses(mode: CoreMode, cost: Nanos, interval: Nanos) -> f64 {
    let (c, t) = (cost.as_nanos() as i64, interval.as_nanos() as i64);
    (1..)
        .map(|k| mode.p_jitter_at_least(k * t - c))
        .take_while(|&p| p > 0.0)
        .sum()
}

/// The long-run deadline-miss fraction of a fault-free campaign,
/// `E[M]/(1 + E[M])`: what [`PollerStats::deadline_miss_fraction`]
/// converges to.
pub fn miss_fraction(mode: CoreMode, cost: Nanos, interval: Nanos) -> f64 {
    let m = expected_misses(mode, cost, interval);
    m / (1.0 + m)
}

/// The smallest interval on the 1 µs grid whose miss fraction on a
/// dedicated core is at most `TARGET_LOSS` (1 %), for a campaign reading
/// `counters` together. The dedicated jitter is below 60 µs, so the scan
/// stops by `c + 61 µs` at the latest.
pub fn tune_min_interval(counters: &[CounterId], access: AccessModel) -> Nanos {
    let cost = access.poll_cost(counters);
    (1..)
        .map(|k| GRID * k)
        .find(|&t| miss_fraction(CoreMode::Dedicated, cost, t) <= TARGET_LOSS)
        .expect("bounded jitter: some grid interval meets the target")
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::node::PortId;

    #[test]
    fn byte_counter_tunes_to_30us() {
        // The paper chose 25us for a byte counter; the law puts 1% loss
        // between 29us (1.02%) and 30us (0.94%).
        let t = tune_min_interval(&[CounterId::TxBytes(PortId(0))], AccessModel::default());
        assert_eq!(t, Nanos::from_micros(30));
    }

    #[test]
    fn buffer_peak_tunes_to_64us() {
        // The paper used 50us for the peak register.
        let t = tune_min_interval(&[CounterId::BufferPeak], AccessModel::default());
        assert_eq!(t, Nanos::from_micros(64));
    }

    #[test]
    fn tuned_interval_is_the_first_grid_point_meeting_the_target() {
        let access = AccessModel::default();
        for counters in [
            vec![CounterId::TxBytes(PortId(0))],
            vec![CounterId::BufferPeak],
            (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect(),
        ] {
            let cost = access.poll_cost(&counters);
            let t = tune_min_interval(&counters, access);
            let f = |t| miss_fraction(CoreMode::Dedicated, cost, t);
            assert!(
                f(t) <= TARGET_LOSS && TARGET_LOSS < f(t - GRID),
                "{counters:?}: f({t}) = {}, f({}) = {}",
                f(t),
                t - GRID,
                f(t - GRID)
            );
        }
    }

    #[test]
    fn multi_counter_needs_longer_interval_than_single_but_sublinear() {
        // Memory-class counters make the deterministic gap large: 1 read ≈
        // 4.2us vs 8 batched ≈ 10.9us.
        let access = AccessModel::default();
        let single = tune_min_interval(&[CounterId::TxSizeHist(PortId(0), 0)], access);
        let eight: Vec<CounterId> = (0..8)
            .map(|b| CounterId::TxSizeHist(PortId(0), b % 7))
            .collect();
        let grouped = tune_min_interval(&eight, access);
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
}
