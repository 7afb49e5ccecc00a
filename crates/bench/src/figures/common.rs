//! Data collection shared by the figure harnesses.

use uburst_asic::CounterId;
use uburst_core::series::UtilSample;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{port_bps, representative_port, single_port_spec};
use crate::pool::run_jobs;
use crate::scale::Scale;

/// One rack instance's single-port utilization samples.
pub struct PortUtilRun {
    /// Rack instance seed.
    pub seed: u64,
    /// Diurnal hour the campaign ran at.
    pub hour: f64,
    /// Per-interval utilization of the measured port.
    pub utils: Vec<UtilSample>,
}

/// The paper's highest-resolution dataset, behind Figs. 3, 4, 6 and
/// Table 2: for every rack type, one representative port per rack
/// instance, a single byte counter at [`SinglePortData::INTERVAL`].
/// Collected once and rendered by as many figures as want it.
pub struct SinglePortData {
    per_rack_type: Vec<Vec<PortUtilRun>>,
}

impl SinglePortData {
    /// The sampling interval of the dataset (the paper's 25 µs).
    pub const INTERVAL: Nanos = Nanos::from_micros(25);

    /// Measures every rack type across the scale's rack count and sampled
    /// hours.
    pub fn collect(scale: Scale) -> Self {
        Self::collect_spanned(
            scale.racks_per_type(),
            &scale.hours(),
            scale.campaign_span(),
        )
    }

    /// [`SinglePortData::collect`] with every knob explicit (used by
    /// tests).
    pub fn collect_spanned(racks: usize, hours: &[f64], span: Nanos) -> Self {
        // One job per (rack type, hour, rack instance); the engine
        // preserves this order.
        let mut jobs = Vec::with_capacity(RackType::ALL.len() * hours.len() * racks);
        for rack_type in RackType::ALL {
            for (i, &hour) in hours.iter().enumerate() {
                for r in 0..racks {
                    jobs.push((rack_type, 1000 * (i as u64 + 1) + r as u64, hour));
                }
            }
        }
        let mut runs = run_jobs(jobs, move |(rack_type, seed, hour)| {
            let mut cfg = ScenarioConfig::new(rack_type, seed);
            cfg.hour = hour;
            let port = representative_port(&cfg);
            let bps = port_bps(&cfg, port);
            let (spec, port) = single_port_spec(cfg, Some(port.0 as usize), Self::INTERVAL, span);
            PortUtilRun {
                seed,
                hour,
                utils: spec.run().utilization(CounterId::TxBytes(port), bps),
            }
        })
        .into_iter();
        let per_type = hours.len() * racks;
        SinglePortData {
            per_rack_type: RackType::ALL
                .iter()
                .map(|_| runs.by_ref().take(per_type).collect())
                .collect(),
        }
    }

    /// The runs of one rack type, hours outermost, then rack instances.
    pub fn runs(&self, rack_type: RackType) -> &[PortUtilRun] {
        let i = RackType::ALL
            .iter()
            .position(|&t| t == rack_type)
            .expect("RackType::ALL lists every rack type");
        &self.per_rack_type[i]
    }
}

/// Flattens burst durations (µs) across rack instances.
pub fn all_burst_durations_us(runs: &[PortUtilRun], threshold: f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| {
            uburst_analysis::extract_bursts(&r.utils, threshold)
                .durations()
                .into_iter()
                .map(|d| d.as_micros_f64())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Flattens inter-burst gaps (µs) across rack instances.
pub fn all_gaps_us(runs: &[PortUtilRun], threshold: f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| {
            uburst_analysis::extract_bursts(&r.utils, threshold)
                .gaps
                .iter()
                .map(|g| g.as_micros_f64())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_analysis::HOT_THRESHOLD;

    #[test]
    fn collects_runs_across_hours_and_racks() {
        let data = SinglePortData::collect_spanned(2, &[20.0], Nanos::from_millis(30));
        for rack_type in RackType::ALL {
            let runs = data.runs(rack_type);
            assert_eq!(runs.len(), 2);
            assert_eq!([runs[0].seed, runs[1].seed], [1000, 1001]);
            for r in runs {
                assert!(r.utils.len() > 800, "run {} too short", r.seed);
            }
        }
        let runs = data.runs(RackType::Hadoop);
        let durations = all_burst_durations_us(runs, HOT_THRESHOLD);
        assert!(!durations.is_empty(), "hadoop must burst");
        let gaps = all_gaps_us(runs, HOT_THRESHOLD);
        assert!(gaps.len() + runs.len() >= durations.len());
    }
}
