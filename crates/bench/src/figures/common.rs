//! Data shared by the figure harnesses.

use uburst_core::series::UtilSample;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{single_port_spec, tx_utilization, CampaignRun, CampaignSpec};
use crate::scale::Scale;

/// The sampling interval of the single-port dataset (the paper's 25 µs).
pub const SINGLE_PORT_INTERVAL: Nanos = Nanos::from_micros(25);

/// The paper's highest-resolution dataset, behind Figs. 3, 4, 6 and
/// Table 2: for every rack type, one representative port per rack
/// instance, a single byte counter at [`SINGLE_PORT_INTERVAL`], across the
/// scale's rack count and sampled hours. All four figures declare these
/// specs, and [`super::run_experiments`] measures them once per suite.
pub fn single_port_campaigns(scale: Scale) -> Vec<CampaignSpec> {
    single_port_specs(
        scale.racks_per_type(),
        &scale.hours(),
        scale.campaign_span(),
    )
}

/// [`single_port_campaigns`] with every knob explicit: rack types
/// outermost, then hours, then rack instances (seed `1000 * (h + 1) + r`
/// for hour index `h` and instance `r`).
pub fn single_port_specs(racks: usize, hours: &[f64], span: Nanos) -> Vec<CampaignSpec> {
    let mut specs = Vec::with_capacity(RackType::ALL.len() * hours.len() * racks);
    for rack_type in RackType::ALL {
        for (i, &hour) in hours.iter().enumerate() {
            for r in 0..racks {
                let mut cfg = ScenarioConfig::new(rack_type, 1000 * (i as u64 + 1) + r as u64);
                cfg.hour = hour;
                specs.push(single_port_spec(cfg, None, SINGLE_PORT_INTERVAL, span).0);
            }
        }
    }
    specs
}

/// Reads one rack type's single-port runs back as the measured port's
/// utilization, one series per spec of that rack type, in spec order.
pub fn port_utils(
    specs: &[CampaignSpec],
    runs: &[CampaignRun],
    rack_type: RackType,
) -> Vec<Vec<UtilSample>> {
    specs
        .iter()
        .zip(runs)
        .filter(|(spec, _)| spec.cfg.rack_type == rack_type)
        .map(|(spec, run)| tx_utilization(spec, run).remove(0))
        .collect()
}

/// The 90th-percentile burst duration in µs, 0 when there is no burst.
pub fn burst_p90_us(a: &uburst_analysis::BurstAnalysis) -> f64 {
    if a.bursts.is_empty() {
        0.0
    } else {
        let durations = a.durations().iter().map(|d| d.as_micros_f64()).collect();
        uburst_analysis::Ecdf::new(durations).quantile(0.9)
    }
}

/// Flattens burst durations (µs) across rack instances.
pub fn all_burst_durations_us(runs: &[Vec<UtilSample>], threshold: f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|utils| {
            uburst_analysis::extract_bursts(utils, threshold)
                .durations()
                .into_iter()
                .map(|d| d.as_micros_f64())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Flattens inter-burst gaps (µs) across rack instances.
pub fn all_gaps_us(runs: &[Vec<UtilSample>], threshold: f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|utils| {
            uburst_analysis::extract_bursts(utils, threshold)
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
    use crate::pool::run_parallel_on;
    use uburst_analysis::HOT_THRESHOLD;

    #[test]
    fn collects_runs_across_hours_and_racks() {
        let specs = single_port_specs(2, &[20.0], Nanos::from_millis(30));
        let runs = run_parallel_on(1, specs.clone());
        for rack_type in RackType::ALL {
            let seeds: Vec<u64> = specs
                .iter()
                .filter(|s| s.cfg.rack_type == rack_type)
                .map(|s| s.cfg.seed)
                .collect();
            assert_eq!(seeds, [1000, 1001]);
            let utils = port_utils(&specs, &runs, rack_type);
            assert_eq!(utils.len(), 2);
            for (seed, u) in seeds.iter().zip(&utils) {
                assert!(u.len() > 800, "run {seed} too short");
            }
        }
        let runs = port_utils(&specs, &runs, RackType::Hadoop);
        let durations = all_burst_durations_us(&runs, HOT_THRESHOLD);
        assert!(!durations.is_empty(), "hadoop must burst");
        let gaps = all_gaps_us(&runs, HOT_THRESHOLD);
        assert!(gaps.len() + runs.len() >= durations.len());
    }
}
