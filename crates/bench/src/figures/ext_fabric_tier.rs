//! Extension experiment: measuring beyond the ToR.
//!
//! §4.2: "Due to current deployment restrictions, we concentrate on ToR
//! switches for this study and leave the study of other network tiers to
//! future work. Prior work and our own measurements show that the majority
//! of loss occurs at ToR switches and that they tend to be more bursty
//! (lower utilization and higher loss) than higher-layer switches."
//!
//! Here nothing restricts deployment: we attach counter banks to the
//! fabric tier too and test that claim directly — one rack, one
//! simulation, one poller on a ToR port and one on a fabric port.
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_fabric_tier`.

use uburst_analysis::{extract_bursts, HOT_THRESHOLD};
use uburst_asic::{AccessModel, CounterId};
use uburst_core::poller::Poller;
use uburst_core::spec::CampaignConfig;
use uburst_sim::node::{NodeId, PortId};
use uburst_sim::switch::Switch;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{build_scenario, RackType, ScenarioConfig};

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::common::burst_p90_us;
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// None: both vantage points poll one scenario of their own, with a poller
/// on a fabric counter bank, which a [`CampaignSpec`] cannot express.
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    Vec::new()
}

/// Simulates the rack once, polls both tiers, and renders the comparison.
pub fn render(_: Scale, _: &[CampaignSpec], _: &[CampaignRun]) -> String {
    let span = Nanos::from_millis(250);
    let mut out =
        String::from("extension: ToR vs fabric tier, same Hadoop rack, 25us campaigns\n\n");

    let mut cfg = ScenarioConfig::new(RackType::Hadoop, 70_070);
    cfg.load = 1.4;
    cfg.instrument_fabric = true;
    let uplink_bps = cfg.clos.uplink.bandwidth_bps;
    let server_bps = cfg.clos.server_link.bandwidth_bps;
    let mut s = build_scenario(cfg);
    let warmup = s.recommended_warmup();
    s.sim.run_until(warmup);
    let stop = warmup + span;
    // A ToR downlink — the paper's vantage point — and fabric switch 0's
    // port toward the rack, one tier up.
    let vantage_points = [
        (
            "ToR (downlink)",
            s.counters.clone(),
            PortId(2),
            server_bps,
            s.tor(),
        ),
        (
            "fabric (to-rack)",
            s.fabric_counters[0].clone(),
            PortId(0),
            uplink_bps,
            s.handles.fabrics[0],
        ),
    ];
    let pollers: Vec<NodeId> = vantage_points
        .iter()
        .map(|(_, bank, port, ..)| {
            let counter = CounterId::TxBytes(*port);
            let campaign = CampaignConfig::single("bytes", counter, Nanos::from_micros(25));
            let poller = Poller::in_memory(bank.clone(), AccessModel::default(), campaign, 1);
            poller.unwrap().spawn(&mut s.sim, warmup, stop).unwrap()
        })
        .collect();
    s.sim.run_until(stop + Nanos::from_millis(1));

    let mut t = Table::new(&["tier", "port", "util%", "hot%", "bursts", "p90us", "drops"]);
    let mut hot = Vec::new();
    for ((tier, _, port, bps, switch), id) in vantage_points.into_iter().zip(pollers) {
        let series = &s.sim.node_mut::<Poller>(id).take_series().unwrap()[0].1;
        let utils = series.utilization(bps);
        let a = extract_bursts(&utils, HOT_THRESHOLD);
        let mean: f64 = utils.iter().map(|u| u.util).sum::<f64>() / utils.len() as f64;
        let p90 = burst_p90_us(&a);
        t.row(&[
            tier.to_string(),
            format!("{}", port.0),
            format!("{:.1}", mean * 100.0),
            format!("{:.1}", a.hot_fraction() * 100.0),
            format!("{}", a.bursts.len()),
            format!("{p90:.0}"),
            format!("{}", s.sim.node::<Switch>(switch).stats().dropped_packets),
        ]);
        hot.push(a.hot_fraction());
    }
    out.push_str(&t.render());

    out.push_str(
        "\nreading: the fabric port aggregates many flows over a faster link, so\n\
         its utilization is statistically smoother — fewer hot periods and\n\
         fewer drops than the ToR edge, confirming the prior-work claim the\n\
         paper relies on to justify measuring ToRs.\n\nchecks:\n",
    );
    let claim = format!(
        "ToR is burstier than the fabric tier (hot {:.1}% vs {:.1}%)",
        hot[0] * 100.0,
        hot[1] * 100.0
    );
    write_checks(&mut out, 2, [(claim, hot[0] > hot[1])]);
    out
}
