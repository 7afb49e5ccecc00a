//! Extension experiment: measuring beyond the ToR.
//!
//! §4.2: "Due to current deployment restrictions, we concentrate on ToR
//! switches for this study and leave the study of other network tiers to
//! future work. Prior work and our own measurements show that the majority
//! of loss occurs at ToR switches and that they tend to be more bursty
//! (lower utilization and higher loss) than higher-layer switches."
//!
//! Here nothing restricts deployment: we attach counter banks to the
//! fabric tier too and test that claim directly — same rack, same traffic,
//! ToR ports vs. fabric ports.
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_fabric_tier`.

use std::rc::Rc;

use uburst_analysis::{extract_bursts, Ecdf, HOT_THRESHOLD};
use uburst_asic::{AccessModel, AsicCounters, CounterId};
use uburst_bench::report::{verdict, Table};
use uburst_core::poller::Poller;
use uburst_core::spec::CampaignConfig;
use uburst_sim::node::PortId;
use uburst_sim::switch::Switch;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{build_scenario, RackType, ScenarioConfig};

/// Polls one byte counter on a given bank and returns its utilization.
fn poll_port(
    s: &mut uburst_workloads::Scenario,
    bank: Rc<AsicCounters>,
    port: PortId,
    bps: u64,
    start: Nanos,
    stop: Nanos,
    seed: u64,
) -> Vec<uburst_core::UtilSample> {
    let campaign =
        CampaignConfig::single("bytes", CounterId::TxBytes(port), Nanos::from_micros(25));
    let poller = Poller::in_memory(bank, AccessModel::default(), campaign, seed).unwrap();
    let id = poller.spawn(&mut s.sim, start, stop).unwrap();
    s.sim.run_until(stop + Nanos::from_millis(1));
    let series = &s.sim.node_mut::<Poller>(id).take_series().unwrap()[0].1;
    series.utilization(bps)
}

pub fn run() {
    let span = Nanos::from_millis(250);
    println!("extension: ToR vs fabric tier, same Hadoop rack, 25us campaigns");
    println!();

    let mut t = Table::new(&["tier", "port", "util%", "hot%", "bursts", "p90us", "drops"]);

    // The two vantage points are independent scenario runs; each worker
    // builds, polls, and reduces its own (non-Send) scenario.
    let rounds = uburst_bench::run_jobs(vec![0, 1], |round| {
        let mut cfg = ScenarioConfig::new(RackType::Hadoop, 70_070);
        cfg.load = 1.4;
        cfg.instrument_fabric = true;
        let uplink_bps = cfg.clos.uplink.bandwidth_bps;
        let server_bps = cfg.clos.server_link.bandwidth_bps;
        let mut s = build_scenario(cfg);
        let warmup = s.recommended_warmup();
        s.sim.run_until(warmup);
        let stop = warmup + span;

        let (tier, bank, port, bps): (&str, Rc<AsicCounters>, PortId, u64) = if round == 0 {
            // A ToR downlink — the paper's vantage point.
            ("ToR (downlink)", s.counters.clone(), PortId(2), server_bps)
        } else {
            // Fabric switch 0's port toward the rack — one tier up.
            (
                "fabric (to-rack)",
                s.fabric_counters[0].clone(),
                PortId(0),
                uplink_bps,
            )
        };
        let utils = poll_port(&mut s, bank.clone(), port, bps, warmup, stop, 1);
        let a = extract_bursts(&utils, HOT_THRESHOLD);
        let mean: f64 = utils.iter().map(|u| u.util).sum::<f64>() / utils.len() as f64;
        let p90 = if a.bursts.is_empty() {
            0.0
        } else {
            Ecdf::new(a.durations().iter().map(|d| d.as_micros_f64()).collect()).quantile(0.9)
        };
        let drops = if round == 0 {
            s.sim.node::<Switch>(s.tor()).stats().dropped_packets
        } else {
            s.sim
                .node::<Switch>(s.handles.fabrics[0])
                .stats()
                .dropped_packets
        };
        (
            [
                tier.to_string(),
                format!("{}", port.0),
                format!("{:.1}", mean * 100.0),
                format!("{:.1}", a.hot_fraction() * 100.0),
                format!("{}", a.bursts.len()),
                format!("{p90:.0}"),
                format!("{drops}"),
            ],
            a.hot_fraction(),
        )
    });
    for (row, _) in &rounds {
        t.row(row);
    }
    let tor_hot = rounds[0].1;
    let fabric_hot = rounds[1].1;
    t.print();

    println!();
    println!("reading: the fabric port aggregates many flows over a faster link, so");
    println!("its utilization is statistically smoother — fewer hot periods and");
    println!("fewer drops than the ToR edge, confirming the prior-work claim the");
    println!("paper relies on to justify measuring ToRs.");
    println!("\nchecks:");
    println!(
        "  [{}] ToR is burstier than the fabric tier (hot {:.1}% vs {:.1}%)",
        verdict(tor_hot > fabric_hot),
        tor_hot * 100.0,
        fabric_hot * 100.0
    );
}
