//! Figure 9 — uplink/downlink share of hot ports at 300 µs sampling.
//!
//! Paper's findings: Web and Hadoop bursts are biased toward servers (high
//! fan-in) — only 18 % of hot Hadoop samples and even fewer Web samples
//! were uplinks; Cache shows the opposite: most bursts occur on uplinks,
//! because responses dwarf requests and the rack is oversubscribed.

use std::fmt::Write;

use uburst_analysis::HOT_THRESHOLD;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{buffer_and_ports_spec, tx_utilization, CampaignRun, CampaignSpec};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// Rack types in report order, with the paper's uplink share.
const RACK_CASES: [(RackType, &str); 3] = [
    (RackType::Web, "<0.18"),
    (RackType::Cache, ">0.5 (majority)"),
    (RackType::Hadoop, "~0.18"),
];

/// One campaign per (rack type, instance): every port's TX bytes and the
/// buffer-peak register at 300 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    let span = scale.campaign_span();
    let mut specs = Vec::new();
    for (rack_type, _) in RACK_CASES {
        for r in 0..scale.racks_per_type() {
            let cfg = ScenarioConfig::new(rack_type, 9_100 + r as u64);
            let (spec, _) = buffer_and_ports_spec(cfg, Nanos::from_micros(300), span);
            specs.push(spec);
        }
    }
    specs
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 9: uplink/downlink share of hot ports at 300us sampling ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack",
        "hot_downlink",
        "hot_uplink",
        "uplink_share",
        "paper_uplink_share",
    ]);
    let mut checks: Vec<(String, bool)> = Vec::new();

    let racks = scale.racks_per_type();
    let per_rack = specs.chunks(racks).zip(runs.chunks(racks));
    for ((rack_type, paper_share), (specs, runs)) in RACK_CASES.into_iter().zip(per_rack) {
        // Hot samples, split into downlinks and uplinks.
        let (mut hot_dn, mut hot_up) = (0usize, 0usize);
        for (spec, run) in specs.iter().zip(runs) {
            for (i, utils) in tx_utilization(spec, run).iter().enumerate() {
                let hot = utils.iter().filter(|u| u.util > HOT_THRESHOLD).count();
                if i < spec.cfg.n_servers {
                    hot_dn += hot;
                } else {
                    hot_up += hot;
                }
            }
        }
        let total = hot_dn + hot_up;
        let share = if total == 0 {
            0.0
        } else {
            hot_up as f64 / total as f64
        };
        table.row(&[
            rack_type.name().to_string(),
            format!("{hot_dn}"),
            format!("{hot_up}"),
            format!("{share:.2}"),
            paper_share.to_string(),
        ]);
        let ok = match rack_type {
            RackType::Web => share < 0.18 && total > 0,
            RackType::Cache => share > 0.5,
            RackType::Hadoop => share < 0.45 && total > 0,
        };
        checks.push((
            format!(
                "{}: uplink share {share:.2} matches the paper's direction ({paper_share})",
                rack_type.name()
            ),
            ok,
        ));
    }

    writeln!(out, "{}", table.render()).unwrap();
    writeln!(out, "\npaper-shape checks:").unwrap();
    write_checks(&mut out, 2, checks);
    out
}
