//! Figure 9 — uplink/downlink share of hot ports at 300 µs sampling.
//!
//! Paper's findings: Web and Hadoop bursts are biased toward servers (high
//! fan-in) — only 18 % of hot Hadoop samples and even fewer Web samples
//! were uplinks; Cache shows the opposite: most bursts occur on uplinks,
//! because responses dwarf requests and the rack is oversubscribed.

use std::fmt::Write;

use uburst_analysis::HOT_THRESHOLD;
use uburst_asic::CounterId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{buffer_and_ports_spec, port_bps};
use crate::pool::run_jobs;
use crate::report::{verdict, Table};
use crate::scale::Scale;

/// Runs the experiment and renders the report.
pub fn run(scale: Scale) -> String {
    let interval = Nanos::from_micros(300);
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

    let rack_cases = [
        (RackType::Web, "<0.18"),
        (RackType::Cache, ">0.5 (majority)"),
        (RackType::Hadoop, "~0.18"),
    ];
    // One campaign per (rack type, instance); workers count hot samples.
    let racks = scale.racks_per_type();
    let mut jobs = Vec::new();
    for (rack_type, _) in rack_cases {
        for r in 0..racks {
            jobs.push((rack_type, r));
        }
    }
    let hot_counts = run_jobs(jobs, |(rack_type, r)| {
        let cfg = ScenarioConfig::new(rack_type, 9_100 + r as u64);
        let n = cfg.n_servers;
        let bps: Vec<u64> = (0..(n + cfg.clos.n_fabric))
            .map(|i| port_bps(&cfg, uburst_sim::node::PortId(i as u16)))
            .collect();
        let (spec, ports) = buffer_and_ports_spec(cfg, interval, scale.campaign_span());
        let run = spec.run();
        let mut hot_dn = 0usize;
        let mut hot_up = 0usize;
        for (i, &p) in ports.iter().enumerate() {
            let hot = run
                .utilization(CounterId::TxBytes(p), bps[i])
                .iter()
                .filter(|u| u.util > HOT_THRESHOLD)
                .count();
            if i < n {
                hot_dn += hot;
            } else {
                hot_up += hot;
            }
        }
        (hot_dn, hot_up)
    });

    for (ti, (rack_type, paper_share)) in rack_cases.into_iter().enumerate() {
        let (hot_dn, hot_up) = hot_counts[ti * racks..(ti + 1) * racks]
            .iter()
            .fold((0usize, 0usize), |(dn, up), &(d, u)| (dn + d, up + u));
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
    for (desc, ok) in checks {
        writeln!(out, "  [{}] {desc}", verdict(ok)).unwrap();
    }
    out
}
