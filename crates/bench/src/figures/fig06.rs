//! Figure 6 — CDF of link utilization at 25 µs granularity.
//!
//! Paper's findings: all three distributions are extremely long-tailed;
//! bursts, when they occur, are intense; Cache and Hadoop are multimodal;
//! Hadoop spends ~10 % of sampling periods close to 100 % utilization and
//! the most time in bursts (~15 %).

use std::fmt::Write;

use uburst_analysis::{Ecdf, HOT_THRESHOLD};
use uburst_workloads::scenario::RackType;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::common::port_utils;
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// The shared single-port dataset.
pub use crate::figures::common::single_port_campaigns as campaigns;

/// Utilization CDF evaluation points.
const UTIL_POINTS: [f64; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0];

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6: CDF of link utilization at 25us granularity ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack",
        "samples",
        "mean",
        "p50",
        "p99",
        "hot_frac",
        "near_100%",
    ]);
    let mut curves = String::new();
    let mut hot_fracs = Vec::new();
    let mut near_full = Vec::new();

    for rack_type in RackType::ALL {
        let utils: Vec<f64> = port_utils(specs, runs, rack_type)
            .iter()
            .flat_map(|r| r.iter().map(|u| u.util.min(1.0)))
            .collect();
        let hot = utils.iter().filter(|&&u| u > HOT_THRESHOLD).count() as f64 / utils.len() as f64;
        let near = utils.iter().filter(|&&u| u > 0.9).count() as f64 / utils.len() as f64;
        let ecdf = Ecdf::new(utils);
        table.row(&[
            rack_type.name().to_string(),
            format!("{}", ecdf.len()),
            format!("{:.3}", ecdf.mean()),
            format!("{:.3}", ecdf.quantile(0.5)),
            format!("{:.3}", ecdf.quantile(0.99)),
            format!("{:.3}", hot),
            format!("{:.3}", near),
        ]);
        writeln!(curves, "\n{} utilization CDF:", rack_type.name()).unwrap();
        for (x, f) in ecdf.curve(&UTIL_POINTS) {
            writeln!(curves, "  {x:>5.2}  {f:.3}").unwrap();
        }
        hot_fracs.push((rack_type, hot));
        near_full.push((rack_type, near));
    }

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&curves);
    writeln!(out, "\npaper-shape checks:").unwrap();
    let hadoop_hot = hot_fracs
        .iter()
        .find(|(rt, _)| *rt == RackType::Hadoop)
        .map(|(_, h)| *h)
        .unwrap_or(0.0);
    let hadoop_near = near_full
        .iter()
        .find(|(rt, _)| *rt == RackType::Hadoop)
        .map(|(_, h)| *h)
        .unwrap_or(0.0);
    let checks = [
        (
            format!(
                "Hadoop spends the most time in bursts (got {:.1}%; paper ~15%)",
                hadoop_hot * 100.0
            ),
            hot_fracs.iter().all(|(_, h)| hadoop_hot >= *h),
        ),
        (
            format!(
                "Hadoop has a mode near 100% utilization (got {:.1}% of periods >90%; paper ~10%)",
                hadoop_near * 100.0
            ),
            hadoop_near > 0.02,
        ),
        (
            "bursts are intense: hot periods exist while medians stay low".into(),
            hot_fracs.iter().all(|(_, h)| *h > 0.001),
        ),
    ];
    write_checks(&mut out, 2, checks);
    out
}
