//! Figure 3 — CDF of µburst durations at 25 µs granularity.
//!
//! Paper's findings: a significant fraction of bursts last one sampling
//! period; p90 ≤ 200 µs for all three rack types; Web's p90 is 50 µs (two
//! periods); over 60 % of Web and Cache bursts terminate within one period;
//! Hadoop has the longest tail but almost all bursts end within 0.5 ms.

use std::fmt::Write;

use uburst_analysis::{Ecdf, HOT_THRESHOLD};
use uburst_workloads::scenario::RackType;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::common::{all_burst_durations_us, port_utils};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// The shared single-port dataset.
pub use crate::figures::common::single_port_campaigns as campaigns;
use crate::DURATION_POINTS_US;

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 3: CDF of uburst durations at 25us granularity ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack", "bursts", "F(25us)", "F(50us)", "F(200us)", "F(500us)", "p50us", "p90us", "p99us",
    ]);
    let mut curves = String::new();
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut p90s = Vec::new();

    for rack_type in RackType::ALL {
        let durations = all_burst_durations_us(&port_utils(specs, runs, rack_type), HOT_THRESHOLD);
        let ecdf = Ecdf::new(durations);
        table.row(&[
            rack_type.name().to_string(),
            format!("{}", ecdf.len()),
            format!("{:.3}", ecdf.fraction_at_or_below(25.0)),
            format!("{:.3}", ecdf.fraction_at_or_below(50.0)),
            format!("{:.3}", ecdf.fraction_at_or_below(200.0)),
            format!("{:.3}", ecdf.fraction_at_or_below(500.0)),
            format!("{:.0}", ecdf.quantile(0.5)),
            format!("{:.0}", ecdf.quantile(0.9)),
            format!("{:.0}", ecdf.quantile(0.99)),
        ]);
        writeln!(curves, "\n{} burst-duration CDF:", rack_type.name()).unwrap();
        for (x, f) in ecdf.curve(&DURATION_POINTS_US) {
            writeln!(curves, "  {x:>9.0}us  {f:.3}").unwrap();
        }
        p90s.push((rack_type, ecdf.quantile(0.9)));
        if rack_type != RackType::Hadoop {
            // Sample timestamps carry per-poll jitter, so a one-period
            // burst measures 25us +- a few; classify with 1.5 periods.
            let one_period = ecdf.fraction_at_or_below(37.5);
            checks.push((
                format!(
                    "{}: >60% of bursts end within ~one period (got {:.0}%)",
                    rack_type.name(),
                    one_period * 100.0
                ),
                one_period > 0.6,
            ));
        }
    }

    for (rt, p90) in &p90s {
        checks.push((
            format!("{}: p90 <= 200us (got {p90:.0}us)", rt.name()),
            *p90 <= 200.0,
        ));
    }
    let web_p90 = p90s
        .iter()
        .find(|(rt, _)| *rt == RackType::Web)
        .map(|(_, p)| *p)
        .unwrap_or(f64::NAN);
    checks.push((
        format!("Web has the lowest p90 (paper: 50us; got {web_p90:.0}us)"),
        p90s.iter().all(|(_, p)| web_p90 <= *p),
    ));

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&curves);
    writeln!(out, "\npaper-shape checks:").unwrap();
    write_checks(&mut out, 2, checks);
    out
}
