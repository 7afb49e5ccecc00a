//! Figure 4 — CDF of the time between µbursts at 25 µs granularity.
//!
//! Paper's findings: inter-burst periods have a much longer tail than
//! bursts; ~40 % of Web and Cache inter-burst gaps last under 100 µs, but
//! persistent idle periods reach hundreds of milliseconds; a KS test
//! rejects exponential (Poisson) burst arrivals with p ≈ 0.

use std::fmt::Write;

use uburst_analysis::{ks_test_exponential_with_ecdf, HOT_THRESHOLD};
use uburst_workloads::scenario::RackType;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::common::{all_gaps_us, port_utils};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// The shared single-port dataset.
pub use crate::figures::common::single_port_campaigns as campaigns;

/// Gap CDF evaluation points in microseconds.
const GAP_POINTS_US: [f64; 10] = [
    25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 50_000.0, 200_000.0,
];

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 4: CDF of time between ubursts at 25us granularity ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack", "gaps", "F(100us)", "p50us", "p90us", "p99us", "maxus", "KS_D", "KS_p",
    ]);
    let mut curves = String::new();
    let mut checks: Vec<(String, bool)> = Vec::new();

    for rack_type in RackType::ALL {
        let gaps = all_gaps_us(&port_utils(specs, runs, rack_type), HOT_THRESHOLD);
        // One shared sort for the test and the CDF (bit-identical to the
        // separate ks_test_exponential + Ecdf::new pair it replaces).
        let (ks, ecdf) = ks_test_exponential_with_ecdf(gaps);
        table.row(&[
            rack_type.name().to_string(),
            format!("{}", ecdf.len()),
            format!("{:.3}", ecdf.fraction_at_or_below(100.0)),
            format!("{:.0}", ecdf.quantile(0.5)),
            format!("{:.0}", ecdf.quantile(0.9)),
            format!("{:.0}", ecdf.quantile(0.99)),
            format!("{:.0}", ecdf.max()),
            format!("{:.3}", ks.statistic),
            format!("{:.2e}", ks.p_value),
        ]);
        writeln!(curves, "\n{} inter-burst gap CDF:", rack_type.name()).unwrap();
        for (x, f) in ecdf.curve(&GAP_POINTS_US) {
            writeln!(curves, "  {x:>9.0}us  {f:.3}").unwrap();
        }
        checks.push((
            format!(
                "{}: KS test rejects Poisson burst arrivals (p = {:.2e})",
                rack_type.name(),
                ks.p_value
            ),
            ks.p_value < 0.001,
        ));
        checks.push((
            format!(
                "{}: gap tail >> burst tail (gap p99 {:.0}us)",
                rack_type.name(),
                ecdf.quantile(0.99)
            ),
            ecdf.quantile(0.99) > 1_000.0,
        ));
    }

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&curves);
    writeln!(out, "\npaper-shape checks:").unwrap();
    write_checks(&mut out, 2, checks);
    out
}
