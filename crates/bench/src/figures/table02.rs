//! Table 2 — transition matrices of the burst Markov model + likelihood
//! ratios.
//!
//! Paper values: p(1|1)/p(1|0) ratios of 119.7 (Web), 45.1 (Cache),
//! 15.6 (Hadoop); all ≫ 1, showing that hot intervals are strongly
//! temporally correlated rather than independently arriving.

use std::fmt::Write;

use uburst_analysis::{fit_transition_matrix, hot_chain, HOT_THRESHOLD};
use uburst_workloads::scenario::RackType;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::common::port_utils;
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// The shared single-port dataset.
pub use crate::figures::common::single_port_campaigns as campaigns;

/// Paper's likelihood ratios for reference.
pub const PAPER_R: [(RackType, f64); 3] = [
    (RackType::Web, 119.7),
    (RackType::Cache, 45.1),
    (RackType::Hadoop, 15.6),
];

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 2: burst Markov model transition matrices ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack",
        "p(1|0)",
        "p(0|0)",
        "p(1|1)",
        "p(0|1)",
        "r=p11/p01",
        "paper_r",
    ]);
    let mut measured = Vec::new();

    for (rack_type, paper_r) in PAPER_R {
        // Aggregate transition counts across rack instances by summing the
        // per-rack counts (equivalent to the paper's pooled MLE).
        let mut n01 = 0.0;
        let mut n0 = 0.0;
        let mut n11 = 0.0;
        let mut n1 = 0.0;
        for utils in &port_utils(specs, runs, rack_type) {
            let chain = hot_chain(utils, HOT_THRESHOLD);
            let m = fit_transition_matrix(&chain);
            if m.from0 > 0 {
                n01 += m.p01 * m.from0 as f64;
                n0 += m.from0 as f64;
            }
            if m.from1 > 0 {
                n11 += m.p11 * m.from1 as f64;
                n1 += m.from1 as f64;
            }
        }
        let p01 = n01 / n0;
        let p11 = if n1 > 0.0 { n11 / n1 } else { f64::NAN };
        let r = p11 / p01;
        measured.push((rack_type, r));
        table.row(&[
            rack_type.name().to_string(),
            format!("{p01:.4}"),
            format!("{:.4}", 1.0 - p01),
            format!("{p11:.3}"),
            format!("{:.3}", 1.0 - p11),
            format!("{r:.1}"),
            format!("{paper_r:.1}"),
        ]);
    }

    writeln!(out, "{}", table.render()).unwrap();
    writeln!(out, "paper-shape checks:").unwrap();
    let checks = [
        (
            "every ratio >> 1: hot intervals are temporally correlated".into(),
            measured.iter().all(|(_, r)| *r > 5.0),
        ),
        (
            format!(
                "ordering r_web > r_cache > r_hadoop (got {:.1} / {:.1} / {:.1})",
                measured[0].1, measured[1].1, measured[2].1
            ),
            measured[0].1 > measured[1].1 && measured[1].1 > measured[2].1,
        ),
    ];
    write_checks(&mut out, 2, checks);
    out
}
