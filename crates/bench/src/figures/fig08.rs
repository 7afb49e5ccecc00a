//! Figure 8 — Pearson correlation heatmaps between servers of a rack.
//!
//! Paper's findings (ToR-to-server utilization at 250 µs): Web shows almost
//! no correlation (stateless, user-driven); Hadoop shows modest
//! correlation; Cache shows strong correlation within server subsets that
//! participate in the same scatter-gather requests.

use std::fmt::Write;

use uburst_analysis::{correlation_matrix, mean_offdiagonal};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{port_groups_spec, tx_utilization, CampaignRun, CampaignSpec};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// Renders a correlation matrix as an ASCII heatmap.
fn ascii_heatmap(m: &[Vec<f64>]) -> String {
    // Buckets: ' ' <0.05, '.' <0.2, '+' <0.5, '#' <0.8, '@' >=0.8
    let glyph = |v: f64| match v.abs() {
        x if x < 0.05 => ' ',
        x if x < 0.2 => '.',
        x if x < 0.5 => '+',
        x if x < 0.8 => '#',
        _ => '@',
    };
    let mut s = String::new();
    for row in m {
        s.push_str("  |");
        for &v in row {
            s.push(glyph(v));
        }
        s.push_str("|\n");
    }
    s.push_str("  legend: ' '<.05  '.'<.2  '+'<.5  '#'<.8  '@'>=.8\n");
    s
}

/// Mean correlation between servers in the same pod-of-4 vs. different
/// pods.
fn pod_split(m: &[Vec<f64>], pod_size: usize) -> (f64, f64) {
    let mut same = (0.0, 0usize);
    let mut cross = (0.0, 0usize);
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate().skip(i + 1) {
            if i / pod_size == j / pod_size {
                same.0 += v;
                same.1 += 1;
            } else {
                cross.0 += v;
                cross.1 += 1;
            }
        }
    }
    (
        same.0 / same.1.max(1) as f64,
        cross.0 / cross.1.max(1) as f64,
    )
}

/// One campaign per rack type: TX bytes of every downlink at 250 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    RackType::ALL
        .into_iter()
        .map(|rack_type| {
            let cfg = ScenarioConfig::new(rack_type, 8_642);
            let downlinks: Vec<PortId> = (0..cfg.n_servers).map(|i| PortId(i as u16)).collect();
            let span = scale.campaign_span();
            port_groups_spec(cfg, &downlinks, Nanos::from_micros(250), span)
        })
        .collect()
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 8: Pearson correlation of ToR-to-server utilization at 250us ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&["rack", "mean_offdiag", "same_pod", "cross_pod"]);
    let mut maps = String::new();
    let mut summary = Vec::new();

    // One 24x24 correlation matrix per rack type.
    for (spec, run) in specs.iter().zip(runs) {
        let rack_type = spec.cfg.rack_type;
        let series: Vec<Vec<f64>> = tx_utilization(spec, run)
            .iter()
            .map(|utils| utils.iter().map(|u| u.util).collect())
            .collect();
        let m = correlation_matrix(&series);
        let off = mean_offdiagonal(&m);
        let (same, cross) = pod_split(&m, spec.cfg.cache.pod_size);
        summary.push((rack_type, off, same, cross));
        table.row(&[
            rack_type.name().to_string(),
            format!("{off:.3}"),
            format!("{same:.3}"),
            format!("{cross:.3}"),
        ]);
        writeln!(maps, "\n{} server x server heatmap:", rack_type.name()).unwrap();
        maps.push_str(&ascii_heatmap(&m));
    }

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&maps);
    writeln!(out, "\npaper-shape checks:").unwrap();
    let web = summary.iter().find(|s| s.0 == RackType::Web).unwrap();
    let cache = summary.iter().find(|s| s.0 == RackType::Cache).unwrap();
    let hadoop = summary.iter().find(|s| s.0 == RackType::Hadoop).unwrap();
    let checks = [
        (
            format!("Web: almost no correlation (mean offdiag {:.3})", web.1),
            web.1.abs() < 0.05,
        ),
        (
            format!(
                "Cache: strong same-pod correlation, weak cross-pod ({:.2} vs {:.2})",
                cache.2, cache.3
            ),
            cache.2 > 0.4 && cache.2 > 3.0 * cache.3.max(0.01),
        ),
        (
            format!(
                "Hadoop: modest correlation, between Web and Cache ({:.3})",
                hadoop.1
            ),
            hadoop.1 > web.1 && hadoop.1 < cache.2,
        ),
    ];
    write_checks(&mut out, 2, checks);
    out
}
