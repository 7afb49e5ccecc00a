//! Figure 8 — Pearson correlation heatmaps between servers of a rack.
//!
//! Paper's findings (ToR-to-server utilization at 250 µs): Web shows almost
//! no correlation (stateless, user-driven); Hadoop shows modest
//! correlation; Cache shows strong correlation within server subsets that
//! participate in the same scatter-gather requests.

use std::fmt::Write;

use uburst_analysis::{correlation_matrix, mean_offdiagonal};
use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::port_groups_spec;
use crate::pool::run_jobs;
use crate::report::{verdict, Table};
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

/// Runs the experiment and renders the report.
pub fn run(scale: Scale) -> String {
    let interval = Nanos::from_micros(250);
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

    // One campaign + 24x24 correlation matrix per rack type, in workers.
    let panels = run_jobs(RackType::ALL.to_vec(), |rack_type| {
        let cfg = ScenarioConfig::new(rack_type, 8_642);
        let n = cfg.n_servers;
        let pod_size = cfg.cache.pod_size;
        let bps = cfg.clos.server_link.bandwidth_bps;
        let downlinks: Vec<PortId> = (0..n).map(|i| PortId(i as u16)).collect();
        let run = port_groups_spec(cfg, &downlinks, interval, scale.campaign_span()).run();
        let series: Vec<Vec<f64>> = downlinks
            .iter()
            .map(|&p| {
                run.utilization(CounterId::TxBytes(p), bps)
                    .iter()
                    .map(|u| u.util)
                    .collect()
            })
            .collect();
        let m = correlation_matrix(&series);
        let off = mean_offdiagonal(&m);
        let (same, cross) = pod_split(&m, pod_size);
        (off, same, cross, ascii_heatmap(&m))
    });
    for (rack_type, (off, same, cross, heatmap)) in RackType::ALL.into_iter().zip(panels) {
        summary.push((rack_type, off, same, cross));
        table.row(&[
            rack_type.name().to_string(),
            format!("{off:.3}"),
            format!("{same:.3}"),
            format!("{cross:.3}"),
        ]);
        writeln!(maps, "\n{} server x server heatmap:", rack_type.name()).unwrap();
        maps.push_str(&heatmap);
    }

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&maps);
    writeln!(out, "\npaper-shape checks:").unwrap();
    let web = summary.iter().find(|s| s.0 == RackType::Web).unwrap();
    let cache = summary.iter().find(|s| s.0 == RackType::Cache).unwrap();
    let hadoop = summary.iter().find(|s| s.0 == RackType::Hadoop).unwrap();
    writeln!(
        out,
        "  [{}] Web: almost no correlation (mean offdiag {:.3})",
        verdict(web.1.abs() < 0.05),
        web.1
    )
    .unwrap();
    writeln!(
        out,
        "  [{}] Cache: strong same-pod correlation, weak cross-pod ({:.2} vs {:.2})",
        verdict(cache.2 > 0.4 && cache.2 > 3.0 * cache.3.max(0.01)),
        cache.2,
        cache.3
    )
    .unwrap();
    writeln!(
        out,
        "  [{}] Hadoop: modest correlation, between Web and Cache ({:.3})",
        verdict(hadoop.1 > web.1 && hadoop.1 < cache.2),
        hadoop.1
    )
    .unwrap();
    out
}
