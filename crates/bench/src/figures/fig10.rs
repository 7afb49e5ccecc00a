//! Figure 10 — peak shared-buffer occupancy vs. number of hot ports.
//!
//! Paper's methodology (§6.4): peak buffer occupancy over 50 ms windows
//! (from the read-and-clear register) against the number of ports that ran
//! hot within the same window, hot classified at 300 µs. Findings: Hadoop
//! stresses the buffer most, sometimes driving 100 % of its ports hot (Web
//! and Cache max out at 71 % / 64 %); occupancy grows with hot-port count
//! but levels off at high counts.
//!
//! Buffer carving here goes through the default [`uburst_sim::bufpolicy`]
//! policy (`DynamicThreshold`, the scheme the paper's switches ran); the
//! `ext_buffer_policy` extension reproduces this readout per alternative
//! policy (StaticPartition / BShare / FlexibleBuffering).

use std::fmt::Write;

use uburst_analysis::{grouped_summaries, hot_ports_per_window, Summary, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{buffer_and_ports_spec, tx_utilization, CampaignRun, CampaignSpec};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// One rack type's `(hot-port count, peak occupancy)` pairs plus its port
/// count, collected before cross-rack normalization.
type RackOccupancy = (RackType, Vec<(usize, f64)>, usize);

/// The sampling interval that classifies ports hot.
const INTERVAL: Nanos = Nanos::from_micros(300);

/// One campaign per (rack type, instance): every port's TX bytes and the
/// buffer-peak register at 300 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    let mut specs = Vec::new();
    for rack_type in RackType::ALL {
        for r in 0..scale.racks_per_type() {
            let cfg = ScenarioConfig::new(rack_type, 10_500 + r as u64);
            specs.push(buffer_and_ports_spec(cfg, INTERVAL, scale.campaign_span()).0);
        }
    }
    specs
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let window = Nanos::from_millis(match scale {
        Scale::Quick => 10, // scaled-down 50ms windows so quick runs have enough of them
        Scale::Full => 50,
    });
    let mut out = String::new();
    writeln!(
        out,
        "Figure 10: peak shared-buffer occupancy vs hot ports per {window} window ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut all_rows = String::new();
    let mut max_share = Vec::new();
    let mut level_off = Vec::new();
    // Normalize occupancy to the max observed across all rack types, like
    // the paper normalized to the max across its data sets.
    let mut per_rack: Vec<RackOccupancy> = Vec::new();
    let mut global_max = 0.0f64;

    // Each rack type's (hot ports, window peak) pairs over its instances.
    let racks = scale.racks_per_type();
    let samples_per_window = (window.as_nanos() / INTERVAL.as_nanos()) as usize;
    let mut trailing_dropped: Vec<(RackType, usize)> = Vec::new();
    let per_type = specs.chunks(racks).zip(runs.chunks(racks));
    for (rack_type, (specs, runs)) in RackType::ALL.into_iter().zip(per_type) {
        let mut pairs: Vec<(usize, f64)> = Vec::new();
        let mut n_ports = 0;
        let mut dropped_total = 0usize;
        for (spec, run) in specs.iter().zip(runs) {
            let port_utils = tx_utilization(spec, run);
            n_ports = port_utils.len();
            let hot_ports = hot_ports_per_window(&port_utils, samples_per_window, HOT_THRESHOLD);
            // The paper's windows are full-width only; trailing samples
            // that don't fill a window are excluded from the figure but
            // reported below, so truncation is never silent.
            dropped_total += port_utils[0].len() - hot_ports.len() * samples_per_window;
            // Window peak = max of the read-and-clear register's reads.
            // The peak series has one more sample than the rate series.
            let peaks = &run.series_for(CounterId::BufferPeak).vs;
            for (w, k) in hot_ports.into_iter().enumerate() {
                let (lo, hi) = (w * samples_per_window, (w + 1) * samples_per_window);
                let peak = peaks[lo + 1..=hi].iter().copied().max().unwrap_or(0) as f64;
                global_max = global_max.max(peak);
                pairs.push((k, peak));
            }
        }
        per_rack.push((rack_type, pairs, n_ports));
        trailing_dropped.push((rack_type, dropped_total));
    }

    let mut table = Table::new(&["rack", "max_hot_ports", "port_share", "windows"]);
    for (rack_type, pairs, n_ports) in &per_rack {
        let normalized: Vec<(usize, f64)> = pairs
            .iter()
            .map(|&(k, v)| (k, v / global_max.max(1.0)))
            .collect();
        let groups = grouped_summaries(&normalized);
        writeln!(
            all_rows,
            "\n{}: normalized peak occupancy by hot-port count:",
            rack_type.name()
        )
        .unwrap();
        writeln!(
            all_rows,
            "  {:>9}  {:>3}  {:>6}  {:>6}  {:>6}  {:>6}  {:>6}",
            "hot_ports", "n", "min", "q1", "median", "q3", "max"
        )
        .unwrap();
        for (k, s) in &groups {
            writeln!(
                all_rows,
                "  {k:>9}  {:>3}  {:>6.3}  {:>6.3}  {:>6.3}  {:>6.3}  {:>6.3}",
                s.n, s.min, s.q1, s.median, s.q3, s.max
            )
            .unwrap();
        }
        let max_hot = pairs.iter().map(|&(k, _)| k).max().unwrap_or(0);
        let share = max_hot as f64 / *n_ports as f64;
        max_share.push((*rack_type, share));
        table.row(&[
            rack_type.name().to_string(),
            format!("{max_hot}"),
            format!("{share:.2}"),
            format!("{}", pairs.len()),
        ]);
        level_off.push(level_off_check(rack_type.name(), &groups));
    }

    writeln!(out, "{}", table.render()).unwrap();
    let dropped_note = trailing_dropped
        .iter()
        .map(|(rt, d)| format!("{} {d}", rt.name()))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(
        out,
        "trailing samples outside the last full {window} window (excluded from the figure): {dropped_note}"
    )
    .unwrap();
    out.push_str(&all_rows);
    writeln!(out, "\npaper-shape checks:").unwrap();
    let hadoop = max_share
        .iter()
        .find(|(rt, _)| *rt == RackType::Hadoop)
        .map(|(_, s)| *s)
        .unwrap_or(0.0);
    let hadoop_most = (
        format!(
            "Hadoop drives the largest share of ports hot ({:.0}%; paper 100%)",
            hadoop * 100.0
        ),
        max_share.iter().all(|(_, s)| hadoop >= *s),
    );
    write_checks(&mut out, 2, std::iter::once(hadoop_most).chain(level_off));
    out
}

/// Leveling off: the median occupancy of the top hot-port group grows less
/// than proportionally over the group a third of the way up. A rack type
/// with fewer than three groups cannot show it, and fails the check.
fn level_off_check(rack: &str, groups: &[(usize, Summary)]) -> (String, bool) {
    let claim = format!("{rack}: occupancy grows sublinearly with hot ports");
    if groups.len() < 3 {
        let n = groups.len();
        return (
            format!("{claim} (untestable: {n} hot-port group(s), the check needs 3)"),
            false,
        );
    }
    let (k_lo, lo_group) = &groups[groups.len() / 3];
    let (k_hi, hi_group) = &groups[groups.len() - 1];
    let occupancy_ratio = hi_group.median / lo_group.median.max(1e-9);
    let count_ratio = (*k_hi).max(1) as f64 / (*k_lo).max(1) as f64;
    (
        format!("{claim} (occupancy x{occupancy_ratio:.1} vs ports x{count_ratio:.1})"),
        occupancy_ratio < count_ratio,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_off_needs_three_groups_and_misses_without_them() {
        // Groups 1, 2, 4: group 2 (median 0.2) against group 4 (median 0.3).
        let (desc, ok) =
            level_off_check("Web", &grouped_summaries(&[(1, 0.1), (2, 0.2), (4, 0.3)]));
        assert!(
            ok && desc.ends_with("(occupancy x1.5 vs ports x2.0)"),
            "{desc}"
        );
        let steep = grouped_summaries(&[(1, 0.1), (2, 0.1), (4, 0.4)]);
        assert!(!level_off_check("Web", &steep).1);
        let (desc, ok) = level_off_check("Hadoop", &grouped_summaries(&[(3, 0.5), (4, 0.6)]));
        assert!(
            !ok && desc.contains("untestable: 2 hot-port group(s)"),
            "{desc}"
        );
    }
}
