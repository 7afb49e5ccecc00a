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

use uburst_analysis::{grouped_summaries, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{buffer_and_ports_spec, port_bps};
use crate::pool::run_jobs;
use crate::report::{verdict, Table};
use crate::scale::Scale;

/// One rack type's `(hot-port count, peak occupancy)` pairs plus its port
/// count, collected before cross-rack normalization.
type RackOccupancy = (RackType, Vec<(usize, f64)>, usize);

/// One instance's window pairs, port count, and how many trailing samples
/// fell outside the last full window (counted, never silently dropped).
type InstancePairs = (Vec<(usize, f64)>, usize, usize);

/// Runs the experiment and renders the report.
pub fn run(scale: Scale) -> String {
    let interval = Nanos::from_micros(300);
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

    // One campaign per (rack type, instance); workers produce that
    // instance's (hot ports, window peak) pairs, folded per rack type in
    // submission order below.
    let racks = scale.racks_per_type();
    let mut jobs = Vec::new();
    for rack_type in RackType::ALL {
        for r in 0..racks {
            jobs.push((rack_type, r));
        }
    }
    let instance_pairs: Vec<InstancePairs> = run_jobs(jobs, |(rack_type, r)| {
        let cfg = ScenarioConfig::new(rack_type, 10_500 + r as u64);
        let n_ports = cfg.n_servers + cfg.clos.n_fabric;
        let bps: Vec<u64> = (0..n_ports)
            .map(|i| port_bps(&cfg, uburst_sim::node::PortId(i as u16)))
            .collect();
        let (spec, ports) = buffer_and_ports_spec(cfg, interval, scale.campaign_span());
        let run = spec.run();

        // Per-port hot flags per sampling period.
        let port_utils: Vec<Vec<f64>> = ports
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                run.utilization(CounterId::TxBytes(p), bps[i])
                    .iter()
                    .map(|u| u.util)
                    .collect()
            })
            .collect();
        let peaks = run.series_for(CounterId::BufferPeak);
        let n_samples = port_utils[0].len();
        let samples_per_window = (window.as_nanos() / interval.as_nanos()) as usize;
        let n_windows = n_samples / samples_per_window;
        // The paper's windows are full-width only; trailing samples that
        // don't fill a window are excluded from the figure but reported
        // below, so truncation is never silent.
        let dropped = n_samples - n_windows * samples_per_window;
        if uburst_obs::enabled() {
            uburst_obs::counter_add(
                "uburst_fig10_trailing_samples_dropped_total",
                dropped as u64,
            );
        }
        let mut pairs = Vec::with_capacity(n_windows);
        for w in 0..n_windows {
            let lo = w * samples_per_window;
            let hi = lo + samples_per_window;
            // A port is hot in the window if any of its periods was hot.
            let hot_ports = port_utils
                .iter()
                .filter(|u| u[lo..hi].iter().any(|&x| x > HOT_THRESHOLD))
                .count();
            // Window peak = max of the read-and-clear register's reads.
            // The peak series has one more sample than the rate series.
            let peak = peaks.vs[lo + 1..=hi].iter().copied().max().unwrap_or(0) as f64;
            pairs.push((hot_ports, peak));
        }
        (pairs, n_ports, dropped)
    });
    let mut trailing_dropped: Vec<(RackType, usize)> = Vec::new();
    for (ti, rack_type) in RackType::ALL.into_iter().enumerate() {
        let mut pairs: Vec<(usize, f64)> = Vec::new();
        let mut n_ports_total = 0usize;
        let mut dropped_total = 0usize;
        for (instance, n_ports, dropped) in &instance_pairs[ti * racks..(ti + 1) * racks] {
            for &(k, peak) in instance {
                global_max = global_max.max(peak);
                pairs.push((k, peak));
            }
            n_ports_total = *n_ports;
            dropped_total += dropped;
        }
        per_rack.push((rack_type, pairs, n_ports_total));
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
        // Leveling off: median occupancy of the top-third hot-port groups
        // grows less than proportionally.
        if groups.len() >= 3 {
            let lo_group = &groups[groups.len() / 3].1;
            let hi_group = &groups[groups.len() - 1].1;
            let k_lo = groups[groups.len() / 3].0.max(1);
            let k_hi = groups[groups.len() - 1].0.max(1);
            let occupancy_ratio = hi_group.median / lo_group.median.max(1e-9);
            let count_ratio = k_hi as f64 / k_lo as f64;
            level_off.push((*rack_type, occupancy_ratio, count_ratio));
        }
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
    writeln!(
        out,
        "  [{}] Hadoop drives the largest share of ports hot ({:.0}%; paper 100%)",
        verdict(max_share.iter().all(|(_, s)| hadoop >= *s)),
        hadoop * 100.0
    )
    .unwrap();
    for (rt, occ_ratio, cnt_ratio) in &level_off {
        writeln!(
            out,
            "  [{}] {}: occupancy grows sublinearly with hot ports (occupancy x{:.1} vs ports x{:.1})",
            verdict(occ_ratio < cnt_ratio),
            rt.name(),
            occ_ratio,
            cnt_ratio
        )
        .unwrap();
    }
    out
}
