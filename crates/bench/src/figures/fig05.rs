//! Figure 5 — packet-size distributions inside vs. outside bursts.
//!
//! Paper's findings (§5.3): Hadoop sees mostly full-MTU packets always;
//! Web and Cache see wider mixes; bursty periods contain relatively more
//! large packets — Cache's large-packet share rises ~20 %, Web's rises
//! ~60 % relative, Hadoop's barely moves because it is already almost all
//! MTU. Histogram bins were "polled alongside the total byte count of the
//! interface in order to classify the samples" over 100 µs periods.

use std::fmt::Write;

use uburst_analysis::{diff_histogram_snapshots, hot_chain, split_by_burst, HOT_THRESHOLD};
use uburst_asic::{CounterId, N_SIZE_BINS, SIZE_BIN_LABELS};
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{representative_port, tx_utilization, CampaignRun, CampaignSpec};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// Index of the first "large" bin (1024–1518 bytes).
const FIRST_LARGE_BIN: usize = 5;

/// One campaign per (rack type, instance): the representative port's
/// size histogram and byte counter at 100 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    let (interval, span) = (Nanos::from_micros(100), scale.campaign_span());
    let mut specs = Vec::new();
    for rack_type in RackType::ALL {
        for r in 0..scale.racks_per_type() {
            let cfg = ScenarioConfig::new(rack_type, 7_000 + r as u64);
            let port = representative_port(&cfg);
            // The paper's multi-counter campaign: histogram bins polled
            // alongside the byte counter.
            let mut counters: Vec<CounterId> = (0..N_SIZE_BINS as u8)
                .map(|b| CounterId::TxSizeHist(port, b))
                .collect();
            counters.push(CounterId::TxBytes(port));
            specs.push(CampaignSpec::new(cfg, counters, interval, span));
        }
    }
    specs
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 5: packet sizes inside/outside bursts over 100us periods ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack",
        "large_inside",
        "large_outside",
        "rel_increase",
        "pkts_inside",
        "pkts_outside",
    ]);
    let mut hists = String::new();
    let mut rel_increases = Vec::new();

    let racks = scale.racks_per_type();
    let per_type = specs.chunks(racks).zip(runs.chunks(racks));
    for (rack_type, (specs, runs)) in RackType::ALL.into_iter().zip(per_type) {
        // Accumulate inside/outside bin counts across rack instances.
        let mut inside_acc = vec![0u64; N_SIZE_BINS];
        let mut outside_acc = vec![0u64; N_SIZE_BINS];
        for (spec, run) in specs.iter().zip(runs) {
            let port = representative_port(&spec.cfg);
            let utils = tx_utilization(spec, run).remove(0);
            // Interval-aligned histogram snapshots -> per-interval deltas.
            let snaps: Vec<Vec<u64>> = (0..=utils.len())
                .map(|i| {
                    (0..N_SIZE_BINS as u8)
                        .map(|b| run.series_for(CounterId::TxSizeHist(port, b)).vs[i])
                        .collect()
                })
                .collect();
            let hot = hot_chain(&utils, HOT_THRESHOLD);
            let (inside, outside) = split_by_burst(&diff_histogram_snapshots(&snaps), &hot);
            for b in 0..N_SIZE_BINS {
                inside_acc[b] += inside[b];
                outside_acc[b] += outside[b];
            }
        }
        let inside = uburst_analysis::NormalizedHistogram::from_counts(&inside_acc);
        let outside = uburst_analysis::NormalizedHistogram::from_counts(&outside_acc);
        let li = inside.large_fraction(FIRST_LARGE_BIN);
        let lo = outside.large_fraction(FIRST_LARGE_BIN);
        let rel = if lo > 0.0 { (li - lo) / lo } else { 0.0 };
        rel_increases.push((rack_type, rel, lo));
        table.row(&[
            rack_type.name().to_string(),
            format!("{li:.3}"),
            format!("{lo:.3}"),
            format!("{:+.0}%", rel * 100.0),
            format!("{}", inside.total),
            format!("{}", outside.total),
        ]);
        writeln!(hists, "\n{} normalized histograms:", rack_type.name()).unwrap();
        writeln!(hists, "  {:>10}  inside  outside", "bin").unwrap();
        for ((label, fin), fout) in SIZE_BIN_LABELS
            .iter()
            .zip(&inside.fractions)
            .zip(&outside.fractions)
        {
            writeln!(hists, "  {label:>10}  {fin:.3}   {fout:.3}").unwrap();
        }
    }

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&hists);
    writeln!(out, "\npaper-shape checks:").unwrap();
    let checks = rel_increases.iter().map(|(rt, rel, baseline)| {
        let ok = match rt {
            RackType::Hadoop => *baseline > 0.5 && rel.abs() < 0.5,
            _ => *rel > 0.0,
        };
        let desc = match rt {
            RackType::Hadoop => format!(
                "Hadoop: already mostly large packets, little change inside bursts \
                 (baseline {:.0}%, change {:+.0}%)",
                baseline * 100.0,
                rel * 100.0
            ),
            _ => format!(
                "{}: more large packets inside bursts ({:+.0}% relative)",
                rt.name(),
                rel * 100.0
            ),
        };
        (desc, ok)
    });
    write_checks(&mut out, 2, checks);
    out
}
