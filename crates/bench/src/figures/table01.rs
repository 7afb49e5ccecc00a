//! Table 1 — sampling interval vs. missed intervals for a byte counter.
//!
//! Paper values: 1 µs → 100 % missed, 10 µs → ~10 %, 25 µs → ~1 %, which is
//! why 25 µs was chosen for byte-counter campaigns. This harness reproduces
//! the table with the poller + access-latency model, prints the miss law
//! ([`miss_law`]) beside each measured rate and checks it within 4σ, then
//! runs the auto-tuner, which computes each counter class's ~1 %-loss
//! interval from the same law (the buffer-peak register tuned to ~50 µs in
//! the paper).

use std::fmt::Write;

use uburst_asic::{AccessModel, CounterId};
use uburst_core::spec::CoreMode;
use uburst_core::tuning::{miss_law, probe_idle_bank, tune_min_interval};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::report::{law_check, write_checks, Table};
use crate::scale::Scale;

/// None: Table 1's probes poll an idle counter bank inside [`render`].
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    Vec::new()
}

/// Renders the report, running its own probes.
pub fn render(scale: Scale, _specs: &[CampaignSpec], _runs: &[CampaignRun]) -> String {
    let duration = match scale {
        Scale::Quick => Nanos::from_millis(200),
        Scale::Full => Nanos::from_millis(2_000),
    };
    let access = AccessModel::default();
    let byte_counter = [CounterId::TxBytes(PortId(0))];
    let mut out = String::new();
    writeln!(
        out,
        "Table 1: effect of sampling interval on miss rate, byte counter ({} scale)",
        scale.label()
    )
    .unwrap();

    let mut table = Table::new(&[
        "interval",
        "empty_intervals",
        "law",
        "late_samples",
        "law",
        "paper",
    ]);
    let probe_cases = [(1u64, "100%"), (10, "~10%"), (25, "~1%")];
    let profiles = probe_cases.map(|(us, _)| {
        probe_idle_bank(
            &byte_counter,
            access,
            Nanos::from_micros(us),
            duration,
            CoreMode::Dedicated,
            42 + us,
        )
    });
    let cost = access.poll_cost(&byte_counter);
    let mut measured = Vec::new();
    let mut law_checks = Vec::new();
    for ((us, paper), stats) in probe_cases.into_iter().zip(profiles) {
        let (miss, late) = (stats.deadline_miss_fraction(), stats.late_fraction());
        let law = miss_law(CoreMode::Dedicated, cost, Nanos::from_micros(us));
        measured.push((us, miss, late));
        law_checks.push(law_check(&format!("{us}us"), &stats, &law));
        table.row(&[
            format!("{us}us"),
            format!("{:.1}%", miss * 100.0),
            format!("{:.1}%", law.fraction() * 100.0),
            format!("{:.1}%", late * 100.0),
            format!("{:.1}%", law.late * 100.0),
            paper.to_string(),
        ]);
    }
    writeln!(out, "{}", table.render()).unwrap();
    writeln!(
        out,
        "(the paper's single 'missed intervals' column maps to empty intervals for the\n         10us/25us rows and to late samples for the 1us row, where no sample is ever\n         on schedule)"
    )
    .unwrap();

    // Auto-tuned minimum intervals at ~1% loss per counter class.
    writeln!(out, "\nauto-tuned minimum intervals at 1% target loss:").unwrap();
    let mut tune_table = Table::new(&["counter", "tuned_interval", "paper"]);
    let four_bytes: Vec<CounterId> = (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect();
    let byte_tuned = tune_min_interval(&byte_counter, access);
    let peak_tuned = tune_min_interval(&[CounterId::BufferPeak], access);
    let group_tuned = tune_min_interval(&four_bytes, access);
    tune_table.row(&[
        "byte counter".into(),
        format!("{byte_tuned}"),
        "25us".into(),
    ]);
    tune_table.row(&[
        "buffer peak register".into(),
        format!("{peak_tuned}"),
        "50us".into(),
    ]);
    tune_table.row(&[
        "4 byte counters (one campaign)".into(),
        format!("{group_tuned}"),
        "sublinear vs 4x single".into(),
    ]);
    writeln!(out, "{}", tune_table.render()).unwrap();

    writeln!(out, "\nmiss-law checks:").unwrap();
    write_checks(&mut out, 2, law_checks);

    writeln!(out, "\npaper-shape checks:").unwrap();
    let checks = [
        (
            format!(
                "1us: effectively total loss (empty {:.0}%, late {:.0}%)",
                measured[0].1 * 100.0,
                measured[0].2 * 100.0
            ),
            measured[0].1 > 0.6 && measured[0].2 > 0.95,
        ),
        (
            format!("10us interval misses ~10% ({:.1}%)", measured[1].1 * 100.0),
            (0.05..=0.20).contains(&measured[1].1),
        ),
        (
            format!("25us interval misses ~1% ({:.2}%)", measured[2].1 * 100.0),
            measured[2].1 <= 0.03,
        ),
        (
            format!("byte counter tunes near 25us ({byte_tuned})"),
            (Nanos::from_micros(15)..=Nanos::from_micros(45)).contains(&byte_tuned),
        ),
        (
            format!("peak register tunes near 50us ({peak_tuned})"),
            (Nanos::from_micros(45)..=Nanos::from_micros(95)).contains(&peak_tuned),
        ),
        (
            format!("grouped counters stay sublinear ({group_tuned} << 4x25us)"),
            group_tuned < Nanos::from_micros(70),
        ),
    ];
    write_checks(&mut out, 2, checks);
    out
}
