//! §4.1 — self-measurement overhead accounting.
//!
//! The paper's framework polls counters from the switch CPU and pays for
//! it in one of two ways (§4.1): a *dedicated* core busy-waits between
//! deadlines — it burns the whole core but misses only ~1 % of 25 µs
//! intervals — or the poller *shares* a core with the control plane,
//! which drops CPU use to the polling transactions themselves (well under
//! 20 %) at the price of scheduler jitter that inflates missed intervals.
//! This harness runs the same single-byte-counter campaign in both
//! placements at 10, 25 and 100 µs, reproduces that overhead split from
//! the poller's own accounting, and holds every cell's missed and late
//! fractions to the miss law ([`miss_law`]) within 4σ.
//!
//! No traffic is generated: overhead is a property of the sampling loop
//! and the counter-access path, not of the workload, so both placements
//! run the tuner's idle-bank probe ([`probe_idle_bank`]).

use std::fmt::Write;

use uburst_asic::{AccessModel, CounterId};
use uburst_core::spec::CoreMode;
use uburst_core::tuning::{miss_law, probe_idle_bank};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::report::{law_check, write_checks, Table};
use crate::scale::Scale;

/// The interval the paper's §4.1 numbers are for.
const PAPER_INTERVAL_US: u64 = 25;

/// None: §4.1's probes poll an idle counter bank inside [`render`].
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    Vec::new()
}

/// Renders the report, running its own probes.
pub fn render(scale: Scale, _specs: &[CampaignSpec], _runs: &[CampaignRun]) -> String {
    let duration = match scale {
        Scale::Quick => Nanos::from_millis(200),
        Scale::Full => Nanos::from_millis(2_000),
    };
    let counters = [CounterId::TxBytes(PortId(0))];
    let access = AccessModel::default();
    let mut out = String::new();
    writeln!(
        out,
        "Section 4.1: collection overhead by core placement, byte counter at 10/25/100us ({} scale)",
        scale.label()
    )
    .unwrap();

    let cells = [
        (CoreMode::Dedicated, 10u64, 0x0413u64),
        (CoreMode::Dedicated, 25, 0x0411),
        (CoreMode::Dedicated, 100, 0x0414),
        (CoreMode::Shared, 10, 0x0415),
        (CoreMode::Shared, 25, 0x0412),
        (CoreMode::Shared, 100, 0x0416),
    ];
    let probes = cells.map(|(mode, us, seed)| {
        let interval = Nanos::from_micros(us);
        let stats = probe_idle_bank(&counters, access, interval, duration, mode, seed);
        (mode, us, stats)
    });

    let mut table = Table::new(&[
        "core",
        "interval",
        "polls",
        "cpu",
        "missed",
        "law",
        "late",
        "law",
        "mean_poll_cost",
        "paper",
    ]);
    let cost = access.poll_cost(&counters);
    // The (cpu, missed, cost) of each placement's 25us cell, dedicated first.
    let mut at_25us = Vec::new();
    let mut law_checks = Vec::new();
    for &(mode, us, ref stats) in &probes {
        let law = miss_law(mode, cost, Nanos::from_micros(us));
        let cpu = stats.cpu_utilization(mode);
        let miss = stats.deadline_miss_fraction();
        let cost_us = if stats.polls == 0 {
            0.0
        } else {
            stats.busy.as_micros_f64() / stats.polls as f64
        };
        let (label, paper) = match mode {
            CoreMode::Dedicated => ("dedicated", "full core, ~1% missed"),
            CoreMode::Shared => ("shared", "<20% CPU, misses inflate"),
        };
        let at_paper = us == PAPER_INTERVAL_US;
        law_checks.push(law_check(&format!("{label} {us}us"), stats, &law));
        table.row(&[
            label.to_string(),
            format!("{us}us"),
            format!("{}", stats.polls),
            format!("{:.0}%", cpu * 100.0),
            format!("{:.1}%", miss * 100.0),
            format!("{:.1}%", law.fraction() * 100.0),
            format!("{:.1}%", stats.late_fraction() * 100.0),
            format!("{:.1}%", law.late * 100.0),
            format!("{cost_us:.1}us"),
            if at_paper { paper } else { "-" }.to_string(),
        ]);
        if at_paper {
            at_25us.push((cpu, miss, cost_us));
        }
    }
    writeln!(out, "{}", table.render()).unwrap();
    writeln!(
        out,
        "(cpu charges only the poller: a dedicated core busy-waits, so it burns the\n         whole core; a shared core is charged for its read transactions alone.\n         per-poll cost/latency histograms land in the telemetry section of the\n         run report when telemetry is enabled.)"
    )
    .unwrap();

    writeln!(out, "\nmiss-law checks:").unwrap();
    write_checks(&mut out, 2, law_checks);

    let [(ded_cpu, ded_miss, ded_cost), (sh_cpu, sh_miss, sh_cost)] = at_25us[..] else {
        unreachable!("one 25us cell per placement")
    };

    writeln!(out, "\npaper-shape checks:").unwrap();
    let checks = [
        (
            format!(
                "dedicated core busy-waits a full core ({:.0}% CPU)",
                ded_cpu * 100.0
            ),
            ded_cpu == 1.0,
        ),
        (
            format!(
                "dedicated core misses ~1% of 25us intervals ({:.2}%)",
                ded_miss * 100.0
            ),
            ded_miss <= 0.03,
        ),
        (
            format!("shared core stays under 20% CPU ({:.1}%)", sh_cpu * 100.0),
            sh_cpu < 0.20,
        ),
        (
            format!(
                "sharing the core inflates misses ({:.1}% vs {:.2}% dedicated)",
                sh_miss * 100.0,
                ded_miss * 100.0
            ),
            sh_miss > ded_miss && sh_miss > 0.05,
        ),
        (
            format!(
                "per-poll transaction cost is microseconds, not the interval ({ded_cost:.1}us / {sh_cost:.1}us)"
            ),
            (0.5..=10.0).contains(&ded_cost) && (0.5..=10.0).contains(&sh_cost),
        ),
    ];
    write_checks(&mut out, 2, checks);
    out
}
