//! §4.1 — self-measurement overhead accounting.
//!
//! The paper's framework polls counters from the switch CPU and pays for
//! it in one of two ways (§4.1): a *dedicated* core busy-waits between
//! deadlines — it burns the whole core but misses only ~1 % of 25 µs
//! intervals — or the poller *shares* a core with the control plane,
//! which drops CPU use to the polling transactions themselves (well under
//! 20 %) at the price of scheduler jitter that inflates missed intervals.
//! This harness runs the same single-byte-counter campaign in both
//! placements and reproduces that overhead split from the poller's own
//! accounting.
//!
//! No traffic is generated: overhead is a property of the sampling loop
//! and the counter-access path, not of the workload, so both placements
//! run the tuner's idle-bank probe ([`probe_idle_bank`]).

use std::fmt::Write;

use uburst_asic::{AccessModel, CounterId};
use uburst_core::spec::CoreMode;
use uburst_core::tuning::probe_idle_bank;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;

use crate::pool::run_jobs;
use crate::report::{verdict, Table};
use crate::scale::Scale;

/// Runs the experiment and renders the report.
pub fn run(scale: Scale) -> String {
    let interval = Nanos::from_micros(25);
    let duration = match scale {
        Scale::Quick => Nanos::from_millis(200),
        Scale::Full => Nanos::from_millis(2_000),
    };
    let mut out = String::new();
    writeln!(
        out,
        "Section 4.1: collection overhead by core placement, byte counter at {interval} ({} scale)",
        scale.label()
    )
    .unwrap();

    // The two placements are independent simulated campaigns: pool them.
    let jobs = vec![(CoreMode::Dedicated, 0x0411u64), (CoreMode::Shared, 0x0412)];
    let probes = run_jobs(jobs, |(mode, seed)| {
        let counters = [CounterId::TxBytes(PortId(0))];
        let access = AccessModel::default();
        let stats = probe_idle_bank(&counters, access, interval, duration, mode, seed);
        (mode, stats)
    });

    let mut table = Table::new(&[
        "core",
        "polls",
        "cpu",
        "missed",
        "late",
        "mean_poll_cost",
        "paper",
    ]);
    let mut by_mode = Vec::new();
    for (mode, stats) in &probes {
        let cpu = stats.cpu_utilization(*mode);
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
        table.row(&[
            label.to_string(),
            format!("{}", stats.polls),
            format!("{:.0}%", cpu * 100.0),
            format!("{:.1}%", miss * 100.0),
            format!("{:.1}%", stats.late_fraction() * 100.0),
            format!("{cost_us:.1}us"),
            paper.to_string(),
        ]);
        by_mode.push((*mode, cpu, miss, cost_us));
    }
    writeln!(out, "{}", table.render()).unwrap();
    writeln!(
        out,
        "(cpu charges only the poller: a dedicated core busy-waits, so it burns the\n         whole core; a shared core is charged for its read transactions alone.\n         per-poll cost/latency histograms land in the telemetry section of the\n         run report when telemetry is enabled.)"
    )
    .unwrap();

    let ded = by_mode
        .iter()
        .find(|(m, ..)| *m == CoreMode::Dedicated)
        .copied()
        .expect("dedicated probe ran");
    let shared = by_mode
        .iter()
        .find(|(m, ..)| *m == CoreMode::Shared)
        .copied()
        .expect("shared probe ran");
    let (_, ded_cpu, ded_miss, ded_cost) = ded;
    let (_, sh_cpu, sh_miss, sh_cost) = shared;

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
    for (desc, ok) in checks {
        writeln!(out, "  [{}] {desc}", verdict(ok)).unwrap();
    }
    out
}
