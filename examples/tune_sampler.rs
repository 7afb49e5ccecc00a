//! Interval auto-tuning: the paper's Table 1 procedure, automated.
//!
//! "For the counters we measure, we manually determine the minimum sampling
//! interval possible while maintaining ~1% sampling loss" (§4.1). This
//! example probes the loss curve for a byte counter, lets the auto-tuner
//! compute each counter class's minimum interval from the miss law, and
//! shows the dedicated-core vs. low-CPU shared-core tradeoff.
//!
//! Run with `cargo run --release --example tune_sampler`.

use uburst::prelude::*;
use uburst::telemetry::probe_idle_bank;

fn main() {
    let access = AccessModel::default();
    let duration = Nanos::from_millis(300);

    println!("loss curve for a single byte counter (dedicated core):");
    println!(
        "{:>10}  {:>15}  {:>12}",
        "interval", "empty_intervals", "late_samples"
    );
    for us in [1u64, 2, 5, 10, 15, 25, 50] {
        let stats = probe_idle_bank(
            &[CounterId::TxBytes(PortId(0))],
            access,
            Nanos::from_micros(us),
            duration,
            CoreMode::Dedicated,
            us,
        );
        println!(
            "{:>9}us  {:>14.1}%  {:>11.1}%",
            us,
            stats.deadline_miss_fraction() * 100.0,
            stats.late_fraction() * 100.0
        );
    }

    println!("\nauto-tuned minimum intervals at 1% target loss:");
    let classes: Vec<(&str, Vec<CounterId>)> = vec![
        (
            "byte counter (register)",
            vec![CounterId::TxBytes(PortId(0))],
        ),
        (
            "size-histogram bin (memory)",
            vec![CounterId::TxSizeHist(PortId(0), 0)],
        ),
        ("buffer peak (wide memory)", vec![CounterId::BufferPeak]),
        (
            "4 byte counters in one campaign",
            (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect(),
        ),
    ];
    for (name, counters) in classes {
        println!("  {name:<32} -> {}", tune_min_interval(&counters, access));
    }

    println!("\nshared-core mode trades precision for CPU (paper: <=20% utilization):");
    for mode in [CoreMode::Dedicated, CoreMode::Shared] {
        let miss = probe_idle_bank(
            &[CounterId::TxBytes(PortId(0))],
            access,
            Nanos::from_micros(25),
            duration,
            mode,
            99,
        )
        .deadline_miss_fraction();
        println!("  {mode:?}: miss fraction at 25us = {:.1}%", miss * 100.0);
    }
}
