//! Interval auto-tuning: the paper's Table 1 procedure, automated.
//!
//! "For the counters we measure, we manually determine the minimum sampling
//! interval possible while maintaining ~1% sampling loss" (§4.1). This
//! example probes the loss curve for a byte counter beside the miss law it
//! follows, then lets the auto-tuner compute each counter class's minimum
//! interval from that law.
//!
//! Run with `cargo run --release --example tune_sampler`.

use uburst::prelude::*;
use uburst::telemetry::probe_idle_bank;
use uburst::telemetry::tuning::miss_law;

fn main() {
    let access = AccessModel::default();
    let duration = Nanos::from_millis(300);
    let byte_counter = [CounterId::TxBytes(PortId(0))];
    let cost = access.poll_cost(&byte_counter);

    println!("loss curve for a single byte counter (dedicated core):");
    println!(
        "{:>10}  {:>15}  {:>6}  {:>12}  {:>6}",
        "interval", "empty_intervals", "law", "late_samples", "law"
    );
    for us in [1u64, 2, 5, 10, 15, 25, 50] {
        let interval = Nanos::from_micros(us);
        let stats = probe_idle_bank(
            &byte_counter,
            access,
            interval,
            duration,
            CoreMode::Dedicated,
            us,
        );
        let law = miss_law(CoreMode::Dedicated, cost, interval);
        println!(
            "{:>9}us  {:>14.1}%  {:>5.1}%  {:>11.1}%  {:>5.1}%",
            us,
            stats.deadline_miss_fraction() * 100.0,
            law.fraction() * 100.0,
            stats.late_fraction() * 100.0,
            law.late * 100.0
        );
    }

    println!("\nauto-tuned minimum intervals at 1% target loss:");
    let classes: Vec<(&str, Vec<CounterId>)> = vec![
        ("byte counter (register)", byte_counter.to_vec()),
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
}
