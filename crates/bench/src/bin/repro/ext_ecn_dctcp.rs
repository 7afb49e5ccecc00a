//! Extension experiment: ECN-based congestion response under µbursts.
//!
//! §7, "Implications for congestion control": "Traditional congestion
//! control algorithms either react to packet drops, RTT variation or ECN
//! as a congestion signal. All of these signals require at least RTT/2 to
//! arrive at the sender ... our measurements show that a large number of
//! µbursts are shorter than a single RTT."
//!
//! This experiment equips the simulated network with what the measured one
//! lacked — ECN marking at the ToR plus a DCTCP-style sender response —
//! and asks: how much of the µburst-driven loss does an RTT-scale signal
//! actually recover, and what happens to the bursts themselves?
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_ecn_dctcp`.

use uburst_analysis::{extract_bursts, Ecdf, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_bench::campaign::CampaignSpec;
use uburst_bench::report::{fmt_bytes, verdict, Table};
use uburst_bench::run_jobs;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

pub fn run() {
    let span = Nanos::from_millis(200);
    println!("extension: ECN marking + DCTCP-style response, Hadoop rack at load 2.0");
    println!();

    let mut t = Table::new(&[
        "config",
        "drops",
        "peak_buffer",
        "hot%",
        "burst_p90us",
        "goodput",
    ]);
    let mut rows = Vec::new();

    let configs: Vec<(String, Option<u64>)> = vec![
        ("drop-only (paper's network)".into(), None),
        ("ECN K=150KB".into(), Some(150 << 10)),
        ("ECN K=60KB".into(), Some(60 << 10)),
        ("ECN K=25KB".into(), Some(25 << 10)),
    ];

    // The four ECN configurations are independent campaigns: pool them.
    let results = run_jobs(configs, |(name, threshold)| {
        let mut cfg = ScenarioConfig::new(RackType::Hadoop, 60_060);
        cfg.load = 2.0;
        cfg.clos.tor_switch.ecn_threshold = threshold;
        cfg.transport.ecn = threshold.is_some();
        let measured_port = PortId(2);
        let counters = vec![CounterId::TxBytes(measured_port), CounterId::BufferPeak];
        let run = CampaignSpec::new(cfg, counters, Nanos::from_micros(300), span).run();

        let utils = run.utilization(CounterId::TxBytes(measured_port), 10_000_000_000);
        let a = extract_bursts(&utils, HOT_THRESHOLD);
        let p90 = if a.bursts.is_empty() {
            0.0
        } else {
            Ecdf::new(a.durations().iter().map(|d| d.as_micros_f64()).collect()).quantile(0.9)
        };
        let peak = run
            .series_for(CounterId::BufferPeak)
            .vs
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let stats = run.net.tor;
        (
            [
                name.clone(),
                format!("{}", stats.dropped_packets),
                fmt_bytes(peak),
                format!("{:.1}", a.hot_fraction() * 100.0),
                format!("{p90:.0}"),
                fmt_bytes(stats.tx_bytes),
            ],
            (name, stats.dropped_packets, peak, stats.tx_bytes),
        )
    });
    for (table_row, summary) in results {
        t.row(&table_row);
        rows.push(summary);
    }
    t.print();

    println!();
    println!("reading: DCTCP-style marking tames queue peaks and drops while");
    println!("sustaining goodput — but the burst *onsets* (initial windows, fan-in)");
    println!("are shorter than the signal's RTT, so hot periods persist: exactly");
    println!("the limitation the paper predicts for RTT-scale congestion signals,");
    println!("and why it suggests lower-latency signals or buffering for ubursts.");

    println!("\nchecks:");
    let (_, drops0, peak0, good0) = rows[0].clone();
    let (_, drops_k, peak_k, good_k) = rows[3].clone(); // K=25KB, the aggressive mark
    println!(
        "  [{}] ECN cuts drops sharply ({drops0} -> {drops_k})",
        verdict(drops_k < drops0 / 2 || drops0 == 0)
    );
    println!(
        "  [{}] ECN lowers peak buffer occupancy ({} -> {})",
        verdict(peak_k < peak0 || drops0 == 0),
        fmt_bytes(peak0),
        fmt_bytes(peak_k)
    );
    println!(
        "  [{}] goodput holds within 15% ({} -> {})",
        verdict((good_k as f64) > 0.85 * good0 as f64),
        fmt_bytes(good0),
        fmt_bytes(good_k)
    );
}
