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

use std::iter::zip;

use uburst_analysis::{extract_bursts, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::common::burst_p90_us;
use crate::report::{fmt_bytes, write_checks, Table};
use crate::scale::Scale;

/// The measured ToR downlink.
const PORT: PortId = PortId(2);
/// The configurations compared: the paper's drop-only network, then ECN
/// marking at three thresholds.
const CONFIGS: [(&str, Option<u64>); 4] = [
    ("drop-only (paper's network)", None),
    ("ECN K=150KB", Some(150 << 10)),
    ("ECN K=60KB", Some(60 << 10)),
    ("ECN K=25KB", Some(25 << 10)),
];

/// One campaign per configuration, in `CONFIGS` order.
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    CONFIGS
        .iter()
        .map(|&(_, threshold)| {
            let mut cfg = ScenarioConfig::new(RackType::Hadoop, 60_060);
            cfg.load = 2.0;
            cfg.clos.tor_switch.ecn_threshold = threshold;
            cfg.transport.ecn = threshold.is_some();
            let counters = vec![CounterId::TxBytes(PORT), CounterId::BufferPeak];
            CampaignSpec::new(
                cfg,
                counters,
                Nanos::from_micros(300),
                Nanos::from_millis(200),
            )
        })
        .collect()
}

/// Renders the comparison from the runs of [`campaigns`].
pub fn render(_: Scale, _: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out =
        String::from("extension: ECN marking + DCTCP-style response, Hadoop rack at load 2.0\n\n");
    let mut t = Table::new(&[
        "config",
        "drops",
        "peak_buffer",
        "hot%",
        "burst_p90us",
        "goodput",
    ]);
    let mut rows = Vec::new();
    for (&(name, _), run) in CONFIGS.iter().zip(runs) {
        let utils = run.utilization(CounterId::TxBytes(PORT), 10_000_000_000);
        let a = extract_bursts(&utils, HOT_THRESHOLD);
        let p90 = burst_p90_us(&a);
        let peak = run.series_for(CounterId::BufferPeak).vs.iter().max();
        let peak = peak.copied().unwrap_or(0);
        let stats = run.net.tor;
        t.row(&[
            name.to_string(),
            format!("{}", stats.dropped_packets),
            fmt_bytes(peak),
            format!("{:.1}", a.hot_fraction() * 100.0),
            format!("{p90:.0}"),
            fmt_bytes(stats.tx_bytes),
        ]);
        rows.push((stats.dropped_packets, peak, stats.tx_bytes));
    }
    out.push_str(&t.render());

    out.push_str(
        "\nreading: DCTCP-style marking tames queue peaks and drops while\n\
         sustaining goodput — but the burst *onsets* (initial windows, fan-in)\n\
         are shorter than the signal's RTT, so hot periods persist: exactly\n\
         the limitation the paper predicts for RTT-scale congestion signals,\n\
         and why it suggests lower-latency signals or buffering for ubursts.\n\nchecks:\n",
    );
    let (drops0, peak0, good0) = rows[0];
    let (drops_k, peak_k, good_k) = rows[3]; // K=25KB, the aggressive mark
    let claims = format!(
        "ECN cuts drops sharply ({drops0} -> {drops_k})\n\
         ECN lowers peak buffer occupancy ({} -> {})\n\
         goodput holds within 15% ({} -> {})",
        fmt_bytes(peak0),
        fmt_bytes(peak_k),
        fmt_bytes(good0),
        fmt_bytes(good_k),
    );
    let holds = [
        drops_k < drops0 / 2 || drops0 == 0,
        peak_k < peak0 || drops0 == 0,
        (good_k as f64) > 0.85 * good0 as f64,
    ];
    write_checks(&mut out, 2, zip(claims.lines(), holds));
    out
}
