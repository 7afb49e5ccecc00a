//! Figure 2 — time series of drops on a low- and a high-utilization port.
//!
//! Paper's finding (§3): on both a low-utilization Web port (~9 %) and a
//! high-utilization Hadoop port (~43 %), drops arrive in bursts often
//! shorter than the measurement granularity, with most windows seeing no
//! drops at all. The ports were chosen because they were experiencing
//! congestion drops, as the paper's were.
//!
//! Scaling: windows are 5 ms over sub-second campaigns instead of 1 minute
//! over 12 hours; the burstiness contrast is the result.

use std::fmt::Write;

use uburst_analysis::to_windows;
use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::report::write_checks;
use crate::scale::Scale;

/// `(label, rack type, load)` per panel — Web needs extra load to
/// experience drops at our scaled-down buffer, mirroring the paper's
/// biased port choice.
const PANELS: [(&str, RackType, f64); 2] = [
    ("(a) low-utilization port", RackType::Web, 1.0),
    ("(b) high-utilization port", RackType::Hadoop, 2.2),
];

/// One campaign per panel: every downlink's byte and drop counters at
/// 500 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    PANELS
        .iter()
        .map(|&(_, rack_type, load)| {
            let mut cfg = ScenarioConfig::new(rack_type, 30_303);
            cfg.load = load;
            if rack_type == RackType::Web {
                // The paper picked a web port that was experiencing
                // congestion discards; model that port's traffic mix as
                // big-object pages (heavier fan-in per request than the
                // rack-wide average).
                cfg.web.fanout = (14, 40);
                cfg.web.cache_resp.cap = 50_000;
                cfg.web.cache_resp.median = 3_000;
            }
            let mut counters = Vec::new();
            for i in 0..cfg.n_servers {
                counters.push(CounterId::TxBytes(PortId(i as u16)));
                counters.push(CounterId::Drops(PortId(i as u16)));
            }
            let span = scale.campaign_span().max(Nanos::from_millis(400));
            CampaignSpec::new(cfg, counters, Nanos::from_micros(500), span)
        })
        .collect()
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 2: drop time series on a low- and a high-utilization port ({} scale)",
        scale.label()
    )
    .unwrap();
    for (((label, _, _), spec), run) in PANELS.iter().zip(specs).zip(runs) {
        render_panel(&mut out, label, spec, run);
    }
    out
}

/// One panel: pick the dropiest port, render its series.
fn render_panel(out: &mut String, label: &str, spec: &CampaignSpec, run: &CampaignRun) {
    let window = Nanos::from_millis(5);
    let (rack_type, load) = (spec.cfg.rack_type, spec.cfg.load);
    let n = spec.cfg.n_servers;
    let bps = spec.cfg.clos.server_link.bandwidth_bps;
    // Pick the downlink with the most drops (the paper picked ports
    // experiencing congestion drops).
    let port = (0..n)
        .max_by_key(|&i| {
            *run.series_for(CounterId::Drops(PortId(i as u16)))
                .vs
                .last()
                .unwrap_or(&0)
        })
        .map(|i| PortId(i as u16))
        .expect("rack has ports");

    let bytes = run.series_for(CounterId::TxBytes(port));
    let drops = run.series_for(CounterId::Drops(port));
    let origin = Nanos(bytes.ts[0]);
    let end = Nanos(*bytes.ts.last().expect("non-empty"));
    let bw = to_windows(bytes, origin, window, end);
    let dw = to_windows(drops, origin, window, end);
    let mean_util = bw.iter().map(|w| w.utilization(bps)).sum::<f64>() / bw.len() as f64;
    let total_drops: u64 = dw.iter().map(|w| w.delta).sum();
    let zero_windows = dw.iter().filter(|w| w.delta == 0).count();
    let max_window = dw.iter().map(|w| w.delta).max().unwrap_or(0);

    writeln!(
        out,
        "\n{label}: {} rack port {} at load {load} — mean util {:.1}%",
        rack_type.name(),
        port.0,
        mean_util * 100.0
    )
    .unwrap();
    writeln!(out, "  t[ms]  drops  util%").unwrap();
    for (b, d) in bw.iter().zip(&dw) {
        writeln!(
            out,
            "  {:>5.0}  {:>5}  {:>5.1}",
            b.start.as_millis_f64(),
            d.delta,
            b.utilization(bps) * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "  total drops {total_drops}; {zero_windows}/{} windows had none; max window {max_window}",
        dw.len()
    )
    .unwrap();
    writeln!(out, "\n  paper-shape checks:").unwrap();
    let bursty = total_drops == 0
        || (zero_windows as f64 > 0.3 * dw.len() as f64
            && max_window as f64 > 2.0 * total_drops as f64 / dw.len() as f64);
    let checks = [
        (
            format!("the port experienced drops (total {total_drops})"),
            total_drops > 0,
        ),
        (
            "drops are bursty: many empty windows, spiky occupied ones".into(),
            bursty,
        ),
    ];
    write_checks(out, 4, checks);
}
