//! Extension experiment: microflow (flowlet) load balancing.
//!
//! §7, "Implications for load balancing": "Many recent proposals suggest
//! load balancing on microflows rather than 5-tuples — essentially
//! splitting a flow as soon as the inter-packet gap is long enough to
//! guarantee no reordering. While our framework does not measure
//! inter-packet gaps directly, we note that most observed inter-burst
//! periods exceed typical end-to-end latencies and that non-burst
//! utilization is low."
//!
//! This experiment closes the loop the paper could not: it implements
//! flowlet switching in the ToR's ECMP stage and measures, on the same
//! Hadoop rack, (a) how much of Fig. 7's fine-grained imbalance flowlets
//! recover, and (b) the reordering cost, as a function of the flowlet gap
//! relative to end-to-end latency.
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_flowlet_lb`.

use std::fmt::Write;
use std::iter::zip;

use uburst_analysis::{coarsen, mad_per_period, Ecdf};
use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::routing::EcmpMode;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{tx_utilization, CampaignRun, CampaignSpec};
use crate::report::{fmt_bytes, write_checks, Table};
use crate::scale::Scale;

const SPAN: Nanos = Nanos::from_millis(200);

/// The ECMP modes each panel compares, in row order.
fn modes() -> [(&'static str, EcmpMode); 5] {
    let flowlet = |us| EcmpMode::Flowlet {
        gap: Nanos::from_micros(us),
    };
    [
        ("flow-hash (production)", EcmpMode::FlowHash),
        ("flowlet gap=500us", flowlet(500)),
        ("flowlet gap=100us", flowlet(100)),
        ("flowlet gap=20us", flowlet(20)),
        ("packet-spray (ideal)", EcmpMode::PacketSpray),
    ]
}

/// Panel A's campaigns (backlogged senders), then panel B's
/// (window-limited senders), one per ECMP mode of `modes`: the rack's
/// four uplinks at 40 µs.
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    let mut specs = Vec::new();
    for window_limited in [false, true] {
        for (_, mode) in modes() {
            let mut cfg = ScenarioConfig::new(RackType::Hadoop, 50_050);
            cfg.clos.ecmp_mode = mode;
            if window_limited {
                // Small windows stall every RTT — the inter-burst gaps §7
                // says microflow balancers can exploit.
                cfg.transport.max_cwnd = 10;
            }
            let n = cfg.n_servers;
            let counters = (n..n + 4).map(|p| CounterId::TxBytes(PortId(p as u16)));
            let interval = Nanos::from_micros(40);
            specs.push(CampaignSpec::new(cfg, counters.collect(), interval, SPAN));
        }
    }
    specs
}

/// One panel's table, and per mode its fine and coarse MAD p50.
fn panel(
    out: &mut String,
    title: &str,
    specs: &[CampaignSpec],
    runs: &[CampaignRun],
) -> Vec<(f64, f64)> {
    writeln!(out, "### {title}\n").unwrap();
    let mut t = Table::new(&[
        "mode",
        "mad_p50@40us",
        "mad_p90@40us",
        "mad_p50@1ms",
        "retransmits",
        "fast_retx",
        "goodput",
    ]);
    let mut rows = Vec::new();
    for (((name, _), spec), run) in modes().into_iter().zip(specs).zip(runs) {
        let series: Vec<Vec<f64>> = tx_utilization(spec, run)
            .iter()
            .map(|s| s.iter().map(|u| u.util).collect())
            .collect();
        let mad = Ecdf::new(mad_per_period(&series));
        let coarse: Vec<Vec<f64>> = series.iter().map(|s| coarsen(s, 25)).collect();
        let mad_coarse = Ecdf::new(mad_per_period(&coarse));
        // Goodput proxy: bytes the ToR moved toward servers.
        t.row(&[
            name.to_string(),
            format!("{:.2}", mad.quantile(0.5)),
            format!("{:.2}", mad.quantile(0.9)),
            format!("{:.2}", mad_coarse.quantile(0.5)),
            format!("{}", run.net.transport.retransmits),
            format!("{}", run.net.transport.fast_retransmits),
            fmt_bytes(run.net.tor.tx_bytes),
        ]);
        rows.push((mad.quantile(0.5), mad_coarse.quantile(0.5)));
    }
    out.push_str(&t.render());
    out.push('\n');
    rows
}

/// Renders both panels from the runs of [`campaigns`].
pub fn render(_: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out =
        format!("extension: flowlet load balancing on the Hadoop rack ({SPAN} campaigns)\n\n");
    let n = modes().len();
    let a = panel(
        &mut out,
        "panel A: backlogged senders (default windows, ack-clocked, no pauses)",
        &specs[..n],
        &runs[..n],
    );
    let b = panel(
        &mut out,
        "panel B: window-limited senders (cwnd cap 10 -> RTT-scale stalls)",
        &specs[n..],
        &runs[n..],
    );

    out.push_str(
        "reading: flowlet switching subdivides a flow only where the flow\n\
         pauses. Backlogged, ack-clocked senders never pause (panel A), so\n\
         flowlets degenerate to flows and only per-packet spraying balances —\n\
         a refinement of the paper's suggestion. Window-limited senders stall\n\
         every RTT (panel B); flowlets then split flows into ~window-sized\n\
         units, which helps at granularities coarser than a flowlet (the 1ms\n\
         column) but cannot beat one-flowlet-per-sample at 40us: microflow LB\n\
         improves balance exactly down to the flowlet timescale, no further.\n\nchecks:\n",
    );
    let claims = format!(
        "panel A: flowlets == flows for backlogged traffic (MAD {:.2} vs {:.2})\n\
         panel B: sub-stall flowlets improve fine balance (MAD@40us {:.2} -> {:.2})\n\
         panel B: flowlets approach balance at coarser-than-flowlet scales \
         (MAD@1ms {:.2} -> {:.2})\n\
         spraying still balances best but relies on reordering tolerance ({:.2})",
        a[2].0, a[0].0, b[0].0, b[3].0, b[0].1, b[3].1, a[4].0,
    );
    let holds = [
        (a[2].0 - a[0].0).abs() < 0.25,
        b[3].0 < b[0].0 - 0.03,
        b[3].1 < 0.7 * b[0].1,
        a[4].0 < 0.3,
    ];
    write_checks(&mut out, 2, zip(claims.lines(), holds));
    out
}
