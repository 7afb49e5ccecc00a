//! Extension experiment: buffer carving policy × workload × buffer size.
//!
//! The paper's §6.3/§6.4 shared-buffer findings are all conditioned on one
//! carving scheme — Broadcom-style dynamic thresholding — because that is
//! what its switches ran. This experiment re-runs the fig10-style
//! buffer-vs-concurrent-bursts readout under the alternative policies in
//! `uburst_sim::bufpolicy` (static partitioning, delay-driven BShare,
//! flexible buffering with reserved floors) across rack types and buffer
//! sizes, asking how much of the figure is workload and how much is
//! carving policy.
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_buffer_policy`.

use std::fmt::Write;
use std::iter::zip;

use uburst_analysis::{hot_ports_per_window, Ecdf, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{buffer_and_ports_spec, tx_utilization, CampaignRun, CampaignSpec};
use crate::report::{fmt_bytes, write_checks, Table};
use crate::scale::Scale;

/// Sampling period for hot-port classification (the paper's 300 µs).
const INTERVAL: Nanos = Nanos::from_micros(300);
/// Campaign span per cell; 10 ms windows give six full windows.
const SPAN: Nanos = Nanos::from_millis(60);
/// Hot-port concurrency window (fig10's scaled-down window).
const WINDOW: Nanos = Nanos::from_millis(10);
/// ToR buffer sizes swept.
const BUFFERS: [u64; 3] = [384 << 10, 768 << 10, 1536 << 10];
const RACKS: [RackType; 3] = [RackType::Web, RackType::Cache, RackType::Hadoop];

/// One sweep cell's summary.
struct Cell {
    drops: u64,
    p99_occ: u64,
    max_hot: usize,
}

/// The carving policies swept, the default carve first; `ext_fleet`
/// sweeps the same four at fleet width.
pub(crate) fn policies() -> [BufferPolicyCfg; 4] {
    [
        // The default carve of every figure (and of the paper's switches).
        BufferPolicyCfg::dt(0.5),
        // pool/ports hard carve: immune to pool pressure, starves fan-in.
        BufferPolicyCfg::StaticPartition,
        // Delay-driven: cap each port at 50 µs of drain at 10 G.
        BufferPolicyCfg::BShare {
            target_delay: Nanos::from_micros(50),
            drain_bps: 10_000_000_000,
        },
        // Reserved floor per port, shared access to the remainder.
        BufferPolicyCfg::FlexibleBuffering {
            reserved_bytes: 24 << 10,
        },
    ]
}

/// One all-port campaign per (policy, rack, buffer) cell, in table order.
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    let mut specs = Vec::new();
    for policy in policies() {
        for rack in RACKS {
            for buffer in BUFFERS {
                // Same seed for every policy: each (rack, buffer) cell
                // replays the identical offered load, so rows differ only
                // by carving.
                let mut cfg = ScenarioConfig::new(rack, 77_000);
                cfg.clos.tor_switch.buffer_bytes = buffer;
                cfg.clos.tor_switch.policy = policy;
                specs.push(buffer_and_ports_spec(cfg, INTERVAL, SPAN).0);
            }
        }
    }
    specs
}

/// Renders the sweep from the runs of [`campaigns`].
pub fn render(_: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let mut out = String::from("extension: buffer carving policy x workload x buffer size\n");
    writeln!(
        out,
        "(fig10 methodology: hot at {INTERVAL} over {WINDOW} windows, span {SPAN} per cell; \
         drop% is of rx frames; p99_occ from the read-and-clear peak register)\n"
    )
    .unwrap();

    let mut t = Table::new(&[
        "policy", "rack", "buffer", "drops", "drop%", "p99_occ", "max_hot",
    ]);
    let mut cells = Vec::new();
    for (spec, run) in specs.iter().zip(runs) {
        // Max concurrent hot ports over full fig10 windows.
        let samples_per_window = (WINDOW.as_nanos() / INTERVAL.as_nanos()) as usize;
        let max_hot = hot_ports_per_window(
            &tx_utilization(spec, run),
            samples_per_window,
            HOT_THRESHOLD,
        )
        .into_iter()
        .max()
        .unwrap_or(0);
        // Occupancy tail straight from the peak-register samples.
        let peaks = run
            .series_for(CounterId::BufferPeak)
            .vs
            .iter()
            .map(|&v| v as f64);
        let p99_occ = Ecdf::new(peaks.collect()).quantile(0.99) as u64;
        let stats = run.net.tor;
        let drop_pct = if stats.rx_packets == 0 {
            0.0
        } else {
            stats.dropped_packets as f64 / stats.rx_packets as f64 * 100.0
        };
        let tor = &spec.cfg.clos.tor_switch;
        t.row(&[
            tor.policy.label(),
            spec.cfg.rack_type.name().to_string(),
            fmt_bytes(tor.buffer_bytes),
            format!("{}", stats.dropped_packets),
            format!("{drop_pct:.2}"),
            fmt_bytes(p99_occ),
            format!("{max_hot}"),
        ]);
        cells.push(Cell {
            drops: stats.dropped_packets,
            p99_occ,
            max_hot,
        });
    }
    out.push_str(&t.render());
    out.push_str(
        "\nreading: dynamic thresholding rides the shared pool, so its occupancy\n\
         tail tracks the buffer size; a hard carve drops earliest because idle\n\
         ports' shares are unreachable; the delay-driven cap and reserved-floor\n\
         schemes trade a bounded occupancy tail for earlier per-port discards.\n\nchecks:\n",
    );

    // The cell of policy `p`, rack `r` and buffer `b`, indices into
    // [`policies`], [`RACKS`] and [`BUFFERS`].
    let cell = |p: usize, r: usize, b: usize| &cells[(p * RACKS.len() + r) * BUFFERS.len() + b];
    let ([small, mid, _], [web, cache, hadoop]) = (BUFFERS, [0, 1, 2]);
    let (dt_small, sp_small) = (cell(0, hadoop, 0), cell(1, hadoop, 0));
    let (dt_mid, bs_mid, fb_mid) = (cell(0, hadoop, 1), cell(2, hadoop, 1), cell(3, hadoop, 1));
    let hot = |r: usize| cell(0, r, 1).max_hot;
    let claims = format!(
        "static partitioning drops earliest (Hadoop@{}: {} vs DT {})\n\
         BShare bounds the occupancy tail below DT (Hadoop@{}: p99 {} vs {})\n\
         flexible buffering bounds the occupancy tail below DT (Hadoop@{}: p99 {} vs {})\n\
         Hadoop still drives the most concurrent hot ports under the default carve \
         ({} vs web {} / cache {})",
        fmt_bytes(small),
        sp_small.drops,
        dt_small.drops,
        fmt_bytes(mid),
        fmt_bytes(bs_mid.p99_occ),
        fmt_bytes(dt_mid.p99_occ),
        fmt_bytes(mid),
        fmt_bytes(fb_mid.p99_occ),
        fmt_bytes(dt_mid.p99_occ),
        hot(hadoop),
        hot(web),
        hot(cache),
    );
    let holds = [
        sp_small.drops > dt_small.drops,
        bs_mid.p99_occ < dt_mid.p99_occ,
        fb_mid.p99_occ < dt_mid.p99_occ,
        hot(hadoop) >= hot(web) && hot(hadoop) >= hot(cache),
    ];
    write_checks(&mut out, 2, zip(claims.lines(), holds));
    out
}
