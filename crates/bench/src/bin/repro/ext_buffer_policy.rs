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

use uburst_analysis::{hot_ports_per_window, Ecdf, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_bench::campaign::{buffer_and_ports_spec, tx_utilization};
use uburst_bench::report::{fmt_bytes, verdict, Table};
use uburst_bench::run_jobs;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

/// Sampling period for hot-port classification (the paper's 300 µs).
const INTERVAL: Nanos = Nanos::from_micros(300);
/// Campaign span per cell; 10 ms windows give six full windows.
const SPAN: Nanos = Nanos::from_millis(60);
/// Hot-port concurrency window (fig10's scaled-down window).
const WINDOW: Nanos = Nanos::from_millis(10);

/// One sweep cell's summary, in table-row order.
struct Cell {
    policy: usize,
    rack: RackType,
    buffer: u64,
    drops: u64,
    drop_pct: f64,
    p99_occ: u64,
    max_hot: usize,
}

fn policies() -> Vec<BufferPolicyCfg> {
    vec![
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

pub fn run() {
    let policy_cfgs = policies();
    let buffers: Vec<u64> = vec![384 << 10, 768 << 10, 1536 << 10];

    println!("extension: buffer carving policy x workload x buffer size");
    println!(
        "(fig10 methodology: hot at {INTERVAL} over {WINDOW} windows, span {SPAN} per cell; \
         drop% is of rx frames; p99_occ from the read-and-clear peak register)"
    );
    println!();

    let mut jobs = Vec::new();
    for (pi, _) in policy_cfgs.iter().enumerate() {
        for rack in [RackType::Web, RackType::Cache, RackType::Hadoop] {
            for &buffer in &buffers {
                jobs.push((pi, rack, buffer));
            }
        }
    }
    let cfgs = policy_cfgs.clone();
    let cells: Vec<Cell> = run_jobs(jobs, move |(pi, rack, buffer)| {
        // Same seed for every policy: each (rack, buffer) cell replays the
        // identical offered load, so rows differ only by carving.
        let _ = pi;
        let mut cfg = ScenarioConfig::new(rack, 77_000);
        cfg.clos.tor_switch.buffer_bytes = buffer;
        cfg.clos.tor_switch.policy = cfgs[pi];
        let (spec, _) = buffer_and_ports_spec(cfg, INTERVAL, SPAN);
        let run = spec.clone().run();

        // Max concurrent hot ports over full fig10 windows.
        let port_utils = tx_utilization(&spec, &run);
        let samples_per_window = (WINDOW.as_nanos() / INTERVAL.as_nanos()) as usize;
        let max_hot = hot_ports_per_window(&port_utils, samples_per_window, HOT_THRESHOLD)
            .into_iter()
            .max()
            .unwrap_or(0);

        // Occupancy tail straight from the peak-register samples.
        let peaks: Vec<f64> = run
            .series_for(CounterId::BufferPeak)
            .vs
            .iter()
            .map(|&v| v as f64)
            .collect();
        let p99_occ = Ecdf::new(peaks).quantile(0.99) as u64;

        let stats = run.net.tor;
        let drop_pct = if stats.rx_packets == 0 {
            0.0
        } else {
            stats.dropped_packets as f64 / stats.rx_packets as f64 * 100.0
        };
        Cell {
            policy: pi,
            rack,
            buffer,
            drops: stats.dropped_packets,
            drop_pct,
            p99_occ,
            max_hot,
        }
    });

    let mut t = Table::new(&[
        "policy", "rack", "buffer", "drops", "drop%", "p99_occ", "max_hot",
    ]);
    for c in &cells {
        t.row(&[
            policy_cfgs[c.policy].label(),
            c.rack.name().to_string(),
            fmt_bytes(c.buffer),
            format!("{}", c.drops),
            format!("{:.2}", c.drop_pct),
            fmt_bytes(c.p99_occ),
            format!("{}", c.max_hot),
        ]);
    }
    t.print();

    println!();
    println!("reading: dynamic thresholding rides the shared pool, so its occupancy");
    println!("tail tracks the buffer size; a hard carve drops earliest because idle");
    println!("ports' shares are unreachable; the delay-driven cap and reserved-floor");
    println!("schemes trade a bounded occupancy tail for earlier per-port discards.");

    let cell = |pi: usize, rack: RackType, buffer: u64| {
        cells
            .iter()
            .find(|c| c.policy == pi && c.rack == rack && c.buffer == buffer)
            .expect("sweep cell missing")
    };
    let small = buffers[0];
    let mid = buffers[1];
    let dt_small = cell(0, RackType::Hadoop, small);
    let sp_small = cell(1, RackType::Hadoop, small);
    let dt_mid = cell(0, RackType::Hadoop, mid);
    let bs_mid = cell(2, RackType::Hadoop, mid);
    let fb_mid = cell(3, RackType::Hadoop, mid);

    println!("\nchecks:");
    println!(
        "  [{}] static partitioning drops earliest (Hadoop@{}: {} vs DT {})",
        verdict(sp_small.drops > dt_small.drops),
        fmt_bytes(small),
        sp_small.drops,
        dt_small.drops
    );
    println!(
        "  [{}] BShare bounds the occupancy tail below DT (Hadoop@{}: p99 {} vs {})",
        verdict(bs_mid.p99_occ < dt_mid.p99_occ),
        fmt_bytes(mid),
        fmt_bytes(bs_mid.p99_occ),
        fmt_bytes(dt_mid.p99_occ)
    );
    println!(
        "  [{}] flexible buffering bounds the occupancy tail below DT (Hadoop@{}: p99 {} vs {})",
        verdict(fb_mid.p99_occ < dt_mid.p99_occ),
        fmt_bytes(mid),
        fmt_bytes(fb_mid.p99_occ),
        fmt_bytes(dt_mid.p99_occ)
    );
    let dt_hadoop_hot = cell(0, RackType::Hadoop, mid).max_hot;
    let dt_web_hot = cell(0, RackType::Web, mid).max_hot;
    let dt_cache_hot = cell(0, RackType::Cache, mid).max_hot;
    println!(
        "  [{}] Hadoop still drives the most concurrent hot ports under the default carve ({} vs web {} / cache {})",
        verdict(dt_hadoop_hot >= dt_web_hot && dt_hadoop_hot >= dt_cache_hot),
        dt_hadoop_hot,
        dt_web_hot,
        dt_cache_hot
    );
}
