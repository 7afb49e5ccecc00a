//! Extension experiment: fleet-scale collection with partial failure.
//!
//! The paper ran its framework on thousands of production ToRs, where the
//! interesting failure mode is partial: a few percent of switches flaky,
//! one uplink black-holed, an aggregator stalling. This harness runs the
//! whole pipeline at fleet width — N independent per-switch rack
//! simulations fanned out on the worker pool, shipped over per-switch
//! lossy links through regional aggregators into one merged store — and
//! reproduces the cross-rack readouts (ECMP uplink balance, inter-rack
//! correlation) at several injected failure rates. Every report carries
//! the coverage ledger saying which switches (and what fraction of their
//! samples) the figures include, plus the fleet's `uburst-obs` rollup.
//!
//! The second half is the **aggregator crash matrix**: the busiest
//! regional aggregator's WAL storage is killed at byte offsets swept
//! across its reference write stream; its switches re-shard to the
//! survivors by rendezvous hashing, the WAL is replayed on recovery, and
//! every report must still tile its coverage ledger and converge to full
//! fault-free coverage.
//!
//! Deterministic from the fleet seed: the same report prints byte for
//! byte under any `UBURST_THREADS` (CI diffs it).
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_fleet`:
//! 32 switches per fleet at quick scale, 200 under `EXP_SCALE=full`.

use uburst_bench::fleet::{render_report, run_fleet_spec, FleetSpec};
use uburst_bench::report::{verdict, Table};
use uburst_bench::Scale;
use uburst_core::failpoint::RegionCrashPlan;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::time::Nanos;

const FLEET_SEED: u64 = 0x000F_1EE7_CAFE;

/// Injected flaky-switch rates swept by the experiment.
const RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Crash offsets for the aggregator crash matrix, as fractions of the
/// victim region's reference-run WAL byte count: early (mid data rounds),
/// late, and near the end of the write stream.
const CRASH_FRACTIONS: [f64; 3] = [0.25, 0.60, 0.90];

pub fn run() {
    let scale = Scale::from_env();
    let n = scale.fleet_switches();
    uburst_obs::enable();
    println!(
        "extension: fleet-scale collection with partial-failure tolerance ({} scale)",
        scale.label()
    );
    println!("{n} switches per fleet, rack types rotating Web/Cache/Hadoop, seed {FLEET_SEED:#x}");
    println!("flaky switches poll through a faulty ASIC bus and ship over a hostile link");

    // Region WAL byte counts from the fault-free run: the coordinate
    // system for the crash matrix below.
    let mut reference_wal_bytes: Vec<u64> = Vec::new();
    for rate in RATES {
        // Fresh telemetry per fleet so the rollup below is this fleet's.
        uburst_obs::reset();
        let spec = FleetSpec::new(n, FLEET_SEED, rate, scale);
        let run = run_fleet_spec(&spec, &RegionCrashPlan::none());
        if rate == 0.0 {
            reference_wal_bytes = run.outcome.regions.iter().map(|r| r.wal_bytes).collect();
        }
        println!("\n=== fleet at {:.0}% flaky rate ===\n", rate * 100.0);
        print!("{}", render_report(&run));
        print_rollup();
    }

    // Aggregator crash matrix: kill the busiest region's WAL at byte
    // offsets swept across its reference write stream, and show that the
    // fleet re-shards around the outage, replays the WAL on recovery, and
    // still converges to full fault-free coverage — byte-identically
    // across thread counts (CI diffs this output at 1 vs. 8 threads).
    let victim = reference_wal_bytes
        .iter()
        .enumerate()
        .max_by_key(|(_, &b)| b)
        .map(|(r, _)| r)
        .expect("fleet has regions");
    let victim_bytes = reference_wal_bytes[victim];
    println!(
        "\ncrash matrix: region {victim} aggregator ({victim_bytes} reference WAL bytes), \
         fault-free fleet"
    );
    for frac in CRASH_FRACTIONS {
        uburst_obs::reset();
        let offset = (victim_bytes as f64 * frac) as u64;
        let spec = FleetSpec::new(n, FLEET_SEED, 0.0, scale);
        let run = run_fleet_spec(&spec, &RegionCrashPlan::kill(victim, offset));
        println!(
            "\n=== aggregator crash at {:.0}% of region {victim}'s WAL (byte {offset}) ===\n",
            frac * 100.0
        );
        print!("{}", render_report(&run));
        print_rollup();
    }

    // Buffer-policy sweep at fleet width (ROADMAP item-1 leftover): the
    // same fault-free fleet under each alternative ToR carving policy.
    // Collection must be indifferent to carving — coverage stays full —
    // while congestion discards shift exactly the way the single-rack
    // `ext_buffer_policy` sweep says they should.
    println!("\nbuffer-policy sweep: fault-free fleet, every ToR re-carved\n");
    let policies = [
        BufferPolicyCfg::dt(0.5),
        BufferPolicyCfg::StaticPartition,
        BufferPolicyCfg::BShare {
            target_delay: Nanos::from_micros(50),
            drain_bps: 10_000_000_000,
        },
        BufferPolicyCfg::FlexibleBuffering {
            reserved_bytes: 24 << 10,
        },
    ];
    let mut t = Table::new(&["policy", "tor_drops", "stored/produced", "sample_frac"]);
    let mut drops_by_policy = Vec::new();
    for policy in policies {
        let spec = FleetSpec::new(n, FLEET_SEED, 0.0, scale).with_policy(policy);
        let run = run_fleet_spec(&spec, &RegionCrashPlan::none());
        let drops: u64 = run.switches.iter().map(|s| s.drops).sum();
        let produced: u64 = run
            .outcome
            .coverage
            .switches
            .iter()
            .map(|s| s.produced)
            .sum();
        let stored: u64 = run.outcome.coverage.switches.iter().map(|s| s.stored).sum();
        t.row(&[
            policy.label(),
            format!("{drops}"),
            format!("{stored}/{produced}"),
            format!("{:.4}", run.outcome.coverage.sample_fraction()),
        ]);
        drops_by_policy.push((policy, drops, run.outcome.coverage.sample_fraction()));
    }
    t.print();
    println!("\npolicy-sweep checks:");
    println!(
        "  [{}] collection tier is carving-agnostic (full coverage under every policy)",
        verdict(drops_by_policy.iter().all(|&(_, _, f)| f == 1.0))
    );
    let dt_drops = drops_by_policy[0].1;
    let sp_drops = drops_by_policy[1].1;
    println!(
        "  [{}] static partitioning drops most at fleet width too ({sp_drops} vs DT {dt_drops})",
        verdict(sp_drops > dt_drops)
    );
}

fn print_rollup() {
    let rollup = uburst_obs::snapshot().prefix_rollup("uburst_fleet_");
    if rollup.is_empty() {
        println!("\nobs rollup (uburst_fleet_*): <empty>");
    } else {
        println!("\nobs rollup (uburst_fleet_*):\n{rollup}");
    }
}
