//! Extension experiment: fleet-scale collection with partial failure.
//!
//! The paper ran its framework on thousands of production ToRs, where the
//! interesting failure mode is partial: a few percent of switches flaky,
//! one uplink black-holed, an aggregator stalling. This harness runs the
//! whole pipeline at fleet width — N independent per-switch rack
//! simulations on the worker pool, shipped over per-switch lossy links
//! through regional aggregators into one merged store — and reproduces
//! the cross-rack readouts (ECMP uplink balance, inter-rack correlation)
//! at several injected failure rates. Every report carries the coverage
//! ledger saying which switches (and what fraction of their samples) the
//! figures include, and where every batch they produced ended up.
//!
//! The second half is the **aggregator crash matrix**: the busiest
//! regional aggregator's WAL storage is killed at byte offsets swept
//! across its reference write stream; its switches re-shard to the
//! survivors by rendezvous hashing, the WAL is replayed on recovery, and
//! every report must still tile its coverage ledger and converge to full
//! fault-free coverage. The third is a sweep of the ToR carving policy.
//!
//! Each distinct rack is simulated once: faults live in the poller and
//! crashes in the aggregation tier, so the rate fleets' campaigns on one
//! switch ride one simulation, the crash matrix reassembles the fault-free
//! fleet's runs, and only the carving policy changes the switch.
//!
//! Deterministic from the fleet seed: the same report prints byte for
//! byte under any `UBURST_THREADS` (CI checks it at 1 and 4 threads).
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_fleet`:
//! 32 switches per fleet at quick scale, 200 under `EXP_SCALE=full`.

use std::fmt::Write;
use std::iter::zip;

use uburst_core::failpoint::RegionCrashPlan;
use uburst_sim::bufpolicy::BufferPolicyCfg;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::figures::ext_buffer_policy::policies;
use crate::fleet::{render_report, FleetRun, FleetSpec};
use crate::pool::run_parallel_on;
use crate::report::{write_checks, Table};
use crate::scale::Scale;

const FLEET_SEED: u64 = 0x000F_1EE7_CAFE;

/// Injected flaky-switch rates swept by the experiment.
const RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Crash offsets for the aggregator crash matrix, as fractions of the
/// victim region's reference-run WAL byte count: early (mid data rounds),
/// late, and near the end of the write stream.
const CRASH_FRACTIONS: [f64; 3] = [0.25, 0.60, 0.90];

/// One fleet per flaky rate, every ToR carved by `policy`.
fn fleets(scale: Scale, policy: BufferPolicyCfg, rates: &[f64]) -> Vec<FleetSpec> {
    let n = scale.fleet_switches();
    rates
        .iter()
        .map(|&rate| FleetSpec::new(n, FLEET_SEED, rate, scale).with_policy(policy))
        .collect()
}

/// None: [`render`] runs one carving policy's campaigns at a time, so it
/// holds one policy's runs rather than all four.
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    Vec::new()
}

/// The distinct campaigns of `fleets`, in first-declared order: one per
/// switch and fault plan, so the fleets of one carving policy share a
/// simulation per switch.
fn distinct_campaigns(fleets: &[FleetSpec]) -> Vec<CampaignSpec> {
    let mut specs: Vec<CampaignSpec> = Vec::new();
    for campaign in fleets.iter().flat_map(FleetSpec::campaigns) {
        if !specs.contains(&campaign) {
            specs.push(campaign);
        }
    }
    specs
}

/// Simulates the distinct campaigns of `fleets` on the pool, and returns
/// what assembles any of those fleets, under any crash plan, from the runs.
fn measure(fleets: &[FleetSpec]) -> impl Fn(&FleetSpec, &RegionCrashPlan) -> FleetRun {
    let specs = distinct_campaigns(fleets);
    let runs = run_parallel_on(Scale::threads(), specs.clone());
    move |fleet, crashes| {
        let campaigns = fleet.campaigns();
        let run_of = |c| &runs[specs.iter().position(|s| s == c).expect("measured")];
        FleetRun::assemble(fleet, campaigns.iter().map(run_of), crashes)
    }
}

/// Runs every fleet and renders the rate sweep, the crash matrix and the
/// policy sweep.
pub fn render(scale: Scale, _: &[CampaignSpec], _: &[CampaignRun]) -> String {
    let n = scale.fleet_switches();
    let mut out = format!(
        "extension: fleet-scale collection with partial-failure tolerance ({} scale)\n\
         {n} switches per fleet, rack types rotating Web/Cache/Hadoop, seed {FLEET_SEED:#x}\n\
         flaky switches poll through a faulty ASIC bus and ship over a hostile link\n",
        scale.label()
    );

    let [dt, rest @ ..] = policies();
    let rate_fleets = fleets(scale, dt, &RATES);
    let fleet_run = measure(&rate_fleets);
    // Region WAL byte counts from the fault-free run: the coordinate
    // system for the crash matrix below.
    let mut reference_wal_bytes: Vec<u64> = Vec::new();
    let mut sweep = Vec::new();
    for fleet in &rate_fleets {
        let run = fleet_run(fleet, &RegionCrashPlan::none());
        write!(
            out,
            "\n=== fleet at {:.0}% flaky rate ===\n\n{}",
            fleet.flaky_rate * 100.0,
            render_report(&run)
        )
        .unwrap();
        if fleet.flaky_rate == 0.0 {
            reference_wal_bytes = run.outcome.regions.iter().map(|r| r.wal_bytes).collect();
            sweep.push(policy_row(&run));
        }
    }

    // Aggregator crash matrix: kill the busiest region's WAL at byte
    // offsets swept across its reference write stream, and show that the
    // fleet re-shards around the outage, replays the WAL on recovery, and
    // still converges to full fault-free coverage — byte-identically
    // across thread counts.
    let victim = reference_wal_bytes
        .iter()
        .enumerate()
        .max_by_key(|(_, &b)| b)
        .map(|(r, _)| r)
        .expect("fleet has regions");
    let victim_bytes = reference_wal_bytes[victim];
    writeln!(
        out,
        "\ncrash matrix: region {victim} aggregator ({victim_bytes} reference WAL bytes), \
         fault-free fleet"
    )
    .unwrap();
    for frac in CRASH_FRACTIONS {
        let offset = (victim_bytes as f64 * frac) as u64;
        let run = fleet_run(&rate_fleets[0], &RegionCrashPlan::kill(victim, offset));
        write!(
            out,
            "\n=== aggregator crash at {:.0}% of region {victim}'s WAL (byte {offset}) ===\n\n{}",
            frac * 100.0,
            render_report(&run)
        )
        .unwrap();
    }
    drop(fleet_run); // frees the default carve's runs before the next carve simulates

    // Buffer-policy sweep at fleet width: the same fault-free fleet under
    // each alternative ToR carving policy (the default carve's row is the
    // fault-free fleet above). Collection must be indifferent to carving —
    // coverage stays full — while congestion discards shift exactly the
    // way the single-rack `ext_buffer_policy` sweep says they should.
    out.push_str("\nbuffer-policy sweep: fault-free fleet, every ToR re-carved\n\n");
    for policy in rest {
        let fleet = fleets(scale, policy, &[0.0]);
        sweep.push(policy_row(&measure(&fleet)(
            &fleet[0],
            &RegionCrashPlan::none(),
        )));
    }
    let mut t = Table::new(&["policy", "tor_drops", "stored/produced", "sample_frac"]);
    for (row, ..) in &sweep {
        t.row(row);
    }
    out.push_str(&t.render());
    let drops = |i: usize| sweep[i].1;
    out.push_str("\npolicy-sweep checks:\n");
    let claims = format!(
        "collection tier is carving-agnostic (full coverage under every policy)\n\
         static partitioning drops most at fleet width too ({} vs DT {})",
        drops(1),
        drops(0),
    );
    let holds = [sweep.iter().all(|&(_, _, f)| f == 1.0), drops(1) > drops(0)];
    write_checks(&mut out, 2, zip(claims.lines(), holds));
    out
}

/// A fault-free fleet's policy-sweep row, its ToR drops and its sample
/// fraction.
fn policy_row(run: &FleetRun) -> ([String; 4], u64, f64) {
    let drops: u64 = run.switches.iter().map(|s| s.drops).sum();
    let coverage = &run.outcome.coverage;
    let produced: u64 = coverage.switches.iter().map(|s| s.produced).sum();
    let fraction = coverage.sample_fraction();
    let row = [
        run.spec.policy.label(),
        format!("{drops}"),
        format!("{}/{produced}", coverage.stored()),
        format!("{fraction:.4}"),
    ];
    (row, drops, fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::plan_groups;

    #[test]
    fn each_distinct_rack_is_one_simulation() {
        // The three rate fleets differ only in fault plans, so they fuse to
        // one simulation per switch; every other carve is a rack of its own.
        let scale = Scale::Quick;
        let n = scale.fleet_switches() as usize;
        let [dt, rest @ ..] = policies();
        let rate_campaigns = distinct_campaigns(&fleets(scale, dt, &RATES));
        assert!(
            rate_campaigns.len() > n,
            "the flaky fleets add faulted campaigns"
        );
        let mut groups = plan_groups(rate_campaigns).len();
        assert_eq!(groups, n);
        for policy in rest {
            let specs = distinct_campaigns(&fleets(scale, policy, &[0.0]));
            assert_eq!(plan_groups(specs).len(), n, "{policy:?}");
            groups += n;
        }
        assert_eq!(groups, 4 * n);
    }
}
