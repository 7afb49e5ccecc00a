//! The parallel engine's core contract: thread count changes wall-clock
//! time, never results.
//!
//! Two layers of evidence:
//! 1. `run_parallel` over real campaign specs produces runs whose series
//!    and stats are identical to a sequential (1-thread) execution.
//! 2. `run_jobs` returns results in submission order even when the job
//!    count heavily oversubscribes the worker count and jobs finish out
//!    of order.
//!
//! The full `repro all` stdout at 1 and 4 threads is pinned by
//! `REPORTS.sha256` (`ci/reports.sh`).

use uburst_asic::CounterId;
use uburst_bench::{run_jobs_on, run_parallel_on, CampaignSpec};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

/// A cheap but non-trivial spec: short span, one byte counter, distinct
/// seed per job so every run is different from its neighbours.
fn spec(rack_type: RackType, seed: u64) -> CampaignSpec {
    let cfg = ScenarioConfig::new(rack_type, seed);
    CampaignSpec::new(
        cfg,
        vec![CounterId::TxBytes(PortId(1)), CounterId::BufferPeak],
        Nanos::from_micros(200),
        Nanos::from_millis(5),
    )
}

/// Everything observable about a run, flattened for byte comparison.
fn fingerprint(run: &uburst_bench::campaign::CampaignRun) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        run.series, run.poller_stats, run.net.tor, run.net.port_drops
    )
}

#[test]
fn parallel_runs_match_sequential_bit_for_bit() {
    let mk = || {
        vec![
            spec(RackType::Web, 101),
            spec(RackType::Hadoop, 102),
            spec(RackType::Cache, 103),
            spec(RackType::Web, 104),
            spec(RackType::Hadoop, 105),
        ]
    };
    let sequential = run_parallel_on(1, mk());
    let parallel = run_parallel_on(4, mk());
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(fingerprint(s), fingerprint(p), "spec {i} diverged");
    }
}

#[test]
fn results_keep_submission_order_under_oversubscription() {
    // 3 workers, 64 jobs with deliberately skewed runtimes: late jobs
    // finish first, so any ordering bug shows up immediately.
    let inputs: Vec<u64> = (0..64).collect();
    let results = run_jobs_on(3, inputs.clone(), |i| {
        std::thread::sleep(std::time::Duration::from_micros((64 - i) * 50));
        i * i
    });
    let expected: Vec<u64> = inputs.iter().map(|i| i * i).collect();
    assert_eq!(results, expected);
}

#[test]
fn nested_run_jobs_does_not_deadlock() {
    // A job that itself fans out runs its inner jobs on a pool of its
    // own; the caller works too, so nesting never waits on a worker.
    let outer = run_jobs_on(2, vec![10u64, 20, 30], |base| {
        run_jobs_on(2, vec![1u64, 2, 3], move |off| base + off)
            .into_iter()
            .sum::<u64>()
    });
    assert_eq!(outer, vec![36, 66, 96]);
}
