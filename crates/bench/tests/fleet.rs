//! Fleet-tier contracts: thread-count invariance of the full fleet
//! report (with and without aggregator crashes), and partial-failure
//! accounting (quarantined switches are excluded *and* accounted, never
//! silently dropped).

use uburst_asic::CounterId;
use uburst_bench::fleet::{render_report, FleetRun, FleetSpec};
use uburst_bench::report::misses;
use uburst_bench::{run_parallel_on, Scale};
use uburst_core::batch::{Batch, SourceId};
use uburst_core::failpoint::RegionCrashPlan;
use uburst_core::fleet::HealthState;
use uburst_core::series::Series;
use uburst_sim::time::Nanos;

/// A cheap fleet: few switches, short campaigns, coarse interval.
fn tiny(n: u32, flaky_rate: f64) -> FleetSpec {
    let mut spec = FleetSpec::new(n, 0x77_001, flaky_rate, Scale::Quick);
    spec.interval = Nanos::from_micros(100);
    spec.span = Nanos::from_millis(5);
    spec.rounds = 6;
    spec
}

/// The fleet's campaigns on `threads` threads, assembled under `crashes`.
fn run_fleet_spec_on(threads: usize, spec: &FleetSpec, crashes: &RegionCrashPlan) -> FleetRun {
    FleetRun::assemble(spec, &run_parallel_on(threads, spec.campaigns()), crashes)
}

#[test]
fn fleet_report_is_thread_count_invariant_under_faults() {
    // The hard case: a faulted fleet (flaky switches, hostile links,
    // quarantines firing) must still render byte-identically whatever
    // the worker count.
    let spec = tiny(6, 0.5);
    let sequential = render_report(&run_fleet_spec_on(1, &spec, &RegionCrashPlan::none()));
    let parallel = render_report(&run_fleet_spec_on(4, &spec, &RegionCrashPlan::none()));
    assert_eq!(
        sequential, parallel,
        "fleet report diverged across thread counts"
    );
    assert!(
        sequential.contains("coverage:"),
        "report carries a coverage ledger"
    );
}

#[test]
fn crashed_fleet_report_is_thread_count_invariant() {
    // Aggregator crash + re-shard + WAL replay happen entirely in the
    // single-threaded aggregation pump, so a mid-run region crash must
    // not cost byte-identity across worker counts either.
    let spec = tiny(6, 0.0);
    let reference = run_fleet_spec_on(1, &spec, &RegionCrashPlan::none());
    let victim = reference
        .outcome
        .regions
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.wal_bytes)
        .map(|(i, _)| i)
        .unwrap();
    let crash = RegionCrashPlan::kill(victim, reference.outcome.regions[victim].wal_bytes / 2);
    let sequential = render_report(&run_fleet_spec_on(1, &spec, &crash));
    let parallel = render_report(&run_fleet_spec_on(4, &spec, &crash));
    assert_eq!(
        sequential, parallel,
        "crashed fleet report diverged across thread counts"
    );
    assert!(sequential.contains("injected crash: region"));
    assert!(sequential.contains("[ok] every crashed aggregator recovered (1/1)"));
    assert!(sequential.contains("[ok] no acked batch is lost"));
}

#[test]
fn fault_free_fleet_has_full_coverage() {
    let spec = tiny(5, 0.0);
    let run = run_fleet_spec_on(2, &spec, &RegionCrashPlan::none());
    let cov = &run.outcome.coverage;
    assert_eq!(cov.switches.len(), 5);
    assert_eq!(cov.included(), 5);
    assert_eq!(cov.sample_fraction(), 1.0);
    assert!(cov
        .switches
        .iter()
        .all(|s| s.state == HealthState::Healthy && s.undelivered() == 0));
    // Samples actually landed in the merged store.
    assert!(run.outcome.store.total_samples() > 0);
    let report = render_report(&run);
    assert!(report.contains("5/5 switches included"));
    // The correlation checks are statistical and need the full-size
    // campaign's sample counts; this tiny fleet asserts the structural
    // ones (coverage and accounting) pass.
    assert!(report.contains("[ok] fault-free fleet has full coverage"));
    assert!(report.contains("[ok] every produced batch lands in exactly one coverage column"));
}

#[test]
fn fleet_report_says_when_payloads_were_quarantined() {
    // `stored` counts ledger receipts, so a delivered batch the global
    // store refused to merge reads as stored; the report must say how
    // many there were — and say nothing when there were none.
    let run = run_fleet_spec_on(1, &tiny(3, 0.0), &RegionCrashPlan::none());
    assert!(!render_report(&run).contains("payload-quarantined"));
    let backwards = Batch {
        source: SourceId(0),
        campaign: "fleet".into(),
        counter: CounterId::BufferPeak,
        samples: Series {
            ts: vec![2, 1],
            vs: vec![0, 0],
        },
    };
    assert!(run.outcome.store.ingest(&backwards).is_err());
    let report = render_report(&run);
    assert!(report.contains("\n  payload-quarantined: 1\n"), "{report}");
}

#[test]
fn a_failed_fleet_check_is_a_recorded_miss() {
    // `repro ext_fleet` exits non-zero iff its report holds a `[MISS]`
    // line, so a failed fleet check has to be written as one. Break the
    // no-acked-loss floor by hand.
    let mut run = run_fleet_spec_on(1, &tiny(3, 0.0), &RegionCrashPlan::none());
    let clean = render_report(&run);
    let s = &mut run.outcome.coverage.switches[0];
    s.acked = s.stored + 1;
    let report = render_report(&run);
    assert!(
        report.contains("\n  [MISS] no acked batch is lost"),
        "{report}"
    );
    // Three switches are too few for the correlation claims, so the
    // report says they are untestable rather than missing them: the clean
    // report misses nothing and the break adds exactly one.
    assert!(
        clean.contains("\ncorrelation claims untestable: 3 of 12 racks\n"),
        "{clean}"
    );
    assert_eq!(misses(&clean), 0, "{clean}");
    assert_eq!(misses(&report), 1, "{report}");
}

#[test]
fn all_flaky_fleet_is_quarantined_excluded_and_accounted() {
    // flaky_rate 1.0 deals every switch the flaky profile: degradation
    // signals on every round drive each lane Healthy → Degraded →
    // Quarantined, and every produced batch must still be accounted.
    let spec = tiny(4, 1.0);
    let run = run_fleet_spec_on(2, &spec, &RegionCrashPlan::none());
    let cov = &run.outcome.coverage;
    assert!(run.switches.iter().all(|m| m.flaky));
    assert_eq!(cov.included(), 0);
    for s in &cov.switches {
        assert_eq!(s.state, HealthState::Quarantined);
        assert!(
            s.excluded > 0,
            "quarantined rounds are accounted as excluded"
        );
        assert_eq!(
            s.produced,
            s.stored + s.excluded + s.refused + s.undelivered(),
            "coverage columns tile produced exactly"
        );
    }
    assert!(cov.sample_fraction() < 1.0);
    let text = cov.to_string();
    assert!(text.contains("0/4 switches included"));
    assert!(text.contains("quarantined"));
}
