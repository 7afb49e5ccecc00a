//! The observability layer's core contract: telemetry snapshots are a
//! pure function of the work done, never of how it was scheduled.
//!
//! Three acceptance properties:
//! 1. Running the same campaign set on 1 worker thread and on 8 produces
//!    equal snapshots, field for field — every aggregate is
//!    commutative and clocked on simulated time, so interleaving cannot
//!    show through.
//! 2. Nor can fusion: the pool simulates campaigns that share a scenario
//!    once, yet the snapshot equals that of a loop running every campaign
//!    alone (jobs and `uburst_poller_campaigns_total` count campaigns, not
//!    groups).
//! 3. A WAL session that crashes, recovers, and resumes produces the same
//!    snapshot every time the same crash is replayed.
//!
//! An experiment that repeats an earlier one's declaration adds no
//! campaign.
//!
//! The registry is a process-global, so the tests serialize on one lock
//! and reset it around each measurement.

use std::sync::Mutex;

use uburst_asic::{CounterId, FaultPlan};
use uburst_bench::figures::{run_experiments, Experiment};
use uburst_bench::{run_jobs_on, run_parallel_on, CampaignSpec, Scale};
use uburst_core::wal::WalStorage;
use uburst_core::{
    Batch, DurableStore, FsyncPolicy, MemStorage, Series, Shipment, Shipper, ShipperConfig,
    SourceId, TornStorage, WalConfig,
};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` against a freshly reset, enabled registry and returns its
/// result; disables recording afterwards so unrelated tests stay no-op.
fn with_registry<R>(f: impl FnOnce() -> R) -> R {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uburst_obs::reset();
    uburst_obs::enable();
    let out = f();
    uburst_obs::disable();
    uburst_obs::reset();
    out
}

/// A small campaign set that exercises the instrumented paths: plain
/// polling, faulted reads (bus timeouts, latency spikes, stale values)
/// with narrow counters (wrap decoding), and the
/// buffer-peak register — with two racks measured more than once, so the
/// pool fuses (a byte campaign joins Hadoop 203) and must split (a second
/// peak reader on Web 201).
fn specs() -> Vec<CampaignSpec> {
    let plain = |rack, seed| {
        CampaignSpec::new(
            ScenarioConfig::new(rack, seed),
            vec![CounterId::TxBytes(PortId(1)), CounterId::BufferPeak],
            Nanos::from_micros(200),
            Nanos::from_millis(5),
        )
    };
    let faulted = CampaignSpec::new(
        ScenarioConfig::new(RackType::Hadoop, 301),
        vec![CounterId::TxBytes(PortId(0))],
        Nanos::from_micros(100),
        Nanos::from_millis(5),
    )
    .with_faults(
        FaultPlan::none(0x7E1E)
            .with_transient_failure(0.02)
            .with_latency_spike(0.02)
            .with_stale_read(0.01)
            .with_counter_bits(32),
    );
    vec![
        plain(RackType::Web, 201),
        plain(RackType::Cache, 202),
        plain(RackType::Hadoop, 203),
        faulted,
        CampaignSpec::new(
            ScenarioConfig::new(RackType::Hadoop, 203),
            vec![CounterId::TxBytes(PortId(2))],
            Nanos::from_micros(25),
            Nanos::from_millis(5),
        ),
        plain(RackType::Web, 201),
    ]
}

#[test]
fn snapshots_are_byte_identical_across_thread_counts() {
    let measure = |threads: usize| {
        with_registry(|| {
            let runs = run_parallel_on(threads, specs());
            assert_eq!(runs.len(), specs().len());
            (uburst_obs::snapshot(), runs)
        })
    };
    let (sequential, runs) = measure(1);
    let (parallel, _) = measure(8);
    assert_eq!(
        sequential, parallel,
        "telemetry snapshot differs between 1 and 8 worker threads"
    );
    let prom = sequential.to_prometheus();
    // Sanity: the snapshot actually observed the pipeline.
    for metric in [
        "uburst_poller_polls_total",
        "uburst_poll_cost_ns_bucket{mode=\"dedicated\"",
        "uburst_pool_jobs_total",
    ] {
        assert!(
            prom.contains(metric),
            "snapshot is missing {metric}:\n{prom}"
        );
    }
    // Each fault the injector counted is published once, by the poller.
    let (timeouts, spikes) = runs
        .iter()
        .filter_map(|r| r.fault_stats)
        .fold((0, 0), |(t, s), f| {
            (t + f.bus_timeouts, s + f.latency_spikes)
        });
    assert!(timeouts > 0 && spikes > 0, "the faulted spec injects both");
    let counter = |name: &str| sequential.counters[name];
    assert_eq!(counter("uburst_poller_read_errors_total"), timeouts);
    assert_eq!(counter("uburst_poller_latency_spikes_total"), spikes);
    // Every poll lands in exactly one of the per-mode latency histograms.
    let latency_polls: u64 = sequential
        .hists
        .iter()
        .filter(|(name, _)| name.starts_with("uburst_poll_latency_ns{mode="))
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(latency_polls, counter("uburst_poller_polls_total"));
}

#[test]
fn fused_snapshot_equals_the_unfused_loop() {
    let unfused = with_registry(|| {
        run_jobs_on(1, specs(), CampaignSpec::run);
        uburst_obs::snapshot().to_prometheus()
    });
    assert!(unfused.contains("uburst_pool_jobs_total 6"), "{unfused}");
    assert!(
        unfused.contains("uburst_poller_campaigns_total 6\n"),
        "{unfused}"
    );
    for threads in [1, 8] {
        let fused = with_registry(|| {
            run_parallel_on(threads, specs());
            uburst_obs::snapshot().to_prometheus()
        });
        assert!(
            fused.contains("uburst_poller_campaigns_total 6\n"),
            "{fused}"
        );
        assert_eq!(
            fused, unfused,
            "fused snapshot on {threads} thread(s) differs from the solo loop's"
        );
    }
}

/// An experiment that declares exactly an earlier one's campaigns renders
/// that one's runs, as Figs. 3, 4, 6 and Table 2 share the single-port
/// dataset: the repeat submits no job and polls no campaign. (Submitted
/// again, its buffer-peak readers would each need a simulation of their
/// own, since the planner never gives a read-and-clear register two
/// readers.)
#[test]
fn a_repeated_declaration_is_measured_once() {
    let experiment = |id| Experiment {
        id,
        title: "",
        campaigns: |_| specs(),
        render: |_, specs, runs| format!("{} campaigns: {runs:?}", specs.len()),
    };
    let (reports, prom) = with_registry(|| {
        let reports = run_experiments(Scale::Quick, &[experiment("a"), experiment("b")]);
        (reports, uburst_obs::snapshot().to_prometheus())
    });
    assert!(prom.contains("uburst_poller_campaigns_total 6\n"), "{prom}");
    assert!(prom.contains("uburst_pool_jobs_total 6\n"), "{prom}");
    assert!(reports[0].starts_with("6 campaigns: "));
    assert_eq!(reports[0], reports[1]);
}

// ---- WAL crash/recovery determinism ------------------------------------

fn make_batch(i: u64) -> Batch {
    let mut s = Series::new();
    for k in 0..4 {
        s.push(Nanos(1 + i * 100 + k), i * 10 + k);
    }
    Batch {
        source: SourceId(0),
        campaign: "telemetry-crash".into(),
        counter: CounterId::TxBytes(PortId(0)),
        samples: s,
    }
}

/// Ships 16 batches into a WAL that dies after `budget` bytes, recovers
/// from what the "disk" kept, resumes, and returns the final telemetry.
/// Fully deterministic: same budget, same snapshot.
fn crash_and_resume(budget: u64) -> String {
    let cfg = WalConfig {
        segment_max_bytes: 256,
        fsync: FsyncPolicy::Always,
    };
    let mut shipper = Shipper::new(
        SourceId(0),
        ShipperConfig {
            window: 4,
            rto_ticks: 2,
            ..ShipperConfig::default()
        },
    );
    for i in 0..16 {
        shipper.offer(make_batch(i)).expect("under outstanding cap");
    }

    // Direct shipper -> store loop (no lossy link: the crash is the only
    // fault under test). Returns whether the storage crashed.
    fn drive<S: WalStorage>(ds: &mut DurableStore<S>, shipper: &mut Shipper) -> bool {
        let mut tx: Vec<Shipment> = Vec::new();
        for _tick in 0..10_000 {
            shipper.tick_into(&mut tx);
            for sb in tx.drain(..) {
                match ds.ingest(&sb) {
                    Ok((_, ack)) => shipper.on_ack(ack),
                    Err(e) => {
                        assert!(e.is_injected_crash(), "unexpected real error: {e}");
                        return true;
                    }
                }
            }
            if shipper.done() {
                return false;
            }
        }
        panic!("shipping livelocked");
    }

    let disk = MemStorage::new();
    let crashed = {
        let torn = TornStorage::new(disk.clone(), budget);
        let mut ds = DurableStore::create(torn, cfg).expect("budget outlives the header");
        drive(&mut ds, &mut shipper)
    };
    assert!(crashed, "budget {budget} never crashed the session");

    // Recover from the surviving bytes and resume on intact storage.
    let (mut rec, _report) = DurableStore::recover(disk, cfg).expect("recovery");
    let resumed_crash = drive(&mut rec, &mut shipper);
    assert!(!resumed_crash, "intact storage cannot crash");
    assert!(shipper.done(), "resume left unacked batches");
    uburst_obs::snapshot().to_prometheus()
}

#[test]
fn wal_crash_recovery_telemetry_is_reproducible() {
    let budget = 700;
    let first = with_registry(|| crash_and_resume(budget));
    let second = with_registry(|| crash_and_resume(budget));
    assert_eq!(
        first, second,
        "replaying the same crash produced different telemetry"
    );
    for metric in [
        "uburst_wal_appends_total",
        "uburst_wal_fsyncs_total",
        "uburst_wal_recoveries_total",
        "uburst_wal_recovered_records_total",
    ] {
        assert!(
            first.contains(metric),
            "snapshot is missing {metric}:\n{first}"
        );
    }
}
