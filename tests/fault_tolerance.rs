//! Acceptance tests for the fault-injection and fault-tolerance
//! layer: a 25 µs campaign under realistic hardware faults must complete
//! without stalls, reconstruct rates the wrap decoder cannot distinguish
//! from fault-free hardware, and account for every injected fault.

use uburst::prelude::*;

/// Runs a 25 µs byte campaign on one Hadoop ToR port, optionally under a
/// fault plan; returns the poller's stats, fault stats, and the series.
fn faulted_rack(seed: u64, plan: Option<FaultPlan>) -> (PollerStats, Option<FaultStats>, Series) {
    faulted_rack_mode(seed, plan, None)
}

/// [`faulted_rack`] with the execution mode forced (`Some(true)` hybrid
/// fast-forward, `Some(false)` per-packet, `None` environment default).
fn faulted_rack_mode(
    seed: u64,
    plan: Option<FaultPlan>,
    hybrid: Option<bool>,
) -> (PollerStats, Option<FaultStats>, Series) {
    let mut cfg = ScenarioConfig::new(RackType::Hadoop, seed);
    cfg.hybrid = hybrid;
    let mut s = build_scenario(cfg);
    let warmup = s.recommended_warmup();
    s.sim.run_until(warmup);
    let port = s.host_ports()[1];
    let campaign =
        CampaignConfig::single("bytes", CounterId::TxBytes(port), Nanos::from_micros(25));
    let mut poller = Poller::in_memory(s.counters.clone(), AccessModel::default(), campaign, seed)
        .expect("valid campaign");
    if let Some(plan) = plan {
        poller = poller.with_faults(FaultInjector::new(plan));
    }
    let stop = warmup + Nanos::from_millis(100);
    let id = poller
        .spawn(&mut s.sim, warmup, stop)
        .expect("valid window");
    s.sim.run_until(stop + Nanos::from_millis(1));
    let p = s.sim.node_mut::<Poller>(id);
    let stats = p.stats();
    let faults = p.fault_stats();
    let series = p.take_series().expect("in-memory")[0].1.clone();
    (stats, faults, series)
}

fn mean_rate(s: &Series) -> f64 {
    let dv = s.vs.last().unwrap() - s.vs[0];
    let dt = Nanos(s.ts.last().unwrap() - s.ts[0]).as_secs_f64();
    dv as f64 / dt
}

#[test]
fn faulted_campaign_matches_fault_free_within_one_percent() {
    // The ISSUE acceptance bar: 1% transient failures + 32-bit counter
    // wrap, 25us campaign — completes, and reconstructed rates land within
    // 1% of the fault-free run on the identical rack.
    let (clean_stats, _, clean) = faulted_rack(17, None);
    let plan = FaultPlan::none(0xFA17)
        .with_transient_failure(0.01)
        .with_counter_bits(32);
    let (stats, faults, series) = faulted_rack(17, Some(plan));
    let faults = faults.expect("injector attached");

    // The campaign ran to completion at full length: no stall, no panic.
    assert!(stats.polls > 3_500, "only {} polls", stats.polls);
    assert!(stats.stopped_at > stats.started_at);

    // Wrap decoding: the series is monotone despite dozens of 32-bit reads.
    assert!(series.vs.windows(2).all(|w| w[1] >= w[0]), "wrap glitch");

    // Accuracy: within 1% of fault-free.
    let err = (mean_rate(&series) - mean_rate(&clean)).abs() / mean_rate(&clean);
    assert!(err < 0.01, "rate error {:.3}% vs fault-free", err * 100.0);

    // Loss stays near the fault-free Table-1 level (retries absorb faults).
    let loss = |s: &PollerStats| {
        (s.missed_deadlines + s.abandoned_polls()) as f64 / (s.polls + s.missed_deadlines) as f64
    };
    assert!(
        loss(&stats) < loss(&clean_stats) + 0.05,
        "faults blew up sampling loss: {:.2}% vs {:.2}%",
        loss(&stats) * 100.0,
        loss(&clean_stats) * 100.0
    );

    // Accounting: every injected fault shows up in the poller's books.
    assert!(stats.read_errors > 0, "1% plan injected nothing in 100ms");
    assert_eq!(faults.bus_timeouts, stats.read_errors);
    assert_eq!(stats.read_errors, stats.retries + stats.abandoned_polls());
}

#[test]
fn faulted_campaign_is_deterministic_from_its_seeds() {
    let plan = FaultPlan::none(0xFA17)
        .with_transient_failure(0.02)
        .with_stale_read(0.01)
        .with_counter_bits(32);
    let (sa, fa, a) = faulted_rack(23, Some(plan));
    let (sb, fb, b) = faulted_rack(23, Some(plan));
    assert_eq!(sa, sb);
    assert_eq!(fa, fb);
    assert_eq!(a.ts, b.ts);
    assert_eq!(a.vs, b.vs);
}

#[test]
fn faulted_campaign_is_identical_across_execution_modes() {
    // Fault injection acts on the measurement plane (the poller's reads),
    // never on the data plane, so the hybrid fast-forward engine must
    // reproduce a faulted campaign bit-for-bit: the same reads get the
    // same injected latency spikes, stale raws, and 32-bit wraps, and the
    // decoded timeline comes out byte-identical to per-packet mode.
    // 24-bit registers wrap several times over 100 ms of bulk traffic, so
    // the wrap decoder is genuinely in the loop.
    let plan = FaultPlan::none(0xFA57)
        .with_transient_failure(0.01)
        .with_latency_spike(0.02)
        .with_stale_read(0.01)
        .with_counter_bits(24);
    let (ps, pf, pseries) = faulted_rack_mode(47, Some(plan), Some(false));
    let (hs, hf, hseries) = faulted_rack_mode(47, Some(plan), Some(true));
    assert_eq!(ps, hs, "poller stats diverge across modes");
    assert_eq!(pf, hf, "fault accounting diverges across modes");
    assert_eq!(pseries.ts, hseries.ts, "poll timestamps diverge");
    assert_eq!(pseries.vs, hseries.vs, "decoded timeline diverges");
    // The comparison is only meaningful if faults actually fired.
    let f = pf.expect("injector attached");
    assert!(f.bus_timeouts > 0, "no transient failures injected");
    assert!(f.stale_values > 0, "no stale reads injected");
    assert!(
        *pseries.vs.last().unwrap() - pseries.vs[0] > 1 << 24,
        "campaign never crossed a 24-bit wrap"
    );
}

#[test]
fn hardened_pipeline_ships_faulted_samples_through_the_collector() {
    // End to end on the fleet path: faulted poller -> Batcher -> hostile
    // link -> regional WAL -> global store. Nothing may be quarantined or
    // lost, and the shipped series must equal what the poller recorded.
    let plan = FaultPlan::none(5)
        .with_transient_failure(0.01)
        .with_counter_bits(32);
    let (stats, _, polled) = faulted_rack(29, Some(plan));
    // The key the series ships under; the store needs no more of it.
    let (source, counter) = (SourceId(7), CounterId::TxBytes(PortId(0)));
    let policy = BatchPolicy {
        max_samples: 128,
        max_age: Nanos::from_millis(2),
    };
    let mut batcher = Batcher::new(source, "bytes", vec![counter], policy);
    let mut cuts: Vec<Vec<Batch>> = polled
        .ts
        .iter()
        .zip(&polled.vs)
        .map(|(&t, &v)| batcher.record(Nanos(t), &[v]))
        .collect();
    cuts.push(batcher.flush());
    let rounds = cuts
        .into_iter()
        .filter(|batches| !batches.is_empty())
        .map(|batches| RoundInput {
            batches,
            degraded: false,
        })
        .collect();
    let stream = SwitchStream {
        source,
        link: LinkPlan::HOSTILE,
        link_seed: 29,
        rounds,
    };
    let out = run_fleet(vec![stream], &FleetConfig::default());

    assert_eq!(
        out.store.stats().quarantined_batches,
        0,
        "well-formed batches were quarantined"
    );
    let got = out.store.series(source, counter).expect("series shipped");
    assert_eq!(
        got.len() as u64,
        stats.polls,
        "samples lost in the pipeline"
    );
    assert!(got.vs.windows(2).all(|w| w[1] >= w[0]), "wrap glitch");
    assert_eq!((got.ts, got.vs), (polled.ts, polled.vs), "series changed");
}
