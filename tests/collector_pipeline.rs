//! The product collection path end to end: each rack's poller records in
//! memory, a `Batcher` cuts its samples into fleet rounds, and `run_fleet`
//! ships them to the global store. The store is checked against what the
//! pollers recorded (the oracle), not against a second path.

use uburst::prelude::*;
use uburst::telemetry::counter_label;

/// One measured rack: what its poller recorded, and how many polls.
struct Polled {
    source: SourceId,
    series: Vec<(CounterId, Series)>,
    polls: u64,
}

/// Polls `counters(scenario)` on a fresh rack every `interval` for `span`
/// after warmup.
fn poll_rack(
    source: SourceId,
    cfg: ScenarioConfig,
    counters: impl Fn(&Scenario) -> Vec<CounterId>,
    interval: Nanos,
    span: Nanos,
) -> Polled {
    let seed = cfg.seed;
    let mut s = build_scenario(cfg);
    let warmup = s.recommended_warmup();
    s.sim.run_until(warmup);
    let campaign = CampaignConfig::group("pipeline", counters(&s), interval);
    let poller = Poller::in_memory(s.counters.clone(), AccessModel::default(), campaign, seed)
        .expect("valid campaign");
    let stop = warmup + span;
    let id = poller
        .spawn(&mut s.sim, warmup, stop)
        .expect("valid window");
    s.sim.run_until(stop + Nanos::from_millis(1));
    let p = s.sim.node_mut::<Poller>(id);
    assert!(p.is_finished());
    let polls = p.stats().polls;
    let series = p.take_series().expect("in-memory campaign");
    Polled {
        source,
        series,
        polls,
    }
}

/// The switch CPU's shipping schedule: a `Batcher` cuts the campaign,
/// and each cut is one fleet round.
fn stream(polled: &Polled, policy: BatchPolicy, link: LinkPlan) -> SwitchStream {
    let counters = polled.series.iter().map(|(c, _)| *c).collect();
    let cuts = Batcher::new(polled.source, "pipeline", counters, policy).cut_series(&polled.series);
    SwitchStream {
        source: polled.source,
        link,
        link_seed: 0xC011_EC70 ^ u64::from(polled.source.0),
        rounds: cuts
            .into_iter()
            .map(|batches| RoundInput {
                batches,
                degraded: false,
            })
            .collect(),
    }
}

/// One rack of each type, polling a host port's TX and RX bytes at 50 µs.
fn three_racks() -> Vec<Polled> {
    RackType::ALL
        .iter()
        .enumerate()
        .map(|(i, &rack)| {
            poll_rack(
                SourceId(i as u32),
                ScenarioConfig::new(rack, 50 + i as u64),
                |s| {
                    let port = s.host_ports()[0];
                    vec![CounterId::TxBytes(port), CounterId::RxBytes(port)]
                },
                Nanos::from_micros(50),
                Nanos::from_millis(40),
            )
        })
        .collect()
}

const POLICY: BatchPolicy = BatchPolicy {
    max_samples: 100,
    max_age: Nanos::from_millis(2),
};

fn fleet(racks: &[Polled], link: LinkPlan) -> FleetOutcome {
    let streams = racks.iter().map(|p| stream(p, POLICY, link)).collect();
    run_fleet(streams, &FleetConfig::default())
}

fn tiles(c: &SwitchCoverage) -> bool {
    c.produced == c.stored + c.excluded + c.refused + c.undelivered()
}

#[test]
fn every_sample_reaches_the_store() {
    let racks = three_racks();
    let out = fleet(&racks, LinkPlan::IDEAL);
    assert_eq!(out.store.stats().quarantined_batches, 0);
    for rack in &racks {
        assert!(rack.polls > 0);
        for (counter, polled) in &rack.series {
            let stored = out
                .store
                .series(rack.source, *counter)
                .unwrap_or_else(|| panic!("missing series {:?}/{counter:?}", rack.source));
            assert_eq!(stored.len() as u64, rack.polls, "{counter:?}");
            assert_eq!(stored.ts, polled.ts, "{:?}/{counter:?}", rack.source);
            assert_eq!(stored.vs, polled.vs, "{:?}/{counter:?}", rack.source);
        }
    }
    assert_eq!(out.coverage.switches.len(), racks.len());
    for c in &out.coverage.switches {
        assert!(c.produced > 0);
        assert_eq!(c.stored, c.produced, "switch {}", c.source.0);
        assert!(tiles(c), "switch {}", c.source.0);
    }
}

#[test]
fn hostile_link_keeps_the_acked_floor() {
    let racks = three_racks();
    let out = fleet(&racks, LinkPlan::HOSTILE);
    for c in &out.coverage.switches {
        assert!(c.stored > 0, "switch {} delivered nothing", c.source.0);
        assert!(
            c.stored >= c.acked,
            "switch {} lost an acked batch",
            c.source.0
        );
        assert!(tiles(c), "switch {}", c.source.0);
    }
    // Whatever arrived is what was polled: each stored sample is the
    // polled sample at its timestamp.
    for rack in &racks {
        for (counter, polled) in &rack.series {
            let Some(stored) = out.store.series(rack.source, *counter) else {
                continue;
            };
            for (&t, &v) in stored.ts.iter().zip(&stored.vs) {
                let k = polled.ts.binary_search(&t).expect("a polled timestamp");
                assert_eq!(polled.vs[k], v, "{:?}/{counter:?} at {t}", rack.source);
            }
        }
    }
}

#[test]
fn csv_export_round_trips_sample_counts() {
    let polled = poll_rack(
        SourceId(7),
        ScenarioConfig::new(RackType::Web, 123),
        |s| vec![CounterId::TxBytes(s.host_ports()[2])],
        Nanos::from_micros(100),
        Nanos::from_millis(20),
    );
    let out = run_fleet(
        vec![stream(&polled, BatchPolicy::default(), LinkPlan::IDEAL)],
        &FleetConfig::default(),
    );
    let mut csv = Vec::new();
    out.store.export_csv(&mut csv).expect("export");
    let text = String::from_utf8(csv).expect("utf8");
    let rows = text.lines().count() - 1; // minus header
    assert_eq!(rows as u64, polled.polls);
    assert!(text.starts_with("source,counter,timestamp_ns,value"));
    let label = counter_label(polled.series[0].0);
    assert!(text.contains(&format!("7,{label},")), "{label}");
}
