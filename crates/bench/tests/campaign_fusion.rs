//! Simulate once, measure many: campaigns that share a scenario ride one
//! simulation, and nobody can tell.
//!
//! The oracle throughout is the unfused loop — every spec executed as a
//! group of one (`CampaignSpec::run`) — compared field for field (series,
//! `PollerStats`, `FaultStats`, `NetSnapshot`) with the
//! same specs handed to the pool together.

use uburst_asic::{CounterId, FaultPlan};
use uburst_bench::campaign::{
    buffer_and_ports_spec, plan_groups, run_group, single_port_spec, CampaignRun, CampaignSpec,
};
use uburst_bench::run_parallel_on;
use uburst_core::poller::RetryPolicy;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::node::PortId;
use uburst_sim::routing::EcmpMode;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

const SPAN: Nanos = Nanos::from_millis(6);

fn bytes_spec(cfg: &ScenarioConfig, port: u16, interval_us: u64) -> CampaignSpec {
    CampaignSpec::new(
        cfg.clone(),
        vec![CounterId::TxBytes(PortId(port))],
        Nanos::from_micros(interval_us),
        SPAN,
    )
}

/// Every spec alone, in order: the reference the fused runs must equal.
fn solo(specs: &[CampaignSpec]) -> Vec<CampaignRun> {
    specs.iter().cloned().map(CampaignSpec::run).collect()
}

/// How `specs` are planned, as submission indices per group.
fn plan(specs: &[CampaignSpec]) -> Vec<Vec<usize>> {
    plan_groups(specs.to_vec())
        .into_iter()
        .map(|(slots, _)| slots)
        .collect()
}

/// The figures' two campaign shapes on one rack: fused, for every rack
/// type and both engines, each run equals its solo run.
#[test]
fn fused_pair_equals_solo_runs_on_every_rack_type_and_engine() {
    for rack_type in RackType::ALL {
        for hybrid in [true, false] {
            let mut cfg = ScenarioConfig::new(rack_type, 0xF00D);
            cfg.hybrid = Some(hybrid);
            let specs = vec![
                single_port_spec(cfg.clone(), None, Nanos::from_micros(25), SPAN).0,
                buffer_and_ports_spec(cfg, Nanos::from_micros(300), SPAN).0,
            ];
            assert_eq!(plan(&specs), vec![vec![0, 1]], "one rack, one group");
            let fused = run_parallel_on(1, specs.clone());
            assert_eq!(
                fused,
                solo(&specs),
                "{} hybrid={hybrid}: fused runs differ from solo runs",
                rack_type.name()
            );
            assert!(fused[0].poller_stats.polls > 200);
            assert!(fused[1].series_for(CounterId::BufferPeak).len() > 15);
        }
    }
}

/// Faults and retries are per-poller measurement-plane state: a degraded
/// campaign (failing reads, overrun deadlines) and a plain one share a
/// simulation unchanged.
#[test]
fn faulted_and_degraded_campaign_fuses_with_a_plain_one() {
    let cfg = ScenarioConfig::new(RackType::Hadoop, 0xFA17);
    let counters: Vec<CounterId> = (0..8)
        .map(|p| CounterId::TxSizeHist(PortId(p), 0))
        .collect();
    // Eight memory-class reads do not fit a 12 us interval: it overruns.
    let hardened = CampaignSpec::new(cfg.clone(), counters, Nanos::from_micros(12), SPAN)
        .with_faults(
            FaultPlan::none(0x7E1E)
                .with_transient_failure(0.03)
                .with_stale_read(0.01)
                .with_latency_spike(0.01)
                .with_counter_bits(32),
        )
        .with_retry(RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        });
    let specs = vec![bytes_spec(&cfg, 3, 25), hardened];
    assert_eq!(plan(&specs), vec![vec![0, 1]]);
    let fused = run_parallel_on(1, specs.clone());
    assert_eq!(fused, solo(&specs));
    // The robustness layer really was exercised, on the hardened run only.
    assert_eq!(fused[0].fault_stats, None);
    assert!(fused[1].fault_stats.expect("faulted").bus_timeouts > 0);
    assert!(fused[1].poller_stats.missed_deadlines > 0);
}

#[test]
fn three_intervals_on_one_rack_ride_one_simulation() {
    let cfg = ScenarioConfig::new(RackType::Cache, 31);
    let specs = vec![
        bytes_spec(&cfg, 25, 25),
        bytes_spec(&cfg, 25, 100),
        bytes_spec(&cfg, 2, 300),
    ];
    assert_eq!(plan(&specs), vec![vec![0, 1, 2]]);
    assert_eq!(run_parallel_on(1, specs.clone()), solo(&specs));
}

/// A read-and-clear register takes one reader per simulation: the second
/// `BufferPeak` campaign opens a second group, the byte campaign still
/// joins the first, and every run matches its solo run.
#[test]
fn two_buffer_peak_readers_split_into_two_groups() {
    let cfg = ScenarioConfig::new(RackType::Hadoop, 77);
    let peak = |interval_us| {
        CampaignSpec::new(
            cfg.clone(),
            vec![CounterId::TxBytes(PortId(1)), CounterId::BufferPeak],
            Nanos::from_micros(interval_us),
            SPAN,
        )
    };
    let specs = vec![peak(200), peak(300), bytes_spec(&cfg, 1, 25)];
    assert_eq!(plan(&specs), vec![vec![0, 2], vec![1]]);
    for threads in [1, 2] {
        let fused = run_parallel_on(threads, specs.clone());
        assert_eq!(fused, solo(&specs), "{threads} thread(s)");
        assert!(fused[1]
            .series_for(CounterId::BufferPeak)
            .vs
            .iter()
            .any(|&v| v > 0));
    }
}

#[test]
#[should_panic(expected = "registers unclaimed")]
fn a_group_with_two_buffer_peak_readers_is_refused_by_the_register() {
    let cfg = ScenarioConfig::new(RackType::Web, 5);
    let peak = || CampaignSpec::new(cfg.clone(), vec![CounterId::BufferPeak], SPAN / 20, SPAN);
    run_group(vec![peak(), peak()]);
}

/// Fusion needs the *same* simulation: a different span, or a difference
/// in any field of the scenario, keeps campaigns apart.
#[test]
fn differing_span_or_scenario_field_never_fuses() {
    let base = ScenarioConfig::new(RackType::Web, 9);
    let reference = bytes_spec(&base, 0, 25);
    let mut other_span = reference.clone();
    other_span.span = SPAN + Nanos(1);
    assert_eq!(plan(&[reference.clone(), other_span]), [vec![0], vec![1]]);

    type Tweak = (&'static str, fn(&mut ScenarioConfig));
    let tweaks: [Tweak; 36] = [
        ("rack_type", |c| c.rack_type = RackType::Cache),
        ("n_servers", |c| c.n_servers += 1),
        ("n_remotes", |c| c.n_remotes += 1),
        ("seed", |c| c.seed += 1),
        ("load", |c| c.load = 1.1),
        ("hour", |c| c.hour = 8.0),
        ("web.req_rate", |c| c.web.req_rate_per_server += 1.0),
        ("web.fanout", |c| c.web.fanout.1 += 1),
        ("web.think_median", |c| c.web.think_median += Nanos(1)),
        ("web.page", |c| c.web.page.sigma += 0.1),
        ("web.train", |c| c.web.train.1 += 1),
        ("web.train_gap", |c| c.web.train_gap += Nanos(1)),
        ("web.responder", |c| c.web.responder.hit_prob = 0.5),
        ("cache.member_prob", |c| c.cache.member_prob = 0.5),
        ("cache.req", |c| c.cache.req.median += 1),
        ("cache.resp", |c| c.cache.resp.cap += 1),
        ("cache.write", |c| c.cache.write.sigma += 0.1),
        ("cache.train", |c| c.cache.train.0 += 1),
        ("cache.train_gap", |c| c.cache.train_gap += Nanos(1)),
        ("cache.responder", |c| {
            c.cache.responder.miss_median += Nanos(1)
        }),
        ("hadoop.wave_period", |c| c.hadoop.wave_period += Nanos(1)),
        ("hadoop.transfer", |c| c.hadoop.transfer.median += 1),
        ("hadoop.background_remote_prob", |c| {
            c.hadoop.background_remote_prob = 0.5
        }),
        ("hadoop.remote_wave_prob", |c| {
            c.hadoop.remote_wave_prob = 0.5
        }),
        ("clos.n_fabric", |c| c.clos.n_fabric = 2),
        ("clos.server_link", |c| {
            c.clos.server_link.bandwidth_bps += 1
        }),
        ("clos.uplink", |c| c.clos.uplink.propagation += Nanos(1)),
        ("clos.tor_switch.buffer", |c| {
            c.clos.tor_switch.buffer_bytes += 1
        }),
        ("clos.tor_switch.policy", |c| {
            c.clos.tor_switch.policy = BufferPolicyCfg::dt(0.25)
        }),
        ("clos.core_switch.ecn", |c| {
            c.clos.core_switch.ecn_threshold = Some(1)
        }),
        ("clos.ecmp_seed", |c| c.clos.ecmp_seed += 1),
        ("clos.ecmp_mode", |c| {
            c.clos.ecmp_mode = EcmpMode::PacketSpray
        }),
        ("transport.max_cwnd", |c| c.transport.max_cwnd += 1),
        ("nic_pace_bps", |c| c.nic_pace_bps = Some(1_000_000_000)),
        ("instrument_fabric", |c| c.instrument_fabric = true),
        ("hybrid", |c| c.hybrid = Some(true)),
    ];
    for (field, tweak) in tweaks {
        let mut cfg = base.clone();
        tweak(&mut cfg);
        let specs = [reference.clone(), bytes_spec(&cfg, 0, 25)];
        assert_eq!(plan(&specs), [vec![0], vec![1]], "{field} differs");
    }

    // NaN equals nothing, itself included: such a spec always runs alone.
    let mut nan = base.clone();
    nan.load = f64::NAN;
    let specs = [bytes_spec(&nan, 0, 25), bytes_spec(&nan, 0, 25)];
    assert_eq!(plan(&specs), [vec![0], vec![1]]);
}

/// Groups interleaved in submission order, on 1, 2 and 8 threads: run `i`
/// is spec `i`'s solo run, whatever group it rode in and whichever worker
/// finished first.
#[test]
fn results_keep_submission_order_under_any_thread_count() {
    let a = ScenarioConfig::new(RackType::Web, 11);
    let b = ScenarioConfig::new(RackType::Hadoop, 12);
    let c = ScenarioConfig::new(RackType::Cache, 13);
    let specs = vec![
        bytes_spec(&a, 0, 25),
        bytes_spec(&b, 1, 50),
        buffer_and_ports_spec(a.clone(), Nanos::from_micros(300), SPAN).0,
        bytes_spec(&c, 24, 25),
        bytes_spec(&b, 2, 100),
        bytes_spec(&a, 5, 200),
        buffer_and_ports_spec(b.clone(), Nanos::from_micros(300), SPAN).0,
    ];
    assert_eq!(plan(&specs), [vec![0, 2, 5], vec![1, 4, 6], vec![3]]);
    let reference = solo(&specs);
    for threads in [1, 2, 8] {
        assert_eq!(
            run_parallel_on(threads, specs.clone()),
            reference,
            "{threads} thread(s)"
        );
    }
    assert!(run_parallel_on(4, Vec::new()).is_empty());
}
