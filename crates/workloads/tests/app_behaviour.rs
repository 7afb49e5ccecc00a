//! Behavioural tests of the workload apps' traffic-shaping mechanisms:
//! request trains, shared multiget sizes, wave determinism, diurnal
//! scaling — the mechanisms DESIGN.md §4b credits for the paper's shapes.

use uburst_sim::prelude::*;
use uburst_workloads::cache::{contiguous_pods, CacheFrontendApp};
use uburst_workloads::host::AppHost;
use uburst_workloads::responder::{ResponderApp, ResponderConfig};
use uburst_workloads::scenario::{CacheParams, RackType, ScenarioConfig};

/// Builds a star topology: `n` responder hosts + one frontend, all on one
/// switch, and returns (sim, responders, frontend).
fn star_with_frontend(
    n: usize,
    make_frontend: impl FnOnce(Vec<NodeId>) -> CacheFrontendApp,
) -> (Simulator, Vec<NodeId>, NodeId) {
    let mut sim = Simulator::new();
    let servers: Vec<NodeId> = (0..n)
        .map(|i| {
            AppHost::spawn(
                &mut sim,
                Box::new(ResponderApp::new(ResponderConfig::default())),
                NicConfig::default(),
                TransportConfig::default(),
                500 + i as u64,
                Nanos::ZERO,
            )
        })
        .collect();
    let frontend = AppHost::spawn(
        &mut sim,
        Box::new(make_frontend(servers.clone())),
        NicConfig::default(),
        TransportConfig::default(),
        999,
        Nanos::from_micros(10),
    );
    let mut routing = RoutingTable::new(0);
    let all: Vec<NodeId> = servers.iter().copied().chain([frontend]).collect();
    for (i, &h) in all.iter().enumerate() {
        routing.set_route(h, Route::Port(PortId(i as u16)));
    }
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::default(),
        routing,
        null_sink(),
    )));
    for (i, &h) in all.iter().enumerate() {
        sim.connect(
            (h, PortId(0)),
            (sw, PortId(i as u16)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
    }
    (sim, servers, frontend)
}

#[test]
fn train_length_preserves_group_rate() {
    // Same configured group rate with trains of 1 vs trains of 4 must yield
    // comparable total groups over a long window.
    let groups_with = |train: (usize, usize)| {
        let (mut sim, _servers, frontend) = star_with_frontend(8, |servers| {
            CacheFrontendApp::new(
                &CacheParams {
                    train,
                    ..CacheParams::default()
                },
                servers,
                contiguous_pods(8, 4),
                Vec::new(),
                5_000.0,
                0.0,
            )
        });
        sim.run_until(Nanos::from_millis(400));
        sim.node::<AppHost>(frontend)
            .app::<CacheFrontendApp>()
            .groups_sent
    };
    let singles = groups_with((1, 1)) as f64;
    let trains = groups_with((2, 6)) as f64;
    let ratio = trains / singles;
    assert!(
        (0.8..1.25).contains(&ratio),
        "train config changed the effective rate: {singles} vs {trains}"
    );
}

#[test]
fn every_group_request_is_answered() {
    let (mut sim, servers, frontend) = star_with_frontend(6, |servers| {
        CacheFrontendApp::new(
            &CacheParams {
                member_prob: 1.0,
                train: (2, 4),
                ..CacheParams::default()
            },
            servers,
            contiguous_pods(6, 3),
            Vec::new(),
            2_000.0,
            0.0,
        )
    });
    sim.run_until(Nanos::from_millis(300));
    let fe = sim.node::<AppHost>(frontend).app::<CacheFrontendApp>();
    let served: u64 = servers
        .iter()
        .map(|&s| sim.node::<AppHost>(s).app::<ResponderApp>().served)
        .sum();
    // member_prob 1.0 and pods of 3: requests = 3 * groups; allow the
    // in-flight tail.
    assert!(
        served as f64 >= 2.8 * fe.groups_sent as f64,
        "{served} served for {} groups",
        fe.groups_sent
    );
    assert!(
        fe.responses_received as f64 >= 0.95 * served as f64,
        "{} responses for {served} served",
        fe.responses_received
    );
}

#[test]
fn diurnal_factor_scales_scenario_rates() {
    use uburst_workloads::diurnal::{batch_factor, interactive_factor};
    // The scenario's rate_factor must combine load and the right curve.
    let mut web = ScenarioConfig::new(RackType::Web, 1);
    web.hour = 8.0;
    web.load = 2.0;
    let expected = 2.0 * interactive_factor(8.0);
    assert!((web.rate_factor() - expected).abs() < 1e-12);

    let mut hadoop = ScenarioConfig::new(RackType::Hadoop, 1);
    hadoop.hour = 8.0;
    assert!((hadoop.rate_factor() - batch_factor(8.0)).abs() < 1e-12);
}

#[test]
fn bimodal_responder_has_two_latency_modes() {
    use uburst_workloads::host::{App, Env, Incoming};
    use uburst_workloads::tags::MsgKind;

    /// Client that sends many requests and records response times.
    struct Probe {
        peer: NodeId,
        sent_at: std::collections::HashMap<u32, Nanos>,
        latencies: Vec<Nanos>,
        n: u32,
    }
    impl App for Probe {
        fn start(&mut self, env: &mut Env<'_, '_>) {
            env.timer_in(Nanos::from_micros(1), 0);
        }
        fn on_timer(&mut self, env: &mut Env<'_, '_>, _t: u64) {
            if self.n == 0 {
                return;
            }
            self.n -= 1;
            let g = self.n;
            self.sent_at.insert(g, env.now());
            env.send_request(self.peer, 1_000, g);
            env.timer_in(Nanos::from_millis(3), 0); // no queueing between probes
        }
        fn on_flow_received(&mut self, env: &mut Env<'_, '_>, msg: Incoming) {
            if msg.kind == MsgKind::Response {
                let t0 = self.sent_at[&msg.group];
                self.latencies.push(env.now() - t0);
            }
        }
    }

    let mut sim = Simulator::new();
    let server = AppHost::spawn(
        &mut sim,
        Box::new(ResponderApp::new(ResponderConfig {
            hit_prob: 0.5,
            hit_median: Nanos::from_micros(50),
            hit_sigma: 0.1,
            miss_median: Nanos::from_micros(2_000),
            miss_sigma: 0.1,
        })),
        NicConfig::default(),
        TransportConfig::default(),
        7,
        Nanos::ZERO,
    );
    let probe = AppHost::spawn(
        &mut sim,
        Box::new(Probe {
            peer: server,
            sent_at: Default::default(),
            latencies: Vec::new(),
            n: 200,
        }),
        NicConfig::default(),
        TransportConfig::default(),
        8,
        Nanos::ZERO,
    );
    sim.connect(
        (server, PortId(0)),
        (probe, PortId(0)),
        LinkSpec::gbps(10.0, Nanos(500)),
    );
    sim.run_until(Nanos::from_secs(2));

    let lats = &sim.node::<AppHost>(probe).app::<Probe>().latencies;
    assert!(lats.len() >= 190, "only {} probes returned", lats.len());
    let fast = lats
        .iter()
        .filter(|l| **l < Nanos::from_micros(500))
        .count();
    let slow = lats.len() - fast;
    // Both modes present, roughly half each.
    assert!(fast > lats.len() / 4, "fast mode missing: {fast}");
    assert!(slow > lats.len() / 4, "slow mode missing: {slow}");
}
