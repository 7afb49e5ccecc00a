//! Running measurement campaigns against scenarios.
//!
//! Mirrors the paper's methodology (§4.1/§4.2): build a measured rack, let
//! it warm up, attach the collection framework to the ToR's ASIC, poll for
//! a campaign window, convert cumulative byte series to per-interval
//! utilization.
//!
//! A campaign is described by a [`CampaignSpec`] (pure data, `Send`).
//! Campaigns that measure the same scenario over the same window execute
//! as one [`run_group`]: the scenario is built and simulated **once** with
//! one poller per campaign attached — the paper polls several counter
//! classes on the same live switch at the same time (§4.1) — and each
//! poller is reduced to its own `Send` [`CampaignRun`].
//! [`CampaignSpec::run`] is the group of one, so there is a single
//! execution path. The spec/run split exists for the parallel engine
//! (`pool.rs`): simulations are `Rc`/`Cell`-based and cannot cross
//! threads, so a worker runs a whole group and ships only the reduced
//! results back.

use uburst_asic::{AccessModel, CounterId, FaultInjector, FaultPlan, FaultStats};
use uburst_core::poller::{Poller, RetryPolicy};
use uburst_core::series::{Series, UtilSample};
use uburst_core::spec::CampaignConfig;
use uburst_sim::node::{NodeId, PortId};
use uburst_sim::switch::{Switch, SwitchStats};
use uburst_sim::time::Nanos;
use uburst_sim::transport::TransportStats;
use uburst_workloads::host::AppHost;
use uburst_workloads::scenario::{build_scenario, Scenario, ScenarioConfig};

/// Everything one campaign needs: the scenario to build, the counters to
/// poll, the window, and the robustness layer. Pure data — build specs
/// up front, then execute them one at a time ([`CampaignSpec::run`]) or on
/// the worker pool ([`crate::pool::run_parallel`]), which simulates specs
/// sharing a `cfg` and `span` once.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The scenario to measure.
    pub cfg: ScenarioConfig,
    /// Counters polled together, in campaign order.
    pub counters: Vec<CounterId>,
    /// Sampling interval.
    pub interval: Nanos,
    /// Campaign length (after warmup).
    pub span: Nanos,
    /// Optional fault plan applied to every counter read.
    pub faults: Option<FaultPlan>,
    /// Retry policy for failed read transactions.
    pub retry: RetryPolicy,
    /// Always `None`: campaigns have no degradation. Kept only because
    /// `benchmark/` destructures it (ROADMAP item 3a).
    pub degradation: Option<std::convert::Infallible>,
}

impl CampaignSpec {
    /// A plain campaign: no faults, default retries.
    pub fn new(
        cfg: ScenarioConfig,
        counters: Vec<CounterId>,
        interval: Nanos,
        span: Nanos,
    ) -> Self {
        CampaignSpec {
            cfg,
            counters,
            interval,
            span,
            faults: None,
            retry: RetryPolicy::default(),
            degradation: None,
        }
    }

    /// Arms a fault plan for every counter read.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Executes the campaign: the [`run_group`] of one. Fully
    /// deterministic from the spec — equal specs produce equal runs, on
    /// any thread, alone or sharing a simulation with other campaigns.
    pub fn run(self) -> CampaignRun {
        run_group(vec![self])
            .pop()
            .expect("a group of one yields one run")
    }

    /// Whether `self` and `other` measure the same simulation: the same
    /// scenario over the same window. Field-by-field equality, so a NaN
    /// parameter equals nothing and such a spec always runs alone.
    fn same_simulation(&self, other: &CampaignSpec) -> bool {
        self.span == other.span && self.cfg == other.cfg
    }

    /// Whether both campaigns poll some read-and-clear register: two
    /// readers would steal each other's peaks, so they cannot share a bank.
    fn contends_with(&self, other: &CampaignSpec) -> bool {
        self.counters
            .iter()
            .any(|c| c.is_read_and_clear() && other.counters.contains(c))
    }

    /// Builds this campaign's poller on `scenario` and schedules it over
    /// `[start, stop)`.
    fn attach(self, scenario: &mut Scenario, start: Nanos, stop: Nanos) -> NodeId {
        let campaign = CampaignConfig::group("bench", self.counters, self.interval);
        let mut poller = Poller::in_memory(
            scenario.counters.clone(),
            AccessModel::default(),
            campaign,
            scenario.cfg.seed ^ 0x9e37_79b9,
        )
        .expect("bench campaign is well-formed")
        .with_retry(self.retry);
        if let Some(plan) = self.faults {
            poller = poller.with_faults(FaultInjector::new(plan));
        }
        poller
            .spawn(&mut scenario.sim, start, stop)
            .expect("bench campaign window is non-empty and its registers unclaimed")
    }
}

/// Runs every campaign of a group on **one** simulation: build the
/// scenario once, warm it up, attach one poller per campaign over the same
/// window, simulate once, and reduce each poller to its own
/// [`CampaignRun`] (in `specs` order) around one shared [`NetSnapshot`].
///
/// Each run is byte-identical to the campaign's solo run. A poller is a
/// passive observer: it owns its RNG and fault/retry state,
/// injects no packets, and the simulator settles counter-visible state
/// exactly at every read instant — so neither the network nor any other
/// poller can tell how many campaigns are attached. The one shared mutable
/// thing is a read-and-clear register, which [`plan_groups`] never gives
/// two readers.
///
/// # Panics
/// Panics if the specs do not all measure the same simulation (same
/// `cfg` and `span`), or if two of them poll one read-and-clear register.
pub fn run_group(specs: Vec<CampaignSpec>) -> Vec<CampaignRun> {
    let Some(first) = specs.first() else {
        return Vec::new();
    };
    assert!(
        specs.iter().all(|s| s.same_simulation(first)),
        "a campaign group shares one scenario and one span"
    );
    let span = first.span;
    let mut scenario = build_scenario(first.cfg.clone());
    let warmup = scenario.recommended_warmup();
    scenario.sim.run_until(warmup);
    let stop = warmup + span;
    let pollers: Vec<NodeId> = specs
        .into_iter()
        .map(|spec| spec.attach(&mut scenario, warmup, stop))
        .collect();
    // Slack past the stop so the final in-flight polls complete.
    scenario.sim.run_until(stop + Nanos::from_millis(1));
    let net = NetSnapshot::of(&scenario);
    pollers
        .into_iter()
        .map(|id| {
            let poller = scenario.sim.node_mut::<Poller>(id);
            CampaignRun {
                series: poller.take_series().expect("in-memory campaign"),
                poller_stats: poller.stats(),
                fault_stats: poller.fault_stats(),
                degrade_level: 0,
                net: net.clone(),
            }
        })
        .collect()
}

/// Partitions `specs` into groups that can each ride one simulation
/// ([`run_group`]), each as `(submission indices, specs)`: a spec joins the
/// first group that measures the same simulation and holds no other reader
/// of a read-and-clear register it polls, and opens a new group otherwise.
/// Groups and their members keep submission order.
///
/// Grouping compares specs for equality rather than hashing them: the
/// configuration is full of `f64` rates (no `Hash`, and a NaN must match
/// nothing), equality needs no canonical form to stay in step with new
/// fields, and a campaign set is tens of specs.
pub fn plan_groups(specs: Vec<CampaignSpec>) -> Vec<(Vec<usize>, Vec<CampaignSpec>)> {
    let mut groups: Vec<(Vec<usize>, Vec<CampaignSpec>)> = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let home = groups.iter_mut().find(|(_, members)| {
            members[0].same_simulation(&spec) && !members.iter().any(|m| m.contends_with(&spec))
        });
        match home {
            Some((slots, members)) => {
                slots.push(i);
                members.push(spec);
            }
            None => groups.push((vec![i], vec![spec])),
        }
    }
    groups
}

/// Post-run network state, reduced from the scenario before it is dropped
/// (the scenario itself is `Rc`-based and cannot leave its worker thread).
#[derive(Debug, Clone, PartialEq)]
pub struct NetSnapshot {
    /// The measured ToR switch's totals.
    pub tor: SwitchStats,
    /// Final congestion-drop counter per ToR port (downlinks then
    /// uplinks, indexed by `PortId`).
    pub port_drops: Vec<u64>,
    /// Transport diagnostics summed over every host (rack and remote).
    pub transport: TransportStats,
}

impl NetSnapshot {
    /// Reduces a finished scenario to the post-run facts harnesses
    /// consume: ToR switch totals, per-port drop counters, transport
    /// diagnostics summed over every host.
    fn of(scenario: &Scenario) -> Self {
        let n_ports = scenario.cfg.n_servers + scenario.cfg.clos.n_fabric;
        let tor = scenario.sim.node::<Switch>(scenario.tor()).stats();
        let port_drops: Vec<u64> = (0..n_ports)
            .map(|i| scenario.counters.read(CounterId::Drops(PortId(i as u16))))
            .collect();
        let mut transport = TransportStats::default();
        for &h in scenario.rack_hosts.iter().chain(&scenario.remote_hosts) {
            let s = scenario.sim.node::<AppHost>(h).transport_stats();
            transport.flows_started += s.flows_started;
            transport.flows_sent += s.flows_sent;
            transport.flows_received += s.flows_received;
            transport.retransmits += s.retransmits;
            transport.timeouts += s.timeouts;
            transport.fast_retransmits += s.fast_retransmits;
        }
        NetSnapshot {
            tor,
            port_drops,
            transport,
        }
    }

    /// Drops summed over the server-facing ports `0..n_servers`.
    pub fn downlink_drops(&self, n_servers: usize) -> u64 {
        self.port_drops[..n_servers.min(self.port_drops.len())]
            .iter()
            .sum()
    }
}

/// The outcome of one campaign on one rack instance. Plain data (`Send`):
/// safe to ship out of a pool worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// `(counter, series)` pairs in campaign order.
    pub series: Vec<(CounterId, Series)>,
    /// Poller behaviour during the campaign.
    pub poller_stats: uburst_core::poller::PollerStats,
    /// Injected-fault counts, when the campaign ran under a fault plan.
    pub fault_stats: Option<FaultStats>,
    /// Always 0: the poller has no degradation levels. Kept only because
    /// `benchmark/` builds this struct (ROADMAP item 3a).
    pub degrade_level: u32,
    /// Post-run network state (switch totals, drops, transport).
    pub net: NetSnapshot,
}

impl CampaignRun {
    /// The series for `counter`, panicking if it was not in the campaign.
    pub fn series_for(&self, counter: CounterId) -> &Series {
        &self
            .series
            .iter()
            .find(|(c, _)| *c == counter)
            .unwrap_or_else(|| panic!("counter {counter:?} not in campaign"))
            .1
    }

    /// Utilization samples for a TX byte counter on a port with link rate
    /// `bps`.
    pub fn utilization(&self, counter: CounterId, bps: u64) -> Vec<UtilSample> {
        self.series_for(counter).utilization(bps)
    }
}

/// The port a single-port campaign measures for a rack type, chosen
/// pseudo-randomly from the seed the way the paper picked "a random port"
/// per rack. Bursts concentrate where the rack's bottleneck is (Fig. 9):
/// Web and Hadoop burst toward servers, so a random active port is a
/// downlink; Cache bursts on its uplinks, so the representative port is an
/// uplink (a random Cache *downlink* is ~idle — it only carries requests).
pub fn representative_port(cfg: &ScenarioConfig) -> PortId {
    let salt = (cfg.seed as usize).wrapping_mul(31);
    match cfg.rack_type {
        uburst_workloads::RackType::Cache => {
            PortId((cfg.n_servers + salt % cfg.clos.n_fabric) as u16)
        }
        _ => PortId((salt % cfg.n_servers) as u16),
    }
}

/// The link speed of a ToR port in bits/sec (downlink vs. uplink).
pub fn port_bps(cfg: &ScenarioConfig, port: PortId) -> u64 {
    if (port.0 as usize) < cfg.n_servers {
        cfg.clos.server_link.bandwidth_bps
    } else {
        cfg.clos.uplink.bandwidth_bps
    }
}

/// Per-interval utilization of every TX byte counter `spec` polled, in
/// campaign order, each at its port's link rate.
pub fn tx_utilization(spec: &CampaignSpec, run: &CampaignRun) -> Vec<Vec<UtilSample>> {
    spec.counters
        .iter()
        .filter_map(|&counter| match counter {
            CounterId::TxBytes(port) => Some(run.utilization(counter, port_bps(&spec.cfg, port))),
            _ => None,
        })
        .collect()
}

/// The spec for a single-port, single-counter campaign at the paper's
/// highest resolution: the egress byte counter of one ToR port.
/// `port_index` selects an explicit port (`None` uses
/// [`representative_port`]).
pub fn single_port_spec(
    cfg: ScenarioConfig,
    port_index: Option<usize>,
    interval: Nanos,
    span: Nanos,
) -> (CampaignSpec, PortId) {
    let port = match port_index {
        Some(i) => PortId(i as u16),
        None => representative_port(&cfg),
    };
    (
        CampaignSpec::new(cfg, vec![CounterId::TxBytes(port)], interval, span),
        port,
    )
}

/// The spec for a multi-port campaign: TX+RX byte counters for each
/// requested port, aligned on the same poll timestamps.
pub fn port_groups_spec(
    cfg: ScenarioConfig,
    ports: &[PortId],
    interval: Nanos,
    span: Nanos,
) -> CampaignSpec {
    let mut counters = Vec::with_capacity(ports.len() * 2);
    for &p in ports {
        counters.push(CounterId::TxBytes(p));
    }
    for &p in ports {
        counters.push(CounterId::RxBytes(p));
    }
    CampaignSpec::new(cfg, counters, interval, span)
}

/// The spec for an all-port TX bytes campaign plus the shared-buffer peak
/// register — the Fig. 9 / Fig. 10 campaign.
pub fn buffer_and_ports_spec(
    cfg: ScenarioConfig,
    interval: Nanos,
    span: Nanos,
) -> (CampaignSpec, Vec<PortId>) {
    let all_ports: Vec<PortId> = (0..(cfg.n_servers + cfg.clos.n_fabric))
        .map(|i| PortId(i as u16))
        .collect();
    let mut counters: Vec<CounterId> = all_ports.iter().map(|&p| CounterId::TxBytes(p)).collect();
    counters.push(CounterId::BufferPeak);
    (CampaignSpec::new(cfg, counters, interval, span), all_ports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_workloads::scenario::RackType;

    /// The whole point of the reduction: campaign results cross threads.
    #[test]
    fn campaign_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CampaignSpec>();
        assert_send::<CampaignRun>();
        assert_send::<NetSnapshot>();
    }

    #[test]
    fn single_port_campaign_produces_util_series() {
        let cfg = ScenarioConfig::new(RackType::Web, 42);
        let bps = 10_000_000_000;
        let (spec, port) =
            single_port_spec(cfg, Some(3), Nanos::from_micros(25), Nanos::from_millis(30));
        let run = spec.run();
        assert_eq!(port, PortId(3));
        let util = run.utilization(CounterId::TxBytes(port), bps);
        assert!(util.len() > 800, "only {} samples", util.len());
        assert!(util.iter().all(|u| u.util >= 0.0));
        // The poller missed ~1% of deadlines, not more.
        assert!(run.poller_stats.deadline_miss_fraction() < 0.05);
        // The snapshot saw traffic and covers every ToR port.
        assert!(run.net.tor.tx_bytes > 0);
        assert_eq!(run.net.port_drops.len(), 24 + 4);
        assert!(run.net.transport.flows_started > 0);
    }

    #[test]
    fn port_groups_are_aligned() {
        let cfg = ScenarioConfig::new(RackType::Cache, 7);
        let ports = [PortId(0), PortId(1)];
        let run =
            port_groups_spec(cfg, &ports, Nanos::from_micros(100), Nanos::from_millis(20)).run();
        let a = run.series_for(CounterId::TxBytes(PortId(0)));
        let b = run.series_for(CounterId::RxBytes(PortId(1)));
        assert_eq!(a.ts, b.ts, "group campaign series share timestamps");
    }

    #[test]
    fn buffer_campaign_includes_peak() {
        let cfg = ScenarioConfig::new(RackType::Hadoop, 9);
        let (spec, ports) =
            buffer_and_ports_spec(cfg, Nanos::from_micros(300), Nanos::from_millis(20));
        let run = spec.run();
        assert_eq!(ports.len(), 24 + 4);
        let peak = run.series_for(CounterId::BufferPeak);
        assert!(!peak.is_empty());
        // Hadoop must have put something in the buffer at some point.
        assert!(peak.vs.iter().any(|&v| v > 0), "buffer never occupied");
    }

    #[test]
    fn spec_run_equals_wrapper_run() {
        let mk = || {
            let cfg = ScenarioConfig::new(RackType::Hadoop, 77);
            CampaignSpec::new(
                cfg,
                vec![CounterId::TxBytes(PortId(1))],
                Nanos::from_micros(100),
                Nanos::from_millis(10),
            )
        };
        let a = mk().run();
        let b = mk().run();
        assert_eq!(a.series[0].1.vs, b.series[0].1.vs);
        assert_eq!(a.poller_stats, b.poller_stats);
        assert_eq!(a.net.tor, b.net.tor);
        assert_eq!(a.net.port_drops, b.net.port_drops);
    }

    #[test]
    #[should_panic(expected = "not in campaign")]
    fn missing_counter_panics() {
        let cfg = ScenarioConfig::new(RackType::Web, 1);
        let (spec, _) =
            single_port_spec(cfg, Some(0), Nanos::from_micros(100), Nanos::from_millis(5));
        let run = spec.run();
        run.series_for(CounterId::Drops(PortId(0)));
    }
}
