//! Canonical measured-rack scenarios.
//!
//! Every figure harness measures the same three rack setups (§4.2): a rack
//! of Web, Cache, or Hadoop servers behind one ToR in a Clos fabric, with
//! the rest of the data center played by remote endpoints. This module
//! builds those scenarios reproducibly from a seed.
//!
//! ## Scaling note (recorded in DESIGN.md)
//!
//! The production racks held ~48 servers on 10 G links behind 4×40 G
//! uplinks (~3:1 oversubscription). We scale the rack to 24 servers behind
//! 4×20 G uplinks — the same 3:1 oversubscription, the same 4-way ECMP
//! fan-out, and the same 2:1+ uplink/server speed ratio (one server flow
//! can never make an uplink hot by itself) — at half the event cost.

use std::rc::Rc;

use uburst_asic::AsicCounters;
use uburst_sim::link::LinkSpec;
use uburst_sim::nic::NicConfig;
use uburst_sim::node::{NodeId, PortId};
use uburst_sim::rng::Rng;
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;
use uburst_sim::topology::{ClosConfig, ClosHandles, RackSpec};
use uburst_sim::transport::TransportConfig;

use crate::cache::{contiguous_pods, CacheFrontendApp};
use crate::diurnal;
use crate::hadoop::HadoopApp;
use crate::host::{App, AppHost, IdleApp};
use crate::responder::{ResponderApp, ResponderConfig};
use crate::web::{SizeDist, UserGenApp, WebServerApp};

/// Which application the measured rack runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RackType {
    /// Interactive web servers (low utilization, uncorrelated, downlink
    /// bursts).
    Web,
    /// In-memory cache (scatter-gather correlation, uplink bursts).
    Cache,
    /// Offline bulk processing (high utilization, long bursts, fan-in).
    Hadoop,
}

impl RackType {
    /// All three measured rack types, in the paper's order.
    pub const ALL: [RackType; 3] = [RackType::Web, RackType::Cache, RackType::Hadoop];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            RackType::Web => "Web",
            RackType::Cache => "Cache",
            RackType::Hadoop => "Hadoop",
        }
    }
}

/// Web-scenario tuning (rates are per web server at load 1.0 / peak hour).
#[derive(Debug, Clone, PartialEq)]
pub struct WebParams {
    /// User requests per second per web server.
    pub req_rate_per_server: f64,
    /// Cache subqueries per page, uniform in `[min, max]`.
    pub fanout: (usize, usize),
    /// Per-subquery cache response size.
    pub cache_resp: SizeDist,
    /// Median CPU think time between a page's last cache response and
    /// the page send.
    pub think_median: Nanos,
    /// Page size returned to the user.
    pub page: SizeDist,
    /// Pages per user event, uniform in `[min, max]`. Sessions fetch
    /// several objects back-to-back over a reused connection, so page
    /// requests arrive in micro-trains rather than as a pure Poisson
    /// stream — this temporal clustering is what gives Web its very high
    /// burst likelihood ratio (Table 2).
    pub train: (usize, usize),
    /// Mean spacing between pages within a train.
    pub train_gap: Nanos,
    /// Service times of the remote cache tier. Moderate hit clustering
    /// plus a wide miss tail: a page's fast responses arrive as a small
    /// coherent clump (the 1-2 sampling-period Web bursts), the rest smear
    /// out.
    pub responder: ResponderConfig,
}

impl Default for WebParams {
    fn default() -> Self {
        WebParams {
            req_rate_per_server: 900.0,
            fanout: (6, 16),
            cache_resp: SizeDist {
                median: 2_600,
                sigma: 0.9,
                cap: 9_500,
            },
            think_median: Nanos::from_micros(150),
            page: SizeDist {
                median: 25_000,
                sigma: 0.7,
                cap: 300_000,
            },
            train: (2, 5),
            train_gap: Nanos::from_micros(30),
            responder: ResponderConfig {
                hit_prob: 0.6,
                hit_median: Nanos::from_micros(120),
                hit_sigma: 0.45,
                miss_median: Nanos::from_micros(800),
                miss_sigma: 1.1,
            },
        }
    }
}

/// Cache-scenario tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheParams {
    /// Scatter-gather groups per second across all frontends.
    pub groups_per_s_total: f64,
    /// Servers per correlated pod.
    pub pod_size: usize,
    /// Probability a pod member is queried in a group (sharding misses /
    /// request-dependent key sets).
    pub member_prob: f64,
    /// Request size, sampled **once per group** and shared by all members
    /// (a multiget's key list goes to every shard), which is part of what
    /// correlates pod members at small timescales.
    pub req: SizeDist,
    /// Per-shard response size. Cache responses dwarf requests.
    pub resp: SizeDist,
    /// Number of leader servers (receive coherency writes).
    pub n_leaders: usize,
    /// Coherency writes per second across all frontends.
    pub write_rate_total: f64,
    /// Coherency write size.
    pub write: SizeDist,
    /// Scatter-gather groups per frontend event, uniform in `[min, max]`.
    /// Page assembly issues dependent lookup rounds back-to-back, so groups
    /// arrive in micro-trains; the paper's Cache burst likelihood ratio
    /// (Table 2) reflects exactly this clustering.
    pub train: (usize, usize),
    /// Mean spacing between groups within a train.
    pub train_gap: Nanos,
    /// Service times of the rack's cache servers. A very tight hit path:
    /// a scatter-gather group's shards answer near-simultaneously, which is
    /// what makes pod members correlate and uplink trains overlap.
    pub responder: ResponderConfig,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            groups_per_s_total: 2_200.0,
            pod_size: 4,
            member_prob: 0.9,
            req: SizeDist {
                median: 600,
                sigma: 1.0,
                cap: 20_000,
            },
            resp: SizeDist {
                median: 35_000,
                sigma: 1.3,
                cap: 600_000,
            },
            n_leaders: 2,
            write_rate_total: 2_000.0,
            write: SizeDist {
                median: 2_000,
                sigma: 0.8,
                cap: 50_000,
            },
            train: (2, 6),
            train_gap: Nanos::from_micros(60),
            responder: ResponderConfig {
                hit_prob: 0.85,
                hit_median: Nanos::from_micros(80),
                hit_sigma: 0.3,
                miss_median: Nanos::from_micros(500),
                miss_sigma: 0.8,
            },
        }
    }
}

/// Hadoop-scenario tuning (rates at rate factor 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct HadoopParams {
    /// Map-wave spacing.
    pub wave_period: Nanos,
    /// Per-host wave participation probability.
    pub join_prob: f64,
    /// Reducers drawn per wave from the rack.
    pub reducers_per_wave: usize,
    /// Shuffle transfer size per mapper per wave.
    pub transfer: SizeDist,
    /// Background transfers (HDFS writes, spills) per second per host.
    pub background_rate_per_host: f64,
    /// Background transfer size.
    pub background: SizeDist,
    /// Probability a background transfer leaves the rack.
    pub background_remote_prob: f64,
    /// Probability a wave transfer ships cross-rack (remote shuffle /
    /// replication) instead of to the wave's in-rack reducers.
    pub remote_wave_prob: f64,
}

impl Default for HadoopParams {
    fn default() -> Self {
        HadoopParams {
            wave_period: Nanos::from_micros(1_200),
            join_prob: 0.7,
            reducers_per_wave: 16,
            transfer: SizeDist {
                median: 60_000,
                sigma: 0.9,
                cap: 400_000,
            },
            background_rate_per_host: 2_600.0,
            background: SizeDist {
                median: 60_000,
                sigma: 0.9,
                cap: 400_000,
            },
            background_remote_prob: 0.35,
            remote_wave_prob: 0.2,
        }
    }
}

impl HadoopParams {
    /// Analytic per-host offered rate in bytes/sec at `rate_factor`, from
    /// the closed-form means of the two processes a
    /// [`HadoopApp`] runs at that factor:
    ///
    /// * waves fire every `wave_period / rate_factor` and the host joins
    ///   with `join_prob`, shipping one `transfer`-distributed flow;
    /// * background flows arrive Poisson at
    ///   `background_rate_per_host · rate_factor`.
    ///
    /// This is steady-state metadata for the hybrid fast-forward engine
    /// (`uburst_sim::txstage`): [`build_scenario`] uses it to pre-size the
    /// event calendar for the in-flight packet population instead of
    /// growing through the doubling phase mid-campaign. It ignores
    /// self-addressed draws (a host never sends to itself), so it is a
    /// slight upper bound.
    pub fn offered_bytes_per_host(&self, rate_factor: f64) -> f64 {
        let wave = self.join_prob * rate_factor / self.wave_period.as_secs_f64()
            * self.transfer.mean_bytes();
        let background = self.background_rate_per_host * rate_factor * self.background.mean_bytes();
        wave + background
    }
}

/// Full scenario configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Which app the measured rack runs.
    pub rack_type: RackType,
    /// Servers in the measured rack.
    pub n_servers: usize,
    /// Remote endpoints (users / frontends / cross-rack peers).
    pub n_remotes: usize,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Load multiplier on all request/transfer rates.
    pub load: f64,
    /// Hour of day in [0, 24) for diurnal modulation.
    pub hour: f64,
    /// Web tuning (used when `rack_type == Web`).
    pub web: WebParams,
    /// Cache tuning.
    pub cache: CacheParams,
    /// Hadoop tuning.
    pub hadoop: HadoopParams,
    /// Fabric parameters.
    pub clos: ClosConfig,
    /// Transport tuning for every host.
    pub transport: TransportConfig,
    /// Optional NIC pacing rate in bits/sec for the rack's servers
    /// (`None` = unpaced TSO bursts, the production default the paper
    /// observed; the §7 pacing ablation sets this).
    pub nic_pace_bps: Option<u64>,
    /// Attach ASIC counter banks to the fabric tier too (the paper left
    /// other tiers to future work; the `ext_fabric_tier` experiment uses
    /// this).
    pub instrument_fabric: bool,
    /// Execution mode override: `Some(true)` forces hybrid fast-forward,
    /// `Some(false)` forces per-packet, `None` follows the `UBURST_HYBRID`
    /// environment default (see `uburst_sim::txstage`). Equivalence tests
    /// use this to run both modes in one process.
    pub hybrid: Option<bool>,
}

impl ScenarioConfig {
    /// The canonical configuration for a rack type, at peak hour, load 1.0.
    pub fn new(rack_type: RackType, seed: u64) -> Self {
        let clos = ClosConfig {
            // Scaled-down rack: see the module docs. 4×20G uplinks against
            // 24×10G servers = 3:1 oversubscription.
            uplink: LinkSpec::gbps(20.0, Nanos(1_000)),
            fabric_spine: LinkSpec::gbps(40.0, Nanos(1_000)),
            remote_link: LinkSpec::gbps(20.0, Nanos(2_000)),
            // The ToR buffer scales with the rack (production 12-16MB for
            // ~50 ports of 10-40G → ~1.5MB for our 28 ports) so incast
            // pressure produces the congestion discards the paper studies.
            tor_switch: uburst_sim::switch::SwitchConfig {
                ports: 0,
                buffer_bytes: 768 << 10, // 0.75 MiB
                policy: uburst_sim::bufpolicy::BufferPolicyCfg::dt(0.5),
                ecn_threshold: None,
            },
            ..ClosConfig::default()
        };
        ScenarioConfig {
            rack_type,
            n_servers: 24,
            n_remotes: 12,
            seed,
            load: 1.0,
            hour: 20.0,
            web: WebParams::default(),
            cache: CacheParams::default(),
            hadoop: HadoopParams::default(),
            clos,
            transport: TransportConfig::default(),
            nic_pace_bps: None,
            instrument_fabric: false,
            hybrid: None,
        }
    }

    /// The configuration for one switch (rack) of a fleet campaign.
    ///
    /// Rack types rotate Web/Cache/Hadoop across switch indices (a fleet
    /// is a mix, and the paper's cross-rack readouts compare app classes),
    /// the master seed is re-keyed per switch so racks draw independent
    /// workloads, and the fabric's ECMP seed is derived per rack via
    /// [`ClosConfig::for_fleet_rack`] so fleet-level balance figures see N
    /// independent hash draws. Pure in `(fleet_seed, switch_index)`.
    pub fn for_fleet_switch(fleet_seed: u64, switch_index: u32) -> Self {
        let rack_type = match switch_index % 3 {
            0 => RackType::Web,
            1 => RackType::Cache,
            _ => RackType::Hadoop,
        };
        let seed = fleet_seed ^ (switch_index as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut cfg = ScenarioConfig::new(rack_type, seed);
        cfg.clos = cfg.clos.for_fleet_rack(fleet_seed, switch_index);
        cfg
    }

    /// Effective rate multiplier: load × diurnal factor for this app class.
    pub fn rate_factor(&self) -> f64 {
        let diurnal = match self.rack_type {
            RackType::Web | RackType::Cache => diurnal::interactive_factor(self.hour),
            RackType::Hadoop => diurnal::batch_factor(self.hour),
        };
        self.load * diurnal
    }
}

/// A built scenario, ready to attach pollers and run.
pub struct Scenario {
    /// The simulation (run it!).
    pub sim: Simulator,
    /// The configuration it was built from.
    pub cfg: ScenarioConfig,
    /// The measured rack's servers, in ToR port order.
    pub rack_hosts: Vec<NodeId>,
    /// Remote endpoints.
    pub remote_hosts: Vec<NodeId>,
    /// Clos node ids and port maps.
    pub handles: ClosHandles,
    /// The measured ToR's ASIC counters (poll these).
    pub counters: Rc<AsicCounters>,
    /// Fabric-tier counter banks, one per fabric switch (empty unless
    /// `instrument_fabric` was set).
    pub fabric_counters: Vec<Rc<AsicCounters>>,
}

impl Scenario {
    /// The measured ToR switch node.
    pub fn tor(&self) -> NodeId {
        self.handles.tors[0]
    }

    /// ToR ports facing the rack's servers (downlink direction = TX on
    /// these ports).
    pub fn host_ports(&self) -> &[PortId] {
        &self.handles.tor_host_ports[0]
    }

    /// ToR uplink ports.
    pub fn uplink_ports(&self) -> &[PortId] {
        &self.handles.tor_uplink_ports[0]
    }

    /// Server-link bits/sec (for downlink utilization conversion).
    pub fn server_link_bps(&self) -> u64 {
        self.handles.server_link.bandwidth_bps
    }

    /// Uplink bits/sec.
    pub fn uplink_bps(&self) -> u64 {
        self.handles.uplink.bandwidth_bps
    }

    /// How long to run before measuring: lets slow-started flows and wave
    /// schedules reach steady state.
    pub fn recommended_warmup(&self) -> Nanos {
        Nanos::from_millis(40)
    }
}

/// Builds a scenario. Hosts start staggered within the first 2 ms.
pub fn build_scenario(cfg: ScenarioConfig) -> Scenario {
    assert!(cfg.n_servers >= 4, "rack too small");
    assert!(cfg.n_remotes >= 2, "need remote endpoints");
    assert!(cfg.load > 0.0);
    // Pre-size the event calendar: each endpoint keeps a handful of
    // in-flight events (arrivals, tx-completions, timers) and load scales
    // the packet population roughly linearly. The estimate only has to be
    // the right order of magnitude to skip the heap's doubling phase.
    let endpoints = cfg.n_servers + cfg.n_remotes + cfg.clos.n_fabric + 1;
    let mut event_capacity = (endpoints * 64).next_power_of_two() * (1 + cfg.load as usize);
    if cfg.rack_type == RackType::Hadoop {
        // Hybrid fast-forward parks every queued frame in the calendar as
        // a pre-scheduled arrival, so the bulk rack's in-flight population
        // tracks its offered load rather than the wire. Size for one wave
        // period of analytically-offered frames across the rack.
        let per_host = cfg.hadoop.offered_bytes_per_host(cfg.rate_factor());
        let frames = per_host * cfg.n_servers as f64 * cfg.hadoop.wave_period.as_secs_f64()
            / f64::from(uburst_sim::packet::MTU_FRAME);
        event_capacity = event_capacity.max((frames.max(1.0) as usize).next_power_of_two());
    }
    let mut sim = Simulator::with_event_capacity(event_capacity);
    if let Some(hybrid) = cfg.hybrid {
        sim.set_hybrid(hybrid);
    }
    let mut rng = Rng::new(cfg.seed);

    // Spawn all hosts idle; install apps after ids exist.
    let spawn_idle = |sim: &mut Simulator, rng: &mut Rng, i: usize, nic: NicConfig| {
        AppHost::spawn(
            sim,
            Box::new(IdleApp),
            nic,
            cfg.transport,
            rng.next_u64(),
            Nanos::from_micros(1_000 + 37 * i as u64), // staggered starts
        )
    };
    let rack_nic = NicConfig {
        pace_bps: cfg.nic_pace_bps,
        ..NicConfig::default()
    };
    let rack_hosts: Vec<NodeId> = (0..cfg.n_servers)
        .map(|i| spawn_idle(&mut sim, &mut rng, i, rack_nic))
        .collect();
    let remote_hosts: Vec<NodeId> = (0..cfg.n_remotes)
        .map(|i| spawn_idle(&mut sim, &mut rng, cfg.n_servers + i, NicConfig::default()))
        .collect();

    let counters = AsicCounters::new_shared(cfg.n_servers + cfg.clos.n_fabric);
    let fabric_counters: Vec<Rc<AsicCounters>> = if cfg.instrument_fabric {
        (0..cfg.clos.n_fabric)
            .map(|_| AsicCounters::new_shared(2)) // port 0 = rack, port 1 = spine
            .collect()
    } else {
        Vec::new()
    };
    let fabric_sinks: Vec<uburst_sim::counters::SharedSink> = fabric_counters
        .iter()
        .map(|c| c.clone() as uburst_sim::counters::SharedSink)
        .collect();
    let handles = uburst_sim::topology::build_clos_with_core_sinks(
        &mut sim,
        &cfg.clos,
        vec![RackSpec {
            hosts: rack_hosts.clone(),
            sink: counters.clone(),
        }],
        &remote_hosts,
        &fabric_sinks,
    );

    let factor = cfg.rate_factor();
    install_apps(&mut sim, &cfg, factor, &rack_hosts, &remote_hosts, &mut rng);

    Scenario {
        sim,
        cfg,
        rack_hosts,
        remote_hosts,
        handles,
        counters,
        fabric_counters,
    }
}

fn install_apps(
    sim: &mut Simulator,
    cfg: &ScenarioConfig,
    factor: f64,
    rack: &[NodeId],
    remotes: &[NodeId],
    rng: &mut Rng,
) {
    let set = |sim: &mut Simulator, host: NodeId, app: Box<dyn App>| {
        sim.node_mut::<AppHost>(host).set_app(app);
    };
    match cfg.rack_type {
        RackType::Web => {
            // Remotes split: two thirds cache tier, one third users. More
            // cache-tier nodes spread the fan-in sources, which keeps
            // same-page responses from serializing behind one remote NIC.
            let split = remotes.len() * 2 / 3;
            let (cache_tier, users) = remotes.split_at(split);
            for &h in rack {
                set(
                    sim,
                    h,
                    Box::new(WebServerApp::new(&cfg.web, cache_tier.to_vec())),
                );
            }
            for &h in cache_tier {
                set(sim, h, Box::new(ResponderApp::new(cfg.web.responder)));
            }
            let total_rate = cfg.web.req_rate_per_server * rack.len() as f64 * factor;
            let per_user_node = total_rate / users.len() as f64;
            for &h in users {
                set(
                    sim,
                    h,
                    Box::new(UserGenApp::new(&cfg.web, rack.to_vec(), per_user_node)),
                );
            }
        }
        RackType::Cache => {
            for &h in rack {
                set(sim, h, Box::new(ResponderApp::new(cfg.cache.responder)));
            }
            let pods = contiguous_pods(rack.len(), cfg.cache.pod_size);
            let leaders: Vec<usize> = (0..cfg.cache.n_leaders.min(rack.len())).collect();
            let per_frontend = cfg.cache.groups_per_s_total * factor / remotes.len() as f64;
            let write_per_frontend = cfg.cache.write_rate_total * factor / remotes.len() as f64;
            for &h in remotes {
                set(
                    sim,
                    h,
                    Box::new(CacheFrontendApp::new(
                        &cfg.cache,
                        rack.to_vec(),
                        pods.clone(),
                        leaders.clone(),
                        per_frontend,
                        write_per_frontend,
                    )),
                );
            }
        }
        RackType::Hadoop => {
            // Rack hosts and half the remotes are workers in one job.
            let schedule_seed = rng.next_u64();
            let (mappers_remote, other_remote) = remotes.split_at(remotes.len() / 2);
            let mk = |remote_nodes: &[NodeId]| {
                Box::new(HadoopApp::new(
                    &cfg.hadoop,
                    factor,
                    rack.to_vec(),
                    remote_nodes.to_vec(),
                    schedule_seed,
                ))
            };
            for &h in rack {
                set(sim, h, mk(remotes));
            }
            for &h in mappers_remote {
                set(sim, h, mk(other_remote));
            }
            // Remaining remotes just absorb cross-rack background traffic.
            for &h in other_remote {
                set(
                    sim,
                    h,
                    Box::new(ResponderApp::new(ResponderConfig::default())),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_asic::CounterId;
    use uburst_sim::switch::Switch;

    fn run_scenario(rack_type: RackType, seed: u64, millis: u64) -> Scenario {
        let mut s = build_scenario(ScenarioConfig::new(rack_type, seed));
        s.sim.run_until(Nanos::from_millis(millis));
        s
    }

    fn rack_tx_bytes(s: &Scenario) -> u64 {
        s.host_ports()
            .iter()
            .map(|&p| s.counters.read(CounterId::TxBytes(p)))
            .sum()
    }

    fn rack_rx_bytes(s: &Scenario) -> u64 {
        s.host_ports()
            .iter()
            .map(|&p| s.counters.read(CounterId::RxBytes(p)))
            .sum()
    }

    fn uplink_tx_bytes(s: &Scenario) -> u64 {
        s.uplink_ports()
            .iter()
            .map(|&p| s.counters.read(CounterId::TxBytes(p)))
            .sum()
    }

    #[test]
    fn web_scenario_moves_traffic_and_routes_cleanly() {
        let s = run_scenario(RackType::Web, 1, 80);
        assert!(rack_tx_bytes(&s) > 1_000_000, "tor->server traffic");
        assert!(rack_rx_bytes(&s) > 1_000_000, "server->tor traffic");
        let tor_stats = s.sim.node::<Switch>(s.tor()).stats();
        assert_eq!(tor_stats.unroutable, 0);
    }

    #[test]
    fn cache_scenario_is_uplink_dominated() {
        let s = run_scenario(RackType::Cache, 2, 80);
        // Cache responses leave the rack: uplink TX (toward fabric) must
        // dwarf what comes down to the servers.
        let up = uplink_tx_bytes(&s);
        let down = rack_tx_bytes(&s);
        assert!(
            up > 2 * down,
            "cache should be uplink-heavy: up={up} down={down}"
        );
    }

    #[test]
    fn web_scenario_is_downlink_dominated() {
        let s = run_scenario(RackType::Web, 3, 80);
        let up = uplink_tx_bytes(&s);
        let down = rack_tx_bytes(&s);
        assert!(down > up, "web fan-in should dominate: up={up} down={down}");
    }

    #[test]
    fn hadoop_scenario_runs_hot() {
        let s = run_scenario(RackType::Hadoop, 4, 80);
        let total = rack_tx_bytes(&s) + rack_rx_bytes(&s);
        // 12 servers over ~80ms: hadoop should move tens of MB.
        assert!(total > 20_000_000, "hadoop moved only {total} bytes");
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = run_scenario(RackType::Cache, 7, 40);
        let b = run_scenario(RackType::Cache, 7, 40);
        assert_eq!(rack_tx_bytes(&a), rack_tx_bytes(&b));
        assert_eq!(uplink_tx_bytes(&a), uplink_tx_bytes(&b));
        assert_eq!(a.sim.dispatched(), b.sim.dispatched());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(RackType::Web, 10, 40);
        let b = run_scenario(RackType::Web, 11, 40);
        assert_ne!(rack_tx_bytes(&a), rack_tx_bytes(&b));
    }

    #[test]
    fn off_peak_hour_reduces_interactive_load() {
        let mut peak = ScenarioConfig::new(RackType::Web, 5);
        peak.hour = 20.0;
        let mut trough = ScenarioConfig::new(RackType::Web, 5);
        trough.hour = 8.0;
        let mut sp = build_scenario(peak);
        let mut st = build_scenario(trough);
        sp.sim.run_until(Nanos::from_millis(60));
        st.sim.run_until(Nanos::from_millis(60));
        let bp = rack_rx_bytes(&sp) + rack_tx_bytes(&sp);
        let bt = rack_rx_bytes(&st) + rack_tx_bytes(&st);
        assert!(
            (bt as f64) < 0.85 * bp as f64,
            "trough {bt} should be well below peak {bp}"
        );
    }

    #[test]
    fn rack_type_metadata() {
        assert_eq!(RackType::ALL.len(), 3);
        assert_eq!(RackType::Web.name(), "Web");
        assert_eq!(RackType::Cache.name(), "Cache");
        assert_eq!(RackType::Hadoop.name(), "Hadoop");
    }

    #[test]
    fn fleet_switch_configs_rotate_and_derive_independently() {
        let a = ScenarioConfig::for_fleet_switch(1234, 0);
        let b = ScenarioConfig::for_fleet_switch(1234, 1);
        let c = ScenarioConfig::for_fleet_switch(1234, 2);
        assert_eq!(a.rack_type, RackType::Web);
        assert_eq!(b.rack_type, RackType::Cache);
        assert_eq!(c.rack_type, RackType::Hadoop);
        assert_ne!(a.seed, b.seed, "racks draw independent workloads");
        assert_ne!(
            a.clos.ecmp_seed, b.clos.ecmp_seed,
            "racks hash flows independently"
        );
        // Pure function of (fleet_seed, index).
        let a2 = ScenarioConfig::for_fleet_switch(1234, 0);
        assert_eq!(a.seed, a2.seed);
        assert_eq!(a.clos.ecmp_seed, a2.clos.ecmp_seed);
    }
}
