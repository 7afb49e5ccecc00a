//! Clos topology construction.
//!
//! Builds the network of the paper's §4.2: racks of servers on 10 G links
//! into a ToR, four 40 G uplinks per ToR into a fabric tier, fabric switches
//! into a spine, and remote endpoints (the "rest of the data center")
//! hanging off the spine. Flows between racks traverse ToR → fabric → ToR;
//! flows to/from remote endpoints additionally cross the spine, and the
//! spine ECMP-spreads rack-bound flows over the fabric tier — which is what
//! makes *ingress* uplink balance (Fig. 7b) an emergent property rather than
//! an input.
//!
//! Host nodes are created by the caller (they carry application behaviour);
//! the builder creates the switches, wires everything, and installs routes.

use crate::bufpolicy::BufferPolicyCfg;
use crate::counters::{null_sink, SharedSink};
use crate::link::LinkSpec;
use crate::node::{NodeId, PortId};
use crate::rng::{mix64, GOLDEN_GAMMA};
use crate::routing::{EcmpMode, Route, RoutingTable};
use crate::sim::Simulator;
use crate::switch::{Switch, SwitchConfig};
use crate::time::Nanos;

/// Parameters of the Clos fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosConfig {
    /// Fabric switches per pod (= uplinks per ToR). The paper's racks use 4.
    pub n_fabric: usize,
    /// Host ↔ ToR links (10 G in the paper).
    pub server_link: LinkSpec,
    /// ToR ↔ fabric links (40 G or 100 G in the paper; 40 G default). With
    /// 16 servers this gives the 1:4 rack oversubscription of §6.3.
    pub uplink: LinkSpec,
    /// Fabric ↔ spine links.
    pub fabric_spine: LinkSpec,
    /// Remote endpoint ↔ spine links.
    pub remote_link: LinkSpec,
    /// ToR switch parameters (buffer, carving policy).
    pub tor_switch: SwitchConfig,
    /// Fabric/spine switch parameters. Deeper buffers, faster ports — the
    /// paper observes most loss is at ToRs, which holds here too.
    pub core_switch: SwitchConfig,
    /// Base ECMP hash seed; each switch derives its own.
    pub ecmp_seed: u64,
    /// Flow hashing (production) or per-packet spray (ablation baseline).
    pub ecmp_mode: EcmpMode,
}

impl Default for ClosConfig {
    fn default() -> Self {
        ClosConfig {
            n_fabric: 4,
            server_link: LinkSpec::gbps(10.0, Nanos(500)),
            uplink: LinkSpec::gbps(40.0, Nanos(1_000)),
            fabric_spine: LinkSpec::gbps(40.0, Nanos(1_000)),
            remote_link: LinkSpec::gbps(40.0, Nanos(2_000)),
            tor_switch: SwitchConfig {
                ports: 0, // sized by the builder
                buffer_bytes: 12 << 20,
                policy: BufferPolicyCfg::dt(1.0),
                ecn_threshold: None,
            },
            core_switch: SwitchConfig {
                ports: 0,
                buffer_bytes: 24 << 20,
                policy: BufferPolicyCfg::dt(2.0),
                ecn_threshold: None,
            },
            ecmp_seed: 0x5eed,
            ecmp_mode: EcmpMode::FlowHash,
        }
    }
}

impl ClosConfig {
    /// Derives this config for one rack of a fleet campaign: re-keys the
    /// ECMP hash seed per `(fleet_seed, rack_index)` so identical
    /// workloads on different racks do not hash their flows onto the same
    /// uplinks — fleet-level ECMP-balance figures would otherwise be N
    /// copies of one rack's hash luck instead of N draws. Deterministic:
    /// the same fleet seed and rack index always produce the same fabric.
    pub fn for_fleet_rack(mut self, fleet_seed: u64, rack_index: u32) -> ClosConfig {
        self.ecmp_seed =
            mix64(fleet_seed ^ self.ecmp_seed ^ (rack_index as u64).wrapping_mul(GOLDEN_GAMMA));
        self
    }
}

/// One rack to build: its (already created) host nodes and the counter sink
/// for its ToR (use [`null_sink`] for unmeasured racks).
pub struct RackSpec {
    /// The rack's host nodes, in ToR port order.
    pub hosts: Vec<NodeId>,
    /// Counter sink for the rack's ToR.
    pub sink: SharedSink,
}

/// What the builder returns: node ids and port maps needed to attach
/// telemetry and interpret counters.
#[derive(Debug)]
pub struct ClosHandles {
    /// ToR switch node per rack, in rack order.
    pub tors: Vec<NodeId>,
    /// The fabric-tier switches.
    pub fabrics: Vec<NodeId>,
    /// The spine switch.
    pub spine: NodeId,
    /// Per rack: ToR ports facing each host (index = host index in the rack).
    pub tor_host_ports: Vec<Vec<PortId>>,
    /// Per rack: ToR uplink ports (one per fabric switch).
    pub tor_uplink_ports: Vec<Vec<PortId>>,
    /// Host ↔ ToR link spec, re-exported for utilization computations.
    pub server_link: LinkSpec,
    /// ToR ↔ fabric link spec, re-exported for utilization computations.
    pub uplink: LinkSpec,
}

/// Builds the fabric. `remotes` are endpoint nodes representing the rest of
/// the data center (web frontends, cache tiers in other pods, users).
///
/// `fabric_sinks[f]` is the counter sink of fabric switch `f` (missing
/// entries get null sinks). Lets experiments measure beyond the ToR — the
/// paper left "the study of other network tiers to future work" (§4.2).
///
/// # Panics
/// Panics on an empty rack list, empty racks, or zero fabric switches.
pub fn build_clos(
    sim: &mut Simulator,
    cfg: &ClosConfig,
    racks: Vec<RackSpec>,
    remotes: &[NodeId],
    fabric_sinks: &[SharedSink],
) -> ClosHandles {
    assert!(!racks.is_empty(), "need at least one rack");
    assert!(cfg.n_fabric > 0, "need at least one fabric switch");
    for r in &racks {
        assert!(!r.hosts.is_empty(), "rack with no hosts");
    }
    let n_racks = racks.len();
    let n_fabric = cfg.n_fabric;

    let seed = |salt: u64| cfg.ecmp_seed ^ salt.wrapping_mul(GOLDEN_GAMMA);

    // --- Create switches -------------------------------------------------
    let mut tors = Vec::with_capacity(n_racks);
    for (r, rack) in racks.iter().enumerate() {
        let n_hosts = rack.hosts.len();
        let mut routing = RoutingTable::with_mode(seed(1 + r as u64), cfg.ecmp_mode);
        for (i, &h) in rack.hosts.iter().enumerate() {
            routing.set_route(h, Route::Port(PortId(i as u16)));
        }
        let uplinks: Vec<PortId> = (0..n_fabric)
            .map(|f| PortId((n_hosts + f) as u16))
            .collect();
        let g = routing.add_group(uplinks);
        routing.set_default(Route::Group(g));
        let sw_cfg = SwitchConfig {
            ports: (n_hosts + n_fabric) as u16,
            ..cfg.tor_switch.clone()
        };
        tors.push(sim.add_node(Box::new(Switch::new(sw_cfg, routing, rack.sink.clone()))));
    }

    let mut fabrics = Vec::with_capacity(n_fabric);
    for f in 0..n_fabric {
        let mut routing = RoutingTable::with_mode(seed(1000 + f as u64), EcmpMode::FlowHash);
        for (r, rack) in racks.iter().enumerate() {
            for &h in &rack.hosts {
                routing.set_route(h, Route::Port(PortId(r as u16)));
            }
        }
        // Everything else (remotes) goes up to the spine.
        routing.set_default(Route::Port(PortId(n_racks as u16)));
        let sw_cfg = SwitchConfig {
            ports: (n_racks + 1) as u16,
            ..cfg.core_switch.clone()
        };
        let sink = fabric_sinks.get(f).cloned().unwrap_or_else(null_sink);
        fabrics.push(sim.add_node(Box::new(Switch::new(sw_cfg, routing, sink))));
    }

    let spine = {
        let mut routing = RoutingTable::with_mode(seed(2000), EcmpMode::FlowHash);
        // Rack-bound traffic spreads over the fabric tier.
        let fabric_ports: Vec<PortId> = (0..n_fabric).map(|f| PortId(f as u16)).collect();
        let g = routing.add_group(fabric_ports);
        for rack in &racks {
            for &h in &rack.hosts {
                routing.set_route(h, Route::Group(g));
            }
        }
        for (k, &rem) in remotes.iter().enumerate() {
            routing.set_route(rem, Route::Port(PortId((n_fabric + k) as u16)));
        }
        let sw_cfg = SwitchConfig {
            ports: (n_fabric + remotes.len()) as u16,
            ..cfg.core_switch.clone()
        };
        sim.add_node(Box::new(Switch::new(sw_cfg, routing, null_sink())))
    };

    // --- Wire links -------------------------------------------------------
    let mut tor_host_ports = Vec::with_capacity(n_racks);
    let mut tor_uplink_ports = Vec::with_capacity(n_racks);
    for (r, rack) in racks.iter().enumerate() {
        let mut host_ports = Vec::with_capacity(rack.hosts.len());
        for (i, &h) in rack.hosts.iter().enumerate() {
            let p = PortId(i as u16);
            sim.connect((h, PortId(0)), (tors[r], p), cfg.server_link);
            host_ports.push(p);
        }
        let mut uplink_ports = Vec::with_capacity(n_fabric);
        for (f, &fab) in fabrics.iter().enumerate() {
            let p = PortId((rack.hosts.len() + f) as u16);
            sim.connect((tors[r], p), (fab, PortId(r as u16)), cfg.uplink);
            uplink_ports.push(p);
        }
        tor_host_ports.push(host_ports);
        tor_uplink_ports.push(uplink_ports);
    }
    for (f, &fab) in fabrics.iter().enumerate() {
        sim.connect(
            (fab, PortId(n_racks as u16)),
            (spine, PortId(f as u16)),
            cfg.fabric_spine,
        );
    }
    for (k, &rem) in remotes.iter().enumerate() {
        sim.connect(
            (rem, PortId(0)),
            (spine, PortId((n_fabric + k) as u16)),
            cfg.remote_link,
        );
    }

    ClosHandles {
        tors,
        fabrics,
        spine,
        tor_host_ports,
        tor_uplink_ports,
        server_link: cfg.server_link,
        uplink: cfg.uplink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::{HostNic, NicConfig, NIC_PACE_TOKEN};
    use crate::node::{Ctx, Node};
    use crate::packet::Packet;
    use crate::transport::{TransportConfig, TransportEndpoint, TransportEvent};

    /// Generic test host used across topology tests.
    struct Host {
        nic: HostNic,
        transport: Option<TransportEndpoint>,
        received: Vec<TransportEvent>,
        to_send: Vec<(NodeId, u64)>,
    }

    impl Host {
        fn boxed() -> Box<Self> {
            Box::new(Host {
                nic: HostNic::new(NicConfig::default()),
                transport: None,
                received: Vec::new(),
                to_send: Vec::new(),
            })
        }
    }

    impl Node for Host {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            let t = self.transport.as_mut().unwrap();
            let evs = t.on_packet(ctx, &mut self.nic, pkt);
            self.received.extend(evs);
        }
        fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
            self.nic.on_tx_complete(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == NIC_PACE_TOKEN {
                self.nic.on_timer(ctx);
            } else if TransportEndpoint::owns_token(token) {
                let t = self.transport.as_mut().unwrap();
                t.on_timer(ctx, &mut self.nic, token);
            } else {
                for (dst, bytes) in std::mem::take(&mut self.to_send) {
                    self.transport
                        .as_mut()
                        .unwrap()
                        .start_flow(ctx, &mut self.nic, dst, bytes, 0);
                }
            }
        }
        fn settle_lazy(&mut self, now: Nanos) {
            self.nic.settle_to(now);
        }
    }

    fn make_hosts(sim: &mut Simulator, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|_| {
                let id = sim.add_node(Host::boxed());
                let t = TransportEndpoint::new(id, TransportConfig::default());
                sim.node_mut::<Host>(id).transport = Some(t);
                id
            })
            .collect()
    }

    fn build_two_racks() -> (
        Simulator,
        Vec<NodeId>,
        Vec<NodeId>,
        Vec<NodeId>,
        ClosHandles,
    ) {
        let mut sim = Simulator::new();
        let rack_a = make_hosts(&mut sim, 4);
        let rack_b = make_hosts(&mut sim, 4);
        let remotes = make_hosts(&mut sim, 2);
        let cfg = ClosConfig::default();
        let handles = build_clos(
            &mut sim,
            &cfg,
            vec![
                RackSpec {
                    hosts: rack_a.clone(),
                    sink: null_sink(),
                },
                RackSpec {
                    hosts: rack_b.clone(),
                    sink: null_sink(),
                },
            ],
            &remotes,
            &[],
        );
        (sim, rack_a, rack_b, remotes, handles)
    }

    fn run_flow(sim: &mut Simulator, src: NodeId, dst: NodeId, bytes: u64) {
        sim.node_mut::<Host>(src).to_send.push((dst, bytes));
        let t = sim.now();
        sim.schedule_timer(t, src, 0);
        sim.run_for(Nanos::from_millis(50));
    }

    #[test]
    fn intra_rack_flow_traverses_tor_only() {
        let (mut sim, rack_a, _b, _r, handles) = build_two_racks();
        run_flow(&mut sim, rack_a[0], rack_a[1], 100_000);
        assert_eq!(
            sim.node::<Host>(rack_a[1]).received.len(),
            1,
            "intra-rack flow should complete"
        );
        // Fabric switches saw no data traffic.
        for &f in &handles.fabrics {
            assert_eq!(sim.node::<Switch>(f).stats().rx_packets, 0);
        }
    }

    #[test]
    fn inter_rack_flow_crosses_fabric_not_spine() {
        let (mut sim, rack_a, rack_b, _r, handles) = build_two_racks();
        run_flow(&mut sim, rack_a[0], rack_b[2], 100_000);
        assert_eq!(sim.node::<Host>(rack_b[2]).received.len(), 1);
        let fabric_rx: u64 = handles
            .fabrics
            .iter()
            .map(|&f| sim.node::<Switch>(f).stats().rx_packets)
            .sum();
        assert!(fabric_rx > 0, "inter-rack traffic must cross the fabric");
        assert_eq!(
            sim.node::<Switch>(handles.spine).stats().rx_packets,
            0,
            "pod-local traffic must not reach the spine"
        );
    }

    #[test]
    fn remote_flow_crosses_spine() {
        let (mut sim, rack_a, _b, remotes, handles) = build_two_racks();
        run_flow(&mut sim, remotes[0], rack_a[3], 100_000);
        assert_eq!(sim.node::<Host>(rack_a[3]).received.len(), 1);
        assert!(sim.node::<Switch>(handles.spine).stats().rx_packets > 0);
    }

    #[test]
    fn no_unroutable_packets_anywhere() {
        let (mut sim, rack_a, rack_b, remotes, handles) = build_two_racks();
        run_flow(&mut sim, rack_a[0], rack_b[0], 50_000);
        run_flow(&mut sim, rack_b[1], remotes[1], 50_000);
        run_flow(&mut sim, remotes[0], rack_a[2], 50_000);
        for &sw in handles
            .tors
            .iter()
            .chain(handles.fabrics.iter())
            .chain([&handles.spine])
        {
            assert_eq!(sim.node::<Switch>(sw).stats().unroutable, 0);
        }
    }

    #[test]
    fn distinct_flows_use_distinct_uplinks() {
        // With enough remote-bound flows from one rack, ECMP must use all
        // four uplinks (flow-hash spread).
        let (mut sim, rack_a, _b, remotes, handles) = build_two_racks();
        for i in 0..16 {
            let src = rack_a[i % rack_a.len()];
            sim.node_mut::<Host>(src).to_send.push((remotes[0], 20_000));
            sim.schedule_timer(Nanos(i as u64), src, 0);
        }
        sim.run_until(Nanos::from_millis(100));
        let used: usize = handles
            .fabrics
            .iter()
            .filter(|&&f| sim.node::<Switch>(f).stats().rx_packets > 0)
            .count();
        assert!(used >= 3, "expected ≥3 of 4 uplinks used, got {used}");
    }

    #[test]
    fn handles_describe_ports_correctly() {
        let (sim, _a, _b, _r, handles) = build_two_racks();
        assert_eq!(handles.tors.len(), 2);
        assert_eq!(handles.fabrics.len(), 4);
        assert_eq!(handles.tor_host_ports[0].len(), 4);
        assert_eq!(handles.tor_uplink_ports[0].len(), 4);
        // ToR has host ports + uplink ports wired.
        assert_eq!(sim.wiring().port_count(handles.tors[0]), 8);
        assert_eq!(sim.node::<Switch>(handles.tors[0]).config().ports, 8);
    }

    #[test]
    fn fleet_rack_ecmp_seeds_are_derived_deterministically() {
        let base = ClosConfig::default();
        let a = base.clone().for_fleet_rack(42, 0);
        let b = base.clone().for_fleet_rack(42, 1);
        assert_ne!(a.ecmp_seed, b.ecmp_seed, "racks hash independently");
        assert_eq!(
            a.ecmp_seed,
            base.clone().for_fleet_rack(42, 0).ecmp_seed,
            "derivation is a pure function"
        );
        assert_ne!(
            a.ecmp_seed,
            base.for_fleet_rack(43, 0).ecmp_seed,
            "fleet seed re-keys every rack"
        );
    }
}
