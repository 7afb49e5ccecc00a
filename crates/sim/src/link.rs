//! Point-to-point links.
//!
//! A link is two directed half-links; each half has a bandwidth and a
//! propagation delay. The simulator models store-and-forward: a packet's
//! transfer across a link takes its serialization time (which the sender
//! spends busy) plus the propagation delay (during which the sender is
//! already free to transmit the next packet).

use crate::node::{NodeId, PortId};
use crate::time::Nanos;

/// Per-frame overhead bytes that occupy the wire but no buffer: Ethernet
/// preamble (8) + inter-frame gap (12).
pub const WIRE_OVERHEAD_BYTES: u32 = 20;

/// One direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: Nanos,
}

impl LinkSpec {
    /// Convenience constructor from gigabits per second.
    pub fn gbps(gbps: f64, propagation: Nanos) -> Self {
        assert!(gbps > 0.0);
        LinkSpec {
            bandwidth_bps: (gbps * 1e9) as u64,
            propagation,
        }
    }

    /// Time to put `bytes` of frame (plus preamble/IFG) on the wire.
    pub fn ser_time(&self, bytes: u32) -> Nanos {
        // bits * 1e9 / bps, rounded up so a busy port never "catches up"
        // beyond line rate. Every frame-sized input fits the u64 path;
        // u128 only backs up the (unreachable in practice) huge sizes.
        let bits = u64::from(bytes + WIRE_OVERHEAD_BYTES) * 8;
        match bits.checked_mul(1_000_000_000) {
            Some(num) => Nanos(num.div_ceil(self.bandwidth_bps)),
            None => {
                Nanos((bits as u128 * 1_000_000_000).div_ceil(self.bandwidth_bps as u128) as u64)
            }
        }
    }
}

/// A directed half-link from some (node, port) to `peer`.
#[derive(Debug, Clone, Copy)]
pub struct DirectedLink {
    /// Bandwidth and propagation of this direction.
    pub spec: LinkSpec,
    /// The (node, port) on the far end.
    pub peer: (NodeId, PortId),
}

/// The wiring table: who is connected to whom, indexed by (node, port).
#[derive(Debug, Default)]
pub struct Wiring {
    // links[node.0][port.0] — ports are dense and small, so nested Vecs beat
    // a hash map on the per-packet fast path.
    links: Vec<Vec<Option<DirectedLink>>>,
}

impl Wiring {
    /// An empty wiring table.
    pub fn new() -> Self {
        Wiring { links: Vec::new() }
    }

    /// Installs a bidirectional link with symmetric spec.
    pub fn connect(&mut self, a: (NodeId, PortId), b: (NodeId, PortId), spec: LinkSpec) {
        self.connect_asymmetric(a, b, spec, spec);
    }

    /// Installs a bidirectional link with per-direction specs
    /// (`ab` is used for traffic from `a` to `b`).
    pub fn connect_asymmetric(
        &mut self,
        a: (NodeId, PortId),
        b: (NodeId, PortId),
        ab: LinkSpec,
        ba: LinkSpec,
    ) {
        self.set(a, DirectedLink { spec: ab, peer: b });
        self.set(b, DirectedLink { spec: ba, peer: a });
    }

    fn set(&mut self, from: (NodeId, PortId), link: DirectedLink) {
        let (n, p) = (from.0 .0 as usize, from.1 .0 as usize);
        if self.links.len() <= n {
            self.links.resize_with(n + 1, Vec::new);
        }
        let ports = &mut self.links[n];
        if ports.len() <= p {
            ports.resize(p + 1, None);
        }
        assert!(
            ports[p].is_none(),
            "port {p} of node {n} is already connected"
        );
        ports[p] = Some(link);
    }

    /// The outgoing half-link of `(node, port)`, if wired.
    pub fn link(&self, node: NodeId, port: PortId) -> Option<&DirectedLink> {
        self.links
            .get(node.0 as usize)?
            .get(port.0 as usize)?
            .as_ref()
    }

    /// Number of wired ports on a node.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.links
            .get(node.0 as usize)
            .map_or(0, |ps| ps.iter().filter(|l| l.is_some()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ser_time_matches_line_rate() {
        let l = LinkSpec::gbps(10.0, Nanos(500));
        // 1500B frame + 20B overhead = 12160 bits at 10Gbps = 1216ns.
        assert_eq!(l.ser_time(1500), Nanos(1216));
        // 64B + 20B = 672 bits = 67.2ns, rounded up.
        assert_eq!(l.ser_time(64), Nanos(68));
    }

    #[test]
    fn ser_time_scales_with_bandwidth() {
        let slow = LinkSpec::gbps(10.0, Nanos::ZERO);
        let fast = LinkSpec::gbps(40.0, Nanos::ZERO);
        let b = 1500;
        assert_eq!(slow.ser_time(b).as_nanos(), fast.ser_time(b).as_nanos() * 4);
    }

    #[test]
    fn wiring_round_trip() {
        let mut w = Wiring::new();
        let spec = LinkSpec::gbps(10.0, Nanos(100));
        w.connect((NodeId(0), PortId(0)), (NodeId(1), PortId(3)), spec);
        let ab = w.link(NodeId(0), PortId(0)).unwrap();
        assert_eq!(ab.peer, (NodeId(1), PortId(3)));
        let ba = w.link(NodeId(1), PortId(3)).unwrap();
        assert_eq!(ba.peer, (NodeId(0), PortId(0)));
        assert!(w.link(NodeId(0), PortId(1)).is_none());
        assert!(w.link(NodeId(2), PortId(0)).is_none());
        assert_eq!(w.port_count(NodeId(0)), 1);
        assert_eq!(w.port_count(NodeId(9)), 0);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut w = Wiring::new();
        let spec = LinkSpec::gbps(10.0, Nanos(100));
        w.connect((NodeId(0), PortId(0)), (NodeId(1), PortId(0)), spec);
        w.connect((NodeId(0), PortId(0)), (NodeId(2), PortId(0)), spec);
    }
}
