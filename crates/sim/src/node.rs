//! Nodes and the dispatch context.
//!
//! Everything attached to the network — switches, hosts, the telemetry
//! poller running on a switch CPU — is a [`Node`]. The simulator owns the
//! nodes and dispatches events to them through a [`Ctx`], which exposes the
//! clock, timer scheduling, and packet transmission.

use std::any::Any;

use crate::arena::PacketArena;
use crate::events::{EventKind, EventQueue};
use crate::link::{DirectedLink, Wiring};
use crate::packet::Packet;
use crate::time::Nanos;

/// Identifies a node in the simulation. Assigned densely by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a port on a node. Port numbering is per-node and dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

/// Behaviour attached to a [`NodeId`].
///
/// All methods take a [`Ctx`] giving access to the clock and scheduling.
/// Default implementations ignore the event, so leaf types only implement
/// what they react to.
pub trait Node: Any {
    /// A packet has fully arrived on ingress `port`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet);

    /// The serialization of the packet this node was transmitting on
    /// egress `port` has completed; the port is free again.
    fn on_tx_complete(&mut self, _ctx: &mut Ctx<'_>, _port: PortId) {}

    /// A timer previously set through [`Ctx::timer_in`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Applies any deferred transmit accounting up to `now` (see
    /// [`crate::txstage`]). The simulator calls this on every node when
    /// [`run_until`](crate::sim::Simulator::run_until) returns, so external
    /// readers of node state (statistics, queue depths) observe the same
    /// values under either engine. Nodes without a transmit stage ignore
    /// it.
    fn settle_lazy(&mut self, _now: Nanos) {}
}

/// Dispatch context handed to a node while it handles an event.
pub struct Ctx<'a> {
    pub(crate) now: Nanos,
    pub(crate) node: NodeId,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) wiring: &'a Wiring,
    pub(crate) arena: &'a mut PacketArena,
    pub(crate) hybrid: bool,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Whether transmit stages evaluate their drain lazily (see
    /// [`crate::txstage`], its only reader). Fixed for the lifetime of a
    /// simulation.
    pub(crate) fn hybrid(&self) -> bool {
        self.hybrid
    }

    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Schedules `on_timer(token)` for this node after `delay`.
    pub fn timer_in(&mut self, delay: Nanos, token: u64) {
        self.timer_at(self.now + delay, token);
    }

    /// Schedules `on_timer(token)` for this node at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn timer_at(&mut self, at: Nanos, token: u64) {
        assert!(at >= self.now, "timer scheduled in the past");
        self.queue.schedule(
            at,
            EventKind::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// The outgoing half-link on `port`, if wired.
    pub fn link(&self, port: PortId) -> Option<&DirectedLink> {
        self.wiring.link(self.node, port)
    }

    /// The outgoing half-link on `port`.
    ///
    /// # Panics
    /// Panics if `port` is not wired.
    pub fn wired(&self, port: PortId) -> DirectedLink {
        *self
            .link(port)
            .unwrap_or_else(|| panic!("node {:?} port {:?} is not wired", self.node, port))
    }

    /// Begins transmitting `pkt` on `port`.
    ///
    /// Schedules the local `on_tx_complete` after the serialization time and
    /// the peer's `on_packet` after serialization + propagation
    /// (store-and-forward). Returns the serialization time so the caller can
    /// account for port busy time.
    ///
    /// The caller is responsible for only calling this when the port is idle
    /// — ports have no hidden hardware queue; queueing is the node's job.
    ///
    /// # Panics
    /// Panics if `port` is not wired.
    pub fn start_tx(&mut self, port: PortId, pkt: Packet) -> Nanos {
        let link = self.wired(port);
        let ser = link.spec.ser_time(pkt.size);
        self.queue.schedule(
            self.now + ser,
            EventKind::TxComplete {
                node: self.node,
                port,
            },
        );
        let (peer_node, peer_port) = link.peer;
        self.schedule_arrival(
            self.now + ser + link.spec.propagation,
            peer_node,
            peer_port,
            pkt,
        );
        ser
    }

    /// Schedules `pkt` to arrive at `node` on ingress `port` at absolute
    /// time `at`, parking the payload in the simulator's packet arena.
    ///
    /// [`Ctx::start_tx`] is the store-and-forward path built on this; test
    /// traffic generators that model their own serialization discipline
    /// call it directly.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_arrival(&mut self, at: Nanos, node: NodeId, port: PortId, pkt: Packet) {
        assert!(at >= self.now, "arrival scheduled in the past");
        let pkt = self.arena.alloc(pkt);
        self.queue
            .schedule(at, EventKind::PacketArrive { node, port, pkt });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::packet::{FlowId, PacketKind};

    fn ctx_fixture() -> (EventQueue, Wiring) {
        let mut wiring = Wiring::new();
        wiring.connect(
            (NodeId(0), PortId(0)),
            (NodeId(1), PortId(0)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
        (EventQueue::new(), wiring)
    }

    fn raw_packet(size: u32) -> Packet {
        Packet {
            flow: FlowId(1),
            kind: PacketKind::Raw { tag: 0 },
            src: NodeId(0),
            dst: NodeId(1),
            size,
            created: Nanos::ZERO,
            ce: false,
        }
    }

    #[test]
    fn start_tx_schedules_both_events() {
        let (mut queue, wiring) = ctx_fixture();
        let mut arena = PacketArena::new();
        let mut ctx = Ctx {
            now: Nanos(1000),
            node: NodeId(0),
            queue: &mut queue,
            wiring: &wiring,
            arena: &mut arena,
            hybrid: false,
        };
        let ser = ctx.start_tx(PortId(0), raw_packet(1500));
        assert_eq!(ser, Nanos(1216));

        // First event: local TxComplete at now + ser.
        let e1 = queue.pop_until(Nanos::MAX).unwrap();
        assert_eq!(e1.time, Nanos(2216));
        assert!(matches!(
            e1.kind,
            EventKind::TxComplete {
                node: NodeId(0),
                port: PortId(0)
            }
        ));

        // Second: arrival at peer after propagation, payload in the arena.
        let e2 = queue.pop_until(Nanos::MAX).unwrap();
        assert_eq!(e2.time, Nanos(2716));
        match e2.kind {
            EventKind::PacketArrive {
                node: NodeId(1),
                port: PortId(0),
                pkt,
            } => assert_eq!(arena.take(pkt).size, 1500),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    #[should_panic(expected = "not wired")]
    fn start_tx_on_unwired_port_panics() {
        let (mut queue, wiring) = ctx_fixture();
        let mut arena = PacketArena::new();
        let mut ctx = Ctx {
            now: Nanos::ZERO,
            node: NodeId(0),
            queue: &mut queue,
            wiring: &wiring,
            arena: &mut arena,
            hybrid: false,
        };
        ctx.start_tx(PortId(7), raw_packet(100));
    }

    #[test]
    fn timers_carry_token() {
        let (mut queue, wiring) = ctx_fixture();
        let mut arena = PacketArena::new();
        let mut ctx = Ctx {
            now: Nanos(10),
            node: NodeId(0),
            queue: &mut queue,
            wiring: &wiring,
            arena: &mut arena,
            hybrid: false,
        };
        ctx.timer_in(Nanos(90), 42);
        let e = queue.pop_until(Nanos::MAX).unwrap();
        assert_eq!(e.time, Nanos(100));
        assert!(matches!(
            e.kind,
            EventKind::Timer {
                node: NodeId(0),
                token: 42
            }
        ));
    }
}
