//! The simulator driver.
//!
//! Owns the nodes, the wiring, the packet arena, and the event calendar,
//! and runs the discrete-event loop one event at a time: each
//! [`EventQueue::pop_until`] yields the next event in exact `(time, seq)`
//! order (pinned by `tests/calendar_equivalence.rs`), including events a
//! handler scheduled a moment earlier.

use crate::arena::PacketArena;
use crate::events::{Event, EventKind, EventQueue};
use crate::link::{LinkSpec, Wiring};
use crate::node::{Ctx, Node, NodeId, PortId};
use crate::time::Nanos;
use std::any::Any;

/// A discrete-event simulation instance.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    wiring: Wiring,
    queue: EventQueue,
    arena: PacketArena,
    now: Nanos,
    dispatched: u64,
    /// Lazy transmit stages (see [`crate::txstage`]): no `TxComplete`
    /// events, accounting settled at observation points. Fixed before the
    /// first event is dispatched.
    hybrid: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// An empty simulation at time zero, in the process-default execution
    /// mode (`UBURST_HYBRID`, hybrid fast-forward unless disabled).
    pub fn new() -> Self {
        Self::with_event_capacity(1024)
    }

    /// An empty simulation whose event calendar is pre-sized for
    /// `event_capacity` pending events (see [`EventQueue::with_capacity`]).
    /// Scenario builders that can estimate their in-flight event count
    /// should prefer this over [`Simulator::new`].
    pub fn with_event_capacity(event_capacity: usize) -> Self {
        Simulator {
            nodes: Vec::new(),
            wiring: Wiring::new(),
            queue: EventQueue::with_capacity(event_capacity),
            arena: PacketArena::with_capacity(event_capacity / 2),
            now: Nanos::ZERO,
            dispatched: 0,
            hybrid: crate::txstage::hybrid_default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Whether this simulation runs in hybrid fast-forward mode.
    pub fn hybrid(&self) -> bool {
        self.hybrid
    }

    /// Overrides the execution mode (hybrid fast-forward vs. full packet
    /// mode). The mode is part of the simulation's identity and must not
    /// flip mid-run.
    ///
    /// # Panics
    /// Panics if any event has already been dispatched.
    pub fn set_hybrid(&mut self, hybrid: bool) {
        assert_eq!(self.dispatched, 0, "execution mode must not change mid-run");
        self.hybrid = hybrid;
    }

    /// Number of events dispatched so far (for benchmarks and sanity checks).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Packet-arena allocation/reuse statistics.
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.arena.stats()
    }

    /// Packets currently parked in the arena (in flight between a
    /// `start_tx` and their delivery). Zero once the calendar drains.
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        id
    }

    /// Wires `a` and `b` together with a symmetric link.
    pub fn connect(&mut self, a: (NodeId, PortId), b: (NodeId, PortId), spec: LinkSpec) {
        self.check_node(a.0);
        self.check_node(b.0);
        self.wiring.connect(a, b, spec);
    }

    fn check_node(&self, id: NodeId) {
        assert!((id.0 as usize) < self.nodes.len(), "unknown node {:?}", id);
    }

    /// Read-only access to the wiring (used by analysis helpers that need
    /// link capacities to turn byte counts into utilization).
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }

    /// Schedules a timer for `node` at absolute time `at`. This is how
    /// external code kicks off node activity before/while the loop runs.
    pub fn schedule_timer(&mut self, at: Nanos, node: NodeId, token: u64) {
        assert!(at >= self.now, "timer scheduled in the past");
        self.check_node(node);
        self.queue.schedule(at, EventKind::Timer { node, token });
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the id is unknown or the type does not match.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        let node = self.nodes[id.0 as usize]
            .as_deref()
            .expect("node is being dispatched");
        (node as &dyn Any)
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrows a node downcast to its concrete type.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node = self.nodes[id.0 as usize]
            .as_deref_mut()
            .expect("node is being dispatched");
        (node as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Runs until the calendar is exhausted or simulated time reaches
    /// `until` (inclusive). Returns the number of events dispatched by this
    /// call.
    ///
    /// Events are popped and dispatched one at a time, so an event a
    /// handler schedules is visible to the very next pop and dispatch
    /// follows `(time, seq)` order exactly.
    pub fn run_until(&mut self, until: Nanos) -> u64 {
        let start = self.dispatched;
        while let Some(ev) = self.queue.pop_until(until) {
            self.step(ev);
        }
        // The loop stopped because no event fires at or before `until`;
        // advance the clock to the horizon so repeated calls line up.
        if self.now < until && until != Nanos::MAX {
            self.now = until;
        }
        // Settle every transmit stage up to the stop time, so callers
        // reading node state after this returns see the same values under
        // either engine (see `crate::txstage`).
        for n in self.nodes.iter_mut().flatten() {
            n.settle_lazy(self.now);
        }
        self.dispatched - start
    }

    /// Runs for `span` more simulated time.
    pub fn run_for(&mut self, span: Nanos) -> u64 {
        self.run_until(self.now + span)
    }

    /// Advances the clock to `ev` and dispatches it.
    fn step(&mut self, ev: Event) {
        assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.dispatched += 1;
        match ev.kind {
            EventKind::PacketArrive { node, port, pkt } => {
                let pkt = self.arena.take(pkt);
                self.dispatch(node, |n, ctx| n.on_packet(ctx, port, pkt));
            }
            EventKind::TxComplete { node, port } => {
                self.dispatch(node, |n, ctx| n.on_tx_complete(ctx, port));
            }
            EventKind::Timer { node, token } => {
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
            }
        }
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Ctx<'_>),
    {
        // Take the node out so it can receive `&mut self` while the context
        // borrows the rest of the simulator. Events for unknown nodes are a
        // bug in topology construction, so panic loudly.
        let mut n = self.nodes[node.0 as usize]
            .take()
            .unwrap_or_else(|| panic!("event for node {node:?} during its own dispatch"));
        let mut ctx = Ctx {
            now: self.now,
            node,
            queue: &mut self.queue,
            wiring: &self.wiring,
            arena: &mut self.arena,
            hybrid: self.hybrid,
        };
        f(n.as_mut(), &mut ctx);
        self.nodes[node.0 as usize] = Some(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet, PacketKind};

    /// Echoes raw packets back and counts everything it sees.
    struct Echo {
        rx: u32,
        timers: Vec<u64>,
        tx_completes: u32,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                rx: 0,
                timers: Vec::new(),
                tx_completes: 0,
            }
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
            self.rx += 1;
        }
        fn on_tx_complete(&mut self, _ctx: &mut Ctx<'_>, _port: PortId) {
            self.tx_completes += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push(token);
            if token == 1 {
                // Send one packet to the peer on port 0.
                ctx.start_tx(
                    PortId(0),
                    Packet {
                        flow: FlowId(0),
                        kind: PacketKind::Raw { tag: 7 },
                        src: ctx.node(),
                        dst: NodeId(1),
                        size: 1000,
                        created: ctx.now(),
                        ce: false,
                    },
                );
            }
        }
    }

    #[test]
    fn end_to_end_packet_delivery() {
        let mut sim = Simulator::new();
        let a = sim.add_node(Box::new(Echo::new()));
        let b = sim.add_node(Box::new(Echo::new()));
        sim.connect(
            (a, PortId(0)),
            (b, PortId(0)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
        sim.schedule_timer(Nanos(100), a, 1);
        let events = sim.run_until(Nanos::from_micros(100));
        // Timer + TxComplete + PacketArrive.
        assert_eq!(events, 3);
        assert_eq!(sim.node::<Echo>(a).tx_completes, 1);
        assert_eq!(sim.node::<Echo>(b).rx, 1);
    }

    #[test]
    fn clock_advances_to_horizon() {
        let mut sim = Simulator::new();
        sim.run_until(Nanos::from_millis(5));
        assert_eq!(sim.now(), Nanos::from_millis(5));
        sim.run_for(Nanos::from_millis(3));
        assert_eq!(sim.now(), Nanos::from_millis(8));
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        let mut sim = Simulator::new();
        let a = sim.add_node(Box::new(Echo::new()));
        sim.schedule_timer(Nanos(300), a, 30);
        sim.schedule_timer(Nanos(100), a, 10);
        sim.schedule_timer(Nanos(200), a, 20);
        sim.run_until(Nanos::MAX);
        assert_eq!(sim.node::<Echo>(a).timers, vec![10, 20, 30]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulator::new();
        let a = sim.add_node(Box::new(Echo::new()));
        sim.schedule_timer(Nanos(100), a, 0);
        sim.schedule_timer(Nanos(5000), a, 0);
        assert_eq!(sim.run_until(Nanos(1000)), 1);
        assert_eq!(sim.run_until(Nanos(10_000)), 1);
    }

    #[test]
    #[should_panic(expected = "node type mismatch")]
    fn downcast_mismatch_panics() {
        struct Other;
        impl Node for Other {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        }
        let mut sim = Simulator::new();
        let a = sim.add_node(Box::new(Other));
        let _ = sim.node::<Echo>(a);
    }
}
