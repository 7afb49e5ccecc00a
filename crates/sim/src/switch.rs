//! The shared-buffer output-queued switch.
//!
//! Models the class of merchant-silicon ToR switch the paper measured:
//!
//! * **Output queueing**: every packet is classified to an egress port on
//!   arrival and waits in that port's queue.
//! * **Shared buffer with pluggable carving**: all ports draw from one
//!   buffer pool; *how* the pool is carved between them is a
//!   [`BufferPolicy`]. The default is
//!   Choudhury–Hahne dynamic thresholds (a port may enqueue while its
//!   queue stays below `alpha * (pool - used)`, the scheme Broadcom-class
//!   ASICs implement — "buffers in our switches are shared and dynamically
//!   carved", §5.1 footnote); static partition, delay-driven sharing
//!   (BShare), and flexible buffering (FB) are the alternatives the
//!   `ext_buffer_policy` experiment sweeps.
//! * **Congestion discards**: admission failures increment per-port discard
//!   counters; there is no corruption loss in the simulator.
//!
//! Every packet movement is reported to the switch's [`CounterSink`], which
//! is where the ASIC counter model (crate `uburst-asic`) plugs in.

use std::cell::RefCell;
use std::rc::Rc;

use crate::bufpolicy::{BufferPolicy, BufferPolicyCfg};
use crate::counters::{CounterSink, SharedSink};
use crate::node::{Ctx, Node, PortId};
use crate::packet::Packet;
use crate::routing::RoutingTable;
use crate::time::Nanos;
use crate::txstage::{AccountAt, TxStage};

/// Static switch parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Number of ports (dense, `0..ports`).
    pub ports: u16,
    /// Shared packet buffer size in bytes. ToR-class ASICs of the paper's
    /// era carried 12–16 MB; the default mirrors that.
    pub buffer_bytes: u64,
    /// How the shared pool is carved between ports. The default is
    /// dynamic thresholding at alpha 1.0 (typical deployments run alpha
    /// in [1/2, 2]); see [`crate::bufpolicy`] for the alternatives.
    pub policy: BufferPolicyCfg,
    /// ECN marking threshold in bytes of egress-queue depth: packets
    /// admitted while the queue holds more than this are CE-marked.
    /// `None` disables marking (the measured network's configuration).
    pub ecn_threshold: Option<u64>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 32,
            buffer_bytes: 12 << 20,
            policy: BufferPolicyCfg::default(),
            ecn_threshold: None,
        }
    }
}

/// Aggregate statistics kept by the switch itself (the per-port counters
/// live in the sink). Used by invariant tests and topology debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames received across all ports.
    pub rx_packets: u64,
    /// Bytes received across all ports.
    pub rx_bytes: u64,
    /// Frames transmitted across all ports.
    pub tx_packets: u64,
    /// Bytes transmitted across all ports.
    pub tx_bytes: u64,
    /// Frames discarded by buffer admission (congestion discards).
    pub dropped_packets: u64,
    /// Bytes discarded by buffer admission.
    pub dropped_bytes: u64,
    /// Packets with no matching route (a topology bug if nonzero).
    pub unroutable: u64,
    /// Packets whose route resolved back out their ingress port (a
    /// routing loop — a table bug if nonzero). Dropped and counted here
    /// rather than bounced back where they came from.
    pub hairpin: u64,
}

/// Buffer-accounting state shared between the switch node and its counter
/// bank's flush hook.
///
/// A frame's TX-side accounting is applied by [`SwitchCore::settle_to`]
/// when the egress [`TxStage`] reports its departure — from the switch's
/// own arrival path (so admission always tests *current* occupancy), from
/// the counter bank before a poll-instant read, and from the simulator at
/// run boundaries. The state lives behind `Rc<RefCell<_>>` so the bank
/// hook can reach it while the node owns it.
struct SwitchCore {
    /// Bytes each port holds in the shared buffer (queued + in flight) —
    /// the hot array: every admission test reads exactly one entry.
    held_bytes: Vec<u64>,
    /// Total bytes currently held in the shared buffer.
    buffered: u64,
    stats: SwitchStats,
    /// The egress queues. A frame holds its buffer until the stage reports
    /// the end of its serialization.
    tx: TxStage,
    /// The carving policy consulted on every admission (built once from
    /// [`SwitchConfig::policy`]).
    policy: Box<dyn BufferPolicy>,
}

impl SwitchCore {
    /// Admission test: may a packet of `size` bytes join egress `port`'s
    /// queue right now? The physical pool bound is enforced here; the
    /// carving question goes to the policy. Pure in the current occupancy
    /// state, which every arrival settles first.
    fn admits(&self, cfg: &SwitchConfig, port: usize, size: u32) -> bool {
        let size = u64::from(size);
        if self.buffered + size > cfg.buffer_bytes {
            return false; // pool exhausted
        }
        self.policy.admit(
            port,
            size,
            &self.held_bytes,
            self.buffered,
            cfg.buffer_bytes,
        )
    }

    /// Applies every departure at or before `now`: releases buffer
    /// occupancy and emits the TX counters. Per-counter adds are
    /// commutative and the buffer level only needs its final value
    /// (departures never raise the peak register — occupancy maxima are
    /// attained at admissions), so one trailing `buffer_level` call per
    /// batch leaves the same cell values as one call per departure.
    fn settle_to(&mut self, now: Nanos, sink: &dyn CounterSink) {
        let any_due = self.tx.settle(now, |port, size| {
            self.held_bytes[port.0 as usize] -= u64::from(size);
            self.buffered -= u64::from(size);
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += u64::from(size);
            sink.count_tx(port, size);
        });
        if any_due {
            sink.buffer_level(self.buffered);
        }
    }
}

/// A shared-buffer switch node. See the module docs for the model.
pub struct Switch {
    cfg: SwitchConfig,
    routing: RoutingTable,
    sink: SharedSink,
    /// Occupancy + statistics, shared with the sink's flush hook.
    core: Rc<RefCell<SwitchCore>>,
}

impl Switch {
    /// A switch with the given configuration, routes, and counter sink.
    ///
    /// Registers a flush hook with the sink so counter banks that are read
    /// mid-run can settle this switch's pending departures before a read
    /// (a no-op for sinks that ignore hooks).
    pub fn new(cfg: SwitchConfig, routing: RoutingTable, sink: SharedSink) -> Self {
        assert!(cfg.ports > 0 && cfg.buffer_bytes > 0 && cfg.policy.is_valid());
        let n = cfg.ports as usize;
        let core = Rc::new(RefCell::new(SwitchCore {
            held_bytes: vec![0; n],
            buffered: 0,
            stats: SwitchStats::default(),
            tx: TxStage::new(n, AccountAt::End, None),
            policy: cfg.policy.build(n),
        }));
        let hook_core = Rc::clone(&core);
        sink.register_flush(Box::new(move |sink, now| {
            hook_core.borrow_mut().settle_to(now, sink);
        }));
        Switch {
            cfg,
            routing,
            sink,
            core,
        }
    }

    /// Aggregate forwarding statistics.
    pub fn stats(&self) -> SwitchStats {
        self.core.borrow().stats
    }

    /// The switch's static configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Current shared-buffer occupancy in bytes.
    pub fn buffered_bytes(&self) -> u64 {
        self.core.borrow().buffered
    }

    /// Bytes held by one egress port (queued + in flight).
    pub fn port_held_bytes(&self, port: PortId) -> u64 {
        self.core.borrow().held_bytes[port.0 as usize]
    }

    #[cfg(test)]
    fn admits(&self, port: usize, size: u32) -> bool {
        self.core.borrow().admits(&self.cfg, port, size)
    }
}

impl Node for Switch {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, ingress: PortId, pkt: Packet) {
        let now = ctx.now();
        let mut core = self.core.borrow_mut();
        // Release every departure due by now first, so the admission test
        // below sees current occupancy.
        core.settle_to(now, &*self.sink);
        core.stats.rx_packets += 1;
        core.stats.rx_bytes += u64::from(pkt.size);
        self.sink.count_rx(ingress, pkt.size);

        let Some(egress) = self.routing.lookup(pkt.dst, pkt.ecmp_key(), now) else {
            core.stats.unroutable += 1;
            return;
        };
        if egress == ingress {
            // A route that resolves back out the ingress port is a table
            // bug (one-armed routing is not modelled). Bouncing the frame
            // back where it came from would silently forward garbage in
            // release builds — drop it and count it as its own class so
            // the loop is visible in the stats.
            core.stats.hairpin += 1;
            return;
        }
        let e = egress.0 as usize;

        if !core.admits(&self.cfg, e, pkt.size) {
            core.stats.dropped_packets += 1;
            core.stats.dropped_bytes += u64::from(pkt.size);
            self.sink.count_drop(egress, pkt.size);
            return;
        }

        core.buffered += u64::from(pkt.size);
        self.sink.buffer_level(core.buffered);
        let mut pkt = pkt;
        if let Some(k) = self.cfg.ecn_threshold {
            // Mark on the queue depth *including* the arriving frame, so
            // the exact frame that pushes the queue past K is CE-marked.
            // (Testing the pre-admission depth lets a queue hovering at K
            // admit unmarked traffic indefinitely — one frame of bias per
            // crossing, which a DCTCP-style sender never hears about.)
            if core.held_bytes[e] + u64::from(pkt.size) > k && pkt.is_data() {
                pkt.ce = true;
            }
        }
        core.held_bytes[e] += u64::from(pkt.size);
        core.tx.enqueue(ctx, egress, pkt);
    }

    fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let mut core = self.core.borrow_mut();
        core.tx.on_tx_complete(ctx, port);
        core.settle_to(ctx.now(), &*self.sink);
    }

    fn settle_lazy(&mut self, now: Nanos) {
        self.core.borrow_mut().settle_to(now, &*self.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::null_sink;
    use crate::link::LinkSpec;
    use crate::node::NodeId;
    use crate::packet::{FlowId, PacketKind, MTU_FRAME};
    use crate::routing::Route;
    use crate::sim::Simulator;
    use crate::time::Nanos;

    /// Sink node that counts arrivals (and their CE marks, in order).
    struct SinkHost {
        rx: u64,
        rx_bytes: u64,
        ce_flags: Vec<bool>,
    }
    impl SinkHost {
        fn new() -> Self {
            SinkHost {
                rx: 0,
                rx_bytes: 0,
                ce_flags: Vec::new(),
            }
        }
    }
    impl Node for SinkHost {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            self.rx += 1;
            self.rx_bytes += u64::from(pkt.size);
            self.ce_flags.push(pkt.ce);
        }
    }

    /// Source node that blasts `n` packets to `dst` when its timer fires.
    struct Blaster {
        dst: NodeId,
        n: u32,
        size: u32,
        /// Send transport data segments (ECN-markable) instead of raw
        /// datagrams.
        data: bool,
    }
    impl Node for Blaster {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            // Model an unpaced NIC: hand the whole burst to the wire
            // back-to-back by scheduling each packet's arrival directly.
            // (Bypasses NIC queueing deliberately; this is a switch test.)
            let link = ctx.wired(PortId(0));
            let mut t = ctx.now();
            for i in 0..self.n {
                let kind = if self.data {
                    PacketKind::Data {
                        seq: i,
                        total: self.n,
                        flow_bytes: 0,
                        tag: 0,
                        retx: false,
                    }
                } else {
                    PacketKind::Raw { tag: 0 }
                };
                let pkt = Packet {
                    flow: FlowId(u64::from(i)),
                    kind,
                    src: ctx.node(),
                    dst: self.dst,
                    size: self.size,
                    created: ctx.now(),
                    ce: false,
                };
                t += link.spec.ser_time(self.size);
                // Serialize sequentially on our access link.
                ctx.schedule_arrival(t + link.spec.propagation, link.peer.0, link.peer.1, pkt);
            }
        }
    }

    /// Two senders fan in to one 10G receiver through the switch.
    fn fan_in_setup(
        buffer_bytes: u64,
        alpha: f64,
        burst: u32,
    ) -> (Simulator, NodeId, NodeId, SwitchStats) {
        let mut sim = Simulator::new();
        let recv = sim.add_node(Box::new(SinkHost::new()));
        let s1 = sim.add_node(Box::new(Blaster {
            dst: recv,
            n: burst,
            size: MTU_FRAME,
            data: false,
        }));
        let s2 = sim.add_node(Box::new(Blaster {
            dst: recv,
            n: burst,
            size: MTU_FRAME,
            data: false,
        }));

        let mut routing = RoutingTable::new(0);
        routing.set_route(recv, Route::Port(PortId(0)));
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig {
                ports: 3,
                buffer_bytes,
                policy: BufferPolicyCfg::dt(alpha),
                ecn_threshold: None,
            },
            routing,
            null_sink(),
        )));

        let spec = LinkSpec::gbps(10.0, Nanos(500));
        sim.connect((recv, PortId(0)), (sw, PortId(0)), spec);
        sim.connect((s1, PortId(0)), (sw, PortId(1)), spec);
        sim.connect((s2, PortId(0)), (sw, PortId(2)), spec);

        sim.schedule_timer(Nanos(0), s1, 0);
        sim.schedule_timer(Nanos(0), s2, 0);
        sim.run_until(Nanos::from_millis(100));

        let stats = sim.node::<Switch>(sw).stats();
        (sim, recv, sw, stats)
    }

    #[test]
    fn forwards_everything_with_big_buffer() {
        let (sim, recv, sw, stats) = fan_in_setup(64 << 20, 8.0, 200);
        assert_eq!(stats.rx_packets, 400);
        assert_eq!(stats.tx_packets, 400);
        assert_eq!(stats.dropped_packets, 0);
        assert_eq!(stats.unroutable, 0);
        assert_eq!(sim.node::<SinkHost>(recv).rx, 400);
        assert_eq!(sim.node::<Switch>(sw).buffered_bytes(), 0);
    }

    #[test]
    fn conservation_rx_equals_tx_plus_drops() {
        let (sim, recv, _sw, stats) = fan_in_setup(64 * 1024, 1.0, 500);
        assert_eq!(
            stats.rx_packets,
            stats.tx_packets + stats.dropped_packets + stats.unroutable + stats.hairpin
        );
        assert_eq!(stats.rx_bytes, stats.tx_bytes + stats.dropped_bytes);
        assert!(stats.dropped_packets > 0, "tiny buffer must drop");
        assert_eq!(sim.node::<SinkHost>(recv).rx, stats.tx_packets);
    }

    #[test]
    fn smaller_alpha_drops_more() {
        let (_, _, _, loose) = fan_in_setup(1 << 20, 4.0, 500);
        let (_, _, _, tight) = fan_in_setup(1 << 20, 0.25, 500);
        assert!(
            tight.dropped_packets > loose.dropped_packets,
            "alpha=0.25 dropped {} <= alpha=4 dropped {}",
            tight.dropped_packets,
            loose.dropped_packets
        );
    }

    #[test]
    fn unroutable_is_counted_not_fatal() {
        let mut sim = Simulator::new();
        let recv = sim.add_node(Box::new(SinkHost::new()));
        let src = sim.add_node(Box::new(Blaster {
            dst: NodeId(999), // not in the routing table
            n: 3,
            size: 100,
            data: false,
        }));
        let routing = RoutingTable::new(0); // empty, no default
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig::default(),
            routing,
            null_sink(),
        )));
        let spec = LinkSpec::gbps(10.0, Nanos(500));
        sim.connect((recv, PortId(0)), (sw, PortId(0)), spec);
        sim.connect((src, PortId(0)), (sw, PortId(1)), spec);
        sim.schedule_timer(Nanos(0), src, 0);
        sim.run_until(Nanos::from_millis(1));
        assert_eq!(sim.node::<Switch>(sw).stats().unroutable, 3);
        assert_eq!(sim.node::<SinkHost>(recv).rx, 0);
    }

    #[test]
    fn dt_threshold_shrinks_as_buffer_fills() {
        // Direct unit test of the admission rule.
        let mut routing = RoutingTable::new(0);
        routing.set_route(NodeId(0), Route::Port(PortId(0)));
        let sw = Switch::new(
            SwitchConfig {
                ports: 2,
                buffer_bytes: 10_000,
                policy: BufferPolicyCfg::dt(0.5),
                ecn_threshold: None,
            },
            routing,
            null_sink(),
        );
        // Empty buffer: threshold = 0.5 * 10_000 = 5_000.
        assert!(sw.admits(0, 4_000));
        assert!(!sw.admits(0, 6_000));
    }

    #[test]
    fn hairpin_routes_are_dropped_and_counted() {
        // A deliberately bad routing table: the route to `recv` points
        // back out the port the traffic arrives on. Release builds used
        // to bounce these frames back out the ingress; they must be
        // dropped and counted in their own class instead.
        let mut sim = Simulator::new();
        let recv = sim.add_node(Box::new(SinkHost::new()));
        let src = sim.add_node(Box::new(Blaster {
            dst: recv,
            n: 5,
            size: 100,
            data: false,
        }));
        let mut routing = RoutingTable::new(0);
        routing.set_route(recv, Route::Port(PortId(1))); // = src's ingress
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig::default(),
            routing,
            null_sink(),
        )));
        let spec = LinkSpec::gbps(10.0, Nanos(500));
        sim.connect((recv, PortId(0)), (sw, PortId(0)), spec);
        sim.connect((src, PortId(0)), (sw, PortId(1)), spec);
        sim.schedule_timer(Nanos(0), src, 0);
        sim.run_until(Nanos::from_millis(1));
        let stats = sim.node::<Switch>(sw).stats();
        assert_eq!(stats.hairpin, 5);
        assert_eq!(stats.rx_packets, 5);
        assert_eq!(stats.tx_packets, 0, "hairpin frames must not forward");
        assert_eq!(
            stats.rx_packets,
            stats.tx_packets + stats.dropped_packets + stats.unroutable + stats.hairpin
        );
        assert_eq!(sim.node::<SinkHost>(recv).rx, 0);
    }

    /// One sender's frames through a slow egress with an ECN threshold of
    /// 3 MTU: queue depth at each admission is 0, 1, 2, 3, 4, 5 frames,
    /// so the 4th frame is the one that pushes the queue past K.
    fn ecn_fan_in(hybrid: bool) -> Vec<bool> {
        let mtu = u64::from(MTU_FRAME);
        let mut sim = Simulator::new();
        sim.set_hybrid(hybrid);
        let recv = sim.add_node(Box::new(SinkHost::new()));
        let src = sim.add_node(Box::new(Blaster {
            dst: recv,
            n: 6,
            size: MTU_FRAME,
            data: true, // only data segments are CE-markable
        }));
        let mut routing = RoutingTable::new(0);
        routing.set_route(recv, Route::Port(PortId(0)));
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig {
                ports: 2,
                buffer_bytes: 64 << 20, // no drops
                policy: BufferPolicyCfg::dt(8.0),
                ecn_threshold: Some(3 * mtu),
            },
            routing,
            null_sink(),
        )));
        // Egress ten times slower than ingress: all six frames are
        // admitted before the first departs, so the queue at admission i
        // holds exactly i-1 earlier frames.
        sim.connect(
            (recv, PortId(0)),
            (sw, PortId(0)),
            LinkSpec::gbps(1.0, Nanos(500)),
        );
        sim.connect(
            (src, PortId(0)),
            (sw, PortId(1)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
        sim.schedule_timer(Nanos(0), src, 0);
        sim.run_until(Nanos::from_millis(1));
        let flags = sim.node::<SinkHost>(recv).ce_flags.clone();
        assert_eq!(flags.len(), 6, "all six frames must arrive");
        flags
    }

    #[test]
    fn ecn_marks_the_exact_threshold_crossing_frame() {
        for hybrid in [false, true] {
            let flags = ecn_fan_in(hybrid);
            // Frame 4 takes the queue from 3 MTU to 4 MTU > K: it is the
            // crossing frame and must carry the first CE mark (the old
            // pre-admission test marked frame 5 instead).
            assert_eq!(
                flags,
                vec![false, false, false, true, true, true],
                "hybrid={hybrid}: first CE mark must be the crossing frame"
            );
        }
    }
}
