//! Host NIC model.
//!
//! A host's NIC owns one egress port and a finite transmit queue. The
//! transport hands it packets in window-sized batches, which the NIC
//! serializes back-to-back — exactly the segmentation-offload behaviour the
//! paper names as a defeater of TCP pacing (§7, "Implications for pacing").
//! An optional token-bucket pacer models the hardware/software pacing
//! proposals the paper points to.

use crate::node::{Ctx, PortId};
use crate::packet::Packet;
use crate::time::Nanos;
use crate::txstage::{AccountAt, TxStage};

/// NIC parameters.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Which local port the NIC drives.
    pub port: PortId,
    /// Transmit queue limit in bytes (qdisc + ring); drops beyond it.
    pub queue_limit_bytes: u64,
    /// Optional pacing rate in bits/sec. `None` sends at line rate
    /// back-to-back (the production default the paper observed).
    pub pace_bps: Option<u64>,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            port: PortId(0),
            queue_limit_bytes: 1 << 20,
            pace_bps: None,
        }
    }
}

/// Timer token the NIC uses for pacing gaps. Hosts embedding a NIC must
/// route this token to [`HostNic::on_timer`].
pub const NIC_PACE_TOKEN: u64 = u64::MAX - 1;

/// The NIC state machine. Embed in a host node; forward `on_tx_complete`
/// (and `on_timer` for [`NIC_PACE_TOKEN`]) to it, and `settle_lazy` to
/// [`HostNic::settle_to`].
#[derive(Debug)]
pub struct HostNic {
    cfg: NicConfig,
    /// The transmit ring. A frame counts toward `queued_bytes` from
    /// [`Self::send`] until the stage reports its serialization start.
    tx: TxStage,
    queued_bytes: u64,
    /// Packets dropped at the local queue limit.
    pub dropped: u64,
    /// Packets handed to the wire.
    pub sent: u64,
    /// Bytes handed to the wire.
    pub sent_bytes: u64,
}

impl HostNic {
    /// An idle NIC with the given configuration.
    pub fn new(cfg: NicConfig) -> Self {
        HostNic {
            cfg,
            tx: TxStage::new(cfg.port.0 as usize + 1, AccountAt::Start, cfg.pace_bps),
            queued_bytes: 0,
            dropped: 0,
            sent: 0,
            sent_bytes: 0,
        }
    }

    /// The NIC's configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Bytes currently waiting in the transmit queue.
    pub fn queue_depth_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Accounts every frame whose serialization has started by `now`: it
    /// leaves the queue and counts as sent. Host nodes forward
    /// [`crate::node::Node::settle_lazy`] here.
    pub fn settle_to(&mut self, now: Nanos) {
        self.tx.settle(now, |_, size| {
            self.queued_bytes -= u64::from(size);
            self.sent += 1;
            self.sent_bytes += u64::from(size);
        });
    }

    /// Enqueues a packet for transmission. Returns `false` (and counts a
    /// local drop) when the queue limit would be exceeded.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) -> bool {
        self.settle_to(ctx.now());
        if self.queued_bytes + u64::from(pkt.size) > self.cfg.queue_limit_bytes {
            self.dropped += 1;
            return false;
        }
        self.queued_bytes += u64::from(pkt.size);
        self.tx.enqueue(ctx, self.cfg.port, pkt);
        self.settle_to(ctx.now());
        true
    }

    /// Call from the host's `Node::on_tx_complete`.
    pub fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>) {
        self.tx.on_tx_complete(ctx, self.cfg.port);
        self.settle_to(ctx.now());
    }

    /// Call from the host's `Node::on_timer` for [`NIC_PACE_TOKEN`].
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.tx.pump(ctx, self.cfg.port);
        self.settle_to(ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::{Node, NodeId};
    use crate::packet::{FlowId, PacketKind};
    use crate::sim::Simulator;

    /// Host that sends `n` packets through its NIC on the first timer.
    struct TestHost {
        nic: HostNic,
        n: u32,
        size: u32,
        dst: NodeId,
        rx: Vec<Nanos>,
    }

    impl Node for TestHost {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
            self.rx.push(ctx.now());
        }
        fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
            self.nic.on_tx_complete(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == NIC_PACE_TOKEN {
                self.nic.on_timer(ctx);
                return;
            }
            for i in 0..self.n {
                let pkt = Packet {
                    flow: FlowId(u64::from(i)),
                    kind: PacketKind::Raw { tag: 0 },
                    src: ctx.node(),
                    dst: self.dst,
                    size: self.size,
                    created: ctx.now(),
                    ce: false,
                };
                self.nic.send(ctx, pkt);
            }
        }
        fn settle_lazy(&mut self, now: Nanos) {
            self.nic.settle_to(now);
        }
    }

    fn two_hosts(cfg: NicConfig, n: u32, size: u32) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new();
        let b_id = NodeId(1);
        let a = sim.add_node(Box::new(TestHost {
            nic: HostNic::new(cfg),
            n,
            size,
            dst: b_id,
            rx: Vec::new(),
        }));
        let b = sim.add_node(Box::new(TestHost {
            nic: HostNic::new(NicConfig::default()),
            n: 0,
            size,
            dst: a,
            rx: Vec::new(),
        }));
        sim.connect(
            (a, PortId(0)),
            (b, PortId(0)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
        sim.schedule_timer(Nanos(0), a, 0);
        (sim, a, b)
    }

    #[test]
    fn unpaced_burst_is_back_to_back() {
        let (mut sim, _a, b) = two_hosts(NicConfig::default(), 5, 1500);
        sim.run_until(Nanos::from_millis(1));
        let rx = &sim.node::<TestHost>(b).rx;
        assert_eq!(rx.len(), 5);
        // Consecutive arrivals separated by exactly one serialization time.
        let ser = LinkSpec::gbps(10.0, Nanos(500)).ser_time(1500);
        for w in rx.windows(2) {
            assert_eq!(w[1] - w[0], ser);
        }
    }

    #[test]
    fn pacing_spreads_packets() {
        let cfg = NicConfig {
            pace_bps: Some(1_000_000_000), // 1 Gbps pacing on a 10 Gbps link
            ..NicConfig::default()
        };
        let (mut sim, _a, b) = two_hosts(cfg, 5, 1500);
        sim.run_until(Nanos::from_millis(1));
        let rx = &sim.node::<TestHost>(b).rx;
        assert_eq!(rx.len(), 5);
        let expected_gap = Nanos(1500 * 8); // 12000ns at 1Gbps
        for w in rx.windows(2) {
            assert!(
                w[1] - w[0] >= expected_gap,
                "gap {} < pace gap {}",
                w[1] - w[0],
                expected_gap
            );
        }
    }

    #[test]
    fn paced_nic_is_event_per_frame_under_the_lazy_engine() {
        // A paced stage never evaluates the recurrence, so spacing is
        // preserved with the lazy engine selected.
        let cfg = NicConfig {
            pace_bps: Some(1_000_000_000),
            ..NicConfig::default()
        };
        let (mut sim, _a, b) = two_hosts(cfg, 5, 1500);
        sim.set_hybrid(true);
        sim.run_until(Nanos::from_millis(1));
        let rx = &sim.node::<TestHost>(b).rx;
        assert_eq!(rx.len(), 5);
        let expected_gap = Nanos(1500 * 8);
        for w in rx.windows(2) {
            assert!(w[1] - w[0] >= expected_gap);
        }
    }

    #[test]
    fn queue_limit_drops() {
        let cfg = NicConfig {
            queue_limit_bytes: 3_000, // room for ~2 queued frames
            ..NicConfig::default()
        };
        let (mut sim, a, b) = two_hosts(cfg, 10, 1500);
        sim.run_until(Nanos::from_millis(1));
        let host = sim.node::<TestHost>(a);
        assert!(host.nic.dropped > 0);
        assert_eq!(
            host.nic.sent + host.nic.dropped,
            10,
            "every packet either sent or dropped"
        );
        assert_eq!(sim.node::<TestHost>(b).rx.len() as u64, host.nic.sent);
    }
}
