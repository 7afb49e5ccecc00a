//! A lightweight reliable transport.
//!
//! The racks the paper measured ran TCP. Simulating a full TCP stack would
//! dominate the simulator for little fidelity gain, so this module
//! implements the subset that shapes microburst behaviour:
//!
//! * window-limited sending with **slow start** and AIMD congestion
//!   avoidance (slow-start overshoot is a major µburst generator),
//! * **fast retransmit** on triple duplicate ACKs (NewReno-style `recover`
//!   guard so one loss event halves the window once),
//! * a coarse **retransmission timeout**,
//! * cumulative ACKs with out-of-order buffering at the receiver
//!   (retransmissions are go-back-one from the cumulative point),
//!   coalesced over [`ACK_COALESCE`] (delayed ACKs),
//! * optional ECN marking with a DCTCP-style window response
//!   ([`TransportConfig::ecn`]).
//!
//! It deliberately omits: SACK, RTT estimation (the RTO is fixed), and
//! connection setup/teardown handshakes — none of which change where
//! bursts come from at the timescales under study.
//!
//! A [`TransportEndpoint`] is embedded in each host node. The host forwards
//! packets and timers to it and receives [`TransportEvent`]s back.

use std::collections::BTreeSet;

use crate::fasthash::{FxHashMap, FxHashSet};
use crate::nic::HostNic;
use crate::node::{Ctx, NodeId};
use crate::packet::{segment_wire_size, segments_for, FlowId, Packet, PacketKind};
use crate::time::Nanos;

/// High bit of a timer token marks it as owned by the transport.
pub const TRANSPORT_TOKEN_BIT: u64 = 1 << 63;

/// Fixed retransmission timeout (no RTT estimation).
const RTO: Nanos = Nanos::from_millis(2);
/// Duplicate-ACK threshold for fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;
/// Receiver-side ACK coalescing window, modeling NIC interrupt
/// coalescing + delayed ACKs: data arriving within this window is
/// acknowledged by one cumulative ACK at its end (a flow's final ACK is
/// sent at once). This is the mechanism the paper names when explaining
/// why host pacing is ineffective (§7) — and it is what chops
/// window-limited senders into the line-rate trains the paper measures as
/// µbursts.
pub const ACK_COALESCE: Nanos = Nanos::from_micros(25);

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial congestion window, in segments (RFC 6928 uses 10).
    pub init_cwnd: u32,
    /// Hard window cap, in segments. Bounds per-flow buffer pressure the way
    /// receive windows do in production.
    pub max_cwnd: u32,
    /// Enable ECN/DCTCP-style congestion response: switches with a marking
    /// threshold set CE on queued packets; the receiver echoes the mark and
    /// the sender scales its window down by an EWMA of the marked fraction
    /// (binary-feedback DCTCP approximation). Off by default — the paper's
    /// production network reacted to drops, and §7 discusses ECN as the
    /// lower-latency alternative this extension explores.
    pub ecn: bool,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            init_cwnd: 10,
            max_cwnd: 64,
            ecn: false,
        }
    }
}

/// Events the transport reports to the embedding application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// A complete incoming flow was received.
    FlowReceived {
        /// The flow that completed.
        flow: FlowId,
        /// The sending host.
        src: NodeId,
        /// Application bytes delivered.
        bytes: u64,
        /// The sender's application tag.
        tag: u64,
    },
    /// A locally started flow was fully acknowledged.
    FlowSent {
        /// The flow that completed.
        flow: FlowId,
        /// The tag given to [`TransportEndpoint::start_flow`].
        tag: u64,
    },
}

#[derive(Debug)]
struct SendState {
    dst: NodeId,
    bytes: u64,
    total: u32,
    /// Next never-before-sent segment.
    next: u32,
    /// Cumulative ACK point: all segments `< cum` acknowledged.
    cum: u32,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// NewReno recovery high-water mark: no new fast retransmit until the
    /// cumulative point passes it.
    recover: u32,
    tag: u64,
    /// When the flow started (for completion-time accounting).
    started: Nanos,
    /// When the pending RTO should fire. Pushed forward on progress.
    rto_deadline: Nanos,
    /// Whether a timer event is in flight for this flow.
    timer_armed: bool,
    /// Consecutive timeouts (for exponential backoff).
    backoff: u32,
    /// Retransmitted segments (diagnostics).
    retransmits: u64,
    /// DCTCP: EWMA of the fraction of ACKs carrying ECN echoes.
    ecn_alpha: f64,
    /// DCTCP: no further ECN window reduction until `cum` passes this.
    ecn_recover: u32,
}

#[derive(Debug)]
struct RecvState {
    src: NodeId,
    bytes: u64,
    total: u32,
    tag: u64,
    cum: u32,
    out_of_order: BTreeSet<u32>,
    /// True while a coalesced-ACK timer is pending for this flow.
    ack_scheduled: bool,
    /// A CE-marked segment arrived since the last ACK we sent.
    ce_seen: bool,
}

/// One completed outgoing flow's timing record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FctRecord {
    /// Application bytes transferred.
    pub bytes: u64,
    /// Flow completion time: start of `start_flow` to the final ACK.
    pub fct: Nanos,
    /// The application tag the flow carried.
    pub tag: u64,
}

/// Aggregated transport diagnostics for one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Flows initiated locally.
    pub flows_started: u64,
    /// Locally initiated flows fully acknowledged.
    pub flows_sent: u64,
    /// Incoming flows fully received.
    pub flows_received: u64,
    /// Data segments retransmitted (any cause).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered by duplicate ACKs.
    pub fast_retransmits: u64,
}

/// Per-host transport state. Embed in a host node next to its [`HostNic`].
#[derive(Debug)]
pub struct TransportEndpoint {
    host: NodeId,
    cfg: TransportConfig,
    next_flow: u32,
    sends: FxHashMap<FlowId, SendState>,
    recvs: FxHashMap<FlowId, RecvState>,
    /// Flows fully received; late retransmissions for these are ACKed and
    /// dropped without re-delivering to the application.
    completed_recv: FxHashSet<FlowId>,
    /// Completion records of locally started flows, in completion order.
    fcts: Vec<FctRecord>,
    /// Aggregate diagnostics.
    pub stats: TransportStats,
}

impl TransportEndpoint {
    /// An endpoint for `host` with the given tuning.
    pub fn new(host: NodeId, cfg: TransportConfig) -> Self {
        TransportEndpoint {
            host,
            cfg,
            next_flow: 0,
            sends: FxHashMap::default(),
            recvs: FxHashMap::default(),
            completed_recv: FxHashSet::default(),
            fcts: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Completion-time records of finished outgoing flows (oldest first).
    pub fn fcts(&self) -> &[FctRecord] {
        &self.fcts
    }

    /// Does this timer token belong to the transport?
    pub fn owns_token(token: u64) -> bool {
        token & TRANSPORT_TOKEN_BIT != 0
    }

    /// Number of in-progress outgoing flows.
    pub fn active_sends(&self) -> usize {
        self.sends.len()
    }

    /// Number of in-progress incoming flows.
    pub fn active_recvs(&self) -> usize {
        self.recvs.len()
    }

    /// The endpoint's tuning.
    pub fn config(&self) -> &TransportConfig {
        &self.cfg
    }

    /// Starts a flow of `bytes` application bytes to `dst`, tagged `tag`.
    /// The initial window is handed to the NIC immediately (back-to-back).
    pub fn start_flow(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut HostNic,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        assert_ne!(dst, self.host, "flow to self");
        let flow = FlowId((u64::from(self.host.0) << 32) | u64::from(self.next_flow));
        self.next_flow = self.next_flow.wrapping_add(1);
        let total = segments_for(bytes);
        let st = SendState {
            dst,
            bytes,
            total,
            next: 0,
            cum: 0,
            cwnd: f64::from(self.cfg.init_cwnd),
            ssthresh: f64::from(self.cfg.max_cwnd),
            dup_acks: 0,
            recover: 0,
            tag,
            started: ctx.now(),
            rto_deadline: ctx.now() + RTO,
            timer_armed: false,
            backoff: 0,
            retransmits: 0,
            // Linux's DCTCP initializes alpha to 1 so the very first mark
            // triggers a strong response instead of waiting ~16 windows for
            // the EWMA to ramp up; we follow that.
            ecn_alpha: 1.0,
            ecn_recover: 0,
        };
        self.sends.insert(flow, st);
        self.stats.flows_started += 1;
        self.send_window(ctx, nic, flow);
        self.arm_timer(ctx, flow);
        flow
    }

    /// Handles a transport packet addressed to this host. Returns any
    /// application-visible events.
    pub fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut HostNic,
        pkt: Packet,
    ) -> Vec<TransportEvent> {
        // A misrouted segment would be ACKed and counted as delivered here.
        assert_eq!(pkt.dst, self.host, "packet for another host");
        match pkt.kind {
            PacketKind::Data {
                seq,
                total,
                flow_bytes,
                tag,
                ..
            } => self.on_data(ctx, nic, pkt, seq, total, flow_bytes, tag),
            PacketKind::Ack { cum, ece } => self.on_ack(ctx, nic, pkt.flow, cum, ece),
            PacketKind::Raw { .. } => Vec::new(),
        }
    }

    /// Handles a transport timer token (see [`TRANSPORT_TOKEN_BIT`]).
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, nic: &mut HostNic, token: u64) {
        let flow = FlowId(token & !TRANSPORT_TOKEN_BIT);
        if !self.sends.contains_key(&flow) {
            // Not a sender flow: either a coalesced-ACK timer for an
            // incoming flow, or a stale timer for a finished one.
            if let Some(rs) = self.recvs.get_mut(&flow) {
                rs.ack_scheduled = false;
                let (cum, src) = (rs.cum, rs.src);
                let ece = std::mem::take(&mut rs.ce_seen);
                self.send_ack_ece(ctx, nic, flow, src, cum, ece);
            }
            return;
        }
        let Some(st) = self.sends.get_mut(&flow) else {
            return; // unreachable; checked above
        };
        st.timer_armed = false;
        if ctx.now() < st.rto_deadline {
            // Progress pushed the deadline forward; sleep again.
            self.arm_timer(ctx, flow);
            return;
        }
        // Genuine timeout: multiplicative decrease, go back to the
        // cumulative point, back off the next deadline.
        self.stats.timeouts += 1;
        let st = self.sends.get_mut(&flow).expect("checked above");
        st.ssthresh = (st.cwnd / 2.0).max(2.0);
        st.cwnd = 2.0;
        st.dup_acks = 0;
        st.recover = st.next;
        st.backoff = (st.backoff + 1).min(6);
        st.rto_deadline = ctx.now() + Nanos(RTO.as_nanos() << st.backoff);
        self.retransmit(ctx, nic, flow);
        self.arm_timer(ctx, flow);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut HostNic,
        pkt: Packet,
        seq: u32,
        total: u32,
        flow_bytes: u64,
        tag: u64,
    ) -> Vec<TransportEvent> {
        if self.completed_recv.contains(&pkt.flow) {
            // Late retransmission of a finished flow: re-ACK so the sender
            // can finish, but do not re-deliver.
            self.send_ack_ece(ctx, nic, pkt.flow, pkt.src, total, false);
            return Vec::new();
        }
        let st = self.recvs.entry(pkt.flow).or_insert_with(|| RecvState {
            src: pkt.src,
            bytes: flow_bytes,
            total,
            tag,
            cum: 0,
            out_of_order: BTreeSet::new(),
            ack_scheduled: false,
            ce_seen: false,
        });
        if pkt.ce {
            st.ce_seen = true;
        }
        if seq >= st.cum {
            if seq == st.cum {
                st.cum += 1;
                while st.out_of_order.remove(&st.cum) {
                    st.cum += 1;
                }
            } else {
                st.out_of_order.insert(seq);
            }
        }
        let (cum, src) = (st.cum, st.src);
        let complete = cum == st.total;
        if complete {
            // Final ACKs flush immediately so completion isn't delayed.
            let ece = std::mem::take(&mut st.ce_seen);
            self.send_ack_ece(ctx, nic, pkt.flow, src, cum, ece);
        } else if !st.ack_scheduled {
            st.ack_scheduled = true;
            ctx.timer_in(ACK_COALESCE, TRANSPORT_TOKEN_BIT | pkt.flow.0);
        }
        if complete {
            let st = self.recvs.remove(&pkt.flow).expect("present");
            self.completed_recv.insert(pkt.flow);
            self.stats.flows_received += 1;
            vec![TransportEvent::FlowReceived {
                flow: pkt.flow,
                src: st.src,
                bytes: st.bytes,
                tag: st.tag,
            }]
        } else {
            Vec::new()
        }
    }

    fn on_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut HostNic,
        flow: FlowId,
        cum: u32,
        ece: bool,
    ) -> Vec<TransportEvent> {
        let ecn_enabled = self.cfg.ecn;
        let Some(st) = self.sends.get_mut(&flow) else {
            return Vec::new(); // flow already completed
        };
        if ecn_enabled {
            // Binary-feedback DCTCP: alpha <- (1-g) alpha + g * [ece],
            // and at most one multiplicative decrease per window.
            const G: f64 = 1.0 / 16.0;
            st.ecn_alpha = (1.0 - G) * st.ecn_alpha + G * if ece { 1.0 } else { 0.0 };
            if ece && cum >= st.ecn_recover {
                st.cwnd = (st.cwnd * (1.0 - st.ecn_alpha / 2.0)).max(2.0);
                st.ssthresh = st.cwnd;
                st.ecn_recover = st.next;
            }
        }
        if cum > st.cum {
            let newly = f64::from(cum - st.cum);
            st.cum = cum;
            st.dup_acks = 0;
            st.backoff = 0;
            st.rto_deadline = ctx.now() + RTO;
            if st.cwnd < st.ssthresh {
                st.cwnd = (st.cwnd + newly).min(f64::from(self.cfg.max_cwnd));
            } else {
                st.cwnd = (st.cwnd + newly / st.cwnd).min(f64::from(self.cfg.max_cwnd));
            }
            if st.cum >= st.total {
                let st = self.sends.remove(&flow).expect("present");
                self.stats.flows_sent += 1;
                self.fcts.push(FctRecord {
                    bytes: st.bytes,
                    fct: ctx.now().saturating_sub(st.started),
                    tag: st.tag,
                });
                return vec![TransportEvent::FlowSent { flow, tag: st.tag }];
            }
            self.send_window(ctx, nic, flow);
        } else if cum == st.cum && st.next > st.cum {
            st.dup_acks += 1;
            if st.dup_acks >= DUPACK_THRESHOLD && st.cum >= st.recover {
                // Fast retransmit + NewReno-style single halving per window.
                st.ssthresh = (st.cwnd / 2.0).max(2.0);
                st.cwnd = st.ssthresh;
                st.recover = st.next;
                st.dup_acks = 0;
                st.rto_deadline = ctx.now() + RTO;
                self.stats.fast_retransmits += 1;
                self.retransmit(ctx, nic, flow);
            }
        }
        Vec::new()
    }

    /// Sends every segment the window currently allows.
    fn send_window(&mut self, ctx: &mut Ctx<'_>, nic: &mut HostNic, flow: FlowId) {
        let st = self.sends.get_mut(&flow).expect("send_window on dead flow");
        while st.next < st.total && st.next - st.cum < st.cwnd as u32 {
            let seq = st.next;
            st.next += 1;
            let pkt = Self::data_packet(self.host, flow, st, seq, false);
            nic.send(ctx, pkt);
        }
    }

    /// Retransmits the segment at the cumulative point.
    fn retransmit(&mut self, ctx: &mut Ctx<'_>, nic: &mut HostNic, flow: FlowId) {
        let st = self.sends.get_mut(&flow).expect("retransmit on dead flow");
        if st.cum >= st.total {
            return;
        }
        let seq = st.cum;
        st.retransmits += 1;
        self.stats.retransmits += 1;
        let pkt = Self::data_packet(self.host, flow, st, seq, true);
        nic.send(ctx, pkt);
    }

    fn data_packet(host: NodeId, flow: FlowId, st: &SendState, seq: u32, retx: bool) -> Packet {
        Packet {
            flow,
            kind: PacketKind::Data {
                seq,
                total: st.total,
                flow_bytes: st.bytes,
                tag: st.tag,
                retx,
            },
            src: host,
            dst: st.dst,
            size: segment_wire_size(st.bytes, seq),
            created: Nanos::ZERO, // stamped by callers that care
            ce: false,
        }
    }

    fn send_ack_ece(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut HostNic,
        flow: FlowId,
        to: NodeId,
        cum: u32,
        ece: bool,
    ) {
        let ack = Packet {
            flow,
            kind: PacketKind::Ack { cum, ece },
            src: self.host,
            dst: to,
            size: crate::packet::ACK_BYTES,
            created: ctx.now(),
            ce: false,
        };
        nic.send(ctx, ack);
    }

    fn arm_timer(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let st = self.sends.get_mut(&flow).expect("arm_timer on dead flow");
        if st.timer_armed {
            return;
        }
        st.timer_armed = true;
        let token = TRANSPORT_TOKEN_BIT | flow.0;
        ctx.timer_at(st.rto_deadline.max(ctx.now()), token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufpolicy::BufferPolicyCfg;
    use crate::counters::null_sink;
    use crate::link::LinkSpec;
    use crate::nic::{HostNic, NicConfig, NIC_PACE_TOKEN};
    use crate::node::{Node, PortId};
    use crate::routing::{Route, RoutingTable};
    use crate::sim::Simulator;
    use crate::switch::{Switch, SwitchConfig};

    /// Minimal host: transport + NIC + a log of events.
    struct Host {
        nic: HostNic,
        transport: TransportEndpoint,
        events: Vec<TransportEvent>,
        /// Data segments that reached this host.
        data_rx: u64,
        /// CE-marked data segments that reached this host.
        ce_data_rx: u64,
        /// (dst, bytes) flows to start on timer 0.
        to_send: Vec<(NodeId, u64)>,
    }

    impl Host {
        fn boxed(id_hint: u32, cfg: TransportConfig) -> Box<Self> {
            Box::new(Host {
                nic: HostNic::new(NicConfig::default()),
                transport: TransportEndpoint::new(NodeId(id_hint), cfg),
                events: Vec::new(),
                data_rx: 0,
                ce_data_rx: 0,
                to_send: Vec::new(),
            })
        }
    }

    impl Node for Host {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            self.data_rx += u64::from(pkt.is_data());
            self.ce_data_rx += u64::from(pkt.ce && pkt.is_data());
            let evs = self.transport.on_packet(ctx, &mut self.nic, pkt);
            self.events.extend(evs);
        }
        fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
            self.nic.on_tx_complete(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == NIC_PACE_TOKEN {
                self.nic.on_timer(ctx);
            } else if TransportEndpoint::owns_token(token) {
                self.transport.on_timer(ctx, &mut self.nic, token);
            } else {
                for (dst, bytes) in std::mem::take(&mut self.to_send) {
                    self.transport
                        .start_flow(ctx, &mut self.nic, dst, bytes, 0xCAFE);
                }
            }
        }
        fn settle_lazy(&mut self, now: Nanos) {
            self.nic.settle_to(now);
        }
    }

    /// Two hosts joined by a switch whose receiver-side link is the
    /// bottleneck when `lossy` shrinks the buffer.
    fn pair_through_switch(lossy: bool) -> (Simulator, NodeId, NodeId) {
        pair_through_switch_cfg(lossy, TransportConfig::default(), None)
    }

    fn pair_through_switch_cfg(
        lossy: bool,
        tcfg: TransportConfig,
        ecn_threshold: Option<u64>,
    ) -> (Simulator, NodeId, NodeId) {
        let buffer = if lossy { 8 * 1024 } else { 12 << 20 };
        let alpha = if lossy { 0.5 } else { 2.0 };
        pair_custom(lossy, buffer, alpha, tcfg, ecn_threshold)
    }

    /// Fully parameterized two-host fixture: `bottleneck` selects a 1 Gbps
    /// receiver link (vs 10 Gbps), the rest is the switch configuration.
    fn pair_custom(
        bottleneck: bool,
        buffer_bytes: u64,
        alpha: f64,
        tcfg: TransportConfig,
        ecn_threshold: Option<u64>,
    ) -> (Simulator, NodeId, NodeId) {
        let lossy = bottleneck;
        let mut sim = Simulator::new();
        let a = sim.add_node(Host::boxed(0, tcfg));
        let b = sim.add_node(Host::boxed(1, tcfg));
        // Fix up the transport host ids now that real ids are known.
        sim.node_mut::<Host>(a).transport.host = a;
        sim.node_mut::<Host>(b).transport.host = b;

        let mut routing = RoutingTable::new(0);
        routing.set_route(a, Route::Port(PortId(0)));
        routing.set_route(b, Route::Port(PortId(1)));
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig {
                ports: 2,
                buffer_bytes,
                policy: BufferPolicyCfg::dt(alpha),
                ecn_threshold,
            },
            routing,
            null_sink(),
        )));
        sim.connect(
            (a, PortId(0)),
            (sw, PortId(0)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
        // Receiver link slower in the lossy case → queue at the switch.
        sim.connect(
            (b, PortId(0)),
            (sw, PortId(1)),
            if lossy {
                LinkSpec::gbps(1.0, Nanos(500))
            } else {
                LinkSpec::gbps(10.0, Nanos(500))
            },
        );
        (sim, a, b)
    }

    #[test]
    fn lossless_transfer_completes() {
        let (mut sim, a, b) = pair_through_switch(false);
        sim.node_mut::<Host>(a).to_send.push((b, 1_000_000));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(100));

        let ha = sim.node::<Host>(a);
        let hb = sim.node::<Host>(b);
        assert_eq!(ha.transport.stats.flows_sent, 1);
        assert_eq!(ha.transport.stats.retransmits, 0, "no loss, no retx");
        assert_eq!(hb.transport.stats.flows_received, 1);
        assert!(matches!(
            hb.events[0],
            TransportEvent::FlowReceived {
                bytes: 1_000_000,
                tag: 0xCAFE,
                ..
            }
        ));
        assert!(matches!(ha.events[0], TransportEvent::FlowSent { .. }));
        assert_eq!(ha.transport.active_sends(), 0);
        assert_eq!(hb.transport.active_recvs(), 0);
    }

    #[test]
    fn transfer_survives_heavy_loss() {
        let (mut sim, a, b) = pair_through_switch(true);
        sim.node_mut::<Host>(a).to_send.push((b, 500_000));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_secs(5));

        let ha = sim.node::<Host>(a);
        let hb = sim.node::<Host>(b);
        assert_eq!(
            hb.transport.stats.flows_received, 1,
            "flow must complete despite drops (retx={}, timeouts={})",
            ha.transport.stats.retransmits, ha.transport.stats.timeouts
        );
        assert!(
            ha.transport.stats.retransmits > 0,
            "the tiny buffer must cause loss"
        );
    }

    #[test]
    fn many_parallel_flows_all_complete() {
        let (mut sim, a, b) = pair_through_switch(false);
        for _ in 0..20 {
            sim.node_mut::<Host>(a).to_send.push((b, 50_000));
        }
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(200));
        assert_eq!(sim.node::<Host>(b).transport.stats.flows_received, 20);
        assert_eq!(sim.node::<Host>(a).transport.stats.flows_sent, 20);
    }

    #[test]
    fn zero_byte_flow_completes() {
        let (mut sim, a, b) = pair_through_switch(false);
        sim.node_mut::<Host>(a).to_send.push((b, 0));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(10));
        assert_eq!(sim.node::<Host>(b).transport.stats.flows_received, 1);
    }

    #[test]
    fn initial_window_is_back_to_back_burst() {
        // The defining microburst mechanism: a new flow dumps init_cwnd
        // segments onto the wire with no spacing.
        let (mut sim, a, b) = pair_through_switch(false);
        sim.node_mut::<Host>(a).to_send.push((b, 10_000_000));
        sim.schedule_timer(Nanos(0), a, 0);
        // Run just long enough for the first window, before any ACK returns.
        sim.run_until(Nanos::from_micros(5));
        let ha = sim.node::<Host>(a);
        assert!(
            ha.nic.sent >= 3,
            "several segments should be on the wire immediately, got {}",
            ha.nic.sent
        );
        assert_eq!(ha.transport.active_sends(), 1);
    }

    #[test]
    fn fct_records_are_kept() {
        let (mut sim, a, b) = pair_through_switch(false);
        sim.node_mut::<Host>(a).to_send.push((b, 300_000));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(100));
        let fcts = sim.node::<Host>(a).transport.fcts();
        assert_eq!(fcts.len(), 1);
        assert_eq!(fcts[0].bytes, 300_000);
        assert_eq!(fcts[0].tag, 0xCAFE);
        // 300KB at 10G is ~240us minimum; through slow start it's more.
        assert!(fcts[0].fct > Nanos::from_micros(240), "{}", fcts[0].fct);
        assert!(fcts[0].fct < Nanos::from_millis(50), "{}", fcts[0].fct);
    }

    #[test]
    fn ecn_keeps_queues_below_drop_point() {
        // 1G bottleneck behind a 64KB buffer (~28 frames of queue): slow
        // start overruns it without ECN; with marks at ~10 frames the
        // sender backs off before the drop point — the textbook DCTCP win.
        let run = |ecn: bool| {
            let tcfg = TransportConfig {
                ecn,
                ..TransportConfig::default()
            };
            let threshold = if ecn { Some(15_000) } else { None };
            let (mut sim, a, b) = pair_custom(true, 64 * 1024, 2.0, tcfg, threshold);
            sim.node_mut::<Host>(a).to_send.push((b, 400_000));
            sim.schedule_timer(Nanos(0), a, 0);
            sim.run_until(Nanos::from_secs(5));
            let received = sim.node::<Host>(b).transport.stats.flows_received;
            let retx = sim.node::<Host>(a).transport.stats.retransmits;
            (received, retx)
        };
        let (recv_plain, retx_plain) = run(false);
        let (recv_ecn, retx_ecn) = run(true);
        assert_eq!(recv_plain, 1);
        assert_eq!(recv_ecn, 1);
        assert!(retx_plain > 0, "the no-ECN run must actually overflow");
        assert!(
            retx_ecn * 2 < retx_plain,
            "ECN should avoid most loss-driven retransmits: {retx_ecn} vs {retx_plain}"
        );
    }

    #[test]
    fn ce_marks_are_echoed_and_shrink_the_window() {
        // With ECN and a sane buffer, a bottlenecked flow completes with no
        // RTOs at all: the window is held down by marks, not by losses.
        let tcfg = TransportConfig {
            ecn: true,
            ..TransportConfig::default()
        };
        let (mut sim, a, b) = pair_custom(true, 64 * 1024, 2.0, tcfg, Some(15_000));
        sim.node_mut::<Host>(a).to_send.push((b, 200_000));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_secs(2));
        let ha = sim.node::<Host>(a);
        assert_eq!(ha.transport.stats.flows_sent, 1);
        assert_eq!(ha.transport.stats.timeouts, 0, "ECN should prevent RTOs");
    }

    /// What one [`dctcp_run`] saw, read at quiescence.
    struct DctcpOutcome {
        ce_data_rx: u64,
        dropped_packets: u64,
        /// Each flow's `ecn_alpha` as last seen before its final ACK.
        final_alphas: Vec<f64>,
    }

    /// Two 1 MB DCTCP flows with an initial window of 20 segments through
    /// the 1 Gbps bottleneck, under one engine; holds the transport's
    /// conservation laws at quiescence and returns what the regime checks
    /// read (the htsim-rs `dumbbell_dctcp` shape, not its numbers).
    fn dctcp_run(hybrid: bool, buffer_bytes: u64, k_frames: u64) -> DctcpOutcome {
        const FLOW_BYTES: u64 = 1_000_000;
        let what = format!("hybrid={hybrid} K={k_frames}");
        let tcfg = TransportConfig {
            ecn: true,
            init_cwnd: 20,
            ..TransportConfig::default()
        };
        let k = k_frames * u64::from(crate::packet::MTU_FRAME);
        // alpha 64: one port may take all but 1/65 of the pool.
        let (mut sim, a, b) = pair_custom(true, buffer_bytes, 64.0, tcfg, Some(k));
        sim.set_hybrid(hybrid);
        sim.node_mut::<Host>(a).to_send = vec![(b, FLOW_BYTES); 2];
        sim.schedule_timer(Nanos(0), a, 0);

        // SendState dies with the final ACK: sample alpha as the flows run.
        let mut alphas: FxHashMap<FlowId, f64> = FxHashMap::default();
        let mut now = Nanos::ZERO;
        loop {
            now += Nanos::from_micros(100);
            sim.run_until(now);
            let sends = &sim.node::<Host>(a).transport.sends;
            alphas.extend(sends.iter().map(|(&f, st)| (f, st.ecn_alpha)));
            if sends.is_empty() {
                break;
            }
            assert!(now < Nanos::from_secs(5), "{what}: flows never finished");
        }
        sim.run_until(now + Nanos::from_millis(10));

        let (ha, hb) = (sim.node::<Host>(a), sim.node::<Host>(b));
        let delivered: u64 = hb
            .events
            .iter()
            .map(|e| match *e {
                TransportEvent::FlowReceived { bytes, .. } => bytes,
                TransportEvent::FlowSent { .. } => 0,
            })
            .sum();
        let acked: u64 = ha.transport.fcts().iter().map(|r| r.bytes).sum();
        assert_eq!(delivered, acked, "{what}: delivered = acked");
        assert_eq!(acked, 2 * FLOW_BYTES, "{what}: every byte acknowledged");
        assert_eq!(
            ha.transport.stats.flows_sent, hb.transport.stats.flows_received,
            "{what}: flows sent = received"
        );
        assert_eq!(hb.transport.active_recvs(), 0, "{what}: receiver drained");
        assert_eq!(sim.arena_live(), 0, "{what}: arena drained");

        let sw = NodeId(2); // pair_custom adds the switch third
        DctcpOutcome {
            ce_data_rx: hb.ce_data_rx,
            dropped_packets: sim.node::<Switch>(sw).stats().dropped_packets,
            final_alphas: alphas.into_values().collect(),
        }
    }

    #[test]
    fn dctcp_shallow_threshold_marks_and_drops_coexist() {
        // K = 4 frames of a 12-frame buffer: the 20-segment initial windows
        // overrun the pool before the first echo can slow the senders.
        for hybrid in [false, true] {
            let out = dctcp_run(hybrid, 12 * u64::from(crate::packet::MTU_FRAME), 4);
            assert!(out.ce_data_rx > 0, "hybrid={hybrid}: no CE marks");
            assert!(out.dropped_packets > 0, "hybrid={hybrid}: no drops");
            assert_eq!(out.final_alphas.len(), 2);
            for a in out.final_alphas {
                assert!(0.0 < a && a < 1.0, "hybrid={hybrid}: alpha {a}");
            }
        }
    }

    #[test]
    fn dctcp_deep_buffer_marks_without_drops() {
        // K = 20 frames of a 12 MB pool: both windows fit below the drop
        // point, so marking alone holds the queue.
        for hybrid in [false, true] {
            let out = dctcp_run(hybrid, 12 << 20, 20);
            assert!(out.ce_data_rx > 0, "hybrid={hybrid}: no CE marks");
            assert_eq!(out.dropped_packets, 0, "hybrid={hybrid}");
        }
    }

    #[test]
    #[should_panic(expected = "packet for another host")]
    fn misdelivered_packet_is_refused_in_release() {
        let (mut sim, a, b) = pair_through_switch(false);
        // Host b's endpoint believes it is host a: every segment it gets
        // is addressed to someone else.
        sim.node_mut::<Host>(b).transport.host = a;
        sim.node_mut::<Host>(a).to_send.push((b, 1_000));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(1));
    }

    #[test]
    fn ack_coalescing_reduces_ack_count() {
        let (mut sim, a, b) = pair_through_switch(false);
        sim.node_mut::<Host>(a).to_send.push((b, 500_000));
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(100));
        assert_eq!(sim.node::<Host>(a).transport.stats.flows_sent, 1);
        // The receiver sends nothing but ACKs; without coalescing it would
        // send one per data segment.
        let receiver = sim.node::<Host>(b);
        let (acks, segments) = (receiver.nic.sent, receiver.data_rx);
        assert!(
            acks * 3 < segments,
            "coalescing should slash ack volume: {acks} acks for {segments} segments"
        );
    }

    #[test]
    fn flow_ids_are_unique_per_host() {
        let (mut sim, a, b) = pair_through_switch(false);
        for _ in 0..5 {
            sim.node_mut::<Host>(a).to_send.push((b, 100));
        }
        sim.schedule_timer(Nanos(0), a, 0);
        sim.run_until(Nanos::from_millis(10));
        let hb = sim.node::<Host>(b);
        let mut flows: Vec<FlowId> = hb
            .events
            .iter()
            .filter_map(|e| match e {
                TransportEvent::FlowReceived { flow, .. } => Some(*flow),
                _ => None,
            })
            .collect();
        flows.sort_unstable();
        flows.dedup();
        assert_eq!(flows.len(), 5);
    }
}
