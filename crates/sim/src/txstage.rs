//! The transmit stage: the per-port work-conserving FIFO behind both the
//! host NIC ring and every switch egress queue.
//!
//! ## The recurrence
//!
//! A frame joins a stage only after its owner admitted it (shared-buffer
//! carving, NIC queue limit); drops never join. On a deterministic-rate
//! link the `j`-th admitted frame of a port therefore starts and ends
//! serializing at
//!
//! ```text
//! start_j = max(adm_j, dep_{j-1})        dep_j = start_j + ser(size_j)
//! ```
//!
//! with `ser` the [`LinkSpec::ser_time`](crate::link::LinkSpec::ser_time)
//! of the port's link; nothing that happens after admission can change
//! either instant. The peer sees the frame at `dep_j + propagation`.
//!
//! ## Two engines, one contract
//!
//! [`TxStage::enqueue`] is the only place the engine choice is read:
//!
//! * **Lazy** (the default): the recurrence is evaluated at admission, the
//!   peer's `PacketArrive` is scheduled directly, and no `TxComplete`
//!   event ever exists — half the events of a loaded rack.
//! * **Event-per-frame** (`UBURST_HYBRID=0`, CI's reference oracle): the
//!   frame is queued and the port is driven by `TxComplete` events
//!   through [`Ctx::start_tx`].
//!
//! A **paced** stage (`pace_bps`) is always event-per-frame, under either
//! engine: its start instants depend on pacer timer wakeups, not on FIFO
//! order alone, so the recurrence does not describe it.
//!
//! Both variants tell the owner about a frame the same way: they park
//! `(instant, port, bytes)` in a departure book, and [`TxStage::settle`]
//! hands every entry with `instant <= now` to the owner's accounting
//! callback. The instant is fixed per owner ([`AccountAt`]): the NIC
//! accounts a frame when serialization *starts* (it leaves the transmit
//! queue), the switch when it *ends* (its buffer is released). Owners
//! settle wherever the accounted state becomes observable — before their
//! own admission test, before a counter read
//! ([`FlushHook`](crate::counters::FlushHook)), and when
//! [`Simulator::run_until`](crate::sim::Simulator::run_until) returns —
//! so every observable value is byte-identical in both engines:
//! `crates/bench/tests/hybrid_equivalence.rs` diffs them against each
//! other and `tests/conservation.rs` checks each against the
//! conservation laws.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::OnceLock;

use crate::nic::NIC_PACE_TOKEN;
use crate::node::{Ctx, PortId};
use crate::packet::Packet;
use crate::time::Nanos;

/// Process-wide default engine, read once from `UBURST_HYBRID`. Unset or
/// any value other than `0`/`false`/`off`/`no` selects the lazy engine.
pub(crate) fn hybrid_default() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| match std::env::var("UBURST_HYBRID") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
        Err(_) => true,
    })
}

/// The instant of a frame's life at which its owner accounts for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountAt {
    /// Serialization start: the frame leaves the owner's queue (host NIC).
    Start,
    /// Serialization end: the frame's buffer is released (switch egress).
    End,
}

/// Per-port FIFO transmit stage; see the module docs.
#[derive(Debug)]
pub struct TxStage {
    account_at: AccountAt,
    /// Zero-depth token bucket shared by the stage's ports, in bits/sec.
    pace_bps: Option<u64>,
    /// Pacing: earliest instant the next transmission may start.
    next_tx_at: Nanos,
    /// Lazy: when each port's last admitted frame finishes serializing.
    free_at: Vec<u64>,
    /// Event-per-frame: frames waiting for their port.
    queues: Vec<VecDeque<Packet>>,
    /// Event-per-frame: size of the frame each port is serializing.
    in_flight: Vec<Option<u32>>,
    /// Accounting instants not yet reported to the owner.
    book: DepartureBook,
    /// Earliest entry in `book` (`u64::MAX` when empty): one compare
    /// decides whether a settle has anything to do.
    next_due: u64,
}

impl TxStage {
    /// An idle stage driving ports `0..ports`.
    pub fn new(ports: usize, account_at: AccountAt, pace_bps: Option<u64>) -> Self {
        TxStage {
            account_at,
            pace_bps,
            next_tx_at: Nanos::ZERO,
            free_at: vec![0; ports],
            queues: (0..ports).map(|_| VecDeque::new()).collect(),
            in_flight: vec![None; ports],
            book: DepartureBook::with_ports(ports),
            next_due: u64::MAX,
        }
    }

    /// Hands an already-admitted frame to `port`.
    ///
    /// # Panics
    /// Panics if `port` is not wired.
    pub fn enqueue(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        let p = port.0 as usize;
        if ctx.hybrid() && self.pace_bps.is_none() {
            let link = ctx.wired(port);
            let start = ctx.now().0.max(self.free_at[p]);
            let dep = start + link.spec.ser_time(pkt.size).0;
            self.free_at[p] = dep;
            let at = if self.account_at == AccountAt::Start {
                start
            } else {
                dep
            };
            self.record(at, port, pkt.size);
            let (peer_node, peer_port) = link.peer;
            ctx.schedule_arrival(
                Nanos(dep) + link.spec.propagation,
                peer_node,
                peer_port,
                pkt,
            );
        } else {
            self.queues[p].push_back(pkt);
            self.pump(ctx, port);
        }
    }

    /// Call when `port`'s `TxComplete` event fires.
    ///
    /// # Panics
    /// Panics if `port` is not transmitting.
    pub fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let size = self.in_flight[port.0 as usize]
            .take()
            .expect("tx-complete on idle port");
        if self.account_at == AccountAt::End {
            self.record(ctx.now().0, port, size);
        }
        self.pump(ctx, port);
    }

    /// Reports every frame whose accounting instant is at or before `now`
    /// to `account(port, bytes)` — each port's frames in FIFO order, ports
    /// in `(earliest instant, port)` order. Returns whether any was due.
    pub fn settle(&mut self, now: Nanos, account: impl FnMut(PortId, u32)) -> bool {
        if self.next_due > now.0 {
            return false;
        }
        self.next_due = self.book.drain_due(now, account);
        true
    }

    fn record(&mut self, at: u64, port: PortId, bytes: u32) {
        self.book.push(at, port, bytes);
        self.next_due = self.next_due.min(at);
    }

    /// Event-per-frame: starts the next transmission if `port` is idle, a
    /// frame is queued, and the pacer allows it. Call when the
    /// [`NIC_PACE_TOKEN`] timer set by a paced stage fires.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let p = port.0 as usize;
        if self.in_flight[p].is_some() {
            return;
        }
        let Some(&front) = self.queues[p].front() else {
            return;
        };
        if let Some(bps) = self.pace_bps {
            if ctx.now() < self.next_tx_at {
                // Wake up exactly when the pacer opens.
                ctx.timer_at(self.next_tx_at, NIC_PACE_TOKEN);
                return;
            }
            let gap = (u64::from(front.size) * 8).saturating_mul(1_000_000_000) / bps;
            self.next_tx_at = ctx.now() + Nanos(gap);
        }
        self.queues[p].pop_front();
        self.in_flight[p] = Some(front.size);
        if self.account_at == AccountAt::Start {
            self.record(ctx.now().0, port, front.size);
        }
        ctx.start_tx(port, front);
    }
}

/// Accounting instants of a multi-port FIFO stage that the owner has not
/// been told about yet.
///
/// One port's instants are recorded in nondecreasing order, so the book is
/// a deque per port — `O(1)` push and pop with contiguous memory, where a
/// global min-heap over *frames* pays `O(log backlog)` scattered sift
/// steps per frame. Ports with a nonempty deque are indexed by a tiny
/// min-heap on `(front instant, port)` — tens of entries, two cache lines
/// — so a drain touches `O(log ports)` words instead of scanning every
/// port.
///
/// The heap needs no decrease-key bookkeeping: a port's front only changes
/// at the root (when its due prefix is drained — the new front is *later*,
/// a sift-down) or when an idle port turns busy (an append + sift-up).
///
/// [`Self::drain_due`] reports due ports in `(front instant, port)` order,
/// each port's entire due prefix at once — not in global time order:
/// within one batch the entries only feed commutative counter adds and
/// buffer releases (same-port order, which FIFO semantics do fix, is
/// preserved by the deque), so the batch order is unobservable — which is
/// also why entries carry no insertion sequence: `(instant, bytes)` is 16
/// bytes, and equal-time ties across ports resolve by port index,
/// deterministically.
#[derive(Debug)]
struct DepartureBook {
    /// Per-port FIFO of `(instant, bytes)`, monotone in `instant`.
    fifos: Vec<VecDeque<(u64, u32)>>,
    /// Min-heap of `(front instant, port)` over ports with a nonempty fifo.
    heap: BinaryHeap<Reverse<(u64, u16)>>,
}

impl DepartureBook {
    fn with_ports(ports: usize) -> Self {
        DepartureBook {
            fifos: (0..ports).map(|_| VecDeque::new()).collect(),
            heap: BinaryHeap::with_capacity(ports),
        }
    }

    /// Records that `bytes` on `port` are to be accounted at `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than `port`'s last entry: a due entry
    /// stranded behind a later front would never be reported.
    fn push(&mut self, at: u64, port: PortId, bytes: u32) {
        let fifo = &mut self.fifos[port.0 as usize];
        assert!(
            fifo.back().is_none_or(|&(d, _)| d <= at),
            "non-monotone departure on port {port:?}"
        );
        if fifo.is_empty() {
            self.heap.push(Reverse((at, port.0)));
        }
        fifo.push_back((at, bytes));
    }

    /// Calls `f(port, bytes)` for every entry due at or before `now` and
    /// returns the earliest instant still pending (`u64::MAX` when none).
    fn drain_due(&mut self, now: Nanos, mut f: impl FnMut(PortId, u32)) -> u64 {
        while let Some(mut root) = self.heap.peek_mut() {
            let Reverse((d, p)) = *root;
            if d > now.0 {
                return d;
            }
            let fifo = &mut self.fifos[p as usize];
            while let Some(&(_, bytes)) = fifo.front().filter(|e| e.0 <= now.0) {
                fifo.pop_front();
                f(PortId(p), bytes);
            }
            // Re-key the root to the port's new front (later: it sifts
            // down when `root` drops), or remove it when the port went idle.
            match fifo.front() {
                Some(&(d, _)) => *root = Reverse((d, p)),
                None => drop(PeekMut::pop(root)),
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::{Node, NodeId};
    use crate::packet::{FlowId, PacketKind};
    use crate::sim::Simulator;

    #[test]
    fn drains_in_departure_order_across_ports() {
        let mut book = DepartureBook::with_ports(2);
        book.push(200, PortId(0), 20);
        book.push(300, PortId(0), 30);
        book.push(100, PortId(1), 10);
        let mut got = Vec::new();
        // 300 is not due yet.
        assert_eq!(book.drain_due(Nanos(250), |p, b| got.push((p.0, b))), 300);
        assert_eq!(got, vec![(1, 10), (0, 20)]);
        // Nothing new is due: the guard value comes back unchanged.
        assert_eq!(book.drain_due(Nanos(250), |_, _| panic!("not due")), 300);
        let next = book.drain_due(Nanos(300), |p, b| got.push((p.0, b)));
        assert_eq!(got.last(), Some(&(0u16, 30u32)));
        assert_eq!(next, u64::MAX, "book is empty");
    }

    #[test]
    fn drain_settles_exactly_the_due_prefix() {
        let mut book = DepartureBook::with_ports(3);
        book.push(100, PortId(0), 1);
        book.push(300, PortId(0), 2);
        book.push(150, PortId(2), 3);
        book.push(200, PortId(2), 4);
        let mut got = Vec::new();
        let next = book.drain_due(Nanos(200), |p, b| got.push((p.0, b)));
        // Port-by-port batch order; same-port FIFO order preserved.
        assert_eq!(got, vec![(0, 1), (2, 3), (2, 4)]);
        assert_eq!(next, 300);
        assert_eq!(
            book.drain_due(Nanos(300), |p, b| got.push((p.0, b))),
            u64::MAX
        );
        assert_eq!(got.last(), Some(&(0u16, 2u32)));
    }

    #[test]
    fn equal_times_drain_in_port_order() {
        let mut book = DepartureBook::with_ports(10);
        for p in (0..10u16).rev() {
            book.push(50, PortId(p), u32::from(p));
        }
        let mut got = Vec::new();
        book.drain_due(Nanos(50), |p, b| got.push((p.0, b)));
        let want: Vec<(u16, u32)> = (0..10u16).map(|p| (p, u32::from(p))).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "non-monotone departure")]
    fn non_monotone_push_panics_in_every_build() {
        let mut book = DepartureBook::with_ports(1);
        book.push(200, PortId(0), 1);
        book.push(100, PortId(0), 1);
    }

    /// `(offer time, port, size)`; the timer token is the index.
    type Offers = Vec<(u64, u16, u32)>;

    /// A minimal stage owner: a byte limit over admitted-but-unaccounted
    /// frames (the NIC's queue limit or the switch's buffer, depending on
    /// `AccountAt`).
    struct Owner {
        tx: TxStage,
        limit: u64,
        held: u64,
        accounted: u64,
        accounted_bytes: u64,
        dropped: u64,
        offers: Offers,
    }

    impl Owner {
        fn settle(&mut self, now: Nanos) {
            self.tx.settle(now, |_, size| {
                self.held -= u64::from(size);
                self.accounted += 1;
                self.accounted_bytes += u64::from(size);
            });
        }
    }

    impl Node for Owner {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let (_, port, size) = self.offers[token as usize];
            self.settle(ctx.now());
            if self.held + u64::from(size) > self.limit {
                self.dropped += 1;
                return;
            }
            self.held += u64::from(size);
            let pkt = Packet {
                flow: FlowId(token),
                kind: PacketKind::Raw { tag: 0 },
                src: ctx.node(),
                dst: NodeId(1 + u32::from(port)),
                size,
                created: ctx.now(),
                ce: false,
            };
            self.tx.enqueue(ctx, PortId(port), pkt);
            self.settle(ctx.now());
        }
        fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
            self.tx.on_tx_complete(ctx, port);
            self.settle(ctx.now());
        }
        fn settle_lazy(&mut self, now: Nanos) {
            self.settle(now);
        }
    }

    /// Logs `(arrival instant, size)`.
    struct Sink(Vec<(u64, u32)>);
    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: PortId, pkt: Packet) {
            self.0.push((ctx.now().0, pkt.size));
        }
    }

    const PORTS: u16 = 4;
    const STEP: u64 = 400;
    const STOPS: u64 = 100;

    fn spec() -> LinkSpec {
        LinkSpec::gbps(10.0, Nanos(500))
    }

    /// What one run exposes: per-port arrival logs, `(held, accounted)` at
    /// every stop, and the final `(accounted bytes, dropped)`.
    type Observed = (Vec<Vec<(u64, u32)>>, Vec<(u64, u64)>, (u64, u64));

    fn simulate(hybrid: bool, at: AccountAt, limit: u64, offers: &Offers) -> Observed {
        let mut sim = Simulator::new();
        sim.set_hybrid(hybrid);
        let owner = sim.add_node(Box::new(Owner {
            tx: TxStage::new(PORTS as usize, at, None),
            limit,
            held: 0,
            accounted: 0,
            accounted_bytes: 0,
            dropped: 0,
            offers: offers.clone(),
        }));
        let sinks: Vec<NodeId> = (0..PORTS)
            .map(|p| {
                let s = sim.add_node(Box::new(Sink(Vec::new())));
                sim.connect((owner, PortId(p)), (s, PortId(0)), spec());
                s
            })
            .collect();
        for (i, &(t, _, _)) in offers.iter().enumerate() {
            sim.schedule_timer(Nanos(t), owner, i as u64);
        }
        let mut timeline = Vec::new();
        for k in 1..=STOPS {
            sim.run_until(Nanos(k * STEP));
            let o = sim.node::<Owner>(owner);
            timeline.push((o.held, o.accounted));
        }
        let o = sim.node::<Owner>(owner);
        assert_eq!(o.held, 0, "every admitted frame is accounted by the end");
        let rx = sinks
            .iter()
            .map(|&s| sim.node::<Sink>(s).0.clone())
            .collect();
        (rx, timeline, (o.accounted_bytes, o.dropped))
    }

    /// The recurrence, evaluated directly — the reference each engine is
    /// compared with.
    fn reference(at: AccountAt, limit: u64, offers: &Offers) -> Observed {
        let mut free = [0u64; PORTS as usize];
        // (admission, accounting instant, size) of admitted frames.
        let mut admitted: Vec<(u64, u64, u32)> = Vec::new();
        let mut rx = vec![Vec::new(); PORTS as usize];
        let mut dropped = 0;
        for &(t, port, size) in offers {
            let held: u64 = admitted
                .iter()
                .filter(|&&(_, instant, _)| instant > t)
                .map(|&(_, _, s)| u64::from(s))
                .sum();
            if held + u64::from(size) > limit {
                dropped += 1;
                continue;
            }
            let start = t.max(free[port as usize]);
            let dep = start + spec().ser_time(size).0;
            free[port as usize] = dep;
            let instant = if at == AccountAt::Start { start } else { dep };
            admitted.push((t, instant, size));
            rx[port as usize].push((dep + spec().propagation.0, size));
        }
        let timeline = (1..=STOPS)
            .map(|k| {
                let h = k * STEP;
                let pending = admitted.iter().filter(|&&(adm, i, _)| adm <= h && i > h);
                let held = pending.map(|&(_, _, s)| u64::from(s)).sum();
                let accounted = admitted.iter().filter(|&&(_, i, _)| i <= h).count();
                (held, accounted as u64)
            })
            .collect();
        let bytes = admitted.iter().map(|&(_, _, s)| u64::from(s)).sum();
        (rx, timeline, (bytes, dropped))
    }

    #[test]
    fn both_engines_follow_the_recurrence() {
        let sizes = [1500u32, 64, 900, 1500, 300, 1500, 1200, 64, 1500, 700];
        // One frame at a time, each long after the previous one left.
        let idle: Offers = (0..10).map(|i| (i * 3_000, 1, sizes[i as usize])).collect();
        // A burst into one port, then a second one while it still drains.
        let backlogged: Offers = (0..20)
            .map(|i| (if i < 10 { 0 } else { 4_000 }, 2, sizes[i % 10]))
            .collect();
        // Equal frames offered to every port at the same instants, so
        // starts and departures coincide across ports.
        let equal_time: Offers = (0..24)
            .map(|i| ((i / 8) * 1_216, (i % 4) as u16, 1500))
            .collect();
        for (pattern, offers) in [
            ("idle", &idle),
            ("backlogged", &backlogged),
            ("equal-time", &equal_time),
        ] {
            for at in [AccountAt::Start, AccountAt::End] {
                for limit in [4_000, u64::MAX] {
                    let want = reference(at, limit, offers);
                    if pattern != "idle" {
                        assert_eq!(want.2 .1 > 0, limit == 4_000, "{pattern}: limit binds");
                    }
                    for hybrid in [false, true] {
                        assert_eq!(
                            simulate(hybrid, at, limit, offers),
                            want,
                            "{pattern} {at:?} limit={limit} hybrid={hybrid}"
                        );
                    }
                }
            }
        }
    }
}
