//! Hybrid packet/fluid fast-forward support.
//!
//! The paper's figures are built from counters polled every 10–25 µs, yet
//! the packet-mode simulator pays two events per hop per frame — a local
//! `TxComplete` when the egress finishes serializing plus the peer's
//! `PacketArrive`. For the long Hadoop background flows that dominate the
//! campaign benches, roughly half of all events are `TxComplete`s whose
//! only job is bookkeeping that is *already determined* at admission time.
//!
//! ## The exactness argument
//!
//! Every transmit path in the simulator is an unpaced work-conserving FIFO
//! (the host NIC's transmit ring and each switch egress queue). For such a
//! queue the departure time of the `j`-th admitted frame is a closed-form
//! recurrence over admission instants:
//!
//! ```text
//! dep_j = max(adm_j, dep_{j-1}) + ser(size_j)
//! ```
//!
//! with `ser` the deterministic [`LinkSpec::ser_time`](crate::link::LinkSpec)
//! serialization time. Nothing that happens after admission can change
//! `dep_j` — admission control (shared-buffer dynamic thresholds, NIC queue
//! limits) runs *before* a frame joins the FIFO, and drops never join it.
//! Hybrid mode therefore integrates the drain analytically: at admission it
//! computes `dep_j` in closed form, schedules the peer's `PacketArrive`
//! directly at `dep_j + propagation`, and parks the `(dep_j, size_j)` pair
//! in a departure book. The `TxComplete` event is never scheduled; its
//! accounting (TX counters, buffer occupancy release) is *settled* lazily —
//! at the next arrival touching the same queue, at a counter-poll instant
//! (see `AsicCounters::flush_to` in `uburst-asic`), and when
//! [`Simulator::run_until`](crate::sim::Simulator::run_until) returns.
//! Because every observation point settles first, every observable value —
//! per-port counters, buffer level/peak registers, switch statistics — is
//! byte-identical to packet mode; this is a lazy-evaluation refactor, not an
//! approximation, and `crates/bench/tests/hybrid_equivalence.rs` diffs the
//! sampled timelines of every scenario in both modes to prove it.
//!
//! ## Fallback rules (when fast-forward is refused)
//!
//! * **Paced NICs** (`NicConfig::pace_bps = Some(_)`): the pacer's token
//!   bucket makes the serialization start time depend on timer wakeups, not
//!   only on FIFO order, so paced NICs keep the legacy event-per-frame path
//!   even in hybrid mode. The refusal is structural — the lazy path is
//!   simply never entered — so no scenario is silently approximated.
//! * **Injected faults** act on the *measurement* plane (bus timeouts,
//!   latency spikes, stale reads, counter wrap in `uburst-asic`), never on
//!   the data path, so they are mode-independent by construction;
//!   `tests/fault_tolerance.rs` asserts faulted campaigns decode to
//!   identical timelines in both modes.
//!
//! The mode is selected per [`Simulator`](crate::sim::Simulator) — from the
//! `UBURST_HYBRID` environment variable by default (unset means **on**),
//! or explicitly via `Simulator::set_hybrid` — and must not flip mid-run.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::node::PortId;
use crate::time::Nanos;

/// Process-wide default for hybrid mode, read once from `UBURST_HYBRID`.
/// Unset or any value other than `0`/`false`/`off`/`no` enables it.
pub fn hybrid_default() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| match std::env::var("UBURST_HYBRID") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
        Err(_) => true,
    })
}

/// Admitted-but-unsettled departures of a multi-port FIFO stage.
///
/// The switch parks one entry per admitted frame; settling drains every
/// entry with `dep <= now` and applies its TX accounting. Departures of
/// one FIFO port are admitted in departure order, so the book is a deque
/// per port — `O(1)` push and pop with contiguous memory, where a global
/// min-heap over *frames* pays `O(log backlog)` scattered sift steps per
/// frame. Ports with a nonempty deque are indexed by a tiny min-heap on
/// `(front dep, port)` — tens of entries, two cache lines — so the
/// settle path touches `O(log ports)` words instead of scanning every
/// port, and the "is anything due?" probe is one peek at the root.
///
/// The heap needs no decrease-key bookkeeping: a port's front departure
/// only changes at the root (when its due prefix is drained — the new
/// front is *later*, a sift-down) or when an idle port turns busy (an
/// append + sift-up). Under congestion ports are rarely idle, so the
/// per-admission cost is just the deque push.
///
/// [`Self::drain_due`] (the hot path) settles due ports in `(front dep,
/// port)` order, each port's entire due prefix at once — not in global
/// time order: within one settle batch the entries only feed commutative
/// counter adds and buffer releases (same-port order, which FIFO
/// semantics do fix, is preserved by the deque), so the batch order is
/// unobservable — which is also why entries carry no insertion sequence:
/// `(dep, bytes)` is 16 bytes, and equal-time ties across ports resolve
/// by port index, deterministically.
#[derive(Debug, Default)]
pub struct DepartureBook {
    /// Per-port FIFO of `(dep, bytes)`, monotone in `dep`.
    fifos: Vec<VecDeque<(u64, u32)>>,
    /// Min-heap of `(front dep, port)` over ports with a nonempty fifo.
    heap: Vec<(u64, u16)>,
    len: usize,
}

impl DepartureBook {
    /// An empty book pre-sized for `ports` egress ports.
    pub fn with_ports(ports: usize) -> Self {
        DepartureBook {
            fifos: (0..ports).map(|_| VecDeque::new()).collect(),
            heap: Vec::with_capacity(ports),
            len: 0,
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.heap.len() && self.heap[l] < self.heap[min] {
                min = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[min] {
                min = r;
            }
            if min == i {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }

    /// Re-keys the root after its port's fifo front changed: sift the new
    /// front down, or remove the root when the port went idle.
    fn fix_root(&mut self, p: u16) {
        match self.fifos[p as usize].front() {
            Some(&(d, _)) => self.heap[0] = (d, p),
            None => {
                let last = self.heap.len() - 1;
                self.heap.swap(0, last);
                self.heap.pop();
            }
        }
        self.sift_down(0);
    }

    /// Records that `bytes` depart `port` at `dep`.
    ///
    /// # Panics
    /// Panics (debug) if `dep` is not monotone for `port` — the closed-form
    /// FIFO recurrence guarantees it, and the deque depends on it.
    pub fn push(&mut self, dep: Nanos, port: PortId, bytes: u32) {
        let p = port.0 as usize;
        if p >= self.fifos.len() {
            self.fifos.resize_with(p + 1, VecDeque::new);
        }
        debug_assert!(
            self.fifos[p].back().is_none_or(|&(d, _)| d <= dep.0),
            "non-monotone departure on port {p}"
        );
        if self.fifos[p].is_empty() {
            self.heap.push((dep.0, port.0));
            self.sift_up(self.heap.len() - 1);
        }
        self.fifos[p].push_back((dep.0, bytes));
        self.len += 1;
    }

    /// Settles every departure due at or before `now` — each due port's
    /// whole due prefix at once, ports in `(front dep, port)` order (see
    /// the type docs for why batch order is unobservable) — calling
    /// `f(port, bytes)` per entry. Returns the earliest departure still
    /// pending (`u64::MAX` when none), so the caller's next "is anything
    /// due?" guard costs nothing extra.
    pub fn drain_due(&mut self, now: Nanos, mut f: impl FnMut(PortId, u32)) -> u64 {
        while let Some(&(d, p)) = self.heap.first() {
            if d > now.0 {
                return d;
            }
            let fifo = &mut self.fifos[p as usize];
            while let Some(&(d, bytes)) = fifo.front() {
                if d > now.0 {
                    break;
                }
                fifo.pop_front();
                self.len -= 1;
                f(PortId(p), bytes);
            }
            self.fix_root(p);
        }
        u64::MAX
    }

    /// Number of unsettled departures.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when every admitted frame has been settled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_departure_order_across_ports() {
        let mut book = DepartureBook::default();
        book.push(Nanos(200), PortId(0), 20);
        book.push(Nanos(300), PortId(0), 30);
        book.push(Nanos(100), PortId(1), 10);
        let mut got = Vec::new();
        // 300 is not due yet.
        assert_eq!(book.drain_due(Nanos(250), |p, b| got.push((p.0, b))), 300);
        assert_eq!(got, vec![(1, 10), (0, 20)]);
        assert_eq!(book.len(), 1);
        // Nothing new is due: the guard value comes back unchanged.
        assert_eq!(book.drain_due(Nanos(250), |_, _| panic!("not due")), 300);
        book.drain_due(Nanos(300), |p, b| got.push((p.0, b)));
        assert_eq!(got.last(), Some(&(0u16, 30u32)));
        assert!(book.is_empty());
    }

    #[test]
    fn drain_settles_exactly_the_due_prefix() {
        let mut book = DepartureBook::with_ports(3);
        book.push(Nanos(100), PortId(0), 1);
        book.push(Nanos(300), PortId(0), 2);
        book.push(Nanos(150), PortId(2), 3);
        book.push(Nanos(200), PortId(2), 4);
        let mut got = Vec::new();
        let next = book.drain_due(Nanos(200), |p, b| got.push((p.0, b)));
        // Port-by-port batch order; same-port FIFO order preserved.
        assert_eq!(got, vec![(0, 1), (2, 3), (2, 4)]);
        assert_eq!(book.len(), 1);
        assert_eq!(next, 300);
        assert_eq!(
            book.drain_due(Nanos(300), |p, b| got.push((p.0, b))),
            u64::MAX
        );
        assert_eq!(got.last(), Some(&(0u16, 2u32)));
        assert!(book.is_empty());
    }

    #[test]
    fn equal_times_drain_in_port_order() {
        let mut book = DepartureBook::default();
        for p in (0..10u16).rev() {
            book.push(Nanos(50), PortId(p), u32::from(p));
        }
        let mut got = Vec::new();
        book.drain_due(Nanos(50), |p, b| got.push((p.0, b)));
        let want: Vec<(u16, u32)> = (0..10u16).map(|p| (p, u32::from(p))).collect();
        assert_eq!(got, want);
    }
}
