//! The discrete-event calendar.
//!
//! A bucketed **calendar queue / timer-wheel hybrid** keyed on
//! `(time, ord)`, where `ord` is a canonical same-instant rank computed at
//! schedule time (see [`Event::key`]). The rank makes ordering total,
//! deterministic, and — crucially for the hybrid fast-forward engine
//! ([`crate::txstage`]) — independent of scheduling history: at one
//! instant, transmit completions drain buffers first, then packets arrive
//! (per receiving node and port), then timers fire; within one rank class
//! events keep schedule order. Packet mode and hybrid mode schedule
//! different event *sets* (hybrid never materializes `TxComplete`), so a
//! raw global sequence number would order the same physical coincidence
//! differently in each mode; the canonical rank gives both modes the same
//! answer, which is what makes lazy settlement of departures at
//! `dep <= now` exact rather than approximately right.
//!
//! ## Why not a binary heap
//!
//! The event mix of a packet-level simulation is overwhelmingly
//! *near-future*: serialization completions land nanoseconds to a few
//! microseconds ahead, timers tens of microseconds ahead. A `BinaryHeap`
//! pays O(log n) compare-and-move work (on ~100-byte events) for every
//! schedule and pop. The calendar queue instead hashes each event into a
//! fixed wheel of time buckets — O(1) per schedule — and only sorts a
//! bucket when the clock reaches it, so the per-event cost is O(1)
//! amortized with far better locality.
//!
//! ## Structure and invariants
//!
//! * The **wheel** covers absolute bucket indices `[next_abs, wheel_end)`
//!   (bucket = `time >> BUCKET_SHIFT`), at most `N_BUCKETS` wide. Events
//!   in this window sit unsorted in their bucket; a 64×64 occupancy bitmap
//!   topped by a one-word summary finds the next non-empty bucket with two
//!   find-first-set instructions, so sparse (fast-forwarded) calendars skip
//!   arbitrarily long empty-bucket runs in O(1).
//! * The **current bucket** (`cur`) is the activated bucket, sorted
//!   descending by `(time, seq)` and drained from the back. An event
//!   scheduled at or before the activated bucket (same-time timers,
//!   zero-delay transmissions) is merge-inserted into `cur` at its exact
//!   `(time, seq)` position, so the total order is preserved even for
//!   events scheduled mid-drain.
//! * The **overflow** holds far-future events (`abs >= wheel_end`)
//!   unsorted, with a maintained minimum. When the wheel drains, the queue
//!   jumps directly to the overflow minimum's day and redistributes —
//!   popping never walks empty rotations.
//!
//! Every event is therefore popped in exactly the order the old heap
//! produced: strictly increasing `(time, seq)` (asserted exhaustively by
//! `tests/calendar_equivalence.rs`).

use crate::arena::PacketRef;
use crate::node::{NodeId, PortId};
use crate::time::Nanos;

/// log2 of the bucket width in nanoseconds (256 ns buckets): narrow enough
/// that a loaded rack keeps only a handful of events per bucket, wide
/// enough that a 25 µs polling loop skips ~100 buckets per poll via the
/// occupancy bitmap rather than thousands.
const BUCKET_SHIFT: u32 = 8;
/// Number of wheel buckets; together with the width this spans a
/// ~1 ms "day" (4096 × 256 ns) before events fall into the overflow.
const N_BUCKETS: usize = 4096;
const BUCKET_MASK: u64 = (N_BUCKETS as u64) - 1;
/// Occupancy bitmap words (64 buckets per word).
const OCC_WORDS: usize = N_BUCKETS / 64;
// The summary bitmap (`EventQueue::occ_sum`) packs one bit per occupancy
// word into a single u64; the wheel geometry must keep that exact.
const _: () = assert!(OCC_WORDS == 64);

/// Everything that can happen in the simulator.
///
/// Packet payloads live in the simulator's [`crate::arena::PacketArena`];
/// events carry only the 8-byte handle, which keeps the structures the
/// calendar queue copies (bucket pushes, merge-inserts, activation sorts)
/// at a third of their former size.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A packet finishes arriving at `node` on ingress `port`.
    PacketArrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on the receiving node.
        port: PortId,
        /// Arena handle of the arriving packet.
        pkt: PacketRef,
    },
    /// `node` finishes serializing a packet out of egress `port`.
    TxComplete {
        /// Transmitting node.
        node: NodeId,
        /// The egress port that became free.
        port: PortId,
    },
    /// A timer set by `node` fires; `token` is the node's own cookie.
    Timer {
        /// The node that set the timer.
        node: NodeId,
        /// Opaque cookie chosen by the node.
        token: u64,
    },
}

/// A scheduled occurrence: a time plus what happens then.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub time: Nanos,
    /// Canonical same-instant rank (see [`Event::key`]); computed once at
    /// schedule time.
    ord: u64,
    /// What happens.
    pub kind: EventKind,
}

/// Same-instant rank classes, highest bits of [`Event::key`]'s second
/// component: buffer-draining completions before arrivals before timers.
const RANK_TX_COMPLETE: u64 = 0;
const RANK_ARRIVE: u64 = 1;
const RANK_TIMER: u64 = 2;

/// Bit widths of the packed `ord` word: `rank(2) | node(16) | port(12) |
/// seq(34)`. `schedule` asserts each field fits.
const ORD_SEQ_BITS: u32 = 34;
const ORD_PORT_BITS: u32 = 12;
const ORD_NODE_BITS: u32 = 16;

fn ord_of(kind: &EventKind, seq: u64) -> u64 {
    let (rank, node, port) = match *kind {
        EventKind::TxComplete { node, port } => (RANK_TX_COMPLETE, node.0, port.0),
        EventKind::PacketArrive { node, port, .. } => (RANK_ARRIVE, node.0, port.0),
        // Timers carry no canonical sub-key: same-node ties keep schedule
        // order via `seq`, which both execution modes produce identically
        // (timers are only ever scheduled from arrival/timer dispatches).
        EventKind::Timer { node, .. } => (RANK_TIMER, node.0, 0),
    };
    assert!(
        u64::from(node) < (1 << ORD_NODE_BITS)
            && u64::from(port) < (1 << ORD_PORT_BITS)
            && seq < (1 << ORD_SEQ_BITS),
        "event ord field overflow: node {node}, port {port}, seq {seq}"
    );
    rank << (ORD_NODE_BITS + ORD_PORT_BITS + ORD_SEQ_BITS)
        | u64::from(node) << (ORD_PORT_BITS + ORD_SEQ_BITS)
        | u64::from(port) << ORD_SEQ_BITS
        | seq
}

impl Event {
    /// The total-order key: earlier time first; within one instant the
    /// canonical rank — transmit completions, then arrivals ordered by
    /// `(node, port)`, then timers — with schedule order breaking what
    /// remains. The rank is a pure function of the event's content plus a
    /// within-class sequence, so both execution modes order the same
    /// physical coincidences identically (see the module docs). Public so
    /// batch consumers (the simulator's slice loop) can compare a buffered
    /// event against [`EventQueue::pop_if_before`].
    pub fn key(&self) -> (u64, u64) {
        (self.time.0, self.ord)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The pending-event set.
#[derive(Debug)]
pub struct EventQueue {
    /// Wheel buckets, unsorted; slot = `abs_bucket & BUCKET_MASK`.
    buckets: Vec<Vec<Event>>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occ: [u64; OCC_WORDS],
    /// Summary over `occ` (bit `w` set ⇔ `occ[w] != 0`). `OCC_WORDS` is
    /// exactly 64, so the whole wheel's occupancy collapses into one word
    /// and finding the next non-empty bucket is two find-first-set
    /// instructions instead of a scan over up to 64 empty words — the case
    /// a fast-forwarded (sparse) calendar hits on almost every pop.
    occ_sum: u64,
    /// The activated bucket, sorted descending by `(time, seq)`; popped
    /// from the back.
    cur: Vec<Event>,
    /// Next absolute bucket index to activate. Events scheduled below this
    /// merge into `cur`.
    next_abs: u64,
    /// Exclusive end of the wheel window; `wheel_end - next_abs <= N_BUCKETS`.
    wheel_end: u64,
    /// Events currently held in wheel buckets.
    wheel_len: usize,
    /// Far-future events (`abs >= wheel_end`), unsorted.
    overflow: Vec<Event>,
    /// Minimum time in `overflow` (`Nanos::MAX` when empty).
    overflow_min: Nanos,
    /// Total pending events across `cur`, the wheel, and the overflow.
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty calendar with a small default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// An empty calendar pre-sized for `cap` pending events.
    ///
    /// The wheel itself is fixed-size; `cap` sizes the activated-bucket
    /// and overflow arenas so busy scenarios (tens of thousands of events
    /// in flight, estimated by `build_scenario`) skip the early doubling
    /// reallocations.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            occ_sum: 0,
            cur: Vec::with_capacity(cap.clamp(16, 4096)),
            next_abs: 0,
            wheel_end: N_BUCKETS as u64,
            wheel_len: 0,
            overflow: Vec::with_capacity((cap / 16).max(16)),
            overflow_min: Nanos::MAX,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Adds an event firing at `time`.
    pub fn schedule(&mut self, time: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        let ev = Event {
            time,
            ord: ord_of(&kind, seq),
            kind,
        };
        let abs = time.0 >> BUCKET_SHIFT;
        if abs < self.next_abs {
            // At or before the activated bucket: merge into the sorted
            // drain at the exact (time, ord) position. `cur` is sorted
            // descending, so the insertion point is after every event with
            // a strictly greater key; within a rank class the fresh seq is
            // the largest ever issued, so schedule order is kept.
            let key = ev.key();
            let idx = self.cur.partition_point(|e| e.key() > key);
            self.cur.insert(idx, ev);
        } else if abs < self.wheel_end {
            let slot = (abs & BUCKET_MASK) as usize;
            self.buckets[slot].push(ev);
            self.occ[slot / 64] |= 1u64 << (slot % 64);
            self.occ_sum |= 1u64 << (slot / 64);
            self.wheel_len += 1;
        } else {
            self.overflow_min = self.overflow_min.min(time);
            self.overflow.push(ev);
        }
    }

    /// Pops the next event if it fires at or before `until`.
    pub fn pop_until(&mut self, until: Nanos) -> Option<Event> {
        loop {
            if let Some(e) = self.cur.last() {
                if e.time <= until {
                    self.len -= 1;
                    return self.cur.pop();
                }
                return None;
            }
            if self.len == 0 {
                return None;
            }
            if self.wheel_len == 0 {
                // Everything pending is far-future: jump straight to the
                // overflow minimum's day instead of walking empty buckets.
                if self.overflow_min > until {
                    return None;
                }
                self.refill_from(self.overflow_min.0 >> BUCKET_SHIFT);
                continue;
            }
            let abs = self.find_next_occupied();
            if abs << BUCKET_SHIFT > until.0 {
                // The earliest wheel bucket starts past the horizon, and
                // overflow events are later still.
                return None;
            }
            self.activate(abs);
        }
    }

    /// Drains every event firing at or before `until` from the earliest
    /// pending tier into `buf`, in exactly the order repeated
    /// [`Self::pop_until`] calls would produce them, and returns how many
    /// were appended. At most one wheel bucket is activated per call, so
    /// the batch is the activated bucket's eligible suffix — the unit the
    /// calendar already sorts — and `buf` can be reused across calls
    /// without growing past the busiest bucket.
    ///
    /// Batching is only equivalent to pop-per-event if events scheduled
    /// *while the batch is being consumed* cannot be overtaken. Every
    /// batched event comes from a bucket below `next_abs`, so a new event
    /// either lands at `abs >= next_abs` (a strictly later time than
    /// everything batched) or merge-inserts into `cur` — consumers must
    /// therefore interleave [`Self::pop_if_before`] with the slice, which
    /// is an O(1) check per event.
    pub fn pop_batch(&mut self, until: Nanos, buf: &mut Vec<Event>) -> usize {
        loop {
            if !self.cur.is_empty() {
                // `cur` is sorted descending, so the eligible events
                // (time <= until) are a suffix; reverse it into `buf`.
                let idx = self.cur.partition_point(|e| e.time > until);
                let n = self.cur.len() - idx;
                if n == 0 {
                    return 0;
                }
                self.len -= n;
                buf.extend(self.cur.drain(idx..).rev());
                return n;
            }
            if self.len == 0 {
                return 0;
            }
            if self.wheel_len == 0 {
                if self.overflow_min > until {
                    return 0;
                }
                self.refill_from(self.overflow_min.0 >> BUCKET_SHIFT);
                continue;
            }
            let abs = self.find_next_occupied();
            if abs << BUCKET_SHIFT > until.0 {
                return 0;
            }
            self.activate(abs);
        }
    }

    /// Pops the next event only if its `(time, seq)` key precedes `key`.
    ///
    /// This is the preemption channel for batch consumers: mid-batch
    /// schedules that must fire before a still-buffered event can only
    /// live in the activated bucket (see [`Self::pop_batch`]), so one
    /// comparison against `cur`'s back decides.
    pub fn pop_if_before(&mut self, key: (u64, u64)) -> Option<Event> {
        match self.cur.last() {
            Some(e) if e.key() < key => {
                self.len -= 1;
                self.cur.pop()
            }
            _ => None,
        }
    }

    /// Time of the next pending event, if any. Non-destructive: scans the
    /// earliest tier (current bucket, else first occupied wheel bucket,
    /// else overflow minimum) without advancing the wheel.
    pub fn peek_time(&self) -> Option<Nanos> {
        if let Some(e) = self.cur.last() {
            return Some(e.time);
        }
        if self.wheel_len > 0 {
            let abs = self.find_next_occupied();
            let slot = (abs & BUCKET_MASK) as usize;
            return self.buckets[slot].iter().map(|e| e.time).min();
        }
        (self.len > 0).then_some(self.overflow_min)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled; used by throughput benchmarks.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// First occupied absolute bucket in `[next_abs, wheel_end)`.
    /// Occupancy bits are only ever set inside that window, so any set bit
    /// is valid; circular distance from the cursor recovers the absolute
    /// index. Caller guarantees `wheel_len > 0`.
    fn find_next_occupied(&self) -> u64 {
        let p = (self.next_abs & BUCKET_MASK) as usize;
        let w0 = p / 64;
        let first = self.occ[w0] & (!0u64 << (p % 64));
        let slot = if first != 0 {
            w0 * 64 + first.trailing_zeros() as usize
        } else {
            // Rotate the summary so bit 0 is the word after the cursor's:
            // bit j of `r` ⇔ `occ[(w0 + 1 + j) % 64] != 0`. The first set
            // bit is the next occupied word in circular order, checking
            // the cursor's own word last (its remaining low bits belong to
            // the wrapped end of the window).
            let r = self.occ_sum.rotate_right(((w0 + 1) % OCC_WORDS) as u32);
            assert!(r != 0, "wheel_len > 0 but no occupancy bit set");
            let w = (w0 + 1 + r.trailing_zeros() as usize) % OCC_WORDS;
            w * 64 + self.occ[w].trailing_zeros() as usize
        };
        self.next_abs + ((slot + N_BUCKETS - p) % N_BUCKETS) as u64
    }

    /// Activates bucket `abs`: swap it into `cur`, sort descending by
    /// `(time, seq)`, advance the cursor past it. The old `cur` allocation
    /// is recycled as the (now empty) bucket's storage.
    fn activate(&mut self, abs: u64) {
        let slot = (abs & BUCKET_MASK) as usize;
        debug_assert!(self.cur.is_empty());
        std::mem::swap(&mut self.cur, &mut self.buckets[slot]);
        self.occ[slot / 64] &= !(1u64 << (slot % 64));
        if self.occ[slot / 64] == 0 {
            self.occ_sum &= !(1u64 << (slot / 64));
        }
        self.wheel_len -= self.cur.len();
        self.next_abs = abs + 1;
        // Keys are unique (seq is), so an unstable sort is deterministic.
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }

    /// Re-anchors the wheel window at `from_abs` and pulls every overflow
    /// event that now falls inside it into its bucket.
    fn refill_from(&mut self, from_abs: u64) {
        debug_assert!(from_abs >= self.next_abs);
        self.next_abs = from_abs;
        self.wheel_end = from_abs + N_BUCKETS as u64;
        self.overflow_min = Nanos::MAX;
        let pending = std::mem::take(&mut self.overflow);
        for ev in pending {
            let abs = ev.time.0 >> BUCKET_SHIFT;
            if abs < self.wheel_end {
                let slot = (abs & BUCKET_MASK) as usize;
                self.buckets[slot].push(ev);
                self.occ[slot / 64] |= 1u64 << (slot % 64);
                self.occ_sum |= 1u64 << (slot / 64);
                self.wheel_len += 1;
            } else {
                self.overflow_min = self.overflow_min.min(ev.time);
                self.overflow.push(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token,
        }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        let mut tokens = Vec::new();
        while let Some(e) = q.pop_until(Nanos::MAX) {
            if let EventKind::Timer { token, .. } = e.kind {
                tokens.push(token);
            }
        }
        tokens
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), timer(0, 3));
        q.schedule(Nanos(10), timer(0, 1));
        q.schedule(Nanos(20), timer(0, 2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos(5), timer(0, i));
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), timer(0, 1));
        q.schedule(Nanos(20), timer(0, 2));
        assert!(q.pop_until(Nanos(5)).is_none());
        assert!(q.pop_until(Nanos(10)).is_some());
        assert!(q.pop_until(Nanos(15)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Nanos(20)));
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos(1), timer(0, 0));
        q.schedule(Nanos(2), timer(0, 0));
        q.pop_until(Nanos::MAX);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_batch_drains_bucket_in_order_and_respects_horizon() {
        let mut q = EventQueue::new();
        // Same bucket (256 ns wide): 100, 130; different bucket: 300.
        q.schedule(Nanos(130), timer(0, 2));
        q.schedule(Nanos(100), timer(0, 1));
        q.schedule(Nanos(300), timer(0, 3));
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(Nanos(120), &mut buf), 1);
        assert_eq!(buf.len(), 1);
        assert!(matches!(buf[0].kind, EventKind::Timer { token: 1, .. }));
        assert_eq!(q.len(), 2);
        // Remaining activated-bucket event becomes eligible once the
        // horizon moves; the next bucket needs another call.
        assert_eq!(q.pop_batch(Nanos::MAX, &mut buf), 1);
        assert!(matches!(buf[1].kind, EventKind::Timer { token: 2, .. }));
        assert_eq!(q.pop_batch(Nanos::MAX, &mut buf), 1);
        assert!(matches!(buf[2].kind, EventKind::Timer { token: 3, .. }));
        assert_eq!(q.pop_batch(Nanos::MAX, &mut buf), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_if_before_only_yields_preempting_events() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(100), timer(0, 1));
        q.schedule(Nanos(200), timer(0, 2));
        let mut buf = Vec::new();
        // Activate the bucket holding t=100 and buffer it.
        assert_eq!(q.pop_batch(Nanos(100), &mut buf), 1);
        // Mid-batch schedule at t=150: merges into the activated bucket.
        q.schedule(Nanos(150), timer(0, 3));
        // Not before the buffered event's key → no preemption.
        assert!(q.pop_if_before(buf[0].key()).is_none());
        // Before the pending t=200 event's key → yields the t=150 event.
        let pre = q.pop_if_before((200, u64::MAX)).expect("preempts");
        assert!(matches!(pre.kind, EventKind::Timer { token: 3, .. }));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn same_time_schedule_during_drain_fires_in_order() {
        // Events scheduled *while* their bucket is active (the common
        // zero-delay timer pattern) must still fire after earlier
        // same-time events and before later ones.
        let mut q = EventQueue::new();
        q.schedule(Nanos(100), timer(0, 1));
        q.schedule(Nanos(100), timer(0, 2));
        q.schedule(Nanos(130), timer(0, 4));
        let first = q.pop_until(Nanos::MAX).unwrap();
        assert!(matches!(first.kind, EventKind::Timer { token: 1, .. }));
        // Mid-drain: same time as the drained event, and a nearer future
        // time than the pending token 4 — both land in the active bucket.
        q.schedule(Nanos(100), timer(0, 3));
        q.schedule(Nanos(120), timer(0, 5));
        assert_eq!(drain_tokens(&mut q), vec![2, 3, 5, 4]);
    }

    #[test]
    fn far_future_events_cross_the_overflow() {
        let mut q = EventQueue::new();
        // Well past the wheel span (~1 ms): these live in the overflow.
        q.schedule(Nanos::from_millis(50), timer(0, 3));
        q.schedule(Nanos::from_secs(2), timer(0, 4));
        q.schedule(Nanos(10), timer(0, 1));
        q.schedule(Nanos::from_micros(500), timer(0, 2));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Nanos(10)));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_respects_pop_horizon() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_secs(1), timer(0, 9));
        assert!(q.pop_until(Nanos::from_millis(999)).is_none());
        assert_eq!(q.len(), 1);
        assert!(q.pop_until(Nanos::from_secs(1)).is_some());
    }

    #[test]
    fn interleaved_schedule_pop_across_days() {
        // Schedule-pop-schedule over many wheel rotations; times reuse
        // buckets (mod the wheel span) to exercise slot recycling.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut t = 0u64;
        for round in 0..50u64 {
            for i in 0..20u64 {
                let at = t + (i * 97_003) % 2_000_000; // spans ~2 wheel days
                q.schedule(Nanos(at), timer(0, round * 100 + i));
            }
            // Drain half the horizon, then keep going.
            t += 1_000_000;
            while let Some(e) = q.pop_until(Nanos(t)) {
                expected.push(e.time);
            }
        }
        while let Some(e) = q.pop_until(Nanos::MAX) {
            expected.push(e.time);
        }
        assert!(expected.windows(2).all(|w| w[0] <= w[1]), "sorted order");
        assert_eq!(expected.len(), 50 * 20);
    }
}
