//! Property test: the calendar-queue [`EventQueue`] is observably
//! equivalent to the reference binary heap it replaced.
//!
//! The reference model is a `BinaryHeap` over `(time, seq)` — exactly the
//! structure the simulator used before the calendar queue. Both structures
//! are driven through long, seeded, randomized schedules (time ties,
//! zero-delay re-scheduling mid-drain, far-future overflow crossings,
//! horizon-bounded pops) and must produce identical event streams at every
//! step. Any divergence in pop order, horizon behaviour, or bookkeeping is
//! a determinism bug that would silently change every simulation result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use uburst_sim::events::{EventKind, EventQueue};
use uburst_sim::node::NodeId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;

/// The pre-calendar reference: a heap of `(time, seq, token)` with
/// FIFO-within-time ordering via the sequence number.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_seq: u64,
}

impl HeapQueue {
    fn schedule(&mut self, time: Nanos, token: u64) {
        self.heap.push(Reverse((time.0, self.next_seq, token)));
        self.next_seq += 1;
    }

    fn pop_until(&mut self, until: Nanos) -> Option<(Nanos, u64)> {
        let &Reverse((t, _, token)) = self.heap.peek()?;
        if t > until.0 {
            return None;
        }
        self.heap.pop();
        Some((Nanos(t), token))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

fn timer(token: u64) -> EventKind {
    EventKind::Timer {
        node: NodeId(0),
        token,
    }
}

fn token_of(kind: &EventKind) -> u64 {
    match kind {
        EventKind::Timer { token, .. } => *token,
        other => panic!("only timers are scheduled here, got {other:?}"),
    }
}

/// Drives both queues through an identical randomized schedule and asserts
/// the popped streams match event-for-event.
fn run_equivalence(seed: u64, rounds: usize, max_step: u64) {
    let mut rng = Rng::new(seed);
    let mut cal = EventQueue::new();
    let mut heap = HeapQueue::default();
    let mut now = 0u64;
    let mut next_token = 0u64;
    let mut popped = 0u64;

    for round in 0..rounds {
        // A burst of schedules relative to `now`: mostly near-future (the
        // simulator's real mix), some at the current instant (ties and
        // mid-drain inserts), some far past the wheel span (overflow).
        let burst = rng.range(1, 40) as usize;
        for _ in 0..burst {
            let dt = if rng.chance(0.05) {
                rng.range(2_000_000, 3_000_000_000) // cross the overflow
            } else if rng.chance(0.15) {
                0 // exact tie with the current instant
            } else {
                rng.below(max_step)
            };
            let t = Nanos(now + dt);
            cal.schedule(t, timer(next_token));
            heap.schedule(t, next_token);
            next_token += 1;
        }
        assert_eq!(cal.len(), heap.len(), "round {round}: pending count");

        // Advance the horizon and drain both queues against it, sometimes
        // re-scheduling zero-delay work mid-drain (the activated-bucket
        // merge path).
        now += rng.below(max_step * 2) + 1;
        let horizon = Nanos(now);
        loop {
            let c = cal.pop_until(horizon);
            let h = heap.pop_until(horizon);
            match (c, h) {
                (None, None) => break,
                (Some(ce), Some((ht, htok))) => {
                    assert_eq!(ce.time, ht, "round {round}: pop time");
                    assert_eq!(token_of(&ce.kind), htok, "round {round}: pop order");
                    popped += 1;
                    if rng.chance(0.1) {
                        // Same-instant re-schedule while the bucket drains.
                        cal.schedule(ce.time, timer(next_token));
                        heap.schedule(ce.time, next_token);
                        next_token += 1;
                    }
                }
                (c, h) => panic!(
                    "round {round}: queues disagree at horizon {horizon:?}: \
                     calendar={c:?} heap={h:?}"
                ),
            }
        }
        // Horizon respected: nothing at or before `now` remains.
        if let Some(t) = cal.peek_time() {
            assert!(t > horizon, "round {round}: unpopped event at {t:?}");
        }
    }

    // Final full drain must agree too.
    loop {
        let c = cal.pop_until(Nanos::MAX);
        let h = heap.pop_until(Nanos::MAX);
        match (c, h) {
            (None, None) => break,
            (Some(ce), Some((ht, htok))) => {
                assert_eq!(ce.time, ht, "final drain time");
                assert_eq!(token_of(&ce.kind), htok, "final drain order");
                popped += 1;
            }
            (c, h) => panic!("final drain disagrees: calendar={c:?} heap={h:?}"),
        }
    }
    assert!(cal.is_empty());
    assert_eq!(popped, next_token, "every scheduled event popped once");
}

#[test]
fn equivalent_on_dense_near_future_mix() {
    // Steps within one wheel day: exercises bucket hashing and ties.
    run_equivalence(0xCA1E_0001, 400, 50_000);
}

#[test]
fn equivalent_on_sparse_multi_day_mix() {
    // Steps spanning several wheel days: exercises rotation + refill.
    run_equivalence(0xCA1E_0002, 200, 5_000_000);
}

#[test]
fn equivalent_on_microsecond_polling_cadence() {
    // The paper's workload shape: ~25 us deadlines with sub-us packet
    // events, across enough rounds to rotate the wheel many times.
    run_equivalence(0xCA1E_0003, 600, 25_000);
}

#[test]
fn equivalent_across_many_seeds() {
    for seed in 0..20u64 {
        run_equivalence(0x5EED_0000 + seed, 60, 300_000);
    }
}

#[test]
fn equivalent_on_sparse_one_event_per_run() {
    // The shape the hybrid fast-forward engine leaves behind: single events
    // separated by long empty-bucket runs (tens to thousands of buckets,
    // i.e. across many occupancy words), so almost every pop exercises the
    // summary-word skip in `find_next_occupied`. Gaps are co-prime-ish with
    // the 256 ns bucket width and 64-bucket word width to hit every
    // cursor/word alignment, including the wrapped same-word case.
    let mut rng = Rng::new(0x5BA5_0001);
    let mut cal = EventQueue::new();
    let mut heap = HeapQueue::default();
    let mut t = 0u64;
    let mut next_token = 0u64;
    for _ in 0..4_000 {
        // 1 bucket .. ~3,900 buckets (just under one wheel day), plus an
        // occasional overflow hop of several days.
        let gap = if rng.chance(0.02) {
            rng.range(1_048_576, 8_388_608)
        } else {
            rng.range(257, 1_000_000)
        };
        t += gap;
        cal.schedule(Nanos(t), timer(next_token));
        heap.schedule(Nanos(t), next_token);
        next_token += 1;
    }
    let mut popped = 0u64;
    loop {
        let c = cal.pop_until(Nanos::MAX);
        let h = heap.pop_until(Nanos::MAX);
        match (c, h) {
            (None, None) => break,
            (Some(ce), Some((ht, htok))) => {
                assert_eq!(ce.time, ht, "sparse drain time");
                assert_eq!(token_of(&ce.kind), htok, "sparse drain order");
                popped += 1;
            }
            (c, h) => panic!("sparse drain disagrees: calendar={c:?} heap={h:?}"),
        }
    }
    assert_eq!(popped, next_token);
    assert!(cal.is_empty());
}

#[test]
fn massed_ties_pop_in_schedule_order() {
    // Thousands of events at one instant must come back FIFO, matching the
    // heap's seq-tiebreak exactly.
    let mut cal = EventQueue::new();
    let mut heap = HeapQueue::default();
    let t = Nanos(123_456);
    for token in 0..5_000u64 {
        cal.schedule(t, timer(token));
        heap.schedule(t, token);
    }
    for _ in 0..5_000u64 {
        let ce = cal.pop_until(Nanos::MAX).expect("calendar has the event");
        let (ht, htok) = heap.pop_until(Nanos::MAX).expect("heap has the event");
        assert_eq!(ce.time, ht);
        assert_eq!(token_of(&ce.kind), htok);
    }
    assert!(cal.is_empty());
    assert_eq!(heap.len(), 0);
}
