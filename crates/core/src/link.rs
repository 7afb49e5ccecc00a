//! A deterministic lossy-link model for exercising the shipping protocol.
//!
//! The paper's pipeline ships batches from the switch CPU to a collector
//! over a real network; ours ships them through [`LossyLink`], a seeded
//! in-process model of everything a real network does to datagrams:
//! **drop**, **duplicate**, **reorder**, and **delay**. The shipping layer
//! ([`crate::ship`]) must converge to loss-free delivery over any
//! configuration of this link — that is exactly what the integration
//! tests assert.
//!
//! The link is tick-based to match the rest of the codebase's discrete
//! time: `send` enqueues a message with a fault roll and a delivery tick;
//! `tick` advances the clock and returns everything due, in delivery-tick
//! order with seeded tie-breaking (which is where reordering comes from —
//! a delayed message overtakes nothing, but its successors overtake it).
//! Same seed, same fault sequence, regardless of thread interleaving
//! outside the link.

use uburst_sim::rng::Rng;

/// Fault probabilities and delay bounds for a [`LossyLink`].
#[derive(Debug, Clone, Copy)]
pub struct LinkPlan {
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is held for extra ticks (reordering it
    /// behind later traffic).
    pub delay_p: f64,
    /// Maximum extra ticks a delayed message is held (uniform in
    /// `1..=max_delay_ticks`).
    pub max_delay_ticks: u32,
}

impl LinkPlan {
    /// A perfect link: nothing dropped, duplicated, or delayed.
    pub const IDEAL: LinkPlan = LinkPlan {
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        max_delay_ticks: 0,
    };

    /// A hostile link for stress tests: drops a quarter of traffic,
    /// duplicates and delays heavily.
    pub const HOSTILE: LinkPlan = LinkPlan {
        drop_p: 0.25,
        dup_p: 0.15,
        delay_p: 0.30,
        max_delay_ticks: 6,
    };
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan {
            drop_p: 0.05,
            dup_p: 0.02,
            delay_p: 0.10,
            max_delay_ticks: 3,
        }
    }
}

/// What a [`LossyLink`] did to the traffic offered to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages offered via `send`.
    pub offered: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Messages held past their natural delivery tick.
    pub delayed: u64,
    /// Messages handed out by `tick`.
    pub delivered: u64,
}

#[derive(Debug)]
struct InFlight<T> {
    due: u64,
    order: u64,
    msg: T,
}

/// A seeded, tick-based lossy channel. See the module docs.
#[derive(Debug)]
pub struct LossyLink<T> {
    plan: LinkPlan,
    rng: Rng,
    now: u64,
    next_order: u64,
    queue: Vec<InFlight<T>>,
    stats: LinkStats,
}

impl<T: Clone> LossyLink<T> {
    /// A link with the given fault plan, seeded for determinism.
    pub fn new(plan: LinkPlan, seed: u64) -> Self {
        LossyLink {
            plan,
            rng: Rng::new(seed).fork(0x11_4B_10_55),
            now: 0,
            next_order: 0,
            queue: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    fn enqueue(&mut self, msg: T, due: u64) {
        let order = self.next_order;
        self.next_order += 1;
        self.queue.push(InFlight { due, order, msg });
    }

    /// Offers a message to the link. It may be dropped, duplicated,
    /// and/or delayed; surviving copies appear in later `tick` results.
    pub fn send(&mut self, msg: T) {
        self.stats.offered += 1;
        if self.plan.drop_p > 0.0 && self.rng.f64() < self.plan.drop_p {
            self.stats.dropped += 1;
            return;
        }
        let mut due = self.now + 1;
        if self.plan.delay_p > 0.0
            && self.plan.max_delay_ticks > 0
            && self.rng.f64() < self.plan.delay_p
        {
            due += 1 + self.rng.below(self.plan.max_delay_ticks as u64);
            self.stats.delayed += 1;
        }
        if self.plan.dup_p > 0.0 && self.rng.f64() < self.plan.dup_p {
            // The copy rolls its own delay: duplicates may arrive far
            // apart, which is what makes receiver dedup interesting.
            let mut dup_due = self.now + 1;
            if self.plan.max_delay_ticks > 0 {
                dup_due += self.rng.below(self.plan.max_delay_ticks as u64 + 1);
            }
            self.stats.duplicated += 1;
            self.enqueue(msg.clone(), dup_due);
        }
        self.enqueue(msg, due);
    }

    /// Advances the link one tick and returns every message now due, in
    /// delivery order (due tick, then send order — so a delayed message
    /// is overtaken by everything sent after it with a nearer due tick).
    pub fn tick(&mut self) -> Vec<T> {
        self.now += 1;
        let now = self.now;
        // Partition in place: messages still in flight move to the front,
        // due ones collect behind them. Queue position never decides
        // delivery order — the sort on the unique `(due, order)` key does.
        let mut keep = 0;
        for i in 0..self.queue.len() {
            if self.queue[i].due > now {
                self.queue.swap(keep, i);
                keep += 1;
            }
        }
        if keep == self.queue.len() {
            return Vec::new();
        }
        self.queue[keep..].sort_unstable_by_key(|f| (f.due, f.order));
        self.stats.delivered += (self.queue.len() - keep) as u64;
        self.queue.drain(keep..).map(|f| f.msg).collect()
    }

    /// Messages still queued inside the link.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Drops everything still in flight (models the cable cut when one
    /// endpoint crashes: queued traffic dies with the connection).
    pub fn clear(&mut self) {
        self.stats.dropped += self.queue.len() as u64;
        self.queue.clear();
    }

    /// Cumulative fault accounting.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-`Vec` partition `tick` used before it worked in place: the
    /// reference the in-place version must match delivery for delivery.
    fn reference_tick<T>(link: &mut LossyLink<T>) -> Vec<T> {
        link.now += 1;
        let now = link.now;
        let mut due: Vec<InFlight<T>> = Vec::new();
        let mut rest: Vec<InFlight<T>> = Vec::with_capacity(link.queue.len());
        for inflight in link.queue.drain(..) {
            if inflight.due <= now {
                due.push(inflight);
            } else {
                rest.push(inflight);
            }
        }
        link.queue = rest;
        due.sort_by_key(|f| (f.due, f.order));
        link.stats.delivered += due.len() as u64;
        due.into_iter().map(|f| f.msg).collect()
    }

    #[test]
    fn in_place_tick_matches_the_two_vec_partition() {
        for seed in 0..32u64 {
            let mut link = LossyLink::new(LinkPlan::HOSTILE, seed);
            let mut reference = LossyLink::new(LinkPlan::HOSTILE, seed);
            // The op stream has its own generator: bursts of sends, runs
            // of ticks (idle ones included) and the occasional cable cut.
            let mut ops = Rng::new(seed ^ 0x0B5);
            let mut next_msg = 0u32;
            for step in 0..2_000 {
                match ops.below(10) {
                    0..=4 => {
                        for _ in 0..=ops.below(6) {
                            link.send(next_msg);
                            reference.send(next_msg);
                            next_msg += 1;
                        }
                    }
                    5..=8 => {
                        for _ in 0..=ops.below(4) {
                            assert_eq!(
                                link.tick(),
                                reference_tick(&mut reference),
                                "seed {seed} step {step}"
                            );
                        }
                    }
                    _ => {
                        link.clear();
                        reference.clear();
                    }
                }
                assert_eq!(link.stats(), reference.stats(), "seed {seed} step {step}");
                assert_eq!(link.in_flight(), reference.in_flight());
            }
            for _ in 0..16 {
                assert_eq!(link.tick(), reference_tick(&mut reference));
            }
            assert_eq!(link.stats(), reference.stats());
            assert!(link.stats().delivered > 0 && link.stats().duplicated > 0);
        }
    }

    #[test]
    fn idle_tick_does_not_allocate() {
        let mut link: LossyLink<u32> = LossyLink::new(LinkPlan::default(), 5);
        assert_eq!(link.tick().capacity(), 0, "empty queue");
        let plan = LinkPlan {
            delay_p: 1.0,
            max_delay_ticks: 4,
            ..LinkPlan::IDEAL
        };
        let mut held = LossyLink::new(plan, 5);
        held.send(1u32);
        assert_eq!(held.tick().capacity(), 0, "queued but not yet due");
        assert_eq!(held.in_flight(), 1);
    }

    #[test]
    fn ideal_link_delivers_everything_in_order() {
        let mut link = LossyLink::new(LinkPlan::IDEAL, 42);
        for i in 0..100u32 {
            link.send(i);
        }
        let got = link.tick();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(link.tick().is_empty());
        let s = link.stats();
        assert_eq!(s.offered, 100);
        assert_eq!(s.delivered, 100);
        assert_eq!(s.dropped + s.duplicated + s.delayed, 0);
    }

    #[test]
    fn faults_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut link = LossyLink::new(LinkPlan::HOSTILE, seed);
            let mut out = Vec::new();
            for i in 0..200u32 {
                link.send(i);
                out.extend(link.tick());
            }
            for _ in 0..16 {
                out.extend(link.tick());
            }
            (out, link.stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seed, different fault pattern");
    }

    #[test]
    fn hostile_link_exercises_every_fault() {
        let mut link = LossyLink::new(LinkPlan::HOSTILE, 1);
        for i in 0..500u32 {
            link.send(i);
            link.tick();
        }
        for _ in 0..16 {
            link.tick();
        }
        let s = link.stats();
        assert!(s.dropped > 0, "no drops at p=0.25 over 500 sends");
        assert!(s.duplicated > 0, "no dups at p=0.15 over 500 sends");
        assert!(s.delayed > 0, "no delays at p=0.30 over 500 sends");
        assert_eq!(s.delivered, s.offered - s.dropped + s.duplicated);
        assert_eq!(link.in_flight(), 0, "drained after enough ticks");
    }

    #[test]
    fn delay_reorders_messages() {
        let plan = LinkPlan {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.5,
            max_delay_ticks: 5,
        };
        let mut link = LossyLink::new(plan, 3);
        for i in 0..100u32 {
            link.send(i);
        }
        let mut arrived = Vec::new();
        for _ in 0..10 {
            arrived.extend(link.tick());
        }
        assert_eq!(arrived.len(), 100, "delay never loses messages");
        let mut sorted = arrived.clone();
        sorted.sort_unstable();
        assert_ne!(arrived, sorted, "at p=0.5 over 100 sends, some reorder");
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_models_a_cable_cut() {
        let plan = LinkPlan {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 1.0,
            max_delay_ticks: 8,
        };
        let mut link = LossyLink::new(plan, 9);
        for i in 0..10u32 {
            link.send(i);
        }
        assert!(link.in_flight() > 0);
        link.clear();
        assert_eq!(link.in_flight(), 0);
        for _ in 0..20 {
            assert!(link.tick().is_empty());
        }
        assert_eq!(link.stats().dropped, 10);
    }
}
