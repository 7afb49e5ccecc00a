//! One transport session: the ship → link → receive → ack tick, written
//! once.
//!
//! A [`Session`] owns the sending half of the sequenced shipping protocol
//! — one [`Shipper`] per source — the seeded data and ack links between it
//! and a receiver, and the buffers a tick reuses. The receiver is the
//! caller's: [`Session::tick`] hands it each delivery window and carries
//! back the acks it issues. A fleet lane is a session of one shipper whose
//! receiver is its regional aggregator; `repro ext_durability` and the
//! crash suites run a [`Workload`] of three against one
//! [`crate::wal::DurableStore`].
//!
//! **The call order inside a tick is a contract.** Every link draw is
//! seeded, so the order of `send` calls decides which message is dropped,
//! duplicated or delayed, and through that every retransmit, WAL byte and
//! report line downstream:
//!
//! 1. each shipper, in session order, ticks and its burst goes on the
//!    data link — as [`Shipment`]s, so a retransmission or a link
//!    duplicate shares the shipper's batch rather than copying it;
//! 2. the data link ticks and the receiver gets the whole delivery window
//!    (possibly empty — a receiver with a periodic flush still runs) and
//!    pushes the acks it issues, in issue order;
//! 3. those acks go on the ack link, the ack link ticks, and every ack now
//!    due reaches the shipper of its source.
//!
//! **A failing receiver is a dead receiver.** When the callback returns
//! `Err` the data link is cut (in-flight traffic dies with the
//! connection); acks issued before the failure and acks already on the
//! wire still arrive, the tick completes, and the error is returned. The
//! shippers keep every unacknowledged batch, so pointing the session at a
//! recovered or a different receiver (after [`Session::cut`] or
//! [`Session::relink`]) resumes by plain go-back-N.

use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;

use crate::batch::{Batch, SourceId};
use crate::errors::ShipError;
use crate::link::{LinkPlan, LossyLink};
use crate::series::Series;
use crate::ship::{AckMsg, Shipment, Shipper, ShipperConfig};

/// Ticks after which [`Session::run`] calls a session livelocked: every
/// batch retransmits within the RTO and a link drains within its maximum
/// delay, so nothing finite takes this long.
const LIVELOCK_TICKS: u64 = 100_000;

/// Shippers, their links to one receiver, and the tick that drives them.
/// See the module docs for the tick's order and failure contract.
#[derive(Debug)]
pub struct Session {
    shippers: Vec<Shipper>,
    data: LossyLink<Shipment>,
    acks: LossyLink<AckMsg>,
    /// One shipper's transmit burst, reused across shippers and ticks.
    tx: Vec<Shipment>,
    /// The acks the receiver issued this tick, reused across ticks.
    issued: Vec<AckMsg>,
}

impl Session {
    /// A session of `shippers` (ticked in this order) over fresh links
    /// with fault plan `plan`, seeded separately per direction.
    pub fn new(shippers: Vec<Shipper>, plan: LinkPlan, data_seed: u64, ack_seed: u64) -> Self {
        Session {
            shippers,
            data: LossyLink::new(plan, data_seed),
            acks: LossyLink::new(plan, ack_seed),
            tx: Vec::new(),
            issued: Vec::new(),
        }
    }

    /// Replaces both links with fresh ones: the shippers reconnect over a
    /// new path with its own weather, windows intact.
    pub fn relink(&mut self, plan: LinkPlan, data_seed: u64, ack_seed: u64) {
        self.data = LossyLink::new(plan, data_seed);
        self.acks = LossyLink::new(plan, ack_seed);
    }

    /// Cuts the path in both directions: everything in flight is lost, the
    /// links (and their fault sequences) carry on.
    pub fn cut(&mut self) {
        self.data.clear();
        self.acks.clear();
    }

    /// The shippers, in session order.
    pub fn shippers(&self) -> &[Shipper] {
        &self.shippers
    }

    fn shipper_mut(&mut self, source: SourceId) -> &mut Shipper {
        self.shippers
            .iter_mut()
            .find(|s| s.source() == source)
            .expect("the session has a shipper for every source it is asked to carry")
    }

    /// Offers `batch` to its source's shipper ([`Shipper::offer`]).
    pub fn offer(&mut self, batch: Batch) -> Result<(), ShipError> {
        self.shipper_mut(batch.source).offer(batch)
    }

    /// Delivers `ack` to its source's shipper directly — the reliable
    /// control channel, and where acks off the lossy link end up too.
    pub fn ack(&mut self, ack: AckMsg) {
        self.shipper_mut(ack.source).on_ack(ack);
    }

    /// True when every offered batch is acknowledged and nothing is in
    /// flight in either direction.
    pub fn idle(&self) -> bool {
        self.shippers.iter().all(Shipper::done)
            && self.data.in_flight() == 0
            && self.acks.in_flight() == 0
    }

    /// One transport tick. `receive` gets the delivery window and pushes
    /// the acks it issues; see the module docs for the order of calls and
    /// for what an `Err` does.
    pub fn tick<E>(
        &mut self,
        receive: impl FnOnce(Vec<Shipment>, &mut Vec<AckMsg>) -> Result<(), E>,
    ) -> Result<(), E> {
        for shipper in &mut self.shippers {
            shipper.tick_into(&mut self.tx);
            for sb in self.tx.drain(..) {
                self.data.send(sb);
            }
        }
        let verdict = receive(self.data.tick(), &mut self.issued);
        if verdict.is_err() {
            self.data.clear();
        }
        for ack in self.issued.drain(..) {
            self.acks.send(ack);
        }
        for ack in self.acks.tick() {
            self.ack(ack);
        }
        verdict
    }

    /// Ticks until the session is [`Session::idle`] and returns the ticks
    /// that took, or stops at the first tick whose receiver failed.
    ///
    /// # Panics
    /// Panics if the session has not drained after 100 000 ticks.
    pub fn run<E>(
        &mut self,
        mut receive: impl FnMut(Vec<Shipment>, &mut Vec<AckMsg>) -> Result<(), E>,
    ) -> Result<u64, E> {
        for tick in 1..=LIVELOCK_TICKS {
            self.tick(&mut receive)?;
            if self.idle() {
                return Ok(tick);
            }
        }
        panic!("session livelocked: shippers never drained");
    }
}

/// The seeded shipping workload `repro ext_durability` and the crash
/// suites drive: sources `0..sources`, each a window-8, RTO-4 shipper
/// already offered `batches` four-sample batches of its own TX counter.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Sources, numbered from 0.
    pub sources: u32,
    /// Batches offered per source.
    pub batches: u64,
    /// Campaign name stamped on every batch (it is part of the WAL bytes).
    pub campaign: &'static str,
}

impl Workload {
    /// Batch `i` of `source`: four samples with distinct timestamps.
    pub fn batch(&self, source: u32, i: u64) -> Batch {
        let mut samples = Series::new();
        for k in 0..4 {
            samples.push(Nanos(1 + i * 100 + k), i * 10 + k);
        }
        Batch {
            source: SourceId(source),
            campaign: self.campaign.into(),
            counter: CounterId::TxBytes(PortId(source as u16)),
            samples,
        }
    }

    /// A session with every batch offered, over links seeded `seed` (data)
    /// and `seed ^ 1` (acks).
    pub fn session(&self, plan: LinkPlan, seed: u64) -> Session {
        let cfg = ShipperConfig {
            window: 8,
            rto_ticks: 4,
            ..ShipperConfig::default()
        };
        let shippers = (0..self.sources)
            .map(|source| {
                let mut shipper = Shipper::new(SourceId(source), cfg);
                for i in 0..self.batches {
                    shipper
                        .offer(self.batch(source, i))
                        .expect("the workload fits the outstanding cap");
                }
                shipper
            })
            .collect();
        Session::new(shippers, plan, seed, seed ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{SampleStore, SeqIngest};

    const WORK: Workload = Workload {
        sources: 3,
        batches: 12,
        campaign: "session",
    };

    /// A go-back-N receiver over a bare store: acks the contiguous prefix.
    fn receive(
        store: &SampleStore,
    ) -> impl FnMut(Vec<Shipment>, &mut Vec<AckMsg>) -> Result<(), &'static str> + '_ {
        move |window, acks| {
            for sb in &window {
                let source = sb.batch.source;
                if sb.seq == store.contiguous(source) {
                    assert_eq!(store.ingest_seq(sb), Ok(SeqIngest::Stored));
                }
                acks.push(AckMsg {
                    source,
                    cum: store.contiguous(source),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn hostile_links_converge_and_route_acks_by_source() {
        let store = SampleStore::new();
        let mut session = WORK.session(LinkPlan::HOSTILE, 7);
        let ticks = session.run(receive(&store)).unwrap();
        assert!(ticks > 3, "a hostile link costs retransmit rounds");
        assert!(session.idle());
        for (i, shipper) in session.shippers().iter().enumerate() {
            assert_eq!(shipper.source(), SourceId(i as u32));
            assert_eq!(shipper.cum_acked(), WORK.batches);
            assert_eq!(store.contiguous(shipper.source()), WORK.batches);
        }
        // Same seed, same session — tick for tick.
        let again = SampleStore::new();
        assert_eq!(
            WORK.session(LinkPlan::HOSTILE, 7).run(receive(&again)),
            Ok(ticks)
        );
    }

    /// Every transmission, retransmission and link duplicate of a batch is
    /// the shipper's one allocation. After its ack only the store holds it
    /// (it keeps the batch as a chunk), and dropping the store frees it.
    #[test]
    fn a_batch_is_one_allocation_on_the_wire_and_freed_after_its_ack() {
        use std::collections::BTreeMap;
        use std::sync::{Arc, Weak};
        let store = SampleStore::new();
        let mut session = WORK.session(LinkPlan::HOSTILE, 7);
        let mut seen: BTreeMap<(SourceId, u64), (Weak<Batch>, u32)> = BTreeMap::new();
        let mut inner = receive(&store);
        session
            .run(|window, acks| {
                for sb in &window {
                    let (first, deliveries) = seen
                        .entry((sb.batch.source, sb.seq))
                        .or_insert_with(|| (Arc::downgrade(&sb.batch), 0));
                    let first = first.upgrade().expect("a batch on the wire is alive");
                    assert!(Arc::ptr_eq(&first, &sb.batch), "seq {} was copied", sb.seq);
                    *deliveries += 1;
                }
                inner(window, acks)
            })
            .unwrap();
        assert!(session.shippers().iter().all(|s| s.stats().retransmits > 0));
        assert!(session.data.stats().duplicated > 0);
        assert_eq!(seen.len() as u64, u64::from(WORK.sources) * WORK.batches);
        assert!(seen.values().any(|&(_, deliveries)| deliveries > 2));
        for ((source, seq), (batch, _)) in &seen {
            assert_eq!(
                batch.strong_count(),
                1,
                "{source:?} seq {seq}: something besides the store outlived its ack"
            );
        }
        drop(inner);
        drop(store);
        assert!(seen.values().all(|(batch, _)| batch.upgrade().is_none()));
    }

    #[test]
    fn a_failing_receiver_cuts_the_data_link_and_keeps_the_windows() {
        let store = SampleStore::new();
        let mut session = WORK.session(LinkPlan::IDEAL, 1);
        let mut alive = true;
        let crashed = session.run(|window, acks| {
            if !std::mem::replace(&mut alive, false) {
                return Err("receiver died");
            }
            receive(&store)(window, acks)
        });
        assert_eq!(crashed, Err("receiver died"));
        assert_eq!(session.data.in_flight(), 0, "the cable was cut");
        // The first window of 8 was acked before the crash; the 4 batches
        // that died with the receiver are still held by their shippers.
        for shipper in session.shippers() {
            assert_eq!((shipper.cum_acked(), shipper.in_flight()), (8, 4));
        }
        session.relink(LinkPlan::default(), 9, 10);
        session.run(receive(&store)).unwrap();
        assert!(session
            .shippers()
            .iter()
            .all(|s| store.contiguous(s.source()) == WORK.batches));
    }

    /// A link's traffic is conserved: every copy offered or duplicated was
    /// delivered, dropped, or is still on the wire.
    fn assert_conserved<T: Clone>(link: &LossyLink<T>, what: &str) {
        let s = link.stats();
        assert_eq!(
            s.offered + s.duplicated,
            s.delivered + s.dropped + link.in_flight() as u64,
            "{what} link: {s:?} with {} in flight",
            link.in_flight()
        );
    }

    /// The collection path's conservation laws against a durable store, on
    /// the default and the hostile link, never cut: each link conserves its
    /// traffic at every tick, each delivery window splits exactly into
    /// stored, duplicate and reordered batches, and at idle every shipper's
    /// acked prefix is the store's contiguous prefix and everything it was
    /// offered — each batch stored exactly once.
    #[test]
    fn links_receiver_and_shippers_conserve_every_batch() {
        use crate::wal::{DurableStore, MemStorage, WalConfig};
        for (plan, name) in [
            (LinkPlan::default(), "default"),
            (LinkPlan::HOSTILE, "hostile"),
        ] {
            for seed in 1..=4u64 {
                let cfg = WalConfig {
                    segment_max_bytes: 512,
                    ..WalConfig::default()
                };
                let mut ds = DurableStore::create(MemStorage::new(), cfg).unwrap();
                let mut session = WORK.session(plan, seed);
                let mut outcomes = Vec::new();
                let (mut delivered, mut stored) = (0u64, 0u64);
                let mut redelivered = [0u64; 2];
                let mut ticks = 0;
                while !session.idle() {
                    ticks += 1;
                    assert!(ticks < 10_000, "{name}/{seed}: never drained");
                    session
                        .tick(|window, acks| {
                            ds.ingest_group(&window, &mut outcomes)?;
                            let count = |k| outcomes.iter().filter(|(o, _)| *o == k).count();
                            let (s, d, r) = (
                                count(SeqIngest::Stored),
                                count(SeqIngest::Duplicate),
                                count(SeqIngest::Reordered),
                            );
                            assert_eq!(window.len(), s + d + r, "{name}/{seed} tick {ticks}");
                            delivered += window.len() as u64;
                            stored += s as u64;
                            redelivered[0] += d as u64;
                            redelivered[1] += r as u64;
                            acks.extend(outcomes.iter().map(|&(_, ack)| ack));
                            Ok::<(), std::io::Error>(())
                        })
                        .unwrap();
                    assert_conserved(&session.data, "data");
                    assert_conserved(&session.acks, "ack");
                }
                let sent: u64 = session
                    .shippers()
                    .iter()
                    .map(|s| s.stats().transmissions + s.stats().retransmits)
                    .sum();
                assert_eq!(session.data.stats().offered, sent, "{name}/{seed}");
                assert_eq!(session.data.stats().delivered, delivered, "{name}/{seed}");
                assert_eq!(
                    session.acks.stats().offered,
                    delivered,
                    "one ack per delivery"
                );
                assert_eq!(
                    stored,
                    u64::from(WORK.sources) * WORK.batches,
                    "{name}/{seed}"
                );
                if name == "hostile" {
                    assert!(redelivered.iter().all(|&n| n > 0), "{redelivered:?}");
                }
                for shipper in session.shippers() {
                    let source = shipper.source();
                    assert_eq!(shipper.cum_acked(), ds.store().contiguous(source));
                    assert_eq!(
                        shipper.cum_acked(),
                        WORK.batches,
                        "{name}/{seed} {source:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shipper for every source")]
    fn an_ack_for_a_stranger_is_a_receiver_bug() {
        WORK.session(LinkPlan::IDEAL, 1).ack(AckMsg {
            source: SourceId(99),
            cum: 1,
        });
    }
}
