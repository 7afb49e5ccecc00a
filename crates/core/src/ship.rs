//! Sequence-numbered batch shipping: at-least-once delivery with
//! receiver-side dedup, plus the per-source **gap ledger** that turns
//! transport loss into accounted, analysable coverage holes.
//!
//! The lossy-link model ([`crate::link`]) can drop, duplicate, reorder, and
//! delay batches between a switch and the collector tier. Raw [`Batch`]es
//! carry no identity, so a dropped batch is silent bias and a redelivered
//! one is a quarantine. This module gives every batch a per-source sequence
//! number ([`SeqBatch`]) and wraps the sending side in a [`Shipper`]:
//! a bounded in-flight window, cumulative acks, and go-back-N retransmit
//! on an ack timeout. The receiving side dedups by sequence number and
//! records what it has *not* seen in a [`GapLedger`], so analysis code can
//! distinguish "no burst" (data present, nothing hot) from "no data"
//! (an interval the pipeline lost).
//!
//! Sequence numbers start at 0 per source and every [`SeqBatch`] piggybacks
//! the source's transmit **watermark** (how many sequence numbers the
//! source has assigned so far), so a receiver that sees batch 7 with
//! watermark 9 knows batches 8 and 9 exist even if they never arrive.
//!
//! On the wire a batch travels as a [`Shipment`]: the shipper's window,
//! every (re)transmission, every link duplicate and the receiver's queue
//! share one `Arc<Batch>`, so a retransmission costs a refcount, not a copy
//! of the samples. Records decoded from a log carry an owned [`Batch`].

use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::batch::{Batch, SourceId};
use crate::errors::ShipError;

/// A batch wrapped with its transport identity. `B` is how the samples
/// are held: an owned [`Batch`] (a record read back from a log), or the
/// shipper's shared `Arc<Batch>` (a [`Shipment`] on the live path).
/// Every consumer takes either, through `B: Borrow<Batch>`.
#[derive(Debug, Clone)]
pub struct SeqBatch<B = Batch> {
    /// Per-source sequence number, assigned at first transmission,
    /// starting at 0 and dense (no holes at the sender).
    pub seq: u64,
    /// Number of sequence numbers the source had assigned when this
    /// transmission was cut (always `> seq`). Receivers learn about
    /// in-flight batches they have not seen from this watermark.
    pub watermark: u64,
    /// The samples.
    pub batch: B,
}

/// A transmission on the live path: it shares its samples with the
/// shipper's window instead of copying them.
pub type Shipment = SeqBatch<Arc<Batch>>;

impl<B: Borrow<Batch>> SeqBatch<B> {
    /// The samples, whichever handle carries them.
    pub(crate) fn payload(&self) -> &Batch {
        self.batch.borrow()
    }
}

/// A cumulative acknowledgement from the collector tier: every sequence
/// number below `cum` has been durably persisted and stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckMsg {
    /// The source being acknowledged.
    pub source: SourceId,
    /// Count of contiguous sequence numbers (from 0) durably received.
    pub cum: u64,
}

/// Tuning for a [`Shipper`].
#[derive(Debug, Clone, Copy)]
pub struct ShipperConfig {
    /// Maximum unacknowledged batches in flight before new offers queue.
    pub window: usize,
    /// Ticks without ack progress before the window is retransmitted.
    pub rto_ticks: u32,
    /// Cap on total outstanding batches (in-flight window **plus**
    /// untransmitted backlog). When an aggregator stalls, a go-back-N
    /// sender makes no ack progress and every offered batch queues; this
    /// cap turns that unbounded growth into a typed
    /// [`ShipError::WindowExhausted`] the caller must shed and account.
    /// Must be at least `window`.
    pub max_outstanding: usize,
}

impl Default for ShipperConfig {
    fn default() -> Self {
        ShipperConfig {
            window: 32,
            rto_ticks: 4,
            max_outstanding: 256,
        }
    }
}

/// Transmission accounting for one shipper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipperStats {
    /// First transmissions (one per assigned sequence number).
    pub transmissions: u64,
    /// Retransmissions triggered by ack timeouts.
    pub retransmits: u64,
    /// Highest cumulative ack received.
    pub acked: u64,
    /// Offers refused because the outstanding cap was reached
    /// ([`ShipError::WindowExhausted`]).
    pub refused: u64,
}

/// The sending half of the sequenced shipping protocol for one source.
///
/// Driven by an external clock: callers [`Shipper::offer`] batches as they
/// are cut, then call [`Shipper::tick_into`] once per transport round trip to
/// collect the messages to put on the wire (new transmissions, plus a
/// go-back-N retransmission of the whole window when no ack progress was
/// made for [`ShipperConfig::rto_ticks`] ticks). Acks arrive through
/// [`Shipper::on_ack`]. The shipper survives a collector crash unchanged:
/// its window still holds every unacknowledged batch, so once the
/// collector recovers, the normal timeout path re-sends exactly what the
/// crash lost.
#[derive(Debug)]
pub struct Shipper {
    source: SourceId,
    cfg: ShipperConfig,
    next_seq: u64,
    cum_acked: u64,
    /// Transmitted but unacknowledged, in sequence order. Each batch is
    /// wrapped once, when it enters the window; every transmission of it
    /// shares this handle.
    window: VecDeque<(u64, Arc<Batch>)>,
    /// Offered but not yet transmitted (window was full).
    backlog: VecDeque<Batch>,
    ticks_since_progress: u32,
    stats: ShipperStats,
}

impl Shipper {
    /// A shipper for `source`.
    pub fn new(source: SourceId, cfg: ShipperConfig) -> Self {
        assert!(cfg.window > 0, "zero shipping window");
        assert!(cfg.rto_ticks > 0, "zero retransmit timeout");
        assert!(
            cfg.max_outstanding >= cfg.window,
            "outstanding cap below the window"
        );
        Shipper {
            source,
            cfg,
            next_seq: 0,
            cum_acked: 0,
            window: VecDeque::new(),
            backlog: VecDeque::new(),
            ticks_since_progress: 0,
            stats: ShipperStats::default(),
        }
    }

    /// The source this shipper speaks for.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Sequence numbers assigned so far (the transmit watermark).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest cumulative ack received.
    pub fn cum_acked(&self) -> u64 {
        self.cum_acked
    }

    /// Transmission accounting so far.
    pub fn stats(&self) -> ShipperStats {
        self.stats
    }

    /// Queues one batch for transmission, or refuses it with
    /// [`ShipError::WindowExhausted`] when the outstanding cap
    /// ([`ShipperConfig::max_outstanding`]) is already reached. A refused
    /// batch is the caller's to shed and account — the shipper holds no
    /// reference to it.
    pub fn offer(&mut self, batch: Batch) -> Result<(), ShipError> {
        let outstanding = self.outstanding();
        if outstanding >= self.cfg.max_outstanding {
            self.stats.refused += 1;
            uburst_obs::counter_add!("uburst_ship_refused_total", 1);
            return Err(ShipError::WindowExhausted {
                source: self.source,
                outstanding,
            });
        }
        self.backlog.push_back(batch);
        Ok(())
    }

    /// True when every offered batch has been acknowledged.
    pub fn done(&self) -> bool {
        self.window.is_empty() && self.backlog.is_empty()
    }

    /// Batches currently in flight (transmitted, unacknowledged).
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Total unfinished batches: in flight plus backlog — the memory the
    /// outstanding cap bounds.
    pub fn outstanding(&self) -> usize {
        self.window.len() + self.backlog.len()
    }

    /// Processes one cumulative ack. An ack beyond the transmit watermark
    /// (acknowledging sequence numbers never assigned) is a receiver-side
    /// protocol violation; it is clamped to the watermark so a corrupt ack
    /// cannot teleport `next_seq` accounting out of range.
    ///
    /// # Panics
    /// Panics on an ack for another source: routing is the caller's job
    /// ([`crate::session::Session`] does it), and a misrouted ack would
    /// release batches nobody stored.
    pub fn on_ack(&mut self, ack: AckMsg) {
        assert_eq!(ack.source, self.source, "ack routed to wrong shipper");
        let ack = AckMsg {
            source: ack.source,
            cum: ack.cum.min(self.next_seq),
        };
        if ack.cum > self.cum_acked {
            uburst_obs::counter_add!("uburst_ship_acked_total", ack.cum - self.cum_acked);
            self.cum_acked = ack.cum;
            self.stats.acked = ack.cum;
            self.ticks_since_progress = 0;
            while self.window.front().is_some_and(|&(seq, _)| seq < ack.cum) {
                self.window.pop_front();
            }
        }
    }

    /// Advances the shipper's clock by one tick and writes the messages to
    /// transmit into `out` (cleared first): backlog admitted into the window
    /// (first transmissions) and, on an ack timeout, a go-back-N
    /// retransmission of the whole window. The buffer is the caller's, so a
    /// pump loop recycles one allocation across a whole campaign.
    ///
    /// `B` is the handle each message carries: a [`Shipment`] shares the
    /// window's batch (a refcount bump), an owned [`Batch`] is a deep copy
    /// of it.
    pub fn tick_into<B: From<Arc<Batch>>>(&mut self, out: &mut Vec<SeqBatch<B>>) {
        let recycled_cap = out.capacity();
        out.clear();
        // Everything admitted below is a first transmission of this tick.
        let first_new_seq = self.next_seq;
        // Admit backlog into the window.
        while self.window.len() < self.cfg.window {
            let Some(batch) = self.backlog.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let batch = Arc::new(batch);
            self.window.push_back((seq, Arc::clone(&batch)));
            self.stats.transmissions += 1;
            uburst_obs::counter_add!("uburst_ship_transmissions_total", 1);
            out.push(SeqBatch {
                seq,
                watermark: self.next_seq,
                batch: B::from(batch),
            });
        }
        uburst_obs::gauge_max!("uburst_ship_window_peak", self.window.len() as u64);
        // Retransmit on timeout.
        if !self.window.is_empty() {
            self.ticks_since_progress += 1;
            if self.ticks_since_progress >= self.cfg.rto_ticks {
                self.ticks_since_progress = 0;
                for (seq, batch) in &self.window {
                    // First transmissions this tick are not re-sent again.
                    if *seq >= first_new_seq {
                        break;
                    }
                    self.stats.retransmits += 1;
                    uburst_obs::counter_add!("uburst_ship_retransmits_total", 1);
                    out.push(SeqBatch {
                        seq: *seq,
                        watermark: self.next_seq,
                        batch: B::from(Arc::clone(batch)),
                    });
                }
            }
        }
        // Every message leaving this tick carries the tick's final
        // watermark: the receiver learns the full assigned range even when
        // earlier copies are dropped.
        for sb in out.iter_mut() {
            sb.watermark = self.next_seq;
        }
        // A tick whose transmissions fit a previously-grown buffer cost no
        // allocation — the reuse the fleet pump loop is built around.
        if recycled_cap > 0 && !out.is_empty() && out.capacity() == recycled_cap {
            uburst_obs::counter_add!("uburst_ship_buffer_reuse_total", 1);
        }
    }
}

/// Per-source record of which sequence numbers have been received, which
/// are known missing, and how many redeliveries were deduplicated.
#[derive(Debug, Clone, Default)]
struct SourceLedger {
    /// Sorted, disjoint, **inclusive** ranges of received sequence numbers.
    received: Vec<(u64, u64)>,
    /// Highest transmit watermark seen (sequence numbers known assigned).
    watermark: u64,
    /// Redeliveries dropped by sequence-number dedup.
    duplicates: u64,
}

impl SourceLedger {
    /// Marks `seq` received; false if it already was (a duplicate).
    fn note(&mut self, seq: u64) -> bool {
        let i = self.received.partition_point(|&(_, hi)| hi < seq);
        if let Some(&(lo, hi)) = self.received.get(i) {
            if lo <= seq && seq <= hi {
                self.duplicates += 1;
                return false;
            }
        }
        // Insert, merging with neighbours where adjacent.
        let glue_left = i > 0 && self.received[i - 1].1 + 1 == seq;
        let glue_right = self.received.get(i).is_some_and(|&(lo, _)| seq + 1 == lo);
        match (glue_left, glue_right) {
            (true, true) => {
                self.received[i - 1].1 = self.received[i].1;
                self.received.remove(i);
            }
            (true, false) => self.received[i - 1].1 = seq,
            (false, true) => self.received[i].0 = seq,
            (false, false) => self.received.insert(i, (seq, seq)),
        }
        true
    }

    /// Marks every sequence number below `upto` received without counting
    /// duplicates — stream adoption after a regional handoff, where the
    /// prefix is known durable elsewhere and must not reappear as a gap
    /// (or inflate dedup counts) here.
    fn adopt_prefix(&mut self, upto: u64) {
        if upto == 0 {
            return;
        }
        let mut hi = upto - 1;
        // Swallow every range the prefix overlaps or abuts (lo <= upto).
        while let Some(&(lo0, hi0)) = self.received.first() {
            if lo0 > upto {
                break;
            }
            hi = hi.max(hi0);
            self.received.remove(0);
        }
        self.received.insert(0, (0, hi));
        self.watermark = self.watermark.max(upto);
    }

    /// Contiguous received prefix length (the cumulative ack value).
    fn contiguous(&self) -> u64 {
        match self.received.first() {
            Some(&(0, hi)) => hi + 1,
            _ => 0,
        }
    }

    /// Known-missing sequence ranges (inclusive) below the watermark.
    fn gaps(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut next = 0u64;
        for &(lo, hi) in &self.received {
            if lo > next {
                out.push((next, lo - 1));
            }
            next = hi + 1;
        }
        if next < self.watermark {
            out.push((next, self.watermark - 1));
        }
        out
    }
}

/// Receiver-side coverage accounting for every source shipping into a
/// store: which sequence numbers arrived, which are known missing (below
/// the source's announced transmit watermark), and how many redeliveries
/// were deduplicated.
#[derive(Debug, Clone, Default)]
pub struct GapLedger {
    sources: BTreeMap<SourceId, SourceLedger>,
}

impl GapLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        GapLedger::default()
    }

    /// Records one received sequence number. Returns `false` (and counts a
    /// duplicate) when `seq` was already received — the dedup decision.
    pub fn note_received(&mut self, source: SourceId, seq: u64) -> bool {
        self.sources.entry(source).or_default().note(seq)
    }

    /// Adopts `source` at sequence `upto`: every number below it is marked
    /// received (without counting duplicates) and the watermark is raised
    /// to cover the adopted range. Used when a receiver takes over a
    /// stream mid-flight — a regional handoff after an aggregator crash —
    /// and the prefix is durably owned by the previous receiver: the new
    /// one must neither report it as a gap nor wait for a retransmit the
    /// shipper (whose acked prefix is exactly `upto`) will never send.
    pub fn adopt_prefix(&mut self, source: SourceId, upto: u64) {
        self.sources.entry(source).or_default().adopt_prefix(upto);
    }

    /// Raises the source's known transmit watermark (never lowers it).
    pub fn note_watermark(&mut self, source: SourceId, watermark: u64) {
        let s = self.sources.entry(source).or_default();
        s.watermark = s.watermark.max(watermark);
    }

    /// Contiguous received prefix for `source` — the cumulative ack value.
    pub fn contiguous(&self, source: SourceId) -> u64 {
        self.sources
            .get(&source)
            .map_or(0, SourceLedger::contiguous)
    }

    /// Known-missing sequence ranges (inclusive) for `source`: assigned
    /// below the watermark but never received. Analysis reads this to
    /// distinguish "no burst" from "no data".
    pub fn gaps(&self, source: SourceId) -> Vec<(u64, u64)> {
        self.sources
            .get(&source)
            .map_or_else(Vec::new, |s| s.gaps())
    }

    /// Total known-missing batches across all sources.
    pub fn missing_total(&self) -> u64 {
        self.sources
            .values()
            .map(|s| s.gaps().iter().map(|&(lo, hi)| hi - lo + 1).sum::<u64>())
            .sum()
    }

    /// Total deduplicated redeliveries across all sources.
    pub fn duplicates_total(&self) -> u64 {
        self.sources.values().map(|s| s.duplicates).sum()
    }

    /// Batches received for `source`.
    pub fn received_count(&self, source: SourceId) -> u64 {
        self.sources
            .get(&source)
            .map_or(0, |s| s.received.iter().map(|&(lo, hi)| hi - lo + 1).sum())
    }

    /// Highest transmit watermark seen for `source`.
    pub fn watermark(&self, source: SourceId) -> u64 {
        self.sources.get(&source).map_or(0, |s| s.watermark)
    }

    /// Sources the ledger has seen, sorted.
    pub fn sources(&self) -> Vec<SourceId> {
        self.sources.keys().copied().collect()
    }
}

impl fmt::Display for GapLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (source, s) in &self.sources {
            writeln!(
                f,
                "source {}: {} received, watermark {}, {} dup, gaps {:?}",
                source.0,
                s.received.iter().map(|&(lo, hi)| hi - lo + 1).sum::<u64>(),
                s.watermark,
                s.duplicates,
                s.gaps()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;
    use uburst_asic::CounterId;
    use uburst_sim::node::PortId;
    use uburst_sim::time::Nanos;

    fn batch(t: u64) -> Batch {
        let mut s = Series::new();
        s.push(Nanos(t), t);
        Batch {
            source: SourceId(0),
            campaign: "t".into(),
            counter: CounterId::TxBytes(PortId(0)),
            samples: s,
        }
    }

    /// One tick's transmissions in a fresh buffer.
    fn tick(sh: &mut Shipper) -> Vec<Shipment> {
        let mut out = Vec::new();
        sh.tick_into(&mut out);
        out
    }

    #[test]
    fn shipper_assigns_dense_seqs_and_watermarks() {
        let mut sh = Shipper::new(SourceId(0), ShipperConfig::default());
        for t in 1..=3 {
            sh.offer(batch(t)).unwrap();
        }
        let out = tick(&mut sh);
        assert_eq!(out.len(), 3);
        for (i, sb) in out.iter().enumerate() {
            assert_eq!(sb.seq, i as u64);
            assert_eq!(sb.watermark, 3);
        }
        assert_eq!(sh.in_flight(), 3);
        assert!(!sh.done());
        sh.on_ack(AckMsg {
            source: SourceId(0),
            cum: 3,
        });
        assert!(sh.done());
        assert_eq!(sh.stats().transmissions, 3);
        assert_eq!(sh.stats().retransmits, 0);
    }

    /// What one tick put on the wire, whichever handle carries the samples.
    fn wire<B: Borrow<Batch>>(out: &[SeqBatch<B>]) -> Vec<(u64, u64, String)> {
        out.iter()
            .map(|sb| (sb.seq, sb.watermark, format!("{:?}", sb.payload())))
            .collect()
    }

    #[test]
    fn owned_and_shared_ticks_put_the_same_messages_on_the_wire() {
        let cfg = ShipperConfig {
            window: 4,
            rto_ticks: 2,
            max_outstanding: 16,
        };
        let mut owned = Shipper::new(SourceId(0), cfg);
        let mut shared = Shipper::new(SourceId(0), cfg);
        let mut owned_out: Vec<SeqBatch<Batch>> = Vec::new();
        let mut shared_out: Vec<Shipment> = Vec::new();
        for step in 0..40u64 {
            if step % 3 == 0 {
                for sh in [&mut owned, &mut shared] {
                    sh.offer(batch(step + 1)).unwrap();
                }
            }
            owned.tick_into(&mut owned_out);
            shared.tick_into(&mut shared_out);
            assert_eq!(wire(&owned_out), wire(&shared_out), "step {step}");
            // Acks lag two batches behind, and come only every fifth tick:
            // the timeout fires in between.
            if step % 5 == 4 {
                let ack = AckMsg {
                    source: SourceId(0),
                    cum: owned.next_seq().saturating_sub(2),
                };
                owned.on_ack(ack);
                shared.on_ack(ack);
            }
        }
        assert_eq!(owned.stats(), shared.stats());
        assert!(owned.stats().transmissions > 10 && owned.stats().retransmits > 10);
    }

    #[test]
    fn shipper_window_limits_inflight() {
        let mut sh = Shipper::new(
            SourceId(0),
            ShipperConfig {
                window: 2,
                rto_ticks: 100,
                ..ShipperConfig::default()
            },
        );
        for t in 1..=5 {
            sh.offer(batch(t)).unwrap();
        }
        assert_eq!(tick(&mut sh).len(), 2);
        assert_eq!(tick(&mut sh).len(), 0, "window full, nothing new");
        sh.on_ack(AckMsg {
            source: SourceId(0),
            cum: 1,
        });
        assert_eq!(tick(&mut sh).len(), 1, "one slot freed");
    }

    #[test]
    fn shipper_retransmits_window_after_rto() {
        let mut sh = Shipper::new(
            SourceId(0),
            ShipperConfig {
                window: 8,
                rto_ticks: 3,
                ..ShipperConfig::default()
            },
        );
        sh.offer(batch(1)).unwrap();
        sh.offer(batch(2)).unwrap();
        assert_eq!(tick(&mut sh).len(), 2); // first transmissions
        assert_eq!(tick(&mut sh).len(), 0);
        let r = tick(&mut sh); // third tick without progress: RTO fires
        assert_eq!(r.len(), 2, "whole window retransmitted");
        assert_eq!(r[0].seq, 0);
        assert_eq!(sh.stats().retransmits, 2);
        // Ack progress resets the timer.
        sh.on_ack(AckMsg {
            source: SourceId(0),
            cum: 1,
        });
        assert_eq!(tick(&mut sh).len(), 0);
        assert_eq!(tick(&mut sh).len(), 0);
        assert_eq!(tick(&mut sh).len(), 1, "remaining batch retransmitted");
    }

    #[test]
    fn rto_tick_does_not_resend_its_own_first_transmissions() {
        let mut sh = Shipper::new(
            SourceId(0),
            ShipperConfig {
                window: 8,
                rto_ticks: 2,
                ..ShipperConfig::default()
            },
        );
        sh.offer(batch(1)).unwrap();
        sh.offer(batch(2)).unwrap();
        assert_eq!(tick(&mut sh).len(), 2);
        // The RTO fires on the tick that also admits seqs 2 and 3: they go
        // out once, ahead of the retransmission of the old window.
        sh.offer(batch(3)).unwrap();
        sh.offer(batch(4)).unwrap();
        let out = tick(&mut sh);
        let seqs: Vec<u64> = out.iter().map(|sb| sb.seq).collect();
        assert_eq!(seqs, vec![2, 3, 0, 1]);
        assert!(out.iter().all(|sb| sb.watermark == 4));
        assert_eq!(sh.stats().transmissions, 4);
        assert_eq!(sh.stats().retransmits, 2);
    }

    #[test]
    fn stale_and_duplicate_acks_are_ignored() {
        let mut sh = Shipper::new(SourceId(3), ShipperConfig::default());
        for t in 1..=4 {
            sh.offer(batch(t)).unwrap();
        }
        tick(&mut sh);
        sh.on_ack(AckMsg {
            source: SourceId(3),
            cum: 3,
        });
        sh.on_ack(AckMsg {
            source: SourceId(3),
            cum: 1,
        }); // stale
        assert_eq!(sh.cum_acked(), 3);
        assert_eq!(sh.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "ack routed to wrong shipper")]
    fn misrouted_ack_is_refused() {
        let mut sh = Shipper::new(SourceId(3), ShipperConfig::default());
        sh.on_ack(AckMsg {
            source: SourceId(4),
            cum: 0,
        });
    }

    #[test]
    fn ledger_tracks_gaps_and_dedups() {
        let mut l = GapLedger::new();
        let s = SourceId(1);
        assert!(l.note_received(s, 0));
        assert!(l.note_received(s, 1));
        assert!(l.note_received(s, 4));
        assert!(!l.note_received(s, 1), "duplicate detected");
        l.note_watermark(s, 7);
        assert_eq!(l.contiguous(s), 2);
        assert_eq!(l.gaps(s), vec![(2, 3), (5, 6)]);
        assert_eq!(l.missing_total(), 4);
        assert_eq!(l.duplicates_total(), 1);
        assert_eq!(l.received_count(s), 3);
        // Filling a hole merges ranges.
        assert!(l.note_received(s, 2));
        assert!(l.note_received(s, 3));
        assert_eq!(l.contiguous(s), 5);
        assert_eq!(l.gaps(s), vec![(5, 6)]);
    }

    #[test]
    fn ledger_watermark_never_lowers() {
        let mut l = GapLedger::new();
        let s = SourceId(0);
        l.note_watermark(s, 9);
        l.note_watermark(s, 4);
        assert_eq!(l.watermark(s), 9);
        assert_eq!(l.gaps(s), vec![(0, 8)]);
    }

    #[test]
    fn offer_refused_at_outstanding_cap() {
        let mut sh = Shipper::new(
            SourceId(0),
            ShipperConfig {
                window: 2,
                rto_ticks: 100,
                max_outstanding: 4,
            },
        );
        for t in 1..=4 {
            sh.offer(batch(t)).unwrap();
        }
        // Cap reached with no ack progress: the fifth offer is refused
        // with a typed error instead of growing the backlog.
        let err = sh.offer(batch(5)).unwrap_err();
        assert_eq!(
            err,
            ShipError::WindowExhausted {
                source: SourceId(0),
                outstanding: 4,
            }
        );
        assert_eq!(sh.outstanding(), 4, "refused batch was not buffered");
        assert_eq!(sh.stats().refused, 1);
        // Ticking transmits but frees nothing (window 2, backlog 2).
        tick(&mut sh);
        assert!(sh.offer(batch(6)).is_err());
        // Ack progress frees outstanding slots and offers flow again.
        sh.on_ack(AckMsg {
            source: SourceId(0),
            cum: 2,
        });
        sh.offer(batch(7)).unwrap();
        assert_eq!(sh.stats().refused, 2);
    }

    #[test]
    fn stalled_aggregator_cannot_grow_shipper_memory() {
        // A dead receiver: never an ack. Memory must plateau at the cap
        // however long the stall lasts.
        let cfg = ShipperConfig {
            window: 8,
            rto_ticks: 2,
            max_outstanding: 32,
        };
        let mut sh = Shipper::new(SourceId(9), cfg);
        let mut refused = 0u64;
        for t in 1..=1_000 {
            if sh.offer(batch(t)).is_err() {
                refused += 1;
            }
            tick(&mut sh);
            assert!(sh.outstanding() <= cfg.max_outstanding);
        }
        assert_eq!(sh.outstanding(), 32);
        assert_eq!(refused, 1_000 - 32);
        assert_eq!(sh.stats().refused, refused);
    }

    #[test]
    fn ack_beyond_watermark_is_clamped() {
        let mut sh = Shipper::new(SourceId(2), ShipperConfig::default());
        sh.offer(batch(1)).unwrap();
        sh.offer(batch(2)).unwrap();
        tick(&mut sh); // assigns seqs 0 and 1; watermark 2
        sh.on_ack(AckMsg {
            source: SourceId(2),
            cum: 99,
        });
        assert_eq!(
            sh.cum_acked(),
            2,
            "ack past the watermark acknowledges only assigned seqs"
        );
        assert!(sh.done());
        // Subsequent offers assign fresh sequence numbers from where the
        // sender actually is, not from the corrupt ack.
        sh.offer(batch(3)).unwrap();
        let out = tick(&mut sh);
        assert_eq!(out[0].seq, 2);
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut sh = Shipper::new(SourceId(1), ShipperConfig::default());
        for t in 1..=3 {
            sh.offer(batch(t)).unwrap();
        }
        tick(&mut sh);
        let ack = AckMsg {
            source: SourceId(1),
            cum: 2,
        };
        sh.on_ack(ack);
        let after_first = (sh.cum_acked(), sh.in_flight(), sh.stats());
        // The same cumulative ack again (a retransmitted ack) changes
        // nothing — not even the progress timer's effect on retransmits.
        sh.on_ack(ack);
        sh.on_ack(ack);
        assert_eq!((sh.cum_acked(), sh.in_flight(), sh.stats()), after_first);
    }

    #[test]
    fn empty_ledger_tiles_exactly_to_the_watermark() {
        // Nothing received at all: the gap list must tile [0, watermark)
        // exactly — one range, no off-by-one at either end.
        let mut l = GapLedger::new();
        let s = SourceId(4);
        l.note_watermark(s, 5);
        assert_eq!(l.gaps(s), vec![(0, 4)]);
        assert_eq!(l.missing_total(), 5);
        assert_eq!(l.received_count(s), 0);
        assert_eq!(l.contiguous(s), 0);
        // Received ranges + gaps together tile the watermark exactly.
        assert!(l.note_received(s, 0));
        assert!(l.note_received(s, 3));
        let gaps = l.gaps(s);
        let covered: u64 =
            gaps.iter().map(|&(lo, hi)| hi - lo + 1).sum::<u64>() + l.received_count(s);
        assert_eq!(covered, l.watermark(s), "gaps + received tile exactly");
        assert_eq!(gaps, vec![(1, 2), (4, 4)]);
        // A watermark equal to the received count leaves no gap.
        let mut full = GapLedger::new();
        for seq in 0..5 {
            assert!(full.note_received(s, seq));
        }
        full.note_watermark(s, 5);
        assert!(full.gaps(s).is_empty());
        assert_eq!(full.missing_total(), 0);
    }

    #[test]
    fn ledger_duplicate_watermarks_and_acks_at_watermark() {
        // Duplicate watermark announcements are idempotent, and a
        // contiguous prefix that reaches the watermark means "complete".
        let mut l = GapLedger::new();
        let s = SourceId(6);
        for _ in 0..3 {
            l.note_watermark(s, 4);
        }
        assert_eq!(l.missing_total(), 4);
        for seq in [1u64, 0, 2, 3] {
            assert!(l.note_received(s, seq));
        }
        assert_eq!(l.contiguous(s), 4);
        assert_eq!(l.contiguous(s), l.watermark(s));
        assert!(l.gaps(s).is_empty());
        assert_eq!(l.duplicates_total(), 0);
    }

    #[test]
    fn ledger_out_of_order_arrival_converges() {
        let mut l = GapLedger::new();
        let s = SourceId(2);
        for seq in [5u64, 3, 1, 0, 2, 4] {
            assert!(l.note_received(s, seq));
        }
        l.note_watermark(s, 6);
        assert_eq!(l.contiguous(s), 6);
        assert!(l.gaps(s).is_empty());
        assert_eq!(l.missing_total(), 0);
    }

    #[test]
    fn ledger_adopt_prefix_merges_without_counting_duplicates() {
        let mut l = GapLedger::new();
        let s = SourceId(4);
        // Pre-existing ranges straddling the adoption point: [2,3], [7,8].
        for seq in [2u64, 3, 7, 8] {
            assert!(l.note_received(s, seq));
        }
        l.adopt_prefix(s, 5);
        assert_eq!(l.contiguous(s), 5, "prefix [0,5) adopted");
        assert_eq!(l.watermark(s), 5, "adoption raises the watermark");
        assert_eq!(l.duplicates_total(), 0, "adoption is not a redelivery");
        assert_eq!(l.received_count(s), 7, "[0,4] + [7,8]");
        assert_eq!(l.gaps(s), vec![(5, 6)]);
        // Adoption glues with an abutting range: [0,4] ∪ adopt(7) where
        // [7,8] starts exactly at upto: [5,6] filled, all contiguous.
        l.adopt_prefix(s, 7);
        assert_eq!(l.contiguous(s), 9);
        assert!(l.gaps(s).is_empty());
        // Adopting behind current progress is a no-op.
        l.adopt_prefix(s, 1);
        assert_eq!(l.contiguous(s), 9);
        assert_eq!(l.duplicates_total(), 0);
        // Zero adoption on a fresh source changes nothing.
        l.adopt_prefix(SourceId(5), 0);
        assert_eq!(l.contiguous(SourceId(5)), 0);
        assert_eq!(l.received_count(SourceId(5)), 0);
    }

    #[test]
    fn ledger_note_after_adoption_deduplicates_inside_prefix() {
        let mut l = GapLedger::new();
        let s = SourceId(6);
        l.adopt_prefix(s, 10);
        assert!(!l.note_received(s, 3), "inside the adopted prefix");
        assert_eq!(l.duplicates_total(), 1, "a real redelivery still counts");
        assert!(l.note_received(s, 10), "first number past the prefix");
        assert_eq!(l.contiguous(s), 11);
    }
}
