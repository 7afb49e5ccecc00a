//! The durable receiver: a [`Wal`] glued to what it keeps in memory, with
//! sequence-number dedup, ack issuance tied to durability, and recovery.
//!
//! The receiver is written once, over a [`Keep`]: what it holds besides its
//! log. A collector keeps an [`Arc<SampleStore>`] — series and ledger, the
//! [`DurableStore`] — while a regional aggregator, whose samples are merged
//! one tier up, keeps only a [`GapLedger`].

use std::borrow::Borrow;
use std::io;
use std::sync::Arc;

use super::{Wal, WalConfig, WalStorage};
use crate::batch::{Batch, SourceId};
use crate::segment::{scan_segment, SegmentScan, TearReason};
use crate::ship::{AckMsg, GapLedger, SeqBatch, SourceTable};
use crate::store::{QuarantineReason, SampleStore, SeqIngest};

/// What recovery found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Clean records replayed into the store. For a checkpointed log these
    /// are only the records in the segments the last
    /// [`DurableReceiver::checkpoint`] left: the one open then and every
    /// later one.
    pub records: u64,
    /// Segment files scanned.
    pub segments: u64,
    /// Segments that ended in a torn tail (truncated in place).
    pub torn_tails: u64,
    /// Damaged bytes truncated away.
    pub truncated_bytes: u64,
    /// Records that failed CRC or decode and were discarded with the tail.
    /// Always 0 for pure torn-write damage (a tear never passes CRC).
    pub corrupt_records: u64,
    /// Replayed records the store's dedup rejected (a crash between
    /// append and ledger update cannot happen — this counts log bugs).
    pub duplicates: u64,
    /// Replayed records the store quarantined (they were quarantined in
    /// the original session too; replay is faithful to that). Always 0
    /// when the receiver keeps only a [`GapLedger`]: a ledger never looks
    /// at a payload, so it has no verdict to give.
    pub quarantined: u64,
    /// Forward sequence jumps adopted during replay. A regional WAL that
    /// took over a stream mid-flight ([`DurableReceiver::adopt_source`])
    /// legitimately begins a source at a nonzero sequence (and may jump
    /// again if the stream left and came back), and so does a log whose
    /// closed segments a [`DurableReceiver::checkpoint`] deleted: its
    /// first surviving record of a source is the checkpoint base. Recovery
    /// re-derives each adoption point from the log itself — the first
    /// record of a run is the base. Always 0 for a log that owned its
    /// streams from sequence 0 and was never checkpointed.
    pub adoptions: u64,
}

/// One source's cumulative counts at a [`DurableReceiver`].
#[derive(Debug, Clone, Copy, Default)]
struct SourceAcks {
    /// Count stored and logged (ahead of `synced` between syncs).
    live: u64,
    /// Count whose covering sync has completed — the highest ack the
    /// store is allowed to issue. Never above `live`.
    synced: u64,
    /// `live` moved since the last sync (the source is in `dirty`).
    dirty: bool,
}

/// Which cumulative ack each source may be sent. A sync covers every
/// record appended before it, whatever its source, but only sources that
/// stored something since the previous sync have anything to release —
/// so a sync walks the dirty list, not the source map, and its cost does
/// not grow with the number of sources the store has ever seen.
#[derive(Debug, Default)]
struct AckBook {
    sources: SourceTable<SourceAcks>,
    /// Sources with `dirty` set, in the order they were dirtied.
    dirty: Vec<SourceId>,
}

impl AckBook {
    /// The highest ack `source` may be sent right now.
    fn synced(&self, source: SourceId) -> u64 {
        self.sources.get(source).map_or(0, |s| s.synced)
    }

    /// `source`'s entry, put on the dirty list.
    fn dirty_entry(&mut self, source: SourceId) -> &mut SourceAcks {
        let s = self.sources.get_or_default(source);
        if !s.dirty {
            s.dirty = true;
            self.dirty.push(source);
        }
        s
    }

    /// Records that `source` has `live` batches stored and logged; with
    /// `synced_now` the record that got it there is a sync point. Returns
    /// the ack to send.
    fn advance(&mut self, source: SourceId, live: u64, synced_now: bool) -> u64 {
        let s = self.dirty_entry(source);
        s.live = live;
        if synced_now {
            self.sync(|_| {});
            live
        } else {
            s.synced
        }
    }

    /// A sync completed: every dirty source's live count is durable.
    /// `released` sees one ack per source whose durable count advanced,
    /// in `dirty` order.
    fn sync(&mut self, mut released: impl FnMut(AckMsg)) {
        for source in self.dirty.drain(..) {
            let s = self
                .sources
                .get_mut(source)
                .expect("a dirty source has an entry");
            if s.synced < s.live {
                released(AckMsg {
                    source,
                    cum: s.live,
                });
            }
            s.synced = s.live;
            s.dirty = false;
        }
    }

    /// [`AckBook::sync`] for an explicit flush: the acks it released, in
    /// source order.
    fn flush(&mut self) -> Vec<AckMsg> {
        self.dirty.sort_unstable();
        let mut out = Vec::new();
        self.sync(|ack| out.push(ack));
        out
    }
}

/// What a [`DurableReceiver`] keeps in memory besides its log: the
/// per-source sequence ledger its dedup and acks are read from, plus
/// whatever it does with a record once the record is logged.
pub trait Keep: Default {
    /// Contiguous received-sequence prefix for `source`.
    fn contiguous(&self, source: SourceId) -> u64;
    /// Raises `source`'s known transmit watermark.
    fn note_watermark(&mut self, source: SourceId, watermark: u64);
    /// Counts a deduplicated redelivery of `seq` from `source`.
    fn count_duplicate(&mut self, source: SourceId, seq: u64);
    /// Marks everything below `upto` received (stream adoption).
    fn adopt_prefix(&mut self, source: SourceId, upto: u64);
    /// Takes one logged, in-sequence record: the ledger advances either
    /// way; `Err` is a verdict on the payload.
    fn ingest_seq<B: Borrow<Batch> + Clone + Into<Arc<Batch>>>(
        &mut self,
        sb: &SeqBatch<B>,
    ) -> Result<SeqIngest, QuarantineReason>;
    /// Snapshot of the ledger.
    fn ledger(&self) -> GapLedger;
}

/// Series and ledger: every logged record is merged (or quarantined).
impl Keep for Arc<SampleStore> {
    fn contiguous(&self, source: SourceId) -> u64 {
        SampleStore::contiguous(self, source)
    }
    fn note_watermark(&mut self, source: SourceId, watermark: u64) {
        SampleStore::note_watermark(self, source, watermark);
    }
    fn count_duplicate(&mut self, source: SourceId, seq: u64) {
        SampleStore::count_duplicate(self, source, seq);
    }
    fn adopt_prefix(&mut self, source: SourceId, upto: u64) {
        SampleStore::adopt_prefix(self, source, upto);
    }
    fn ingest_seq<B: Borrow<Batch> + Clone + Into<Arc<Batch>>>(
        &mut self,
        sb: &SeqBatch<B>,
    ) -> Result<SeqIngest, QuarantineReason> {
        SampleStore::ingest_seq(self, sb)
    }
    fn ledger(&self) -> GapLedger {
        SampleStore::ledger(self)
    }
}

/// The ledger alone: a logged record leaves its sequence number and
/// watermark here and its samples nowhere — whoever reads the log (or was
/// handed the record) owns the payload.
impl Keep for GapLedger {
    fn contiguous(&self, source: SourceId) -> u64 {
        GapLedger::contiguous(self, source)
    }
    fn note_watermark(&mut self, source: SourceId, watermark: u64) {
        GapLedger::note_watermark(self, source, watermark);
    }
    fn count_duplicate(&mut self, source: SourceId, seq: u64) {
        self.note_received(source, seq);
    }
    fn adopt_prefix(&mut self, source: SourceId, upto: u64) {
        GapLedger::adopt_prefix(self, source, upto);
    }
    fn ingest_seq<B: Borrow<Batch> + Clone + Into<Arc<Batch>>>(
        &mut self,
        sb: &SeqBatch<B>,
    ) -> Result<SeqIngest, QuarantineReason> {
        let source = sb.payload().source;
        GapLedger::note_watermark(self, source, sb.watermark);
        Ok(if self.note_received(source, sb.seq) {
            SeqIngest::Stored
        } else {
            SeqIngest::Duplicate
        })
    }
    fn ledger(&self) -> GapLedger {
        self.clone()
    }
}

/// The durable receiver: a WAL in front of a [`Keep`], with
/// sequence-number dedup and ack issuance tied to durability.
pub struct DurableReceiver<S: WalStorage, K: Keep> {
    wal: Wal<S>,
    keep: K,
    acks: AckBook,
}

/// The collector's receiver: a WAL-backed [`SampleStore`].
pub type DurableStore<S> = DurableReceiver<S, Arc<SampleStore>>;

impl<S: WalStorage> DurableStore<S> {
    /// The underlying store (shared; series grow as batches are ingested).
    pub fn store(&self) -> Arc<SampleStore> {
        Arc::clone(&self.keep)
    }
}

/// A regional aggregator's receiver: the ledger alone, its samples merged
/// one tier up.
impl<S: WalStorage> DurableReceiver<S, GapLedger> {
    /// Deletes every closed segment of the log and returns how many went
    /// (the open segment stays). Call it only once every record logged so
    /// far has reached the tier above: the log then holds only what that
    /// tier may lack. Recovery of the remaining suffix needs nothing new —
    /// a source whose first surviving record is past sequence 0 is
    /// re-adopted at it ([`RecoveryReport::adoptions`]), and a source with
    /// no surviving record is adopted afresh when its stream is handed
    /// back ([`DurableReceiver::adopt_source`]).
    ///
    /// Only a ledger-keeping receiver has this: a [`DurableStore`]'s log is
    /// the only copy of its samples.
    ///
    /// ```compile_fail,E0599
    /// use uburst_core::wal::{DurableStore, MemStorage, WalConfig};
    /// let mut ds = DurableStore::create(MemStorage::new(), WalConfig::default()).unwrap();
    /// ds.checkpoint().unwrap();
    /// ```
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        self.wal.checkpoint()
    }
}

impl<S: WalStorage, K: Keep> DurableReceiver<S, K> {
    /// A fresh receiver over empty storage, keeping `K::default()`.
    pub fn create(storage: S, cfg: WalConfig) -> io::Result<Self> {
        Ok(DurableReceiver {
            wal: Wal::start(storage, cfg, 0)?,
            keep: K::default(),
            acks: AckBook::default(),
        })
    }

    /// Rebuilds a receiver from whatever a crash left behind: scans every
    /// segment, truncates torn tails, replays clean records into a fresh
    /// keep (dedup and quarantine re-applied), and resumes logging in a new
    /// segment after the highest surviving one.
    pub fn recover(storage: S, cfg: WalConfig) -> io::Result<(Self, RecoveryReport)> {
        Self::recover_replay(storage, cfg, &mut |_| {})
    }

    /// [`DurableReceiver::recover`] with a per-record sink: `on_record` sees
    /// every clean record in log order before it is replayed into the
    /// fresh keep. The failover path uses this to feed a crashed regional
    /// aggregator's durable prefix into the *global* tier in the same pass
    /// that rebuilds the regional ledger.
    pub fn recover_replay(
        mut storage: S,
        cfg: WalConfig,
        on_record: &mut dyn FnMut(&SeqBatch),
    ) -> io::Result<(Self, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let mut keep = K::default();
        let indices = storage.list()?;
        for &index in &indices {
            let bytes = storage.read(index)?;
            let SegmentScan {
                records,
                clean_len,
                torn,
            } = scan_segment(&bytes);
            if let Some(tail) = torn {
                report.torn_tails += 1;
                report.truncated_bytes += (bytes.len() - tail.offset) as u64;
                if matches!(
                    tail.reason,
                    TearReason::CrcMismatch | TearReason::Undecodable
                ) {
                    report.corrupt_records += 1;
                }
                storage.truncate(index, clean_len)?;
            }
            for sb in records {
                report.records += 1;
                on_record(&sb);
                // The log appends only in-sequence records, so a forward
                // jump is an adoption point (the stream was taken over
                // mid-flight, or left and came back): re-adopt before
                // replaying, exactly as the original session did.
                let source = sb.batch.source;
                if sb.seq > keep.contiguous(source) {
                    keep.adopt_prefix(source, sb.seq);
                    report.adoptions += 1;
                }
                match keep.ingest_seq(&sb) {
                    Ok(SeqIngest::Stored) => {}
                    // The log holds only in-order, first-delivery records;
                    // either count here indicates a logging bug upstream.
                    Ok(SeqIngest::Duplicate) | Ok(SeqIngest::Reordered) => report.duplicates += 1,
                    Err(_) => report.quarantined += 1,
                }
            }
            report.segments += 1;
        }
        // Everything replayed came off stable storage: it is all synced.
        let mut acks = AckBook::default();
        let ledger = keep.ledger();
        for source in ledger.sources() {
            let cum = ledger.contiguous(source);
            *acks.sources.get_or_default(source) = SourceAcks {
                live: cum,
                synced: cum,
                ..SourceAcks::default()
            };
        }
        let next_segment = indices.last().map_or(0, |&i| i + 1);
        if uburst_obs::enabled() {
            uburst_obs::counter_add!("uburst_wal_recovered_records_total", report.records);
            uburst_obs::counter_add!("uburst_wal_recovered_segments_total", report.segments);
            uburst_obs::counter_add!("uburst_wal_torn_tails_total", report.torn_tails);
            uburst_obs::counter_add!("uburst_wal_truncated_bytes_total", report.truncated_bytes);
            uburst_obs::counter_add!("uburst_wal_corrupt_records_total", report.corrupt_records);
            uburst_obs::counter_add!("uburst_wal_recoveries_total", 1);
        }
        let wal = Wal::start(storage, cfg, next_segment)?;
        Ok((DurableReceiver { wal, keep, acks }, report))
    }

    /// Ingests a delivery window — the go-back-N receiver — with **one**
    /// physical write and at most one physical sync, pushing one
    /// `(outcome, ack)` pair per batch onto `out` (cleared first, in window
    /// order). For each batch exactly one of three things happens:
    ///
    /// * `seq` below the contiguous prefix: a redelivery. Deduplicated and
    ///   re-acked (the original ack may have been lost); never re-logged.
    /// * `seq` ahead of the prefix: an out-of-order arrival (link
    ///   reordering or a drop in front of it). **Discarded** — only the
    ///   batch's watermark is taken, for gap accounting. The shipper's
    ///   go-back-N retransmit re-delivers it in order. Logging only
    ///   in-sequence records is what makes crash recovery *exactly* the
    ///   acknowledged prefix rather than an arbitrary received subset.
    /// * `seq` equal to the prefix: accepted — WAL append, then handed to
    ///   the keep. The returned ack reflects only what is durably synced;
    ///   under [`FsyncPolicy::Always`](super::FsyncPolicy::Always) that is
    ///   everything through this batch.
    ///
    /// How a stream is cut into windows is invisible: classification, the
    /// gap ledger, every ack **value** and every log byte are the same for
    /// any cut (`window.chunks(1)` commits per record). The logical sync
    /// cadence ([`FsyncPolicy`](super::FsyncPolicy)) is tracked per record;
    /// only the physical write/sync is coalesced, and it completes before
    /// this method returns, so releasing the acks afterwards preserves
    /// durability-before-ack.
    ///
    /// An error means the write failed partway (a crash): no ack from the
    /// window may be released, and **this receiver must not be used
    /// again** — the in-memory keep and ack floor already hold the batches
    /// whose write failed, so a later redelivery would be acked past the
    /// durable prefix. Drop it and rebuild from the log with
    /// [`DurableReceiver::recover`], as a restarted process would; the
    /// shipper's retransmit re-delivers whatever didn't survive.
    ///
    /// The window may own its batches or share them with the shippers
    /// ([`crate::ship::Shipment`]): outcomes, acks and log bytes depend only
    /// on the batches themselves.
    pub fn ingest_group<B: Borrow<Batch> + Clone + Into<Arc<Batch>>>(
        &mut self,
        window: &[SeqBatch<B>],
        out: &mut Vec<(SeqIngest, AckMsg)>,
    ) -> io::Result<()> {
        out.clear();
        if window.is_empty() {
            return Ok(());
        }
        out.reserve(window.len());
        for sb in window {
            out.push(self.ingest_one(sb)?);
        }
        self.wal.commit_group()
    }

    /// Shared receiver body. The WAL append buffers into the current
    /// group; the caller owns the covering flush and must not release acks
    /// before it returns.
    fn ingest_one<B: Borrow<Batch> + Clone + Into<Arc<Batch>>>(
        &mut self,
        sb: &SeqBatch<B>,
    ) -> io::Result<(SeqIngest, AckMsg)> {
        let source = sb.payload().source;
        let cum = self.keep.contiguous(source);
        if sb.seq != cum {
            self.keep.note_watermark(source, sb.watermark);
            let outcome = if sb.seq < cum {
                self.keep.count_duplicate(source, sb.seq);
                SeqIngest::Duplicate
            } else {
                SeqIngest::Reordered
            };
            return Ok((
                outcome,
                AckMsg {
                    source,
                    cum: self.acks.synced(source),
                },
            ));
        }
        let synced = self.wal.append_deferred(sb)?;
        // The record is on the log: advance the ledger, whatever the keep
        // makes of the payload (a store merges or quarantines it — replay
        // will faithfully re-quarantine — and the verdict changes nothing
        // here: the batch was delivered and occupies its sequence number).
        let _ = self.keep.ingest_seq(sb);
        let live = self.keep.contiguous(source);
        let cum = self.acks.advance(source, live, synced);
        Ok((SeqIngest::Stored, AckMsg { source, cum }))
    }

    /// Forces a sync and returns the acks it released (one per source
    /// whose durable cumulative count advanced, in source order).
    pub fn flush(&mut self) -> io::Result<Vec<AckMsg>> {
        self.wal.sync()?;
        Ok(self.acks.flush())
    }

    /// Takes over `source` mid-flight at sequence `upto` — the regional
    /// handoff half of go-back-N resync. The keep's ledger adopts the
    /// prefix below `upto` (durably owned by the previous receiver; the
    /// tier above merges both into the global store) and the ack floor is
    /// raised to match, so the first ack this receiver issues carries at
    /// least `upto` and the shipper — whose acked prefix is exactly `upto`
    /// when the controller computes it — resumes in sequence with no gap,
    /// no double-count, and no wait for a retransmit that will never come.
    ///
    /// Nothing is logged: on recovery the adoption point is re-derived
    /// from the first logged sequence of the run
    /// ([`RecoveryReport::adoptions`]). Adopting at or below the current
    /// contiguous prefix is a no-op, so re-adopting a stream that migrated
    /// back after this aggregator recovered is always safe.
    pub fn adopt_source(&mut self, source: SourceId, upto: u64) {
        self.keep.adopt_prefix(source, upto);
        let cum = self.keep.contiguous(source);
        let s = self.acks.dirty_entry(source);
        s.live = s.live.max(cum);
        // Exactly the adopted prefix is the previous receiver's durability
        // promise and may be acked now; our own stored-but-unsynced tail
        // (if contiguous runs past `upto`) still waits for its sync.
        s.synced = s.synced.max(upto);
    }

    /// What the receiver keeps besides its log.
    pub fn keep(&self) -> &K {
        &self.keep
    }

    /// The write-ahead log (for byte accounting in crash plans).
    pub fn wal(&self) -> &Wal<S> {
        &self.wal
    }
}
