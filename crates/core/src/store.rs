//! The sample store behind the collector service.
//!
//! Thread-safe, keyed by `(source, counter)`, stitched from batches in
//! arrival order. Offers CSV export so campaign data can leave the process
//! the way the paper's raw distributions left theirs (the published GitHub
//! data dump).
//!
//! The store is the last line of defence for data integrity: a malformed
//! batch (timestamps out of order within the batch, or timestamps that
//! duplicate samples already stored for the same source/counter) is
//! **quarantined** — counted, kept out of the series, and never allowed to
//! corrupt downstream rate math. Ingest never panics; locks recover from
//! poisoning so one crashed worker cannot wedge the tier.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use uburst_asic::CounterId;
use uburst_sim::node::PortId;

use crate::batch::{Batch, SourceId};
use crate::csv;
use crate::series::Series;
use crate::ship::{GapLedger, SeqBatch};

/// Identifies one stored series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// The switch the series came from.
    pub source: SourceId,
    /// The counter.
    pub counter: CounterId,
}

/// Why a batch was refused by [`SampleStore::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The batch carried no samples (a protocol violation: batchers never
    /// cut empty batches).
    Empty,
    /// Timestamps within the batch were not strictly increasing.
    NonMonotonic,
    /// The batch repeats a timestamp already stored for its series — a
    /// double delivery that would double-count samples if merged.
    DuplicateTimestamp,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Empty => write!(f, "empty batch"),
            QuarantineReason::NonMonotonic => write!(f, "non-monotonic timestamps"),
            QuarantineReason::DuplicateTimestamp => {
                write!(f, "duplicate timestamp for series")
            }
        }
    }
}

/// Ingest accounting: every batch handed to the store lands in exactly one
/// of these counters, and every batch that *failed to arrive* shows up in
/// the loss columns — shed upstream, deduplicated on arrival, or known
/// missing per the gap ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Batches merged into series.
    pub ingested_batches: u64,
    /// Batches refused and quarantined.
    pub quarantined_batches: u64,
    /// Batches shed by upstream sinks before reaching the store
    /// (`ShipPolicy::DropOldest`/`DropNewest` evictions, reported via
    /// [`SampleStore::note_shed`]).
    pub shed_batches: u64,
    /// Redelivered batches dropped by sequence-number dedup.
    pub duplicate_batches: u64,
    /// Batches known assigned by their shippers but never received — the
    /// gap ledger's missing total.
    pub missing_batches: u64,
    /// Times a *source* crossed the gate policy's consecutive-quarantine
    /// threshold and was source-quarantined.
    pub source_quarantines: u64,
    /// Times a source-quarantined source delivered enough consecutive
    /// clean batches to rejoin.
    pub source_rejoins: u64,
}

/// Policy for the per-source quarantine **gate**: batch-level quarantine
/// is per-delivery, but a source that keeps shipping malformed batches is
/// itself suspect. After [`GatePolicy::quarantine_after`] consecutive
/// quarantined batches the source is marked gated; after
/// [`GatePolicy::rejoin_after`] consecutive clean batches it rejoins (and
/// the rejoin is counted — quarantine is no longer one-way). Gating is a
/// *health verdict*, not a data filter: a gated source's valid batches are
/// still merged, because refusing good data would turn a recovered switch
/// into a permanent coverage hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatePolicy {
    /// Consecutive quarantined batches before the source is gated.
    pub quarantine_after: u32,
    /// Consecutive clean batches a gated source must deliver to rejoin.
    pub rejoin_after: u32,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            quarantine_after: 3,
            rejoin_after: 4,
        }
    }
}

/// Per-source streak tracking behind [`GatePolicy`].
#[derive(Debug, Clone, Copy, Default)]
struct GateState {
    consec_bad: u32,
    consec_clean: u32,
    gated: bool,
}

/// Outcome of [`SampleStore::ingest_seq`] for a batch that was not
/// quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqIngest {
    /// First delivery: merged (or quarantined) and recorded in the ledger.
    Stored,
    /// Sequence number already received: nothing stored, duplicate counted.
    Duplicate,
    /// Sequence number ahead of the in-order prefix: discarded by a
    /// go-back-N receiver ([`crate::DurableStore`]); the shipper's
    /// retransmit re-delivers it in order. Only the watermark is taken.
    Reordered,
}

/// How many quarantined batches are retained for post-mortem inspection.
const QUARANTINE_KEEP: usize = 64;

/// Thread-safe store of collected series.
#[derive(Debug, Default)]
pub struct SampleStore {
    inner: RwLock<HashMap<SeriesKey, Series>>,
    ingested: AtomicU64,
    quarantined: AtomicU64,
    /// The most recent quarantined batches (bounded; oldest evicted).
    quarantine: Mutex<Vec<(QuarantineReason, Batch)>>,
    /// Per-source receive coverage for sequenced ingest ([`SampleStore::ingest_seq`]).
    ledger: Mutex<GapLedger>,
    /// Per-source batches shed upstream, reported by sinks via
    /// [`SampleStore::note_shed`].
    shed: Mutex<BTreeMap<SourceId, u64>>,
    shed_total: AtomicU64,
    /// Source-level quarantine gate ([`GatePolicy`]); `None` in the
    /// default store keeps gate accounting out of pipelines that never
    /// asked for it.
    gate_policy: Option<GatePolicy>,
    gates: Mutex<BTreeMap<SourceId, GateState>>,
    source_quarantines: AtomicU64,
    source_rejoins: AtomicU64,
}

impl SampleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with the per-source quarantine gate enabled.
    pub fn with_gate(policy: GatePolicy) -> Self {
        assert!(policy.quarantine_after > 0, "zero quarantine threshold");
        assert!(policy.rejoin_after > 0, "zero rejoin threshold");
        SampleStore {
            gate_policy: Some(policy),
            ..Self::default()
        }
    }

    fn read_lock(&self) -> RwLockReadGuard<'_, HashMap<SeriesKey, Series>> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_lock(&self) -> RwLockWriteGuard<'_, HashMap<SeriesKey, Series>> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Validates `batch` against the stored series it targets. Batches of
    /// the same series may arrive out of order when several collector
    /// workers share a source's stream — that is legal and merged back into
    /// timestamp order; what is *not* legal is internal disorder or exact
    /// timestamp duplication (a re-delivered batch).
    fn validate(batch: &Batch, existing: Option<&Series>) -> Result<(), QuarantineReason> {
        let ts = &batch.samples.ts;
        if ts.is_empty() || ts.len() != batch.samples.vs.len() {
            return Err(QuarantineReason::Empty);
        }
        if ts.windows(2).any(|w| w[1] <= w[0]) {
            return Err(QuarantineReason::NonMonotonic);
        }
        if let Some(s) = existing {
            // In-order appends — the overwhelmingly common shape once a
            // stream is flowing — start strictly after the stored tail, so
            // no timestamp can collide and the per-timestamp probe is
            // skipped entirely.
            let disjoint = s.ts.last().is_none_or(|&last| ts[0] > last);
            if !disjoint && ts.iter().any(|t| s.ts.binary_search(t).is_ok()) {
                return Err(QuarantineReason::DuplicateTimestamp);
            }
        }
        Ok(())
    }

    /// Ingests one batch, or quarantines it if malformed. The rejected
    /// batch is retained (up to a bounded backlog) for inspection via
    /// [`SampleStore::quarantined`].
    pub fn ingest(&self, batch: &Batch) -> Result<(), QuarantineReason> {
        let key = SeriesKey {
            source: batch.source,
            counter: batch.counter,
        };
        // Validate under the same write lock that merges, so two workers
        // racing duplicate deliveries of one batch cannot both pass.
        let mut map = self.write_lock();
        if let Err(reason) = Self::validate(batch, map.get(&key)) {
            drop(map);
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            let mut q = self.quarantine.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= QUARANTINE_KEEP {
                q.remove(0);
            }
            q.push((reason, batch.clone()));
            drop(q);
            self.note_gate(batch.source, false);
            return Err(reason);
        }
        map.entry(key).or_default().merge_from(&batch.samples);
        drop(map);
        self.ingested.fetch_add(1, Ordering::Relaxed);
        self.note_gate(batch.source, true);
        Ok(())
    }

    /// Feeds one ingest verdict into the source's quarantine gate.
    fn note_gate(&self, source: SourceId, clean: bool) {
        let Some(policy) = self.gate_policy else {
            return;
        };
        let mut gates = self.gates.lock().unwrap_or_else(|e| e.into_inner());
        let g = gates.entry(source).or_default();
        if clean {
            g.consec_bad = 0;
            if g.gated {
                g.consec_clean += 1;
                if g.consec_clean >= policy.rejoin_after {
                    g.gated = false;
                    g.consec_clean = 0;
                    self.source_rejoins.fetch_add(1, Ordering::Relaxed);
                    uburst_obs::counter_add("uburst_store_source_rejoins_total", 1);
                }
            }
        } else {
            g.consec_clean = 0;
            if !g.gated {
                g.consec_bad += 1;
                if g.consec_bad >= policy.quarantine_after {
                    g.gated = true;
                    g.consec_bad = 0;
                    self.source_quarantines.fetch_add(1, Ordering::Relaxed);
                    uburst_obs::counter_add("uburst_store_source_quarantines_total", 1);
                }
            }
        }
    }

    /// Whether `source` is currently source-quarantined by the gate.
    pub fn is_source_gated(&self, source: SourceId) -> bool {
        self.gates
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&source)
            .is_some_and(|g| g.gated)
    }

    /// Sources currently held by the quarantine gate, sorted.
    pub fn gated_sources(&self) -> Vec<SourceId> {
        self.gates
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(_, g)| g.gated)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Ingests one *sequenced* batch: sequence-number dedup against the
    /// gap ledger first (a redelivery returns [`SeqIngest::Duplicate`] and
    /// touches nothing), then the usual [`SampleStore::ingest`] path. The
    /// batch's piggybacked transmit watermark raises the ledger's, so
    /// never-delivered sequence numbers become visible as gaps.
    ///
    /// A quarantined batch still occupies its sequence number (it was
    /// *delivered* — redelivering it forever would not make it well
    /// formed), so `Err` here means quarantined-but-accounted.
    pub fn ingest_seq<B: Borrow<Batch>>(
        &self,
        sb: &SeqBatch<B>,
    ) -> Result<SeqIngest, QuarantineReason> {
        let batch = sb.payload();
        {
            let mut ledger = self.ledger_lock();
            ledger.note_watermark(batch.source, sb.watermark);
            if !ledger.note_received(batch.source, sb.seq) {
                return Ok(SeqIngest::Duplicate);
            }
        }
        self.ingest(batch).map(|()| SeqIngest::Stored)
    }

    fn ledger_lock(&self) -> std::sync::MutexGuard<'_, GapLedger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether `seq` from `source` was already received (read-only; counts
    /// nothing). Receivers probe this before durable persistence so a
    /// redelivery is re-acked without being re-logged.
    pub fn is_duplicate_seq(&self, source: SourceId, seq: u64) -> bool {
        self.ledger_lock().is_received(source, seq)
    }

    /// Counts a deduplicated redelivery of `seq` from `source` in the
    /// ledger (the bookkeeping half of [`SampleStore::is_duplicate_seq`]).
    pub fn count_duplicate(&self, source: SourceId, seq: u64) {
        self.ledger_lock().note_received(source, seq);
    }

    /// Raises `source`'s known transmit watermark (e.g. announced by a
    /// reconnecting shipper), exposing pre-crash losses as gaps.
    pub fn note_watermark(&self, source: SourceId, watermark: u64) {
        self.ledger_lock().note_watermark(source, watermark);
    }

    /// Adopts `source` at sequence `upto`: the ledger marks everything
    /// below it received (no duplicate counting) so the store's contiguous
    /// prefix — and therefore the cumulative acks issued from it — starts
    /// at the handoff point. The adopted batches' *payloads* are not here;
    /// they are durably owned by the previous receiver (a regional
    /// aggregator handing the stream over), and the tier above merges both
    /// receivers' stores into the global one.
    pub fn adopt_prefix(&self, source: SourceId, upto: u64) {
        self.ledger_lock().adopt_prefix(source, upto);
    }

    /// Contiguous received-sequence prefix for `source` — the cumulative
    /// ack value its shipper may be sent.
    pub fn contiguous(&self, source: SourceId) -> u64 {
        self.ledger_lock().contiguous(source)
    }

    /// Snapshot of the gap ledger (per-source received ranges, watermarks,
    /// gaps, and dedup counts).
    pub fn ledger(&self) -> GapLedger {
        self.ledger_lock().clone()
    }

    /// Records `n` batches from `source` shed upstream before reaching the
    /// store (sink evictions under back-pressure). Keeps loss accounting
    /// next to quarantine accounting, where analyses look for it.
    pub fn note_shed(&self, source: SourceId, n: u64) {
        if n == 0 {
            return;
        }
        *self
            .shed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(source)
            .or_insert(0) += n;
        self.shed_total.fetch_add(n, Ordering::Relaxed);
    }

    /// Per-source shed counts, sorted by source.
    pub fn shed_by_source(&self) -> Vec<(SourceId, u64)> {
        self.shed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect()
    }

    /// Ingest accounting so far.
    pub fn stats(&self) -> StoreStats {
        let (duplicate_batches, missing_batches) = {
            let ledger = self.ledger_lock();
            (ledger.duplicates_total(), ledger.missing_total())
        };
        StoreStats {
            ingested_batches: self.ingested.load(Ordering::Relaxed),
            quarantined_batches: self.quarantined.load(Ordering::Relaxed),
            shed_batches: self.shed_total.load(Ordering::Relaxed),
            duplicate_batches,
            missing_batches,
            source_quarantines: self.source_quarantines.load(Ordering::Relaxed),
            source_rejoins: self.source_rejoins.load(Ordering::Relaxed),
        }
    }

    /// The most recently quarantined batches and why (bounded backlog).
    pub fn quarantined(&self) -> Vec<(QuarantineReason, Batch)> {
        self.quarantine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Snapshot of one series.
    pub fn series(&self, source: SourceId, counter: CounterId) -> Option<Series> {
        self.read_lock()
            .get(&SeriesKey { source, counter })
            .cloned()
    }

    /// All keys currently stored, sorted for deterministic iteration.
    pub fn keys(&self) -> Vec<SeriesKey> {
        let mut keys: Vec<SeriesKey> = self.read_lock().keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Total samples across all series.
    pub fn total_samples(&self) -> usize {
        self.read_lock().values().map(Series::len).sum()
    }

    /// Writes every series as CSV rows:
    /// `source,counter,timestamp_ns,value`.
    pub fn export_csv<W: Write>(&self, w: W) -> io::Result<()> {
        csv::export(&self.read_lock(), w)
    }

    /// Reads a CSV previously produced by [`SampleStore::export_csv`] (the
    /// same role as the paper's published raw-data dump): rows of exactly
    /// four columns, `source,counter,timestamp_ns,value`. Unknown counter
    /// labels are rejected; rows may arrive in any order (each series is
    /// sorted stably — rows sharing a timestamp keep their file order,
    /// matching [`Series::merge_from`]'s tie semantics). Line endings may
    /// be LF or CRLF and the header may follow a UTF-8 byte-order mark; a
    /// Windows-saved dump imports identically.
    pub fn import_csv<R: BufRead>(r: R) -> io::Result<SampleStore> {
        Ok(SampleStore {
            inner: RwLock::new(csv::import(r)?),
            ..Self::default()
        })
    }
}

/// The label text format's one table: every counter is written `prefix`,
/// `prefix[port]` or `prefix[port:bin]`. [`counter_label`], the segment
/// encoder and [`parse_counter_label`] all read it.
///
/// ':' separates port and bin, NOT ',': every label must stay comma-free
/// so CSV rows always split into exactly four columns (guarded by test).
pub(crate) fn label_parts(c: CounterId) -> (&'static str, Option<u16>, Option<u8>) {
    use CounterId as C;
    match c {
        C::RxBytes(p) => ("rx_bytes", Some(p.0), None),
        C::RxPackets(p) => ("rx_packets", Some(p.0), None),
        C::TxBytes(p) => ("tx_bytes", Some(p.0), None),
        C::TxPackets(p) => ("tx_packets", Some(p.0), None),
        C::Drops(p) => ("drops", Some(p.0), None),
        C::RxSizeHist(p, b) => ("rx_size_hist", Some(p.0), Some(b)),
        C::TxSizeHist(p, b) => ("tx_size_hist", Some(p.0), Some(b)),
        C::BufferLevel => ("buffer_level", None, None),
        C::BufferPeak => ("buffer_peak", None, None),
    }
}

/// Every counter kind, instantiated at `port` / `bin`.
pub(crate) fn counter_kinds(port: PortId, bin: u8) -> [CounterId; 9] {
    use CounterId as C;
    [
        C::RxBytes(port),
        C::RxPackets(port),
        C::TxBytes(port),
        C::TxPackets(port),
        C::Drops(port),
        C::RxSizeHist(port, bin),
        C::TxSizeHist(port, bin),
        C::BufferLevel,
        C::BufferPeak,
    ]
}

/// Parses a [`counter_label`] back into a [`CounterId`]: the prefix picks
/// the kind, the kind's `label_parts` row says which fields must follow.
/// Fields past the ones the kind takes are ignored.
pub fn parse_counter_label(label: &str) -> Option<CounterId> {
    let label = label.trim();
    let (name, args) = match label.strip_suffix(']').and_then(|l| l.split_once('[')) {
        None => (label, None),
        Some((name, args)) => (name, Some(args)),
    };
    let protos = counter_kinds(PortId(0), 0);
    let kind = protos.iter().position(|&c| label_parts(c).0 == name)?;
    let (_, has_port, has_bin) = label_parts(protos[kind]);
    if has_port.is_some() != args.is_some() {
        return None;
    }
    // Canonical separator is ':'; ',' is still accepted when parsing
    // labels from older dumps.
    let mut nums = args.unwrap_or("").split([':', ',']);
    let port: u16 = match has_port {
        Some(_) => nums.next()?.trim().parse().ok()?,
        None => 0,
    };
    let bin: u8 = match has_bin {
        Some(_) => nums.next()?.trim().parse().ok()?,
        None => 0,
    };
    Some(counter_kinds(PortId(port), bin)[kind])
}

/// Stable text label for a counter (used in CSV export).
pub fn counter_label(c: CounterId) -> String {
    match label_parts(c) {
        (prefix, None, _) => prefix.to_string(),
        (prefix, Some(port), None) => format!("{prefix}[{port}]"),
        (prefix, Some(port), Some(bin)) => format!("{prefix}[{port}:{bin}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::time::Nanos;

    fn batch(source: u32, counter: CounterId, pts: &[(u64, u64)]) -> Batch {
        let mut s = Series::new();
        for &(t, v) in pts {
            s.push(Nanos(t), v);
        }
        Batch {
            source: SourceId(source),
            campaign: "test".into(),
            counter,
            samples: s,
        }
    }

    #[test]
    fn ingest_and_read_back() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(1));
        store.ingest(&batch(0, c, &[(1, 10), (2, 20)])).unwrap();
        store.ingest(&batch(0, c, &[(3, 30)])).unwrap();
        let s = store.series(SourceId(0), c).unwrap();
        assert_eq!(s.ts, vec![1, 2, 3]);
        assert_eq!(s.vs, vec![10, 20, 30]);
        assert_eq!(store.total_samples(), 3);
        assert_eq!(
            store.stats(),
            StoreStats {
                ingested_batches: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn sources_are_isolated() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        store.ingest(&batch(0, c, &[(1, 1)])).unwrap();
        store.ingest(&batch(1, c, &[(1, 99)])).unwrap();
        assert_eq!(store.series(SourceId(0), c).unwrap().vs, vec![1]);
        assert_eq!(store.series(SourceId(1), c).unwrap().vs, vec![99]);
        assert_eq!(store.keys().len(), 2);
    }

    #[test]
    fn missing_series_is_none() {
        let store = SampleStore::new();
        assert!(store.series(SourceId(7), CounterId::BufferPeak).is_none());
    }

    #[test]
    fn out_of_order_batches_still_merge() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        store.ingest(&batch(0, c, &[(30, 3), (40, 4)])).unwrap();
        store.ingest(&batch(0, c, &[(10, 1), (20, 2)])).unwrap();
        let s = store.series(SourceId(0), c).unwrap();
        assert_eq!(s.ts, vec![10, 20, 30, 40]);
    }

    #[test]
    fn nonmonotonic_batch_is_quarantined() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        let mut bad = batch(0, c, &[(1, 1)]);
        bad.samples.ts = vec![5, 3];
        bad.samples.vs = vec![1, 2];
        assert_eq!(store.ingest(&bad), Err(QuarantineReason::NonMonotonic));
        assert!(store.series(SourceId(0), c).is_none(), "nothing stored");
        let q = store.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, QuarantineReason::NonMonotonic);
        assert_eq!(store.stats().quarantined_batches, 1);
    }

    #[test]
    fn duplicate_delivery_is_quarantined() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        let b = batch(0, c, &[(10, 1), (20, 2)]);
        store.ingest(&b).unwrap();
        assert_eq!(store.ingest(&b), Err(QuarantineReason::DuplicateTimestamp));
        // The series holds exactly one copy.
        assert_eq!(store.series(SourceId(0), c).unwrap().ts, vec![10, 20]);
        // Same timestamps on a *different* source are fine.
        store.ingest(&batch(1, c, &[(10, 5), (20, 6)])).unwrap();
        assert_eq!(store.stats().ingested_batches, 2);
        assert_eq!(store.stats().quarantined_batches, 1);
    }

    #[test]
    fn empty_batch_is_quarantined() {
        let store = SampleStore::new();
        let b = Batch {
            source: SourceId(0),
            campaign: "t".into(),
            counter: CounterId::BufferPeak,
            samples: Series::new(),
        };
        assert_eq!(store.ingest(&b), Err(QuarantineReason::Empty));
    }

    #[test]
    fn quarantine_backlog_is_bounded() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        store.ingest(&batch(0, c, &[(1, 1)])).unwrap();
        let dup = batch(0, c, &[(1, 1)]);
        for _ in 0..(QUARANTINE_KEEP + 10) {
            let _ = store.ingest(&dup);
        }
        assert_eq!(store.quarantined().len(), QUARANTINE_KEEP);
        assert_eq!(
            store.stats().quarantined_batches,
            (QUARANTINE_KEEP + 10) as u64,
            "counter keeps counting past the backlog bound"
        );
    }

    #[test]
    fn csv_export_shape() {
        let store = SampleStore::new();
        store
            .ingest(&batch(2, CounterId::Drops(PortId(3)), &[(100, 1)]))
            .unwrap();
        let mut out = Vec::new();
        store.export_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "source,counter,timestamp_ns,value");
        assert_eq!(lines[1], "2,drops[3],100,1");
    }

    #[test]
    fn csv_round_trips() {
        let store = SampleStore::new();
        store
            .ingest(&batch(
                3,
                CounterId::TxBytes(PortId(7)),
                &[(10, 1), (20, 5)],
            ))
            .unwrap();
        store
            .ingest(&batch(4, CounterId::BufferPeak, &[(15, 900)]))
            .unwrap();
        let mut out = Vec::new();
        store.export_csv(&mut out).unwrap();
        let re = SampleStore::import_csv(std::io::Cursor::new(out)).unwrap();
        assert_eq!(re.total_samples(), 3);
        let s = re
            .series(SourceId(3), CounterId::TxBytes(PortId(7)))
            .unwrap();
        assert_eq!(s.ts, vec![10, 20]);
        assert_eq!(s.vs, vec![1, 5]);
        assert_eq!(
            re.series(SourceId(4), CounterId::BufferPeak).unwrap().vs,
            vec![900]
        );
    }

    #[test]
    fn label_parse_round_trips() {
        // Every variant at the extremes of both fields.
        for port in [0, 31, u16::MAX] {
            for bin in [0, 6, u8::MAX] {
                for c in counter_kinds(PortId(port), bin) {
                    let label = counter_label(c);
                    assert_eq!(parse_counter_label(&label), Some(c), "{label}");
                    // Older dumps separated port and bin with ','.
                    let legacy = label.replace(':', ",");
                    assert_eq!(parse_counter_label(&legacy), Some(c), "{legacy}");
                }
            }
        }
        assert_eq!(
            counter_label(CounterId::TxSizeHist(PortId(u16::MAX), u8::MAX)),
            "tx_size_hist[65535:255]"
        );
        for bad in [
            "nonsense",
            "tx_bytes[x]",
            "tx_bytes",
            "tx_bytes[]",
            "tx_bytes[65536]",
            "rx_size_hist[1]",
            "rx_size_hist[1:256]",
            "buffer_peak[0]",
        ] {
            assert_eq!(parse_counter_label(bad), None, "{bad}");
        }
        // A field the kind does not take is ignored, as it always was.
        assert_eq!(
            parse_counter_label("tx_bytes[1:2]"),
            Some(CounterId::TxBytes(PortId(1)))
        );
    }

    #[test]
    fn import_rejects_garbage() {
        let bad = "wrong,header
1,tx_bytes[0],5,5
";
        assert!(SampleStore::import_csv(std::io::Cursor::new(bad)).is_err());
        let bad_row = "source,counter,timestamp_ns,value
1,tx_bytes[0],NOPE,5
";
        assert!(SampleStore::import_csv(std::io::Cursor::new(bad_row)).is_err());
    }

    fn seq_batch(seq: u64, watermark: u64, b: Batch) -> SeqBatch {
        SeqBatch {
            seq,
            watermark,
            batch: b,
        }
    }

    #[test]
    fn seq_ingest_dedups_and_tracks_gaps() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        let b0 = batch(0, c, &[(10, 1)]);
        let b2 = batch(0, c, &[(30, 3)]);
        assert_eq!(
            store.ingest_seq(&seq_batch(0, 1, b0.clone())),
            Ok(SeqIngest::Stored)
        );
        // Seq 1 lost in flight; seq 2 arrives with watermark 3.
        assert_eq!(
            store.ingest_seq(&seq_batch(2, 3, b2)),
            Ok(SeqIngest::Stored)
        );
        // Redelivery of seq 0 (same payload — would otherwise quarantine
        // as DuplicateTimestamp) is cleanly deduplicated instead.
        assert_eq!(
            store.ingest_seq(&seq_batch(0, 1, b0)),
            Ok(SeqIngest::Duplicate)
        );
        let stats = store.stats();
        assert_eq!(stats.ingested_batches, 2);
        assert_eq!(stats.quarantined_batches, 0);
        assert_eq!(stats.duplicate_batches, 1);
        assert_eq!(stats.missing_batches, 1, "seq 1 is a known gap");
        assert_eq!(store.ledger().gaps(SourceId(0)), vec![(1, 1)]);
        assert_eq!(store.contiguous(SourceId(0)), 1);
    }

    #[test]
    fn quarantined_seq_batch_still_occupies_its_seq() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        store
            .ingest_seq(&seq_batch(0, 1, batch(0, c, &[(10, 1)])))
            .unwrap();
        // Different seq, same timestamps: quarantined but accounted.
        assert_eq!(
            store.ingest_seq(&seq_batch(1, 2, batch(0, c, &[(10, 9)]))),
            Err(QuarantineReason::DuplicateTimestamp)
        );
        assert_eq!(store.contiguous(SourceId(0)), 2, "seq 1 was delivered");
        assert_eq!(store.stats().quarantined_batches, 1);
        assert!(store.ledger().gaps(SourceId(0)).is_empty());
    }

    #[test]
    fn watermark_from_reconnect_exposes_pre_crash_loss() {
        let store = SampleStore::new();
        store.note_watermark(SourceId(5), 10);
        assert_eq!(store.stats().missing_batches, 10);
        assert_eq!(store.ledger().gaps(SourceId(5)), vec![(0, 9)]);
    }

    #[test]
    fn shed_accounting_is_per_source() {
        let store = SampleStore::new();
        store.note_shed(SourceId(1), 3);
        store.note_shed(SourceId(2), 1);
        store.note_shed(SourceId(1), 2);
        store.note_shed(SourceId(9), 0); // no-op, no entry
        assert_eq!(store.stats().shed_batches, 6);
        assert_eq!(
            store.shed_by_source(),
            vec![(SourceId(1), 5), (SourceId(2), 1)]
        );
    }

    #[test]
    fn import_accepts_crlf_rows() {
        let unix = "source,counter,timestamp_ns,value\n1,tx_bytes[0],5,50\n1,tx_bytes[0],6,60\n";
        let windows = unix.replace('\n', "\r\n");
        let a = SampleStore::import_csv(std::io::Cursor::new(unix)).unwrap();
        let b = SampleStore::import_csv(std::io::Cursor::new(windows)).unwrap();
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        a.export_csv(&mut ea).unwrap();
        b.export_csv(&mut eb).unwrap();
        assert_eq!(ea, eb, "CRLF dump imports identically to LF");
        assert_eq!(b.total_samples(), 2);
    }

    #[test]
    fn import_of_unsorted_bulk_dump_is_fast_and_exact() {
        // 100k rows across a handful of series, timestamps deliberately
        // scrambled. The per-key buffered import must reproduce the
        // canonical export byte for byte — and do it in O(n log n) (the
        // old row-at-a-time merge was quadratic; at this size it took
        // tens of seconds, so the test doubles as a perf regression trip
        // wire via the suite's overall runtime).
        let counters = [
            CounterId::TxBytes(PortId(0)),
            CounterId::RxBytes(PortId(1)),
            CounterId::Drops(PortId(2)),
            CounterId::BufferPeak,
        ];
        let per_series = 100_000 / (counters.len() * 2);
        let mut rows = Vec::new();
        for source in 0..2u32 {
            for c in counters {
                let label = counter_label(c);
                for i in 0..per_series {
                    // A scrambled but collision-free timestamp ordering.
                    let t = ((i as u64).wrapping_mul(48_271)) % 1_000_003;
                    rows.push(format!("{source},{label},{t},{i}"));
                }
            }
        }
        let mut csv = String::from("source,counter,timestamp_ns,value\n");
        for r in &rows {
            csv.push_str(r);
            csv.push('\n');
        }
        let store = SampleStore::import_csv(std::io::Cursor::new(csv)).unwrap();
        assert_eq!(store.total_samples(), per_series * counters.len() * 2);
        let mut exported = Vec::new();
        store.export_csv(&mut exported).unwrap();
        let re = SampleStore::import_csv(std::io::Cursor::new(exported.clone())).unwrap();
        let mut re_exported = Vec::new();
        re.export_csv(&mut re_exported).unwrap();
        assert_eq!(exported, re_exported, "re-export is byte-identical");
    }

    #[test]
    fn empty_series_exports_no_rows_and_reimports_cleanly() {
        let store = SampleStore::new();
        store.write_lock().insert(
            SeriesKey {
                source: SourceId(0),
                counter: CounterId::BufferLevel,
            },
            Series::new(),
        );
        store
            .ingest(&batch(1, CounterId::BufferPeak, &[(5, 7)]))
            .unwrap();
        let mut out = Vec::new();
        store.export_csv(&mut out).unwrap();
        let re = SampleStore::import_csv(std::io::Cursor::new(out)).unwrap();
        assert_eq!(re.total_samples(), 1);
        assert!(
            re.series(SourceId(0), CounterId::BufferLevel).is_none(),
            "an empty series has no rows to carry it through CSV"
        );
    }

    #[test]
    fn gate_quarantines_source_and_releases_after_clean_streak() {
        let store = SampleStore::with_gate(GatePolicy {
            quarantine_after: 2,
            rejoin_after: 3,
        });
        let c = CounterId::TxBytes(PortId(0));
        let src = SourceId(7);
        let mut bad = batch(7, c, &[(1, 1)]);
        bad.samples.ts = vec![5, 3];
        bad.samples.vs = vec![1, 2];
        // One bad batch is a delivery problem, not a source problem.
        assert!(store.ingest(&bad).is_err());
        assert!(!store.is_source_gated(src));
        // The second consecutive one gates the source.
        assert!(store.ingest(&bad).is_err());
        assert!(store.is_source_gated(src));
        assert_eq!(store.gated_sources(), vec![src]);
        assert_eq!(store.stats().source_quarantines, 1);
        assert_eq!(store.stats().source_rejoins, 0);
        // Gating is a verdict, not a filter: clean batches still merge.
        for t in 0..3u64 {
            store.ingest(&batch(7, c, &[(10 + t, t)])).unwrap();
            let released = t == 2;
            assert_eq!(!store.is_source_gated(src), released, "poll {t}");
        }
        assert_eq!(store.stats().source_rejoins, 1);
        assert!(store.gated_sources().is_empty());
        assert_eq!(store.series(src, c).unwrap().len(), 3);
        // Quarantine is re-armed after rejoin: the cycle can repeat.
        assert!(store.ingest(&bad).is_err());
        assert!(store.ingest(&bad).is_err());
        assert!(store.is_source_gated(src));
        assert_eq!(store.stats().source_quarantines, 2);
    }

    #[test]
    fn gate_streaks_reset_on_interleaved_outcomes() {
        let store = SampleStore::with_gate(GatePolicy {
            quarantine_after: 3,
            rejoin_after: 2,
        });
        let c = CounterId::TxBytes(PortId(0));
        let mut bad = batch(3, c, &[(1, 1)]);
        bad.samples.ts = vec![5, 3];
        bad.samples.vs = vec![1, 2];
        // bad, bad, clean, bad, bad: never three *consecutive* bad.
        assert!(store.ingest(&bad).is_err());
        assert!(store.ingest(&bad).is_err());
        store.ingest(&batch(3, c, &[(10, 1)])).unwrap();
        assert!(store.ingest(&bad).is_err());
        assert!(store.ingest(&bad).is_err());
        assert!(!store.is_source_gated(SourceId(3)));
        assert_eq!(store.stats().source_quarantines, 0);
        // A bad batch mid-probation resets the clean streak too.
        assert!(store.ingest(&bad).is_err());
        assert!(store.is_source_gated(SourceId(3)));
        store.ingest(&batch(3, c, &[(20, 1)])).unwrap();
        assert!(store.ingest(&bad).is_err());
        store.ingest(&batch(3, c, &[(30, 1)])).unwrap();
        assert!(store.is_source_gated(SourceId(3)), "streak was reset");
        store.ingest(&batch(3, c, &[(40, 1)])).unwrap();
        assert!(!store.is_source_gated(SourceId(3)));
        assert_eq!(store.stats().source_rejoins, 1);
    }

    #[test]
    fn default_store_has_no_gate() {
        let store = SampleStore::new();
        let c = CounterId::TxBytes(PortId(0));
        let mut bad = batch(0, c, &[(1, 1)]);
        bad.samples.ts = vec![5, 3];
        bad.samples.vs = vec![1, 2];
        for _ in 0..10 {
            let _ = store.ingest(&bad);
        }
        assert!(!store.is_source_gated(SourceId(0)));
        assert_eq!(store.stats().source_quarantines, 0);
    }

    #[test]
    fn counter_labels_are_distinct() {
        let labels: Vec<String> = counter_kinds(PortId(0), 1)
            .into_iter()
            .map(counter_label)
            .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
