//! Write-ahead logging for the collector tier: crash-safe batch
//! persistence with segment rotation and torn-tail recovery.
//!
//! The volatile [`SampleStore`] loses everything when the collector dies;
//! its only persistence was a CSV dump cut *after* a campaign. This module
//! puts a WAL in front of the store: every sequenced batch is appended to
//! an append-only segment file ([`crate::segment`] format: length + CRC32
//! framing) **before** it is merged and acknowledged, so a collector crash
//! loses at most the record being written — and recovery detects exactly
//! that, truncates the torn tail, and replays every clean record back into
//! a fresh store.
//!
//! Three pieces:
//!
//! * [`WalStorage`] — the byte-level backend the log writes through.
//!   [`DirStorage`] is the real thing (one `wal-NNNNNNNN.seg` file per
//!   segment in a directory, `fsync` via `File::sync_data`);
//!   [`MemStorage`] is a shared in-memory image with identical semantics,
//!   used by the deterministic crash-injection harness
//!   ([`crate::failpoint`]) and the durability experiments.
//! * [`Wal`] — the appender: frames records, rotates segments at
//!   [`WalConfig::segment_max_bytes`], and syncs per [`FsyncPolicy`].
//! * [`DurableStore`] — WAL + [`SampleStore`] + gap ledger glued into the
//!   receiver side of the shipping protocol: dedup **before** append (so
//!   the log never stores a batch twice), append + sync **before** ack (so
//!   an issued ack is a durability promise), and
//!   [`DurableStore::recover`] to rebuild the whole thing after a crash.
//!
//! ### Recovery invariants
//!
//! With [`FsyncPolicy::Always`] (the default), for a crash at *any* byte
//! offset of the write stream:
//!
//! 1. recovery yields exactly the acknowledged prefix — every batch whose
//!    ack was issued is replayed, and nothing else;
//! 2. no recovered record fails its CRC (tears are truncated, not merged);
//! 3. after the surviving shipper retransmits, the store converges to the
//!    full sent set with duplicates deduplicated by sequence number.
//!
//! Under [`FsyncPolicy::EveryN`]/[`FsyncPolicy::Never`] invariant 1 weakens
//! to "recovery yields a clean prefix of the received stream that is a
//! superset of the acknowledged batches" — acks are withheld until the
//! covering sync, but bytes that reached the OS may still survive a crash.
//! Invariants 2 and 3 are unconditional. `tests/crash_recovery.rs` sweeps
//! hundreds of crash offsets asserting all three.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::batch::SourceId;
use crate::errors::WalError;
use crate::segment::{
    frame_record_into, scan_segment, segment_header, SegmentScan, TearReason, SEGMENT_HEADER_LEN,
};
use crate::ship::{AckMsg, SeqBatch};
use crate::store::{SampleStore, SeqIngest};

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every record: an issued ack is always durable. The
    /// default, and the policy under which crash recovery is exact.
    #[default]
    Always,
    /// Sync every `n` records (and at rotation/flush); acks are withheld
    /// until the covering sync. Trades ack latency for write throughput.
    EveryN(u32),
    /// Sync only at rotation/flush. Maximum throughput; a crash may lose
    /// every record since the last rotation — but never an *acked* one,
    /// because acks wait for syncs here too.
    Never,
}

/// Configuration for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one reaches this size.
    pub segment_max_bytes: usize,
    /// When records are forced to stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 64 * 1024,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// The byte-level backend a [`Wal`] writes through. Implementations must
/// apply `append` bytes in order and make everything appended before a
/// successful `sync` survive a crash.
pub trait WalStorage {
    /// Creates (or truncates) segment `index` and makes it current.
    fn open_segment(&mut self, index: u64) -> io::Result<()>;
    /// Appends bytes to the current segment. May apply a prefix and then
    /// fail — that is the torn write recovery must survive.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Segment indices present, sorted ascending.
    fn list(&self) -> io::Result<Vec<u64>>;
    /// Reads a whole segment image.
    fn read(&self, index: u64) -> io::Result<Vec<u8>>;
    /// Truncates segment `index` to `len` bytes (torn-tail removal).
    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()>;
}

/// Real directory-of-files storage: `wal-NNNNNNNN.seg` under `dir`.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
    current: Option<fs::File>,
}

impl DirStorage {
    /// Storage rooted at `dir` (created if missing).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DirStorage> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirStorage { dir, current: None })
    }

    fn path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("wal-{index:08}.seg"))
    }
}

impl WalStorage for DirStorage {
    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        self.current = Some(
            fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(self.path(index))?,
        );
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let f = self
            .current
            .as_mut()
            .ok_or_else(|| io::Error::other("no open segment"))?;
        f.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.current.as_mut() {
            Some(f) => f.sync_data(),
            None => Ok(()),
        }
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push(idx);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn read(&self, index: u64) -> io::Result<Vec<u8>> {
        fs::read(self.path(index))
    }

    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(self.path(index))?;
        f.set_len(len as u64)?;
        f.sync_data()
    }
}

#[derive(Debug, Default)]
struct MemInner {
    segments: BTreeMap<u64, Vec<u8>>,
}

/// Shared in-memory storage. Cloning shares the underlying image, so the
/// bytes survive the "death" of the component holding the writing handle —
/// exactly what the crash-injection harness needs to model a machine whose
/// disk outlives its process.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
    current: Option<u64>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total bytes across all segments (diagnostics).
    pub fn total_bytes(&self) -> usize {
        self.lock().segments.values().map(Vec::len).sum()
    }
}

impl WalStorage for MemStorage {
    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        self.lock().segments.insert(index, Vec::new());
        self.current = Some(index);
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let current = self
            .current
            .ok_or_else(|| io::Error::other("no open segment"))?;
        let mut inner = self.lock();
        inner
            .segments
            .get_mut(&current)
            .expect("current segment exists")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(()) // write-through: bytes are "on media" at append
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        Ok(self.lock().segments.keys().copied().collect())
    }

    fn read(&self, index: u64) -> io::Result<Vec<u8>> {
        self.lock()
            .segments
            .get(&index)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))
    }

    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()> {
        let mut inner = self.lock();
        let seg = inner
            .segments
            .get_mut(&index)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))?;
        seg.truncate(len);
        Ok(())
    }
}

/// The appender: frames records, rotates segments, syncs per policy.
#[derive(Debug)]
pub struct Wal<S: WalStorage> {
    storage: S,
    cfg: WalConfig,
    segment: u64,
    segment_len: usize,
    since_sync: u32,
    total_bytes: u64,
    record_ends: Vec<u64>,
    /// Records framed but not yet pushed to `storage` (group commit). The
    /// logical accounting (`segment_len`, `total_bytes`, `record_ends`,
    /// `since_sync`) always includes these bytes; only the physical
    /// `append`/`sync` calls are deferred until [`Wal::commit_group`].
    group_buf: Vec<u8>,
    /// A deferred record crossed a logical sync point ([`FsyncPolicy`]),
    /// so the next flush must end with a physical sync before any of the
    /// group's acks may be released.
    sync_due: bool,
}

impl<S: WalStorage> Wal<S> {
    /// A fresh log writing its first segment at `first_segment`.
    fn start(mut storage: S, cfg: WalConfig, first_segment: u64) -> Result<Self, WalError> {
        assert!(
            cfg.segment_max_bytes > SEGMENT_HEADER_LEN,
            "segment size smaller than its header"
        );
        storage.open_segment(first_segment)?;
        storage.append(&segment_header())?;
        Ok(Wal {
            storage,
            cfg,
            segment: first_segment,
            segment_len: SEGMENT_HEADER_LEN,
            since_sync: 0,
            total_bytes: SEGMENT_HEADER_LEN as u64,
            record_ends: Vec::new(),
            group_buf: Vec::new(),
            sync_due: false,
        })
    }

    /// A fresh log on empty storage, starting at segment 0.
    pub fn create(storage: S, cfg: WalConfig) -> Result<Self, WalError> {
        Self::start(storage, cfg, 0)
    }

    /// Frames one record into the group buffer, rotating first if the
    /// current segment is full, without touching storage (except at
    /// rotation — see below). Returns `true` when the record lands on a
    /// *logical* sync point per [`FsyncPolicy`] — it and everything before
    /// it are due on stable storage — but the covering physical sync is
    /// deferred to the next [`Wal::commit_group`], so the caller must not
    /// release the ack until that commit returns.
    ///
    /// Rotation is a flush boundary: the buffered prefix is pushed and
    /// synced before the next segment opens, in exactly the byte order a
    /// writer that flushes after every record produces. Identity of the
    /// physical byte stream is what makes crash recovery independent of
    /// commit grouping (`tests/crash_recovery.rs` sweeps both modes over
    /// the same plans).
    pub fn append_deferred(&mut self, sb: &SeqBatch) -> Result<bool, WalError> {
        let frame_start = self.group_buf.len();
        let frame_len = frame_record_into(sb, &mut self.group_buf);
        if self.segment_len + frame_len > self.cfg.segment_max_bytes
            && self.segment_len > SEGMENT_HEADER_LEN
        {
            // Close out the full segment: everything buffered before this
            // record belongs to it and must be durable before the writer
            // moves on. The just-framed record stays buffered and flushes
            // into the new segment.
            if frame_start > 0 {
                self.storage.append(&self.group_buf[..frame_start])?;
            }
            self.storage.sync()?;
            self.sync_due = false;
            uburst_obs::counter_add!("uburst_wal_fsyncs_total", 1);
            uburst_obs::counter_add!("uburst_wal_rotations_total", 1);
            self.segment += 1;
            self.storage.open_segment(self.segment)?;
            self.storage.append(&segment_header())?;
            self.segment_len = SEGMENT_HEADER_LEN;
            self.total_bytes += SEGMENT_HEADER_LEN as u64;
            self.since_sync = 0;
            self.group_buf.copy_within(frame_start.., 0);
            self.group_buf.truncate(frame_len);
        }
        self.segment_len += frame_len;
        self.total_bytes += frame_len as u64;
        self.record_ends.push(self.total_bytes);
        if uburst_obs::enabled() {
            uburst_obs::counter_add!("uburst_wal_appends_total", 1);
            uburst_obs::counter_add!("uburst_wal_bytes_total", frame_len as u64);
            // The span's duration is the simulated-time extent the batch
            // covers — the WAL itself runs on the wall clock, which must
            // never leak into deterministic telemetry.
            let ts = &sb.batch.samples.ts;
            let covered = ts.first().zip(ts.last()).map_or(0, |(&f, &l)| l - f);
            uburst_obs::span_record!("wal/append", covered);
        }
        let synced = match self.cfg.fsync {
            FsyncPolicy::Always => {
                self.sync_due = true;
                true
            }
            FsyncPolicy::EveryN(n) => {
                self.since_sync += 1;
                if self.since_sync >= n.max(1) {
                    self.sync_due = true;
                    self.since_sync = 0;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Never => false,
        };
        Ok(synced)
    }

    /// Pushes buffered record bytes to storage without syncing.
    fn flush_bytes(&mut self) -> Result<(), WalError> {
        if !self.group_buf.is_empty() {
            self.storage.append(&self.group_buf)?;
            self.group_buf.clear();
        }
        Ok(())
    }

    /// Flushes the group buffer; physically syncs only if a deferred
    /// record crossed a logical sync point since the last physical sync.
    fn flush_group(&mut self) -> Result<(), WalError> {
        self.flush_bytes()?;
        if self.sync_due {
            self.storage.sync()?;
            uburst_obs::counter_add!("uburst_wal_fsyncs_total", 1);
            self.sync_due = false;
        }
        Ok(())
    }

    /// Commits a group of deferred appends: one physical write for all
    /// buffered frames and at most one physical sync, after which every
    /// `true` returned by the group's [`Wal::append_deferred`] calls is a
    /// durability promise and the corresponding acks may be released.
    pub fn commit_group(&mut self) -> Result<(), WalError> {
        uburst_obs::counter_add!("uburst_wal_group_commits_total", 1);
        self.flush_group()
    }

    /// Forces everything appended so far to stable storage (deferred
    /// records are pushed first).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.flush_bytes()?;
        self.storage.sync()?;
        uburst_obs::counter_add!("uburst_wal_fsyncs_total", 1);
        self.since_sync = 0;
        self.sync_due = false;
        Ok(())
    }

    /// Total bytes this writer has pushed through the storage (headers
    /// included) — the coordinate system of byte-granular crash plans.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Global byte offset at which each appended record ended, in append
    /// order. A crash plan sweeps these boundaries (and the bytes between
    /// them) to cover whole-record and mid-record tears.
    pub fn record_ends(&self) -> &[u64] {
        &self.record_ends
    }

    /// The storage backend (for inspection in tests/harnesses).
    pub fn storage(&self) -> &S {
        &self.storage
    }
}

/// What recovery found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Clean records replayed into the store.
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
    /// the original session too; replay is faithful to that).
    pub quarantined: u64,
    /// Forward sequence jumps adopted during replay. A regional WAL that
    /// took over a stream mid-flight ([`DurableStore::adopt_source`])
    /// legitimately begins a source at a nonzero sequence (and may jump
    /// again if the stream left and came back); recovery re-derives each
    /// adoption point from the log itself — the first record of a run is
    /// the handoff base. Always 0 for a WAL that owned its streams from
    /// sequence 0.
    pub adoptions: u64,
}

/// One source's cumulative counts at a [`DurableStore`].
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
    sources: BTreeMap<SourceId, SourceAcks>,
    /// Sources with `dirty` set, in the order they were dirtied.
    dirty: Vec<SourceId>,
}

impl AckBook {
    /// The highest ack `source` may be sent right now.
    fn synced(&self, source: SourceId) -> u64 {
        self.sources.get(&source).map_or(0, |s| s.synced)
    }

    /// `source`'s entry, put on the dirty list.
    fn dirty_entry(&mut self, source: SourceId) -> &mut SourceAcks {
        let s = self.sources.entry(source).or_default();
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
                .get_mut(&source)
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

/// The durable receiver: WAL-backed [`SampleStore`] with sequence-number
/// dedup and ack issuance tied to durability.
pub struct DurableStore<S: WalStorage> {
    wal: Wal<S>,
    store: Arc<SampleStore>,
    acks: AckBook,
}

impl<S: WalStorage> DurableStore<S> {
    /// A fresh durable store over empty storage.
    pub fn create(storage: S, cfg: WalConfig) -> Result<Self, WalError> {
        Ok(DurableStore {
            wal: Wal::create(storage, cfg)?,
            store: Arc::new(SampleStore::new()),
            acks: AckBook::default(),
        })
    }

    /// Rebuilds a durable store from whatever a crash left behind: scans
    /// every segment, truncates torn tails, replays clean records into a
    /// fresh store (dedup and quarantine re-applied), and resumes logging
    /// in a new segment after the highest surviving one.
    pub fn recover(storage: S, cfg: WalConfig) -> Result<(Self, RecoveryReport), WalError> {
        Self::recover_replay(storage, cfg, &mut |_| {})
    }

    /// [`DurableStore::recover`] with a per-record sink: `on_record` sees
    /// every clean record in log order before it is replayed into the
    /// fresh store. The failover path uses this to feed a crashed regional
    /// aggregator's durable prefix into the *global* tier in the same pass
    /// that rebuilds the regional store.
    pub fn recover_replay(
        mut storage: S,
        cfg: WalConfig,
        on_record: &mut dyn FnMut(&SeqBatch),
    ) -> Result<(Self, RecoveryReport), WalError> {
        let mut report = RecoveryReport::default();
        let store = Arc::new(SampleStore::new());
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
                if sb.seq > store.contiguous(source) {
                    store.adopt_prefix(source, sb.seq);
                    report.adoptions += 1;
                }
                match store.ingest_seq(&sb) {
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
        let ledger = store.ledger();
        for source in ledger.sources() {
            let cum = ledger.contiguous(source);
            acks.sources.insert(
                source,
                SourceAcks {
                    live: cum,
                    synced: cum,
                    ..SourceAcks::default()
                },
            );
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
        Ok((DurableStore { wal, store, acks }, report))
    }

    /// Ingests one sequenced batch — the go-back-N receiver. Exactly one
    /// of three things happens:
    ///
    /// * `seq` below the contiguous prefix: a redelivery. Deduplicated and
    ///   re-acked (the original ack may have been lost); never re-logged.
    /// * `seq` ahead of the prefix: an out-of-order arrival (link
    ///   reordering or a drop in front of it). **Discarded** — only the
    ///   batch's watermark is taken, for gap accounting. The shipper's
    ///   go-back-N retransmit re-delivers it in order. Logging only
    ///   in-sequence records is what makes crash recovery *exactly* the
    ///   acknowledged prefix rather than an arbitrary received subset.
    /// * `seq` equal to the prefix: accepted — WAL append, then merge into
    ///   the store. The returned ack reflects only what is durably synced;
    ///   under [`FsyncPolicy::Always`] that is everything through this
    ///   batch.
    ///
    /// This is [`DurableStore::ingest_group`]'s per-batch body followed by
    /// one flush. An error means the write failed partway (a crash): the
    /// ack must not be released, and **this `DurableStore` must not be used
    /// again** — the in-memory store and ack floor already hold the batch
    /// whose write failed, so a later redelivery would be acked past the
    /// durable prefix. Drop it and rebuild from the log with
    /// [`DurableStore::recover`], as a restarted process would.
    pub fn ingest(&mut self, sb: &SeqBatch) -> Result<(SeqIngest, AckMsg), WalError> {
        let res = self.ingest_one(sb)?;
        self.wal.flush_group()?;
        Ok(res)
    }

    /// Ingests a whole delivery window with **one** physical write and at
    /// most one physical sync ([`Wal::commit_group`]), pushing one
    /// `(outcome, ack)` pair per batch onto `out` (cleared first, in window
    /// order).
    ///
    /// Classification, the gap ledger, and every ack **value** are
    /// bit-identical to calling [`DurableStore::ingest`] per batch: the
    /// logical sync cadence ([`FsyncPolicy`]) is tracked per record, only
    /// the physical write/sync is coalesced — and it completes before this
    /// method returns, so releasing the acks afterwards preserves
    /// durability-before-ack. On `Err` (a crash mid-group) no ack from the
    /// window may be released and the `DurableStore` is dead, as for
    /// [`DurableStore::ingest`]; the log is the source of truth on restart
    /// and the shipper's retransmit re-delivers whatever didn't survive.
    pub fn ingest_group(
        &mut self,
        window: &[SeqBatch],
        out: &mut Vec<(SeqIngest, AckMsg)>,
    ) -> Result<(), WalError> {
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
    fn ingest_one(&mut self, sb: &SeqBatch) -> Result<(SeqIngest, AckMsg), WalError> {
        let source = sb.batch.source;
        let cum = self.store.contiguous(source);
        if sb.seq != cum {
            self.store.note_watermark(source, sb.watermark);
            let outcome = if sb.seq < cum {
                self.store.count_duplicate(source, sb.seq);
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
        // The record is on the log: merge (or quarantine — replay will
        // faithfully re-quarantine) and advance the ledger.
        let _ = self.store.ingest_seq(sb);
        let live = self.store.contiguous(source);
        let cum = self.acks.advance(source, live, synced);
        Ok((SeqIngest::Stored, AckMsg { source, cum }))
    }

    /// Forces a sync and returns the acks it released (one per source
    /// whose durable cumulative count advanced, in source order).
    pub fn flush(&mut self) -> Result<Vec<AckMsg>, WalError> {
        self.wal.sync()?;
        Ok(self.acks.flush())
    }

    /// Records a reconnecting source's transmit watermark (`next_seq`), so
    /// the gap ledger can account batches assigned before the crash that
    /// never reached the log.
    pub fn note_stream_state(&self, source: SourceId, next_seq: u64) {
        self.store.note_watermark(source, next_seq);
    }

    /// Takes over `source` mid-flight at sequence `upto` — the regional
    /// handoff half of go-back-N resync. The store's ledger adopts the
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
        self.store.adopt_prefix(source, upto);
        let cum = self.store.contiguous(source);
        let s = self.acks.dirty_entry(source);
        s.live = s.live.max(cum);
        // Exactly the adopted prefix is the previous receiver's durability
        // promise and may be acked now; our own stored-but-unsynced tail
        // (if contiguous runs past `upto`) still waits for its sync.
        s.synced = s.synced.max(upto);
    }

    /// The underlying store (shared; series grow as batches are ingested).
    pub fn store(&self) -> Arc<SampleStore> {
        Arc::clone(&self.store)
    }

    /// The write-ahead log (for byte accounting in crash plans).
    pub fn wal(&self) -> &Wal<S> {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::series::Series;
    use crate::ship::SeqBatch;
    use uburst_asic::CounterId;
    use uburst_sim::node::PortId;
    use uburst_sim::time::Nanos;

    fn sb(seq: u64, source: u32, base_t: u64) -> SeqBatch {
        let mut s = Series::new();
        for i in 0..4u64 {
            s.push(Nanos(base_t + i), base_t + i);
        }
        SeqBatch {
            seq,
            watermark: seq + 1,
            batch: Batch {
                source: SourceId(source),
                campaign: "wal".into(),
                counter: CounterId::TxBytes(PortId(0)),
                samples: s,
            },
        }
    }

    #[test]
    fn append_recover_round_trips() {
        let storage = MemStorage::new();
        let mut ds = DurableStore::create(storage.clone(), WalConfig::default()).unwrap();
        for i in 0..10 {
            let (outcome, ack) = ds.ingest(&sb(i, 0, 100 * (i + 1))).unwrap();
            assert_eq!(outcome, SeqIngest::Stored);
            assert_eq!(ack.cum, i + 1, "Always policy acks immediately");
        }
        let mut before = Vec::new();
        ds.store().export_csv(&mut before).unwrap();
        drop(ds); // "crash" (nothing torn)

        let (rec, report) = DurableStore::recover(storage, WalConfig::default()).unwrap();
        assert_eq!(report.records, 10);
        assert_eq!(report.torn_tails, 0);
        assert_eq!(report.duplicates, 0);
        let mut after = Vec::new();
        rec.store().export_csv(&mut after).unwrap();
        assert_eq!(before, after, "recovered store is byte-identical");
        assert_eq!(rec.store().contiguous(SourceId(0)), 10);
    }

    #[test]
    fn segments_rotate_and_all_replay() {
        let storage = MemStorage::new();
        let cfg = WalConfig {
            segment_max_bytes: 256, // a few records per segment
            fsync: FsyncPolicy::Always,
        };
        let mut ds = DurableStore::create(storage.clone(), cfg).unwrap();
        for i in 0..50 {
            ds.ingest(&sb(i, 0, 100 * (i + 1))).unwrap();
        }
        let segments = storage.list().unwrap();
        assert!(
            segments.len() > 3,
            "only {} segments at 256-byte rotation",
            segments.len()
        );
        let (rec, report) = DurableStore::recover(storage, cfg).unwrap();
        assert_eq!(report.records, 50);
        assert_eq!(report.segments as usize, segments.len());
        assert_eq!(rec.store().total_samples(), 50 * 4);
    }

    #[test]
    fn duplicate_is_reacked_not_relogged() {
        let storage = MemStorage::new();
        let mut ds = DurableStore::create(storage.clone(), WalConfig::default()).unwrap();
        ds.ingest(&sb(0, 0, 100)).unwrap();
        let bytes_once = ds.wal().total_bytes();
        let (outcome, ack) = ds.ingest(&sb(0, 0, 100)).unwrap();
        assert_eq!(outcome, SeqIngest::Duplicate);
        assert_eq!(ack.cum, 1, "duplicate still re-acks current progress");
        assert_eq!(ds.wal().total_bytes(), bytes_once, "no second log record");
        assert_eq!(ds.store().stats().duplicate_batches, 1);
        // And the log replays without duplicates.
        let (_, report) = DurableStore::recover(storage, WalConfig::default()).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.duplicates, 0);
    }

    #[test]
    fn every_n_policy_withholds_acks_until_sync() {
        let storage = MemStorage::new();
        let cfg = WalConfig {
            segment_max_bytes: 1 << 20,
            fsync: FsyncPolicy::EveryN(3),
        };
        let mut ds = DurableStore::create(storage, cfg).unwrap();
        let (_, a0) = ds.ingest(&sb(0, 0, 100)).unwrap();
        let (_, a1) = ds.ingest(&sb(1, 0, 200)).unwrap();
        assert_eq!(a0.cum, 0, "unsynced: ack withheld");
        assert_eq!(a1.cum, 0);
        let (_, a2) = ds.ingest(&sb(2, 0, 300)).unwrap();
        assert_eq!(a2.cum, 3, "third record triggers the covering sync");
        let (_, a3) = ds.ingest(&sb(3, 0, 400)).unwrap();
        assert_eq!(a3.cum, 3);
        let released = ds.flush().unwrap();
        assert_eq!(
            released,
            vec![AckMsg {
                source: SourceId(0),
                cum: 4
            }]
        );
        assert!(ds.flush().unwrap().is_empty(), "nothing new to release");
    }

    #[test]
    fn recovery_truncates_torn_tail_in_place() {
        let storage = MemStorage::new();
        let mut ds = DurableStore::create(storage.clone(), WalConfig::default()).unwrap();
        for i in 0..5 {
            ds.ingest(&sb(i, 0, 100 * (i + 1))).unwrap();
        }
        drop(ds);
        // Tear the last record by hand: chop 7 bytes off the segment.
        let seg_bytes = storage.read(0).unwrap();
        let mut mangled = storage.clone();
        mangled.truncate(0, seg_bytes.len() - 7).unwrap();

        let (rec, report) = DurableStore::recover(storage.clone(), WalConfig::default()).unwrap();
        assert_eq!(report.records, 4, "torn record lost, clean prefix kept");
        assert_eq!(report.torn_tails, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(rec.store().contiguous(SourceId(0)), 4);
        // The tail is physically gone: a second recovery sees a clean log
        // (plus the empty segment the first recovery opened).
        drop(rec);
        let (_, second) = DurableStore::recover(storage, WalConfig::default()).unwrap();
        assert_eq!(second.torn_tails, 0);
        assert_eq!(second.records, 4);
    }

    #[test]
    fn failed_ingest_kills_the_store_and_recovery_acks_only_the_durable_prefix() {
        use crate::failpoint::TornStorage;
        let disk = MemStorage::new();
        let mut probe = DurableStore::create(MemStorage::new(), WalConfig::default()).unwrap();
        probe.ingest(&sb(0, 0, 100)).unwrap();
        probe.ingest(&sb(1, 0, 200)).unwrap();
        // Die a few bytes into the second record.
        let budget = probe.wal().record_ends()[0] + 5;
        let mut ds =
            DurableStore::create(TornStorage::new(disk.clone(), budget), WalConfig::default())
                .unwrap();
        assert_eq!(ds.ingest(&sb(0, 0, 100)).unwrap().1.cum, 1);
        assert!(ds.ingest(&sb(1, 0, 200)).is_err(), "the write was torn");
        // The contract: `ds` is dead from here on. Its memory ran ahead of
        // the log, which is why it may not answer the redelivery.
        assert_eq!(ds.store().contiguous(SourceId(0)), 2);
        drop(ds);

        let (mut rec, report) = DurableStore::recover(disk, WalConfig::default()).unwrap();
        assert_eq!((report.records, report.torn_tails), (1, 1));
        let (outcome, ack) = rec.ingest(&sb(0, 0, 100)).unwrap();
        assert_eq!(outcome, SeqIngest::Duplicate);
        assert_eq!(ack.cum, 1, "redelivery is acked at the durable prefix");
        let (outcome, ack) = rec.ingest(&sb(1, 0, 200)).unwrap();
        assert_eq!((outcome, ack.cum), (SeqIngest::Stored, 2));
    }

    #[test]
    fn recovery_of_empty_storage_is_empty() {
        let (ds, report) = DurableStore::recover(MemStorage::new(), WalConfig::default()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(ds.store().total_samples(), 0);
    }

    #[test]
    fn dir_storage_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "uburst-wal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let storage = DirStorage::open(&dir).unwrap();
            let cfg = WalConfig {
                segment_max_bytes: 512,
                fsync: FsyncPolicy::Always,
            };
            let mut ds = DurableStore::create(storage, cfg).unwrap();
            for i in 0..20 {
                ds.ingest(&sb(i, 3, 50 * (i + 1))).unwrap();
            }
        } // writer gone; files remain
        let storage = DirStorage::open(&dir).unwrap();
        assert!(storage.list().unwrap().len() > 1, "rotation happened");
        let (rec, report) = DurableStore::recover(
            storage,
            WalConfig {
                segment_max_bytes: 512,
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        assert_eq!(report.records, 20);
        assert_eq!(report.torn_tails, 0);
        assert_eq!(rec.store().contiguous(SourceId(3)), 20);
        drop(rec);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The load-bearing identity behind group commit: for any window
    /// partition, `ingest_group` produces the same physical byte stream,
    /// the same record-end coordinates, the same outcomes, and the same
    /// ack values as per-record `ingest` — under every fsync policy and
    /// across segment rotations.
    #[test]
    fn group_ingest_matches_per_record_ingest_bytes_and_acks() {
        let policies = [
            WalConfig {
                segment_max_bytes: 256,
                fsync: FsyncPolicy::Always,
            },
            WalConfig {
                segment_max_bytes: 256,
                fsync: FsyncPolicy::EveryN(3),
            },
            WalConfig {
                segment_max_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(16),
            },
            WalConfig {
                segment_max_bytes: 256,
                fsync: FsyncPolicy::Never,
            },
        ];
        for cfg in policies {
            let per_storage = MemStorage::new();
            let grp_storage = MemStorage::new();
            let mut per = DurableStore::create(per_storage.clone(), cfg).unwrap();
            let mut grp = DurableStore::create(grp_storage.clone(), cfg).unwrap();

            // Three interleaved sources with per-source sequence numbers,
            // plus a redelivery (dup) and an out-of-order arrival mixed in.
            let mut batches: Vec<SeqBatch> = (0..42u64)
                .map(|i| sb(i / 3, (i % 3) as u32, 100 * (i + 1)))
                .collect();
            batches.push(sb(2, 0, 300)); // duplicate redelivery
            batches.push(sb(99, 1, 12_345)); // reordered: ahead of prefix

            let per_acks: Vec<_> = batches.iter().map(|b| per.ingest(b).unwrap()).collect();

            // Varying window sizes so group boundaries land everywhere
            // relative to sync points and rotations.
            let mut grp_acks = Vec::new();
            let mut buf = Vec::new();
            let sizes = [1usize, 3, 2, 5, 4, 7];
            let mut i = 0;
            let mut w = 0;
            while i < batches.len() {
                let end = (i + sizes[w % sizes.len()]).min(batches.len());
                grp.ingest_group(&batches[i..end], &mut buf).unwrap();
                grp_acks.append(&mut buf);
                i = end;
                w += 1;
            }

            assert_eq!(per_acks, grp_acks, "outcomes+acks identical ({cfg:?})");
            assert_eq!(per.wal().total_bytes(), grp.wal().total_bytes());
            assert_eq!(per.wal().record_ends(), grp.wal().record_ends());
            let per_segs = per_storage.list().unwrap();
            assert_eq!(
                per_segs,
                grp_storage.list().unwrap(),
                "same rotation points"
            );
            for idx in per_segs {
                assert_eq!(
                    per_storage.read(idx).unwrap(),
                    grp_storage.read(idx).unwrap(),
                    "segment {idx} bytes identical ({cfg:?})"
                );
            }
            // And flush releases the same residual acks on both sides.
            assert_eq!(per.flush().unwrap(), grp.flush().unwrap());
        }
    }

    /// The receiver's ack rules over two plain maps, the whole live map
    /// cloned at every sync — what [`AckBook`]'s dirty list replaced, kept
    /// as the reference it must agree with. It shares nothing with the
    /// store: a go-back-N receiver's contiguous prefix is one counter per
    /// source, and the sync cadence is a count of stored records (the
    /// test's segments never rotate).
    struct CloneModel {
        fsync: FsyncPolicy,
        since_sync: u32,
        contiguous: BTreeMap<SourceId, u64>,
        live: BTreeMap<SourceId, u64>,
        synced: BTreeMap<SourceId, u64>,
    }

    impl CloneModel {
        fn new(fsync: FsyncPolicy) -> Self {
            CloneModel {
                fsync,
                since_sync: 0,
                contiguous: BTreeMap::new(),
                live: BTreeMap::new(),
                synced: BTreeMap::new(),
            }
        }

        fn ack(&self, source: SourceId) -> AckMsg {
            AckMsg {
                source,
                cum: self.synced.get(&source).copied().unwrap_or(0),
            }
        }

        fn ingest(&mut self, source: SourceId, seq: u64) -> (SeqIngest, AckMsg) {
            let cum = self.contiguous.entry(source).or_insert(0);
            if seq < *cum {
                return (SeqIngest::Duplicate, self.ack(source));
            }
            if seq > *cum {
                return (SeqIngest::Reordered, self.ack(source));
            }
            *cum += 1;
            self.live.insert(source, *cum);
            let synced = match self.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::EveryN(n) => {
                    self.since_sync += 1;
                    let due = self.since_sync >= n.max(1);
                    if due {
                        self.since_sync = 0;
                    }
                    due
                }
                FsyncPolicy::Never => false,
            };
            if synced {
                self.synced = self.live.clone();
            }
            (SeqIngest::Stored, self.ack(source))
        }

        fn adopt(&mut self, source: SourceId, upto: u64) {
            let cum = self.contiguous.entry(source).or_insert(0);
            *cum = (*cum).max(upto);
            let live = self.live.entry(source).or_insert(0);
            *live = (*live).max(*cum);
            let synced = self.synced.entry(source).or_insert(0);
            *synced = (*synced).max(upto);
        }

        fn flush(&mut self) -> Vec<AckMsg> {
            self.since_sync = 0;
            let mut out = Vec::new();
            for (&source, &cum) in &self.live {
                if self.synced.get(&source).copied().unwrap_or(0) < cum {
                    out.push(AckMsg { source, cum });
                }
            }
            self.synced = self.live.clone();
            out
        }
    }

    #[test]
    fn acks_match_the_full_map_clone_model() {
        use uburst_sim::rng::Rng;
        let policies = [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(1),
            FsyncPolicy::EveryN(3),
            FsyncPolicy::EveryN(16),
            FsyncPolicy::Never,
        ];
        const SOURCES: u64 = 7;
        for fsync in policies {
            for seed in 0..8u64 {
                let cfg = WalConfig {
                    segment_max_bytes: 1 << 30,
                    fsync,
                };
                let mut ds = DurableStore::create(MemStorage::new(), cfg).unwrap();
                let mut model = CloneModel::new(fsync);
                let mut rng = Rng::new(seed ^ 0xACC5);
                let mut out = Vec::new();
                let (mut flushes, mut released) = (0, 0);
                for step in 0..1_500 {
                    let at = format!("{fsync:?} seed {seed} step {step}");
                    match rng.below(20) {
                        // A delivery window: mostly the next in-sequence
                        // batch of a random source, some redeliveries and
                        // some arrivals from ahead of the prefix.
                        0..=15 => {
                            let mut window = Vec::new();
                            let mut expect = Vec::new();
                            for _ in 0..=rng.below(5) {
                                let source = SourceId(rng.below(SOURCES) as u32);
                                let next = model.contiguous.get(&source).copied().unwrap_or(0);
                                let seq = match rng.below(10) {
                                    0 => rng.below(next + 1),
                                    1 => next + 1 + rng.below(3),
                                    _ => next,
                                };
                                window.push(sb(seq, source.0, 10 * (seq + 1)));
                                expect.push(model.ingest(source, seq));
                            }
                            ds.ingest_group(&window, &mut out).unwrap();
                            assert_eq!(out, expect, "{at}");
                        }
                        // A stream handed over: at, behind or ahead of
                        // what this store holds, known source or new.
                        16 | 17 => {
                            let source = SourceId(rng.below(SOURCES + 2) as u32);
                            let next = model.contiguous.get(&source).copied().unwrap_or(0);
                            let upto = (next + rng.below(6)).saturating_sub(2);
                            ds.adopt_source(source, upto);
                            model.adopt(source, upto);
                        }
                        _ => {
                            let acks = ds.flush().unwrap();
                            assert_eq!(acks, model.flush(), "{at}");
                            flushes += 1;
                            released += acks.len();
                        }
                    }
                }
                assert_eq!(ds.flush().unwrap(), model.flush());
                assert!(ds.flush().unwrap().is_empty(), "nothing left to release");
                for s in 0..SOURCES as u32 + 2 {
                    let source = SourceId(s);
                    assert_eq!(
                        ds.store().contiguous(source),
                        model.contiguous.get(&source).copied().unwrap_or(0)
                    );
                }
                assert!(flushes > 20, "{fsync:?}: only {flushes} flushes");
                if fsync != FsyncPolicy::Always && fsync != FsyncPolicy::EveryN(1) {
                    assert!(released > 20, "{fsync:?}: flushes released {released}");
                }
            }
        }
    }

    /// Counts the physical storage calls a [`Wal`] makes — the coalescing
    /// claim itself, measured without the process-global telemetry.
    #[derive(Clone)]
    struct CountingStorage {
        inner: MemStorage,
        appends: Arc<Mutex<u64>>,
        syncs: Arc<Mutex<u64>>,
    }

    impl CountingStorage {
        fn new() -> Self {
            CountingStorage {
                inner: MemStorage::new(),
                appends: Arc::new(Mutex::new(0)),
                syncs: Arc::new(Mutex::new(0)),
            }
        }
        fn counts(&self) -> (u64, u64) {
            (*self.appends.lock().unwrap(), *self.syncs.lock().unwrap())
        }
    }

    impl WalStorage for CountingStorage {
        fn open_segment(&mut self, index: u64) -> io::Result<()> {
            self.inner.open_segment(index)
        }
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            *self.appends.lock().unwrap() += 1;
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            *self.syncs.lock().unwrap() += 1;
            self.inner.sync()
        }
        fn list(&self) -> io::Result<Vec<u64>> {
            self.inner.list()
        }
        fn read(&self, index: u64) -> io::Result<Vec<u8>> {
            self.inner.read(index)
        }
        fn truncate(&mut self, index: u64, len: usize) -> io::Result<()> {
            self.inner.truncate(index, len)
        }
    }

    #[test]
    fn commit_group_coalesces_physical_writes_and_syncs() {
        // Under Always, per-record ingest physically syncs per record;
        // group ingest must reach the same durable, fully-acked state with
        // one physical write and one physical sync per window.
        let storage = CountingStorage::new();
        let mut ds = DurableStore::create(
            storage.clone(),
            WalConfig {
                segment_max_bytes: 1 << 20,
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
        let (create_appends, create_syncs) = storage.counts();
        let window: Vec<SeqBatch> = (0..8).map(|i| sb(i, 0, 100 * (i + 1))).collect();
        let mut out = Vec::new();
        ds.ingest_group(&window, &mut out).unwrap();
        let (appends, syncs) = storage.counts();
        assert_eq!(appends - create_appends, 1, "one physical write per window");
        assert_eq!(syncs - create_syncs, 1, "one physical sync per window");
        // Every ack is still a durability promise: all released at cum.
        for (k, (outcome, ack)) in out.iter().enumerate() {
            assert_eq!(*outcome, SeqIngest::Stored);
            assert_eq!(ack.cum, k as u64 + 1, "Always acks each record");
        }
    }

    #[test]
    fn quarantined_batches_replay_as_quarantined() {
        let storage = MemStorage::new();
        let mut ds = DurableStore::create(storage.clone(), WalConfig::default()).unwrap();
        ds.ingest(&sb(0, 0, 100)).unwrap();
        // Seq 1 carries timestamps duplicating seq 0's: quarantined, but
        // logged and acked (it was delivered; retransmitting it forever
        // would not make it well-formed).
        let (outcome, ack) = ds.ingest(&sb(1, 0, 100)).unwrap();
        assert_eq!(outcome, SeqIngest::Stored);
        assert_eq!(ack.cum, 2);
        assert_eq!(ds.store().stats().quarantined_batches, 1);
        let (rec, report) = DurableStore::recover(storage, WalConfig::default()).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.quarantined, 1, "replay re-quarantines faithfully");
        assert_eq!(rec.store().stats().quarantined_batches, 1);
        assert_eq!(rec.store().total_samples(), 4);
    }

    #[test]
    fn adopted_stream_acks_from_handoff_point() {
        let storage = MemStorage::new();
        let mut ds = DurableStore::create(storage.clone(), WalConfig::default()).unwrap();
        // Take over source 0 at sequence 7 (the shipper's acked prefix at
        // handoff): the first in-sequence delivery is 7, acked as 8.
        ds.adopt_source(SourceId(0), 7);
        assert_eq!(ds.store().contiguous(SourceId(0)), 7);
        let (outcome, ack) = ds.ingest(&sb(7, 0, 100)).unwrap();
        assert_eq!(outcome, SeqIngest::Stored);
        assert_eq!(ack.cum, 8);
        // A straggling redelivery from inside the adopted range is
        // re-acked without being logged.
        let bytes = ds.wal().total_bytes();
        let (outcome, ack) = ds.ingest(&sb(3, 0, 50)).unwrap();
        assert_eq!(outcome, SeqIngest::Duplicate);
        assert_eq!(ack.cum, 8);
        assert_eq!(ds.wal().total_bytes(), bytes, "duplicate not re-logged");
        // Re-adopting at or below current progress is a no-op.
        ds.adopt_source(SourceId(0), 5);
        assert_eq!(ds.store().contiguous(SourceId(0)), 8);

        // Recovery re-derives the adoption point from the log: the one
        // record (seq 7) replays after adopting [0,7).
        drop(ds);
        let (rec, report) = DurableStore::recover(storage, WalConfig::default()).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.adoptions, 1);
        assert_eq!(report.duplicates, 0, "the jump is adoption, not a bug");
        assert_eq!(rec.store().contiguous(SourceId(0)), 8);
    }

    #[test]
    fn adoption_does_not_promote_unsynced_tail_to_acked() {
        let cfg = WalConfig {
            segment_max_bytes: 1 << 20,
            fsync: FsyncPolicy::EveryN(10),
        };
        let mut ds = DurableStore::create(MemStorage::new(), cfg).unwrap();
        let (_, a0) = ds.ingest(&sb(0, 0, 100)).unwrap();
        let (_, a1) = ds.ingest(&sb(1, 0, 200)).unwrap();
        assert_eq!((a0.cum, a1.cum), (0, 0), "unsynced: acks withheld");
        // A re-adoption at the shipper's acked prefix (0 — nothing acked
        // yet) must not leak the stored-but-unsynced records into acks.
        ds.adopt_source(SourceId(0), 0);
        let (_, ack) = ds.ingest(&sb(5, 0, 900)).unwrap(); // reordered probe
        assert_eq!(ack.cum, 0, "own unsynced tail still gated");
        let released = ds.flush().unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].cum, 2, "sync releases the tail as usual");
    }

    #[test]
    fn recover_replay_surfaces_every_clean_record_in_order() {
        let storage = MemStorage::new();
        let cfg = WalConfig {
            segment_max_bytes: 256, // force rotation mid-stream
            fsync: FsyncPolicy::Always,
        };
        let mut ds = DurableStore::create(storage.clone(), cfg).unwrap();
        ds.adopt_source(SourceId(1), 4);
        for i in 0..6u64 {
            ds.ingest(&sb(4 + i, 1, 100 * (i + 1))).unwrap();
        }
        drop(ds);
        let mut seen = Vec::new();
        let (rec, report) = DurableStore::recover_replay(storage, cfg, &mut |sb| {
            seen.push((sb.batch.source, sb.seq));
        })
        .unwrap();
        assert_eq!(report.records, 6);
        assert_eq!(report.adoptions, 1);
        assert_eq!(
            seen,
            (0..6u64).map(|i| (SourceId(1), 4 + i)).collect::<Vec<_>>()
        );
        assert_eq!(rec.store().contiguous(SourceId(1)), 10);
    }
}
