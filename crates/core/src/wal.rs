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
//!   segment in a directory, `fsync` via `File::sync_data`, plus a
//!   directory fsync when a segment is created or removed);
//!   [`MemStorage`] is a shared in-memory image with identical semantics,
//!   used by the deterministic crash-injection harness
//!   ([`crate::failpoint`]) and the durability experiments.
//! * [`Wal`] — the appender: frames records, rotates segments at
//!   [`WalConfig::segment_max_bytes`], and syncs per [`FsyncPolicy`].
//! * [`DurableReceiver`] — WAL + gap ledger glued into the receiver side
//!   of the shipping protocol: dedup **before** append (so the log never
//!   stores a batch twice), append + sync **before** ack (so an issued ack
//!   is a durability promise), and [`DurableReceiver::recover`] to rebuild
//!   the whole thing after a crash. What it holds besides the log is its
//!   [`Keep`]: [`DurableStore`] keeps a [`SampleStore`] (series and
//!   ledger); a regional aggregator keeps the ledger alone.
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
//! Under [`FsyncPolicy::EveryN`] invariant 1 weakens
//! to "recovery yields a clean prefix of the received stream that is a
//! superset of the acknowledged batches" — acks are withheld until the
//! covering sync, but bytes that reached the OS may still survive a crash.
//! Invariants 2 and 3 are unconditional. `tests/crash_recovery.rs` sweeps
//! hundreds of crash offsets asserting all three.
//!
//! A regional aggregator's log is checkpointed
//! ([`DurableReceiver::checkpoint`]) once everything it holds has reached
//! the global store, which deletes its closed segments. Recovery of such a
//! log yields a *suffix* of the write stream, not the whole: each source
//! is re-adopted at its first surviving record, and a source with none is
//! absent until its stream is handed back. Invariant 1 then holds for the
//! log and the global store together — every acked record is in one of
//! them — and `tests/region_failover.rs` sweeps its crash offsets over
//! checkpointed logs.
//!
//! [`SampleStore`]: crate::store::SampleStore

use std::borrow::Borrow;

use crate::batch::Batch;
use crate::errors::WalError;
use crate::segment::{frame_record_into, segment_header, SEGMENT_HEADER_LEN};
use crate::ship::SeqBatch;

mod durable_store;
mod storage;
#[cfg(test)]
mod tests;

pub use durable_store::{DurableReceiver, DurableStore, Keep, RecoveryReport};
pub use storage::{DirStorage, MemStorage, WalStorage};

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
        storage.open_segment_sized(first_segment, cfg.segment_max_bytes)?;
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
    pub fn append_deferred<B: Borrow<Batch>>(
        &mut self,
        sb: &SeqBatch<B>,
    ) -> Result<bool, WalError> {
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
            self.storage
                .open_segment_sized(self.segment, self.cfg.segment_max_bytes)?;
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
            // The simulated-time extent the batch covers — the WAL itself
            // runs on the wall clock, which must never leak into
            // deterministic telemetry.
            let ts = &sb.payload().samples.ts;
            let covered = ts.first().zip(ts.last()).map_or(0, |(&f, &l)| l - f);
            uburst_obs::hist_observe!("uburst_wal_append_extent_ns", covered);
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

    /// Deletes every closed segment — all of them but the open one — and
    /// returns how many went. The caller vouches that every record in
    /// them is held somewhere else: after this the log is a suffix of the
    /// write stream. Byte accounting ([`Wal::total_bytes`],
    /// [`Wal::record_ends`]) still counts the deleted bytes.
    fn checkpoint(&mut self) -> Result<u64, WalError> {
        let mut removed = 0;
        for index in self.storage.list()? {
            if index >= self.segment {
                break;
            }
            self.storage.remove(index)?;
            removed += 1;
        }
        Ok(removed)
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
