//! Regional aggregators: the rendezvous mapping of switches onto them, and
//! one aggregator's life — receive, forward, crash, recover.

use uburst_sim::rng::{mix64, GOLDEN_GAMMA};

use super::FleetConfig;
use crate::batch::SourceId;
use crate::errors::WalError;
use crate::failpoint::TornStorage;
use crate::ship::{AckMsg, GapLedger, Shipment};
use crate::store::{SampleStore, SeqIngest};
use crate::wal::{DurableReceiver, MemStorage, WalConfig};

/// Rendezvous (highest-random-weight) assignment of a switch to a region:
/// every `(switch, region)` pair gets an independent hash weight and the
/// live region with the highest weight wins. `None` when no region is
/// live. The mapping is a pure function of the switch and the live set —
/// independent of thread count, pump order, and the crash history that
/// produced the set — and when a region dies only *its* switches move
/// (everyone else's argmax is unchanged), which is the minimal-disruption
/// property that makes live re-sharding cheap.
pub fn rendezvous_region(source: SourceId, live: &[bool]) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (r, &up) in live.iter().enumerate() {
        if !up {
            continue;
        }
        let w = mix64(
            (source.0 as u64 + 1)
                .wrapping_mul(GOLDEN_GAMMA)
                .wrapping_add((r as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        // Strict > keeps the lowest region index on (never-observed) ties.
        if best.is_none_or(|(bw, _)| w > bw) {
            best = Some((w, r));
        }
    }
    best.map(|(_, r)| r)
}

/// Per-region accounting: forwarding while healthy, plus the crash /
/// recovery / replay story when the aggregator itself fails.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionStats {
    /// Switches homed on this aggregator (rendezvous over all regions).
    pub switches: usize,
    /// Sequenced batches this aggregator pushed to the global store at
    /// its end-of-round durability points (attributed to the serving
    /// region — re-homed traffic counts here; records lost with a crashed
    /// pending buffer do not, they surface as `replayed` instead).
    pub forwarded: u64,
    /// Batches stored here but not yet pushed to the global store. Zero at
    /// every round boundary: a live region forwards at the end of the
    /// round, a crash empties the buffer.
    pub pending: u64,
    /// Straggler deadline violations flagged by this aggregator.
    pub deadline_misses: u64,
    /// Shipper `WindowExhausted` refusals across switches homed here.
    pub refused: u64,
    /// Quarantine rejoins across switches homed here.
    pub rejoins: u64,
    /// Times this aggregator's WAL storage died mid-write (0 or 1 per
    /// run — a region crashes at most once per
    /// [`crate::failpoint::RegionCrashPlan`]).
    pub crashes: u64,
    /// Times its WAL was recovered (downtime elapsed, or the end-of-run
    /// failover sweep). The region is down while `crashes > recoveries`.
    pub recoveries: u64,
    /// Clean records replayed from its WAL at recovery: those in the
    /// segments its last checkpoint left (the then-open one and later).
    pub wal_records_recovered: u64,
    /// Replayed records that were new to the global store (acked by this
    /// region before the crash but never forwarded).
    pub replayed: u64,
    /// Bytes this region's WAL writer has pushed through storage — the
    /// coordinate system for crash-plan offsets (reference runs only: a
    /// recovered region's writer restarts its count; 0 while down).
    /// Checkpoints delete bytes, never this count.
    pub wal_bytes: u64,
    /// Closed WAL segments deleted at this region's checkpoints.
    pub segments_removed: u64,
}

/// One regional aggregator: a WAL and a gap ledger over a disk image that
/// survives the process ([`MemStorage`] semantics), crashable via the
/// [`TornStorage`] byte budget. It holds no series: every sample it logs is
/// merged exactly once, in the global store — from `pending` at
/// [`Region::forward`], or from the log at [`Region::recover`]. Nor does
/// its disk keep what the global store already has: every forward ends in
/// a checkpoint that deletes the log's closed segments, so the disk holds
/// one open segment between rounds (plus, after a crash, the suffix the
/// recovery will replay).
pub(super) struct Region {
    /// The disk: shared image, outlives the writer — what recovery reads.
    pub(super) disk: MemStorage,
    /// The live receiver; `None` while the region is down.
    ds: Option<DurableReceiver<TornStorage<MemStorage>, GapLedger>>,
    /// Records stored this round, awaiting the end-of-round push to the
    /// global tier: the very handles that arrived, which share their
    /// samples with the shippers' windows and become the global store's
    /// chunks. In-memory state: a crash loses it — which is exactly why
    /// recovery must replay the WAL (acked records can exist nowhere but
    /// the dead region's log).
    pending: Vec<Shipment>,
    /// One window's ingest results, reused across windows: no per-tick
    /// allocation once the fleet warms up.
    ingested: Vec<(SeqIngest, AckMsg)>,
    /// Round the region crashed, while down.
    down_since: Option<u32>,
    pub(super) stats: RegionStats,
}

impl Region {
    /// A region whose storage dies after `budget` bytes. A budget below
    /// the first segment header kills it at birth (crash-at-round-0): it
    /// starts down and recovers like any other crash.
    pub(super) fn new(budget: u64, wal: WalConfig) -> Region {
        let mut region = Region {
            disk: MemStorage::new(),
            ds: None,
            pending: Vec::new(),
            ingested: Vec::new(),
            down_since: None,
            stats: RegionStats::default(),
        };
        match DurableReceiver::create(TornStorage::new(region.disk.clone(), budget), wal) {
            Ok(ds) => region.ds = Some(ds),
            Err(e) => region.crash(0, &e),
        }
        region
    }

    /// Whether the aggregator is up (in the rendezvous set).
    pub(super) fn is_live(&self) -> bool {
        self.ds.is_some()
    }

    /// Whether the region is down and has been for `downtime` rounds by
    /// `round` (0: down at all — the end-of-run failover sweep).
    pub(super) fn recovery_due(&self, round: u32, downtime: u32) -> bool {
        self.down_since
            .is_some_and(|since| round - since >= downtime)
    }

    /// The stats so far, with the live WAL's byte count and the pending
    /// buffer's length filled in.
    pub(super) fn stats(&self) -> RegionStats {
        RegionStats {
            pending: self.pending.len() as u64,
            wal_bytes: self.ds.as_ref().map_or(0, |ds| ds.wal().total_bytes()),
            ..self.stats
        }
    }

    /// Global byte offset of every record end in the live WAL (empty while
    /// down).
    pub(super) fn record_ends(&self) -> Vec<u64> {
        self.ds
            .as_ref()
            .map_or_else(Vec::new, |ds| ds.wal().record_ends().to_vec())
    }

    /// Takes over `source` at the shipper's acked prefix
    /// ([`DurableReceiver::adopt_source`]).
    pub(super) fn adopt(&mut self, source: SourceId, upto: u64) {
        self.ds
            .as_mut()
            .expect("rendezvous picks a live region")
            .adopt_source(source, upto);
    }

    /// The receiver half of a lane's transport tick. One delivery window
    /// is one WAL commit window: `ingest_group` coalesces it into a single
    /// physical write (and at most one sync) while issuing per-frame acks
    /// identical to per-record ingest. Stored records queue in `pending`
    /// (the same handles: the samples are framed into the log, not copied
    /// into the queue) and reach the global tier at [`Region::forward`] —
    /// so a mid-round crash leaves records that were acked to switches but
    /// exist nowhere except this region's WAL, and [`Region::recover`] is
    /// what keeps the no-acked-loss promise. A window addressed to a dead
    /// aggregator is lost on the wire; the shipper's RTO re-sends it later.
    pub(super) fn receive(
        &mut self,
        window: Vec<Shipment>,
        acks: &mut Vec<AckMsg>,
    ) -> Result<(), WalError> {
        let Some(ds) = self.ds.as_mut() else {
            return Ok(());
        };
        if window.is_empty() {
            return Ok(());
        }
        ds.ingest_group(&window, &mut self.ingested)?;
        for (sb, (outcome, ack)) in window.into_iter().zip(self.ingested.drain(..)) {
            // Duplicates are already durable (here or in a previous
            // region's WAL); reordered frames get redelivered in sequence.
            if outcome == SeqIngest::Stored {
                self.pending.push(sb);
            }
            acks.push(ack);
        }
        Ok(())
    }

    /// The byte-granular crash: the fatal write applied a prefix and the
    /// region died in `round`. The un-pushed pending buffer dies with the
    /// process; the disk image stays.
    pub(super) fn crash(&mut self, round: u32, cause: &WalError) {
        assert!(cause.is_injected_crash(), "regional WAL failed: {cause}");
        self.ds = None;
        self.pending.clear();
        self.down_since = Some(round);
        self.stats.crashes += 1;
        uburst_obs::counter_add!("uburst_fleet_region_crashes_total", 1);
    }

    /// End-of-round durability point of a live region: the WAL syncs, the
    /// round's stored records are pushed upstream to the global tier, and
    /// the log is checkpointed. Every record it holds has now reached the
    /// global store — this round's from `pending`, earlier rounds' at
    /// their own forwards, a previous life's at its recovery — so its
    /// closed segments go and only the open one stays. Returns the flush
    /// acks (`None` while down).
    pub(super) fn forward(&mut self, global: &SampleStore) -> Option<Vec<AckMsg>> {
        let ds = self.ds.as_mut()?;
        let acks = ds.flush().expect("live region flush cannot fail");
        self.stats.forwarded += self.pending.len() as u64;
        for sb in self.pending.drain(..) {
            let _ = global.ingest_seq(&sb);
        }
        self.stats.segments_removed += ds.checkpoint().expect("live region checkpoint cannot fail");
        Some(acks)
    }

    /// Recovers the downed region: replays its WAL from the surviving disk
    /// image, feeds every clean record into the global store (the records
    /// it acked-but-never-forwarded land here — "no loss of acked data";
    /// `replayed` hears the source of each one), and brings the aggregator
    /// back up with its ledger state — adoption points included —
    /// re-derived from the log.
    pub(super) fn recover(
        &mut self,
        global: &SampleStore,
        cfg: &FleetConfig,
        round: u32,
        replayed: &mut dyn FnMut(SourceId),
    ) {
        let since = self.down_since.take().expect("recover on a live region");
        let mut replayed_new = 0u64;
        let (ds, report) = DurableReceiver::recover_replay(
            // The recovered process gets a fresh, un-budgeted storage handle
            // over the same disk: one crash per region per run.
            TornStorage::new(self.disk.clone(), u64::MAX),
            cfg.region_wal,
            &mut |sb| {
                match global.ingest_seq(sb) {
                    // Stored: new to the global tier — the crash window this
                    // replay exists for. Err: new too, but its payload was
                    // refused (the region logs and acks without looking
                    // inside); it occupies its sequence number either way.
                    Ok(SeqIngest::Stored) | Err(_) => {
                        replayed_new += 1;
                        replayed(sb.batch.source);
                    }
                    Ok(_) => {} // already forwarded live: dedup, no double-count
                }
            },
        )
        .expect("recovery from the intact disk image cannot fail");
        self.ds = Some(ds);
        self.stats.recoveries += 1;
        self.stats.wal_records_recovered += report.records;
        self.stats.replayed += replayed_new;
        if uburst_obs::enabled() {
            uburst_obs::counter_add!("uburst_fleet_region_recoveries_total", 1);
            uburst_obs::counter_add!("uburst_fleet_replayed_batches_total", replayed_new);
            uburst_obs::counter_add!("uburst_fleet_replay_records_total", report.records);
            // Downtime in the fleet tier's simulated clock: transport ticks
            // (never wall time).
            let downtime_ticks = (round - since) as u64 * cfg.ticks_per_round as u64;
            uburst_obs::hist_observe!("uburst_fleet_region_downtime_ticks", downtime_ticks);
        }
    }
}
