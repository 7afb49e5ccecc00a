//! Fleet-scale collection with graceful partial failure and crash-safe
//! regional aggregation.
//!
//! The paper's framework polled thousands of ToRs; every campaign in this
//! repo so far measured one. This module is the aggregation tier for the
//! jump: N switches, each shipping sequenced batches over its own lossy
//! link ([`crate::link`]) through a **regional aggregator** — each region
//! a WAL-backed [`DurableStore`] of its own — into one global
//! [`SampleStore`], per-switch sequence spaces merged by the go-back-N
//! receiver, exactly the PR-3 shipping protocol fanned out.
//!
//! At fleet scale the interesting failure is partial: 3% of switches
//! flaky, one rack's uplink black-holed, an aggregator stalling. Every
//! switch therefore carries an explicit health state machine
//! ([`HealthState`]: Healthy → Degraded → Quarantined → Recovered) driven
//! by switch-side degradation signals and aggregator-side
//! deadline/straggler detection, with bounded retry+backoff probes for
//! quarantined lanes.
//!
//! **Aggregators crash too.** A [`RegionCrashPlan`] kills a region's WAL
//! storage at a byte-granular offset of its own write stream, mid-round
//! ([`TornStorage`] budget semantics — the fatal write applies a prefix
//! and dies). While the region is down its switches are **re-sharded** to
//! the survivors by rendezvous hashing ([`rendezvous_region`]): the
//! mapping is a pure function of `(switch, live-region set)`, so it is
//! independent of thread count and of the history that led to the outage.
//! A migrated stream is *adopted* by its new region at the shipper's acked
//! prefix ([`DurableStore::adopt_source`]) — the go-back-N window
//! retransmits everything unacked, the adopted prefix is never waited for
//! (it is durable in the dead region's WAL), and sequence dedup makes the
//! overlap harmless. After a bounded downtime the region **recovers**:
//! its WAL is replayed ([`DurableStore::recover_replay`]), the durable
//! prefix — a superset of everything it ever acked — is fed into the
//! global store, and rendezvous hashing sends its switches home.
//!
//! The headline property survives all of it: a figure computed under
//! partial failure *says so*. Every [`FleetOutcome`] carries a
//! [`CoverageLedger`] annotating which switches (and what fraction of
//! their samples) the data includes, per health state, with re-shard and
//! replay events on the books — and `produced = stored + excluded +
//! refused + undelivered` tiles exactly at every crash offset
//! (`tests/region_failover.rs` sweeps hundreds of them).
//!
//! The module is simulation-agnostic: it consumes per-switch **round
//! streams** of already-cut [`Batch`]es ([`SwitchStream`]) so the
//! orchestration layer can produce them however it likes (the bench crate
//! fans per-switch simulations out on its worker pool, then pumps this
//! aggregation tier single-threaded in switch order — which is what keeps
//! fleet reports byte-identical across `UBURST_THREADS`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::batch::{Batch, SourceId};
use crate::failpoint::{RegionCrashPlan, TornStorage};
use crate::link::{LinkPlan, LossyLink};
use crate::ship::{AckMsg, SeqBatch, Shipper, ShipperConfig};
use crate::store::{SampleStore, SeqIngest};
use crate::wal::{DurableStore, FsyncPolicy, MemStorage, WalConfig};

/// One switch's health as seen by the fleet controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Delivering on deadline with acceptable coverage.
    Healthy,
    /// Recent bad rounds (degradation signal, refusals, straggling, or a
    /// coverage miss) but still in service.
    Degraded,
    /// Taken out of service after too many consecutive bad rounds. Probed
    /// with bounded backoff; its rounds are excluded *and accounted*.
    Quarantined,
    /// Back in service after a clean streak — behaves as Healthy, but the
    /// label survives so coverage reports show the round trip.
    Recovered,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovered => "recovered",
        };
        write!(f, "{s}")
    }
}

/// Tuning for the per-switch health state machine.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Known-missing fraction of a source's assigned batches above which a
    /// round counts as bad (receiver-side coverage signal).
    pub miss_watermark: f64,
    /// Rounds a switch may hold outstanding batches without its contiguous
    /// prefix advancing before it counts as a straggler (aggregator-side
    /// deadline signal).
    pub deadline_rounds: u32,
    /// Consecutive bad rounds before a Degraded switch is quarantined.
    pub quarantine_after: u32,
    /// Consecutive clean rounds before a switch rejoins (Degraded →
    /// Healthy, or Quarantined → Recovered via probes).
    pub rejoin_after: u32,
    /// Base spacing (rounds) between quarantine probes; doubles per failed
    /// probe (capped) — bounded retry with backoff.
    pub probe_backoff: u32,
    /// Probes granted before a quarantined switch is left out for good.
    pub max_probes: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            miss_watermark: 0.25,
            deadline_rounds: 3,
            quarantine_after: 3,
            rejoin_after: 2,
            probe_backoff: 2,
            max_probes: 8,
        }
    }
}

/// One round of input from one switch's poller.
#[derive(Debug, Clone, Default)]
pub struct RoundInput {
    /// Batches the poller cut this round.
    pub batches: Vec<Batch>,
    /// Switch-side degradation signal for the round (the PR-1 degradation
    /// controller shed or stretched — the poller knows it is unhealthy
    /// before the aggregator can).
    pub degraded: bool,
}

/// Everything the fleet needs to know about one switch: identity, the
/// link it ships over, and its per-round output.
#[derive(Debug, Clone)]
pub struct SwitchStream {
    /// The switch (per-switch sequence space key).
    pub source: SourceId,
    /// Fault model for this switch's uplink to its regional aggregator.
    pub link: LinkPlan,
    /// Seed for the link's fault draws (derive per switch: same fleet
    /// seed, different switches, different weather).
    pub link_seed: u64,
    /// Batches cut per round, in round order.
    pub rounds: Vec<RoundInput>,
}

/// Fleet-level tuning.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-switch shipper tuning (window, RTO, outstanding cap).
    pub shipper: ShipperConfig,
    /// Health state machine tuning.
    pub health: HealthPolicy,
    /// Regional aggregators sharding the fleet (switch → region by
    /// rendezvous hash over the live regions). Must be nonzero.
    pub regions: usize,
    /// Transport ticks pumped per round (shipper → link → store → ack).
    pub ticks_per_round: u32,
    /// Extra data-free rounds at the end to let retransmits drain.
    pub drain_rounds: u32,
    /// Rounds a crashed region stays down before its WAL is recovered and
    /// it rejoins the rendezvous set.
    pub recovery_rounds: u32,
    /// WAL tuning for each regional aggregator's durable store. The
    /// default matches the PR-7 group-commit profile
    /// ([`FsyncPolicy::EveryN`]); crash sweeps that want the exact
    /// acked-prefix recovery invariant use [`FsyncPolicy::Always`].
    pub region_wal: WalConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shipper: ShipperConfig::default(),
            health: HealthPolicy::default(),
            regions: 4,
            ticks_per_round: 8,
            drain_rounds: 6,
            recovery_rounds: 3,
            region_wal: WalConfig {
                segment_max_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(16),
            },
        }
    }
}

/// Splitmix64 finalizer: the mixing function under the rendezvous hash.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

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
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((r as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        // Strict > keeps the lowest region index on (never-observed) ties.
        if best.is_none_or(|(bw, _)| w > bw) {
            best = Some((w, r));
        }
    }
    best.map(|(_, r)| r)
}

/// Coverage accounting for one switch: where every batch its poller
/// produced ended up.
#[derive(Debug, Clone, Copy)]
pub struct SwitchCoverage {
    /// The switch.
    pub source: SourceId,
    /// Final health state.
    pub state: HealthState,
    /// Batches the poller produced across all rounds.
    pub produced: u64,
    /// Batches merged into the global store.
    pub stored: u64,
    /// Batches the receiver knows were assigned but never got (gap
    /// ledger). A fully black-holed switch shows up in `undelivered`
    /// instead — the receiver never learned its watermark.
    pub missing: u64,
    /// Batches never offered because the switch was quarantined.
    pub excluded: u64,
    /// Offers refused by the shipper's outstanding cap (shed at source).
    pub refused: u64,
    /// The shipper's final acknowledged prefix — every batch below it is
    /// durable in some aggregator's WAL (the no-acked-loss floor the
    /// crash sweeps check `stored` against).
    pub acked: u64,
    /// Times this switch was re-pointed at a different region (away from a
    /// crashed aggregator, and back home after recovery — a full crash
    /// round trip counts 2).
    pub resharded: u64,
    /// Batches that reached the global store only through a crashed
    /// region's WAL replay (a subset of `stored`, not a fifth column).
    pub replayed: u64,
    /// Times this switch was quarantined.
    pub quarantines: u64,
    /// Times it rejoined after quarantine.
    pub rejoins: u64,
}

impl SwitchCoverage {
    /// Fraction of produced batches that made it into the store. A switch
    /// that produced nothing covered nothing — 0.0, not a vacuous 1.0
    /// (crash-at-round-0 sweeps hit this case; it must not read as full
    /// coverage, and it must not divide by zero).
    pub fn fraction(&self) -> f64 {
        if self.produced == 0 {
            return 0.0;
        }
        self.stored as f64 / self.produced as f64
    }

    /// Produced batches that are neither stored, excluded, nor refused:
    /// lost in flight (dropped by the link, or unacked at drain end).
    pub fn undelivered(&self) -> u64 {
        self.produced
            .saturating_sub(self.stored + self.excluded + self.refused)
    }
}

/// The annotation every fleet report carries: which switches, and what
/// fraction of their samples, the data includes — per health state.
#[derive(Debug, Clone, Default)]
pub struct CoverageLedger {
    /// Per-switch coverage, sorted by source.
    pub switches: Vec<SwitchCoverage>,
}

impl CoverageLedger {
    /// Switches whose data is in the report (everything not quarantined).
    pub fn included(&self) -> usize {
        self.switches
            .iter()
            .filter(|s| s.state != HealthState::Quarantined)
            .count()
    }

    /// Fleet-wide stored fraction of produced batches. An empty fleet (or
    /// one that produced nothing — crash-at-round-0) covers nothing: 0.0.
    pub fn sample_fraction(&self) -> f64 {
        let produced: u64 = self.switches.iter().map(|s| s.produced).sum();
        let stored: u64 = self.switches.iter().map(|s| s.stored).sum();
        if produced == 0 {
            return 0.0;
        }
        stored as f64 / produced as f64
    }

    /// Switch counts per health state, in state order.
    pub fn state_counts(&self) -> [(HealthState, usize); 4] {
        let mut counts = [
            (HealthState::Healthy, 0),
            (HealthState::Degraded, 0),
            (HealthState::Quarantined, 0),
            (HealthState::Recovered, 0),
        ];
        for s in &self.switches {
            for c in &mut counts {
                if c.0 == s.state {
                    c.1 += 1;
                }
            }
        }
        counts
    }

    /// Total rejoin events across the fleet.
    pub fn rejoins(&self) -> u64 {
        self.switches.iter().map(|s| s.rejoins).sum()
    }

    /// Total re-shard (region re-point) events across the fleet.
    pub fn resharded(&self) -> u64 {
        self.switches.iter().map(|s| s.resharded).sum()
    }

    /// Total batches that reached the global store only via WAL replay.
    pub fn replayed(&self) -> u64 {
        self.switches.iter().map(|s| s.replayed).sum()
    }
}

impl fmt::Display for CoverageLedger {
    /// Deterministic text rendering — the annotation stamped onto fleet
    /// figures. Totals first, then one line per switch that is *not*
    /// plainly healthy (a 1000-switch fleet should not print 1000 lines
    /// to say "fine").
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage: {}/{} switches included, sample fraction {:.4}",
            self.included(),
            self.switches.len(),
            self.sample_fraction()
        )?;
        let counts = self.state_counts();
        writeln!(
            f,
            "  states: healthy {}, degraded {}, quarantined {}, recovered {}",
            counts[0].1, counts[1].1, counts[2].1, counts[3].1
        )?;
        if self.resharded() > 0 || self.replayed() > 0 {
            writeln!(
                f,
                "  failover: {} re-shard events, {} batches via WAL replay",
                self.resharded(),
                self.replayed()
            )?;
        }
        for s in &self.switches {
            if s.state == HealthState::Healthy
                && s.undelivered() == 0
                && s.refused == 0
                && s.resharded == 0
            {
                continue;
            }
            writeln!(
                f,
                "  switch {}: {}, produced {}, stored {}, missing {}, excluded {}, refused {}, undelivered {}, acked {}, resharded {}, replayed {}, quarantines {}, rejoins {}",
                s.source.0,
                s.state,
                s.produced,
                s.stored,
                s.missing,
                s.excluded,
                s.refused,
                s.undelivered(),
                s.acked,
                s.resharded,
                s.replayed,
                s.quarantines,
                s.rejoins
            )?;
        }
        Ok(())
    }
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
    /// Straggler deadline violations flagged by this aggregator.
    pub deadline_misses: u64,
    /// Shipper `WindowExhausted` refusals across switches homed here.
    pub refused: u64,
    /// Quarantine rejoins across switches homed here.
    pub rejoins: u64,
    /// Times this aggregator's WAL storage died mid-write (0 or 1 per
    /// run — a region crashes at most once per [`RegionCrashPlan`]).
    pub crashes: u64,
    /// Times its WAL was recovered (downtime elapsed, or the end-of-run
    /// failover sweep).
    pub recoveries: u64,
    /// Clean records replayed from its WAL at recovery.
    pub wal_records_recovered: u64,
    /// Replayed records that were new to the global store (acked by this
    /// region before the crash but never forwarded).
    pub replayed: u64,
    /// Bytes this region's WAL writer pushed through storage by run end —
    /// the coordinate system for [`RegionCrashPlan`] offsets (reference
    /// runs only: a recovered region's writer restarts its count).
    pub wal_bytes: u64,
}

/// What a fleet run produced.
pub struct FleetOutcome {
    /// The global merged store (per-switch series intact).
    pub store: Arc<SampleStore>,
    /// The coverage annotation.
    pub coverage: CoverageLedger,
    /// Per-region stats, indexed by region id.
    pub regions: Vec<RegionStats>,
    /// Per-region WAL record-end offsets (global byte coordinates of the
    /// region's write stream), for building byte-granular
    /// [`RegionCrashPlan`] sweeps from a reference run.
    pub region_record_ends: Vec<Vec<u64>>,
    /// Data rounds pumped (drain rounds not counted).
    pub rounds: u32,
}

/// One regional aggregator: a WAL-backed durable store over a disk image
/// that survives the process ([`MemStorage`] semantics), crashable via the
/// [`TornStorage`] byte budget.
struct Region {
    /// The disk: shared image, outlives the writer — what recovery reads.
    disk: MemStorage,
    /// The live store; `None` while the region is down.
    ds: Option<DurableStore<TornStorage<MemStorage>>>,
    /// Records stored this round, awaiting the end-of-round push to the
    /// global tier. In-memory state: a crash loses it — which is exactly
    /// why recovery must replay the WAL (acked records can exist nowhere
    /// but the dead region's log).
    pending: Vec<SeqBatch>,
    /// Round the region crashed, while down.
    down_since: Option<u32>,
    stats: RegionStats,
}

/// One switch's lane through the aggregation tier.
struct Lane {
    source: SourceId,
    /// Rendezvous home over the full region set.
    home: usize,
    /// Region currently serving the lane (`None` only when every region
    /// is down).
    assigned: Option<usize>,
    shipper: Shipper,
    data_link: LossyLink<SeqBatch>,
    ack_link: LossyLink<AckMsg>,
    /// The rounds not pumped yet. The lane owns its stream, so each
    /// round's input is moved out and freed as it is consumed.
    rounds: std::vec::IntoIter<RoundInput>,
    // Health FSM state.
    state: HealthState,
    consec_bad: u32,
    consec_clean: u32,
    quarantines: u64,
    rejoins: u64,
    probes_used: u32,
    next_probe: u32,
    // Aggregator-side progress tracking.
    last_contig: u64,
    rounds_since_progress: u32,
    // Coverage accounting.
    produced: u64,
    refused: u64,
    excluded: u64,
    resharded: u64,
    replayed: u64,
}

impl Lane {
    /// Whether this lane offers data this round, per its health state.
    /// Quarantined lanes participate only on scheduled probe rounds and
    /// only within their probe budget.
    fn participates(&mut self, round: u32, policy: &HealthPolicy) -> bool {
        if self.state != HealthState::Quarantined {
            return true;
        }
        if self.probes_used >= policy.max_probes || round < self.next_probe {
            return false;
        }
        self.probes_used += 1;
        uburst_obs::counter_add!("uburst_fleet_probe_rounds_total", 1);
        true
    }

    /// Feeds one round's verdict into the FSM.
    fn observe(&mut self, round: u32, bad: bool, policy: &HealthPolicy) {
        if bad {
            self.consec_clean = 0;
            match self.state {
                HealthState::Healthy | HealthState::Recovered => {
                    self.state = HealthState::Degraded;
                    self.consec_bad = 1;
                }
                HealthState::Degraded => {
                    self.consec_bad += 1;
                    if self.consec_bad >= policy.quarantine_after {
                        self.state = HealthState::Quarantined;
                        self.quarantines += 1;
                        self.consec_bad = 0;
                        self.probes_used = 0;
                        self.next_probe = round + policy.probe_backoff;
                        uburst_obs::counter_add!("uburst_fleet_quarantines_total", 1);
                    }
                }
                HealthState::Quarantined => {
                    // A failed probe: back off (exponentially, capped).
                    let shift = self.probes_used.min(4);
                    self.next_probe = round + (policy.probe_backoff << shift);
                }
            }
        } else {
            self.consec_bad = 0;
            self.consec_clean += 1;
            match self.state {
                HealthState::Degraded if self.consec_clean >= policy.rejoin_after => {
                    // Never left service, so this is not a rejoin event.
                    self.state = HealthState::Healthy;
                }
                HealthState::Quarantined => {
                    if self.consec_clean >= policy.rejoin_after {
                        self.state = HealthState::Recovered;
                        self.rejoins += 1;
                        uburst_obs::counter_add!("uburst_fleet_rejoins_total", 1);
                    } else {
                        // A clean probe: probe again immediately.
                        self.next_probe = round + 1;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Recovers a downed region: replays its WAL from the surviving disk
/// image, feeds every clean record into the global store (the records it
/// acked-but-never-forwarded land here — "no loss of acked data"), and
/// brings the aggregator back up with its ledger state — adoption points
/// included — re-derived from the log.
fn recover_region(
    region: &mut Region,
    global: &SampleStore,
    lanes: &mut BTreeMap<SourceId, Lane>,
    cfg: &FleetConfig,
    round: u32,
) {
    let since = region
        .down_since
        .take()
        .expect("recover_region on a live region");
    let mut replayed_new = 0u64;
    let (ds, report) = DurableStore::recover_replay(
        // The recovered process gets a fresh, un-budgeted storage handle
        // over the same disk: one crash per region per run.
        TornStorage::new(region.disk.clone(), u64::MAX),
        cfg.region_wal,
        &mut |sb| {
            match global.ingest_seq(sb) {
                // Stored: new to the global tier — the crash window this
                // replay exists for. Err: quarantined at the global tier
                // exactly as the region quarantined it live; it occupies
                // its sequence number either way.
                Ok(SeqIngest::Stored) | Err(_) => {
                    replayed_new += 1;
                    if let Some(lane) = lanes.get_mut(&sb.batch.source) {
                        lane.replayed += 1;
                    }
                }
                Ok(_) => {} // already forwarded live: dedup, no double-count
            }
        },
    )
    .expect("recovery from the intact disk image cannot fail");
    region.ds = Some(ds);
    region.stats.recoveries += 1;
    region.stats.wal_records_recovered += report.records;
    region.stats.replayed += replayed_new;
    if uburst_obs::enabled() {
        uburst_obs::counter_add!("uburst_fleet_region_recoveries_total", 1);
        uburst_obs::counter_add!("uburst_fleet_replayed_batches_total", replayed_new);
        uburst_obs::counter_add!("uburst_fleet_replay_records_total", report.records);
        // Span duration in the fleet tier's simulated clock: transport
        // ticks of downtime (never wall time).
        let downtime_ticks = (round - since) as u64 * cfg.ticks_per_round as u64;
        uburst_obs::span_record!("fleet/region_recovery", downtime_ticks);
    }
}

/// Runs the fleet aggregation tier over the given switch streams.
///
/// Fully deterministic: lanes are pumped in source order, links are
/// seeded, and both store tiers are single-writer — calling this twice
/// with the same streams yields byte-identical reports regardless of how
/// the streams themselves were produced (that is the caller's
/// determinism to keep; the bench crate's worker pool returns per-switch
/// results in submission order for exactly this reason).
///
/// Acks travel two paths: per-ingest acks ride the switch's lossy link
/// back (they can be lost — that is what retransmits are for), while the
/// per-round flush acks are applied directly, modelling the aggregator's
/// reliable control channel to its switches.
pub fn run_fleet(streams: Vec<SwitchStream>, cfg: &FleetConfig) -> FleetOutcome {
    run_fleet_with_crashes(streams, cfg, &RegionCrashPlan::none())
}

/// [`run_fleet`] under a [`RegionCrashPlan`]: each listed region's WAL
/// storage dies at its byte offset mid-round, its switches re-shard to
/// the survivors, and after [`FleetConfig::recovery_rounds`] (or at run
/// end — the final failover sweep) its WAL is recovered into the global
/// store. See the module docs for the invariants this preserves.
pub fn run_fleet_with_crashes(
    streams: Vec<SwitchStream>,
    cfg: &FleetConfig,
    crashes: &RegionCrashPlan,
) -> FleetOutcome {
    assert!(cfg.regions > 0, "fleet with zero regions");
    assert!(cfg.ticks_per_round > 0, "fleet with zero ticks per round");
    let global = Arc::new(SampleStore::new());
    let mut regions: Vec<Region> = (0..cfg.regions)
        .map(|r| {
            let disk = MemStorage::new();
            let budget = crashes.budget(r).unwrap_or(u64::MAX);
            let mut stats = RegionStats::default();
            // A budget below the first segment header kills the region at
            // birth (crash-at-round-0): it starts down and recovers like
            // any other crash.
            let (ds, down_since) = match DurableStore::create(
                TornStorage::new(disk.clone(), budget),
                cfg.region_wal,
            ) {
                Ok(ds) => (Some(ds), None),
                Err(e) => {
                    assert!(e.is_injected_crash(), "region WAL create failed: {e}");
                    stats.crashes = 1;
                    uburst_obs::counter_add!("uburst_fleet_region_crashes_total", 1);
                    (None, Some(0))
                }
            };
            Region {
                disk,
                ds,
                pending: Vec::new(),
                down_since,
                stats,
            }
        })
        .collect();

    // Lanes in source order: the pump order, and therefore the report
    // order, is fixed no matter how the caller built the stream vector.
    let all_live = vec![true; cfg.regions];
    let mut lanes: BTreeMap<SourceId, Lane> = BTreeMap::new();
    let mut max_rounds = 0u32;
    for s in streams {
        let home = rendezvous_region(s.source, &all_live).expect("regions is nonzero");
        regions[home].stats.switches += 1;
        max_rounds = max_rounds.max(s.rounds.len() as u32);
        lanes.insert(
            s.source,
            Lane {
                source: s.source,
                home,
                assigned: Some(home),
                shipper: Shipper::new(s.source, cfg.shipper),
                data_link: LossyLink::new(s.link, s.link_seed),
                ack_link: LossyLink::new(s.link, s.link_seed ^ 0x9e37_79b9),
                rounds: s.rounds.into_iter(),
                state: HealthState::Healthy,
                consec_bad: 0,
                consec_clean: 0,
                quarantines: 0,
                rejoins: 0,
                probes_used: 0,
                next_probe: 0,
                last_contig: 0,
                rounds_since_progress: 0,
                produced: 0,
                refused: 0,
                excluded: 0,
                resharded: 0,
                replayed: 0,
            },
        );
    }
    uburst_obs::gauge_max!("uburst_fleet_switches", lanes.len() as u64);

    // Reused across every lane and tick: the shipper's transmit burst and
    // the aggregator's per-window ingest results. Zero per-tick allocation
    // once the fleet warms up.
    let mut tx_buf: Vec<SeqBatch> = Vec::new();
    let mut ingest_buf: Vec<(SeqIngest, AckMsg)> = Vec::new();

    let total_rounds = max_rounds + cfg.drain_rounds;
    for round in 0..total_rounds {
        // Downtime elapsed: recover the region's WAL into the global store
        // and bring it back into the rendezvous set.
        for region in regions.iter_mut() {
            if region
                .down_since
                .is_some_and(|since| round - since >= cfg.recovery_rounds)
            {
                recover_region(region, &global, &mut lanes, cfg, round);
            }
        }

        // Re-shard: every lane targets its rendezvous region over the live
        // set. A re-pointed lane's old path is cut (in-flight traffic and
        // acks die with the cable) and the new region adopts the stream at
        // the shipper's acked prefix — the exact point go-back-N resumes
        // from, so resync needs no extra protocol: the window retransmits,
        // dedup absorbs the overlap.
        let live: Vec<bool> = regions.iter().map(|r| r.ds.is_some()).collect();
        for lane in lanes.values_mut() {
            let target = rendezvous_region(lane.source, &live);
            if target != lane.assigned {
                lane.assigned = target;
                lane.resharded += 1;
                lane.data_link.clear();
                lane.ack_link.clear();
                if let Some(t) = target {
                    let ds = regions[t].ds.as_mut().expect("rendezvous picks live");
                    ds.adopt_source(lane.source, lane.shipper.cum_acked());
                }
                uburst_obs::counter_add!("uburst_fleet_reshards_total", 1);
            }
        }

        for lane in lanes.values_mut() {
            // Drain rounds (and a lane shorter than the fleet) have no input.
            let input = lane.rounds.next().unwrap_or_default();
            let had_input = !input.batches.is_empty();
            lane.produced += input.batches.len() as u64;
            let participating = had_input && lane.participates(round, &cfg.health);
            let mut refused_this_round = 0u64;
            if participating {
                for b in input.batches {
                    if lane.shipper.offer(b).is_err() {
                        refused_this_round += 1;
                    }
                }
            } else if had_input {
                lane.excluded += input.batches.len() as u64;
            }
            lane.refused += refused_this_round;

            // Pump the transport: shipper → data link → regional WAL →
            // ack link → shipper. Each tick's delivery burst is one WAL
            // commit window: `ingest_group` coalesces the window into a
            // single physical write (and at most one sync) while
            // returning per-frame acks identical to per-record ingest, so
            // the seeded ack link sees the exact same stream. Stored
            // records queue in the region's pending buffer and reach the
            // global tier at the end-of-round durability push — so a
            // mid-round crash leaves records that were acked to switches
            // but exist nowhere except the dead region's WAL, and
            // recovery's replay is what keeps the no-acked-loss promise.
            for _ in 0..cfg.ticks_per_round {
                lane.shipper.tick_into(&mut tx_buf);
                for sb in tx_buf.drain(..) {
                    lane.data_link.send(sb);
                }
                let window = lane.data_link.tick();
                if !window.is_empty() {
                    // A window addressed to a dead aggregator is lost on
                    // the wire; the shipper's RTO re-sends it later.
                    if let Some(r) = lane.assigned {
                        let region = &mut regions[r];
                        if let Some(ds) = region.ds.as_mut() {
                            match ds.ingest_group(&window, &mut ingest_buf) {
                                Ok(()) => {
                                    for (sb, (outcome, ack)) in
                                        window.into_iter().zip(ingest_buf.drain(..))
                                    {
                                        // Duplicates are already durable
                                        // (here or in a previous region's
                                        // WAL); reordered frames get
                                        // redelivered in sequence.
                                        if outcome == SeqIngest::Stored {
                                            region.pending.push(sb);
                                        }
                                        lane.ack_link.send(ack);
                                    }
                                }
                                Err(e) => {
                                    // The byte-granular crash: the fatal
                                    // write applied a prefix and the
                                    // region died mid-round. No ack from
                                    // the torn window escapes, the
                                    // un-pushed pending buffer dies with
                                    // the process, and so does in-flight
                                    // traffic.
                                    assert!(e.is_injected_crash(), "regional WAL failed: {e}");
                                    region.ds = None;
                                    region.pending.clear();
                                    region.down_since = Some(round);
                                    region.stats.crashes += 1;
                                    lane.data_link.clear();
                                    uburst_obs::counter_add!(
                                        "uburst_fleet_region_crashes_total",
                                        1
                                    );
                                }
                            }
                        }
                    }
                }
                for ack in lane.ack_link.tick() {
                    lane.shipper.on_ack(ack);
                }
            }

            // Aggregator-side progress / straggler tracking (the global
            // tier's contiguous prefix — the authoritative view).
            let contig = global.contiguous(lane.source);
            if contig > lane.last_contig {
                lane.last_contig = contig;
                lane.rounds_since_progress = 0;
            } else if lane.shipper.outstanding() > 0 {
                lane.rounds_since_progress += 1;
            }
            let stalled = lane.shipper.outstanding() > 0
                && lane.rounds_since_progress >= cfg.health.deadline_rounds;
            if stalled {
                regions[lane.assigned.unwrap_or(lane.home)]
                    .stats
                    .deadline_misses += 1;
            }

            // Health verdict for the round. Only rounds the switch took
            // part in are judged — an excluded round proves nothing.
            if participating {
                let watermark = lane.shipper.next_seq();
                let missing = watermark.saturating_sub(global.contiguous(lane.source));
                // In-flight batches are not "missing" yet; judge only what
                // has had a full deadline window to arrive.
                let miss_frac = if watermark == 0 || lane.rounds_since_progress == 0 {
                    0.0
                } else {
                    missing as f64 / watermark as f64
                };
                let bad = input.degraded
                    || refused_this_round > 0
                    || stalled
                    || miss_frac > cfg.health.miss_watermark;
                lane.observe(round, bad, &cfg.health);
            }
        }
        // End of round: durability point per live region. The WAL syncs,
        // the round's stored records are pushed upstream to the global
        // tier, and flush acks model the reliable control channel
        // (applied directly, not over the lossy link) — routed only to
        // lanes the region currently serves, so a re-homed lane never
        // hears from its old aggregator.
        for (r, region) in regions.iter_mut().enumerate() {
            let Some(ds) = region.ds.as_mut() else {
                continue;
            };
            let acks = ds.flush().expect("live region flush cannot fail");
            region.stats.forwarded += region.pending.len() as u64;
            for sb in region.pending.drain(..) {
                let _ = global.ingest_seq(&sb);
            }
            for ack in acks {
                if let Some(lane) = lanes.get_mut(&ack.source) {
                    if lane.assigned == Some(r) {
                        lane.shipper.on_ack(ack);
                    }
                }
            }
        }
    }

    // Final failover sweep: a region still down at run end is recovered
    // now, so everything it ever acked reaches the global store before
    // coverage is judged — no crash offset loses acked data.
    for region in regions.iter_mut() {
        if region.down_since.is_some() {
            recover_region(region, &global, &mut lanes, cfg, total_rounds);
        }
    }

    // The reconnect handshake: the global tier learns each shipper's final
    // transmit watermark, so batches assigned but never delivered anywhere
    // show up as gaps, not silence. Every lane announces before the one
    // ledger snapshot the coverage columns are read from.
    for lane in lanes.values() {
        global.note_watermark(lane.source, lane.shipper.next_seq());
    }
    let ledger = global.ledger();
    let mut coverage = CoverageLedger::default();
    for lane in lanes.values() {
        let stored = ledger.received_count(lane.source);
        uburst_obs::counter_add!("uburst_fleet_batches_stored_total", stored);
        uburst_obs::counter_add!("uburst_fleet_batches_excluded_total", lane.excluded);
        regions[lane.home].stats.refused += lane.refused;
        regions[lane.home].stats.rejoins += lane.rejoins;
        coverage.switches.push(SwitchCoverage {
            source: lane.source,
            state: lane.state,
            produced: lane.produced,
            stored,
            missing: ledger
                .gaps(lane.source)
                .iter()
                .map(|&(lo, hi)| hi - lo + 1)
                .sum(),
            excluded: lane.excluded,
            refused: lane.refused,
            acked: lane.shipper.cum_acked(),
            resharded: lane.resharded,
            replayed: lane.replayed,
            quarantines: lane.quarantines,
            rejoins: lane.rejoins,
        });
    }
    let mut region_record_ends = Vec::with_capacity(regions.len());
    let mut region_stats = Vec::with_capacity(regions.len());
    for region in &regions {
        let mut stats = region.stats;
        if let Some(ds) = &region.ds {
            stats.wal_bytes = ds.wal().total_bytes();
            region_record_ends.push(ds.wal().record_ends().to_vec());
        } else {
            region_record_ends.push(Vec::new());
        }
        region_stats.push(stats);
    }
    FleetOutcome {
        store: global,
        coverage,
        regions: region_stats,
        region_record_ends,
        rounds: max_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;
    use uburst_asic::CounterId;
    use uburst_sim::node::PortId;
    use uburst_sim::time::Nanos;

    /// A per-switch stream of `rounds` rounds, one batch per round with
    /// distinct timestamps; `degraded_until` marks the first rounds bad.
    fn stream(src: u32, link: LinkPlan, rounds: u32, degraded_until: u32) -> SwitchStream {
        let rounds = (0..rounds)
            .map(|r| {
                let mut s = Series::new();
                s.push(Nanos(1 + r as u64 * 10), r as u64);
                RoundInput {
                    batches: vec![Batch {
                        source: SourceId(src),
                        campaign: "fleet-test".into(),
                        counter: CounterId::TxBytes(PortId(0)),
                        samples: s,
                    }],
                    degraded: r < degraded_until,
                }
            })
            .collect();
        SwitchStream {
            source: SourceId(src),
            link,
            link_seed: 0xF1EE7 ^ src as u64,
            rounds,
        }
    }

    /// A config whose regional WALs run [`FsyncPolicy::Always`] — the
    /// policy under which recovery is exactly the acked prefix.
    fn always_cfg(regions: usize) -> FleetConfig {
        FleetConfig {
            regions,
            region_wal: WalConfig {
                segment_max_bytes: 1 << 20,
                fsync: FsyncPolicy::Always,
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn ideal_fleet_has_full_coverage() {
        let streams: Vec<_> = (0..8).map(|s| stream(s, LinkPlan::IDEAL, 6, 0)).collect();
        let out = run_fleet(streams, &FleetConfig::default());
        assert_eq!(out.coverage.switches.len(), 8);
        assert_eq!(out.coverage.included(), 8);
        assert_eq!(out.coverage.sample_fraction(), 1.0);
        for s in &out.coverage.switches {
            assert_eq!(s.state, HealthState::Healthy);
            assert_eq!(s.stored, 6);
            assert_eq!(s.undelivered(), 0);
            assert_eq!(s.resharded, 0, "no crash, no re-shard");
            assert_eq!(s.replayed, 0);
        }
        assert_eq!(out.store.total_samples(), 8 * 6);
        // Regions split the fleet between them (rendezvous need not use
        // every region at 8 switches) and every homed switch delivered
        // through its home.
        assert_eq!(out.regions.iter().map(|r| r.switches).sum::<usize>(), 8);
        for r in &out.regions {
            assert_eq!(r.crashes, 0);
            assert!(
                r.switches == 0 || r.forwarded > 0,
                "a home with switches saw their traffic"
            );
        }
    }

    #[test]
    fn blackholed_switch_is_quarantined_and_accounted() {
        let blackhole = LinkPlan {
            drop_p: 1.0,
            ..LinkPlan::IDEAL
        };
        let mut streams: Vec<_> = (0..4).map(|s| stream(s, LinkPlan::IDEAL, 12, 0)).collect();
        streams.push(stream(9, blackhole, 12, 0));
        let out = run_fleet(streams, &FleetConfig::default());
        let bad = out
            .coverage
            .switches
            .iter()
            .find(|s| s.source == SourceId(9))
            .unwrap();
        assert_eq!(bad.state, HealthState::Quarantined);
        assert_eq!(bad.stored, 0);
        assert!(bad.excluded > 0, "quarantine exclusions are accounted");
        assert!(bad.undelivered() > 0, "in-flight loss is accounted");
        assert_eq!(
            bad.produced,
            bad.stored + bad.excluded + bad.refused + bad.undelivered(),
            "every produced batch is in exactly one coverage column"
        );
        assert_eq!(out.coverage.included(), 4);
        assert!(out.coverage.sample_fraction() < 1.0);
        // The healthy switches are untouched by their neighbour's failure.
        for s in out.coverage.switches.iter().filter(|s| s.source.0 < 4) {
            assert_eq!(s.state, HealthState::Healthy);
            assert_eq!(s.stored, 12);
        }
        // The report says all of this out loud.
        let text = out.coverage.to_string();
        assert!(text.contains("4/5 switches included"));
        assert!(text.contains("switch 9: quarantined"));
    }

    #[test]
    fn degraded_switch_recovers_and_counts_rejoin() {
        // Clean link, but the switch reports degradation for its first 6
        // rounds: Healthy → Degraded → Quarantined, then probes succeed
        // and it comes back as Recovered with one rejoin on the books.
        let streams = vec![
            stream(0, LinkPlan::IDEAL, 30, 0),
            stream(1, LinkPlan::IDEAL, 30, 6),
        ];
        let out = run_fleet(streams, &FleetConfig::default());
        let s1 = out
            .coverage
            .switches
            .iter()
            .find(|s| s.source == SourceId(1))
            .unwrap();
        assert_eq!(s1.state, HealthState::Recovered);
        assert_eq!(s1.quarantines, 1);
        assert_eq!(s1.rejoins, 1);
        assert!(s1.excluded > 0, "quarantined rounds were excluded");
        assert!(
            s1.stored > 0,
            "rounds after recovery made it into the store"
        );
        assert_eq!(out.coverage.rejoins(), 1);
        assert_eq!(out.coverage.included(), 2);
    }

    #[test]
    fn fleet_outcome_is_deterministic() {
        let build = || {
            let mut streams: Vec<_> = (0..6)
                .map(|s| stream(s, LinkPlan::default(), 10, 0))
                .collect();
            streams.push(stream(7, LinkPlan::HOSTILE, 10, 3));
            // Stream order must not matter: lanes are keyed by source.
            streams.reverse();
            streams
        };
        let a = run_fleet(build(), &FleetConfig::default());
        let b = run_fleet(build(), &FleetConfig::default());
        assert_eq!(a.coverage.to_string(), b.coverage.to_string());
        let mut csv_a = Vec::new();
        let mut csv_b = Vec::new();
        a.store.export_csv(&mut csv_a).unwrap();
        b.store.export_csv(&mut csv_b).unwrap();
        assert_eq!(csv_a, csv_b, "stored samples byte-identical");
    }

    #[test]
    fn probe_budget_bounds_retry() {
        // A switch that never stops reporting degradation: probes must
        // stop at the budget instead of retrying forever.
        let cfg = FleetConfig::default();
        let rounds = 80;
        let streams = vec![stream(3, LinkPlan::IDEAL, rounds, rounds)];
        let out = run_fleet(streams, &cfg);
        let s = &out.coverage.switches[0];
        assert_eq!(s.state, HealthState::Quarantined);
        // quarantine_after rounds judged before quarantine, then at most
        // max_probes probe rounds participate; everything else excluded.
        let participated = s.produced - s.excluded;
        assert!(
            participated <= (cfg.health.quarantine_after + cfg.health.max_probes) as u64,
            "participated {participated} exceeds quarantine + probe budget"
        );
        assert_eq!(s.rejoins, 0);
        assert_eq!(out.coverage.included(), 0);
    }

    #[test]
    fn rendezvous_is_pure_and_minimally_disruptive() {
        let live4 = vec![true; 4];
        for s in 0..64u32 {
            let src = SourceId(s);
            let home = rendezvous_region(src, &live4).unwrap();
            assert_eq!(
                rendezvous_region(src, &live4).unwrap(),
                home,
                "pure function of (switch, live set)"
            );
            // Kill a region the switch is NOT homed on: its assignment
            // must not move (minimal disruption).
            let dead = (home + 1) % 4;
            let mut live3 = live4.clone();
            live3[dead] = false;
            assert_eq!(rendezvous_region(src, &live3), Some(home));
            // Kill its home: it moves to a survivor, deterministically.
            let mut live_nohome = live4.clone();
            live_nohome[home] = false;
            let moved = rendezvous_region(src, &live_nohome).unwrap();
            assert_ne!(moved, home);
            assert_eq!(rendezvous_region(src, &live_nohome), Some(moved));
        }
        assert_eq!(rendezvous_region(SourceId(0), &[false, false]), None);
        assert_eq!(rendezvous_region(SourceId(0), &[]), None);
        // All regions live again: everyone is back home (history never
        // enters the mapping).
        for s in 0..64u32 {
            let h1 = rendezvous_region(SourceId(s), &live4);
            let h2 = rendezvous_region(SourceId(s), &[true, true, true, true]);
            assert_eq!(h1, h2);
        }
    }

    #[test]
    fn zero_produced_coverage_is_zero_not_vacuous() {
        // Satellite: crash-at-round-0 sweeps hit empty coverage; the
        // fractions must read 0.0 (nothing covered), never 1.0 or NaN.
        let empty = SwitchCoverage {
            source: SourceId(0),
            state: HealthState::Healthy,
            produced: 0,
            stored: 0,
            missing: 0,
            excluded: 0,
            refused: 0,
            acked: 0,
            resharded: 0,
            replayed: 0,
            quarantines: 0,
            rejoins: 0,
        };
        assert_eq!(empty.fraction(), 0.0);
        assert_eq!(empty.undelivered(), 0);
        let ledger = CoverageLedger {
            switches: vec![empty],
        };
        assert_eq!(ledger.sample_fraction(), 0.0);
        assert_eq!(CoverageLedger::default().sample_fraction(), 0.0);
        // And an empty-stream fleet run survives end to end.
        let out = run_fleet(
            vec![SwitchStream {
                source: SourceId(5),
                link: LinkPlan::IDEAL,
                link_seed: 1,
                rounds: Vec::new(),
            }],
            &FleetConfig::default(),
        );
        assert_eq!(out.coverage.sample_fraction(), 0.0);
        assert_eq!(out.coverage.switches[0].produced, 0);
    }

    /// The tentpole in one test: crash a region mid-run at a byte offset
    /// of its WAL, watch its switches re-shard to survivors, recover the
    /// WAL, and end with the exact store a crash-free run produces.
    #[test]
    fn region_crash_resharding_and_recovery_converge() {
        let mut cfg = always_cfg(2);
        cfg.drain_rounds = 10; // room for failover + retransmit + rejoin
        let build = || (0..6).map(|s| stream(s, LinkPlan::IDEAL, 12, 0)).collect();
        let reference = run_fleet(build(), &cfg);
        assert!(
            reference.regions.iter().all(|r| r.switches > 0),
            "both regions homed switches (else the crash tests nothing)"
        );
        let wal_bytes = reference.regions[0].wal_bytes;
        assert!(wal_bytes > 0);

        let crash = RegionCrashPlan::kill(0, wal_bytes / 2);
        let out = run_fleet_with_crashes(build(), &cfg, &crash);
        assert_eq!(out.regions[0].crashes, 1);
        assert_eq!(out.regions[0].recoveries, 1);
        assert!(out.regions[0].wal_records_recovered > 0);
        assert_eq!(out.regions[1].crashes, 0);
        // Region 0's switches were re-pointed away and back: 2 events.
        let moved: Vec<_> = out
            .coverage
            .switches
            .iter()
            .filter(|s| s.resharded > 0)
            .collect();
        assert!(!moved.is_empty(), "someone was homed on the dead region");
        assert!(moved.iter().all(|s| s.resharded == 2));
        assert_eq!(
            out.coverage.resharded() as usize,
            moved.len() * 2,
            "away + back home"
        );
        // Full convergence: every switch fully covered, tiling intact.
        for s in &out.coverage.switches {
            assert_eq!(
                s.produced,
                s.stored + s.excluded + s.refused + s.undelivered(),
                "tiling at switch {}",
                s.source.0
            );
            assert_eq!(s.stored, 12, "switch {} fully stored", s.source.0);
            assert!(s.stored >= s.acked, "no acked batch lost");
        }
        assert_eq!(out.coverage.sample_fraction(), 1.0);
        // Byte-identical to the crash-free run.
        let mut csv_ref = Vec::new();
        let mut csv_out = Vec::new();
        reference.store.export_csv(&mut csv_ref).unwrap();
        out.store.export_csv(&mut csv_out).unwrap();
        assert_eq!(csv_ref, csv_out, "recovered fleet == crash-free fleet");
    }

    #[test]
    fn crash_at_round_zero_region_is_born_dead_and_still_converges() {
        // Budget 0: the region dies before writing its first segment
        // header. Its switches start on the survivor; the (empty) WAL
        // recovers after recovery_rounds; nothing is lost.
        let mut cfg = always_cfg(2);
        cfg.drain_rounds = 10;
        let streams: Vec<_> = (0..4).map(|s| stream(s, LinkPlan::IDEAL, 8, 0)).collect();
        let out = run_fleet_with_crashes(streams, &cfg, &RegionCrashPlan::kill(1, 0));
        assert_eq!(out.regions[1].crashes, 1);
        assert_eq!(out.regions[1].recoveries, 1);
        assert_eq!(out.regions[1].wal_records_recovered, 0, "nothing logged");
        for s in &out.coverage.switches {
            assert_eq!(s.stored, 8);
            assert_eq!(
                s.produced,
                s.stored + s.excluded + s.refused + s.undelivered()
            );
        }
        assert_eq!(out.coverage.sample_fraction(), 1.0);
    }

    #[test]
    fn crashed_fleet_outcome_is_deterministic() {
        let mut cfg = always_cfg(3);
        cfg.drain_rounds = 8;
        let build = || {
            (0..5)
                .map(|s| stream(s, LinkPlan::default(), 10, 0))
                .collect()
        };
        let crash = RegionCrashPlan::kill(0, 700).and_kill(2, 1500);
        let a = run_fleet_with_crashes(build(), &cfg, &crash);
        let b = run_fleet_with_crashes(build(), &cfg, &crash);
        assert_eq!(a.coverage.to_string(), b.coverage.to_string());
        let (mut csv_a, mut csv_b) = (Vec::new(), Vec::new());
        a.store.export_csv(&mut csv_a).unwrap();
        b.store.export_csv(&mut csv_b).unwrap();
        assert_eq!(csv_a, csv_b);
    }
}
