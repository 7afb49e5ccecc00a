//! Fleet-scale collection with graceful partial failure and crash-safe
//! regional aggregation (DESIGN.md, "Collection tier").
//!
//! N switches each ship sequenced batches over their own lossy link — a
//! [`Session`] per switch — to a **regional aggregator**, a WAL-backed
//! [`crate::wal::DurableReceiver`] keeping a gap ledger, which forwards
//! what it stored to one global [`SampleStore`] at the end of every round
//! and then drops the log segments that store now covers. A [`Fleet`] steps
//! that machine one round at a time; each phase of a round is a method:
//!
//! * `health`: every switch carries a state machine (Healthy → Degraded
//!   → Quarantined → Recovered) fed by switch-side degradation signals and
//!   aggregator-side deadline/straggler detection, with bounded
//!   retry+backoff probes for quarantined lanes.
//! * `region`: aggregators crash too. A [`RegionCrashPlan`] kills a
//!   region's WAL storage at a byte offset of its own write stream,
//!   mid-round; its switches re-shard to the survivors by rendezvous hash
//!   ([`rendezvous_region`]), each adopted at its shipper's acked prefix;
//!   after a bounded downtime the region's WAL is replayed into the global
//!   store and its switches go home. A live region checkpoints its WAL at
//!   every end-of-round forward, deleting the closed segments the global
//!   store already holds, so the replayed suffix and the global store
//!   together cover everything the region ever acked.
//! * `coverage`: a figure computed under partial failure *says so*.
//!   Every [`FleetOutcome`] carries a [`CoverageLedger`], and `produced =
//!   stored + excluded + refused + undelivered` tiles exactly at every
//!   crash offset (`tests/region_failover.rs` sweeps hundreds of them).
//!
//! The module is simulation-agnostic: it consumes per-switch round streams
//! of already-cut [`Batch`]es ([`SwitchStream`]), and pumps them
//! single-threaded in switch order — which is what keeps fleet reports
//! byte-identical across `UBURST_THREADS`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::batch::{Batch, SourceId};
use crate::failpoint::RegionCrashPlan;
use crate::link::LinkPlan;
use crate::session::Session;
use crate::ship::{Shipper, ShipperConfig};
use crate::store::SampleStore;
use crate::wal::{FsyncPolicy, WalConfig};

mod coverage;
mod health;
mod region;

pub use coverage::{CoverageLedger, SwitchCoverage};
pub use health::HealthState;
pub use region::{rendezvous_region, RegionStats};

use health::{Health, DEADLINE_ROUNDS, MISS_WATERMARK};
use region::Region;

/// Rounds a crashed region stays down before its WAL is recovered and it
/// rejoins the rendezvous set.
const RECOVERY_ROUNDS: u32 = 3;

/// One round of input from one switch's poller.
#[derive(Debug, Clone, Default)]
pub struct RoundInput {
    /// Batches the poller cut this round.
    pub batches: Vec<Batch>,
    /// Switch-side health signal for the round (its poller's reads are
    /// failing, say — the switch knows it is unhealthy before the
    /// aggregator can).
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
    /// Regional aggregators sharding the fleet (switch → region by
    /// rendezvous hash over the live regions). Must be nonzero.
    pub regions: usize,
    /// Transport ticks pumped per round (shipper → link → store → ack).
    pub ticks_per_round: u32,
    /// Extra data-free rounds at the end to let retransmits drain.
    pub drain_rounds: u32,
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
            regions: 4,
            ticks_per_round: 8,
            drain_rounds: 6,
            region_wal: WalConfig {
                segment_max_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(16),
            },
        }
    }
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

/// One switch's lane through the aggregation tier.
struct Lane {
    source: SourceId,
    /// Rendezvous home over the full region set.
    home: usize,
    /// Region currently serving the lane (`None` only when every region
    /// is down).
    assigned: Option<usize>,
    /// The switch's shipper and its links to the serving region.
    session: Session,
    /// The rounds not pumped yet. The lane owns its stream, so each
    /// round's input is moved out and freed as it is consumed.
    rounds: std::vec::IntoIter<RoundInput>,
    health: Health,
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
    fn new(stream: SwitchStream, home: usize, cfg: &FleetConfig) -> Lane {
        Lane {
            source: stream.source,
            home,
            assigned: Some(home),
            session: Session::new(
                vec![Shipper::new(stream.source, cfg.shipper)],
                stream.link,
                stream.link_seed,
                stream.link_seed ^ 0x9e37_79b9,
            ),
            rounds: stream.rounds.into_iter(),
            health: Health::default(),
            last_contig: 0,
            rounds_since_progress: 0,
            produced: 0,
            refused: 0,
            excluded: 0,
            resharded: 0,
            replayed: 0,
        }
    }

    fn shipper(&self) -> &Shipper {
        &self.session.shippers()[0]
    }

    /// Points the lane at `target`. The old path is cut (in-flight traffic
    /// and acks die with the cable) and the new region adopts the stream
    /// at the shipper's acked prefix — the exact point go-back-N resumes
    /// from, so resync needs no extra protocol: the window retransmits,
    /// dedup absorbs the overlap.
    fn reshard(&mut self, target: Option<usize>, regions: &mut [Region]) {
        self.assigned = target;
        self.resharded += 1;
        self.session.cut();
        if let Some(t) = target {
            regions[t].adopt(self.source, self.shipper().cum_acked());
        }
    }

    /// Offers the lane's next round of input (drain rounds, and a lane
    /// shorter than the fleet, have none) and pumps the transport for the
    /// round's ticks against the serving region. A region whose WAL write
    /// fails mid-window crashes here: no ack from the torn window escapes
    /// and the session cuts the data link. Returns the switch-side half of
    /// the round's health verdict (degraded, or offers refused) if the
    /// lane took part — it had input and its health state let it offer it.
    fn pump(&mut self, round: u32, cfg: &FleetConfig, regions: &mut [Region]) -> Option<bool> {
        let input = self.rounds.next().unwrap_or_default();
        let batches = input.batches.len() as u64;
        self.produced += batches;
        let participating = batches > 0 && self.health.participates(round);
        let mut refused = 0u64;
        if participating {
            for b in input.batches {
                if self.session.offer(b).is_err() {
                    refused += 1;
                }
            }
        } else {
            self.excluded += batches;
        }
        self.refused += refused;

        let assigned = self.assigned;
        for _ in 0..cfg.ticks_per_round {
            let verdict = self.session.tick(|window, acks| match assigned {
                Some(r) => regions[r].receive(window, acks),
                None => Ok(()),
            });
            if let Err(e) = verdict {
                regions[assigned.expect("only a region can fail")].crash(round, &e);
            }
        }
        participating.then_some(input.degraded || refused > 0)
    }

    /// Aggregator-side progress and straggler tracking against the global
    /// tier's contiguous prefix (the authoritative view), then the round's
    /// health verdict. Only rounds the switch took part in are judged — an
    /// excluded round proves nothing.
    fn judge(
        &mut self,
        round: u32,
        bad_at_source: Option<bool>,
        global: &SampleStore,
        regions: &mut [Region],
    ) {
        let contig = global.contiguous(self.source);
        let outstanding = self.shipper().outstanding() > 0;
        if contig > self.last_contig {
            self.last_contig = contig;
            self.rounds_since_progress = 0;
        } else if outstanding {
            self.rounds_since_progress += 1;
        }
        let stalled = outstanding && self.rounds_since_progress >= DEADLINE_ROUNDS;
        if stalled {
            regions[self.assigned.unwrap_or(self.home)]
                .stats
                .deadline_misses += 1;
        }
        if let Some(bad_at_source) = bad_at_source {
            let watermark = self.shipper().next_seq();
            let missing = watermark.saturating_sub(contig);
            // In-flight batches are not "missing" yet; judge only what
            // has had a full deadline window to arrive.
            let miss_frac = if watermark == 0 || self.rounds_since_progress == 0 {
                0.0
            } else {
                missing as f64 / watermark as f64
            };
            let bad = bad_at_source || stalled || miss_frac > MISS_WATERMARK;
            self.health.observe(round, bad);
        }
    }
}

/// The fleet aggregation tier as a stepped state machine: build it over
/// the switch streams, [`Fleet::step_round`] until it returns `false`,
/// [`Fleet::finish`]. [`Fleet::coverage`] and [`Fleet::regions`] read the
/// books at any round boundary.
///
/// Fully deterministic: lanes are pumped in source order, links are
/// seeded, and both store tiers are single-writer — the same streams yield
/// byte-identical reports regardless of how the streams themselves were
/// produced (that is the caller's determinism to keep; the bench crate's
/// worker pool returns per-switch results in submission order for exactly
/// this reason).
///
/// Acks travel two paths: per-ingest acks ride the switch's lossy link
/// back (they can be lost — that is what retransmits are for), while the
/// per-round flush acks are applied directly, modelling the aggregator's
/// reliable control channel to its switches.
pub struct Fleet {
    cfg: FleetConfig,
    global: Arc<SampleStore>,
    regions: Vec<Region>,
    /// Lanes in source order: the pump order, and therefore the report
    /// order, is fixed no matter how the caller built the stream vector.
    lanes: BTreeMap<SourceId, Lane>,
    /// Rounds pumped so far.
    round: u32,
    /// Rounds carrying data (the longest stream); drain rounds follow.
    data_rounds: u32,
}

impl Fleet {
    /// A fleet over `streams`, with each region of `crashes` due to die at
    /// its WAL byte offset.
    pub fn new(streams: Vec<SwitchStream>, cfg: &FleetConfig, crashes: &RegionCrashPlan) -> Fleet {
        assert!(cfg.regions > 0, "fleet with zero regions");
        assert!(cfg.ticks_per_round > 0, "fleet with zero ticks per round");
        let mut regions: Vec<Region> = (0..cfg.regions)
            .map(|r| Region::new(crashes.budget(r).unwrap_or(u64::MAX), cfg.region_wal))
            .collect();
        let all_live = vec![true; cfg.regions];
        let mut lanes = BTreeMap::new();
        let mut data_rounds = 0u32;
        for s in streams {
            let home = rendezvous_region(s.source, &all_live).expect("regions is nonzero");
            regions[home].stats.switches += 1;
            data_rounds = data_rounds.max(s.rounds.len() as u32);
            lanes.insert(s.source, Lane::new(s, home, cfg));
        }
        Fleet {
            cfg: *cfg,
            global: Arc::new(SampleStore::new()),
            regions,
            lanes,
            round: 0,
            data_rounds,
        }
    }

    /// Pumps the next round — recover due regions, re-shard, pump and
    /// judge every lane, forward — and returns `true`; returns `false`
    /// with nothing done once every data and drain round has been pumped.
    pub fn step_round(&mut self) -> bool {
        if self.round >= self.data_rounds + self.cfg.drain_rounds {
            return false;
        }
        self.recover_regions(RECOVERY_ROUNDS);
        self.reshard();
        for lane in self.lanes.values_mut() {
            let verdict = lane.pump(self.round, &self.cfg, &mut self.regions);
            lane.judge(self.round, verdict, &self.global, &mut self.regions);
        }
        self.forward();
        self.round += 1;
        true
    }

    /// Recovers every region that has been down for `downtime` rounds: its
    /// WAL is replayed into the global store and it rejoins the rendezvous
    /// set.
    fn recover_regions(&mut self, downtime: u32) {
        let lanes = &mut self.lanes;
        for region in &mut self.regions {
            if region.recovery_due(self.round, downtime) {
                region.recover(&self.global, self.cfg.region_wal, &mut |source| {
                    if let Some(lane) = lanes.get_mut(&source) {
                        lane.replayed += 1;
                    }
                });
            }
        }
    }

    /// Every lane targets its rendezvous region over the live set.
    fn reshard(&mut self) {
        let live: Vec<bool> = self.regions.iter().map(Region::is_live).collect();
        for lane in self.lanes.values_mut() {
            let target = rendezvous_region(lane.source, &live);
            if target != lane.assigned {
                lane.reshard(target, &mut self.regions);
            }
        }
    }

    /// End of round: each live region's durability point. Its flush acks
    /// model the reliable control channel (applied directly, not over the
    /// lossy link) — routed only to lanes the region currently serves, so
    /// a re-homed lane never hears from its old aggregator.
    fn forward(&mut self) {
        for (r, region) in self.regions.iter_mut().enumerate() {
            for ack in region.forward(&self.global).unwrap_or_default() {
                if let Some(lane) = self.lanes.get_mut(&ack.source) {
                    if lane.assigned == Some(r) {
                        lane.session.ack(ack);
                    }
                }
            }
        }
    }

    /// The coverage ledger as of now. Every lane first announces its
    /// shipper's transmit watermark to the global tier (the reconnect
    /// handshake), so batches assigned but never delivered anywhere show
    /// up as gaps, not silence, in the one ledger snapshot the columns are
    /// read from.
    pub fn coverage(&self) -> CoverageLedger {
        for lane in self.lanes.values() {
            self.global
                .note_watermark(lane.source, lane.shipper().next_seq());
        }
        let ledger = self.global.ledger();
        let switches = self
            .lanes
            .values()
            .map(|lane| SwitchCoverage {
                source: lane.source,
                state: lane.health.state,
                produced: lane.produced,
                stored: ledger.received_count(lane.source),
                contiguous: ledger.contiguous(lane.source),
                missing: ledger
                    .gaps(lane.source)
                    .iter()
                    .map(|&(lo, hi)| hi - lo + 1)
                    .sum(),
                excluded: lane.excluded,
                refused: lane.refused,
                acked: lane.shipper().cum_acked(),
                resharded: lane.resharded,
                replayed: lane.replayed,
                quarantines: lane.health.quarantines,
                probes: lane.health.probes,
                rejoins: lane.health.rejoins,
            })
            .collect();
        CoverageLedger { switches }
    }

    /// Per-region stats as of now, indexed by region id; refusals and
    /// rejoins are booked to each switch's home region.
    pub fn regions(&self) -> Vec<RegionStats> {
        let mut stats: Vec<RegionStats> = self.regions.iter().map(Region::stats).collect();
        for lane in self.lanes.values() {
            stats[lane.home].refused += lane.refused;
            stats[lane.home].rejoins += lane.health.rejoins;
        }
        stats
    }

    /// Ends the run. The final failover sweep recovers any region still
    /// down, so everything it ever acked reaches the global store before
    /// coverage is judged — no crash offset loses acked data.
    pub fn finish(mut self) -> FleetOutcome {
        self.recover_regions(0);
        FleetOutcome {
            coverage: self.coverage(),
            regions: self.regions(),
            region_record_ends: self.regions.iter().map(Region::record_ends).collect(),
            rounds: self.data_rounds,
            store: self.global,
        }
    }
}

/// Runs the fleet aggregation tier over the given switch streams: a
/// crash-free [`Fleet`] stepped to the end.
pub fn run_fleet(streams: Vec<SwitchStream>, cfg: &FleetConfig) -> FleetOutcome {
    run_fleet_with_crashes(streams, cfg, &RegionCrashPlan::none())
}

/// [`run_fleet`] under a [`RegionCrashPlan`]: each listed region's WAL
/// storage dies at its byte offset mid-round, its switches re-shard to
/// the survivors, and after `RECOVERY_ROUNDS` rounds down (or at run
/// end — the final failover sweep) its WAL is recovered into the global
/// store. See the module docs for the invariants this preserves.
pub fn run_fleet_with_crashes(
    streams: Vec<SwitchStream>,
    cfg: &FleetConfig,
    crashes: &RegionCrashPlan,
) -> FleetOutcome {
    let mut fleet = Fleet::new(streams, cfg, crashes);
    while fleet.step_round() {}
    fleet.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::scan_segment;
    use crate::series::Series;
    use crate::ship::GapLedger;
    use crate::wal::{DurableReceiver, MemStorage, RecoveryReport, WalStorage};
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
        // Quarantined at round 2; probes at round 4 (still degraded: back
        // off to round 8), 8 (clean: probe again at once) and 9 (the
        // second clean round rejoins).
        assert_eq!(s1.probes, 3);
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
            participated <= (health::QUARANTINE_AFTER + health::MAX_PROBES) as u64,
            "participated {participated} exceeds quarantine + probe budget"
        );
        // Quarantined at round 2, then every probe fails and the spacing
        // doubles up to its cap: probes at rounds 4, 8, 16, 32 and 64; the
        // next would be round 96, past the stream's 80 rounds.
        assert_eq!(s.probes, 5);
        assert!(s.probes <= health::MAX_PROBES as u64);
        assert_eq!(participated, health::QUARANTINE_AFTER as u64 + s.probes);
        assert_eq!(s.rejoins, 0);
        assert_eq!(out.coverage.included(), 0);
    }

    #[test]
    fn probe_count_spans_quarantines() {
        // Degraded for rounds 0–5, rejoined at round 9 after 3 probes,
        // then degraded again for rounds 20–25: the second quarantine's
        // probes add to the first's, where the budget's count restarts.
        let mut s = stream(1, LinkPlan::IDEAL, 40, 6);
        for round in &mut s.rounds[20..26] {
            round.degraded = true;
        }
        let out = run_fleet(vec![s], &FleetConfig::default());
        let s = &out.coverage.switches[0];
        assert_eq!((s.quarantines, s.rejoins), (2, 2));
        assert_eq!(s.probes, 6);
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
            contiguous: 0,
            missing: 0,
            excluded: 0,
            refused: 0,
            acked: 0,
            resharded: 0,
            replayed: 0,
            quarantines: 0,
            probes: 0,
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

    /// The property a series-free region rests on: an aggregator logs,
    /// acks and forwards a batch without looking inside it, and the one
    /// payload verdict is the global store's. Every switch ships one batch
    /// that repeats an earlier batch's timestamps under a new sequence
    /// number and one whose timestamps run backwards; both are delivered
    /// like any other (retransmitting them forever would not make them
    /// well-formed) and both show up in the global store's quarantine
    /// count — live, and when a crashed region's WAL replays them.
    #[test]
    fn malformed_payloads_are_logged_acked_forwarded_and_quarantined_once() {
        const SWITCHES: u32 = 8;
        const ROUNDS: u32 = 6;
        let build = || -> Vec<SwitchStream> {
            (0..SWITCHES)
                .map(|src| {
                    let mut s = stream(src, LinkPlan::IDEAL, ROUNDS, 0);
                    let first = s.rounds[0].batches[0].samples.ts.clone();
                    s.rounds[2].batches[0].samples.ts = first;
                    let backwards = &mut s.rounds[4].batches[0].samples;
                    backwards.ts = vec![45, 44];
                    backwards.vs = vec![4, 4];
                    s
                })
                .collect()
        };
        let check = |out: &FleetOutcome, at: &str| {
            for s in &out.coverage.switches {
                assert_eq!(s.produced, ROUNDS as u64, "{at}");
                assert_eq!(s.acked, s.produced, "{at}: switch {}", s.source.0);
                assert_eq!(s.stored, s.produced, "{at}: switch {}", s.source.0);
                assert_eq!(
                    s.produced,
                    s.stored + s.excluded + s.refused + s.undelivered(),
                    "{at}: tiling at switch {}",
                    s.source.0
                );
            }
            let stats = out.store.stats();
            assert_eq!(stats.quarantined_batches, 2 * SWITCHES as u64, "{at}");
            assert_eq!(stats.ingested_batches, 4 * SWITCHES as u64, "{at}");
            assert_eq!(out.store.total_samples(), 4 * SWITCHES as usize, "{at}");
        };

        let mut cfg = always_cfg(2);
        cfg.drain_rounds = 10;
        let reference = run_fleet(build(), &cfg);
        check(&reference, "crash-free");
        let batches = (SWITCHES * ROUNDS) as u64;
        let logged: usize = reference.region_record_ends.iter().map(Vec::len).sum();
        assert_eq!(logged as u64, batches, "every batch hit a regional log");
        let forwarded: u64 = reference.regions.iter().map(|r| r.forwarded).sum();
        assert_eq!(forwarded, batches, "and was pushed to the global tier");

        // Kill the busier region after each record of its log in turn
        // (but the last: nothing is written after it, so nothing dies).
        let victim = (0..2)
            .max_by_key(|&r| reference.regions[r].switches)
            .unwrap();
        let homed = reference.regions[victim].switches;
        let ends = &reference.region_record_ends[victim];
        assert_eq!(ends.len(), homed * ROUNDS as usize);
        for (k, &end) in ends[..ends.len() - 1].iter().enumerate() {
            let crash = RegionCrashPlan::kill(victim, end);
            let out = run_fleet_with_crashes(build(), &cfg, &crash);
            let at = format!("crash after record {k}");
            assert_eq!(out.regions[victim].crashes, 1, "{at}");
            check(&out, &at);
            // Dying right after the round's first record leaves exactly
            // that record acked and never forwarded. In round 2 it is the
            // repeated-timestamp batch: replay finds it new to the global
            // tier and refused there — and still counts it replayed.
            if k == 2 * homed {
                assert_eq!(out.regions[victim].replayed, 1, "{at}");
                assert_eq!(out.coverage.replayed(), 1, "{at}");
            }
        }
    }

    #[test]
    fn crash_at_round_zero_region_is_born_dead_and_still_converges() {
        // Budget 0: the region dies before writing its first segment
        // header. Its switches start on the survivor; the (empty) WAL
        // recovers after RECOVERY_ROUNDS; nothing is lost.
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

    /// 512-byte segments: a few rounds of traffic fill one, so a run
    /// rotates and checkpoints many times.
    fn small_segment_cfg(regions: usize) -> FleetConfig {
        FleetConfig {
            regions,
            drain_rounds: 10,
            region_wal: WalConfig {
                segment_max_bytes: 512,
                fsync: FsyncPolicy::Always,
            },
            ..FleetConfig::default()
        }
    }

    /// `(source, seq)` of every clean record on a region's disk, in log
    /// order — what a recovery of it would replay.
    fn disk_records(disk: &MemStorage) -> Vec<(SourceId, u64)> {
        let mut out = Vec::new();
        for index in disk.list().unwrap() {
            let scan = scan_segment(&disk.read(index).unwrap());
            out.extend(scan.records.iter().map(|sb| (sb.batch.source, sb.seq)));
        }
        out
    }

    /// Each source's first sequence number in `records`: its base, where
    /// a recovery of the log adopts it if the base is past 0.
    fn bases(records: &[(SourceId, u64)]) -> BTreeMap<SourceId, u64> {
        let mut bases = BTreeMap::new();
        for &(src, seq) in records {
            bases.entry(src).or_insert(seq);
        }
        bases
    }

    /// Recovers a copy of a region's disk, leaving the disk as it was.
    fn recover_copy(
        disk: &MemStorage,
        cfg: &FleetConfig,
    ) -> (DurableReceiver<MemStorage, GapLedger>, RecoveryReport) {
        let mut copy = MemStorage::new();
        for index in disk.list().unwrap() {
            copy.open_segment(index).unwrap();
            copy.append(&disk.read(index).unwrap()).unwrap();
        }
        DurableReceiver::recover(copy, cfg.region_wal).unwrap()
    }

    /// A region's log holds only what the global store may lack: after
    /// every round each live region's disk is its one open segment, while
    /// its write stream (`wal_bytes`, the crash-plan coordinates) keeps
    /// growing — with and without a crash of region 0 mid-run.
    #[test]
    fn checkpointed_region_log_is_one_open_segment_at_every_round() {
        let cfg = small_segment_cfg(2);
        let build = || -> Vec<SwitchStream> {
            (0..8)
                .map(|s| stream(s, LinkPlan::default(), 20, 0))
                .collect()
        };
        let reference = run_fleet(build(), &cfg);
        let crash = RegionCrashPlan::kill(0, reference.regions[0].wal_bytes / 2);
        for plan in [RegionCrashPlan::none(), crash] {
            let mut fleet = Fleet::new(build(), &cfg, &plan);
            let mut grew = vec![0u64; cfg.regions];
            while fleet.step_round() {
                let stats = fleet.regions();
                for (r, region) in fleet.regions.iter().enumerate() {
                    if !region.is_live() {
                        continue;
                    }
                    let round = fleet.round;
                    assert_eq!(
                        region.disk.list().unwrap().len(),
                        1,
                        "region {r} round {round}"
                    );
                    assert!(
                        region.disk.total_bytes() <= cfg.region_wal.segment_max_bytes,
                        "region {r} round {round}: {} B on disk",
                        region.disk.total_bytes()
                    );
                    if stats[r].recoveries == 0 {
                        assert!(stats[r].wal_bytes >= grew[r], "region {r} round {round}");
                        grew[r] = stats[r].wal_bytes;
                    }
                }
            }
            let out = fleet.finish();
            for (r, stats) in out.regions.iter().enumerate() {
                assert!(
                    grew[r] > 4 * cfg.region_wal.segment_max_bytes as u64,
                    "region {r} wrote only {} B",
                    grew[r]
                );
                assert!(stats.segments_removed >= 4, "region {r}");
            }
            assert_eq!(out.coverage.sample_fraction(), 1.0);
            let (mut csv_ref, mut csv_out) = (Vec::new(), Vec::new());
            reference.store.export_csv(&mut csv_ref).unwrap();
            out.store.export_csv(&mut csv_out).unwrap();
            assert_eq!(csv_ref, csv_out);
        }
    }

    /// Recovery from a checkpointed log. Region 0 dies after several
    /// checkpoints; one of its switches went quiet early, so none of its
    /// records survive on the disk. Recovery replays the suffix — each
    /// other source re-adopted at its checkpoint base — and forgets the
    /// quiet switch, which the re-homing adopts again at its acked prefix.
    /// The quiet switch then resumes in sequence; once its new records
    /// are on the log, a recovery counts it too, at the base the
    /// checkpoint left. The store ends byte-identical to the crash-free run.
    #[test]
    fn checkpointed_region_recovers_a_switch_with_no_surviving_record() {
        const SWITCHES: u32 = 6;
        const ROUNDS: u32 = 16;
        const QUIET: std::ops::Range<u32> = 3..12;
        let cfg = small_segment_cfg(2);
        let live = [true, true];
        // Region 0's last switch in pump order: its record is the last
        // one region 0 logs in a round, so it is in the open segment at
        // the round's checkpoint.
        let quiet = (0..SWITCHES)
            .rev()
            .map(SourceId)
            .find(|&s| rendezvous_region(s, &live) == Some(0))
            .unwrap();
        let build = || -> Vec<SwitchStream> {
            (0..SWITCHES)
                .map(|s| {
                    let mut st = stream(s, LinkPlan::IDEAL, ROUNDS, 0);
                    if SourceId(s) == quiet {
                        for r in QUIET {
                            st.rounds[r as usize].batches.clear();
                        }
                    }
                    st
                })
                .collect()
        };
        let reference = run_fleet(build(), &cfg);
        let produced = (ROUNDS - QUIET.len() as u32) as u64;
        let crash = RegionCrashPlan::kill(0, reference.regions[0].wal_bytes / 2);

        let mut fleet = Fleet::new(build(), &cfg, &crash);
        while fleet.regions[0].is_live() {
            assert!(fleet.step_round(), "region 0 never crashed");
        }
        let crash_round = fleet.round - 1;
        assert!(QUIET.contains(&crash_round), "crash in round {crash_round}");
        assert!(
            fleet.regions()[0].segments_removed > 0,
            "crash before any checkpoint"
        );
        let surviving = disk_records(&fleet.regions[0].disk);
        assert!(!surviving.is_empty());
        assert!(
            surviving.iter().all(|&(src, _)| src != quiet),
            "the quiet switch has a record on the surviving disk"
        );
        // Every surviving source starts past seq 0, at its checkpoint
        // base, and recovery counts one adoption for each.
        let (rec, report) = recover_copy(&fleet.regions[0].disk, &cfg);
        let at_crash = bases(&surviving);
        assert!(at_crash.values().all(|&base| base > 0));
        assert_eq!(report.adoptions, at_crash.len() as u64);
        assert_eq!(report.records, surviving.len() as u64);
        assert_eq!(
            rec.keep().contiguous(quiet),
            0,
            "no record, no ledger entry"
        );
        assert!(rec
            .keep()
            .sources()
            .into_iter()
            .all(|src| at_crash.contains_key(&src)));

        // Step until the quiet switch's first resumed record is logged:
        // the home it came back to logs it at its acked prefix, which a
        // recovery of that log counts as an adoption.
        let base = QUIET.start as u64;
        while fleet.round <= QUIET.end {
            assert!(fleet.step_round());
        }
        assert_eq!(fleet.regions()[0].recoveries, 1);
        let surviving = disk_records(&fleet.regions[0].disk);
        let resumed = bases(&surviving);
        assert_eq!(
            resumed.get(&quiet),
            Some(&base),
            "resumed in sequence at its base"
        );
        let (rec, report) = recover_copy(&fleet.regions[0].disk, &cfg);
        assert_eq!(
            report.adoptions,
            resumed.values().filter(|&&b| b > 0).count() as u64,
            "one adoption per source the log starts past 0, the quiet one included"
        );
        let logged = surviving.iter().filter(|&&(src, _)| src == quiet).count() as u64;
        assert_eq!(rec.keep().contiguous(quiet), base + logged);

        while fleet.step_round() {}
        let out = fleet.finish();
        assert_eq!(out.regions[0].crashes, 1);
        assert_eq!(out.regions[0].recoveries, 1);
        let s = out
            .coverage
            .switches
            .iter()
            .find(|s| s.source == quiet)
            .unwrap();
        assert_eq!(s.produced, produced);
        assert_eq!(s.stored, produced);
        assert_eq!(s.contiguous, produced);
        assert_eq!(s.missing, 0);
        assert!(s.stored >= s.acked);
        assert_eq!(s.resharded, 2, "away and back home");
        assert_eq!(out.coverage.sample_fraction(), 1.0);
        let (mut csv_ref, mut csv_out) = (Vec::new(), Vec::new());
        reference.store.export_csv(&mut csv_ref).unwrap();
        out.store.export_csv(&mut csv_out).unwrap();
        assert_eq!(csv_ref, csv_out, "recovered fleet == crash-free fleet");
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
