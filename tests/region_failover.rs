//! Crash-offset sweep for the regional aggregation tier.
//!
//! PR 3 proved the shipping protocol converges over a lossy link; PR 7
//! proved the WAL recovers exactly the acked prefix at every crash byte.
//! This suite composes both with the new failover machinery: a regional
//! aggregator dies at a byte-granular offset of its own WAL, its streams
//! **fail over** to a survivor that adopts each one at the shipper's
//! acked watermark ([`DurableStore::adopt_source`]), the dead region's
//! WAL is later replayed into the global store
//! ([`DurableStore::recover_replay`]), and the merged result must be
//! byte-identical to the run where nothing crashed.
//!
//! Two layers, both swept over ≥ 200 seeded crash offsets:
//!
//! * **Component**: shippers → lossy links → crashable aggregator A, with
//!   an explicit failover to aggregator B at the crash. Asserts the exact
//!   invariants (fsync-always): A recovers *exactly* its acked prefix;
//!   go-back-N resumes from each shipper's (possibly regressed) ack
//!   watermark with no stall and no loss; replaying both WALs into one
//!   global store reproduces the no-crash reference byte for byte.
//! * **Fleet**: [`run_fleet_with_crashes`] per region per offset. Asserts
//!   the coverage ledger tiles (`produced = stored + excluded + refused +
//!   undelivered`) at every offset, the no-acked-loss floor
//!   (`stored >= acked` per switch), crash/recovery/re-shard accounting,
//!   and full byte-identical convergence to the crash-free fleet. Each
//!   region checkpoints its log at every round's forward, so most crashes
//!   recover a suffix of the write stream, not the whole of it.
//!
//! Everything is seeded and single-threaded; `UBURST_THREADS` cannot
//! touch it (the bench suite separately diffs fleet reports across
//! worker-pool widths).

mod common;

use std::collections::BTreeMap;
use std::io;

use common::*;
use uburst::prelude::*;
use uburst::sim::node::PortId;
use uburst::telemetry::wal::WalStorage;
use uburst::telemetry::{is_injected_crash, Fleet, Session, Workload};

const SEED: u64 = 0x0FA1_70FF;
const WORK: Workload = Workload {
    sources: 3,
    batches: 20,
    campaign: "failover",
};
const SOURCES: u32 = WORK.sources;
const BATCHES_PER_SOURCE: u64 = WORK.batches;
const SAMPLES_PER_BATCH: u64 = 4;

/// The workload's shippers, every batch offered, over fresh links.
fn fresh_session() -> Session {
    WORK.session(link_plan(), SEED)
}

/// The aggregator a [`Session`] drives until every batch is acked, or its
/// storage crashes. `acked` records the highest ack the aggregator
/// actually *issued* per source — the durability promises outstanding when
/// it dies (the ack may still be lost on the wire before the shipper sees
/// it).
///
/// One commit per record, `chunks(1)` of each window: under fsync-always
/// this is the cut where "recovery == acked prefix" is *exact* (a torn
/// wider window can leave clean records whose acks were withheld;
/// `tests/crash_recovery.rs` pins the containment story for whole-window
/// commits, and their byte-stream equivalence to this cut).
fn aggregator<'a, S: WalStorage>(
    ds: &'a mut DurableStore<S>,
    acked: &'a mut BTreeMap<SourceId, u64>,
) -> impl FnMut(Vec<Shipment>, &mut Vec<AckMsg>) -> io::Result<()> + 'a {
    let mut out = Vec::new();
    move |window, acks| {
        for record in window.chunks(1) {
            ds.ingest_group(record, &mut out)?;
            out.iter().for_each(|&(_, ack)| issue(acked, acks, ack));
        }
        Ok(())
    }
}

/// The no-crash reference: one aggregator, full session, intact storage.
/// Returns the canonical CSV plus the WAL's byte layout (the crash plan's
/// coordinate system).
fn reference_run() -> (Vec<u8>, u64, Vec<u64>) {
    let mut ds = DurableStore::create(MemStorage::new(), wal_config()).expect("create");
    fresh_session()
        .run(aggregator(&mut ds, &mut BTreeMap::new()))
        .expect("no crash on intact storage");
    let csv = csv(&ds.store());
    let wal = ds.wal();
    (csv, wal.total_bytes(), wal.record_ends().to_vec())
}

/// The component-level failover sweep — the satellite property test plus
/// the exact-recovery tentpole invariant, at every crash offset:
///
/// 1. aggregator A dies at the offset; recovery of its WAL is *exactly*
///    the prefix it acked (fsync-always), per source and in content;
/// 2. survivor B adopts each stream at the shipper's ack watermark — a
///    regression relative to everything sent — and plain go-back-N
///    retransmission converges with no stall, no loss, no double-count;
/// 3. replaying both regions' WALs into one global store reproduces the
///    no-crash reference byte for byte (B's log re-derives its adoption
///    points from the sequence jumps).
#[test]
fn failover_sweep_recovers_acked_prefix_and_converges() {
    let (reference_csv, total_bytes, record_ends) = reference_run();
    assert!(
        total_bytes as usize > 4 * SEGMENT_BYTES,
        "stream too small ({total_bytes} B) to cross segment boundaries"
    );
    let plan = CrashPlan::sweep(SEED, total_bytes, &record_ends, MIN_CRASH_POINTS);
    assert!(
        plan.len() >= MIN_CRASH_POINTS,
        "sweep has only {} crash points",
        plan.len()
    );

    let mut adoptions_seen = 0u64;
    let mut regressions_seen = 0usize;
    for &budget in plan.offsets() {
        // ---- Phase 1: session against A until the injected crash ------
        let a_disk = MemStorage::new();
        let mut session = fresh_session();
        let mut acked_at_a: BTreeMap<SourceId, u64> = BTreeMap::new();
        let crashed =
            match DurableStore::create(TornStorage::new(a_disk.clone(), budget), wal_config()) {
                Ok(mut ds) => session.run(aggregator(&mut ds, &mut acked_at_a)).is_err(),
                Err(e) => {
                    assert!(is_injected_crash(&e), "unexpected real error: {e}");
                    true
                }
            };
        assert!(crashed, "budget {budget} < {total_bytes} must crash A");

        // ---- Exact acked prefix out of A's WAL ------------------------
        // The global store is what downstream figures read; A's replay is
        // its only source for the crashed region's data.
        let global = SampleStore::new();
        let (_a_rec, a_report) =
            DurableStore::recover_replay(a_disk.clone(), wal_config(), &mut |sb: &SeqBatch| {
                global.ingest_seq(sb).expect("replayed records are clean");
            })
            .expect("recovery never fails on torn storage");
        assert_eq!(a_report.duplicates, 0, "the log never holds a seq twice");
        assert_eq!(a_report.adoptions, 0, "A owned every stream from seq 0");
        for src in 0..SOURCES {
            let source = SourceId(src);
            // Under fsync-always each stored record was synced (and its
            // ack releasable) before the next: the durable prefix IS the
            // ack watermark A reached.
            assert_eq!(
                global.contiguous(source),
                acked_at_a.get(&source).copied().unwrap_or(0),
                "crash@{budget}: recovered global store != A's acked prefix for {source:?}"
            );
        }
        let global_csv = csv(&global);
        assert_eq!(
            global_csv,
            prefix_csv(&WORK, &acked_at_a),
            "crash@{budget}: recovered content is not the acked prefix"
        );

        // ---- Phase 2: failover to survivor B --------------------------
        // The shipper's view can lag A's durable watermark (acks were
        // lost on the wire): that is the ack-watermark regression the
        // satellite property is about. B adopts at the *shipper's* view,
        // go-back-N resends everything above it, dedup absorbs overlap
        // with what A already durably holds.
        let b_disk = MemStorage::new();
        let mut b = DurableStore::create(b_disk.clone(), wal_config()).expect("create B");
        for sh in session.shippers() {
            let base = sh.cum_acked();
            if base < acked_at_a.get(&sh.source()).copied().unwrap_or(0) {
                regressions_seen += 1;
            }
            b.adopt_source(sh.source(), base);
        }
        let failover_seed = SEED ^ 0xFA11_0F34;
        session.relink(link_plan(), failover_seed, failover_seed ^ 1);
        session
            .run(aggregator(&mut b, &mut BTreeMap::new()))
            .expect("no second crash on intact storage");
        for sh in session.shippers() {
            assert_eq!(
                b.store().contiguous(sh.source()),
                BATCHES_PER_SOURCE,
                "crash@{budget}: B did not converge for {:?}",
                sh.source()
            );
        }

        // ---- Merge: both WALs replayed into the global store ----------
        let (_b_rec, b_report) =
            DurableStore::recover_replay(b_disk.clone(), wal_config(), &mut |sb: &SeqBatch| {
                global.ingest_seq(sb).expect("replayed records are clean");
            })
            .expect("B's recovery");
        adoptions_seen += b_report.adoptions;
        let merged_csv = csv(&global);
        assert_eq!(
            merged_csv, reference_csv,
            "crash@{budget}: merged failover run != no-crash reference"
        );
        // Ledger tiles: with the shippers' watermarks announced, received
        // + missing covers the assigned range exactly — and nothing is
        // missing after convergence.
        for sh in session.shippers() {
            global.note_watermark(sh.source(), sh.next_seq());
        }
        let ledger = global.ledger();
        for sh in session.shippers() {
            let source = sh.source();
            assert_eq!(
                ledger.received_count(source),
                BATCHES_PER_SOURCE,
                "crash@{budget}: ledger not full for {source:?}"
            );
            assert!(
                ledger.gaps(source).is_empty(),
                "crash@{budget}: gaps after convergence for {source:?}"
            );
        }
    }
    assert!(
        adoptions_seen > 0,
        "the sweep never exercised adoption-point re-derivation from B's log"
    );
    assert!(
        regressions_seen > 0,
        "the sweep never produced an ack-watermark regression — lossy ack \
         path is not doing its job"
    );
}

// ---------------------------------------------------------------------
// Fleet-level sweep
// ---------------------------------------------------------------------

const FLEET_SWITCHES: u32 = 4;
const FLEET_ROUNDS: u32 = 10;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        regions: 2,
        drain_rounds: 12,
        region_wal: WalConfig {
            segment_max_bytes: SEGMENT_BYTES,
            fsync: FsyncPolicy::Always,
        },
        ..FleetConfig::default()
    }
}

fn fleet_streams() -> Vec<SwitchStream> {
    (0..FLEET_SWITCHES)
        .map(|src| {
            let rounds = (0..FLEET_ROUNDS)
                .map(|r| {
                    let mut s = Series::new();
                    for k in 0..SAMPLES_PER_BATCH {
                        s.push(Nanos(1 + r as u64 * 100 + k), r as u64 * 10 + k);
                    }
                    RoundInput {
                        batches: vec![Batch {
                            source: SourceId(src),
                            campaign: "fleet-failover".into(),
                            counter: CounterId::TxBytes(PortId(src as u16)),
                            samples: s,
                        }],
                        degraded: false,
                    }
                })
                .collect();
            SwitchStream {
                source: SourceId(src),
                link: LinkPlan::IDEAL,
                link_seed: SEED ^ src as u64,
                rounds,
            }
        })
        .collect()
}

/// The fleet-level crash-offset sweep: for every region, ≥ 200 byte
/// offsets across its reference WAL stream. At every offset the coverage
/// ledger must tile, no acked batch may be lost, the crash must be fully
/// accounted (crash + recovery + re-shard round trip), and the final
/// store must be byte-identical to the crash-free fleet.
#[test]
fn fleet_crash_offset_sweep_tiles_and_converges() {
    let cfg = fleet_config();
    let reference = run_fleet(fleet_streams(), &cfg);
    let reference_csv = csv(&reference.store);
    assert_eq!(reference.coverage.sample_fraction(), 1.0);
    assert!(
        reference.regions.iter().all(|r| r.switches > 0),
        "rendezvous homed switches on both regions (else the sweep is vacuous)"
    );
    assert!(
        reference.regions.iter().all(|r| r.segments_removed > 0),
        "every region checkpointed a closed segment (else no crash recovers \
         a checkpointed log)"
    );

    for region in 0..cfg.regions {
        let wal_bytes = reference.regions[region].wal_bytes;
        let plan = CrashPlan::sweep(
            SEED ^ region as u64,
            wal_bytes,
            &reference.region_record_ends[region],
            MIN_CRASH_POINTS,
        );
        assert!(
            plan.len() >= MIN_CRASH_POINTS,
            "region {region}: sweep has only {} offsets",
            plan.len()
        );
        for crash in RegionCrashPlan::sweep_region(region, &plan) {
            let offset = crash.budget(region).unwrap();
            let out = run_fleet_with_crashes(fleet_streams(), &cfg, &crash);

            // Crash fully accounted: it happened, it recovered, and the
            // victim's switches made a re-shard round trip.
            assert_eq!(
                out.regions[region].crashes, 1,
                "region {region} crash@{offset}: no crash recorded"
            );
            assert_eq!(
                out.regions[region].recoveries, 1,
                "region {region} crash@{offset}: no recovery"
            );
            assert_eq!(out.regions[1 - region].crashes, 0);
            assert!(
                out.coverage.resharded() > 0,
                "region {region} crash@{offset}: nobody re-sharded"
            );

            // The ledger tiles and never loses acked data — at every
            // single offset.
            for s in &out.coverage.switches {
                assert_eq!(
                    s.produced,
                    s.stored + s.excluded + s.refused + s.undelivered(),
                    "region {region} crash@{offset}: ledger does not tile for switch {}",
                    s.source.0
                );
                assert!(
                    s.stored >= s.acked,
                    "region {region} crash@{offset}: switch {} lost acked data \
                     (stored {} < acked {})",
                    s.source.0,
                    s.stored,
                    s.acked
                );
            }

            // Full convergence: the crash is invisible in the data.
            assert_eq!(
                out.coverage.sample_fraction(),
                1.0,
                "region {region} crash@{offset}: coverage not full"
            );
            let csv = csv(&out.store);
            assert_eq!(
                csv, reference_csv,
                "region {region} crash@{offset}: store != crash-free reference"
            );
        }
    }
}

/// The no-acked-loss floor at **every** round boundary, not only after
/// the final failover sweep: step the fleet by hand (lossy links, so acks
/// lag and retransmits overlap the crash) and read its books after each
/// round. A region's pending buffer is empty at every boundary — forwarded
/// if it is live, gone with the process if it is not — and whenever no
/// region is down the global store's contiguous prefix covers everything
/// any shipper has been acked for.
#[test]
fn stepped_fleet_keeps_the_acked_floor_at_every_round_boundary() {
    let cfg = fleet_config();
    let lossy_streams = || -> Vec<SwitchStream> {
        let mut streams = fleet_streams();
        streams.iter_mut().for_each(|s| s.link = link_plan());
        streams
    };
    let reference = run_fleet(lossy_streams(), &cfg);
    let sweep = CrashPlan::sweep(
        SEED,
        reference.regions[0].wal_bytes,
        &reference.region_record_ends[0],
        MIN_CRASH_POINTS,
    );
    // Crash-free, then an early, a middle and a late offset of the sweep.
    let kills = RegionCrashPlan::sweep_region(0, &sweep);
    let mut plans = vec![RegionCrashPlan::none()];
    plans.extend([1, 3, 5].map(|sixth| kills[sixth * kills.len() / 6].clone()));
    let (mut boundaries, mut outages) = (0u32, 0u32);
    for crashes in &plans {
        let mut fleet = Fleet::new(lossy_streams(), &cfg, crashes);
        let mut rounds = 0u32;
        while fleet.step_round() {
            rounds += 1;
            let regions = fleet.regions();
            assert!(
                regions.iter().all(|r| r.pending == 0),
                "{crashes:?} round {rounds}: a region kept batches it had stored"
            );
            if regions.iter().any(|r| r.crashes > r.recoveries) {
                outages += 1;
                continue;
            }
            boundaries += 1;
            for s in &fleet.coverage().switches {
                assert!(
                    s.contiguous >= s.acked,
                    "{crashes:?} round {rounds}: switch {} acked {} but the global \
                     store is contiguous only to {}",
                    s.source.0,
                    s.acked,
                    s.contiguous
                );
                assert!(s.contiguous <= s.stored);
            }
        }
        assert_eq!(rounds, FLEET_ROUNDS + cfg.drain_rounds);
        assert!(!fleet.step_round(), "a finished fleet has no round left");
        let out = fleet.finish();
        assert_eq!(out.rounds, FLEET_ROUNDS);
        assert_eq!(out.regions[0].crashes, !crashes.is_empty() as u64);
        for s in &out.coverage.switches {
            assert!(s.stored >= s.acked);
        }
    }
    assert!(
        boundaries > 0 && outages > 0,
        "the sweep must see both live boundaries ({boundaries}) and outages ({outages})"
    );
}

/// Concurrent two-region crash sweep: both aggregators die in the same
/// run, at independently swept WAL offsets. `RegionCrashPlan` always
/// carried per-region budgets, but every sweep above kills one region at
/// a time — this is the both-at-once matrix. With no survivor to fail
/// over to while both are down, switches can spend rounds with nowhere
/// to ship; the health policy quarantines them and their batches land in
/// the ledger's *excluded* column — a deliberate, accounted omission, so
/// full convergence is not achievable at every offset pair. What must
/// hold at **every** pair are the durability invariants: each region's
/// crash is fully accounted (crash + recovery), the coverage ledger
/// tiles, no acked batch is lost, and nothing is *silently* dropped —
/// every produced batch ends stored or explicitly excluded, never
/// undelivered. And the store must never *fabricate* data: everything it
/// holds at any offset pair is a subset of the crash-free reference, with
/// the quarantine machinery bounding how much a double outage can exclude
/// (a pair where nothing was excluded must be byte-identical).
#[test]
fn fleet_concurrent_two_region_crash_sweep_tiles() {
    // Both aggregators can be down at once, so shippers may spend whole
    // rounds with nowhere to land batches: give the drain phase more
    // rounds than the one-region sweeps need.
    let cfg = FleetConfig {
        drain_rounds: 40,
        ..fleet_config()
    };
    let reference = run_fleet(fleet_streams(), &cfg);
    let reference_csv = csv(&reference.store);

    // 15×15 offset pairs = 225 concurrent crashes ≥ MIN_CRASH_POINTS.
    let per_region = 15usize;
    let plans: Vec<CrashPlan> = (0..cfg.regions)
        .map(|region| {
            CrashPlan::sweep(
                SEED ^ 0xD0_0B1E ^ region as u64,
                reference.regions[region].wal_bytes,
                &reference.region_record_ends[region],
                per_region,
            )
        })
        .collect();
    let reference_lines: std::collections::BTreeSet<&str> = std::str::from_utf8(&reference_csv)
        .expect("csv utf8")
        .lines()
        .collect();
    let mut pairs = 0usize;
    for &o0 in plans[0].offsets().iter().take(per_region) {
        for &o1 in plans[1].offsets().iter().take(per_region) {
            pairs += 1;
            let crash = RegionCrashPlan::kill(0, o0).and_kill(1, o1);
            let out = run_fleet_with_crashes(fleet_streams(), &cfg, &crash);

            for region in 0..cfg.regions {
                assert_eq!(
                    out.regions[region].crashes, 1,
                    "crash@({o0},{o1}): region {region} crash not recorded"
                );
                assert_eq!(
                    out.regions[region].recoveries, 1,
                    "crash@({o0},{o1}): region {region} did not recover"
                );
            }
            let mut excluded = 0u64;
            for s in &out.coverage.switches {
                assert_eq!(
                    s.produced,
                    s.stored + s.excluded + s.refused + s.undelivered(),
                    "crash@({o0},{o1}): ledger does not tile for switch {}",
                    s.source.0
                );
                assert!(
                    s.stored >= s.acked,
                    "crash@({o0},{o1}): switch {} lost acked data (stored {} < acked {})",
                    s.source.0,
                    s.stored,
                    s.acked
                );
                // Silent loss is forbidden even with zero survivors: by
                // end of drain every batch is stored or in an explicit
                // exclusion column.
                assert_eq!(
                    s.undelivered(),
                    0,
                    "crash@({o0},{o1}): switch {} left batches undelivered",
                    s.source.0
                );
                excluded += s.excluded + s.refused;
            }

            // Quarantine bounds the damage: a double outage may cost each
            // switch a round or two, never the campaign.
            assert!(
                out.coverage.sample_fraction() >= 0.8,
                "crash@({o0},{o1}): double outage excluded too much \
                 (fraction {:.2})",
                out.coverage.sample_fraction()
            );

            // Whatever the store holds is genuine — a subset of the
            // crash-free reference, never replay-corrupted or duplicated.
            let csv = csv(&out.store);
            let csv = std::str::from_utf8(&csv).expect("csv utf8");
            for line in csv.lines() {
                assert!(
                    reference_lines.contains(line),
                    "crash@({o0},{o1}): store holds a line absent from the \
                     crash-free reference: {line:?}"
                );
            }
            // When no batch was deliberately excluded, both WALs' replay
            // must make the double crash invisible in the data.
            if excluded == 0 {
                assert_eq!(
                    csv.as_bytes(),
                    &reference_csv[..],
                    "crash@({o0},{o1}): store != crash-free reference"
                );
            }
        }
    }
    assert!(
        pairs >= MIN_CRASH_POINTS,
        "only {pairs} concurrent crash points"
    );
}

/// Crash runs are as deterministic as clean runs: the same plan twice
/// yields byte-identical coverage text and store content (the CI job
/// additionally diffs the full `ext_fleet` stdout across thread counts).
#[test]
fn fleet_crash_runs_are_deterministic() {
    let cfg = fleet_config();
    let reference = run_fleet(fleet_streams(), &cfg);
    let offset = reference.regions[0].wal_bytes / 3;
    let crash = RegionCrashPlan::kill(0, offset);
    let a = run_fleet_with_crashes(fleet_streams(), &cfg, &crash);
    let b = run_fleet_with_crashes(fleet_streams(), &cfg, &crash);
    assert_eq!(a.coverage.to_string(), b.coverage.to_string());
    assert_eq!(csv(&a.store), csv(&b.store));
}
