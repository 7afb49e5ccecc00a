//! Crash-recovery property suite for the durable collection tier.
//!
//! A reference shipping session (3 sources × 20 batches over a lossy
//! link, WAL-backed receiver, fsync-always) establishes the exact byte
//! stream the log writes. A seeded [`CrashPlan`] then sweeps ≥ 200 crash
//! offsets across that stream — every record boundary ± 1 byte plus a
//! uniform mid-record fill, so both whole-record and torn-frame tears are
//! hit, across multiple segment rotations. For every crash point the
//! suite asserts the tentpole invariants:
//!
//! 1. **Acked prefix**: recovery yields exactly the batches whose acks
//!    were issued before the crash — per source, no more, no fewer.
//! 2. **CRC-clean**: after torn-tail truncation, a second scan of the log
//!    finds zero damage (nothing that fails CRC survives).
//! 3. **Gap accounting**: once the surviving shippers announce their
//!    transmit watermarks, the ledger's received + missing sets tile the
//!    assigned range exactly.
//! 4. **Convergence**: resuming the session (shipper windows intact,
//!    in-flight link traffic lost with the "cable") re-delivers every
//!    unacked batch; the final store is byte-identical to the no-crash
//!    reference export and the ledger shows no gaps.
//!
//! Everything is seeded; the suite is deterministic and thread-free
//! (clean under `UBURST_THREADS=1`).

mod common;

use std::collections::BTreeMap;
use std::io;

use common::*;
use uburst::prelude::*;
use uburst::telemetry::wal::WalStorage;
use uburst::telemetry::{is_injected_crash, Session, Workload};

const SEED: u64 = 0x5EED_C4A5;
const WORK: Workload = Workload {
    sources: 3,
    batches: 20,
    campaign: "crash",
};
const SOURCES: u32 = WORK.sources;
const BATCHES_PER_SOURCE: u64 = WORK.batches;

/// The workload's shippers, every batch offered, over fresh links.
fn fresh_session() -> Session {
    WORK.session(link_plan(), SEED)
}

/// Reconnects a crashed session's surviving shippers over a new path: the
/// in-flight traffic is lost with the "cable", and the fault pattern of
/// the post-crash half differs from the one the byte layout depends on.
fn resume(session: &mut Session) {
    let seed = SEED ^ 0xDEAD;
    session.relink(link_plan(), seed, seed ^ 1);
}

/// How the aggregator cuts each delivery window into WAL commits: every
/// `window.chunks(cut)` is one [`DurableStore::ingest_group`]. Committing
/// each record alone is the cut where, under fsync-always, recovery is
/// *exactly* the acked prefix; committing the whole window is the fleet
/// aggregator's shape. Every cut issues bit-identical acks: any divergence
/// would desynchronize the seeded ack link's fault pattern and fail the
/// equivalence assertions below.
const PER_RECORD: usize = 1;
const WHOLE: usize = usize::MAX;

/// The receiver a [`Session`] drives until every batch is acknowledged or
/// the store's storage crashes: commits each window in `cut`-record
/// pieces, records the highest ack issued per source in `acked`, and every
/// seventh tick flushes explicitly — under EveryN/Never that is what
/// releases the withheld acks (a real collector would flush on a timer
/// too).
fn receiver<'a, S: WalStorage>(
    ds: &'a mut DurableStore<S>,
    acked: &'a mut BTreeMap<SourceId, u64>,
    cut: usize,
) -> impl FnMut(Vec<Shipment>, &mut Vec<AckMsg>) -> io::Result<()> + 'a {
    let mut tick = 0u64;
    let mut out = Vec::new();
    move |window, acks| {
        let mut send = |ack| issue(acked, acks, ack);
        for piece in window.chunks(cut) {
            ds.ingest_group(piece, &mut out)?;
            out.drain(..).for_each(|(_, ack)| send(ack));
        }
        if tick % 7 == 6 {
            ds.flush()?.into_iter().for_each(send);
        }
        tick += 1;
        Ok(())
    }
}

/// The no-crash reference: full session on intact storage. Returns the
/// canonical CSV export, the WAL's total byte count, and the global byte
/// offset of every record end (the crash plan's coordinate system).
fn reference_run() -> (Vec<u8>, u64, Vec<u64>) {
    let mut ds = DurableStore::create(MemStorage::new(), wal_config()).expect("create");
    let mut acked = BTreeMap::new();
    fresh_session()
        .run(receiver(&mut ds, &mut acked, PER_RECORD))
        .expect("no crash on intact storage");
    for src in 0..SOURCES {
        assert_eq!(
            acked.get(&SourceId(src)),
            Some(&BATCHES_PER_SOURCE),
            "reference run acked everything"
        );
    }
    let csv = csv(&ds.store());
    let wal = ds.wal();
    (csv, wal.total_bytes(), wal.record_ends().to_vec())
}

#[test]
fn reference_session_is_deterministic() {
    let (csv_a, bytes_a, ends_a) = reference_run();
    let (csv_b, bytes_b, ends_b) = reference_run();
    assert_eq!(csv_a, csv_b, "same seed, same store");
    assert_eq!(bytes_a, bytes_b, "same seed, same byte stream");
    assert_eq!(ends_a, ends_b, "same seed, same record layout");
    assert!(
        ends_a.len() as u64 >= SOURCES as u64 * BATCHES_PER_SOURCE,
        "every unique batch hit the log"
    );
}

#[test]
fn every_crash_point_recovers_to_exactly_the_acked_prefix() {
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

    let mut crashes_seen = 0usize;
    let mut torn_tails_seen = 0usize;
    for &budget in plan.offsets() {
        // ---- Session until the injected crash -------------------------
        let disk = MemStorage::new();
        let torn = TornStorage::new(disk.clone(), budget);
        let mut acked: BTreeMap<SourceId, u64> = BTreeMap::new();
        let mut session = fresh_session();
        let crashed = match DurableStore::create(torn, wal_config()) {
            Ok(mut ds) => match session.run(receiver(&mut ds, &mut acked, PER_RECORD)) {
                Ok(_) => false,
                Err(e) => {
                    assert!(is_injected_crash(&e), "unexpected real error: {e}");
                    true
                }
            },
            // Budget below the first segment header: died at birth.
            Err(e) => {
                assert!(is_injected_crash(&e), "unexpected real error: {e}");
                true
            }
        };
        assert!(
            crashed,
            "budget {budget} < {total_bytes} total bytes must crash the session"
        );
        crashes_seen += 1;

        // ---- Recovery from what the "disk" retained -------------------
        let (rec, report) = DurableStore::recover(disk.clone(), wal_config())
            .expect("recovery never fails on torn storage");
        assert_eq!(report.duplicates, 0, "the log never holds a seq twice");
        torn_tails_seen += report.torn_tails as usize;

        // (1) Acked prefix, exactly — per source and in content.
        for src in 0..SOURCES {
            let source = SourceId(src);
            let want = acked.get(&source).copied().unwrap_or(0);
            assert_eq!(
                rec.store().contiguous(source),
                want,
                "crash@{budget}: source {src} recovered ≠ acked"
            );
        }
        let recovered_csv = csv(&rec.store());
        assert_eq!(
            recovered_csv,
            prefix_csv(&WORK, &acked),
            "crash@{budget}: recovered store is not the acked prefix"
        );

        // (2) CRC-clean: a re-scan of the repaired log finds no damage and
        // the same records.
        let (rec2, report2) =
            DurableStore::recover(disk.clone(), wal_config()).expect("second recovery");
        assert_eq!(
            report2.torn_tails, 0,
            "crash@{budget}: damage survived torn-tail truncation"
        );
        assert_eq!(report2.corrupt_records, 0);
        assert_eq!(report2.records, report.records);
        drop(rec2);

        // (3) Gap accounting: with the shippers' watermarks announced,
        // received + missing tile the assigned range exactly.
        for sh in session.shippers() {
            rec.store().note_watermark(sh.source(), sh.next_seq());
        }
        let ledger = rec.store().ledger();
        for sh in session.shippers() {
            let source = sh.source();
            let received = ledger.received_count(source);
            let missing: u64 = ledger
                .gaps(source)
                .iter()
                .map(|&(lo, hi)| hi - lo + 1)
                .sum();
            assert_eq!(
                received + missing,
                ledger.watermark(source),
                "crash@{budget}: ledger does not tile [0, watermark) for {source:?}"
            );
            assert_eq!(
                ledger.watermark(source),
                sh.next_seq(),
                "crash@{budget}: watermark lost in recovery handshake"
            );
        }

        // (4) Convergence: resume with the surviving shippers; retransmit
        // fills every gap; the final store matches the reference exactly.
        let mut rec = rec;
        resume(&mut session);
        session
            .run(receiver(&mut rec, &mut acked, PER_RECORD))
            .expect("no second crash on intact storage");
        let final_csv = csv(&rec.store());
        assert_eq!(
            final_csv, reference_csv,
            "crash@{budget}: resumed session did not converge to the reference"
        );
        let stats = rec.store().stats();
        assert_eq!(
            stats.missing_batches, 0,
            "crash@{budget}: gaps remained after convergence"
        );
        assert_eq!(stats.quarantined_batches, 0, "dedup, not quarantine");
    }
    assert_eq!(crashes_seen, plan.len(), "every point crashed the writer");
    assert!(
        torn_tails_seen > 0,
        "the sweep never produced a torn tail — mid-record coverage is broken"
    );
}

/// How a stream is cut into commit windows must be *invisible* to
/// everything downstream of the WAL's byte stream: a full session
/// committed one record at a time, two, three, or a whole delivery window
/// at a time produces the same acks (so the seeded links draw the same
/// faults), the same store, and the same physical log — byte for byte,
/// under every fsync policy.
#[test]
fn grouped_session_is_byte_identical_to_per_record_session() {
    for fsync in [FsyncPolicy::Always, FsyncPolicy::EveryN(5)] {
        let cfg = WalConfig {
            segment_max_bytes: SEGMENT_BYTES,
            fsync,
        };
        // Every ack issued, in order, and what the session left behind.
        let session_at = |cut: usize| {
            let disk = MemStorage::new();
            let mut ds = DurableStore::create(disk.clone(), cfg).expect("create");
            let (mut acked, mut issued) = (BTreeMap::new(), Vec::new());
            {
                let mut receive = receiver(&mut ds, &mut acked, cut);
                fresh_session()
                    .run(|window, acks: &mut Vec<AckMsg>| {
                        receive(window, acks)?;
                        issued.extend_from_slice(acks);
                        io::Result::Ok(())
                    })
                    .expect("intact storage");
            }
            let segments: Vec<_> = disk
                .list()
                .expect("list")
                .into_iter()
                .map(|idx| (idx, disk.read(idx).expect("read")))
                .collect();
            let ends = ds.wal().record_ends().to_vec();
            (issued, segments, ends, csv(&ds.store()))
        };
        let (per_acks, per_segs, per_ends, per_csv) = session_at(PER_RECORD);
        assert!(per_segs.len() > 4, "{fsync:?}: the log rotates");
        for cut in [2, 3, WHOLE] {
            let (acks, segs, ends, csv) = session_at(cut);
            assert_eq!(acks, per_acks, "{fsync:?} cut {cut}: ack streams diverged");
            assert_eq!(
                ends, per_ends,
                "{fsync:?} cut {cut}: record layout diverged"
            );
            assert_eq!(
                segs, per_segs,
                "{fsync:?} cut {cut}: segment bytes diverged"
            );
            assert_eq!(csv, per_csv, "{fsync:?} cut {cut}: stores diverged");
        }
    }
}

/// The commit-window crash sweep: because the physical byte stream is
/// identical, the bytes a crash retains — and therefore everything
/// recovery rebuilds — must be identical at **every** crash offset,
/// whichever ingest mode was writing when the budget ran out. Grouped
/// acks may lag per-record acks at the crash (a window's acks are
/// withheld if its commit dies), so the ack-side assertion is containment
/// plus the durability floor, not equality.
#[test]
fn every_crash_point_recovers_identically_under_group_commit() {
    let (reference_csv, total_bytes, record_ends) = reference_run();
    let plan = CrashPlan::sweep(SEED, total_bytes, &record_ends, MIN_CRASH_POINTS);
    assert!(plan.len() >= MIN_CRASH_POINTS);

    for (k, &budget) in plan.offsets().iter().enumerate() {
        // Per-record session up to the crash.
        let per_disk = MemStorage::new();
        let mut per_acked: BTreeMap<SourceId, u64> = BTreeMap::new();
        {
            let torn = TornStorage::new(per_disk.clone(), budget);
            if let Ok(mut ds) = DurableStore::create(torn, wal_config()) {
                let _ = fresh_session().run(receiver(&mut ds, &mut per_acked, PER_RECORD));
            }
        }
        // Grouped session up to the same crash.
        let grp_disk = MemStorage::new();
        let mut grp_acked: BTreeMap<SourceId, u64> = BTreeMap::new();
        let mut grp_session = fresh_session();
        let crashed = {
            let torn = TornStorage::new(grp_disk.clone(), budget);
            match DurableStore::create(torn, wal_config()) {
                Ok(mut ds) => grp_session
                    .run(receiver(&mut ds, &mut grp_acked, WHOLE))
                    .is_err(),
                Err(_) => true,
            }
        };
        assert!(crashed, "budget {budget} must crash the grouped writer");

        // The disks retained the same byte prefix, so recovery agrees.
        let (per_rec, per_report) =
            DurableStore::recover(per_disk, wal_config()).expect("recovery");
        let (grp_rec, grp_report) =
            DurableStore::recover(grp_disk, wal_config()).expect("recovery");
        assert_eq!(
            per_report.records, grp_report.records,
            "crash@{budget}: modes recovered different record counts"
        );
        assert_eq!(grp_report.duplicates, 0);
        assert_eq!(
            csv(&per_rec.store()),
            csv(&grp_rec.store()),
            "crash@{budget}: recovered stores diverge between ingest modes"
        );

        // Ack containment + durability floor for the grouped mode.
        for src in 0..SOURCES {
            let source = SourceId(src);
            let grp = grp_acked.get(&source).copied().unwrap_or(0);
            let per = per_acked.get(&source).copied().unwrap_or(0);
            assert!(
                grp <= per,
                "crash@{budget}: grouped acked {grp} > per-record {per} for {source:?}"
            );
            assert!(
                grp_rec.store().contiguous(source) >= grp,
                "crash@{budget}: grouped mode lost an acked record"
            );
        }

        // Spot-check convergence on a stride (full resume per offset would
        // double the suite's runtime for no additional coverage).
        if k % 8 == 0 {
            let mut rec = grp_rec;
            resume(&mut grp_session);
            grp_session
                .run(receiver(&mut rec, &mut grp_acked, WHOLE))
                .expect("no second crash on intact storage");
            let final_csv = csv(&rec.store());
            assert_eq!(
                final_csv, reference_csv,
                "crash@{budget}: grouped resume did not converge"
            );
        }
    }
}

#[test]
fn weaker_policies_still_never_lose_acked_records() {
    // Under EveryN, recovery may hold MORE than was acked (bytes can
    // reach "media" before their covering sync) but never less, and never
    // more than was sent. Sweep a thinner plan over the policy.
    let (_, total_bytes, record_ends) = reference_run();
    let fsync = FsyncPolicy::EveryN(5);
    let cfg = WalConfig {
        segment_max_bytes: SEGMENT_BYTES,
        fsync,
    };
    let plan = CrashPlan::sweep(SEED ^ 0xF5, total_bytes, &record_ends, 50);
    for &budget in plan.offsets().iter().step_by(4) {
        let disk = MemStorage::new();
        let torn = TornStorage::new(disk.clone(), budget);
        let mut acked: BTreeMap<SourceId, u64> = BTreeMap::new();
        if let Ok(mut ds) = DurableStore::create(torn, cfg) {
            let _ = fresh_session().run(receiver(&mut ds, &mut acked, PER_RECORD));
        }
        let (rec, report) = DurableStore::recover(disk, cfg).expect("recovery");
        assert_eq!(report.duplicates, 0);
        for src in 0..SOURCES {
            let source = SourceId(src);
            let got = rec.store().contiguous(source);
            let floor = acked.get(&source).copied().unwrap_or(0);
            assert!(
                got >= floor,
                "{fsync:?} crash@{budget}: acked record lost ({got} < {floor})"
            );
            assert!(
                got <= BATCHES_PER_SOURCE,
                "{fsync:?} crash@{budget}: phantom records"
            );
        }
    }
}
