//! Extension experiment: crash-safe sample persistence under hostile links.
//!
//! The paper's collection tier streams counter batches from switch-local
//! agents to an aggregation point; in production both halves fail — the
//! collector host dies mid-write and the links between them drop, delay,
//! and duplicate traffic. This harness sweeps the link fault intensity on
//! a fixed shipping session (3 sources, go-back-N shippers, WAL-backed
//! receiver with fsync-always) and, at every intensity, drives a seeded
//! crash sweep across the WAL byte stream, reporting
//!
//! * **recovery coverage** — the fraction of crash points where the
//!   recovered store equals *exactly* the acked prefix (the durability
//!   contract: no acked record lost, no unacked record resurrected),
//! * **tear anatomy** — how many crash points landed mid-record (torn
//!   tails truncated on recovery) vs. on a frame boundary, and
//! * **convergence** — whether resuming the surviving shippers against
//!   the recovered store re-delivers every gap, byte-identical to the
//!   crash-free reference export.
//!
//! Everything is deterministic from the printed seed.
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ext_durability`.

use std::collections::BTreeMap;
use std::io;
use std::iter::zip;

use uburst_core::{
    AckMsg, CrashPlan, DurableStore, FsyncPolicy, LinkPlan, MemStorage, Shipment, SourceId,
    TornStorage, WalConfig, WalStorage, Workload,
};

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::pool::run_jobs;
use crate::report::{write_checks, Table};
use crate::scale::Scale;

const SEED: u64 = 0xD00B_1E55;
const WORK: Workload = Workload {
    sources: 3,
    batches: 16,
    campaign: "durability",
};
/// Small segments so every sweep crosses several rotation boundaries.
const SEGMENT_BYTES: usize = 512;

fn wal_config() -> WalConfig {
    WalConfig {
        segment_max_bytes: SEGMENT_BYTES,
        fsync: FsyncPolicy::Always,
    }
}

/// The session's receiver: one WAL commit per record, `chunks(1)` of each
/// window (under fsync-always the cut where recovery is *exactly* the
/// acked prefix), tracking the highest ack issued per source.
fn receiver<'a, S: WalStorage>(
    ds: &'a mut DurableStore<S>,
    acked: &'a mut BTreeMap<SourceId, u64>,
) -> impl FnMut(Vec<Shipment>, &mut Vec<AckMsg>) -> io::Result<()> + 'a {
    let mut out = Vec::new();
    move |window, acks| {
        for record in window.chunks(1) {
            ds.ingest_group(record, &mut out)?;
            for &(_, ack) in &out {
                let best = acked.entry(ack.source).or_insert(0);
                *best = (*best).max(ack.cum);
                acks.push(ack);
            }
        }
        Ok(())
    }
}

/// One crash sweep at a given link intensity.
struct SweepResult {
    loss_pct: f64,
    ref_ticks: u64,
    retransmits: u64,
    crash_points: usize,
    exact_prefix: usize,
    torn_tails: usize,
    converged: usize,
    total_bytes: u64,
    /// Digest of every per-point outcome, for the determinism replay.
    digest: u64,
}

fn link_plan_at(loss_pct: f64) -> LinkPlan {
    LinkPlan {
        drop_p: loss_pct / 100.0,
        dup_p: loss_pct / 200.0,
        delay_p: (loss_pct / 50.0).min(0.5),
        max_delay_ticks: 3,
    }
}

fn sweep_at(loss_pct: f64, crash_points: usize) -> SweepResult {
    let plan = link_plan_at(loss_pct);
    let link_seed = SEED ^ (loss_pct * 1000.0) as u64;

    // Crash-free reference: establishes the exact byte stream and export.
    let mut ds = DurableStore::create(MemStorage::new(), wal_config()).expect("create");
    let mut session = WORK.session(plan, link_seed);
    let ref_ticks = session
        .run(receiver(&mut ds, &mut BTreeMap::new()))
        .expect("intact storage");
    let retransmits: u64 = session
        .shippers()
        .iter()
        .map(|s| s.stats().retransmits)
        .sum();
    let mut reference_csv = Vec::new();
    ds.store().export_csv(&mut reference_csv).expect("export");
    let total_bytes = ds.wal().total_bytes();
    let record_ends = ds.wal().record_ends().to_vec();

    let crash_plan = CrashPlan::sweep(link_seed, total_bytes, &record_ends, crash_points);
    let mut exact_prefix = 0usize;
    let mut torn_tails = 0usize;
    let mut converged = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a basis
    let mut mix = |v: u64| {
        digest = (digest ^ v).wrapping_mul(0x1000_0000_01b3);
    };
    for &budget in crash_plan.offsets() {
        // Session until the injected crash; the link stream must match the
        // reference run byte-for-byte, so it reuses the same link seed.
        let disk = MemStorage::new();
        let torn = TornStorage::new(disk.clone(), budget);
        let mut acked: BTreeMap<SourceId, u64> = BTreeMap::new();
        let mut session = WORK.session(plan, link_seed);
        if let Ok(mut ds) = DurableStore::create(torn, wal_config()) {
            let crashed = session.run(receiver(&mut ds, &mut acked));
            assert!(crashed.is_err(), "budget {budget} must crash the session");
        }

        let (rec, report) =
            DurableStore::recover(disk, wal_config()).expect("recovery never fails");
        torn_tails += report.torn_tails as usize;
        let exact = (0..WORK.sources).all(|src| {
            rec.store().contiguous(SourceId(src)) == acked.get(&SourceId(src)).copied().unwrap_or(0)
        });
        exact_prefix += exact as usize;

        // Resume: surviving shippers re-deliver every gap over a fresh link.
        for sh in session.shippers() {
            rec.store().note_watermark(sh.source(), sh.next_seq());
        }
        let mut rec = rec;
        let resume_seed = link_seed ^ 0xDEAD;
        session.relink(plan, resume_seed, resume_seed ^ 1);
        session
            .run(receiver(&mut rec, &mut acked))
            .expect("no second crash");
        let mut final_csv = Vec::new();
        rec.store().export_csv(&mut final_csv).expect("export");
        let ok = final_csv == reference_csv && rec.store().stats().missing_batches == 0;
        converged += ok as usize;

        mix(budget);
        mix(report.records);
        mix(report.torn_tails);
        mix(exact as u64);
        mix(ok as u64);
    }

    SweepResult {
        loss_pct,
        ref_ticks,
        retransmits,
        crash_points: crash_plan.len(),
        exact_prefix,
        torn_tails,
        converged,
        total_bytes,
        digest,
    }
}

/// None: the experiment sweeps a shipping session, not a rack.
pub fn campaigns(_: Scale) -> Vec<CampaignSpec> {
    Vec::new()
}

/// Runs the crash sweeps on the pool and renders them.
pub fn render(scale: Scale, _: &[CampaignSpec], _: &[CampaignRun]) -> String {
    let points = match scale {
        Scale::Quick => 48,
        Scale::Full => 200,
    };
    let mut out = format!(
        "extension: crash-safe persistence — recovery coverage vs link faults ({} scale)\n\
         seed {SEED:#x}, {} sources x {} batches, {SEGMENT_BYTES} B segments, fsync=always\n\
         {points} seeded crash points per link intensity (record ends ± 1 + mid-record fill)\n\n",
        scale.label(),
        WORK.sources,
        WORK.batches
    );

    // Each intensity is an independent seeded sweep: fan across the pool.
    // The trailing pair replays the hostile point for the determinism check.
    let sweep_loss = [0.0, 2.0, 10.0, 25.0];
    let mut jobs: Vec<f64> = sweep_loss.to_vec();
    jobs.extend([25.0, 25.0]);
    let mut results = run_jobs(jobs, |loss| sweep_at(loss, points));

    let b = results.pop().expect("replay b");
    let a = results.pop().expect("replay a");
    let deterministic = a.digest == b.digest
        && a.exact_prefix == b.exact_prefix
        && a.torn_tails == b.torn_tails
        && a.ref_ticks == b.ref_ticks;

    let mut t = Table::new(&[
        "loss%",
        "ticks",
        "rexmit",
        "wal_B",
        "crashes",
        "exact",
        "torn",
        "converged",
    ]);
    let mut all_exact = true;
    let mut all_converged = true;
    let mut any_torn = false;
    for r in &results {
        all_exact &= r.exact_prefix == r.crash_points;
        all_converged &= r.converged == r.crash_points;
        any_torn |= r.torn_tails > 0;
        t.row(&[
            format!("{:.1}", r.loss_pct),
            format!("{}", r.ref_ticks),
            format!("{}", r.retransmits),
            format!("{}", r.total_bytes),
            format!("{}", r.crash_points),
            format!("{}/{}", r.exact_prefix, r.crash_points),
            format!("{}", r.torn_tails),
            format!("{}/{}", r.converged, r.crash_points),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nreading: fsync-always plus a go-back-N receiver makes recovery exact at\n\
         every crash offset — the WAL holds precisely the acked prefix per source,\n\
         torn tails are truncated, and retransmit refills every gap afterwards.\n\
         Link hostility costs only time (ticks, retransmits), never durability.\n\nchecks:\n",
    );
    let claims = format!(
        "every crash point recovers to exactly the acked prefix\n\
         every resumed session converges to the crash-free reference\n\
         the sweep produced mid-record tears (torn-tail coverage)\n\
         replay from seed {SEED:#x} is bit-identical"
    );
    let holds = [all_exact, all_converged, any_torn, deterministic];
    write_checks(&mut out, 2, zip(claims.lines(), holds));
    out
}
