//! Tests of the durable receiver, with the two reference models it must
//! agree with. Kept at `wal::tests` so the test ids survive the split.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::sync::{Arc, Mutex};

use super::*;
use crate::batch::{Batch, SourceId};
use crate::series::Series;
use crate::ship::{AckMsg, GapLedger, SeqBatch};
use crate::store::{SampleStore, SeqIngest};
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

/// `sb` alone as a delivery window: one commit per record.
fn ingest<K: Keep>(
    ds: &mut DurableReceiver<impl WalStorage, K>,
    sb: &SeqBatch,
) -> io::Result<(SeqIngest, AckMsg)> {
    let mut out = Vec::new();
    ds.ingest_group(std::slice::from_ref(sb), &mut out)?;
    Ok(out[0])
}

#[test]
fn append_recover_round_trips() {
    let storage = MemStorage::new();
    let mut ds = DurableStore::create(storage.clone(), WalConfig::default()).unwrap();
    for i in 0..10 {
        let (outcome, ack) = ingest(&mut ds, &sb(i, 0, 100 * (i + 1))).unwrap();
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
        ingest(&mut ds, &sb(i, 0, 100 * (i + 1))).unwrap();
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
    ingest(&mut ds, &sb(0, 0, 100)).unwrap();
    let bytes_once = ds.wal().total_bytes();
    let (outcome, ack) = ingest(&mut ds, &sb(0, 0, 100)).unwrap();
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
    let (_, a0) = ingest(&mut ds, &sb(0, 0, 100)).unwrap();
    let (_, a1) = ingest(&mut ds, &sb(1, 0, 200)).unwrap();
    assert_eq!(a0.cum, 0, "unsynced: ack withheld");
    assert_eq!(a1.cum, 0);
    let (_, a2) = ingest(&mut ds, &sb(2, 0, 300)).unwrap();
    assert_eq!(a2.cum, 3, "third record triggers the covering sync");
    let (_, a3) = ingest(&mut ds, &sb(3, 0, 400)).unwrap();
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
        ingest(&mut ds, &sb(i, 0, 100 * (i + 1))).unwrap();
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
    ingest(&mut probe, &sb(0, 0, 100)).unwrap();
    ingest(&mut probe, &sb(1, 0, 200)).unwrap();
    // Die a few bytes into the second record.
    let budget = probe.wal().record_ends()[0] + 5;
    let mut ds =
        DurableStore::create(TornStorage::new(disk.clone(), budget), WalConfig::default()).unwrap();
    assert_eq!(ingest(&mut ds, &sb(0, 0, 100)).unwrap().1.cum, 1);
    assert!(
        ingest(&mut ds, &sb(1, 0, 200)).is_err(),
        "the write was torn"
    );
    // The contract: `ds` is dead from here on. Its memory ran ahead of
    // the log, which is why it may not answer the redelivery.
    assert_eq!(ds.store().contiguous(SourceId(0)), 2);
    drop(ds);

    let (mut rec, report) = DurableStore::recover(disk, WalConfig::default()).unwrap();
    assert_eq!((report.records, report.torn_tails), (1, 1));
    let (outcome, ack) = ingest(&mut rec, &sb(0, 0, 100)).unwrap();
    assert_eq!(outcome, SeqIngest::Duplicate);
    assert_eq!(ack.cum, 1, "redelivery is acked at the durable prefix");
    let (outcome, ack) = ingest(&mut rec, &sb(1, 0, 200)).unwrap();
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
            ingest(&mut ds, &sb(i, 3, 50 * (i + 1))).unwrap();
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

/// The directory half of durability: a checkpoint's removals and the new
/// segments it leaves are directory entries, synced with the directory.
/// On disk the checkpointed log is its open segment alone, and it
/// recovers a suffix: every source with a record left is re-adopted at
/// the first one, a source whose records all went is forgotten, and
/// re-adopting it at the shipper's acked prefix resumes it in sequence.
#[test]
fn dir_storage_checkpoint_keeps_the_open_segment_and_recovers() {
    let dir = std::env::temp_dir().join(format!(
        "uburst-wal-test-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = fs::remove_dir_all(&dir);
    let cfg = WalConfig {
        segment_max_bytes: 512,
        fsync: FsyncPolicy::Always,
    };
    {
        let storage = DirStorage::open(&dir).unwrap();
        let mut ds = DurableReceiver::<_, GapLedger>::create(storage, cfg).unwrap();
        for i in 0..2 {
            ingest(&mut ds, &sb(i, 5, 50 * (i + 1))).unwrap();
        }
        for i in 0..20 {
            ingest(&mut ds, &sb(i, 3, 50 * (i + 1))).unwrap();
            ingest(&mut ds, &sb(i, 4, 50 * (i + 1))).unwrap();
        }
        ds.flush().unwrap();
        let before = ds.wal().storage().list().unwrap();
        assert!(before.len() > 2, "rotation happened");
        assert_eq!(ds.checkpoint().unwrap(), before.len() as u64 - 1);
        assert_eq!(
            ds.wal().storage().list().unwrap(),
            before[before.len() - 1..],
            "only the open segment is left"
        );
        assert_eq!(ds.checkpoint().unwrap(), 0, "nothing closed to remove");
        assert_eq!(
            ds.wal().record_ends().len(),
            42,
            "removed records still counted"
        );
    } // writer gone; the open segment remains
    let storage = DirStorage::open(&dir).unwrap();
    assert_eq!(storage.list().unwrap().len(), 1);
    let (mut rec, report) = DurableReceiver::<_, GapLedger>::recover(storage, cfg).unwrap();
    assert!(report.records > 0 && report.records < 40);
    assert_eq!(report.segments, 1);
    assert_eq!(report.torn_tails, 0);
    assert_eq!(report.adoptions, 2, "both kept sources start past seq 0");
    assert_eq!(
        report.duplicates, 0,
        "a checkpoint base is adoption, not a bug"
    );
    assert_eq!(rec.keep().contiguous(SourceId(3)), 20);
    assert_eq!(rec.keep().contiguous(SourceId(4)), 20);
    assert_eq!(rec.keep().contiguous(SourceId(5)), 0, "forgotten");
    rec.adopt_source(SourceId(5), 2);
    let (outcome, ack) = ingest(&mut rec, &sb(2, 5, 150)).unwrap();
    assert_eq!(outcome, SeqIngest::Stored);
    assert_eq!(ack.cum, 3);
    drop(rec);
    fs::remove_dir_all(&dir).unwrap();
}

/// A real storage failure is the backend's own `io::Error`, returned as
/// it is — not wrapped, and not mistaken for an injected crash.
#[test]
fn a_storage_error_reaches_the_caller_unwrapped() {
    let dir = std::env::temp_dir().join(format!(
        "uburst-wal-test-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = fs::remove_dir_all(&dir);
    let storage = DirStorage::open(&dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    let err = DurableStore::create(storage, WalConfig::default())
        .err()
        .expect("the directory is gone");
    assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
    assert!(!crate::failpoint::is_injected_crash(&err));
}

/// A dead process deletes nothing: after its crash a torn storage refuses
/// `remove` like every other write, and the segment stays.
#[test]
fn torn_storage_refuses_remove_after_its_crash() {
    let disk = MemStorage::new();
    let mut torn = crate::failpoint::TornStorage::new(disk.clone(), 4);
    torn.open_segment(0).unwrap();
    torn.append(&[1, 2, 3]).unwrap();
    torn.open_segment(1).unwrap();
    torn.remove(0).unwrap();
    assert_eq!(disk.list().unwrap(), vec![1]);
    assert!(torn.append(&[4, 5]).is_err(), "budget crosses: crash");
    let err = torn.remove(1).unwrap_err();
    assert!(crate::failpoint::is_injected_crash(&err));
    assert_eq!(disk.list().unwrap(), vec![1]);
}

/// The load-bearing identity behind group commit: for any window
/// partition, `ingest_group` produces the same physical byte stream,
/// the same record-end coordinates, the same outcomes, and the same
/// ack values as one-record windows — under every fsync policy and
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

        let per_acks: Vec<_> = batches
            .iter()
            .map(|b| ingest(&mut per, b).unwrap())
            .collect();

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

/// A deep copy of a disk image (cloning a [`MemStorage`] shares it).
fn copy_image(disk: &MemStorage) -> MemStorage {
    let mut copy = MemStorage::new();
    for index in disk.list().unwrap() {
        copy.open_segment(index).unwrap();
        copy.append(&disk.read(index).unwrap()).unwrap();
    }
    copy
}

/// The two keeps are one receiver. The same hostile session, with one
/// stream adopted ahead of its prefix mid-run, goes window by window into
/// a receiver that keeps a store and one that keeps only a ledger: every
/// outcome and ack, every log byte and the ledger itself must agree — and
/// so must recovery from the same tear of either log. The one field a
/// ledger cannot reproduce is [`RecoveryReport::quarantined`]: it never
/// sees a payload (this workload is well-formed, so both read 0).
#[test]
fn store_keep_and_ledger_keep_are_one_receiver() {
    use crate::link::LinkPlan;
    use crate::session::Workload;
    const WORK: Workload = Workload {
        sources: 3,
        batches: 24,
        campaign: "keeps",
    };
    // A frame from far ahead of any prefix: discarded, and answered with
    // the ack the source would be sent right now.
    let probe = |source: u32| SeqBatch {
        seq: 1 << 40,
        watermark: 0,
        batch: WORK.batch(source, 0),
    };
    for fsync in [FsyncPolicy::Always, FsyncPolicy::EveryN(16)] {
        for seed in 0..8u64 {
            let at = format!("{fsync:?} seed {seed}");
            let cfg = WalConfig {
                segment_max_bytes: 2048, // rotates several times a run
                fsync,
            };
            let (store_disk, ledger_disk) = (MemStorage::new(), MemStorage::new());
            let mut with_store = DurableStore::create(store_disk.clone(), cfg).unwrap();
            let mut with_ledger: DurableReceiver<_, GapLedger> =
                DurableReceiver::create(ledger_disk.clone(), cfg).unwrap();
            let (mut stored, mut ledgered) = (Vec::new(), Vec::new());
            let mut tick = 0u32;
            WORK.session(LinkPlan::HOSTILE, seed)
                .run(|window, acks| {
                    tick += 1;
                    if tick == 6 {
                        // Two batches of source 1 are "durable elsewhere".
                        let upto = with_ledger.keep().contiguous(SourceId(1)) + 2;
                        with_store.adopt_source(SourceId(1), upto);
                        with_ledger.adopt_source(SourceId(1), upto);
                    }
                    with_store.ingest_group(&window, &mut stored)?;
                    with_ledger.ingest_group(&window, &mut ledgered)?;
                    assert_eq!(stored, ledgered, "{at} tick {tick}");
                    acks.extend(stored.iter().map(|&(_, ack)| ack));
                    if tick % 7 == 6 {
                        let released = with_store.flush()?;
                        assert_eq!(released, with_ledger.flush()?, "{at} tick {tick}");
                        acks.extend(released);
                    }
                    Ok::<(), io::Error>(())
                })
                .unwrap();
            assert!(tick > 6, "{at}: the adoption happened mid-run");
            assert_eq!(with_store.flush().unwrap(), with_ledger.flush().unwrap());
            assert_eq!(
                with_store.wal().record_ends(),
                with_ledger.wal().record_ends()
            );
            let segments = store_disk.list().unwrap();
            assert!(segments.len() > 2, "{at}: {} segments", segments.len());
            assert_eq!(segments, ledger_disk.list().unwrap());
            for &index in &segments {
                assert_eq!(
                    store_disk.read(index).unwrap(),
                    ledger_disk.read(index).unwrap(),
                    "{at}: segment {index}"
                );
            }
            assert_eq!(
                with_store.store().ledger().to_string(),
                with_ledger.keep().to_string(),
                "{at}"
            );
            drop((with_store, with_ledger));

            // Recover both keeps from the same image (the two logs are
            // byte-identical): untorn, torn inside the last record, a few
            // records back, and in the middle of the log (which leaves a
            // forward jump for replay to re-adopt).
            let last = *segments.last().unwrap();
            let last_len = store_disk.read(last).unwrap().len();
            let first_len = store_disk.read(segments[0]).unwrap().len();
            for (index, len) in [
                (last, last_len),
                (last, last_len - 1),
                (last, last_len - last_len / 3),
                (segments[0], first_len / 2),
            ] {
                let at = format!("{at} torn {index}@{len}");
                let torn = || {
                    let mut image = copy_image(&store_disk);
                    image.truncate(index, len).unwrap();
                    image
                };
                let (mut rec_store, store_report) = DurableStore::recover(torn(), cfg).unwrap();
                let (mut rec_ledger, ledger_report) =
                    DurableReceiver::<_, GapLedger>::recover(torn(), cfg).unwrap();
                assert_eq!(
                    RecoveryReport {
                        quarantined: 0,
                        ..store_report
                    },
                    ledger_report,
                    "{at}"
                );
                assert!(store_report.records > 0 && store_report.adoptions > 0);
                for source in 0..WORK.sources {
                    assert_eq!(
                        ingest(&mut rec_store, &probe(source)).unwrap(),
                        ingest(&mut rec_ledger, &probe(source)).unwrap(),
                        "{at}: first ack of source {source}"
                    );
                }
                assert_eq!(
                    rec_store.store().ledger().to_string(),
                    rec_ledger.keep().to_string(),
                    "{at}"
                );
            }
        }
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

    fn receive(&mut self, source: SourceId, seq: u64) -> (SeqIngest, AckMsg) {
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
                            expect.push(model.receive(source, seq));
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

/// Every byte of a disk image, segment by segment.
fn image(disk: &MemStorage) -> Vec<(u64, Vec<u8>)> {
    let segments = disk.list().unwrap();
    segments
        .into_iter()
        .map(|index| (index, disk.read(index).unwrap()))
        .collect()
}

/// Whether a window owns its batches or shares them with a shipper
/// ([`crate::ship::Shipment`]) is invisible to the receiver: the same
/// windows, one receiver fed owned records and one fed shared ones, give
/// the same outcomes, acks, log bytes, frames and stored series — also
/// for redeliveries, arrivals ahead of the prefix and quarantined
/// payloads.
#[test]
fn owned_and_shared_windows_are_one_receiver() {
    use crate::segment::frame_record_into;
    use crate::ship::Shipment;
    use crate::store::SampleStore;
    use uburst_sim::rng::Rng;
    let policies = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(1),
        FsyncPolicy::EveryN(3),
        FsyncPolicy::EveryN(16),
    ];
    const SOURCES: u64 = 5;
    for fsync in policies {
        let cfg = WalConfig {
            segment_max_bytes: 1024, // rotates several times a run
            fsync,
        };
        let (owned_disk, shared_disk) = (MemStorage::new(), MemStorage::new());
        let mut owned = DurableStore::create(owned_disk.clone(), cfg).unwrap();
        let mut shared = DurableStore::create(shared_disk.clone(), cfg).unwrap();
        let (owned_store, shared_store) = (SampleStore::new(), SampleStore::new());
        let (mut owned_acks, mut shared_acks) = (Vec::new(), Vec::new());
        let (mut owned_frames, mut shared_frames) = (Vec::new(), Vec::new());
        let mut next = [0u64; SOURCES as usize];
        let mut rng = Rng::new(0x5A4E);
        let mut quarantined = 0;
        for step in 0..400 {
            let at = format!("{fsync:?} step {step}");
            if rng.below(8) == 0 {
                assert_eq!(owned.flush().unwrap(), shared.flush().unwrap(), "{at}");
                continue;
            }
            let mut window: Vec<SeqBatch> = Vec::new();
            for _ in 0..=rng.below(5) {
                let source = rng.below(SOURCES) as usize;
                let seq = match rng.below(10) {
                    0 => rng.below(next[source] + 1),
                    1 => next[source] + 1 + rng.below(3),
                    _ => next[source],
                };
                if seq == next[source] {
                    next[source] += 1;
                }
                // Now and then a payload whose timestamps land on ones
                // already stored: quarantined on both sides.
                let base_t = match rng.below(16) {
                    0 => 10 * rng.below(seq + 1) + 10,
                    _ => 10 * (seq + 1),
                };
                window.push(sb(seq, source as u32, base_t));
            }
            let shares: Vec<Shipment> = window
                .iter()
                .map(|owned| SeqBatch {
                    seq: owned.seq,
                    watermark: owned.watermark,
                    batch: Arc::new(owned.batch.clone()),
                })
                .collect();
            owned.ingest_group(&window, &mut owned_acks).unwrap();
            shared.ingest_group(&shares, &mut shared_acks).unwrap();
            assert_eq!(owned_acks, shared_acks, "{at}");
            for (o, s) in window.iter().zip(&shares) {
                let outcome = owned_store.ingest_seq(o);
                assert_eq!(outcome, shared_store.ingest_seq(s), "{at}");
                quarantined += outcome.is_err() as u32;
                owned_frames.clear();
                shared_frames.clear();
                frame_record_into(o, &mut owned_frames);
                frame_record_into(s, &mut shared_frames);
                assert_eq!(owned_frames, shared_frames, "{at}");
            }
        }
        assert_eq!(owned.flush().unwrap(), shared.flush().unwrap());
        assert!(
            owned_disk.list().unwrap().len() > 2,
            "{fsync:?}: no rotation"
        );
        assert_eq!(image(&owned_disk), image(&shared_disk), "{fsync:?}");
        assert!(quarantined > 0, "{fsync:?}: no payload was quarantined");
        let stored = |store: &SampleStore| {
            let mut csv = Vec::new();
            store.export_csv(&mut csv).unwrap();
            (csv, store.stats(), store.ledger().to_string())
        };
        assert_eq!(stored(&owned.store()), stored(&shared.store()), "{fsync:?}");
        assert_eq!(stored(&owned_store), stored(&shared_store), "{fsync:?}");
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
    fn open_segment_sized(&mut self, index: u64, max_bytes: usize) -> io::Result<()> {
        self.inner.open_segment_sized(index, max_bytes)
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
    fn remove(&mut self, index: u64) -> io::Result<()> {
        self.inner.remove(index)
    }
}

#[test]
fn commit_group_coalesces_physical_writes_and_syncs() {
    // Under Always, one-record windows physically sync per record; a
    // wider window must reach the same durable, fully-acked state with
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
    ingest(&mut ds, &sb(0, 0, 100)).unwrap();
    // Seq 1 carries timestamps duplicating seq 0's: quarantined, but
    // logged and acked (it was delivered; retransmitting it forever
    // would not make it well-formed).
    let (outcome, ack) = ingest(&mut ds, &sb(1, 0, 100)).unwrap();
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
    let (outcome, ack) = ingest(&mut ds, &sb(7, 0, 100)).unwrap();
    assert_eq!(outcome, SeqIngest::Stored);
    assert_eq!(ack.cum, 8);
    // A straggling redelivery from inside the adopted range is
    // re-acked without being logged.
    let bytes = ds.wal().total_bytes();
    let (outcome, ack) = ingest(&mut ds, &sb(3, 0, 50)).unwrap();
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
    let (_, a0) = ingest(&mut ds, &sb(0, 0, 100)).unwrap();
    let (_, a1) = ingest(&mut ds, &sb(1, 0, 200)).unwrap();
    assert_eq!((a0.cum, a1.cum), (0, 0), "unsynced: acks withheld");
    // A re-adoption at the shipper's acked prefix (0 — nothing acked
    // yet) must not leak the stored-but-unsynced records into acks.
    ds.adopt_source(SourceId(0), 0);
    let (_, ack) = ingest(&mut ds, &sb(5, 0, 900)).unwrap(); // reordered probe
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
        ingest(&mut ds, &sb(4 + i, 1, 100 * (i + 1))).unwrap();
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

/// Recovery is blind to the order in which a log first names its sources.
/// A log whose sources first appear in descending id order (each first
/// sighting lands in front of every source already indexed, the worst case
/// for an ordered index) rebuilds exactly what the same records in
/// ascending order rebuild: the ledger's sources, prefixes and gaps, the
/// acks of the next window and of the flush after it, and, for a store,
/// every stored sample.
#[test]
fn recovery_of_a_descending_first_sight_log_equals_the_ascending_one() {
    const SOURCES: u32 = 48;
    const ROUNDS: u64 = 4;
    let cfg = WalConfig {
        segment_max_bytes: 2048, // a few rounds per segment
        fsync: FsyncPolicy::EveryN(1 << 20),
    };
    // Source `s` is adopted at `s % 3` and its last batch announces `s % 4`
    // further sequence numbers that never arrive: a gap at the tail.
    let record = |s: u32, round: u64| {
        let mut r = sb(u64::from(s % 3) + round, s, 1_000 * (round + 1));
        if round == ROUNDS - 1 {
            r.watermark += u64::from(s % 4);
        }
        r
    };
    type Books = Vec<(SourceId, u64, Vec<(u64, u64)>)>;
    fn run<K: Keep>(
        order: &[u32],
        record: impl Fn(u32, u64) -> SeqBatch,
        cfg: WalConfig,
    ) -> (
        DurableReceiver<MemStorage, K>,
        Books,
        Vec<AckMsg>,
        Vec<AckMsg>,
    ) {
        let storage = MemStorage::new();
        let mut ds = DurableReceiver::<_, K>::create(storage.clone(), cfg).unwrap();
        for &s in order {
            ds.adopt_source(SourceId(s), u64::from(s % 3));
        }
        let mut out = Vec::new();
        for round in 0..ROUNDS {
            let window: Vec<SeqBatch> = order.iter().map(|&s| record(s, round)).collect();
            ds.ingest_group(&window, &mut out).unwrap();
            assert!(out.iter().all(|&(o, _)| o == SeqIngest::Stored));
        }
        drop(ds);
        let (mut rec, report) = DurableReceiver::<_, K>::recover(storage, cfg).unwrap();
        assert_eq!(report.records, u64::from(SOURCES) * ROUNDS);
        assert_eq!(
            report.adoptions,
            order.iter().filter(|&&s| s % 3 > 0).count() as u64
        );
        let ledger = rec.keep().ledger();
        let books: Books = ledger
            .sources()
            .into_iter()
            .map(|s| (s, ledger.contiguous(s), ledger.gaps(s)))
            .collect();
        // One more batch per source, in the log's own order: each is acked
        // at the recovered floor until the flush releases it.
        let window: Vec<SeqBatch> = order.iter().map(|&s| record(s, ROUNDS)).collect();
        rec.ingest_group(&window, &mut out).unwrap();
        let mut acks: Vec<AckMsg> = out.iter().map(|&(_, ack)| ack).collect();
        acks.sort_by_key(|ack| ack.source);
        let flushed = rec.flush().unwrap();
        (rec, books, acks, flushed)
    }

    let ascending: Vec<u32> = (0..SOURCES).collect();
    let descending: Vec<u32> = (0..SOURCES).rev().collect();
    let (up, up_books, up_acks, up_flushed) = run::<Arc<SampleStore>>(&ascending, record, cfg);
    let (down, down_books, down_acks, down_flushed) =
        run::<Arc<SampleStore>>(&descending, record, cfg);
    assert!(up_books.iter().map(|b| b.0).eq((0..SOURCES).map(SourceId)));
    assert!(up_books.iter().any(|b| !b.2.is_empty()), "tail gaps exist");
    assert_eq!(down_books, up_books);
    assert!(up_acks
        .iter()
        .all(|ack| ack.cum == u64::from(ack.source.0 % 3) + ROUNDS));
    assert_eq!(down_acks, up_acks);
    assert_eq!(up_flushed.len(), SOURCES as usize);
    assert_eq!(down_flushed, up_flushed);
    let csv = |ds: &DurableStore<MemStorage>| {
        let mut bytes = Vec::new();
        ds.store().export_csv(&mut bytes).unwrap();
        bytes
    };
    assert_eq!(csv(&down), csv(&up), "the same samples stored");

    // A receiver that keeps only the ledger rebuilds the same books.
    let (_, ledger_books, ledger_acks, ledger_flushed) = run::<GapLedger>(&descending, record, cfg);
    assert_eq!(ledger_books, up_books);
    assert_eq!(ledger_acks, up_acks);
    assert_eq!(ledger_flushed, up_flushed);
}
