//! `store_recover`: the read side of the segment / WAL / store code. Set-up
//! writes seeded records through a `DurableStore` and tears the tail of the
//! last segment; the timed section recovers the store from the image, reads
//! every series back, and round-trips it through CSV.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use uburst_core::batch::SourceId;
use uburst_core::fleet::FleetConfig;
use uburst_core::segment::{crc32, scan_segment};
use uburst_core::ship::SeqBatch;
use uburst_core::store::SampleStore;
use uburst_core::wal::{DurableStore, MemStorage, RecoveryReport, WalConfig, WalStorage};

use super::fleet::{digest_store, expected_digest, generate_rounds, total_samples};
use super::{per_rep, ratio, rep_wall_seconds, self_seconds, Metrics, Rep, Workload};
use crate::trace::Tracer;

/// Bytes cut off the end of the last segment: less than one record, so
/// exactly the final record is torn.
const TORN_BYTES: usize = 37;

/// The recovery workload's size.
#[derive(Debug, Clone)]
pub struct Recover {
    switches: u32,
    rounds: usize,
}

impl Recover {
    /// 320 switches × 16 rounds × 4 counters × 64 samples: 20 480 records,
    /// 1.3 M samples, a ~22 MB log.
    pub fn store() -> Self {
        Recover {
            switches: 320,
            rounds: 16,
        }
    }

    /// 1/16 of the switches (unit-test smoke runs).
    #[cfg(test)]
    pub fn smoke(mut self) -> Self {
        self.switches /= 16;
        self
    }
}

/// The regional aggregators' WAL profile: what the fleet tier writes is
/// what this workload recovers.
fn wal_config() -> WalConfig {
    FleetConfig::default().region_wal
}

/// What `store_recover` generates from the seed.
pub struct RecoverInput {
    /// The crashed disk image (never handed to the program: recovery
    /// repairs what it is given, so each repetition gets a copy).
    image: MemStorage,
    image_bytes: u64,
    /// Highest cumulative ack each source was given before the crash.
    acked: BTreeMap<SourceId, u64>,
    records: u64,
    samples: u64,
    expected_digest: u64,
}

/// A byte-for-byte copy of `image` that shares nothing with it.
fn copy_image(image: &MemStorage) -> MemStorage {
    let mut copy = MemStorage::new();
    for index in image.list().expect("in-memory listing cannot fail") {
        copy.open_segment(index)
            .expect("in-memory open cannot fail");
        copy.append(&image.read(index).expect("listed segment exists"))
            .expect("in-memory append cannot fail");
    }
    copy
}

/// What one repetition recovered.
pub struct Recovered {
    report: RecoveryReport,
    store: Arc<SampleStore>,
    readback_digest: u64,
    csv_bytes: u64,
    imported: SampleStore,
}

impl Workload for Recover {
    type Input = RecoverInput;
    type Prepared = MemStorage;
    type Output = Recovered;

    fn name(&self) -> &'static str {
        "store_recover"
    }

    fn generate(&self, seed: u64, t: &mut Tracer) -> RecoverInput {
        let (polls, rounds) = generate_rounds(seed, self.switches, self.rounds, t);
        let mut image = MemStorage::new();
        let mut acked = BTreeMap::new();
        let mut records = 0;
        t.span("core.wal.write", |_| {
            let mut ds = DurableStore::create(image.clone(), wal_config())
                .expect("in-memory WAL cannot fail");
            let mut out = Vec::new();
            let note = |acked: &mut BTreeMap<SourceId, u64>, source, cum| {
                let slot = acked.entry(source).or_insert(0);
                *slot = (*slot).max(cum);
            };
            for round in 0..self.rounds {
                for (sw, switch_rounds) in rounds.iter().enumerate() {
                    // One delivery window per switch per round: its four
                    // uplink batches, in sequence.
                    let window: Vec<SeqBatch> = switch_rounds[round]
                        .iter()
                        .enumerate()
                        .map(|(c, batch)| {
                            let seq = (round * switch_rounds[round].len() + c) as u64;
                            SeqBatch {
                                seq,
                                watermark: seq + 1,
                                batch: batch.clone(),
                            }
                        })
                        .collect();
                    records += window.len() as u64;
                    ds.ingest_group(&window, &mut out)
                        .expect("in-memory WAL cannot fail");
                    // The crash tears the final window's write, so that
                    // window's acks never leave the aggregator.
                    let final_window = round + 1 == self.rounds && sw + 1 == rounds.len();
                    if !final_window {
                        for (_, ack) in &out {
                            note(&mut acked, SourceId(sw as u32), ack.cum);
                        }
                    }
                }
                // Nor is the last round ever flushed.
                if round + 1 < self.rounds {
                    for ack in ds.flush().expect("in-memory WAL cannot fail") {
                        note(&mut acked, ack.source, ack.cum);
                    }
                }
            }
        });
        let last = *image
            .list()
            .expect("in-memory listing cannot fail")
            .last()
            .expect("the log has a segment");
        let len = image.read(last).expect("listed segment exists").len();
        image
            .truncate(last, len - TORN_BYTES)
            .expect("in-memory truncate cannot fail");
        let image_bytes = image.total_bytes() as u64;
        RecoverInput {
            image,
            image_bytes,
            acked,
            records,
            samples: total_samples(&polls),
            expected_digest: expected_digest(&polls, true),
        }
    }

    fn prepare(&self, input: &RecoverInput) -> MemStorage {
        copy_image(&input.image)
    }

    fn run(&self, _: &RecoverInput, image: MemStorage, t: &mut Tracer) -> Recovered {
        let (ds, report) = t.span("core.wal.recover", |_| {
            DurableStore::recover(image, wal_config()).expect("in-memory recovery cannot fail")
        });
        let store = ds.store();
        let readback_digest = t.span("core.store.readback", |_| digest_store(&store));
        let csv = t.span("core.store.export_csv", |_| {
            let mut csv = Vec::new();
            store
                .export_csv(&mut csv)
                .expect("writing to memory cannot fail");
            csv
        });
        let imported = t.span("core.store.import_csv", |_| {
            SampleStore::import_csv(csv.as_slice()).expect("an exported dump imports")
        });
        Recovered {
            report,
            store,
            readback_digest,
            csv_bytes: csv.len() as u64,
            imported,
        }
    }

    /// The operation is a record. Every record fails if the recovered store
    /// is not exactly the log minus its torn record, if it holds less than
    /// a source was acked, if recovery did not find exactly one torn tail,
    /// or if the CSV round trip changes a sample.
    fn check(&self, input: &RecoverInput, out: Recovered, t: &mut Tracer) -> Rep {
        let r = &out.report;
        let acked_ok = input
            .acked
            .iter()
            .all(|(&source, &cum)| out.store.contiguous(source) >= cum);
        let ok = out.readback_digest == input.expected_digest
            && digest_store(&out.imported) == input.expected_digest
            && acked_ok
            && r.torn_tails == 1
            && r.records == input.records - 1
            && r.corrupt_records == 0
            && r.duplicates == 0
            && r.quarantined == 0;
        t.count("core.wal.records_recovered", r.records);
        t.count("core.wal.torn_tails", r.torn_tails);
        t.count("core.store.csv_bytes", out.csv_bytes);
        Rep {
            digest: out.readback_digest,
            attempted: input.records,
            failed: if ok { 0 } else { input.records },
        }
    }

    fn layers(&self, input: &RecoverInput, traced: &Tracer, reps: u32, m: &mut Metrics) -> u64 {
        let wall = rep_wall_seconds(traced);
        let n = f64::from(reps.max(1));
        let recover_s = self_seconds(traced, "core.wal.recover") / n;
        let export_s = self_seconds(traced, "core.store.export_csv") / n;
        let import_s = self_seconds(traced, "core.store.import_csv") / n;
        let csv_mb = per_rep(traced, "core.store.csv_bytes", reps) / 1e6;
        m.insert("core.wal.recover_frac", traced.share("core.wal.recover"));
        m.insert(
            "core.store.readback_frac",
            traced.share("core.store.readback"),
        );
        m.insert(
            "core.store.export_csv_frac",
            traced.share("core.store.export_csv"),
        );
        m.insert(
            "core.store.import_csv_frac",
            traced.share("core.store.import_csv"),
        );
        m.insert(
            "core.wal.recover_mb_per_s",
            ratio(input.image_bytes as f64 / 1e6, recover_s),
        );
        m.insert(
            "core.wal.records_recovered",
            per_rep(traced, "core.wal.records_recovered", reps),
        );
        m.insert(
            "core.wal.torn_tails",
            per_rep(traced, "core.wal.torn_tails", reps),
        );
        m.insert("core.store.export_csv_mb_per_s", ratio(csv_mb, export_s));
        m.insert("core.store.import_csv_mb_per_s", ratio(csv_mb, import_s));
        m.insert(
            "core.store.readback_samples_per_s",
            ratio(
                input.samples as f64,
                self_seconds(traced, "core.store.readback") / n,
            ),
        );
        let batch_s = self_seconds(traced, "core.batch.record");
        m.insert(
            "core.batch.samples_per_s",
            ratio(traced.counted("core.batch.samples") as f64, batch_s),
        );
        m.insert(
            "core.batch.batches_cut",
            traced.counted("core.batch.batches_cut") as f64,
        );

        // Inside recovery: the segment scan (CRC + decode) alone over the
        // same image, and the CRC alone over the same bytes. What is left of
        // the recovery span is the replay into the fresh store.
        let segments: Vec<Vec<u8>> = input
            .image
            .list()
            .expect("in-memory listing cannot fail")
            .into_iter()
            .map(|i| input.image.read(i).expect("listed segment exists"))
            .collect();
        let t0 = Instant::now();
        let mut scanned = 0u64;
        for bytes in &segments {
            scanned += std::hint::black_box(scan_segment(bytes)).records.len() as u64;
        }
        let scan_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for bytes in &segments {
            std::hint::black_box(crc32(bytes));
        }
        let crc_s = t0.elapsed().as_secs_f64();
        m.insert("core.segment.scan_frac", ratio(scan_s, wall));
        m.insert(
            "core.segment.scan_mb_per_s",
            ratio(input.image_bytes as f64 / 1e6, scan_s),
        );
        m.insert(
            "core.segment.decode_records_per_s",
            ratio(scanned as f64, scan_s - crc_s),
        );
        m.insert("core.store.replay_frac", ratio(recover_s - scan_s, wall));
        u64::from(scanned != input.records - 1)
    }
}
