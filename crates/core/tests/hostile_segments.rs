//! Hostile segment bytes: a WAL image is outside input, and CRC-32 is not
//! a MAC. Seeded mutants of valid segment images — bit flips, truncations,
//! splices, and fields rewritten *with the CRC recomputed* — go through
//! [`scan_segment`] and [`DurableStore::recover`], which must never panic,
//! never size an allocation from a number the bytes do not back, and never
//! hand back a record the clean prefix does not literally contain.

use std::collections::BTreeMap;

use uburst_asic::CounterId;
use uburst_core::batch::{Batch, SourceId};
use uburst_core::segment::{
    crc32, frame_record_into, scan_segment, FRAME_OVERHEAD, SEGMENT_HEADER_LEN,
};
use uburst_core::series::Series;
use uburst_core::ship::SeqBatch;
use uburst_core::wal::{DurableStore, FsyncPolicy, MemStorage, WalConfig, WalStorage};
use uburst_sim::node::PortId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;

const SEEDS: u64 = 32;
const MUTANTS_PER_SEED: usize = 200;
const WAL: WalConfig = WalConfig {
    segment_max_bytes: 1024,
    fsync: FsyncPolicy::Always,
};

/// A few segments of valid log: three sources, every label shape
/// (two-digit ports and histogram bins included), 0 to 5 samples a record.
fn corpus() -> Vec<Vec<u8>> {
    let disk = MemStorage::new();
    let mut ds = DurableStore::create(disk.clone(), WAL).expect("create");
    let mut out = Vec::new();
    for seq in 0..12u64 {
        for source in 0..3u32 {
            let counter = match (seq + source as u64) % 4 {
                0 => CounterId::TxBytes(PortId(10 + source as u16)),
                1 => CounterId::RxSizeHist(PortId(27), 12),
                2 => CounterId::BufferPeak,
                _ => CounterId::Drops(PortId(source as u16)),
            };
            let mut samples = Series::new();
            for k in 0..(seq + source as u64) % 6 {
                samples.push(Nanos(1 + seq * 100 + k), seq * 7 + k);
            }
            let record = SeqBatch {
                seq,
                watermark: seq + 1,
                batch: Batch {
                    source: SourceId(source),
                    campaign: "hostile".into(),
                    counter,
                    samples,
                },
            };
            ds.ingest_group(&[record], &mut out)
                .expect("intact storage");
        }
    }
    let segments = disk.list().expect("list");
    assert!(segments.len() >= 3, "the corpus spans several segments");
    segments
        .into_iter()
        .map(|i| disk.read(i).expect("read"))
        .collect()
}

/// `(frame start, payload length)` of every frame of a valid image.
fn frames(image: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    while pos < image.len() {
        let len = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos, len));
        pos += FRAME_OVERHEAD + len;
    }
    out
}

/// Makes the frame at `start` CRC-valid for whatever its length field and
/// payload bytes now say, if the image still holds that many bytes.
fn reseal(image: &mut [u8], start: usize) {
    let len = u32::from_le_bytes(image[start..start + 4].try_into().unwrap()) as usize;
    if let Some(payload) = image.get(start + FRAME_OVERHEAD..start + FRAME_OVERHEAD + len) {
        let crc = crc32(payload);
        image[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// One seeded mutant of `corpus[victim]`.
fn mutate(rng: &mut Rng, corpus: &[Vec<u8>], victim: usize) -> Vec<u8> {
    let mut image = corpus[victim].clone();
    let hostile = [0u64, 1, 2, 0x20, 0x2B, 0x2C, 0x30, 0xFF, 0xFFFF, u64::MAX];
    match rng.below(5) {
        0 => {
            for _ in 0..=rng.below(3) {
                let at = rng.below(image.len() as u64) as usize;
                image[at] ^= 1 << rng.below(8);
            }
        }
        1 => image.truncate(rng.below(image.len() as u64 + 1) as usize),
        2 => {
            let donor = rng.pick(corpus);
            let a = rng.below(donor.len() as u64) as usize;
            let b = a + rng.below((donor.len() - a) as u64 + 1) as usize;
            let at = rng.below(image.len() as u64 + 1) as usize;
            if rng.chance(0.5) {
                image.splice(at..at, donor[a..b].iter().copied());
            } else {
                let end = (at + (b - a)).min(image.len());
                image.splice(at..end, donor[a..b].iter().copied());
            }
        }
        3 => {
            // A payload field (seq, watermark, source, the two string
            // lengths, the sample count, or any byte — label text
            // included) rewritten to a hostile value, CRC made good.
            let (start, len) = *rng.pick(&frames(&image));
            let payload = start + FRAME_OVERHEAD;
            let campaign_len = u16::from_le_bytes([image[payload + 20], image[payload + 21]]);
            let label_len_at = 22 + campaign_len as usize;
            let label_len = u16::from_le_bytes([
                image[payload + label_len_at],
                image[payload + label_len_at + 1],
            ]);
            let n_at = label_len_at + 2 + label_len as usize;
            let (at, width) = match rng.below(8) {
                0 => (0, 8),
                1 => (8, 8),
                2 => (16, 4),
                3 => (20, 2),
                4 => (label_len_at, 2),
                5 => (n_at, 4),
                // A byte of the label text: the parser behind the decoder
                // also reads the CSV dump's looser spellings.
                6 => (label_len_at + 2 + rng.below(label_len as u64) as usize, 1),
                _ => (rng.below(len as u64) as usize, 1),
            };
            let value = if rng.chance(0.7) {
                *rng.pick(&hostile)
            } else {
                rng.next_u64()
            };
            image[payload + at..payload + at + width]
                .copy_from_slice(&value.to_le_bytes()[..width]);
            reseal(&mut image, start);
        }
        _ => {
            // The frame's own length field, shrunk or grown, CRC made good
            // over whatever the new length frames.
            let (start, len) = *rng.pick(&frames(&image));
            let room = image.len() - start - FRAME_OVERHEAD;
            let lied = match rng.below(4) {
                0 => rng.below(len as u64 + 1),
                1 => rng.range(len as u64, room as u64 + 1),
                2 => room as u64 + 1 + rng.below(64),
                _ => u32::MAX as u64,
            };
            image[start..start + 4].copy_from_slice(&(lied as u32).to_le_bytes());
            reseal(&mut image, start);
        }
    }
    image
}

/// What `scan_segment` owes its caller about `image`; returns the highest
/// sequence number per source among the records it handed back.
fn check_scan(image: &[u8], what: &str) -> BTreeMap<SourceId, u64> {
    let scan = scan_segment(image);
    assert!(
        scan.clean_len <= image.len(),
        "{what}: clean_len past the end"
    );
    assert_eq!(
        scan.torn.map_or(image.len(), |t| t.offset),
        scan.clean_len,
        "{what}: the tear starts where the clean prefix ends"
    );
    let mut pos = if scan.clean_len == 0 {
        0
    } else {
        SEGMENT_HEADER_LEN
    };
    let mut top = BTreeMap::new();
    let mut reframed = Vec::new();
    for r in &scan.records {
        let len = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(image[pos + 4..pos + 8].try_into().unwrap());
        let end = pos + FRAME_OVERHEAD + len;
        assert_eq!(
            crc32(&image[pos + FRAME_OVERHEAD..end]),
            crc,
            "{what}: bad CRC returned"
        );
        reframed.clear();
        frame_record_into(r, &mut reframed);
        assert_eq!(
            reframed,
            image[pos..end],
            "{what}: record is not its own bytes"
        );
        assert!(
            r.batch
                .samples
                .ts
                .capacity()
                .max(r.batch.samples.vs.capacity())
                * 16
                <= len,
            "{what}: reserved more samples than the payload holds"
        );
        let best = top.entry(r.batch.source).or_insert(0);
        *best = (*best).max(r.seq);
        pos = end;
    }
    assert_eq!(
        pos, scan.clean_len,
        "{what}: records do not tile the clean prefix"
    );
    // Truncated to its clean prefix, the image scans clean to the same records.
    let again = scan_segment(&image[..scan.clean_len]);
    assert!(again.torn.is_none(), "{what}: damage survived truncation");
    assert_eq!(
        (again.clean_len, again.records.len()),
        (scan.clean_len, scan.records.len())
    );
    top
}

#[test]
fn mutated_segments_never_panic_overreserve_or_return_foreign_records() {
    let corpus = corpus();
    let pristine: Vec<BTreeMap<SourceId, u64>> = corpus
        .iter()
        .map(|image| {
            assert!(scan_segment(image).torn.is_none());
            check_scan(image, "pristine")
        })
        .collect();
    for seed in 0..SEEDS {
        let mut rng = Rng::new(0x5E6_B17E5 ^ seed);
        for m in 0..MUTANTS_PER_SEED {
            let victim = rng.below(corpus.len() as u64) as usize;
            let mutant = mutate(&mut rng, &corpus, victim);
            let what = format!("seed {seed} mutant {m}");
            let mut top = check_scan(&mutant, &what);

            // The same image inside a log: recovery repairs it in place,
            // a second recovery finds nothing left to repair, and no source
            // is acked past the highest sequence number the log holds.
            let mut disk = MemStorage::new();
            for (i, image) in corpus.iter().enumerate() {
                let image = if i == victim { &mutant } else { image };
                disk.open_segment(i as u64).expect("open");
                disk.append(image).expect("append");
                if i != victim {
                    for (&source, &seq) in &pristine[i] {
                        let best = top.entry(source).or_insert(0);
                        *best = (*best).max(seq);
                    }
                }
            }
            let (rec, report) = DurableStore::recover(disk.clone(), WAL).expect("recover");
            assert_eq!(report.segments as usize, corpus.len(), "{what}");
            let ledger = rec.store().ledger();
            for source in ledger.sources() {
                let floor = ledger.contiguous(source);
                let held = top.get(&source).map_or(0, |&seq| seq.saturating_add(1));
                assert!(
                    floor <= held,
                    "{what}: {source:?} acked {floor}, log holds {held}"
                );
            }
            drop(rec);
            let (_, second) = DurableStore::recover(disk, WAL).expect("second recovery");
            assert_eq!(
                (second.torn_tails, second.corrupt_records),
                (0, 0),
                "{what}"
            );
            assert_eq!(second.records, report.records, "{what}");
        }
    }
}
