//! Property-style tests for the collection framework's data-handling
//! invariants: nothing the poller records may be lost, reordered, or
//! double-counted on its way to the store — and narrow-counter wraps must
//! decode back to the true byte stream.
//!
//! Each test drives a seeded `Rng` through a fixed number of randomized
//! cases — deterministic across runs, no external dependencies.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

use uburst_asic::{CounterId, FaultInjector, FaultPlan};
use uburst_core::batch::{Batch, BatchPolicy, Batcher, SourceId};
use uburst_core::poller::RetryPolicy;
use uburst_core::series::{Series, WrapDecoder};
use uburst_core::ship::{SeqBatch, Shipment};
use uburst_core::store::{
    counter_label, QuarantineReason, SampleStore, SeqIngest, SeriesKey, StoreStats,
};
use uburst_sim::node::PortId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;

const CASES: u64 = 48;

fn series_from(points: &[(u64, u64)]) -> Series {
    let mut s = Series::new();
    for &(t, v) in points {
        s.push(Nanos(t), v);
    }
    s
}

#[test]
fn batcher_conserves_every_sample() {
    let mut rng = Rng::new(0xc0_4e_01);
    for _ in 0..CASES {
        let n = rng.range(1, 500) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let max_samples = rng.range(1, 64) as usize;
        let max_age_us = rng.range(1, 10_000);
        let mut b = Batcher::new(
            SourceId(0),
            "prop",
            vec![CounterId::TxBytes(PortId(0))],
            BatchPolicy {
                max_samples,
                max_age: Nanos::from_micros(max_age_us),
            },
        );
        let mut collected: Vec<(u64, u64)> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let t = (i as u64 + 1) * 25_000;
            for batch in b.record(Nanos(t), &[v]) {
                for (bt, bv) in batch.samples.ts.iter().zip(&batch.samples.vs) {
                    collected.push((*bt, *bv));
                }
            }
        }
        for batch in b.flush() {
            for (bt, bv) in batch.samples.ts.iter().zip(&batch.samples.vs) {
                collected.push((*bt, *bv));
            }
        }
        // Exactly the recorded samples, in order.
        assert_eq!(collected.len(), values.len());
        for (i, &(t, v)) in collected.iter().enumerate() {
            assert_eq!(t, (i as u64 + 1) * 25_000);
            assert_eq!(v, values[i]);
        }
    }
}

#[test]
fn series_merge_is_a_sorted_union() {
    let mut rng = Rng::new(0xc0_4e_02);
    for _ in 0..CASES {
        // Build two disjointly-timestamped series (distinct by construction:
        // evens vs odds).
        let na = rng.below(100) as usize;
        let nb = rng.below(100) as usize;
        let pa: Vec<(u64, u64)> = {
            let mut ts: Vec<u64> = (0..na).map(|_| rng.below(1_000_000) * 2).collect();
            ts.sort_unstable();
            ts.dedup();
            ts.into_iter().map(|t| (t + 2, t)).collect()
        };
        let pb: Vec<(u64, u64)> = {
            let mut ts: Vec<u64> = (0..nb).map(|_| rng.below(1_000_000) * 2 + 1).collect();
            ts.sort_unstable();
            ts.dedup();
            ts.into_iter().map(|t| (t + 2, t)).collect()
        };
        let mut merged = series_from(&pa);
        merged.merge_from(&series_from(&pb));
        assert_eq!(merged.len(), pa.len() + pb.len());
        assert!(
            merged.ts.windows(2).all(|w| w[1] >= w[0]),
            "merge must sort"
        );
        // Every original pair survives.
        for (t, v) in pa.iter().chain(&pb) {
            let idx = merged
                .ts
                .iter()
                .position(|x| x == t)
                .expect("timestamp lost");
            assert_eq!(merged.vs[idx], *v);
        }
    }
}

#[test]
fn rates_sum_to_total_delta() {
    let mut rng = Rng::new(0xc0_4e_03);
    for _ in 0..CASES {
        let n = rng.range(2, 200) as usize;
        let deltas: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut s = Series::new();
        let mut total = 0u64;
        for (i, d) in deltas.iter().enumerate() {
            total += d;
            s.push(Nanos((i as u64 + 1) * 25_000), total);
        }
        let sum: u64 = s.rates().map(|r| r.delta).sum();
        let expected: u64 = deltas[1..].iter().sum();
        assert_eq!(sum, expected);
        for r in s.rates() {
            assert!(r.rate >= 0.0);
            assert!(r.t1 > r.t0);
        }
    }
}

#[test]
fn store_merges_batches_in_any_order() {
    let mut rng = Rng::new(0xc0_4e_04);
    for _ in 0..CASES {
        // Build consecutive batches, then ingest them in a shuffled order.
        let n_chunks = rng.range(1, 10) as usize;
        let mut batches = Vec::new();
        let mut t = 0u64;
        let mut all: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n_chunks {
            let chunk_len = rng.range(1, 20) as usize;
            let mut s = Series::new();
            for _ in 0..chunk_len {
                t += 25_000;
                let v = rng.next_u64();
                s.push(Nanos(t), v);
                all.push((t, v));
            }
            batches.push(uburst_core::Batch {
                source: SourceId(1),
                campaign: "prop".into(),
                counter: CounterId::TxBytes(PortId(0)),
                samples: s,
            });
        }
        rng.shuffle(&mut batches);
        let store = SampleStore::new();
        for b in &batches {
            store
                .ingest(b)
                .expect("disjoint batches are never quarantined");
        }
        let got = store
            .series(SourceId(1), CounterId::TxBytes(PortId(0)))
            .expect("series exists");
        assert_eq!(got.len(), all.len());
        assert!(got.ts.windows(2).all(|w| w[1] > w[0]));
        for (i, &(ts, v)) in all.iter().enumerate() {
            assert_eq!(got.ts[i], ts);
            assert_eq!(got.vs[i], v);
        }
    }
}

/// The store as it was specified before it kept batches as chunks: one
/// contiguous [`Series`] per key, grown by [`Series::merge_from`], and the
/// same validation rules, checked the plain way.
#[derive(Default)]
struct StoreModel {
    series: BTreeMap<SeriesKey, Series>,
    stats: StoreStats,
    quarantined: Vec<(QuarantineReason, Batch)>,
    /// Next sequence number per source, for sequenced ingest.
    next_seq: BTreeMap<SourceId, u64>,
}

impl StoreModel {
    fn ingest(&mut self, b: &Batch) -> Result<(), QuarantineReason> {
        let key = SeriesKey {
            source: b.source,
            counter: b.counter,
        };
        let (ts, vs) = (&b.samples.ts, &b.samples.vs);
        let verdict = if ts.is_empty() || ts.len() != vs.len() {
            Err(QuarantineReason::Empty)
        } else if (1..ts.len()).any(|i| ts[i] <= ts[i - 1]) {
            Err(QuarantineReason::NonMonotonic)
        } else if self
            .series
            .get(&key)
            .is_some_and(|s| ts.iter().any(|t| s.ts.contains(t)))
        {
            Err(QuarantineReason::DuplicateTimestamp)
        } else {
            Ok(())
        };
        match verdict {
            Ok(()) => {
                self.series.entry(key).or_default().merge_from(&b.samples);
                self.stats.ingested_batches += 1;
            }
            Err(reason) => {
                self.stats.quarantined_batches += 1;
                self.quarantined.push((reason, b.clone()));
            }
        }
        verdict
    }

    /// A sequenced delivery of `b` as `seq`: a sequence number already
    /// received is a duplicate, the next one is ingested.
    fn ingest_seq(&mut self, b: &Batch, seq: u64) -> Result<SeqIngest, QuarantineReason> {
        let next = self.next_seq.entry(b.source).or_default();
        if seq < *next {
            self.stats.duplicate_batches += 1;
            return Ok(SeqIngest::Duplicate);
        }
        assert_eq!(seq, *next, "the schedule sends sequence numbers densely");
        *next += 1;
        self.ingest(b).map(|()| SeqIngest::Stored)
    }

    fn export_csv(&self) -> Vec<u8> {
        let mut out = Vec::new();
        writeln!(out, "source,counter,timestamp_ns,value").unwrap();
        for (key, s) in &self.series {
            let label = counter_label(key.counter);
            for (t, v) in s.ts.iter().zip(&s.vs) {
                writeln!(out, "{},{label},{t},{v}", key.source.0).unwrap();
            }
        }
        out
    }
}

/// A batch as the comparison sees it.
fn batch_view(b: &Batch) -> (SourceId, CounterId, &str, &Series) {
    (b.source, b.counter, &b.campaign, &b.samples)
}

fn assert_store_matches(store: &SampleStore, model: &StoreModel, at: &str) {
    let keys: Vec<SeriesKey> = model.series.keys().copied().collect();
    assert_eq!(store.keys(), keys, "{at}: keys");
    for (key, want) in &model.series {
        let got = store.series(key.source, key.counter);
        assert_eq!(got.as_ref(), Some(want), "{at}: series {key:?}");
    }
    let total: usize = model.series.values().map(Series::len).sum();
    assert_eq!(store.total_samples(), total, "{at}: total_samples");
    assert_eq!(store.stats(), model.stats, "{at}: stats");
    // A case quarantines fewer batches than the store's backlog keeps.
    let got = store.quarantined();
    assert!(
        got.iter()
            .map(|(r, b)| (*r, batch_view(b)))
            .eq(model.quarantined.iter().map(|(r, b)| (*r, batch_view(b)))),
        "{at}: quarantined"
    );
    let mut csv = Vec::new();
    store.export_csv(&mut csv).unwrap();
    assert!(csv == model.export_csv(), "{at}: export_csv bytes");
}

/// Strictly increasing timestamps drawn from `lo..hi`, at most `n`, none in
/// `taken`.
fn fresh_times(rng: &mut Rng, lo: u64, hi: u64, n: usize, taken: &[u64]) -> Vec<u64> {
    let mut ts: Vec<u64> = (0..n)
        .map(|_| rng.range(lo, hi))
        .filter(|t| taken.binary_search(t).is_err())
        .collect();
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// Seeded schedules of every batch shape the store can be sent, in owned
/// and shared handles, sequenced or not, with reads in between: after
/// every step the store reads exactly as the contiguous reference model.
#[test]
fn store_reads_as_the_contiguous_model_under_any_schedule() {
    let mut rng = Rng::new(0xc0_4e_0a);
    let keys: Vec<SeriesKey> = (0..3)
        .flat_map(|source| {
            [CounterId::TxBytes(PortId(0)), CounterId::BufferPeak].map(|counter| SeriesKey {
                source: SourceId(source),
                counter,
            })
        })
        .collect();
    // Sequenced deliveries so far, for redelivery.
    let mut sent: Vec<(Batch, u64)> = Vec::new();
    // Every verdict the schedules reached.
    let mut verdicts = Vec::new();
    for case in 0..CASES {
        let store = SampleStore::new();
        let mut model = StoreModel::default();
        sent.clear();
        for step in 0..40 {
            let at = format!("case {case} step {step}");
            let key = *rng.pick(&keys);
            let stored: &[u64] = model.series.get(&key).map_or(&[], |s| &s.ts);
            let last = stored.last().copied().unwrap_or(0);
            let mut short = false;
            let ts: Vec<u64> = match rng.below(10) {
                // In order: after the stored tail, with gaps wide enough
                // for later out-of-order batches to interleave.
                0..=3 => {
                    let mut t = last;
                    (0..rng.range(1, 8))
                        .map(|_| {
                            t += rng.range(1, 6);
                            t
                        })
                        .collect()
                }
                // Out of order and disjoint: fresh timestamps below the tail.
                4 | 5 => fresh_times(&mut rng, 1, last.max(1), 6, stored),
                // Overlapping: fresh timestamps across the tail, plus one
                // already stored when there is one (a duplicate).
                6 => {
                    let mut ts = fresh_times(&mut rng, last.saturating_sub(8), last + 8, 5, stored);
                    if !stored.is_empty() {
                        ts.push(*rng.pick(stored));
                        ts.sort_unstable();
                        ts.dedup();
                    }
                    ts
                }
                7 => Vec::new(),
                // Non-monotonic: a repeated or a falling timestamp.
                8 => vec![last + 3, last + 2 + rng.below(2)],
                // Columns of different lengths.
                _ => {
                    short = true;
                    vec![last + 1, last + 2]
                }
            };
            let mut vs: Vec<u64> = ts.iter().map(|_| rng.next_u64()).collect();
            if short {
                vs.pop();
            }
            let fresh = Batch {
                source: key.source,
                campaign: "prop".into(),
                counter: key.counter,
                samples: Series { ts, vs },
            };
            // Owned or shared, plain or sequenced; now and then a sequenced
            // redelivery of an earlier batch.
            let (batch, seq) = if !sent.is_empty() && rng.chance(0.1) {
                let (old, seq) = rng.pick(&sent).clone();
                (old, Some(seq))
            } else if rng.chance(0.5) {
                let seq = model.next_seq.get(&key.source).copied().unwrap_or(0);
                sent.push((fresh.clone(), seq));
                (fresh, Some(seq))
            } else {
                (fresh, None)
            };
            let shared = rng.chance(0.5);
            let (got, want) = match seq {
                None => {
                    let got = if shared {
                        store.ingest(&Arc::new(batch.clone()))
                    } else {
                        store.ingest(&batch)
                    };
                    (
                        got.map(|()| SeqIngest::Stored),
                        model.ingest(&batch).map(|()| SeqIngest::Stored),
                    )
                }
                Some(seq) => {
                    let next = model.next_seq.get(&batch.source).copied().unwrap_or(0);
                    let watermark = next.max(seq + 1);
                    let got = if shared {
                        let shipment: Shipment = SeqBatch {
                            seq,
                            watermark,
                            batch: Arc::new(batch.clone()),
                        };
                        store.ingest_seq(&shipment)
                    } else {
                        store.ingest_seq(&SeqBatch {
                            seq,
                            watermark,
                            batch: batch.clone(),
                        })
                    };
                    (got, model.ingest_seq(&batch, seq))
                }
            };
            assert_eq!(got, want, "{at}: verdict");
            if !verdicts.contains(&got) {
                verdicts.push(got);
            }
            if got.is_err() && !model.series.contains_key(&key) {
                assert!(
                    store.series(key.source, key.counter).is_none(),
                    "{at}: a quarantined batch created its key"
                );
            }
            // A read between ingests must not disturb what follows.
            let probe = rng.pick(&keys);
            let _ = store.series(probe.source, probe.counter);
            assert_store_matches(&store, &model, &at);
        }
    }
    assert_eq!(verdicts.len(), 5, "every verdict reached: {verdicts:?}");
}

#[test]
fn utilization_is_rate_over_capacity() {
    let mut rng = Rng::new(0xc0_4e_05);
    for _ in 0..CASES {
        // Deltas below 31250 bytes per 25us stay below 10G line rate.
        let n = rng.range(2, 100) as usize;
        let mut s = Series::new();
        let mut total = 0u64;
        for i in 0..n {
            total += rng.below(31_250);
            s.push(Nanos((i as u64 + 1) * 25_000), total);
        }
        for u in s.utilization(10_000_000_000) {
            assert!(u.util >= 0.0 && u.util <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn wrap_decoding_recovers_the_true_byte_stream() {
    // The core wraparound property: for any counter width and any monotone
    // true stream, reading the hardware-width value through a
    // FaultInjector that serves stale reads, then through a WrapDecoder,
    // reconstructs the full-width stream exactly — however many times it
    // wrapped. After every read the decoded advance equals the true bytes
    // up to the last *fresh* read (a stale read repeats that counter's own
    // latch, so it adds nothing and loses nothing). The decoder's domain:
    // fewer than 2^bits bytes accumulate between fresh reads.
    let mut rng = Rng::new(0xc0_4e_06);
    let id = CounterId::TxBytes(PortId(0));
    for case in 0..CASES {
        let bits = rng.range(8, 64) as u32;
        let mask = u64::MAX >> (64 - bits);
        let stale = rng.range(0, 20) as f64 / 100.0;
        let plan = FaultPlan::none(rng.next_u64())
            .with_stale_read(stale)
            .with_counter_bits(bits);
        let mut inj = FaultInjector::new(plan);
        let n_reads = rng.range(10, 400) as usize;
        let mut truth = rng.below(1 << 20); // random non-zero origin
        let mut dec = WrapDecoder::new(bits);
        // The first read is always fresh: nothing is latched yet.
        let decoded0 = dec.decode(inj.filter_value(id, truth));
        let (truth0, mut fresh_truth) = (truth, truth);
        for _ in 1..n_reads {
            // Increments biased toward the decodable limit to exercise it.
            let budget = mask - truth.wrapping_sub(fresh_truth);
            let inc = if rng.chance(0.3) {
                budget.saturating_sub(rng.below(1 + budget / 4))
            } else {
                rng.below(1 + budget / 2)
            };
            truth = truth.wrapping_add(inc);
            let stale_before = inj.stats().stale_values;
            let got = dec.decode(inj.filter_value(id, truth));
            if inj.stats().stale_values == stale_before {
                fresh_truth = truth;
            }
            assert_eq!(
                got.wrapping_sub(decoded0),
                fresh_truth.wrapping_sub(truth0),
                "case {case}: {bits}-bit decode at stale rate {stale} diverged from truth"
            );
            assert_eq!(dec.unwrapped(), got);
        }
    }
}

#[test]
fn wrap_decoding_is_exact_at_boundary_widths() {
    // 32-bit is the width the paper's hardware exposes; 64-bit must be a
    // no-op passthrough.
    let mut dec32 = WrapDecoder::new(32);
    let reads = [0u64, u32::MAX as u64, 5, 10, 3]; // wraps twice
    let mut acc = 0u64;
    let mut prev = reads[0];
    let mask = u32::MAX as u64;
    assert_eq!(dec32.decode(reads[0]), reads[0]);
    acc += reads[0];
    for &r in &reads[1..] {
        acc += r.wrapping_sub(prev) & mask;
        prev = r;
        assert_eq!(dec32.decode(r), acc);
    }

    let mut dec64 = WrapDecoder::new(64);
    let mut rng = Rng::new(0xc0_4e_07);
    let mut truth = 0u64;
    assert_eq!(dec64.decode(truth), truth);
    for _ in 0..100 {
        truth += rng.below(1 << 40);
        assert_eq!(dec64.decode(truth), truth);
    }
}

#[test]
fn backoff_schedule_is_deterministic_and_bounded() {
    let mut rng = Rng::new(0xc0_4e_08);
    for _ in 0..CASES {
        let base = Nanos(rng.range(1, 100_000));
        let cap = Nanos(rng.range(base.0, 10_000_000));
        let policy = RetryPolicy {
            max_retries: rng.range(0, 16) as u32,
            backoff_base: base,
            backoff_cap: cap,
        };
        let mut prev = Nanos::ZERO;
        for attempt in 0..80u32 {
            let d = policy.backoff(attempt);
            let again = policy.backoff(attempt);
            assert_eq!(d, again, "backoff must be a pure function of attempt");
            assert!(d <= cap, "backoff exceeded cap");
            assert!(d >= prev, "backoff must be non-decreasing");
            assert!(d >= base.min(cap), "backoff below base");
            prev = d;
        }
        // Doubling until the cap: attempt k is exactly base << k when that
        // fits under the cap.
        for attempt in 0..63u32 {
            if let Some(shifted) = base.0.checked_mul(1u64 << attempt) {
                if shifted <= cap.0 {
                    assert_eq!(policy.backoff(attempt), Nanos(shifted));
                }
            }
        }
    }
}

#[test]
fn fault_injection_is_deterministic_under_a_fixed_seed() {
    let mut rng = Rng::new(0xc0_4e_09);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let plan = FaultPlan::none(seed)
            .with_transient_failure(rng.range_f64(0.0, 0.2))
            .with_latency_spike(rng.range_f64(0.0, 0.1))
            .with_stale_read(rng.range_f64(0.0, 0.1))
            .with_counter_bits(rng.range(16, 64) as u32);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let id = CounterId::TxBytes(PortId(0));
        let mut truth = 0u64;
        for _ in 0..500 {
            truth += rng.below(100_000);
            let ra = a.pre_read();
            let rb = b.pre_read();
            assert_eq!(ra, rb, "pre_read streams must match for equal seeds");
            if ra.is_ok() {
                assert_eq!(a.filter_value(id, truth), b.filter_value(id, truth));
            }
        }
        assert_eq!(a.stats(), b.stats());
    }
}
