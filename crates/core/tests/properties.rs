//! Property-style tests for the collection framework's data-handling
//! invariants: nothing the poller records may be lost, reordered, or
//! double-counted on its way to the store — and narrow-counter wraps must
//! decode back to the true byte stream.
//!
//! Each test drives a seeded `Rng` through a fixed number of randomized
//! cases — deterministic across runs, no external dependencies.

use uburst_asic::{CounterId, FaultInjector, FaultPlan};
use uburst_core::batch::{BatchPolicy, Batcher, SourceId};
use uburst_core::poller::RetryPolicy;
use uburst_core::series::{Series, WrapDecoder};
use uburst_core::store::SampleStore;
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
