//! Sample batching.
//!
//! "The CPU batches the samples before sending them to a distributed
//! collector service" (§4.1). Batching is what keeps a microsecond-rate
//! sampler from drowning the management network: at 25 µs per sample, a
//! single counter produces 40 k samples/s; shipped one message per sample
//! that is 40 k messages, batched at 4096 samples it is ten.

use std::sync::Arc;

use uburst_asic::CounterId;
use uburst_sim::time::Nanos;

use crate::series::{note_nonmonotonic, Series};

/// Identifies one measured switch within a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

/// A batch of samples for one counter of one source.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The switch the samples came from.
    pub source: SourceId,
    /// Campaign label (shared across batches of a campaign).
    pub campaign: Arc<str>,
    /// Which counter the samples belong to.
    pub counter: CounterId,
    /// The samples themselves.
    pub samples: Series,
}

/// The owned batch behind a shared handle: moved out when the handle is
/// the last one, deep-copied otherwise.
impl From<Arc<Batch>> for Batch {
    fn from(shared: Arc<Batch>) -> Batch {
        Arc::unwrap_or_clone(shared)
    }
}

/// Batching policy.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush after this many samples per counter.
    pub max_samples: usize,
    /// Flush when the oldest buffered sample is older than this.
    pub max_age: Nanos,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_samples: 4096,
            max_age: Nanos::from_millis(100),
        }
    }
}

/// Accumulates per-counter samples and cuts [`Batch`]es per the policy.
///
/// This is the switch side of the collection path: polls go in one at a
/// time through [`Batcher::record`], or a finished campaign's series all
/// at once through [`Batcher::cut_series`], and each cut is what the
/// switch ships as one fleet round.
#[derive(Debug)]
pub struct Batcher {
    source: SourceId,
    campaign: Arc<str>,
    counters: Vec<CounterId>,
    policy: BatchPolicy,
    bufs: Vec<Series>,
    oldest: Option<Nanos>,
    /// Time of the last poll accepted, kept across cuts: the buffers'
    /// own tails are gone after a flush.
    last: Option<Nanos>,
    /// Batches produced so far (diagnostics).
    pub batches_cut: u64,
}

impl Batcher {
    /// A batcher for one campaign on one source.
    pub fn new(
        source: SourceId,
        campaign: impl Into<Arc<str>>,
        counters: Vec<CounterId>,
        policy: BatchPolicy,
    ) -> Self {
        assert!(!counters.is_empty());
        assert!(policy.max_samples > 0);
        let bufs = counters.iter().map(|_| Series::new()).collect();
        Batcher {
            source,
            campaign: campaign.into(),
            counters,
            policy,
            bufs,
            oldest: None,
            last: None,
            batches_cut: 0,
        }
    }

    /// Adds one poll's values (aligned with the campaign's counter list).
    /// Returns batches to ship, if the policy triggered a flush.
    ///
    /// A poll at or before the last accepted one is skipped and counted
    /// in `uburst_series_nonmonotonic_total`, one per value, as
    /// [`Series::push`] skips a sample — also when a cut fell in between,
    /// where the buffers' tails could no longer catch it and the store
    /// would quarantine or misorder the next batch.
    pub fn record(&mut self, t: Nanos, values: &[u64]) -> Vec<Batch> {
        assert_eq!(values.len(), self.counters.len(), "schema mismatch");
        if self.last.is_some_and(|last| t <= last) {
            note_nonmonotonic(values.len() as u64);
            return Vec::new();
        }
        self.last = Some(t);
        for (buf, &v) in self.bufs.iter_mut().zip(values) {
            buf.push(t, v);
        }
        let oldest = *self.oldest.get_or_insert(t);
        let full = self.bufs[0].len() >= self.policy.max_samples;
        let stale = t.saturating_sub(oldest) >= self.policy.max_age;
        if full || stale {
            self.flush()
        } else {
            Vec::new()
        }
    }

    /// Cuts batches from whatever is buffered (used at campaign end).
    ///
    /// Each buffer handed over is replaced by one reserved at the cut's
    /// length, so a run of equal cuts hands over batches with no spare
    /// capacity after the first: the store keeps each batch whole.
    pub fn flush(&mut self) -> Vec<Batch> {
        self.oldest = None;
        let cut = self.bufs[0].len();
        if cut == 0 {
            return Vec::new();
        }
        self.batches_cut += self.counters.len() as u64;
        self.counters
            .iter()
            .zip(self.bufs.iter_mut())
            .map(|(&counter, buf)| {
                let fresh = Series {
                    ts: Vec::with_capacity(cut),
                    vs: Vec::with_capacity(cut),
                };
                Batch {
                    source: self.source,
                    campaign: self.campaign.clone(),
                    counter,
                    samples: std::mem::replace(buf, fresh),
                }
            })
            .collect()
    }

    /// Replays a finished campaign through [`Batcher::record`], poll by
    /// poll, and returns one cut per flush, the final [`Batcher::flush`]
    /// last. Empty cuts are dropped, so a campaign with no polls yields
    /// none. `series` is what the poller recorded: one series per
    /// campaign counter, in the batcher's counter order, all sharing the
    /// poll timestamps of the first.
    ///
    /// # Panics
    /// Panics if `series` does not name the batcher's counters in order.
    pub fn cut_series(mut self, series: &[(CounterId, Series)]) -> Vec<Vec<Batch>> {
        assert!(
            series.iter().map(|(c, _)| c).eq(&self.counters),
            "schema mismatch"
        );
        let mut cuts = Vec::new();
        let mut values = vec![0; series.len()];
        for (k, &t) in series[0].1.ts.iter().enumerate() {
            for (v, (_, s)) in values.iter_mut().zip(series) {
                *v = s.vs[k];
            }
            cuts.push(self.record(Nanos(t), &values));
        }
        cuts.push(self.flush());
        cuts.retain(|cut| !cut.is_empty());
        cuts
    }

    /// Samples currently buffered per counter.
    pub fn buffered(&self) -> usize {
        self.bufs[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ship::SeqBatch;
    use crate::store::{SampleStore, SeqIngest};
    use uburst_sim::node::PortId;

    fn counters() -> Vec<CounterId> {
        vec![CounterId::TxBytes(PortId(0)), CounterId::TxBytes(PortId(1))]
    }

    #[test]
    fn flushes_at_max_samples() {
        let mut b = Batcher::new(
            SourceId(1),
            "c",
            counters(),
            BatchPolicy {
                max_samples: 3,
                max_age: Nanos::from_secs(10),
            },
        );
        assert!(b.record(Nanos(1), &[1, 10]).is_empty());
        assert!(b.record(Nanos(2), &[2, 20]).is_empty());
        let out = b.record(Nanos(3), &[3, 30]);
        assert_eq!(out.len(), 2, "one batch per counter");
        assert_eq!(out[0].samples.len(), 3);
        assert_eq!(out[0].counter, CounterId::TxBytes(PortId(0)));
        assert_eq!(out[1].samples.vs, vec![10, 20, 30]);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn flushes_on_age() {
        let mut b = Batcher::new(
            SourceId(1),
            "c",
            counters(),
            BatchPolicy {
                max_samples: 1_000_000,
                max_age: Nanos::from_micros(100),
            },
        );
        assert!(b.record(Nanos::from_micros(0), &[1, 1]).is_empty());
        assert!(b.record(Nanos::from_micros(50), &[2, 2]).is_empty());
        let out = b.record(Nanos::from_micros(100), &[3, 3]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].samples.len(), 3);
    }

    #[test]
    fn final_flush_drains() {
        let mut b = Batcher::new(SourceId(2), "c", counters(), BatchPolicy::default());
        b.record(Nanos(1), &[1, 1]);
        b.record(Nanos(2), &[2, 2]);
        let out = b.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].samples.len(), 2);
        assert!(b.flush().is_empty(), "second flush is empty");
        assert_eq!(b.batches_cut, 2);
    }

    /// Cuts one counter's `polls` two samples at a time and ingests every
    /// batch, in order, into a sequenced store; returns the stored series.
    fn stored_in_pairs(polls: &[(u64, u64)]) -> Series {
        let counter = CounterId::TxBytes(PortId(0));
        let policy = BatchPolicy {
            max_samples: 2,
            max_age: Nanos::from_secs(10),
        };
        let mut b = Batcher::new(SourceId(1), "c", vec![counter], policy);
        let mut cut: Vec<Batch> = polls
            .iter()
            .flat_map(|&(t, v)| b.record(Nanos(t), &[v]))
            .collect();
        cut.extend(b.flush());
        let store = SampleStore::new();
        for (seq, batch) in (0u64..).zip(cut) {
            let sb = SeqBatch {
                seq,
                watermark: seq + 1,
                batch,
            };
            assert_eq!(store.ingest_seq(&sb), Ok(SeqIngest::Stored), "seq {seq}");
        }
        store.series(SourceId(1), counter).expect("stored")
    }

    #[test]
    fn a_repeat_after_a_cut_is_skipped_not_a_quarantined_batch() {
        // (20, 250) repeats the last poll of the first batch: the sample at
        // t = 30 must not be lost with a whole quarantined batch.
        let s = stored_in_pairs(&[
            (10, 100),
            (20, 200),
            (20, 250),
            (30, 300),
            (40, 400),
            (50, 500),
        ]);
        assert_eq!(s.ts, vec![10, 20, 30, 40, 50]);
        assert_eq!(s.vs, vec![100, 200, 300, 400, 500]);
    }

    #[test]
    fn a_step_back_after_a_cut_cannot_make_a_counter_go_down() {
        // (15, 250) would have merged in before t = 20 and read 100, 250,
        // 200: a byte counter running backwards.
        let s = stored_in_pairs(&[
            (10, 100),
            (20, 200),
            (15, 250),
            (30, 300),
            (40, 400),
            (50, 500),
        ]);
        assert_eq!(s.ts, vec![10, 20, 30, 40, 50]);
        assert_eq!(s.vs, vec![100, 200, 300, 400, 500]);
    }

    #[test]
    fn a_repeat_inside_a_batch_is_skipped_as_before() {
        let s = stored_in_pairs(&[(10, 100), (10, 150), (20, 200), (30, 300)]);
        assert_eq!(s.ts, vec![10, 20, 30]);
        assert_eq!(s.vs, vec![100, 200, 300]);
    }

    /// `polls` seeded polls of three counters, as a poller records them:
    /// one series per counter, all on the same strictly increasing times.
    fn campaign(polls: usize, seed: u64) -> Vec<(CounterId, Series)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 40
        };
        let ids = [
            CounterId::TxBytes(PortId(0)),
            CounterId::TxBytes(PortId(3)),
            CounterId::BufferPeak,
        ];
        let mut series: Vec<(CounterId, Series)> =
            ids.iter().map(|&id| (id, Series::new())).collect();
        let mut t = 0;
        for _ in 0..polls {
            t += 1 + next() % 50_000;
            for (_, s) in &mut series {
                s.push(Nanos(t), next());
            }
        }
        series
    }

    fn batcher_for(series: &[(CounterId, Series)], policy: BatchPolicy) -> Batcher {
        let ids = series.iter().map(|(c, _)| *c).collect();
        Batcher::new(SourceId(4), "c", ids, policy)
    }

    /// The oracle: the `record`/`flush` loop a switch runs, written out.
    fn cut_by_hand(series: &[(CounterId, Series)], policy: BatchPolicy) -> Vec<Vec<Batch>> {
        let mut b = batcher_for(series, policy);
        let mut cuts = Vec::new();
        for k in 0..series[0].1.len() {
            let values: Vec<u64> = series.iter().map(|(_, s)| s.vs[k]).collect();
            let cut = b.record(Nanos(series[0].1.ts[k]), &values);
            if !cut.is_empty() {
                cuts.push(cut);
            }
        }
        let last = b.flush();
        if !last.is_empty() {
            cuts.push(last);
        }
        cuts
    }

    #[test]
    fn cut_series_equals_the_record_flush_loop() {
        for seed in 1..=8u64 {
            let series = campaign(300 + seed as usize * 37, seed);
            for policy in [
                BatchPolicy {
                    max_samples: 64,
                    max_age: Nanos::MAX,
                },
                BatchPolicy {
                    max_samples: 1_000,
                    max_age: Nanos::from_micros(900),
                },
                BatchPolicy::default(),
            ] {
                let got = batcher_for(&series, policy).cut_series(&series);
                let want = cut_by_hand(&series, policy);
                assert!(!got.is_empty());
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn an_exact_multiple_of_max_samples_ends_without_an_empty_cut() {
        let series = campaign(4 * 25, 9);
        let policy = BatchPolicy {
            max_samples: 25,
            max_age: Nanos::MAX,
        };
        let cuts = batcher_for(&series, policy).cut_series(&series);
        assert_eq!(cuts.len(), 4);
        for cut in &cuts {
            assert_eq!(cut.len(), 3, "one batch per counter");
            assert!(cut.iter().all(|b| b.samples.len() == 25));
        }
    }

    #[test]
    fn cuts_after_the_first_carry_no_spare_capacity() {
        let series = campaign(4 * 25, 9);
        let policy = BatchPolicy {
            max_samples: 25,
            max_age: Nanos::MAX,
        };
        let cuts = batcher_for(&series, policy).cut_series(&series);
        for batch in cuts[1..].iter().flatten() {
            let s = &batch.samples;
            assert_eq!((s.ts.capacity(), s.vs.capacity()), (25, 25));
        }
    }

    #[test]
    fn an_empty_campaign_yields_no_cuts() {
        let series = campaign(0, 1);
        let cuts = batcher_for(&series, BatchPolicy::default()).cut_series(&series);
        assert!(cuts.is_empty());
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn cut_series_refuses_a_foreign_schema() {
        let series = campaign(10, 2);
        let b = Batcher::new(SourceId(0), "c", counters(), BatchPolicy::default());
        b.cut_series(&series);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn wrong_arity_panics() {
        let mut b = Batcher::new(SourceId(0), "c", counters(), BatchPolicy::default());
        b.record(Nanos(1), &[1]);
    }
}
