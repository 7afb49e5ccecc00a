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
    pub fn flush(&mut self) -> Vec<Batch> {
        self.oldest = None;
        if self.bufs[0].is_empty() {
            return Vec::new();
        }
        self.batches_cut += self.counters.len() as u64;
        self.counters
            .iter()
            .zip(self.bufs.iter_mut())
            .map(|(&counter, buf)| Batch {
                source: self.source,
                campaign: self.campaign.clone(),
                counter,
                samples: std::mem::take(buf),
            })
            .collect()
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

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn wrong_arity_panics() {
        let mut b = Batcher::new(SourceId(0), "c", counters(), BatchPolicy::default());
        b.record(Nanos(1), &[1]);
    }
}
