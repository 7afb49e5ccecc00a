//! A threaded queue drain under the collector's name.
//!
//! Kept only because `benchmark/` links it, ROADMAP item 3a: its
//! `core.collector.batches_per_s` row times [`Collector::start`] with one
//! worker. The product's collector service, the one the switch CPU ships
//! its batches to (§4.1), is [`crate::fleet`]: sessions, WAL-backed
//! regional receivers and the global [`SampleStore`]. Here `n` threads
//! share one bounded `std::sync::mpsc` queue of [`Batch`]es and ingest
//! each into one store; dropping every sender ends the stream, and
//! [`Collector::shutdown`] joins the threads.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::batch::Batch;
use crate::errors::CollectorError;
use crate::store::SampleStore;

/// Final ingest accounting returned by [`Collector::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorReport {
    /// Batches merged into the store.
    pub ingested: u64,
    /// Batches quarantined as malformed.
    pub quarantined: u64,
}

/// A running pool of drain threads.
pub struct Collector {
    workers: Vec<JoinHandle<()>>,
    store: Arc<SampleStore>,
}

impl Collector {
    /// Starts `n_workers` threads draining a bounded queue of `capacity`
    /// batches into a new store. Returns the handle and the sender side;
    /// `send` blocks while the queue is full (backpressure, never loss).
    pub fn start(
        n_workers: usize,
        capacity: usize,
    ) -> Result<(Collector, SyncSender<Batch>), CollectorError> {
        if n_workers == 0 {
            return Err(CollectorError::NoWorkers);
        }
        if capacity == 0 {
            return Err(CollectorError::ZeroCapacity);
        }
        let (tx, rx) = sync_channel::<Batch>(capacity);
        // std's receiver is single-consumer: the workers share it.
        let rx = Arc::new(Mutex::new(rx));
        let store = Arc::new(SampleStore::new());
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let rx = Arc::clone(&rx);
            let store = Arc::clone(&store);
            let handle = std::thread::Builder::new()
                .name(format!("uburst-collector-{i}"))
                .spawn(move || drain(&rx, &store))
                .map_err(|e| CollectorError::Spawn(e.to_string()))?;
            workers.push(handle);
        }
        Ok((Collector { workers, store }, tx))
    }

    /// Waits for every worker to drain the queue and exit, and returns the
    /// store with its ingest report. Callers must drop every `SyncSender`
    /// first or this blocks forever.
    pub fn shutdown(self) -> Result<(Arc<SampleStore>, CollectorReport), CollectorError> {
        for (i, w) in self.workers.into_iter().enumerate() {
            w.join()
                .map_err(|_| CollectorError::WorkerLost { worker: i })?;
        }
        let stats = self.store.stats();
        let report = CollectorReport {
            ingested: stats.ingested_batches,
            quarantined: stats.quarantined_batches,
        };
        Ok((self.store, report))
    }
}

/// One worker: ingest batches until every sender is gone. The store
/// quarantines and counts a malformed batch, so its error needs no answer.
fn drain(rx: &Mutex<Receiver<Batch>>, store: &SampleStore) {
    loop {
        // The guard dies with this statement, before the ingest.
        let next = rx
            .lock()
            .expect("no worker panics holding the queue")
            .recv();
        let Ok(batch) = next else {
            return;
        };
        let _ = store.ingest(&batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SourceId;
    use crate::series::Series;
    use uburst_asic::CounterId;
    use uburst_sim::node::PortId;
    use uburst_sim::time::Nanos;

    fn batch(source: u32, base_t: u64, n: usize) -> Batch {
        let mut s = Series::new();
        for i in 0..n {
            s.push(Nanos(base_t + i as u64), i as u64);
        }
        Batch {
            source: SourceId(source),
            campaign: "t".into(),
            counter: CounterId::TxBytes(PortId(0)),
            samples: s,
        }
    }

    /// Source `src`'s 50 batches of 10 samples, newest first, so every
    /// batch after the first merges into its series rather than appending.
    fn newest_first(src: u32) -> impl Iterator<Item = Batch> {
        (0..50u64).rev().map(move |k| batch(src, k * 100, 10))
    }

    fn csv(store: &SampleStore) -> Vec<u8> {
        let mut out = Vec::new();
        store.export_csv(&mut out).unwrap();
        out
    }

    #[test]
    fn collects_from_many_producers() {
        let serial = SampleStore::new();
        for b in (0..8).flat_map(newest_first) {
            serial.ingest(&b).unwrap();
        }
        let expected = csv(&serial);
        for workers in [1, 2, 4] {
            let (collector, tx) = Collector::start(workers, 64).unwrap();
            let producers: Vec<_> = (0..8)
                .map(|src| {
                    let tx = tx.clone();
                    std::thread::spawn(move || newest_first(src).for_each(|b| tx.send(b).unwrap()))
                })
                .collect();
            drop(tx);
            for p in producers {
                p.join().unwrap();
            }
            let (store, report) = collector.shutdown().unwrap();
            let want = CollectorReport {
                ingested: 8 * 50,
                quarantined: 0,
            };
            assert_eq!(report, want, "{workers} workers");
            assert_eq!(store.total_samples(), 8 * 50 * 10);
            // However the workers interleaved the sources' batches, the
            // store holds what a serial ingest of them holds.
            assert!(csv(&store) == expected, "{workers} workers");
        }
    }

    #[test]
    fn bounded_channel_applies_backpressure_without_loss() {
        // Tiny capacity, slow consumer start: everything still arrives.
        let (collector, tx) = Collector::start(1, 1).unwrap();
        let producer = std::thread::spawn(move || {
            for k in 0..200u64 {
                tx.send(batch(0, k * 10, 2)).unwrap();
            }
        });
        producer.join().unwrap();
        let (store, report) = collector.shutdown().unwrap();
        assert_eq!(report.ingested, 200);
        assert_eq!(store.total_samples(), 400);
    }

    #[test]
    fn shutdown_with_no_batches() {
        let (collector, tx) = Collector::start(2, 8).unwrap();
        drop(tx);
        let (store, report) = collector.shutdown().unwrap();
        assert_eq!(report, CollectorReport::default());
        assert_eq!(store.total_samples(), 0);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        assert!(matches!(
            Collector::start(0, 8),
            Err(CollectorError::NoWorkers)
        ));
        assert!(matches!(
            Collector::start(2, 0),
            Err(CollectorError::ZeroCapacity)
        ));
    }

    #[test]
    fn malformed_batches_are_quarantined_not_fatal() {
        // At one worker as well: that worker must keep draining after it
        // meets the bad batch, with no other worker to carry the rest.
        for workers in [1, 2] {
            let (collector, tx) = Collector::start(workers, 16).unwrap();
            tx.send(batch(0, 0, 5)).unwrap();
            let mut bad = batch(0, 100, 1);
            bad.samples.ts = vec![9, 3]; // non-monotonic
            bad.samples.vs = vec![1, 2];
            tx.send(bad).unwrap();
            tx.send(batch(0, 200, 5)).unwrap();
            drop(tx);
            let (store, report) = collector.shutdown().unwrap();
            assert_eq!(report.ingested, 2, "{workers} workers");
            assert_eq!(report.quarantined, 1, "{workers} workers");
            assert_eq!(store.total_samples(), 10);
            assert_eq!(store.quarantined().len(), 1);
        }
    }
}
