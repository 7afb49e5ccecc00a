//! The distributed collector service.
//!
//! "The CPU batches the samples before sending them to a distributed
//! collector service that is both fine-grained and scalable" (§4.1). Here
//! the service is a pool of real OS threads sharing one bounded
//! `std::sync::mpsc` queue of [`Batch`]es, which they drain into a shared
//! [`SampleStore`]. The simulation (producing
//! batches in simulated time) and the collector (consuming them in real
//! time) overlap exactly the way switch CPUs and the collection tier do in
//! production.
//!
//! Each worker runs under a **supervisor**: a panic inside the ingest loop
//! is caught, counted, and answered by respawning the drain loop in place —
//! up to a restart budget, after which the worker retires and the rest of
//! the pool carries its load. Live state is visible through
//! [`Collector::health`].
//!
//! Shutdown is structured: dropping all senders ends the stream; workers
//! drain what is queued, then exit; [`Collector::shutdown`] joins them and
//! hands back the store with a full ingest report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::batch::Batch;
use crate::errors::CollectorError;
use crate::store::{QuarantineReason, SampleStore};

/// Restarts a supervisor grants one worker before retiring it. Generous:
/// a persistent poison batch hits each worker at most a handful of times
/// because the batch is consumed by the attempt that dies on it.
const MAX_RESTARTS_PER_WORKER: u64 = 8;

/// A live snapshot of the collector's condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorHealth {
    /// Workers currently able to ingest (spawned minus retired).
    pub workers_alive: usize,
    /// Worker panics absorbed and answered with a respawn.
    pub restarts: u64,
    /// Batches merged into the store.
    pub ingested: u64,
    /// Batches quarantined by the store as malformed.
    pub quarantined: u64,
}

/// Final ingest accounting returned by [`Collector::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorReport {
    /// Batches merged into the store.
    pub ingested: u64,
    /// Batches quarantined as malformed.
    pub quarantined: u64,
    /// Worker panics absorbed by supervisors.
    pub restarts: u64,
}

#[derive(Default)]
struct Health {
    alive: AtomicUsize,
    restarts: AtomicU64,
    ingested: AtomicU64,
    quarantined: AtomicU64,
}

/// The per-batch ingest operation a worker applies; injectable so the
/// supervisor's panic-containment is testable.
type IngestFn = Arc<dyn Fn(&SampleStore, &Batch) -> Result<(), QuarantineReason> + Send + Sync>;

/// A running collector service.
pub struct Collector {
    workers: Vec<JoinHandle<()>>,
    store: Arc<SampleStore>,
    health: Arc<Health>,
}

impl Collector {
    /// Starts `n_workers` collection threads draining a bounded queue of
    /// `capacity` batches. Returns the service handle and the sender side
    /// to clone into each switch's shipping path; `send` blocks while the
    /// queue is full (backpressure, never loss).
    pub fn start(
        n_workers: usize,
        capacity: usize,
    ) -> Result<(Collector, SyncSender<Batch>), CollectorError> {
        Self::start_with(n_workers, capacity, Arc::new(|s, b| s.ingest(b)))
    }

    /// [`Collector::start`] with an injectable ingest operation (testing
    /// seam for the supervisor's panic containment).
    pub(crate) fn start_with(
        n_workers: usize,
        capacity: usize,
        ingest: IngestFn,
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
        let health = Arc::new(Health::default());
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let rx = Arc::clone(&rx);
            let store = Arc::clone(&store);
            let worker_health = Arc::clone(&health);
            let ingest = Arc::clone(&ingest);
            let handle = std::thread::Builder::new()
                .name(format!("uburst-collector-{i}"))
                .spawn(move || supervise(rx, store, worker_health, ingest))
                .map_err(|e| CollectorError::Spawn(e.to_string()))?;
            health.alive.fetch_add(1, Ordering::SeqCst);
            workers.push(handle);
        }
        Ok((
            Collector {
                workers,
                store,
                health,
            },
            tx,
        ))
    }

    /// The shared store (live view; series grow while workers run).
    pub fn store(&self) -> Arc<SampleStore> {
        Arc::clone(&self.store)
    }

    /// A point-in-time snapshot of the service's condition, readable while
    /// ingest is in flight.
    pub fn health(&self) -> CollectorHealth {
        CollectorHealth {
            workers_alive: self.health.alive.load(Ordering::SeqCst),
            restarts: self.health.restarts.load(Ordering::Relaxed),
            ingested: self.health.ingested.load(Ordering::Relaxed),
            quarantined: self.health.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Waits for all workers to drain and exit, returning the store and the
    /// ingest report. Callers must drop every `SyncSender` first or this blocks
    /// forever — that is the structured-shutdown contract, not a
    /// timeout-papered race. `Err(WorkerLost)` means a supervisor thread
    /// itself died, which no contained ingest panic can cause.
    pub fn shutdown(self) -> Result<(Arc<SampleStore>, CollectorReport), CollectorError> {
        for (i, w) in self.workers.into_iter().enumerate() {
            w.join()
                .map_err(|_| CollectorError::WorkerLost { worker: i })?;
        }
        let report = CollectorReport {
            ingested: self.health.ingested.load(Ordering::Relaxed),
            quarantined: self.health.quarantined.load(Ordering::Relaxed),
            restarts: self.health.restarts.load(Ordering::Relaxed),
        };
        Ok((self.store, report))
    }
}

/// One worker's supervisor: drain until the stream ends; if the drain loop
/// panics, absorb it, count a restart, and drain again. No panic can hold
/// the queue lock and the store recovers from lock poisoning, so the batch
/// that killed the attempt is consumed and the rest of the stream survives.
fn supervise(
    rx: Arc<Mutex<Receiver<Batch>>>,
    store: Arc<SampleStore>,
    health: Arc<Health>,
    ingest: IngestFn,
) {
    let mut restarts = 0u64;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            // The guard dies with this statement, before `ingest` runs.
            let next = rx
                .lock()
                .expect("the queue lock is never held across ingest")
                .recv();
            let Ok(batch) = next else {
                return;
            };
            match ingest(&store, &batch) {
                Ok(()) => {
                    health.ingested.fetch_add(1, Ordering::Relaxed);
                    uburst_obs::counter_add!("uburst_collector_batches_ingested_total", 1);
                }
                Err(_) => {
                    health.quarantined.fetch_add(1, Ordering::Relaxed);
                    uburst_obs::counter_add!("uburst_collector_batches_quarantined_total", 1);
                }
            };
        }));
        match result {
            Ok(()) => break, // stream ended cleanly
            Err(_) => {
                restarts += 1;
                health.restarts.fetch_add(1, Ordering::Relaxed);
                uburst_obs::counter_add!("uburst_collector_worker_restarts_total", 1);
                if restarts > MAX_RESTARTS_PER_WORKER {
                    break; // retire; the rest of the pool carries the load
                }
            }
        }
    }
    health.alive.fetch_sub(1, Ordering::SeqCst);
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

    #[test]
    fn collects_from_many_producers() {
        let (collector, tx) = Collector::start(4, 64).unwrap();
        let producers: Vec<_> = (0..8)
            .map(|src| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for k in 0..50u64 {
                        tx.send(batch(src, k * 100, 10)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().unwrap();
        }
        let (store, report) = collector.shutdown().unwrap();
        assert_eq!(report.ingested, 8 * 50);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.restarts, 0);
        assert_eq!(store.total_samples(), 8 * 50 * 10);
        // Each source's series ends up timestamp-ordered even though
        // workers may have ingested its batches in a racy order.
        for src in 0..8 {
            let s = store
                .series(SourceId(src), CounterId::TxBytes(PortId(0)))
                .unwrap();
            assert_eq!(s.len(), 500);
            assert!(s.ts.windows(2).all(|w| w[1] > w[0]));
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
        let (collector, tx) = Collector::start(2, 16).unwrap();
        tx.send(batch(0, 0, 5)).unwrap();
        let mut bad = batch(0, 100, 1);
        bad.samples.ts = vec![9, 3]; // non-monotonic
        bad.samples.vs = vec![1, 2];
        tx.send(bad).unwrap();
        tx.send(batch(0, 200, 5)).unwrap();
        drop(tx);
        let (store, report) = collector.shutdown().unwrap();
        assert_eq!(report.ingested, 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(store.total_samples(), 10);
        assert_eq!(store.quarantined().len(), 1);
    }

    #[test]
    fn supervisor_contains_and_recovers_from_worker_panics() {
        // Poison batches (source 666) panic inside ingest; the supervisor
        // must absorb each, respawn, and keep draining everything else.
        let ingest: IngestFn = Arc::new(|store, b| {
            assert!(b.source != SourceId(666), "poison batch");
            store.ingest(b)
        });
        let (collector, tx) = Collector::start_with(2, 16, ingest).unwrap();
        for k in 0..10u64 {
            tx.send(batch(1, k * 100, 3)).unwrap();
            if k % 3 == 0 {
                tx.send(batch(666, k * 100, 1)).unwrap();
            }
        }
        drop(tx);
        let (store, report) = collector.shutdown().unwrap();
        assert_eq!(report.ingested, 10, "every healthy batch survived");
        assert_eq!(report.restarts, 4, "one restart per poison batch");
        assert_eq!(store.total_samples(), 30);
        assert!(store
            .series(SourceId(666), CounterId::TxBytes(PortId(0)))
            .is_none());
    }

    #[test]
    fn health_reflects_live_state_and_retirement() {
        // Every batch is poison: workers burn their restart budget and
        // retire; health shows zero alive, and shutdown still succeeds.
        let ingest: IngestFn = Arc::new(|_, _| panic!("always poison"));
        let (collector, tx) = Collector::start_with(1, 64, ingest).unwrap();
        assert_eq!(collector.health().workers_alive, 1);
        for k in 0..(MAX_RESTARTS_PER_WORKER + 5) {
            tx.send(batch(0, k * 10, 1)).unwrap();
        }
        drop(tx);
        let (_store, report) = collector.shutdown().unwrap();
        assert_eq!(report.restarts, MAX_RESTARTS_PER_WORKER + 1);
        assert_eq!(report.ingested, 0);
    }

    #[test]
    fn a_sender_outliving_every_retired_worker_is_refused_not_blocked() {
        // Every batch is poison: the one worker spends its restart budget,
        // retires and drops the queue. A later send must fail at once, even
        // at capacity 1, rather than wait for a receiver that is gone.
        let ingest: IngestFn = Arc::new(|_, _| panic!("always poison"));
        let (collector, tx) = Collector::start_with(1, 1, ingest).unwrap();
        for k in 0..=MAX_RESTARTS_PER_WORKER {
            tx.send(batch(0, k * 10, 1)).unwrap();
        }
        let (_store, report) = collector.shutdown().unwrap();
        assert_eq!(report.restarts, MAX_RESTARTS_PER_WORKER + 1);
        for k in 0..2u64 {
            assert!(
                tx.send(batch(0, 1_000 + k, 1)).is_err(),
                "send {k} after retirement"
            );
        }
    }

    #[test]
    fn health_counts_ingest_while_running() {
        let (collector, tx) = Collector::start(2, 8).unwrap();
        tx.send(batch(0, 0, 2)).unwrap();
        // Wait (bounded) for a worker to drain it.
        for _ in 0..1000 {
            if collector.health().ingested == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let h = collector.health();
        assert_eq!(h.ingested, 1);
        assert_eq!(h.workers_alive, 2);
        drop(tx);
        collector.shutdown().unwrap();
    }
}
