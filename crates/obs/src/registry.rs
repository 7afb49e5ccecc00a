//! The metric store: named counters, gauges and histograms.
//!
//! Every aggregation here is commutative and associative over atomic u64
//! cells, which is what makes snapshots independent of thread count and
//! scheduling (see the crate docs for the full determinism contract).
//! Lookup is a read-locked `BTreeMap` probe; creation takes the write
//! lock once per name. The returned `Arc` is a **handle**: recording on
//! it touches no lock or map, and it stays valid for the registry's
//! lifetime — [`Registry::reset`] zeroes cells in place and never removes
//! one. A cell appears in snapshots once it has been recorded into since
//! the last reset.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::expose::{HistSnapshot, Snapshot};

/// Fixed histogram bucket upper bounds, in the unit the metric's name
/// carries: nanoseconds of simulated time for every `_ns` histogram.
///
/// Spans the pipeline's dynamic range: sub-µs bus transactions through
/// second-scale campaign windows. Fixed (rather than per-metric) bounds
/// keep every histogram mergeable and every snapshot schema-stable.
pub const NS_BOUNDS: [u64; 16] = [
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// A cell a [`Registry`] can list and reset.
trait Metric: Default {
    type Snap;
    /// The cell's value; `None` until it is recorded into after creation
    /// or the last reset (an untouched cell is not part of a snapshot).
    fn snapshot(&self) -> Option<Self::Snap>;
    /// Back to the never-recorded state.
    fn reset(&self);
}

/// One u64 plus whether it was recorded into since the last reset:
/// `add(0)` and `max(0)` must still list the name, so the value alone
/// cannot say.
#[derive(Debug, Default)]
struct Scalar {
    value: AtomicU64,
    touched: AtomicBool,
}

impl Scalar {
    #[inline]
    fn touch(&self) {
        self.touched.store(true, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> Option<u64> {
        self.touched.load(Ordering::Relaxed).then(|| self.get())
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.touched.store(false, Ordering::Relaxed);
    }
}

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(Scalar);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.value.fetch_add(n, Ordering::Relaxed);
        self.0.touch();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

impl Metric for Counter {
    type Snap = u64;

    fn snapshot(&self) -> Option<u64> {
        self.0.snapshot()
    }

    fn reset(&self) {
        self.0.reset();
    }
}

/// A high-watermark gauge: max is the only "current value" aggregation
/// that is independent of update order.
#[derive(Debug, Default)]
pub struct Gauge(Scalar);

impl Gauge {
    /// Raises the gauge to `v` if larger.
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.value.fetch_max(v, Ordering::Relaxed);
        self.0.touch();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

impl Metric for Gauge {
    type Snap = u64;

    fn snapshot(&self) -> Option<u64> {
        self.0.snapshot()
    }

    fn reset(&self) {
        self.0.reset();
    }
}

/// A fixed-bucket histogram with atomic bucket counts, sum, and max.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket counts; `counts[NS_BOUNDS.len()]` is the overflow
    /// (`+Inf`) bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: (0..=NS_BOUNDS.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = NS_BOUNDS.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }
}

impl Metric for Histogram {
    type Snap = HistSnapshot;

    fn snapshot(&self) -> Option<HistSnapshot> {
        let count = self.count.load(Ordering::Relaxed);
        (count > 0).then(|| HistSnapshot {
            buckets: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count,
            max: self.max.load(Ordering::Relaxed),
        })
    }

    fn reset(&self) {
        for c in self
            .counts
            .iter()
            .chain([&self.sum, &self.count, &self.max])
        {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Named metric store. One lives as the process global (see
/// [`crate::registry`]); tests may build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Cells<Counter>,
    gauges: Cells<Gauge>,
    hists: Cells<Histogram>,
}

type Cells<T> = RwLock<BTreeMap<String, Arc<T>>>;

/// Read-mostly get-or-insert: one read-lock probe per lookup, a write
/// lock only the first time a name is seen.
fn intern<T: Default>(map: &Cells<T>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().unwrap().get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_owned()).or_default())
}

fn snapshot_cells<T: Metric>(map: &Cells<T>) -> BTreeMap<String, T::Snap> {
    let map = map.read().unwrap();
    map.iter()
        .filter_map(|(k, v)| Some((k.clone(), v.snapshot()?)))
        .collect()
}

fn reset_cells<T: Metric>(map: &Cells<T>) {
    map.read().unwrap().values().for_each(|v| v.reset());
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.hists, name)
    }

    /// Renders everything recorded since the last reset into an
    /// immutable, ordered snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: snapshot_cells(&self.counters),
            gauges: snapshot_cells(&self.gauges),
            hists: snapshot_cells(&self.hists),
        }
    }

    /// Zeroes every metric in place and drops it out of
    /// snapshots until it is recorded into again. Cells are never
    /// removed, so handles taken before a reset keep recording into the
    /// cell their name resolves to. Not atomic against concurrent
    /// recording: call it between phases, not during one.
    pub fn reset(&self) {
        reset_cells(&self.counters);
        reset_cells(&self.gauges);
        reset_cells(&self.hists);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_sorted_and_bucket_edges_are_inclusive() {
        assert!(NS_BOUNDS.windows(2).all(|w| w[0] < w[1]));
        let h = Histogram::default();
        h.observe(250); // exactly on the first bound → first bucket (le=250)
        h.observe(251);
        let s = h.snapshot().unwrap();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
    }

    #[test]
    fn overflow_bucket_catches_everything_above_the_last_bound() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        let s = h.snapshot().unwrap();
        assert_eq!(*s.buckets.last().unwrap(), 1);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn private_registry_does_not_touch_the_global() {
        let r = Registry::new();
        r.counter("uburst_private_total").add(9);
        assert_eq!(r.snapshot().counters["uburst_private_total"], 9);
        assert!(!crate::snapshot()
            .counters
            .contains_key("uburst_private_total"));
    }
}
