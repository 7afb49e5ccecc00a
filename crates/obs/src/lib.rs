//! Self-observability for the collection pipeline.
//!
//! The paper's framework measures *itself* as much as the network: §4.1
//! reports the poller's CPU cost, missed-interval rates, and the
//! dedicated-vs-shared-core tradeoff, because a µs-scale measurement
//! system is only trustworthy if its own overhead is accounted. This
//! crate is the reproduction's version of that discipline: a metrics
//! registry and text/JSON exposition that every pipeline stage (poller →
//! collector → WAL → shipper → campaign pool) reports into.
//!
//! ## Determinism contract
//!
//! Snapshots must be **byte-identical across `UBURST_THREADS`** (CI diffs
//! them), which forbids anything order- or wall-clock-dependent. The
//! registry therefore only offers commutative, associative aggregations:
//!
//! * counters — atomic add;
//! * gauges — atomic max (`fetch_max`), the only order-free "last value";
//! * histograms — fixed bucket bounds, atomic per-bucket counts, an
//!   atomic sum and max.
//!
//! Values recorded are always simulated time or event counts, never
//! wall-clock readings, and exposition renders from `BTreeMap`s so output
//! order is independent of insertion order. Any interleaving of the same
//! multiset of updates yields the same snapshot.
//!
//! ## Zero cost when disabled
//!
//! Like the `log` crate, the recorder is a process-global that defaults
//! to **off**. Every recording entry point is gated on one relaxed
//! atomic load; when disabled it returns before touching any lock or
//! map, so instrumented hot paths (the poller's per-poll bookkeeping)
//! pay one load (the benchmark's
//! `obs.enabled_overhead_frac` is the cost of turning it on). Call
//! [`enable`] in a harness or test to start collecting and [`snapshot`]
//! to render what was recorded.
//!
//! ## Handles: one recording path
//!
//! Recording is a method on a cell — [`Counter::add`], [`Gauge::max`],
//! [`Histogram::observe`] — reached through an `Arc` handle the
//! [`Registry`] hands out by name. Every recording site names its metric
//! with a literal and uses the macro of the same name ([`counter_add!`],
//! [`gauge_max!`], [`hist_observe!`]): it resolves the handle once into a
//! `OnceLock` of its own, and every later call is the enabled check plus
//! the atomic update. A name that takes a label's value picks among
//! literal sites with a `match`.
//!
//! [`reset`] zeroes cells in place and drops them out of snapshots until
//! they are recorded into again; it never removes one, so a handle taken
//! before a reset is the handle a lookup after it returns.
//!
//! ```
//! uburst_obs::enable();
//! uburst_obs::counter_add!("uburst_demo_events_total", 3);
//! uburst_obs::hist_observe!("uburst_demo_poll_ns", 25_000);
//! let snap = uburst_obs::snapshot();
//! assert!(snap.to_prometheus().contains("uburst_demo_events_total 3"));
//! # uburst_obs::reset();
//! # uburst_obs::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod registry;

pub use expose::{HistSnapshot, Snapshot};
pub use registry::{Counter, Gauge, Histogram, Registry, NS_BOUNDS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether the global recorder is collecting. Relaxed is enough: the flag
/// is a sampling switch, not a synchronization point, and instrumentation
/// sites tolerate observing a stale value for a few operations.
static ENABLED: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global registry (created on first use, even when disabled).
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Turns the global recorder on. Idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global recorder off. Already-registered metrics keep their
/// values; they simply stop accumulating.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently collecting. This is the single load
/// every instrumentation site pays when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Does nothing: the registry has no span kind. Kept only because
/// `benchmark/` calls it (ROADMAP item 3a).
#[inline]
pub fn span_record(_path: &str, _dur_ns: u64) {}

/// The global handle a literal-name site records through, resolved on
/// the site's first enabled call.
#[doc(hidden)]
#[macro_export]
macro_rules! __site_handle {
    ($cell:ident, $lookup:ident, $name:literal) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::$cell>> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::registry().$lookup($name))
    }};
}

/// Adds the value to the counter named by the literal, creating it at zero
/// on first use. The handle is resolved once per call site; the value
/// expression is evaluated only when the recorder is enabled.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr $(,)?) => {
        if $crate::enabled() {
            $crate::__site_handle!(Counter, counter, $name).add($n);
        }
    };
}

/// Raises the gauge named by the literal to the value if it exceeds the
/// gauge's current one (see [`counter_add!`]).
///
/// Max is the only "current value" aggregation that is independent of
/// update order, which the determinism contract requires; it suits the
/// high-watermark quantities the pipeline exposes (peak ship window,
/// fleet width).
#[macro_export]
macro_rules! gauge_max {
    ($name:literal, $v:expr $(,)?) => {
        if $crate::enabled() {
            $crate::__site_handle!(Gauge, gauge, $name).max($v);
        }
    };
}

/// Records the value (nanoseconds of simulated time, or any u64 measure)
/// into the fixed-bucket histogram named by the literal (see
/// [`counter_add!`]).
#[macro_export]
macro_rules! hist_observe {
    ($name:literal, $v:expr $(,)?) => {
        if $crate::enabled() {
            $crate::__site_handle!(Histogram, histogram, $name).observe($v);
        }
    };
}

/// Renders an immutable snapshot of everything recorded since the last
/// [`reset`].
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Zeroes every metric and drops it out of snapshots until it is
/// recorded into again ([`Registry::reset`]). Intended for tests and
/// multi-phase harnesses that want per-phase snapshots from one process.
pub fn reset() {
    registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests serialize on this.
    static LOCK: Mutex<()> = Mutex::new(());

    fn fresh() -> std::sync::MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap();
        reset();
        enable();
        guard
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = fresh();
        disable();
        counter_add!("uburst_test_off_total", 5);
        gauge_max!("uburst_test_off_peak", 7);
        hist_observe!("uburst_test_off_ns", 100);
        let snap = snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn counters_accumulate_and_expose() {
        let _g = fresh();
        for n in [2, 3] {
            counter_add!("uburst_test_events_total", n);
        }
        let snap = snapshot();
        assert_eq!(snap.counters["uburst_test_events_total"], 5);
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE uburst_test_events_total counter"));
        assert!(text.contains("uburst_test_events_total 5"));
        disable();
    }

    #[test]
    fn gauge_keeps_the_maximum() {
        let _g = fresh();
        for v in [2, 7, 4] {
            gauge_max!("uburst_test_level", v);
        }
        assert_eq!(snapshot().gauges["uburst_test_level"], 7);
        disable();
    }

    #[test]
    fn histogram_buckets_sum_and_max() {
        let _g = fresh();
        for v in [300, 30_000, u64::MAX / 2] {
            hist_observe!("uburst_test_cost_ns", v);
        }
        let snap = snapshot();
        let h = &snap.hists["uburst_test_cost_ns"];
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX / 2);
        assert_eq!(h.sum, 300 + 30_000 + u64::MAX / 2);
        // Cumulative bucket counts end at the total.
        assert_eq!(*h.cumulative().last().unwrap(), 3);
        disable();
    }

    #[test]
    fn snapshot_is_update_order_independent() {
        let _g = fresh();
        let updates: &[(&str, u64)] = &[
            ("uburst_a_total", 1),
            ("uburst_b_total", 10),
            ("uburst_a_total", 2),
        ];
        for &(n, v) in updates {
            registry().counter(n).add(v);
            hist_observe!("uburst_order_ns", v);
        }
        let fwd = snapshot();
        reset();
        for &(n, v) in updates.iter().rev() {
            registry().counter(n).add(v);
            hist_observe!("uburst_order_ns", v);
        }
        let rev = snapshot();
        assert_eq!(fwd.to_prometheus(), rev.to_prometheus());
        assert_eq!(fwd.to_json(), rev.to_json());
        disable();
    }

    #[test]
    fn concurrent_updates_are_deterministic() {
        let _g = fresh();
        let run = || {
            reset();
            std::thread::scope(|s| {
                for t in 0..8 {
                    s.spawn(move || {
                        // Through the per-site handles: eight threads
                        // share each of the three statics below.
                        for i in 0..1000u64 {
                            counter_add!("uburst_mt_total", 1);
                            gauge_max!("uburst_mt_peak", t * 1000 + i);
                            hist_observe!("uburst_mt_ns", (t * 1000 + i) % 70_000);
                        }
                    });
                }
            });
            snapshot().to_prometheus()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("uburst_mt_total 8000"));
        assert!(a.contains("uburst_mt_peak 7999"));
        disable();
    }

    #[test]
    fn reset_empties_the_snapshot_and_handles_survive_it() {
        let _g = fresh();
        let record = |n: u64| {
            counter_add!("uburst_test_reset_total", n);
            gauge_max!("uburst_test_reset_peak", n);
            hist_observe!("uburst_test_reset_ns", n);
        };
        record(40);
        reset();
        let empty = snapshot();
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());
        assert!(empty.hists.is_empty());
        assert_eq!(empty.to_prometheus(), Snapshot::default().to_prometheus());
        // The same three sites, so the same three handles: each cell comes
        // back holding only what was recorded after the reset.
        record(2);
        let snap = snapshot();
        assert_eq!(snap.counters["uburst_test_reset_total"], 2);
        assert_eq!(snap.gauges["uburst_test_reset_peak"], 2);
        let h = &snap.hists["uburst_test_reset_ns"];
        assert_eq!((h.count, h.sum, h.max), (1, 2, 2));
        assert_eq!(
            snap.counters.len() + snap.gauges.len() + snap.hists.len(),
            3
        );
        disable();
    }

    #[test]
    fn recording_zero_still_lists_the_name() {
        let _g = fresh();
        counter_add!("uburst_test_zero_total", 0);
        gauge_max!("uburst_test_zero_peak", 0);
        let snap = snapshot();
        assert_eq!(snap.counters["uburst_test_zero_total"], 0);
        assert_eq!(snap.gauges["uburst_test_zero_peak"], 0);
        assert!(snap.to_prometheus().contains("uburst_test_zero_total 0"));
        disable();
    }

    #[test]
    fn handle_and_by_name_calls_land_in_one_cell() {
        let _g = fresh();
        counter_add!("uburst_test_shared_total", 3);
        registry().counter("uburst_test_shared_total").add(5);
        gauge_max!("uburst_test_shared_peak", 9);
        registry().gauge("uburst_test_shared_peak").max(6);
        hist_observe!("uburst_test_shared_ns", 300);
        registry().histogram("uburst_test_shared_ns").observe(700);
        let snap = snapshot();
        assert_eq!(snap.counters["uburst_test_shared_total"], 8);
        assert_eq!(snap.gauges["uburst_test_shared_peak"], 9);
        let h = &snap.hists["uburst_test_shared_ns"];
        assert_eq!((h.count, h.sum), (2, 1_000));
        disable();
    }

    #[test]
    fn handle_sites_record_nothing_while_disabled() {
        let _g = fresh();
        let record = |n: u64| {
            counter_add!("uburst_test_off_site_total", n);
            hist_observe!("uburst_test_off_site_ns", n);
        };
        // The sites resolve their handles while enabled; disabling still
        // silences them.
        record(1);
        disable();
        record(5);
        enable();
        record(2);
        let snap = snapshot();
        assert_eq!(snap.counters["uburst_test_off_site_total"], 3);
        assert_eq!(snap.hists["uburst_test_off_site_ns"].count, 2);
        disable();
    }
}
