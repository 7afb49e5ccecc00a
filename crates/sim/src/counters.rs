//! Counter sink abstraction.
//!
//! Switches report every packet they handle to a [`CounterSink`]. The real
//! implementation lives in the `uburst-asic` crate (which models counter
//! storage classes and read latencies); the simulator only needs the write
//! side, defined here so the two crates don't depend on each other in a
//! cycle.
//!
//! Methods take `&self`: sinks use interior mutability because the switch
//! and the telemetry poller share them within the single-threaded simulator.

use std::rc::Rc;

use crate::node::PortId;
use crate::time::Nanos;

/// A deferred-accounting hook every switch registers with its sink, under
/// either engine (see [`crate::txstage`]). Called with the sink itself
/// and a timestamp, it must apply every departure at or before that instant
/// to the sink, so that a counter read at the instant observes values
/// byte-identical to packet mode.
pub type FlushHook = Box<dyn Fn(&dyn CounterSink, Nanos)>;

/// Receives per-packet accounting from a switch.
pub trait CounterSink {
    /// A frame of `bytes` was received on `port`.
    fn count_rx(&self, port: PortId, bytes: u32);
    /// A frame of `bytes` finished transmitting out of `port`.
    fn count_tx(&self, port: PortId, bytes: u32);
    /// A frame of `bytes` destined to egress `port` was discarded because of
    /// buffer admission (a congestion discard, not corruption).
    fn count_drop(&self, port: PortId, bytes: u32);
    /// The shared buffer's occupancy changed to `used_bytes`. Sinks that
    /// model a peak register track the maximum between reads.
    fn buffer_level(&self, used_bytes: u64);
    /// Registers a switch's flush hook (see [`FlushHook`]). Sinks that
    /// are read mid-run at poll instants (the ASIC counter bank) store the
    /// hook and invoke it before every read; sinks nobody reads ignore it —
    /// their switches are settled by the simulator at run boundaries
    /// instead.
    fn register_flush(&self, _hook: FlushHook) {}
}

/// A sink that discards everything; for switches nobody measures.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCounters;

impl CounterSink for NullCounters {
    fn count_rx(&self, _port: PortId, _bytes: u32) {}
    fn count_tx(&self, _port: PortId, _bytes: u32) {}
    fn count_drop(&self, _port: PortId, _bytes: u32) {}
    fn buffer_level(&self, _used_bytes: u64) {}
}

/// Shared handle to a sink.
pub type SharedSink = Rc<dyn CounterSink>;

/// Convenience for the common "unmeasured switch" case.
pub fn null_sink() -> SharedSink {
    Rc::new(NullCounters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[derive(Default)]
    struct Probe {
        rx: Cell<u64>,
        tx: Cell<u64>,
        drops: Cell<u64>,
        peak: Cell<u64>,
    }

    impl CounterSink for Probe {
        fn count_rx(&self, _p: PortId, b: u32) {
            self.rx.set(self.rx.get() + u64::from(b));
        }
        fn count_tx(&self, _p: PortId, b: u32) {
            self.tx.set(self.tx.get() + u64::from(b));
        }
        fn count_drop(&self, _p: PortId, b: u32) {
            self.drops.set(self.drops.get() + u64::from(b));
        }
        fn buffer_level(&self, used: u64) {
            self.peak.set(self.peak.get().max(used));
        }
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        let probe = Rc::new(Probe::default());
        let sink: SharedSink = probe.clone();
        sink.count_rx(PortId(0), 100);
        sink.count_tx(PortId(1), 60);
        sink.count_drop(PortId(2), 40);
        sink.buffer_level(512);
        sink.buffer_level(128);
        assert_eq!(probe.rx.get(), 100);
        assert_eq!(probe.tx.get(), 60);
        assert_eq!(probe.drops.get(), 40);
        assert_eq!(probe.peak.get(), 512);
    }

    #[test]
    fn null_sink_is_inert() {
        let sink = null_sink();
        sink.count_rx(PortId(0), 1);
        sink.buffer_level(u64::MAX);
    }
}
