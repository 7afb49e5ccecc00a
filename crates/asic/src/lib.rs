//! # uburst-asic — switch ASIC counter model
//!
//! The hardware substrate the paper's collection framework polls, rebuilt in
//! software: per-port cumulative byte/packet counters, RMON-style packet-size
//! histograms, congestion-discard counters, and the read-and-clear peak
//! shared-buffer register — plus the **access-latency model** (register vs.
//! memory vs. wide-memory storage classes, batched-read amortization) that
//! determines how fast each counter can be polled, which is the physical
//! constraint behind the paper's Table 1.
//!
//! The write side implements `uburst_sim::counters::CounterSink`, so a
//! simulated switch updates these counters on every packet. The read side
//! ([`AsicCounters::read`]) is what `uburst-core`'s pollers call, paying the
//! [`AccessModel`] cost in simulated time.
//!
//! Reads are *best-effort* in production: the [`fault`] module injects
//! seeded, reproducible bus timeouts, latency spikes, stale reads, and
//! narrow (wrapping) counter widths so the collection tier's degradation
//! paths can be exercised deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod counters;
pub mod fault;
pub mod readplan;

pub use access::{AccessModel, StorageClass};
pub use counters::{
    size_bin, AsicCounters, CounterId, N_SIZE_BINS, SIZE_BIN_EDGES, SIZE_BIN_LABELS,
};
pub use fault::{FaultInjector, FaultPlan, FaultStats, ReadFault};

#[cfg(test)]
mod integration {
    //! ASIC wired into a live simulated switch.

    use super::*;
    use std::rc::Rc;
    use uburst_sim::prelude::*;

    /// Node that sends `n` raw packets to `dst`, one per tx-complete, so the
    /// port discipline (one packet in flight) is respected.
    struct Burst {
        dst: NodeId,
        n: u32,
        size: u32,
    }
    impl Burst {
        fn send_one(&mut self, ctx: &mut Ctx<'_>) {
            if self.n == 0 {
                return;
            }
            self.n -= 1;
            ctx.start_tx(
                PortId(0),
                Packet {
                    flow: FlowId(u64::from(self.n)),
                    kind: PacketKind::Raw { tag: 0 },
                    src: ctx.node(),
                    dst: self.dst,
                    size: self.size,
                    created: ctx.now(),
                    ce: false,
                },
            );
        }
    }
    impl Node for Burst {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.send_one(ctx);
        }
        fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, _: PortId) {
            self.send_one(ctx);
        }
    }

    struct Sink;
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    }

    #[test]
    fn switch_updates_asic_counters() {
        let mut sim = Simulator::new();
        let recv = sim.add_node(Box::new(Sink));
        let send = sim.add_node(Box::new(Burst {
            dst: recv,
            n: 10,
            size: 1000,
        }));
        let counters = AsicCounters::new_shared(2);
        let mut routing = RoutingTable::new(0);
        routing.set_route(recv, Route::Port(PortId(0)));
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig {
                ports: 2,
                buffer_bytes: 1 << 20,
                policy: BufferPolicyCfg::dt(2.0),
                ecn_threshold: None,
            },
            routing,
            counters.clone() as Rc<dyn CounterSink>,
        )));
        let spec = LinkSpec::gbps(10.0, Nanos(500));
        sim.connect((recv, PortId(0)), (sw, PortId(0)), spec);
        sim.connect((send, PortId(0)), (sw, PortId(1)), spec);
        sim.schedule_timer(Nanos(0), send, 0);
        sim.run_until(Nanos::from_millis(10));

        // All 10 frames counted in on port 1 and out on port 0.
        assert_eq!(counters.read(CounterId::RxBytes(PortId(1))), 10_000);
        assert_eq!(counters.read(CounterId::RxPackets(PortId(1))), 10);
        assert_eq!(counters.read(CounterId::TxBytes(PortId(0))), 10_000);
        assert_eq!(counters.read(CounterId::Drops(PortId(0))), 0);
        // 1000-byte frames land in the 512-1023 bin.
        assert_eq!(counters.read(CounterId::TxSizeHist(PortId(0), 4)), 10);
        // The buffer held at least one frame at some point, and is empty now.
        assert!(counters.read(CounterId::BufferPeak) >= 1000);
        assert_eq!(counters.read(CounterId::BufferLevel), 0);
    }
}
