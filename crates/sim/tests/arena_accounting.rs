//! Packet-arena accounting properties.
//!
//! The arena's contract with the simulator: every packet handle allocated
//! by a transmission is taken back exactly once (at delivery), slots are
//! recycled through the freelist rather than grown, and a drained
//! simulation leaves zero live handles. A leak here would grow memory
//! linearly with simulated traffic; a double-free would deliver a packet
//! twice and silently corrupt results (the arena panics instead — see the
//! generation tests in `uburst_sim::arena`).

use uburst_sim::prelude::*;

/// Counts arrivals and echoes nothing.
struct SinkHost {
    rx: u64,
}
impl Node for SinkHost {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
        self.rx += 1;
    }
}

/// Sends `n` packets to `dst` through its NIC-less port, re-arming a
/// timer between sends so transmissions are spread over time and slots
/// get recycled rather than piled up.
struct Pacer {
    dst: NodeId,
    remaining: u32,
    gap: Nanos,
}
impl Node for Pacer {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let pkt = Packet {
            flow: FlowId(u64::from(self.remaining)),
            kind: PacketKind::Raw {
                tag: u64::from(self.remaining),
            },
            src: ctx.node(),
            dst: self.dst,
            size: MTU_FRAME,
            created: ctx.now(),
            ce: false,
        };
        ctx.start_tx(PortId(0), pkt);
        let gap = self.gap;
        ctx.timer_in(gap, 0);
    }
}

fn fan_in_campaign(senders: u32, per_sender: u32) -> Simulator {
    fan_in_campaign_mode(senders, per_sender, None)
}

fn fan_in_campaign_mode(senders: u32, per_sender: u32, hybrid: Option<bool>) -> Simulator {
    let mut sim = Simulator::new();
    if let Some(h) = hybrid {
        sim.set_hybrid(h);
    }
    let recv = sim.add_node(Box::new(SinkHost { rx: 0 }));
    let mut routing = RoutingTable::new(0);
    routing.set_route(recv, Route::Port(PortId(0)));
    let spec = LinkSpec::gbps(10.0, Nanos(500));

    let mut sources = Vec::new();
    for _ in 0..senders {
        sources.push(sim.add_node(Box::new(Pacer {
            dst: recv,
            remaining: per_sender,
            gap: Nanos(2_000),
        })));
    }
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig {
            ports: senders as u16 + 1,
            buffer_bytes: 12 << 20,
            policy: BufferPolicyCfg::dt(2.0),
            ecn_threshold: None,
        },
        routing,
        null_sink(),
    )));
    sim.connect((recv, PortId(0)), (sw, PortId(0)), spec);
    for (i, &src) in sources.iter().enumerate() {
        sim.connect((src, PortId(0)), (sw, PortId(i as u16 + 1)), spec);
        sim.schedule_timer(Nanos(0), src, 0);
    }
    sim
}

#[test]
fn every_allocated_handle_is_freed_exactly_once_per_campaign() {
    let mut sim = fan_in_campaign(8, 500);
    sim.run_until(Nanos::MAX);
    let stats = sim.arena_stats();
    // 8 × 500 sender transmissions + 4000 switch forwards = 8000 allocs.
    assert_eq!(stats.allocated, 8_000, "one handle per transmission");
    assert_eq!(stats.freed, stats.allocated, "freed exactly once each");
    assert_eq!(sim.arena_live(), 0, "drained simulation leaks no handles");
}

#[test]
fn slots_are_recycled_not_grown() {
    // Per-packet mode: only packets on the wire hold arena slots, so the
    // high-water mark stays near the instantaneous wire occupancy.
    let mut sim = fan_in_campaign_mode(8, 500, Some(false));
    sim.run_until(Nanos::MAX);
    let stats = sim.arena_stats();
    // Paced traffic keeps few packets simultaneously in flight, so the
    // freelist serves almost every allocation and the slot array stays at
    // the high-water mark instead of growing with total traffic.
    assert!(
        stats.reuse_hits >= stats.allocated - stats.high_water as u64,
        "freelist must serve allocations beyond the high-water mark \
         (reuse {} of {}, high water {})",
        stats.reuse_hits,
        stats.allocated,
        stats.high_water
    );
    assert!(
        (stats.high_water as u64) < stats.allocated / 10,
        "high water {} should be far below total {}",
        stats.high_water,
        stats.allocated
    );
}

#[test]
fn hybrid_high_water_tracks_peak_backlog_not_total_traffic() {
    // Hybrid fast-forward parks a congested switch's backlog in the
    // calendar as pre-scheduled arrivals, so arena occupancy tracks the
    // peak *queue* backlog instead of the wire. It must still be recycled
    // (freelist serves everything past the high-water mark) and stay well
    // below total traffic — memory is bounded by buffering, not by how
    // long the campaign runs.
    let mut sim = fan_in_campaign_mode(8, 500, Some(true));
    sim.run_until(Nanos::MAX);
    let stats = sim.arena_stats();
    assert!(
        stats.reuse_hits >= stats.allocated - stats.high_water as u64,
        "freelist must serve allocations beyond the high-water mark \
         (reuse {} of {}, high water {})",
        stats.reuse_hits,
        stats.allocated,
        stats.high_water
    );
    assert!(
        (stats.high_water as u64) < stats.allocated / 2,
        "high water {} must track peak backlog, not total traffic {}",
        stats.high_water,
        stats.allocated
    );
    assert_eq!(stats.freed, stats.allocated);
    assert_eq!(sim.arena_live(), 0);
}

#[test]
fn mid_run_horizon_reports_in_flight_handles() {
    let mut sim = fan_in_campaign(2, 50);
    // Stop at a horizon with traffic still in the air: live handles are
    // exactly the packets between start_tx and delivery.
    sim.run_until(Nanos(10_000));
    let live_mid = sim.arena_live();
    let stats = sim.arena_stats();
    assert_eq!(
        stats.allocated - stats.freed,
        live_mid as u64,
        "live = allocated - freed at any instant"
    );
    sim.run_until(Nanos::MAX);
    assert_eq!(sim.arena_live(), 0);
}
