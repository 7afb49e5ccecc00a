//! Conservation laws of the NIC → switch → host data path.
//!
//! Every other data-path check in the repository compares one engine with
//! the other, so a mistake both make goes unseen. These laws hold for each
//! engine on its own: seeded random incast bursts — 2–16 [`HostNic`]
//! senders into one [`Switch`] whose buffer and whose NIC queues are small
//! enough to drop — are stopped at random instants mid-burst and once at
//! quiescence, under each of the four buffer policies, and at every stop
//! bytes and frames must be where the counters say they are.
//!
//! The second half holds each engine to an analytic bound instead of a
//! ledger: token-bucket sources into one egress port must stay inside the
//! network-calculus backlog and delay bounds (Lehal, Luangsomboon,
//! Liebeherr), and the all-burst-at-once pattern must come within
//! packetisation of the backlog bound.

use std::cell::Cell;
use std::rc::Rc;

use uburst_sim::prelude::*;

/// Offers `frames[i]` to its NIC when timer `i` fires.
struct Sender {
    nic: HostNic,
    /// `(offer instant, receiver, size)`.
    frames: Vec<(Nanos, NodeId, u32)>,
    /// Frames offered so far.
    offered: u64,
    /// Sizes of the frames the NIC accepted, in order.
    accepted: Vec<u32>,
}

impl Node for Sender {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, _: PortId) {
        self.nic.on_tx_complete(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let (_, dst, size) = self.frames[token as usize];
        let pkt = Packet {
            flow: FlowId(token),
            kind: PacketKind::Raw { tag: token },
            src: ctx.node(),
            dst,
            size,
            created: ctx.now(),
            ce: false,
        };
        self.offered += 1;
        if self.nic.send(ctx, pkt) {
            self.accepted.push(size);
        }
    }
    fn settle_lazy(&mut self, now: Nanos) {
        self.nic.settle_to(now);
    }
}

#[derive(Default)]
struct Receiver {
    rx_packets: u64,
    rx_bytes: u64,
    /// `(sender, arrival - created)` of every frame received.
    delays: Vec<(NodeId, Nanos)>,
}

impl Node for Receiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: PortId, pkt: Packet) {
        self.rx_packets += 1;
        self.rx_bytes += u64::from(pkt.size);
        self.delays.push((pkt.src, ctx.now() - pkt.created));
    }
}

fn policies() -> [BufferPolicyCfg; 4] {
    [
        BufferPolicyCfg::dt(1.0),
        BufferPolicyCfg::StaticPartition,
        BufferPolicyCfg::BShare {
            target_delay: Nanos::from_micros(20),
            drain_bps: 10_000_000_000,
        },
        BufferPolicyCfg::FlexibleBuffering {
            reserved_bytes: 3_000,
        },
    ]
}

/// Every cumulative counter of the scenario, flattened for the
/// monotonicity check: the switch's stats, then `(sent, dropped)` per NIC.
fn cumulative(sim: &Simulator, sw: NodeId, senders: &[NodeId]) -> Vec<u64> {
    let s = sim.node::<Switch>(sw).stats();
    let mut v = vec![
        s.rx_packets,
        s.rx_bytes,
        s.tx_packets,
        s.tx_bytes,
        s.dropped_packets,
        s.dropped_bytes,
        s.unroutable,
        s.hairpin,
    ];
    for &id in senders {
        let nic = &sim.node::<Sender>(id).nic;
        v.extend([nic.sent, nic.sent_bytes, nic.dropped]);
    }
    v
}

/// The laws that hold at any instant.
fn check_stop(sim: &Simulator, sw: NodeId, senders: &[NodeId], receivers: &[NodeId], what: &str) {
    let switch = sim.node::<Switch>(sw);
    let s = switch.stats();
    let buffered = switch.buffered_bytes();
    assert_eq!((s.unroutable, s.hairpin), (0, 0), "{what}");
    assert_eq!(
        s.rx_bytes,
        s.tx_bytes + s.dropped_bytes + buffered,
        "{what}: switch bytes"
    );
    // The switch exposes no buffered-frame count: frames it holds are the
    // ones neither sent nor dropped, and there are some exactly when it
    // holds bytes.
    let held_frames = s.rx_packets - s.tx_packets - s.dropped_packets;
    assert_eq!(held_frames > 0, buffered > 0, "{what}: switch frames");
    let ports = switch.config().ports;
    let held: u64 = (0..ports).map(|p| switch.port_held_bytes(PortId(p))).sum();
    assert_eq!(held, buffered, "{what}: per-port held bytes");
    assert!(
        buffered <= switch.config().buffer_bytes,
        "{what}: pool bound"
    );

    let mut wire_bytes = 0;
    for &id in senders {
        let host = sim.node::<Sender>(id);
        let nic = &host.nic;
        assert_eq!(
            nic.dropped + host.accepted.len() as u64,
            host.offered,
            "{what}: NIC {id:?} accepted or dropped every offer"
        );
        // The ring is FIFO: the frames still queued are the accepted ones
        // past the first `sent`.
        let (gone, queued) = host.accepted.split_at(nic.sent as usize);
        let bytes = |xs: &[u32]| xs.iter().map(|&s| u64::from(s)).sum::<u64>();
        assert_eq!(nic.sent_bytes, bytes(gone), "{what}: NIC {id:?} sent bytes");
        assert_eq!(
            nic.queue_depth_bytes(),
            bytes(queued),
            "{what}: NIC {id:?} queue depth"
        );
        assert!(
            nic.queue_depth_bytes() <= nic.config().queue_limit_bytes,
            "{what}: NIC {id:?} queue limit"
        );
        wire_bytes += nic.sent_bytes;
    }
    assert!(
        s.rx_bytes <= wire_bytes,
        "{what}: switch saw more than NICs sent"
    );
    let delivered: u64 = receivers
        .iter()
        .map(|&r| sim.node::<Receiver>(r).rx_bytes)
        .sum();
    assert!(delivered <= s.tx_bytes, "{what}: hosts saw more than sent");
}

/// Arms timer `i` of every sender at its frame `i`'s offer instant.
fn schedule_offers(sim: &mut Simulator, senders: &[NodeId]) {
    for &id in senders {
        let times: Vec<Nanos> = sim.node::<Sender>(id).frames.iter().map(|f| f.0).collect();
        for (i, at) in times.into_iter().enumerate() {
            sim.schedule_timer(at, id, i as u64);
        }
    }
}

/// Runs one seeded scenario through every stop; returns its `(NIC drops,
/// switch drops)`.
fn run_case(seed: u64, policy: BufferPolicyCfg, hybrid: bool) -> (u64, u64) {
    let what = format!("seed {seed} {} hybrid={hybrid}", policy.label());
    let mut rng = Rng::new(seed);
    let n_senders = rng.range(2, 17) as usize;
    let n_receivers = rng.range(1, 3) as usize;
    let burst = Nanos::from_micros(rng.range(20, 200));

    let mut sim = Simulator::new();
    sim.set_hybrid(hybrid);
    let receivers: Vec<NodeId> = (0..n_receivers)
        .map(|_| sim.add_node(Box::<Receiver>::default()))
        .collect();
    let senders: Vec<NodeId> = (0..n_senders)
        .map(|_| {
            let start = rng.below(burst.0 / 2);
            let frames = (0..rng.range(20, 120))
                .map(|_| {
                    let at = Nanos(start + rng.below(burst.0 / 2));
                    let size = rng.range(64, u64::from(MTU_FRAME) + 1) as u32;
                    (at, *rng.pick(&receivers), size)
                })
                .collect();
            sim.add_node(Box::new(Sender {
                nic: HostNic::new(NicConfig {
                    queue_limit_bytes: rng.range(6_000, 40_000),
                    ..NicConfig::default()
                }),
                frames,
                offered: 0,
                accepted: Vec::new(),
            }))
        })
        .collect();

    let mut routing = RoutingTable::new(0);
    for (p, &r) in receivers.iter().enumerate() {
        routing.set_route(r, Route::Port(PortId(p as u16)));
    }
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig {
            ports: (n_receivers + n_senders) as u16,
            buffer_bytes: rng.range(20_000, 120_000),
            policy,
            ecn_threshold: None,
        },
        routing,
        null_sink(),
    )));
    let spec = LinkSpec::gbps(10.0, Nanos(500));
    for (p, &host) in receivers.iter().chain(&senders).enumerate() {
        sim.connect((host, PortId(0)), (sw, PortId(p as u16)), spec);
    }
    schedule_offers(&mut sim, &senders);

    let mut stops: Vec<u64> = (0..6).map(|_| rng.below(burst.0 * 3 / 2)).collect();
    stops.sort_unstable();
    let mut last = cumulative(&sim, sw, &senders);
    for t in stops.into_iter().map(Nanos).chain([Nanos::MAX]) {
        sim.run_until(t);
        let what = format!("{what} stop {t:?}");
        check_stop(&sim, sw, &senders, &receivers, &what);
        let now = cumulative(&sim, sw, &senders);
        assert!(
            last.iter().zip(&now).all(|(a, b)| a <= b),
            "{what}: a cumulative counter went backwards: {last:?} -> {now:?}"
        );
        last = now;
    }

    // Quiescence: nothing is held anywhere and every byte is accounted.
    let switch = sim.node::<Switch>(sw);
    let s = switch.stats();
    assert_eq!(switch.buffered_bytes(), 0, "{what}: drained");
    assert_eq!(sim.arena_live(), 0, "{what}: arena drained");
    assert_eq!(s.rx_packets, s.tx_packets + s.dropped_packets, "{what}");
    let hosts = receivers.iter().map(|&r| sim.node::<Receiver>(r));
    let delivered = hosts.fold((0, 0), |(b, p), r| (b + r.rx_bytes, p + r.rx_packets));
    assert_eq!(delivered, (s.tx_bytes, s.tx_packets), "{what}: delivered");
    let (mut nic_sent, mut nic_dropped) = (0, 0);
    for &id in &senders {
        let host = sim.node::<Sender>(id);
        assert_eq!(host.offered, host.frames.len() as u64, "{what}");
        assert_eq!(host.nic.sent, host.accepted.len() as u64, "{what}");
        nic_sent += host.nic.sent;
        nic_dropped += host.nic.dropped;
    }
    assert_eq!(
        s.rx_packets, nic_sent,
        "{what}: switch saw every sent frame"
    );
    (nic_dropped, s.dropped_packets)
}

fn run_sweep(hybrid: bool) {
    for policy in policies() {
        let (mut nic, mut sw) = (0, 0);
        for seed in 1..=24 {
            let (n, s) = run_case(seed, policy, hybrid);
            nic += n;
            sw += s;
        }
        // The sweep only tests the laws if both loss points fire.
        assert!(
            nic > 0 && sw > 0,
            "{}: sweep must drop at both the NICs ({nic}) and the switch ({sw})",
            policy.label()
        );
    }
}

#[test]
fn laws_hold_in_the_lazy_engine() {
    run_sweep(true);
}

#[test]
fn laws_hold_in_the_event_per_frame_engine() {
    run_sweep(false);
}

/// Keeps the largest `buffer_level` the switch ever reported — what the
/// ASIC's peak register would hold if nobody read it.
#[derive(Default)]
struct PeakProbe {
    peak: Cell<u64>,
}

impl CounterSink for PeakProbe {
    fn count_rx(&self, _: PortId, _: u32) {}
    fn count_tx(&self, _: PortId, _: u32) {}
    fn count_drop(&self, _: PortId, _: u32) {}
    fn buffer_level(&self, used_bytes: u64) {
        self.peak.set(self.peak.get().max(used_bytes));
    }
}

/// A token-bucket source `(σ, ρ)` of MTU frames: `burst` frames offered
/// back to back at `start` (σ = `burst`·MTU), then one more frame every
/// `period` (ρ = MTU / `period`).
#[derive(Clone, Copy)]
struct Bucket {
    start: Nanos,
    burst: u64,
    period: Nanos,
}

/// Host links (C_in) and the one egress link (C) the buckets share.
const HOST_LINK: LinkSpec = LinkSpec {
    bandwidth_bps: 25_000_000_000,
    propagation: Nanos(500),
};
const EGRESS_LINK: LinkSpec = LinkSpec {
    bandwidth_bps: 10_000_000_000,
    propagation: Nanos(700),
};
/// Frames each bucket emits at rate ρ after its burst.
const PACED_FRAMES: u64 = 200;

/// Periods that share the egress link by `weights` with Σρ ≤ C: source
/// `i` sends one frame per `ceil(τ·W / w_i)`, τ the egress serialisation
/// time of a frame and W = Σw, so Σ 1/period_i ≤ 1/τ.
fn periods(weights: &[u64]) -> Vec<Nanos> {
    let tau = EGRESS_LINK.ser_time(MTU_FRAME).0;
    let total: u64 = weights.iter().sum();
    weights
        .iter()
        .map(|&w| Nanos((tau * total).div_ceil(w)))
        .collect()
}

/// Runs `buckets` through one switch into one receiver and holds the run
/// to the bounds of a rate-C FIFO fed by (σ_i, ρ_i) sources with Σρ ≤ C:
/// nothing drops in a buffer of Σσ + N·MTU, occupancy never exceeds it,
/// and no frame is delayed past its NIC's and the egress port's backlog
/// bounds. Returns the peak occupancy.
fn run_buckets(buckets: &[Bucket], hybrid: bool, what: &str) -> u64 {
    let n = buckets.len() as u64;
    let mtu = u64::from(MTU_FRAME);
    let sigma = |b: &Bucket| b.burst * mtu;
    let sigma_total: u64 = buckets.iter().map(sigma).sum();
    let backlog_bound = sigma_total + n * mtu;

    let mut sim = Simulator::new();
    sim.set_hybrid(hybrid);
    let receiver = sim.add_node(Box::<Receiver>::default());
    let senders: Vec<NodeId> = buckets
        .iter()
        .map(|b| {
            let burst = (0..b.burst).map(|_| b.start);
            let paced = (1..=PACED_FRAMES).map(|k| b.start + b.period * k);
            sim.add_node(Box::new(Sender {
                // A (σ, ρ) flow into a rate-C_in FIFO never backs up past σ.
                nic: HostNic::new(NicConfig {
                    queue_limit_bytes: sigma(b),
                    ..NicConfig::default()
                }),
                frames: burst
                    .chain(paced)
                    .map(|at| (at, receiver, MTU_FRAME))
                    .collect(),
                offered: 0,
                accepted: Vec::new(),
            }))
        })
        .collect();

    let mut routing = RoutingTable::new(0);
    routing.set_route(receiver, Route::Port(PortId(0)));
    let probe = Rc::new(PeakProbe::default());
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig {
            ports: 1 + n as u16,
            buffer_bytes: backlog_bound,
            // Threshold = alpha·free >= pool whenever a frame fits at all:
            // only the pool bound itself can refuse.
            policy: BufferPolicyCfg::dt(backlog_bound as f64),
            ecn_threshold: None,
        },
        routing,
        probe.clone(),
    )));
    sim.connect((receiver, PortId(0)), (sw, PortId(0)), EGRESS_LINK);
    for (p, &host) in senders.iter().enumerate() {
        sim.connect((host, PortId(0)), (sw, PortId(1 + p as u16)), HOST_LINK);
    }
    schedule_offers(&mut sim, &senders);
    sim.run_until(Nanos::MAX);
    check_stop(&sim, sw, &senders, &[receiver], what);

    let stats = sim.node::<Switch>(sw).stats();
    assert_eq!(stats.dropped_packets, 0, "{what}: switch drops");
    for &id in &senders {
        assert_eq!(sim.node::<Sender>(id).nic.dropped, 0, "{what}: NIC drops");
    }
    let peak = probe.peak.get();
    assert!(
        peak <= backlog_bound,
        "{what}: peak occupancy {peak} B above the backlog bound {backlog_bound} B"
    );

    // Delay: the frame's own NIC backlog (σ_i at C_in), then the egress
    // backlog (the bound above at C), plus one frame's serialisation and
    // the propagation of each link.
    let ser_in = HOST_LINK.ser_time(MTU_FRAME);
    let ser_out = EGRESS_LINK.ser_time(MTU_FRAME);
    let egress_wait = ser_out * (backlog_bound / mtu);
    let per_hop = ser_in + HOST_LINK.propagation + ser_out + EGRESS_LINK.propagation;
    let delays = &sim.node::<Receiver>(receiver).delays;
    assert_eq!(
        delays.len() as u64,
        buckets.iter().map(|b| b.burst + PACED_FRAMES).sum::<u64>(),
        "{what}: every frame delivered"
    );
    for &(src, delay) in delays {
        let i = senders.iter().position(|&s| s == src).expect("a sender");
        let bound = ser_in * buckets[i].burst + egress_wait + per_hop;
        assert!(
            delay <= bound,
            "{what}: a frame of source {i} took {delay:?}, bound {bound:?}"
        );
    }
    peak
}

fn run_calculus_bounds(hybrid: bool) {
    for n in [2usize, 4, 8] {
        // Unequal buckets at unrelated instants: the bounds must hold.
        for seed in 1..=8 {
            let mut rng = Rng::new(seed);
            let weights: Vec<u64> = (0..n).map(|_| rng.range(1, 8)).collect();
            let buckets: Vec<Bucket> = periods(&weights)
                .into_iter()
                .map(|period| Bucket {
                    start: Nanos(rng.below(200_000)),
                    burst: rng.range(1, 48),
                    period,
                })
                .collect();
            let what = format!("{n} buckets seed {seed} hybrid={hybrid}");
            run_buckets(&buckets, hybrid, &what);
        }

        // Equal buckets that all burst at t = 0: the worst case. While the
        // bursts arrive at ΣC_in the port drains at C, so Σσ·(1 − C/ΣC_in)
        // must pile up, less one frame of packetisation per source. The
        // rate ratio is the ratio of the two serialisation times.
        let burst = 32;
        let bucket = |period| Bucket {
            start: Nanos::ZERO,
            burst,
            period,
        };
        let buckets: Vec<Bucket> = periods(&vec![1; n]).into_iter().map(bucket).collect();
        let what = format!("{n} equal buckets at t=0 hybrid={hybrid}");
        let peak = run_buckets(&buckets, hybrid, &what);
        let (n, mtu) = (n as u64, u64::from(MTU_FRAME));
        let sigma_total = n * burst * mtu;
        let drained =
            sigma_total * HOST_LINK.ser_time(MTU_FRAME).0 / (n * EGRESS_LINK.ser_time(MTU_FRAME).0);
        let floor = (sigma_total - drained).saturating_sub(n * mtu);
        assert!(
            peak >= floor,
            "{what}: peak occupancy {peak} B, the pattern must reach {floor} B"
        );
    }
}

#[test]
fn calculus_bounds_hold_in_the_lazy_engine() {
    run_calculus_bounds(true);
}

#[test]
fn calculus_bounds_hold_in_the_event_per_frame_engine() {
    run_calculus_bounds(false);
}
