//! Isolated-kernel rows: fixed-size loops over one layer's hot function
//! each, run last in every traced run and measured the same way whatever the
//! workload. They price per-packet and per-poll work that the rack
//! workloads can only see from outside `sim.run`.

use std::hint::black_box;
use std::time::Instant;

use uburst_asic::{AccessModel, AsicCounters, CounterId};
use uburst_core::batch::{Batch, SourceId};
use uburst_core::collector::Collector;
use uburst_core::poller::Poller;
use uburst_core::segment::crc32;
use uburst_core::series::Series;
use uburst_core::spec::CampaignConfig;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::counters::CounterSink;
use uburst_sim::events::{EventKind, EventQueue};
use uburst_sim::node::{NodeId, PortId};
use uburst_sim::rng::Rng;
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;

use crate::workloads::Metrics;

/// Each row repeats its kernel until it has at least this much host time.
const MIN_SECONDS: f64 = 0.25;
/// Ports of the canonical ToR (24 downlinks + 4 uplinks).
const PORTS: usize = 28;

/// Repeats `pass` (which returns how many operations it did) until
/// [`MIN_SECONDS`] have been sampled; returns operations and seconds.
fn sample(mut pass: impl FnMut() -> u64) -> (f64, f64) {
    let mut ops = 0u64;
    let t0 = Instant::now();
    loop {
        ops += pass();
        let s = t0.elapsed().as_secs_f64();
        if s >= MIN_SECONDS {
            return (ops as f64, s);
        }
    }
}

fn ns_per_op((ops, seconds): (f64, f64)) -> f64 {
    seconds * 1e9 / ops
}

/// `EventQueue::schedule` + `pop_batch`: 10 000 timers spread over 2 ms
/// (two calendar days, so activation, refill and overflow all run), drained
/// in 10 µs steps the way `Simulator::run_until` drains.
fn eventq(seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0xE0);
    let mut buf = Vec::new();
    ns_per_op(sample(|| {
        let mut q = EventQueue::with_capacity(10_000);
        for i in 0..10_000u64 {
            q.schedule(
                Nanos(rng.below(2_000_000)),
                EventKind::Timer {
                    node: NodeId((i % 64) as u32),
                    token: i,
                },
            );
        }
        let mut popped = 0;
        let mut until = 0;
        while !q.is_empty() {
            until += 10_000;
            buf.clear();
            popped += q.pop_batch(Nanos(until), &mut buf) as u64;
            black_box(&buf);
        }
        10_000 + popped
    }))
}

/// `BufferPolicy::admit` under the default carving (DT, alpha 0.5) on a
/// half-full 28-port pool.
fn bufpolicy(seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0xB0);
    let policy = BufferPolicyCfg::default().build(PORTS);
    let pool = 768u64 << 10;
    let held: Vec<u64> = (0..PORTS).map(|_| rng.below(pool / PORTS as u64)).collect();
    let buffered: u64 = held.iter().sum();
    ns_per_op(sample(|| {
        let mut admitted = 0u64;
        for i in 0..100_000usize {
            admitted += u64::from(policy.admit(
                i % PORTS,
                64 + (i as u64 * 37) % 1_437,
                black_box(&held),
                buffered,
                pool,
            ));
        }
        black_box(admitted);
        100_000
    }))
}

/// The counter sink's per-packet write, and planned group reads of 1 and of
/// 29 counters (the two campaign shapes).
fn asic(m: &mut Metrics) {
    let bank = AsicCounters::new(PORTS);
    m.insert(
        "asic.count_tx_ns",
        ns_per_op(sample(|| {
            for i in 0..100_000u32 {
                bank.count_tx(PortId((i % PORTS as u32) as u16), 64 + i % 1_437);
            }
            100_000
        })),
    );
    let mut ids: Vec<CounterId> = (0..PORTS)
        .map(|i| CounterId::TxBytes(PortId(i as u16)))
        .collect();
    ids.push(CounterId::BufferPeak);
    let plan = bank.read_plan(&ids, &AccessModel::default());
    let mut out = Vec::with_capacity(ids.len());
    for (name, k) in [
        ("asic.read_planned_ns_1", 1),
        ("asic.read_planned_ns_29", ids.len()),
    ] {
        m.insert(
            name,
            ns_per_op(sample(|| {
                for _ in 0..20_000 {
                    bank.read_planned(black_box(&plan), k, &mut out);
                    black_box(&out);
                }
                20_000
            })),
        );
    }
}

/// Host time per poll of a 25 µs single-counter campaign on an idle bank:
/// the poller and the event queue with nothing else in the simulation.
fn poller(seed: u64) -> f64 {
    ns_per_op(sample(|| {
        let mut sim = Simulator::new();
        let poller = Poller::in_memory(
            AsicCounters::new_shared(4),
            AccessModel::default(),
            CampaignConfig::single(
                "bytes",
                CounterId::TxBytes(PortId(0)),
                Nanos::from_micros(25),
            ),
            seed,
        )
        .expect("valid campaign");
        let id = poller
            .spawn(&mut sim, Nanos::ZERO, Nanos::from_millis(100))
            .expect("valid window");
        sim.run_until(Nanos::MAX);
        sim.node_mut::<Poller>(id).stats().polls
    }))
}

/// The single-switch path: batches through `Collector::start(1, 64)` (the
/// caller plus one worker thread, `nproc` on the reference host).
fn collector() -> f64 {
    let batches: Vec<Batch> = (0..4_096u64)
        .map(|k| {
            let mut samples = Series::new();
            for i in 0..64u64 {
                samples.push(Nanos(1 + (k / 16) * 64_000 + i * 1_000), k * 64 + i);
            }
            Batch {
                source: SourceId((k % 16) as u32),
                campaign: "bench".into(),
                counter: CounterId::TxBytes(PortId(0)),
                samples,
            }
        })
        .collect();
    let (ops, seconds) = sample(|| {
        let (collector, tx) = Collector::start(1, 64).expect("one worker, nonzero capacity");
        for b in &batches {
            tx.send(b.clone()).expect("collector alive");
        }
        drop(tx);
        let (_, report) = collector.shutdown().expect("worker joins");
        assert_eq!(
            report.ingested,
            batches.len() as u64,
            "collector lost batches"
        );
        report.ingested
    });
    ops / seconds
}

/// Slicing-by-8 CRC-32 over an 8 MB buffer.
fn crc(seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0xC4C);
    let bytes: Vec<u8> = (0..1 << 20)
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect();
    let (ops, seconds) = sample(|| {
        black_box(crc32(black_box(&bytes)));
        bytes.len() as u64
    });
    ops / 1e6 / seconds
}

/// Measures every isolated row into `m`.
pub fn measure(seed: u64, m: &mut Metrics) {
    m.insert("sim.eventq_ns_per_op", eventq(seed));
    m.insert("sim.bufpolicy_ns_per_admit", bufpolicy(seed));
    asic(m);
    m.insert("core.poller.ns_per_poll", poller(seed));
    m.insert("core.collector.batches_per_s", collector());
    m.insert("core.segment.crc_mb_per_s", crc(seed));
}
