//! Benchmarks for the collection framework: how fast the building blocks
//! run on the host (distinct from the simulated-time behaviour the figures
//! measure).
//!
//! Self-contained `Instant`-based harness (no external bench framework);
//! run with `cargo bench --bench framework`.

use std::hint::black_box;

use uburst_asic::{AccessModel, AsicCounters, CounterId};
use uburst_bench::benchjson::BenchRecorder;
use uburst_bench::runner::bench;
use uburst_core::batch::{Batch, BatchPolicy, Batcher, SourceId};
use uburst_core::collector::Collector;
use uburst_core::poller::Poller;
use uburst_core::series::Series;
use uburst_core::spec::CampaignConfig;
use uburst_sim::counters::CounterSink;
use uburst_sim::events::{EventKind, EventQueue};
use uburst_sim::node::{NodeId, PortId};
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;

fn bench_event_queue(rec: &mut BenchRecorder) {
    bench(rec, "schedule_pop_10k", 50, || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(
                Nanos((i * 7919) % 100_000),
                EventKind::Timer {
                    node: NodeId(0),
                    token: i,
                },
            );
        }
        let mut popped = 0u64;
        while let Some(e) = q.pop_until(Nanos::MAX) {
            popped = popped.wrapping_add(e.time.as_nanos());
        }
        popped
    });
}

fn bench_event_drain(rec: &mut BenchRecorder) {
    // The simulator's actual consumption protocol: drain whole activated
    // buckets into a reusable buffer instead of popping one event at a
    // time (compare against schedule_pop_10k above).
    bench(rec, "event_drain_10k", 50, || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(
                Nanos((i * 7919) % 100_000),
                EventKind::Timer {
                    node: NodeId(0),
                    token: i,
                },
            );
        }
        let mut buf = Vec::new();
        let mut popped = 0u64;
        loop {
            buf.clear();
            if q.pop_batch(Nanos::MAX, &mut buf) == 0 {
                break;
            }
            for e in &buf {
                popped = popped.wrapping_add(e.time.as_nanos());
            }
        }
        popped
    });
}

fn bench_arena_churn(rec: &mut BenchRecorder) {
    use uburst_sim::packet::{FlowId, Packet, PacketKind};
    use uburst_sim::prelude::PacketArena;
    // Steady-state packet churn: a few packets in flight, a million
    // alloc/take cycles — the freelist path the hot loop lives on.
    bench(rec, "arena_packet_churn_1M", 20, || {
        let mut arena = PacketArena::new();
        let mut refs = std::collections::VecDeque::with_capacity(8);
        let mut acc = 0u64;
        for i in 0..1_000_000u64 {
            refs.push_back(arena.alloc(Packet {
                flow: FlowId(i),
                kind: PacketKind::Raw { tag: i },
                src: NodeId(0),
                dst: NodeId(1),
                size: 1500,
                created: Nanos(i),
                ce: false,
            }));
            if refs.len() == 8 {
                let pkt = arena.take(refs.pop_front().expect("nonempty"));
                acc = acc.wrapping_add(pkt.flow.0);
            }
        }
        while let Some(r) = refs.pop_front() {
            acc = acc.wrapping_add(arena.take(r).flow.0);
        }
        acc
    });
}

fn bench_counter_ops(rec: &mut BenchRecorder) {
    let bank = AsicCounters::new(32);
    bench(rec, "count_tx_1M", 20, || {
        for _ in 0..1_000_000u32 {
            bank.count_tx(black_box(PortId(3)), black_box(1500));
        }
        bank.read(CounterId::TxBytes(PortId(3)))
    });
    bench(rec, "read_byte_counter_1M", 20, || {
        let mut acc = 0u64;
        for _ in 0..1_000_000u32 {
            acc = acc.wrapping_add(bank.read(black_box(CounterId::TxBytes(PortId(3)))));
        }
        acc
    });
    let access = AccessModel::default();
    let ids: Vec<CounterId> = (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect();
    bench(rec, "poll_cost_model_4x1M", 20, || {
        let mut acc = 0u64;
        for _ in 0..1_000_000u32 {
            acc = acc.wrapping_add(access.poll_cost(black_box(&ids)).as_nanos());
        }
        acc
    });
    // The planned (batched) counterparts of the two cases above: the poller
    // hot path after resolving the counter list once.
    let plan = bank.read_plan(&ids, &access);
    bench(rec, "planned_read_4x1M", 20, || {
        let mut out = Vec::with_capacity(ids.len());
        let mut acc = 0u64;
        for _ in 0..1_000_000u32 {
            bank.read_planned(black_box(&plan), 4, &mut out);
            acc = acc.wrapping_add(out[0]);
        }
        acc
    });
    bench(rec, "plan_cost_lookup_4x1M", 20, || {
        let mut acc = 0u64;
        for _ in 0..1_000_000u32 {
            acc = acc.wrapping_add(black_box(&plan).cost(4).as_nanos());
        }
        acc
    });
}

fn bench_poller_loop(rec: &mut BenchRecorder) {
    // Host cost of simulating one second of 25us polling on an idle bank.
    bench(rec, "simulate_1s_at_25us", 20, || {
        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(4);
        let poller = Poller::in_memory(
            bank,
            AccessModel::default(),
            CampaignConfig::single(
                "bytes",
                CounterId::TxBytes(PortId(0)),
                Nanos::from_micros(25),
            ),
            1,
        )
        .expect("valid campaign");
        let id = poller
            .spawn(&mut sim, Nanos::ZERO, Nanos::from_secs(1))
            .expect("valid window");
        sim.run_until(Nanos::MAX);
        sim.node_mut::<Poller>(id).stats().polls
    });
}

fn bench_batcher(rec: &mut BenchRecorder) {
    bench(rec, "record_10k_samples", 50, || {
        let mut batcher = Batcher::new(
            SourceId(0),
            "bench",
            vec![CounterId::TxBytes(PortId(0))],
            BatchPolicy::default(),
        );
        let mut out = 0u64;
        for i in 0..10_000u64 {
            out += batcher.record(Nanos(i * 25_000), &[i]).len() as u64;
        }
        out
    });
}

fn bench_collector(rec: &mut BenchRecorder) {
    let make_batch = |k: u64| {
        let mut s = Series::new();
        for i in 0..1_000u64 {
            s.push(Nanos(k * 1_000_000 + i * 25), i);
        }
        Batch {
            source: SourceId(0),
            campaign: "bench".into(),
            counter: CounterId::TxBytes(PortId(0)),
            samples: s,
        }
    };
    bench(rec, "ingest_100_batches_of_1k", 20, || {
        let (collector, tx) = Collector::start(2, 64).expect("collector starts");
        for k in 0..100u64 {
            tx.send(make_batch(k)).expect("send");
        }
        drop(tx);
        let (store, report) = collector.shutdown().expect("clean shutdown");
        store.total_samples() as u64 + report.ingested
    });
}

/// `switches` x 16 rounds of 64-sample batches over mildly lossy links —
/// the aggregation-tier workload shared by the fleet benches below.
fn fleet_streams(switches: u32) -> Vec<uburst_core::fleet::SwitchStream> {
    use uburst_core::fleet::{RoundInput, SwitchStream};
    use uburst_core::link::LinkPlan;
    (0..switches)
        .map(|sw| {
            let rounds = (0..16u64)
                .map(|r| {
                    let mut s = Series::new();
                    for i in 0..64u64 {
                        s.push(Nanos(1 + r * 64_000 + i * 1_000), r * 64 + i);
                    }
                    RoundInput {
                        batches: vec![Batch {
                            source: SourceId(sw),
                            campaign: "bench".into(),
                            counter: CounterId::TxBytes(PortId(0)),
                            samples: s,
                        }],
                        degraded: false,
                    }
                })
                .collect();
            SwitchStream {
                source: SourceId(sw),
                link: LinkPlan::default(),
                link_seed: 0xB0B ^ sw as u64,
                rounds,
            }
        })
        .collect()
}

fn bench_fleet_ingest(rec: &mut BenchRecorder) {
    use uburst_core::fleet::{run_fleet, FleetConfig};
    // Host cost of the whole aggregation tier: retransmits included,
    // merged through per-switch sequence spaces into one store.
    bench(rec, "fleet_ingest_64sw_16r", 20, || {
        let out = run_fleet(fleet_streams(64), &FleetConfig::default());
        out.store.total_samples() as u64
    });
    // ROADMAP item 1's pinned 1k-switch row: the same generator at 16x
    // the switches, where the working set no longer fits the cache. Work
    // that grows with the fleet (a per-source table walked per batch, a
    // ledger clone per lane) shows here and not in the row above.
    bench(rec, "fleet_ingest_1024sw_16r", 5, || {
        let out = run_fleet(fleet_streams(1024), &FleetConfig::default());
        out.store.total_samples() as u64
    });
}

fn bench_obs_enabled(rec: &mut BenchRecorder) {
    // What one instrumented site costs with the recorder on (ROADMAP 4b;
    // count_tx_1M and the poller rows gate the disabled path): the
    // enabled check plus the atomic add through the site's handle.
    uburst_obs::enable();
    bench(rec, "obs_enabled_counter_add_1M", 20, || {
        for i in 0..1_000_000u64 {
            uburst_obs::counter_add!("uburst_bench_obs_total", black_box(i & 1));
        }
        uburst_obs::snapshot().counters["uburst_bench_obs_total"]
    });
    uburst_obs::disable();
    uburst_obs::reset();
}

fn bench_fleet_recovery(rec: &mut BenchRecorder) {
    use uburst_core::failpoint::RegionCrashPlan;
    use uburst_core::fleet::{run_fleet, run_fleet_with_crashes, FleetConfig};
    // The failover path end to end: the busiest region's WAL dies halfway
    // through its write stream, switches re-shard to the survivors, the
    // WAL replays on recovery, and the run still converges. The crash
    // offset comes from one reference run outside the timed loop.
    let cfg = FleetConfig::default();
    let reference = run_fleet(fleet_streams(64), &cfg);
    let victim = reference
        .regions
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.wal_bytes)
        .map(|(i, _)| i)
        .expect("fleet has regions");
    let crash = RegionCrashPlan::kill(victim, reference.regions[victim].wal_bytes / 2);
    bench(rec, "fleet_region_recovery_64sw", 20, || {
        let out = run_fleet_with_crashes(fleet_streams(64), &cfg, &crash);
        out.store.total_samples() as u64 + out.regions[victim].recoveries
    });
}

fn bench_group_commit(rec: &mut BenchRecorder) {
    use uburst_core::ship::SeqBatch;
    use uburst_core::wal::{DurableStore, FsyncPolicy, MemStorage, WalConfig};
    // The aggregator's WAL hot path in isolation: 64 sources, windows of
    // one batch per source per tick, each window one commit group — the
    // same shape run_fleet pumps, minus the links and shippers.
    let make_windows = || -> Vec<Vec<SeqBatch>> {
        (0..16u64)
            .map(|r| {
                (0..64u32)
                    .map(|sw| {
                        let mut s = Series::new();
                        for i in 0..64u64 {
                            s.push(Nanos(1 + r * 64_000 + i * 1_000), r * 64 + i);
                        }
                        SeqBatch {
                            seq: r,
                            watermark: r + 1,
                            batch: Batch {
                                source: SourceId(sw),
                                campaign: "bench".into(),
                                counter: CounterId::TxBytes(PortId(0)),
                                samples: s,
                            },
                        }
                    })
                    .collect()
            })
            .collect()
    };
    bench(rec, "group_commit_ingest_64sw", 20, || {
        let mut ds = DurableStore::create(
            MemStorage::new(),
            WalConfig {
                segment_max_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(16),
            },
        )
        .expect("create");
        let mut out = Vec::new();
        for window in make_windows() {
            ds.ingest_group(&window, &mut out).expect("mem ingest");
        }
        ds.store().total_samples() as u64
    });
}

fn bench_buffer_policy(rec: &mut BenchRecorder) {
    use uburst_sim::bufpolicy::BufferPolicyCfg;
    // The admission decision sits on the switch's per-packet hot path:
    // sweep all four carving policies over a synthetic occupancy ramp,
    // 1M admits each. FlexibleBuffering is the interesting case — its
    // shared-remainder check walks the held vector per admission.
    let policies = [
        BufferPolicyCfg::dt(0.5),
        BufferPolicyCfg::StaticPartition,
        BufferPolicyCfg::BShare {
            target_delay: Nanos::from_micros(50),
            drain_bps: 10_000_000_000,
        },
        BufferPolicyCfg::FlexibleBuffering {
            reserved_bytes: 24 << 10,
        },
    ];
    let ports = 32usize;
    let pool = 12u64 << 20;
    bench(rec, "buffer_policy_sweep_4x1M", 20, || {
        let mut admitted = 0u64;
        for cfg in policies {
            let policy = cfg.build(ports);
            let mut held = vec![0u64; ports];
            let mut buffered = 0u64;
            for i in 0..1_000_000u64 {
                let port = (i % ports as u64) as usize;
                if policy.admit(port, 1500, &held, buffered, pool) {
                    admitted += 1;
                    held[port] += 1500;
                    buffered += 1500;
                }
                // Drain roughly as fast as we fill so the ramp exercises
                // both the admit and the reject branches.
                if buffered > pool / 2 {
                    let p = (i % ports as u64) as usize;
                    buffered -= held[p];
                    held[p] = 0;
                }
            }
        }
        admitted
    });
}

fn bench_csv_codec(rec: &mut BenchRecorder) {
    use uburst_core::store::SampleStore;
    // The raw-data dump both ways: 1024 series x 1024 samples (~35 MB of
    // text), store and dump built once outside the timed closures.
    let store = SampleStore::new();
    for series in 0..1024u32 {
        let mut s = Series::new();
        for i in 0..1024u64 {
            s.push(
                Nanos::from_micros(25 * (i + 1)),
                i * 1500 * u64::from(series + 1),
            );
        }
        let batch = Batch {
            source: SourceId(series / 4),
            campaign: "bench".into(),
            counter: CounterId::TxBytes(PortId((series % 4) as u16)),
            samples: s,
        };
        store.ingest(&batch).expect("well-formed batch");
    }
    let mut dump = Vec::new();
    store.export_csv(&mut dump).expect("writing to memory");
    bench(rec, "csv_export_1M_rows", 10, || {
        let mut out = Vec::with_capacity(dump.len());
        store.export_csv(&mut out).expect("writing to memory");
        out.len() as u64
    });
    bench(rec, "csv_import_1M_rows", 10, || {
        let imported = SampleStore::import_csv(dump.as_slice()).expect("an exported dump");
        imported.total_samples() as u64
    });
}

fn main() {
    let mut rec = BenchRecorder::new("framework");
    bench_event_queue(&mut rec);
    bench_event_drain(&mut rec);
    bench_arena_churn(&mut rec);
    bench_counter_ops(&mut rec);
    bench_poller_loop(&mut rec);
    bench_batcher(&mut rec);
    bench_collector(&mut rec);
    bench_fleet_ingest(&mut rec);
    bench_obs_enabled(&mut rec);
    bench_fleet_recovery(&mut rec);
    bench_group_commit(&mut rec);
    bench_buffer_policy(&mut rec);
    bench_csv_codec(&mut rec);
    rec.flush();
}
