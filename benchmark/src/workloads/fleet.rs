//! `fleet_ingest`: the collection write path at fleet scale, the DES absent.
//! Seeded per-switch counter streams are cut into batches and pumped through
//! shipper → lossy link → segment/CRC → regional WAL group commit → region
//! store → global store by `run_fleet`.

use std::collections::BTreeMap;
use std::time::Instant;

use uburst_asic::CounterId;
use uburst_core::batch::{Batch, BatchPolicy, Batcher, SourceId};
use uburst_core::fleet::{
    rendezvous_region, run_fleet, FleetConfig, FleetOutcome, RoundInput, SwitchStream,
};
use uburst_core::link::{LinkPlan, LossyLink};
use uburst_core::segment::frame_record_into;
use uburst_core::ship::{AckMsg, SeqBatch, Shipper};
use uburst_core::store::{SampleStore, SeqIngest};
use uburst_core::wal::{DurableStore, MemStorage};
use uburst_sim::time::Nanos;

use super::{per_rep, ratio, self_seconds, Metrics, Rep, Workload};
use crate::gen::{switch_polls, Poll, UPLINK_COUNTERS};
use crate::stats::Fnv;
use crate::trace::Tracer;

/// Samples per batch: one batch per counter per round.
pub const SAMPLES_PER_BATCH: usize = 64;

/// Folds one series into a store digest, keyed the way every store digest
/// in this benchmark is: source, counter, timestamps, values.
pub fn fold_series(h: &mut Fnv, source: SourceId, counter: CounterId, ts: &[u64], vs: &[u64]) {
    h.u64(u64::from(source.0));
    h.bytes(format!("{counter:?}").as_bytes());
    h.u64s(ts);
    h.u64s(vs);
}

/// Digest of everything a store holds, in key order.
pub fn digest_store(store: &SampleStore) -> u64 {
    let mut h = Fnv::default();
    for key in store.keys() {
        let s = store
            .series(key.source, key.counter)
            .expect("listed key has a series");
        fold_series(&mut h, key.source, key.counter, &s.ts, &s.vs);
    }
    h.finish()
}

/// The digest a store must have after ingesting every switch's polls,
/// computed from the generated polls alone (the oracle the stored series
/// are checked against). With `torn_last` the final switch's final counter
/// lacks its last batch — the record `store_recover` tears.
pub fn expected_digest(polls: &[Vec<Poll>], torn_last: bool) -> u64 {
    let mut h = Fnv::default();
    for (sw, switch) in polls.iter().enumerate() {
        for (c, &counter) in UPLINK_COUNTERS.iter().enumerate() {
            let last = sw + 1 == polls.len() && c + 1 == UPLINK_COUNTERS.len();
            let keep = if torn_last && last {
                switch.len() - SAMPLES_PER_BATCH
            } else {
                switch.len()
            };
            let ts: Vec<u64> = switch[..keep].iter().map(|p| p.0 .0).collect();
            let vs: Vec<u64> = switch[..keep].iter().map(|p| p.1[c]).collect();
            fold_series(&mut h, SourceId(sw as u32), counter, &ts, &vs);
        }
    }
    h.finish()
}

/// Samples in every switch's polls, all counters counted.
pub fn total_samples(polls: &[Vec<Poll>]) -> u64 {
    polls.iter().map(|p| p.len() as u64).sum::<u64>() * UPLINK_COUNTERS.len() as u64
}

/// Cuts one switch's polls into rounds of batches with the product's
/// [`Batcher`]: one batch per uplink counter every [`SAMPLES_PER_BATCH`]
/// polls.
pub fn cut_rounds(source: SourceId, polls: &[Poll]) -> Vec<Vec<Batch>> {
    let mut batcher = Batcher::new(
        source,
        "bench",
        UPLINK_COUNTERS.to_vec(),
        BatchPolicy {
            max_samples: SAMPLES_PER_BATCH,
            max_age: Nanos::MAX,
        },
    );
    let mut rounds = Vec::with_capacity(polls.len() / SAMPLES_PER_BATCH);
    for (t, values) in polls {
        let cut = batcher.record(*t, values);
        if !cut.is_empty() {
            rounds.push(cut);
        }
    }
    rounds
}

/// Generates every switch's polls and cuts them into rounds, with a span
/// around each of the two steps.
pub fn generate_rounds(
    seed: u64,
    switches: u32,
    rounds: usize,
    t: &mut Tracer,
) -> (Vec<Vec<Poll>>, Vec<Vec<Vec<Batch>>>) {
    let mut all_polls = Vec::with_capacity(switches as usize);
    let mut all_rounds = Vec::with_capacity(switches as usize);
    for sw in 0..switches {
        let polls = t.span("gen.polls", |_| {
            switch_polls(seed, sw, rounds * SAMPLES_PER_BATCH)
        });
        let cut = t.span("core.batch.record", |_| cut_rounds(SourceId(sw), &polls));
        t.count(
            "core.batch.samples",
            (polls.len() * UPLINK_COUNTERS.len()) as u64,
        );
        t.count(
            "core.batch.batches_cut",
            cut.iter().map(|r| r.len() as u64).sum(),
        );
        all_polls.push(polls);
        all_rounds.push(cut);
    }
    (all_polls, all_rounds)
}

/// The fleet workload's size.
#[derive(Debug, Clone)]
pub struct Fleet {
    switches: u32,
    rounds: usize,
}

impl Fleet {
    /// The ROADMAP's 1000-switch scale: 1024 switches × 16 rounds × 4
    /// uplink counters × 64 samples = 65 536 batches, 4.2 M samples.
    pub fn ingest() -> Self {
        Fleet {
            switches: 1024,
            rounds: 16,
        }
    }

    /// 1/16 of the switches (unit-test smoke runs).
    #[cfg(test)]
    pub fn smoke(mut self) -> Self {
        self.switches /= 16;
        self
    }
}

/// What `fleet_ingest` generates from the seed.
pub struct FleetInput {
    streams: Vec<SwitchStream>,
    expected_digest: u64,
    produced: u64,
    samples: u64,
}

fn link_seed(seed: u64, switch: u32) -> u64 {
    seed ^ 0xB0B ^ (u64::from(switch) << 20)
}

impl Workload for Fleet {
    type Input = FleetInput;
    type Prepared = Vec<SwitchStream>;
    type Output = FleetOutcome;

    fn name(&self) -> &'static str {
        "fleet_ingest"
    }

    fn generate(&self, seed: u64, t: &mut Tracer) -> FleetInput {
        let (polls, rounds) = generate_rounds(seed, self.switches, self.rounds, t);
        let expected_digest = expected_digest(&polls, false);
        let samples = total_samples(&polls);
        let streams: Vec<SwitchStream> = rounds
            .into_iter()
            .enumerate()
            .map(|(sw, rounds)| SwitchStream {
                source: SourceId(sw as u32),
                link: LinkPlan::default(),
                link_seed: link_seed(seed, sw as u32),
                rounds: rounds
                    .into_iter()
                    .map(|batches| RoundInput {
                        batches,
                        degraded: false,
                    })
                    .collect(),
            })
            .collect();
        let produced = streams
            .iter()
            .flat_map(|s| &s.rounds)
            .map(|r| r.batches.len() as u64)
            .sum();
        FleetInput {
            streams,
            expected_digest,
            produced,
            samples,
        }
    }

    fn prepare(&self, input: &FleetInput) -> Vec<SwitchStream> {
        input.streams.clone()
    }

    fn run(&self, _: &FleetInput, streams: Vec<SwitchStream>, t: &mut Tracer) -> FleetOutcome {
        t.span("core.fleet.run", |_| {
            run_fleet(streams, &FleetConfig::default())
        })
    }

    /// The operation is a produced batch. It fails if it was not stored;
    /// every batch fails if a switch's ledger does not tile, a switch stored
    /// less than it was acked, or the stored series differ from the
    /// generated ones.
    fn check(&self, input: &FleetInput, out: FleetOutcome, t: &mut Tracer) -> Rep {
        let digest = digest_store(&out.store);
        let mut lost = 0;
        let mut broken = digest != input.expected_digest;
        let mut produced = 0;
        for s in &out.coverage.switches {
            produced += s.produced;
            lost += s.produced.saturating_sub(s.stored);
            broken |= s.stored + s.excluded + s.refused > s.produced || s.stored < s.acked;
        }
        broken |= produced != input.produced;
        t.count("core.fleet.produced", produced);
        t.count("core.fleet.stored", produced - lost);
        t.count(
            "core.wal.bytes",
            out.regions.iter().map(|r| r.wal_bytes).sum(),
        );
        t.count("core.store.duplicates", out.store.stats().duplicate_batches);
        Rep {
            digest,
            attempted: input.produced,
            failed: if broken { input.produced } else { lost },
        }
    }

    fn layers(&self, input: &FleetInput, traced: &Tracer, reps: u32, m: &mut Metrics) -> u64 {
        let run_s = self_seconds(traced, "core.fleet.run") / f64::from(reps.max(1));
        let produced = input.produced as f64;
        m.insert("core.fleet.run_frac", traced.share("core.fleet.run"));
        m.insert("core.fleet.batches_per_s", ratio(produced, run_s));
        m.insert(
            "core.fleet.samples_per_s",
            ratio(input.samples as f64, run_s),
        );
        m.insert(
            "core.fleet.coverage_frac",
            ratio(
                traced.counted("core.fleet.stored") as f64,
                traced.counted("core.fleet.produced") as f64,
            ),
        );
        let wal_bytes = per_rep(traced, "core.wal.bytes", reps);
        m.insert("core.wal.bytes", wal_bytes);
        m.insert(
            "core.store.duplicates",
            per_rep(traced, "core.store.duplicates", reps),
        );
        let batch_s = self_seconds(traced, "core.batch.record");
        m.insert(
            "core.batch.samples_per_s",
            ratio(traced.counted("core.batch.samples") as f64, batch_s),
        );
        m.insert(
            "core.batch.batches_cut",
            traced.counted("core.batch.batches_cut") as f64,
        );

        // Where run_fleet's time goes: the same streams through the
        // benchmark's own copy of its pump loop, a stopwatch on each stage.
        // The base of these shares is one more run_fleet timed right before
        // the replay, so that both see the host at the same speed.
        let streams = input.streams.clone();
        let t0 = Instant::now();
        drop(run_fleet(streams, &FleetConfig::default()));
        let wall = t0.elapsed().as_secs_f64();
        let replay = staged_replay(input.streams.clone(), &FleetConfig::default());
        let isolated = isolated_passes(&input.streams);
        m.insert("core.ship.frac", ratio(replay.ship_s, wall));
        m.insert("core.link.frac", ratio(replay.link_s, wall));
        m.insert("core.wal.ingest_frac", ratio(replay.wal_s, wall));
        m.insert("core.segment.frame_frac", ratio(isolated.frame_s, wall));
        m.insert(
            "core.store.ingest_frac",
            ratio(isolated.store_s + replay.global_s, wall),
        );
        m.insert(
            "core.wal.self_frac",
            ratio(replay.wal_s - isolated.frame_s - isolated.store_s, wall),
        );
        m.insert(
            "core.fleet.unattributed_frac",
            1.0 - ratio(
                replay.ship_s + replay.link_s + replay.wal_s + replay.global_s,
                wall,
            ),
        );
        m.insert("core.ship.transmissions", replay.transmissions as f64);
        m.insert(
            "core.ship.retransmit_frac",
            ratio(
                replay.retransmits as f64,
                (replay.transmissions + replay.retransmits) as f64,
            ),
        );
        m.insert("core.link.offered", replay.offered as f64);
        m.insert("core.link.dropped", replay.dropped as f64);
        m.insert("core.link.duplicated", replay.duplicated as f64);
        m.insert("core.wal.records_per_s", ratio(produced, replay.wal_s));
        m.insert("core.wal.mb_per_s", ratio(wal_bytes / 1e6, replay.wal_s));
        m.insert(
            "core.segment.frame_mb_per_s",
            ratio(isolated.frame_bytes as f64 / 1e6, isolated.frame_s),
        );
        m.insert(
            "core.store.ingest_samples_per_s",
            ratio(input.samples as f64, isolated.store_s),
        );
        // The replay is the same protocol on the same seeds: it must store
        // exactly what run_fleet stored.
        u64::from(replay.digest != input.expected_digest)
    }
}

/// Stage times and protocol counts of one staged replay.
#[derive(Default)]
struct Replay {
    ship_s: f64,
    link_s: f64,
    wal_s: f64,
    global_s: f64,
    transmissions: u64,
    retransmits: u64,
    offered: u64,
    dropped: u64,
    duplicated: u64,
    digest: u64,
}

struct ReplayLane {
    region: usize,
    shipper: Shipper,
    data_link: LossyLink<SeqBatch>,
    ack_link: LossyLink<AckMsg>,
    rounds: std::vec::IntoIter<RoundInput>,
}

/// Accumulates the time since `*mark` into `*slot` and restarts the mark.
fn lap(mark: &mut Instant, slot: &mut f64) {
    let now = Instant::now();
    *slot += (now - *mark).as_secs_f64();
    *mark = now;
}

/// The healthy-fleet core of `run_fleet`'s pump loop (no health FSM, no
/// crashes, no re-sharding), stage by stage: `Shipper::offer/tick_into/
/// on_ack`, `LossyLink::send/tick`, `DurableStore::ingest_group/flush`, and
/// the end-of-round `SampleStore::ingest_seq` into the global tier.
fn staged_replay(streams: Vec<SwitchStream>, cfg: &FleetConfig) -> Replay {
    let global = SampleStore::new();
    let mut regions: Vec<(DurableStore<MemStorage>, Vec<SeqBatch>)> = (0..cfg.regions)
        .map(|_| {
            let ds = DurableStore::create(MemStorage::new(), cfg.region_wal)
                .expect("in-memory WAL cannot fail");
            (ds, Vec::new())
        })
        .collect();
    let all_live = vec![true; cfg.regions];
    let mut max_rounds = 0;
    let mut lanes: BTreeMap<SourceId, ReplayLane> = BTreeMap::new();
    for s in streams {
        max_rounds = max_rounds.max(s.rounds.len() as u32);
        lanes.insert(
            s.source,
            ReplayLane {
                region: rendezvous_region(s.source, &all_live).expect("regions is nonzero"),
                shipper: Shipper::new(s.source, cfg.shipper),
                data_link: LossyLink::new(s.link, s.link_seed),
                ack_link: LossyLink::new(s.link, s.link_seed ^ 0x9e37_79b9),
                rounds: s.rounds.into_iter(),
            },
        );
    }
    let mut r = Replay::default();
    let mut tx_buf = Vec::new();
    let mut ingest_buf: Vec<(SeqIngest, AckMsg)> = Vec::new();
    for _round in 0..max_rounds + cfg.drain_rounds {
        for lane in lanes.values_mut() {
            let mut mark = Instant::now();
            for b in lane.rounds.next().unwrap_or_default().batches {
                lane.shipper
                    .offer(b)
                    .expect("a healthy lane never exhausts its window");
            }
            lap(&mut mark, &mut r.ship_s);
            for _ in 0..cfg.ticks_per_round {
                lane.shipper.tick_into(&mut tx_buf);
                lap(&mut mark, &mut r.ship_s);
                for sb in tx_buf.drain(..) {
                    lane.data_link.send(sb);
                }
                let window = lane.data_link.tick();
                lap(&mut mark, &mut r.link_s);
                if !window.is_empty() {
                    let (ds, pending) = &mut regions[lane.region];
                    ds.ingest_group(&window, &mut ingest_buf)
                        .expect("in-memory WAL cannot fail");
                    lap(&mut mark, &mut r.wal_s);
                    for (sb, (outcome, ack)) in window.into_iter().zip(ingest_buf.drain(..)) {
                        if outcome == SeqIngest::Stored {
                            pending.push(sb);
                        }
                        lane.ack_link.send(ack);
                    }
                }
                let acks = lane.ack_link.tick();
                lap(&mut mark, &mut r.link_s);
                for ack in acks {
                    lane.shipper.on_ack(ack);
                }
                lap(&mut mark, &mut r.ship_s);
            }
        }
        for (region, (ds, pending)) in regions.iter_mut().enumerate() {
            let mut mark = Instant::now();
            let acks = ds.flush().expect("in-memory WAL cannot fail");
            lap(&mut mark, &mut r.wal_s);
            for sb in pending.drain(..) {
                let _ = global.ingest_seq(&sb);
            }
            lap(&mut mark, &mut r.global_s);
            for ack in acks {
                if let Some(lane) = lanes.get_mut(&ack.source) {
                    if lane.region == region {
                        lane.shipper.on_ack(ack);
                    }
                }
            }
            lap(&mut mark, &mut r.ship_s);
        }
    }
    for lane in lanes.values() {
        let s = lane.shipper.stats();
        r.transmissions += s.transmissions;
        r.retransmits += s.retransmits;
        for l in [lane.data_link.stats(), lane.ack_link.stats()] {
            r.offered += l.offered;
            r.dropped += l.dropped;
            r.duplicated += l.duplicated;
        }
    }
    r.digest = digest_store(&global);
    r
}

/// Times of the two kernels the WAL stage contains, each run alone over
/// every produced batch: record framing (encode + CRC) and store ingest.
struct Isolated {
    frame_s: f64,
    frame_bytes: u64,
    store_s: f64,
}

fn isolated_passes(streams: &[SwitchStream]) -> Isolated {
    // One sequenced record per produced batch, in per-source order.
    let records: Vec<SeqBatch> = streams
        .iter()
        .flat_map(|s| {
            s.rounds
                .iter()
                .flat_map(|r| &r.batches)
                .enumerate()
                .map(|(seq, batch)| SeqBatch {
                    seq: seq as u64,
                    watermark: seq as u64 + 1,
                    batch: batch.clone(),
                })
        })
        .collect();
    let mut buf = Vec::new();
    let mut frame_bytes = 0u64;
    let t0 = Instant::now();
    for window in records.chunks(UPLINK_COUNTERS.len()) {
        // One buffer per delivery window, as the group-commit path frames.
        buf.clear();
        for sb in window {
            frame_bytes += frame_record_into(sb, &mut buf) as u64;
        }
        std::hint::black_box(&buf);
    }
    let frame_s = t0.elapsed().as_secs_f64();
    let store = SampleStore::new();
    let t0 = Instant::now();
    for sb in &records {
        let _ = std::hint::black_box(store.ingest_seq(sb));
    }
    let store_s = t0.elapsed().as_secs_f64();
    Isolated {
        frame_s,
        frame_bytes,
        store_s,
    }
}
