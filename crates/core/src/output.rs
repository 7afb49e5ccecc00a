//! Where sampled values go.
//!
//! The poller is generic over a [`SampleOutput`]: analysis harnesses keep
//! samples in memory ([`MemorySink`]); fleet deployments batch them onto a
//! channel toward the collector service ([`ChannelSink`]).
//!
//! Shipping is governed by a [`ShipPolicy`]: block on a full queue (lossless
//! backpressure, the default), or shed batches — oldest-first or
//! newest-first — when the switch CPU must never stall behind a slow
//! collector. Every shed batch is counted per source, so loss is visible
//! instead of silently biasing the distributions under study.

use std::any::Any;

use uburst_asic::CounterId;
use uburst_sim::time::Nanos;

use crate::batch::{Batch, BatchPolicy, Batcher, SourceId};
use crate::channel::Sender;
use crate::series::Series;
use crate::store::SampleStore;

/// Consumes one poll record at a time. Values are aligned with the
/// campaign's counter list.
pub trait SampleOutput: Any {
    /// Records one poll's worth of counter values taken at `t`.
    fn record(&mut self, t: Nanos, values: &[u64]);
    /// Called once when the campaign ends; flush any buffers.
    fn finish(&mut self) {}
}

/// Keeps everything in memory, one [`Series`] per campaign counter.
#[derive(Debug, Default)]
pub struct MemorySink {
    series: Vec<Series>,
    counters: Vec<CounterId>,
}

impl MemorySink {
    /// A sink for a campaign polling `counters`.
    pub fn new(counters: Vec<CounterId>) -> Self {
        let series = counters.iter().map(|_| Series::new()).collect();
        MemorySink { series, counters }
    }

    /// The series for a counter, if it was part of the campaign.
    pub fn series(&self, counter: CounterId) -> Option<&Series> {
        self.counters
            .iter()
            .position(|&c| c == counter)
            .map(|i| &self.series[i])
    }

    /// Moves all series out (campaign order), consuming the sink's content.
    pub fn take_all(&mut self) -> Vec<(CounterId, Series)> {
        self.counters
            .iter()
            .copied()
            .zip(self.series.iter_mut().map(std::mem::take))
            .collect()
    }

    /// Counters this sink records, in campaign order.
    pub fn counters(&self) -> &[CounterId] {
        &self.counters
    }
}

impl SampleOutput for MemorySink {
    fn record(&mut self, t: Nanos, values: &[u64]) {
        // A short `values` would be zipped away and leave the series ragged.
        assert_eq!(values.len(), self.series.len(), "sample arity");
        for (s, &v) in self.series.iter_mut().zip(values) {
            s.push(t, v);
        }
    }
}

/// What to do when the collector's batch queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShipPolicy {
    /// Block until there is room: lossless, at the cost of backpressure
    /// into the shipping path (never the sampling loop itself, which runs
    /// in simulated time).
    #[default]
    Block,
    /// Evict the oldest queued batch to make room — keep the freshest data
    /// flowing, lose the stalest.
    DropOldest,
    /// Drop the batch being shipped — preserve what is queued, lose the
    /// newest.
    DropNewest,
}

/// Batches samples and ships them over a channel to the collector service.
///
/// Under [`ShipPolicy::Block`] a full channel applies backpressure and
/// nothing is lost. The two `Drop*` policies shed batches instead; the sink
/// counts every batch it loses ([`ChannelSink::dropped_batches`]), including
/// tail batches lost to a collector that shut down early.
pub struct ChannelSink {
    batcher: Batcher,
    tx: Sender<Batch>,
    policy: ShipPolicy,
    shipped: u64,
    dropped: u64,
    /// Destination for shed accounting ([`SampleStore::note_shed`]), so
    /// upstream loss lands in `StoreStats` next to quarantine counts.
    loss_report: Option<std::sync::Arc<SampleStore>>,
}

impl ChannelSink {
    /// A sink for `source`'s campaign, shipping into `tx` with lossless
    /// blocking ([`ShipPolicy::Block`]).
    pub fn new(
        source: SourceId,
        campaign: impl Into<std::sync::Arc<str>>,
        counters: Vec<CounterId>,
        policy: BatchPolicy,
        tx: Sender<Batch>,
    ) -> Self {
        ChannelSink {
            batcher: Batcher::new(source, campaign, counters, policy),
            tx,
            policy: ShipPolicy::Block,
            shipped: 0,
            dropped: 0,
            loss_report: None,
        }
    }

    /// Sets the full-queue policy.
    pub fn with_ship_policy(mut self, policy: ShipPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Reports every shed batch to `store` (per the *shed batch's* source,
    /// which for `DropOldest` evictions may differ from this sink's), so
    /// loss shows up in [`crate::StoreStats::shed_batches`] and the
    /// collector health summary instead of only in the sink.
    pub fn with_loss_report(mut self, store: std::sync::Arc<SampleStore>) -> Self {
        self.loss_report = Some(store);
        self
    }

    /// Batches successfully handed to the channel.
    pub fn shipped_batches(&self) -> u64 {
        self.shipped
    }

    /// Batches lost: shed by the ship policy, evicted from the queue, or
    /// unsendable because the collector disconnected.
    pub fn dropped_batches(&self) -> u64 {
        self.dropped
    }

    fn note_shed(&self, source: SourceId) {
        if let Some(store) = &self.loss_report {
            store.note_shed(source, 1);
        }
    }

    fn ship(&mut self, batches: Vec<Batch>) {
        for b in batches {
            let own_source = b.source;
            if uburst_obs::enabled() {
                uburst_obs::counter_add("uburst_sink_batches_flushed_total", 1);
                uburst_obs::counter_add(
                    "uburst_sink_samples_flushed_total",
                    b.samples.len() as u64,
                );
                // Span duration is the simulated-time extent the batch covers.
                let ts = &b.samples.ts;
                let covered = ts.first().zip(ts.last()).map_or(0, |(&f, &l)| l - f);
                uburst_obs::span_record("campaign/flush", covered);
            }
            match self.policy {
                ShipPolicy::Block => match self.tx.send(b) {
                    Ok(()) => self.shipped += 1,
                    // A disconnected collector means shutdown raced the
                    // campaign; tail samples are lost — counted, not fatal.
                    Err(_) => {
                        self.dropped += 1;
                        uburst_obs::counter_add("uburst_sink_batches_dropped_total", 1);
                        self.note_shed(own_source);
                    }
                },
                ShipPolicy::DropOldest => match self.tx.force_send(b) {
                    Ok(None) => self.shipped += 1,
                    Ok(Some(evicted)) => {
                        // Ours got in; a previously shipped batch fell out.
                        self.shipped += 1;
                        self.dropped += 1;
                        uburst_obs::counter_add("uburst_sink_batches_dropped_total", 1);
                        self.note_shed(evicted.source);
                    }
                    Err(_) => {
                        self.dropped += 1;
                        uburst_obs::counter_add("uburst_sink_batches_dropped_total", 1);
                        self.note_shed(own_source);
                    }
                },
                ShipPolicy::DropNewest => match self.tx.try_send(b) {
                    Ok(()) => self.shipped += 1,
                    Err(_) => {
                        self.dropped += 1;
                        uburst_obs::counter_add("uburst_sink_batches_dropped_total", 1);
                        self.note_shed(own_source);
                    }
                },
            }
        }
    }
}

impl SampleOutput for ChannelSink {
    fn record(&mut self, t: Nanos, values: &[u64]) {
        let out = self.batcher.record(t, values);
        if !out.is_empty() {
            self.ship(out);
        }
    }
    fn finish(&mut self) {
        let out = self.batcher.flush();
        self.ship(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;
    use uburst_sim::node::PortId;

    #[test]
    fn memory_sink_routes_by_counter() {
        let a = CounterId::TxBytes(PortId(0));
        let b = CounterId::RxBytes(PortId(0));
        let mut sink = MemorySink::new(vec![a, b]);
        sink.record(Nanos(1), &[10, 20]);
        sink.record(Nanos(2), &[11, 22]);
        assert_eq!(sink.series(a).unwrap().vs, vec![10, 11]);
        assert_eq!(sink.series(b).unwrap().vs, vec![20, 22]);
        assert!(sink.series(CounterId::Drops(PortId(0))).is_none());
        let all = sink.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, a);
        assert_eq!(all[0].1.len(), 2);
        assert!(sink.series(a).unwrap().is_empty(), "taken out");
    }

    #[test]
    #[should_panic(expected = "sample arity")]
    fn memory_sink_refuses_a_short_sample_in_release() {
        let mut sink = MemorySink::new(vec![
            CounterId::TxBytes(PortId(0)),
            CounterId::RxBytes(PortId(0)),
        ]);
        sink.record(Nanos(1), &[10]);
    }

    #[test]
    fn channel_sink_ships_batches_and_tail() {
        let (tx, rx) = channel::unbounded();
        let c = CounterId::TxBytes(PortId(3));
        let mut sink = ChannelSink::new(
            SourceId(9),
            "camp",
            vec![c],
            BatchPolicy {
                max_samples: 2,
                max_age: Nanos::from_secs(100),
            },
            tx,
        );
        sink.record(Nanos(1), &[1]);
        sink.record(Nanos(2), &[2]); // flush at 2 samples
        sink.record(Nanos(3), &[3]);
        sink.finish(); // tail flush
        assert_eq!(sink.shipped_batches(), 2);
        assert_eq!(sink.dropped_batches(), 0);
        drop(sink);
        let batches: Vec<Batch> = rx.iter().collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].samples.vs, vec![1, 2]);
        assert_eq!(batches[1].samples.vs, vec![3]);
        assert_eq!(batches[0].source, SourceId(9));
        assert_eq!(batches[0].counter, c);
        assert_eq!(&*batches[0].campaign, "camp");
    }

    #[test]
    fn channel_sink_survives_disconnected_collector() {
        let (tx, rx) = channel::bounded(1);
        drop(rx);
        let c = CounterId::TxBytes(PortId(0));
        let mut sink = ChannelSink::new(
            SourceId(0),
            "camp",
            vec![c],
            BatchPolicy {
                max_samples: 1,
                max_age: Nanos::from_secs(100),
            },
            tx,
        );
        sink.record(Nanos(1), &[1]); // must not panic
        sink.finish();
        assert_eq!(sink.dropped_batches(), 1, "tail loss is accounted");
    }

    fn one_sample_sink(policy: ShipPolicy, tx: Sender<Batch>) -> ChannelSink {
        ChannelSink::new(
            SourceId(0),
            "camp",
            vec![CounterId::TxBytes(PortId(0))],
            BatchPolicy {
                max_samples: 1,
                max_age: Nanos::from_secs(100),
            },
            tx,
        )
        .with_ship_policy(policy)
    }

    #[test]
    fn drop_oldest_keeps_freshest_batches() {
        let (tx, rx) = channel::bounded(2);
        let mut sink = one_sample_sink(ShipPolicy::DropOldest, tx);
        for i in 1..=5u64 {
            sink.record(Nanos(i), &[i]);
        }
        assert_eq!(sink.shipped_batches(), 5);
        assert_eq!(sink.dropped_batches(), 3);
        drop(sink);
        let got: Vec<u64> = rx.iter().map(|b| b.samples.vs[0]).collect();
        assert_eq!(got, vec![4, 5], "the freshest two survive");
    }

    #[test]
    fn drop_newest_keeps_earliest_batches() {
        let (tx, rx) = channel::bounded(2);
        let mut sink = one_sample_sink(ShipPolicy::DropNewest, tx);
        for i in 1..=5u64 {
            sink.record(Nanos(i), &[i]);
        }
        assert_eq!(sink.shipped_batches(), 2);
        assert_eq!(sink.dropped_batches(), 3);
        drop(sink);
        let got: Vec<u64> = rx.iter().map(|b| b.samples.vs[0]).collect();
        assert_eq!(got, vec![1, 2], "what was queued first survives");
    }

    #[test]
    fn shed_batches_land_in_store_stats_per_source() {
        let store = std::sync::Arc::new(SampleStore::new());
        let (tx, rx) = channel::bounded(2);
        let mut sink = one_sample_sink(ShipPolicy::DropOldest, tx).with_loss_report(store.clone());
        for i in 1..=5u64 {
            sink.record(Nanos(i), &[i]);
        }
        assert_eq!(sink.dropped_batches(), 3);
        assert_eq!(store.stats().shed_batches, 3, "sink loss visible in store");
        assert_eq!(store.shed_by_source(), vec![(SourceId(0), 3)]);
        drop(sink);
        drop(rx);
    }

    #[test]
    fn accounting_identity_shipped_plus_dropped() {
        let (tx, rx) = channel::bounded(1);
        let mut sink = one_sample_sink(ShipPolicy::DropNewest, tx);
        for i in 1..=10u64 {
            sink.record(Nanos(i), &[i]);
        }
        sink.finish();
        let shipped = sink.shipped_batches();
        let dropped = sink.dropped_batches();
        assert_eq!(shipped + dropped, 10, "every batch accounted exactly once");
        drop(sink);
        assert_eq!(rx.iter().count() as u64, shipped);
    }
}
