//! Where sampled values go: the poller records every poll into a
//! [`MemorySink`], one [`Series`] per campaign counter. Shipping is the
//! caller's half — a [`crate::Batcher`] cuts the series into batches and
//! [`crate::run_fleet`] carries them to the global store.

use uburst_asic::CounterId;
use uburst_sim::time::Nanos;

use crate::series::Series;

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

    /// Records one poll's worth of counter values taken at `t`, aligned
    /// with the campaign's counter list.
    pub fn record(&mut self, t: Nanos, values: &[u64]) {
        // A short `values` would be zipped away and leave the series ragged.
        assert_eq!(values.len(), self.series.len(), "sample arity");
        for (s, &v) in self.series.iter_mut().zip(values) {
            s.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
