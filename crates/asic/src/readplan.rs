//! Grouped counter reads under a plan's name.
//!
//! Kept only because `benchmark/` links it, ROADMAP item 3a: its
//! `asic.read_planned_ns_*` rows time [`AsicCounters::read`] through it.
//! The poller prices each poll with [`AccessModel::poll_cost`] and reads
//! each counter with [`AsicCounters::read`]; a plan is that counter list.

use crate::access::AccessModel;
use crate::counters::{AsicCounters, CounterId};

/// A campaign's counter list, in campaign order.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    ids: Vec<CounterId>,
}

impl AsicCounters {
    /// A plan reading `ids` in order. Kept only because `benchmark/` links
    /// it, ROADMAP item 3a.
    pub fn read_plan(&self, ids: &[CounterId], _access: &AccessModel) -> ReadPlan {
        ReadPlan { ids: ids.to_vec() }
    }

    /// Fills `out` (cleared first) with [`AsicCounters::read`] of each of
    /// the first `k` counters of `plan`, in order, so the peak register
    /// stays read-and-clear. Kept only because `benchmark/` links it,
    /// ROADMAP item 3a.
    ///
    /// # Panics
    /// Panics if `k` exceeds the plan length, or where
    /// [`AsicCounters::read`] would.
    pub fn read_planned(&self, plan: &ReadPlan, k: usize, out: &mut Vec<u64>) {
        out.clear();
        out.extend(plan.ids[..k].iter().map(|&id| self.read(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::counters::CounterSink;
    use uburst_sim::node::PortId;

    fn mixed_ids() -> Vec<CounterId> {
        vec![
            CounterId::TxBytes(PortId(0)),
            CounterId::RxPackets(PortId(1)),
            CounterId::Drops(PortId(2)),
            CounterId::TxSizeHist(PortId(3), 4),
            CounterId::BufferLevel,
            CounterId::BufferPeak,
        ]
    }

    fn loaded_bank() -> AsicCounters {
        let bank = AsicCounters::new(4);
        for p in 0..4 {
            bank.count_tx(PortId(p), 700 + 100 * u32::from(p));
            bank.count_rx(PortId(p), 64);
            bank.count_drop(PortId(p), 64);
        }
        bank.buffer_level(9_000);
        bank.buffer_level(2_000);
        bank
    }

    #[test]
    fn planned_reads_match_per_id_reads() {
        let ids = mixed_ids();
        for k in [1, ids.len()] {
            let bank = loaded_bank();
            let reference = loaded_bank();
            let plan = bank.read_plan(&ids, &AccessModel::default());
            let mut out = Vec::new();
            bank.read_planned(&plan, k, &mut out);
            let want: Vec<u64> = ids[..k].iter().map(|&id| reference.read(id)).collect();
            assert_eq!(out, want, "k={k}");
        }
    }

    #[test]
    fn planned_read_clears_the_peak_register() {
        let bank = AsicCounters::new(1);
        bank.buffer_level(5_000);
        bank.buffer_level(1_000);
        let ids = [CounterId::BufferPeak];
        let plan = bank.read_plan(&ids, &AccessModel::default());
        let mut out = Vec::new();
        bank.read_planned(&plan, 1, &mut out);
        assert_eq!(out, vec![5_000]);
        // Re-seeded with the current level, exactly like a direct read.
        bank.read_planned(&plan, 1, &mut out);
        assert_eq!(out, vec![1_000]);
    }

    #[test]
    fn prefix_read_skips_tail_counters() {
        let bank = AsicCounters::new(2);
        bank.count_tx(PortId(0), 1_000);
        bank.buffer_level(4_000);
        bank.buffer_level(500);
        let ids = [CounterId::TxBytes(PortId(0)), CounterId::BufferPeak];
        let plan = bank.read_plan(&ids, &AccessModel::default());
        let mut out = Vec::new();
        bank.read_planned(&plan, 1, &mut out);
        assert_eq!(out, vec![1_000]);
        // The unread peak register was not cleared, so it still holds 4_000.
        assert_eq!(bank.read(CounterId::BufferPeak), 4_000);
    }
}
