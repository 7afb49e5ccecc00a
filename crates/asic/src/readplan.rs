//! Pre-resolved batched counter reads.
//!
//! A poller reads the same counter list every interval, yet the naive path
//! re-does the full per-counter work on every poll: match on the
//! [`CounterId`] variant, bounds-check the port, and walk
//! the access-latency model to price the batch. A [`ReadPlan`] hoists all
//! of that out of the hot loop: it resolves each counter to its flat cell
//! slot once, and tabulates the simulated cost of every counter-list
//! prefix once, so a poll is an indexed gather plus a table lookup.
//!
//! The prefix-cost table exists because load shedding (see
//! `uburst-core`'s poller) always drops counters from the *tail* of the
//! campaign list — every read set the poller can issue is a prefix of the
//! plan, so one table covers all of them. Costs are computed with
//! [`AccessModel::poll_cost`] itself, so planned costs are bit-identical
//! to the unplanned path and simulated timelines do not move.

use crate::access::AccessModel;
use crate::counters::{AsicCounters, CounterId};
use uburst_sim::time::Nanos;

/// A counter list resolved against one bank geometry and one access model.
///
/// Built once per campaign with [`AsicCounters::read_plan`]; executed every
/// poll with [`AsicCounters::read_planned`]. Read-and-clear semantics (the
/// buffer peak register) are preserved — the plan resolves *where* each
/// counter lives, not *how* it reads.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// Flat cell index of each counter, in campaign order.
    slots: Vec<u32>,
    /// `prefix_costs[k-1]` is the simulated cost of polling the first `k`
    /// counters, exactly as [`AccessModel::poll_cost`] would price them.
    prefix_costs: Vec<Nanos>,
    /// Geometry stamp: cell count of the bank the plan was resolved for.
    n_cells: usize,
}

impl ReadPlan {
    /// Number of counters in the plan.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the plan is empty (an empty plan prices and reads nothing).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Simulated cost of polling the first `k` counters of the plan.
    ///
    /// # Panics
    /// Panics if `k` is zero (a poll must read something) or exceeds the
    /// plan length.
    pub fn cost(&self, k: usize) -> Nanos {
        assert!(k > 0, "empty counter group");
        self.prefix_costs[k - 1]
    }
}

impl AsicCounters {
    /// Resolves `ids` against this bank and `access` into a [`ReadPlan`].
    ///
    /// Validates every port and histogram bin up front (panicking exactly
    /// where [`AsicCounters::read`] would), then prices every prefix of the
    /// list with [`AccessModel::poll_cost`] so later cost lookups are a
    /// table index.
    pub fn read_plan(&self, ids: &[CounterId], access: &AccessModel) -> ReadPlan {
        let slots = ids.iter().map(|&id| self.slot_of(id) as u32).collect();
        let prefix_costs = (1..=ids.len())
            .map(|k| access.poll_cost(&ids[..k]))
            .collect();
        ReadPlan {
            slots,
            prefix_costs,
            n_cells: self.n_cells(),
        }
    }

    /// Reads the first `k` counters of `plan` into `out` (cleared first),
    /// in plan order, honoring read-and-clear registers.
    ///
    /// Equivalent to [`AsicCounters::read_group`] over the same prefix, but
    /// with all dispatch and validation done at plan-build time.
    ///
    /// # Panics
    /// Panics if the plan was resolved for a bank of different geometry, or
    /// if `k` exceeds the plan length.
    pub fn read_planned(&self, plan: &ReadPlan, k: usize, out: &mut Vec<u64>) {
        assert_eq!(
            plan.n_cells,
            self.n_cells(),
            "read plan was resolved for a different bank geometry"
        );
        out.clear();
        out.extend(plan.slots[..k].iter().map(|&s| self.read_slot(s as usize)));
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

    #[test]
    fn plan_costs_match_poll_cost_for_every_prefix() {
        let bank = AsicCounters::new(4);
        let access = AccessModel::default();
        let ids = mixed_ids();
        let plan = bank.read_plan(&ids, &access);
        assert_eq!(plan.len(), ids.len());
        for k in 1..=ids.len() {
            assert_eq!(plan.cost(k), access.poll_cost(&ids[..k]), "prefix {k}");
        }
    }

    #[test]
    fn planned_reads_match_read_group() {
        let bank = AsicCounters::new(4);
        for p in 0..4 {
            bank.count_tx(PortId(p), 700 + 100 * u32::from(p));
            bank.count_rx(PortId(p), 64);
            bank.count_drop(PortId(p), 64);
        }
        bank.buffer_level(9_000);
        bank.buffer_level(2_000);

        let ids = mixed_ids();
        let reference = AsicCounters::new(4);
        for p in 0..4 {
            reference.count_tx(PortId(p), 700 + 100 * u32::from(p));
            reference.count_rx(PortId(p), 64);
            reference.count_drop(PortId(p), 64);
        }
        reference.buffer_level(9_000);
        reference.buffer_level(2_000);

        let plan = bank.read_plan(&ids, &AccessModel::default());
        let mut out = Vec::new();
        bank.read_planned(&plan, ids.len(), &mut out);
        assert_eq!(out, reference.read_group(&ids));
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
        let ids = [CounterId::TxBytes(PortId(0)), CounterId::BufferPeak];
        let plan = bank.read_plan(&ids, &AccessModel::default());
        let mut out = Vec::new();
        bank.read_planned(&plan, 1, &mut out);
        assert_eq!(out, vec![1_000]);
        // The shed peak register was not touched, so it still holds 4_000.
        assert_eq!(bank.peek_buffer_peak(), 4_000);
    }

    #[test]
    #[should_panic(expected = "different bank geometry")]
    fn plan_rejects_a_mismatched_bank() {
        let small = AsicCounters::new(2);
        let large = AsicCounters::new(8);
        let plan = small.read_plan(&[CounterId::BufferLevel], &AccessModel::default());
        let mut out = Vec::new();
        large.read_planned(&plan, 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_build_validates_ports() {
        let bank = AsicCounters::new(2);
        bank.read_plan(&[CounterId::TxBytes(PortId(7))], &AccessModel::default());
    }

    #[test]
    #[should_panic(expected = "empty counter group")]
    fn zero_prefix_cost_panics() {
        let bank = AsicCounters::new(1);
        let plan = bank.read_plan(&[CounterId::BufferLevel], &AccessModel::default());
        plan.cost(0);
    }
}
