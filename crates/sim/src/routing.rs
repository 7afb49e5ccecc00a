//! Routing and ECMP next-hop selection.
//!
//! Each switch carries a [`RoutingTable`] mapping destination hosts to either
//! a single egress port or an ECMP group. Group member selection hashes the
//! packet's flow key (standing in for the 5-tuple) with a per-switch seed,
//! mirroring production ECMP: per-flow consistent hashing, which avoids TCP
//! reordering but cannot guarantee balance at small timescales — the
//! mechanism behind the paper's Fig. 7.

use std::cell::Cell;

use crate::node::{NodeId, PortId};
use crate::rng::{mix64, GOLDEN_GAMMA};
use crate::time::Nanos;

/// Where a destination's traffic leaves the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A single egress port.
    Port(PortId),
    /// An ECMP group (index into the table's group list).
    Group(u16),
}

/// How an ECMP group picks a member for a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcmpMode {
    /// Hash the flow key (production default; per-flow consistency).
    #[default]
    FlowHash,
    /// Per-packet round-robin spraying (the idealized baseline used by the
    /// load-balancing ablation; reorders TCP flows).
    PacketSpray,
    /// Flowlet switching — the microflow load balancing the paper's §7
    /// points to: a flow is re-hashed to a (possibly) new member whenever
    /// its inter-packet gap exceeds `gap`, because a gap longer than the
    /// path-latency skew guarantees no reordering. State lives in a
    /// fixed-size flowlet table (hash-indexed, collisions share a slot),
    /// like hardware implementations.
    Flowlet {
        /// Minimum inter-packet gap that starts a new flowlet.
        gap: Nanos,
    },
}

/// Number of slots in the (per-group) flowlet table. Power of two; real
/// ASIC tables are this order of magnitude.
const FLOWLET_SLOTS: usize = 1 << 14;

#[derive(Debug)]
struct Group {
    ports: Vec<PortId>,
    /// Round-robin cursor, used only in `PacketSpray` mode.
    cursor: std::cell::Cell<usize>,
    /// Flowlet table: slot -> (last-seen ns, member index). Lazily
    /// allocated on first flowlet lookup.
    flowlets: std::cell::OnceCell<Vec<Cell<(u64, u16)>>>,
}

/// Destination-based routing with ECMP groups.
#[derive(Debug)]
pub struct RoutingTable {
    /// Dense per-destination routes, indexed by `NodeId`. Node ids are
    /// assigned densely by the simulator and racks are small, so a flat
    /// array lookup beats hashing on the per-packet fast path.
    routes: Vec<Option<Route>>,
    groups: Vec<Group>,
    default_route: Option<Route>,
    seed: u64,
    mode: EcmpMode,
}

impl RoutingTable {
    /// An empty table using flow-hash ECMP with the given hash seed.
    pub fn new(seed: u64) -> Self {
        RoutingTable {
            routes: Vec::new(),
            groups: Vec::new(),
            default_route: None,
            seed,
            mode: EcmpMode::FlowHash,
        }
    }

    /// An empty table with an explicit ECMP member-selection mode.
    pub fn with_mode(seed: u64, mode: EcmpMode) -> Self {
        let mut t = Self::new(seed);
        t.mode = mode;
        t
    }

    /// Registers an ECMP group and returns its handle for [`Route::Group`].
    pub fn add_group(&mut self, ports: Vec<PortId>) -> u16 {
        assert!(!ports.is_empty(), "empty ECMP group");
        let id = self.groups.len() as u16;
        self.groups.push(Group {
            ports,
            cursor: std::cell::Cell::new(0),
            flowlets: std::cell::OnceCell::new(),
        });
        id
    }

    /// Routes traffic destined to `dst` according to `route`.
    pub fn set_route(&mut self, dst: NodeId, route: Route) {
        let i = dst.0 as usize;
        if self.routes.len() <= i {
            self.routes.resize(i + 1, None);
        }
        self.routes[i] = Some(route);
    }

    /// Fallback for destinations without an explicit entry (typically the
    /// uplink group).
    pub fn set_default(&mut self, route: Route) {
        self.default_route = Some(route);
    }

    /// Picks the egress port for a packet to `dst` whose flow hashes to
    /// `ecmp_key`, arriving at time `now` (used by flowlet mode). Returns
    /// `None` when the destination is unroutable.
    pub fn lookup(&self, dst: NodeId, ecmp_key: u64, now: Nanos) -> Option<PortId> {
        let route = self
            .routes
            .get(dst.0 as usize)
            .copied()
            .flatten()
            .or(self.default_route)?;
        Some(match route {
            Route::Port(p) => p,
            Route::Group(g) => {
                let group = &self.groups[g as usize];
                match self.mode {
                    EcmpMode::FlowHash => {
                        let h = ecmp_hash(ecmp_key ^ self.seed);
                        group.ports[(h % group.ports.len() as u64) as usize]
                    }
                    EcmpMode::PacketSpray => {
                        let i = group.cursor.get();
                        group.cursor.set((i + 1) % group.ports.len());
                        group.ports[i]
                    }
                    EcmpMode::Flowlet { gap } => {
                        let table = group
                            .flowlets
                            .get_or_init(|| vec![Cell::new((0u64, 0u16)); FLOWLET_SLOTS]);
                        let slot = &table
                            [(ecmp_hash(ecmp_key ^ self.seed) as usize) & (FLOWLET_SLOTS - 1)];
                        let (last, member) = slot.get();
                        let expired =
                            last == 0 || now.as_nanos().saturating_sub(last) > gap.as_nanos();
                        let member = if expired {
                            // New flowlet: rehash including the time so
                            // successive flowlets can land on new members.
                            (ecmp_hash(ecmp_key ^ self.seed ^ now.as_nanos())
                                % group.ports.len() as u64) as u16
                        } else {
                            member
                        };
                        slot.set((now.as_nanos().max(1), member));
                        group.ports[member as usize]
                    }
                }
            }
        })
    }

    /// The table's ECMP member-selection mode.
    pub fn mode(&self) -> EcmpMode {
        self.mode
    }
}

/// One SplitMix64 step over a header key, standing in for the CRC-based
/// hash a switch ASIC applies to header fields.
fn ecmp_hash(key: u64) -> u64 {
    mix64(key.wrapping_add(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_group() -> RoutingTable {
        let mut t = RoutingTable::new(7);
        let g = t.add_group(vec![PortId(10), PortId(11), PortId(12), PortId(13)]);
        t.set_route(NodeId(1), Route::Port(PortId(1)));
        t.set_default(Route::Group(g));
        t
    }

    #[test]
    fn exact_route_wins() {
        let t = table_with_group();
        assert_eq!(t.lookup(NodeId(1), 999, Nanos::ZERO), Some(PortId(1)));
    }

    #[test]
    fn default_group_covers_unknown() {
        let t = table_with_group();
        let p = t.lookup(NodeId(42), 5, Nanos::ZERO).unwrap();
        assert!((10..=13).contains(&p.0));
    }

    #[test]
    fn flow_hash_is_consistent() {
        let t = table_with_group();
        let p1 = t.lookup(NodeId(42), 12345, Nanos::ZERO).unwrap();
        for _ in 0..10 {
            assert_eq!(t.lookup(NodeId(42), 12345, Nanos::ZERO), Some(p1));
        }
    }

    #[test]
    fn flow_hash_spreads_flows() {
        let t = table_with_group();
        let mut seen = std::collections::HashSet::new();
        for key in 0..256u64 {
            seen.insert(t.lookup(NodeId(42), key, Nanos::ZERO).unwrap());
        }
        assert_eq!(seen.len(), 4, "all group members should be used");
    }

    #[test]
    fn different_seeds_hash_differently() {
        let mut a = RoutingTable::new(1);
        let ga = a.add_group(vec![PortId(0), PortId(1), PortId(2), PortId(3)]);
        a.set_default(Route::Group(ga));
        let mut b = RoutingTable::new(2);
        let gb = b.add_group(vec![PortId(0), PortId(1), PortId(2), PortId(3)]);
        b.set_default(Route::Group(gb));
        let diff = (0..256u64)
            .filter(|&k| a.lookup(NodeId(9), k, Nanos::ZERO) != b.lookup(NodeId(9), k, Nanos::ZERO))
            .count();
        assert!(diff > 100, "only {diff} of 256 flows hashed differently");
    }

    #[test]
    fn packet_spray_round_robins() {
        let mut t = RoutingTable::with_mode(7, EcmpMode::PacketSpray);
        let g = t.add_group(vec![PortId(0), PortId(1)]);
        t.set_default(Route::Group(g));
        let picks: Vec<_> = (0..4)
            .map(|_| t.lookup(NodeId(5), 1, Nanos::ZERO).unwrap().0)
            .collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn unroutable_without_default() {
        let t = RoutingTable::new(0);
        assert_eq!(t.lookup(NodeId(3), 0, Nanos::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "empty ECMP group")]
    fn empty_group_rejected() {
        RoutingTable::new(0).add_group(vec![]);
    }

    fn flowlet_table(gap_us: u64) -> RoutingTable {
        let mut t = RoutingTable::with_mode(
            7,
            EcmpMode::Flowlet {
                gap: Nanos::from_micros(gap_us),
            },
        );
        let g = t.add_group(vec![PortId(0), PortId(1), PortId(2), PortId(3)]);
        t.set_default(Route::Group(g));
        t
    }

    #[test]
    fn flowlet_sticks_within_gap() {
        let t = flowlet_table(100);
        let first = t.lookup(NodeId(9), 42, Nanos::from_micros(10)).unwrap();
        // Back-to-back packets (1us apart) never re-hash.
        for i in 1..50u64 {
            let p = t.lookup(NodeId(9), 42, Nanos::from_micros(10 + i)).unwrap();
            assert_eq!(p, first, "reordered within a flowlet");
        }
    }

    #[test]
    fn flowlet_rehashes_after_gap() {
        let t = flowlet_table(100);
        // Many flowlets of the same flow, separated by > gap: the member
        // choice must vary across flowlets (rehash includes the time).
        let mut seen = std::collections::HashSet::new();
        for k in 0..64u64 {
            let at = Nanos::from_micros(1_000 + k * 500); // 500us >> 100us gap
            seen.insert(t.lookup(NodeId(9), 42, at).unwrap());
        }
        assert!(seen.len() >= 3, "flowlets never moved: {seen:?}");
    }

    #[test]
    fn flowlet_different_flows_are_independent() {
        let t = flowlet_table(100);
        let mut seen = std::collections::HashSet::new();
        for key in 0..128u64 {
            seen.insert(t.lookup(NodeId(9), key, Nanos::from_micros(5)).unwrap());
        }
        assert_eq!(seen.len(), 4, "flows should spread over all members");
    }
}
