//! # uburst-sim — packet-level data center network simulator
//!
//! The substrate for the IMC 2017 microburst reproduction: a deterministic
//! discrete-event simulator of the network environment the paper measured —
//! racks of hosts behind shared-buffer ToR switches in a Clos fabric, running
//! a window-based reliable transport.
//!
//! Design goals, in order: **determinism** (every run is reproducible from a
//! seed), **fidelity of the mechanisms that create microbursts** (fan-in,
//! shared-buffer dynamic thresholds, ECMP flow hashing, slow-start
//! overshoot, segmentation-offload bursts), and **speed** (tens of millions
//! of events per second, so second-scale rack simulations finish in
//! seconds).
//!
//! ## Layering
//!
//! * [`time`], [`rng`], [`events`] — the discrete-event core.
//! * [`node`], [`link`], [`sim`] — nodes, wiring, and the driver loop.
//! * [`packet`], [`transport`], [`nic`] — end-host behaviour.
//! * [`txstage`] — the FIFO transmit stage shared by NIC ring and switch
//!   egress, in its lazy and event-per-frame variants.
//! * [`switch`], [`bufpolicy`], [`routing`], [`counters`] — the
//!   shared-buffer switch, its pluggable carving policies, and its
//!   counter-reporting hook (implemented by `uburst-asic`).
//! * [`topology`] — Clos construction.
//!
//! ## Example
//!
//! ```
//! use uburst_sim::prelude::*;
//!
//! let mut sim = Simulator::new();
//! // ... add hosts, build a Clos, schedule timers ...
//! sim.run_until(Nanos::from_millis(10));
//! assert_eq!(sim.now(), Nanos::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bufpolicy;
pub mod counters;
pub mod events;
pub mod fasthash;
pub mod link;
pub mod nic;
pub mod node;
pub mod packet;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod switch;
pub mod time;
pub mod topology;
pub mod transport;
pub mod txstage;

/// The names almost every user needs.
pub mod prelude {
    pub use crate::arena::{ArenaStats, PacketArena, PacketRef};
    pub use crate::bufpolicy::{
        BShare, BufferPolicy, BufferPolicyCfg, DynamicThreshold, FlexibleBuffering, StaticPartition,
    };
    pub use crate::counters::{null_sink, CounterSink, NullCounters, SharedSink};
    pub use crate::link::LinkSpec;
    pub use crate::nic::{HostNic, NicConfig, NIC_PACE_TOKEN};
    pub use crate::node::{Ctx, Node, NodeId, PortId};
    pub use crate::packet::{FlowId, Packet, PacketKind, ACK_BYTES, MSS, MTU_FRAME};
    pub use crate::rng::Rng;
    pub use crate::routing::{EcmpMode, Route, RoutingTable};
    pub use crate::sim::Simulator;
    pub use crate::switch::{Switch, SwitchConfig, SwitchStats};
    pub use crate::time::Nanos;
    pub use crate::topology::{build_clos, ClosConfig, ClosHandles, RackSpec};
    pub use crate::transport::{
        TransportConfig, TransportEndpoint, TransportEvent, TransportStats,
    };
}
