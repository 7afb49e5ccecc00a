//! # uburst-core — the high-resolution counter collection framework
//!
//! This crate is the reproduction of the paper's primary contribution
//! (§4.1): a framework that polls switch ASIC counters at 10s–100s of
//! microseconds with minimal impact on switch operation. It provides:
//!
//! * [`poller`] — the best-effort sampling loop, run on a modeled switch CPU
//!   inside the simulation, paying real (simulated) time per counter read
//!   and suffering kernel-jitter-induced missed intervals; failed reads are
//!   retried with bounded exponential backoff and narrow counters are
//!   wrap-decoded to full width;
//! * [`errors`] — typed [`PollError`] / [`errors::CollectorError`] values
//!   for every configuration and runtime failure the pipeline can surface;
//! * [`spec`] — measurement campaigns and the dedicated vs. shared core
//!   timing model;
//! * [`tuning`] — the minimum interval at a target sampling loss, computed
//!   from the poller's closed-form miss law (the paper's manual Table 1
//!   procedure);
//! * [`batch`] — the switch-side batcher that cuts the poller's series into
//!   shippable batches;
//! * [`store`] — the sample store every path ends in, which quarantines
//!   malformed batches and exports CSV;
//! * [`collector`] — threads draining one bounded queue into a store,
//!   kept only because `benchmark/` links it (ROADMAP item 3a); the
//!   collector service is [`fleet`];
//! * [`series`] — timestamped cumulative-counter series, wrap-aware
//!   decoding, and the delta-to-rate/utilization conversions the analyses
//!   build on;
//! * [`ship`] / [`link`] / [`session`] — sequence-numbered batch shipping
//!   with ack/retransmit over a seeded lossy-link model, the per-source
//!   gap ledger that distinguishes "no burst" from "no data", and the one
//!   transport tick that drives shippers and links against a receiver;
//! * [`wal`] / [`segment`] — the crash-safe persistence tier: append-only
//!   CRC-framed segment files, fsync-policy-gated acks, and torn-tail
//!   recovery back into the store;
//! * [`failpoint`] — deterministic byte-granular crash injection
//!   ([`TornStorage`], [`CrashPlan`], [`RegionCrashPlan`]) driving the
//!   durability and failover test suites;
//! * [`fleet`] — the fleet aggregation tier, stepped a round at a time:
//!   WAL-backed regional aggregators with per-switch health tracking,
//!   coverage ledgers, rendezvous re-sharding around aggregator crashes,
//!   and WAL-replay recovery into the global store.
//!
//! ## End-to-end shape
//!
//! ```text
//! Switch (uburst-sim) ──writes──► AsicCounters (uburst-asic)
//!                                     ▲ reads (AccessModel cost, faults)
//!                               Poller (this crate, simulated CPU) ──► Series
//!                                     │ Batcher → RoundInput
//!                                     ▼
//!   Shipper ──► LossyLink ──► regional WAL ──► global SampleStore ──► CSV
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod collector;
mod csv;
pub mod errors;
pub mod failpoint;
pub mod fleet;
pub mod link;
pub mod poller;
pub mod segment;
pub mod series;
pub mod session;
pub mod ship;
pub mod spec;
pub mod store;
pub mod tuning;
pub mod wal;

pub use batch::{Batch, BatchPolicy, Batcher, SourceId};
pub use errors::{PollError, ShipError};
pub use failpoint::{crash_error, is_injected_crash, CrashPlan, RegionCrashPlan, TornStorage};
pub use fleet::{
    rendezvous_region, run_fleet, run_fleet_with_crashes, CoverageLedger, Fleet, FleetConfig,
    FleetOutcome, HealthState, RegionStats, RoundInput, SwitchCoverage, SwitchStream,
};
pub use link::{LinkPlan, LinkStats, LossyLink};
pub use poller::{Poller, PollerStats, RetryPolicy};
pub use series::{RateSample, Series, UtilSample, WrapDecoder};
pub use session::{Session, Workload};
pub use ship::{AckMsg, GapLedger, SeqBatch, Shipment, Shipper, ShipperConfig, ShipperStats};
pub use spec::{CampaignConfig, CoreMode};
pub use store::{
    counter_label, parse_counter_label, QuarantineReason, SampleStore, SeqIngest, SeriesKey,
    StoreStats,
};
pub use tuning::{probe_idle_bank, tune_min_interval};
pub use wal::{
    DirStorage, DurableStore, FsyncPolicy, MemStorage, RecoveryReport, Wal, WalConfig, WalStorage,
};
