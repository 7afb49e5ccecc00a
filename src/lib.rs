//! # uburst — reproduction of *High-Resolution Measurement of Data Center
//! Microbursts* (IMC 2017)
//!
//! This facade crate re-exports the whole system so applications depend on
//! one crate:
//!
//! * [`telemetry`] (`uburst-core`) — the paper's contribution: the
//!   microsecond-scale counter collection framework (pollers, interval
//!   auto-tuning, batching, and the fleet collection tier: gap-accounted
//!   shipping into crash-safe regional WALs and a global store).
//! * [`asic`] — the switch ASIC counter model the framework polls
//!   (counter banks, storage classes, read latencies).
//! * [`sim`] — the packet-level data center simulator underneath
//!   (shared-buffer switches, ECMP, Clos topologies, a reliable transport).
//! * [`workloads`] — the Web / Cache / Hadoop rack traffic models.
//! * [`analysis`] — the paper's statistics (burst extraction, ECDFs,
//!   Markov fits, KS tests, correlation, MAD, resampling).
//! * [`obs`] — the pipeline's self-observability layer (counters, gauges
//!   and latency histograms recorded in simulated time; deterministic
//!   snapshots with Prometheus text exposition). Disabled by default;
//!   call [`obs::enable`] to record.
//!
//! ## Quickstart
//!
//! ```
//! use uburst::prelude::*;
//!
//! // Build a Hadoop rack at peak hour from a seed.
//! let mut s = build_scenario(ScenarioConfig::new(RackType::Hadoop, 42));
//! // Warm it up, then attach a 25us byte-counter campaign to one port.
//! let warmup = s.recommended_warmup();
//! s.sim.run_until(warmup);
//! let port = s.host_ports()[0];
//! let campaign = CampaignConfig::single(
//!     "bytes",
//!     CounterId::TxBytes(port),
//!     Nanos::from_micros(25),
//! );
//! let poller = Poller::in_memory(
//!     s.counters.clone(),
//!     AccessModel::default(),
//!     campaign,
//!     7,
//! )
//! .unwrap();
//! let stop = warmup + Nanos::from_millis(10);
//! let id = poller.spawn(&mut s.sim, warmup, stop).unwrap();
//! s.sim.run_until(stop + Nanos::from_millis(1));
//!
//! // Convert to utilization and extract bursts, paper-style.
//! let series = &s.sim.node_mut::<Poller>(id).take_series().unwrap()[0].1;
//! let utils = series.utilization(s.server_link_bps());
//! let bursts = extract_bursts(&utils, HOT_THRESHOLD);
//! assert!(bursts.total_samples > 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use uburst_analysis as analysis;
pub use uburst_asic as asic;
pub use uburst_core as telemetry;
pub use uburst_obs as obs;
pub use uburst_sim as sim;
pub use uburst_workloads as workloads;

/// Everything a typical experiment needs, one import away.
pub mod prelude {
    pub use uburst_analysis::{
        correlation_matrix, extract_bursts, fit_transition_matrix, grouped_summaries, hot_chain,
        hot_port_counts, ks_test_exponential, mad_per_period, pearson, relative_mad, to_windows,
        Ecdf, Summary, HOT_THRESHOLD,
    };
    pub use uburst_asic::{AccessModel, AsicCounters, CounterId, StorageClass};
    pub use uburst_asic::{FaultInjector, FaultPlan, FaultStats};
    pub use uburst_core::{
        rendezvous_region, run_fleet, run_fleet_with_crashes, tune_min_interval, AckMsg, Batch,
        BatchPolicy, Batcher, CampaignConfig, Collector, CollectorError, CollectorReport, CoreMode,
        CoverageLedger, CrashPlan, DirStorage, DurableStore, FleetConfig, FleetOutcome,
        FsyncPolicy, GapLedger, HealthState, LinkPlan, LossyLink, MemStorage, PollError, Poller,
        PollerStats, QuarantineReason, RecoveryReport, RegionCrashPlan, RetryPolicy, RoundInput,
        SampleStore, SeqBatch, SeqIngest, Series, Shipment, Shipper, ShipperConfig, SourceId,
        SwitchCoverage, SwitchStream, TornStorage, UtilSample, WalConfig, WalError, WrapDecoder,
    };
    pub use uburst_sim::prelude::*;
    pub use uburst_workloads::{
        build_scenario, App, AppHost, Env, RackType, Scenario, ScenarioConfig,
    };
}
