//! # uburst-bench — experiment harnesses
//!
//! Every reproduction experiment ([`figures`], one registry run by the
//! `repro` binary) and the machinery they share. `repro <id>` rebuilds one
//! table or figure by running measured-rack scenarios, attaching the
//! collection framework, and printing the rows/series the paper reports.
//! Performance is measured by the separate `benchmark/` package, which
//! links this crate for the campaign engine, the pool and the report kit.
//!
//! Set `EXP_SCALE=full` for longer campaigns (smoother distributions);
//! the default `quick` scale keeps every harness under a couple of minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod fleet;
pub mod pearson_pool;
pub mod pool;
pub mod report;
pub mod scale;

pub use campaign::{port_bps, representative_port, CampaignRun, CampaignSpec, NetSnapshot};
pub use fleet::{render_report, FleetRun, FleetSpec, SwitchMeta};
pub use pool::{run_jobs, run_jobs_on, run_parallel, run_parallel_on};
pub use report::{fmt_bytes, Table};
pub use scale::Scale;

/// Standard CDF evaluation points for burst-duration figures, microseconds.
pub const DURATION_POINTS_US: [f64; 12] = [
    25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0,
];
