//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `run(scale) -> String`, returning the report
//! `repro <id>` prints; `repro all` concatenates them in the order of
//! [`all_experiments`], the registry the `repro` binary dispatches on.
//! Figs. 3, 4, 6 and Table 2 are four readings of one dataset (the paper's
//! 25 µs single-port campaigns), so those modules also expose
//! `render(scale, &SinglePortData)` and the suite collects the dataset
//! once for all four.

pub mod common;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod overhead;
pub mod table01;
pub mod table02;

use crate::scale::Scale;
use common::SinglePortData;

/// How an experiment produces its report.
#[derive(Clone, Copy)]
pub enum Runner {
    /// Runs its own campaigns.
    Own(fn(Scale) -> String),
    /// Renders the shared 25 µs single-port dataset.
    SinglePort(fn(Scale, &SinglePortData) -> String),
}

impl Runner {
    /// Produces the report, reading `data` if this experiment renders the
    /// shared dataset.
    pub fn report(self, scale: Scale, data: &SinglePortData) -> String {
        match self {
            Runner::Own(run) => run(scale),
            Runner::SinglePort(render) => render(scale, data),
        }
    }

    /// Produces the report standalone — what the module's `run(scale)`
    /// returns: an experiment that renders the shared dataset collects it
    /// for itself.
    pub fn run(self, scale: Scale) -> String {
        match self {
            Runner::Own(run) => run(scale),
            Runner::SinglePort(_) => self.report(scale, &SinglePortData::collect(scale)),
        }
    }
}

/// One experiment's `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, Runner);

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    use Runner::{Own, SinglePort};
    vec![
        (
            "fig01",
            "Drop rate vs utilization at SNMP granularity",
            Own(fig01::run),
        ),
        ("fig02", "Drop time series on two ports", Own(fig02::run)),
        (
            "sec4.1",
            "Self-measurement overhead accounting",
            Own(overhead::run),
        ),
        (
            "table01",
            "Sampling interval vs miss rate",
            Own(table01::run),
        ),
        (
            "fig03",
            "CDF of uburst durations",
            SinglePort(fig03::render),
        ),
        ("table02", "Burst Markov model", SinglePort(table02::render)),
        (
            "fig04",
            "CDF of inter-burst times",
            SinglePort(fig04::render),
        ),
        (
            "fig05",
            "Packet sizes inside/outside bursts",
            Own(fig05::run),
        ),
        (
            "fig06",
            "CDF of link utilization",
            SinglePort(fig06::render),
        ),
        ("fig07", "Uplink load balance (MAD)", Own(fig07::run)),
        (
            "fig08",
            "Server-to-server correlation heatmaps",
            Own(fig08::run),
        ),
        ("fig09", "Directionality of bursts", Own(fig09::run)),
        (
            "fig10",
            "Shared-buffer occupancy vs hot ports",
            Own(fig10::run),
        ),
    ]
}
