//! One module per `repro` id: the paper's tables and figures, then the
//! extension experiments (`ext_*`) and the design ablations.
//!
//! Every module has two functions: `campaigns(scale)` declares the rack
//! campaigns it measures, and `render(scale, specs, runs)` turns the
//! declared specs and their runs (in declaration order) into the report
//! `repro <id>` prints. [`run_experiments`] is the one driver behind
//! `repro all` and `repro <id>`: it submits every declared spec in one
//! [`run_parallel`] call, which fuses campaigns on one simulation, and
//! renders each experiment as soon as its runs are in. An experiment that
//! declares none does its own measuring in `render`, on the caller's
//! thread, where its pool calls fan out. Figs. 3, 4, 6 and
//! Table 2 are four readings of one dataset (the paper's 25 µs
//! single-port campaigns), so they all declare
//! [`common::single_port_campaigns`], and the suite measures it once.

pub mod ablations;
pub mod common;
pub mod ext_buffer_policy;
pub mod ext_durability;
pub mod ext_ecn_dctcp;
pub mod ext_fabric_tier;
pub mod ext_fault_tolerance;
pub mod ext_fct_tail;
pub mod ext_fleet;
pub mod ext_flowlet_lb;
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

use std::sync::Mutex;

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::pool::run_parallel;
use crate::scale::Scale;

/// One `repro` id.
pub struct Experiment {
    /// The id `repro` takes.
    pub id: &'static str,
    /// The section title in a combined report.
    pub title: &'static str,
    /// The rack campaigns the experiment measures.
    pub campaigns: fn(Scale) -> Vec<CampaignSpec>,
    /// The report, from the declared campaigns and their runs; one that
    /// declares none measures here.
    pub render: fn(Scale, &[CampaignSpec], &[CampaignRun]) -> String,
}

/// The registry entry for module `$m`: its `campaigns` and its `render`.
macro_rules! experiment {
    ($id:literal, $title:literal, $m:ident) => {
        Experiment {
            id: $id,
            title: $title,
            campaigns: $m::campaigns,
            render: $m::render,
        }
    };
}

/// How many of [`all_experiments`] are the paper's tables and figures:
/// the entries `repro all` runs.
pub const PAPER_EXPERIMENTS: usize = 13;

/// Every `repro` id, in `repro list` order: the paper's tables and figures
/// in paper order, then the extension experiments and the ablations.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        experiment!(
            "fig01",
            "Drop rate vs utilization at SNMP granularity",
            fig01
        ),
        experiment!("fig02", "Drop time series on two ports", fig02),
        experiment!("sec4.1", "Self-measurement overhead accounting", overhead),
        experiment!("table01", "Sampling interval vs miss rate", table01),
        experiment!("fig03", "CDF of uburst durations", fig03),
        experiment!("table02", "Burst Markov model", table02),
        experiment!("fig04", "CDF of inter-burst times", fig04),
        experiment!("fig05", "Packet sizes inside/outside bursts", fig05),
        experiment!("fig06", "CDF of link utilization", fig06),
        experiment!("fig07", "Uplink load balance (MAD)", fig07),
        experiment!("fig08", "Server-to-server correlation heatmaps", fig08),
        experiment!("fig09", "Directionality of bursts", fig09),
        experiment!("fig10", "Shared-buffer occupancy vs hot ports", fig10),
        experiment!(
            "ext_buffer_policy",
            "Buffer carving policies",
            ext_buffer_policy
        ),
        experiment!("ext_durability", "Crash-safe persistence", ext_durability),
        experiment!(
            "ext_ecn_dctcp",
            "ECN marking + DCTCP response",
            ext_ecn_dctcp
        ),
        experiment!("ext_fabric_tier", "ToR vs fabric tier", ext_fabric_tier),
        experiment!(
            "ext_fault_tolerance",
            "Hardware faults",
            ext_fault_tolerance
        ),
        experiment!("ext_fct_tail", "FCT slowdown vs load", ext_fct_tail),
        experiment!("ext_fleet", "Fleet-scale collection", ext_fleet),
        experiment!("ext_flowlet_lb", "Flowlet load balancing", ext_flowlet_lb),
        experiment!("ablations", "Design-choice ablations", ablations),
    ]
}

/// Runs `experiments` and returns their reports, in order. Every declared
/// spec goes into one [`run_parallel`] call, and an experiment renders on
/// the worker that completes its runs, which it then drops, so the suite
/// holds the runs of the few experiments in flight, not all of them. An
/// experiment that declares exactly an earlier one's campaigns (Figs. 3, 4,
/// 6 and Table 2 all declare the single-port dataset) submits nothing and
/// renders that one's runs.
pub fn run_experiments(scale: Scale, experiments: &[Experiment]) -> Vec<String> {
    let declared: Vec<Vec<CampaignSpec>> =
        experiments.iter().map(|e| (e.campaigns)(scale)).collect();
    // Experiment `i` renders declaration `first[i]`: the first experiment
    // that declares exactly its specs.
    let first: Vec<usize> = declared
        .iter()
        .map(|d| declared.iter().position(|e| e == d).expect("d is declared"))
        .collect();
    let reports: Vec<Mutex<String>> = experiments.iter().map(|_| Mutex::default()).collect();
    let render = |d: usize, runs: &[CampaignRun]| {
        for i in (0..experiments.len()).filter(|&i| first[i] == d) {
            *reports[i].lock().expect("no render panicked") =
                (experiments[i].render)(scale, &declared[d], runs);
        }
    };
    // Each submitted spec's (declaration, position); a declaration's runs
    // wait in `pending` until its last one arrives.
    let owner: Vec<(usize, usize)> = (0..declared.len())
        .filter(|&d| first[d] == d)
        .flat_map(|d| (0..declared[d].len()).map(move |k| (d, k)))
        .collect();
    let pending: Vec<Mutex<Vec<Option<CampaignRun>>>> = declared
        .iter()
        .map(|d| Mutex::new(d.iter().map(|_| None).collect()))
        .collect();
    for d in (0..declared.len()).filter(|&d| first[d] == d && declared[d].is_empty()) {
        render(d, &[]);
    }
    let submitted = owner.iter().map(|&(d, k)| declared[d][k].clone()).collect();
    run_parallel(submitted, |slot, run| {
        let (d, k) = owner[slot];
        let complete: Option<Vec<CampaignRun>> = {
            let mut runs = pending[d].lock().expect("held only to store a run");
            runs[k] = Some(run);
            runs.iter()
                .all(Option::is_some)
                .then(|| runs.drain(..).flatten().collect())
        };
        if let Some(runs) = complete {
            render(d, &runs);
        }
    });
    reports
        .into_iter()
        .map(|r| r.into_inner().expect("no render panicked"))
        .collect()
}
