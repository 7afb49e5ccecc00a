//! Every reproduction harness behind one binary: `repro [all | list | <id>]`.
//!
//! * `repro` / `repro all` runs every table/figure of
//!   `figures::all_experiments()` and prints the combined report — the
//!   data behind EXPERIMENTS.md.
//! * `repro <id>` runs one entry: a table/figure id of that registry, or
//!   one of the [`HARNESSES`] (extension experiments, ablations, the
//!   calibration probe), which print their own report.
//! * `repro list` prints the ids; an unknown id exits 2 with the list.
//!
//! The process exits 1 if any shape check printed `[MISS]`.
//!
//! Experiments run on the parallel engine (experiment-level jobs on top of
//! each harness's campaign-level jobs; the shared worker budget caps total
//! threads at `Scale::threads()`). Reports are printed in paper order and
//! are byte-identical for any `UBURST_THREADS` value; per-experiment
//! timings go to stderr so stdout stays deterministic.

mod ablations;
mod calibrate;
mod ext_buffer_policy;
mod ext_durability;
mod ext_ecn_dctcp;
mod ext_fabric_tier;
mod ext_fault_tolerance;
mod ext_fct_tail;
mod ext_fleet;
mod ext_flowlet_lb;

use std::process::ExitCode;
use std::time::Instant;

use uburst_bench::figures::all_experiments;
use uburst_bench::figures::common::SinglePortData;
use uburst_bench::Scale;

/// The harnesses that are not a paper table/figure: `(id, run)`. Each
/// prints its own report.
const HARNESSES: [(&str, fn()); 10] = [
    ("ext_buffer_policy", ext_buffer_policy::run),
    ("ext_durability", ext_durability::run),
    ("ext_ecn_dctcp", ext_ecn_dctcp::run),
    ("ext_fabric_tier", ext_fabric_tier::run),
    ("ext_fault_tolerance", ext_fault_tolerance::run),
    ("ext_fct_tail", ext_fct_tail::run),
    ("ext_fleet", ext_fleet::run),
    ("ext_flowlet_lb", ext_flowlet_lb::run),
    ("ablations", ablations::run),
    ("calibrate", calibrate::run),
];

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    match arg.as_deref().unwrap_or("all") {
        "all" => run_all(),
        "list" => print!("{}", list()),
        id => {
            if !run_one(id) {
                eprint!("unknown experiment {id:?}; known ids:\n{}", list());
                return ExitCode::from(2);
            }
        }
    }
    if uburst_bench::report::misses() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One id per line, tables/figures first.
fn list() -> String {
    let figures = all_experiments().into_iter().map(|e| e.0);
    let harnesses = HARNESSES.iter().map(|h| h.0);
    figures
        .chain(harnesses)
        .map(|id| format!("{id}\n"))
        .collect()
}

/// Runs the entry named `id`, or returns `false` if there is none.
fn run_one(id: &str) -> bool {
    if let Some((_, _, runner)) = all_experiments().into_iter().find(|e| e.0 == id) {
        print!("{}", runner.run(Scale::from_env()));
        true
    } else if let Some((_, run)) = HARNESSES.iter().find(|h| h.0 == id) {
        run();
        true
    } else {
        false
    }
}

/// Runs every table/figure harness and prints the combined report.
fn run_all() {
    // Record pipeline telemetry for the whole run. Every metric is a
    // commutative aggregate over simulated time, so the snapshot printed
    // below is byte-identical for any UBURST_THREADS value.
    uburst_obs::enable();
    let scale = Scale::from_env();
    let t0 = Instant::now();
    println!("uburst reproduction report (scale: {})", scale.label());
    println!("====================================================");
    // Figs. 3, 4, 6 and Table 2 read the same campaigns: measure once.
    let t = Instant::now();
    let single_port = SinglePortData::collect(scale);
    eprintln!(
        "[single-port dataset collected in {:.1}s]",
        t.elapsed().as_secs_f64()
    );
    let reports = uburst_bench::run_jobs(all_experiments(), |(id, title, runner)| {
        let t = Instant::now();
        let report = runner.report(scale, &single_port);
        eprintln!("[{id} completed in {:.1}s]", t.elapsed().as_secs_f64());
        (id, title, report)
    });
    for (id, title, report) in reports {
        println!("\n### {id}: {title}\n");
        print!("{report}");
    }

    let snap = uburst_obs::snapshot();
    println!("\n### telemetry: pipeline self-observability\n");
    println!("metrics (Prometheus exposition):");
    print!("{}", snap.to_prometheus());
    // UBURST_TELEMETRY_OUT=<prefix> also writes the snapshot as
    // <prefix>.json (the Prometheus text is already above); REPORTS.sha256
    // pins it.
    if let Ok(prefix) = std::env::var("UBURST_TELEMETRY_OUT") {
        if !prefix.is_empty() {
            std::fs::write(format!("{prefix}.json"), snap.to_json())
                .expect("write telemetry .json");
            eprintln!("[telemetry written to {prefix}.json]");
        }
    }

    eprintln!(
        "[all experiments completed in {:.1}s on {} thread(s)]",
        t0.elapsed().as_secs_f64(),
        Scale::threads()
    );
}
