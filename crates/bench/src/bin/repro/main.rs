//! Every reproduction experiment behind one binary: `repro [all | list | <id>]`.
//!
//! * `repro` / `repro all` runs the paper's tables and figures (the first
//!   `figures::PAPER_EXPERIMENTS` entries of `figures::all_experiments()`)
//!   and prints the combined report — the data behind EXPERIMENTS.md.
//! * `repro <id>` runs one entry of that registry: a table, a figure, an
//!   extension experiment or the ablations.
//! * `repro list` prints the ids; an unknown id exits 2 with the list.
//!
//! The process exits 1 iff what it printed holds a `[MISS]` check line,
//! counted from that text by `report::misses`.
//!
//! Every entry runs through one driver, `figures::run_experiments`: the
//! campaigns every selected entry declares run in one `run_parallel` call
//! on `Scale::threads()` threads, and each entry renders its runs as soon
//! as they are in. Reports are printed in registry order and are
//! byte-identical for any `UBURST_THREADS` value; the wall time goes to
//! stderr so stdout stays deterministic.

use std::process::ExitCode;
use std::time::Instant;

use uburst_bench::figures::{all_experiments, run_experiments, Experiment, PAPER_EXPERIMENTS};
use uburst_bench::report::misses;
use uburst_bench::Scale;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    let mut experiments = all_experiments();
    let ids: String = experiments.iter().map(|e| format!("{}\n", e.id)).collect();
    let out = match arg.as_deref().unwrap_or("all") {
        "all" => {
            experiments.truncate(PAPER_EXPERIMENTS);
            run_all(&experiments)
        }
        "list" => ids,
        id => match experiments.iter().position(|e| e.id == id) {
            Some(i) => run(id, &experiments[i..=i]).concat(),
            None => {
                eprint!("unknown experiment {id:?}; known ids:\n{ids}");
                return ExitCode::from(2);
            }
        },
    };
    print!("{out}");
    ExitCode::from(u8::from(misses(&out) > 0))
}

/// Runs `experiments` through the one driver and returns their reports;
/// the wall time goes to stderr as `[<label> completed in …]`.
fn run(label: &str, experiments: &[Experiment]) -> Vec<String> {
    let t0 = Instant::now();
    let reports = run_experiments(Scale::from_env(), experiments);
    eprintln!(
        "[{label} completed in {:.1}s on {} thread(s)]",
        t0.elapsed().as_secs_f64(),
        Scale::threads()
    );
    reports
}

/// Runs the paper's tables and figures and returns the combined report.
fn run_all(experiments: &[Experiment]) -> String {
    // Record pipeline telemetry for the whole run. Every metric is a
    // commutative aggregate over simulated time, so the snapshot printed
    // below is byte-identical for any UBURST_THREADS value.
    uburst_obs::enable();
    let mut out = format!(
        "uburst reproduction report (scale: {})\n\
         ====================================================\n",
        Scale::from_env().label()
    );
    for (e, report) in experiments.iter().zip(run("all experiments", experiments)) {
        out += &format!("\n### {}: {}\n\n{report}", e.id, e.title);
    }

    let snap = uburst_obs::snapshot();
    out += "\n### telemetry: pipeline self-observability\n\nmetrics (Prometheus exposition):\n";
    out + &snap.to_prometheus()
}
