//! Runs every table/figure harness and prints a combined report —
//! the data behind EXPERIMENTS.md.
//!
//! Experiments run on the parallel engine (experiment-level jobs on top of
//! each harness's campaign-level jobs; the shared worker budget caps total
//! threads at `Scale::threads()`). Reports are printed in paper order and
//! are byte-identical for any `UBURST_THREADS` value; per-experiment
//! timings go to stderr so stdout stays deterministic.

use std::time::Instant;

fn main() {
    // Record pipeline telemetry for the whole run. Every metric is a
    // commutative aggregate over simulated time, so the snapshot printed
    // below is byte-identical for any UBURST_THREADS value.
    uburst_obs::enable();
    let scale = uburst_bench::Scale::from_env();
    let t0 = Instant::now();
    println!("uburst reproduction report (scale: {})", scale.label());
    println!("====================================================");
    let experiments = uburst_bench::figures::all_experiments();
    // Figs. 3, 4, 6 and Table 2 read the same campaigns: measure once.
    let t = Instant::now();
    let single_port = uburst_bench::figures::common::SinglePortData::collect(scale);
    eprintln!(
        "[single-port dataset collected in {:.1}s]",
        t.elapsed().as_secs_f64()
    );
    let reports = uburst_bench::run_jobs(experiments, |(id, title, runner)| {
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
    println!("stage latency rollup (simulated time):");
    print!("{}", snap.flame_rollup());
    println!("\nmetrics (Prometheus exposition):");
    print!("{}", snap.to_prometheus());
    // UBURST_TELEMETRY_OUT=<prefix> additionally writes <prefix>.prom and
    // <prefix>.json — what the CI snapshot-diff job compares across
    // thread counts.
    if let Ok(prefix) = std::env::var("UBURST_TELEMETRY_OUT") {
        if !prefix.is_empty() {
            std::fs::write(format!("{prefix}.prom"), snap.to_prometheus())
                .expect("write telemetry .prom");
            std::fs::write(format!("{prefix}.json"), snap.to_json())
                .expect("write telemetry .json");
            eprintln!("[telemetry written to {prefix}.prom / {prefix}.json]");
        }
    }

    eprintln!(
        "[all experiments completed in {:.1}s on {} thread(s)]",
        t0.elapsed().as_secs_f64(),
        uburst_bench::Scale::threads()
    );
}
