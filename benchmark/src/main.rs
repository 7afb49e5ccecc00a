//! The uburst pipeline benchmark. See `README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints one JSON result object as the last line of
//!   standard output (the acceptance driver's protocol).
//! * Without `--workload`, every workload runs in its own child process, one
//!   after another, and a table of every metric is printed (`suite.rs`).
//! * `--manifest` prints `BENCHMARK.json`.
//! * `--calibrate` prints the host-speed kernels' times for a minute (how
//!   the nominal times in `calib.rs` were derived).

mod calib;
mod gen;
mod harness;
mod isolated;
mod manifest;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Report;
use workloads::analysis::Analysis;
use workloads::fleet::Fleet;
use workloads::rack::Rack;
use workloads::recover::Recover;
use workloads::Workload;

/// Where trace files and suite results go: `UBURST_BENCH_OUT` (set by
/// `run.sh` to `benchmark/out`), else `benchmark/out` under the working
/// directory.
fn out_dir() -> PathBuf {
    std::env::var_os("UBURST_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

fn run<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        harness::traced(w, seed, seconds, &out_dir())
    } else {
        harness::end_to_end(w, seed, seconds)
    }
}

fn run_named(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    Some(match name {
        "rack_bulk" => run(&Rack::bulk(), seed, seconds, trace),
        "rack_rpc" => run(&Rack::rpc(), seed, seconds, trace),
        "fleet_ingest" => run(&Fleet::ingest(), seed, seconds, trace),
        "store_recover" => run(&Recover::store(), seed, seconds, trace),
        "analysis_scan" => run(&Analysis::scan(), seed, seconds, trace),
        _ => return None,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Command-line options shared by the single-workload and suite modes.
#[derive(Debug, Default)]
pub struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    /// Suite mode: also make a traced run of every workload.
    pub traced: bool,
    /// Suite mode: two sets of `runs` runs per workload, medians and spreads
    /// compared with the bounds.
    pub repeat_check: bool,
    /// Runs per set under `--repeat-check`.
    pub runs: usize,
    /// Suite mode: append the results to `benchmark/history.jsonl`.
    pub record: bool,
    manifest: bool,
    calibrate: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 1,
        runs: 10,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => o.traced = true,
            "--record" => o.record = true,
            "--repeat-check" => o.repeat_check = true,
            "--runs" => {
                o.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if o.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--manifest" => o.manifest = true,
            "--calibrate" => o.calibrate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("uburst-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if o.manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    if o.calibrate {
        let host = calib::HostSpeed::default();
        let started = std::time::Instant::now();
        while started.elapsed().as_secs() < 60 {
            let [sort, alu, stream, hash] = host.kernel_seconds();
            println!("{sort:.6} {alu:.6} {stream:.6} {hash:.6}");
        }
        return ExitCode::SUCCESS;
    }
    let seconds = o.seconds.unwrap_or(f64::from(manifest::RUN_SECONDS));
    let Some(name) = &o.workload else {
        return suite::run(&o, o.seed, seconds, &out_dir());
    };
    // The product configuration of run_all_experiments and ext_fleet.
    uburst_obs::enable();
    let Some(report) = run_named(name, o.seed, seconds, o.trace) else {
        eprintln!("uburst-benchmark: no workload called {name}");
        return ExitCode::from(2);
    };
    println!(
        "{name} seed {} digest {:016x} attempted {} failed {}",
        o.seed, report.digest, report.attempted, report.failed
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (metric, value, unit) in &report.metrics {
        println!("{metric:<36} {value:>16.6} {unit}");
    }
    println!("{}", result_json(&report));
    // A failed check is reported in the result line, which the driver reads;
    // the exit code says the same to a shell.
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Tracer;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let o = parse(&args(
            "--workload rack_rpc --seed 42 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("rack_rpc"));
        assert_eq!((o.seed, o.seconds, o.trace), (42, Some(12.0), true));
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--size 3")).is_err());
        let o = parse(&args("--repeat-check --runs 4")).unwrap();
        assert_eq!((o.repeat_check, o.runs), (true, 4));
        assert!(parse(&args("--runs 1")).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 7,
            failed: 0,
            digest: 1,
            metrics: vec![("wall_s", 0.5, "s"), ("setup_s", 0.25, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&r),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    /// One product and one traced repetition of a workload at smoke size:
    /// every check passes and both paths produce the same digest, twice.
    fn smoke<W: Workload>(w: &W) {
        let mut digests = Vec::new();
        for _ in 0..2 {
            let mut off = Tracer::off();
            let input = w.generate(9, &mut off);
            let prepared = w.prepare(&input);
            let output = w.run(&input, prepared, &mut off);
            let product = w.check(&input, output, &mut off);
            assert_eq!(product.failed, 0, "{} product path", w.name());
            assert!(product.attempted > 0);

            let mut t = Tracer::default();
            let prepared = w.prepare(&input);
            let output = t.repetition(0, |t| w.run(&input, prepared, t));
            let traced = w.check(&input, output, &mut t);
            assert_eq!(traced, product, "{} traced path", w.name());
            assert!(t.coverage() > 0.5, "{} coverage {}", w.name(), t.coverage());

            let mut m = workloads::Metrics::new();
            assert_eq!(w.layers(&input, &t, 1, &mut m), 0, "{} layers", w.name());
            for name in m.keys() {
                assert!(
                    manifest::PER_LAYER.iter().any(|d| d.name == *name),
                    "{name} undeclared"
                );
            }
            digests.push(product.digest);
        }
        assert_eq!(digests[0], digests[1], "{} digest is stable", w.name());
    }

    #[test]
    fn smoke_rack_bulk() {
        smoke(&Rack::bulk().smoke());
    }

    #[test]
    fn smoke_rack_rpc() {
        smoke(&Rack::rpc().smoke());
    }

    #[test]
    fn smoke_fleet_ingest() {
        smoke(&Fleet::ingest().smoke());
    }

    #[test]
    fn smoke_store_recover() {
        smoke(&Recover::store().smoke());
    }

    #[test]
    fn smoke_analysis_scan() {
        smoke(&Analysis::scan().smoke());
    }

    #[test]
    fn a_different_seed_changes_the_digest() {
        let w = Analysis::scan().smoke();
        let digest = |seed| {
            let mut off = Tracer::off();
            let input = w.generate(seed, &mut off);
            let output = w.run(&input, (), &mut off);
            w.check(&input, output, &mut off).digest
        };
        assert_ne!(digest(1), digest(2));
    }
}
