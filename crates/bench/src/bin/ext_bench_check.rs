//! Bench-regression gate: compares a fresh set of `BENCH_*.json` results
//! against the committed baselines and fails on significant slowdowns.
//!
//! Usage:
//!
//! ```text
//! ext_bench_check <baseline_dir> <fresh_dir> [max_ratio]
//! ```
//!
//! For every harness (`analysis`, `framework`, `simulation`) the gate loads
//! `BENCH_<name>.json` from both directories and compares medians case by
//! case. A case whose fresh median exceeds `max_ratio` × its baseline
//! median (default 1.5) is a regression and fails the run. Cases present
//! only in the fresh results are new benchmarks (informational); cases
//! present only in the baseline mean coverage was lost and also fail —
//! a silently deleted benchmark is how regressions go unwatched.
//!
//! The threshold is deliberately loose: it is a tripwire for order-of-A
//! slowdowns (an accidental O(n log n) → O(n²), a lost fast path), not a
//! microbenchmark referee. One number, locally and in CI, from measured
//! noise: on the shared 2-vCPU reference host the wall time of unchanged
//! code drifts ±20 % in regimes that outlast a bench run
//! (`benchmark/README.md`), so the ratio of two honest medians reaches
//! 1.2 / 0.8 = 1.5; anything tighter flags the host, and the regressions
//! this gate exists for are ≥ 2×. Finer claims go through the
//! host-speed-normalized pipeline benchmark (`benchmark/`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uburst_bench::benchjson::{parse_rows, BenchRow};

/// Harnesses the gate expects results for (one `BENCH_<name>.json` each).
const HARNESSES: &[&str] = &["analysis", "framework", "simulation"];

/// Default failure threshold: fresh median / baseline median (see the
/// module docs for why 1.5).
const DEFAULT_MAX_RATIO: f64 = 1.5;

fn load(dir: &Path, name: &str) -> Result<Vec<BenchRow>, String> {
    let path = dir.join(format!("BENCH_{name}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_rows(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn check_harness(name: &str, baseline: &[BenchRow], fresh: &[BenchRow], max_ratio: f64) -> usize {
    println!("== BENCH_{name}.json ==");
    println!(
        "  {:<28} {:>12} {:>12} {:>8}",
        "case", "baseline ms", "fresh ms", "ratio"
    );
    let mut failures = 0;
    for base in baseline {
        let Some(new) = fresh.iter().find(|r| r.case == base.case) else {
            println!(
                "  {:<28} {:>12.4} {:>12} {:>8}  LOST",
                base.case, base.median_ms, "-", "-"
            );
            failures += 1;
            continue;
        };
        let ratio = new.median_ms / base.median_ms;
        let verdict = if ratio > max_ratio { "REGRESSED" } else { "ok" };
        println!(
            "  {:<28} {:>12.4} {:>12.4} {:>7.2}x  {verdict}",
            base.case, base.median_ms, new.median_ms, ratio
        );
        if ratio > max_ratio {
            failures += 1;
        }
    }
    for new in fresh {
        if !baseline.iter().any(|r| r.case == new.case) {
            println!(
                "  {:<28} {:>12} {:>12.4} {:>8}  new",
                new.case, "-", new.median_ms, "-"
            );
        }
    }
    failures
}

/// Cross-case invariant inside the fresh analysis results: the pooled
/// Pearson driver must not be slower than the serial one. On a one-core
/// host the pooled path degenerates to the serial kernel plus fixed
/// chunking overhead, so "pooled ≤ serial" holds whenever that overhead
/// is negligible — this gate is what catches it creeping back (as it did
/// when the pair-chunk fan-out shipped with a latency-bound dot kernel).
/// A small tolerance absorbs run-to-run noise between the two rows.
const POOLED_CASE: &str = "pearson_pooled_24x100k";
const SERIAL_CASE: &str = "pearson_matrix_24x100k";
const POOLED_TOLERANCE: f64 = 1.10;

fn check_pooled_not_slower(fresh: &[BenchRow]) -> usize {
    let (Some(pooled), Some(serial)) = (
        fresh.iter().find(|r| r.case == POOLED_CASE),
        fresh.iter().find(|r| r.case == SERIAL_CASE),
    ) else {
        println!("  pooled-vs-serial: rows missing, skipped");
        return 0;
    };
    let ratio = pooled.median_ms / serial.median_ms;
    let verdict = if ratio > POOLED_TOLERANCE {
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "  pooled-vs-serial: {:.4} / {:.4} = {ratio:.2}x  {verdict}",
        pooled.median_ms, serial.median_ms
    );
    usize::from(ratio > POOLED_TOLERANCE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 || args.len() > 3 {
        eprintln!("usage: ext_bench_check <baseline_dir> <fresh_dir> [max_ratio]");
        return ExitCode::from(2);
    }
    let baseline_dir = PathBuf::from(&args[0]);
    let fresh_dir = PathBuf::from(&args[1]);
    let max_ratio = match args.get(2) {
        None => DEFAULT_MAX_RATIO,
        Some(s) => match s.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 0.0 => r,
            _ => {
                eprintln!("invalid max_ratio {s:?}");
                return ExitCode::from(2);
            }
        },
    };

    println!(
        "bench regression gate: {} vs {} (fail above {max_ratio:.2}x)\n",
        baseline_dir.display(),
        fresh_dir.display()
    );
    let mut failures = 0;
    for name in HARNESSES {
        let base = match load(&baseline_dir, name) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        let new = match load(&fresh_dir, name) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        failures += check_harness(name, &base, &new, max_ratio);
        if *name == "analysis" {
            failures += check_pooled_not_slower(&new);
        }
        println!();
    }

    if failures > 0 {
        println!("FAIL: {failures} case(s) regressed beyond {max_ratio:.2}x (or lost coverage)");
        ExitCode::FAILURE
    } else {
        println!("OK: no case regressed beyond {max_ratio:.2}x");
        ExitCode::SUCCESS
    }
}
