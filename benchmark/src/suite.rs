//! Suite mode: every workload in its own child process, one after another
//! (so `peak_rss_mb` is per workload and only one load generator runs at a
//! time), results merged into one table, `out/results.json`, and — under
//! `--record` — one line of `history.jsonl`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use crate::manifest::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::Options;

/// One child run's parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// The text between `key` and the next `,` or `}` in a flat JSON object.
fn scalar_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// Parses a result line as `main::result_json` writes it (metric names and
/// units carry no quotes or escapes, by the manifest's name rules).
pub fn parse_result(line: &str) -> Option<RunResult> {
    let correct = scalar_after(line, "\"correct\":")?.parse().ok()?;
    let attempted = scalar_after(line, "\"attempted\":")?.parse().ok()?;
    let failed = scalar_after(line, "\"failed\":")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    for entry in body.split("\"}") {
        // `"name": {"value": 1.5, "unit": "s` (a leading `, ` after the first)
        let Some((name, rest)) = entry.trim_start_matches([',', ' ']).split_once("\": {") else {
            continue;
        };
        let value = scalar_after(rest, "\"value\":")?.parse().ok()?;
        metrics.insert(name.trim_start_matches('"').to_string(), value);
    }
    Some(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs one workload in a child process and parses its result line. Child
/// output other than the result line is passed through on standard error.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = parse_result(last)
        .ok_or_else(|| format!("{workload}: no result line (status {})", out.status))?;
    if !result.correct {
        eprint!("{stdout}");
    }
    Ok(result)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git revision, compiler, core count and CPU model, as JSON members.
fn host_stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"git_rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"cpu\": \"{}\"",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
        cpu.replace('"', "'")
    )
}

fn results_json(seed: u64, seconds: f64, runs: &BTreeMap<String, RunResult>) -> String {
    let mut out = format!(
        "{{{}, \"seed\": {seed}, \"seconds\": {seconds}, \"runs\": {{",
        host_stamp()
    );
    for (i, (key, r)) in runs.iter().enumerate() {
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        write!(
            out,
            "{}\"{key}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            if i == 0 { "" } else { ", " },
            r.correct,
            r.attempted,
            r.failed,
            metrics.join(", ")
        )
        .unwrap();
    }
    out.push_str("}}");
    out
}

/// Prints one row per metric, one column per workload.
fn print_table(
    title: &str,
    names: &[(&'static str, &'static str)],
    runs: &BTreeMap<String, RunResult>,
    suffix: &str,
) {
    println!("\n{title}");
    print!("{:<36} {:>9}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for &(name, unit) in names {
        print!("{name:<36} {unit:>9}");
        for w in &WORKLOADS {
            match runs
                .get(&format!("{}{suffix}", w.name))
                .and_then(|r| r.metrics.get(name))
            {
                Some(v) if v.abs() >= 1e5 => print!(" {v:>14.0}"),
                Some(v) => print!(" {v:>14.5}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// One end-to-end run (and, with `--traced`, one traced run) per workload.
fn single_set(o: &Options, seed: u64, seconds: f64, out_dir: &Path) -> Result<bool, String> {
    let mut runs = BTreeMap::new();
    for w in &WORKLOADS {
        eprintln!("running {} ...", w.name);
        runs.insert(w.name.to_string(), child(w.name, seed, seconds, false)?);
        if o.traced {
            runs.insert(
                format!("{}.traced", w.name),
                child(w.name, seed, seconds, true)?,
            );
        }
    }
    let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    print_table("end-to-end (--trace 0)", &e2e, &runs, "");
    if o.traced {
        let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        print_table("per layer (--trace 1)", &layers, &runs, ".traced");
    }
    println!();
    for (key, r) in &runs {
        println!(
            "{key:<24} fail_frac {} ({} of {})",
            r.failed as f64 / r.attempted.max(1) as f64,
            r.failed,
            r.attempted
        );
    }
    let json = results_json(seed, seconds, &runs);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::fs::write(out_dir.join("results.json"), format!("{json}\n"))
        .map_err(|e| format!("results.json: {e}"))?;
    if o.record {
        use std::io::Write as _;
        let path = out_dir.with_file_name("history.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{json}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(runs.values().all(|r| r.correct))
}

/// Two sets of `n` end-to-end runs per workload, each run on another seed,
/// as the acceptance driver makes them: every spread (except `setup_s`'s)
/// must stay within its metric's bound and no second median may be worse
/// than the first by more than the bound.
fn repeat_check(n: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "shift", "bound"
    );
    for w in &WORKLOADS {
        let mut sets: Vec<Vec<RunResult>> = Vec::new();
        for _ in 0..2 {
            let mut set = Vec::new();
            for k in 0..n {
                eprintln!("running {} seed {} ...", w.name, seed + k as u64);
                let r = child(w.name, seed + k as u64, seconds, false)?;
                ok &= r.correct;
                set.push(r);
            }
            sets.push(set);
        }
        for m in &END_TO_END {
            let column =
                |set: &[RunResult]| -> Vec<f64> { set.iter().map(|r| r.metrics[m.name]).collect() };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (med_a, med_b) = (median(&a), median(&b));
            let worse = match m.better {
                Better::Lower => med_b / med_a - 1.0,
                Better::Higher => med_a / med_b - 1.0,
            };
            let steady = m.name == "setup_s" || spread(&a).max(spread(&b)) <= m.bound;
            let pass = steady && worse <= m.bound;
            ok &= pass;
            println!(
                "{:<14} {:<12} {:>10.5} {:>10.5} {:>8.4} {:>8.4} {:>+8.4} {:>6.2}  {}",
                w.name,
                m.name,
                med_a,
                med_b,
                spread(&a),
                spread(&b),
                worse,
                m.bound,
                if pass { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}

/// Runs the suite; the exit code is non-zero if any output check failed or,
/// under `--repeat-check`, any metric was out of its bound.
pub fn run(o: &Options, seed: u64, seconds: f64, out_dir: &Path) -> ExitCode {
    let outcome = if o.repeat_check {
        repeat_check(o.runs, seed, seconds)
    } else {
        single_set(o, seed, seconds, out_dir)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("uburst-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_parses_back() {
        let line = "{\"correct\": true, \"attempted\": 108, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.61234, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 41.5, \"unit\": \"MB\"}, \"sim.events_per_s\": {\"value\": 1234567.8, \"unit\": \"1/s\"}}}";
        let r = parse_result(line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (108, 0));
        assert_eq!(r.metrics.len(), 3);
        assert_eq!(r.metrics["wall_s"], 0.61234);
        assert_eq!(r.metrics["peak_rss_mb"], 41.5);
        assert_eq!(r.metrics["sim.events_per_s"], 1234567.8);
        assert_eq!(parse_result("wall_s 0.5 s"), None);
    }

    #[test]
    fn the_host_stamp_is_json_members() {
        let stamp = host_stamp();
        for key in ["\"git_rev\"", "\"rustc\"", "\"nproc\"", "\"cpu\""] {
            assert!(stamp.contains(key), "{stamp}");
        }
    }
}
