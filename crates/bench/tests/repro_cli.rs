//! The `repro` binary's command line: `list`, one id, an unknown id.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use uburst_bench::figures::{all_experiments, run_experiments, PAPER_EXPERIMENTS};
use uburst_bench::Scale;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("EXP_SCALE", "quick")
        .output()
        .expect("repro executes")
}

#[test]
fn list_starts_with_the_registry_and_ids_are_unique() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = stdout.lines().collect();
    // One registry, in its order: tables and figures first, then the
    // extensions and the ablations.
    let registry: Vec<&str> = all_experiments().into_iter().map(|e| e.id).collect();
    assert_eq!(listed, registry);
    assert_eq!(listed[PAPER_EXPERIMENTS - 1], "fig10");
    assert!(listed.len() > PAPER_EXPERIMENTS, "no extension listed");
    let unique: BTreeSet<&str> = listed.iter().copied().collect();
    assert_eq!(unique.len(), listed.len(), "duplicate id in {listed:?}");
    assert!(!unique.contains("all") && !unique.contains("list"));
}

#[test]
fn unknown_id_exits_2_with_the_list() {
    let out = repro(&["nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    let (first, ids) = stderr.split_once('\n').expect("message, then ids");
    assert!(first.contains("nonsense"), "{stderr}");
    assert_eq!(ids.as_bytes(), repro(&["list"]).stdout);
}

#[test]
fn one_id_prints_that_experiments_report() {
    // A figure and an extension: every id runs through the one driver.
    for id in ["fig03", "ext_fault_tolerance"] {
        let out = repro(&[id]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let entry = all_experiments()
            .into_iter()
            .find(|e| e.id == id)
            .expect("the id is registered");
        assert_eq!(stdout, run_experiments(Scale::Quick, &[entry]).concat());
        // The wall time goes to stderr, in `repro all`'s format.
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(
            stderr.starts_with(&format!("[{id} completed in ")),
            "{stderr}"
        );
    }
}
