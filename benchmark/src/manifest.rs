//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`run.sh --manifest`), and
//! a unit test keeps the committed file equal to the rendering.

use std::fmt::Write as _;

use Better::{Higher, Lower};

/// The command the acceptance driver runs from the repository root.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 15;

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (at most 200 characters).
    pub why: &'static str,
}

/// The five workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "rack_bulk",
        why: "3 Hadoop racks x 2 campaign shapes: long flows, deep queues, drops, buffer admission and fast-forward all busy; sim is >=95% of the time",
    },
    WorkloadDef {
        name: "rack_rpc",
        why: "3 Web + 3 Cache racks: short request/response flows where timers and transport dominate and fast-forward removes little; settle changes should not move it",
    },
    WorkloadDef {
        name: "fleet_ingest",
        why: "1024 switches x 16 rounds through run_fleet: ship, lossy link, segment/CRC, regional WAL group commit, region and global store, with the DES absent",
    },
    WorkloadDef {
        name: "store_recover",
        why: "read side of the same segment/WAL/store code: recover a torn 22 MB log, read every series back, CSV export and import; write-path gains that cost recovery show here",
    },
    WorkloadDef {
        name: "analysis_scan",
        why: "offline half of the paper on 32 x 160k-sample series: bursts, radix-sorted ECDFs, KS, Markov, 32x32 Pearson, MAD, resample, report; sim and collection idle",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with its regression bound.
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload by a `--trace 0` run.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer (no bound).
pub struct LayerDef {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// The per-layer metrics, every one reported by a `--trace 1` run of every
/// workload. A `*_frac` is a share of the traced repetition's wall time
/// (`trace.wall_ms`); a metric whose layer the workload never enters reads
/// 0. Rows marked isolated in `README.md` are fixed-size kernels measured
/// the same way on every workload.
pub const PER_LAYER: [LayerDef; 88] = [
    layer("host.slowdown", "ratio", Lower),
    layer("trace.wall_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.coverage_frac", "ratio", Higher),
    layer("obs.enabled_overhead_frac", "ratio", Lower),
    layer("sim.warmup_frac", "ratio", Lower),
    layer("sim.run_frac", "ratio", Lower),
    layer("sim.teardown_frac", "ratio", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.sim_ms_per_s", "ms/s", Higher),
    layer("sim.arena_high_water", "count", Lower),
    layer("sim.arena_reuse_frac", "ratio", Higher),
    layer("sim.drop_frac", "ratio", Lower),
    layer("sim.eventq_ns_per_op", "ns", Lower),
    layer("sim.bufpolicy_ns_per_admit", "ns", Lower),
    layer("workloads.build_frac", "ratio", Lower),
    layer("workloads.flows_started", "count", Higher),
    layer("workloads.flows_completed", "count", Higher),
    layer("asic.count_tx_ns", "ns", Lower),
    layer("asic.read_planned_ns_1", "ns", Lower),
    layer("asic.read_planned_ns_29", "ns", Lower),
    layer("core.poller.attach_frac", "ratio", Lower),
    layer("core.poller.take_frac", "ratio", Lower),
    layer("core.poller.polls", "count", Higher),
    layer("core.poller.missed_frac", "ratio", Lower),
    layer("core.poller.ns_per_poll", "ns", Lower),
    layer("bench.campaign.reduce_frac", "ratio", Lower),
    layer("bench.pool.speedup_2t", "ratio", Higher),
    layer("core.batch.samples_per_s", "1/s", Higher),
    layer("core.batch.batches_cut", "count", Higher),
    layer("core.fleet.run_frac", "ratio", Lower),
    layer("core.fleet.batches_per_s", "1/s", Higher),
    layer("core.fleet.samples_per_s", "1/s", Higher),
    layer("core.fleet.coverage_frac", "ratio", Higher),
    layer("core.fleet.unattributed_frac", "ratio", Lower),
    layer("core.ship.frac", "ratio", Lower),
    layer("core.ship.transmissions", "count", Lower),
    layer("core.ship.retransmit_frac", "ratio", Lower),
    layer("core.link.frac", "ratio", Lower),
    layer("core.link.offered", "count", Lower),
    layer("core.link.dropped", "count", Lower),
    layer("core.link.duplicated", "count", Lower),
    layer("core.segment.frame_frac", "ratio", Lower),
    layer("core.segment.frame_mb_per_s", "MB/s", Higher),
    layer("core.segment.crc_mb_per_s", "MB/s", Higher),
    layer("core.segment.scan_frac", "ratio", Lower),
    layer("core.segment.scan_mb_per_s", "MB/s", Higher),
    layer("core.segment.decode_records_per_s", "1/s", Higher),
    layer("core.wal.ingest_frac", "ratio", Lower),
    layer("core.wal.self_frac", "ratio", Lower),
    layer("core.wal.records_per_s", "1/s", Higher),
    layer("core.wal.mb_per_s", "MB/s", Higher),
    layer("core.wal.bytes", "count", Lower),
    layer("core.wal.recover_frac", "ratio", Lower),
    layer("core.wal.recover_mb_per_s", "MB/s", Higher),
    layer("core.wal.records_recovered", "count", Higher),
    layer("core.wal.torn_tails", "count", Lower),
    layer("core.store.ingest_frac", "ratio", Lower),
    layer("core.store.ingest_samples_per_s", "1/s", Higher),
    layer("core.store.duplicates", "count", Lower),
    layer("core.store.replay_frac", "ratio", Lower),
    layer("core.store.readback_frac", "ratio", Lower),
    layer("core.store.readback_samples_per_s", "1/s", Higher),
    layer("core.store.export_csv_frac", "ratio", Lower),
    layer("core.store.export_csv_mb_per_s", "MB/s", Higher),
    layer("core.store.import_csv_frac", "ratio", Lower),
    layer("core.store.import_csv_mb_per_s", "MB/s", Higher),
    layer("core.collector.batches_per_s", "1/s", Higher),
    layer("core.series.utilization_frac", "ratio", Lower),
    layer("analysis.burst_frac", "ratio", Lower),
    layer("analysis.bursts", "count", Higher),
    layer("analysis.ecdf_frac", "ratio", Lower),
    layer("analysis.sort_melem_per_s", "Melem/s", Higher),
    layer("analysis.ks_frac", "ratio", Lower),
    layer("analysis.markov_frac", "ratio", Lower),
    layer("analysis.pearson_frac", "ratio", Lower),
    layer("analysis.pearson_msamples_per_s", "Msample/s", Higher),
    layer("analysis.mad_frac", "ratio", Lower),
    layer("analysis.resample_frac", "ratio", Lower),
    layer("analysis.samples_per_s", "1/s", Higher),
    layer("bench.pearson_pool.speedup_2t", "ratio", Higher),
    layer("bench.report.render_frac", "ratio", Lower),
    layer("layer.sim_frac", "ratio", Lower),
    layer("layer.workloads_frac", "ratio", Lower),
    layer("layer.core_frac", "ratio", Lower),
    layer("layer.analysis_frac", "ratio", Lower),
    layer("layer.bench_frac", "ratio", Lower),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    writeln!(out, "  \"command\": [{}],", list(&COMMAND)).unwrap();
    writeln!(out, "  \"paths\": [{}],", list(&PATHS)).unwrap();
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_manifest_contract() {
        let mut names = std::collections::BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() <= 64 * 1024);
    }

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render(),
            "run `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }
}
