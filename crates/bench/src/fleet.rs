//! Fleet-scale measurement campaigns (the `ext_fleet` experiment).
//!
//! The paper's framework polled thousands of ToRs; the figures so far
//! measured one rack at a time. This module runs the whole pipeline at
//! fleet width: N per-switch campaigns fan out on the worker pool (each
//! switch is an independent seeded rack simulation with its own fault
//! plan), their sample streams feed the aggregation tier in
//! [`uburst_core::fleet`], and the cross-rack readouts (ECMP uplink
//! balance, inter-rack correlation) are computed from the **merged global
//! store** — so every figure inherits the coverage ledger that says which
//! switches the data actually includes.
//!
//! Determinism: per-switch campaigns are pure functions of
//! `(fleet_seed, switch_index, flaky_rate)` and the pool returns them in
//! submission order; the aggregation tier is pumped single-threaded in
//! source order. A fleet report is therefore byte-identical across
//! `UBURST_THREADS` — including under injected failures.

use std::fmt::Write as _;

use uburst_analysis::{correlation_matrix, mad_per_period, mean_offdiagonal, Ecdf};
use uburst_asic::{CounterId, FaultPlan};
use uburst_core::batch::{BatchPolicy, Batcher, SourceId};
use uburst_core::failpoint::RegionCrashPlan;
use uburst_core::fleet::{
    run_fleet_with_crashes, FleetConfig, FleetOutcome, HealthState, RoundInput, SwitchStream,
};
use uburst_core::link::LinkPlan;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::CampaignSpec;
use crate::pool::{run_jobs, run_jobs_on};
use crate::report::Table;
use crate::scale::Scale;

/// Poller read-error fraction above which a switch reports itself
/// degraded to the fleet controller (the PR-1 signal, summarized per
/// round). Flaky switches inject transient failures at 10%, so this
/// cleanly separates them from fault-free neighbours.
const DEGRADED_READ_ERROR_FRAC: f64 = 0.02;

/// Switches sampled for the inter-rack correlation matrix (pairwise cost
/// is quadratic; a dozen racks is plenty to establish the null).
const CORR_SWITCHES: usize = 12;

/// One fleet campaign: how many switches, how the per-switch seeds
/// derive, what fraction of the fleet is flaky, and the per-switch
/// campaign window.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// ToRs in the fleet.
    pub n_switches: u32,
    /// Master seed; everything per-switch derives from it.
    pub fleet_seed: u64,
    /// Expected fraction of switches dealt the flaky fault profile
    /// (hashed per switch — deterministic, not sampled).
    pub flaky_rate: f64,
    /// Per-switch sampling interval.
    pub interval: Nanos,
    /// Per-switch campaign length (after warmup).
    pub span: Nanos,
    /// Rounds each switch's sample stream is cut into for shipping.
    pub rounds: u32,
    /// Buffer carving policy applied at every ToR in the fleet.
    pub policy: BufferPolicyCfg,
}

impl FleetSpec {
    /// A fleet campaign at the paper's fine (40 µs) granularity, with the
    /// campaign window scaled for CI vs. full runs.
    pub fn new(n_switches: u32, fleet_seed: u64, flaky_rate: f64, scale: Scale) -> Self {
        FleetSpec {
            n_switches,
            fleet_seed,
            flaky_rate,
            interval: Nanos::from_micros(40),
            span: match scale {
                Scale::Quick => Nanos::from_millis(25),
                Scale::Full => Nanos::from_millis(100),
            },
            rounds: 8,
            // The rack scenarios' production carve; `with_policy` sweeps
            // the alternatives at fleet width.
            policy: BufferPolicyCfg::dt(0.5),
        }
    }

    /// The same campaign under a different ToR carving policy.
    pub fn with_policy(mut self, policy: BufferPolicyCfg) -> Self {
        self.policy = policy;
        self
    }
}

/// Per-switch facts the report needs beyond what the aggregation tier
/// tracks itself.
#[derive(Debug, Clone)]
pub struct SwitchMeta {
    /// The switch.
    pub source: SourceId,
    /// Rack type (rotates Web/Cache/Hadoop across the fleet).
    pub rack: RackType,
    /// Whether the seed dealt this switch the flaky fault profile.
    pub flaky: bool,
    /// Poller read errors over polls — the degradation signal.
    pub read_error_frac: f64,
    /// The switch's uplink ports.
    pub uplinks: Vec<PortId>,
    /// Uplink line rate, for utilization conversion.
    pub uplink_bps: u64,
    /// Congestion discards at this switch's ToR over the campaign.
    pub drops: u64,
}

/// A completed fleet campaign: the merged outcome plus per-switch
/// metadata, ready to render.
pub struct FleetRun {
    /// The spec that produced this run.
    pub spec: FleetSpec,
    /// Aggregator crashes injected into the run (empty = none).
    pub crashes: RegionCrashPlan,
    /// Aggregation-tier outcome: global store, coverage ledger, regions.
    pub outcome: FleetOutcome,
    /// Per-switch metadata, in source order.
    pub switches: Vec<SwitchMeta>,
}

/// What one pool worker ships back: metadata plus the round stream.
struct SwitchRun {
    meta: SwitchMeta,
    stream: SwitchStream,
}

/// Runs one switch's campaign and has its `Batcher` cut the polls into
/// shipping rounds.
/// Pure in `(spec, index)` — the determinism anchor for the whole fleet.
fn measure_switch(spec: &FleetSpec, index: u32) -> SwitchRun {
    let mut cfg = ScenarioConfig::for_fleet_switch(spec.fleet_seed, index);
    cfg.clos.tor_switch.policy = spec.policy;
    let rack = cfg.rack_type;
    let uplink_bps = cfg.clos.uplink.bandwidth_bps;
    let uplinks: Vec<PortId> = (0..cfg.clos.n_fabric)
        .map(|f| PortId((cfg.n_servers + f) as u16))
        .collect();
    let plan = FaultPlan::for_fleet_switch(spec.fleet_seed, index, spec.flaky_rate);
    let flaky = !plan.is_benign();
    let counters: Vec<CounterId> = uplinks.iter().map(|&p| CounterId::TxBytes(p)).collect();
    let mut campaign = CampaignSpec::new(cfg, counters, spec.interval, spec.span);
    campaign.faults = flaky.then_some(plan);
    let run = campaign.run();
    let drops = run.net.tor.dropped_packets;
    let st = run.poller_stats;
    let read_error_frac = if st.polls == 0 {
        1.0
    } else {
        st.read_errors as f64 / st.polls as f64
    };
    let degraded = read_error_frac > DEGRADED_READ_ERROR_FRAC;

    // The switch's `Batcher` cuts the campaign into at most `rounds`
    // shipping rounds of ⌈polls / rounds⌉ polls (the last may be shorter),
    // one batch per counter each. The stream is padded with empty rounds
    // to `rounds` because the fleet counts data rounds by the longest
    // stream. The whole round carries the
    // switch-side degradation verdict: a poller whose reads are failing
    // says so on every batch it sends.
    let source = SourceId(index);
    let n_rounds = spec.rounds as usize;
    let polls = run.series.first().map_or(0, |(_, s)| s.len());
    let policy = BatchPolicy {
        max_samples: polls.div_ceil(n_rounds).max(1),
        max_age: Nanos::MAX,
    };
    let ids = run.series.iter().map(|(c, _)| *c).collect();
    let mut rounds: Vec<RoundInput> = Batcher::new(source, "fleet", ids, policy)
        .cut_series(&run.series)
        .into_iter()
        .map(|batches| RoundInput { batches, degraded })
        .collect();
    rounds.resize_with(n_rounds, || RoundInput {
        batches: Vec::new(),
        degraded,
    });

    // A flaky switch's management uplink is as sick as its ASIC bus; a
    // healthy switch ships clean. Link seeds derive from the fleet seed
    // so the weather replays.
    let link = if flaky {
        LinkPlan::HOSTILE
    } else {
        LinkPlan::IDEAL
    };
    SwitchRun {
        meta: SwitchMeta {
            source,
            rack,
            flaky,
            read_error_frac,
            uplinks,
            uplink_bps,
            drops,
        },
        stream: SwitchStream {
            source,
            link,
            link_seed: spec.fleet_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            rounds,
        },
    }
}

/// Runs the fleet campaign: per-switch simulations on the worker pool,
/// then the aggregation tier single-threaded over the collected streams,
/// with `crashes` ([`RegionCrashPlan::none`] for a clean run) killing
/// regional aggregators at byte-granular WAL offsets. The crash plan only
/// touches the aggregation tier, which is pumped in source order — the
/// report stays byte-identical across `UBURST_THREADS` even mid-crash.
pub fn run_fleet_spec(spec: &FleetSpec, crashes: &RegionCrashPlan) -> FleetRun {
    assemble(
        spec,
        run_jobs((0..spec.n_switches).collect(), |i| measure_switch(spec, i)),
        crashes,
    )
}

/// [`run_fleet_spec`] with an explicit worker-thread count — the
/// determinism test harness (`threads = 1` is the sequential baseline).
pub fn run_fleet_spec_on(threads: usize, spec: &FleetSpec, crashes: &RegionCrashPlan) -> FleetRun {
    assemble(
        spec,
        run_jobs_on(threads, (0..spec.n_switches).collect(), |i| {
            measure_switch(spec, i)
        }),
        crashes,
    )
}

fn assemble(spec: &FleetSpec, runs: Vec<SwitchRun>, crashes: &RegionCrashPlan) -> FleetRun {
    let mut switches = Vec::with_capacity(runs.len());
    let mut streams = Vec::with_capacity(runs.len());
    for r in runs {
        switches.push(r.meta);
        streams.push(r.stream);
    }
    let outcome = run_fleet_with_crashes(streams, &FleetConfig::default(), crashes);
    FleetRun {
        spec: *spec,
        crashes: crashes.clone(),
        outcome,
        switches,
    }
}

/// Per-uplink utilization series for one switch, read back from the
/// merged global store and truncated to a common length (partial
/// delivery can leave uplinks with different sample counts).
fn uplink_utils(run: &FleetRun, meta: &SwitchMeta) -> Option<Vec<Vec<f64>>> {
    let mut series: Vec<Vec<f64>> = Vec::with_capacity(meta.uplinks.len());
    for &p in &meta.uplinks {
        let s = run
            .outcome
            .store
            .series(meta.source, CounterId::TxBytes(p))?;
        if s.len() < 2 {
            return None;
        }
        series.push(
            s.utilization(meta.uplink_bps)
                .iter()
                .map(|u| u.util)
                .collect(),
        );
    }
    let min = series.iter().map(Vec::len).min().unwrap_or(0);
    if min == 0 {
        return None;
    }
    for s in &mut series {
        s.truncate(min);
    }
    Some(series)
}

/// Mean absolute off-diagonal entry of a correlation matrix.
fn mean_abs_offdiag(m: &[Vec<f64>]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j {
                sum += v.abs();
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Renders the fleet report: coverage ledger first (the headline), then
/// region stats, ECMP balance per rack type, and the cross-rack
/// correlation readout, each computed only over included switches.
pub fn render_report(run: &FleetRun) -> String {
    let spec = &run.spec;
    let mut out = String::new();
    writeln!(
        out,
        "fleet campaign: {} switches, flaky rate {:.0}%, {} interval, {} span, {} rounds",
        spec.n_switches,
        spec.flaky_rate * 100.0,
        spec.interval,
        spec.span,
        spec.rounds
    )
    .unwrap();
    let flaky_count = run.switches.iter().filter(|s| s.flaky).count();
    writeln!(
        out,
        "fleet seed {:#x}; {} switches dealt the flaky profile; buffer policy {}",
        spec.fleet_seed,
        flaky_count,
        spec.policy.label()
    )
    .unwrap();
    for region in run.crashes.regions() {
        writeln!(
            out,
            "injected crash: region {region} aggregator dies at WAL byte {}",
            run.crashes.budget(region).unwrap()
        )
        .unwrap();
    }

    // The headline: what the data below actually covers.
    out.push('\n');
    out.push_str(&run.outcome.coverage.to_string());
    // `stored` above counts ledger receipts; say so when some of them
    // carried a payload the global store refused to merge.
    let refused = run.outcome.store.stats().quarantined_batches;
    if refused > 0 {
        writeln!(out, "  payload-quarantined: {refused}").unwrap();
    }

    let mut regions = Table::new(&[
        "region",
        "switches",
        "forwarded",
        "deadline_misses",
        "refused",
        "rejoins",
        "crashes",
        "replayed",
    ]);
    for (i, r) in run.outcome.regions.iter().enumerate() {
        regions.row(&[
            format!("{i}"),
            format!("{}", r.switches),
            format!("{}", r.forwarded),
            format!("{}", r.deadline_misses),
            format!("{}", r.refused),
            format!("{}", r.rejoins),
            format!("{}", r.crashes),
            format!("{}", r.replayed),
        ]);
    }
    writeln!(out, "\n{}", regions.render()).unwrap();

    // Included switches only: the ledger above says who is missing.
    let included: Vec<&SwitchMeta> = run
        .switches
        .iter()
        .zip(&run.outcome.coverage.switches)
        .filter(|(_, c)| c.state != HealthState::Quarantined)
        .map(|(m, _)| m)
        .collect();

    // ECMP balance (Fig. 7 at fleet width): per-period relative MAD of
    // each included switch's uplinks, pooled per rack type.
    let mut ecmp = Table::new(&["rack", "switches", "periods", "mad_p50", "mad_p90"]);
    let mut checks: Vec<(String, bool)> = Vec::new();
    for rack in RackType::ALL {
        let mut pooled: Vec<f64> = Vec::new();
        let mut n_sw = 0usize;
        for meta in included.iter().filter(|m| m.rack == rack) {
            if let Some(series) = uplink_utils(run, meta) {
                pooled.extend(mad_per_period(&series));
                n_sw += 1;
            }
        }
        if pooled.is_empty() {
            ecmp.row(&[
                rack.name().to_string(),
                "0".into(),
                "0".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let ecdf = Ecdf::new(pooled);
        ecmp.row(&[
            rack.name().to_string(),
            format!("{n_sw}"),
            format!("{}", ecdf.len()),
            format!("{:.2}", ecdf.quantile(0.5)),
            format!("{:.2}", ecdf.quantile(0.9)),
        ]);
        checks.push((
            format!(
                "{} fleet: median fine MAD > 25% (got {:.0}%)",
                rack.name(),
                ecdf.quantile(0.5) * 100.0
            ),
            ecdf.quantile(0.5) > 0.25,
        ));
    }
    writeln!(
        out,
        "ECMP balance across uplinks (relative MAD per 40us period):"
    )
    .unwrap();
    writeln!(out, "{}", ecmp.render()).unwrap();

    // Cross-rack correlation: racks are independent tenants, so the
    // fleet-level null is ~0 between switches, while a ToR's own uplinks
    // share one rack's demand and co-vary.
    let mut intra_sum = 0.0;
    let mut intra_n = 0usize;
    let mut agg_series: Vec<Vec<f64>> = Vec::new();
    for meta in included.iter().take(CORR_SWITCHES) {
        if let Some(series) = uplink_utils(run, meta) {
            let m = correlation_matrix(&series);
            intra_sum += mean_offdiagonal(&m);
            intra_n += 1;
            let len = series[0].len();
            let mean: Vec<f64> = (0..len)
                .map(|i| series.iter().map(|s| s[i]).sum::<f64>() / series.len() as f64)
                .collect();
            agg_series.push(mean);
        }
    }
    let intra = if intra_n == 0 {
        0.0
    } else {
        intra_sum / intra_n as f64
    };
    let inter = if agg_series.len() < 2 {
        0.0
    } else {
        let min = agg_series.iter().map(Vec::len).min().unwrap_or(0);
        for s in &mut agg_series {
            s.truncate(min);
        }
        mean_abs_offdiag(&correlation_matrix(&agg_series))
    };
    writeln!(
        out,
        "correlation: intra-switch uplinks {intra:.3}, inter-rack (mean |r| over {} racks) {inter:.3}",
        agg_series.len()
    )
    .unwrap();
    checks.push((
        format!("independent racks are uncorrelated (mean |r| {inter:.3} < 0.1)"),
        inter < 0.1,
    ));
    checks.push((
        format!("a ToR's own uplinks co-vary more than other racks do ({intra:.3} > {inter:.3})"),
        intra > inter,
    ));

    // Coverage invariants, regardless of fault rate.
    let tiled = run
        .outcome
        .coverage
        .switches
        .iter()
        .all(|s| s.produced == s.stored + s.excluded + s.refused + s.undelivered());
    checks.push((
        "every produced batch lands in exactly one coverage column".into(),
        tiled,
    ));
    let acked_floor = run
        .outcome
        .coverage
        .switches
        .iter()
        .all(|s| s.stored >= s.acked);
    checks.push((
        "no acked batch is lost (stored >= shipper acked prefix)".into(),
        acked_floor,
    ));
    if !run.crashes.is_empty() {
        let crashed: u64 = run.outcome.regions.iter().map(|r| r.crashes).sum();
        let recovered: u64 = run.outcome.regions.iter().map(|r| r.recoveries).sum();
        checks.push((
            format!("every crashed aggregator recovered ({recovered}/{crashed})"),
            crashed > 0 && recovered == crashed,
        ));
        checks.push((
            format!(
                "crashed regions' switches re-sharded and returned ({} re-shard events)",
                run.outcome.coverage.resharded()
            ),
            run.outcome.coverage.resharded() > 0,
        ));
    }
    if spec.flaky_rate == 0.0 {
        checks.push((
            format!(
                "fault-free fleet has full coverage (fraction {:.4})",
                run.outcome.coverage.sample_fraction()
            ),
            run.outcome.coverage.sample_fraction() == 1.0
                && run.outcome.coverage.included() == run.switches.len(),
        ));
    } else {
        let quarantined = run
            .outcome
            .coverage
            .switches
            .iter()
            .filter(|s| s.state == HealthState::Quarantined)
            .count();
        checks.push((
            format!("flaky switches ({flaky_count}) are quarantined ({quarantined}) and excluded"),
            quarantined == flaky_count
                && run
                    .outcome
                    .coverage
                    .switches
                    .iter()
                    .filter(|s| s.state == HealthState::Quarantined)
                    .all(|s| s.excluded > 0),
        ));
        let clean_full = run
            .switches
            .iter()
            .zip(&run.outcome.coverage.switches)
            .filter(|(m, _)| !m.flaky)
            .all(|(_, c)| c.fraction() == 1.0);
        checks.push((
            "fault-free neighbours keep full coverage despite flaky peers".into(),
            clean_full,
        ));
    }

    writeln!(out, "\nfleet checks:").unwrap();
    for (desc, ok) in checks {
        writeln!(out, "  [{}] {desc}", crate::report::verdict(ok)).unwrap();
    }
    out
}
