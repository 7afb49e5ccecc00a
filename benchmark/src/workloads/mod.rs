//! The five workloads. Each isolates one part of the pipeline (see
//! `README.md` for why each exists and how its size was chosen).

pub mod analysis;
pub mod fleet;
pub mod rack;
pub mod recover;

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// What one repetition of a workload produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rep {
    /// FNV-1a over the repetition's simulated or stored outputs.
    pub digest: u64,
    /// Operations attempted (the operation is defined per workload).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

/// Per-layer metric values by name; names not set read 0 (the workload
/// never entered that layer).
pub type Metrics = BTreeMap<&'static str, f64>;

/// One workload: seeded inputs, one repetition of fixed-size work, and the
/// per-layer numbers of its traced run.
pub trait Workload {
    /// Everything generated from the seed.
    type Input;
    /// What one repetition consumes (made outside the timed section).
    type Prepared;
    /// What one repetition hands to its output check.
    type Output;

    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Generates the inputs from `seed`. Spans recorded here sit outside any
    /// repetition; they attribute set-up time.
    fn generate(&self, seed: u64, t: &mut Tracer) -> Self::Input;

    /// Untimed per-repetition preparation (copies of inputs the program
    /// consumes by value).
    fn prepare(&self, input: &Self::Input) -> Self::Prepared;

    /// One repetition: the timed section. With a recording tracer this is
    /// the traced path (spans around each call into a layer); with
    /// [`Tracer::off`] it is the product path.
    fn run(&self, input: &Self::Input, prepared: Self::Prepared, t: &mut Tracer) -> Self::Output;

    /// Checks a repetition's outputs and digests them (untimed). Both paths
    /// of [`Workload::run`] must lead to the same digest. Exact counts the
    /// layer table reports are recorded on `t` here.
    fn check(&self, input: &Self::Input, output: Self::Output, t: &mut Tracer) -> Rep;

    /// Fills the workload's per-layer metrics after the traced repetitions:
    /// shares and counts from `traced` (which holds `reps` repetitions), plus
    /// whatever extra measurements the layer table asks for (2-thread runs,
    /// staged replays). Returns how many output checks failed here.
    fn layers(&self, input: &Self::Input, traced: &Tracer, reps: u32, m: &mut Metrics) -> u64;
}

/// `count / reps` for counts the tracer summed over identical repetitions.
pub(crate) fn per_rep(traced: &Tracer, name: &str, reps: u32) -> f64 {
    traced.counted(name) as f64 / f64::from(reps.max(1))
}

/// Median wall seconds of the traced repetitions: the base every `*_frac`
/// the layers measure outside the spans is a share of.
pub fn rep_wall_seconds(traced: &Tracer) -> f64 {
    let walls: Vec<f64> = traced
        .root_durations_ns()
        .iter()
        .map(|&ns| ns as f64 * 1e-9)
        .collect();
    if walls.is_empty() {
        0.0
    } else {
        crate::stats::median(&walls)
    }
}

/// Seconds of self time under `name`, summed over the recording.
pub(crate) fn self_seconds(traced: &Tracer, name: &str) -> f64 {
    traced.self_by_name_ns().get(name).copied().unwrap_or(0) as f64 * 1e-9
}

/// `num / den`, or 0 when the denominator is 0 (the layer did not run).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
