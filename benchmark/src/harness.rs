//! The two kinds of run: the end-to-end run (`--trace 0`), which times the
//! product path for a fixed number of seconds, and the traced run
//! (`--trace 1`), which attributes a repetition's time to the layers.

use std::time::Instant;

use crate::calib::{Bracket, Timed};
use crate::isolated;
use crate::manifest::PER_LAYER;
use crate::stats::{median, peak_rss_mb, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Metrics, Rep, Workload};

/// Set-up passes per end-to-end run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Timed repetitions an end-to-end run makes at the very least.
const MIN_REPS: usize = 5;
/// Traced repetitions a traced run makes at the very least.
const MIN_TRACED_REPS: u32 = 3;

/// What a run reports: the last line of standard output is built from it.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all checked repetitions.
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Digest of one repetition's outputs (equal for every repetition).
    pub digest: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for a human, printed before the result line.
    pub notes: Vec<String>,
}

/// Sums repetitions' verdicts, failing every operation of a repetition whose
/// digest differs from the first one's.
#[derive(Debug, Default)]
struct Verdict {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn add(&mut self, rep: Rep) {
        let same = *self.digest.get_or_insert(rep.digest) == rep.digest;
        self.attempted += rep.attempted;
        self.failed += if same { rep.failed } else { rep.attempted };
    }
}

/// One untraced repetition: untimed preparation, the timed product path, the
/// untimed output check.
fn product_rep<W: Workload>(
    w: &W,
    input: &W::Input,
    host: &mut Bracket,
    verdict: &mut Verdict,
) -> Timed {
    let mut off = Tracer::off();
    let prepared = w.prepare(input);
    let (output, times) = host.timed(|| w.run(input, prepared, &mut off));
    verdict.add(w.check(input, output, &mut off));
    times
}

/// The end-to-end run: [`SETUP_PASSES`] set-ups (each generates the inputs
/// from the seed and runs one untimed warm-up repetition), then timed
/// repetitions of the product path until `seconds` have passed. Every time
/// reported is at nominal host speed (see `calib.rs`).
pub fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> Report {
    let mut verdict = Verdict::default();
    let mut host = Bracket::default();
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    let mut input = None;
    for _ in 0..SETUP_PASSES {
        // Drop the previous pass's inputs first: two live copies would
        // double the peak resident set the run reports.
        drop(input.take());
        let (fresh, pass) = host.timed(|| {
            let mut off = Tracer::off();
            let fresh = w.generate(seed, &mut off);
            let prepared = w.prepare(&fresh);
            let output = w.run(&fresh, prepared, &mut off);
            verdict.add(w.check(&fresh, output, &mut off));
            fresh
        });
        setups.push(pass.wall);
        input = Some(fresh);
    }
    let input = input.expect("at least one set-up pass");

    let (mut walls, mut cpus, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let first = host.slowdowns.len();
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let rep = product_rep(w, &input, &mut host, &mut verdict);
        walls.push(rep.wall);
        cpus.push(rep.cpu);
        raw.push(rep.raw_wall);
    }
    let [q1, q2, q3] = quartiles(&walls);
    let values = [
        median(&walls),
        median(&cpus),
        peak_rss_mb(),
        median(&setups),
    ];
    Report {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        digest: verdict.digest.unwrap_or(0),
        metrics: crate::manifest::END_TO_END
            .iter()
            .zip(values)
            .map(|(def, v)| (def.name, v, def.unit))
            .collect(),
        notes: vec![
            format!(
                "wall_s quartiles {q1:.4} {q2:.4} {q3:.4} over n={} repetitions",
                walls.len()
            ),
            format!(
                "as measured: median {:.4} s per repetition at a host-speed index of {:.3}",
                median(&raw),
                median(&host.slowdowns[first..])
            ),
        ],
    }
}

/// The traced run. Three quarters of the `seconds` budget go to rounds of
/// three repetitions each — untraced (the base `trace.overhead_frac`
/// compares against), traced, and untraced with `uburst_obs` disabled —
/// interleaved so that drift in the host's speed reaches all three alike.
/// The workload's own extras and the isolated-kernel rows run last. Writes
/// the recording to `out_dir/trace-<workload>.json`.
pub fn traced<W: Workload>(w: &W, seed: u64, seconds: f64, out_dir: &std::path::Path) -> Report {
    let mut verdict = Verdict::default();
    let mut host = Bracket::default();
    let mut tracer = Tracer::default();
    let input = w.generate(seed, &mut tracer);
    product_rep(w, &input, &mut host, &mut verdict);

    let (mut product, mut traced, mut obs_off) = (Vec::new(), Vec::new(), Vec::new());
    let mut reps = 0u32;
    let started = Instant::now();
    while reps < MIN_TRACED_REPS || started.elapsed().as_secs_f64() < seconds * 0.75 {
        product.push(product_rep(w, &input, &mut host, &mut verdict).wall);
        let prepared = w.prepare(&input);
        let (output, rep) = host.timed(|| tracer.repetition(reps, |t| w.run(&input, prepared, t)));
        traced.push(rep.wall);
        verdict.add(w.check(&input, output, &mut tracer));
        uburst_obs::disable();
        obs_off.push(product_rep(w, &input, &mut host, &mut verdict).wall);
        uburst_obs::enable();
        reps += 1;
    }

    let mut m = Metrics::new();
    // Shares are taken inside one repetition, so their base is the wall
    // time as measured; the three-way comparisons are across repetitions,
    // so they compare times at nominal host speed.
    m.insert(
        "trace.wall_ms",
        crate::workloads::rep_wall_seconds(&tracer) * 1e3,
    );
    m.insert("host.slowdown", median(&host.slowdowns));
    let (product_wall, traced_wall) = (median(&product), median(&traced));
    m.insert("trace.overhead_frac", traced_wall / product_wall - 1.0);
    m.insert("trace.coverage_frac", tracer.coverage());
    m.insert(
        "obs.enabled_overhead_frac",
        product_wall / median(&obs_off) - 1.0,
    );
    let extra_failures = w.layers(&input, &tracer, reps, &mut m);
    for (name, prefix) in [
        ("layer.sim_frac", "sim."),
        ("layer.workloads_frac", "workloads."),
        ("layer.core_frac", "core."),
        ("layer.analysis_frac", "analysis."),
        ("layer.bench_frac", "bench."),
    ] {
        m.insert(name, tracer.share(prefix));
    }
    isolated::measure(seed, &mut m);

    for name in m.keys() {
        assert!(
            PER_LAYER.iter().any(|def| def.name == *name),
            "{name} is measured but not declared in the manifest"
        );
    }
    std::fs::create_dir_all(out_dir).expect("output directory can be created");
    let path = out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, tracer.to_json(w.name(), seed)).expect("trace file can be written");

    verdict.attempted += extra_failures;
    verdict.failed += extra_failures;
    Report {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        digest: verdict.digest.unwrap_or(0),
        metrics: PER_LAYER
            .iter()
            .map(|def| (def.name, m.get(def.name).copied().unwrap_or(0.0), def.unit))
            .collect(),
        notes: vec![
            format!(
                "medians over {reps} interleaved rounds at nominal host speed: untraced {:.4} s, traced {:.4} s, obs off {:.4} s",
                product_wall,
                traced_wall,
                median(&obs_off),
            ),
            format!("spans written to {}", path.display()),
        ],
    }
}
