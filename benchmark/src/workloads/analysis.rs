//! `analysis_scan`: the offline half of the paper (Figs. 3–8, Table 2) over
//! seeded ON/OFF byte-counter series, the DES and the collection tier idle.

use std::time::Instant;

use uburst_analysis::{
    coarsen, correlation_matrix, extract_bursts, fit_transition_matrix, hot_chain,
    ks_test_exponential, mad_per_period, to_windows, Ecdf, KsResult, TransitionMatrix,
    HOT_THRESHOLD,
};
use uburst_bench::pearson_pool::correlation_matrix_pooled_on;
use uburst_bench::report::Table;
use uburst_core::series::Series;
use uburst_sim::time::Nanos;

use super::{ratio, self_seconds, Metrics, Rep, Workload};
use crate::gen::on_off_series;
use crate::stats::Fnv;
use crate::trace::Tracer;

/// The server link every series is a byte counter of.
const LINK_BPS: u64 = 10_000_000_000;
/// Fine periods averaged into one coarse period for the MAD curve.
const COARSEN: usize = 40;
/// The "SNMP view" window the series are resampled to.
const WINDOW: Nanos = Nanos::from_millis(1);
/// Quantiles folded into the digest for every ECDF.
const QUANTILES: [f64; 5] = [0.1, 0.5, 0.9, 0.99, 1.0];
/// The oracle recomputes one series in 32 and one matrix entry in 64.
const ORACLE_SERIES: usize = 0;
const ORACLE_PAIRS: usize = 16;

/// The analysis workload's size.
#[derive(Debug, Clone)]
pub struct Analysis {
    series: usize,
    samples: usize,
}

impl Analysis {
    /// 32 series (a rack's 24 downlinks + 4 uplinks, rounded up to the
    /// Pearson kernel's lane width) × 160 000 samples (4 s at 25 µs).
    pub fn scan() -> Self {
        Analysis {
            series: 32,
            samples: 160_000,
        }
    }

    /// 1/16 of the samples (unit-test smoke runs).
    #[cfg(test)]
    pub fn smoke(mut self) -> Self {
        self.samples /= 16;
        self
    }
}

/// Everything one repetition computed.
pub struct Scan {
    /// Per-series utilization values (kept for the oracle).
    values: Vec<Vec<f64>>,
    burst_counts: Vec<(u64, u64)>,
    util_ecdfs: Vec<Ecdf>,
    duration_ecdf: Ecdf,
    gap_ecdf: Ecdf,
    ks: KsResult,
    markov: Vec<TransitionMatrix>,
    corr: Vec<Vec<f64>>,
    mad: Vec<f64>,
    window_deltas: Vec<u64>,
    report: String,
}

/// Pearson correlation the slow, obvious way: means first, then one pass of
/// centred sums, no lanes.
fn pearson_two_pass(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Bursts and hot samples of a utilization series, counted by a loop.
fn count_bursts(values: &[f64]) -> (u64, u64) {
    let (mut bursts, mut hot, mut in_burst) = (0, 0, false);
    for &v in values {
        if v > HOT_THRESHOLD {
            hot += 1;
            if !in_burst {
                bursts += 1;
            }
            in_burst = true;
        } else {
            in_burst = false;
        }
    }
    (bursts, hot)
}

/// Kernel calls one repetition makes (the operation `failed` counts in).
fn calls(series: usize) -> u64 {
    // utilization, bursts, util ECDF, Markov fit, resample: one per series;
    // duration ECDF, gap ECDF, KS, Pearson matrix, MAD, report: one each.
    5 * series as u64 + 6
}

impl Workload for Analysis {
    type Input = Vec<Series>;
    type Prepared = ();
    type Output = Scan;

    fn name(&self) -> &'static str {
        "analysis_scan"
    }

    fn generate(&self, seed: u64, t: &mut Tracer) -> Vec<Series> {
        t.span("gen.series", |_| {
            on_off_series(seed, self.series, self.samples)
        })
    }

    fn prepare(&self, _: &Vec<Series>) {}

    fn run(&self, input: &Vec<Series>, (): (), t: &mut Tracer) -> Scan {
        let utils: Vec<_> = t.span("core.series.utilization", |_| {
            input.iter().map(|s| s.utilization(LINK_BPS)).collect()
        });
        let bursts: Vec<_> = t.span("analysis.burst", |_| {
            utils
                .iter()
                .map(|u| extract_bursts(u, HOT_THRESHOLD))
                .collect()
        });
        let (values, util_ecdfs, duration_ecdf, gap_ecdf, gaps_us) =
            t.span("analysis.ecdf", |_| {
                let values: Vec<Vec<f64>> = utils
                    .iter()
                    .map(|u| u.iter().map(|s| s.util).collect())
                    .collect();
                let util_ecdfs: Vec<Ecdf> = values.iter().map(|v| Ecdf::new(v.clone())).collect();
                let durations_us: Vec<f64> = bursts
                    .iter()
                    .flat_map(|b| b.durations())
                    .map(|d| d.as_micros_f64())
                    .collect();
                let gaps_us: Vec<f64> = bursts
                    .iter()
                    .flat_map(|b| &b.gaps)
                    .map(|g| g.as_micros_f64())
                    .collect();
                (
                    values,
                    util_ecdfs,
                    Ecdf::new(durations_us),
                    Ecdf::new(gaps_us.clone()),
                    gaps_us,
                )
            });
        let ks = t.span("analysis.ks", |_| ks_test_exponential(&gaps_us));
        let markov: Vec<TransitionMatrix> = t.span("analysis.markov", |_| {
            utils
                .iter()
                .map(|u| fit_transition_matrix(&hot_chain(u, HOT_THRESHOLD)))
                .collect()
        });
        let corr = t.span("analysis.pearson", |_| correlation_matrix(&values));
        let mad = t.span("analysis.mad", |_| {
            let uplinks: Vec<Vec<f64>> = values[..4].iter().map(|v| coarsen(v, COARSEN)).collect();
            mad_per_period(&uplinks)
        });
        let window_deltas = t.span("analysis.resample", |_| {
            input
                .iter()
                .flat_map(|s| {
                    let end = Nanos(*s.ts.last().expect("generated series are non-empty"));
                    to_windows(s, Nanos::ZERO, WINDOW, end)
                })
                .map(|w| w.delta)
                .collect()
        });
        let burst_counts: Vec<(u64, u64)> = bursts
            .iter()
            .map(|b| (b.bursts.len() as u64, b.hot_samples as u64))
            .collect();
        let report = t.span("bench.report.render", |_| {
            let mut table = Table::new(&["series", "bursts", "hot", "p50", "p99", "p01", "p11"]);
            for (i, ((b, e), m)) in burst_counts
                .iter()
                .zip(&util_ecdfs)
                .zip(&markov)
                .enumerate()
            {
                table.row(&[
                    i.to_string(),
                    b.0.to_string(),
                    b.1.to_string(),
                    format!("{:.4}", e.quantile(0.5)),
                    format!("{:.4}", e.quantile(0.99)),
                    format!("{:.5}", m.p01),
                    format!("{:.5}", m.p11),
                ]);
            }
            table.render()
        });
        Scan {
            values,
            burst_counts,
            util_ecdfs,
            duration_ecdf,
            gap_ecdf,
            ks,
            markov,
            corr,
            mad,
            window_deltas,
            report,
        }
    }

    /// The operation is a kernel call. A call fails if it disagrees with
    /// the naive oracle on the subsample the oracle recomputes: the sorted
    /// order behind the quantiles exactly, Pearson entries within 1e-9,
    /// burst counts exactly.
    fn check(&self, input: &Vec<Series>, out: Scan, t: &mut Tracer) -> Rep {
        let mut failed = 0;
        let k = ORACLE_SERIES;
        let mut sorted = out.values[k].clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("utilization is finite"));
        failed += u64::from(out.util_ecdfs[k].values() != sorted.as_slice());
        failed += u64::from(count_bursts(&out.values[k]) != out.burst_counts[k]);
        let n = out.values.len();
        for p in 0..ORACLE_PAIRS {
            let (i, j) = (p % n, (p * 7 + 3) % n);
            let naive = pearson_two_pass(&out.values[i], &out.values[j]);
            failed += u64::from((out.corr[i][j] - naive).abs() > 1e-9);
        }
        // Conservation through the resampler: every window's delta sums to
        // the counter's total growth.
        let grown: u64 = input
            .iter()
            .map(|s| s.vs.last().unwrap_or(&0) - s.vs.first().unwrap_or(&0))
            .sum();
        failed += u64::from(out.window_deltas.iter().sum::<u64>() != grown);

        let mut h = Fnv::default();
        for &(bursts, hot) in &out.burst_counts {
            h.u64s(&[bursts, hot]);
        }
        for e in out
            .util_ecdfs
            .iter()
            .chain([&out.duration_ecdf, &out.gap_ecdf])
        {
            h.u64(e.len() as u64);
            for q in QUANTILES {
                h.f64(e.quantile(q));
            }
        }
        h.f64(out.ks.statistic);
        h.f64(out.ks.p_value);
        for m in &out.markov {
            h.f64(m.p01);
            h.f64(m.p11);
        }
        for row in &out.corr {
            for &c in row {
                h.f64(c);
            }
        }
        h.u64(out.mad.len() as u64);
        for &v in &out.mad {
            h.f64(v);
        }
        h.u64s(&out.window_deltas);
        h.bytes(out.report.as_bytes());

        t.count(
            "analysis.bursts",
            out.burst_counts.iter().map(|b| b.0).sum(),
        );
        t.count(
            "analysis.sorted_elements",
            out.util_ecdfs
                .iter()
                .chain([&out.duration_ecdf, &out.gap_ecdf])
                .map(|e| e.len() as u64)
                .sum(),
        );
        Rep {
            digest: h.finish(),
            attempted: calls(input.len()),
            failed,
        }
    }

    fn layers(&self, input: &Vec<Series>, traced: &Tracer, reps: u32, m: &mut Metrics) -> u64 {
        for (metric, span) in [
            ("core.series.utilization_frac", "core.series.utilization"),
            ("analysis.burst_frac", "analysis.burst"),
            ("analysis.ecdf_frac", "analysis.ecdf"),
            ("analysis.ks_frac", "analysis.ks"),
            ("analysis.markov_frac", "analysis.markov"),
            ("analysis.pearson_frac", "analysis.pearson"),
            ("analysis.mad_frac", "analysis.mad"),
            ("analysis.resample_frac", "analysis.resample"),
            ("bench.report.render_frac", "bench.report.render"),
        ] {
            m.insert(metric, traced.share(span));
        }
        let n = f64::from(reps.max(1));
        let samples = input.iter().map(|s| s.len() as f64).sum::<f64>();
        m.insert(
            "analysis.bursts",
            traced.counted("analysis.bursts") as f64 / n,
        );
        m.insert(
            "analysis.sort_melem_per_s",
            ratio(
                traced.counted("analysis.sorted_elements") as f64 / 1e6,
                self_seconds(traced, "analysis.ecdf"),
            ),
        );
        let pairs = (input.len() * (input.len() + 1) / 2) as f64;
        m.insert(
            "analysis.pearson_msamples_per_s",
            ratio(
                pairs * samples / input.len() as f64 / 1e6 * n,
                self_seconds(traced, "analysis.pearson"),
            ),
        );
        let total: u64 = traced.root_durations_ns().iter().sum();
        m.insert(
            "analysis.samples_per_s",
            ratio(samples * n, total as f64 * 1e-9),
        );

        // The pooled Pearson driver on one and on two threads, same series.
        let values: Vec<Vec<f64>> = input
            .iter()
            .map(|s| s.utilization(LINK_BPS).iter().map(|u| u.util).collect())
            .collect();
        let t0 = Instant::now();
        let one = correlation_matrix_pooled_on(1, &values);
        let wall_1 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let two = correlation_matrix_pooled_on(2, &values);
        let wall_2 = t0.elapsed().as_secs_f64();
        m.insert("bench.pearson_pool.speedup_2t", wall_1 / wall_2);
        let same = one
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .eq(two.iter().flatten().map(|v| v.to_bits()));
        u64::from(!same)
    }
}
