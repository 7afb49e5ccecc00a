//! Table 1 as a law: the poller's miss process against its model (§4.1).
//!
//! With no faults, every poll starts at its deadline `d` and completes at
//! `d + c + J`: `c` is `AccessModel::poll_cost` over the campaign's counters
//! and `J` is one `CoreMode::sample_jitter` draw. The poll is late iff
//! `c + J > T`, it misses `M = ⌊(c + J)/T⌋` deadlines, and the next poll
//! starts at `d + (M + 1)·T`. Two checks hold the poller to that model:
//!
//! * **exact** — the model replayed from the same `Rng` stream gives the
//!   poller's `PollerStats` field for field;
//! * **closed form** — over ≥ 10⁵ polls, late polls and missed deadlines
//!   per poll lie within 4σ of `P(c + J > T)` and `E[M]`, computed from the
//!   jitter mixtures' piecewise-linear CDFs on the nanosecond grid that
//!   `sample_jitter` rounds to.

use uburst_asic::{AccessModel, CounterId};
use uburst_core::{probe_idle_bank, CoreMode, PollerStats};
use uburst_sim::node::PortId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;

/// Polls per grid cell, at least.
const POLLS: u64 = 100_000;

/// `sample_jitter`'s mixtures as (weight, lo µs, hi µs); each component is
/// uniform on `[lo, hi)`.
fn mixture(mode: CoreMode) -> [(f64, f64, f64); 3] {
    match mode {
        CoreMode::Dedicated => [(0.89, 0.0, 4.0), (0.10, 8.0, 20.0), (0.01, 23.0, 60.0)],
        CoreMode::Shared => [(0.55, 0.0, 6.0), (0.35, 10.0, 50.0), (0.10, 50.0, 300.0)],
    }
}

/// P(J ≥ k ns). A draw of `u` µs is rounded to the nearest nanosecond, so
/// J ≥ k iff u ≥ (k − ½)/1000 for k ≥ 1: the mixture's survival function,
/// piecewise linear in `u`.
fn p_jitter_at_least(mode: CoreMode, k: i64) -> f64 {
    if k <= 0 {
        return 1.0;
    }
    let u = (k as f64 - 0.5) / 1000.0;
    mixture(mode)
        .iter()
        .map(|&(w, lo, hi)| w * ((hi - u) / (hi - lo)).clamp(0.0, 1.0))
        .sum()
}

/// The closed form per poll: P(late), E[M] and Var[M], from
/// P(M ≥ k) = P(J ≥ kT − c).
fn law(mode: CoreMode, c: i64, t: i64) -> (f64, f64, f64) {
    let late = p_jitter_at_least(mode, t - c + 1);
    let (mut mean, mut second) = (0.0, 0.0);
    for k in 1.. {
        let p = p_jitter_at_least(mode, k * t - c);
        if p == 0.0 {
            break;
        }
        mean += p;
        second += (2 * k - 1) as f64 * p;
    }
    (late, mean, second - mean * mean)
}

/// The model, replayed on the poller's own jitter stream: what a fault-free
/// campaign over `[0, duration)` must account.
fn replay(mode: CoreMode, c: Nanos, t: Nanos, duration: Nanos, seed: u64) -> PollerStats {
    let mut rng = Rng::new(seed);
    let mut stats = PollerStats::default();
    let mut deadline = Nanos::ZERO;
    loop {
        let took = c + mode.sample_jitter(&mut rng);
        let m = took.as_nanos() / t.as_nanos();
        stats.polls += 1;
        stats.busy += c;
        stats.late_polls += u64::from(took > t);
        stats.missed_deadlines += m;
        stats.stopped_at = deadline + took;
        deadline += t * (m + 1);
        if deadline >= duration {
            return stats;
        }
    }
}

#[test]
fn miss_process_matches_its_model_exactly_and_in_closed_form() {
    let one = vec![CounterId::TxBytes(PortId(0))];
    let four: Vec<CounterId> = (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect();
    let mut seed = 0x7AB1_E000;
    for mode in [CoreMode::Dedicated, CoreMode::Shared] {
        for t_us in [5, 10, 25, 50] {
            for counters in [&one, &four] {
                seed += 1;
                let t = Nanos::from_micros(t_us);
                let c = AccessModel::default().poll_cost(counters);
                let (late, mean_m, var_m) = law(mode, c.as_nanos() as i64, t.as_nanos() as i64);
                // A poll cycle lasts T·(1 + M): size the window for POLLS.
                let duration =
                    Nanos::from_secs_f64(1.1 * POLLS as f64 * t.as_secs_f64() * (1.0 + mean_m));
                let cell = format!("{mode:?} T={t} n={}", counters.len());

                let got =
                    probe_idle_bank(counters, AccessModel::default(), t, duration, mode, seed);
                assert_eq!(got, replay(mode, c, t, duration, seed), "{cell}: replay");

                let n = got.polls as f64;
                assert!(got.polls >= POLLS, "{cell}: {} polls", got.polls);
                for (what, observed, want, var) in [
                    ("late", got.late_polls, late, late * (1.0 - late)),
                    ("missed", got.missed_deadlines, mean_m, var_m),
                ] {
                    let per_poll = observed as f64 / n;
                    let band = 4.0 * (var / n).sqrt();
                    assert!(
                        (per_poll - want).abs() <= band,
                        "{cell}: {what} per poll {per_poll}, closed form {want} ± {band}"
                    );
                }
            }
        }
    }
}
