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
//!   per poll lie within 4σ of `P(c + J > T)` and `E[M]`, and the busy
//!   share within 4σ of `c/(T·(1 + E[M]))`, all computed from
//!   `CoreMode::p_jitter_at_least`, the jitter's survival function on the
//!   nanosecond grid that `sample_jitter` rounds to.

use uburst_asic::{AccessModel, CounterId};
use uburst_core::tuning::miss_law;
use uburst_core::{probe_idle_bank, CoreMode, PollerStats};
use uburst_sim::node::PortId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;

/// Polls per grid cell, at least.
const POLLS: u64 = 100_000;

/// The closed form per poll: P(late), E[M] and Var[M], from
/// P(M ≥ k) = P(J ≥ kT − c).
fn law(mode: CoreMode, c: i64, t: i64) -> (f64, f64, f64) {
    let late = mode.p_jitter_at_least(t - c + 1);
    let (mut mean, mut second) = (0.0, 0.0);
    for k in 1.. {
        let p = mode.p_jitter_at_least(k * t - c);
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

/// Interval grid of every check, in nanoseconds.
const GRID_NS: [u64; 6] = [2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

/// One cell: a fault-free campaign of `counters` at `t` on `mode`, held to
/// the replayed model exactly and to the closed form within 4σ.
fn check_cell(mode: CoreMode, t: Nanos, counters: &[CounterId], seed: u64) {
    let c = AccessModel::default().poll_cost(counters);
    let (late, mean_m, var_m) = law(mode, c.as_nanos() as i64, t.as_nanos() as i64);
    // The product's law (the tuner's, Table 1's and §4.1's) is this one,
    // bit for bit.
    let product = miss_law(mode, c, t);
    assert_eq!(
        [product.late, product.mean, product.var].map(f64::to_bits),
        [late, mean_m, var_m].map(f64::to_bits),
        "{mode:?} T={t}: miss_law"
    );
    // A poll cycle lasts T·(1 + M): size the window for POLLS.
    let duration = Nanos::from_secs_f64(1.1 * POLLS as f64 * t.as_secs_f64() * (1.0 + mean_m));
    let cell = format!("{mode:?} T={t} n={}", counters.len());

    let got = probe_idle_bank(counters, AccessModel::default(), t, duration, mode, seed);
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

    // Busy share: c per poll over the mean cycle L = T·(1 + M). By the
    // delta method, c/L̄ has σ = c·T·σ_M/(√n·E[L]²). The last cycle ends at
    // its poll's completion, not at a deadline, which shortens the elapsed
    // time by less than T.
    let elapsed = got.stopped_at.saturating_sub(got.started_at).as_secs_f64();
    let share = got.busy.as_secs_f64() / elapsed;
    let (c, t) = (c.as_secs_f64(), t.as_secs_f64());
    let cycle = t * (1.0 + mean_m);
    let want = c / cycle;
    let band = 4.0 * c * t * (var_m / n).sqrt() / (cycle * cycle) + want * t / elapsed;
    assert!(
        (share - want).abs() <= band,
        "{cell}: busy share {share}, closed form {want} ± {band}"
    );
}

#[test]
fn miss_process_matches_its_model_exactly_and_in_closed_form() {
    let one = vec![CounterId::TxBytes(PortId(0))];
    let four: Vec<CounterId> = (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect();
    let mut seed = 0x7AB1_E000;
    for mode in [CoreMode::Dedicated, CoreMode::Shared] {
        for t_ns in GRID_NS {
            for counters in [&one, &four] {
                seed += 1;
                check_cell(mode, Nanos(t_ns), counters, seed);
            }
        }
    }
}

#[test]
fn rack_campaign_miss_process_matches_its_model() {
    // Fig. 9 / Fig. 10's campaign: every port of a 28-port rack switch plus
    // the shared-buffer peak register, one poll reading all 29.
    let rack: Vec<CounterId> = (0..28)
        .map(|p| CounterId::TxBytes(PortId(p)))
        .chain([CounterId::BufferPeak])
        .collect();
    let mut seed = 0x7AB1_E100;
    for mode in [CoreMode::Dedicated, CoreMode::Shared] {
        for t_ns in GRID_NS {
            seed += 1;
            check_cell(mode, Nanos(t_ns), &rack, seed);
        }
    }
}
