//! Campaign specifications and the switch-CPU timing model.
//!
//! A *campaign* is one measurement run: a set of counters polled together at
//! a target interval (§4.1: "measurements in Sec. 5 were all taken using
//! single-counter measurement campaigns in order to achieve the highest
//! resolution possible ... one campaign per set of experimental results").
//!
//! The CPU model captures why polling intervals are best-effort: "kernel
//! interrupts and competing resource requests can cause the sampler to miss
//! intervals. To obtain precise timing, the framework requires a dedicated
//! core, but can trade away precision to decrease utilization" (§4.1).

use uburst_asic::CounterId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;

/// How the poller runs on the switch CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreMode {
    /// The poller owns a core and busy-waits between deadlines. Timing
    /// jitter comes only from (rare) kernel interrupts. Costs a full core.
    #[default]
    Dedicated,
    /// The poller shares a core with the control plane and sleeps between
    /// polls. CPU use drops to the polling work itself (≤ 20 % in most
    /// cases, per the paper) but scheduler wakeup latency adds heavy jitter.
    Shared,
}

/// A jitter mixture: components `(weight, lo µs, hi µs)`, each uniform on
/// `[lo, hi)`, in the order `sample_jitter` picks them.
type Mixture = [(f64, f64, f64); 3];

/// The dedicated core: clean polls, softirqs / IPIs, and rare longer
/// kernel excursions.
const DEDICATED: Mixture = [(0.89, 0.0, 4.0), (0.10, 8.0, 20.0), (0.01, 23.0, 60.0)];

/// The shared core: clean wakeups, waits behind control-plane work, and a
/// full scheduling quantum lost.
const SHARED: Mixture = [(0.55, 0.0, 6.0), (0.35, 10.0, 50.0), (0.10, 50.0, 300.0)];

impl CoreMode {
    fn mixture(self) -> &'static Mixture {
        match self {
            CoreMode::Dedicated => &DEDICATED,
            CoreMode::Shared => &SHARED,
        }
    }

    /// Draws the stochastic latency added to one poll: kernel interrupts and
    /// (in shared mode) scheduler wakeup delays.
    ///
    /// The dedicated-core mixture is calibrated so a single byte-counter
    /// campaign reproduces the paper's Table 1 together with the
    /// deterministic `AccessModel` cost (2.5 µs): `P(total > 1 µs) = 1`,
    /// and the mixture's closed form gives exactly `P(total > 10 µs) = 0.11`
    /// and `P(total > 25 µs) = 0.010`.
    pub fn sample_jitter(self, rng: &mut Rng) -> Nanos {
        let r = rng.f64();
        let mixture = self.mixture();
        let mut below = 0.0;
        let &(_, lo, hi) = mixture
            .iter()
            .find(|&&(w, _, _)| {
                below += w;
                r < below
            })
            .unwrap_or(&mixture[mixture.len() - 1]);
        Nanos::from_secs_f64(rng.range_f64(lo, hi) * 1e-6)
    }

    /// `P(J ≥ k ns)` for one `sample_jitter` draw `J`. A draw of `u` µs is
    /// rounded to the nearest nanosecond, so for `k ≥ 1`, `J ≥ k` iff
    /// `u ≥ (k − ½)/1000`: the mixture's survival function, piecewise
    /// linear in `u`.
    pub fn p_jitter_at_least(self, k: i64) -> f64 {
        if k <= 0 {
            return 1.0;
        }
        let u = (k as f64 - 0.5) / 1000.0;
        self.mixture()
            .iter()
            .map(|&(w, lo, hi)| w * ((hi - u) / (hi - lo)).clamp(0.0, 1.0))
            .sum()
    }
}

/// One measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign label, for the reader. The collection path never reads
    /// it: the campaign a WAL record carries is the name given to
    /// [`crate::Batcher::new`].
    pub name: String,
    /// Counters read together on every poll.
    pub counters: Vec<CounterId>,
    /// Target sampling interval (deadline spacing).
    pub interval: Nanos,
    /// CPU placement of the sampling loop.
    pub core_mode: CoreMode,
}

impl CampaignConfig {
    /// A single-counter campaign, the paper's highest-resolution mode.
    pub fn single(name: impl Into<String>, counter: CounterId, interval: Nanos) -> Self {
        CampaignConfig {
            name: name.into(),
            counters: vec![counter],
            interval,
            core_mode: CoreMode::Dedicated,
        }
    }

    /// A multi-counter campaign (lower max rate, sublinear in counter count).
    pub fn group(name: impl Into<String>, counters: Vec<CounterId>, interval: Nanos) -> Self {
        assert!(!counters.is_empty(), "campaign with no counters");
        CampaignConfig {
            name: name.into(),
            counters,
            interval,
            core_mode: CoreMode::Dedicated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::node::PortId;

    /// Samples `n` polls of `mode` at deterministic cost `c` and holds
    /// `P(c + J > bound)` to a literal calibration value: the product's
    /// closed form must lie within `tol` of it, and each observed fraction,
    /// a binomial proportion, within 4σ of the closed form.
    fn check_tail(mode: CoreMode, c: Nanos, seed: u64, tol: f64, pins: &[(u64, f64)]) {
        let mut rng = Rng::new(seed);
        let n = 200_000;
        let mut over = vec![0u32; pins.len()];
        for _ in 0..n {
            let total = c + mode.sample_jitter(&mut rng);
            for (count, &(bound_us, _)) in over.iter_mut().zip(pins) {
                *count += u32::from(total > Nanos::from_micros(bound_us));
            }
        }
        for (&(bound_us, want), over) in pins.iter().zip(over) {
            let first_over = (bound_us * 1_000) as i64 - c.as_nanos() as i64 + 1;
            let p = mode.p_jitter_at_least(first_over);
            assert!(
                (p - want).abs() < tol,
                "{mode:?} closed form at {bound_us}us: {p}"
            );
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            let got = f64::from(over) / n as f64;
            assert!(
                (got - p).abs() <= 4.0 * sigma,
                "{mode:?} P(>{bound_us}us) = {got}, closed form {p} ± 4σ = {}",
                4.0 * sigma
            );
        }
    }

    #[test]
    fn dedicated_jitter_tail_matches_table1_calibration() {
        // A poll of one byte counter completes at c + J; Table 1's rows ask
        // how often that overruns 1 µs (every poll), 10 µs and 25 µs.
        let c = uburst_asic::AccessModel::default().poll_cost(&[CounterId::TxBytes(PortId(0))]);
        assert_eq!(c, Nanos(2_500), "the calibration's deterministic cost");
        check_tail(
            CoreMode::Dedicated,
            c,
            0xD1CE,
            1e-12,
            &[(1, 1.0), (10, 0.11), (25, 0.010)],
        );
    }

    #[test]
    fn shared_jitter_tail_matches_its_component_edges() {
        // J alone (c = 0), at the edges of the components and in the middle
        // of the two heavy ones. Only 6 µs lies in a gap of the mixture;
        // elsewhere the nanosecond rounding moves the value by at most half
        // a nanosecond of the densest component (0.35/40 per µs).
        check_tail(
            CoreMode::Shared,
            Nanos::ZERO,
            0x5EED,
            5e-6,
            &[(6, 0.45), (30, 0.275), (50, 0.10), (175, 0.05)],
        );
    }

    #[test]
    fn shared_jitter_is_heavier() {
        let mut rng = Rng::new(0xBEEF);
        let n = 50_000;
        let mean = |mode: CoreMode, rng: &mut Rng| -> f64 {
            (0..n)
                .map(|_| mode.sample_jitter(rng).as_micros_f64())
                .sum::<f64>()
                / n as f64
        };
        let ded = mean(CoreMode::Dedicated, &mut rng);
        let sh = mean(CoreMode::Shared, &mut rng);
        assert!(
            sh > 3.0 * ded,
            "shared mean {sh}us should dwarf dedicated {ded}us"
        );
    }

    #[test]
    fn campaign_constructors() {
        let c = CampaignConfig::single(
            "bytes",
            CounterId::TxBytes(PortId(3)),
            Nanos::from_micros(25),
        );
        assert_eq!(c.counters.len(), 1);
        assert_eq!(c.core_mode, CoreMode::Dedicated);

        let g = CampaignConfig::group(
            "uplinks",
            vec![CounterId::TxBytes(PortId(0)), CounterId::TxBytes(PortId(1))],
            Nanos::from_micros(40),
        );
        assert_eq!(g.counters.len(), 2);
        assert_eq!(g.core_mode, CoreMode::Dedicated);
    }

    #[test]
    #[should_panic(expected = "no counters")]
    fn empty_group_rejected() {
        CampaignConfig::group("x", vec![], Nanos::from_micros(25));
    }
}
