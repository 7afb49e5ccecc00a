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

impl CoreMode {
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
        let us =
            |lo: f64, hi: f64, rng: &mut Rng| Nanos::from_secs_f64(rng.range_f64(lo, hi) * 1e-6);
        match self {
            CoreMode::Dedicated => {
                if r < 0.89 {
                    us(0.0, 4.0, rng) // clean poll
                } else if r < 0.99 {
                    us(8.0, 20.0, rng) // softirq / IPI
                } else {
                    us(23.0, 60.0, rng) // longer kernel excursion
                }
            }
            CoreMode::Shared => {
                if r < 0.55 {
                    us(0.0, 6.0, rng)
                } else if r < 0.90 {
                    us(10.0, 50.0, rng) // waiting behind control-plane work
                } else {
                    us(50.0, 300.0, rng) // full scheduling quantum lost
                }
            }
        }
    }
}

/// One measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign label, carried into exported data.
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

    /// Same campaign on a shared core.
    pub fn on_shared_core(mut self) -> Self {
        self.core_mode = CoreMode::Shared;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::node::PortId;

    /// `sample_jitter`'s dedicated-core mixture as (weight, lo µs, hi µs):
    /// each component is uniform on `[lo, hi)`.
    const DEDICATED_MIXTURE: [(f64, f64, f64); 3] =
        [(0.89, 0.0, 4.0), (0.10, 8.0, 20.0), (0.01, 23.0, 60.0)];

    /// The mixture's closed form: P(J > x µs), piecewise linear in `x`.
    fn p_jitter_exceeds(x_us: f64) -> f64 {
        DEDICATED_MIXTURE
            .iter()
            .map(|&(w, lo, hi)| w * ((hi - x_us) / (hi - lo)).clamp(0.0, 1.0))
            .sum()
    }

    #[test]
    fn dedicated_jitter_tail_matches_table1_calibration() {
        // A poll of one byte counter completes at c + J; Table 1's rows ask
        // how often that overruns 10 µs and 25 µs. Each observed fraction
        // is a binomial proportion, held within 4σ of the closed form.
        let c = uburst_asic::AccessModel::default().poll_cost(&[CounterId::TxBytes(PortId(0))]);
        assert_eq!(c, Nanos(2_500), "the calibration's deterministic cost");
        let mut rng = Rng::new(0xD1CE);
        let n = 200_000;
        let (mut over_10, mut over_25) = (0u32, 0u32);
        for _ in 0..n {
            let total = c + CoreMode::Dedicated.sample_jitter(&mut rng);
            assert!(total > Nanos::from_micros(1), "every poll exceeds 1us");
            over_10 += u32::from(total > Nanos::from_micros(10));
            over_25 += u32::from(total > Nanos::from_micros(25));
        }
        for (bound_us, over, want) in [(10.0, over_10, 0.11), (25.0, over_25, 0.010)] {
            let p = p_jitter_exceeds(bound_us - c.as_micros_f64());
            assert!((p - want).abs() < 1e-12, "closed form at {bound_us}us: {p}");
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            let got = f64::from(over) / n as f64;
            assert!(
                (got - p).abs() <= 4.0 * sigma,
                "P(>{bound_us}us) = {got}, closed form {p} ± 4σ = {}",
                4.0 * sigma
            );
        }
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
        )
        .on_shared_core();
        assert_eq!(g.counters.len(), 2);
        assert_eq!(g.core_mode, CoreMode::Shared);
    }

    #[test]
    #[should_panic(expected = "no counters")]
    fn empty_group_rejected() {
        CampaignConfig::group("x", vec![], Nanos::from_micros(25));
    }
}
