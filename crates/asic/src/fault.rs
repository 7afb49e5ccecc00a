//! Deterministic fault injection for counter reads.
//!
//! The paper's framework is a *best-effort* production pipeline: counter
//! reads ride on real bus transactions (PCIe/MDIO) that can time out, stall
//! behind other control-plane traffic, or return stale data, and many
//! Broadcom-class register banks expose only **32-bit** cumulative counters
//! that wrap in under a second at 10 Gb/s (§4.1 bounds everything on these
//! hardware realities). This module makes those degraded regimes
//! reproducible: a seeded [`FaultPlan`] drives a [`FaultInjector`] that sits
//! between the poller and [`crate::AsicCounters`], injecting
//!
//! * **transient read failures** — the bus transaction times out; the poll
//!   burns `BUS_TIMEOUT` of simulated time and returns nothing,
//! * **latency spikes** — the transaction completes but takes far longer
//!   than the [`crate::AccessModel`] cost (arbitration, retried TLPs),
//!   uniformly between `SPIKE_MIN` and `SPIKE_MAX`,
//! * **stale reads** — the transaction returns the value that counter last
//!   latched (a stuck read), never another counter's or a backwards one, and
//! * **narrow counters** — values wrap modulo `2^counter_bits`, as on real
//!   register banks; the collection tier must decode the wraps.
//!
//! Everything is drawn from one xoshiro stream seeded by the plan, so a
//! campaign under faults is bit-reproducible from its printed seed.

use std::collections::HashMap;

use uburst_sim::rng::{mix64, Rng, GOLDEN_GAMMA};
use uburst_sim::time::Nanos;

use crate::counters::CounterId;

/// Why a read attempt produced no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The bus transaction timed out after burning `cost` of CPU time.
    BusTimeout {
        /// Simulated time the failed transaction consumed.
        cost: Nanos,
    },
}

impl ReadFault {
    /// Simulated time the faulted attempt consumed.
    pub fn cost(self) -> Nanos {
        match self {
            ReadFault::BusTimeout { cost } => cost,
        }
    }
}

/// Simulated time a failed transaction burns before reporting failure: a
/// read that dies on the bus holds the CPU for several transaction setups
/// before it is abandoned.
const BUS_TIMEOUT: Nanos = Nanos(9_000);
/// Latency-spike magnitudes are uniform in `[SPIKE_MIN, SPIKE_MAX)`.
const SPIKE_MIN: Nanos = Nanos::from_micros(20);
/// See `SPIKE_MIN`.
const SPIKE_MAX: Nanos = Nanos::from_micros(80);

/// A seeded description of how reads misbehave.
///
/// Probabilities are per *poll transaction* (failure, spike) or per
/// *counter value* (stale). The default plan is fault-free with full-width
/// counters, so wiring an injector in changes nothing until knobs are set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private random stream.
    pub seed: u64,
    /// Probability that a poll transaction fails with a bus timeout.
    pub transient_failure: f64,
    /// Probability that a successful transaction suffers a latency spike.
    pub latency_spike: f64,
    /// Probability that a read value is the counter's previously latched one.
    pub stale_read: f64,
    /// Counter register width in bits (1..=64); values wrap mod `2^bits`.
    pub counter_bits: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transient_failure: 0.0,
            latency_spike: 0.0,
            stale_read: 0.0,
            counter_bits: 64,
        }
    }
}

impl FaultPlan {
    /// A fault-free plan (the default) under a given seed.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the transient-failure probability.
    pub fn with_transient_failure(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.transient_failure = p;
        self
    }

    /// Sets the latency-spike probability.
    pub fn with_latency_spike(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.latency_spike = p;
        self
    }

    /// Sets the stale-read probability.
    pub fn with_stale_read(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.stale_read = p;
        self
    }

    /// Sets the counter register width (1..=64 bits).
    pub fn with_counter_bits(mut self, bits: u32) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "counter width {bits} out of range"
        );
        self.counter_bits = bits;
        self
    }

    /// Derives the fault plan for one switch of a fleet campaign.
    ///
    /// Every switch gets its own seed (same fleet seed, different switch,
    /// different weather), and a deterministic `flaky_rate` fraction of
    /// the fleet gets a flaky profile — transient bus failures, latency
    /// spikes, stale reads — while the rest run benign. *Which* switches
    /// are flaky is a pure function of `(fleet_seed, switch_index)`, so a
    /// faulted fleet is reproducible from its printed seed and identical
    /// regardless of the order switches are built in.
    pub fn for_fleet_switch(fleet_seed: u64, switch_index: u32, flaky_rate: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&flaky_rate),
            "probability out of range"
        );
        // splitmix64 finalizer over (seed, index): decorrelates adjacent
        // switch indices so "flaky" is not clustered by rack numbering.
        let h = mix64(fleet_seed ^ (switch_index as u64).wrapping_mul(GOLDEN_GAMMA));
        let plan = FaultPlan::none(h);
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw < flaky_rate {
            plan.with_transient_failure(0.10)
                .with_latency_spike(0.05)
                .with_stale_read(0.02)
        } else {
            plan
        }
    }

    /// The value mask implied by [`FaultPlan::counter_bits`].
    pub fn value_mask(&self) -> u64 {
        if self.counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.counter_bits) - 1
        }
    }

    /// True when every fault knob is off and counters are full-width.
    pub fn is_benign(&self) -> bool {
        self.transient_failure == 0.0
            && self.latency_spike == 0.0
            && self.stale_read == 0.0
            && self.counter_bits == 64
    }
}

/// Counts of injected faults, for cross-checking against the collection
/// tier's own accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Poll transactions failed with a bus timeout.
    pub bus_timeouts: u64,
    /// Poll transactions delayed by a latency spike.
    pub latency_spikes: u64,
    /// Counter values replaced by the previously latched value.
    pub stale_values: u64,
}

/// Applies a [`FaultPlan`] to a stream of read transactions.
///
/// The injector is consulted once per poll transaction
/// ([`FaultInjector::pre_read`]) and once per counter value
/// ([`FaultInjector::filter_value`]); it owns a private seeded RNG, so a
/// fixed plan produces the identical fault sequence every run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    latched: HashMap<CounterId, u64>,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            rng: Rng::new(plan.seed ^ 0xFA17_1A7E_C0DE_CAFE),
            plan,
            latched: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one poll transaction **before** the bank is
    /// touched: `Err` is a bus timeout (no counters were read; the cost is
    /// the CPU time lost), `Ok(extra)` is a success with `extra` latency on
    /// top of the deterministic [`crate::AccessModel`] cost.
    pub fn pre_read(&mut self) -> Result<Nanos, ReadFault> {
        if self.plan.transient_failure > 0.0 && self.rng.chance(self.plan.transient_failure) {
            self.stats.bus_timeouts += 1;
            return Err(ReadFault::BusTimeout { cost: BUS_TIMEOUT });
        }
        if self.plan.latency_spike > 0.0 && self.rng.chance(self.plan.latency_spike) {
            self.stats.latency_spikes += 1;
            let (lo, hi) = (SPIKE_MIN.as_nanos(), SPIKE_MAX.as_nanos());
            return Ok(Nanos(self.rng.range(lo, hi - 1)));
        }
        Ok(Nanos::ZERO)
    }

    /// Filters one raw 64-bit counter value through the plan: wraps it to
    /// the register width and possibly replaces it with the previously
    /// latched (stale) value of the same counter, so the served stream of
    /// each counter is monotone mod `2^bits`. Returns what the "hardware"
    /// hands the driver.
    pub fn filter_value(&mut self, id: CounterId, raw: u64) -> u64 {
        let wrapped = raw & self.plan.value_mask();
        if self.plan.stale_read > 0.0 && self.rng.chance(self.plan.stale_read) {
            if let Some(&old) = self.latched.get(&id) {
                self.stats.stale_values += 1;
                return old;
            }
        }
        self.latched.insert(id, wrapped);
        wrapped
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::node::PortId;

    const C: CounterId = CounterId::TxBytes(PortId(0));

    #[test]
    fn benign_plan_is_transparent() {
        let mut inj = FaultInjector::new(FaultPlan::none(1));
        for i in 0..1000u64 {
            assert_eq!(inj.pre_read(), Ok(Nanos::ZERO));
            assert_eq!(inj.filter_value(C, i * 1_000_000_007), i * 1_000_000_007);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert!(inj.plan().is_benign());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::none(42)
            .with_transient_failure(0.05)
            .with_latency_spike(0.05)
            .with_stale_read(0.1);
        let run = |mut inj: FaultInjector| {
            let mut log = Vec::new();
            for i in 0..500 {
                log.push(inj.pre_read());
                log.push(Ok(Nanos(inj.filter_value(C, i * 31))));
            }
            (log, inj.stats())
        };
        let (a, sa) = run(FaultInjector::new(plan));
        let (b, sb) = run(FaultInjector::new(plan));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.bus_timeouts > 0 && sa.latency_spikes > 0 && sa.stale_values > 0);
    }

    #[test]
    fn failure_rate_approximates_plan() {
        let mut inj = FaultInjector::new(FaultPlan::none(7).with_transient_failure(0.1));
        let n = 100_000;
        let failures = (0..n).filter(|_| inj.pre_read().is_err()).count();
        let rate = failures as f64 / n as f64;
        assert!((0.09..=0.11).contains(&rate), "observed {rate}");
        assert_eq!(inj.stats().bus_timeouts, failures as u64);
    }

    #[test]
    fn narrow_counters_wrap() {
        let mut inj = FaultInjector::new(FaultPlan::none(3).with_counter_bits(32));
        let big = (1u64 << 32) + 5;
        assert_eq!(inj.filter_value(C, big), 5);
        assert_eq!(inj.plan().value_mask(), u32::MAX as u64);
        let mut full = FaultInjector::new(FaultPlan::none(3));
        assert_eq!(full.filter_value(C, big), big);
    }

    #[test]
    fn stale_reads_latch_previous_value() {
        // Probability 1: after the first (latching) read, everything is the
        // first value again.
        let mut inj = FaultInjector::new(FaultPlan::none(9).with_stale_read(1.0));
        let first = inj.filter_value(C, 100);
        assert_eq!(first, 100, "nothing latched yet, first read passes");
        assert_eq!(inj.filter_value(C, 200), 100);
        assert_eq!(inj.filter_value(C, 300), 100);
        assert_eq!(inj.stats().stale_values, 2);
        // A different counter has its own latch.
        let other = CounterId::RxBytes(PortId(1));
        assert_eq!(inj.filter_value(other, 777), 777);
    }

    #[test]
    fn spike_magnitudes_stay_in_range() {
        let plan = FaultPlan::none(11).with_latency_spike(1.0);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..1000 {
            let extra = inj.pre_read().unwrap();
            assert!(extra >= SPIKE_MIN && extra < SPIKE_MAX);
        }
    }

    #[test]
    fn fleet_plans_are_deterministic_and_rate_bounded() {
        // Rate endpoints are exact.
        for i in 0..64 {
            assert!(FaultPlan::for_fleet_switch(17, i, 0.0).is_benign());
            assert!(!FaultPlan::for_fleet_switch(17, i, 1.0).is_benign());
        }
        // Same (seed, index, rate) → same plan; different index → at
        // least a different private seed.
        let a = FaultPlan::for_fleet_switch(99, 7, 0.3);
        assert_eq!(a, FaultPlan::for_fleet_switch(99, 7, 0.3));
        assert_ne!(a.seed, FaultPlan::for_fleet_switch(99, 8, 0.3).seed);
        // Observed flaky fraction tracks the requested rate.
        let n = 2000u32;
        let flaky = (0..n)
            .filter(|&i| !FaultPlan::for_fleet_switch(5, i, 0.2).is_benign())
            .count() as f64
            / n as f64;
        assert!((0.15..=0.25).contains(&flaky), "observed {flaky}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_probability_rejected() {
        FaultPlan::none(0).with_transient_failure(1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        FaultPlan::none(0).with_counter_bits(0);
    }
}
