//! The high-resolution sampling loop.
//!
//! This is the paper's core mechanism (§4.1): the switch's control-plane CPU
//! polls ASIC counters on a microsecond-scale deadline schedule. The loop is
//! **best-effort**: a poll takes the deterministic bus cost
//! ([`uburst_asic::AccessModel`]) plus stochastic CPU jitter
//! ([`CoreMode`]), and when a poll overruns its
//! interval, the skipped deadlines are *missed* — counted, but harmless for
//! byte counters because samples carry exact timestamps and cumulative
//! values.
//!
//! The poller is a simulation [`Node`]: it runs on simulated time inside the
//! switch, exactly like the real framework runs on the switch CPU.
//!
//! ## Fault tolerance
//!
//! Reads can fail: with a [`FaultInjector`] attached
//! ([`Poller::with_faults`]), bus transactions time out, spike in latency,
//! or return stale values, and counters wrap at the register width. The
//! loop answers with
//!
//! * **bounded-exponential-backoff retries** in simulated time
//!   ([`RetryPolicy`]): a failed transaction is retried after
//!   `min(base · 2^k, cap)`, at most `max_retries` times per deadline,
//!   after which the deadline is abandoned (accounted, never fatal);
//! * **wrap-aware decoding** ([`crate::series::WrapDecoder`]): narrow
//!   cumulative counters are reconstructed to full width before recording,
//!   so downstream rate math never sees a wrap.
//!
//! Every fault response is accounted in [`PollerStats`]:
//! `read_errors = retries + abandoned_polls()`. Overload changes nothing
//! but the count: every poll reads every campaign counter, and the next
//! deadline is always the current one plus the interval.
//!
//! ## Missed-interval metrics (Table 1)
//!
//! Two complementary fractions describe sampling loss:
//!
//! * `deadline_miss_fraction = missed / (missed + polls)` — intervals whose
//!   deadline was skipped outright because a poll was still in flight. At
//!   10 µs this is ~10 %, at 25 µs ~1 %, matching the paper's rows.
//! * `late_fraction = late / polls` — samples that landed after their own
//!   interval elapsed. At a 1 µs target this is 100 % (every ≥ ~2.5 µs poll
//!   overruns), which is why the paper writes that row off entirely.

use std::rc::Rc;

use uburst_asic::{AccessModel, AsicCounters, FaultInjector, FaultStats};
use uburst_sim::node::{Ctx, Node, NodeId, PortId};
use uburst_sim::packet::Packet;
use uburst_sim::rng::Rng;
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;

use crate::errors::PollError;
use crate::series::{Series, WrapDecoder};
use crate::spec::{CampaignConfig, CoreMode};

/// Timer token: a deadline arrived, begin a poll.
const TOKEN_POLL_START: u64 = 0x504f_4c4c_5354_4152; // "POLLSTAR"
/// Timer token: the in-progress poll's bus transaction completed.
const TOKEN_POLL_DONE: u64 = 0x504f_4c4c_444f_4e45; // "POLLDONE"
/// Timer token: retry a failed read after its backoff.
const TOKEN_POLL_RETRY: u64 = 0x504f_4c4c_5254_5259; // "POLLRTRY"

/// Bounded exponential backoff for failed counter reads, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per deadline before the poll is abandoned.
    pub max_retries: u32,
    /// Wait before the first retry.
    pub backoff_base: Nanos,
    /// Backoff ceiling (`min(base · 2^k, cap)`).
    pub backoff_cap: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: Nanos(2_000),
            backoff_cap: Nanos(50_000),
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Nanos {
        let shifted = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        Nanos(shifted).min(self.backoff_cap)
    }
}

/// Counters of the sampling loop's own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollerStats {
    /// Samples actually taken.
    pub polls: u64,
    /// Deadlines that passed while a poll was still in progress.
    pub missed_deadlines: u64,
    /// Polls whose sample landed after their own interval had already
    /// elapsed (the interval got a sample, but not on schedule).
    pub late_polls: u64,
    /// Total CPU time spent inside poll transactions (including failed
    /// ones; backoff waits are idle time, not busy time).
    pub busy: Nanos,
    /// When the campaign started.
    pub started_at: Nanos,
    /// When the campaign stopped (valid once finished).
    pub stopped_at: Nanos,
    /// Read transactions that failed (bus timeouts).
    pub read_errors: u64,
    /// Failed transactions that were retried after backoff.
    pub retries: u64,
    /// Counter values served stale by the hardware (injector-detected).
    pub stale_reads: u64,
}

impl PollerStats {
    /// Fraction of sampling intervals that received **no sample at all**
    /// (their deadline was skipped because a poll was still in flight) —
    /// the primary Table 1 metric. Complemented by [`Self::late_fraction`]:
    /// at a 1 µs target every sample is late even though most intervals
    /// eventually receive one, which is why the paper reports that row as
    /// a total loss.
    pub fn deadline_miss_fraction(&self) -> f64 {
        let total = self.missed_deadlines + self.polls;
        if total == 0 {
            0.0
        } else {
            self.missed_deadlines as f64 / total as f64
        }
    }

    /// Fraction of taken samples that completed after their own interval
    /// had already elapsed (late, off-schedule samples).
    pub fn late_fraction(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.late_polls as f64 / self.polls as f64
        }
    }

    /// Deadlines abandoned after exhausting every retry. Every failed read
    /// either led to a retry or abandoned its deadline, so this is exactly
    /// `read_errors - retries` — the accounting identity the
    /// fault-tolerance harness checks.
    pub fn abandoned_polls(&self) -> u64 {
        self.read_errors - self.retries
    }

    /// CPU consumed by the sampling loop. A dedicated core busy-waits, so it
    /// burns the whole core regardless of polling work; a shared core only
    /// accounts the transactions themselves.
    pub fn cpu_utilization(&self, mode: CoreMode) -> f64 {
        match mode {
            CoreMode::Dedicated => 1.0,
            CoreMode::Shared => {
                let elapsed = self.stopped_at.saturating_sub(self.started_at);
                if elapsed.is_zero() {
                    0.0
                } else {
                    self.busy.as_secs_f64() / elapsed.as_secs_f64()
                }
            }
        }
    }
}

/// The sampling loop, attached to one switch's counter bank.
pub struct Poller {
    bank: Rc<AsicCounters>,
    /// Prices each poll's bus transaction over the campaign's counters.
    access: AccessModel,
    campaign: CampaignConfig,
    rng: Rng,
    /// What each poll read, one series per campaign counter, in campaign
    /// order.
    series: Vec<Series>,
    faults: Option<FaultInjector>,
    retry: RetryPolicy,
    /// Wrap decoder per campaign counter (`None` for gauges, which do not
    /// accumulate and therefore never wrap meaningfully).
    decoders: Vec<Option<WrapDecoder>>,
    /// The deadline the in-progress/most recent poll was serving.
    deadline: Nanos,
    /// When the in-progress poll transaction began (its serving deadline);
    /// retries do not reset it, so completion latency includes backoff.
    poll_started: Nanos,
    stop_at: Nanos,
    stats: PollerStats,
    /// Read attempt number for the current deadline (0 = first try).
    attempt: u32,
    finished: bool,
}

impl Poller {
    /// Creates a poller recording into memory, one [`Series`] per campaign
    /// counter. Attach it with
    /// [`Poller::spawn`]; read the series back with [`Poller::take_series`].
    pub fn in_memory(
        bank: Rc<AsicCounters>,
        access: AccessModel,
        campaign: CampaignConfig,
        seed: u64,
    ) -> Result<Self, PollError> {
        let n = campaign.counters.len();
        if n == 0 {
            return Err(PollError::EmptyCampaign);
        }
        if campaign.interval.is_zero() {
            return Err(PollError::ZeroInterval);
        }
        if let Some(&counter) = campaign.counters.iter().find(|&&id| !bank.has(id)) {
            return Err(PollError::UnknownCounter { counter });
        }
        Ok(Poller {
            bank,
            access,
            series: vec![Series::new(); n],
            campaign,
            rng: Rng::new(seed),
            faults: None,
            retry: RetryPolicy::default(),
            decoders: vec![None; n],
            deadline: Nanos::ZERO,
            poll_started: Nanos::ZERO,
            stop_at: Nanos::MAX,
            stats: PollerStats::default(),
            attempt: 0,
            finished: false,
        })
    }

    /// Attaches a fault injector. Wrap decoders are armed for every
    /// cumulative counter at the plan's register width, so recorded series
    /// stay full-width even on 32-bit banks.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        let bits = injector.plan().counter_bits;
        for (slot, &id) in self.decoders.iter_mut().zip(&self.campaign.counters) {
            *slot = id.is_cumulative().then(|| WrapDecoder::new(bits));
        }
        self.faults = Some(injector);
        self
    }

    /// Overrides the retry/backoff policy for failed reads.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Adds the poller to the simulation and schedules its campaign over
    /// `[start, stop)`. Returns its node id.
    ///
    /// Any number of pollers may share one bank and one simulation — a
    /// poller only reads, on its own RNG — except that a read-and-clear
    /// register takes one reader at a time: the campaign claims those it
    /// polls until its window closes, and a second live campaign asking
    /// for one gets [`PollError::RegisterClaimed`].
    pub fn spawn(
        mut self,
        sim: &mut Simulator,
        start: Nanos,
        stop: Nanos,
    ) -> Result<NodeId, PollError> {
        if stop <= start {
            return Err(PollError::EmptyWindow { start, stop });
        }
        self.bank
            .claim_read_and_clear(&self.campaign.counters)
            .map_err(|counter| PollError::RegisterClaimed { counter })?;
        self.deadline = start;
        self.stop_at = stop;
        self.stats.started_at = start;
        let id = sim.add_node(Box::new(self));
        sim.schedule_timer(start, id, TOKEN_POLL_START);
        Ok(id)
    }

    /// Loop statistics.
    pub fn stats(&self) -> PollerStats {
        self.stats
    }

    /// Fault-injection statistics, when an injector is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Always 0: the poller has no degradation levels. Kept only because
    /// `benchmark/` calls it (ROADMAP item 3a).
    pub fn degrade_level(&self) -> u32 {
        0
    }

    /// The campaign being run.
    pub fn campaign(&self) -> &CampaignConfig {
        &self.campaign
    }

    /// True once the campaign window has closed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Moves the recorded series out, in campaign order. Never returns
    /// `Err`.
    pub fn take_series(&mut self) -> Result<Vec<(uburst_asic::CounterId, Series)>, PollError> {
        Ok(self
            .campaign
            .counters
            .iter()
            .copied()
            .zip(self.series.iter_mut().map(std::mem::take))
            .collect())
    }

    /// The simulated bus cost of reading every campaign counter.
    fn poll_cost(&self) -> Nanos {
        self.access.poll_cost(&self.campaign.counters)
    }

    fn begin_poll(&mut self, ctx: &mut Ctx<'_>) {
        self.attempt = 0;
        self.poll_started = ctx.now();
        self.start_attempt(ctx);
    }

    /// One read transaction: consult the injector, then either schedule the
    /// completion, a backed-off retry, or abandon the deadline.
    fn start_attempt(&mut self, ctx: &mut Ctx<'_>) {
        // A fault-free read costs nothing extra.
        let extra = match self.faults.as_mut().map(|f| f.pre_read()) {
            Some(Err(fault)) => {
                let cost = fault.cost();
                self.stats.read_errors += 1;
                self.stats.busy += cost;
                if self.attempt < self.retry.max_retries {
                    let backoff = self.retry.backoff(self.attempt);
                    self.attempt += 1;
                    self.stats.retries += 1;
                    ctx.timer_in(cost + backoff, TOKEN_POLL_RETRY);
                } else {
                    // Out of retries: this deadline is abandoned. The
                    // campaign itself survives — schedule the next one.
                    self.abandon_poll(ctx, cost);
                }
                return;
            }
            Some(Ok(extra)) => extra,
            None => Nanos::ZERO,
        };
        let work = self.poll_cost() + extra;
        let jitter = self.campaign.core_mode.sample_jitter(&mut self.rng);
        // Only the bus transaction is *our* CPU time; jitter is time stolen
        // by the kernel / other work, which delays completion but is not
        // charged to the sampler's utilization.
        self.stats.busy += work;
        ctx.timer_in(work + jitter, TOKEN_POLL_DONE);
    }

    fn complete_poll(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Snapshot the counters with the *actual* read time, not the
        // deadline: "we still capture ... the correct timestamp" (Table 1).
        // Settle the bank to the read instant, so the sample counts every
        // frame that left by `now`: under the lazy engine a switch's
        // departures wait in its book until something settles them.
        self.bank.flush_to(now);
        for (i, &id) in self.campaign.counters.iter().enumerate() {
            let mut v = self.bank.read(id);
            if let Some(faults) = self.faults.as_mut() {
                v = faults.filter_value(id, v);
            }
            if let Some(dec) = self.decoders[i].as_mut() {
                v = dec.decode(v);
            }
            self.series[i].push(now, v);
        }
        self.stats.polls += 1;
        if let Some(faults) = self.faults.as_ref() {
            self.stats.stale_reads = faults.stats().stale_values;
        }
        if now > self.deadline + self.campaign.interval {
            // The sample landed after its own interval had elapsed.
            self.stats.late_polls += 1;
        }
        if uburst_obs::enabled() {
            self.record_poll_telemetry(now);
        }
        self.advance_deadline(ctx, now);
    }

    /// Per-poll latency distributions split by core mode: the raw material
    /// for the §4.1 per-poll-cost accounting. Names are static so this path
    /// never formats; outlined so the disabled case costs [`complete_poll`]
    /// only the recorder's flag check.
    #[inline(never)]
    fn record_poll_telemetry(&self, now: Nanos) {
        let cost = self.poll_cost().as_nanos();
        let latency = now.saturating_sub(self.poll_started).as_nanos();
        match self.campaign.core_mode {
            CoreMode::Dedicated => {
                uburst_obs::hist_observe!("uburst_poll_cost_ns{mode=\"dedicated\"}", cost);
                uburst_obs::hist_observe!("uburst_poll_latency_ns{mode=\"dedicated\"}", latency);
            }
            CoreMode::Shared => {
                uburst_obs::hist_observe!("uburst_poll_cost_ns{mode=\"shared\"}", cost);
                uburst_obs::hist_observe!("uburst_poll_latency_ns{mode=\"shared\"}", latency);
            }
        }
    }

    /// A deadline whose read failed through every retry: account it and
    /// keep the schedule moving.
    fn abandon_poll(&mut self, ctx: &mut Ctx<'_>, final_cost: Nanos) {
        let now = ctx.now() + final_cost;
        self.advance_deadline(ctx, now);
    }

    /// Advances to the next unexpired deadline; every one skipped was
    /// missed because this poll was still running when it arrived.
    fn advance_deadline(&mut self, ctx: &mut Ctx<'_>, now: Nanos) {
        let interval = self.campaign.interval;
        let mut next = self.deadline + interval;
        while next <= now {
            self.stats.missed_deadlines += 1;
            next += interval;
        }
        if next >= self.stop_at {
            self.stats.stopped_at = now;
            self.finished = true;
            self.bank.release_read_and_clear(&self.campaign.counters);
            self.record_telemetry();
            return;
        }
        self.deadline = next;
        ctx.timer_at(next, TOKEN_POLL_START);
    }

    /// Publishes the finished campaign's aggregate accounting into the
    /// global telemetry registry. Called exactly once per campaign, so
    /// totals are sums over campaigns — commutative, hence identical
    /// whatever order parallel campaigns finish in.
    fn record_telemetry(&self) {
        if !uburst_obs::enabled() {
            return;
        }
        let s = &self.stats;
        uburst_obs::counter_add!("uburst_poller_polls_total", s.polls);
        uburst_obs::counter_add!("uburst_poller_missed_deadlines_total", s.missed_deadlines);
        uburst_obs::counter_add!("uburst_poller_late_polls_total", s.late_polls);
        uburst_obs::counter_add!("uburst_poller_read_errors_total", s.read_errors);
        uburst_obs::counter_add!("uburst_poller_retries_total", s.retries);
        uburst_obs::counter_add!("uburst_poller_stale_reads_total", s.stale_reads);
        let spikes = self.fault_stats().map_or(0, |f| f.latency_spikes);
        uburst_obs::counter_add!("uburst_poller_latency_spikes_total", spikes);
        // Busy vs elapsed simulated time by core mode: the §4.1 overhead
        // split (a dedicated core burns 100% regardless; a shared core is
        // charged only for its transactions).
        let (busy, elapsed) = (
            s.busy.as_nanos(),
            s.stopped_at.saturating_sub(s.started_at).as_nanos(),
        );
        match self.campaign.core_mode {
            CoreMode::Dedicated => {
                uburst_obs::counter_add!("uburst_poller_busy_ns_total{mode=\"dedicated\"}", busy);
                uburst_obs::counter_add!(
                    "uburst_poller_elapsed_ns_total{mode=\"dedicated\"}",
                    elapsed
                );
            }
            CoreMode::Shared => {
                uburst_obs::counter_add!("uburst_poller_busy_ns_total{mode=\"shared\"}", busy);
                uburst_obs::counter_add!(
                    "uburst_poller_elapsed_ns_total{mode=\"shared\"}",
                    elapsed
                );
            }
        }
        uburst_obs::counter_add!("uburst_poller_campaigns_total", 1);
    }
}

impl Node for Poller {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
        // The poller has no data-plane presence.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_POLL_START => self.begin_poll(ctx),
            TOKEN_POLL_RETRY => self.start_attempt(ctx),
            TOKEN_POLL_DONE => self.complete_poll(ctx),
            other => debug_assert!(false, "unknown poller token {other:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_asic::{CounterId, FaultPlan};
    use uburst_sim::counters::CounterSink;

    fn run_campaign(interval: Nanos, span: Nanos, mode: CoreMode) -> (PollerStats, usize) {
        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(4);
        let mut campaign = CampaignConfig::single("bytes", CounterId::TxBytes(PortId(0)), interval);
        campaign.core_mode = mode;
        let poller = Poller::in_memory(bank.clone(), AccessModel::default(), campaign, 42).unwrap();
        let id = poller.spawn(&mut sim, Nanos::ZERO, span).unwrap();
        sim.run_until(Nanos::MAX);
        let p = sim.node_mut::<Poller>(id);
        assert!(p.is_finished());
        let stats = p.stats();
        let n = p.take_series().unwrap()[0].1.len();
        (stats, n)
    }

    #[test]
    fn table1_shape_1us_all_missed() {
        let (stats, _) = run_campaign(
            Nanos::from_micros(1),
            Nanos::from_millis(20),
            CoreMode::Dedicated,
        );
        assert!(
            stats.deadline_miss_fraction() > 0.5,
            "1us target must miss most deadlines, got {}",
            stats.deadline_miss_fraction()
        );
    }

    #[test]
    fn table1_shape_10us_around_ten_percent() {
        let (stats, _) = run_campaign(
            Nanos::from_micros(10),
            Nanos::from_millis(200),
            CoreMode::Dedicated,
        );
        let f = stats.deadline_miss_fraction();
        assert!((0.05..=0.20).contains(&f), "10us miss fraction {f}");
    }

    #[test]
    fn table1_shape_25us_around_one_percent() {
        let (stats, _) = run_campaign(
            Nanos::from_micros(25),
            Nanos::from_millis(500),
            CoreMode::Dedicated,
        );
        let f = stats.deadline_miss_fraction();
        assert!((0.002..=0.03).contains(&f), "25us miss fraction {f}");
    }

    #[test]
    fn sample_count_matches_polls() {
        let (stats, n) = run_campaign(
            Nanos::from_micros(25),
            Nanos::from_millis(50),
            CoreMode::Dedicated,
        );
        assert_eq!(stats.polls as usize, n);
        // ~2000 deadlines in 50ms at 25us; nearly all polled.
        assert!(n > 1800, "expected ~2000 samples, got {n}");
    }

    #[test]
    fn shared_core_misses_more_but_uses_less_cpu() {
        let (ded, _) = run_campaign(
            Nanos::from_micros(25),
            Nanos::from_millis(200),
            CoreMode::Dedicated,
        );
        let (sh, _) = run_campaign(
            Nanos::from_micros(25),
            Nanos::from_millis(200),
            CoreMode::Shared,
        );
        assert!(
            sh.deadline_miss_fraction() > ded.deadline_miss_fraction() * 3.0,
            "shared {} vs dedicated {}",
            sh.deadline_miss_fraction(),
            ded.deadline_miss_fraction()
        );
        assert!(sh.cpu_utilization(CoreMode::Shared) <= 0.35);
        assert_eq!(ded.cpu_utilization(CoreMode::Dedicated), 1.0);
    }

    #[test]
    fn samples_capture_live_counter_values() {
        // Drive the counter bank while polling and check that the recorded
        // series is cumulative and ends at the true total.
        struct Feeder {
            bank: Rc<AsicCounters>,
            left: u32,
        }
        impl Node for Feeder {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                self.bank.count_tx(PortId(0), 1000);
                self.left -= 1;
                if self.left > 0 {
                    ctx.timer_in(Nanos::from_micros(10), 0);
                }
            }
        }

        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(1);
        let feeder = sim.add_node(Box::new(Feeder {
            bank: bank.clone(),
            left: 100,
        }));
        sim.schedule_timer(Nanos(0), feeder, 0);
        let poller = Poller::in_memory(
            bank.clone(),
            AccessModel::default(),
            CampaignConfig::single(
                "bytes",
                CounterId::TxBytes(PortId(0)),
                Nanos::from_micros(25),
            ),
            7,
        )
        .unwrap();
        let id = poller
            .spawn(&mut sim, Nanos::ZERO, Nanos::from_millis(5))
            .unwrap();
        sim.run_until(Nanos::MAX);
        let series = &sim.node_mut::<Poller>(id).take_series().unwrap()[0].1;
        assert!(series.vs.windows(2).all(|w| w[1] >= w[0]), "cumulative");
        assert_eq!(*series.vs.last().unwrap(), 100_000);
        // Timestamps strictly increase.
        assert!(series.ts.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn multi_counter_campaign_polls_slower_but_still_works() {
        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(4);
        let counters: Vec<CounterId> = (0..4).map(|p| CounterId::TxBytes(PortId(p))).collect();
        let campaign =
            CampaignConfig::group("all-uplinks", counters.clone(), Nanos::from_micros(40));
        let poller = Poller::in_memory(bank, AccessModel::default(), campaign, 3).unwrap();
        let id = poller
            .spawn(&mut sim, Nanos::ZERO, Nanos::from_millis(100))
            .unwrap();
        sim.run_until(Nanos::MAX);
        let p = sim.node_mut::<Poller>(id);
        let f = p.stats().deadline_miss_fraction();
        // 4 registers batched ≈ 4.7us deterministic; 40us interval is easy.
        assert!(f < 0.2, "multi-counter 40us miss fraction {f}");
        let series = p.take_series().unwrap();
        let ids: Vec<CounterId> = series.iter().map(|&(c, _)| c).collect();
        assert_eq!(ids, counters, "campaign order");
        let n0 = series[0].1.len();
        assert!(series.iter().all(|(_, s)| s.len() == n0), "aligned series");
        let again = p.take_series().unwrap();
        assert!(again.iter().all(|(_, s)| s.is_empty()), "taken out");
    }

    #[test]
    fn constructor_surfaces_typed_errors() {
        let bank = AsicCounters::new_shared(1);
        let mut empty =
            CampaignConfig::single("x", CounterId::TxBytes(PortId(0)), Nanos::from_micros(25));
        empty.counters.clear();
        assert_eq!(
            Poller::in_memory(bank.clone(), AccessModel::default(), empty, 0)
                .err()
                .expect("empty campaign must be rejected"),
            PollError::EmptyCampaign
        );
        let zero = CampaignConfig::single("x", CounterId::TxBytes(PortId(0)), Nanos::ZERO);
        assert_eq!(
            Poller::in_memory(bank.clone(), AccessModel::default(), zero, 0)
                .err()
                .expect("zero interval must be rejected"),
            PollError::ZeroInterval
        );
        let ok = CampaignConfig::single("x", CounterId::TxBytes(PortId(0)), Nanos::from_micros(25));
        let mut sim = Simulator::new();
        let p = Poller::in_memory(bank, AccessModel::default(), ok, 0).unwrap();
        assert!(matches!(
            p.spawn(&mut sim, Nanos(5), Nanos(5)).unwrap_err(),
            PollError::EmptyWindow { .. }
        ));
    }

    #[test]
    fn a_counter_off_the_bank_is_a_typed_error_not_a_panic() {
        let bank = AsicCounters::new_shared(1);
        let reject = |counters: Vec<CounterId>| {
            let campaign = CampaignConfig::group("x", counters, Nanos::from_micros(25));
            Poller::in_memory(bank.clone(), AccessModel::default(), campaign, 0)
                .err()
                .expect("a counter off the bank must be rejected")
        };
        assert_eq!(
            reject(vec![CounterId::TxBytes(PortId(7))]),
            PollError::UnknownCounter {
                counter: CounterId::TxBytes(PortId(7))
            }
        );
        // The first offender in campaign order is named; a histogram bin
        // past the last is as unknown as a port past the bank.
        assert_eq!(
            reject(vec![
                CounterId::BufferPeak,
                CounterId::RxSizeHist(PortId(0), 200),
                CounterId::Drops(PortId(1)),
            ]),
            PollError::UnknownCounter {
                counter: CounterId::RxSizeHist(PortId(0), 200)
            }
        );
    }

    #[test]
    fn read_and_clear_register_takes_one_live_campaign() {
        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(1);
        let peak = || {
            let campaign =
                CampaignConfig::single("peak", CounterId::BufferPeak, Nanos::from_micros(50));
            Poller::in_memory(bank.clone(), AccessModel::default(), campaign, 1).unwrap()
        };
        let stop = Nanos::from_millis(1);
        let first = peak().spawn(&mut sim, Nanos::ZERO, stop).unwrap();
        assert_eq!(
            peak().spawn(&mut sim, Nanos::ZERO, stop).unwrap_err(),
            PollError::RegisterClaimed {
                counter: CounterId::BufferPeak
            }
        );
        // Byte counters are not exclusive: a second campaign joins freely.
        let bytes = CampaignConfig::single("b", CounterId::TxBytes(PortId(0)), Nanos(50_000));
        Poller::in_memory(bank.clone(), AccessModel::default(), bytes, 2)
            .unwrap()
            .spawn(&mut sim, Nanos::ZERO, stop)
            .unwrap();
        sim.run_until(Nanos::MAX);
        assert!(sim.node::<Poller>(first).is_finished());
        // The window closed, so the register is free again.
        peak()
            .spawn(&mut sim, Nanos::from_millis(2), Nanos::from_millis(3))
            .unwrap();
    }

    #[test]
    fn transient_failures_are_retried_and_accounted() {
        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(1);
        let campaign = CampaignConfig::single(
            "bytes",
            CounterId::TxBytes(PortId(0)),
            Nanos::from_micros(25),
        );
        let plan = FaultPlan::none(0xFA11).with_transient_failure(0.05);
        let poller = Poller::in_memory(bank, AccessModel::default(), campaign, 42)
            .unwrap()
            .with_faults(FaultInjector::new(plan));
        let id = poller
            .spawn(&mut sim, Nanos::ZERO, Nanos::from_millis(200))
            .unwrap();
        sim.run_until(Nanos::MAX);
        let p = sim.node_mut::<Poller>(id);
        assert!(p.is_finished(), "faulty campaign must still finish");
        let stats = p.stats();
        assert!(stats.read_errors > 0, "5% failures over 8k deadlines");
        assert!(stats.retries > 0);
        assert_eq!(
            stats.read_errors,
            stats.retries + stats.abandoned_polls(),
            "every failure retried or abandoned"
        );
        // Injector and poller agree on the fault count.
        assert_eq!(p.fault_stats().unwrap().bus_timeouts, stats.read_errors);
        // Retries mostly succeed: the vast majority of deadlines sampled.
        assert!(
            stats.polls > stats.abandoned_polls() * 50,
            "polls {} vs abandoned {}",
            stats.polls,
            stats.abandoned_polls()
        );
    }

    /// A bus that always times out: every deadline burns the documented
    /// 9 µs per attempt, first try and every retry, and waits out each
    /// backoff between them before it is abandoned. Busy time holds only
    /// the timeouts; the schedule also carries the backoffs.
    #[test]
    fn always_failing_reads_cost_exactly_the_timeouts_and_backoffs() {
        const TIMEOUT: Nanos = Nanos(9_000);
        let interval = Nanos::from_micros(25);
        let stop = Nanos::from_millis(10);
        let mut sim = Simulator::new();
        let bank = AsicCounters::new_shared(1);
        let campaign = CampaignConfig::single("bytes", CounterId::TxBytes(PortId(0)), interval);
        let plan = FaultPlan::none(0xDEAD).with_transient_failure(1.0);
        let poller = Poller::in_memory(bank, AccessModel::default(), campaign, 42)
            .unwrap()
            .with_faults(FaultInjector::new(plan));
        let id = poller.spawn(&mut sim, Nanos::ZERO, stop).unwrap();
        sim.run_until(Nanos::MAX);
        let p = sim.node_mut::<Poller>(id);
        assert!(p.is_finished());
        let stats = p.stats();

        let retry = RetryPolicy::default();
        let attempts = u64::from(retry.max_retries) + 1;
        let waits = (0..retry.max_retries)
            .map(|k| retry.backoff(k).as_nanos())
            .sum::<u64>();
        // One deadline's occupancy, and the deadline after it: the first
        // one strictly later than the abandon instant.
        let occupied = attempts * TIMEOUT.as_nanos() + waits;
        let stride = (occupied / interval.as_nanos() + 1) * interval.as_nanos();
        let served = stop.as_nanos().div_ceil(stride);

        assert_eq!(stats.polls, 0, "no read ever completes");
        assert_eq!(stats.read_errors, served * attempts);
        assert_eq!(stats.retries, served * u64::from(retry.max_retries));
        assert_eq!(stats.abandoned_polls(), served);
        assert_eq!(stats.busy, Nanos(stats.read_errors * TIMEOUT.as_nanos()));
        assert_eq!(
            stats.missed_deadlines,
            served * (stride / interval.as_nanos() - 1)
        );
        assert_eq!(stats.stopped_at, Nanos((served - 1) * stride + occupied));
        assert_eq!(p.fault_stats().unwrap().bus_timeouts, stats.read_errors);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let r = RetryPolicy {
            max_retries: 10,
            backoff_base: Nanos(1_000),
            backoff_cap: Nanos(6_000),
        };
        assert_eq!(r.backoff(0), Nanos(1_000));
        assert_eq!(r.backoff(1), Nanos(2_000));
        assert_eq!(r.backoff(2), Nanos(4_000));
        assert_eq!(r.backoff(3), Nanos(6_000), "capped");
        assert_eq!(r.backoff(63), Nanos(6_000), "shift saturates");
        assert_eq!(r.backoff(64), Nanos(6_000), "overflowing shift saturates");
    }

    #[test]
    fn wrapped_counters_record_full_width_series() {
        // A feeder writes `count` frames of `bytes`, `gap` apart from
        // `start`, into a 16-bit counter polled every 25us; the recorded
        // series must be monotone and end at the exact true total.
        struct Feeder {
            bank: Rc<AsicCounters>,
            bytes: u32,
            gap: Nanos,
            left: u32,
        }
        impl Node for Feeder {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                self.bank.count_tx(PortId(0), self.bytes);
                self.left -= 1;
                if self.left > 0 {
                    ctx.timer_in(self.gap, 0);
                }
            }
        }
        let run = |bytes: u32, gap: Nanos, count: u32, start: Nanos, stop: Nanos| {
            let mut sim = Simulator::new();
            let bank = AsicCounters::new_shared(1);
            let feeder = sim.add_node(Box::new(Feeder {
                bank: bank.clone(),
                bytes,
                gap,
                left: count,
            }));
            sim.schedule_timer(start, feeder, 0);
            let campaign = CampaignConfig::single(
                "bytes",
                CounterId::TxBytes(PortId(0)),
                Nanos::from_micros(25),
            );
            let poller = Poller::in_memory(bank, AccessModel::default(), campaign, 11)
                .unwrap()
                .with_faults(FaultInjector::new(FaultPlan::none(0).with_counter_bits(16)));
            let id = poller.spawn(&mut sim, Nanos::ZERO, stop).unwrap();
            sim.run_until(Nanos::MAX);
            let series = sim.node_mut::<Poller>(id).take_series().unwrap()[0]
                .1
                .clone();
            assert!(series.vs.windows(2).all(|w| w[1] >= w[0]), "no wrap glitch");
            *series.vs.last().unwrap()
        };
        // 1500 B / 5us ≈ 7.5 KB per interval, 500 * 1500 = 750 KB >> 65536:
        // eleven wraps.
        let steady = run(
            1_500,
            Nanos::from_micros(5),
            500,
            Nanos::ZERO,
            Nanos::from_millis(5),
        );
        assert_eq!(steady, 750_000);
        // One 40 KB burst: a single delta above half the modulus but below
        // 2^16 is still a delta, not a regressed read.
        let burst = run(
            40_000,
            Nanos::ZERO,
            1,
            Nanos::from_micros(130),
            Nanos::from_millis(1),
        );
        assert_eq!(burst, 40_000);
    }

    #[test]
    fn fault_sequences_are_deterministic() {
        let run = |seed: u64| -> PollerStats {
            let mut sim = Simulator::new();
            let bank = AsicCounters::new_shared(1);
            let campaign = CampaignConfig::single(
                "bytes",
                CounterId::TxBytes(PortId(0)),
                Nanos::from_micros(25),
            );
            let plan = FaultPlan::none(seed)
                .with_transient_failure(0.02)
                .with_latency_spike(0.01)
                .with_stale_read(0.01)
                .with_counter_bits(32);
            let poller = Poller::in_memory(bank, AccessModel::default(), campaign, 77)
                .unwrap()
                .with_faults(FaultInjector::new(plan));
            let id = poller
                .spawn(&mut sim, Nanos::ZERO, Nanos::from_millis(100))
                .unwrap();
            sim.run_until(Nanos::MAX);
            sim.node_mut::<Poller>(id).stats()
        };
        assert_eq!(run(123), run(123), "same seed, same campaign");
        assert_ne!(run(123), run(456), "different fault stream");
    }
}
