//! Adaptive degradation of an overloaded sampling loop.
//!
//! The paper's framework must "trade away precision to decrease
//! utilization" (§4.1) rather than stall the switch CPU. This module makes
//! that trade automatic: a [`DegradationController`] watches the fraction of
//! missed deadlines over a sliding window and, when sustained pressure
//! exceeds `HIGH_WATERMARK`, steps the campaign down — either **shedding**
//! low-priority counters from the poll group or **stretching** the sampling
//! interval. When pressure subsides below `LOW_WATERMARK` it steps back
//! up, so transient congestion degrades resolution instead of losing the
//! campaign, and the degradation is fully accounted in
//! [`crate::PollerStats`].

use std::collections::VecDeque;

/// What the controller does when the loop falls behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Never degrade (the seed behaviour).
    #[default]
    Off,
    /// Drop low-priority counters from the poll group, one per step.
    /// Priority is campaign order: the **first** counter is shed last.
    ShedCounters,
    /// Double the effective sampling interval per step.
    StretchInterval,
}

/// Sliding window length, in deadline outcomes.
const WINDOW: usize = 256;
/// Step down when the windowed miss fraction exceeds this.
const HIGH_WATERMARK: f64 = 0.25;
/// Step back up when the windowed miss fraction falls below this.
const LOW_WATERMARK: f64 = 0.05;
/// Maximum degradation steps (shed counters or interval doublings).
const MAX_LEVEL: u32 = 3;
/// Minimum outcomes between consecutive level changes, so one bad window
/// cannot slam the controller to the floor.
const COOLDOWN: usize = 64;

const _: () = assert!(WINDOW > 0 && LOW_WATERMARK <= HIGH_WATERMARK);

/// Sliding-window controller deciding the current degradation level.
#[derive(Debug, Clone)]
pub struct DegradationController {
    mode: DegradeMode,
    outcomes: VecDeque<bool>, // true = deadline missed
    missed_in_window: usize,
    level: u32,
    since_change: usize,
    /// Times the controller stepped down (diagnostics).
    pub steps_down: u32,
    /// Times the controller recovered a step (diagnostics).
    pub steps_up: u32,
}

impl DegradationController {
    /// A controller responding to overload with `mode`.
    pub fn new(mode: DegradeMode) -> Self {
        DegradationController {
            mode,
            outcomes: VecDeque::with_capacity(WINDOW),
            missed_in_window: 0,
            level: 0,
            since_change: 0,
            steps_down: 0,
            steps_up: 0,
        }
    }

    /// Current degradation level: 0 is full fidelity; each step sheds one
    /// counter or doubles the interval, depending on the mode.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Windowed deadline-miss fraction (0 until the first outcome).
    pub fn pressure(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.missed_in_window as f64 / self.outcomes.len() as f64
        }
    }

    /// Feeds one deadline outcome (`missed = true` when the deadline got no
    /// sample) and re-evaluates the level.
    pub fn observe(&mut self, missed: bool) {
        if self.mode == DegradeMode::Off {
            return;
        }
        if self.outcomes.len() == WINDOW && self.outcomes.pop_front() == Some(true) {
            self.missed_in_window -= 1;
        }
        self.outcomes.push_back(missed);
        if missed {
            self.missed_in_window += 1;
        }
        self.since_change += 1;

        // Only act on a full window, and not more often than the cooldown.
        if self.outcomes.len() < WINDOW || self.since_change < COOLDOWN {
            return;
        }
        let pressure = self.pressure();
        if pressure > HIGH_WATERMARK && self.level < MAX_LEVEL {
            self.level += 1;
            self.steps_down += 1;
            self.since_change = 0;
            uburst_obs::counter_add!("uburst_degrade_steps_down_total", 1);
            uburst_obs::gauge_max!("uburst_degrade_level_peak", u64::from(self.level));
        } else if pressure < LOW_WATERMARK && self.level > 0 {
            self.level -= 1;
            self.steps_up += 1;
            self.since_change = 0;
            uburst_obs::counter_add!("uburst_degrade_steps_up_total", 1);
        }
    }

    /// How many counters of an `n`-counter campaign to poll at the current
    /// level (shedding mode; never below 1). Other modes poll all `n`.
    pub fn active_counters(&self, n: usize) -> usize {
        match self.mode {
            DegradeMode::ShedCounters => n.saturating_sub(self.level as usize).max(1),
            _ => n,
        }
    }

    /// The interval multiplier at the current level (stretching mode
    /// doubles per step; other modes return 1).
    pub fn interval_multiplier(&self) -> u64 {
        match self.mode {
            DegradeMode::StretchInterval => 1u64 << self.level.min(62),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `n` identical outcomes.
    fn feed(c: &mut DegradationController, n: usize, missed: bool) {
        for _ in 0..n {
            c.observe(missed);
        }
    }

    #[test]
    fn off_mode_never_degrades() {
        let mut c = DegradationController::new(DegradeMode::Off);
        feed(&mut c, 1000, true);
        assert_eq!(c.level(), 0);
        assert_eq!(c.interval_multiplier(), 1);
        assert_eq!(c.active_counters(4), 4);
    }

    #[test]
    fn sustained_pressure_steps_down_then_recovers() {
        let mut c = DegradationController::new(DegradeMode::ShedCounters);
        // 50% misses: pressure over HIGH_WATERMARK.
        for i in 0..2 * WINDOW {
            c.observe(i % 2 == 0);
        }
        assert!(c.level() > 0, "sustained misses must degrade");
        let degraded = c.level();
        // Clean stretch: the window drains under LOW_WATERMARK, then one
        // step back up per cooldown.
        feed(&mut c, WINDOW + MAX_LEVEL as usize * COOLDOWN, false);
        assert_eq!(c.level(), 0, "recovered from level {degraded}");
        assert!(c.steps_up >= degraded);
    }

    #[test]
    fn level_is_capped() {
        let mut c = DegradationController::new(DegradeMode::StretchInterval);
        feed(&mut c, 10_000, true);
        assert_eq!(c.level(), MAX_LEVEL);
        assert_eq!(c.interval_multiplier(), 1 << MAX_LEVEL);
    }

    #[test]
    fn cooldown_paces_changes() {
        let mut c = DegradationController::new(DegradeMode::ShedCounters);
        // Nothing happens before the window fills.
        feed(&mut c, WINDOW - 1, true);
        assert_eq!(c.level(), 0);
        c.observe(true);
        assert_eq!(c.level(), 1, "a full all-missed window steps down");
        // The window stays all-missed, but the next step waits COOLDOWN
        // outcomes.
        feed(&mut c, COOLDOWN - 1, true);
        assert_eq!(c.level(), 1, "stepped again inside the cooldown");
        c.observe(true);
        assert_eq!(c.level(), 2);
    }

    #[test]
    fn shed_keeps_at_least_one_counter() {
        let mut c = DegradationController::new(DegradeMode::ShedCounters);
        feed(&mut c, 10_000, true);
        assert_eq!(c.active_counters(2), 1);
        assert_eq!(c.active_counters(1), 1);
        assert_eq!(c.active_counters(8), 8 - MAX_LEVEL as usize);
    }
}
