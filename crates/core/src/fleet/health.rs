//! Per-switch health: the state a switch is in, the policy that moves it,
//! and the state machine a fleet lane feeds one round verdict at a time.

use std::fmt;

/// One switch's health as seen by the fleet controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Delivering on deadline with acceptable coverage.
    #[default]
    Healthy,
    /// Recent bad rounds (degradation signal, refusals, straggling, or a
    /// coverage miss) but still in service.
    Degraded,
    /// Taken out of service after too many consecutive bad rounds. Probed
    /// with bounded backoff; its rounds are excluded *and accounted*.
    Quarantined,
    /// Back in service after a clean streak — behaves as Healthy, but the
    /// label survives so coverage reports show the round trip.
    Recovered,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovered => "recovered",
        };
        write!(f, "{s}")
    }
}

/// Tuning for the per-switch health state machine.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Known-missing fraction of a source's assigned batches above which a
    /// round counts as bad (receiver-side coverage signal).
    pub miss_watermark: f64,
    /// Rounds a switch may hold outstanding batches without its contiguous
    /// prefix advancing before it counts as a straggler (aggregator-side
    /// deadline signal).
    pub deadline_rounds: u32,
    /// Consecutive bad rounds before a Degraded switch is quarantined.
    pub quarantine_after: u32,
    /// Consecutive clean rounds before a switch rejoins (Degraded →
    /// Healthy, or Quarantined → Recovered via probes).
    pub rejoin_after: u32,
    /// Base spacing (rounds) between quarantine probes; doubles per failed
    /// probe (capped) — bounded retry with backoff.
    pub probe_backoff: u32,
    /// Probes granted before a quarantined switch is left out for good.
    pub max_probes: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            miss_watermark: 0.25,
            deadline_rounds: 3,
            quarantine_after: 3,
            rejoin_after: 2,
            probe_backoff: 2,
            max_probes: 8,
        }
    }
}

/// One lane's health state machine: Healthy → Degraded → Quarantined →
/// Recovered, driven by one verdict per round the switch took part in.
#[derive(Debug, Default)]
pub(super) struct Health {
    pub(super) state: HealthState,
    consec_bad: u32,
    consec_clean: u32,
    pub(super) quarantines: u64,
    pub(super) rejoins: u64,
    probes_used: u32,
    next_probe: u32,
}

impl Health {
    /// Whether the lane offers data this round. Quarantined lanes take
    /// part only on scheduled probe rounds and only within their probe
    /// budget.
    pub(super) fn participates(&mut self, round: u32, policy: &HealthPolicy) -> bool {
        if self.state != HealthState::Quarantined {
            return true;
        }
        if self.probes_used >= policy.max_probes || round < self.next_probe {
            return false;
        }
        self.probes_used += 1;
        uburst_obs::counter_add!("uburst_fleet_probe_rounds_total", 1);
        true
    }

    /// Feeds one round's verdict into the state machine.
    pub(super) fn observe(&mut self, round: u32, bad: bool, policy: &HealthPolicy) {
        if bad {
            self.consec_clean = 0;
            match self.state {
                HealthState::Healthy | HealthState::Recovered => {
                    self.state = HealthState::Degraded;
                    self.consec_bad = 1;
                }
                HealthState::Degraded => {
                    self.consec_bad += 1;
                    if self.consec_bad >= policy.quarantine_after {
                        self.state = HealthState::Quarantined;
                        self.quarantines += 1;
                        self.consec_bad = 0;
                        self.probes_used = 0;
                        self.next_probe = round + policy.probe_backoff;
                        uburst_obs::counter_add!("uburst_fleet_quarantines_total", 1);
                    }
                }
                HealthState::Quarantined => {
                    // A failed probe: back off (exponentially, capped).
                    let shift = self.probes_used.min(4);
                    self.next_probe = round + (policy.probe_backoff << shift);
                }
            }
        } else {
            self.consec_bad = 0;
            self.consec_clean += 1;
            match self.state {
                HealthState::Degraded if self.consec_clean >= policy.rejoin_after => {
                    // Never left service, so this is not a rejoin event.
                    self.state = HealthState::Healthy;
                }
                HealthState::Quarantined => {
                    if self.consec_clean >= policy.rejoin_after {
                        self.state = HealthState::Recovered;
                        self.rejoins += 1;
                        uburst_obs::counter_add!("uburst_fleet_rejoins_total", 1);
                    } else {
                        // A clean probe: probe again immediately.
                        self.next_probe = round + 1;
                    }
                }
                _ => {}
            }
        }
    }
}
