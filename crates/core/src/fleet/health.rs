//! Per-switch health: the state a switch is in, the thresholds that move
//! it, and the state machine a fleet lane feeds one round verdict at a time.

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

/// Known-missing fraction of a source's assigned batches above which a
/// round counts as bad (receiver-side coverage signal).
pub(super) const MISS_WATERMARK: f64 = 0.25;
/// Rounds a switch may hold outstanding batches without its contiguous
/// prefix advancing before it counts as a straggler (aggregator-side
/// deadline signal).
pub(super) const DEADLINE_ROUNDS: u32 = 3;
/// Consecutive bad rounds before a Degraded switch is quarantined.
pub(super) const QUARANTINE_AFTER: u32 = 3;
/// Consecutive clean rounds before a switch rejoins (Degraded → Healthy,
/// or Quarantined → Recovered via probes).
const REJOIN_AFTER: u32 = 2;
/// Base spacing (rounds) between quarantine probes; doubles per failed
/// probe (capped) — bounded retry with backoff.
const PROBE_BACKOFF: u32 = 2;
/// Probes granted before a quarantined switch is left out for good.
pub(super) const MAX_PROBES: u32 = 8;

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
    pub(super) fn participates(&mut self, round: u32) -> bool {
        if self.state != HealthState::Quarantined {
            return true;
        }
        if self.probes_used >= MAX_PROBES || round < self.next_probe {
            return false;
        }
        self.probes_used += 1;
        uburst_obs::counter_add!("uburst_fleet_probe_rounds_total", 1);
        true
    }

    /// Feeds one round's verdict into the state machine.
    pub(super) fn observe(&mut self, round: u32, bad: bool) {
        if bad {
            self.consec_clean = 0;
            match self.state {
                HealthState::Healthy | HealthState::Recovered => {
                    self.state = HealthState::Degraded;
                    self.consec_bad = 1;
                }
                HealthState::Degraded => {
                    self.consec_bad += 1;
                    if self.consec_bad >= QUARANTINE_AFTER {
                        self.state = HealthState::Quarantined;
                        self.quarantines += 1;
                        self.consec_bad = 0;
                        self.probes_used = 0;
                        self.next_probe = round + PROBE_BACKOFF;
                        uburst_obs::counter_add!("uburst_fleet_quarantines_total", 1);
                    }
                }
                HealthState::Quarantined => {
                    // A failed probe: back off (exponentially, capped).
                    let shift = self.probes_used.min(4);
                    self.next_probe = round + (PROBE_BACKOFF << shift);
                }
            }
        } else {
            self.consec_bad = 0;
            self.consec_clean += 1;
            match self.state {
                HealthState::Degraded if self.consec_clean >= REJOIN_AFTER => {
                    // Never left service, so this is not a rejoin event.
                    self.state = HealthState::Healthy;
                }
                HealthState::Quarantined => {
                    if self.consec_clean >= REJOIN_AFTER {
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
