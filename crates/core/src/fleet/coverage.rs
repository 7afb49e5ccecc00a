//! The coverage ledger: where every batch a switch's poller produced
//! ended up, and the annotation every fleet report carries.

use std::fmt;

use super::health::HealthState;
use crate::batch::SourceId;

/// Coverage accounting for one switch: where every batch its poller
/// produced ended up.
#[derive(Debug, Clone, Copy)]
pub struct SwitchCoverage {
    /// The switch.
    pub source: SourceId,
    /// Final health state.
    pub state: HealthState,
    /// Batches the poller produced across all rounds.
    pub produced: u64,
    /// Batches the global store's ledger received — delivered and
    /// accounted. A batch whose *payload* the store refused (repeated or
    /// backwards timestamps) counts here too: it occupies its sequence
    /// number and no retransmit would cure it. The store's own
    /// `stats().quarantined_batches` says how many of those there were.
    pub stored: u64,
    /// The global store's contiguous prefix for the switch (`<= stored`).
    /// Whenever no aggregator is down it covers the acked prefix.
    pub contiguous: u64,
    /// Batches the receiver knows were assigned but never got (gap
    /// ledger). A fully black-holed switch shows up in `undelivered`
    /// instead — the receiver never learned its watermark.
    pub missing: u64,
    /// Batches never offered because the switch was quarantined.
    pub excluded: u64,
    /// Offers refused by the shipper's outstanding cap (shed at source).
    pub refused: u64,
    /// The shipper's acknowledged prefix — every batch below it is
    /// durable in some aggregator's WAL (the no-acked-loss floor the
    /// crash sweeps check `stored` against).
    pub acked: u64,
    /// Times this switch was re-pointed at a different region (away from a
    /// crashed aggregator, and back home after recovery — a full crash
    /// round trip counts 2).
    pub resharded: u64,
    /// Batches that reached the global store only through a crashed
    /// region's WAL replay (a subset of `stored`, not a fifth column).
    pub replayed: u64,
    /// Times this switch was quarantined.
    pub quarantines: u64,
    /// Probe rounds it took while quarantined, across every quarantine:
    /// the rounds its backoff schedule let it offer data.
    pub probes: u64,
    /// Times it rejoined after quarantine.
    pub rejoins: u64,
}

impl SwitchCoverage {
    /// Fraction of produced batches that made it into the store. A switch
    /// that produced nothing covered nothing — 0.0, not a vacuous 1.0
    /// (crash-at-round-0 sweeps hit this case; it must not read as full
    /// coverage, and it must not divide by zero).
    pub fn fraction(&self) -> f64 {
        if self.produced == 0 {
            return 0.0;
        }
        self.stored as f64 / self.produced as f64
    }

    /// Produced batches that are neither stored, excluded, nor refused:
    /// lost in flight (dropped by the link, or unacked at drain end).
    pub fn undelivered(&self) -> u64 {
        self.produced
            .saturating_sub(self.stored + self.excluded + self.refused)
    }
}

/// The annotation every fleet report carries: which switches, and what
/// fraction of their samples, the data includes — per health state.
#[derive(Debug, Clone, Default)]
pub struct CoverageLedger {
    /// Per-switch coverage, sorted by source.
    pub switches: Vec<SwitchCoverage>,
}

impl CoverageLedger {
    /// Switches whose data is in the report (everything not quarantined).
    pub fn included(&self) -> usize {
        self.switches
            .iter()
            .filter(|s| s.state != HealthState::Quarantined)
            .count()
    }

    /// Fleet-wide stored fraction of produced batches. An empty fleet (or
    /// one that produced nothing — crash-at-round-0) covers nothing: 0.0.
    pub fn sample_fraction(&self) -> f64 {
        let produced: u64 = self.switches.iter().map(|s| s.produced).sum();
        if produced == 0 {
            return 0.0;
        }
        self.stored() as f64 / produced as f64
    }

    /// Total batches the global store's ledger received across the fleet.
    pub fn stored(&self) -> u64 {
        self.switches.iter().map(|s| s.stored).sum()
    }

    /// Total batches never offered because their switch was quarantined.
    pub fn excluded(&self) -> u64 {
        self.switches.iter().map(|s| s.excluded).sum()
    }

    /// Switch counts per health state, in state order.
    pub fn state_counts(&self) -> [(HealthState, usize); 4] {
        let mut counts = [
            (HealthState::Healthy, 0),
            (HealthState::Degraded, 0),
            (HealthState::Quarantined, 0),
            (HealthState::Recovered, 0),
        ];
        for s in &self.switches {
            for c in &mut counts {
                if c.0 == s.state {
                    c.1 += 1;
                }
            }
        }
        counts
    }

    /// Total rejoin events across the fleet.
    pub fn rejoins(&self) -> u64 {
        self.switches.iter().map(|s| s.rejoins).sum()
    }

    /// Total re-shard (region re-point) events across the fleet.
    pub fn resharded(&self) -> u64 {
        self.switches.iter().map(|s| s.resharded).sum()
    }

    /// Total batches that reached the global store only via WAL replay.
    pub fn replayed(&self) -> u64 {
        self.switches.iter().map(|s| s.replayed).sum()
    }
}

impl fmt::Display for CoverageLedger {
    /// Deterministic text rendering — the annotation stamped onto fleet
    /// figures. Totals first, then one line per switch that is *not*
    /// plainly healthy (a 1000-switch fleet should not print 1000 lines
    /// to say "fine").
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage: {}/{} switches included, sample fraction {:.4}, {} batches stored, {} excluded",
            self.included(),
            self.switches.len(),
            self.sample_fraction(),
            self.stored(),
            self.excluded()
        )?;
        let counts = self.state_counts();
        writeln!(
            f,
            "  states: healthy {}, degraded {}, quarantined {}, recovered {}",
            counts[0].1, counts[1].1, counts[2].1, counts[3].1
        )?;
        if self.resharded() > 0 || self.replayed() > 0 {
            writeln!(
                f,
                "  failover: {} re-shard events, {} batches via WAL replay",
                self.resharded(),
                self.replayed()
            )?;
        }
        for s in &self.switches {
            if s.state == HealthState::Healthy
                && s.undelivered() == 0
                && s.refused == 0
                && s.resharded == 0
            {
                continue;
            }
            writeln!(
                f,
                "  switch {}: {}, produced {}, stored {}, missing {}, excluded {}, refused {}, undelivered {}, acked {}, resharded {}, replayed {}, quarantines {}, probes {}, rejoins {}",
                s.source.0,
                s.state,
                s.produced,
                s.stored,
                s.missing,
                s.excluded,
                s.refused,
                s.undelivered(),
                s.acked,
                s.resharded,
                s.replayed,
                s.quarantines,
                s.probes,
                s.rejoins
            )?;
        }
        Ok(())
    }
}
