//! Experiment scale selection.

use uburst_sim::time::Nanos;

/// How much simulated time / how many rack instances each harness uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast runs for CI and iteration (default).
    Quick,
    /// Longer campaigns for smoother, publication-shaped distributions.
    Full,
}

impl Scale {
    /// Reads `EXP_SCALE` from the environment (`quick`/`full`), defaulting
    /// to [`Scale::Quick`]. Unknown values fall back to quick with a note
    /// on stderr.
    pub fn from_env() -> Scale {
        match std::env::var("EXP_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            Ok("quick") | Ok("QUICK") | Err(_) => Scale::Quick,
            Ok(other) => {
                eprintln!("EXP_SCALE={other:?} not recognized; using quick");
                Scale::Quick
            }
        }
    }

    /// Measured-rack instances per rack type (the paper used 10).
    pub fn racks_per_type(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// Campaign length per rack instance (the paper used 2-minute
    /// intervals; distributions stabilize far sooner at these loads).
    pub fn campaign_span(self) -> Nanos {
        match self {
            Scale::Quick => Nanos::from_millis(250),
            Scale::Full => Nanos::from_millis(1_500),
        }
    }

    /// Hours of the simulated day sampled (diurnal coverage).
    pub fn hours(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![20.0],
            Scale::Full => vec![2.0, 8.0, 14.0, 20.0],
        }
    }

    /// Switches per fleet in `ext_fleet` (the paper's fleet was thousands
    /// of ToRs; quick keeps CI fast).
    pub fn fleet_switches(self) -> u32 {
        match self {
            Scale::Quick => 32,
            Scale::Full => 200,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Worker threads the parallel campaign engine may use.
    ///
    /// Reads `UBURST_THREADS` from the environment; any value `>= 1` is
    /// honored verbatim (so `UBURST_THREADS=1` forces sequential execution,
    /// the determinism baseline). Unset or unparsable values fall back to
    /// [`std::thread::available_parallelism`]. Campaigns are seeded and
    /// independent, so the thread count never changes any result — only
    /// wall-clock time (see `pool.rs`).
    pub fn threads() -> usize {
        match std::env::var("UBURST_THREADS") {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("UBURST_THREADS={s:?} not a positive integer; using all cores");
                    available_cores()
                }
            },
            Err(_) => available_cores(),
        }
    }
}

/// Hardware parallelism, defaulting to 1 where it cannot be queried.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_outscales_quick() {
        assert!(Scale::Full.racks_per_type() > Scale::Quick.racks_per_type());
        assert!(Scale::Full.campaign_span() > Scale::Quick.campaign_span());
        assert!(Scale::Full.hours().len() > Scale::Quick.hours().len());
        assert!(Scale::Full.fleet_switches() > Scale::Quick.fleet_switches());
        assert_eq!(Scale::Quick.label(), "quick");
    }

    #[test]
    fn threads_is_positive() {
        // Whatever the environment says, the engine always gets >= 1.
        assert!(Scale::threads() >= 1);
    }
}
