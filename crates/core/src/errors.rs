//! Typed errors for the collection pipeline.
//!
//! The pipeline is a best-effort production service (§4.1): misconfiguration
//! and partial failure must surface as values the caller can route, log, or
//! degrade on — never as panics that would take the switch CPU's sampling
//! loop (or the collector tier) down with them.

use std::fmt;

use uburst_sim::time::Nanos;

/// Errors raised while configuring or running a [`crate::Poller`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollError {
    /// The campaign polls no counters.
    EmptyCampaign,
    /// The campaign's target interval is zero.
    ZeroInterval,
    /// The campaign polls a counter the bank does not have (a port past
    /// the bank's width, or a histogram bin past the last).
    UnknownCounter {
        /// The first such counter in campaign order.
        counter: uburst_asic::CounterId,
    },
    /// `spawn` was asked for a campaign window with `stop <= start`.
    EmptyWindow {
        /// Requested campaign start.
        start: Nanos,
        /// Requested campaign stop.
        stop: Nanos,
    },
    /// `spawn` was asked to poll a read-and-clear register that another
    /// live campaign on the same bank already polls: every read re-seeds
    /// the register, so the two would steal each other's peaks.
    RegisterClaimed {
        /// The register already claimed.
        counter: uburst_asic::CounterId,
    },
}

impl fmt::Display for PollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PollError::EmptyCampaign => write!(f, "campaign with no counters"),
            PollError::ZeroInterval => write!(f, "zero sampling interval"),
            PollError::UnknownCounter { counter } => {
                write!(f, "counter {counter:?} is not on this bank")
            }
            PollError::EmptyWindow { start, stop } => {
                write!(f, "empty campaign window [{start}, {stop})")
            }
            PollError::RegisterClaimed { counter } => write!(
                f,
                "read-and-clear register {counter:?} is already polled by a live campaign"
            ),
        }
    }
}

impl std::error::Error for PollError {}

/// Errors raised by the sequenced shipping layer ([`crate::ship`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipError {
    /// The shipper's outstanding-batch memory (in-flight window plus
    /// untransmitted backlog) is at its configured cap and the offered
    /// batch was refused. This is what a stalled aggregator looks like
    /// from the switch: the caller must shed (and account) the batch
    /// rather than buffer without bound.
    WindowExhausted {
        /// The source whose shipper is saturated.
        source: crate::batch::SourceId,
        /// Outstanding batches (window + backlog) at refusal time.
        outstanding: usize,
    },
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::WindowExhausted {
                source,
                outstanding,
            } => write!(
                f,
                "shipper for source {} exhausted: {outstanding} batches outstanding",
                source.0
            ),
        }
    }
}

impl std::error::Error for ShipError {}

/// Errors raised while starting or stopping a [`crate::Collector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectorError {
    /// `start` was asked for a pool of zero workers.
    NoWorkers,
    /// `start` was asked for a zero-capacity batch queue.
    ZeroCapacity,
    /// The OS refused to spawn a worker thread.
    Spawn(String),
    /// A worker could not be joined at shutdown: it panicked.
    WorkerLost {
        /// Index of the unjoinable worker.
        worker: usize,
    },
}

impl fmt::Display for CollectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectorError::NoWorkers => write!(f, "collector needs at least one worker"),
            CollectorError::ZeroCapacity => {
                write!(f, "collector queue needs nonzero capacity")
            }
            CollectorError::Spawn(e) => write!(f, "failed to spawn collector worker: {e}"),
            CollectorError::WorkerLost { worker } => {
                write!(f, "collector worker {worker} could not be joined")
            }
        }
    }
}

impl std::error::Error for CollectorError {}

/// Errors raised by the write-ahead log ([`crate::wal`]). Not `Clone`/
/// `PartialEq` like its siblings: it wraps [`std::io::Error`], which is
/// neither — callers probe it with [`WalError::is_injected_crash`]
/// instead.
#[derive(Debug)]
pub enum WalError {
    /// The storage backend failed (includes injected crashes from the
    /// fault harness; probe with [`crate::failpoint::is_injected_crash`]).
    Io(std::io::Error),
}

impl WalError {
    /// Whether this error is a deterministic crash injected by the fault
    /// harness (as opposed to a real storage failure).
    pub fn is_injected_crash(&self) -> bool {
        match self {
            WalError::Io(e) => crate::failpoint::is_injected_crash(e),
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal storage error: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_usefully() {
        assert_eq!(
            PollError::EmptyCampaign.to_string(),
            "campaign with no counters"
        );
        assert!(PollError::UnknownCounter {
            counter: uburst_asic::CounterId::BufferPeak
        }
        .to_string()
        .contains("BufferPeak"));
        let e = PollError::EmptyWindow {
            start: Nanos::from_micros(5),
            stop: Nanos::from_micros(5),
        };
        assert!(e.to_string().contains("empty campaign window"));
        assert!(CollectorError::Spawn("nope".into())
            .to_string()
            .contains("nope"));
        assert!(CollectorError::WorkerLost { worker: 3 }
            .to_string()
            .contains('3'));
        let w = WalError::Io(std::io::Error::other("disk on fire"));
        assert!(w.to_string().contains("disk on fire"));
        assert!(!w.is_injected_crash());
        let crash = WalError::Io(crate::failpoint::crash_error());
        assert!(crash.is_injected_crash());
        assert!(std::error::Error::source(&crash).is_some());
    }
}
