//! Deterministic crash injection for the durability layer.
//!
//! A crash test is only as good as its crash model. Ours is byte-granular:
//! [`TornStorage`] wraps any [`WalStorage`] with a global *byte budget* —
//! the wrapped backend accepts exactly that many appended bytes across its
//! lifetime, applies the prefix of the append that exhausts it, and then
//! fails every subsequent write with [`crash_error`]. That models a power
//! cut mid-`write(2)`: the on-media image holds an arbitrary prefix of the
//! record stream, including half a length header or a frame whose CRC was
//! never written.
//!
//! `sync` deliberately never consumes budget and never crashes on its own:
//! a crash therefore always lands *inside* an append, which is what makes
//! the acknowledged-prefix recovery property exact under
//! [`crate::wal::FsyncPolicy::Always`] — any record whose append completed
//! also got its covering sync and its ack; any record that didn't is the
//! torn tail recovery truncates.
//!
//! [`CrashPlan`] turns a seed into a sweep of crash offsets that covers
//! the interesting coordinates: every record boundary, the bytes just
//! before/after each boundary (whole-record vs. mid-header tears), and a
//! seeded uniform fill of mid-record offsets. Same seed, same plan —
//! `tests/crash_recovery.rs` replays the sweep point by point.

use std::io;

use uburst_sim::rng::Rng;

use crate::wal::WalStorage;

/// Marker text identifying injected crashes (checked by
/// [`is_injected_crash`]; distinguishable from real I/O failures).
const CRASH_MARKER: &str = "injected crash (failpoint)";

/// The error a [`TornStorage`] raises once its byte budget is exhausted.
pub fn crash_error() -> io::Error {
    io::Error::other(CRASH_MARKER)
}

/// Whether an I/O error came from a [`TornStorage`] budget exhaustion
/// rather than the real backend.
pub fn is_injected_crash(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.to_string() == CRASH_MARKER)
}

/// A [`WalStorage`] wrapper that kills the writer at a byte-granular
/// offset: appends pass through until `budget` total bytes have been
/// applied, the append that crosses the budget applies only its prefix,
/// and everything after — segment removal included, since a dead process
/// deletes nothing — fails with [`crash_error`]. Reads, listing, and
/// truncation pass through untouched (the disk outlives the process).
#[derive(Debug)]
pub struct TornStorage<S: WalStorage> {
    inner: S,
    budget: u64,
    written: u64,
    crashed: bool,
}

impl<S: WalStorage> TornStorage<S> {
    /// Wraps `inner`, allowing exactly `budget` appended bytes through.
    pub fn new(inner: S, budget: u64) -> Self {
        TornStorage {
            inner,
            budget,
            written: 0,
            crashed: false,
        }
    }

    /// Whether the budget has been exhausted (the "process" is dead).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Bytes actually applied to the wrapped backend.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The wrapped backend (e.g. to recover from it after the crash).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: WalStorage> WalStorage for TornStorage<S> {
    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        self.inner.open_segment(index)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        let remaining = self.budget - self.written;
        if (bytes.len() as u64) <= remaining {
            self.written += bytes.len() as u64;
            return self.inner.append(bytes);
        }
        // The fatal write: apply the prefix that fits, then die.
        let prefix = &bytes[..remaining as usize];
        if !prefix.is_empty() {
            self.inner.append(prefix)?;
        }
        self.written += prefix.len() as u64;
        self.crashed = true;
        Err(crash_error())
    }

    fn sync(&mut self) -> io::Result<()> {
        // Syncs are free and never the crash site: see module docs.
        if self.crashed {
            return Err(crash_error());
        }
        self.inner.sync()
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        self.inner.list()
    }

    fn read(&self, index: u64) -> io::Result<Vec<u8>> {
        self.inner.read(index)
    }

    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()> {
        self.inner.truncate(index, len)
    }

    fn remove(&mut self, index: u64) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        self.inner.remove(index)
    }
}

/// A seeded sweep of byte offsets at which to kill the writer.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    seed: u64,
    offsets: Vec<u64>,
}

impl CrashPlan {
    /// Builds a sweep over a write stream of `total_bytes`, given the
    /// global offsets at which each record ended (`record_ends`, from a
    /// reference run's [`crate::wal::Wal::record_ends`]). The plan
    /// contains every record boundary and its ±1 neighbours plus seeded
    /// uniform offsets, deduplicated and sorted, padded to at least
    /// `min_points` (as long as `total_bytes` has that many distinct
    /// offsets). Deterministic in `seed`.
    pub fn sweep(seed: u64, total_bytes: u64, record_ends: &[u64], min_points: usize) -> Self {
        let mut offsets: Vec<u64> = Vec::new();
        for &end in record_ends {
            // end = first byte after the record: crashing there tears
            // nothing; end-1 tears the final CRC byte; end+1 tears the
            // next record's length header after one byte.
            offsets.push(end.saturating_sub(1));
            offsets.push(end);
            offsets.push(end + 1);
        }
        let mut rng = Rng::new(seed).fork(0xC4A5_4F1A);
        // Uniform mid-record fill; oversample so dedup still clears
        // min_points on any realistically sized stream.
        let fill = min_points.saturating_mul(2).max(64);
        for _ in 0..fill {
            offsets.push(rng.below(total_bytes.max(1)));
        }
        offsets.retain(|&o| o < total_bytes);
        offsets.sort_unstable();
        offsets.dedup();
        let mut plan = CrashPlan { seed, offsets };
        while plan.offsets.len() < min_points && (plan.offsets.len() as u64) < total_bytes {
            let extra = rng.below(total_bytes);
            if let Err(pos) = plan.offsets.binary_search(&extra) {
                plan.offsets.insert(pos, extra);
            }
        }
        plan
    }

    /// The seed this plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The crash offsets, sorted ascending.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Number of crash points in the sweep.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// A seeded crash schedule for a fleet of regional aggregators: per-region
/// byte budgets at which each region's WAL storage dies mid-write. The
/// fleet tier wraps every regional WAL in a [`TornStorage`] with its
/// region's budget (`u64::MAX` — never — when unlisted), so a region
/// crashes at an exact byte of its own write stream, mid-round, exactly
/// once per run — and the surviving disk image is what recovery replays.
///
/// Offsets are in the coordinate system of the *region's* WAL byte stream
/// (from a reference run's [`crate::wal::Wal::total_bytes`] /
/// [`crate::wal::Wal::record_ends`]), so a [`CrashPlan`] sweep lifts
/// directly to a per-region crash matrix via
/// [`RegionCrashPlan::sweep_region`].
#[derive(Debug, Clone, Default)]
pub struct RegionCrashPlan {
    budgets: std::collections::BTreeMap<usize, u64>,
}

impl RegionCrashPlan {
    /// A plan that crashes nothing.
    pub fn none() -> Self {
        RegionCrashPlan::default()
    }

    /// A plan that kills `region` once its WAL has applied `offset` bytes.
    pub fn kill(region: usize, offset: u64) -> Self {
        RegionCrashPlan::default().and_kill(region, offset)
    }

    /// Adds (or tightens) a kill for `region` at `offset` bytes. Listing a
    /// region twice keeps the earlier offset — a storage can only die once.
    pub fn and_kill(mut self, region: usize, offset: u64) -> Self {
        let b = self.budgets.entry(region).or_insert(u64::MAX);
        *b = (*b).min(offset);
        self
    }

    /// The byte budget for `region`: its crash offset, or `None` when the
    /// plan lets it live.
    pub fn budget(&self, region: usize) -> Option<u64> {
        self.budgets.get(&region).copied()
    }

    /// Regions scheduled to die, ascending.
    pub fn regions(&self) -> Vec<usize> {
        self.budgets.keys().copied().collect()
    }

    /// Whether the plan crashes nothing.
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Lifts a byte-offset sweep ([`CrashPlan::sweep`] over a reference
    /// run's regional WAL layout) into one single-region kill per offset —
    /// the fleet crash matrix iterates these.
    pub fn sweep_region(region: usize, plan: &CrashPlan) -> Vec<RegionCrashPlan> {
        plan.offsets()
            .iter()
            .map(|&o| RegionCrashPlan::kill(region, o))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemStorage;

    #[test]
    fn torn_storage_applies_exact_prefix_then_dies() {
        let mem = MemStorage::new();
        let mut torn = TornStorage::new(mem.clone(), 10);
        torn.open_segment(0).unwrap();
        torn.append(b"abcdef").unwrap(); // 6/10
        let err = torn.append(b"ghijkl").unwrap_err(); // 4 more fit
        assert!(is_injected_crash(&err));
        assert!(torn.crashed());
        assert_eq!(torn.written(), 10);
        assert_eq!(mem.read(0).unwrap(), b"abcdefghij");
        // Everything after the crash fails too.
        assert!(is_injected_crash(&torn.append(b"x").unwrap_err()));
        assert!(is_injected_crash(&torn.sync().unwrap_err()));
        assert!(is_injected_crash(&torn.open_segment(1).unwrap_err()));
        // But reads still pass through: the disk outlived the process.
        assert_eq!(torn.read(0).unwrap(), b"abcdefghij");
    }

    #[test]
    fn zero_budget_crashes_on_first_append_with_empty_prefix() {
        let mem = MemStorage::new();
        let mut torn = TornStorage::new(mem.clone(), 0);
        torn.open_segment(0).unwrap();
        assert!(is_injected_crash(&torn.append(b"abc").unwrap_err()));
        assert_eq!(mem.read(0).unwrap(), b"");
    }

    #[test]
    fn sync_does_not_consume_budget() {
        let mut torn = TornStorage::new(MemStorage::new(), 3);
        torn.open_segment(0).unwrap();
        torn.sync().unwrap();
        torn.append(b"ab").unwrap();
        torn.sync().unwrap();
        torn.append(b"c").unwrap(); // exactly exhausts the budget...
        torn.sync().unwrap(); // ...but sync still succeeds
        assert!(!torn.crashed(), "budget boundary itself is not a crash");
        assert!(is_injected_crash(&torn.append(b"d").unwrap_err()));
    }

    #[test]
    fn is_injected_crash_rejects_ordinary_errors() {
        assert!(!is_injected_crash(&io::Error::other("disk on fire")));
        assert!(!is_injected_crash(&io::Error::from(
            io::ErrorKind::NotFound
        )));
        assert!(is_injected_crash(&crash_error()));
    }

    #[test]
    fn sweep_is_deterministic_and_covers_boundaries() {
        let ends = [50u64, 120, 300, 470];
        let a = CrashPlan::sweep(7, 500, &ends, 200);
        let b = CrashPlan::sweep(7, 500, &ends, 200);
        assert_eq!(a.offsets(), b.offsets(), "same seed, same plan");
        assert!(a.len() >= 200, "only {} points", a.len());
        for &end in &ends {
            assert!(a.offsets().contains(&(end - 1)));
            assert!(a.offsets().contains(&end));
            assert!(a.offsets().contains(&(end + 1)));
        }
        for w in a.offsets().windows(2) {
            assert!(w[0] < w[1], "sorted, deduplicated");
        }
        assert!(a.offsets().iter().all(|&o| o < 500));
        let c = CrashPlan::sweep(8, 500, &ends, 200);
        assert_ne!(a.offsets(), c.offsets(), "different seed, different fill");
    }

    #[test]
    fn sweep_of_tiny_stream_does_not_spin() {
        let plan = CrashPlan::sweep(1, 4, &[2], 200);
        assert!(plan.len() <= 4, "cannot exceed distinct offsets");
        assert!(!plan.is_empty());
    }

    #[test]
    fn region_crash_plan_budgets_and_sweep() {
        assert!(RegionCrashPlan::none().is_empty());
        assert_eq!(RegionCrashPlan::none().budget(0), None);
        let plan = RegionCrashPlan::kill(2, 100)
            .and_kill(0, 40)
            .and_kill(2, 300);
        assert_eq!(plan.regions(), vec![0, 2]);
        assert_eq!(plan.budget(0), Some(40));
        assert_eq!(plan.budget(2), Some(100), "earlier kill wins");
        assert_eq!(plan.budget(1), None);

        let sweep = CrashPlan::sweep(7, 500, &[50, 120], 20);
        let matrix = RegionCrashPlan::sweep_region(1, &sweep);
        assert_eq!(matrix.len(), sweep.len());
        for (rp, &o) in matrix.iter().zip(sweep.offsets()) {
            assert_eq!(rp.budget(1), Some(o));
            assert_eq!(rp.regions(), vec![1]);
        }
    }
}
