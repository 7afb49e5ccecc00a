//! Simulated time.
//!
//! The simulator uses a single monotonically increasing clock measured in
//! integer nanoseconds. Nanosecond resolution is required because a 100 Gbps
//! port serializes a minimum-size packet in ~5 ns and the paper's sampling
//! intervals are in the 1–300 µs range; `u64` nanoseconds covers ~584 years
//! of simulated time, far beyond any campaign.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a span of simulated time, in nanoseconds.
///
/// `Nanos` is deliberately a single type for both instants and durations:
/// the simulator's arithmetic is simple enough that the extra ceremony of a
/// two-type scheme buys nothing, and counter timestamps are exported as raw
/// nanoseconds anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero — the simulation epoch and the empty span.
    pub const ZERO: Nanos = Nanos(0);
    /// Largest representable time; used as an "infinitely far" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }
    /// `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    /// `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Converts a floating-point number of seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// This span expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// This span expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }
    /// The larger of two times.
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// True for the zero span / simulation epoch.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    /// How many whole `rhs` spans fit in `self`.
    type Output = u64;
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanos {
    /// Human-oriented rendering that picks the most natural unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NEG_INFINITY), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(30);
        assert_eq!(a + b, Nanos(130));
        assert_eq!(a - b, Nanos(70));
        assert_eq!(a * 2, Nanos(200));
        assert_eq!(a / 3, Nanos(33));
        assert_eq!(a / b, 3);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn round_trips() {
        let t = Nanos::from_micros(25);
        assert!((t.as_micros_f64() - 25.0).abs() < 1e-12);
        assert!((t.as_secs_f64() - 25e-6).abs() < 1e-15);
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos(25_000).to_string(), "25.000us");
        assert_eq!(Nanos(1_500_000).to_string(), "1.500ms");
        assert_eq!(Nanos(2_000_000_000).to_string(), "2.000s");
    }

    #[test]
    fn sum_and_minmax() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
        assert_eq!(Nanos(4).min(Nanos(9)), Nanos(4));
        assert_eq!(Nanos(4).max(Nanos(9)), Nanos(9));
    }
}
