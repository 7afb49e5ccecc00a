//! Timestamped sample series and rate/utilization conversion.
//!
//! Samples are stored columnar (`ts` / `vs` vectors) because campaigns
//! produce millions of points; the paper's 720 two-minute intervals held
//! ~5 million points each.
//!
//! Byte and packet counters are *cumulative*, so a missed sampling interval
//! widens an interval but loses nothing: each interval's delta divided by
//! its actual duration is an exact average rate over that span — the
//! property the paper relies on ("we can still calculate throughput
//! accurately using the sample's timestamp and byte count", §4.1).

use uburst_sim::time::Nanos;

/// A columnar series of (timestamp, counter value) samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Series {
    /// Sample timestamps, nanoseconds, strictly increasing.
    pub ts: Vec<u64>,
    /// Counter values (cumulative for byte/packet counters, gauge readings
    /// for buffer level/peak).
    pub vs: Vec<u64>,
}

/// One inter-sample interval of a cumulative counter, as an average rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSample {
    /// Interval start.
    pub t0: Nanos,
    /// Interval end (the sample's timestamp).
    pub t1: Nanos,
    /// Counter delta over the interval.
    pub delta: u64,
    /// Average rate in units/second over the interval.
    pub rate: f64,
}

impl RateSample {
    /// Interval length.
    pub fn dt(&self) -> Nanos {
        self.t1 - self.t0
    }
}

/// Out of line so the (never-taken in a healthy pipeline) rejection branch
/// costs [`Series::push`] nothing but a predicted-not-taken compare.
#[cold]
#[inline(never)]
pub(crate) fn note_nonmonotonic(n: u64) {
    uburst_obs::counter_add!("uburst_series_nonmonotonic_total", n);
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends a sample. Timestamps must strictly increase; a sample whose
    /// timestamp does not is **skipped** (in every build mode) and accounted
    /// in the `uburst_series_nonmonotonic_total` telemetry counter, because
    /// a zero-width interval would otherwise turn into an inf/NaN rate in
    /// [`Series::rates`]. Returns whether the sample was appended.
    pub fn push(&mut self, t: Nanos, v: u64) -> bool {
        if self.ts.last().is_some_and(|&last| t.as_nanos() <= last) {
            note_nonmonotonic(1);
            return false;
        }
        self.ts.push(t.as_nanos());
        self.vs.push(v);
        true
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Merges `other`'s samples into this series, keeping timestamps sorted.
    /// Used by the collector, where worker threads may ingest a source's
    /// batches out of arrival order. Duplicate timestamps keep both samples
    /// in `other`-after-`self` order (they cannot occur from a single
    /// poller, which stamps strictly increasing times).
    pub fn merge_from(&mut self, other: &Series) {
        if other.is_empty() {
            return;
        }
        // Fast path: strictly after everything we have (the common case —
        // batches usually arrive in order).
        if self.ts.last().is_none_or(|&last| other.ts[0] > last) {
            self.ts.extend_from_slice(&other.ts);
            self.vs.extend_from_slice(&other.vs);
            return;
        }
        // Slow path: stable two-way merge.
        let mut ts = Vec::with_capacity(self.ts.len() + other.ts.len());
        let mut vs = Vec::with_capacity(ts.capacity());
        let (mut i, mut j) = (0, 0);
        while i < self.ts.len() && j < other.ts.len() {
            if self.ts[i] <= other.ts[j] {
                ts.push(self.ts[i]);
                vs.push(self.vs[i]);
                i += 1;
            } else {
                ts.push(other.ts[j]);
                vs.push(other.vs[j]);
                j += 1;
            }
        }
        ts.extend_from_slice(&self.ts[i..]);
        vs.extend_from_slice(&self.vs[i..]);
        ts.extend_from_slice(&other.ts[j..]);
        vs.extend_from_slice(&other.vs[j..]);
        self.ts = ts;
        self.vs = vs;
    }

    /// Iterates the per-interval deltas of a cumulative counter as average
    /// rates. Intervals with missed polls are longer, not wrong.
    pub fn rates(&self) -> impl Iterator<Item = RateSample> + '_ {
        self.ts.windows(2).zip(self.vs.windows(2)).map(|(t, v)| {
            let dt_ns = t[1] - t[0];
            let delta = v[1].saturating_sub(v[0]);
            RateSample {
                t0: Nanos(t[0]),
                t1: Nanos(t[1]),
                delta,
                rate: delta as f64 / (dt_ns as f64 / 1e9),
            }
        })
    }

    /// Converts a cumulative **byte** counter into per-interval link
    /// utilization in `[0, 1]`, given the link rate in bits per second.
    /// Values can exceed 1.0 slightly because counters exclude per-frame
    /// wire overhead; callers should clamp if they need a hard bound.
    pub fn utilization(&self, link_bps: u64) -> Vec<UtilSample> {
        let cap_bytes_per_sec = link_bps as f64 / 8.0;
        self.rates()
            .map(|r| UtilSample {
                t: r.t1,
                dt: r.dt(),
                util: r.rate / cap_bytes_per_sec,
            })
            .collect()
    }

    /// The raw gauge values (for peak/level registers) zipped with times.
    pub fn points(&self) -> impl Iterator<Item = (Nanos, u64)> + '_ {
        self.ts
            .iter()
            .zip(self.vs.iter())
            .map(|(&t, &v)| (Nanos(t), v))
    }
}

/// Reconstructs a full-width cumulative counter from narrow-register reads.
///
/// Real register banks expose 32-bit (sometimes narrower) cumulative
/// counters: at 10 Gb/s a 32-bit byte counter wraps every ~3.4 s, far
/// shorter than a campaign. Because the counter is monotone and polls are
/// frequent relative to the wrap period, the true delta between consecutive
/// reads is their difference **modulo `2^bits`** — exact as long as fewer
/// than `2^bits` units accumulate between reads (guaranteed by any interval
/// that satisfies Table 1-style loss targets). A stale read repeats the
/// counter's own last value and decodes as a zero delta, so a late or
/// missed read loses no bytes: the next fresh read carries them all.
#[derive(Debug, Clone)]
pub struct WrapDecoder {
    bits: u32,
    last_raw: Option<u64>,
    acc: u64,
}

impl WrapDecoder {
    /// A decoder for registers `bits` wide (1..=64).
    ///
    /// # Panics
    /// Panics when `bits` is outside `1..=64`.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "counter width {bits} out of range"
        );
        WrapDecoder {
            bits,
            last_raw: None,
            acc: 0,
        }
    }

    /// The modulus mask for this register width.
    pub fn mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Feeds one raw register read and returns the reconstructed 64-bit
    /// cumulative value. The first read seeds the accumulator.
    pub fn decode(&mut self, raw: u64) -> u64 {
        let raw = raw & self.mask();
        match self.last_raw {
            None => self.acc = raw,
            Some(prev) => self.acc = self.acc.wrapping_add(raw.wrapping_sub(prev) & self.mask()),
        }
        self.last_raw = Some(raw);
        self.acc
    }

    /// The reconstructed cumulative value after the latest decode.
    pub fn unwrapped(&self) -> u64 {
        self.acc
    }
}

/// Per-interval utilization of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Interval end time.
    pub t: Nanos,
    /// Interval length.
    pub dt: Nanos,
    /// Average utilization over the interval, 0.0–1.0 (may slightly exceed
    /// 1.0; see [`Series::utilization`]).
    pub util: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, u64)]) -> Series {
        let mut s = Series::new();
        for &(t, v) in points {
            s.push(Nanos(t), v);
        }
        s
    }

    #[test]
    fn rates_from_cumulative() {
        // 1000 bytes over 1us, then 0 bytes over 2us.
        let s = series(&[(0, 0), (1_000, 1_000), (3_000, 1_000)]);
        let r: Vec<_> = s.rates().collect();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].delta, 1_000);
        assert!((r[0].rate - 1e9).abs() / 1e9 < 1e-9); // 1000 B / 1us = 1e9 B/s
        assert_eq!(r[1].delta, 0);
        assert_eq!(r[1].rate, 0.0);
        assert_eq!(r[1].dt(), Nanos(2_000));
    }

    #[test]
    fn missed_interval_preserves_totals() {
        // A poll was missed between t=25us and t=75us; the widened interval
        // still averages correctly.
        let s = series(&[(0, 0), (25_000, 31_250), (75_000, 93_750)]);
        let r: Vec<_> = s.rates().collect();
        // Both intervals at exactly 10Gbps = 1.25e9 B/s.
        for x in &r {
            assert!((x.rate - 1.25e9).abs() / 1.25e9 < 1e-9, "rate {}", x.rate);
        }
    }

    #[test]
    fn utilization_of_line_rate_is_one() {
        // 10 Gbps link: 31250 bytes per 25us interval is exactly line rate.
        let s = series(&[(0, 0), (25_000, 31_250), (50_000, 46_875)]);
        let u = s.utilization(10_000_000_000);
        assert_eq!(u.len(), 2);
        assert!((u[0].util - 1.0).abs() < 1e-9);
        assert!((u[1].util - 0.5).abs() < 1e-9);
    }

    /// Regression test for the release-mode monotonicity hole: the old code
    /// only `debug_assert`ed, so a release build silently accepted a
    /// duplicate timestamp and `rates()` divided by a zero-width interval.
    /// The skip is now unconditional, so this passes in every build mode.
    #[test]
    fn non_monotonic_push_is_skipped_in_release_too() {
        let mut s = series(&[(10, 5)]);
        assert!(!s.push(Nanos(10), 9), "duplicate timestamp skipped");
        assert!(!s.push(Nanos(3), 1), "regressed timestamp skipped");
        assert_eq!(s.len(), 1);
        assert!(s.push(Nanos(20), 9));
        let rates: Vec<_> = s.rates().collect();
        assert_eq!(rates.len(), 1);
        assert!(
            rates.iter().all(|r| r.rate.is_finite()),
            "no inf/NaN rates from zero-width intervals"
        );
    }

    #[test]
    fn merge_from_in_order_appends() {
        let mut a = series(&[(0, 0), (10, 5)]);
        a.merge_from(&series(&[(20, 9), (30, 12)]));
        assert_eq!(a.ts, vec![0, 10, 20, 30]);
        assert_eq!(a.vs, vec![0, 5, 9, 12]);
    }

    #[test]
    fn merge_from_interleaves_out_of_order_batches() {
        let mut a = series(&[(20, 9), (30, 12)]);
        a.merge_from(&series(&[(0, 0), (10, 5), (40, 15)]));
        assert_eq!(a.ts, vec![0, 10, 20, 30, 40]);
        assert_eq!(a.vs, vec![0, 5, 9, 12, 15]);
    }

    #[test]
    fn merge_from_empty_is_noop() {
        let mut a = series(&[(1, 1)]);
        a.merge_from(&Series::new());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn counter_wrap_saturates_rather_than_underflows() {
        let s = series(&[(0, 100), (10, 50)]);
        let r: Vec<_> = s.rates().collect();
        assert_eq!(r[0].delta, 0, "wrapped counter treated as zero delta");
    }

    #[test]
    fn points_round_trip() {
        let s = series(&[(5, 1), (6, 2)]);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(Nanos(5), 1), (Nanos(6), 2)]);
    }

    #[test]
    fn wrap_decoder_reconstructs_across_wraps() {
        // An 8-bit register: true stream 250, 260, 270 reads as 250, 4, 14.
        let mut d = WrapDecoder::new(8);
        assert_eq!(d.decode(250), 250);
        assert_eq!(d.decode(260 & 0xFF), 260);
        assert_eq!(d.decode(270 & 0xFF), 270);
        assert_eq!(d.unwrapped(), 270);
    }

    #[test]
    fn wrap_decoder_full_width_is_identity() {
        let mut d = WrapDecoder::new(64);
        for v in [0u64, 5, 1 << 40, u64::MAX / 2] {
            assert_eq!(d.decode(v), v);
        }
    }

    #[test]
    fn wrap_decoder_32bit_survives_many_wraps() {
        let mut d = WrapDecoder::new(32);
        let step = 3_000_000_000u64; // ~0.7 wraps per read
        let mut truth = 7u64;
        assert_eq!(d.decode(truth & 0xFFFF_FFFF), truth);
        for _ in 0..50 {
            truth += step;
            assert_eq!(d.decode(truth & 0xFFFF_FFFF), truth);
        }
    }

    #[test]
    fn wrap_decoder_repeated_value_is_zero_delta() {
        let mut d = WrapDecoder::new(32);
        assert_eq!(d.decode(100), 100);
        assert_eq!(d.decode(100), 100, "stale repeat adds nothing");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wrap_decoder_rejects_zero_bits() {
        WrapDecoder::new(0);
    }
}
