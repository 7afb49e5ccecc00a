//! Seeded input generators. Everything a workload feeds the program is made
//! here from `--seed`, on `uburst_sim::rng::Rng`: the same seed gives
//! byte-identical inputs, and the program sees only the generated
//! configurations and streams, never the seed's meaning.

use uburst_asic::CounterId;
use uburst_bench::campaign::{buffer_and_ports_spec, single_port_spec, CampaignSpec};
use uburst_core::series::Series;
use uburst_sim::node::PortId;
use uburst_sim::rng::Rng;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

/// The paper's highest-resolution sampling interval (single counter).
pub const FINE_INTERVAL: Nanos = Nanos::from_micros(25);
/// The interval the all-ports + buffer-peak campaigns poll at.
pub const WIDE_INTERVAL: Nanos = Nanos::from_micros(300);
/// Counters a fleet switch reports: the egress bytes of its four uplinks
/// (ports 24..28 of the canonical 24-server rack).
pub const UPLINK_COUNTERS: [CounterId; 4] = [
    CounterId::TxBytes(PortId(24)),
    CounterId::TxBytes(PortId(25)),
    CounterId::TxBytes(PortId(26)),
    CounterId::TxBytes(PortId(27)),
];
/// Bytes a 10 Gb/s server link carries in one [`FINE_INTERVAL`].
const BYTES_PER_FINE_INTERVAL: f64 = 31_250.0;
/// Bytes a 20 Gb/s uplink carries in one [`FINE_INTERVAL`].
const UPLINK_BYTES_PER_FINE_INTERVAL: f64 = 62_500.0;

fn kind_salt(kind: RackType) -> u64 {
    match kind {
        RackType::Web => 0x5EB,
        RackType::Cache => 0xCAC4E,
        RackType::Hadoop => 0x4AD009,
    }
}

/// The scenario seed of rack `index` of `kind`: independent draws per
/// `(seed, kind, index)`.
pub fn rack_seed(seed: u64, kind: RackType, index: usize) -> u64 {
    Rng::new(seed ^ kind_salt(kind).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .fork(index as u64)
        .next_u64()
}

/// What a campaign of a rack workload polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One egress byte counter at [`FINE_INTERVAL`] (Figs. 3, 4, 6).
    SinglePort(PortId),
    /// Every port's egress bytes plus the buffer peak register at
    /// [`WIDE_INTERVAL`] (Figs. 9, 10).
    BufferAndPorts,
}

/// One campaign of a rack workload with what its reduction needs to know.
#[derive(Debug, Clone)]
pub struct RackCampaign {
    /// The campaign handed to the program.
    pub spec: CampaignSpec,
    /// What it polls.
    pub shape: Shape,
}

/// Two campaigns per rack, as the figure harnesses measure each rack: the
/// single-port campaign and the all-ports + buffer campaign, `per_kind`
/// racks of each kind in `kinds`, every rack at the canonical peak-hour
/// configuration of its kind.
pub fn rack_campaigns(
    seed: u64,
    kinds: &[RackType],
    per_kind: usize,
    span: Nanos,
) -> Vec<RackCampaign> {
    let mut out = Vec::new();
    for &kind in kinds {
        for index in 0..per_kind {
            let cfg = ScenarioConfig::new(kind, rack_seed(seed, kind, index));
            let (spec, port) = single_port_spec(cfg.clone(), None, FINE_INTERVAL, span);
            out.push(RackCampaign {
                spec,
                shape: Shape::SinglePort(port),
            });
            let (spec, _) = buffer_and_ports_spec(cfg, WIDE_INTERVAL, span);
            out.push(RackCampaign {
                spec,
                shape: Shape::BufferAndPorts,
            });
        }
    }
    out
}

/// One poll of a fleet switch: the timestamp and its four uplink counters.
pub type Poll = (Nanos, [u64; 4]);

/// The polls switch `switch` takes over a run: `n` cumulative byte readings
/// of its four uplinks, ~25 µs apart with poll jitter, each uplink an
/// independent ON/OFF source.
pub fn switch_polls(seed: u64, switch: u32, n: usize) -> Vec<Poll> {
    let mut rng = Rng::new(seed ^ 0xF1EE7).fork(u64::from(switch));
    let mut t = 1_000 + rng.below(25_000);
    let mut values = [0u64; 4];
    let mut on = [false; 4];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += 24_000 + rng.below(2_000);
        for (v, on) in values.iter_mut().zip(on.iter_mut()) {
            // Bursts start rarely and persist: mean ON run 4 polls, mean
            // OFF run 20 (Table 2's shape).
            *on = if *on {
                !rng.chance(0.25)
            } else {
                rng.chance(0.05)
            };
            let util = if *on {
                rng.range_f64(0.5, 1.0)
            } else {
                rng.range_f64(0.0, 0.3)
            };
            *v += (util * UPLINK_BYTES_PER_FINE_INTERVAL) as u64;
        }
        out.push((Nanos(t), values));
    }
    out
}

/// `count` cumulative byte series of `n` samples at ~25 µs, the input of
/// the analysis workload: ON/OFF sources with heavy-tailed ON runs, every
/// fourth series sharing a common burst process with its neighbours so the
/// correlation matrix is not all noise.
pub fn on_off_series(seed: u64, count: usize, n: usize) -> Vec<Series> {
    let mut master = Rng::new(seed ^ 0xA9A1);
    // One shared hot/cold chain per group of four series.
    let groups = count.div_ceil(4);
    let shared: Vec<Vec<bool>> = (0..groups)
        .map(|g| {
            let mut rng = master.fork(0x6000 + g as u64);
            let mut hot = false;
            (0..n)
                .map(|_| {
                    hot = if hot {
                        !rng.chance(0.2)
                    } else {
                        rng.chance(0.02)
                    };
                    hot
                })
                .collect()
        })
        .collect();
    // Every series samples on one shared clock (they come from one
    // multi-counter campaign), so the Pearson and MAD kernels see aligned
    // series as they do in the figures.
    let mut clock = master.fork(0xC10C);
    let mut t = 0u64;
    let ts: Vec<u64> = (0..n)
        .map(|_| {
            t += 24_000 + clock.below(2_000);
            t
        })
        .collect();
    (0..count)
        .map(|i| {
            let mut rng = master.fork(i as u64);
            let group = &shared[i / 4];
            let mut own_left = 0u64;
            let mut v = 0u64;
            let mut series = Series::new();
            series.ts = ts.clone();
            series.vs = group
                .iter()
                .map(|&group_hot| {
                    if own_left > 0 {
                        own_left -= 1;
                    } else if rng.chance(0.01) {
                        // Heavy-tailed private ON run, capped at 200 polls.
                        own_left = (rng.pareto(1.0, 1.5) as u64).min(200);
                    }
                    let util = if group_hot || own_left > 0 {
                        rng.range_f64(0.5, 1.0)
                    } else {
                        rng.range_f64(0.0, 0.35)
                    };
                    v += (util * BYTES_PER_FINE_INTERVAL) as u64;
                    v
                })
                .collect();
            series
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_seeds_are_deterministic_and_distinct() {
        assert_eq!(
            rack_seed(7, RackType::Hadoop, 1),
            rack_seed(7, RackType::Hadoop, 1)
        );
        let mut seen = std::collections::BTreeSet::new();
        for seed in [7u64, 8] {
            for kind in RackType::ALL {
                for index in 0..3 {
                    assert!(seen.insert(rack_seed(seed, kind, index)));
                }
            }
        }
    }

    #[test]
    fn rack_campaigns_pair_the_two_figure_shapes() {
        let cs = rack_campaigns(
            3,
            &[RackType::Web, RackType::Cache],
            2,
            Nanos::from_millis(5),
        );
        assert_eq!(cs.len(), 8);
        for pair in cs.chunks(2) {
            assert!(matches!(pair[0].shape, Shape::SinglePort(_)));
            assert_eq!(pair[0].spec.counters.len(), 1);
            assert_eq!(pair[0].spec.interval, FINE_INTERVAL);
            assert_eq!(pair[1].shape, Shape::BufferAndPorts);
            assert_eq!(pair[1].spec.counters.len(), 29);
            assert_eq!(pair[0].spec.cfg.seed, pair[1].spec.cfg.seed);
            // The engine choice is the product's default, never forced.
            assert_eq!(pair[0].spec.cfg.hybrid, None);
        }
        let again = rack_campaigns(
            3,
            &[RackType::Web, RackType::Cache],
            2,
            Nanos::from_millis(5),
        );
        let seeds = |cs: &[RackCampaign]| cs.iter().map(|c| c.spec.cfg.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&cs), seeds(&again));
        let other = rack_campaigns(
            4,
            &[RackType::Web, RackType::Cache],
            2,
            Nanos::from_millis(5),
        );
        assert_ne!(seeds(&cs), seeds(&other));
    }

    #[test]
    fn switch_polls_repeat_per_seed_and_are_cumulative() {
        let a = switch_polls(11, 5, 500);
        assert_eq!(a, switch_polls(11, 5, 500));
        assert_ne!(a, switch_polls(12, 5, 500));
        assert_ne!(a, switch_polls(11, 6, 500));
        for w in a.windows(2) {
            assert!(w[1].0 > w[0].0, "timestamps strictly increase");
            for c in 0..4 {
                assert!(w[1].1[c] >= w[0].1[c], "counters are cumulative");
            }
        }
    }

    #[test]
    fn on_off_series_repeat_per_seed_and_share_a_clock() {
        let a = on_off_series(5, 8, 2_000);
        let b = on_off_series(5, 8, 2_000);
        let c = on_off_series(6, 8, 2_000);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.vs, y.vs);
        }
        assert_ne!(a[0].vs, c[0].vs);
        assert_ne!(a[0].vs, a[1].vs);
        assert_eq!(a[0].ts, a[7].ts);
        // Hot more than never, cold more than half the time.
        let utils = a[0].utilization(10_000_000_000);
        let hot = utils.iter().filter(|u| u.util > 0.5).count();
        assert!(hot > 20 && hot < utils.len() / 2, "{hot} hot samples");
    }
}
