//! Pluggable shared-buffer carving policies for the output-queued switch.
//!
//! The paper's §6.3 shared-buffer results are a function of exactly one
//! carving scheme — Broadcom-style dynamic thresholding, which is what the
//! measured ASICs implement. This module promotes that choice to a policy
//! axis: the switch consults a [`BufferPolicy`] on every admission, and
//! the `ext_buffer_policy` experiment reproduces the buffer-vs-concurrent-
//! bursts readout under each alternative.
//!
//! ## Admission-time-only contract (hybrid exactness)
//!
//! Both execution engines — per-packet and hybrid fast-forward (DESIGN
//! §4l) — share one admission call site, and the hybrid engine settles
//! deferred departures *before* every admission test (settle-then-admit).
//! A policy therefore sees exactly the same `(held, buffered)` state in
//! both engines **iff its verdict is a pure function of the state at the
//! admission instant**. The trait enforces it: its one method takes
//! `&self`, so no policy can keep hidden mutable admission state.

use crate::packet::MTU_FRAME;
use crate::time::Nanos;

/// A shared-buffer admission policy: may a packet of `size` bytes join
/// egress `port`'s queue right now?
///
/// `held[port]` is the port's current occupancy (queued + serializing),
/// `buffered` the total pool occupancy, and `pool` the buffer capacity.
/// The switch enforces the physical pool bound (`buffered + size <=
/// pool`) before consulting the policy — implementations only decide the
/// *carving* question.
pub trait BufferPolicy {
    /// The carving verdict. Must be a pure function of the arguments (see
    /// the module docs for why).
    fn admit(&self, port: usize, size: u64, held: &[u64], buffered: u64, pool: u64) -> bool;
}

/// Serializable policy choice carried by
/// [`SwitchConfig`](crate::switch::SwitchConfig) (and through it
/// `ClosConfig` → `ScenarioConfig` → fleet specs). Build the runtime
/// policy object with [`BufferPolicyCfg::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferPolicyCfg {
    /// Choudhury–Hahne dynamic thresholding (the default; what the
    /// measured ASICs run). See [`DynamicThreshold`].
    DynamicThreshold {
        /// Aggressiveness: a port may hold up to `alpha * (pool - used)`.
        alpha: f64,
    },
    /// Hard static carve: each port owns exactly `pool / ports` bytes.
    /// See [`StaticPartition`].
    StaticPartition,
    /// Delay-driven sharing: each port is capped at the bytes its drain
    /// rate clears within a target delay. See [`BShare`].
    BShare {
        /// Target worst-case drain delay for a full queue.
        target_delay: Nanos,
        /// Port drain rate in bits/sec the cap is derived from.
        drain_bps: u64,
    },
    /// Flexible buffering: a reserved floor per port plus access to the
    /// shared remainder. See [`FlexibleBuffering`].
    FlexibleBuffering {
        /// Bytes guaranteed to each port before it draws on the shared
        /// remainder.
        reserved_bytes: u64,
    },
}

impl BufferPolicyCfg {
    /// Dynamic thresholding with the given alpha (the common case).
    pub fn dt(alpha: f64) -> Self {
        BufferPolicyCfg::DynamicThreshold { alpha }
    }

    /// Whether the parameters are usable (checked by `Switch::new`).
    pub fn is_valid(&self) -> bool {
        match *self {
            BufferPolicyCfg::DynamicThreshold { alpha } => alpha > 0.0,
            BufferPolicyCfg::StaticPartition => true,
            BufferPolicyCfg::BShare {
                target_delay,
                drain_bps,
            } => target_delay.0 > 0 && drain_bps > 0,
            BufferPolicyCfg::FlexibleBuffering { reserved_bytes } => reserved_bytes > 0,
        }
    }

    /// Short label for report tables (deterministic formatting).
    pub fn label(&self) -> String {
        match *self {
            BufferPolicyCfg::DynamicThreshold { alpha } => format!("DT(a={alpha})"),
            BufferPolicyCfg::StaticPartition => "StaticPartition".into(),
            BufferPolicyCfg::BShare {
                target_delay,
                drain_bps,
            } => format!(
                "BShare({}us@{}G)",
                target_delay.0 / 1_000,
                drain_bps / 1_000_000_000
            ),
            BufferPolicyCfg::FlexibleBuffering { reserved_bytes } => {
                format!("FB(r={}KB)", reserved_bytes >> 10)
            }
        }
    }

    /// Instantiates the runtime policy for a switch with `ports` ports.
    pub fn build(&self, ports: usize) -> Box<dyn BufferPolicy> {
        match *self {
            BufferPolicyCfg::DynamicThreshold { alpha } => Box::new(DynamicThreshold { alpha }),
            BufferPolicyCfg::StaticPartition => Box::new(StaticPartition {
                ports: ports as u64,
            }),
            BufferPolicyCfg::BShare {
                target_delay,
                drain_bps,
            } => Box::new(BShare {
                cap_bytes: (u128::from(target_delay.0) * u128::from(drain_bps) / 8 / 1_000_000_000)
                    as u64,
            }),
            BufferPolicyCfg::FlexibleBuffering { reserved_bytes } => {
                Box::new(FlexibleBuffering { reserved_bytes })
            }
        }
    }
}

impl Default for BufferPolicyCfg {
    fn default() -> Self {
        BufferPolicyCfg::DynamicThreshold { alpha: 1.0 }
    }
}

/// The one-MTU admission floor shared by every policy: regardless of how
/// tight the carve gets, a port may always hold at least one full frame.
///
/// This floor has always been part of the dynamic-threshold admission
/// rule (previously undocumented): without it, a nearly-full pool drives
/// the DT threshold below one frame and an *empty* queue on an idle port
/// refuses its first packet — livelocking ports that never got to build a
/// queue while the hog drains. Real ASICs implement the same escape as a
/// per-port minimum guarantee. Applying it uniformly keeps the policies
/// comparable: no policy can be starved into refusing a single frame on
/// an empty port (the physical pool bound still applies).
fn floor(threshold: u64) -> u64 {
    threshold.max(u64::from(MTU_FRAME))
}

/// Choudhury–Hahne dynamic thresholding — the default, and the scheme the
/// paper's switches implement ("buffers in our switches are shared and
/// dynamically carved", §5.1 footnote).
///
/// Admission rule: `held[port] + size <= max(alpha * (pool - buffered),
/// MTU_FRAME)`. The threshold shrinks as the pool fills, so a single hot
/// port self-limits while idle capacity is available to whoever bursts
/// first. The `MTU_FRAME` floor keeps a nearly-full pool from refusing an
/// empty port its first frame (see the private `floor`). The threshold
/// is computed in `f64` and truncated, byte-for-byte the arithmetic the
/// switch has always used — the default configuration must leave every
/// figure byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct DynamicThreshold {
    /// A port may hold up to `alpha ×` the free pool.
    pub alpha: f64,
}

impl BufferPolicy for DynamicThreshold {
    fn admit(&self, port: usize, size: u64, held: &[u64], buffered: u64, pool: u64) -> bool {
        let free = pool - buffered;
        let threshold = (self.alpha * free as f64) as u64;
        held[port] + size <= floor(threshold)
    }
}

/// Hard static partition: the pool is carved into `ports` equal slices up
/// front and no port may exceed its slice, no matter how idle the rest of
/// the switch is. The classic pre-shared-buffer baseline: predictable
/// isolation, terrible pool utilization — a single fan-in hotspot hits
/// its slice while most of the buffer sits empty, so it drops earliest of
/// all the policies here.
#[derive(Debug, Clone, Copy)]
pub struct StaticPartition {
    /// Number of slices the pool is carved into.
    pub ports: u64,
}

impl BufferPolicy for StaticPartition {
    fn admit(&self, port: usize, size: u64, held: &[u64], _buffered: u64, pool: u64) -> bool {
        held[port] + size <= floor(pool / self.ports)
    }
}

/// Delay-driven sharing (BShare): instead of carving bytes, bound the
/// *time* a queue represents. A port may hold at most `target_delay ×
/// drain_bps` bytes — the backlog its own line rate clears within the
/// target delay — so worst-case queuing delay is bounded by construction
/// and p99 occupancy stays low, at the cost of refusing bursts a
/// byte-carving policy would have absorbed. The cap is derived once at
/// switch construction (both parameters are config), keeping the verdict
/// a pure function of admission-time state.
#[derive(Debug, Clone, Copy)]
pub struct BShare {
    /// Per-port byte cap: `target_delay × drain rate`.
    pub cap_bytes: u64,
}

impl BufferPolicy for BShare {
    fn admit(&self, port: usize, size: u64, held: &[u64], _buffered: u64, _pool: u64) -> bool {
        held[port] + size <= floor(self.cap_bytes)
    }
}

/// Flexible buffering (FB): every port owns a reserved floor of
/// `reserved_bytes`; beyond its floor a port draws on the shared
/// remainder (`pool - ports × reserved`), to which ports have priority
/// access only up to what the other ports' overdrafts have left. Within
/// its reserve a port is admitted regardless of shared-pool pressure —
/// the isolation guarantee — while the shared remainder gives hot ports
/// dynamic headroom up to a globally-accounted bound.
///
/// The shared-usage aggregate (`buffered - Σ min(held_p, reserved)`) is
/// recomputed from the held array at each admission rather than cached —
/// O(ports) on a dense array the admission path already owns — so the
/// verdict is a pure function of admission-time state and the hybrid
/// engine reproduces it exactly (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct FlexibleBuffering {
    /// Bytes guaranteed per port.
    pub reserved_bytes: u64,
}

impl BufferPolicy for FlexibleBuffering {
    fn admit(&self, port: usize, size: u64, held: &[u64], buffered: u64, pool: u64) -> bool {
        let reserved = self.reserved_bytes;
        if held[port] + size <= floor(reserved) {
            return true; // within the port's own floor
        }
        let reserved_held: u64 = held.iter().map(|&h| h.min(reserved)).sum();
        let shared_used = buffered - reserved_held;
        let shared_pool = pool.saturating_sub(reserved * held.len() as u64);
        shared_used + size <= shared_pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MTU: u64 = MTU_FRAME as u64;

    #[test]
    fn dt_matches_legacy_arithmetic() {
        // The exact float-then-truncate computation the switch always
        // used, including the one-MTU floor.
        let p = DynamicThreshold { alpha: 0.5 };
        let held = [0u64, 4_000];
        // free = 6_000, threshold = 3_000 but floored to one MTU.
        assert!(p.admit(0, MTU, &held, 4_000, 10_000));
        assert!(!p.admit(1, 2_000, &held, 4_000, 10_000));
    }

    #[test]
    fn static_partition_ignores_idle_pool() {
        let p = StaticPartition { ports: 4 };
        let held = [30_000u64, 0, 0, 0];
        // Slice = 25_000: port 0 is over its carve even though the pool
        // is three-quarters empty.
        assert!(!p.admit(0, 1_000, &held, 30_000, 100_000));
        assert!(p.admit(1, 20_000, &held, 30_000, 100_000));
        // The slice is inclusive: a frame that fills it exactly is
        // admitted, one byte more is refused.
        let held = [24_000u64, 0, 0, 0];
        assert!(p.admit(0, 1_000, &held, 24_000, 100_000));
        assert!(!p.admit(0, 1_001, &held, 24_000, 100_000));
    }

    #[test]
    fn bshare_caps_at_delay_times_rate() {
        // 100 µs at 10 Gbit/s = 125_000 bytes.
        let cfg = BufferPolicyCfg::BShare {
            target_delay: Nanos::from_micros(100),
            drain_bps: 10_000_000_000,
        };
        let p = cfg.build(2);
        let held = [124_000u64, 0];
        assert!(p.admit(0, 1_000, &held, 124_000, 10 << 20));
        assert!(!p.admit(0, 2_000, &held, 124_000, 10 << 20));
    }

    #[test]
    fn fb_reserves_floor_and_accounts_shared() {
        let p = FlexibleBuffering {
            reserved_bytes: 10_000,
        };
        // Pool 40_000, 2 ports => shared remainder 20_000.
        // Port 1 holds 25_000 (overdraft 15_000 of shared).
        let held = [0u64, 25_000];
        // Port 0 is within its floor: admitted regardless of pressure.
        assert!(p.admit(0, 8_000, &held, 25_000, 40_000));
        // Beyond the floor, only 5_000 of shared remains.
        let held = [9_000u64, 25_000];
        assert!(p.admit(0, 5_000, &held, 34_000, 40_000));
        assert!(!p.admit(0, 7_000, &held, 34_000, 40_000));
    }

    #[test]
    fn every_policy_honours_the_mtu_floor() {
        // A port with an empty queue may always take one frame, however
        // tight the carve (the switch separately enforces the pool bound).
        let held = vec![0u64; 64];
        let nearly_full = 64 * MTU - 1;
        let pool = 64 * MTU + MTU;
        let policies: Vec<Box<dyn BufferPolicy>> = vec![
            BufferPolicyCfg::dt(0.001).build(64),
            BufferPolicyCfg::StaticPartition.build(64),
            BufferPolicyCfg::BShare {
                target_delay: Nanos(1),
                drain_bps: 8,
            }
            .build(64),
            BufferPolicyCfg::FlexibleBuffering { reserved_bytes: 1 }.build(64),
        ];
        for p in &policies {
            assert!(p.admit(0, MTU, &held, nearly_full, pool));
        }
    }

    #[test]
    fn cfg_labels_and_validation() {
        assert!(BufferPolicyCfg::dt(0.5).is_valid());
        assert!(!BufferPolicyCfg::dt(0.0).is_valid());
        assert!(!BufferPolicyCfg::BShare {
            target_delay: Nanos(0),
            drain_bps: 1,
        }
        .is_valid());
        assert!(!BufferPolicyCfg::FlexibleBuffering { reserved_bytes: 0 }.is_valid());
        assert_eq!(BufferPolicyCfg::dt(0.5).label(), "DT(a=0.5)");
        assert_eq!(
            BufferPolicyCfg::FlexibleBuffering {
                reserved_bytes: 32 << 10
            }
            .label(),
            "FB(r=32KB)"
        );
    }
}
