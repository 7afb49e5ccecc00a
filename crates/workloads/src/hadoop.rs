//! The Hadoop rack workload.
//!
//! §4.2: "Hadoop servers are used for offline analysis and data mining" —
//! not on the interactive path. The properties the paper measures:
//!
//! * **high utilization with full-MTU packets** (Figs. 5, 6): shuffle and
//!   HDFS transfers are bulk flows;
//! * the **longest bursts** of the three rack types, but still almost all
//!   under 0.5 ms (Fig. 3) — window-limited transport fragments even long
//!   transfers into line-rate trains separated by ACK stalls;
//! * **modest cross-server correlation** (Fig. 8c): map waves put several
//!   servers to work at roughly the same time;
//! * **server-directed bursts** (Fig. 9): reducers fan in from many
//!   mappers ("for these racks, bursts tend to be a result of high fan-in").
//!
//! The wave structure is derived deterministically from a shared seed so
//! every host computes the same schedule without coordination — a stand-in
//! for the job tracker.

use uburst_sim::node::NodeId;
use uburst_sim::rng::{mix64, GOLDEN_GAMMA};
use uburst_sim::time::Nanos;

use crate::host::{App, Env, Incoming};
use crate::web::SizeDist;

/// Hadoop host tuning.
#[derive(Debug, Clone)]
pub struct HadoopConfig {
    /// Rack-local peers (reduce targets live here).
    pub rack_nodes: Vec<NodeId>,
    /// Remote peers (cross-rack shuffle / HDFS replication targets).
    pub remote_nodes: Vec<NodeId>,
    /// Mean spacing between map waves.
    pub wave_period: Nanos,
    /// Probability this host participates in a given wave.
    pub join_prob: f64,
    /// Reducers drawn per wave from `rack_nodes`.
    pub reducers_per_wave: usize,
    /// Shuffle transfer size per mapper per wave.
    pub transfer: SizeDist,
    /// Independent background transfers per second (HDFS writes, spills).
    pub background_rate_per_s: f64,
    /// Background transfer size.
    pub background: SizeDist,
    /// Probability a background transfer leaves the rack.
    pub background_remote_prob: f64,
    /// Probability a wave transfer ships cross-rack (remote shuffle /
    /// replication) instead of to this wave's in-rack reducers.
    pub remote_wave_prob: f64,
    /// Shared seed all hosts derive the wave schedule from.
    pub schedule_seed: u64,
}

impl Default for HadoopConfig {
    fn default() -> Self {
        HadoopConfig {
            rack_nodes: Vec::new(),
            remote_nodes: Vec::new(),
            wave_period: Nanos::from_millis(8),
            join_prob: 0.55,
            reducers_per_wave: 3,
            transfer: SizeDist {
                median: 600_000,
                sigma: 1.0,
                cap: 20_000_000,
            },
            background_rate_per_s: 40.0,
            background: SizeDist {
                median: 250_000,
                sigma: 1.0,
                cap: 5_000_000,
            },
            background_remote_prob: 0.5,
            remote_wave_prob: 0.25,
            schedule_seed: 0x4A0B,
        }
    }
}

impl HadoopConfig {
    /// Analytic per-host offered rate in bytes/sec, from the closed-form
    /// means of the wave and background processes:
    ///
    /// * waves fire every `wave_period` and this host joins with
    ///   `join_prob`, shipping one `transfer`-distributed flow;
    /// * background flows arrive Poisson at `background_rate_per_s`.
    ///
    /// This is steady-state metadata for the hybrid fast-forward engine
    /// (`uburst_sim::txstage`): scenario builders use it to pre-size the
    /// event calendar for the in-flight packet population instead of
    /// growing through the doubling phase mid-campaign. It deliberately
    /// ignores self-addressed draws (a host never sends to itself), so it
    /// is a slight upper bound.
    pub fn offered_bytes_per_sec(&self) -> f64 {
        let wave = self.join_prob / self.wave_period.as_secs_f64() * self.transfer.mean_bytes();
        let background = self.background_rate_per_s * self.background.mean_bytes();
        wave + background
    }
}

const TOKEN_WAVE: u64 = 1;
const TOKEN_BACKGROUND: u64 = 2;

/// One Hadoop worker (mapper + reducer + HDFS node in one).
pub struct HadoopApp {
    cfg: HadoopConfig,
    wave_index: u64,
    /// Shuffle transfers started (diagnostics).
    pub transfers_started: u64,
    /// Bytes of completed incoming transfers (diagnostics).
    pub bytes_received: u64,
}

/// One SplitMix64 step, deriving per-wave pseudo-randomness that every
/// host agrees on.
fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

impl HadoopApp {
    /// A worker with the given tuning.
    pub fn new(cfg: HadoopConfig) -> Self {
        assert!(!cfg.rack_nodes.is_empty(), "no rack peers");
        assert!(cfg.reducers_per_wave >= 1);
        assert!(cfg.reducers_per_wave <= cfg.rack_nodes.len());
        HadoopApp {
            cfg,
            wave_index: 0,
            transfers_started: 0,
            bytes_received: 0,
        }
    }

    /// When wave `k` fires (same for every host): `k * period` plus a
    /// deterministic jitter of up to a quarter period.
    fn wave_time(&self, k: u64) -> Nanos {
        let base = self.cfg.wave_period * k;
        let jitter = mix(self.cfg.schedule_seed ^ k) % (self.cfg.wave_period.as_nanos() / 4 + 1);
        base + Nanos(jitter)
    }

    /// The reducers of wave `k` (indices into `rack_nodes`), identical on
    /// every host.
    fn wave_reducers(&self, k: u64) -> Vec<usize> {
        let n = self.cfg.rack_nodes.len();
        let mut picked = Vec::with_capacity(self.cfg.reducers_per_wave);
        let mut salt = 0u64;
        while picked.len() < self.cfg.reducers_per_wave {
            let idx = (mix(self.cfg.schedule_seed ^ (k << 8) ^ salt) % n as u64) as usize;
            if !picked.contains(&idx) {
                picked.push(idx);
            }
            salt += 1;
        }
        picked
    }

    fn schedule_wave(&self, env: &mut Env<'_, '_>, k: u64) {
        let at = self.wave_time(k);
        let now = env.now();
        let delay = at.saturating_sub(now).max(Nanos(1));
        env.timer_in(delay, TOKEN_WAVE);
    }

    fn schedule_background(&self, env: &mut Env<'_, '_>) {
        if self.cfg.background_rate_per_s <= 0.0 {
            return;
        }
        let gap = env.rng.exp(1.0 / self.cfg.background_rate_per_s);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_BACKGROUND);
    }

    fn run_wave(&mut self, env: &mut Env<'_, '_>) {
        let k = self.wave_index;
        self.wave_index += 1;
        if env.rng.chance(self.cfg.join_prob) {
            let remote =
                !self.cfg.remote_nodes.is_empty() && env.rng.chance(self.cfg.remote_wave_prob);
            let dst = if remote {
                // Cross-rack shuffle: this wave's output leaves the rack.
                *env.rng.pick(&self.cfg.remote_nodes)
            } else {
                // In-rack reduce: ship to one of this wave's reducers.
                let reducers = self.wave_reducers(k);
                let idx = reducers[env.rng.below(reducers.len() as u64) as usize];
                self.cfg.rack_nodes[idx]
            };
            if dst != env.host() {
                let bytes = self.cfg.transfer.sample(env.rng);
                env.send_data(dst, bytes, k as u32);
                self.transfers_started += 1;
            }
        }
        self.schedule_wave(env, self.wave_index);
    }

    fn run_background(&mut self, env: &mut Env<'_, '_>) {
        let remote =
            !self.cfg.remote_nodes.is_empty() && env.rng.chance(self.cfg.background_remote_prob);
        let dst = if remote {
            *env.rng.pick(&self.cfg.remote_nodes)
        } else {
            *env.rng.pick(&self.cfg.rack_nodes)
        };
        if dst != env.host() {
            let bytes = self.cfg.background.sample(env.rng);
            env.send_data(dst, bytes, 0);
            self.transfers_started += 1;
        }
        self.schedule_background(env);
    }
}

impl App for HadoopApp {
    fn start(&mut self, env: &mut Env<'_, '_>) {
        // Wave schedule is absolute; figure out which wave is next.
        let now = env.now();
        let mut k = now / self.cfg.wave_period;
        while self.wave_time(k) < now {
            k += 1;
        }
        self.wave_index = k;
        self.schedule_wave(env, k);
        self.schedule_background(env);
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>, token: u64) {
        match token {
            TOKEN_WAVE => self.run_wave(env),
            TOKEN_BACKGROUND => self.run_background(env),
            other => debug_assert!(false, "unknown hadoop token {other}"),
        }
    }

    fn on_flow_received(&mut self, _env: &mut Env<'_, '_>, msg: Incoming) {
        self.bytes_received += msg.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::AppHost;
    use uburst_sim::counters::null_sink;
    use uburst_sim::link::LinkSpec;
    use uburst_sim::nic::NicConfig;
    use uburst_sim::node::PortId;
    use uburst_sim::routing::{Route, RoutingTable};
    use uburst_sim::sim::Simulator;
    use uburst_sim::switch::{Switch, SwitchConfig};
    use uburst_sim::transport::TransportConfig;

    fn test_cfg(rack: Vec<NodeId>) -> HadoopConfig {
        HadoopConfig {
            rack_nodes: rack,
            remote_nodes: Vec::new(),
            wave_period: Nanos::from_millis(2),
            join_prob: 0.9,
            reducers_per_wave: 2,
            transfer: SizeDist {
                median: 100_000,
                sigma: 0.5,
                cap: 1_000_000,
            },
            background_rate_per_s: 100.0,
            ..HadoopConfig::default()
        }
    }

    #[test]
    fn wave_schedule_is_identical_across_hosts() {
        let rack = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let a = HadoopApp::new(test_cfg(rack.clone()));
        let b = HadoopApp::new(test_cfg(rack));
        for k in 0..100 {
            assert_eq!(a.wave_time(k), b.wave_time(k));
            assert_eq!(a.wave_reducers(k), b.wave_reducers(k));
        }
    }

    #[test]
    fn wave_reducers_are_distinct_and_vary() {
        let rack: Vec<NodeId> = (0..8).map(NodeId).collect();
        let app = HadoopApp::new(test_cfg(rack));
        let mut seen = std::collections::HashSet::new();
        for k in 0..50 {
            let r = app.wave_reducers(k);
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1]);
            seen.insert(r);
        }
        assert!(seen.len() > 10, "reducer sets should vary across waves");
    }

    #[test]
    fn waves_are_monotone_in_time() {
        let rack = vec![NodeId(0), NodeId(1)];
        let app = HadoopApp::new(HadoopConfig {
            reducers_per_wave: 1,
            ..test_cfg(rack)
        });
        for k in 0..100 {
            assert!(app.wave_time(k + 1) > app.wave_time(k));
        }
    }

    #[test]
    fn analytic_offered_rate_matches_sampled_means() {
        let cfg = test_cfg(vec![NodeId(0), NodeId(1)]);
        // Empirical mean of the transfer distribution vs the closed form.
        let mut rng = uburst_sim::rng::Rng::new(7);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| cfg.transfer.sample(&mut rng)).sum();
        let empirical = sum as f64 / n as f64;
        let analytic = cfg.transfer.mean_bytes();
        let err = (empirical - analytic).abs() / analytic;
        assert!(
            err < 0.05,
            "transfer mean: empirical {empirical:.0} vs analytic {analytic:.0}"
        );

        // The offered rate is exactly the two-process composition.
        let expect = cfg.join_prob / cfg.wave_period.as_secs_f64() * cfg.transfer.mean_bytes()
            + cfg.background_rate_per_s * cfg.background.mean_bytes();
        assert_eq!(cfg.offered_bytes_per_sec(), expect);
        // Sanity: the default test tuning offers on the order of a few
        // tens of MB/s per host — enough to congest a 10G link rack-wide.
        assert!(cfg.offered_bytes_per_sec() > 10e6);
    }

    #[test]
    fn cluster_moves_bytes() {
        let mut sim = Simulator::new();
        let rack_size = 6;
        // Create hosts with placeholder configs, then fix the peer lists.
        let hosts: Vec<NodeId> = (0..rack_size)
            .map(|i| {
                AppHost::spawn(
                    &mut sim,
                    Box::new(HadoopApp::new(test_cfg(vec![NodeId(998), NodeId(999)]))),
                    NicConfig::default(),
                    TransportConfig::default(),
                    40 + i,
                    Nanos::from_micros(i * 10),
                )
            })
            .collect();
        for &h in &hosts {
            let cfg = test_cfg(hosts.clone());
            let app: &mut HadoopApp = {
                let host = sim.node_mut::<AppHost>(h);
                // Reach into the app to swap the config before start fires.
                (host_app_mut(host)) as _
            };
            app.cfg = cfg;
        }

        let mut routing = RoutingTable::new(0);
        for (i, &h) in hosts.iter().enumerate() {
            routing.set_route(h, Route::Port(PortId(i as u16)));
        }
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig::default(),
            routing,
            null_sink(),
        )));
        for (i, &h) in hosts.iter().enumerate() {
            sim.connect(
                (h, PortId(0)),
                (sw, PortId(i as u16)),
                LinkSpec::gbps(10.0, Nanos(500)),
            );
        }

        sim.run_until(Nanos::from_millis(60));

        let started: u64 = hosts
            .iter()
            .map(|&h| sim.node::<AppHost>(h).app::<HadoopApp>().transfers_started)
            .sum();
        let received: u64 = hosts
            .iter()
            .map(|&h| sim.node::<AppHost>(h).app::<HadoopApp>().bytes_received)
            .sum();
        assert!(started > 20, "only {started} transfers started");
        assert!(received > 5_000_000, "only {received} bytes moved in 60ms");
    }

    /// Test helper: mutable access to a host's HadoopApp before start.
    fn host_app_mut(host: &mut AppHost) -> &mut HadoopApp {
        host.app_mut::<HadoopApp>()
    }
}
