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
use crate::scenario::HadoopParams;

const TOKEN_WAVE: u64 = 1;
const TOKEN_BACKGROUND: u64 = 2;

/// One Hadoop worker (mapper + reducer + HDFS node in one).
pub struct HadoopApp {
    /// The tuning at this worker's rate factor: `wave_period` stretched
    /// and `background_rate_per_host` multiplied by it.
    p: HadoopParams,
    /// Rack-local peers (reduce targets live here).
    rack_nodes: Vec<NodeId>,
    /// Remote peers (cross-rack shuffle / HDFS replication targets).
    remote_nodes: Vec<NodeId>,
    /// Shared seed all hosts derive the wave schedule from.
    schedule_seed: u64,
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
    /// A worker tuned by `p` at `rate_factor`, shuffling within
    /// `rack_nodes` and out to `remote_nodes` on the wave schedule every
    /// host derives from `schedule_seed`. Waves are rate-scaled by
    /// stretching the period, background traffic by its Poisson rate:
    /// [`HadoopParams::offered_bytes_per_host`] is the closed form.
    pub fn new(
        p: &HadoopParams,
        rate_factor: f64,
        rack_nodes: Vec<NodeId>,
        remote_nodes: Vec<NodeId>,
        schedule_seed: u64,
    ) -> Self {
        assert!(!rack_nodes.is_empty(), "no rack peers");
        assert!(p.reducers_per_wave >= 1);
        assert!(p.reducers_per_wave <= rack_nodes.len());
        HadoopApp {
            p: HadoopParams {
                wave_period: Nanos::from_secs_f64(p.wave_period.as_secs_f64() / rate_factor),
                background_rate_per_host: p.background_rate_per_host * rate_factor,
                ..p.clone()
            },
            rack_nodes,
            remote_nodes,
            schedule_seed,
            wave_index: 0,
            transfers_started: 0,
            bytes_received: 0,
        }
    }

    /// When wave `k` fires (same for every host): `k * period` plus a
    /// deterministic jitter of up to a quarter period.
    fn wave_time(&self, k: u64) -> Nanos {
        let base = self.p.wave_period * k;
        let jitter = mix(self.schedule_seed ^ k) % (self.p.wave_period.as_nanos() / 4 + 1);
        base + Nanos(jitter)
    }

    /// The reducers of wave `k` (indices into `rack_nodes`), identical on
    /// every host.
    fn wave_reducers(&self, k: u64) -> Vec<usize> {
        let n = self.rack_nodes.len();
        let mut picked = Vec::with_capacity(self.p.reducers_per_wave);
        let mut salt = 0u64;
        while picked.len() < self.p.reducers_per_wave {
            let idx = (mix(self.schedule_seed ^ (k << 8) ^ salt) % n as u64) as usize;
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
        if self.p.background_rate_per_host <= 0.0 {
            return;
        }
        let gap = env.rng.exp(1.0 / self.p.background_rate_per_host);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_BACKGROUND);
    }

    fn run_wave(&mut self, env: &mut Env<'_, '_>) {
        let k = self.wave_index;
        self.wave_index += 1;
        if env.rng.chance(self.p.join_prob) {
            let remote = !self.remote_nodes.is_empty() && env.rng.chance(self.p.remote_wave_prob);
            let dst = if remote {
                // Cross-rack shuffle: this wave's output leaves the rack.
                *env.rng.pick(&self.remote_nodes)
            } else {
                // In-rack reduce: ship to one of this wave's reducers.
                let reducers = self.wave_reducers(k);
                let idx = reducers[env.rng.below(reducers.len() as u64) as usize];
                self.rack_nodes[idx]
            };
            if dst != env.host() {
                let bytes = self.p.transfer.sample(env.rng);
                env.send_data(dst, bytes, k as u32);
                self.transfers_started += 1;
            }
        }
        self.schedule_wave(env, self.wave_index);
    }

    fn run_background(&mut self, env: &mut Env<'_, '_>) {
        let remote = !self.remote_nodes.is_empty() && env.rng.chance(self.p.background_remote_prob);
        let dst = if remote {
            *env.rng.pick(&self.remote_nodes)
        } else {
            *env.rng.pick(&self.rack_nodes)
        };
        if dst != env.host() {
            let bytes = self.p.background.sample(env.rng);
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
        let mut k = now / self.p.wave_period;
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
    use crate::host::{AppHost, IdleApp};
    use crate::web::SizeDist;
    use uburst_sim::counters::null_sink;
    use uburst_sim::link::LinkSpec;
    use uburst_sim::nic::NicConfig;
    use uburst_sim::node::PortId;
    use uburst_sim::routing::{Route, RoutingTable};
    use uburst_sim::sim::Simulator;
    use uburst_sim::switch::{Switch, SwitchConfig};
    use uburst_sim::transport::TransportConfig;

    const SCHEDULE_SEED: u64 = 0x4A0B;

    fn test_params() -> HadoopParams {
        HadoopParams {
            wave_period: Nanos::from_millis(2),
            join_prob: 0.9,
            reducers_per_wave: 2,
            transfer: SizeDist {
                median: 100_000,
                sigma: 0.5,
                cap: 1_000_000,
            },
            background_rate_per_host: 100.0,
            ..HadoopParams::default()
        }
    }

    fn worker(p: &HadoopParams, rack: Vec<NodeId>) -> HadoopApp {
        HadoopApp::new(p, 1.0, rack, Vec::new(), SCHEDULE_SEED)
    }

    /// `n` workers tuned by `p` at `rate_factor`, one rack on one switch.
    fn star_cluster(p: &HadoopParams, rate_factor: f64, n: u64) -> (Simulator, Vec<NodeId>) {
        let mut sim = Simulator::new();
        // Spawn idle, then install the workers once every peer id exists.
        let hosts: Vec<NodeId> = (0..n)
            .map(|i| {
                AppHost::spawn(
                    &mut sim,
                    Box::new(IdleApp),
                    NicConfig::default(),
                    TransportConfig::default(),
                    40 + i,
                    Nanos::from_micros(i * 10),
                )
            })
            .collect();
        for &h in &hosts {
            let app = HadoopApp::new(p, rate_factor, hosts.clone(), Vec::new(), SCHEDULE_SEED);
            sim.node_mut::<AppHost>(h).set_app(Box::new(app));
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
        (sim, hosts)
    }

    #[test]
    fn wave_schedule_is_identical_across_hosts() {
        let rack = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let a = worker(&test_params(), rack.clone());
        let b = worker(&test_params(), rack);
        for k in 0..100 {
            assert_eq!(a.wave_time(k), b.wave_time(k));
            assert_eq!(a.wave_reducers(k), b.wave_reducers(k));
        }
    }

    #[test]
    fn wave_reducers_are_distinct_and_vary() {
        let rack: Vec<NodeId> = (0..8).map(NodeId).collect();
        let app = worker(&test_params(), rack);
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
        let p = HadoopParams {
            reducers_per_wave: 1,
            ..test_params()
        };
        let app = worker(&p, rack);
        for k in 0..100 {
            assert!(app.wave_time(k + 1) > app.wave_time(k));
        }
    }

    #[test]
    fn analytic_offered_rate_matches_sampled_means() {
        let p = test_params();
        // Empirical mean of the transfer distribution vs the closed form.
        let mut rng = uburst_sim::rng::Rng::new(7);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| p.transfer.sample(&mut rng)).sum();
        let empirical = sum as f64 / n as f64;
        let analytic = p.transfer.mean_bytes();
        let err = (empirical - analytic).abs() / analytic;
        assert!(
            err < 0.05,
            "transfer mean: empirical {empirical:.0} vs analytic {analytic:.0}"
        );

        // The closed form against the bytes a rack's workers move over a
        // long window, at a rate factor that stretches the waves tenfold.
        let (factor, hosts, secs) = (0.1, 6u64, 2.0);
        let (mut sim, rack) = star_cluster(&p, factor, hosts);
        sim.run_until(Nanos::from_secs_f64(secs));
        let moved: u64 = rack
            .iter()
            .flat_map(|&h| sim.node::<AppHost>(h).fcts())
            .map(|r| r.bytes)
            .sum();
        let offered = p.offered_bytes_per_host(factor) * hosts as f64 * secs;
        // σ of the bytes started: per host, waves are independent
        // Bernoulli(join_prob) draws of one transfer, background flows a
        // compound Poisson process. The uncapped lognormal second moment
        // `median²·e^{2σ²}` bounds each capped one, so σ errs high.
        let second = |d: SizeDist| (d.median as f64).powi(2) * (2.0 * d.sigma * d.sigma).exp();
        let waves = secs * factor / p.wave_period.as_secs_f64();
        let wave_var = waves
            * (p.join_prob * second(p.transfer) - (p.join_prob * p.transfer.mean_bytes()).powi(2));
        let background_var = p.background_rate_per_host * factor * secs * second(p.background);
        let sigma = ((wave_var + background_var) * hosts as f64).sqrt();
        // One-sided: a worker skips every draw addressed to itself, which
        // the closed form ignores, so it bounds from above. A draw is
        // self-addressed with probability 1/hosts (a uniform rack peer, or
        // a wave's reducer), so the bytes expected are that much lower.
        assert!(
            moved as f64 <= offered,
            "moved {moved} bytes, above the closed form {offered:.0}"
        );
        let expected = offered * (1.0 - 1.0 / hosts as f64);
        assert!(
            (moved as f64 - expected).abs() <= 4.0 * sigma,
            "moved {moved} bytes, expected {expected:.0} ± 4σ ({sigma:.0})"
        );
    }

    #[test]
    fn cluster_moves_bytes() {
        let (mut sim, hosts) = star_cluster(&test_params(), 1.0, 6);
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
}
