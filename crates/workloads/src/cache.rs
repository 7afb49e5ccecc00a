//! The Cache rack workload.
//!
//! §4.2: "Cache: These servers serve as an in-memory cache of data used by
//! the web servers. Some of these servers are leaders, which handle cache
//! coherency, and some are followers, which serve most read requests."
//! The properties the paper measures:
//!
//! * **correlated server subsets** (Fig. 8b): "their requests are initiated
//!   in groups from web servers ... those subsets are potentially involved
//!   in the same scatter-gather requests" — here made explicit as *pods*
//!   that a scatter-gather request targets together;
//! * **uplink-directed bursts** (Fig. 9): "cache responses are typically
//!   much larger than the requests. Thus, Cache servers will almost always
//!   send more traffic than they receive. Combined with modest
//!   oversubscription at the ToR layer, the communication bottleneck for
//!   these racks lies in their ToRs' uplinks";
//! * longer bursts than Web, shorter than Hadoop (Fig. 3).
//!
//! The cache servers themselves are [`ResponderApp`](crate::responder::ResponderApp)s;
//! this module provides [`CacheFrontendApp`], the remote web tier issuing
//! scatter-gather reads, plus leader-bound coherency writes.

use uburst_sim::node::NodeId;
use uburst_sim::time::Nanos;

use crate::host::{App, Env, Incoming};
use crate::tags::MsgKind;
use crate::web::SizeDist;

/// Frontend tuning.
#[derive(Debug, Clone)]
pub struct CacheFrontendConfig {
    /// The measured rack's cache servers, in rack order.
    pub cache_nodes: Vec<NodeId>,
    /// Correlated pods: index sets into `cache_nodes`. A scatter-gather
    /// request targets one pod (the shards of one data set).
    pub pods: Vec<Vec<usize>>,
    /// Scatter-gather groups per second from this frontend
    /// (diurnal-scaled by the scenario builder).
    pub rate_per_s: f64,
    /// Probability each pod member is actually queried per group
    /// (sharding misses / request-dependent key sets).
    pub member_prob: f64,
    /// Request size, sampled **once per group** and shared by all members
    /// (a multiget's key list goes to every shard), which is part of what
    /// correlates pod members at small timescales.
    pub req: SizeDist,
    /// Per-shard response size. Cache responses dwarf requests.
    pub resp: SizeDist,
    /// Cache servers (indices) acting as leaders, receiving coherency
    /// writes.
    pub leaders: Vec<usize>,
    /// Coherency writes per second toward a random leader.
    pub write_rate_per_s: f64,
    /// Coherency write size.
    pub write: SizeDist,
    /// Scatter-gather groups per frontend event, uniform in `[min, max]`.
    /// Page assembly issues dependent lookup rounds back-to-back, so groups
    /// arrive in micro-trains; the paper's Cache burst likelihood ratio
    /// (Table 2) reflects exactly this clustering.
    pub train: (usize, usize),
    /// Mean spacing between groups within a train.
    pub train_gap: Nanos,
}

impl Default for CacheFrontendConfig {
    fn default() -> Self {
        CacheFrontendConfig {
            cache_nodes: Vec::new(),
            pods: Vec::new(),
            rate_per_s: 500.0,
            member_prob: 0.9,
            req: SizeDist {
                median: 600,
                sigma: 1.0,
                cap: 20_000,
            },
            resp: SizeDist {
                median: 12_000,
                sigma: 1.2,
                cap: 300_000,
            },
            leaders: Vec::new(),
            write_rate_per_s: 50.0,
            write: SizeDist {
                median: 2_000,
                sigma: 0.8,
                cap: 50_000,
            },
            train: (1, 5),
            train_gap: Nanos::from_micros(60),
        }
    }
}

const TOKEN_NEXT_READ: u64 = 1;
const TOKEN_NEXT_WRITE: u64 = 2;
const TOKEN_TRAIN: u64 = 3;

/// A remote web frontend driving the cache rack.
pub struct CacheFrontendApp {
    cfg: CacheFrontendConfig,
    next_group: u32,
    /// Groups left in the in-progress train and its pod.
    train_left: usize,
    train_pod: usize,
    /// Scatter-gather groups issued (diagnostics).
    pub groups_sent: u64,
    /// Shard responses received (diagnostics).
    pub responses_received: u64,
}

impl CacheFrontendApp {
    /// A frontend with the given tuning.
    pub fn new(cfg: CacheFrontendConfig) -> Self {
        assert!(!cfg.cache_nodes.is_empty(), "no cache servers");
        assert!(!cfg.pods.is_empty(), "no pods defined");
        for pod in &cfg.pods {
            assert!(
                pod.iter().all(|&i| i < cfg.cache_nodes.len()),
                "pod index out of range"
            );
            assert!(!pod.is_empty(), "empty pod");
        }
        assert!(cfg.leaders.iter().all(|&i| i < cfg.cache_nodes.len()));
        assert!(cfg.train.0 >= 1 && cfg.train.0 <= cfg.train.1);
        CacheFrontendApp {
            cfg,
            next_group: 0,
            train_left: 0,
            train_pod: 0,
            groups_sent: 0,
            responses_received: 0,
        }
    }

    fn mean_train(&self) -> f64 {
        (self.cfg.train.0 + self.cfg.train.1) as f64 / 2.0
    }

    fn schedule_read(&self, env: &mut Env<'_, '_>) {
        // Event rate = group rate / groups per event.
        let event_rate = self.cfg.rate_per_s / self.mean_train();
        let gap = env.rng.exp(1.0 / event_rate);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_NEXT_READ);
    }

    fn continue_train(&mut self, env: &mut Env<'_, '_>) {
        if self.train_left == 0 {
            self.schedule_read(env);
            return;
        }
        let gap = env.rng.exp(self.cfg.train_gap.as_secs_f64());
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_TRAIN);
    }

    fn schedule_write(&self, env: &mut Env<'_, '_>) {
        if self.cfg.leaders.is_empty() || self.cfg.write_rate_per_s <= 0.0 {
            return;
        }
        let gap = env.rng.exp(1.0 / self.cfg.write_rate_per_s);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_NEXT_WRITE);
    }

    fn issue_scatter_gather(&mut self, env: &mut Env<'_, '_>, pod_idx: usize) {
        let group = self.next_group;
        self.next_group = self.next_group.wrapping_add(1);
        // Indexing a field while mutably borrowing env: copy the pod out.
        let pod: Vec<usize> = self.cfg.pods[pod_idx].clone();
        // The multiget's key list is the same for every shard.
        let req_bytes = self.cfg.req.sample(env.rng);
        let mut any = false;
        for &member in &pod {
            if env.rng.chance(self.cfg.member_prob) {
                let bytes = self.cfg.resp.sample(env.rng);
                env.send_request_sized(self.cfg.cache_nodes[member], req_bytes, bytes, group);
                any = true;
            }
        }
        if !any {
            // Guarantee at least one shard read per group.
            let member = pod[env.rng.below(pod.len() as u64) as usize];
            let bytes = self.cfg.resp.sample(env.rng);
            env.send_request_sized(self.cfg.cache_nodes[member], req_bytes, bytes, group);
        }
        self.groups_sent += 1;
    }
}

impl App for CacheFrontendApp {
    fn start(&mut self, env: &mut Env<'_, '_>) {
        self.schedule_read(env);
        self.schedule_write(env);
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>, token: u64) {
        match token {
            TOKEN_NEXT_READ => {
                // A new train: all its lookup rounds hit the same pod
                // (dependent reads of one data set).
                let len = env
                    .rng
                    .range(self.cfg.train.0 as u64, self.cfg.train.1 as u64)
                    as usize;
                self.train_pod = env.rng.below(self.cfg.pods.len() as u64) as usize;
                self.train_left = len - 1;
                let pod = self.train_pod;
                self.issue_scatter_gather(env, pod);
                self.continue_train(env);
            }
            TOKEN_TRAIN => {
                self.train_left -= 1;
                let pod = self.train_pod;
                self.issue_scatter_gather(env, pod);
                self.continue_train(env);
            }
            TOKEN_NEXT_WRITE => {
                let leader_idx = *env.rng.pick(&self.cfg.leaders);
                let dst = self.cfg.cache_nodes[leader_idx];
                let bytes = self.cfg.write.sample(env.rng);
                env.send_data(dst, bytes, 0);
                self.schedule_write(env);
            }
            other => debug_assert!(false, "unknown frontend token {other}"),
        }
    }

    fn on_flow_received(&mut self, _env: &mut Env<'_, '_>, msg: Incoming) {
        if msg.kind == MsgKind::Response {
            self.responses_received += 1;
        }
    }
}

/// Partitions `n` servers into contiguous pods of size `pod_size` (last pod
/// takes the remainder). The contiguity is irrelevant to the network — it
/// just makes Fig. 8's block structure visible on the heatmap diagonal.
pub fn contiguous_pods(n: usize, pod_size: usize) -> Vec<Vec<usize>> {
    assert!(pod_size >= 1);
    (0..n)
        .collect::<Vec<usize>>()
        .chunks(pod_size)
        .map(<[usize]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::AppHost;
    use crate::responder::{ResponderApp, ResponderConfig};
    use uburst_sim::counters::null_sink;
    use uburst_sim::link::LinkSpec;
    use uburst_sim::nic::NicConfig;
    use uburst_sim::node::PortId;
    use uburst_sim::routing::{Route, RoutingTable};
    use uburst_sim::sim::Simulator;
    use uburst_sim::switch::{Switch, SwitchConfig};
    use uburst_sim::transport::TransportConfig;

    #[test]
    fn pods_partition_everyone() {
        let pods = contiguous_pods(10, 4);
        assert_eq!(pods, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let flat: Vec<usize> = pods.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_gather_reaches_pod_members() {
        let mut sim = Simulator::new();
        let caches: Vec<NodeId> = (0..6)
            .map(|i| {
                AppHost::spawn(
                    &mut sim,
                    Box::new(ResponderApp::new(ResponderConfig::default())),
                    NicConfig::default(),
                    TransportConfig::default(),
                    10 + i,
                    Nanos::ZERO,
                )
            })
            .collect();
        let frontend = AppHost::spawn(
            &mut sim,
            Box::new(CacheFrontendApp::new(CacheFrontendConfig {
                cache_nodes: caches.clone(),
                pods: contiguous_pods(6, 3),
                rate_per_s: 3_000.0,
                member_prob: 1.0,
                leaders: vec![0],
                write_rate_per_s: 500.0,
                ..CacheFrontendConfig::default()
            })),
            NicConfig::default(),
            TransportConfig::default(),
            99,
            Nanos::ZERO,
        );

        let mut routing = RoutingTable::new(0);
        let all: Vec<NodeId> = caches.iter().copied().chain([frontend]).collect();
        for (i, &h) in all.iter().enumerate() {
            routing.set_route(h, Route::Port(PortId(i as u16)));
        }
        let sw = sim.add_node(Box::new(Switch::new(
            SwitchConfig::default(),
            routing,
            null_sink(),
        )));
        for (i, &h) in all.iter().enumerate() {
            sim.connect(
                (h, PortId(0)),
                (sw, PortId(i as u16)),
                LinkSpec::gbps(10.0, Nanos(500)),
            );
        }

        sim.run_until(Nanos::from_millis(100));

        let fe = sim.node::<AppHost>(frontend).app::<CacheFrontendApp>();
        assert!(fe.groups_sent >= 200, "groups {}", fe.groups_sent);
        // Every request in a group went out with member_prob = 1, so
        // responses = 3 * groups (minus in-flight tail).
        assert!(
            fe.responses_received as f64 >= 2.5 * fe.groups_sent as f64,
            "responses {} for {} groups",
            fe.responses_received,
            fe.groups_sent
        );
        // All cache servers served something; the leader also absorbed
        // writes without replying to them.
        for &c in &caches {
            assert!(sim.node::<AppHost>(c).app::<ResponderApp>().served > 0);
        }
    }

    #[test]
    #[should_panic(expected = "pod index out of range")]
    fn bad_pod_rejected() {
        CacheFrontendApp::new(CacheFrontendConfig {
            cache_nodes: vec![NodeId(0)],
            pods: vec![vec![3]],
            ..CacheFrontendConfig::default()
        });
    }
}
