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
use crate::scenario::CacheParams;
use crate::tags::MsgKind;

const TOKEN_NEXT_READ: u64 = 1;
const TOKEN_NEXT_WRITE: u64 = 2;
const TOKEN_TRAIN: u64 = 3;

/// A remote web frontend driving the cache rack.
pub struct CacheFrontendApp {
    p: CacheParams,
    /// The measured rack's cache servers, in rack order.
    cache_nodes: Vec<NodeId>,
    /// Correlated pods: index sets into `cache_nodes`. A scatter-gather
    /// request targets one pod (the shards of one data set).
    pods: Vec<Vec<usize>>,
    /// Cache servers (indices) acting as leaders, receiving coherency
    /// writes.
    leaders: Vec<usize>,
    /// Scatter-gather groups per second from this frontend
    /// (diurnal-scaled by the scenario builder).
    rate_per_s: f64,
    /// Coherency writes per second toward a random leader.
    write_rate_per_s: f64,
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
    /// A frontend tuned by `p` that reads `rate_per_s` scatter-gather
    /// groups per second from `pods` of `cache_nodes` and writes
    /// `write_rate_per_s` coherency updates to its `leaders`.
    pub fn new(
        p: &CacheParams,
        cache_nodes: Vec<NodeId>,
        pods: Vec<Vec<usize>>,
        leaders: Vec<usize>,
        rate_per_s: f64,
        write_rate_per_s: f64,
    ) -> Self {
        assert!(!cache_nodes.is_empty(), "no cache servers");
        assert!(!pods.is_empty(), "no pods defined");
        for pod in &pods {
            assert!(
                pod.iter().all(|&i| i < cache_nodes.len()),
                "pod index out of range"
            );
            assert!(!pod.is_empty(), "empty pod");
        }
        assert!(leaders.iter().all(|&i| i < cache_nodes.len()));
        assert!(p.train.0 >= 1 && p.train.0 <= p.train.1);
        CacheFrontendApp {
            p: p.clone(),
            cache_nodes,
            pods,
            leaders,
            rate_per_s,
            write_rate_per_s,
            next_group: 0,
            train_left: 0,
            train_pod: 0,
            groups_sent: 0,
            responses_received: 0,
        }
    }

    fn mean_train(&self) -> f64 {
        (self.p.train.0 + self.p.train.1) as f64 / 2.0
    }

    fn schedule_read(&self, env: &mut Env<'_, '_>) {
        // Event rate = group rate / groups per event.
        let event_rate = self.rate_per_s / self.mean_train();
        let gap = env.rng.exp(1.0 / event_rate);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_NEXT_READ);
    }

    fn continue_train(&mut self, env: &mut Env<'_, '_>) {
        if self.train_left == 0 {
            self.schedule_read(env);
            return;
        }
        let gap = env.rng.exp(self.p.train_gap.as_secs_f64());
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_TRAIN);
    }

    fn schedule_write(&self, env: &mut Env<'_, '_>) {
        if self.leaders.is_empty() || self.write_rate_per_s <= 0.0 {
            return;
        }
        let gap = env.rng.exp(1.0 / self.write_rate_per_s);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_NEXT_WRITE);
    }

    fn issue_scatter_gather(&mut self, env: &mut Env<'_, '_>, pod_idx: usize) {
        let group = self.next_group;
        self.next_group = self.next_group.wrapping_add(1);
        // Indexing a field while mutably borrowing env: copy the pod out.
        let pod: Vec<usize> = self.pods[pod_idx].clone();
        // The multiget's key list is the same for every shard.
        let req_bytes = self.p.req.sample(env.rng);
        let mut any = false;
        for &member in &pod {
            if env.rng.chance(self.p.member_prob) {
                let bytes = self.p.resp.sample(env.rng);
                env.send_request_sized(self.cache_nodes[member], req_bytes, bytes, group);
                any = true;
            }
        }
        if !any {
            // Guarantee at least one shard read per group.
            let member = pod[env.rng.below(pod.len() as u64) as usize];
            let bytes = self.p.resp.sample(env.rng);
            env.send_request_sized(self.cache_nodes[member], req_bytes, bytes, group);
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
                let len = env.rng.range(self.p.train.0 as u64, self.p.train.1 as u64) as usize;
                self.train_pod = env.rng.below(self.pods.len() as u64) as usize;
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
                let leader_idx = *env.rng.pick(&self.leaders);
                let dst = self.cache_nodes[leader_idx];
                let bytes = self.p.write.sample(env.rng);
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
            Box::new(CacheFrontendApp::new(
                &CacheParams {
                    member_prob: 1.0,
                    ..CacheParams::default()
                },
                caches.clone(),
                contiguous_pods(6, 3),
                vec![0],
                3_000.0,
                500.0,
            )),
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
        CacheFrontendApp::new(
            &CacheParams::default(),
            vec![NodeId(0)],
            vec![vec![3]],
            Vec::new(),
            500.0,
            0.0,
        );
    }
}
