//! The Web rack workload.
//!
//! §4.2: "Web: These servers receive web requests and assemble a dynamic
//! web page using data from many remote sources." The defining properties
//! the paper measures:
//!
//! * **low average utilization** (the Fig. 2 web port ran at ~9 %),
//! * **no cross-server correlation** (Fig. 8a) — "Web servers run stateless
//!   services that are entirely driven by user requests",
//! * **server-directed bursts** (Fig. 9) — a request's fan-in of cache
//!   responses converges on the one web server assembling the page,
//! * the **shortest bursts** of the three rack types (Fig. 3: p90 = 50 µs).
//!
//! Two apps implement this: [`WebServerApp`] runs on the measured rack;
//! [`UserGenApp`] runs on remote nodes and plays the Internet user
//! population.

use std::collections::HashMap;

use uburst_sim::node::NodeId;
use uburst_sim::packet::FlowId;
use uburst_sim::time::Nanos;

use crate::host::{App, Env, Incoming};
use crate::scenario::WebParams;
use crate::tags::MsgKind;

/// Log-normal byte-size distribution parameterized by its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDist {
    /// Median size in bytes.
    pub median: u64,
    /// Lognormal sigma.
    pub sigma: f64,
    /// Hard cap (tail clamp), bytes.
    pub cap: u64,
}

impl SizeDist {
    /// Draws a size.
    pub fn sample(&self, rng: &mut uburst_sim::rng::Rng) -> u64 {
        let mu = (self.median as f64).ln();
        (rng.lognormal(mu, self.sigma) as u64).clamp(1, self.cap)
    }

    /// Analytic mean in bytes: the lognormal mean `median·e^{σ²/2}`,
    /// clamped to the cap. The clamp treats the cap as a ceiling rather
    /// than modelling the truncated tail exactly, so for distributions
    /// whose cap sits deep in the tail (every workload preset here) the
    /// estimate is tight; a cap near the median makes it an upper bound.
    /// Used by the analytic offered-rate metadata that sizes hybrid-mode
    /// event calendars.
    pub fn mean_bytes(&self) -> f64 {
        ((self.median as f64) * (self.sigma * self.sigma / 2.0).exp()).min(self.cap as f64)
    }
}

#[derive(Debug, Clone, Copy)]
struct PageJob {
    user: NodeId,
    user_group: u32,
    page_bytes: u64,
    outstanding: usize,
}

/// The measured rack's web server.
pub struct WebServerApp {
    p: WebParams,
    /// The remote cache tier this server fans out to.
    cache_nodes: Vec<NodeId>,
    jobs: HashMap<u32, PageJob>,
    next_group: u32,
    /// Pages fully assembled and sent (diagnostics).
    pub pages_served: u64,
}

impl WebServerApp {
    /// A web server tuned by `p`, fanning out to `cache_nodes`.
    pub fn new(p: &WebParams, cache_nodes: Vec<NodeId>) -> Self {
        assert!(!cache_nodes.is_empty(), "web server needs a cache tier");
        assert!(p.fanout.0 >= 1 && p.fanout.0 <= p.fanout.1);
        WebServerApp {
            p: p.clone(),
            cache_nodes,
            jobs: HashMap::new(),
            next_group: 0,
            pages_served: 0,
        }
    }
}

impl App for WebServerApp {
    fn start(&mut self, _env: &mut Env<'_, '_>) {}

    fn on_flow_received(&mut self, env: &mut Env<'_, '_>, msg: Incoming) {
        match msg.kind {
            MsgKind::Request => {
                // A user request: fan out subqueries, remember the job.
                let group = self.next_group;
                self.next_group = self.next_group.wrapping_add(1);
                let k = env
                    .rng
                    .range(self.p.fanout.0 as u64, self.p.fanout.1 as u64)
                    as usize;
                // Each remote node stands in for a whole cache tier, so
                // subqueries pick with replacement: k can exceed the node
                // count, and several shards may live behind one node.
                for _ in 0..k {
                    let dst = *env.rng.pick(&self.cache_nodes);
                    let bytes = self.p.cache_resp.sample(env.rng);
                    env.send_request(dst, bytes, group);
                }
                self.jobs.insert(
                    group,
                    PageJob {
                        user: msg.src,
                        user_group: msg.group,
                        page_bytes: msg.size_field,
                        outstanding: k,
                    },
                );
            }
            MsgKind::Response => {
                // One cache sub-response came back.
                let done = {
                    let Some(job) = self.jobs.get_mut(&msg.group) else {
                        debug_assert!(false, "response for unknown group");
                        return;
                    };
                    job.outstanding -= 1;
                    job.outstanding == 0
                };
                if done {
                    // Think, then ship the page (timer token = group).
                    let mu = (self.p.think_median.as_nanos() as f64).ln();
                    let think = Nanos::from_secs_f64(env.rng.lognormal(mu, 0.4) * 1e-9);
                    env.timer_in(think, u64::from(msg.group));
                }
            }
            MsgKind::Data => {}
        }
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>, token: u64) {
        let Some(job) = self.jobs.remove(&(token as u32)) else {
            debug_assert!(false, "page timer for unknown job");
            return;
        };
        env.send_response(job.user, job.page_bytes, job.user_group);
        self.pages_served += 1;
    }
}

/// Remote node playing many Internet users (a Poisson request stream).
pub struct UserGenApp {
    p: WebParams,
    /// The web servers users hit.
    web_nodes: Vec<NodeId>,
    /// Requests per second from this generator node (already
    /// diurnal-scaled by the scenario builder).
    rate_per_s: f64,
    next_group: u32,
    /// Pages left in the in-progress train and their target server.
    train_left: usize,
    train_dst: Option<NodeId>,
    /// Requests issued (diagnostics).
    pub requests_sent: u64,
    /// Pages received (diagnostics).
    pub pages_received: u64,
}

const TOKEN_NEXT_EVENT: u64 = 1;
const TOKEN_TRAIN: u64 = 2;

impl UserGenApp {
    /// A user generator tuned by `p`, asking `web_nodes` for
    /// `rate_per_s` pages per second.
    pub fn new(p: &WebParams, web_nodes: Vec<NodeId>, rate_per_s: f64) -> Self {
        assert!(!web_nodes.is_empty(), "no web servers to hit");
        assert!(rate_per_s > 0.0);
        assert!(p.train.0 >= 1 && p.train.0 <= p.train.1);
        UserGenApp {
            p: p.clone(),
            web_nodes,
            rate_per_s,
            next_group: 0,
            train_left: 0,
            train_dst: None,
            requests_sent: 0,
            pages_received: 0,
        }
    }

    fn mean_train(&self) -> f64 {
        (self.p.train.0 + self.p.train.1) as f64 / 2.0
    }

    fn schedule_next_event(&self, env: &mut Env<'_, '_>) {
        // Event rate = page rate / pages per event, so the configured page
        // rate is preserved regardless of train length.
        let event_rate = self.rate_per_s / self.mean_train();
        let gap = env.rng.exp(1.0 / event_rate);
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_NEXT_EVENT);
    }

    fn send_page(&mut self, env: &mut Env<'_, '_>, dst: NodeId) {
        let page = self.p.page.sample(env.rng);
        let group = self.next_group;
        self.next_group = self.next_group.wrapping_add(1);
        env.send_request(dst, page, group);
        self.requests_sent += 1;
    }

    fn continue_train(&mut self, env: &mut Env<'_, '_>) {
        if self.train_left == 0 {
            self.train_dst = None;
            self.schedule_next_event(env);
            return;
        }
        let gap = env.rng.exp(self.p.train_gap.as_secs_f64());
        env.timer_in(Nanos::from_secs_f64(gap), TOKEN_TRAIN);
    }
}

impl App for UserGenApp {
    fn start(&mut self, env: &mut Env<'_, '_>) {
        self.schedule_next_event(env);
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>, token: u64) {
        match token {
            TOKEN_NEXT_EVENT => {
                let dst = *env.rng.pick(&self.web_nodes);
                let len = env.rng.range(self.p.train.0 as u64, self.p.train.1 as u64) as usize;
                self.train_dst = Some(dst);
                self.train_left = len - 1;
                self.send_page(env, dst);
                self.continue_train(env);
            }
            TOKEN_TRAIN => {
                let dst = self.train_dst.expect("train without target");
                self.train_left -= 1;
                self.send_page(env, dst);
                self.continue_train(env);
            }
            other => debug_assert!(false, "unknown user token {other}"),
        }
    }

    fn on_flow_received(&mut self, _env: &mut Env<'_, '_>, msg: Incoming) {
        if msg.kind == MsgKind::Response {
            self.pages_received += 1;
        }
    }

    fn on_flow_sent(&mut self, _env: &mut Env<'_, '_>, _flow: FlowId, _tag: u64) {}
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
    fn full_page_assembly_pipeline() {
        let mut sim = Simulator::new();
        // 3 cache nodes, 1 web server, 1 user, 1 switch.
        let caches: Vec<NodeId> = (0..3)
            .map(|i| {
                AppHost::spawn(
                    &mut sim,
                    Box::new(ResponderApp::new(ResponderConfig::default())),
                    NicConfig::default(),
                    TransportConfig::default(),
                    100 + i,
                    Nanos::ZERO,
                )
            })
            .collect();
        let web = AppHost::spawn(
            &mut sim,
            Box::new(WebServerApp::new(
                &WebParams {
                    fanout: (2, 3),
                    ..WebParams::default()
                },
                caches.clone(),
            )),
            NicConfig::default(),
            TransportConfig::default(),
            200,
            Nanos::ZERO,
        );
        let user = AppHost::spawn(
            &mut sim,
            Box::new(UserGenApp::new(
                &WebParams {
                    page: SizeDist {
                        median: 50_000,
                        sigma: 0.5,
                        cap: 500_000,
                    },
                    train: (1, 3),
                    train_gap: Nanos::from_micros(40),
                    ..WebParams::default()
                },
                vec![web],
                2_000.0,
            )),
            NicConfig::default(),
            TransportConfig::default(),
            300,
            Nanos::ZERO,
        );

        // One switch stars everyone together.
        let mut routing = RoutingTable::new(0);
        let all: Vec<NodeId> = caches.iter().copied().chain([web, user]).collect();
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

        let user_app = sim.node::<AppHost>(user).app::<UserGenApp>();
        assert!(
            user_app.requests_sent >= 100,
            "user sent {} requests",
            user_app.requests_sent
        );
        let web_app = sim.node::<AppHost>(web).app::<WebServerApp>();
        assert!(
            web_app.pages_served >= user_app.pages_received,
            "pages served {} < pages received {}",
            web_app.pages_served,
            user_app.pages_received
        );
        // Allow the tail of in-flight pages, but most must complete.
        assert!(
            user_app.pages_received as f64 >= 0.9 * user_app.requests_sent as f64 - 5.0,
            "only {}/{} pages came back",
            user_app.pages_received,
            user_app.requests_sent
        );
        // Every page required cache work.
        let served: u64 = caches
            .iter()
            .map(|&c| sim.node::<AppHost>(c).app::<ResponderApp>().served)
            .sum();
        assert!(served >= 2 * web_app.pages_served, "cache served {served}");
    }

    #[test]
    fn size_dist_respects_cap_and_median() {
        let mut rng = uburst_sim::rng::Rng::new(5);
        let d = SizeDist {
            median: 10_000,
            sigma: 1.0,
            cap: 50_000,
        };
        let mut xs: Vec<u64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (1..=50_000).contains(&x)));
        xs.sort_unstable();
        let median = xs[xs.len() / 2] as f64;
        assert!(
            (7_000.0..=13_000.0).contains(&median),
            "median {median} should be near 10k"
        );
    }
}
