//! Application hosts.
//!
//! [`AppHost`] is the one host node type every workload uses: it owns the
//! NIC, the transport endpoint, and a per-host RNG, and delegates
//! application behaviour to an [`App`]. Apps see the world through [`Env`],
//! which wraps flow sending, request/response helpers, timers, and
//! randomness.

use std::any::Any;

use uburst_sim::nic::{HostNic, NicConfig, NIC_PACE_TOKEN};
use uburst_sim::node::{Ctx, Node, NodeId, PortId};
use uburst_sim::packet::{FlowId, Packet};
use uburst_sim::rng::Rng;
use uburst_sim::sim::Simulator;
use uburst_sim::time::Nanos;
use uburst_sim::transport::{TransportConfig, TransportEndpoint, TransportEvent};

use crate::tags::{self, MsgKind};

/// Timer token that starts the app (scheduled by the scenario builder).
/// Bit 63 must be clear so it is not mistaken for a transport token.
pub const TOKEN_APP_START: u64 = 0x3FFF_FFFF_FFFF_FFF0;

/// Typical application-level request message size on the wire (HTTP-ish
/// headers / thrift envelope).
pub const REQUEST_BYTES: u64 = 330;

/// A flow that arrived for the application, pre-decoded.
#[derive(Debug, Clone, Copy)]
pub struct Incoming {
    /// The completed flow.
    pub flow: FlowId,
    /// Who sent it.
    pub src: NodeId,
    /// Application bytes delivered.
    pub bytes: u64,
    /// Decoded message kind.
    pub kind: MsgKind,
    /// Decoded request group.
    pub group: u32,
    /// Decoded size field (requested response size for `Request`s).
    pub size_field: u64,
}

/// Application behaviour plugged into an [`AppHost`].
pub trait App: Any {
    /// Called once at the app's start time.
    fn start(&mut self, env: &mut Env<'_, '_>);
    /// An application timer fired (tokens are the app's own).
    fn on_timer(&mut self, _env: &mut Env<'_, '_>, _token: u64) {}
    /// A complete incoming flow arrived.
    fn on_flow_received(&mut self, _env: &mut Env<'_, '_>, _msg: Incoming) {}
    /// A flow this host started was fully acknowledged.
    fn on_flow_sent(&mut self, _env: &mut Env<'_, '_>, _flow: FlowId, _tag: u64) {}
}

/// The world as one app sees it during a callback.
pub struct Env<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    nic: &'a mut HostNic,
    transport: &'a mut TransportEndpoint,
    /// The host's private random stream.
    pub rng: &'a mut Rng,
}

impl Env<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.ctx.now()
    }

    /// This host's node id.
    pub fn host(&self) -> NodeId {
        self.ctx.node()
    }

    /// Schedules an app timer.
    pub fn timer_in(&mut self, delay: Nanos, token: u64) {
        debug_assert!(
            !TransportEndpoint::owns_token(token) && token != NIC_PACE_TOKEN,
            "app token collides with infrastructure tokens"
        );
        self.ctx.timer_in(delay, token);
    }

    /// Starts a flow of `bytes` to `dst` carrying `tag`.
    pub fn send_flow(&mut self, dst: NodeId, bytes: u64, tag: u64) -> FlowId {
        self.transport
            .start_flow(self.ctx, self.nic, dst, bytes, tag)
    }

    /// Sends a one-way bulk transfer.
    pub fn send_data(&mut self, dst: NodeId, bytes: u64, group: u32) -> FlowId {
        self.send_flow(dst, bytes, tags::encode(MsgKind::Data, group, bytes))
    }

    /// Sends a request asking `dst` to reply with `resp_bytes`, stamped with
    /// `group` for scatter-gather matching.
    pub fn send_request(&mut self, dst: NodeId, resp_bytes: u64, group: u32) -> FlowId {
        self.send_request_sized(dst, REQUEST_BYTES, resp_bytes, group)
    }

    /// Like [`Env::send_request`] with an explicit request size (multigets
    /// carry their key lists, so request sizes vary too).
    pub fn send_request_sized(
        &mut self,
        dst: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
        group: u32,
    ) -> FlowId {
        self.send_flow(
            dst,
            req_bytes.max(1),
            tags::encode(MsgKind::Request, group, resp_bytes),
        )
    }

    /// Replies to a request: `resp_bytes` back to `dst`, echoing `group`.
    pub fn send_response(&mut self, dst: NodeId, resp_bytes: u64, group: u32) -> FlowId {
        self.send_flow(
            dst,
            resp_bytes.max(1),
            tags::encode(MsgKind::Response, group, resp_bytes),
        )
    }

    /// Transport diagnostics for this host.
    pub fn transport_stats(&self) -> uburst_sim::transport::TransportStats {
        self.transport.stats
    }
}

/// An app that does nothing. Used as a placeholder while a scenario is
/// being wired: hosts must exist before peer lists can be built, so
/// builders spawn hosts idle and install the real app with
/// [`AppHost::set_app`] before the start timer fires.
#[derive(Debug, Default)]
pub struct IdleApp;

impl App for IdleApp {
    fn start(&mut self, _env: &mut Env<'_, '_>) {}
}

/// A host node running one [`App`].
pub struct AppHost {
    nic: HostNic,
    transport: Option<TransportEndpoint>,
    rng: Rng,
    app: Box<dyn App>,
}

impl AppHost {
    /// Creates a host running `app`. The transport endpoint is bound to the
    /// real node id on first dispatch, via [`AppHost::spawn`].
    fn new(app: Box<dyn App>, nic_cfg: NicConfig, seed: u64) -> Self {
        AppHost {
            nic: HostNic::new(nic_cfg),
            transport: None,
            rng: Rng::new(seed),
            app,
        }
    }

    /// Adds a host to the simulation and schedules its app start at
    /// `start_at`. Returns the node id.
    pub fn spawn(
        sim: &mut Simulator,
        app: Box<dyn App>,
        nic_cfg: NicConfig,
        transport_cfg: TransportConfig,
        seed: u64,
        start_at: Nanos,
    ) -> NodeId {
        let host = AppHost::new(app, nic_cfg, seed);
        let id = sim.add_node(Box::new(host));
        sim.node_mut::<AppHost>(id).transport = Some(TransportEndpoint::new(id, transport_cfg));
        sim.schedule_timer(start_at, id, TOKEN_APP_START);
        id
    }

    /// The app, downcast to its concrete type.
    pub fn app<A: App>(&self) -> &A {
        (self.app.as_ref() as &dyn Any)
            .downcast_ref::<A>()
            .expect("app type mismatch")
    }

    /// Replaces the app. Must happen before the start timer fires (i.e.
    /// before the simulation reaches the host's `start_at`).
    pub fn set_app(&mut self, app: Box<dyn App>) {
        self.app = app;
    }

    /// Transport diagnostics.
    pub fn transport_stats(&self) -> uburst_sim::transport::TransportStats {
        self.transport.as_ref().map(|t| t.stats).unwrap_or_default()
    }

    /// NIC diagnostics: (sent packets, local drops).
    pub fn nic_stats(&self) -> (u64, u64) {
        (self.nic.sent, self.nic.dropped)
    }

    /// Flow-completion-time records of this host's finished outgoing flows.
    pub fn fcts(&self) -> &[uburst_sim::transport::FctRecord] {
        self.transport.as_ref().map(|t| t.fcts()).unwrap_or(&[])
    }

    fn with_env<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Env<'_, '_>),
    {
        let AppHost {
            nic,
            transport,
            rng,
            app,
        } = self;
        let mut env = Env {
            ctx,
            nic,
            transport: transport.as_mut().expect("transport bound at spawn"),
            rng,
        };
        f(app.as_mut(), &mut env);
    }

    fn deliver_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<TransportEvent>) {
        for ev in events {
            match ev {
                TransportEvent::FlowReceived {
                    flow,
                    src,
                    bytes,
                    tag,
                } => {
                    let (kind, group, size_field) = tags::decode(tag);
                    let msg = Incoming {
                        flow,
                        src,
                        bytes,
                        kind,
                        group,
                        size_field,
                    };
                    self.with_env(ctx, |app, env| app.on_flow_received(env, msg));
                }
                TransportEvent::FlowSent { flow, tag } => {
                    self.with_env(ctx, |app, env| app.on_flow_sent(env, flow, tag));
                }
            }
        }
    }
}

impl Node for AppHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        let transport = self.transport.as_mut().expect("transport bound");
        let events = transport.on_packet(ctx, &mut self.nic, pkt);
        if !events.is_empty() {
            self.deliver_events(ctx, events);
        }
    }

    fn on_tx_complete(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.nic.on_tx_complete(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == NIC_PACE_TOKEN {
            self.nic.on_timer(ctx);
        } else if TransportEndpoint::owns_token(token) {
            let transport = self.transport.as_mut().expect("transport bound");
            transport.on_timer(ctx, &mut self.nic, token);
        } else if token == TOKEN_APP_START {
            self.with_env(ctx, |app, env| app.start(env));
        } else {
            self.with_env(ctx, |app, env| app.on_timer(env, token));
        }
    }

    fn settle_lazy(&mut self, now: Nanos) {
        self.nic.settle_to(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_sim::link::LinkSpec;

    /// Pings a peer on start; records the echo.
    struct PingApp {
        peer: NodeId,
        got_response: bool,
        sent_acked: bool,
    }
    impl App for PingApp {
        fn start(&mut self, env: &mut Env<'_, '_>) {
            env.send_request(self.peer, 5_000, 7);
        }
        fn on_flow_received(&mut self, _env: &mut Env<'_, '_>, msg: Incoming) {
            assert_eq!(msg.kind, MsgKind::Response);
            assert_eq!(msg.group, 7);
            assert_eq!(msg.bytes, 5_000);
            self.got_response = true;
        }
        fn on_flow_sent(&mut self, _env: &mut Env<'_, '_>, _flow: FlowId, _tag: u64) {
            self.sent_acked = true;
        }
    }

    /// Echo server: answers any request with the asked-for bytes.
    struct EchoApp;
    impl App for EchoApp {
        fn start(&mut self, _env: &mut Env<'_, '_>) {}
        fn on_flow_received(&mut self, env: &mut Env<'_, '_>, msg: Incoming) {
            if msg.kind == MsgKind::Request {
                env.send_response(msg.src, msg.size_field, msg.group);
            }
        }
    }

    #[test]
    fn request_response_round_trip() {
        let mut sim = Simulator::new();
        // Spawn echo first so the pinger can name it.
        let echo = AppHost::spawn(
            &mut sim,
            Box::new(EchoApp),
            NicConfig::default(),
            TransportConfig::default(),
            1,
            Nanos::ZERO,
        );
        let ping = AppHost::spawn(
            &mut sim,
            Box::new(PingApp {
                peer: echo,
                got_response: false,
                sent_acked: false,
            }),
            NicConfig::default(),
            TransportConfig::default(),
            2,
            Nanos::from_micros(10),
        );
        sim.connect(
            (ping, PortId(0)),
            (echo, PortId(0)),
            LinkSpec::gbps(10.0, Nanos(500)),
        );
        sim.run_until(Nanos::from_millis(50));
        let app = sim.node::<AppHost>(ping).app::<PingApp>();
        assert!(app.got_response, "no response received");
        assert!(app.sent_acked, "request never acked");
        let (sent, dropped) = sim.node::<AppHost>(ping).nic_stats();
        assert!(sent > 0);
        assert_eq!(dropped, 0);
    }
}
