//! `rack_bulk` and `rack_rpc`: measured-rack campaigns through the DES, the
//! ASIC counter bank and the poller, reduced the way the figures reduce them.

use uburst_analysis::{extract_bursts, hot_port_counts, Ecdf, HOT_THRESHOLD};
use uburst_asic::{AccessModel, CounterId};
use uburst_bench::campaign::{port_bps, CampaignRun, CampaignSpec, NetSnapshot};
use uburst_bench::pool::run_parallel_on;
use uburst_core::poller::Poller;
use uburst_core::spec::CampaignConfig;
use uburst_sim::node::PortId;
use uburst_sim::packet::ACK_BYTES;
use uburst_sim::switch::Switch;
use uburst_sim::time::Nanos;
use uburst_sim::transport::TransportStats;
use uburst_workloads::host::AppHost;
use uburst_workloads::scenario::{build_scenario, RackType};

use super::{per_rep, ratio, self_seconds, Metrics, Rep, Workload};
use crate::gen::{rack_campaigns, RackCampaign, Shape};
use crate::stats::{timed, Fnv};
use crate::trace::Tracer;

/// A rack workload: `per_kind` racks of each kind, two campaigns per rack.
#[derive(Debug, Clone)]
pub struct Rack {
    name: &'static str,
    kinds: &'static [RackType],
    per_kind: usize,
    span: Nanos,
}

impl Rack {
    /// Long flows, deep queues, drops and the fast-forward engine all busy.
    pub fn bulk() -> Self {
        Rack {
            name: "rack_bulk",
            kinds: &[RackType::Hadoop],
            per_kind: 3,
            span: Nanos::from_millis(40),
        }
    }

    /// Small request/response and scatter-gather flows: timers and transport
    /// dominate, fast-forward removes little.
    pub fn rpc() -> Self {
        Rack {
            name: "rack_rpc",
            kinds: &[RackType::Web, RackType::Cache],
            per_kind: 3,
            span: Nanos::from_millis(40),
        }
    }

    /// The same workload at 1/16 of the simulated campaign span, one rack
    /// per kind (unit-test smoke runs).
    #[cfg(test)]
    pub fn smoke(mut self) -> Self {
        self.per_kind = 1;
        self.span = Nanos(self.span.0 / 16);
        self
    }
}

/// The benchmark's own copy of the `CampaignSpec::run` sequence, one span
/// per step. Plain campaigns only (no fault plan, no degradation): that is
/// all the rack workloads generate.
fn run_campaign_traced(spec: CampaignSpec, t: &mut Tracer) -> CampaignRun {
    let CampaignSpec {
        cfg,
        counters,
        interval,
        span,
        faults,
        retry,
        degradation,
    } = spec;
    assert!(
        faults.is_none() && degradation.is_none(),
        "rack workloads generate plain campaigns"
    );
    let seed = cfg.seed;
    let n_ports = cfg.n_servers + cfg.clos.n_fabric;
    let mut scenario = t.span("workloads.build", |_| build_scenario(cfg));
    let warmup = scenario.recommended_warmup();
    t.span("sim.warmup", |_| scenario.sim.run_until(warmup));
    let stop = warmup + span;
    let id = t.span("core.poller.attach", |_| {
        Poller::in_memory(
            scenario.counters.clone(),
            AccessModel::default(),
            CampaignConfig::group("bench", counters, interval),
            seed ^ 0x9e37_79b9,
        )
        .expect("bench campaign is well-formed")
        .with_retry(retry)
        .spawn(&mut scenario.sim, warmup, stop)
        .expect("bench campaign window is non-empty")
    });
    let end = stop + Nanos::from_millis(1);
    t.span("sim.run", |_| scenario.sim.run_until(end));
    let (poller_stats, degrade_level, series) = t.span("core.poller.take", |_| {
        let poller = scenario.sim.node_mut::<Poller>(id);
        let stats = poller.stats();
        if uburst_obs::enabled() {
            let extent = stats
                .stopped_at
                .as_nanos()
                .saturating_sub(stats.started_at.as_nanos());
            uburst_obs::span_record("pool/campaign_task", extent);
        }
        (
            stats,
            poller.degrade_level(),
            poller.take_series().expect("in-memory campaign"),
        )
    });
    let net = t.span("bench.campaign.reduce", |_| {
        let tor = scenario.sim.node::<Switch>(scenario.tor()).stats();
        let port_drops = (0..n_ports)
            .map(|i| scenario.counters.read(CounterId::Drops(PortId(i as u16))))
            .collect();
        let mut transport = TransportStats::default();
        for &h in scenario.rack_hosts.iter().chain(&scenario.remote_hosts) {
            let s = scenario.sim.node::<AppHost>(h).transport_stats();
            transport.flows_started += s.flows_started;
            transport.flows_sent += s.flows_sent;
            transport.flows_received += s.flows_received;
            transport.retransmits += s.retransmits;
            transport.timeouts += s.timeouts;
            transport.fast_retransmits += s.fast_retransmits;
        }
        NetSnapshot {
            tor,
            port_drops,
            transport,
        }
    });
    let arena = scenario.sim.arena_stats();
    t.count("sim.events", scenario.sim.dispatched());
    t.count("sim.simulated_ns", end.as_nanos());
    t.count("sim.arena_allocated", arena.allocated);
    t.count("sim.arena_reuse_hits", arena.reuse_hits);
    t.peak("sim.arena_high_water", arena.high_water as u64);
    t.span("sim.teardown", |_| drop(scenario));
    CampaignRun {
        series,
        poller_stats,
        fault_stats: None,
        degrade_level,
        net,
    }
}

/// Output checks of one campaign: non-empty strictly time-ordered series,
/// monotone cumulative counters, and packet conservation at the ToR (what
/// came in went out, was dropped, or still sits in a buffer that can hold
/// it in minimum-size frames).
fn campaign_ok(c: &RackCampaign, run: &CampaignRun) -> bool {
    let series_ok = run.series.iter().all(|(counter, s)| {
        !s.is_empty()
            && s.ts.len() == s.vs.len()
            && s.ts.windows(2).all(|w| w[0] < w[1])
            && (!counter.is_cumulative() || s.vs.windows(2).all(|w| w[0] <= w[1]))
    });
    let tor = &run.net.tor;
    let accounted = tor.tx_packets + tor.dropped_packets + tor.unroutable + tor.hairpin;
    let max_resident = c.spec.cfg.clos.tor_switch.buffer_bytes / u64::from(ACK_BYTES);
    series_ok
        && !run.series.is_empty()
        && tor.rx_packets >= accounted
        && tor.rx_packets - accounted <= max_resident
}

fn digest_run(h: &mut Fnv, run: &CampaignRun) {
    for (_, s) in &run.series {
        h.u64s(&s.ts);
        h.u64s(&s.vs);
    }
    let p = &run.poller_stats;
    h.u64s(&[p.polls, p.missed_deadlines, p.late_polls, p.busy.as_nanos()]);
    let s = &run.net.tor;
    h.u64s(&[
        s.rx_packets,
        s.rx_bytes,
        s.tx_packets,
        s.tx_bytes,
        s.dropped_packets,
        s.dropped_bytes,
        s.unroutable,
        s.hairpin,
    ]);
    h.u64s(&run.net.port_drops);
    let x = &run.net.transport;
    h.u64s(&[
        x.flows_started,
        x.flows_sent,
        x.flows_received,
        x.retransmits,
        x.timeouts,
        x.fast_retransmits,
    ]);
}

/// The figures' reduction of one campaign, folded into the digest:
/// utilization → bursts → duration ECDF for the single-port shape, hot-port
/// counts against the buffer peak for the all-ports shape.
fn analyse(h: &mut Fnv, c: &RackCampaign, run: &CampaignRun, t: &mut Tracer) {
    let cfg = &c.spec.cfg;
    match c.shape {
        Shape::SinglePort(port) => {
            let util = t.span("core.series.utilization", |_| {
                run.utilization(CounterId::TxBytes(port), port_bps(cfg, port))
            });
            let bursts = t.span("analysis.burst", |_| extract_bursts(&util, HOT_THRESHOLD));
            h.u64s(&[bursts.bursts.len() as u64, bursts.hot_samples as u64]);
            t.count("analysis.bursts", bursts.bursts.len() as u64);
            let durations: Vec<f64> = bursts
                .durations()
                .iter()
                .map(|d| d.as_micros_f64())
                .collect();
            if !durations.is_empty() {
                let ecdf = t.span("analysis.ecdf", |_| Ecdf::new(durations));
                for q in [0.5, 0.9, 0.99] {
                    h.f64(ecdf.quantile(q));
                }
            }
        }
        Shape::BufferAndPorts => {
            let ports = cfg.n_servers + cfg.clos.n_fabric;
            let per_port: Vec<_> = t.span("core.series.utilization", |_| {
                (0..ports)
                    .map(|i| {
                        let p = PortId(i as u16);
                        run.utilization(CounterId::TxBytes(p), port_bps(cfg, p))
                    })
                    .collect()
            });
            let hot = t.span("analysis.burst", |_| {
                hot_port_counts(&per_port, HOT_THRESHOLD)
            });
            h.u64(hot.len() as u64);
            for n in hot {
                h.u64(n as u64);
            }
        }
    }
}

impl Rack {
    fn specs(input: &[RackCampaign]) -> Vec<CampaignSpec> {
        input.iter().map(|c| c.spec.clone()).collect()
    }

    /// Checks, analyses and digests the runs of one repetition.
    fn reduce(input: &[RackCampaign], runs: &[CampaignRun], t: &mut Tracer) -> Rep {
        let mut h = Fnv::default();
        let mut failed = 0;
        for (c, run) in input.iter().zip(runs) {
            if !campaign_ok(c, run) {
                failed += 1;
            }
            digest_run(&mut h, run);
            analyse(&mut h, c, run, t);
            t.count("sim.rx_packets", run.net.tor.rx_packets);
            t.count("sim.dropped_packets", run.net.tor.dropped_packets);
            t.count("workloads.flows_started", run.net.transport.flows_started);
            t.count(
                "workloads.flows_completed",
                run.net.transport.flows_received,
            );
            t.count("core.poller.polls", run.poller_stats.polls);
            t.count("core.poller.missed", run.poller_stats.missed_deadlines);
        }
        Rep {
            digest: h.finish(),
            attempted: input.len() as u64,
            failed,
        }
    }
}

impl Workload for Rack {
    type Input = Vec<RackCampaign>;
    type Prepared = ();
    type Output = Rep;

    fn name(&self) -> &'static str {
        self.name
    }

    fn generate(&self, seed: u64, _: &mut Tracer) -> Self::Input {
        rack_campaigns(seed, self.kinds, self.per_kind, self.span)
    }

    fn prepare(&self, _: &Self::Input) {}

    fn run(&self, input: &Self::Input, (): (), t: &mut Tracer) -> Rep {
        let runs = if t.is_recording() {
            Self::specs(input)
                .into_iter()
                .map(|spec| run_campaign_traced(spec, t))
                .collect()
        } else {
            run_parallel_on(1, Self::specs(input))
        };
        Self::reduce(input, &runs, t)
    }

    fn check(&self, _: &Self::Input, output: Rep, _: &mut Tracer) -> Rep {
        // The figures' reduction is part of the timed workload, and it
        // folds the digest and runs the per-campaign checks as it goes.
        output
    }

    fn layers(&self, input: &Self::Input, traced: &Tracer, reps: u32, m: &mut Metrics) -> u64 {
        for (metric, span) in [
            ("sim.warmup_frac", "sim.warmup"),
            ("sim.run_frac", "sim.run"),
            ("sim.teardown_frac", "sim.teardown"),
            ("workloads.build_frac", "workloads.build"),
            ("core.poller.attach_frac", "core.poller.attach"),
            ("core.poller.take_frac", "core.poller.take"),
            ("bench.campaign.reduce_frac", "bench.campaign.reduce"),
            ("core.series.utilization_frac", "core.series.utilization"),
            ("analysis.burst_frac", "analysis.burst"),
            ("analysis.ecdf_frac", "analysis.ecdf"),
        ] {
            m.insert(metric, traced.share(span));
        }
        let sim_s = self_seconds(traced, "sim.warmup") + self_seconds(traced, "sim.run");
        m.insert("sim.events", per_rep(traced, "sim.events", reps));
        m.insert(
            "sim.events_per_s",
            ratio(traced.counted("sim.events") as f64, sim_s),
        );
        m.insert(
            "sim.sim_ms_per_s",
            ratio(traced.counted("sim.simulated_ns") as f64 / 1e6, sim_s),
        );
        m.insert(
            "sim.arena_high_water",
            traced.counted("sim.arena_high_water") as f64,
        );
        m.insert(
            "sim.arena_reuse_frac",
            ratio(
                traced.counted("sim.arena_reuse_hits") as f64,
                traced.counted("sim.arena_allocated") as f64,
            ),
        );
        m.insert(
            "sim.drop_frac",
            ratio(
                traced.counted("sim.dropped_packets") as f64,
                traced.counted("sim.rx_packets") as f64,
            ),
        );
        for name in [
            "workloads.flows_started",
            "workloads.flows_completed",
            "core.poller.polls",
            "analysis.bursts",
        ] {
            m.insert(name, per_rep(traced, name, reps));
        }
        let polls = traced.counted("core.poller.polls") as f64;
        let missed = traced.counted("core.poller.missed") as f64;
        m.insert("core.poller.missed_frac", ratio(missed, polls + missed));

        // The number behind "near-linear": the same specs on one and on two
        // pool threads, back to back, digests compared.
        let mut off = Tracer::off();
        let (one, wall_1, _) = timed(|| run_parallel_on(1, Self::specs(input)));
        let (two, wall_2, _) = timed(|| run_parallel_on(2, Self::specs(input)));
        m.insert("bench.pool.speedup_2t", wall_1 / wall_2);
        let a = Self::reduce(input, &one, &mut off);
        let b = Self::reduce(input, &two, &mut off);
        u64::from(a.digest != b.digest)
    }
}
