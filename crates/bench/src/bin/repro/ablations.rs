//! Design-choice ablations called out in DESIGN.md §4.
//!
//! Not paper figures — these vary one mechanism at a time and show how the
//! measured microburst phenomenology depends on it:
//!
//! 1. **Shared-buffer alpha** — dynamic-threshold aggressiveness vs. drops.
//! 2. **ECMP flow hashing vs. per-packet spraying** — Fig. 7's imbalance
//!    disappears under spraying, at the price of reordering-induced
//!    spurious retransmits.
//! 3. **Dedicated vs. shared poller core** — the paper's precision/CPU
//!    tradeoff (§4.1).
//! 4. **Read-and-clear peak register vs. sampled level** — why the paper
//!    polls a peak register "so that we do not miss any congestion events".
//! 5. **NIC pacing** — the §7 pacing discussion: pacing the rack's servers
//!    shaves the burst tail.
//!
//! Each sweep's points are independent campaigns, so they run on the
//! parallel engine (`uburst_bench::run_jobs`); rows are assembled in sweep
//! order, so the report is identical for any `UBURST_THREADS`.
//!
//! Run with `cargo run --release -p uburst-bench --bin repro -- ablations`.

use uburst_analysis::{extract_bursts, mad_per_period, Ecdf, HOT_THRESHOLD};
use uburst_asic::{AccessModel, CounterId};
use uburst_bench::campaign::{single_port_spec, CampaignSpec};
use uburst_bench::report::Table;
use uburst_bench::run_jobs;
use uburst_core::spec::CoreMode;
use uburst_core::tuning::probe_loss_profile;
use uburst_sim::bufpolicy::BufferPolicyCfg;
use uburst_sim::node::PortId;
use uburst_sim::routing::EcmpMode;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

const SPAN: Nanos = Nanos::from_millis(150);

fn ablate_buffer_alpha() {
    println!("## ablation 1: dynamic-threshold alpha (Hadoop rack, load 1.6)\n");
    let mut t = Table::new(&["alpha", "drops", "drop_dir_dn%", "burst_p90us"]);
    let rows = run_jobs(vec![0.25, 0.5, 1.0, 2.0, 4.0], |alpha| {
        let mut cfg = ScenarioConfig::new(RackType::Hadoop, 40_001);
        cfg.load = 1.6;
        // Routed through the carving-policy trait: the sweep is over the
        // DynamicThreshold aggressiveness knob, not a raw switch field.
        cfg.clos.tor_switch.policy = BufferPolicyCfg::DynamicThreshold { alpha };
        let n = cfg.n_servers;
        let (spec, port) = single_port_spec(cfg, Some(2), Nanos::from_micros(25), SPAN);
        let run = spec.run();
        let utils = run.utilization(CounterId::TxBytes(port), 10_000_000_000);
        let a = extract_bursts(&utils, HOT_THRESHOLD);
        let p90 = if a.bursts.is_empty() {
            0.0
        } else {
            uburst_analysis::quantile(
                &mut a
                    .durations()
                    .iter()
                    .map(|d| d.as_micros_f64())
                    .collect::<Vec<_>>(),
                0.9,
            )
        };
        let drops = run.net.tor.dropped_packets;
        let dn_drops = run.net.downlink_drops(n);
        [
            format!("{alpha}"),
            format!("{drops}"),
            format!(
                "{:.0}",
                if drops == 0 {
                    0.0
                } else {
                    dn_drops as f64 / drops as f64 * 100.0
                }
            ),
            format!("{p90:.0}"),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!("smaller alpha carves tighter per-port limits -> more (earlier) drops;\nlarge alpha shares the pool -> fewer drops, longer uninterrupted bursts.\n");
}

fn ablate_ecmp() {
    println!("## ablation 2: ECMP flow hashing vs per-packet spraying (Hadoop)\n");
    let mut t = Table::new(&["mode", "mad_p50@40us", "mad_p90@40us", "retransmits"]);
    let rows = run_jobs(
        vec![
            ("flow-hash", EcmpMode::FlowHash),
            ("packet-spray", EcmpMode::PacketSpray),
        ],
        |(name, mode)| {
            let mut cfg = ScenarioConfig::new(RackType::Hadoop, 40_002);
            cfg.clos.ecmp_mode = mode;
            let n = cfg.n_servers;
            let uplink_bps = cfg.clos.uplink.bandwidth_bps;
            let counters: Vec<CounterId> = (0..4)
                .map(|f| CounterId::TxBytes(PortId((n + f) as u16)))
                .collect();
            let run = CampaignSpec::new(cfg, counters.clone(), Nanos::from_micros(40), SPAN).run();
            let series: Vec<Vec<f64>> = counters
                .iter()
                .map(|&c| {
                    run.utilization(c, uplink_bps)
                        .iter()
                        .map(|u| u.util)
                        .collect()
                })
                .collect();
            let mad = Ecdf::new(mad_per_period(&series));
            [
                name.into(),
                format!("{:.2}", mad.quantile(0.5)),
                format!("{:.2}", mad.quantile(0.9)),
                format!("{}", run.net.transport.retransmits),
            ]
        },
    );
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!("spraying balances the uplinks almost perfectly but reorders flows,\nwhich the transport pays for in spurious retransmissions.\n");
}

fn ablate_poller_core() {
    println!("## ablation 3: dedicated vs shared poller core (byte counter)\n");
    let mut t = Table::new(&["core", "miss@10us", "miss@25us", "miss@100us", "cpu"]);
    // 2 modes x 3 intervals = 6 independent probe campaigns.
    let modes = [CoreMode::Dedicated, CoreMode::Shared];
    let mut jobs = Vec::new();
    for &mode in &modes {
        for us in [10u64, 25, 100] {
            jobs.push((mode, us));
        }
    }
    let misses = run_jobs(jobs, |(mode, us)| {
        probe_loss_profile(
            &[CounterId::TxBytes(PortId(0))],
            AccessModel::default(),
            Nanos::from_micros(us),
            Nanos::from_millis(300),
            mode,
            us,
        )
        .0
    });
    for (mi, mode) in modes.into_iter().enumerate() {
        let m = &misses[mi * 3..mi * 3 + 3];
        t.row(&[
            format!("{mode:?}"),
            format!("{:.1}%", m[0] * 100.0),
            format!("{:.1}%", m[1] * 100.0),
            format!("{:.1}%", m[2] * 100.0),
            match mode {
                CoreMode::Dedicated => "1 full core".into(),
                CoreMode::Shared => "<20% of a core".into(),
            },
        ]);
    }
    t.print();
    println!("the paper's tradeoff: precise timing costs a dedicated core; sharing\nthe core drops CPU below 20% but inflates missed intervals (§4.1).\n");
}

fn ablate_peak_register() {
    println!("## ablation 4: read-and-clear peak register vs sampled level\n");
    let cfg = ScenarioConfig::new(RackType::Hadoop, 40_004);
    let run = CampaignSpec::new(
        cfg,
        vec![CounterId::BufferPeak, CounterId::BufferLevel],
        Nanos::from_micros(300),
        SPAN,
    )
    .run();
    let peaks = run.series_for(CounterId::BufferPeak);
    let levels = run.series_for(CounterId::BufferLevel);
    let max_peak = peaks.vs.iter().copied().max().unwrap_or(0);
    let max_level = levels.vs.iter().copied().max().unwrap_or(0);
    // How much buffer excursion does level-sampling miss per interval?
    let mut missed_excursion = 0u64;
    let mut intervals = 0u64;
    for (&p, &l) in peaks.vs.iter().zip(&levels.vs).skip(1) {
        missed_excursion += p.saturating_sub(l);
        intervals += 1;
    }
    let mut t = Table::new(&["metric", "peak_register", "sampled_level"]);
    t.row(&[
        "max observed (bytes)".into(),
        format!("{max_peak}"),
        format!("{max_level}"),
    ]);
    t.row(&[
        "mean missed excursion/interval".into(),
        "0 (by construction)".into(),
        format!("{}", missed_excursion / intervals.max(1)),
    ]);
    t.print();
    println!(
        "underestimate of the true maximum with sampled levels: {:.0}%\n\
the read-and-clear register never misses an excursion between reads —\n\
\"even when the sampling loop misses a sampling period, our results\n\
will still reflect bursts\" (§4.1).\n",
        (1.0 - max_level as f64 / max_peak.max(1) as f64) * 100.0
    );
}

fn ablate_pacing() {
    println!("## ablation 5: NIC pacing on the rack's servers (Cache rack)\n");
    let mut t = Table::new(&["pacing", "uplink_hot%", "burst_p90us", "drops"]);
    let rows = run_jobs(
        vec![
            ("none (TSO bursts)", None),
            ("5 Gbps", Some(5_000_000_000u64)),
            ("2.5 Gbps", Some(2_500_000_000u64)),
        ],
        |(name, pace)| {
            let mut cfg = ScenarioConfig::new(RackType::Cache, 40_005);
            cfg.nic_pace_bps = pace;
            let uplink = cfg.n_servers;
            let uplink_bps = cfg.clos.uplink.bandwidth_bps;
            let (spec, port) = single_port_spec(cfg, Some(uplink), Nanos::from_micros(25), SPAN);
            let run = spec.run();
            let utils = run.utilization(CounterId::TxBytes(port), uplink_bps);
            let a = extract_bursts(&utils, HOT_THRESHOLD);
            let p90 = if a.bursts.is_empty() {
                0.0
            } else {
                uburst_analysis::quantile(
                    &mut a
                        .durations()
                        .iter()
                        .map(|d| d.as_micros_f64())
                        .collect::<Vec<_>>(),
                    0.9,
                )
            };
            [
                name.into(),
                format!("{:.1}", a.hot_fraction() * 100.0),
                format!("{p90:.0}"),
                format!("{}", run.net.tor.dropped_packets),
            ]
        },
    );
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!("pacing smears the line-rate trains out: hot fraction and burst tails\nshrink — the effect the hardware/software pacing proposals of §7 target.\n");
}

pub fn run() {
    println!("design-choice ablations (see DESIGN.md section 4)\n");
    ablate_buffer_alpha();
    ablate_ecmp();
    ablate_poller_core();
    ablate_peak_register();
    ablate_pacing();
}
