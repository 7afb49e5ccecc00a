//! Workload calibration probe.
//!
//! Not a paper figure: prints the shape metrics every figure depends on
//! (utilization, hot fractions, burst duration quantiles, directionality,
//! correlation, burstiness ratios) for each rack type, next to the paper's
//! target values, so workload parameters can be tuned. Run with
//! `cargo run --release -p uburst-bench --bin repro -- calibrate`.

use uburst_analysis::{
    correlation_matrix, extract_bursts, fit_transition_matrix, hot_chain, mean_offdiagonal,
    pearson, Ecdf, HOT_THRESHOLD,
};
use uburst_asic::CounterId;
use uburst_bench::campaign::{port_bps, port_groups_spec, single_port_spec};
use uburst_bench::report::Table;
use uburst_bench::run_jobs;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

pub fn run() {
    let span = Nanos::from_millis(
        std::env::var("CAL_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300),
    );
    let interval = Nanos::from_micros(25);

    let mut table = Table::new(&[
        "rack",
        "port",
        "util",
        "hot%",
        "bursts",
        "p50us",
        "p90us",
        "p99us",
        "maxus",
        "gap_p50us",
        "markov_r",
    ]);

    // --- single random downlink at 25us (Fig 3/4/6 view), one campaign
    // per (rack type, seed), run on the parallel engine -------------------
    let mut probe_jobs = Vec::new();
    for rack_type in RackType::ALL {
        for seed in [1u64, 2, 3] {
            probe_jobs.push((rack_type, seed));
        }
    }
    let rows = run_jobs(probe_jobs, |(rack_type, seed)| {
        let cfg = ScenarioConfig::new(rack_type, seed);
        let n_servers = cfg.n_servers;
        let port = uburst_bench::representative_port(&cfg);
        let port_speed = port_bps(&cfg, port);
        let (spec, port) = single_port_spec(cfg, Some(port.0 as usize), interval, span);
        let run = spec.run();
        let util = run.utilization(CounterId::TxBytes(port), port_speed);
        let mean_util: f64 = util.iter().map(|u| u.util).sum::<f64>() / util.len() as f64;
        let analysis = extract_bursts(&util, HOT_THRESHOLD);
        let chain = hot_chain(&util, HOT_THRESHOLD);
        let m = fit_transition_matrix(&chain);
        let durations: Vec<f64> = analysis
            .durations()
            .iter()
            .map(|d| d.as_micros_f64())
            .collect();
        let gaps: Vec<f64> = analysis.gaps.iter().map(|g| g.as_micros_f64()).collect();
        let (p50, p90, p99, maxd) = if durations.is_empty() {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            let e = Ecdf::new(durations);
            (e.quantile(0.5), e.quantile(0.9), e.quantile(0.99), e.max())
        };
        let gap50 = if gaps.is_empty() {
            0.0
        } else {
            Ecdf::new(gaps).quantile(0.5)
        };
        [
            format!("{}/{}", rack_type.name(), seed),
            format!(
                "{}{}",
                if (port.0 as usize) < n_servers {
                    "dn"
                } else {
                    "up"
                },
                port.0
            ),
            format!("{:.3}", mean_util),
            format!("{:.1}", analysis.hot_fraction() * 100.0),
            format!("{}", analysis.bursts.len()),
            format!("{p50:.0}"),
            format!("{p90:.0}"),
            format!("{p99:.0}"),
            format!("{maxd:.0}"),
            format!("{gap50:.0}"),
            format!("{:.1}", m.likelihood_ratio()),
        ]
    });
    for row in &rows {
        table.row(row);
    }
    table.print();

    // --- directionality + correlation at coarser granularity -------------
    let mut t2 = Table::new(&[
        "rack",
        "dn_util",
        "up_util",
        "hot_up_share",
        "corr_all",
        "corr_pod",
        "drops",
        "drop_dir_dn%",
    ]);
    let rows2 = run_jobs(RackType::ALL.to_vec(), |rack_type| {
        let cfg = ScenarioConfig::new(rack_type, 11);
        let n = cfg.n_servers;
        let all_ports: Vec<PortId> = (0..(n + 4)).map(|i| PortId(i as u16)).collect();
        let bps: Vec<u64> = all_ports.iter().map(|&p| port_bps(&cfg, p)).collect();
        let run = port_groups_spec(cfg, &all_ports, Nanos::from_micros(300), span).run();
        let utils: Vec<Vec<f64>> = all_ports
            .iter()
            .zip(&bps)
            .map(|(&p, &b)| {
                run.utilization(CounterId::TxBytes(p), b)
                    .iter()
                    .map(|u| u.util)
                    .collect()
            })
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let dn_util = mean(&utils[..n].iter().map(|u| mean(u)).collect::<Vec<_>>());
        let up_util = mean(&utils[n..].iter().map(|u| mean(u)).collect::<Vec<_>>());
        let hot = |v: &[f64]| v.iter().filter(|&&u| u > HOT_THRESHOLD).count();
        let hot_dn: usize = utils[..n].iter().map(|u| hot(u)).sum();
        let hot_up: usize = utils[n..].iter().map(|u| hot(u)).sum();
        let hot_share = if hot_dn + hot_up == 0 {
            0.0
        } else {
            hot_up as f64 / (hot_dn + hot_up) as f64
        };
        // Server correlation on downlink utilization.
        let m = correlation_matrix(&utils[..n]);
        let corr_all = mean_offdiagonal(&m);
        // Mean correlation within pods of 4 (cache structure).
        let mut pod_sum = 0.0;
        let mut pod_cnt = 0;
        for pod_start in (0..n).step_by(4) {
            for i in pod_start..(pod_start + 4).min(n) {
                for j in (i + 1)..(pod_start + 4).min(n) {
                    pod_sum += pearson(&utils[i], &utils[j]);
                    pod_cnt += 1;
                }
            }
        }
        let corr_pod = pod_sum / pod_cnt.max(1) as f64;
        // Drops and their direction (from the run's reduced snapshot).
        let dn_drops = run.net.downlink_drops(n);
        let up_drops = run.net.uplink_drops(n);
        let total_drops = dn_drops + up_drops;
        [
            rack_type.name().to_string(),
            format!("{dn_util:.3}"),
            format!("{up_util:.3}"),
            format!("{:.2}", hot_share),
            format!("{corr_all:.3}"),
            format!("{corr_pod:.3}"),
            format!("{total_drops}"),
            format!(
                "{:.0}",
                if total_drops == 0 {
                    0.0
                } else {
                    dn_drops as f64 / total_drops as f64 * 100.0
                }
            ),
        ]
    });
    for row in &rows2 {
        t2.row(row);
    }
    t2.print();

    println!();
    println!("paper targets:");
    println!("  Web:    util~0.05-0.1, p90 dur ~50us, r~120, corr~0, hot mostly downlink");
    println!("  Cache:  util moderate, p90 dur ~100-200us, r~45, corr_pod >> corr_all, hot mostly uplink");
    println!("  Hadoop: util~0.2-0.4, p90 dur <=200us tail to 500us, r~15, corr modest, hot mostly downlink (18% uplink)");
    println!("  drops ~90% toward servers overall");
}
