//! Figure 1 — scatter of drop rate vs. utilization at coarse granularity.
//!
//! Paper's finding (§3): across ToR-server links sampled at SNMP
//! granularity (4-minute windows), utilization barely predicts drops —
//! correlation coefficient 0.098 — because congestion lives at timescales
//! the windows average away.
//!
//! Scaling: windows here are 20 ms (quick) / 100 ms (full) over sub-second
//! campaigns; rack instances span load levels and hours the way the
//! paper's sample spanned a day across a whole data center.

use std::fmt::Write;

use uburst_analysis::{pearson, to_windows};
use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{CampaignRun, CampaignSpec};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// Offered loads, swept per rack type.
const LOADS: [f64; 4] = [0.5, 0.8, 1.1, 1.4];

/// One campaign per (rack type, load): every downlink's byte and drop
/// counters at 500 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    let span = scale.campaign_span();
    let mut specs = Vec::new();
    for rack_type in RackType::ALL {
        for (li, &load) in LOADS.iter().enumerate() {
            let mut cfg = ScenarioConfig::new(rack_type, 20_000 + li as u64);
            cfg.load = load;
            let mut counters = Vec::new();
            for i in 0..cfg.n_servers {
                counters.push(CounterId::TxBytes(PortId(i as u16)));
                counters.push(CounterId::Drops(PortId(i as u16)));
            }
            specs.push(CampaignSpec::new(
                cfg,
                counters,
                Nanos::from_micros(500),
                span,
            ));
        }
    }
    specs
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let window = match scale {
        Scale::Quick => Nanos::from_millis(20),
        Scale::Full => Nanos::from_millis(100),
    };
    let mut out = String::new();
    writeln!(
        out,
        "Figure 1: drop rate vs utilization of ToR-server links at {window} windows ({} scale)",
        scale.label()
    )
    .unwrap();

    // Every run reduces to (util, drop rate, drops) window triples, folded
    // in campaign order.
    let samples = specs.iter().zip(runs).map(|(spec, run)| {
        let n = spec.cfg.n_servers;
        let bps = spec.cfg.clos.server_link.bandwidth_bps;
        let mut triples = Vec::new();
        for i in 0..n {
            let p = PortId(i as u16);
            let bytes = run.series_for(CounterId::TxBytes(p));
            let drops = run.series_for(CounterId::Drops(p));
            let (origin, end) = (
                Nanos(bytes.ts[0]),
                Nanos(*bytes.ts.last().expect("non-empty")),
            );
            if end.saturating_sub(origin) < window {
                continue;
            }
            let bw = to_windows(bytes, origin, window, end);
            let dw = to_windows(drops, origin, window, end);
            for (b, d) in bw.iter().zip(&dw) {
                triples.push((b.utilization(bps), d.rate(), d.delta));
            }
        }
        triples
    });

    let mut utils: Vec<f64> = Vec::new();
    let mut drop_rates: Vec<f64> = Vec::new();
    let mut windows_with_drops = 0usize;
    let mut low_util_drop_windows = 0usize;
    for (util, rate, delta) in samples.flatten() {
        utils.push(util);
        drop_rates.push(rate);
        if delta > 0 {
            windows_with_drops += 1;
            if util < 0.3 {
                low_util_drop_windows += 1;
            }
        }
    }

    let corr = pearson(&utils, &drop_rates);
    let n = utils.len();
    writeln!(
        out,
        "{} (port x window) samples across 3 rack types x {} loads",
        n,
        LOADS.len()
    )
    .unwrap();

    // A coarse scatter rendition: drop-rate quantiles by utilization band.
    let mut table = Table::new(&["util_band", "windows", "w/_drops", "mean_drop_rate"]);
    for band in [(0.0, 0.1), (0.1, 0.3), (0.3, 0.5), (0.5, 0.8), (0.8, 2.0)] {
        let idx: Vec<usize> = (0..n)
            .filter(|&i| utils[i] >= band.0 && utils[i] < band.1)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let with_drops = idx.iter().filter(|&&i| drop_rates[i] > 0.0).count();
        let mean_rate = idx.iter().map(|&i| drop_rates[i]).sum::<f64>() / idx.len() as f64;
        table.row(&[
            format!("{:.1}-{:.1}", band.0, band.1),
            format!("{}", idx.len()),
            format!("{with_drops}"),
            format!("{mean_rate:.1}/s"),
        ]);
    }
    writeln!(out, "{}", table.render()).unwrap();
    writeln!(
        out,
        "correlation(utilization, drop rate) = {corr:.3}   (paper: 0.098)"
    )
    .unwrap();
    writeln!(out, "\npaper-shape checks:").unwrap();
    let checks = [
        (
            format!(
                "utilization is a weak predictor of drops (|corr| = {:.3} < 0.3)",
                corr.abs()
            ),
            corr.abs() < 0.3,
        ),
        (
            format!("drops occur even in low-utilization windows ({low_util_drop_windows} of {windows_with_drops} drop windows below 30% util)"),
            windows_with_drops == 0 || low_util_drop_windows > 0,
        ),
    ];
    write_checks(&mut out, 2, checks);
    out
}
