//! Figure 7 — mean absolute deviation of uplink utilization (ECMP balance).
//!
//! Paper's findings: at 40 µs granularity every rack type has a median
//! relative MAD over 25 %; Hadoop's p90 reaches ~100 %; at 1 s granularity
//! the links appear balanced; the fabric adds little extra variance
//! (ingress disperses like egress).
//!
//! Scaling: our campaigns run for fractions of a second, so the "coarse"
//! granularity is 10 ms (quick) / 50 ms (full) instead of 1 s; the contrast
//! fine-vs-coarse is the result being reproduced.

use std::fmt::Write;

use uburst_analysis::{coarsen, mad_per_period, Ecdf};
use uburst_asic::CounterId;
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{port_groups_spec, CampaignRun, CampaignSpec};
use crate::report::{write_checks, Table};
use crate::scale::Scale;

/// MAD CDF evaluation points.
const MAD_POINTS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5];

/// Maps a port to the counter measured for one traffic direction.
type DirectionCounter = fn(PortId) -> CounterId;

/// The uplinks of a rack: ToR ports `n_servers..n_servers + n_fabric`.
fn uplinks(cfg: &ScenarioConfig) -> Vec<PortId> {
    (0..cfg.clos.n_fabric)
        .map(|f| PortId((cfg.n_servers + f) as u16))
        .collect()
}

/// One campaign per rack type: TX and RX bytes of every uplink at 40 µs.
pub fn campaigns(scale: Scale) -> Vec<CampaignSpec> {
    RackType::ALL
        .into_iter()
        .map(|rack_type| {
            let cfg = ScenarioConfig::new(rack_type, 4_321);
            let ports = uplinks(&cfg);
            port_groups_spec(cfg, &ports, Nanos::from_micros(40), scale.campaign_span())
        })
        .collect()
}

/// Renders the report from the runs of [`campaigns`].
pub fn render(scale: Scale, specs: &[CampaignSpec], runs: &[CampaignRun]) -> String {
    let coarse_factor: usize = match scale {
        Scale::Quick => 250,  // 40us * 250 = 10ms
        Scale::Full => 1_250, // 50ms
    };
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7: relative MAD of the 4 uplinks per sampling period ({} scale)",
        scale.label()
    )
    .unwrap();
    writeln!(
        out,
        "granularities: fine = 40us, coarse = {}",
        Nanos::from_micros(40) * coarse_factor as u64
    )
    .unwrap();

    let mut table = Table::new(&[
        "rack",
        "dir",
        "fine_p50",
        "fine_p90",
        "coarse_p50",
        "coarse_p90",
    ]);
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut fine_p50s = Vec::new();
    let mut curves = String::new();

    for (spec, run) in specs.iter().zip(runs) {
        let rack_type = spec.cfg.rack_type;
        let uplink_bps = spec.cfg.clos.uplink.bandwidth_bps;
        let uplinks = uplinks(&spec.cfg);
        let directions: [(&str, DirectionCounter); 2] = [
            ("egress", CounterId::TxBytes),
            ("ingress", CounterId::RxBytes),
        ];
        for (dir, counter) in directions {
            let series: Vec<Vec<f64>> = uplinks
                .iter()
                .map(|&p| {
                    run.utilization(counter(p), uplink_bps)
                        .iter()
                        .map(|u| u.util)
                        .collect()
                })
                .collect();
            let fine = mad_per_period(&series);
            // `coarsen` averages a shorter trailing chunk rather than
            // dropping it, so no samples are silently truncated here
            // (fig10, whose windows must be full-width, reports its
            // excluded tail explicitly).
            let coarse_series: Vec<Vec<f64>> =
                series.iter().map(|s| coarsen(s, coarse_factor)).collect();
            let coarse = mad_per_period(&coarse_series);
            let fine_ecdf = Ecdf::new(fine);
            let coarse_ecdf = Ecdf::new(coarse);
            writeln!(curves, "\n{} {dir} MAD CDF (40us):", rack_type.name()).unwrap();
            for (x, f) in fine_ecdf.curve(&MAD_POINTS) {
                writeln!(curves, "  {x:>5.2}  {f:.3}").unwrap();
            }
            table.row(&[
                rack_type.name().to_string(),
                dir.to_string(),
                format!("{:.2}", fine_ecdf.quantile(0.5)),
                format!("{:.2}", fine_ecdf.quantile(0.9)),
                format!("{:.2}", coarse_ecdf.quantile(0.5)),
                format!("{:.2}", coarse_ecdf.quantile(0.9)),
            ]);
            if dir == "egress" {
                fine_p50s.push((rack_type, fine_ecdf.quantile(0.5)));
                checks.push((
                    format!(
                        "{rack} egress: median fine MAD > 25% (got {got:.0}%)",
                        rack = rack_type.name(),
                        got = fine_ecdf.quantile(0.5) * 100.0
                    ),
                    fine_ecdf.quantile(0.5) > 0.25,
                ));
                checks.push((
                    format!(
                        "{rack}: coarse windows look balanced (coarse p50 {c:.2} << fine p50 {f:.2})",
                        rack = rack_type.name(),
                        c = coarse_ecdf.quantile(0.5),
                        f = fine_ecdf.quantile(0.5)
                    ),
                    coarse_ecdf.quantile(0.5) < 0.5 * fine_ecdf.quantile(0.5),
                ));
            } else {
                checks.push((
                    format!(
                        "{rack} ingress disperses like egress (fine p50 {got:.2})",
                        rack = rack_type.name(),
                        got = fine_ecdf.quantile(0.5)
                    ),
                    fine_ecdf.quantile(0.5) > 0.1,
                ));
            }
        }
    }

    let hadoop_p90_hint = fine_p50s
        .iter()
        .find(|(rt, _)| *rt == RackType::Hadoop)
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    checks.push((
        format!(
            "Hadoop is the least balanced at fine granularity (egress p50 {hadoop_p90_hint:.2})"
        ),
        fine_p50s.iter().all(|(_, v)| hadoop_p90_hint >= *v * 0.8),
    ));

    writeln!(out, "{}", table.render()).unwrap();
    out.push_str(&curves);
    writeln!(out, "\npaper-shape checks:").unwrap();
    write_checks(&mut out, 2, checks);
    out
}
