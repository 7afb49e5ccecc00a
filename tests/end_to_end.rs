//! End-to-end integration: scenario → switch → ASIC counters → poller →
//! analysis, across all crates.

use uburst::prelude::*;
use uburst::sim::switch::Switch;

/// Builds, warms up, and polls one port of a rack; returns everything the
/// assertions need.
fn measured_rack(
    rack_type: RackType,
    seed: u64,
    span: Nanos,
) -> (Scenario, PollerStats, Vec<UtilSample>) {
    let mut s = build_scenario(ScenarioConfig::new(rack_type, seed));
    let warmup = s.recommended_warmup();
    s.sim.run_until(warmup);
    let port = s.host_ports()[1];
    let campaign =
        CampaignConfig::single("bytes", CounterId::TxBytes(port), Nanos::from_micros(25));
    let poller = Poller::in_memory(s.counters.clone(), AccessModel::default(), campaign, seed)
        .expect("valid campaign");
    let stop = warmup + span;
    let id = poller
        .spawn(&mut s.sim, warmup, stop)
        .expect("valid window");
    s.sim.run_until(stop + Nanos::from_millis(1));
    let stats = s.sim.node_mut::<Poller>(id).stats();
    let series = &s
        .sim
        .node_mut::<Poller>(id)
        .take_series()
        .expect("in-memory")[0]
        .1;
    let utils = series.utilization(s.server_link_bps());
    (s, stats, utils)
}

#[test]
fn bytes_are_conserved_at_the_tor() {
    for rack_type in RackType::ALL {
        let (s, _, _) = measured_rack(rack_type, 5, Nanos::from_millis(50));
        let stats = s.sim.node::<Switch>(s.tor()).stats();
        assert_eq!(
            stats.rx_bytes,
            stats.tx_bytes + stats.dropped_bytes + s.sim.node::<Switch>(s.tor()).buffered_bytes(),
            "{}: rx != tx + dropped + buffered",
            rack_type.name()
        );
        assert_eq!(stats.unroutable, 0, "{}", rack_type.name());
    }
}

#[test]
fn asic_counters_match_switch_stats() {
    let (s, _, _) = measured_rack(RackType::Cache, 9, Nanos::from_millis(50));
    let stats = s.sim.node::<Switch>(s.tor()).stats();
    let n_ports = s.cfg.n_servers + s.cfg.clos.n_fabric;
    let counter_tx: u64 = (0..n_ports)
        .map(|i| s.counters.read(CounterId::TxBytes(PortId(i as u16))))
        .sum();
    let counter_rx: u64 = (0..n_ports)
        .map(|i| s.counters.read(CounterId::RxBytes(PortId(i as u16))))
        .sum();
    let counter_drops: u64 = (0..n_ports)
        .map(|i| s.counters.read(CounterId::Drops(PortId(i as u16))))
        .sum();
    assert_eq!(counter_tx, stats.tx_bytes);
    assert_eq!(counter_rx, stats.rx_bytes);
    assert_eq!(counter_drops, stats.dropped_packets);
}

#[test]
fn poller_achieves_paper_loss_rate_under_live_traffic() {
    let (_, stats, utils) = measured_rack(RackType::Hadoop, 3, Nanos::from_millis(100));
    assert!(
        stats.deadline_miss_fraction() < 0.05,
        "25us campaign missed {:.2}%",
        stats.deadline_miss_fraction() * 100.0
    );
    // ~4000 deadlines in 100ms at 25us.
    assert!(stats.polls > 3_800, "only {} polls", stats.polls);
    assert_eq!(stats.polls as usize, utils.len() + 1);
}

#[test]
fn utilization_is_physical() {
    for rack_type in RackType::ALL {
        let (_, _, utils) = measured_rack(rack_type, 11, Nanos::from_millis(50));
        let mut weighted = 0.0;
        let mut span = 0.0;
        for u in &utils {
            assert!(u.util >= 0.0, "{}: negative util", rack_type.name());
            // A single interval can read above 1.0: sample timestamps carry
            // per-poll jitter, so a measured interval may be shorter than
            // the window the bytes accumulated over. It is bounded by the
            // jitter ratio (~25us nominal vs >=18us measured).
            assert!(
                u.util < 1.4,
                "{}: util {} beyond jitter-explainable range",
                rack_type.name(),
                u.util
            );
            weighted += u.util * u.dt.as_secs_f64();
            span += u.dt.as_secs_f64();
        }
        // Over the whole campaign the jitter cancels: the time-weighted
        // mean cannot exceed line rate (minus wire overhead).
        assert!(
            weighted / span < 0.99,
            "{}: mean util {} at/above line rate",
            rack_type.name(),
            weighted / span
        );
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let (_, stats_a, utils_a) = measured_rack(RackType::Web, 77, Nanos::from_millis(40));
    let (_, stats_b, utils_b) = measured_rack(RackType::Web, 77, Nanos::from_millis(40));
    assert_eq!(stats_a, stats_b);
    assert_eq!(utils_a.len(), utils_b.len());
    for (a, b) in utils_a.iter().zip(&utils_b) {
        assert_eq!(a.t, b.t);
        assert_eq!(a.util, b.util);
    }
}

/// Polls `campaigns` together on one simulation of one seeded rack and
/// returns what each poller recorded, in order.
fn polled_together(campaigns: &[CampaignConfig]) -> Vec<(PollerStats, Vec<(CounterId, Series)>)> {
    let mut s = build_scenario(ScenarioConfig::new(RackType::Hadoop, 13));
    let warmup = s.recommended_warmup();
    s.sim.run_until(warmup);
    let stop = warmup + Nanos::from_millis(20);
    let ids: Vec<_> = campaigns
        .iter()
        .map(|campaign| {
            Poller::in_memory(
                s.counters.clone(),
                AccessModel::default(),
                campaign.clone(),
                99,
            )
            .expect("valid campaign")
            .spawn(&mut s.sim, warmup, stop)
            .expect("valid window")
        })
        .collect();
    s.sim.run_until(stop + Nanos::from_millis(1));
    ids.into_iter()
        .map(|id| {
            let poller = s.sim.node_mut::<Poller>(id);
            (poller.stats(), poller.take_series().expect("in-memory"))
        })
        .collect()
}

/// The poller is a passive observer: a campaign records the same samples
/// and the same loop statistics whether it has the simulation to itself or
/// shares it with another campaign — here the figures' two shapes, one
/// byte counter at 25 us and every port plus the peak register at 300 us.
#[test]
fn two_pollers_on_one_simulation_each_record_what_they_record_alone() {
    let fine = CampaignConfig::single(
        "fine",
        CounterId::TxBytes(PortId(1)),
        Nanos::from_micros(25),
    );
    let mut wide: Vec<CounterId> = (0..28).map(|p| CounterId::TxBytes(PortId(p))).collect();
    wide.push(CounterId::BufferPeak);
    let wide = CampaignConfig::group("wide", wide, Nanos::from_micros(300));

    let together = polled_together(&[fine.clone(), wide.clone()]);
    let fine_alone = polled_together(&[fine]).remove(0);
    let wide_alone = polled_together(&[wide]).remove(0);
    assert!(fine_alone.0.polls > 700 && wide_alone.0.polls > 60);
    assert_eq!(together[0], fine_alone, "25us campaign saw its neighbour");
    assert_eq!(together[1], wide_alone, "300us campaign saw its neighbour");
}

#[test]
fn burst_analysis_is_consistent_with_raw_utils() {
    let (_, _, utils) = measured_rack(RackType::Hadoop, 21, Nanos::from_millis(100));
    let analysis = extract_bursts(&utils, HOT_THRESHOLD);
    let hot_direct = utils.iter().filter(|u| u.util > HOT_THRESHOLD).count();
    assert_eq!(analysis.hot_samples, hot_direct);
    assert_eq!(analysis.total_samples, utils.len());
    let samples_in_bursts: usize = analysis.bursts.iter().map(|b| b.samples).sum();
    assert_eq!(samples_in_bursts, hot_direct);
    // Gaps fit strictly between bursts.
    assert_eq!(analysis.gaps.len(), analysis.bursts.len().saturating_sub(1));
}

#[test]
fn different_hours_change_load_through_the_whole_stack() {
    let mut peak = ScenarioConfig::new(RackType::Cache, 31);
    peak.hour = 20.0;
    let mut trough = ScenarioConfig::new(RackType::Cache, 31);
    trough.hour = 8.0;
    let run = |cfg: ScenarioConfig| {
        let mut s = build_scenario(cfg);
        s.sim.run_until(Nanos::from_millis(80));
        (0..s.cfg.n_servers + 4)
            .map(|i| s.counters.read(CounterId::RxBytes(PortId(i as u16))))
            .sum::<u64>()
    };
    let bytes_peak = run(peak);
    let bytes_trough = run(trough);
    assert!(
        (bytes_trough as f64) < 0.8 * bytes_peak as f64,
        "diurnal trough {bytes_trough} should be well below peak {bytes_peak}"
    );
}
