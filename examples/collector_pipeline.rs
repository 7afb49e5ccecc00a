//! The full collection pipeline of §4.1: switch CPUs batch samples and
//! ship them to a **distributed collector service**. Each rack's poller
//! records into memory, a `Batcher` cuts the samples into batches the way
//! the switch CPU ships them, and the fleet tier carries them over lossy
//! links into WAL-backed regional aggregators and on to one global store.
//! Ends with the coverage ledger and a CSV export, like the paper's
//! published raw data.
//!
//! Run with `cargo run --release --example collector_pipeline`. Pass a
//! path argument to also write the full CSV to disk (feed it to the
//! `analyze_csv` tool for offline re-analysis).

use uburst::prelude::*;

fn main() {
    // Record the pipeline's own behaviour (poll costs, shipping,
    // WAL appends) alongside the measurement data it produces.
    uburst::obs::enable();

    // A fleet of three measured racks, one per application type.
    let fleet: Vec<(RackType, u64)> = vec![
        (RackType::Web, 11),
        (RackType::Cache, 22),
        (RackType::Hadoop, 33),
    ];

    let mut streams = Vec::new();
    for (i, (rack_type, seed)) in fleet.iter().enumerate() {
        let mut s = build_scenario(ScenarioConfig::new(*rack_type, *seed));
        let warmup = s.recommended_warmup();
        s.sim.run_until(warmup);

        // One multi-counter campaign per switch: the four uplink byte
        // counters at 40us.
        let counters: Vec<CounterId> = s
            .uplink_ports()
            .iter()
            .map(|&p| CounterId::TxBytes(p))
            .collect();
        let name = format!("{}-uplinks", rack_type.name());
        let campaign = CampaignConfig::group(&name, counters.clone(), Nanos::from_micros(40));
        let poller = Poller::in_memory(s.counters.clone(), AccessModel::default(), campaign, *seed)
            .expect("valid campaign");
        let stop = warmup + Nanos::from_millis(120);
        let id = poller
            .spawn(&mut s.sim, warmup, stop)
            .expect("valid window");
        s.sim.run_until(stop + Nanos::from_millis(1));

        let p = s.sim.node_mut::<Poller>(id);
        let stats = p.stats();
        let series = p.take_series().expect("in-memory campaign");

        // The switch CPU's batching: a Batcher cuts the polls, and each
        // cut ships as one fleet round.
        let source = SourceId(i as u32);
        let policy = BatchPolicy {
            max_samples: 512,
            max_age: Nanos::from_millis(10),
        };
        let rounds = Batcher::new(source, name, counters, policy).cut_series(&series);
        println!(
            "{}: polled {} times ({:.2}% missed deadlines), {} rounds to ship",
            rack_type.name(),
            stats.polls,
            stats.deadline_miss_fraction() * 100.0,
            rounds.len()
        );
        streams.push(SwitchStream {
            source,
            link: LinkPlan::default(),
            link_seed: *seed,
            rounds: rounds
                .into_iter()
                .map(|batches| RoundInput {
                    batches,
                    degraded: false,
                })
                .collect(),
        });
    }

    // The collector service: sequenced shipping over a lossy link into
    // regional write-ahead logs, forwarded to the global store.
    let outcome = run_fleet(streams, &FleetConfig::default());
    let store = &outcome.store;
    print!("\n{}", outcome.coverage);
    println!(
        "global store: {} samples across {} series",
        store.total_samples(),
        store.keys().len()
    );

    // Export like the paper's raw-data release; show the first rows.
    let mut csv = Vec::new();
    store.export_csv(&mut csv).expect("csv export");
    let text = String::from_utf8(csv).expect("utf8");
    println!("\nfirst CSV rows:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }
    println!("  ... ({} rows total)", text.lines().count() - 1);

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &text).expect("write csv");
        println!("wrote {path}");
    }

    // The pipeline watching itself: the full metric set, Prometheus-style.
    // Byte-identical across runs — every aggregate is commutative and
    // clocked on simulated time.
    println!("\nmetrics:");
    print!("{}", uburst::obs::snapshot().to_prometheus());
}
