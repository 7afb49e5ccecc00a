//! Offline analysis of exported campaign data.
//!
//! The paper published its raw distributions so others could re-analyze
//! them; this tool plays the same role for this reproduction: it loads a
//! CSV produced by `SampleStore::export_csv` (see the `collector_pipeline`
//! example) and recomputes the Fig. 3/4/6-style burst statistics for every
//! byte-counter series in the file.
//!
//! Usage: `analyze_csv <file.csv> [link_gbps]` (default 10 Gbps).

use std::fs::File;
use std::io::BufReader;

use uburst_analysis::{extract_bursts, fit_transition_matrix, hot_chain, Ecdf, HOT_THRESHOLD};
use uburst_asic::CounterId;
use uburst_bench::report::Table;
use uburst_core::{counter_label, SampleStore};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: analyze_csv <file.csv> [link_gbps]");
        std::process::exit(2);
    };
    let gbps: f64 = args
        .next()
        .map(|s| s.parse().expect("link_gbps must be a number"))
        .unwrap_or(10.0);
    let bps = (gbps * 1e9) as u64;

    let file = File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let store = SampleStore::import_csv(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });

    println!(
        "{path}: {} series, {} samples (assuming {gbps} Gbps links)",
        store.keys().len(),
        store.total_samples()
    );

    let mut t = Table::new(&[
        "source", "counter", "samples", "util", "hot%", "bursts", "p50us", "p90us", "markov_r",
    ]);
    let mut analyzed = 0;
    for key in store.keys() {
        let is_bytes = matches!(key.counter, CounterId::TxBytes(_) | CounterId::RxBytes(_));
        if !is_bytes {
            continue; // only byte counters convert to utilization
        }
        let series = store.series(key.source, key.counter).expect("listed key");
        if series.len() < 3 {
            continue;
        }
        let utils = series.utilization(bps);
        let mean: f64 = utils.iter().map(|u| u.util).sum::<f64>() / utils.len() as f64;
        let a = extract_bursts(&utils, HOT_THRESHOLD);
        let m = fit_transition_matrix(&hot_chain(&utils, HOT_THRESHOLD));
        let (p50, p90) = if a.bursts.is_empty() {
            (0.0, 0.0)
        } else {
            let e = Ecdf::new(a.durations().iter().map(|d| d.as_micros_f64()).collect());
            (e.quantile(0.5), e.quantile(0.9))
        };
        t.row(&[
            format!("{}", key.source.0),
            counter_label(key.counter),
            format!("{}", series.len()),
            format!("{mean:.3}"),
            format!("{:.1}", a.hot_fraction() * 100.0),
            format!("{}", a.bursts.len()),
            format!("{p50:.0}"),
            format!("{p90:.0}"),
            format!("{:.1}", m.likelihood_ratio()),
        ]);
        analyzed += 1;
    }
    if analyzed == 0 {
        println!("no byte-counter series found — nothing to analyze");
    } else {
        print!("{}", t.render());
    }
}
