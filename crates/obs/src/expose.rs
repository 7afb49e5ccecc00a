//! Snapshot rendering: Prometheus text, the one published form of a
//! snapshot.
//!
//! The rendering iterates `BTreeMap`s, so output is a pure function
//! of the recorded multiset of updates — the property the telemetry
//! determinism CI job diffs across thread counts. No wall-clock
//! timestamps appear anywhere in the output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::NS_BOUNDS;

/// Immutable view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is the
    /// overflow (`+Inf`) bucket. Bounds are [`NS_BOUNDS`].
    pub buckets: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistSnapshot {
    /// Prometheus-style cumulative bucket counts (ends at `count`).
    pub fn cumulative(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .scan(0u64, |acc, &c| {
                *acc += c;
                Some(*acc)
            })
            .collect()
    }
}

/// An ordered, immutable view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Max-aggregated gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

/// Splits `name{label="x"}` into `("name", Some("label=\"x\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Joins a base name with existing labels plus one extra label pair.
fn with_label(base: &str, labels: Option<&str>, extra: &str) -> String {
    match labels {
        Some(l) => format!("{base}{{{l},{extra}}}"),
        None => format!("{base}{{{extra}}}"),
    }
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            let line = format!("# TYPE {base} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };

        for (name, v) in &self.counters {
            let (base, _) = split_labels(name);
            type_line(&mut out, base, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let (base, _) = split_labels(name);
            type_line(&mut out, base, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.hists {
            let (base, labels) = split_labels(name);
            type_line(&mut out, base, "histogram");
            let cum = h.cumulative();
            for (i, c) in cum.iter().enumerate() {
                let le = if i < NS_BOUNDS.len() {
                    NS_BOUNDS[i].to_string()
                } else {
                    "+Inf".to_owned()
                };
                let series = with_label(&format!("{base}_bucket"), labels, &format!("le=\"{le}\""));
                let _ = writeln!(out, "{series} {c}");
            }
            let sum_name = match labels {
                Some(l) => format!("{base}_sum{{{l}}}"),
                None => format!("{base}_sum"),
            };
            let count_name = match labels {
                Some(l) => format!("{base}_count{{{l}}}"),
                None => format!("{base}_count"),
            };
            let _ = writeln!(out, "{sum_name} {}", h.sum);
            let _ = writeln!(out, "{count_name} {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_split_and_merge() {
        assert_eq!(split_labels("a_total"), ("a_total", None));
        assert_eq!(
            split_labels("a_ns{mode=\"shared\"}"),
            ("a_ns", Some("mode=\"shared\""))
        );
        assert_eq!(
            with_label("a_ns_bucket", Some("mode=\"x\""), "le=\"250\""),
            "a_ns_bucket{mode=\"x\",le=\"250\"}"
        );
        assert_eq!(
            with_label("a_ns_bucket", None, "le=\"+Inf\""),
            "a_ns_bucket{le=\"+Inf\"}"
        );
    }
}
