//! Snapshot rendering: Prometheus text, JSON, and the prefix rollup.
//!
//! All three renderings iterate `BTreeMap`s, so output is a pure function
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
    /// Largest observation.
    pub max: u64,
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

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

    /// Renders the snapshot as a single stable JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "\n    \"{}\": {{\"buckets\": [{}], \"sum\": {}, \"count\": {}, \"max\": {}}}",
                json_escape(k),
                buckets.join(", "),
                h.sum,
                h.count,
                h.max
            );
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push('}');
        out.push('\n');
        out
    }

    /// Rolls every counter and gauge under a name prefix into one
    /// deterministic text block — the per-fleet summary `ext_fleet`
    /// stamps onto its reports (e.g. `prefix_rollup("uburst_fleet_")`).
    ///
    /// Counters render in name order with a trailing sum; gauges follow
    /// (max-aggregated values, so no sum — adding maxima means nothing).
    /// Pure function of the snapshot: thread-count invariant like every
    /// other rendering here.
    pub fn prefix_rollup(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut total = 0u64;
        let mut n = 0usize;
        for (name, v) in self.counters.range(prefix.to_owned()..) {
            if !name.starts_with(prefix) {
                break;
            }
            let _ = writeln!(out, "  counter {name} {v}");
            total += v;
            n += 1;
        }
        if n > 1 {
            let _ = writeln!(out, "  counter {prefix}* (sum) {total}");
        }
        for (name, v) in self.gauges.range(prefix.to_owned()..) {
            if !name.starts_with(prefix) {
                break;
            }
            let _ = writeln!(out, "  gauge {name} {v}");
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

    #[test]
    fn json_is_well_formed_for_empty_and_escaped_names() {
        let empty = Snapshot::default();
        let j = empty.to_json();
        assert!(j.contains("\"counters\": {}"));
        let mut s = Snapshot::default();
        s.counters.insert("weird{q=\"a\\b\"}".into(), 1);
        let j = s.to_json();
        assert!(j.contains("weird{q=\\\"a\\\\b\\\"}"));
    }

    #[test]
    fn prefix_rollup_selects_and_sums() {
        let mut s = Snapshot::default();
        s.counters.insert("uburst_fleet_rejoins_total".into(), 3);
        s.counters
            .insert("uburst_fleet_quarantines_total".into(), 5);
        s.counters.insert("uburst_ship_acked_total".into(), 99);
        s.gauges.insert("uburst_fleet_switches".into(), 200);
        s.gauges.insert("uburst_ship_window_peak".into(), 32);
        let r = s.prefix_rollup("uburst_fleet_");
        assert!(r.contains("counter uburst_fleet_quarantines_total 5"));
        assert!(r.contains("counter uburst_fleet_rejoins_total 3"));
        assert!(r.contains("counter uburst_fleet_* (sum) 8"));
        assert!(r.contains("gauge uburst_fleet_switches 200"));
        assert!(!r.contains("ship"), "prefix filter is exact");
        // A single matching counter gets no redundant sum line.
        let single = s.prefix_rollup("uburst_ship_acked");
        assert!(single.contains("counter uburst_ship_acked_total 99"));
        assert!(!single.contains("(sum)"));
        // Empty prefix space renders empty, not a header.
        assert_eq!(s.prefix_rollup("nope_"), "");
    }
}
