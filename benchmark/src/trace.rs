//! In-memory spans around the calls into each layer's public functions.
//!
//! Spans are recorded from the benchmark's own code only (tracing inside the
//! product crates is ROADMAP item 4b). A span's *self time* is its duration
//! minus the time its child spans cover, so the self times of one
//! repetition's spans tile that repetition's root span with no double
//! counting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into the recording, in open order.
    pub id: u32,
    /// The span open when this one was opened.
    pub parent: Option<u32>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
    /// `layer.step`, e.g. `sim.run`.
    pub name: &'static str,
    /// Open time, ns since the tracer was created.
    pub start_ns: u64,
    /// Close time, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the span that wraps one whole repetition.
pub const ROOT: &str = "rep";

/// Records spans and counts; written out when the workload ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    counts: BTreeMap<&'static str, u64>,
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            counts: BTreeMap::new(),
            recording: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: `span` only calls its closure. The
    /// untraced (product-path) repetitions run under this, so the reduction
    /// code is written once for both paths.
    pub fn off() -> Self {
        Tracer {
            recording: false,
            ..Tracer::default()
        }
    }

    /// Whether spans and counts are being kept.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Runs `f` inside a span called `name`, nested in whatever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            rep: self.rep,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Runs `f` as repetition `rep`: a [`ROOT`] span every span opened
    /// inside becomes a descendant of.
    pub fn repetition<R>(&mut self, rep: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.rep = rep;
        self.span(ROOT, f)
    }

    /// Adds `n` to the count called `name` (work done at a layer boundary).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.recording {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Raises the high-water mark called `name` to at least `v`.
    pub fn peak(&mut self, name: &'static str, v: u64) {
        if self.recording {
            let slot = self.counts.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        }
    }

    /// The count called `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every span, in open order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Spans close in stack order on one thread, so siblings never
                // overlap and a child never outlives its parent.
                own[p as usize] -= s.duration_ns();
            }
        }
        own
    }

    /// Self time summed by span name over every repetition.
    pub fn self_by_name_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Duration of each repetition's root span, in repetition order.
    pub fn root_durations_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == ROOT)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of the spans inside repetitions whose name starts with
    /// `prefix`, as a share of all root-span time (0 when nothing was
    /// recorded). A full span name selects that step; a layer prefix such as
    /// `sim.` rolls the layer up. Set-up spans (outside any repetition) do
    /// not count.
    pub fn share(&self, prefix: &str) -> f64 {
        let total: u64 = self.root_durations_ns().iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut in_rep = vec![false; self.spans.len()];
        let mut own = 0u64;
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            in_rep[s.id as usize] = match s.parent {
                Some(p) => in_rep[p as usize],
                None => s.name == ROOT,
            };
            if in_rep[s.id as usize] && s.name.starts_with(prefix) {
                own += self_ns;
            }
        }
        own as f64 / total as f64
    }

    /// Share of root-span time attributed to a named child span rather than
    /// left as the root's own self time.
    pub fn coverage(&self) -> f64 {
        if self.root_durations_ns().is_empty() {
            return 0.0;
        }
        1.0 - self.share(ROOT)
    }

    /// Renders the recording as one JSON document: `spans` (every span),
    /// `self_ms` (self time by name) and `counts`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans\": ["
        )
        .unwrap();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n    {{\"id\": {}, \"parent\": {}, \"rep\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                parent,
                s.rep,
                s.name,
                s.start_ns,
                s.end_ns
            )
            .unwrap();
        }
        out.push_str("\n  ],\n  \"self_ms\": {");
        for (i, (name, ns)) in self.self_by_name_ns().iter().enumerate() {
            write!(
                out,
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                name,
                *ns as f64 / 1e6
            )
            .unwrap();
        }
        out.push_str("\n  },\n  \"counts\": {");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            write!(
                out,
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                name,
                n
            )
            .unwrap();
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recording with hand-set times so the arithmetic is exact.
    fn tracer_with(spans: &[(Option<u32>, u32, &'static str, u64, u64)]) -> Tracer {
        let mut t = Tracer::default();
        for (i, &(parent, rep, name, start_ns, end_ns)) in spans.iter().enumerate() {
            t.spans.push(Span {
                id: i as u32,
                parent,
                rep,
                name,
                start_ns,
                end_ns,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0,100): a [10,60) with nested a.x [20,30) and a.y [30,50);
        // sibling b [60,90).
        let t = tracer_with(&[
            (None, 0, ROOT, 0, 100),
            (Some(0), 0, "a", 10, 60),
            (Some(1), 0, "a.x", 20, 30),
            (Some(1), 0, "a.y", 30, 50),
            (Some(0), 0, "b", 60, 90),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 20, 10, 20, 30]);
        let by_name = t.self_by_name_ns();
        assert_eq!(by_name[ROOT], 20);
        assert_eq!(by_name["a"], 20);
        assert_eq!(by_name["b"], 30);
        // Self times tile the root exactly.
        assert_eq!(by_name.values().sum::<u64>(), 100);
        assert!((t.coverage() - 0.8).abs() < 1e-12);
        assert!((t.share("b") - 0.3).abs() < 1e-12);
        // A prefix rolls a layer up: a (20) + a.x (10) + a.y (20).
        assert!((t.share("a") - 0.5).abs() < 1e-12);
        assert_eq!(t.share("never"), 0.0);
    }

    #[test]
    fn same_name_sums_across_repetitions() {
        let t = tracer_with(&[
            // A set-up span outside any repetition: in the totals by name,
            // not in the shares.
            (None, 0, "a", 0, 5),
            (None, 0, ROOT, 5, 55),
            (Some(1), 0, "a", 5, 45),
            (None, 1, ROOT, 55, 115),
            (Some(3), 1, "a", 55, 105),
        ]);
        assert_eq!(t.root_durations_ns(), vec![50, 60]);
        assert_eq!(t.self_by_name_ns()["a"], 95);
        assert!((t.share("a") - 90.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn live_spans_nest_and_close_in_stack_order() {
        let mut t = Tracer::default();
        let v = t.repetition(3, |t| {
            t.count("things", 2);
            t.span("outer", |t| t.span("inner", |_| 7))
        });
        t.count("things", 3);
        t.peak("high", 4);
        t.peak("high", 2);
        assert_eq!(v, 7);
        assert_eq!(t.counted("things"), 5);
        assert_eq!(t.counted("high"), 4);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].rep), (ROOT, None, 3));
        assert_eq!((s[1].name, s[1].parent), ("outer", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("inner", Some(1)));
        assert!(s[2].start_ns >= s[1].start_ns && s[2].end_ns <= s[1].end_ns);
        let json = t.to_json("w", 1);
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"things\": 5"));
    }

    #[test]
    fn a_tracer_that_is_off_runs_closures_and_records_nothing() {
        let mut t = Tracer::off();
        let v = t.repetition(0, |t| {
            t.count("things", 2);
            t.peak("high", 9);
            t.span("a", |_| 5)
        });
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.counted("things"), 0);
        assert_eq!(t.counted("high"), 0);
    }

    #[test]
    fn empty_recording_has_zero_shares() {
        let t = Tracer::default();
        assert_eq!(t.coverage(), 0.0);
        assert_eq!(t.share("a"), 0.0);
    }
}
