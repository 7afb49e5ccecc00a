//! Plain-text reporting helpers shared by the figure harnesses.

use std::sync::atomic::{AtomicUsize, Ordering};

use uburst_core::tuning::MissLaw;
use uburst_core::PollerStats;

/// Shape checks that failed in this process (see [`verdict`]).
static MISSES: AtomicUsize = AtomicUsize::new(0);

/// The `ok` / `MISS` tag every shape-check line prints. A miss is also
/// counted, so the harness binary can turn it into its exit status.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        "MISS"
    }
}

/// How many [`verdict`]s have come back `MISS` so far.
pub fn misses() -> usize {
    MISSES.load(Ordering::Relaxed)
}

/// One probe held to its campaign's miss law: its deadline-miss fraction
/// within [`MissLaw::fraction_band`] and its late fraction within 4σ of the
/// law's, σ = `√(p(1 − p)/n)` over `n` polls. A zero-variance cell must
/// match exactly. Returns the check line's text and whether it holds.
pub fn law_check(cell: &str, stats: &PollerStats, law: &MissLaw) -> (String, bool) {
    let (miss, late) = (stats.deadline_miss_fraction(), stats.late_fraction());
    let late_band = 4.0 * (law.late * (1.0 - law.late) / stats.polls as f64).sqrt();
    let ok = (miss - law.fraction()).abs() <= law.fraction_band(stats.polls)
        && (late - law.late).abs() <= late_band;
    let text = format!(
        "{cell}: missed {:.2}% and late {:.2}% lie within 4σ of the law's {:.2}% and {:.2}%",
        miss * 100.0,
        late * 100.0,
        law.fraction() * 100.0,
        law.late * 100.0
    );
    (text, ok)
}

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with(" 1"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
    }

    #[test]
    fn verdict_tags_and_counts_misses() {
        // Other tests in this binary may record misses concurrently, so
        // the count is only bounded below.
        let before = misses();
        assert_eq!(verdict(true), "ok");
        assert_eq!(verdict(false), "MISS");
        assert_eq!(verdict(false), "MISS");
        assert!(misses() >= before + 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
