//! Plain-text reporting helpers shared by the figure harnesses.
//!
//! Every report states the paper's claims as check lines, `[ok] <claim>`
//! or `[MISS] <claim>`. [`write_checks`] is the one writer of those lines,
//! and [`misses`] counts the `[MISS]` lines of a printed report: `repro`
//! exits 1 iff its stdout holds one, whatever the thread count.

use std::fmt::{Display, Write};

use uburst_core::tuning::MissLaw;
use uburst_core::PollerStats;

/// The tag of a check line whose claim the run bears out.
const OK: &str = "[ok]";
/// The tag of a check line whose claim the run contradicts.
const MISS: &str = "[MISS]";

/// Appends one check line per `(claim, holds)` to `out`, `indent` spaces
/// in: `[ok] <claim>` if it holds, else `[MISS] <claim>`.
pub fn write_checks<C: Display>(
    out: &mut String,
    indent: usize,
    checks: impl IntoIterator<Item = (C, bool)>,
) {
    for (claim, holds) in checks {
        let tag = if holds { OK } else { MISS };
        writeln!(out, "{:indent$}{tag} {claim}", "").unwrap();
    }
}

/// The check lines of `report` that read `[MISS]`: lines whose first
/// non-blank token is the tag. A claim that quotes a tag mid-line is not
/// one.
pub fn misses(report: &str) -> usize {
    report
        .lines()
        .filter(|line| line.split_whitespace().next() == Some(MISS))
        .count()
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
        let mut out = String::new();
        write_checks(&mut out, 2, [("holds", true), ("fails", false)]);
        write_checks(&mut out, 4, [("fails deeper", false)]);
        assert_eq!(
            out,
            "  [ok] holds\n  [MISS] fails\n    [MISS] fails deeper\n"
        );
        assert_eq!(misses(&out), 2);
    }

    #[test]
    fn misses_counts_miss_lines_at_any_indent() {
        assert_eq!(misses("  [MISS] a\n    [MISS] b\n"), 2);
        assert_eq!(misses("[MISS] at the margin"), 1);
    }

    #[test]
    fn ok_lines_are_not_misses() {
        assert_eq!(misses("  [ok] a\n    [ok] b\n"), 0);
    }

    #[test]
    fn a_claim_quoting_a_tag_is_not_a_miss() {
        assert_eq!(
            misses("  [ok] no line reads [MISS] here\nnote: [MISS] counts\n"),
            0
        );
    }

    #[test]
    fn a_report_without_checks_has_no_misses() {
        assert_eq!(misses(""), 0);
        assert_eq!(misses("table\n-----\n  1  2\n"), 0);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
