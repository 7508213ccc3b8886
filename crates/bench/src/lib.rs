//! # milback-bench
//!
//! Reproduction harness for the MilBack paper. The `figures` binary
//! regenerates every figure, table, ablation and survey capture in
//! `results/` from the generators in [`figures`], asserting the paper's
//! bands; `bench_engine` is the CI kernel gate (DESIGN.md §17.3), and
//! session throughput and latency come from the standalone session
//! benchmark in `sessbench/`.

#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt::Write as _;

pub mod figures;
pub mod plot;
pub use plot::{line_chart, Series};

/// A simple text table builder for printing figure series.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the header length).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}", c, w = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let lines = std::iter::once(&self.header).chain(&self.rows);
        lines.map(|cells| cells.join(",") + "\n").collect()
    }
}

/// Formats a float with the given number of decimals.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a BER in scientific notation.
pub fn ber(value: f64) -> String {
    if value == 0.0 {
        "<1e-300".to_string()
    } else {
        format!("{value:.1e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["300".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("long_header"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_length_checked() {
        let mut t = Table::new(&["x"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(ber(0.0), "<1e-300");
        assert_eq!(ber(1.5e-8), "1.5e-8");
    }
}
