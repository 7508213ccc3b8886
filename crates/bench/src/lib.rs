//! # milback-bench
//!
//! Benchmark/reproduction harness for the MilBack paper. Each `fig*` /
//! `table*` binary regenerates one figure or table of the evaluation
//! section and prints the series the paper reports.
//!
//! Binaries write machine-readable CSV next to the human-readable table
//! when `--csv <path>` is given.
//!
//! The `bench_engine` binary is the CI kernel gate (DESIGN.md §17.3): it
//! checks the localization burst's FFT work count, times the range FFT
//! and the burst on one core next to a calibration workload, and with
//! `--check-against BENCH_N.json` fails on a regression past 10%;
//! `--out` writes the timings as a baseline. Session throughput and
//! latency are measured by the standalone session benchmark in
//! `sessbench/`.

#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

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
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form to a file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Parses the optional `--csv <path>` argument common to all binaries.
pub fn csv_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--csv" {
            return args.next().map(Into::into);
        }
    }
    None
}

/// Prints the table and optionally writes CSV, honoring `--csv`.
pub fn emit(title: &str, table: &Table) {
    println!("== {title} ==");
    println!("{}", table.render());
    if let Some(path) = csv_arg() {
        table.write_csv(&path).expect("failed to write CSV");
        println!("(csv written to {})", path.display());
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
