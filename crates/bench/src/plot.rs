//! Terminal plotting for the figure reports: multi-series line charts
//! rendered as Unicode text, so `results/fig14_downlink.txt` shows the
//! curve's *shape* directly, not just a table.

/// One named data series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points (need not be sorted).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: &str, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.to_string(),
            points,
        }
    }
}

/// Glyphs used for successive series.
const GLYPHS: [char; 6] = ['●', '○', '▲', '△', '■', '□'];

/// Renders series into a `width`×`height` character chart with axis
/// annotations. Returns the multi-line string.
pub fn line_chart(series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "chart too small");
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return "(no data)\n".to_string();
    }
    let (mut x_lo, mut x_hi) = (f64::MAX, f64::MIN);
    let (mut y_lo, mut y_hi) = (f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        if x.is_finite() && y.is_finite() {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
    }
    if x_lo > x_hi || y_lo > y_hi {
        // No finite point updated the bounds.
        return "(no finite data)\n".to_string();
    }
    if (x_hi - x_lo).abs() < 1e-300 {
        x_hi = x_lo + 1.0;
    }
    if (y_hi - y_lo).abs() < 1e-300 {
        y_hi = y_lo + 1.0;
    }
    // 10% y headroom.
    let pad = 0.05 * (y_hi - y_lo);
    let (y_lo, y_hi) = (y_lo - pad, y_hi + pad);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            if !(x.is_finite() && y.is_finite()) {
                continue;
            }
            let col = ((x - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
            let row = ((y_hi - y) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    for (r, line) in grid.iter().enumerate() {
        let y_label = if r == 0 {
            format!("{y_hi:>9.2} ")
        } else if r == height - 1 {
            format!("{y_lo:>9.2} ")
        } else {
            " ".repeat(10)
        };
        out.push_str(&y_label);
        out.push('│');
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(10));
    out.push('└');
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{}{:<12.3}{:>w$.3}\n",
        " ".repeat(11),
        x_lo,
        x_hi,
        w = width.saturating_sub(12)
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_monotone_series() {
        let s = Series::new(
            "snr",
            (1..=10).map(|i| (i as f64, 30.0 - i as f64)).collect(),
        );
        let chart = line_chart(&[s], 40, 10);
        assert!(chart.contains('●'));
        assert!(chart.contains("snr"));
        // Max y label appears on the first line.
        let first = chart.lines().next().unwrap();
        assert!(first.contains("29"), "{first}");
    }

    #[test]
    fn two_series_use_distinct_glyphs() {
        let a = Series::new("a", vec![(0.0, 0.0), (1.0, 1.0)]);
        let b = Series::new("b", vec![(0.0, 1.0), (1.0, 0.0)]);
        let chart = line_chart(&[a, b], 20, 6);
        assert!(chart.contains('●') && chart.contains('○'));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(line_chart(&[], 20, 5), "(no data)\n");
        let flat = Series::new("flat", vec![(1.0, 2.0), (2.0, 2.0)]);
        let chart = line_chart(&[flat], 20, 5);
        assert!(chart.contains('●'));
        let nan = Series::new("nan", vec![(f64::NAN, f64::NAN)]);
        assert_eq!(line_chart(&[nan], 20, 5), "(no finite data)\n");
    }

    #[test]
    #[should_panic(expected = "chart too small")]
    fn rejects_tiny_chart() {
        line_chart(&[], 4, 2);
    }
}
