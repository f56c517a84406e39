//! Terminal chart rendering for the experiment drivers.
//!
//! The paper's artifacts are mostly *figures*; printing rows regenerates the
//! data, but a quick visual check of the shape matters too. This module
//! renders line charts as Unicode text — no plotting
//! dependency, works in any terminal, and is deterministic (testable).

/// A named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points, x ascending.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.to_owned(),
            points,
        }
    }
}

const GLYPHS: [char; 6] = ['o', '+', 'x', '*', '#', '@'];

/// Renders `series` as a `width`×`height` character line chart with axis
/// labels and a legend. Returns the chart as a string (callers print it).
///
/// # Panics
///
/// Panics if `width < 16` or `height < 4` — smaller canvases cannot hold
/// the axes.
pub fn line_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "canvas too small");
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let ylab = |v: f64| format_quantity(v);
    out.push_str(&format!("{:>9} |\n", ylab(ymax)));
    for (r, row) in grid.iter().enumerate() {
        let label = if r == height - 1 {
            format!("{:>9} |", ylab(ymin))
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10}{}\n", "+", "-".repeat(width)));
    out.push_str(&format!(
        "{:>10}{:<w$}{}\n",
        "",
        format_quantity(xmin),
        format_quantity(xmax),
        w = width.saturating_sub(format_quantity(xmax).len())
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "{:>10}{} {}\n",
            "",
            GLYPHS[si % GLYPHS.len()],
            s.name
        ));
    }
    out
}

/// Human-readable magnitude, as the paper prints it: 372000 → "372K",
/// 2.0e6 → "2.00M", 0.5 → "0.50".
pub fn format_quantity(v: f64) -> String {
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.0}K", v / 1e3)
    } else if a >= 10.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_renders_extremes() {
        let s = vec![Series::new(
            "throughput",
            vec![(1.0, 100.0), (10.0, 500.0), (30.0, 900.0)],
        )];
        let chart = line_chart("Fig X", &s, 40, 10);
        assert!(chart.contains("Fig X"));
        assert!(chart.contains("900"));
        assert!(chart.contains("o"), "glyph must appear:\n{chart}");
        assert!(chart.contains("throughput"));
        // Rightmost column holds the last point on the top row.
        let lines: Vec<&str> = chart.lines().collect();
        let top_data_row = lines[2];
        assert!(top_data_row.trim_end().ends_with('o'), "{chart}");
    }

    #[test]
    fn line_chart_multiple_series_distinct_glyphs() {
        let s = vec![
            Series::new("a", vec![(0.0, 0.0), (1.0, 1.0)]),
            Series::new("b", vec![(0.0, 1.0), (1.0, 0.0)]),
        ];
        let chart = line_chart("t", &s, 20, 6);
        assert!(chart.contains('o'));
        assert!(chart.contains('+'));
    }

    #[test]
    fn line_chart_handles_empty_and_flat() {
        let chart = line_chart("t", &[], 20, 6);
        assert!(chart.contains("no data"));
        let flat = vec![Series::new("f", vec![(0.0, 5.0), (1.0, 5.0)])];
        let chart = line_chart("t", &flat, 20, 6);
        assert!(chart.contains('o'));
    }

    #[test]
    #[should_panic(expected = "canvas too small")]
    fn tiny_canvas_rejected() {
        let _ = line_chart("t", &[], 4, 2);
    }

    #[test]
    fn quantities_format() {
        assert_eq!(format_quantity(372_000.0), "372K");
        assert_eq!(format_quantity(2_004_000.0), "2.00M");
        assert_eq!(format_quantity(92.4), "92");
        assert_eq!(format_quantity(0.5), "0.50");
    }
}
