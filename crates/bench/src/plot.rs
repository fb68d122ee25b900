//! ASCII line charts for the figure subcommands — good-enough plots for a
//! terminal, so `fig2`/`fig5`/`fig6` show *figures*, not just number dumps.

/// A multi-series ASCII line chart.
#[derive(Clone, Debug, Default)]
pub(crate) struct AsciiChart {
    series: Vec<(String, Vec<f64>)>,
    width: usize,
    height: usize,
}

/// Marker glyphs assigned to series in order.
const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];

impl AsciiChart {
    /// A chart with the given plot-area size (default 64×16 if zero).
    pub(crate) fn new(width: usize, height: usize) -> Self {
        Self {
            series: Vec::new(),
            width: if width == 0 { 64 } else { width },
            height: if height == 0 { 16 } else { height },
        }
    }

    /// Add one named series (x is the index: round number).
    pub(crate) fn series(&mut self, name: impl Into<String>, values: &[f64]) -> &mut Self {
        self.series.push((name.into(), values.to_vec()));
        self
    }

    /// Render the chart with a y-axis, x-axis and legend.
    pub(crate) fn render(&self) -> String {
        let max_len = self.series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        if max_len == 0 || self.series.is_empty() {
            return String::from("(no data)\n");
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, v) in &self.series {
            for &y in v {
                lo = lo.min(y);
                hi = hi.max(y);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            return String::from("(non-finite data)\n");
        }
        if (hi - lo).abs() < 1e-12 {
            hi = lo + 1.0;
        }
        let (w, h) = (self.width, self.height);
        let mut grid = vec![vec![' '; w]; h];
        for (si, (_, values)) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for (i, &y) in values.iter().enumerate() {
                let x = if max_len == 1 {
                    0
                } else {
                    i * (w - 1) / (max_len - 1)
                };
                let fy = (y - lo) / (hi - lo);
                let row = h - 1 - ((fy * (h - 1) as f64).round() as usize).min(h - 1);
                grid[row][x] = glyph;
            }
        }
        let mut out = String::new();
        for (r, row) in grid.iter().enumerate() {
            let y_label = if r == 0 {
                format!("{hi:7.3}")
            } else if r == h - 1 {
                format!("{lo:7.3}")
            } else {
                " ".repeat(7)
            };
            out.push_str(&y_label);
            out.push_str(" |");
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(8));
        out.push('+');
        out.push_str(&"-".repeat(w));
        out.push('\n');
        out.push_str(&format!(
            "{:>8} round 0 .. {}\n",
            "",
            max_len.saturating_sub(1)
        ));
        for (si, (name, _)) in self.series.iter().enumerate() {
            out.push_str(&format!(
                "{:>8} {} = {}\n",
                "",
                GLYPHS[si % GLYPHS.len()],
                name
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_two_series_with_legend() {
        let mut chart = AsciiChart::new(32, 8);
        chart.series("up", &[0.1, 0.3, 0.5, 0.7]);
        chart.series("down", &[0.7, 0.5, 0.3, 0.1]);
        let s = chart.render();
        assert!(s.contains("* = up"));
        assert!(s.contains("o = down"));
        assert!(s.contains('|'));
        // y-axis labels carry the data range
        assert!(s.contains("0.700"));
        assert!(s.contains("0.100"));
        assert_eq!(chart.series.len(), 2);
    }

    #[test]
    fn empty_chart_is_safe() {
        let chart = AsciiChart::new(10, 5);
        assert!(chart.series.is_empty());
        assert_eq!(chart.render(), "(no data)\n");
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut chart = AsciiChart::new(16, 4);
        chart.series("flat", &[0.5, 0.5, 0.5]);
        let s = chart.render();
        assert!(s.contains('*'));
    }

    #[test]
    fn single_point_series() {
        let mut chart = AsciiChart::new(16, 4);
        chart.series("dot", &[1.0]);
        let s = chart.render();
        assert!(s.contains('*'));
        assert!(s.contains("round 0 .. 0"));
    }

    #[test]
    fn top_and_bottom_rows_hold_extremes() {
        let mut chart = AsciiChart::new(8, 4);
        chart.series("s", &[0.0, 1.0]);
        let rendered = chart.render();
        let lines: Vec<&str> = rendered.lines().collect();
        // first grid line contains the max marker, last grid line the min
        assert!(lines[0].contains('*'));
        assert!(lines[3].contains('*'));
    }
}
