//! Plain-text table rendering for the experiment subcommands — fixed-width
//! columns so the regenerated tables line up with the paper's.

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; must match the header arity.
    pub(crate) fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with padded columns and a separator under the header.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["Framework", "ROC-AUC"]);
        t.row(&["FedAvg".into(), "0.5480 ± 0.0081".into()]);
        t.row(&["FedDA 1 (Restart)".into(), "0.5379 ± 0.0025".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Framework"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // the metric column starts at the same offset in both rows
        let off2 = lines[2].find("0.5480").unwrap();
        let off3 = lines[3].find("0.5379").unwrap();
        assert_eq!(off2, off3);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }
}
