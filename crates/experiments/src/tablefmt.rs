//! Minimal plain-text table rendering for experiment output.

use std::fmt;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the cell count must match the header count.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Cell accessor for tests (row, column).
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }
}

impl fmt::Display for Table {
    /// Renders the table, streaming every cell straight into the
    /// formatter: the only allocation is the per-render column-width
    /// vector, not a `String` per cell and `Vec` per row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_cells = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    f.write_str("  ")?;
                }
                write!(f, "{c:>w$}", w = widths[i])?;
            }
            writeln!(f)
        };
        writeln!(f, "## {}", self.title)?;
        write_cells(f, &self.headers)?;
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                f.write_str("  ")?;
            }
            for _ in 0..*w {
                f.write_str("-")?;
            }
        }
        writeln!(f)?;
        for row in &self.rows {
            write_cells(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 4 decimal places (miss ratios, CPI deltas).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 3 decimal places (CPI).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Placeholder rendered for a missing table cell (a sweep cell that
/// failed every attempt and was degraded to a gap).
pub const GAP: &str = "-";

/// [`f4`] for optional values: `None` renders as [`GAP`].
pub fn f4_opt(x: Option<f64>) -> String {
    x.map(f4).unwrap_or_else(|| GAP.to_string())
}

/// [`f3`] for optional values: `None` renders as [`GAP`].
pub fn f3_opt(x: Option<f64>) -> String {
    x.map(f3).unwrap_or_else(|| GAP.to_string())
}

/// A two-way grid: a `corner` column labelling each `(label, key)` of
/// `rows`, then one column per `(header, key)` of `cols`, each cell
/// holding `value(row, col)` — [`GAP`] where it is `None`.
pub(crate) fn grid<R: Copy, C: Copy>(
    title: &str,
    corner: &str,
    rows: impl IntoIterator<Item = (String, R)>,
    cols: &[(String, C)],
    value: impl Fn(R, C) -> Option<String>,
) -> Table {
    let mut headers = vec![corner];
    headers.extend(cols.iter().map(|(h, _)| h.as_str()));
    let mut t = Table::new(title, &headers);
    for (label, r) in rows {
        let mut cells = vec![label];
        cells.extend(
            cols.iter()
                .map(|&(_, c)| value(r, c).unwrap_or_else(|| GAP.to_string())),
        );
        t.push_row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["a", "bbb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["10".into(), "200".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("a"));
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(1, 1), Some("200"));
        assert_eq!(t.cell(5, 0), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f4(0.12345), "0.1235");
        assert_eq!(f3(1.2), "1.200");
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(f4_opt(Some(0.5)), "0.5000");
        assert_eq!(f4_opt(None), GAP);
        assert_eq!(f3_opt(Some(1.0)), "1.000");
        assert_eq!(f3_opt(None), GAP);
    }
}
