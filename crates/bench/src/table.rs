//! Aligned text tables and CSV output for the experiment regenerators.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned text table that can also serialize to CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Serializes to CSV (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV next to the other results and prints the text form.
    pub fn save_and_print(&self, out_dir: &Path, file_stem: &str) -> io::Result<()> {
        let annotate = |e: io::Error, what: &str| {
            io::Error::new(e.kind(), format!("{what} {}: {e}", out_dir.display()))
        };
        fs::create_dir_all(out_dir).map_err(|e| annotate(e, "creating results dir"))?;
        let path = out_dir.join(format!("{file_stem}.csv"));
        fs::write(&path, self.to_csv())
            .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))?;
        println!("{}", self.render());
        Ok(())
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 4 decimals.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["model", "mape"]);
        t.row(&["DRNN".into(), "4.2".into()]);
        t.row(&["ARIMA-long-name".into(), "11.9".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        let lines: Vec<&str> = r.lines().collect();
        // Header and rows right-aligned to same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["hello, world".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(pct(12.34), "12.3%");
    }
}
