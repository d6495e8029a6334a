//! Plain-text tables and CSV output for experiment harnesses.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular report table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the width differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn save_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float with fixed precision, trimming `-0.000` to `0.000`.
pub fn fmt_f(value: f64, precision: usize) -> String {
    let s = format!("{value:.precision$}");
    if s.starts_with("-0.") && s[1..].parse::<f64>() == Ok(0.0) {
        s[1..].to_string()
    } else {
        s
    }
}

/// Formats a fraction as a signed percentage, e.g. `0.115 → "11.5%"`.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["trace", "makespan"]);
        t.push_row(vec!["real/001".into(), "142".into()]);
        t.push_row(vec!["real/002".into(), "99".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        assert!(text.contains("== demo =="));
        let lines: Vec<&str> = text.lines().collect();
        // Header and rows must align on the right edge of each column.
        assert!(lines[1].contains("trace"));
        assert!(lines[3].contains("real/001"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("csv", &["name", "note"]);
        t.push_row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn save_csv_creates_directories() {
        let dir = std::env::temp_dir().join("lahd-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        sample().save_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("trace,makespan"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(-0.0001, 3), "0.000");
        assert_eq!(fmt_pct(0.115), "11.5%");
        assert_eq!(fmt_pct(-0.0088), "-0.9%");
    }
}
