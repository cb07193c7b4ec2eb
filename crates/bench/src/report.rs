//! Plain-text tables and CSV output for experiment binaries.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory experiment CSVs are written to.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Writes CSV rows (first row = header) to
/// `target/experiments/<name>.csv`, creating the directory as needed.
/// Returns the written path.
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries want loud failures.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = experiments_dir();
    // lint: allow(L001, reason = "documented panic API: experiment binaries want loud I/O failures")
    fs::create_dir_all(&dir).expect("create experiments dir");
    let path = dir.join(format!("{name}.csv"));
    // lint: allow(L001, reason = "documented panic API: experiment binaries want loud I/O failures")
    let mut f = fs::File::create(&path).expect("create csv");
    // lint: allow(L001, reason = "documented panic API: experiment binaries want loud I/O failures")
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        // lint: allow(L001, reason = "documented panic API: experiment binaries want loud I/O failures")
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    path
}

/// Reads back a CSV written by [`write_csv`] (for tests).
pub fn read_csv(path: &Path) -> Vec<Vec<String>> {
    fs::read_to_string(path)
        // lint: allow(L001, reason = "documented panic API: experiment binaries want loud I/O failures")
        .expect("read csv")
        .lines()
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

/// Minimal fixed-width table printer for terminal reports.
#[derive(Debug, Default)]
pub struct TableWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TableWriter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 2 decimals for tables.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TableWriter::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["long-name".into(), "2.50".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns aligned: both data lines have equal length.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TableWriter::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "unit_test_roundtrip",
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let rows = read_csv(&path);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec!["x", "y"]);
        assert_eq!(rows[2], vec!["3", "4"]);
        std::fs::remove_file(path).ok();
    }
}
