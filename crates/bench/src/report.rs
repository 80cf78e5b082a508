//! Plain-text and CSV report emission.
//!
//! The `experiments` binary prints each figure as a markdown table (one
//! row per algorithm, one column per swept parameter value — the same
//! series the paper plots) and mirrors every table into
//! `bench_results/<name>.csv` for postprocessing. Implemented with
//! `std::fmt`/`std::fs` only (no serde needed for flat tables).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A rectangular latency table: rows = series (algorithms), columns =
/// parameter values.
pub struct Table {
    title: String,
    /// Column header (the swept parameter), e.g. "p".
    param: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Starts a table with the given title and swept-parameter name.
    pub fn new(title: impl Into<String>, param: impl Into<String>) -> Self {
        Table { title: title.into(), param: param.into(), columns: Vec::new(), rows: Vec::new() }
    }

    /// Declares the column values (e.g. `["3", "4", "5", "6", "7"]`).
    pub fn columns<S: Into<String>>(&mut self, cols: impl IntoIterator<Item = S>) -> &mut Self {
        self.columns = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Adds one series row.
    pub fn row<S: Into<String>>(
        &mut self,
        name: impl Into<String>,
        cells: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        self.rows.push((name.into(), cells.into_iter().map(Into::into).collect()));
        self
    }

    /// Renders as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = write!(out, "| {} |", self.param);
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (name, cells) in &self.rows {
            let _ = write!(out, "| {name} |");
            for c in cells {
                let _ = write!(out, " {c} |");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders as CSV (header row then series rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.param);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (name, cells) in &self.rows {
            let _ = write!(out, "{name}");
            for c in cells {
                let _ = write!(out, ",{c}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the CSV rendering to `dir/<slug>.csv`, creating `dir`.
    pub fn write_csv(&self, dir: impl AsRef<Path>, slug: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{slug}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Human-readable duration: ms with three significant decimals, or µs for
/// sub-millisecond values.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{us}us")
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.2}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("Fig X", "p");
        t.columns(["3", "4"]);
        t.row("ALGO-A", ["1ms", "2ms"]);
        t.row("ALGO-B", ["3ms", "4ms"]);
        let md = t.to_markdown();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| p | 3 | 4 |"));
        assert!(md.contains("| ALGO-B | 3ms | 4ms |"));
    }

    #[test]
    fn csv_shape() {
        let mut t = Table::new("Fig X", "k");
        t.columns(["1", "2"]);
        t.row("A", ["9", "8"]);
        assert_eq!(t.to_csv(), "k,1,2\nA,9,8\n");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MiB");
    }

    #[test]
    fn csv_written_to_disk() {
        let dir = std::env::temp_dir().join("ktg-report-test");
        let mut t = Table::new("T", "x");
        t.columns(["1"]);
        t.row("r", ["2"]);
        let path = t.write_csv(&dir, "t").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "x,1\nr,2\n");
        fs::remove_dir_all(&dir).ok();
    }
}
