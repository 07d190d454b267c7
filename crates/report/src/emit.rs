//! Output: ASCII tables on stdout, CSV files under `target/experiments/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A paper-vs-measured comparison table.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    rows: Vec<(String, String, String)>,
}

impl Comparison {
    /// Empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add a row: metric, what the paper reports, what we measured.
    pub(crate) fn row(
        &mut self,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> &mut Self {
        self.rows
            .push((metric.into(), paper.into(), measured.into()));
        self
    }

    /// Render as an aligned ASCII table.
    pub(crate) fn render(&self, title: &str) -> String {
        let headers = ("metric", "paper", "measured");
        let w0 = self
            .rows
            .iter()
            .map(|r| r.0.len())
            .chain([headers.0.len()])
            .max()
            .unwrap_or(6);
        let w1 = self
            .rows
            .iter()
            .map(|r| r.1.len())
            .chain([headers.1.len()])
            .max()
            .unwrap_or(5);
        let w2 = self
            .rows
            .iter()
            .map(|r| r.2.len())
            .chain([headers.2.len()])
            .max()
            .unwrap_or(8);
        let sep = format!(
            "+-{}-+-{}-+-{}-+",
            "-".repeat(w0),
            "-".repeat(w1),
            "-".repeat(w2)
        );
        let mut out = String::new();
        out.push_str(&format!("## {title}\n"));
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&format!(
            "| {:<w0$} | {:<w1$} | {:<w2$} |\n",
            headers.0, headers.1, headers.2
        ));
        out.push_str(&sep);
        out.push('\n');
        for (m, p, v) in &self.rows {
            out.push_str(&format!("| {m:<w0$} | {p:<w1$} | {v:<w2$} |\n"));
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Directory where experiment CSVs are written.
fn experiments_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(base).join("experiments")
}

/// Write a CSV file under `target/experiments/`; returns its path.
/// Columns are written exactly as given; every row must have the same
/// arity as the header.
pub(crate) fn write_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "row arity mismatch in {name}");
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Format a float compactly for tables (3 significant-ish digits).
pub(crate) fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_renders_aligned() {
        let mut c = Comparison::new();
        c.row("avg elephants (west)", "600", "587.3");
        c.row("load fraction", "~0.6", "0.62");
        let s = c.render("T2");
        assert!(s.contains("## T2"));
        assert!(s.contains("| metric"));
        assert!(s.contains("600"));
        // All table lines have equal width.
        let widths: std::collections::HashSet<usize> = s.lines().skip(1).map(str::len).collect();
        assert_eq!(widths.len(), 1, "{s}");
    }

    #[test]
    fn csv_written_and_readable() {
        let path = write_csv(
            "unit-test-emit",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.612), "0.612");
        assert_eq!(fmt(12.3456), "12.35");
        assert_eq!(fmt(612.4), "612");
        assert_eq!(fmt(-0.5), "-0.500");
    }
}
