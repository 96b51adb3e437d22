//! The LAPSES benchmark harness.
//!
//! [`paper`] defines the paper's simulated experiments (Figs. 5 and 6,
//! Tables 3 and 4) once, with the paper's values and claims; the `paper`
//! bench renders them. Every bench prints its tables in the paper's
//! layout, plus a CSV copy under the workspace-root `bench_results/` (see
//! [`bench_results_dir`]). Message counts default to a fast profile; set
//! `LAPSES_WARMUP_MSGS=10000 LAPSES_MEASURE_MSGS=400000` to run the
//! paper's full protocol.

use lapses_network::scenario::ScenarioBuilder;
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod paper;

/// The canonical output directory for every bench artifact:
/// `bench_results/` at the **workspace root**, regardless of the working
/// directory cargo gives the bench executable (which is the package dir,
/// `crates/bench/` — writing relative paths from there is how artifacts
/// historically ended up split between two locations). Overridable with
/// the `LAPSES_BENCH_DIR` environment variable for sandboxed runs.
pub fn bench_results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("LAPSES_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    // crates/bench -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .join("bench_results")
}

/// Applies the [`bench_counts`] to a scenario builder.
pub fn with_bench_counts_scenario(builder: ScenarioBuilder) -> ScenarioBuilder {
    let (warmup, measure) = bench_counts();
    builder.message_counts(warmup, measure)
}

/// The benches' (warm-up, measured) message counts: a fast profile of 500
/// and 6,000, overridden by the `LAPSES_WARMUP_MSGS` / `LAPSES_MEASURE_MSGS`
/// environment variables so the paper's full protocol runs on demand
/// without recompiling.
pub fn bench_counts() -> (u64, u64) {
    let env = |name: &str, default: u64| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    (
        env("LAPSES_WARMUP_MSGS", 500),
        env("LAPSES_MEASURE_MSGS", 6_000),
    )
}

/// A simple fixed-width text table that prints like the paper's.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV to `<workspace root>/bench_results/
    /// <name>.csv` (best effort — failures are reported but not fatal so
    /// benches still print).
    pub fn save_csv(&self, name: &str) {
        let dir = bench_results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let mut csv = String::new();
        let escape = |s: &str| s.replace(',', ";");
        csv.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["load", "latency"]);
        t.row(vec!["0.1".into(), "69.2".into()]);
        t.row(vec!["0.9".into(), "432.8".into()]);
        let s = t.render();
        assert!(s.contains("load"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn bench_results_dir_is_workspace_rooted() {
        let dir = bench_results_dir();
        assert!(dir.ends_with("bench_results"));
        let root = dir.parent().unwrap();
        assert!(
            root.join("Cargo.toml").exists() && root.join("crates").is_dir(),
            "{} is not the workspace root",
            root.display()
        );
    }
}
