//! Shared helpers for the LAPSES benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation and prints it in the paper's layout (plus a CSV copy under
//! the workspace-root `bench_results/` — see [`bench_results_dir`]).
//! Message counts default to a fast profile; set
//! `LAPSES_WARMUP_MSGS=10000 LAPSES_MEASURE_MSGS=400000` to run the paper's
//! full protocol.

use lapses_network::scenario::ScenarioBuilder;
use lapses_network::{SimResult, SweepReport};
use std::fmt::Write as _;
use std::path::PathBuf;

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

/// The paper's per-pattern load axes (Figs. 5 and 6 x-ranges). Sweeps stop
/// early at saturation, so the upper entries are upper bounds.
pub fn paper_loads(pattern: lapses_network::Pattern) -> &'static [f64] {
    use lapses_network::Pattern;
    match pattern {
        Pattern::Uniform => &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        Pattern::Transpose => &[0.1, 0.2, 0.3, 0.4, 0.5],
        Pattern::BitReversal => &[0.1, 0.2, 0.3, 0.4],
        Pattern::PerfectShuffle => &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        _ => &[0.1, 0.2, 0.3, 0.4, 0.5],
    }
}

/// Applies the benches' message counts to a scenario builder: a fast
/// profile of 500 warm-up and 6,000 measured messages, overridden by the
/// `LAPSES_WARMUP_MSGS` / `LAPSES_MEASURE_MSGS` environment variables so
/// the paper's full protocol runs on demand without recompiling.
pub fn with_bench_counts_scenario(builder: ScenarioBuilder) -> ScenarioBuilder {
    let env = |name: &str, default: u64| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    builder.message_counts(
        env("LAPSES_WARMUP_MSGS", 500),
        env("LAPSES_MEASURE_MSGS", 6_000),
    )
}

/// Extracts one labeled series from a [`SweepRunner`] report as the
/// `(load, result)` points the table-building code consumes.
///
/// # Panics
///
/// Panics when the label is absent — the grid-building and table-building
/// loops in each bench construct labels independently, and a silent empty
/// column would masquerade as universal saturation if they ever drift.
///
/// [`SweepRunner`]: lapses_network::SweepRunner
pub fn series_points(report: &SweepReport, label: &str) -> Vec<(f64, SimResult)> {
    report
        .series()
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| {
            panic!(
                "no series labeled {label:?} in the report (have: {:?})",
                report.series().iter().map(|s| &s.label).collect::<Vec<_>>()
            )
        })
        .points
        .clone()
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

/// Formats a latency / "Sat." cell with a percentage relative to `base`.
pub fn pct_over(value: f64, base: f64) -> String {
    format!("{:+.1}%", (value - base) / base * 100.0)
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
    fn pct_formats_sign() {
        assert_eq!(pct_over(110.0, 100.0), "+10.0%");
        assert_eq!(pct_over(90.0, 100.0), "-10.0%");
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

    #[test]
    fn loads_match_paper_axes() {
        use lapses_network::Pattern;
        assert_eq!(paper_loads(Pattern::Uniform).len(), 9);
        assert_eq!(paper_loads(Pattern::BitReversal).last(), Some(&0.4));
    }
}
