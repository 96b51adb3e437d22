//! The LAPSES benchmark harness.
//!
//! [`paper`] defines every experiment of the evaluation once: the paper's
//! Figs. 5 and 6 and Tables 3 and 4, the ablations of choices the paper
//! leaves open, the burst-length sweep, and Table 5's storage costs. The
//! `paper` bench renders them; each simulated experiment carries the
//! paper's values where it prints any, and claims that tier-1 asserts.
//! Every table prints through [`Table`], plus a CSV copy under the
//! workspace-root `bench_results/` (see [`save_csv`]). Message counts
//! default to a fast profile; set
//! `LAPSES_WARMUP_MSGS=10000 LAPSES_MEASURE_MSGS=400000` to run the
//! paper's full protocol.

use lapses_network::report::Table;
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

/// The benches' (warm-up, measured) message counts: a fast profile of 500
/// and 6,000, overridden by the `LAPSES_WARMUP_MSGS` / `LAPSES_MEASURE_MSGS`
/// environment variables so the paper's full protocol runs on demand
/// without recompiling.
///
/// # Errors
///
/// A variable that is set but not a whole number of messages (say
/// `LAPSES_MEASURE_MSGS=4e5`) is an error naming the variable and its
/// value, never a silent fallback to the fast profile.
pub fn bench_counts() -> Result<(u64, u64), String> {
    let env = |name: &str, default: u64| {
        let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        count(name, value.as_deref(), default)
    };
    Ok((
        env("LAPSES_WARMUP_MSGS", 500)?,
        env("LAPSES_MEASURE_MSGS", 6_000)?,
    ))
}

/// Parses the message count `value` of the environment variable `name`,
/// or gives `default` when it is unset.
fn count(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a whole number of messages")),
    }
}

/// Writes `table` as CSV to `<`[`bench_results_dir`]`>/<name>.csv` (best
/// effort: a failure is reported but not fatal, so benches still print).
pub fn save_csv(table: &Table, name: &str) {
    let dir = bench_results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_parse_or_name_the_bad_variable() {
        assert_eq!(count("LAPSES_WARMUP_MSGS", None, 500), Ok(500));
        assert_eq!(
            count("LAPSES_MEASURE_MSGS", Some("400000"), 6_000),
            Ok(400_000)
        );
        for bad in ["4e5", "", " 10", "-1", "1.5"] {
            assert_eq!(
                count("LAPSES_MEASURE_MSGS", Some(bad), 6_000),
                Err(format!(
                    "LAPSES_MEASURE_MSGS={bad:?} is not a whole number of messages"
                ))
            );
        }
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
