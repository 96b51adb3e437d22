//! The paper's evaluation, one definition per experiment.
//!
//! Each [`Experiment`] is a grid of simulated cells, rows of traffic by
//! columns of router configurations. It carries the values the paper
//! prints for it, where the paper prints any, and a check of the paper's
//! claims about it. The `paper` bench renders every experiment with the
//! paper's column beside ours; `tests/paper_fidelity.rs` runs each one's
//! [claimed rows](Experiment::checked) at 300 warm-up / 3000 measured
//! messages and fails on any violated claim.
//!
//! Every cell runs on the 16×16 mesh at the paper's Table 2 timing
//! (`link_delay(0)`) from the scenario's default seed, so each row is a
//! paired comparison of its columns on one workload.
//!
//! A cell that saturates renders as "Sat." and compares as +∞.

use crate::Table;
use lapses_core::psh::PathSelection;
use lapses_core::RouterConfig;
use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{Algorithm, Pattern, SimResult, SweepGrid, SweepRunner, TableKind};
use lapses_traffic::LengthDistribution;
use std::fmt;

/// One row of an experiment: the traffic every column runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    pattern: Pattern,
    load: f64,
    /// Fixed message length in flits.
    length: u32,
    /// The paper's printed values for this row: one per column, then one
    /// per derived column. Empty where the paper prints none.
    paper: &'static [f64],
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pattern, load, length) = (self.pattern.name(), self.load, self.length);
        write!(f, "{pattern} at load {load:.1}, {length}-flit messages")
    }
}

/// A column computed from a row's simulated latencies, in column order.
type Derived = (&'static str, fn(&[f64]) -> f64);

/// One experiment of the paper's evaluation.
pub struct Experiment {
    /// The name the `paper` bench selects it by (`fig5`, `table3`, ...).
    pub id: &'static str,
    /// The heading it renders under.
    pub title: &'static str,
    columns: Vec<(&'static str, ScenarioBuilder)>,
    derived: Vec<Derived>,
    rows: Vec<Row>,
    claimed: fn(&Row) -> bool,
    check: fn(&Outcome<'_>, &mut Vec<String>),
}

/// Every registered experiment, in the paper's order.
pub fn all() -> Vec<Experiment> {
    vec![fig5(), table3(), fig6(), table4()]
}

impl Experiment {
    /// The scenario of one cell, before message counts are applied.
    fn cell(&self, row: &Row, column: usize) -> ScenarioBuilder {
        self.columns[column]
            .1
            .clone()
            .pattern(row.pattern)
            .load(row.load)
            .lengths(LengthDistribution::Fixed(row.length))
    }

    /// The column names, in presentation order.
    fn column_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.columns.iter().map(|(name, _)| *name)
    }

    /// The experiment restricted to the rows its claims name: all that
    /// [`Outcome::check`] needs, and the cheapest run that answers it.
    pub fn checked(mut self) -> Experiment {
        self.rows.retain(self.claimed);
        self
    }

    /// Runs every cell as one [`SweepGrid`] on a [`SweepRunner`]. Each cell
    /// is a series of its own, so the report keeps grid order and no cell
    /// is cut off for a neighbour's saturation.
    pub fn run(&self, warmup: u64, measure: u64) -> Outcome<'_> {
        let mut grid = SweepGrid::new();
        for row in &self.rows {
            for (c, (name, _)) in self.columns.iter().enumerate() {
                let label = format!("{row} / {name}");
                let scenario = self
                    .cell(row, c)
                    .message_counts(warmup, measure)
                    .build()
                    .unwrap_or_else(|e| panic!("{} cell {label} is invalid: {e}", self.id));
                grid = grid.scenario_point(label, row.load, &scenario);
            }
        }
        let report = SweepRunner::new().run(&grid);
        let results = report
            .series()
            .iter()
            .map(|s| s.points[0].1.clone())
            .collect();
        Outcome {
            experiment: self,
            results,
        }
    }
}

/// The simulated results of one [`Experiment::run`].
pub struct Outcome<'e> {
    experiment: &'e Experiment,
    /// One per cell, row-major.
    results: Vec<SimResult>,
}

impl Outcome<'_> {
    /// The result of row `row`'s cell in `column` (which must exist).
    fn result(&self, row: usize, column: &str) -> &SimResult {
        let e = self.experiment;
        let c = e
            .column_names()
            .position(|name| name == column)
            .unwrap_or_else(|| panic!("{} has no column {column:?}", e.id));
        &self.results[row * e.columns.len() + c]
    }

    /// The average latency of one cell; +∞ where it saturated.
    fn latency(&self, row: usize, column: &str) -> f64 {
        let result = self.result(row, column);
        if result.saturated {
            f64::INFINITY
        } else {
            result.avg_latency
        }
    }

    /// The rows the experiment's claims name, with their indices.
    fn claimed_rows(&self) -> impl Iterator<Item = (usize, &Row)> {
        let claimed = self.experiment.claimed;
        self.experiment
            .rows
            .iter()
            .enumerate()
            .filter(move |(_, row)| claimed(row))
    }

    /// Each violated claim, as a message naming the row and the values.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        (self.experiment.check)(self, &mut violations);
        violations
    }

    /// One row's latencies, in column order.
    fn latencies(&self, row: usize) -> Vec<f64> {
        self.experiment
            .column_names()
            .map(|name| self.latency(row, name))
            .collect()
    }

    /// The experiment as a table: our value in every column, followed by
    /// the paper's where the paper prints values.
    pub fn table(&self) -> Table {
        let e = self.experiment;
        let with_paper = e.rows.iter().any(|r| !r.paper.is_empty());
        let mut header = vec!["pattern".to_string(), "load".into(), "len".into()];
        for name in e
            .column_names()
            .chain(e.derived.iter().map(|(name, _)| *name))
        {
            header.push(name.to_string());
            if with_paper {
                header.push(format!("{name} (paper)"));
            }
        }
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&header);

        let number = |v: f64| {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "Sat.".to_string()
            }
        };
        for (i, row) in e.rows.iter().enumerate() {
            let latencies = self.latencies(i);
            let ours = latencies
                .iter()
                .copied()
                .chain(e.derived.iter().map(|(_, f)| f(&latencies)));
            let mut cells = vec![
                row.pattern.name().to_string(),
                format!("{:.1}", row.load),
                row.length.to_string(),
            ];
            for (k, v) in ours.enumerate() {
                cells.push(number(v));
                if with_paper {
                    cells.push(row.paper.get(k).map_or("-".to_string(), |&p| number(p)));
                }
            }
            table.row(cells);
        }
        table
    }
}

/// Every scenario starts here: the paper's 16×16 mesh at its Table 2
/// timing.
fn paper_timing() -> ScenarioBuilder {
    Scenario::builder().link_delay(0)
}

/// The paper's per-pattern load axes (Figs. 5 and 6 x-ranges, and
/// Table 4's). Sweeps stop early at saturation, so the upper entries are
/// upper bounds.
fn loads(pattern: Pattern) -> &'static [f64] {
    match pattern {
        Pattern::Uniform => &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        Pattern::Transpose => &[0.1, 0.2, 0.3, 0.4, 0.5],
        Pattern::BitReversal => &[0.1, 0.2, 0.3, 0.4],
        Pattern::PerfectShuffle => &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        _ => &[],
    }
}

/// One row per load of each pattern's paper axis, at 20-flit messages.
fn load_rows(patterns: &[Pattern]) -> Vec<Row> {
    patterns
        .iter()
        .flat_map(|&pattern| {
            loads(pattern).iter().map(move |&load| Row {
                pattern,
                load,
                length: 20,
                paper: &[],
            })
        })
        .collect()
}

/// Percentage by which `value` exceeds `base`.
fn pct_over(value: f64, base: f64) -> f64 {
    (value - base) / base * 100.0
}

/// Whether `value` lies within `tolerance` of `target` (never for NaN).
fn within(value: f64, target: f64, tolerance: f64) -> bool {
    (value - target).abs() <= tolerance
}

/// Pushes a violation unless `lower`'s latency in row `i` is strictly
/// below `higher`'s.
fn expect_below(out: &Outcome<'_>, i: usize, lower: &str, higher: &str, v: &mut Vec<String>) {
    let (low, high) = (out.latency(i, lower), out.latency(i, higher));
    if low >= high {
        let row = &out.experiment.rows[i];
        v.push(format!(
            "{row}: {lower} ({low:.2}) is not below {higher} ({high:.2})"
        ));
    }
}

/// Fig. 5 (§3.3): look-ahead × adaptivity on the four patterns.
///
/// The paper plots each router's latency increase over LA-ADAPT. Claim:
/// at load 0.1, on every pattern, LA-ADAPT beats both routers without
/// look-ahead, which the paper puts about 12–15% above it (this simulator
/// measures 14–16%). LA-ADAPT is not claimed to beat LA-DET at low load:
/// the two are within noise there.
///
/// Not asserted: the paper's high-load shape, where deterministic routing
/// wins slightly on uniform traffic and adaptive routing wins decisively
/// on the three non-uniform patterns.
fn fig5() -> Experiment {
    let det = |lookahead| {
        paper_timing()
            .router(RouterConfig::paper_deterministic().with_lookahead(lookahead))
            .algorithm(Algorithm::DimensionOrder)
    };
    Experiment {
        id: "fig5",
        title: "Fig. 5: look-ahead x adaptivity, 16x16 mesh, 20-flit messages",
        columns: vec![
            ("NO LA, DET", det(false)),
            ("NO LA, ADAPT", paper_timing()),
            ("LA, DET", det(true)),
            ("LA, ADAPT", paper_timing().lookahead(true)),
        ],
        derived: vec![
            ("NO-LA-DET %", |lat| pct_over(lat[0], lat[3])),
            ("NO-LA-ADAPT %", |lat| pct_over(lat[1], lat[3])),
            ("LA-DET %", |lat| pct_over(lat[2], lat[3])),
        ],
        rows: load_rows(&Pattern::PAPER_FOUR),
        claimed: |row| row.load == 0.1,
        check: |out, violations| {
            for (i, _) in out.claimed_rows() {
                for rival in ["NO LA, DET", "NO LA, ADAPT"] {
                    expect_below(out, i, "LA, ADAPT", rival, violations);
                }
            }
        },
    }
}

/// Table 3's improvement column: how much lower LA's latency is than
/// no-LA's, in percent of no-LA's.
fn improvement(lat: &[f64]) -> f64 {
    -pct_over(lat[0], lat[1])
}

/// Table 3 (§3.3): the look-ahead benefit against message length, uniform
/// traffic at load 0.2.
///
/// Claims: every latency is within 3.5% of the paper's and every
/// improvement within 0.5 percentage points of it; the improvement falls
/// as messages grow, because the one pipeline stage look-ahead saves per
/// hop weighs less against serialization. At 300/3000 messages, over the
/// default seed and seeds 1–8, every latency sat 0.2–3.1% above the
/// paper's and every improvement at most 0.45 points from it.
fn table3() -> Experiment {
    let row = |length: u32, paper: &'static [f64]| Row {
        pattern: Pattern::Uniform,
        load: 0.2,
        length,
        paper,
    };
    Experiment {
        id: "table3",
        title: "Table 3: message length vs look-ahead benefit, uniform traffic at load 0.2",
        columns: vec![
            ("LA", paper_timing().lookahead(true)),
            ("no LA", paper_timing().lookahead(false)),
        ],
        derived: vec![("% improv.", improvement)],
        rows: vec![
            row(5, &[51.9, 63.4, 18.0]),
            row(10, &[58.9, 69.6, 15.4]),
            row(20, &[74.0, 83.6, 11.5]),
            row(50, &[120.2, 128.6, 6.5]),
        ],
        claimed: |_| true,
        check: |out, violations| {
            let mut shorter = f64::INFINITY;
            for (i, row) in out.claimed_rows() {
                let lat = out.latencies(i);
                for ((name, &ours), &paper) in
                    out.experiment.column_names().zip(&lat).zip(row.paper)
                {
                    if !within(ours / paper, 1.0, 0.035) {
                        violations.push(format!(
                            "{row}: {name} latency {ours:.2} is not within 3.5% of the paper's {paper}"
                        ));
                    }
                }
                let (ours, paper) = (improvement(&lat), row.paper[2]);
                if !within(ours, paper, 0.5) {
                    violations.push(format!(
                        "{row}: improvement {ours:.2}% is not within 0.5 points of the paper's {paper}%"
                    ));
                }
                if ours >= shorter {
                    violations.push(format!(
                        "{row}: improvement {ours:.2}% does not fall below the shorter length's {shorter:.2}%"
                    ));
                }
                shorter = ours;
            }
        },
    }
}

/// Fig. 6 (§4.2): the five path-selection heuristics on the four patterns.
///
/// Claims, on the three non-uniform patterns from load 0.4 up:
/// * each traffic-sensitive heuristic (MIN-MUX, LFU, LRU, MAX-CREDIT)
///   beats STATIC-XY. At load 0.3 the margin can shrink to a few percent,
///   so nothing is claimed there; on uniform traffic static selection is
///   fine.
/// * MAX-CREDIT is not "typically between LFU and LRU". Its place depends
///   on the pattern and the load: at 0.4 on transpose and perfect-shuffle
///   it sits between them (LRU < MAX-CREDIT < LFU); at the top load of
///   those two patterns (transpose 0.5, perfect-shuffle 0.6) it beats all
///   four other heuristics; on bit-reversal at 0.4 it is worse than both
///   LFU and LRU. Each of these held at 300/3000, 500/6000 and
///   2000/20000 messages, and at 300/3000 on seeds 1–3 as well. On
///   perfect-shuffle at 0.5 it was best at every count on the default
///   seed but 0.1–3% behind LRU on seeds 1–3, so that cell is not
///   claimed.
fn fig6() -> Experiment {
    let names = ["Static-XY", "Min-Mux", "LFU", "LRU", "MAX-CREDIT"];
    Experiment {
        id: "fig6",
        title: "Fig. 6: path-selection heuristics, adaptive 16x16 mesh",
        columns: names
            .into_iter()
            .zip(PathSelection::paper_five())
            .map(|(name, psh)| (name, paper_timing().path_selection(psh)))
            .collect(),
        derived: Vec::new(),
        rows: load_rows(&Pattern::PAPER_FOUR),
        claimed: |row| row.pattern != Pattern::Uniform && row.load >= 0.4,
        check: |out, violations| {
            for (i, row) in out.claimed_rows() {
                for heuristic in ["Min-Mux", "LFU", "LRU", "MAX-CREDIT"] {
                    expect_below(out, i, heuristic, "Static-XY", violations);
                }
                let mut below = |lower, higher| expect_below(out, i, lower, higher, violations);
                if row.pattern == Pattern::BitReversal {
                    below("LFU", "MAX-CREDIT");
                    below("LRU", "MAX-CREDIT");
                } else if row.load == 0.4 {
                    below("LRU", "MAX-CREDIT");
                    below("MAX-CREDIT", "LFU");
                } else if loads(row.pattern).last() == Some(&row.load) {
                    for rival in ["Min-Mux", "LFU", "LRU"] {
                        below("MAX-CREDIT", rival);
                    }
                }
            }
        },
    }
}

/// Table 4 (§5.2.2): table-storage schemes on the adaptive router.
///
/// Claims:
/// * full tables and economical storage hold the same routing relation,
///   so from the same seed they give bit-identical average latency,
///   maximum latency and cycle count in every cell;
/// * the "maximal flexibility" 4×4 block labeling (Meta-Tbl Adp.) is
///   worse than the row labeling that collapses to deterministic routing
///   (Meta-Tbl Det.) on transpose traffic from load 0.2 up and on uniform
///   traffic from 0.3 up: adaptivity dies at cluster boundaries, where
///   the boundary links congest. This simulator measures Adp. at least
///   3× and 1.4× Det.'s latency there.
fn table4() -> Experiment {
    let scheme = |table: TableKind| paper_timing().table(table);
    Experiment {
        id: "table4",
        title: "Table 4: table-storage schemes, adaptive 16x16 mesh",
        columns: vec![
            ("Meta-Tbl Adp.", scheme(TableKind::MetaBlocks(vec![4, 4]))),
            ("Meta-Tbl Det.", scheme(TableKind::MetaRows)),
            ("Full-Tbl-Adp.", scheme(TableKind::Full)),
            ("Econ. Storage", scheme(TableKind::Economical)),
        ],
        derived: Vec::new(),
        rows: load_rows(&[Pattern::Uniform, Pattern::Transpose, Pattern::BitReversal]),
        claimed: |row| match row.pattern {
            Pattern::Transpose => row.load >= 0.2,
            Pattern::Uniform => row.load >= 0.3,
            _ => false,
        },
        check: |out, violations| {
            for (i, row) in out.experiment.rows.iter().enumerate() {
                let key = |column| {
                    let r = out.result(i, column);
                    (r.avg_latency, r.max_latency, r.cycles)
                };
                let (full, econ) = (key("Full-Tbl-Adp."), key("Econ. Storage"));
                if full != econ {
                    violations.push(format!(
                        "{row}: (average latency, maximum latency, cycles) differ between \
                         Full-Tbl-Adp. {full:?} and Econ. Storage {econ:?}"
                    ));
                }
            }
            for (i, _) in out.claimed_rows() {
                expect_below(out, i, "Meta-Tbl Det.", "Meta-Tbl Adp.", violations);
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_match_paper_axes() {
        assert_eq!(loads(Pattern::Uniform).len(), 9);
        assert_eq!(loads(Pattern::BitReversal).last(), Some(&0.4));
    }

    #[test]
    fn every_cell_builds_at_paper_timing() {
        for e in all() {
            for row in &e.rows {
                for c in 0..e.columns.len() {
                    let scenario = e.cell(row, c).build().unwrap();
                    assert_eq!(scenario.config().link_delay, 0, "{} {row}", e.id);
                }
            }
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = all().iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all().len());
    }

    #[test]
    fn checked_keeps_exactly_the_claimed_rows() {
        for e in all() {
            let kept: Vec<Row> = e.rows.iter().copied().filter(e.claimed).collect();
            assert!(!kept.is_empty(), "{} claims nothing", e.id);
            assert_eq!(e.checked().rows, kept);
        }
    }
}
