//! Every experiment of the evaluation, one definition each.
//!
//! Each [`Experiment`] is a grid of simulated cells, rows of traffic by
//! columns of router configurations. It carries the values the paper
//! prints for it, where the paper prints any, and a check of the claims
//! made about it. [`all`] holds the paper's Figs. 5 and 6 and Tables 3
//! and 4, then the ablations of choices the paper leaves open (`psh`,
//! `vcs`, `topologies`, `lookup`) and the burst-length sweep (`burst`).
//! The `paper` bench renders every experiment with the paper's column
//! beside ours; `tests/paper_fidelity.rs` runs each one's
//! [claimed rows](Experiment::checked) at 300 warm-up / 3000 measured
//! messages and fails on any violated claim. [`table5`] renders Table 5,
//! which is computed, not simulated.
//!
//! Every cell runs at the paper's Table 2 timing (`link_delay(0)`) from
//! the scenario's default seed, so each row is a paired comparison of its
//! columns on one workload. A cell runs on the paper's 16×16 mesh unless
//! its column sets another topology.
//!
//! A cell that saturates renders as "Sat." and compares as +∞.

use lapses_core::psh::{CreditAggregate, LfuCounting, PathSelection};
use lapses_core::tables::scheme_comparison;
use lapses_core::RouterConfig;
use lapses_network::report::Table;
use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{Algorithm, Pattern, SimResult, SweepGrid, SweepRunner, TableKind};
use lapses_topology::Mesh;
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

impl Row {
    /// A row of 20-flit messages, with no paper values.
    fn at(pattern: Pattern, load: f64) -> Row {
        Row {
            pattern,
            load,
            length: 20,
            paper: &[],
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pattern, load, length) = (self.pattern.name(), self.load, self.length);
        write!(f, "{pattern} at load {load}, {length}-flit messages")
    }
}

/// A column computed from a row's simulated latencies, in column order.
type Derived = (&'static str, fn(&[f64]) -> f64);

/// One experiment of the paper's evaluation.
pub struct Experiment {
    /// The name the `paper` bench selects it by (`fig5`, `psh`, ...).
    pub id: &'static str,
    /// The heading it renders under.
    pub title: &'static str,
    columns: Vec<(&'static str, ScenarioBuilder)>,
    derived: Vec<Derived>,
    rows: Vec<Row>,
    claimed: fn(&Row) -> bool,
    check: fn(&Outcome<'_>, &mut Vec<String>),
}

/// Every registered experiment: the paper's, in its order, then the
/// ablations and the burst sweep.
pub fn all() -> Vec<Experiment> {
    vec![
        fig5(),
        table3(),
        fig6(),
        table4(),
        psh(),
        vcs(),
        topologies(),
        lookup(),
        burst(),
    ]
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
        let mut table = Table::new(header);

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
                row.load.to_string(),
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
            loads(pattern)
                .iter()
                .map(move |&load| Row::at(pattern, load))
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

/// Pushes a violation unless `key` maps the results of columns `a` and
/// `b` in row `i` to the same value.
fn expect_same<K: PartialEq + fmt::Debug>(
    out: &Outcome<'_>,
    i: usize,
    (a, b): (&str, &str),
    key: impl Fn(&SimResult) -> K,
    v: &mut Vec<String>,
) {
    let (ka, kb) = (key(out.result(i, a)), key(out.result(i, b)));
    if ka != kb {
        let row = &out.experiment.rows[i];
        v.push(format!("{row}: {a} {ka:?} differs from {b} {kb:?}"));
    }
}

/// A run's (average latency, maximum latency, cycles): what two runs of
/// one routing relation from one seed must share.
fn summary(r: &SimResult) -> (f64, f64, u64) {
    (r.avg_latency, r.max_latency, r.cycles)
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
            for i in 0..out.experiment.rows.len() {
                let pair = ("Full-Tbl-Adp.", "Econ. Storage");
                expect_same(out, i, pair, summary, violations);
            }
            for (i, _) in out.claimed_rows() {
                expect_below(out, i, "Meta-Tbl Det.", "Meta-Tbl Adp.", violations);
            }
        },
    }
}

/// Path-selection ablation (§4): how MAX-CREDIT aggregates credits and
/// how LFU counts use, with random selection as a baseline, on transpose
/// traffic.
///
/// Claims, in both rows: MAX-CREDIT summing the credits of a port's VCs
/// beats MAX-CREDIT reading its best single VC, and LFU counting message
/// headers beats LFU counting flits. At 300/3000 messages on transpose at
/// 0.35 from the default seed: 99.3 against 178.6, and 91.6 against 109.3.
/// Both held on seeds 1–3 as well.
fn psh() -> Experiment {
    let selections = [
        ("static-xy", PathSelection::StaticXy),
        ("random", PathSelection::Random),
        (
            "max-credit(sum)",
            PathSelection::MaxCredit(CreditAggregate::Sum),
        ),
        (
            "max-credit(max)",
            PathSelection::MaxCredit(CreditAggregate::Max),
        ),
        ("lfu(per-flit)", PathSelection::Lfu(LfuCounting::PerFlit)),
        ("lfu(per-msg)", PathSelection::Lfu(LfuCounting::PerMessage)),
        ("lru", PathSelection::Lru),
    ];
    Experiment {
        id: "psh",
        title: "Path-selection ablation: credit aggregation, LFU counting, random selection",
        columns: selections
            .into_iter()
            .map(|(name, psh)| (name, paper_timing().path_selection(psh)))
            .collect(),
        derived: Vec::new(),
        rows: vec![
            Row::at(Pattern::Transpose, 0.2),
            Row::at(Pattern::Transpose, 0.35),
        ],
        claimed: |_| true,
        check: |out, violations| {
            for (i, _) in out.claimed_rows() {
                expect_below(out, i, "max-credit(sum)", "max-credit(max)", violations);
                expect_below(out, i, "lfu(per-msg)", "lfu(per-flit)", violations);
            }
        },
    }
}

/// VC-split ablation: escape + adaptive VCs per port under Duato's
/// protocol, with the default STATIC-XY selection, on transpose traffic.
///
/// Claim, in both rows: the latencies rank 1+1 < 2+2 < 1+3 < 1+7, so
/// more adaptive VCs per port cost latency here. At 300/3000 messages on
/// transpose at 0.35 from the default seed: 101.1, 135.6, 178.4 and
/// 261.5. The rank held on seeds 1–3 as well.
fn vcs() -> Experiment {
    let split = |total, escape| paper_timing().vcs(total, escape);
    Experiment {
        id: "vcs",
        title: "VC-split ablation: escape+adaptive VCs under Duato's protocol",
        columns: vec![
            ("1+3", split(4, 1)),
            ("2+2", split(4, 2)),
            ("1+1", split(2, 1)),
            ("1+7", split(8, 1)),
        ],
        derived: Vec::new(),
        rows: vec![
            Row::at(Pattern::Transpose, 0.2),
            Row::at(Pattern::Transpose, 0.35),
        ],
        claimed: |_| true,
        check: |out, violations| {
            for (i, _) in out.claimed_rows() {
                for pair in ["1+1", "2+2", "1+3", "1+7"].windows(2) {
                    expect_below(out, i, pair[0], pair[1], violations);
                }
            }
        },
    }
}

/// Economical storage beyond 2-D meshes (§5.2.1): full and ES tables on a
/// 6×6×6 mesh (27-entry ES tables) and on an 8×8 torus with the dateline
/// escape (two escape VCs), under uniform traffic.
///
/// Claims, in both rows:
/// * on the 3-D mesh both tables hold the same routing relation, so from
///   the same seed they give bit-identical average latency, maximum
///   latency and cycle count;
/// * on the torus ES is strictly slower than full: its sign classes
///   cannot tell the two directions of a half-way tie apart, so ES drops
///   those candidates. At 300/3000 messages at load 0.4 from the default
///   seed: 90.4 against 85.3. This held on seeds 1–3 as well.
fn topologies() -> Experiment {
    let mesh3d = || paper_timing().topology(Mesh::mesh_3d(6, 6, 6));
    let torus = || paper_timing().torus_2d(8, 8).vcs(4, 2);
    Experiment {
        id: "topologies",
        title: "Economical storage beyond 2-D meshes: 6x6x6 mesh and 8x8 torus",
        columns: vec![
            ("6x6x6 full", mesh3d().table(TableKind::Full)),
            ("6x6x6 ES", mesh3d().table(TableKind::Economical)),
            ("8x8 torus full", torus().table(TableKind::Full)),
            ("8x8 torus ES", torus().table(TableKind::Economical)),
        ],
        derived: Vec::new(),
        rows: vec![
            Row::at(Pattern::Uniform, 0.2),
            Row::at(Pattern::Uniform, 0.4),
        ],
        claimed: |_| true,
        check: |out, violations| {
            for (i, _) in out.claimed_rows() {
                expect_same(out, i, ("6x6x6 full", "6x6x6 ES"), summary, violations);
                expect_below(out, i, "8x8 torus full", "8x8 torus ES", violations);
            }
        },
    }
}

/// Table-lookup latency: Table 5 calls a full table's lookup time
/// "possibly high", since it grows with the table. Here the 256-entry
/// full table is a 2-cycle RAM and the 9-entry ES table a 1-cycle one.
///
/// Claims, in both rows:
/// * look-ahead hides the second cycle completely: full tables at 2
///   cycles with look-ahead run identically (every `SimResult` field) to
///   full tables at 1 cycle without it;
/// * without look-ahead the second cycle costs latency (94.8 against
///   84.0 at uniform 0.2, 300/3000 messages, default seed);
/// * ES tables at 1 cycle run identically to full tables at 1 cycle.
fn lookup() -> Experiment {
    let ram = |table, cycles| paper_timing().table(table).table_lookup_cycles(cycles);
    Experiment {
        id: "lookup",
        title: "Table-lookup latency: a 2-cycle full-table RAM against 1-cycle tables",
        columns: vec![
            ("full 1-cyc", ram(TableKind::Full, 1)),
            ("full 2-cyc", ram(TableKind::Full, 2)),
            ("ES 1-cyc", ram(TableKind::Economical, 1)),
            ("full 2-cyc + LA", ram(TableKind::Full, 2).lookahead(true)),
        ],
        derived: Vec::new(),
        rows: vec![
            Row::at(Pattern::Uniform, 0.2),
            Row::at(Pattern::Transpose, 0.3),
        ],
        claimed: |_| true,
        check: |out, violations| {
            let whole = SimResult::clone;
            for (i, _) in out.claimed_rows() {
                expect_same(out, i, ("full 2-cyc + LA", "full 1-cyc"), whole, violations);
                expect_below(out, i, "full 1-cyc", "full 2-cyc", violations);
                expect_same(out, i, ("ES 1-cyc", "full 1-cyc"), whole, violations);
            }
        },
    }
}

/// Burst length against latency: ON/OFF sources offer the same long-run
/// load as the smooth exponential source, in bursts of a mean number of
/// back-to-back messages at one message per 2 cycles. 8×8 LA-ADAPT mesh,
/// uniform traffic.
///
/// Claim, at loads 0.3 and 0.4: latency rises strictly with burst length.
/// At 300/3000 messages at 0.3 from the default seed: 61.3, 83.9, 96.5,
/// 108.9 and 120.8. The rows from 0.5 up are rendered but not claimed:
/// there the order breaks on seed 2 (159.9 against 154.6 at 0.5).
fn burst() -> Experiment {
    let lengths = [
        ("burst 1", 1),
        ("burst 2", 2),
        ("burst 4", 4),
        ("burst 8", 8),
        ("burst 16", 16),
    ];
    Experiment {
        id: "burst",
        title: "Burst length vs latency: 8x8 LA-ADAPT mesh, uniform traffic, peak gap 2",
        columns: lengths
            .into_iter()
            .map(|(name, len)| {
                let mesh = paper_timing().mesh_2d(8, 8).lookahead(true);
                (name, mesh.bursty(len, 2.0))
            })
            .collect(),
        derived: Vec::new(),
        rows: [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
            .into_iter()
            .map(|load| Row::at(Pattern::Uniform, load))
            .collect(),
        claimed: |row| row.load <= 0.4,
        check: |out, violations| {
            let names: Vec<_> = out.experiment.column_names().collect();
            for (i, _) in out.claimed_rows() {
                for pair in names.windows(2) {
                    expect_below(out, i, pair[0], pair[1], violations);
                }
            }
        },
    }
}

/// The `paper` bench id of [`table5`].
pub const TABLE5: &str = "table5";

/// Table 5 (§5.2.1): each table-storage scheme's entries and bits per
/// router and its properties, on the paper's 16×16 mesh, the 2048-node
/// Cray T3D-scale 3-D mesh the paper cites, and a million-node 2-D mesh.
/// Meta-tables use `N/m + m` entries for `m` clusters. Nothing here is
/// simulated; `lapses_core::tables::cost` asserts the paper's entry
/// counts (9 per router for ES on any 2-D mesh, 27 on any 3-D mesh).
pub fn table5() -> Table {
    let networks = [
        (Mesh::mesh_2d(16, 16), 16),
        (Mesh::mesh(&[8, 16, 16]), 16),
        (Mesh::mesh_2d(1024, 1024), 1024),
    ];
    let mut table = Table::new([
        "network",
        "scheme",
        "entries/router",
        "bits/router",
        "bits w/ LA",
        "size indep. of N",
        "adaptive",
        "topologies",
    ]);
    let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
    for (mesh, clusters) in networks {
        for r in scheme_comparison(&mesh, mesh.node_count() / clusters + clusters) {
            table.row(vec![
                mesh.to_string(),
                r.scheme.to_string(),
                r.storage.entries_per_router.to_string(),
                r.storage.bits_per_router().to_string(),
                r.storage.lookahead_bits_per_router().to_string(),
                yes_no(r.size_independent_of_network),
                yes_no(r.supports_adaptive),
                r.topologies.to_string(),
            ]);
        }
    }
    table
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
        let mut ids: Vec<_> = all().iter().map(|e| e.id).chain([TABLE5]).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all().len() + 1);
    }

    #[test]
    fn table5_lists_four_schemes_on_three_networks() {
        let csv = table5().to_csv();
        assert_eq!(csv.lines().count(), 1 + 3 * 4);
        assert!(csv.contains("16x16 mesh,economical,9,"), "{csv}");
        assert!(csv.contains("8x16x16 mesh,economical,27,"), "{csv}");
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
