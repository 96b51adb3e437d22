//! Parallel execution of simulation grids — the engine behind every figure.
//!
//! The paper's evaluation (Figs. 5/6, Tables 3/4) is a grid of independent
//! simulation points: router configurations × traffic patterns × offered
//! loads. Each point is a self-contained validated [`Scenario`], so the
//! grid is embarrassingly parallel; this module runs it on a pool of OS
//! threads while keeping the output **bit-identical to a single-threaded
//! run**:
//!
//! * every point's seed is derived from the runner's master seed and the
//!   point's position in the grid — never from thread identity or timing;
//! * results are aggregated in grid order, not completion order;
//! * the saturation cut-off (a series stops after its first "Sat." point,
//!   like the paper's figures) is enforced by *position*: a worker skips a
//!   point only when some earlier point of the same series has already
//!   saturated, and the final report truncates each series at its first
//!   saturated point, so racing workers can only change how much wasted
//!   work is avoided, never the report.
//!
//! # Work stealing
//!
//! Points are *not* handed out in grid order. The runner sorts them into a
//! shared longest-expected-first queue (higher offered load ⇒ more flits
//! in flight per cycle ⇒ more wall time per simulated cycle, so higher
//! load runs earlier; ties fall back to grid order) and every idle worker
//! steals the longest remaining point. This is classic LPT scheduling: the
//! grid's makespan is set by its most expensive points, so starting them
//! first lets the short points pack the tail instead of the whole sweep
//! serializing behind one saturated point that was handed out last.
//! Stealing order is pure scheduling — seeds are positional and results
//! are slotted by grid index — so the report stays bit-identical across
//! any thread count (enforced by the `sweep_runner` integration tests).
//!
//! # Example
//!
//! ```
//! use lapses_network::{Pattern, Scenario, ScenarioAxis, SweepGrid, SweepRunner};
//!
//! let base = Scenario::builder().mesh_2d(4, 4).lookahead(true).message_counts(50, 300);
//! let loads = ScenarioAxis::Load(vec![0.1, 0.2]);
//! let uniform = base.clone().pattern(Pattern::Uniform).build()?;
//! let transpose = base.pattern(Pattern::Transpose).build()?;
//! let grid = SweepGrid::new()
//!     .scenario_series("uniform", &uniform, &loads)?
//!     .scenario_series("transpose", &transpose, &loads)?;
//! let report = SweepRunner::new().with_threads(2).with_master_seed(7).run(&grid);
//! assert_eq!(report.series().len(), 2);
//! # Ok::<(), lapses_network::ScenarioError>(())
//! ```

use crate::experiment::{Algorithm, ArrivalKind, FaultsConfig, WorkloadKind};
use crate::report::SweepReport;
use crate::scenario::{Scenario, ScenarioBuilder, ScenarioError};
use crate::stats::SimResult;
use lapses_topology::Mesh;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One cell of a sweep grid: a fully-specified simulation point plus the
/// series (curve) it belongs to in the final report.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Report series this point belongs to ("LA, ADAPT", "LRU", ...).
    pub series: String,
    /// The x-axis value of this point — the normalized load for classic
    /// load sweeps, or the swept [`ScenarioAxis`] value (burst length,
    /// node count, ...) for scenario grids.
    pub load: f64,
    /// The name of the x axis `load` lies on (see
    /// [`SweepSeries::axis`](crate::report::SweepSeries::axis)).
    pub axis: &'static str,
    /// The validated scenario to run.
    pub scenario: Scenario,
}

/// One swept dimension of a [`Scenario`] — the generalization of the
/// classic load-only series to any scenario axis.
///
/// Value axes (`Load`, `BurstLen`, `MeshExtent`) become one report series
/// whose x-axis is the swept value, and their values must be strictly
/// ascending so the saturation cut-off keeps its meaning (saturation is
/// monotone along each of them). The enumerated `Algorithm` axis has no
/// such order, so it expands to one single-point series per algorithm
/// (labeled `"{label}/{algorithm}"`) and the cut-off stays per-curve.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAxis {
    /// Sweep the normalized offered load.
    Load(Vec<f64>),
    /// Sweep the bursty workload's mean burst length (messages). Only
    /// valid on scenarios with a bursty workload.
    BurstLen(Vec<u32>),
    /// Sweep the 2-D topology extent (width, height), keeping the mesh/
    /// torus kind. The x-axis is the node count. Not valid for trace
    /// workloads (a trace pins its node count).
    MeshExtent(Vec<(u16, u16)>),
    /// Enumerate routing algorithms at the scenario's fixed load.
    Algorithm(Vec<Algorithm>),
    /// Sweep the number of random dead links (fault density) at the
    /// scenario's fixed load. Only valid on scenarios with seeded random
    /// faults ([`FaultsConfig::Random`]), whose seed every count reuses —
    /// resolution is positional, so reports stay bit-identical across
    /// thread counts.
    FaultCount(Vec<usize>),
}

impl ScenarioAxis {
    /// A short name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioAxis::Load(_) => "load",
            ScenarioAxis::BurstLen(_) => "burst-length",
            ScenarioAxis::MeshExtent(_) => "mesh-extent",
            ScenarioAxis::Algorithm(_) => "algorithm",
            ScenarioAxis::FaultCount(_) => "fault-count",
        }
    }

    /// Applies the axis to `base`, yielding the `(x, scenario)` points of
    /// one series — each re-validated through the scenario builder.
    fn apply(&self, base: &Scenario) -> Result<Vec<(f64, Scenario)>, ScenarioError> {
        let cfg = base.config();
        let mismatch = || ScenarioError::AxisMismatch {
            axis: self.name(),
            workload: cfg.workload.name(),
        };
        // Trace replay carries its own timing and node count, so neither a
        // load nor a topology axis can change what it replays.
        let trace = matches!(cfg.workload, WorkloadKind::Trace(_));
        let points: Vec<(f64, ScenarioBuilder)> = match self {
            ScenarioAxis::Load(_) | ScenarioAxis::MeshExtent(_) if trace => return Err(mismatch()),
            ScenarioAxis::Load(loads) => loads
                .iter()
                .map(|&load| (load, base.to_builder().load(load)))
                .collect(),
            ScenarioAxis::BurstLen(lens) => {
                let WorkloadKind::Synthetic {
                    arrivals: ArrivalKind::OnOff { peak_gap, .. },
                } = cfg.workload
                else {
                    return Err(mismatch());
                };
                lens.iter()
                    .map(|&len| (len as f64, base.to_builder().bursty(len, peak_gap)))
                    .collect()
            }
            ScenarioAxis::MeshExtent(extents) => extents
                .iter()
                .map(|&(w, h)| {
                    let mesh =
                        Mesh::new(&[w, h], cfg.mesh.is_torus()).map_err(ScenarioError::Topology)?;
                    Ok((w as f64 * h as f64, base.to_builder().topology(mesh)))
                })
                .collect::<Result<_, ScenarioError>>()?,
            ScenarioAxis::Algorithm(algos) => {
                return algos
                    .iter()
                    .map(|&a| Ok((cfg.load, base.to_builder().algorithm(a).build()?)))
                    .collect();
            }
            ScenarioAxis::FaultCount(counts) => {
                let FaultsConfig::Random { seed, .. } = cfg.faults else {
                    return Err(ScenarioError::AxisNeedsRandomFaults);
                };
                counts
                    .iter()
                    .map(|&count| (count as f64, base.to_builder().random_faults(count, seed)))
                    .collect()
            }
        };
        if !points.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(ScenarioError::AxisNotAscending { axis: self.name() });
        }
        points
            .into_iter()
            .map(|(x, builder)| Ok((x, builder.build()?)))
            .collect()
    }
}

/// A grid of validated scenarios, grouped into labeled series.
///
/// Within a series, grid order defines the saturation cut-off (everything
/// after the first saturated point is dropped, like the paper's figures),
/// which is why value axes must be strictly ascending.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    points: Vec<SweepPoint>,
}

impl SweepGrid {
    /// Creates an empty grid.
    pub fn new() -> SweepGrid {
        SweepGrid::default()
    }

    /// Adds one series by sweeping `base` along a [`ScenarioAxis`]. Every
    /// point re-validates through the scenario builder, so an axis value
    /// that produces an inconsistent scenario is reported up front rather
    /// than panicking mid-sweep.
    ///
    /// Value axes (load, burst length, mesh extent) become one series on
    /// that x-axis; the enumerated algorithm axis becomes one single-point
    /// series per algorithm, labeled `"{label}/{algorithm}"` (see
    /// [`ScenarioAxis`]).
    pub fn scenario_series(
        mut self,
        label: impl Into<String>,
        base: &Scenario,
        axis: &ScenarioAxis,
    ) -> Result<SweepGrid, ScenarioError> {
        let label = label.into();
        // The algorithm axis places each single-point series at its load.
        let x_axis = match axis {
            ScenarioAxis::Algorithm(_) => "load",
            _ => axis.name(),
        };
        for (i, (x, scenario)) in axis.apply(base)?.into_iter().enumerate() {
            let series = match axis {
                ScenarioAxis::Algorithm(algos) => {
                    format!("{label}/{}", algos[i].name())
                }
                _ => label.clone(),
            };
            self.points.push(SweepPoint {
                series,
                load: x,
                axis: x_axis,
                scenario,
            });
        }
        Ok(self)
    }

    /// Adds a single scenario as a one-point series at x-value `x` on the
    /// axis named `"x"` (useful for trace-replay scenarios, which have no
    /// load axis).
    pub fn scenario_point(
        mut self,
        label: impl Into<String>,
        x: f64,
        scenario: &Scenario,
    ) -> SweepGrid {
        self.points.push(SweepPoint {
            series: label.into(),
            load: x,
            axis: "x",
            scenario: scenario.clone(),
        });
        self
    }

    /// The points in grid order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Number of points in the grid.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// What to do with the points of a series past its first saturated point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutoffPolicy {
    /// Drop them from the report and skip their execution when a lower
    /// load has already saturated.
    #[default]
    TruncateAtSaturation,
    /// Run and report every grid point, "Sat." cells included.
    KeepAll,
}

/// A claim on the process's spare cores: the cores beyond the first that
/// no sweep worker or network shard is using. The budget starts at
/// `available_parallelism() - 1`; a claim takes what it can and returns it
/// when dropped.
#[derive(Debug)]
pub(crate) struct CoreClaim(usize);

impl CoreClaim {
    fn budget() -> &'static AtomicUsize {
        static SPARE: OnceLock<AtomicUsize> = OnceLock::new();
        SPARE.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            AtomicUsize::new(cores - 1)
        })
    }

    /// Claims up to `want` spare cores (possibly none).
    pub fn take(want: usize) -> CoreClaim {
        let taken = Self::budget()
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |spare| {
                Some(spare - spare.min(want))
            })
            .map_or(0, |spare| spare.min(want));
        CoreClaim(taken)
    }

    /// Cores held by this claim.
    pub fn cores(&self) -> usize {
        self.0
    }

    /// Returns all but `keep` of the claimed cores to the budget.
    pub fn keep(&mut self, keep: usize) {
        if keep < self.0 {
            Self::budget().fetch_add(self.0 - keep, Ordering::AcqRel);
            self.0 = keep;
        }
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        self.keep(0);
    }
}

/// Executes a [`SweepGrid`] on a thread pool.
///
/// The same master seed always produces the same [`SweepReport`],
/// regardless of thread count — see the module docs for why.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    master_seed: Option<u64>,
    cutoff: CutoffPolicy,
}

impl Default for SweepRunner {
    fn default() -> SweepRunner {
        SweepRunner {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            master_seed: None,
            cutoff: CutoffPolicy::default(),
        }
    }
}

impl SweepRunner {
    /// A runner using every available core.
    pub fn new() -> SweepRunner {
        SweepRunner::default()
    }

    /// Sets the worker-thread count (clamped to at least 1).
    ///
    /// Workers and the network shards inside one run share the process's
    /// cores: while [`SweepRunner::run`] executes, every worker beyond the
    /// first holds one of the spare cores (`available_parallelism() - 1`
    /// in all), and a network large enough to shard takes helper threads
    /// only from the cores left over (see the `network` module docs). So
    /// one worker lets each point use the spare cores, and as many workers
    /// as cores run every point on a single thread. The report is the same
    /// either way.
    pub fn with_threads(mut self, threads: usize) -> SweepRunner {
        self.threads = threads.max(1);
        self
    }

    /// Overrides every point's seed with one derived from `seed` and the
    /// point's grid position. Without this, each point keeps the seed its
    /// scenario carries.
    pub fn with_master_seed(mut self, seed: u64) -> SweepRunner {
        self.master_seed = Some(seed);
        self
    }

    /// Sets the saturation cut-off policy.
    pub fn with_cutoff(mut self, cutoff: CutoffPolicy) -> SweepRunner {
        self.cutoff = cutoff;
        self
    }

    /// Runs every grid point and aggregates the results, series by series
    /// in first-appearance order.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        let jobs: Vec<Job> = self.plan(grid);
        let n = jobs.len();

        // The shared steal queue: grid indices ordered longest-expected-
        // first (see the module docs). The order only affects scheduling,
        // never the report — seeds and result slots are positional.
        let steal_order = self.steal_order(&jobs);

        // Per-series lowest position that saturated, for cut-off skipping.
        let series_count = jobs.iter().map(|j| j.series_id + 1).max().unwrap_or(0);
        let sat_floor: Vec<AtomicUsize> = (0..series_count)
            .map(|_| AtomicUsize::new(usize::MAX))
            .collect();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SimResult>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let workers = self.threads.min(n.max(1));
        let _cores = CoreClaim::take(workers - 1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= n {
                        break;
                    }
                    let i = steal_order[pos];
                    let job = &jobs[i];
                    if self.cutoff == CutoffPolicy::TruncateAtSaturation
                        && sat_floor[job.series_id].load(Ordering::Acquire) < job.series_pos
                    {
                        continue; // a lower load already saturated: doomed point
                    }
                    let result = job.scenario.run();
                    if result.saturated {
                        sat_floor[job.series_id].fetch_min(job.series_pos, Ordering::Release);
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        self.aggregate(grid, jobs, slots)
    }

    /// The deterministic steal order: grid indices sorted by expected
    /// cost, longest first. The estimate is `load × injected messages ×
    /// nodes` — higher load means more flits in flight (and saturated
    /// points run all the way to the backlog watchdog), more messages and
    /// bigger meshes mean more work per cycle. Ties keep grid order, so
    /// the order is a total one and identical on every run.
    fn steal_order(&self, jobs: &[Job]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let cost = |j: &Job| {
            let cfg = j.scenario.config();
            cfg.load * (cfg.warmup_msgs + cfg.measure_msgs) as f64 * cfg.mesh.node_count() as f64
        };
        order.sort_by(|&a, &b| {
            cost(&jobs[b])
                .partial_cmp(&cost(&jobs[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// Resolves per-point seeds and series bookkeeping.
    fn plan(&self, grid: &SweepGrid) -> Vec<Job> {
        let mut series_ids: Vec<&str> = Vec::new();
        let mut series_len: Vec<usize> = Vec::new();
        grid.points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let series_id = match series_ids.iter().position(|s| *s == p.series) {
                    Some(id) => id,
                    None => {
                        series_ids.push(&p.series);
                        series_len.push(0);
                        series_ids.len() - 1
                    }
                };
                let series_pos = series_len[series_id];
                series_len[series_id] += 1;
                let scenario = match self.master_seed {
                    Some(master) => p.scenario.clone().reseeded(derive_seed(master, i as u64)),
                    None => p.scenario.clone(),
                };
                Job {
                    scenario,
                    series_id,
                    series_pos,
                }
            })
            .collect()
    }

    /// Builds the report in grid order, applying the cut-off policy.
    fn aggregate(
        &self,
        grid: &SweepGrid,
        jobs: Vec<Job>,
        slots: Vec<Mutex<Option<SimResult>>>,
    ) -> SweepReport {
        let results: Vec<Option<SimResult>> = slots
            .into_iter()
            .map(|m| m.into_inner().expect("result slot poisoned"))
            .collect();

        let mut report = SweepReport::new();
        let series_count = jobs.iter().map(|j| j.series_id + 1).max().unwrap_or(0);
        for sid in 0..series_count {
            let (mut label, mut axis) = ("", "");
            let mut points = Vec::new();
            for (i, job) in jobs.iter().enumerate() {
                if job.series_id != sid {
                    continue;
                }
                label = &grid.points[i].series;
                axis = grid.points[i].axis;
                // A missing result means the point was skipped because an
                // earlier one saturated; truncation below drops it anyway.
                let Some(result) = &results[i] else { continue };
                let saturated = result.saturated;
                points.push((grid.points[i].load, result.clone()));
                if saturated && self.cutoff == CutoffPolicy::TruncateAtSaturation {
                    break;
                }
            }
            report.push(axis, label, points);
        }
        report
    }
}

struct Job {
    scenario: Scenario,
    series_id: usize,
    series_pos: usize,
}

/// SplitMix64 over (master, index): decorrelated per-point seeds that
/// depend only on grid position, never on scheduling.
fn derive_seed(master: u64, index: u64) -> u64 {
    lapses_sim::rng::mix64(
        master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Pattern;

    fn tiny(pattern: Pattern) -> Scenario {
        tiny_at(pattern, 0.2)
    }

    fn tiny_at(pattern: Pattern, load: f64) -> Scenario {
        Scenario::builder()
            .mesh_2d(4, 4)
            .pattern(pattern)
            .load(load)
            .message_counts(30, 200)
            .build()
            .unwrap()
    }

    fn loads(xs: &[f64]) -> ScenarioAxis {
        ScenarioAxis::Load(xs.to_vec())
    }

    #[test]
    fn grid_builder_counts_points() {
        let grid = SweepGrid::new()
            .scenario_series("a", &tiny(Pattern::Uniform), &loads(&[0.1, 0.2, 0.3]))
            .unwrap()
            .scenario_point("b", 0.1, &tiny(Pattern::Transpose));
        assert_eq!(grid.len(), 4);
        assert!(!grid.is_empty());
        assert_eq!(grid.points()[3].series, "b");
        assert_eq!(grid.points()[1].scenario.config().load, 0.2);
    }

    #[test]
    fn unsorted_series_loads_rejected() {
        let err = SweepGrid::new()
            .scenario_series("a", &tiny(Pattern::Uniform), &loads(&[0.3, 0.1]))
            .unwrap_err();
        assert_eq!(err, ScenarioError::AxisNotAscending { axis: "load" });
    }

    #[test]
    fn master_seed_overrides_point_seeds() {
        let grid = SweepGrid::new()
            .scenario_series("a", &tiny(Pattern::Uniform), &loads(&[0.1, 0.2]))
            .unwrap();
        let runner = SweepRunner::new().with_master_seed(99);
        let jobs = runner.plan(&grid);
        assert_ne!(
            jobs[0].scenario.config().seed,
            jobs[1].scenario.config().seed
        );
        assert_eq!(jobs[0].scenario.config().seed, derive_seed(99, 0));
    }

    #[test]
    fn without_master_seed_point_seeds_survive() {
        let seeded = tiny(Pattern::Uniform)
            .to_builder()
            .seed(4242)
            .build()
            .unwrap();
        let grid = SweepGrid::new()
            .scenario_series("a", &seeded, &loads(&[0.1]))
            .unwrap();
        let jobs = SweepRunner::new().plan(&grid);
        assert_eq!(jobs[0].scenario.config().seed, 4242);
    }

    #[test]
    fn steal_order_is_longest_expected_first_with_stable_ties() {
        let at = |load| tiny_at(Pattern::Uniform, load);
        let grid = SweepGrid::new()
            .scenario_point("a", 0.1, &at(0.1))
            .scenario_point("a", 0.4, &at(0.4))
            .scenario_point("a", 0.2, &at(0.2))
            .scenario_point("b", 0.2, &at(0.2));
        let runner = SweepRunner::new();
        let jobs = runner.plan(&grid);
        // Highest load first; the two 0.2 points tie and keep grid order.
        assert_eq!(runner.steal_order(&jobs), vec![1, 2, 3, 0]);
    }

    #[test]
    fn seed_derivation_is_injective_over_small_grids() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(derive_seed(7, i)));
        }
    }

    #[test]
    fn empty_grid_yields_empty_report() {
        let report = SweepRunner::new().run(&SweepGrid::new());
        assert_eq!(report.series().len(), 0);
    }

    #[test]
    fn fault_count_axis_expands_and_validates() {
        let base = Scenario::builder()
            .mesh_2d(4, 4)
            .algorithm(Algorithm::UpDownAdaptive)
            .random_faults(1, 9)
            .message_counts(30, 200)
            .build()
            .unwrap();
        let grid = SweepGrid::new()
            .scenario_series("faults", &base, &ScenarioAxis::FaultCount(vec![0, 1, 2]))
            .unwrap();
        assert_eq!(grid.len(), 3);
        assert_eq!(grid.points()[2].load, 2.0);
        assert_eq!(
            grid.points()[2].scenario.config().faults,
            FaultsConfig::Random { count: 2, seed: 9 }
        );

        // Axis on a scenario without seeded random faults is rejected.
        let plain = Scenario::builder()
            .mesh_2d(4, 4)
            .message_counts(30, 200)
            .build()
            .unwrap();
        assert_eq!(
            SweepGrid::new()
                .scenario_series("f", &plain, &ScenarioAxis::FaultCount(vec![1]))
                .unwrap_err(),
            ScenarioError::AxisNeedsRandomFaults
        );
        // Unordered counts are rejected like every value axis.
        assert_eq!(
            SweepGrid::new()
                .scenario_series("f", &base, &ScenarioAxis::FaultCount(vec![2, 1]))
                .unwrap_err(),
            ScenarioError::AxisNotAscending {
                axis: "fault-count"
            }
        );
    }

    #[test]
    fn mesh_extent_axis_rejects_invalid_shapes() {
        let torus = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .vcs(4, 2)
            .message_counts(30, 200)
            .build()
            .unwrap();
        let axis = ScenarioAxis::MeshExtent(vec![(2, 2), (4, 4)]);
        assert_eq!(
            SweepGrid::new()
                .scenario_series("t", &torus, &axis)
                .unwrap_err(),
            ScenarioError::Topology(lapses_topology::MeshError::TorusExtent(2))
        );
    }

    #[test]
    fn keep_all_reports_every_point() {
        // Load 3.0 on a 4x4 saturates (enough injections to trip the
        // backlog limit); KeepAll must still report 0.1 *after* it.
        let overload = |load| {
            tiny_at(Pattern::Uniform, load)
                .to_builder()
                .message_counts(200, 1_000)
                .build()
                .unwrap()
        };
        // Deliberately descending loads, so built point by point — a load
        // axis rejects unordered values.
        let grid = SweepGrid::new()
            .scenario_point("a", 3.0, &overload(3.0))
            .scenario_point("a", 0.1, &overload(0.1));
        let report = SweepRunner::new()
            .with_threads(2)
            .with_master_seed(5)
            .with_cutoff(CutoffPolicy::KeepAll)
            .run(&grid);
        let points = &report.series()[0].points;
        assert_eq!(points.len(), 2);
        assert!(points[0].1.saturated);
        assert!(!points[1].1.saturated);
    }
}
