//! The experiment vocabulary and the measurement loop.
//!
//! The selector enums ([`Algorithm`], [`TableKind`], [`Pattern`],
//! [`WorkloadKind`], ...) name the layers a
//! [`ScenarioBuilder`](crate::scenario::ScenarioBuilder) composes.
//! [`SimConfig`] is the compiled, read-only view of a validated
//! [`Scenario`](crate::scenario::Scenario) — one simulation point the way
//! the paper's Table 2 describes it — and the run loop behind
//! [`Scenario::run`](crate::scenario::Scenario::run) executes it: inject
//! warm-up messages, sample the measurement window, drain, and cut the run
//! off if the offered load exceeds saturation (reported like the paper's
//! "Sat.").

use crate::network::Network;
use crate::stats::SimResult;
use lapses_core::tables::{EconomicalTable, FullTable, IntervalTable, MetaTable};
use lapses_core::{RouterConfig, TableScheme};
use lapses_routing::{
    DimensionOrder, DuatoAdaptive, RoutingAlgorithm, TurnModel, TurnModelKind, UpDown,
};
use lapses_sim::{Cycle, MeasurementPhase, PhaseController, ProgressWatchdog};
use lapses_topology::labeling::ClusterMap;
use lapses_topology::{FaultError, FaultSet, FaultyMesh, Mesh, NodeId, MAX_DIMS};
pub use lapses_traffic::{ArrivalKind, Pattern};
use lapses_traffic::{Generator, LengthDistribution, Trace, TraceEvent, Workload};
use std::sync::Arc;

/// Routing algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Deterministic dimension-order (XY) routing — the paper's `DET`.
    DimensionOrder,
    /// Duato's minimal fully-adaptive routing — the paper's `ADAPT`.
    Duato,
    /// North-Last partially-adaptive turn-model routing.
    NorthLast,
    /// West-First partially-adaptive turn-model routing.
    WestFirst,
    /// Negative-First partially-adaptive turn-model routing.
    NegativeFirst,
    /// Deterministic BFS-rooted up*/down* routing over the surviving
    /// links — the fault-tolerant deterministic baseline (deadlock-free
    /// without escape VCs, like dimension-order).
    UpDown,
    /// Minimal-adaptive candidates over the surviving links with an
    /// up*/down* escape — the fault-tolerant twin of Duato's protocol.
    UpDownAdaptive,
}

impl Algorithm {
    /// Every algorithm, in declaration order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::DimensionOrder,
        Algorithm::Duato,
        Algorithm::NorthLast,
        Algorithm::WestFirst,
        Algorithm::NegativeFirst,
        Algorithm::UpDown,
        Algorithm::UpDownAdaptive,
    ];

    /// Instantiates the routing relation.
    ///
    /// # Panics
    ///
    /// Panics for the up*/down* variants, whose program is compiled per
    /// topology instance — use [`Algorithm::build_on`] for those.
    pub fn build(self) -> Box<dyn RoutingAlgorithm> {
        match self {
            Algorithm::DimensionOrder => Box::new(DimensionOrder::new()),
            Algorithm::Duato => Box::new(DuatoAdaptive::new()),
            Algorithm::NorthLast => Box::new(TurnModel::new(TurnModelKind::NorthLast)),
            Algorithm::WestFirst => Box::new(TurnModel::new(TurnModelKind::WestFirst)),
            Algorithm::NegativeFirst => Box::new(TurnModel::new(TurnModelKind::NegativeFirst)),
            Algorithm::UpDown | Algorithm::UpDownAdaptive => panic!(
                "{} routing is compiled per topology instance; use Algorithm::build_on",
                self.name()
            ),
        }
    }

    /// Instantiates the routing relation over a (possibly fault-free)
    /// faulty-mesh view. The classic algorithms ignore the fault view —
    /// compositions mixing them with actual faults are rejected by
    /// [`ScenarioBuilder::build`](crate::scenario::ScenarioBuilder::build).
    pub fn build_on(self, fmesh: &Arc<FaultyMesh>) -> Box<dyn RoutingAlgorithm> {
        match self {
            Algorithm::UpDown => Box::new(UpDown::new(Arc::clone(fmesh))),
            Algorithm::UpDownAdaptive => Box::new(UpDown::adaptive(Arc::clone(fmesh))),
            other => other.build(),
        }
    }

    /// A short name for reports and scenario specs.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::DimensionOrder => "dimension-order",
            Algorithm::Duato => "duato",
            Algorithm::NorthLast => "north-last",
            Algorithm::WestFirst => "west-first",
            Algorithm::NegativeFirst => "negative-first",
            Algorithm::UpDown => "up-down",
            Algorithm::UpDownAdaptive => "up-down-adaptive",
        }
    }

    /// Whether the relation is restricted to 2-D meshes (the turn models).
    pub fn requires_2d_mesh(self) -> bool {
        matches!(
            self,
            Algorithm::NorthLast | Algorithm::WestFirst | Algorithm::NegativeFirst
        )
    }

    /// Whether the relation routes around dead links (the up*/down*
    /// family). Every other algorithm requires a perfect topology.
    pub fn fault_tolerant(self) -> bool {
        matches!(self, Algorithm::UpDown | Algorithm::UpDownAdaptive)
    }

    /// Escape VCs the relation needs on `mesh` from a router with
    /// `escape_vcs` of them: one per escape subclass (dateline class), or
    /// 0 when the relation alone is deadlock-free and the router has no
    /// escape VCs — escape VCs a router does have always carry the
    /// subclasses. Answered without compiling an up*/down* program:
    /// up*/down* ignores wrap state, so it has one subclass on any
    /// topology, and only its adaptive variant needs an escape VC.
    pub fn escape_vcs_needed(self, mesh: &Mesh, escape_vcs: usize) -> usize {
        match self {
            Algorithm::UpDown => escape_vcs.min(1),
            Algorithm::UpDownAdaptive => 1,
            classic => {
                let algo = classic.build();
                if algo.deadlock_free_without_escape() && escape_vcs == 0 {
                    0
                } else {
                    algo.escape_subclasses(mesh).max(1)
                }
            }
        }
    }
}

/// Which links of the topology are dead for a run.
///
/// Faults are resolved to a validated [`FaultSet`] once, when
/// [`ScenarioBuilder::build`](crate::scenario::ScenarioBuilder::build)
/// validates the scenario, which keeps the set for its runs; resolution
/// depends only on the topology and this configuration, never on
/// scheduling, so sweep reports over faulty scenarios stay bit-identical
/// across thread counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FaultsConfig {
    /// A perfect network (the default; costs nothing).
    #[default]
    None,
    /// Explicit dead links by endpoint node ids (order-insensitive).
    Links(Vec<(u32, u32)>),
    /// `count` random dead links drawn deterministically from `seed`,
    /// guaranteed to leave the network connected.
    Random {
        /// How many links to kill.
        count: usize,
        /// The draw seed (independent of the run seed, so sweeps can vary
        /// one without the other).
        seed: u64,
    },
}

impl FaultsConfig {
    /// Whether this is the fault-free configuration.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultsConfig::None)
    }

    /// Resolves to a validated fault set on `mesh`.
    pub fn resolve(&self, mesh: &Mesh) -> Result<FaultSet, FaultError> {
        match self {
            FaultsConfig::None => Ok(FaultSet::empty()),
            FaultsConfig::Links(pairs) => {
                let pairs: Vec<_> = pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
                FaultSet::new(mesh, &pairs)
            }
            FaultsConfig::Random { count, seed } => FaultSet::random(mesh, *count, *seed),
        }
    }
}

/// Workload selector: which message source drives the run.
///
/// Synthetic traffic reads the configuration's `pattern`, `load` and
/// `lengths` fields; trace replay carries its own timing and ignores them.
/// The ON/OFF bursty source is synthetic traffic with
/// [`ArrivalKind::OnOff`] arrivals, normalized to the configured load.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Pattern × arrival-process × length synthetic traffic.
    Synthetic {
        /// The inter-arrival process.
        arrivals: ArrivalKind,
    },
    /// Replay of a recorded trace.
    Trace(Arc<Trace>),
}

impl Default for WorkloadKind {
    fn default() -> Self {
        WorkloadKind::Synthetic {
            arrivals: ArrivalKind::Exponential,
        }
    }
}

impl WorkloadKind {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Synthetic {
                arrivals: ArrivalKind::OnOff { .. },
            } => "bursty",
            WorkloadKind::Synthetic { .. } => "synthetic",
            WorkloadKind::Trace(_) => "trace",
        }
    }
}

/// Routing-table storage scheme selector (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableKind {
    /// Full per-destination tables.
    Full,
    /// Economical storage (3ⁿ entries).
    Economical,
    /// Two-level meta-table with the Fig. 8(a) row labeling
    /// ("minimal flexibility" — collapses to dimension-order routing).
    MetaRows,
    /// Two-level meta-table with rectangular block clusters, e.g. the
    /// Fig. 8(b) 4×4 labeling ("maximal flexibility").
    MetaBlocks(Vec<u16>),
    /// Interval routing: deterministic Y-then-X intervals for the classic
    /// algorithms (which routes the same for every one of them), and the
    /// escape port's runs for up*/down*.
    Interval,
}

impl TableKind {
    /// Every scheme without parameters (all but [`TableKind::MetaBlocks`]).
    pub const ALL: [TableKind; 4] = [
        TableKind::Full,
        TableKind::Economical,
        TableKind::MetaRows,
        TableKind::Interval,
    ];

    /// Compiles the table program for a topology and algorithm.
    pub fn build(&self, mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> Arc<dyn TableScheme> {
        match self {
            TableKind::Full => Arc::new(FullTable::program(mesh, algo)),
            TableKind::Economical => Arc::new(EconomicalTable::program(mesh, algo)),
            TableKind::MetaRows => Arc::new(MetaTable::rows(mesh, algo)),
            TableKind::MetaBlocks(shape) => Arc::new(MetaTable::blocks(mesh, shape, algo)),
            TableKind::Interval => Arc::new(IntervalTable::program(mesh)),
        }
    }

    /// Compiles the table program for a relation compiled over a faulty
    /// topology instance (up*/down*) — the Fig. 7 "table programming
    /// story" for irregular networks. Every table stores a relation, not a
    /// fault set, so this is [`TableKind::build`] on the instance's mesh
    /// for the full and economical tables; interval routing encodes the
    /// relation's escape port as run lists instead of Y-then-X intervals.
    /// The up*/down* compile itself checks that no route crosses a dead
    /// link.
    ///
    /// # Panics
    ///
    /// Panics for the meta-table schemes, whose cluster hierarchy has no
    /// irregular-topology programming (scenario validation rejects the
    /// composition with a typed error first).
    pub fn build_faulty(
        &self,
        fmesh: &FaultyMesh,
        algo: &dyn RoutingAlgorithm,
    ) -> Arc<dyn TableScheme> {
        match self {
            TableKind::Full | TableKind::Economical => self.build(fmesh.mesh(), algo),
            TableKind::Interval => Arc::new(IntervalTable::escape_runs(fmesh.mesh(), algo)),
            TableKind::MetaRows | TableKind::MetaBlocks(_) => {
                panic!("meta-tables cannot program irregular (faulty) routing relations")
            }
        }
    }

    /// Whether [`TableKind::build`] can program the scheme on `mesh`: the
    /// meta-tables need a cluster labeling that tiles the mesh, and
    /// interval routing needs a mesh (not a torus).
    pub(crate) fn supports(&self, mesh: &Mesh) -> bool {
        match self {
            TableKind::Full | TableKind::Economical => true,
            TableKind::Interval => IntervalTable::supports(mesh),
            TableKind::MetaRows => {
                let mut rows = [1u16; MAX_DIMS];
                rows[0] = mesh.extent(0);
                ClusterMap::tiles(mesh, &rows[..mesh.dims()])
            }
            TableKind::MetaBlocks(shape) => ClusterMap::tiles(mesh, shape),
        }
    }

    /// Whether the scheme can be programmed for a faulty topology.
    pub fn supports_faults(&self) -> bool {
        !matches!(self, TableKind::MetaRows | TableKind::MetaBlocks(_))
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TableKind::Full => "full",
            TableKind::Economical => "economical",
            TableKind::MetaRows => "meta-rows",
            TableKind::MetaBlocks(_) => "meta-blocks",
            TableKind::Interval => "interval",
        }
    }
}

/// The aggregate NIC backlog that declares saturation: 16 messages per
/// node.
fn backlog_limit_for(mesh: &Mesh) -> u64 {
    16 * mesh.node_count() as u64
}

/// The compiled, read-only form of a validated
/// [`Scenario`](crate::scenario::Scenario): everything the paper's Table 2
/// specifies, plus the design axes under study (pipeline, heuristic, table
/// scheme).
///
/// Only [`Scenario::config`](crate::scenario::Scenario::config) hands one
/// out, so every `SimConfig` the cycle loop sees has passed
/// [`ScenarioBuilder::build`](crate::scenario::ScenarioBuilder::build).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Topology (the paper: 16×16 mesh).
    pub mesh: Mesh,
    /// Dead links, if any. Faults shape only the up*/down* relation the
    /// tables store — the cycle loop never sees them, and a classic
    /// algorithm, which runs only without dead links, compiles the same
    /// tables whether this is `None` or an empty random draw.
    pub faults: FaultsConfig,
    /// Router microarchitecture.
    pub router: RouterConfig,
    /// Routing algorithm.
    pub algorithm: Algorithm,
    /// Table storage scheme.
    pub table: TableKind,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Message source (synthetic, bursty, or trace replay). Synthetic
    /// and bursty traffic read `pattern`, `load` and `lengths`; trace
    /// replay carries its own timing.
    pub workload: WorkloadKind,
    /// Normalized offered load (1.0 = uniform bisection saturation).
    pub load: f64,
    /// Message length distribution (the paper: fixed 20 flits).
    pub lengths: LengthDistribution,
    /// Warm-up message injections before sampling starts.
    pub warmup_msgs: u64,
    /// Measured message injections.
    pub measure_msgs: u64,
    /// Master random seed.
    pub seed: u64,
    /// Link traversal delay in cycles. The paper's Table 2 timing is 0
    /// (`tests/paper_fidelity.rs`); the default stays 1 because the
    /// golden results are recorded at it.
    pub link_delay: u64,
    /// Hard cycle cap (safety net).
    pub max_cycles: u64,
    /// Cycles without progress before declaring a stall.
    pub stall_window: u64,
    /// Aggregate NIC backlog (messages) that declares saturation.
    pub backlog_limit: u64,
    /// The fault set `faults` resolved to when the scenario was built,
    /// shared by its runs and clones so none re-draws it; `None` when
    /// empty, so a fault-free build allocates nothing.
    pub(crate) drawn_faults: Option<Arc<FaultSet>>,
}

impl SimConfig {
    /// The paper's reference point, where every scenario builder starts:
    /// the adaptive PROUD router (`NO LA, ADAPT`) on a 16×16 mesh —
    /// Duato's algorithm, full tables, 4 VCs with 1 escape — under uniform
    /// 20-flit exponential traffic at 0.2 normalized load, with a fast
    /// 2k warm-up / 20k measured message profile.
    pub(crate) fn reference() -> SimConfig {
        let mesh = Mesh::mesh_2d(16, 16);
        SimConfig {
            backlog_limit: backlog_limit_for(&mesh),
            mesh,
            faults: FaultsConfig::None,
            router: RouterConfig::paper_adaptive(),
            algorithm: Algorithm::Duato,
            table: TableKind::Full,
            pattern: Pattern::Uniform,
            workload: WorkloadKind::default(),
            load: 0.2,
            lengths: LengthDistribution::PAPER_DEFAULT,
            warmup_msgs: 2_000,
            measure_msgs: 20_000,
            seed: 20260611,
            link_delay: 1,
            max_cycles: 10_000_000,
            stall_window: 20_000,
            drawn_faults: None,
        }
    }

    /// Replaces the topology, rescaling the saturation backlog limit.
    pub(crate) fn set_mesh(&mut self, mesh: Mesh) {
        self.backlog_limit = backlog_limit_for(&mesh);
        self.mesh = mesh;
    }

    /// The mean inter-arrival gap per node the load implies for the
    /// synthetic and bursty sources.
    pub(crate) fn mean_gap(&self) -> f64 {
        Generator::mean_gap_for_load(&self.mesh, self.load, self.lengths.mean())
    }

    /// Instantiates the configured message source for one run, forking
    /// the per-node streams from the run seed in node order — the wiring
    /// the golden fingerprints pin. The workload parameters were validated
    /// by [`ScenarioBuilder::build`](crate::scenario::ScenarioBuilder::build).
    pub fn build_workload(&self) -> Workload {
        match &self.workload {
            WorkloadKind::Synthetic { arrivals } => Workload::synthetic(
                self.mesh.clone(),
                self.pattern,
                *arrivals,
                self.mean_gap(),
                self.lengths,
                self.seed ^ 0x5EED_CAFE,
            ),
            WorkloadKind::Trace(trace) => {
                assert_eq!(
                    trace.node_count() as usize,
                    self.mesh.node_count(),
                    "ScenarioBuilder::build checks the trace node count"
                );
                Workload::trace(trace.clone())
            }
        }
    }

    /// Compiles the routing relation into the table program. A classic
    /// algorithm compiles on the perfect mesh (it runs only without dead
    /// links); up*/down* compiles over the faulty-mesh view of the set
    /// [`ScenarioBuilder::build`](crate::scenario::ScenarioBuilder::build)
    /// drew and checked, so faults reach the tables only through the
    /// relation.
    fn build_program(&self) -> Arc<dyn TableScheme> {
        if !self.algorithm.fault_tolerant() {
            return self
                .table
                .build(&self.mesh, self.algorithm.build().as_ref());
        }
        let fmesh = Arc::new(
            FaultyMesh::new(
                self.mesh.clone(),
                self.drawn_faults.as_deref().cloned().unwrap_or_default(),
            )
            .expect("ScenarioBuilder::build checks faults stay connected"),
        );
        self.table
            .build_faulty(&fmesh, self.algorithm.build_on(&fmesh).as_ref())
    }

    /// Builds the point's network: routing and tables compiled, and the
    /// routers' escape subclasses set by [`Algorithm::escape_vcs_needed`].
    pub(crate) fn build_network(&self) -> Network {
        let program = self.build_program();
        let mut router_cfg = self.router.clone();
        let needed = self
            .algorithm
            .escape_vcs_needed(&self.mesh, router_cfg.escape_vcs);
        assert!(
            router_cfg.escape_vcs >= needed,
            "ScenarioBuilder::build checks escape-VC sufficiency"
        );
        router_cfg.escape_subclasses = needed.max(1);
        Network::new(
            self.mesh.clone(),
            router_cfg,
            program,
            self.link_delay,
            self.seed,
        )
    }

    /// Runs the point to completion (or saturation cut-off), recording every
    /// injected message into `capture` when one is given. Reached only
    /// through [`Scenario::run`](crate::scenario::Scenario::run) and
    /// [`Scenario::run_capturing`](crate::scenario::Scenario::run_capturing).
    pub(crate) fn run(&self, mut capture: Option<&mut Vec<TraceEvent>>) -> SimResult {
        let mut net = self.build_network();
        let mut workload = self.build_workload();

        let mut phase = PhaseController::new(self.warmup_msgs, self.measure_msgs);
        let mut watchdog = ProgressWatchdog::new(self.stall_window, self.backlog_limit);
        let mut clock = Cycle::ZERO;

        // The workload is polled through a due-time heap: a poll strictly
        // before a node's `next_due_cycle` is a state-preserving no-op, so
        // only due nodes are visited. Ties pop in node order — the order
        // the plain per-cycle scan uses — which keeps the injection
        // sequence (and thus the whole run) bit-identical. A node whose
        // next due cycle is `u64::MAX` is exhausted (finite sources).
        let mut due: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
            (0..workload.node_count() as u32)
                .map(|n| std::cmp::Reverse((workload.next_due_cycle(n), n)))
                .collect();
        let mut specs = Vec::new();

        loop {
            while phase.accepting_injections() {
                match due.peek() {
                    Some(&std::cmp::Reverse((t, _))) if t <= clock.as_u64() => {}
                    _ => break,
                }
                let std::cmp::Reverse((_, node)) = due.pop().expect("peeked entry");
                specs.clear();
                workload.poll(node, clock, &mut specs);
                for spec in &specs {
                    if !phase.accepting_injections() {
                        break;
                    }
                    let measured = phase.note_injection();
                    if let Some(events) = capture.as_deref_mut() {
                        events.push(TraceEvent {
                            cycle: clock.as_u64(),
                            src: spec.src.0,
                            dest: spec.dest.0,
                            length: spec.length,
                        });
                    }
                    net.offer_message(spec.src, spec.dest, spec.length, clock, measured);
                }
                due.push(std::cmp::Reverse((workload.next_due_cycle(node), node)));
            }

            let summary = net.step(clock);
            for _ in 0..summary.measured_deliveries {
                phase.note_measured_delivery();
            }
            if summary.moved {
                watchdog.note_progress(clock);
            }
            watchdog.note_backlog(net.backlog());

            if phase.phase() == MeasurementPhase::Done {
                break;
            }
            // A finite source (trace replay) may run dry before the
            // measurement quota: once every node is exhausted and the
            // network has drained, nothing can ever move again, so the run
            // ends cleanly with the statistics gathered so far. Infinite
            // sources never report `u64::MAX`, so this cannot fire for
            // them and the classic protocol is untouched.
            if phase.accepting_injections()
                && !net.has_traffic()
                && due
                    .peek()
                    .is_some_and(|&std::cmp::Reverse((t, _))| t == u64::MAX)
            {
                break;
            }
            if watchdog.is_saturated()
                || watchdog.is_stalled(clock, net.has_traffic())
                || clock.as_u64() >= self.max_cycles
            {
                return SimResult::saturated_placeholder(net.cycles_run(), net.latency().count());
            }
            clock.tick();
        }

        let stats = net.router_stats();
        let allocs = stats.adaptive_allocations + stats.escape_allocations;
        let cycles = net.cycles_run().max(1);
        let (mut max_link, mut flit_hops) = (0u64, 0u64);
        for (_, port, flits) in net.link_loads() {
            if !port.is_local() {
                max_link = max_link.max(flits);
                flit_hops += flits;
            }
        }
        SimResult {
            avg_latency: net.latency().mean(),
            avg_total_latency: net.total_latency().mean(),
            p50_latency: net.histogram().percentile(50.0),
            p95_latency: net.histogram().percentile(95.0),
            p99_latency: net.histogram().percentile(99.0),
            max_latency: net.latency().max().unwrap_or(0.0),
            messages: net.latency().count(),
            cycles: net.cycles_run(),
            saturated: false,
            throughput: net.measured_flits_ejected() as f64
                / cycles as f64
                / self.mesh.node_count() as f64,
            escape_fraction: if allocs == 0 {
                0.0
            } else {
                stats.escape_allocations as f64 / allocs as f64
            },
            choice_fraction: if stats.headers_routed == 0 {
                0.0
            } else {
                stats.multi_candidate_decisions as f64 / stats.headers_routed as f64
            },
            max_link_utilization: max_link as f64 / cycles as f64,
            flit_hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioBuilder, ScenarioError};
    use crate::sweep::{ScenarioAxis, SweepGrid, SweepRunner};

    fn fast(width: u16, height: u16) -> ScenarioBuilder {
        Scenario::builder()
            .mesh_2d(width, height)
            .message_counts(200, 1_000)
            .seed(99)
    }

    fn run(builder: ScenarioBuilder) -> SimResult {
        builder.build().unwrap().run()
    }

    #[test]
    fn low_load_uniform_completes_unsaturated() {
        let r = run(fast(8, 8).load(0.2));
        assert!(!r.saturated);
        assert_eq!(r.messages, 1_000);
        assert!(r.avg_latency > 20.0, "latency {}", r.avg_latency);
        assert!(r.avg_total_latency >= r.avg_latency);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn lookahead_beats_proud_at_low_load() {
        let proud = run(fast(8, 8).load(0.1));
        let la = run(fast(8, 8).lookahead(true).load(0.1));
        assert!(
            la.avg_latency < proud.avg_latency,
            "LA {} vs PROUD {}",
            la.avg_latency,
            proud.avg_latency
        );
        // Roughly one cycle per router on the path.
        let diff = proud.avg_latency - la.avg_latency;
        assert!((3.0..9.0).contains(&diff), "diff {diff}");
    }

    #[test]
    fn overload_saturates() {
        let r = run(fast(4, 4).load(3.0));
        assert!(r.saturated);
        assert_eq!(r.latency_cell(), "Sat.");
    }

    fn deterministic(width: u16, height: u16) -> ScenarioBuilder {
        fast(width, height)
            .algorithm(Algorithm::DimensionOrder)
            .router(RouterConfig::paper_deterministic())
    }

    #[test]
    fn deterministic_configs_run() {
        let det = run(deterministic(8, 8).load(0.2));
        assert!(!det.saturated);
        // XY routing never has a choice to make.
        assert_eq!(det.choice_fraction, 0.0);
        assert_eq!(det.escape_fraction, 0.0);
    }

    #[test]
    fn economical_equals_full_table_exactly() {
        // §5.2.2: same seed, same routing relation => identical statistics.
        let full = run(fast(8, 8).table(TableKind::Full).load(0.3));
        let econ = run(fast(8, 8).table(TableKind::Economical).load(0.3));
        assert_eq!(full.avg_latency, econ.avg_latency);
        assert_eq!(full.messages, econ.messages);
    }

    #[test]
    fn sweep_stops_at_saturation() {
        let base = fast(4, 4).build().unwrap();
        let grid = SweepGrid::new()
            .scenario_series("a", &base, &ScenarioAxis::Load(vec![0.2, 3.0, 5.0]))
            .unwrap();
        let report = SweepRunner::new().with_threads(1).run(&grid);
        let points = &report.series()[0].points;
        assert_eq!(points.len(), 2, "sweep must stop after first Sat.");
        assert!(!points[0].1.saturated);
        assert!(points[1].1.saturated);
    }

    #[test]
    fn duato_without_escape_rejected() {
        let err = fast(4, 4).vcs(4, 0).build().unwrap_err();
        assert!(matches!(err, ScenarioError::EscapeVcs { .. }), "{err}");
        assert!(err.to_string().contains("escape VC"), "{err}");
    }

    #[test]
    fn transpose_pattern_runs() {
        let r = run(fast(8, 8).pattern(Pattern::Transpose).load(0.15));
        assert!(!r.saturated);
        // Adaptive routing on transpose exercises multi-candidate choices.
        assert!(r.choice_fraction > 0.0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let a = run(fast(8, 8).load(0.25));
        let b = run(fast(8, 8).load(0.25));
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.cycles, b.cycles);
    }

    fn faulty_updown(builder: ScenarioBuilder) -> ScenarioBuilder {
        builder
            .random_faults(3, 7)
            .algorithm(Algorithm::UpDownAdaptive)
    }

    #[test]
    fn faulty_mesh_runs_to_drain_under_updown() {
        let r = run(faulty_updown(fast(8, 8)).load(0.15));
        assert!(!r.saturated);
        assert_eq!(r.messages, 1_000);
        assert!(r.avg_latency > 0.0);
    }

    #[test]
    fn standalone_updown_runs_without_escape_vcs() {
        let r = run(deterministic(4, 4)
            .faults(&[(0, 1)])
            .load(0.1)
            .algorithm(Algorithm::UpDown));
        assert!(!r.saturated);
        // Deterministic routing never has a choice to make.
        assert_eq!(r.choice_fraction, 0.0);
    }

    #[test]
    fn faulty_tables_agree_across_schemes() {
        // Full and economical-with-exceptions programs must simulate
        // bit-identically (the §5.2.2 claim, extended to faulty meshes).
        let base = faulty_updown(fast(4, 4)).load(0.2);
        let full = run(base.clone().table(TableKind::Full));
        let econ = run(base.table(TableKind::Economical));
        assert_eq!(full.avg_latency, econ.avg_latency);
        assert_eq!(full.cycles, econ.cycles);
        assert_eq!(full.flit_hops, econ.flit_hops);
    }

    #[test]
    fn classic_algorithms_reject_faults() {
        let err = fast(4, 4).faults(&[(0, 1)]).build().unwrap_err();
        assert!(
            matches!(err, ScenarioError::FaultsNeedUpDown { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("cannot route around dead links"));
    }

    #[test]
    fn escape_vc_needs_match_the_compiled_relations() {
        for mesh in [
            Mesh::mesh_2d(4, 4),
            Mesh::torus_2d(4, 4),
            Mesh::mesh_3d(3, 3, 3),
        ] {
            let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap());
            for algorithm in Algorithm::ALL {
                if algorithm.requires_2d_mesh() && (mesh.dims() != 2 || mesh.is_torus()) {
                    continue;
                }
                let algo = algorithm.build_on(&fmesh);
                for escape_vcs in [0, 1, 2] {
                    let compiled = if algo.deadlock_free_without_escape() && escape_vcs == 0 {
                        0
                    } else {
                        algo.escape_subclasses(&mesh).max(1)
                    };
                    assert_eq!(
                        algorithm.escape_vcs_needed(&mesh, escape_vcs),
                        compiled,
                        "{} on {mesh} with {escape_vcs} escape VC(s)",
                        algorithm.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "compiled per topology")]
    fn updown_build_needs_a_topology() {
        let _ = Algorithm::UpDown.build();
    }

    #[test]
    fn captured_trace_replays_bit_identically() {
        let scenario = fast(8, 8).load(0.2).build().unwrap();
        let (original, trace) = scenario.run_capturing();
        let cfg = scenario.config();
        assert_eq!(trace.len() as u64, cfg.warmup_msgs + cfg.measure_msgs);
        let replay = run(scenario.to_builder().trace(Arc::new(trace)));
        assert_eq!(original, replay);
    }

    #[test]
    fn capture_covers_bursty_and_faulty_runs() {
        let scenario = faulty_updown(fast(4, 4))
            .bursty(4, 2.0)
            .load(0.15)
            .build()
            .unwrap();
        let (original, trace) = scenario.run_capturing();
        let replay = run(scenario.to_builder().trace(Arc::new(trace)));
        assert_eq!(original, replay);
    }

    #[test]
    fn workload_selector_stays_small() {
        // The on/off kind's `u32` and `f64` fill 16 bytes, and the trace
        // `Arc` sits in the kind's tag niche, so the selector and the
        // configuration keep their size.
        assert_eq!(std::mem::size_of::<ArrivalKind>(), 16);
        assert_eq!(std::mem::size_of::<WorkloadKind>(), 16);
        assert_eq!(std::mem::size_of::<SimConfig>(), 304);
    }
}
