//! High-level experiment configuration and the measurement loop.
//!
//! [`SimConfig`] describes one simulation point the way the paper's Table 2
//! does — topology, router model, routing algorithm, table scheme, traffic
//! pattern, normalized load, message length, and the warm-up/measurement
//! protocol — and [`SimConfig::run`] executes it: inject warm-up messages,
//! sample the measurement window, drain, and cut the run off if the
//! offered load exceeds saturation (reported like the paper's "Sat.").

use crate::network::Network;
use crate::stats::SimResult;
use lapses_core::psh::PathSelection;
use lapses_core::tables::{EconomicalTable, FullTable, IntervalTable, MetaTable};
use lapses_core::{RouterConfig, TableScheme};
use lapses_routing::{
    DimensionOrder, DuatoAdaptive, RoutingAlgorithm, TurnModel, TurnModelKind, UpDown,
};
use lapses_sim::{Cycle, MeasurementPhase, PhaseController, ProgressWatchdog};
use lapses_topology::{FaultError, FaultSet, FaultyMesh, Mesh, NodeId};
use lapses_traffic::arrivals::{ArrivalProcess, Bernoulli, Exponential, Periodic};
use lapses_traffic::patterns;
use lapses_traffic::workload::{OnOffWorkload, SyntheticWorkload, Workload};
use lapses_traffic::{
    Generator, LengthDistribution, Trace, TraceEvent, TraceWorkload, TrafficPattern,
};
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
    /// scenario validation and asserted in [`SimConfig::run`].
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

    /// Escape VCs the relation needs for deadlock freedom on `mesh`: 0 when
    /// the relation alone is deadlock-free, else one per escape subclass
    /// (dateline class). Answered without compiling an up*/down* program:
    /// up*/down* ignores wrap state, so its adaptive variant needs one
    /// escape VC on any topology and its deterministic variant none.
    pub fn escape_vcs_needed(self, mesh: &Mesh) -> usize {
        match self {
            Algorithm::UpDown => 0,
            Algorithm::UpDownAdaptive => 1,
            classic => {
                let algo = classic.build();
                if algo.deadlock_free_without_escape() {
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
/// Faults are resolved to a validated
/// [`FaultSet`](lapses_topology::FaultSet) when the run (or scenario
/// validation) needs them; resolution depends only on the topology and
/// this configuration, never on scheduling, so sweep reports over faulty
/// scenarios stay bit-identical across thread counts.
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

/// Arrival-process selector for the synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalKind {
    /// Exponential (Poisson) inter-arrival gaps — the paper's process.
    #[default]
    Exponential,
    /// Bernoulli trials per cycle: geometric integer gaps.
    Bernoulli,
    /// Deterministic fixed gaps.
    Periodic,
}

impl ArrivalKind {
    /// Instantiates the process at the given mean gap.
    pub fn build(self, mean_gap: f64) -> Box<dyn ArrivalProcess> {
        match self {
            ArrivalKind::Exponential => Box::new(Exponential::new(mean_gap)),
            ArrivalKind::Bernoulli => Box::new(Bernoulli::new(mean_gap)),
            ArrivalKind::Periodic => Box::new(Periodic::new(mean_gap)),
        }
    }

    /// A short name for reports and scenario specs.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Exponential => "exponential",
            ArrivalKind::Bernoulli => "bernoulli",
            ArrivalKind::Periodic => "periodic",
        }
    }
}

/// Workload selector: which message source drives the run.
///
/// The synthetic and bursty sources read the configuration's `pattern`,
/// `load` and `lengths` fields; trace replay carries its own timing and
/// ignores them.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Pattern × arrival-process × length synthetic traffic (the classic
    /// path).
    Synthetic {
        /// The inter-arrival process.
        arrivals: ArrivalKind,
    },
    /// ON/OFF bursty source over the configured pattern, normalized to the
    /// configured load.
    Bursty {
        /// Mean messages per ON burst (geometric).
        burst_len: u32,
        /// Cycles between messages within a burst.
        peak_gap: f64,
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
            WorkloadKind::Synthetic { .. } => "synthetic",
            WorkloadKind::Bursty { .. } => "bursty",
            WorkloadKind::Trace(_) => "trace",
        }
    }
}

/// Traffic pattern selector (the paper's four plus the usual extras).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Node-uniform random traffic.
    Uniform,
    /// Matrix transpose `(x,y) → (y,x)`.
    Transpose,
    /// Bit-reversal of the node address.
    BitReversal,
    /// Perfect shuffle (rotate address left by one bit).
    PerfectShuffle,
    /// Bitwise complement of the node address.
    BitComplement,
    /// Half-way-around-the-row tornado.
    Tornado,
    /// Uniform with a hotspot node receiving extra traffic.
    Hotspot {
        /// The hotspot node id.
        node: u32,
        /// Probability a message targets the hotspot.
        probability: f64,
    },
    /// Random adjacent-node traffic.
    NearestNeighbor,
}

impl Pattern {
    /// The paper's four evaluation patterns, in presentation order.
    pub const PAPER_FOUR: [Pattern; 4] = [
        Pattern::Uniform,
        Pattern::Transpose,
        Pattern::BitReversal,
        Pattern::PerfectShuffle,
    ];

    /// Instantiates the pattern.
    pub fn build(self) -> Box<dyn TrafficPattern> {
        match self {
            Pattern::Uniform => Box::new(patterns::Uniform::new()),
            Pattern::Transpose => Box::new(patterns::Transpose::new()),
            Pattern::BitReversal => Box::new(patterns::BitReversal::new()),
            Pattern::PerfectShuffle => Box::new(patterns::PerfectShuffle::new()),
            Pattern::BitComplement => Box::new(patterns::BitComplement::new()),
            Pattern::Tornado => Box::new(patterns::Tornado::new()),
            Pattern::Hotspot { node, probability } => {
                Box::new(patterns::Hotspot::new(NodeId(node), probability))
            }
            Pattern::NearestNeighbor => Box::new(patterns::NearestNeighbor::new()),
        }
    }

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::BitReversal => "bit-reversal",
            Pattern::PerfectShuffle => "perfect-shuffle",
            Pattern::BitComplement => "bit-complement",
            Pattern::Tornado => "tornado",
            Pattern::Hotspot { .. } => "hotspot",
            Pattern::NearestNeighbor => "nearest-neighbor",
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
    /// Interval routing (deterministic Y-then-X; ignores `Algorithm`).
    Interval,
}

impl TableKind {
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

    /// Compiles the table program over a faulty topology instance — the
    /// Fig. 7 "table programming story" for irregular networks. Full
    /// tables express irregular relations natively, the economical table
    /// adds a per-router exception store, and interval routing falls back
    /// to run lists.
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
            TableKind::Full => Arc::new(FullTable::program_faulty(fmesh, algo)),
            TableKind::Economical => Arc::new(EconomicalTable::program_faulty(fmesh, algo)),
            TableKind::Interval => Arc::new(IntervalTable::program_faulty(fmesh, algo)),
            TableKind::MetaRows | TableKind::MetaBlocks(_) => {
                panic!("meta-tables cannot program irregular (faulty) routing relations")
            }
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

/// One simulation point: everything the paper's Table 2 specifies, plus
/// the design axes under study (pipeline, heuristic, table scheme).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Topology (the paper: 16×16 mesh).
    pub mesh: Mesh,
    /// Dead links, if any. Faults compile down to table contents and
    /// candidate masks — the cycle loop never sees them, so a fault-free
    /// run is bit-identical to one configured before this field existed.
    pub faults: FaultsConfig,
    /// Router microarchitecture.
    pub router: RouterConfig,
    /// Routing algorithm.
    pub algorithm: Algorithm,
    /// Table storage scheme.
    pub table: TableKind,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Message source (synthetic, bursty, or trace replay). The synthetic
    /// and bursty sources read `pattern`, `load` and `lengths`; trace
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
    /// Link traversal delay in cycles (the paper: 1).
    pub link_delay: u64,
    /// Hard cycle cap (safety net).
    pub max_cycles: u64,
    /// Cycles without progress before declaring a stall.
    pub stall_window: u64,
    /// Aggregate NIC backlog (messages) that declares saturation.
    pub backlog_limit: u64,
}

impl SimConfig {
    /// The paper's adaptive PROUD configuration (`NO LA, ADAPT`) on a
    /// `width × height` mesh: Duato's algorithm, full tables, 4 VCs with 1
    /// escape, 20-flit messages, exponential arrivals.
    ///
    /// Message counts default to a fast profile (6k warm-up / 60k measured
    /// scaled down for small meshes); use
    /// [`with_message_counts`](SimConfig::with_message_counts) or
    /// [`with_paper_message_counts`](SimConfig::with_paper_message_counts)
    /// to change.
    pub fn paper_adaptive(width: u16, height: u16) -> SimConfig {
        let mesh = Mesh::mesh_2d(width, height);
        SimConfig {
            backlog_limit: 16 * mesh.node_count() as u64,
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
        }
    }

    /// The adaptive LA-PROUD configuration (`LA, ADAPT`).
    pub fn paper_adaptive_lookahead(width: u16, height: u16) -> SimConfig {
        let mut cfg = Self::paper_adaptive(width, height);
        cfg.router = cfg.router.with_lookahead(true);
        cfg
    }

    /// The deterministic PROUD configuration (`NO LA, DET`): XY routing
    /// with all four VCs usable.
    pub fn paper_deterministic(width: u16, height: u16) -> SimConfig {
        let mut cfg = Self::paper_adaptive(width, height);
        cfg.algorithm = Algorithm::DimensionOrder;
        cfg.router = RouterConfig::paper_deterministic();
        cfg
    }

    /// The deterministic LA-PROUD configuration (`LA, DET`).
    pub fn paper_deterministic_lookahead(width: u16, height: u16) -> SimConfig {
        let mut cfg = Self::paper_deterministic(width, height);
        cfg.router = cfg.router.with_lookahead(true);
        cfg
    }

    /// Sets the traffic pattern.
    pub fn with_pattern(mut self, pattern: Pattern) -> SimConfig {
        self.pattern = pattern;
        self
    }

    /// Sets the normalized load.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not strictly positive.
    pub fn with_load(mut self, load: f64) -> SimConfig {
        assert!(load > 0.0, "load must be positive");
        self.load = load;
        self
    }

    /// Sets warm-up and measured injection counts.
    pub fn with_message_counts(mut self, warmup: u64, measure: u64) -> SimConfig {
        self.warmup_msgs = warmup;
        self.measure_msgs = measure;
        self
    }

    /// The paper's measurement protocol: 10,000 warm-up messages and
    /// 400,000 measured injections. Expensive — minutes per point.
    pub fn with_paper_message_counts(self) -> SimConfig {
        self.with_message_counts(10_000, 400_000)
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the table scheme.
    pub fn with_table(mut self, table: TableKind) -> SimConfig {
        self.table = table;
        self
    }

    /// Sets the path-selection heuristic.
    pub fn with_path_selection(mut self, psh: PathSelection) -> SimConfig {
        self.router.path_selection = psh;
        self
    }

    /// Switches look-ahead routing on or off.
    pub fn with_lookahead(mut self, lookahead: bool) -> SimConfig {
        self.router = self.router.with_lookahead(lookahead);
        self
    }

    /// Sets the table-lookup latency in cycles (models the slower RAM
    /// access of large tables — Table 5's "lookup time" column).
    pub fn with_table_lookup_cycles(mut self, cycles: u32) -> SimConfig {
        self.router = self.router.with_table_lookup_cycles(cycles);
        self
    }

    /// Sets the message length distribution.
    pub fn with_message_length(mut self, lengths: LengthDistribution) -> SimConfig {
        self.lengths = lengths;
        self
    }

    /// Replaces the topology (rescaling the backlog limit).
    pub fn with_mesh(mut self, mesh: Mesh) -> SimConfig {
        self.backlog_limit = 16 * mesh.node_count() as u64;
        self.mesh = mesh;
        self
    }

    /// Kills the given links (endpoint node-id pairs, order-insensitive).
    pub fn with_faults(mut self, links: &[(u32, u32)]) -> SimConfig {
        self.faults = if links.is_empty() {
            FaultsConfig::None
        } else {
            FaultsConfig::Links(links.to_vec())
        };
        self
    }

    /// Kills `count` random links drawn deterministically from `seed`.
    pub fn with_random_faults(mut self, count: usize, seed: u64) -> SimConfig {
        self.faults = FaultsConfig::Random { count, seed };
        self
    }

    /// Sets the message source.
    pub fn with_workload(mut self, workload: WorkloadKind) -> SimConfig {
        self.workload = workload;
        self
    }

    /// Selects the synthetic source with the given arrival process.
    pub fn with_arrivals(self, arrivals: ArrivalKind) -> SimConfig {
        self.with_workload(WorkloadKind::Synthetic { arrivals })
    }

    /// Selects the ON/OFF bursty source (mean `burst_len` messages per
    /// burst, `peak_gap` cycles between messages within a burst).
    pub fn with_bursty(self, burst_len: u32, peak_gap: f64) -> SimConfig {
        self.with_workload(WorkloadKind::Bursty {
            burst_len,
            peak_gap,
        })
    }

    /// Selects trace replay.
    pub fn with_trace(self, trace: Arc<Trace>) -> SimConfig {
        self.with_workload(WorkloadKind::Trace(trace))
    }

    /// Instantiates the configured message source for one run, forking
    /// the per-node streams from the run seed exactly the way the
    /// original experiment loop did — so the synthetic path is
    /// bit-identical to the historical inline wiring.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent workload parameters (e.g. bursty settings
    /// with no room for an OFF period, a Bernoulli mean gap below one
    /// cycle, or a trace recorded for a different node count). The
    /// [`Scenario`](crate::scenario::Scenario) builder validates all of
    /// these up front and returns errors instead.
    pub fn build_workload(&self) -> Box<dyn Workload> {
        let traffic_seed = self.seed ^ 0x5EED_CAFE;
        match &self.workload {
            WorkloadKind::Synthetic { arrivals } => {
                let mean_gap =
                    Generator::mean_gap_for_load(&self.mesh, self.load, self.lengths.mean());
                Box::new(SyntheticWorkload::new(
                    self.mesh.clone(),
                    self.pattern.build(),
                    arrivals.build(mean_gap),
                    self.lengths,
                    traffic_seed,
                ))
            }
            WorkloadKind::Bursty {
                burst_len,
                peak_gap,
            } => {
                let mean_gap =
                    Generator::mean_gap_for_load(&self.mesh, self.load, self.lengths.mean());
                Box::new(OnOffWorkload::new(
                    self.mesh.clone(),
                    self.pattern.build(),
                    self.lengths,
                    *burst_len,
                    *peak_gap,
                    mean_gap,
                    traffic_seed,
                ))
            }
            WorkloadKind::Trace(trace) => {
                assert_eq!(
                    trace.node_count() as usize,
                    self.mesh.node_count(),
                    "trace was recorded for {} nodes but the mesh has {}",
                    trace.node_count(),
                    self.mesh.node_count()
                );
                Box::new(TraceWorkload::new(trace.clone()))
            }
        }
    }

    /// Applies `LAPSES_WARMUP_MSGS` / `LAPSES_MEASURE_MSGS` environment
    /// overrides, letting the benches run the full paper protocol on
    /// demand without recompiling.
    pub fn with_env_message_counts(mut self) -> SimConfig {
        if let Some(w) = env_u64("LAPSES_WARMUP_MSGS") {
            self.warmup_msgs = w;
        }
        if let Some(m) = env_u64("LAPSES_MEASURE_MSGS") {
            self.measure_msgs = m;
        }
        self
    }

    /// Resolves the routing relation and table program, compiling faults
    /// down to table contents. The fault-free classic path is untouched —
    /// same calls, same bytes — so runs configured before faults existed
    /// stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on an invalid fault set (bad link, disconnection), on faults
    /// combined with a non-fault-tolerant algorithm, or on faults with a
    /// meta-table scheme. The [`Scenario`](crate::scenario::Scenario)
    /// builder reports all of these as typed errors instead.
    fn build_routing(&self) -> (Box<dyn RoutingAlgorithm>, Arc<dyn TableScheme>) {
        if self.faults.is_none() && !self.algorithm.fault_tolerant() {
            let algo = self.algorithm.build();
            let program = self.table.build(&self.mesh, algo.as_ref());
            return (algo, program);
        }
        let faults = self
            .faults
            .resolve(&self.mesh)
            .unwrap_or_else(|e| panic!("invalid fault configuration: {e}"));
        assert!(
            faults.is_empty() || self.algorithm.fault_tolerant(),
            "{} routing cannot tolerate dead links; use up-down or up-down-adaptive",
            self.algorithm.name()
        );
        let fmesh = Arc::new(
            FaultyMesh::new(self.mesh.clone(), faults)
                .unwrap_or_else(|e| panic!("invalid fault configuration: {e}")),
        );
        let algo = self.algorithm.build_on(&fmesh);
        let program = self.table.build_faulty(&fmesh, algo.as_ref());
        (algo, program)
    }

    /// Runs the simulation point to completion (or saturation cut-off).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent — most importantly, if
    /// the routing algorithm needs escape channels the router does not
    /// provide (Duato's protocol requires at least one escape VC per
    /// dateline subclass).
    pub fn run(&self) -> SimResult {
        self.run_impl(None)
    }

    /// Runs the point while recording every injected message as a
    /// `cycle src dst len` trace event — the capture sink that closes the
    /// replay loop: a captured synthetic run, re-run as a
    /// [`WorkloadKind::Trace`] replay with the same message counts, is
    /// bit-identical in delivered flits and messages (each node is polled
    /// at most once per cycle and drains every due message in that poll,
    /// so the injection interleaving reproduces exactly).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimConfig::run`].
    pub fn run_capturing(&self) -> (SimResult, Trace) {
        let mut events = Vec::new();
        let result = self.run_impl(Some(&mut events));
        let trace = Trace::from_events(self.mesh.node_count() as u32, events)
            .expect("captured injections always form a valid trace");
        (result, trace)
    }

    fn run_impl(&self, mut capture: Option<&mut Vec<TraceEvent>>) -> SimResult {
        let (algo, program) = self.build_routing();
        let mut router_cfg = self.router.clone();
        router_cfg.escape_subclasses = algo.escape_subclasses(&self.mesh).max(1);
        if !algo.deadlock_free_without_escape() {
            assert!(
                router_cfg.escape_vcs >= router_cfg.escape_subclasses,
                "{:?} routing needs at least {} escape VC(s) for deadlock freedom",
                self.algorithm,
                router_cfg.escape_subclasses
            );
        } else if router_cfg.escape_vcs == 0 {
            router_cfg.escape_subclasses = 1;
        }

        let mut net = Network::new(
            self.mesh.clone(),
            router_cfg,
            program,
            self.link_delay,
            self.seed,
        );

        let mut workload = self.build_workload();
        assert_eq!(
            workload.node_count(),
            self.mesh.node_count(),
            "workload node count must match the topology"
        );

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

    /// Runs the configuration across a load sweep, stopping after the
    /// first saturated point (which is included, reported as "Sat.").
    pub fn sweep(&self, loads: &[f64]) -> Vec<(f64, SimResult)> {
        let mut out = Vec::new();
        for &load in loads {
            let result = self.clone().with_load(load).run();
            let saturated = result.saturated;
            out.push((load, result));
            if saturated {
                break;
            }
        }
        out
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(cfg: SimConfig) -> SimConfig {
        cfg.with_message_counts(200, 1_000).with_seed(99)
    }

    #[test]
    fn low_load_uniform_completes_unsaturated() {
        let r = fast(SimConfig::paper_adaptive(8, 8)).with_load(0.2).run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 1_000);
        assert!(r.avg_latency > 20.0, "latency {}", r.avg_latency);
        assert!(r.avg_total_latency >= r.avg_latency);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn lookahead_beats_proud_at_low_load() {
        let proud = fast(SimConfig::paper_adaptive(8, 8)).with_load(0.1).run();
        let la = fast(SimConfig::paper_adaptive_lookahead(8, 8))
            .with_load(0.1)
            .run();
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
        let r = fast(SimConfig::paper_adaptive(4, 4)).with_load(3.0).run();
        assert!(r.saturated);
        assert_eq!(r.latency_cell(), "Sat.");
    }

    #[test]
    fn deterministic_configs_run() {
        let det = fast(SimConfig::paper_deterministic(8, 8))
            .with_load(0.2)
            .run();
        assert!(!det.saturated);
        // XY routing never has a choice to make.
        assert_eq!(det.choice_fraction, 0.0);
        assert_eq!(det.escape_fraction, 0.0);
    }

    #[test]
    fn economical_equals_full_table_exactly() {
        // §5.2.2: same seed, same routing relation => identical statistics.
        let full = fast(SimConfig::paper_adaptive(8, 8))
            .with_table(TableKind::Full)
            .with_load(0.3)
            .run();
        let econ = fast(SimConfig::paper_adaptive(8, 8))
            .with_table(TableKind::Economical)
            .with_load(0.3)
            .run();
        assert_eq!(full.avg_latency, econ.avg_latency);
        assert_eq!(full.messages, econ.messages);
    }

    #[test]
    fn sweep_stops_at_saturation() {
        let cfg = fast(SimConfig::paper_adaptive(4, 4));
        let points = cfg.sweep(&[0.2, 3.0, 5.0]);
        assert_eq!(points.len(), 2, "sweep must stop after first Sat.");
        assert!(!points[0].1.saturated);
        assert!(points[1].1.saturated);
    }

    #[test]
    #[should_panic(expected = "escape VC")]
    fn duato_without_escape_rejected() {
        let mut cfg = SimConfig::paper_adaptive(4, 4);
        cfg.router.escape_vcs = 0;
        let _ = cfg.run();
    }

    #[test]
    fn transpose_pattern_runs() {
        let r = fast(SimConfig::paper_adaptive(8, 8))
            .with_pattern(Pattern::Transpose)
            .with_load(0.15)
            .run();
        assert!(!r.saturated);
        // Adaptive routing on transpose exercises multi-candidate choices.
        assert!(r.choice_fraction > 0.0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let a = fast(SimConfig::paper_adaptive(8, 8)).with_load(0.25).run();
        let b = fast(SimConfig::paper_adaptive(8, 8)).with_load(0.25).run();
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.cycles, b.cycles);
    }

    fn faulty_updown(cfg: SimConfig) -> SimConfig {
        let mut cfg = cfg.with_random_faults(3, 7);
        cfg.algorithm = Algorithm::UpDownAdaptive;
        cfg
    }

    #[test]
    fn faulty_mesh_runs_to_drain_under_updown() {
        let r = faulty_updown(fast(SimConfig::paper_adaptive(8, 8)))
            .with_load(0.15)
            .run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 1_000);
        assert!(r.avg_latency > 0.0);
    }

    #[test]
    fn standalone_updown_runs_without_escape_vcs() {
        let mut cfg = fast(SimConfig::paper_deterministic(4, 4))
            .with_faults(&[(0, 1)])
            .with_load(0.1);
        cfg.algorithm = Algorithm::UpDown;
        let r = cfg.run();
        assert!(!r.saturated);
        // Deterministic routing never has a choice to make.
        assert_eq!(r.choice_fraction, 0.0);
    }

    #[test]
    fn faulty_tables_agree_across_schemes() {
        // Full and economical-with-exceptions programs must simulate
        // bit-identically (the §5.2.2 claim, extended to faulty meshes).
        let base = faulty_updown(fast(SimConfig::paper_adaptive(4, 4))).with_load(0.2);
        let full = base.clone().with_table(TableKind::Full).run();
        let econ = base.with_table(TableKind::Economical).run();
        assert_eq!(full.avg_latency, econ.avg_latency);
        assert_eq!(full.cycles, econ.cycles);
        assert_eq!(full.flit_hops, econ.flit_hops);
    }

    #[test]
    #[should_panic(expected = "cannot tolerate dead links")]
    fn classic_algorithms_reject_faults() {
        let _ = fast(SimConfig::paper_adaptive(4, 4))
            .with_faults(&[(0, 1)])
            .run();
    }

    #[test]
    fn escape_vc_needs_match_the_compiled_relations() {
        let all = [
            Algorithm::DimensionOrder,
            Algorithm::Duato,
            Algorithm::NorthLast,
            Algorithm::WestFirst,
            Algorithm::NegativeFirst,
            Algorithm::UpDown,
            Algorithm::UpDownAdaptive,
        ];
        for mesh in [
            Mesh::mesh_2d(4, 4),
            Mesh::torus_2d(4, 4),
            Mesh::mesh_3d(3, 3, 3),
        ] {
            let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap());
            for algorithm in all {
                if algorithm.requires_2d_mesh() && (mesh.dims() != 2 || mesh.is_torus()) {
                    continue;
                }
                let algo = algorithm.build_on(&fmesh);
                let compiled = if algo.deadlock_free_without_escape() {
                    0
                } else {
                    algo.escape_subclasses(&mesh).max(1)
                };
                assert_eq!(
                    algorithm.escape_vcs_needed(&mesh),
                    compiled,
                    "{} on {mesh}",
                    algorithm.name()
                );
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
        let cfg = fast(SimConfig::paper_adaptive(8, 8)).with_load(0.2);
        let (original, trace) = cfg.run_capturing();
        assert_eq!(trace.len() as u64, cfg.warmup_msgs + cfg.measure_msgs);
        let replay = cfg.with_trace(Arc::new(trace)).run();
        assert_eq!(original, replay);
    }

    #[test]
    fn capture_covers_bursty_and_faulty_runs() {
        let cfg = faulty_updown(fast(SimConfig::paper_adaptive(4, 4)))
            .with_bursty(4, 2.0)
            .with_load(0.15);
        let (original, trace) = cfg.run_capturing();
        let replay = cfg.with_trace(Arc::new(trace)).run();
        assert_eq!(original, replay);
    }
}
