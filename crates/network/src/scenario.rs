//! The experiment-facing Scenario API.
//!
//! A [`Scenario`] is a *validated* description of one simulation point:
//! topology, router microarchitecture, routing algorithm, table scheme,
//! workload, and run policy. [`ScenarioBuilder`] composes the layers with
//! checked setters and [`ScenarioBuilder::build`] returns every
//! inconsistency as a typed [`ScenarioError`] instead of a mid-run panic.
//! A validated scenario is the only thing that can run
//! ([`Scenario::run`], [`Scenario::run_capturing`]) or be swept
//! ([`SweepGrid`](crate::sweep::SweepGrid)); its compiled form,
//! [`Scenario::config`], is a read-only [`SimConfig`] view. The `.scn`
//! text form ([`ScenarioSpec`](crate::spec::ScenarioSpec)) composes the
//! same builder, and the golden fingerprints of the `scenario_equivalence`
//! and `golden_fingerprints` integration tests pin the simulated outcome.
//!
//! # Example
//!
//! ```
//! use lapses_network::scenario::Scenario;
//! use lapses_network::{Algorithm, Pattern};
//!
//! let scenario = Scenario::builder()
//!     .mesh_2d(8, 8)
//!     .algorithm(Algorithm::Duato)
//!     .pattern(Pattern::Transpose)
//!     .load(0.15)
//!     .message_counts(200, 1_000)
//!     .build()
//!     .unwrap();
//! let result = scenario.run();
//! assert!(!result.saturated);
//! ```

use crate::experiment::{
    Algorithm, ArrivalKind, FaultsConfig, Pattern, SimConfig, TableKind, WorkloadKind,
};
use crate::network::{MAX_LINK_DELAY, MAX_NODES};
use crate::stats::SimResult;
use lapses_core::psh::PathSelection;
use lapses_core::{RouterConfig, MAX_VC_SLOTS};
use lapses_topology::{FaultError, Mesh, MeshError};
use lapses_traffic::{Generator, LengthDistribution, Trace};
use std::fmt;
use std::sync::Arc;

/// Why a scenario failed to validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The normalized load must be positive and finite.
    InvalidLoad(f64),
    /// The measurement window must inject at least one message.
    EmptyMeasurement,
    /// Virtual-channel counts are inconsistent.
    VcConfig {
        /// VCs per port.
        total: usize,
        /// Escape VCs requested.
        escape: usize,
    },
    /// The router has more (port, VC) slots than [`MAX_VC_SLOTS`], the
    /// width of its occupancy masks.
    VcSlots {
        /// Ports per router on this topology (local port included).
        ports: usize,
        /// VCs per port.
        vcs: usize,
    },
    /// The topology has at least [`MAX_NODES`] nodes, more than the
    /// network's packed wire addresses can name.
    TooManyNodes {
        /// Nodes in the topology.
        nodes: usize,
        /// The exclusive node-count limit ([`MAX_NODES`]).
        limit: usize,
    },
    /// A buffer depth is zero, or an input VC's ring (input plus output
    /// depth, in flits) does not fit 16 bits.
    BufferDepth {
        /// Input buffer depth per VC, in flits.
        input: usize,
        /// Output staging depth per VC, in flits.
        output: usize,
    },
    /// The table lookup is set to take zero cycles; it takes at least one.
    ZeroLookupCycles,
    /// The link delay exceeds [`MAX_LINK_DELAY`] cycles.
    LinkDelay {
        /// The configured delay, in cycles.
        delay: u64,
        /// The inclusive limit ([`MAX_LINK_DELAY`]).
        limit: u64,
    },
    /// The routing algorithm needs more escape VCs than the router has.
    EscapeVcs {
        /// The algorithm.
        algorithm: Algorithm,
        /// Escape VCs (dateline subclasses) the algorithm needs.
        needed: usize,
        /// Escape VCs the router provides.
        have: usize,
    },
    /// The routing algorithm does not support the topology.
    AlgorithmTopology {
        /// The algorithm.
        algorithm: Algorithm,
        /// Rendered topology ("8x8 torus").
        topology: String,
    },
    /// Bursty parameters leave no room for an OFF silence at this load.
    BurstParams {
        /// Mean messages per burst.
        burst_len: u32,
        /// Intra-burst gap in cycles.
        peak_gap: f64,
        /// Target long-run mean gap implied by the load.
        mean_gap: f64,
    },
    /// Bernoulli arrivals need a mean gap of at least one cycle; the
    /// offered load is too high for one-trial-per-cycle arrivals.
    BernoulliGap {
        /// The implied mean gap.
        mean_gap: f64,
    },
    /// The trace was recorded for a different node count.
    TraceNodeCount {
        /// Nodes the trace was validated against.
        trace_nodes: u32,
        /// Nodes in the scenario's topology.
        mesh_nodes: usize,
    },
    /// The trace has no events left after warm-up.
    TraceTooShort {
        /// Events in the trace.
        events: usize,
        /// Warm-up injections requested.
        warmup: u64,
    },
    /// A sweep axis was applied to a scenario that lacks the dimension
    /// (e.g. a burst-length axis on a non-bursty workload).
    AxisMismatch {
        /// The axis name.
        axis: &'static str,
        /// The workload the scenario actually has.
        workload: &'static str,
    },
    /// A sweep axis's values must be strictly ascending (the saturation
    /// cut-off truncates a series by position).
    AxisNotAscending {
        /// The axis name.
        axis: &'static str,
    },
    /// The fault set is invalid on this topology: a pair that names no
    /// link, a duplicate, a set that disconnects the network, or a random
    /// count that cannot be placed.
    Faults(FaultError),
    /// Dead links were configured with an algorithm that cannot route
    /// around them — only the up*/down* family is fault-tolerant.
    FaultsNeedUpDown {
        /// The configured algorithm.
        algorithm: Algorithm,
    },
    /// An up*/down* algorithm with a table scheme that has no
    /// irregular-topology programming (the meta-tables).
    FaultTable {
        /// The table scheme's name.
        table: &'static str,
    },
    /// The fault-count sweep axis needs a scenario whose faults are
    /// seeded-random (`FaultsConfig::Random`), so every count resolves
    /// deterministically.
    AxisNeedsRandomFaults,
    /// A sweep axis named an invalid topology.
    Topology(MeshError),
    /// The table scheme cannot be programmed on the topology: interval
    /// routing on a torus, or a meta-table whose cluster shape does not
    /// tile the mesh.
    TableTopology {
        /// The table scheme's name.
        table: &'static str,
        /// Rendered topology ("8x8 torus").
        topology: String,
    },
    /// The traffic pattern is not defined on the topology: too few nodes,
    /// a bit permutation without the address bits it needs, or a hotspot
    /// outside the mesh or with a probability outside `[0, 1]`.
    PatternTopology {
        /// The pattern.
        pattern: Pattern,
        /// Rendered topology ("3x5 mesh").
        topology: String,
    },
    /// The message-length distribution is invalid (see
    /// [`LengthDistribution::is_valid`]).
    Lengths(LengthDistribution),
    /// An arrival gap (the mean gap the load implies, or a bursty peak
    /// gap) is below [`Generator::MIN_GAP`].
    ArrivalGap {
        /// The offending gap, in cycles.
        gap: f64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::InvalidLoad(load) => {
                write!(f, "normalized load must be positive and finite, got {load}")
            }
            ScenarioError::EmptyMeasurement => {
                write!(f, "measurement window must inject at least one message")
            }
            ScenarioError::VcConfig { total, escape } => write!(
                f,
                "VC configuration is inconsistent: {escape} escape VC(s) out of {total} total"
            ),
            ScenarioError::VcSlots { ports, vcs } => write!(
                f,
                "{ports} ports × {vcs} VCs = {} (port, VC) slots exceed the router's \
                 budget of {MAX_VC_SLOTS}",
                ports.saturating_mul(*vcs)
            ),
            ScenarioError::TooManyNodes { nodes, limit } => write!(
                f,
                "topology has {nodes} nodes; the network supports fewer than {limit}"
            ),
            ScenarioError::BufferDepth { input, output } => write!(
                f,
                "buffer depths must be at least 1 flit with input + output at most {}, \
                 got input {input} and output {output}",
                u16::MAX
            ),
            ScenarioError::ZeroLookupCycles => {
                write!(f, "table lookup takes at least one cycle, got 0")
            }
            ScenarioError::LinkDelay { delay, limit } => {
                write!(f, "link delay must be at most {limit} cycles, got {delay}")
            }
            ScenarioError::EscapeVcs {
                algorithm,
                needed,
                have,
            } => write!(
                f,
                "{} routing needs at least {needed} escape VC(s) for deadlock freedom, router has {have}",
                algorithm.name()
            ),
            ScenarioError::AlgorithmTopology {
                algorithm,
                topology,
            } => write!(
                f,
                "{} routing does not support a {topology}",
                algorithm.name()
            ),
            ScenarioError::BurstParams {
                burst_len,
                peak_gap,
                mean_gap,
            } => write!(
                f,
                "bursty workload (burst {burst_len}, peak gap {peak_gap}) leaves no OFF \
                 silence at mean gap {mean_gap:.1}"
            ),
            ScenarioError::BernoulliGap { mean_gap } => write!(
                f,
                "Bernoulli arrivals need a mean gap of at least 1 cycle, load implies {mean_gap:.3}"
            ),
            ScenarioError::TraceNodeCount {
                trace_nodes,
                mesh_nodes,
            } => write!(
                f,
                "trace was recorded for {trace_nodes} nodes but the topology has {mesh_nodes}"
            ),
            ScenarioError::TraceTooShort { events, warmup } => write!(
                f,
                "trace has {events} events, all consumed by the {warmup}-message warm-up"
            ),
            ScenarioError::AxisMismatch { axis, workload } => write!(
                f,
                "{axis} axis cannot be applied to a {workload} workload"
            ),
            ScenarioError::AxisNotAscending { axis } => {
                write!(f, "{axis} axis values must be strictly ascending")
            }
            ScenarioError::Faults(e) => write!(f, "{e}"),
            ScenarioError::FaultsNeedUpDown { algorithm } => write!(
                f,
                "{} routing cannot route around dead links; use up-down or up-down-adaptive",
                algorithm.name()
            ),
            ScenarioError::FaultTable { table } => write!(
                f,
                "{table} tables cannot be programmed for irregular (faulty) topologies"
            ),
            ScenarioError::AxisNeedsRandomFaults => write!(
                f,
                "fault-count axis needs seeded random faults (random_faults)"
            ),
            ScenarioError::Topology(e) => write!(f, "{e}"),
            ScenarioError::TableTopology { table, topology } => {
                write!(f, "{table} tables cannot be programmed on a {topology}")
            }
            ScenarioError::PatternTopology { pattern, topology } => {
                write!(f, "{pattern:?} traffic is not defined on a {topology}")
            }
            ScenarioError::Lengths(lengths) => write!(f, "invalid message lengths {lengths:?}"),
            ScenarioError::ArrivalGap { gap } => write!(
                f,
                "arrival gaps must be at least {} cycle, got {gap:.3e}",
                Generator::MIN_GAP
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A validated simulation scenario: run it, capture it, or sweep it.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: Box<SimConfig>,
}

impl Scenario {
    /// Starts a builder at the paper's reference point: the adaptive
    /// PROUD router on a 16×16 mesh, uniform synthetic traffic at 0.2
    /// normalized load.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            config: Box::new(SimConfig::reference()),
        }
    }

    /// The compiled configuration, read-only.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the scenario to completion (or saturation cut-off).
    pub fn run(&self) -> SimResult {
        self.config.run(None)
    }

    /// Runs the scenario while recording every injected message as a
    /// `cycle src dst len` trace event — the capture sink that closes the
    /// replay loop: a captured synthetic run, re-run as a
    /// [`WorkloadKind::Trace`] replay with the same message counts, is
    /// bit-identical in delivered flits and messages (each node is polled
    /// at most once per cycle and drains every due message in that poll,
    /// so the injection interleaving reproduces exactly).
    pub fn run_capturing(&self) -> (SimResult, Trace) {
        let mut events = Vec::new();
        let result = self.config.run(Some(&mut events));
        let trace = Trace::from_events(self.config.mesh.node_count() as u32, events)
            .expect("captured injections always form a valid trace");
        (result, trace)
    }

    /// Reopens the scenario for modification; `build()` re-validates.
    pub fn to_builder(&self) -> ScenarioBuilder {
        ScenarioBuilder {
            config: self.config.clone(),
        }
    }

    /// The same scenario under another master seed. A seed cannot make a
    /// scenario invalid, so the sweep runner re-seeds points without
    /// re-validating them.
    pub(crate) fn reseeded(mut self, seed: u64) -> Scenario {
        self.config.seed = seed;
        self
    }
}

/// Composes a [`Scenario`] layer by layer; every setter is infallible and
/// [`ScenarioBuilder::build`] validates the whole composition at once.
///
/// The configuration is boxed: every setter and `build` moves the builder,
/// and a pointer moves for free where the whole configuration would be
/// copied each time.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    pub(crate) config: Box<SimConfig>,
}

impl ScenarioBuilder {
    // --- topology ---

    /// Sets the topology to a `width × height` mesh.
    pub fn mesh_2d(self, width: u16, height: u16) -> Self {
        self.topology(Mesh::mesh_2d(width, height))
    }

    /// Sets the topology to a `width × height` torus (wrap links; Duato
    /// escape needs two dateline subclasses per dimension crossing).
    pub fn torus_2d(self, width: u16, height: u16) -> Self {
        self.topology(Mesh::torus_2d(width, height))
    }

    /// Sets an arbitrary topology (any dimensionality, mesh or torus).
    /// The saturation backlog limit rescales with the node count.
    pub fn topology(mut self, mesh: Mesh) -> Self {
        self.config.set_mesh(mesh);
        self
    }

    /// Kills the given links (endpoint node-id pairs, order-insensitive).
    /// Validation checks every pair names a real link and that the
    /// network stays connected; faulty scenarios need an up*/down*
    /// algorithm.
    pub fn faults(mut self, links: &[(u32, u32)]) -> Self {
        self.config.faults = if links.is_empty() {
            FaultsConfig::None
        } else {
            FaultsConfig::Links(links.to_vec())
        };
        self
    }

    /// Kills `count` random links, drawn deterministically from `seed`
    /// and guaranteed connected (see
    /// [`FaultsConfig::Random`]).
    pub fn random_faults(mut self, count: usize, seed: u64) -> Self {
        self.config.faults = FaultsConfig::Random { count, seed };
        self
    }

    // --- router ---

    /// Replaces the whole router microarchitecture.
    pub fn router(mut self, router: RouterConfig) -> Self {
        self.config.router = router;
        self
    }

    /// Switches look-ahead routing (LA-PROUD) on or off.
    pub fn lookahead(mut self, on: bool) -> Self {
        self.config.router = self.config.router.with_lookahead(on);
        self
    }

    /// Sets total and escape VC counts per port.
    pub fn vcs(mut self, total: usize, escape: usize) -> Self {
        self.config.router.vcs_per_port = total;
        self.config.router.escape_vcs = escape;
        self
    }

    /// Sets the path-selection heuristic.
    pub fn path_selection(mut self, psh: PathSelection) -> Self {
        self.config.router.path_selection = psh;
        self
    }

    /// Sets the table-lookup latency in cycles (at least 1, checked by
    /// [`ScenarioBuilder::build`]).
    pub fn table_lookup_cycles(mut self, cycles: u32) -> Self {
        self.config.router.table_lookup_cycles = cycles;
        self
    }

    // --- routing ---

    /// Sets the routing algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the table storage scheme.
    pub fn table(mut self, table: TableKind) -> Self {
        self.config.table = table;
        self
    }

    // --- workload ---

    /// Sets the traffic pattern (read by the synthetic and bursty
    /// sources).
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.config.pattern = pattern;
        self
    }

    /// Sets the message source.
    pub fn workload(mut self, workload: WorkloadKind) -> Self {
        self.config.workload = workload;
        self
    }

    /// Selects the synthetic source with the given arrival process.
    pub fn arrivals(self, arrivals: ArrivalKind) -> Self {
        self.workload(WorkloadKind::Synthetic { arrivals })
    }

    /// Selects the ON/OFF bursty source: synthetic traffic with
    /// [`ArrivalKind::OnOff`] arrivals.
    pub fn bursty(self, burst_len: u32, peak_gap: f64) -> Self {
        self.arrivals(ArrivalKind::OnOff {
            burst_len,
            peak_gap,
        })
    }

    /// Selects trace replay (the trace carries its own timing; `load` is
    /// ignored).
    pub fn trace(self, trace: Arc<Trace>) -> Self {
        self.workload(WorkloadKind::Trace(trace))
    }

    /// Sets the normalized offered load (validated at build).
    pub fn load(mut self, load: f64) -> Self {
        self.config.load = load;
        self
    }

    /// Sets the message length distribution.
    pub fn lengths(mut self, lengths: LengthDistribution) -> Self {
        self.config.lengths = lengths;
        self
    }

    // --- run policy ---

    /// Sets warm-up and measured injection counts.
    pub fn message_counts(mut self, warmup: u64, measure: u64) -> Self {
        self.config.warmup_msgs = warmup;
        self.config.measure_msgs = measure;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the link traversal delay in cycles: a launched flit commits
    /// `delay + 1` cycles later (0 gives the paper's Table 2 timing;
    /// validated at build against [`MAX_LINK_DELAY`]).
    pub fn link_delay(mut self, delay: u64) -> Self {
        self.config.link_delay = delay;
        self
    }

    /// Sets the hard cycle cap.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.config.max_cycles = max_cycles;
        self
    }

    /// Validates the composition and produces a runnable [`Scenario`].
    ///
    /// Checks, in order: load sanity, measurement window, VC counts, the
    /// router's (port, VC) slot budget, the node-count limit, buffer depths,
    /// the table-lookup latency, the link-delay limit,
    /// algorithm/topology compatibility, faults (valid links, an up*/down*
    /// algorithm and a fault-capable table), table/topology compatibility,
    /// connectivity, escape-VC sufficiency for deadlock freedom, and
    /// workload-specific consistency: trace node count and length, or the
    /// pattern/topology fit, valid message lengths, arrival gaps of at
    /// least [`Generator::MIN_GAP`], a Bernoulli gap ≥ 1 cycle and bursty
    /// OFF-silence positivity. Every check is a handful of comparisons
    /// except the fault connectivity BFS.
    ///
    /// Validation compiles nothing: faults are drawn once and checked with
    /// one connectivity BFS over the surviving links, and the escape-VC
    /// need comes from [`Algorithm::escape_vcs_needed`]. The scenario keeps
    /// the drawn fault set; the faulty-mesh view, the up*/down* program and
    /// the routing tables are compiled from it in [`Scenario::run`].
    ///
    /// For trace workloads the measured-injection count is clamped to the
    /// events the trace actually holds, so a trace run ends exactly when
    /// the replay drains.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let mut config = self.config;

        if !(config.load > 0.0 && config.load.is_finite()) {
            return Err(ScenarioError::InvalidLoad(config.load));
        }
        if config.measure_msgs == 0 {
            return Err(ScenarioError::EmptyMeasurement);
        }

        let router = &config.router;
        if router.vcs_per_port == 0 || router.escape_vcs > router.vcs_per_port {
            return Err(ScenarioError::VcConfig {
                total: router.vcs_per_port,
                escape: router.escape_vcs,
            });
        }
        let ports = config.mesh.ports_per_router();
        if ports.saturating_mul(router.vcs_per_port) > MAX_VC_SLOTS {
            return Err(ScenarioError::VcSlots {
                ports,
                vcs: router.vcs_per_port,
            });
        }
        let nodes = config.mesh.node_count();
        if nodes >= MAX_NODES {
            return Err(ScenarioError::TooManyNodes {
                nodes,
                limit: MAX_NODES,
            });
        }
        let (input, output) = (router.input_buffer_flits, router.output_buffer_flits);
        let ring_fits = input
            .checked_add(output)
            .is_some_and(|ring| ring <= u16::MAX as usize);
        if input == 0 || output == 0 || !ring_fits {
            return Err(ScenarioError::BufferDepth { input, output });
        }
        if router.table_lookup_cycles == 0 {
            return Err(ScenarioError::ZeroLookupCycles);
        }
        if config.link_delay > MAX_LINK_DELAY {
            return Err(ScenarioError::LinkDelay {
                delay: config.link_delay,
                limit: MAX_LINK_DELAY,
            });
        }

        if config.algorithm.requires_2d_mesh()
            && (config.mesh.dims() != 2 || config.mesh.is_torus())
        {
            return Err(ScenarioError::AlgorithmTopology {
                algorithm: config.algorithm,
                topology: config.mesh.to_string(),
            });
        }

        // Every fault problem is a typed error. Only the up*/down* family
        // routes around dead links, and the meta-tables have no
        // irregular-topology programming. Faults are validated by one
        // connectivity BFS; the faulty-mesh view and the up*/down* program
        // are compiled from this set only when the scenario runs.
        let faults = config
            .faults
            .resolve(&config.mesh)
            .map_err(ScenarioError::Faults)?;
        if !faults.is_empty() && !config.algorithm.fault_tolerant() {
            return Err(ScenarioError::FaultsNeedUpDown {
                algorithm: config.algorithm,
            });
        }
        // An up*/down* algorithm needs a table with irregular programming.
        // A classic one compiles the same program with or without an empty
        // fault draw (`SimConfig::build_program`), so only the algorithm
        // decides.
        if config.algorithm.fault_tolerant() && !config.table.supports_faults() {
            return Err(ScenarioError::FaultTable {
                table: config.table.name(),
            });
        }
        // A classic algorithm has no dead links to route around (checked
        // above), so its table must suit the topology on either path.
        if !config.algorithm.fault_tolerant() && !config.table.supports(&config.mesh) {
            return Err(ScenarioError::TableTopology {
                table: config.table.name(),
                topology: config.mesh.to_string(),
            });
        }
        if !faults.is_empty() {
            faults
                .check_connected(&config.mesh)
                .map_err(ScenarioError::Faults)?;
        }
        let needed = config
            .algorithm
            .escape_vcs_needed(&config.mesh, router.escape_vcs);
        if router.escape_vcs < needed {
            return Err(ScenarioError::EscapeVcs {
                algorithm: config.algorithm,
                needed,
                have: router.escape_vcs,
            });
        }

        match &config.workload {
            // Trace replay carries its own destinations, lengths and timing.
            WorkloadKind::Trace(trace) => {
                if trace.node_count() as usize != config.mesh.node_count() {
                    return Err(ScenarioError::TraceNodeCount {
                        trace_nodes: trace.node_count(),
                        mesh_nodes: config.mesh.node_count(),
                    });
                }
                let events = trace.len() as u64;
                if events <= config.warmup_msgs {
                    return Err(ScenarioError::TraceTooShort {
                        events: trace.len(),
                        warmup: config.warmup_msgs,
                    });
                }
                config.measure_msgs = config.measure_msgs.min(events - config.warmup_msgs);
            }
            WorkloadKind::Synthetic { arrivals } => {
                let mean_gap = check_generated(&config)?;
                match *arrivals {
                    ArrivalKind::Bernoulli if mean_gap < 1.0 => {
                        return Err(ScenarioError::BernoulliGap { mean_gap });
                    }
                    ArrivalKind::OnOff {
                        burst_len,
                        peak_gap,
                    } => {
                        if peak_gap.is_nan() || peak_gap < Generator::MIN_GAP {
                            return Err(ScenarioError::ArrivalGap { gap: peak_gap });
                        }
                        if ArrivalKind::off_mean_for(burst_len, peak_gap, mean_gap).is_none() {
                            return Err(ScenarioError::BurstParams {
                                burst_len,
                                peak_gap,
                                mean_gap,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }

        config.drawn_faults = (!faults.is_empty()).then(|| Arc::new(faults));
        Ok(Scenario { config })
    }
}

/// Checks what the synthetic and bursty sources draw from — the pattern,
/// the length distribution and the mean gap the load implies — and returns
/// that mean gap.
fn check_generated(config: &SimConfig) -> Result<f64, ScenarioError> {
    if !config.pattern.supports(&config.mesh) {
        return Err(ScenarioError::PatternTopology {
            pattern: config.pattern,
            topology: config.mesh.to_string(),
        });
    }
    if !config.lengths.is_valid() {
        return Err(ScenarioError::Lengths(config.lengths));
    }
    let gap = config.mean_gap();
    if gap < Generator::MIN_GAP {
        return Err(ScenarioError::ArrivalGap { gap });
    }
    Ok(gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioBuilder {
        Scenario::builder().mesh_2d(4, 4).message_counts(50, 300)
    }

    fn tiny_trace(nodes: u32) -> Arc<Trace> {
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!("{} {} {} 5\n", i * 3, i % nodes, (i + 1) % nodes));
        }
        Arc::new(Trace::parse(&text, nodes).unwrap())
    }

    #[test]
    fn default_builder_is_the_paper_reference() {
        let s = Scenario::builder().build().unwrap();
        let cfg = s.config();
        assert_eq!(cfg.mesh, Mesh::mesh_2d(16, 16));
        assert_eq!(cfg.faults, FaultsConfig::None);
        assert_eq!(cfg.router, RouterConfig::paper_adaptive());
        assert_eq!(cfg.algorithm, Algorithm::Duato);
        assert_eq!(cfg.table, TableKind::Full);
        assert_eq!(cfg.pattern, Pattern::Uniform);
        assert_eq!(cfg.workload, WorkloadKind::default());
        assert_eq!(cfg.load, 0.2);
        assert_eq!(cfg.lengths, LengthDistribution::Fixed(20));
        assert_eq!((cfg.warmup_msgs, cfg.measure_msgs), (2_000, 20_000));
        assert_eq!(cfg.seed, 20260611);
        assert_eq!(cfg.link_delay, 1);
        assert_eq!(cfg.max_cycles, 10_000_000);
        assert_eq!(cfg.stall_window, 20_000);
        assert_eq!(cfg.backlog_limit, 16 * 256);
    }

    #[test]
    fn invalid_load_is_rejected() {
        assert_eq!(
            small().load(0.0).build().unwrap_err(),
            ScenarioError::InvalidLoad(0.0)
        );
        assert!(matches!(
            small().load(f64::NAN).build().unwrap_err(),
            ScenarioError::InvalidLoad(_)
        ));
    }

    #[test]
    fn empty_measurement_is_rejected() {
        assert_eq!(
            small().message_counts(10, 0).build().unwrap_err(),
            ScenarioError::EmptyMeasurement
        );
    }

    #[test]
    fn escape_vc_shortage_is_an_error_not_a_panic() {
        let err = small().vcs(4, 0).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::EscapeVcs {
                algorithm: Algorithm::Duato,
                needed: 1,
                have: 0
            }
        );
        assert!(err.to_string().contains("deadlock freedom"));
    }

    #[test]
    fn vc_slot_budget_is_validated_up_front() {
        // 2-D mesh: 5 ports × 13 VCs = 65 slots, one past the budget.
        let err = small().vcs(13, 1).build().unwrap_err();
        assert_eq!(err, ScenarioError::VcSlots { ports: 5, vcs: 13 });
        assert!(err.to_string().contains("65 (port, VC) slots"));
        // 3-D mesh: 7 ports × 10 VCs = 70 slots.
        let err = small()
            .topology(Mesh::mesh(&[4, 4, 4]))
            .vcs(10, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::VcSlots { ports: 7, vcs: 10 });
        // A count whose slot product overflows is still a typed error.
        let err = small().vcs(usize::MAX, 1).build().unwrap_err();
        assert!(matches!(err, ScenarioError::VcSlots { .. }), "{err}");
        // Exactly at the budget builds and runs.
        let at_budget = small().vcs(12, 1).build().unwrap().run();
        assert!(!at_budget.saturated && at_budget.messages == 300);
    }

    #[test]
    fn node_count_limit_is_validated_up_front() {
        // 2048 × 2048 = 2²² nodes: exactly at the limit, so rejected.
        let err = small()
            .topology(Mesh::mesh_2d(2048, 2048))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::TooManyNodes {
                nodes: 1 << 22,
                limit: 1 << 22
            }
        );
        assert!(err.to_string().contains("fewer than 4194304"), "{err}");
    }

    #[test]
    fn buffer_depths_are_validated_up_front() {
        let with = |input, output| {
            small().router(RouterConfig {
                input_buffer_flits: input,
                output_buffer_flits: output,
                ..RouterConfig::paper_adaptive()
            })
        };
        for (input, output) in [(0, 20), (20, 0), (40_000, 30_000), (usize::MAX, 1)] {
            assert_eq!(
                with(input, output).build().unwrap_err(),
                ScenarioError::BufferDepth { input, output }
            );
        }
        // The largest ring that fits 16 bits is accepted.
        assert!(with(65_000, 535).build().is_ok());
    }

    #[test]
    fn zero_lookup_cycles_is_an_error_not_a_panic() {
        assert_eq!(
            small().table_lookup_cycles(0).build().unwrap_err(),
            ScenarioError::ZeroLookupCycles
        );
        let router = RouterConfig {
            table_lookup_cycles: 0,
            ..RouterConfig::paper_adaptive()
        };
        assert_eq!(
            small().router(router).build().unwrap_err(),
            ScenarioError::ZeroLookupCycles
        );
        let slow = small().table_lookup_cycles(3).build().unwrap();
        assert_eq!(slow.config().router.table_lookup_cycles, 3);
    }

    #[test]
    fn link_delays_past_the_limit_are_errors_not_panics() {
        // `u64::MAX` once overflowed `link_delay + 1` in `Network::new`,
        // and a billion cycles pre-sized a billion ring buckets.
        for delay in [MAX_LINK_DELAY + 1, 1_000_000_000, u64::MAX] {
            assert_eq!(
                small().link_delay(delay).build().unwrap_err(),
                ScenarioError::LinkDelay {
                    delay,
                    limit: MAX_LINK_DELAY
                }
            );
        }
        for delay in [0, MAX_LINK_DELAY] {
            let scenario = small().link_delay(delay).build().unwrap();
            assert_eq!(scenario.config().link_delay, delay);
        }
        let err = small().link_delay(u64::MAX).build().unwrap_err();
        assert!(err.to_string().contains("at most 256 cycles"), "{err}");
    }

    #[test]
    fn torus_duato_needs_two_dateline_escapes() {
        let err = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::EscapeVcs {
                needed: 2,
                have: 1,
                ..
            }
        ));
        // Providing them fixes it.
        assert!(Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .vcs(4, 2)
            .build()
            .is_ok());
    }

    #[test]
    fn turn_models_reject_tori() {
        let err = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .vcs(4, 2)
            .algorithm(Algorithm::NorthLast)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::AlgorithmTopology { .. }));
        assert!(err.to_string().contains("torus"));
    }

    #[test]
    fn impossible_burst_parameters_are_rejected() {
        let err = small().load(0.5).bursty(100, 100.0).build().unwrap_err();
        assert!(matches!(err, ScenarioError::BurstParams { .. }));
        assert!(small().load(0.2).bursty(8, 2.0).build().is_ok());
    }

    #[test]
    fn bernoulli_rejects_sub_cycle_gaps() {
        // A huge load forces a mean gap below one cycle.
        let err = small()
            .load(100.0)
            .arrivals(ArrivalKind::Bernoulli)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BernoulliGap { .. }));
    }

    #[test]
    fn trace_node_count_must_match_topology() {
        let err = small().trace(tiny_trace(9)).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::TraceNodeCount {
                trace_nodes: 9,
                mesh_nodes: 16
            }
        );
    }

    #[test]
    fn trace_measure_clamps_to_replay_length() {
        let s = small()
            .trace(tiny_trace(16))
            .message_counts(5, 10_000)
            .build()
            .unwrap();
        assert_eq!(s.config().measure_msgs, 15); // 20 events - 5 warm-up
        let err = small()
            .trace(tiny_trace(16))
            .message_counts(20, 10)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TraceTooShort { .. }));
    }

    #[test]
    fn trace_scenario_runs_to_replay_exhaustion() {
        let r = small()
            .trace(tiny_trace(16))
            .message_counts(0, 10_000)
            .build()
            .unwrap()
            .run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 20);
        assert!(r.avg_latency > 0.0);
        assert!(r.flit_hops > 0);
    }

    #[test]
    fn bursty_scenario_runs() {
        let r = small().bursty(6, 2.0).load(0.15).build().unwrap().run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 300);
    }

    #[test]
    fn to_builder_round_trips() {
        let s = small().load(0.3).build().unwrap();
        let again = s.to_builder().build().unwrap();
        assert_eq!(s.config().load, again.config().load);
    }

    #[test]
    fn fault_on_a_non_link_is_typed() {
        use lapses_topology::FaultError;
        // (0, 5) is a diagonal on the 4x4 mesh: no link.
        let err = small()
            .faults(&[(0, 5)])
            .algorithm(Algorithm::UpDownAdaptive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::NotALink { .. })),
            "{err:?}"
        );
        assert!(err.to_string().contains("names no link"));
    }

    #[test]
    fn disconnecting_faults_are_typed() {
        use lapses_topology::FaultError;
        // Cut corner (0,0) off the 4x4 mesh.
        let err = small()
            .faults(&[(0, 1), (0, 4)])
            .algorithm(Algorithm::UpDownAdaptive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::Disconnected { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn connectivity_check_reports_what_the_faulty_mesh_reports() {
        use lapses_topology::{FaultSet, FaultyMesh, NodeId};
        // The corner-cut fixture: node 0 loses both of its links.
        let mesh = Mesh::mesh_2d(4, 4);
        let faults =
            FaultSet::new(&mesh, &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(4))]).unwrap();
        let compiled = FaultyMesh::new(mesh.clone(), faults.clone()).unwrap_err();
        assert_eq!(
            compiled,
            FaultError::Disconnected {
                reachable: 1,
                nodes: 16
            }
        );
        assert_eq!(faults.check_connected(&mesh).unwrap_err(), compiled);
        let err = small()
            .faults(&[(0, 1), (0, 4)])
            .algorithm(Algorithm::UpDown)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::Faults(compiled));
    }

    #[test]
    fn faults_require_an_updown_algorithm() {
        let err = small().faults(&[(0, 1)]).build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::FaultsNeedUpDown {
                algorithm: Algorithm::Duato
            }
        );
        assert!(err.to_string().contains("up-down"));
    }

    #[test]
    fn meta_tables_reject_irregular_routing() {
        let err = small()
            .faults(&[(0, 1)])
            .algorithm(Algorithm::UpDownAdaptive)
            .table(TableKind::MetaRows)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::FaultTable { table: "meta-rows" });
        // Up*/down* without faults still needs a fault-capable table.
        let err = small()
            .algorithm(Algorithm::UpDown)
            .table(TableKind::MetaBlocks(vec![2, 2]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::FaultTable {
                table: "meta-blocks"
            }
        );
    }

    #[test]
    fn torus_updown_needs_only_one_escape_vc() {
        // The torus×up*/down* rule: no dateline subclasses, so the default
        // single escape VC suffices — where Duato's dimension-order escape
        // needs two (torus_duato_needs_two_dateline_escapes above).
        let s = Scenario::builder()
            .topology(Mesh::torus_2d(4, 4))
            .algorithm(Algorithm::UpDownAdaptive)
            .message_counts(50, 300)
            .build()
            .unwrap();
        assert_eq!(s.config().router.escape_vcs, 1);
        assert!(!s.run().saturated);
    }

    #[test]
    fn faulty_scenario_runs_to_drain() {
        let r = small()
            .random_faults(2, 5)
            .algorithm(Algorithm::UpDownAdaptive)
            .load(0.15)
            .build()
            .unwrap()
            .run();
        assert!(!r.saturated);
        assert_eq!(r.messages, 300);
    }

    #[test]
    fn too_many_random_faults_is_typed() {
        use lapses_topology::FaultError;
        let err = small()
            .random_faults(50, 1)
            .algorithm(Algorithm::UpDownAdaptive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Faults(FaultError::TooManyFaults { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn patterns_must_be_defined_on_the_topology() {
        let on = |mesh: Mesh, pattern: Pattern| small().topology(mesh).pattern(pattern).build();
        for (mesh, pattern) in [
            (Mesh::mesh_2d(1, 1), Pattern::Uniform),
            (Mesh::mesh_2d(4, 8), Pattern::Transpose),
            (Mesh::mesh_2d(3, 5), Pattern::BitReversal),
            (Mesh::mesh_2d(3, 5), Pattern::PerfectShuffle),
            (Mesh::mesh_2d(3, 5), Pattern::BitComplement),
            // Patterns under which no source would inject.
            (Mesh::mesh_2d(2, 1), Pattern::PerfectShuffle),
            (Mesh::mesh_2d(2, 1), Pattern::BitReversal),
            (Mesh::mesh_2d(1, 4), Pattern::Tornado),
            (Mesh::mesh_2d(2, 4), Pattern::Tornado),
            (Mesh::mesh_2d(1, 1), Pattern::NearestNeighbor),
        ] {
            let topology = mesh.to_string();
            assert_eq!(
                on(mesh, pattern).unwrap_err(),
                ScenarioError::PatternTopology { pattern, topology }
            );
        }
        for (node, probability) in [(16, 0.2), (3, 1.5), (3, f64::NAN)] {
            let pattern = Pattern::Hotspot { node, probability };
            let err = on(Mesh::mesh_2d(4, 4), pattern).unwrap_err();
            assert!(
                matches!(err, ScenarioError::PatternTopology { .. }),
                "{err}"
            );
            assert!(err.to_string().contains("Hotspot"), "{err}");
        }
        // Tornado needs a row of three nodes, and transpose an even number
        // of address bits rather than a square mesh.
        assert!(on(Mesh::mesh_2d(3, 5), Pattern::Tornado).is_ok());
        assert!(on(Mesh::mesh_2d(2, 8), Pattern::Transpose).is_ok());
        // Trace replay carries its own destinations: the pattern is unused.
        let replay = small()
            .pattern(Pattern::BitReversal)
            .topology(Mesh::mesh_2d(3, 5))
            .trace(tiny_trace(15))
            .message_counts(0, 20);
        assert!(replay.build().is_ok());
    }

    #[test]
    fn message_lengths_are_validated() {
        for lengths in [
            LengthDistribution::Fixed(0),
            LengthDistribution::UniformRange { min: 5, max: 3 },
            LengthDistribution::Bimodal {
                short: 5,
                long: 10,
                long_fraction: 1.5,
            },
        ] {
            assert_eq!(
                small().lengths(lengths).build().unwrap_err(),
                ScenarioError::Lengths(lengths)
            );
        }
        let lengths = LengthDistribution::UniformRange { min: 3, max: 3 };
        assert!(small().lengths(lengths).build().is_ok());
    }

    #[test]
    fn arrival_gaps_are_bounded_below() {
        // 4x4 mesh, 20-flit messages: load 1e6 means 2e-5 cycles per
        // message per node, a poll that could never finish.
        let err = small().load(1e6).build().unwrap_err();
        assert!(matches!(err, ScenarioError::ArrivalGap { .. }), "{err}");
        let err = small().load(0.2).bursty(4, 1e-9).build().unwrap_err();
        assert_eq!(err, ScenarioError::ArrivalGap { gap: 1e-9 });
        // Overload well past saturation is still a valid (saturating) run.
        assert!(small().load(50.0).build().is_ok());
    }

    #[test]
    fn tables_must_be_programmable_on_the_topology() {
        let torus = || small().topology(Mesh::torus_2d(4, 4)).vcs(4, 2);
        for table in [TableKind::Interval, TableKind::MetaRows] {
            let name = table.name();
            assert_eq!(
                torus().table(table).build().unwrap_err(),
                ScenarioError::TableTopology {
                    table: name,
                    topology: "4x4 torus".into()
                }
            );
        }
        // An empty random fault draw leaves a classic algorithm's table
        // constraints in place: interval run lists cannot encode the torus
        // dateline classes.
        let empty_draw = torus().random_faults(0, 1).table(TableKind::Interval);
        assert_eq!(
            empty_draw.build().unwrap_err(),
            ScenarioError::TableTopology {
                table: "interval",
                topology: "4x4 torus".into()
            }
        );
        let err = small()
            .table(TableKind::MetaBlocks(vec![3, 3]))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TableTopology { .. }), "{err}");
        // Interval routing over up*/down* is programmed as run lists, which
        // tori support.
        let updown = torus().table(TableKind::Interval);
        assert!(updown.algorithm(Algorithm::UpDown).build().is_ok());
        // An empty random fault draw compiles like no faults, so a classic
        // algorithm keeps its meta-table and runs bit-identically.
        let meta = small().table(TableKind::MetaRows);
        let empty_draw = meta.clone().random_faults(0, 1).build().unwrap();
        assert_eq!(empty_draw.run(), meta.build().unwrap().run());
    }

    #[test]
    fn escape_vcs_a_router_has_must_cover_the_dateline_classes() {
        // Dimension-order routing needs no escape VCs, but on a torus any
        // it is given carry two dateline classes.
        let xy = || {
            small()
                .topology(Mesh::torus_2d(4, 4))
                .algorithm(Algorithm::DimensionOrder)
        };
        assert_eq!(
            xy().vcs(4, 1).build().unwrap_err(),
            ScenarioError::EscapeVcs {
                algorithm: Algorithm::DimensionOrder,
                needed: 2,
                have: 1
            }
        );
        for escape in [0, 2] {
            assert!(!xy().vcs(4, escape).build().unwrap().run().saturated);
        }
    }

    #[test]
    fn scenario_capture_replays_bit_identically() {
        let s = small().load(0.2).build().unwrap();
        let (original, trace) = s.run_capturing();
        let replay = s.to_builder().trace(Arc::new(trace)).build().unwrap().run();
        assert_eq!(original, replay);
    }
}
