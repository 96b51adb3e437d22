//! # LAPSES — a reproduction of the HPCA 1999 adaptive-router recipe
//!
//! This crate is the front door of a full reproduction of *"LAPSES: A
//! Recipe for High Performance Adaptive Router Design"* (Vaidya,
//! Sivasubramaniam, Das; HPCA 1999): **L**ook-**A**head routing,
//! intelligent **P**ath **SE**lection, and economical **S**torage for
//! table-based adaptive wormhole routers, evaluated on a cycle-level
//! 16×16-mesh network simulator rebuilt from the paper's description.
//!
//! The implementation lives in focused crates, re-exported here:
//!
//! * [`sim`] — simulation kernel: clock, statistics, RNG, measurement
//!   protocol, saturation watchdog;
//! * [`topology`] — n-dimensional meshes and tori, ports, sign vectors,
//!   cluster labelings, and validated faulty-link views;
//! * [`routing`] — the [`Algorithm`](routing::Algorithm) selector, whose
//!   dimension-order, Duato and turn-model variants are routing relations
//!   themselves, up*/down* compiled per topology instance, and
//!   channel-dependency-graph deadlock analysis (faulty instances
//!   included);
//! * [`traffic`] — the paper's four synthetic patterns (plus extras),
//!   arrival processes, message-length distributions;
//! * [`core`] — **the paper's contribution**: the PROUD and LA-PROUD
//!   router pipelines, the five path-selection heuristics, and the four
//!   table-storage schemes including the 9-entry economical table;
//! * [`network`] — the assembled network simulator and experiment runner.
//!
//! # Quickstart
//!
//! Experiments are described as [`Scenario`](network::scenario::Scenario)s:
//! a validated composition of topology, router, routing algorithm, table
//! scheme, **workload**, and run policy. A built scenario is the only
//! thing that runs or sweeps, so an inconsistent composition is a typed
//! [`ScenarioError`](network::ScenarioError) at build time, never a
//! mid-run panic. One point — the paper's LA-ADAPT router on a small
//! mesh, uniform traffic at 20% of bisection saturation:
//!
//! ```
//! use lapses::prelude::*;
//!
//! let result = Scenario::builder()
//!     .mesh_2d(8, 8)
//!     .lookahead(true)
//!     .pattern(Pattern::Uniform)
//!     .load(0.2)
//!     .message_counts(200, 2_000)
//!     .build()
//!     .unwrap()
//!     .run();
//! println!("average network latency: {:.1} cycles", result.avg_latency);
//! assert!(!result.saturated);
//! ```
//!
//! A run's message source is one [`traffic::Workload`]: the synthetic
//! pattern × arrival-process generator above (one per node), whose
//! arrivals may also be ON/OFF bursts (`.bursty(burst_len, peak_gap)`,
//! [`ArrivalKind::OnOff`](traffic::ArrivalKind::OnOff)), or replay of a
//! recorded `cycle src dst len` text trace (`.trace(...)`,
//! [`traffic::Trace`]). Any run can *record* such a trace while it
//! executes ([`Scenario::run_capturing`](network::Scenario::run_capturing))
//! — a captured synthetic run replayed as a trace is bit-identical. Validation
//! catches inconsistent compositions — escape-VC shortages, turn models
//! on tori, impossible burst shapes, invalid fault sets — as typed
//! errors instead of mid-run panics.
//!
//! Topologies need not be perfect: kill links (explicitly or as a seeded
//! random draw) and route around them with the up*/down* family
//! ([`routing::UpDown`]), whose escape network is proven deadlock-free
//! per instance by the channel-dependency-graph machinery. Faults
//! compile down to table contents and candidate masks — the cycle loop
//! never sees them:
//!
//! ```
//! use lapses::prelude::*;
//!
//! let result = Scenario::builder()
//!     .mesh_2d(4, 4)
//!     .faults(&[(5, 6)])                    // kill the (1,1)-(2,1) link
//!     .algorithm(Algorithm::UpDownAdaptive) // minimal adaptive over up*/down*
//!     .load(0.15)
//!     .message_counts(50, 300)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(!result.saturated);
//! ```
//!
//! Whole figures are grids of scenarios swept along
//! [`ScenarioAxis`](network::ScenarioAxis) dimensions (load, burst
//! length, algorithm, topology extent, fault density);
//! [`SweepRunner`](network::SweepRunner) executes a grid on every core
//! and aggregates a [`SweepReport`](network::SweepReport) that is
//! bit-identical to a single-threaded run of the same master seed. Its
//! `to_tables` gives one [`Table`](network::report::Table) per x axis,
//! through the one renderer of every table in the workspace (aligned
//! text, or `to_csv`):
//!
//! ```
//! use lapses::prelude::*;
//!
//! let base = Scenario::builder()
//!     .mesh_2d(4, 4)
//!     .lookahead(true)
//!     .message_counts(50, 400);
//! let uniform = base.clone().pattern(Pattern::Uniform).build().unwrap();
//! let bursty = base.pattern(Pattern::Transpose).bursty(4, 2.0).build().unwrap();
//! let grid = SweepGrid::new()
//!     .scenario_series("uniform", &uniform, &ScenarioAxis::Load(vec![0.1, 0.2]))
//!     .unwrap()
//!     .scenario_series("bursty", &bursty, &ScenarioAxis::BurstLen(vec![2, 8]))
//!     .unwrap();
//! let report = SweepRunner::new().with_master_seed(7).run(&grid);
//! // One table per x axis, its first column headed by the axis name.
//! let csv: Vec<String> = report.to_tables().iter().map(|t| t.to_csv()).collect();
//! let x_column = |csv: &str| -> Vec<String> {
//!     csv.lines().map(|l| l.split(',').next().unwrap().to_string()).collect()
//! };
//! assert_eq!(csv.len(), 2);
//! assert_eq!(x_column(&csv[0]), ["load", "0.10", "0.20"]);
//! assert_eq!(x_column(&csv[1]), ["burst-length", "2", "8"]);
//! assert!(report.saturation_summary().iter().all(|s| s.saturation_load.is_none()));
//! ```
//!
//! Scenarios also have a text form, [`ScenarioSpec`](network::ScenarioSpec)
//! (`examples/scenarios/*.scn`), with an exact parse/format round-trip —
//! so sweeps can be driven from committed spec files:
//!
//! ```
//! use lapses::prelude::*;
//!
//! let spec = ScenarioSpec::parse(
//!     "topology = mesh 8x8\n\
//!      lookahead = true\n\
//!      workload = bursty 8 2\n\
//!      load = 0.15\n\
//!      warmup = 50\n\
//!      measure = 400\n",
//! ).unwrap();
//! assert_eq!(ScenarioSpec::parse(&spec.format()).unwrap(), spec);
//! let scenario = spec.to_scenario(std::path::Path::new(".")).unwrap();
//! assert!(!scenario.run().saturated);
//! ```
//!
//! The `lapses-bench` crate regenerates every table and figure of the
//! paper's evaluation on top of the same scenario + sweep engine. Its
//! `paper` module defines every experiment once: Figs. 5 and 6 and
//! Tables 3 and 4 with the paper's values, the ablations and the burst
//! sweep, each with its claims, and Table 5's storage costs.
//! `cargo bench -p lapses-bench --bench paper -- fig5` renders one of
//! them, and `tests/paper_fidelity.rs` checks the claims.
//!
//! # Performance
//!
//! The cycle loop is **activity-tracked**: each cycle steps only routers
//! that hold flits and NICs with injectable work, found through
//! word-packed active sets that flit deliveries, message offers and
//! credit returns keep up to date (see the scheduler invariants in
//! [`network::network`]). Flits are sized by what the datapath reads:
//! a 16-byte `Copy` POD at the router's boundaries, and inside a router
//! one kind byte per buffer slot, with one VC header per live
//! `(port, VC)`. A message's routing state (record
//! handle, destination, look-ahead entry) is stored once, with its head,
//! as in the paper's header-only routing — so a body or tail flit moves
//! one byte per hop. The per-message bookkeeping (source, timestamps,
//! measurement flag) lives in a slab of per-message records, NICs queue
//! one compact descriptor per message and build each flit as they inject
//! it, and launches stream from the router pipeline straight onto the
//! wires through [`core::StepSink`] with no intermediate staging.
//! Compiled state is sized by the network it describes: a faulty mesh
//! keeps its surviving-link table and no all-pairs distances, and an
//! up*/down* program keeps at most two bytes per (router, destination),
//! built with one BFS per destination.
//! There is one cycle loop: one router walk, one delivery protocol and one
//! scheduler. Its simulated behaviour is pinned bit for bit by golden
//! fingerprints in the `golden_fingerprints`, `scheduler_equivalence` and
//! `scenario_equivalence` integration tests of `lapses-network` (the
//! paper's patterns under PROUD and LA-PROUD on meshes, tori, a 3-D mesh
//! and a faulty mesh, the 8×8 paper grid under four seeds, the saturation
//! cut-off, and the pinned reference sweep) and, cycle by cycle, by
//! per-cycle hash pins in the router and network unit tests.
//!
//! Performance is measured same-host by the stand-alone `perfbench/`
//! package, which checks golden simulated fingerprints before it times
//! anything (see its module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lapses_core as core;
pub use lapses_network as network;
pub use lapses_routing as routing;
pub use lapses_sim as sim;
pub use lapses_topology as topology;
pub use lapses_traffic as traffic;

/// The names most programs need.
pub mod prelude {
    pub use lapses_core::psh::PathSelection;
    pub use lapses_core::tables::{
        EconomicalTable, FullTable, IntervalTable, MetaTable, TableScheme,
    };
    pub use lapses_core::{PipelineModel, RouterConfig};
    pub use lapses_network::{
        Algorithm, ArrivalKind, CutoffPolicy, FaultsConfig, Pattern, Scenario, ScenarioAxis,
        ScenarioBuilder, ScenarioError, ScenarioSpec, SimResult, SpecError, SweepGrid, SweepReport,
        SweepRunner, TableKind, WorkloadKind,
    };
    pub use lapses_routing::{RoutingAlgorithm, UpDown};
    pub use lapses_sim::{Cycle, SimRng};
    pub use lapses_topology::{FaultError, FaultSet, FaultyMesh, Mesh, NodeId, Port, PortSet};
    pub use lapses_traffic::{LengthDistribution, Trace, Workload};
}
