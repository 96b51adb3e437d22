//! Cycle-level wormhole network simulator for the LAPSES study.
//!
//! This crate assembles [`lapses_core::Router`]s into a mesh or torus,
//! connects them with unit-delay links and credit return paths, attaches a
//! network interface (injection queue + ejection sink) to every node, and
//! drives the whole system cycle by cycle — the reconstruction of the
//! paper's "PROUD network simulator".
//!
//! The one experiment-facing entry point is [`scenario::Scenario`]: compose
//! topology, router, table scheme, routing algorithm, **workload**
//! (synthetic, bursty, or trace replay — see [`lapses_traffic::workload`])
//! and run policy through the validating builder, then run it — alone, or
//! as a point of a [`sweep::SweepGrid`] swept along [`sweep::ScenarioAxis`]
//! dimensions — to obtain a [`stats::SimResult`] with the latency
//! statistics the paper reports. Invalid compositions are typed
//! [`ScenarioError`]s at build time, so nothing that reaches the cycle
//! loop can panic on its input. Scenarios also round-trip through a text
//! form, [`spec::ScenarioSpec`]; [`Scenario::config`] exposes the compiled
//! [`experiment::SimConfig`] read-only.
//!
//! # Example
//!
//! ```
//! use lapses_network::scenario::Scenario;
//! use lapses_network::Pattern;
//!
//! // A small, fast scenario (the paper's is 16x16 with 400k messages).
//! let result = Scenario::builder()
//!     .mesh_2d(8, 8)
//!     .lookahead(true)
//!     .pattern(Pattern::Uniform)
//!     .load(0.2)
//!     .message_counts(200, 2_000)
//!     .seed(7)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(!result.saturated);
//! assert!(result.avg_latency > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod network;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod stats;
pub mod sweep;

mod active;
mod delivery;
mod messages;
mod nic;

pub use experiment::{Algorithm, ArrivalKind, FaultsConfig, Pattern, TableKind, WorkloadKind};
pub use network::{Network, MAX_LINK_DELAY, MAX_NODES};
pub use report::SweepReport;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioError};
pub use spec::{ScenarioSpec, SpecError};
pub use stats::SimResult;
pub use sweep::{CutoffPolicy, ScenarioAxis, SweepGrid, SweepRunner};
