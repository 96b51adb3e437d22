//! The LAPSES router microarchitecture — the paper's primary contribution.
//!
//! This crate implements the three ingredients of the LAPSES recipe on top
//! of a faithful reconstruction of the paper's pipelined wormhole router:
//!
//! * **LA — look-ahead routing** ([`config::PipelineModel`]): the PROUD
//!   router is a five-stage pipe (sync/decode → table lookup → selection +
//!   arbitration → crossbar → VC mux); LA-PROUD folds the table lookup into
//!   the selection stage by carrying each router's candidate ports in the
//!   header flit ([`flit::Flit::lookahead`]), cutting one stage.
//! * **PS — path-selection heuristics** ([`psh::PathSelection`]): STATIC-XY,
//!   MIN-MUX, LFU, LRU and MAX-CREDIT (plus a random baseline), applied when
//!   the adaptive routing relation offers several productive output ports.
//! * **ES — economical storage** ([`tables`]): full per-destination tables,
//!   two-level meta-tables (with the paper's minimal- and maximal-adaptivity
//!   cluster labelings), the proposed 3ⁿ-entry economical-storage tables,
//!   and interval routing for comparison.
//!
//! The [`router::Router`] type is a cycle-accurate model of one such router:
//! per-VC input buffers, credit-based flow control, separable switch
//! allocation, and escape/adaptive virtual-channel classes implementing
//! Duato's protocol. The companion `lapses-network` crate wires routers
//! into a mesh and drives them.
//!
//! # Example
//!
//! ```
//! use lapses_core::config::RouterConfig;
//! use lapses_core::psh::PathSelection;
//!
//! // The paper's adaptive look-ahead router: 4 VCs, 1 escape VC,
//! // 20-flit buffers, LRU path selection.
//! let cfg = RouterConfig::paper_adaptive()
//!     .with_lookahead(true)
//!     .with_path_selection(PathSelection::Lru);
//! assert_eq!(cfg.pipeline.header_stages(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flit;
pub mod psh;
pub mod router;
pub mod tables;

mod arbiter;

pub use config::{PipelineModel, RouterConfig};
pub use flit::{ColdFlit, Flit, FlitKind, MessageId, MsgRef};
pub use psh::PathSelection;
pub use router::{Router, StepOutputs, StepSink, MAX_VC_SLOTS};
pub use tables::{RouteEntry, RouterTable, TableScheme};
