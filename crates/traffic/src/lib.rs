//! Synthetic workloads for the LAPSES router study.
//!
//! The paper drives its 16×16 mesh with four synthetic traffic patterns —
//! **uniform**, **transpose**, **bit-reversal** and **perfect-shuffle** —
//! "consistent with standard definitions for synthetic traffic patterns
//! used in interconnection network studies", with exponentially distributed
//! message inter-arrival times and 20-flit messages (Table 2). This crate
//! implements those patterns (plus the usual extras: bit-complement,
//! tornado, hotspot, nearest-neighbor) as the [`Pattern`] enum, the
//! arrival processes as [`ArrivalKind`] (plus this repo's on/off bursty
//! arrivals), message length distributions, and the per-node
//! [`Generator`] that ties them together. A run's [`Workload`] is one
//! concrete type holding either a generator per node or the replay of a
//! recorded [`Trace`].
//!
//! # Example
//!
//! ```
//! use lapses_sim::SimRng;
//! use lapses_topology::Mesh;
//! use lapses_traffic::Pattern;
//!
//! let mesh = Mesh::mesh_2d(16, 16);
//! let src = mesh.id_at(&[3, 5]).unwrap();
//! let mut rng = SimRng::from_seed(1);
//! let dest = Pattern::Transpose.destination(&mesh, src, &mut rng).unwrap();
//! assert_eq!(mesh.coord_of(dest).components(), &[5, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod lengths;
pub mod patterns;
pub mod trace;
pub mod workload;

mod generator;

pub use arrivals::ArrivalKind;
pub use generator::{Generator, MessageSpec};
pub use lengths::LengthDistribution;
pub use patterns::Pattern;
pub use trace::{Trace, TraceError, TraceEvent};
pub use workload::Workload;
