//! Topologies for the LAPSES router study.
//!
//! The paper evaluates on a 16×16 two-dimensional mesh and argues its
//! economical-storage scheme generalizes to *n*-dimensional meshes and tori
//! (§5.2.1), so this crate implements the general case:
//!
//! * [`Coord`] — an n-dimensional coordinate (n ≤ [`MAX_DIMS`]);
//! * [`NodeId`] — a dense node index with bidirectional coordinate mapping;
//! * [`Direction`] / [`Port`] / [`PortSet`] — router ports: one *local*
//!   (consume/exit) port plus ± directions per dimension, with a compact
//!   bitset for candidate-path sets;
//! * [`Mesh`] — n-dimensional mesh or torus: neighbors, minimal distances,
//!   productive directions, bisection capacity;
//! * [`SignVec`] — the per-dimension sign of a destination-relative
//!   coordinate; the index type of the paper's 3ⁿ-entry economical-storage
//!   routing table;
//! * [`labeling`] — node-labeling schemes (row-major clusters vs square
//!   blocks, Fig. 8) used by hierarchical meta-table routing;
//! * [`FaultSet`] / [`FaultyMesh`] — validated dead-link sets and the
//!   surviving-links view of a mesh, the substrate for up*/down* routing
//!   around broken links (connectivity-checked; random sets are drawn
//!   deterministically from a seed).
//!
//! # Example
//!
//! ```
//! use lapses_topology::Mesh;
//!
//! let mesh = Mesh::mesh_2d(16, 16); // the paper's 256-node network
//! assert_eq!(mesh.node_count(), 256);
//! let a = mesh.id_at(&[0, 0]).unwrap();
//! let b = mesh.id_at(&[3, 2]).unwrap();
//! assert_eq!(mesh.distance(a, b), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod labeling;

mod coord;
mod fault;
mod mesh;
mod port;
mod sign;

pub use coord::{Coord, MAX_DIMS};
pub use fault::{FaultError, FaultSet, FaultyMesh};
pub use mesh::{Mesh, MeshError};
pub use port::{Direction, Port, PortSet, Sign};
pub use sign::SignVec;

/// A dense node identifier within a topology.
///
/// Node ids are row-major ranks of the node coordinate: for a 16×16 mesh,
/// node `(x, y)` has id `y * 16 + x`, matching the labeling in the paper's
/// Fig. 8(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
