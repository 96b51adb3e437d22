//! Routing algorithms and deadlock analysis for the LAPSES router study.
//!
//! The paper (§2.3) uses **Duato's fully adaptive algorithm** as the running
//! example — minimal fully-adaptive routing on the *adaptive* virtual
//! channels with deterministic dimension-order routing on an *escape*
//! channel — and notes the discussion "is valid for other fully adaptive
//! algorithms as well". Fig. 7 additionally programs an economical-storage
//! table for **North-Last** partially-adaptive routing (Glass & Ni's turn
//! model). This crate provides:
//!
//! * [`RoutingAlgorithm`] — the per-hop routing relation: adaptive candidate
//!   ports, the deterministic escape route, and (for tori) the dateline
//!   escape subclass;
//! * [`Algorithm`] — the scenario's routing selector, whose five classic
//!   variants are relations themselves: deterministic dimension-order
//!   (XY/XYZ, the paper's deterministic baseline and Duato's escape),
//!   Duato's minimal fully-adaptive routing over that escape, and the
//!   North-Last, West-First and Negative-First turn models for 2-D
//!   meshes;
//! * [`UpDown`] — BFS-rooted up*/down* routing over the surviving links of
//!   a faulty (or perfect) mesh/torus: the table-programming story for
//!   irregular networks, usable standalone (deterministic, deadlock-free
//!   without escape VCs) or as the escape function under minimal-adaptive
//!   candidates ([`UpDown::adaptive`]);
//! * [`cdg`] — channel-dependency-graph construction and cycle detection,
//!   used to *prove* (exhaustively, per topology instance — faulty
//!   instances included) that the escape networks used here are
//!   deadlock-free and that unrestricted minimal adaptive routing is not.
//!
//! # Faulty topologies
//!
//! ```
//! use lapses_routing::{RoutingAlgorithm, UpDown};
//! use lapses_routing::cdg::ChannelGraph;
//! use lapses_topology::{FaultSet, FaultyMesh, Mesh, NodeId};
//! use std::sync::Arc;
//!
//! let mesh = Mesh::mesh_2d(4, 4);
//! let faults = FaultSet::new(&mesh, &[(NodeId(1), NodeId(2))]).unwrap();
//! let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).unwrap());
//! let updown = UpDown::adaptive(Arc::clone(&fmesh));
//! // Candidates avoid the dead link; the escape CDG is provably acyclic.
//! assert!(!updown
//!     .candidates(&mesh, NodeId(1), NodeId(2))
//!     .contains(lapses_topology::Port::from(lapses_topology::Direction::plus(0))));
//! assert!(ChannelGraph::escape_network_faulty(&fmesh, &updown).is_acyclic());
//! ```
//!
//! # Example
//!
//! ```
//! use lapses_routing::{Algorithm, RoutingAlgorithm};
//! use lapses_topology::Mesh;
//!
//! let mesh = Mesh::mesh_2d(16, 16);
//! let here = mesh.id_at(&[1, 1]).unwrap();
//! let dest = mesh.id_at(&[3, 4]).unwrap();
//!
//! let xy = Algorithm::DimensionOrder;
//! assert_eq!(xy.candidates(&mesh, here, dest).len(), 1); // deterministic
//!
//! let duato = Algorithm::Duato;
//! assert_eq!(duato.candidates(&mesh, here, dest).len(), 2); // +X and +Y
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdg;

mod algorithms;
mod updown;

pub use algorithms::{torus_dateline_subclass, Algorithm, RoutingAlgorithm};
pub use updown::UpDown;
