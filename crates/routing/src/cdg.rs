//! Channel-dependency-graph (CDG) deadlock analysis.
//!
//! Dally's criterion: a routing relation is deadlock-free on a given
//! topology if its channel dependency graph is acyclic. Duato's extension
//! (the theory behind the paper's routing algorithm) only requires the
//! *escape* subnetwork's CDG to be acyclic, while the adaptive channels may
//! form cycles as long as every message can always fall back to escape.
//!
//! This module builds the CDG of a routing relation exhaustively for a
//! concrete topology instance and reports a witness cycle if one exists.
//! The workspace test-suite uses it to verify that:
//!
//! * dimension-order routing on a mesh is acyclic (valid escape),
//! * the torus dimension-order escape is cyclic with one virtual-channel
//!   class but acyclic with two dateline classes,
//! * unrestricted minimal-adaptive routing is cyclic (hence needs escape),
//! * turn-model relations are acyclic (deadlock-free without escape).
//!
//! # Example
//!
//! ```
//! use lapses_routing::cdg::ChannelGraph;
//! use lapses_routing::{DimensionOrder, DuatoAdaptive};
//! use lapses_topology::Mesh;
//!
//! let mesh = Mesh::mesh_2d(4, 4);
//! let escape = ChannelGraph::escape_network(&mesh, &DimensionOrder::new());
//! assert!(escape.is_acyclic());
//!
//! let adaptive = ChannelGraph::adaptive_network(&mesh, &DuatoAdaptive::new());
//! assert!(!adaptive.is_acyclic()); // needs the escape channel
//! ```

use crate::algorithms::RoutingAlgorithm;
use lapses_topology::{Direction, FaultyMesh, Mesh, NodeId, Port};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a (link, virtual-class) channel in a [`ChannelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(u32);

impl ChannelId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A channel dependency graph over the directed links of a topology,
/// optionally multiplied by virtual-channel classes.
#[derive(Debug, Clone)]
pub struct ChannelGraph {
    dims: usize,
    classes: usize,
    shape: Vec<u16>,
    adjacency: Vec<Vec<u32>>,
}

impl ChannelGraph {
    /// Builds the CDG of an arbitrary positional routing relation.
    ///
    /// `route(here, dest)` returns the `(direction, class)` channels a
    /// message at `here` headed to `dest` may request. A dependency edge is
    /// added from channel `(u→v, c1)` to `(v→w, c2)` whenever some
    /// destination lets a message hold the former while requesting the
    /// latter.
    ///
    /// `classes` is the number of virtual-channel classes the relation uses
    /// (1 for plain relations, 2 for a torus dateline escape).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero or the relation emits an out-of-range
    /// class or a non-existent link.
    pub fn for_relation<F>(mesh: &Mesh, classes: usize, route: F) -> ChannelGraph
    where
        F: Fn(NodeId, NodeId) -> Vec<(Direction, usize)>,
    {
        assert!(classes > 0, "at least one virtual-channel class required");
        let dirs = 2 * mesh.dims();
        let channel_count = mesh.node_count() * dirs * classes;
        let mut edges: Vec<HashSet<u32>> = vec![HashSet::new(); channel_count];

        let chan = |node: NodeId, dir: Direction, class: usize| -> u32 {
            let dir_idx = Port::from(dir).index() - 1;
            ((node.index() * dirs + dir_idx) * classes + class) as u32
        };

        for u in mesh.nodes() {
            for dest in mesh.nodes() {
                if u == dest {
                    continue;
                }
                for (dir_uv, c1) in route(u, dest) {
                    assert!(c1 < classes, "relation emitted class {c1} out of range");
                    let v = mesh
                        .neighbor(u, dir_uv)
                        .expect("relation routed over a missing link");
                    if v == dest {
                        continue; // message is consumed at v
                    }
                    let holding = chan(u, dir_uv, c1);
                    for (dir_vw, c2) in route(v, dest) {
                        assert!(c2 < classes, "relation emitted class {c2} out of range");
                        assert!(
                            mesh.neighbor(v, dir_vw).is_some(),
                            "relation routed over a missing link"
                        );
                        edges[holding as usize].insert(chan(v, dir_vw, c2));
                    }
                }
            }
        }

        ChannelGraph {
            dims: mesh.dims(),
            classes,
            shape: mesh.shape().to_vec(),
            adjacency: edges
                .into_iter()
                .map(|s| {
                    let mut v: Vec<u32> = s.into_iter().collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
        }
    }

    /// CDG of an algorithm's escape subnetwork (deterministic escape port
    /// with its dateline subclassing).
    pub fn escape_network(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> ChannelGraph {
        Self::for_relation(mesh, algo.escape_subclasses(mesh), |here, dest| {
            algo.escape_port(mesh, here, dest)
                .and_then(Port::direction)
                .map(|d| (d, algo.escape_subclass(mesh, here, dest)))
                .into_iter()
                .collect()
        })
    }

    /// CDG of an algorithm's adaptive relation on a single class.
    pub fn adaptive_network(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> ChannelGraph {
        Self::for_relation(mesh, 1, |here, dest| {
            algo.candidates(mesh, here, dest)
                .iter()
                .filter_map(Port::direction)
                .map(|d| (d, 0))
                .collect()
        })
    }

    /// Builds the CDG of a relation over a *faulty* topology instance,
    /// additionally asserting the relation never routes over a dead link —
    /// so deadlock freedom is checked per faulty instance, not assumed.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ChannelGraph::for_relation`],
    /// plus whenever the relation emits a direction whose link is dead.
    pub fn for_faulty_relation<F>(fmesh: &FaultyMesh, classes: usize, route: F) -> ChannelGraph
    where
        F: Fn(NodeId, NodeId) -> Vec<(Direction, usize)>,
    {
        Self::for_relation(fmesh.mesh(), classes, |here, dest| {
            let out = route(here, dest);
            for (dir, _) in &out {
                assert!(
                    fmesh.neighbor(here, *dir).is_some(),
                    "relation routed over the dead link {here} {dir}"
                );
            }
            out
        })
    }

    /// CDG of an algorithm's escape subnetwork over a faulty instance
    /// (the faulty twin of [`ChannelGraph::escape_network`]).
    pub fn escape_network_faulty(fmesh: &FaultyMesh, algo: &dyn RoutingAlgorithm) -> ChannelGraph {
        let mesh = fmesh.mesh();
        Self::for_faulty_relation(fmesh, algo.escape_subclasses(mesh), |here, dest| {
            algo.escape_port(mesh, here, dest)
                .and_then(Port::direction)
                .map(|d| (d, algo.escape_subclass(mesh, here, dest)))
                .into_iter()
                .collect()
        })
    }

    /// Number of channels (graph vertices).
    pub fn channel_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Finds a dependency cycle, returned as a channel sequence in which
    /// each channel depends on the next and the last depends on the first;
    /// `None` when the graph is acyclic.
    pub fn find_cycle(&self) -> Option<Vec<ChannelId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.adjacency.len();
        let mut color = vec![Color::White; n];
        // Iterative DFS keeping the gray path on an explicit stack.
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Stack of (node, next edge index to explore).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                if *edge < self.adjacency[node].len() {
                    let next = self.adjacency[node][*edge] as usize;
                    *edge += 1;
                    match color[next] {
                        Color::White => {
                            color[next] = Color::Gray;
                            stack.push((next, 0));
                        }
                        Color::Gray => {
                            // Found a back edge: the cycle is the stack
                            // suffix starting at `next`.
                            let pos = stack
                                .iter()
                                .position(|&(v, _)| v == next)
                                .expect("gray node is on the stack");
                            return Some(
                                stack[pos..]
                                    .iter()
                                    .map(|&(v, _)| ChannelId(v as u32))
                                    .collect(),
                            );
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Whether the dependency graph has no cycle (Dally's deadlock-freedom
    /// criterion for the relation).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Human-readable description of a channel ("(1,2) +d0 class 0").
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn describe(&self, id: ChannelId) -> String {
        let dirs = 2 * self.dims;
        let idx = id.index();
        assert!(idx < self.channel_count(), "channel id out of range");
        let class = idx % self.classes;
        let rest = idx / self.classes;
        let dir_idx = rest % dirs;
        let node = rest / dirs;
        let dir = Port::from_index(dir_idx + 1)
            .direction()
            .expect("non-local port");
        let mesh = Mesh::mesh(&self.shape);
        let coord = mesh.coord_of(NodeId(node as u32));
        format!("{coord} {dir} class {class}")
    }
}

impl fmt::Display for ChannelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CDG: {} channels, {} edges, {}",
            self.channel_count(),
            self.edge_count(),
            if self.is_acyclic() {
                "acyclic"
            } else {
                "cyclic"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{DimensionOrder, DuatoAdaptive, TurnModel, TurnModelKind};

    #[test]
    fn xy_escape_on_mesh_is_acyclic() {
        let mesh = Mesh::mesh_2d(4, 4);
        let g = ChannelGraph::escape_network(&mesh, &DimensionOrder::new());
        assert!(g.is_acyclic(), "XY mesh escape must be deadlock-free");
    }

    #[test]
    fn unrestricted_adaptive_on_mesh_is_cyclic() {
        let mesh = Mesh::mesh_2d(3, 3);
        let g = ChannelGraph::adaptive_network(&mesh, &DuatoAdaptive::new());
        let cycle = g.find_cycle().expect("minimal adaptive must have cycles");
        assert!(cycle.len() >= 2);
        // Every channel in the witness cycle is describable.
        for c in cycle {
            assert!(!g.describe(c).is_empty());
        }
    }

    #[test]
    fn turn_models_are_acyclic_without_escape() {
        let mesh = Mesh::mesh_2d(4, 4);
        for kind in [
            TurnModelKind::NorthLast,
            TurnModelKind::WestFirst,
            TurnModelKind::NegativeFirst,
        ] {
            let tm = TurnModel::new(kind);
            let g = ChannelGraph::adaptive_network(&mesh, &tm);
            assert!(g.is_acyclic(), "{:?} should be acyclic", kind);
            assert!(tm.deadlock_free_without_escape());
        }
    }

    #[test]
    fn torus_dor_needs_dateline_classes() {
        let torus = Mesh::torus_2d(4, 4);
        let xy = DimensionOrder::new();

        // Single class: the ring dependency is cyclic.
        let single = ChannelGraph::for_relation(&torus, 1, |here, dest| {
            xy.escape_port(&torus, here, dest)
                .and_then(Port::direction)
                .map(|d| (d, 0))
                .into_iter()
                .collect()
        });
        assert!(!single.is_acyclic(), "torus DOR with 1 VC must deadlock");

        // Two dateline classes: acyclic.
        let dateline = ChannelGraph::escape_network(&torus, &xy);
        assert!(
            dateline.is_acyclic(),
            "torus DOR with dateline classes must be deadlock-free"
        );
    }

    #[test]
    fn three_dim_dor_is_acyclic() {
        let mesh = Mesh::mesh_3d(3, 3, 3);
        let g = ChannelGraph::escape_network(&mesh, &DimensionOrder::new());
        assert!(g.is_acyclic());
    }

    #[test]
    fn channel_count_accounts_for_classes() {
        let mesh = Mesh::mesh_2d(4, 4);
        let g1 = ChannelGraph::adaptive_network(&mesh, &DuatoAdaptive::new());
        assert_eq!(g1.channel_count(), 16 * 4);
        let torus = Mesh::torus_2d(4, 4);
        let g2 = ChannelGraph::escape_network(&torus, &DimensionOrder::new());
        assert_eq!(g2.channel_count(), 16 * 4 * 2);
    }

    #[test]
    fn display_summarizes() {
        let mesh = Mesh::mesh_2d(3, 3);
        let g = ChannelGraph::escape_network(&mesh, &DimensionOrder::new());
        let s = g.to_string();
        assert!(s.contains("channels"));
        assert!(s.contains("acyclic"));
    }

    #[test]
    fn describe_decodes_channels() {
        let mesh = Mesh::mesh_2d(3, 3);
        let g = ChannelGraph::escape_network(&mesh, &DimensionOrder::new());
        let d = g.describe(ChannelId(0));
        assert!(d.contains("(0,0)"), "got {d}");
        assert!(d.contains("class 0"), "got {d}");
    }
}
