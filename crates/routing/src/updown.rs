//! Up*/down* routing over faulty (or perfect) topologies.
//!
//! Up*/down* is the classic table-programmable routing function for
//! irregular networks (Autonet; Silla & Duato's adaptive extension for
//! NOWs): orient every surviving link as *up* (toward a BFS root) or
//! *down* (away from it), and restrict legal routes to zero or more up
//! hops followed by zero or more down hops. Because no route ever turns
//! from down back to up, the channel dependency graph is acyclic for
//! *any* connected link set — exactly the property a network with dead
//! links needs, where dimension-order escapes no longer exist.
//!
//! [`UpDown`] implements the relation positionally (per `(here, dest)`
//! pair, the form routing tables store):
//!
//! * the **escape route** prefers the down phase — whenever a down-only
//!   path to the destination exists it takes its first hop, otherwise it
//!   climbs toward the root along the cheapest up link. "Down if
//!   possible" makes the per-destination relation *coherent*: a hop taken
//!   in the down phase always lands on a node that is itself in the down
//!   phase, so every executed path is a legal up*…down* sequence (a
//!   property the test-suite walks exhaustively and the CDG machinery
//!   re-proves per instance);
//! * in **adaptive** mode ([`UpDown::adaptive`]) the candidate set is the
//!   surviving minimal ports of the faulty graph
//!   ([`FaultyMesh::productive_ports`]), with the up*/down* route as the
//!   Duato-style escape — Silla & Duato's minimal-adaptive protocol for
//!   irregular topologies.
//!
//! Routes are precomputed at construction: the up*/down* order comes from
//! the faulty mesh's precomputed distances to the root, then each
//! destination takes one reverse BFS, one rank-ordered scan and one
//! port-choice pass, all reading the faulty mesh's surviving-link table —
//! O(n² · ports) for n nodes. The [`RoutingAlgorithm`] queries used by
//! table programming are then O(1) loads (adaptive candidates are
//! [`FaultyMesh::productive_ports`], O(ports)).
//!
//! # Example
//!
//! ```
//! use lapses_routing::cdg::ChannelGraph;
//! use lapses_routing::UpDown;
//! use lapses_topology::{FaultSet, FaultyMesh, Mesh, NodeId};
//! use std::sync::Arc;
//!
//! let mesh = Mesh::mesh_2d(4, 4);
//! let faults = FaultSet::new(&mesh, &[(NodeId(5), NodeId(6))]).unwrap();
//! let fmesh = Arc::new(FaultyMesh::new(mesh, faults).unwrap());
//! let updown = UpDown::new(Arc::clone(&fmesh));
//! // The escape network stays deadlock-free despite the dead link.
//! assert!(ChannelGraph::escape_network_faulty(&fmesh, &updown).is_acyclic());
//! ```

use crate::algorithms::RoutingAlgorithm;
use lapses_topology::{FaultyMesh, Mesh, NodeId, Port, PortSet};
use std::sync::Arc;

/// BFS-rooted up*/down* routing over the surviving links of a
/// [`FaultyMesh`] (which may be fault-free). See the module docs.
#[derive(Debug, Clone)]
pub struct UpDown {
    fmesh: Arc<FaultyMesh>,
    adaptive: bool,
    /// Total order on nodes: BFS level from the root, ties by id. An
    /// `u → v` link is *up* iff `rank[v] < rank[u]`.
    rank: Vec<u32>,
    /// Flattened `esc[dest * n + node]`: the escape port's index.
    esc: Vec<u8>,
}

impl UpDown {
    /// Deterministic up*/down* routing: the candidate set is the single
    /// escape route (like dimension-order, the relation alone is
    /// deadlock-free, so no escape VCs are required).
    pub fn new(fmesh: Arc<FaultyMesh>) -> UpDown {
        Self::build(fmesh, false)
    }

    /// Minimal-adaptive routing over the up*/down* escape: candidates are
    /// the surviving productive ports of the faulty graph; the escape VC
    /// follows up*/down*. Requires at least one escape VC.
    pub fn adaptive(fmesh: Arc<FaultyMesh>) -> UpDown {
        Self::build(fmesh, true)
    }

    fn build(fmesh: Arc<FaultyMesh>, adaptive: bool) -> UpDown {
        let n = fmesh.node_count();
        let by_rank = Self::rank_order(&fmesh);
        let mut rank = vec![0u32; n];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = r as u32;
        }

        let mut esc = vec![0u8; n * n];
        let mut dist_down = vec![u32::MAX; n];
        let mut cost = vec![u32::MAX; n];
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        for (dest, esc_row) in esc.chunks_exact_mut(n.max(1)).enumerate() {
            // Shortest down-only distance to `dest`: reverse BFS relaxing
            // predecessors u of x whose link u→x is a down link
            // (rank[u] < rank[x]).
            dist_down.fill(u32::MAX);
            dist_down[dest] = 0;
            queue.clear();
            queue.push(NodeId(dest as u32));
            let mut head = 0;
            while let Some(&x) = queue.get(head) {
                head += 1;
                let d = dist_down[x.index()] + 1;
                for (_, u) in fmesh.links(x) {
                    if rank[u.index()] < rank[x.index()] && dist_down[u.index()] == u32::MAX {
                        dist_down[u.index()] = d;
                        queue.push(u);
                    }
                }
            }

            // Up-phase cost: cheapest legal up*…down* route length. Up
            // links point to strictly smaller ranks, so one increasing-rank
            // scan resolves every node (the root always has a finite
            // down-only distance — the BFS tree below it is all down
            // links — and every other node keeps its tree parent as an
            // up-neighbor).
            for &v in &by_rank {
                let v = NodeId(v);
                let mut best = dist_down[v.index()];
                for (_, w) in fmesh.links(v) {
                    if rank[w.index()] < rank[v.index()] {
                        best = best.min(cost[w.index()].saturating_add(1));
                    }
                }
                cost[v.index()] = best;
            }

            // The positional escape choice: down if possible, else the
            // cheapest up link; ties break on the lowest port index.
            for (node, slot) in esc_row.iter_mut().enumerate() {
                if node == dest {
                    continue;
                }
                let here_down = dist_down[node];
                let mut chosen: Option<(u32, Port)> = None;
                for (p, nb) in fmesh.links(NodeId(node as u32)) {
                    let key = if here_down != u32::MAX {
                        // Down phase: a down link one step closer on the
                        // down-only metric.
                        (rank[nb.index()] > rank[node] && dist_down[nb.index()] == here_down - 1)
                            .then_some(0)
                    } else if rank[nb.index()] < rank[node] {
                        // Up phase: rank the up links by total route cost.
                        Some(cost[nb.index()])
                    } else {
                        None
                    };
                    if let Some(k) = key {
                        if chosen.is_none_or(|(bk, _)| k < bk) {
                            chosen = Some((k, p));
                        }
                    }
                }
                let (_, port) = chosen.expect("connected faulty mesh always has an up*/down* hop");
                *slot = port.index() as u8;
            }
        }

        UpDown {
            fmesh,
            adaptive,
            rank,
            esc,
        }
    }

    /// Nodes in up*/down* order: BFS level from the root (node 0), ties by
    /// node id — the total order that classifies every link as up or down.
    /// The levels are the faulty mesh's hop distances from the root.
    fn rank_order(fmesh: &FaultyMesh) -> Vec<u32> {
        let mut order: Vec<u32> = (0..fmesh.node_count() as u32).collect();
        order.sort_unstable_by_key(|&v| (fmesh.distance(NodeId(0), NodeId(v)), v));
        order
    }

    /// The faulty topology this program was compiled for.
    pub fn fmesh(&self) -> &Arc<FaultyMesh> {
        &self.fmesh
    }

    /// Whether this is the minimal-adaptive variant.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// The node's position in the up*/down* total order (root is 0).
    pub fn rank_of(&self, node: NodeId) -> u32 {
        self.rank[node.index()]
    }

    /// Whether the directed hop `from → to` is an *up* link.
    pub fn is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.rank[to.index()] < self.rank[from.index()]
    }

    /// Table programming passes the program's own mesh by reference, so
    /// the pointer test settles the check without comparing shapes.
    #[inline]
    fn assert_mesh(&self, mesh: &Mesh) {
        assert!(
            std::ptr::eq(mesh, self.fmesh.mesh()) || mesh == self.fmesh.mesh(),
            "up*/down* program was compiled for a different topology"
        );
    }
}

impl RoutingAlgorithm for UpDown {
    fn name(&self) -> &'static str {
        if self.adaptive {
            "Up-Down-Adaptive"
        } else {
            "Up-Down"
        }
    }

    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet {
        self.assert_mesh(mesh);
        if here == dest {
            return PortSet::EMPTY;
        }
        if self.adaptive {
            self.fmesh.productive_ports(here, dest)
        } else {
            self.escape_port(mesh, here, dest)
                .map_or(PortSet::EMPTY, PortSet::single)
        }
    }

    fn escape_port(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> Option<Port> {
        self.assert_mesh(mesh);
        if here == dest {
            return None;
        }
        let n = self.fmesh.node_count();
        Some(Port::from_index(
            self.esc[dest.index() * n + here.index()] as usize,
        ))
    }

    /// Up*/down* needs no dateline classes, even on a torus: the up/down
    /// orientation argument is graph-agnostic (wrap links are just links).
    fn escape_subclasses(&self, _mesh: &Mesh) -> usize {
        1
    }

    fn deadlock_free_without_escape(&self) -> bool {
        !self.adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::ChannelGraph;
    use lapses_topology::FaultSet;

    fn faulty(mesh: Mesh, links: &[(u32, u32)]) -> Arc<FaultyMesh> {
        let pairs: Vec<_> = links.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let faults = FaultSet::new(&mesh, &pairs).unwrap();
        Arc::new(FaultyMesh::new(mesh, faults).unwrap())
    }

    /// Walks the escape relation from `src` to `dest`, asserting the path
    /// is a legal up*…down* sequence, and returns its length.
    fn walk(ud: &UpDown, src: NodeId, dest: NodeId) -> u32 {
        let mesh = ud.fmesh().mesh().clone();
        let mut at = src;
        let mut hops = 0u32;
        let mut gone_down = false;
        while at != dest {
            let p = ud.escape_port(&mesh, at, dest).expect("route exists");
            let next = ud
                .fmesh()
                .neighbor(at, p.direction().expect("direction port"))
                .expect("escape uses surviving links only");
            if ud.is_up(at, next) {
                assert!(!gone_down, "up hop after a down hop at {at}->{next}");
            } else {
                gone_down = true;
            }
            at = next;
            hops += 1;
            assert!(
                hops <= 4 * mesh.node_count() as u32,
                "{src}->{dest} does not terminate"
            );
        }
        hops
    }

    #[test]
    fn root_has_rank_zero_and_ranks_are_a_permutation() {
        let fmesh = faulty(Mesh::mesh_2d(4, 4), &[(1, 2), (5, 9)]);
        let ud = UpDown::new(fmesh);
        assert_eq!(ud.rank_of(NodeId(0)), 0);
        let mut seen: Vec<u32> = (0..16).map(|v| ud.rank_of(NodeId(v))).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn every_pair_routes_legally_on_faulty_meshes() {
        let fmesh = faulty(Mesh::mesh_2d(5, 5), &[(6, 7), (12, 17), (2, 3)]);
        let ud = UpDown::new(Arc::clone(&fmesh));
        for src in fmesh.mesh().nodes() {
            for dest in fmesh.mesh().nodes() {
                if src != dest {
                    walk(&ud, src, dest);
                }
            }
        }
    }

    #[test]
    fn fault_free_routes_are_reasonably_short() {
        // On a perfect mesh the down phase covers most pairs; routes stay
        // within the up-to-root + down-to-dest bound.
        let fmesh = faulty(Mesh::mesh_2d(4, 4), &[]);
        let ud = UpDown::new(Arc::clone(&fmesh));
        for src in fmesh.mesh().nodes() {
            for dest in fmesh.mesh().nodes() {
                if src == dest {
                    continue;
                }
                let hops = walk(&ud, src, dest);
                let bound = fmesh.distance(src, NodeId(0)) + fmesh.distance(NodeId(0), dest);
                assert!(hops <= bound, "{src}->{dest}: {hops} > {bound}");
            }
        }
    }

    #[test]
    fn escape_cdg_is_acyclic_with_and_without_faults() {
        for links in [&[][..], &[(5, 6), (9, 10), (1, 5)][..]] {
            let fmesh = faulty(Mesh::mesh_2d(4, 4), links);
            let ud = UpDown::new(Arc::clone(&fmesh));
            let g = ChannelGraph::escape_network_faulty(&fmesh, &ud);
            assert!(g.is_acyclic(), "faults {links:?} gave a cyclic escape CDG");
        }
    }

    #[test]
    fn adaptive_candidates_are_surviving_minimal_ports() {
        let fmesh = faulty(Mesh::mesh_2d(4, 4), &[(5, 6)]);
        let ud = UpDown::adaptive(Arc::clone(&fmesh));
        let mesh = fmesh.mesh().clone();
        for here in mesh.nodes() {
            for dest in mesh.nodes() {
                assert_eq!(
                    ud.candidates(&mesh, here, dest),
                    fmesh.productive_ports(here, dest)
                );
            }
        }
        assert!(ud.is_adaptive());
        assert!(!ud.deadlock_free_without_escape());
        assert_eq!(ud.name(), "Up-Down-Adaptive");
    }

    #[test]
    fn deterministic_variant_is_escape_only() {
        let fmesh = faulty(Mesh::mesh_2d(4, 4), &[]);
        let ud = UpDown::new(fmesh);
        let mesh = ud.fmesh().mesh().clone();
        let a = NodeId(1);
        let b = NodeId(14);
        assert_eq!(
            ud.candidates(&mesh, a, b),
            PortSet::single(ud.escape_port(&mesh, a, b).unwrap())
        );
        assert!(ud.candidates(&mesh, a, a).is_empty());
        assert!(ud.deadlock_free_without_escape());
        assert_eq!(ud.name(), "Up-Down");
    }

    #[test]
    fn torus_needs_only_one_escape_subclass() {
        let torus = Mesh::torus_2d(4, 4);
        let fmesh = Arc::new(FaultyMesh::new(torus.clone(), FaultSet::empty()).unwrap());
        let ud = UpDown::new(Arc::clone(&fmesh));
        assert_eq!(ud.escape_subclasses(&torus), 1);
        assert_eq!(ud.escape_subclass(&torus, NodeId(0), NodeId(5)), 0);
        let g = ChannelGraph::escape_network_faulty(&fmesh, &ud);
        assert!(g.is_acyclic(), "torus up*/down* must be deadlock-free");
        for src in torus.nodes() {
            for dest in torus.nodes() {
                if src != dest {
                    walk(&ud, src, dest);
                }
            }
        }
    }

    #[test]
    fn three_d_faulty_mesh_routes() {
        let mesh = Mesh::mesh_3d(3, 3, 3);
        let faults = FaultSet::random(&mesh, 4, 11).unwrap();
        let fmesh = Arc::new(FaultyMesh::new(mesh, faults).unwrap());
        let ud = UpDown::new(Arc::clone(&fmesh));
        assert!(ChannelGraph::escape_network_faulty(&fmesh, &ud).is_acyclic());
        for src in fmesh.mesh().nodes().step_by(3) {
            for dest in fmesh.mesh().nodes().step_by(5) {
                if src != dest {
                    walk(&ud, src, dest);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn mismatched_mesh_is_rejected() {
        let fmesh = faulty(Mesh::mesh_2d(4, 4), &[]);
        let ud = UpDown::new(fmesh);
        let other = Mesh::mesh_2d(5, 5);
        let _ = ud.escape_port(&other, NodeId(0), NodeId(1));
    }
}
