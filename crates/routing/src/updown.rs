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
//!   surviving minimal ports of the faulty graph (what
//!   [`FaultyMesh::productive_ports`] answers), with the up*/down* route
//!   as the Duato-style escape — Silla & Duato's minimal-adaptive
//!   protocol for irregular topologies.
//!
//! Routes are precomputed at construction. The up*/down* order comes
//! from one BFS from the root. Each destination then takes a BFS over
//! the surviving links (adaptive only: its hop distances give the
//! minimal ports), a reverse BFS over the down links, one rank-ordered
//! scan and one port-choice pass — O(n² · ports) time for n nodes, with
//! O(n) scratch reused across destinations. What is kept is at most two
//! bytes per `(node, destination)`: the escape port's index and, in
//! adaptive mode, the minimal ports as a direction-port bitmask. A last
//! scan of those bytes asserts that every stored port is a surviving link:
//! the one dead-link check behind every table scheme programmed from the
//! relation. The [`RoutingAlgorithm`] queries used by table programming
//! are O(1) loads.
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
    /// Adaptive only (empty otherwise), flattened like `esc`: the minimal
    /// ports as a bitmask of the direction ports, bit `i` for port index
    /// `i + 1` — the local port is never a candidate, so the eight
    /// direction ports of a 4-D topology fit one byte.
    minimal: Vec<u8>,
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
        // Nodes in up*/down* order: BFS level from the root (node 0), ties
        // by node id.
        let level = fmesh.distances_from(NodeId(0));
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        by_rank.sort_unstable_by_key(|&v| (level[v as usize], v));
        let mut rank = vec![0u32; n];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let links = Oriented::new(&fmesh, &rank);

        let mut esc = vec![0u8; n * n];
        let mut minimal = if adaptive {
            vec![0u8; n * n]
        } else {
            Vec::new()
        };
        let mut dist = vec![u32::MAX; n];
        let mut dist_down = vec![u32::MAX; n];
        let mut cost = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        for dest in 0..n {
            let row = dest * n..(dest + 1) * n;
            if adaptive {
                // Minimal ports: a BFS from `dest` meets every link u→x
                // that ends one hop closer to `dest` as x–u with u one
                // level further out.
                let bits = &mut minimal[row.clone()];
                bfs(
                    &mut dist,
                    &mut queue,
                    dest,
                    |x| links.all(x),
                    |u, p| {
                        bits[u] |= 1 << ((p - 1) ^ 1);
                    },
                );
            }
            // Shortest down-only distance to `dest`: a reverse BFS from
            // `dest` to the up-neighbors u of each reached x, whose link
            // u→x is a down link.
            bfs(&mut dist_down, &mut queue, dest, |x| links.up(x), |_, _| {});

            // Up-phase cost: cheapest legal up*…down* route length. Up
            // links point to strictly smaller ranks, so one increasing-rank
            // scan resolves every node (the root always has a finite
            // down-only distance — the BFS tree below it is all down
            // links — and every other node keeps its tree parent as an
            // up-neighbor).
            for &v in &by_rank {
                let v = v as usize;
                let mut best = dist_down[v];
                for &w in links.up(v).1 {
                    best = best.min(cost[w as usize].saturating_add(1));
                }
                cost[v] = best;
            }

            // The positional escape choice: down if possible, else the
            // cheapest up link; ties break on the lowest port index.
            for (node, slot) in esc[row].iter_mut().enumerate() {
                if node == dest {
                    continue;
                }
                let here_down = dist_down[node];
                let port = if here_down != u32::MAX {
                    // Down phase: the first down link one step closer on
                    // the down-only metric.
                    let (ports, nbs) = links.down(node);
                    ports
                        .iter()
                        .zip(nbs)
                        .find(|&(_, &nb)| dist_down[nb as usize] == here_down - 1)
                        .map(|(&p, _)| p)
                } else {
                    // Up phase: the up link of least total route cost.
                    let (ports, nbs) = links.up(node);
                    ports
                        .iter()
                        .zip(nbs)
                        .min_by_key(|&(_, &nb)| cost[nb as usize])
                        .map(|(&p, _)| p)
                };
                *slot = port.expect("connected faulty mesh always has an up*/down* hop");
            }
        }
        assert_alive(&fmesh, &esc, &minimal);

        UpDown {
            fmesh,
            adaptive,
            rank,
            esc,
            minimal,
        }
    }

    /// The faulty topology this program was compiled for.
    pub fn fmesh(&self) -> &Arc<FaultyMesh> {
        &self.fmesh
    }

    /// Index of the `(here, dest)` pair in the flattened per-pair arrays.
    #[inline]
    fn slot(&self, here: NodeId, dest: NodeId) -> usize {
        dest.index() * self.rank.len() + here.index()
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

/// Asserts that every stored escape port and minimal-port bit is an alive
/// port of `fmesh`: one scan of the per-pair bytes, so no table program
/// compiled from this relation, whatever its scheme, routes over a dead
/// link.
fn assert_alive(fmesh: &FaultyMesh, esc: &[u8], minimal: &[u8]) {
    let n = fmesh.node_count();
    let alive: Vec<u16> = (0..n)
        .map(|v| fmesh.alive_ports(NodeId(v as u32)).bits())
        .collect();
    for (dest, row) in esc.chunks_exact(n).enumerate() {
        let minimal = minimal.get(dest * n..(dest + 1) * n).unwrap_or(&[]);
        for (node, (&port, &alive)) in row.iter().zip(&alive).enumerate() {
            let mut used = u16::from(minimal.get(node).copied().unwrap_or(0)) << 1;
            if node != dest {
                used |= 1 << port;
            }
            if let Some(dead) = PortSet::from_bits(used & !alive).first() {
                panic!("up*/down* routes n{node}->n{dest} over the dead link n{node} {dead}");
            }
        }
    }
}

/// The surviving links of every node, oriented by an up*/down* order:
/// per node its up links (toward a smaller rank), then its down links,
/// each group in ascending port order. Build-time scratch, O(n · ports).
struct Oriented {
    /// Node `v`'s links are `first[v]..first[v + 1]`, its down links from
    /// `down[v]` on.
    first: Vec<u32>,
    down: Vec<u32>,
    port: Vec<u8>,
    nb: Vec<u32>,
}

impl Oriented {
    fn new(fmesh: &FaultyMesh, rank: &[u32]) -> Oriented {
        let n = fmesh.node_count();
        let mut o = Oriented {
            first: Vec::with_capacity(n + 1),
            down: Vec::with_capacity(n),
            port: Vec::new(),
            nb: Vec::new(),
        };
        for v in 0..n {
            o.first.push(o.nb.len() as u32);
            let links = || fmesh.links(NodeId(v as u32));
            let up = |w: NodeId| rank[w.index()] < rank[v];
            for (p, w) in links().filter(|&(_, w)| up(w)) {
                o.port.push(p.index() as u8);
                o.nb.push(w.0);
            }
            o.down.push(o.nb.len() as u32);
            for (p, w) in links().filter(|&(_, w)| !up(w)) {
                o.port.push(p.index() as u8);
                o.nb.push(w.0);
            }
        }
        o.first.push(o.nb.len() as u32);
        o
    }

    /// Ports and neighbors of the links `from..to`.
    fn slice(&self, from: u32, to: u32) -> (&[u8], &[u32]) {
        let r = from as usize..to as usize;
        (&self.port[r.clone()], &self.nb[r])
    }

    fn all(&self, v: usize) -> (&[u8], &[u32]) {
        self.slice(self.first[v], self.first[v + 1])
    }

    fn up(&self, v: usize) -> (&[u8], &[u32]) {
        self.slice(self.first[v], self.down[v])
    }

    fn down(&self, v: usize) -> (&[u8], &[u32]) {
        self.slice(self.down[v], self.first[v + 1])
    }
}

/// Breadth-first search from `src` over the links `next(x)` (ports and
/// neighbors) of each reached node `x`: fills `dist` with the hop
/// counts, `u32::MAX` where not reached, and calls `level(u, p)` for
/// every followed link `x → u` through port `p` that ends one level
/// further out. `queue` is reused scratch.
fn bfs<'a>(
    dist: &mut [u32],
    queue: &mut Vec<u32>,
    src: usize,
    next: impl Fn(usize) -> (&'a [u8], &'a [u32]),
    mut level: impl FnMut(usize, u8),
) {
    dist.fill(u32::MAX);
    dist[src] = 0;
    queue.clear();
    queue.push(src as u32);
    let mut head = 0;
    while let Some(&x) = queue.get(head) {
        head += 1;
        let d = dist[x as usize] + 1;
        let (ports, nbs) = next(x as usize);
        for (&p, &u) in ports.iter().zip(nbs) {
            let du = &mut dist[u as usize];
            if *du == u32::MAX {
                *du = d;
                queue.push(u);
            }
            if *du == d {
                level(u as usize, p);
            }
        }
    }
}

impl RoutingAlgorithm for UpDown {
    fn name(&self) -> &'static str {
        if self.adaptive {
            "up-down-adaptive"
        } else {
            "up-down"
        }
    }

    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet {
        self.assert_mesh(mesh);
        if here == dest {
            return PortSet::EMPTY;
        }
        if self.adaptive {
            let bits = self.minimal[self.slot(here, dest)];
            PortSet::from_bits(u16::from(bits) << 1)
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
        Some(Port::from_index(self.esc[self.slot(here, dest)] as usize))
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

    impl UpDown {
        /// The node's position in the up*/down* total order (root is 0).
        fn rank_of(&self, node: NodeId) -> u32 {
            self.rank[node.index()]
        }

        /// Whether the directed hop `from → to` is an *up* link.
        fn is_up(&self, from: NodeId, to: NodeId) -> bool {
            self.rank[to.index()] < self.rank[from.index()]
        }
    }

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
        assert!(!ud.deadlock_free_without_escape());
        assert_eq!(ud.name(), "up-down-adaptive");
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
        assert_eq!(ud.name(), "up-down");
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

    /// What a compile keeps on the benchmark's 32×32 mesh with 64
    /// faults: one escape byte per `(node, destination)`, a second byte
    /// of minimal ports when adaptive, and a 4-byte rank per node.
    #[test]
    fn compile_state_is_at_most_two_bytes_per_pair() {
        let mesh = Mesh::mesh_2d(32, 32);
        let faults = FaultSet::random(&mesh, 64, 1999).unwrap();
        let fmesh = Arc::new(FaultyMesh::new(mesh, faults).unwrap());
        let n = fmesh.node_count();
        for (ud, per_pair) in [
            (UpDown::new(Arc::clone(&fmesh)), 1),
            (UpDown::adaptive(Arc::clone(&fmesh)), 2),
        ] {
            let heap = ud.rank.capacity() * std::mem::size_of::<u32>()
                + ud.esc.capacity()
                + ud.minimal.capacity();
            assert_eq!(heap, per_pair * n * n + 4 * n, "adaptive {}", ud.adaptive);
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
