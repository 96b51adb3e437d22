//! Faulty-link topologies: dead-link sets and the faulty-mesh view.
//!
//! The paper sells programmable routing tables precisely because they can
//! encode routing functions beyond dimension-order — including routing
//! *around broken links* (§2.3, Fig. 7). This module supplies the topology
//! side of that story:
//!
//! * [`FaultSet`] — a validated set of dead **bidirectional** links,
//!   identified by their endpoint pair (a node pair names at most one link
//!   in every mesh and torus this crate can build, since torus extents are
//!   at least 3). Explicit sets are checked link by link; random sets
//!   ([`FaultSet::random`]) are drawn deterministically from a seed and
//!   never disconnect the network.
//! * [`FaultyMesh`] — a [`Mesh`] plus a [`FaultSet`], offering the same
//!   neighbor / alive-port / distance / productive-port surface the routing
//!   and table-programming layers use, but over the *surviving* links only.
//!   It stores O(n · ports) bytes; each distance query runs one BFS.
//!   Construction rejects fault sets that partition the network
//!   ([`FaultError::Disconnected`]).
//!
//! Faults never touch the simulator's hot path: a dead link still exists
//! physically, it simply never appears in any table entry or candidate
//! mask, so no flit is ever routed over it.
//!
//! # Example
//!
//! ```
//! use lapses_topology::{FaultSet, FaultyMesh, Mesh, NodeId};
//!
//! let mesh = Mesh::mesh_2d(4, 4);
//! // Kill the link between (1,1) and (2,1).
//! let faults = FaultSet::new(&mesh, &[(NodeId(5), NodeId(6))]).unwrap();
//! let fmesh = FaultyMesh::new(mesh, faults).unwrap();
//! // The detour costs two extra hops.
//! assert_eq!(fmesh.distance(NodeId(5), NodeId(6)), 3);
//! ```

use crate::coord::MAX_DIMS;
use crate::mesh::Mesh;
use crate::port::{Direction, Port, PortSet, MAX_PORTS};
use crate::NodeId;
use lapses_sim::SimRng;
use std::fmt;

/// Why a fault set (or a faulty mesh) failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The named node pair is not connected by a link of the topology
    /// (non-adjacent nodes, an out-of-range id, or a self-pair).
    NotALink {
        /// First endpoint as given.
        a: NodeId,
        /// Second endpoint as given.
        b: NodeId,
    },
    /// The same link was listed twice.
    DuplicateLink {
        /// First endpoint (normalized order).
        a: NodeId,
        /// Second endpoint (normalized order).
        b: NodeId,
    },
    /// Removing the faulty links partitions the network.
    Disconnected {
        /// Nodes reachable from node 0 over surviving links.
        reachable: usize,
        /// Total nodes in the topology.
        nodes: usize,
    },
    /// A random draw could not place the requested number of faults
    /// without disconnecting the network.
    TooManyFaults {
        /// Faults requested.
        requested: usize,
        /// Faults that could be placed.
        placed: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NotALink { a, b } => {
                write!(f, "fault ({a}, {b}) names no link of the topology")
            }
            FaultError::DuplicateLink { a, b } => {
                write!(f, "fault ({a}, {b}) is listed more than once")
            }
            FaultError::Disconnected { reachable, nodes } => write!(
                f,
                "fault set disconnects the network ({reachable} of {nodes} nodes reachable)"
            ),
            FaultError::TooManyFaults { requested, placed } => write!(
                f,
                "cannot place {requested} faults without disconnecting the network \
                 (managed {placed})"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// A validated set of dead bidirectional links.
///
/// Stored as normalized `(min, max)` endpoint pairs in ascending order, so
/// equal sets compare equal regardless of how they were written.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSet {
    links: Vec<(NodeId, NodeId)>,
}

impl FaultSet {
    /// The fault-free set.
    pub fn empty() -> FaultSet {
        FaultSet::default()
    }

    /// Validates a list of dead links against a topology: every pair must
    /// name an existing link, and no link may be listed twice. Endpoint
    /// order within a pair does not matter.
    pub fn new(mesh: &Mesh, links: &[(NodeId, NodeId)]) -> Result<FaultSet, FaultError> {
        let mut normalized = Vec::with_capacity(links.len());
        for &(a, b) in links {
            if !are_linked(mesh, a, b) {
                return Err(FaultError::NotALink { a, b });
            }
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        for w in normalized.windows(2) {
            if w[0] == w[1] {
                return Err(FaultError::DuplicateLink {
                    a: w[0].0,
                    b: w[0].1,
                });
            }
        }
        Ok(FaultSet { links: normalized })
    }

    /// Draws `count` dead links deterministically from `seed`, guaranteed
    /// to leave the network connected: candidate links are visited in a
    /// seeded Fisher–Yates order and a link is killed only if the network
    /// stays connected without it. The same `(mesh, count, seed)` triple
    /// always yields the same set — sweep reports built from random fault
    /// sets stay bit-identical across thread counts.
    ///
    /// Each trial cuts the link `a`–`b` out of one surviving-link table,
    /// restoring it on rejection. The table is connected before every
    /// trial, so it stays connected exactly when `a` still reaches `b`: a
    /// bidirectional search from both endpoints decides that without
    /// visiting the whole network.
    pub fn random(mesh: &Mesh, count: usize, seed: u64) -> Result<FaultSet, FaultError> {
        let mut search = Meet::default();
        FaultSet::draw(mesh, count, seed, |links, a, b| {
            search.connects(links, a, b)
        })
    }

    /// The seeded greedy draw behind [`FaultSet::random`], keeping a cut
    /// link `a`–`b` when `still_connected(links, a, b)` says the table
    /// without it is connected.
    fn draw(
        mesh: &Mesh,
        count: usize,
        seed: u64,
        mut still_connected: impl FnMut(&[[u32; MAX_PORTS]], NodeId, NodeId) -> bool,
    ) -> Result<FaultSet, FaultError> {
        let mut links = mesh_links(mesh);
        let mut candidates = Vec::new();
        for (node, row) in links.iter().enumerate() {
            candidates.extend(
                row.iter()
                    .filter(|&&nb| nb != NO_LINK && node < nb as usize)
                    .map(|&nb| (NodeId(node as u32), NodeId(nb))),
            );
        }
        candidates.sort_unstable();
        // Greedy deletion that keeps the network connected always ends on a
        // spanning tree, so exactly `links - (nodes - 1)` links can die;
        // answer a larger request without trying every candidate.
        let placeable = candidates.len() + 1 - links.len();
        if count > placeable {
            return Err(FaultError::TooManyFaults {
                requested: count,
                placed: placeable,
            });
        }
        let mut rng = SimRng::from_seed(lapses_sim::rng::mix64(seed ^ 0xFA_017_5E7));
        // Fisher–Yates over the candidate order.
        for i in (1..candidates.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            candidates.swap(i, j);
        }
        let mut chosen = Vec::with_capacity(count);
        for (a, b) in candidates {
            if chosen.len() == count {
                break;
            }
            let (pa, pb) = cut(&mut links, a, b).expect("candidates are links");
            if still_connected(&links, a, b) {
                chosen.push((a, b));
            } else {
                links[a.index()][pa] = b.0;
                links[b.index()][pb] = a.0;
            }
        }
        debug_assert_eq!(chosen.len(), count, "placeable faults always fit");
        chosen.sort_unstable();
        Ok(FaultSet { links: chosen })
    }

    /// Checks that the surviving links of `mesh` connect every node — the
    /// validation [`FaultyMesh::new`] performs, with the same errors, but
    /// without keeping the surviving-link table.
    pub fn check_connected(&self, mesh: &Mesh) -> Result<(), FaultError> {
        surviving_links(mesh, self).map(|_| ())
    }

    /// Number of dead links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the set is empty (a perfect network).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The dead links as normalized `(min, max)` endpoint pairs, ascending.
    pub fn links(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }

    /// Whether the link between `a` and `b` is dead (order-insensitive).
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.links.binary_search(&(a.min(b), a.max(b))).is_ok()
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({a}, {b})")?;
        }
        write!(f, "}}")
    }
}

/// Whether `a` and `b` are joined by a link of `mesh`.
fn are_linked(mesh: &Mesh, a: NodeId, b: NodeId) -> bool {
    if a == b || a.index() >= mesh.node_count() || b.index() >= mesh.node_count() {
        return false;
    }
    (0..mesh.dims())
        .flat_map(|d| [Direction::plus(d), Direction::minus(d)])
        .any(|dir| mesh.neighbor(a, dir) == Some(b))
}

/// Sentinel of the surviving-link table: no link behind this port (dead,
/// off the mesh edge, or the local port).
const NO_LINK: u32 = u32::MAX;

/// Per node, the neighbor id behind each port index over the links of
/// `mesh`, [`NO_LINK`] where there is none. Built from index strides (the
/// neighbors along dimension `d` sit `stride[d]` ids away, and the wrap
/// link `(k - 1) * stride[d]` away) with the coordinates kept by an
/// odometer, so no node pays a coordinate round trip.
fn mesh_links(mesh: &Mesh) -> Vec<[u32; MAX_PORTS]> {
    let shape = mesh.shape();
    let mut strides = [0u32; MAX_DIMS];
    let mut stride = 1u32;
    for (d, &k) in shape.iter().enumerate() {
        strides[d] = stride;
        stride *= k as u32;
    }
    let mut coord = [0u16; MAX_DIMS];
    let mut links = Vec::with_capacity(mesh.node_count());
    for node in 0..mesh.node_count() as u32 {
        let mut row = [NO_LINK; MAX_PORTS];
        for (d, &k) in shape.iter().enumerate() {
            let (c, stride) = (coord[d], strides[d]);
            let wrap = (k as u32 - 1) * stride;
            let plus = Port::from(Direction::plus(d)).index();
            let minus = Port::from(Direction::minus(d)).index();
            if c + 1 < k {
                row[plus] = node + stride;
            } else if mesh.is_torus() {
                row[plus] = node - wrap;
            }
            if c > 0 {
                row[minus] = node - stride;
            } else if mesh.is_torus() {
                row[minus] = node + wrap;
            }
        }
        links.push(row);
        for (c, &k) in coord.iter_mut().zip(shape) {
            *c += 1;
            if *c < k {
                break;
            }
            *c = 0;
        }
    }
    links
}

/// Removes the link `a`–`b` from both endpoints' rows and returns the two
/// port indices it occupied, or `None` when no such link is left.
fn cut(links: &mut [[u32; MAX_PORTS]], a: NodeId, b: NodeId) -> Option<(usize, usize)> {
    let pa = links.get(a.index())?.iter().position(|&nb| nb == b.0)?;
    let pb = links.get(b.index())?.iter().position(|&nb| nb == a.0)?;
    links[a.index()][pa] = NO_LINK;
    links[b.index()][pb] = NO_LINK;
    Some((pa, pb))
}

/// The surviving-link table of `mesh` without `faults`, rejecting dead
/// links that name no link and sets that disconnect the network.
fn surviving_links(mesh: &Mesh, faults: &FaultSet) -> Result<Vec<[u32; MAX_PORTS]>, FaultError> {
    let mut links = mesh_links(mesh);
    for &(a, b) in faults.links() {
        cut(&mut links, a, b).ok_or(FaultError::NotALink { a, b })?;
    }
    let reachable = Bfs::default().reachable_from_zero(&links);
    if reachable != links.len() {
        return Err(FaultError::Disconnected {
            reachable,
            nodes: links.len(),
        });
    }
    Ok(links)
}

/// Reusable breadth-first search buffers over a surviving-link table.
#[derive(Default)]
struct Bfs {
    /// Per node: hops from the last search's source, `u32::MAX` where
    /// it was not reached.
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Bfs {
    /// Fills `self.dist` with the hop distances from `src` over `links`
    /// and returns how many nodes `src` reaches.
    fn distances(&mut self, links: &[[u32; MAX_PORTS]], src: u32) -> usize {
        self.dist.clear();
        self.dist.resize(links.len(), u32::MAX);
        self.queue.clear();
        self.dist[src as usize] = 0;
        self.queue.push(src);
        let mut head = 0;
        while let Some(&node) = self.queue.get(head) {
            head += 1;
            let d = self.dist[node as usize] + 1;
            for &nb in &links[node as usize] {
                if nb != NO_LINK && self.dist[nb as usize] == u32::MAX {
                    self.dist[nb as usize] = d;
                    self.queue.push(nb);
                }
            }
        }
        self.queue.len()
    }

    /// How many nodes node 0 reaches over `links`.
    fn reachable_from_zero(&mut self, links: &[[u32; MAX_PORTS]]) -> usize {
        if links.is_empty() {
            return 0;
        }
        self.distances(links, 0)
    }
}

/// Reusable bidirectional-search state over a surviving-link table.
/// Marks are stamped with a per-search generation, so a search touches
/// only the nodes it visits — no whole-network clear between trials.
#[derive(Default)]
struct Meet {
    /// Per node: the stamp of the last search side that reached it.
    mark: Vec<u32>,
    /// Searches so far; search `g` stamps its sides `2g` and `2g + 1`.
    /// A draw makes one search per candidate link, far fewer than 2³¹.
    generation: u32,
    /// Per side: the nodes reached in the last level.
    frontier: [Vec<u32>; 2],
    next: Vec<u32>,
}

impl Meet {
    /// Whether `a` reaches `b` over `links`. Searches from both ends one
    /// BFS level at a time, always growing the smaller frontier: a cut that
    /// strands a small component is refuted once that component is
    /// exhausted, and a cut with a short detour is confirmed where the two
    /// searches meet.
    fn connects(&mut self, links: &[[u32; MAX_PORTS]], a: NodeId, b: NodeId) -> bool {
        self.generation += 1;
        self.mark.resize(links.len(), 0);
        let stamp = [2 * self.generation, 2 * self.generation + 1];
        let Meet {
            mark,
            frontier,
            next,
            ..
        } = self;
        for (side, node) in [a, b].into_iter().enumerate() {
            mark[node.index()] = stamp[side];
            frontier[side].clear();
            frontier[side].push(node.0);
        }
        loop {
            let side = usize::from(frontier[1].len() < frontier[0].len());
            if frontier[side].is_empty() {
                return false;
            }
            next.clear();
            for &node in &frontier[side] {
                for &nb in &links[node as usize] {
                    if nb == NO_LINK {
                        continue;
                    }
                    let seen = mark[nb as usize];
                    if seen == stamp[1 - side] {
                        return true;
                    }
                    if seen != stamp[side] {
                        mark[nb as usize] = stamp[side];
                        next.push(nb);
                    }
                }
            }
            std::mem::swap(&mut frontier[side], next);
        }
    }
}

/// A mesh or torus with a set of dead links: the topology surface the
/// fault-tolerant routing and table-programming layers consume.
///
/// Construction builds a per-node surviving-link table once — the
/// neighbor behind every port, or a sentinel for a dead or absent link —
/// plus each node's alive [`PortSet`], so [`FaultyMesh::neighbor`],
/// [`FaultyMesh::alive_ports`] and [`FaultyMesh::links`] are plain loads
/// with no coordinate arithmetic. That is all it stores: O(n · ports)
/// bytes for n nodes, nothing per node pair. Distance questions
/// ([`FaultyMesh::distances_from`], [`FaultyMesh::distance`],
/// [`FaultyMesh::productive_ports`]) each run one BFS over the table,
/// O(n · ports); a compiler that needs every pair (up*/down* routing)
/// runs one search per destination itself instead of asking per pair.
#[derive(Debug, Clone)]
pub struct FaultyMesh {
    mesh: Mesh,
    faults: FaultSet,
    /// Per node: the neighbor id behind each port index over a surviving
    /// link, [`NO_LINK`] otherwise.
    links: Vec<[u32; MAX_PORTS]>,
    /// Per node: the direction ports with surviving links.
    alive: Vec<PortSet>,
}

impl FaultyMesh {
    /// Builds the faulty view, re-validating the fault set against this
    /// mesh and rejecting sets that disconnect it.
    pub fn new(mesh: Mesh, faults: FaultSet) -> Result<FaultyMesh, FaultError> {
        let links = surviving_links(&mesh, &faults)?;
        let alive = links
            .iter()
            .map(|row| {
                (0..MAX_PORTS)
                    .filter(|&p| row[p] != NO_LINK)
                    .map(Port::from_index)
                    .collect()
            })
            .collect();
        Ok(FaultyMesh {
            mesh,
            faults,
            links,
            alive,
        })
    }

    /// The underlying perfect topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The dead links.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Total node count (faults kill links, never nodes).
    pub fn node_count(&self) -> usize {
        self.mesh.node_count()
    }

    /// Whether the link out of `node` along `direction` is dead.
    pub fn is_dead(&self, node: NodeId, direction: Direction) -> bool {
        self.neighbor(node, direction).is_none() && self.mesh.neighbor(node, direction).is_some()
    }

    /// The neighbor over a *surviving* link, or `None` when the link is
    /// dead or absent (mesh edge).
    #[inline]
    pub fn neighbor(&self, node: NodeId, direction: Direction) -> Option<NodeId> {
        let nb = self.links[node.index()][Port::from(direction).index()];
        (nb != NO_LINK).then_some(NodeId(nb))
    }

    /// The direction-ports of `node` with surviving links.
    #[inline]
    pub fn alive_ports(&self, node: NodeId) -> PortSet {
        self.alive[node.index()]
    }

    /// The surviving links out of `node` as `(port, neighbor)` pairs, in
    /// ascending port order.
    #[inline]
    pub fn links(&self, node: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let row = &self.links[node.index()];
        self.alive[node.index()]
            .iter()
            .map(move |p| (p, NodeId(row[p.index()])))
    }

    /// Hop distances from `src` to every node over surviving links, by
    /// one BFS: O(n · ports) time and a fresh `n`-entry vector. Links are
    /// bidirectional, so these are also the distances *to* `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn distances_from(&self, src: NodeId) -> Vec<u32> {
        let mut bfs = Bfs::default();
        bfs.distances(&self.links, src.0);
        bfs.dist
    }

    /// Hop distance between two nodes over surviving links. Runs
    /// [`FaultyMesh::distances_from`], so each call costs a whole BFS:
    /// for inspection and tests, not for per-pair compilation.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(b.index() < self.node_count(), "node out of range");
        self.distances_from(a)[b.index()]
    }

    /// The surviving output ports that move a message strictly closer to
    /// `dest` in the faulty graph — the fault-aware generalization of
    /// [`Mesh::productive_ports`]. Empty exactly when `from == dest`.
    /// Like [`FaultyMesh::distance`], each call runs one BFS (from
    /// `dest`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn productive_ports(&self, from: NodeId, dest: NodeId) -> PortSet {
        assert!(from.index() < self.node_count(), "node out of range");
        let dist = self.distances_from(dest);
        self.links(from)
            .filter(|&(_, nb)| dist[nb.index()] + 1 == dist[from.index()])
            .map(|(port, _)| port)
            .collect()
    }
}

impl fmt::Display for FaultyMesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {} dead link(s)", self.mesh, self.faults.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::mesh_2d(4, 4)
    }

    #[test]
    fn empty_fault_set_reproduces_the_mesh() {
        let mesh = mesh4();
        let fmesh = FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                assert_eq!(fmesh.distance(a, b), mesh.distance(a, b));
                assert_eq!(
                    fmesh.productive_ports(a, b),
                    mesh.productive_ports(a, b),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn dead_link_is_symmetric_and_rerouted() {
        let mesh = mesh4();
        let a = mesh.id_at(&[1, 1]).unwrap();
        let b = mesh.id_at(&[2, 1]).unwrap();
        let faults = FaultSet::new(&mesh, &[(b, a)]).unwrap(); // order-insensitive
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        assert!(fmesh.is_dead(a, Direction::plus(0)));
        assert!(fmesh.is_dead(b, Direction::minus(0)));
        assert_eq!(fmesh.neighbor(a, Direction::plus(0)), None);
        assert_eq!(fmesh.distance(a, b), 3); // around the break
        assert_eq!(fmesh.alive_ports(a).len(), 3);
    }

    #[test]
    fn productive_ports_reduce_faulty_distance() {
        let mesh = Mesh::mesh_2d(5, 5);
        let faults = FaultSet::random(&mesh, 4, 7).unwrap();
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        for a in fmesh.mesh().nodes() {
            for b in fmesh.mesh().nodes() {
                let ports = fmesh.productive_ports(a, b);
                if a == b {
                    assert!(ports.is_empty());
                    continue;
                }
                assert!(!ports.is_empty(), "{a}->{b} has no productive port");
                for p in ports.iter() {
                    let nb = fmesh.neighbor(a, p.direction().unwrap()).unwrap();
                    assert_eq!(fmesh.distance(nb, b) + 1, fmesh.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn non_links_are_rejected() {
        let mesh = mesh4();
        let diag = (mesh.id_at(&[0, 0]).unwrap(), mesh.id_at(&[1, 1]).unwrap());
        assert!(matches!(
            FaultSet::new(&mesh, &[diag]),
            Err(FaultError::NotALink { .. })
        ));
        // Self-pairs and out-of-range ids are not links either.
        assert!(FaultSet::new(&mesh, &[(NodeId(3), NodeId(3))]).is_err());
        assert!(FaultSet::new(&mesh, &[(NodeId(0), NodeId(99))]).is_err());
    }

    #[test]
    fn duplicates_are_rejected() {
        let mesh = mesh4();
        let link = (NodeId(0), NodeId(1));
        let err = FaultSet::new(&mesh, &[link, (NodeId(1), NodeId(0))]).unwrap_err();
        assert!(matches!(err, FaultError::DuplicateLink { .. }), "{err}");
    }

    #[test]
    fn partitioning_sets_are_rejected() {
        // Cut the corner (0,0) off completely.
        let mesh = mesh4();
        let corner = mesh.id_at(&[0, 0]).unwrap();
        let east = mesh.id_at(&[1, 0]).unwrap();
        let north = mesh.id_at(&[0, 1]).unwrap();
        let faults = FaultSet::new(&mesh, &[(corner, east), (corner, north)]).unwrap();
        let err = FaultyMesh::new(mesh, faults).unwrap_err();
        // BFS counts from node 0 — the very node that was cut off.
        assert_eq!(
            err,
            FaultError::Disconnected {
                reachable: 1,
                nodes: 16
            }
        );
        assert!(err.to_string().contains("disconnects"));
    }

    #[test]
    fn random_sets_are_deterministic_connected_and_sized() {
        let mesh = Mesh::mesh_2d(8, 8);
        let a = FaultSet::random(&mesh, 6, 42).unwrap();
        let b = FaultSet::random(&mesh, 6, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let c = FaultSet::random(&mesh, 6, 43).unwrap();
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
        assert!(FaultyMesh::new(mesh, a).is_ok());
    }

    /// Literal draws: the candidate order, the Fisher–Yates shuffle and the
    /// keep-if-connected rule must never change, or every seeded-fault
    /// scenario silently runs on a different network. The 32×32 draw is
    /// the fault set of the benchmark's faulty workload.
    #[test]
    fn random_draws_are_pinned() {
        let draw = |mesh: Mesh, count, seed| -> Vec<(u32, u32)> {
            FaultSet::random(&mesh, count, seed)
                .unwrap()
                .links()
                .iter()
                .map(|&(a, b)| (a.0, b.0))
                .collect()
        };
        assert_eq!(
            draw(Mesh::mesh_2d(8, 8), 6, 42),
            [(2, 10), (8, 16), (18, 19), (19, 27), (33, 34), (48, 49)]
        );
        assert_eq!(
            draw(Mesh::mesh_2d(5, 5), 4, 7),
            [(12, 17), (17, 22), (20, 21), (21, 22)]
        );
        #[rustfmt::skip]
        let faulty32 = [
            (6, 38), (100, 101), (103, 135), (104, 105), (108, 109), (113, 145),
            (118, 119), (123, 155), (132, 164), (139, 171), (142, 174), (173, 174),
            (180, 212), (231, 232), (231, 263), (238, 239), (266, 267), (275, 307),
            (304, 305), (306, 307), (309, 310), (333, 365), (368, 369), (388, 420),
            (414, 446), (416, 448), (427, 459), (454, 455), (455, 487), (471, 472),
            (471, 503), (502, 534), (527, 528), (549, 550), (556, 588), (561, 562),
            (568, 600), (591, 623), (598, 599), (600, 632), (606, 638), (614, 646),
            (619, 620), (620, 621), (639, 671), (640, 641), (723, 755), (726, 758),
            (780, 781), (811, 812), (835, 836), (839, 871), (859, 891), (862, 894),
            (865, 866), (869, 870), (894, 926), (899, 931), (905, 937), (935, 936),
            (949, 950), (985, 986), (993, 994), (996, 997),
        ];
        assert_eq!(draw(Mesh::mesh_2d(32, 32), 64, 1999), faulty32);
    }

    /// Small topologies of every kind the draw supports.
    fn assorted_topologies() -> Vec<Mesh> {
        vec![
            Mesh::mesh_2d(8, 8),
            Mesh::mesh_2d(5, 5),
            Mesh::mesh_2d(2, 2),
            Mesh::mesh_2d(7, 3),
            Mesh::torus_2d(4, 4),
            Mesh::torus_2d(5, 3),
            Mesh::mesh(&[9]),
            Mesh::torus(&[7]),
            Mesh::mesh_3d(3, 3, 3),
            Mesh::mesh(&[4, 1, 3]),
            Mesh::torus(&[3, 3, 3]),
        ]
    }

    #[test]
    fn stride_table_matches_mesh_neighbors() {
        for mesh in assorted_topologies() {
            let table = mesh_links(&mesh);
            for node in mesh.nodes() {
                let mut row = [NO_LINK; MAX_PORTS];
                for port in mesh.direction_ports() {
                    if let Some(nb) = mesh.neighbor(node, port.direction().unwrap()) {
                        row[port.index()] = nb.0;
                    }
                }
                assert_eq!(table[node.index()], row, "{mesh} {node}");
            }
        }
    }

    /// The whole-network predicate the bidirectional search replaced:
    /// after each cut, every node is still reachable from node 0.
    fn random_by_whole_network_bfs(
        mesh: &Mesh,
        count: usize,
        seed: u64,
    ) -> Result<FaultSet, FaultError> {
        let mut bfs = Bfs::default();
        FaultSet::draw(mesh, count, seed, |links, _, _| {
            bfs.reachable_from_zero(links) == links.len()
        })
    }

    #[test]
    fn bidirectional_search_draws_the_whole_network_sets() {
        let mut draws = 0;
        for mesh in assorted_topologies() {
            let links = mesh_links(&mesh)
                .iter()
                .flatten()
                .filter(|&&nb| nb != NO_LINK)
                .count()
                / 2;
            let placeable = links + 1 - mesh.node_count();
            for count in [1, 3, placeable / 2, placeable, placeable + 1] {
                for seed in 0..8 {
                    assert_eq!(
                        FaultSet::random(&mesh, count, seed),
                        random_by_whole_network_bfs(&mesh, count, seed),
                        "{mesh}, {count} faults, seed {seed}"
                    );
                    draws += 1;
                }
            }
        }
        assert_eq!(draws, 11 * 5 * 8);
    }

    #[test]
    fn check_connected_matches_the_faulty_mesh() {
        let mesh = mesh4();
        let cut_corner =
            FaultSet::new(&mesh, &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(4))]).unwrap();
        assert_eq!(
            cut_corner.check_connected(&mesh).unwrap_err(),
            FaultyMesh::new(mesh.clone(), cut_corner).unwrap_err()
        );
        let ok = FaultSet::random(&mesh, 3, 5).unwrap();
        assert_eq!(ok.check_connected(&mesh), Ok(()));
        // A set drawn for another topology names no link of this one.
        let foreign = FaultSet::random(&Mesh::mesh_2d(8, 8), 6, 42).unwrap();
        assert!(matches!(
            foreign.check_connected(&mesh),
            Err(FaultError::NotALink { .. })
        ));
    }

    #[test]
    fn impossible_random_counts_error() {
        // A 2x2 mesh has 4 links and a spanning tree needs 3: at most one
        // fault fits.
        let mesh = Mesh::mesh_2d(2, 2);
        assert!(FaultSet::random(&mesh, 1, 1).is_ok());
        let err = FaultSet::random(&mesh, 2, 1).unwrap_err();
        assert!(matches!(err, FaultError::TooManyFaults { placed: 1, .. }));
    }

    #[test]
    fn torus_links_are_faultable() {
        let torus = Mesh::torus_2d(4, 4);
        // The wrap link between (0,0) and (3,0).
        let a = torus.id_at(&[0, 0]).unwrap();
        let b = torus.id_at(&[3, 0]).unwrap();
        let faults = FaultSet::new(&torus, &[(a, b)]).unwrap();
        let fmesh = FaultyMesh::new(torus, faults).unwrap();
        assert!(fmesh.is_dead(a, Direction::minus(0)));
        assert!(fmesh.is_dead(b, Direction::plus(0)));
        assert_eq!(fmesh.distance(a, b), 3);
    }

    #[test]
    fn three_d_faults_work() {
        let mesh = Mesh::mesh_3d(3, 3, 3);
        let faults = FaultSet::random(&mesh, 5, 9).unwrap();
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        for a in fmesh.mesh().nodes() {
            for b in fmesh.mesh().nodes() {
                assert_ne!(fmesh.distance(a, b), u32::MAX, "{a}->{b} unreachable");
            }
        }
    }

    /// The faulty view is sized by the network, not by its node pairs: on
    /// the benchmark's 32×32 mesh with 64 faults it holds a 36-byte link
    /// row and a 2-byte alive set per node, the 64 dead links and the
    /// shape — 39428 bytes, where an all-pairs distance matrix alone
    /// would take 4 MiB.
    #[test]
    fn faulty_mesh_holds_bytes_per_node_not_per_pair() {
        use std::mem::size_of;
        let mesh = Mesh::mesh_2d(32, 32);
        let faults = FaultSet::random(&mesh, 64, 1999).unwrap();
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        let n = fmesh.node_count();
        let heap = fmesh.links.capacity() * size_of::<[u32; MAX_PORTS]>()
            + fmesh.alive.capacity() * size_of::<PortSet>()
            + fmesh.faults.links.capacity() * size_of::<(NodeId, NodeId)>()
            + std::mem::size_of_val(fmesh.mesh.shape());
        assert_eq!(heap, n * (4 * MAX_PORTS + 2) + 64 * 8 + 2 * 2);
        assert_eq!(heap, 39428);
    }

    #[test]
    fn display_formats() {
        let mesh = mesh4();
        let faults = FaultSet::new(&mesh, &[(NodeId(0), NodeId(1))]).unwrap();
        assert_eq!(faults.to_string(), "{(n0, n1)}");
        let fmesh = FaultyMesh::new(mesh, faults).unwrap();
        assert_eq!(fmesh.to_string(), "4x4 mesh with 1 dead link(s)");
    }
}
