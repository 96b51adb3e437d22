//! The routing relations used in the study: the [`RoutingAlgorithm`]
//! interface and the [`Algorithm`] selector, whose classic variants are
//! themselves the relations.

use crate::updown::UpDown;
use lapses_topology::{Direction, FaultyMesh, Mesh, NodeId, Port, PortSet, Sign};
use std::fmt;
use std::sync::Arc;

/// A per-hop routing relation for mesh-like networks.
///
/// All algorithms in the study are *minimal* (every candidate port reduces
/// the distance to the destination) and *source-relative* (the candidate set
/// depends only on the destination's position relative to the current
/// router) — the property §5.2.2 relies on to show the economical-storage
/// table is lossless.
///
/// The split between [`candidates`](RoutingAlgorithm::candidates) and
/// [`escape_port`](RoutingAlgorithm::escape_port) mirrors Duato's protocol:
/// adaptive virtual channels may follow any candidate, while the escape
/// virtual channel follows the deterministic escape route. Deterministic
/// algorithms return a singleton candidate set equal to the escape route;
/// turn-model algorithms return a restricted candidate set and are
/// deadlock-free even without escape channels.
///
/// The classic relations are the [`Algorithm`] variants themselves; the
/// up*/down* relations are compiled per topology instance into an
/// [`UpDown`].
pub trait RoutingAlgorithm: fmt::Debug + Send + Sync {
    /// The name reports and scenario specs use ("duato", "north-last",
    /// "up-down", ...).
    fn name(&self) -> &'static str;

    /// Adaptive candidate output ports at `here` for a message headed to
    /// `dest`. Never contains the local port; empty exactly when
    /// `here == dest` (the message must exit via the local port).
    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet;

    /// The deterministic escape route, or `None` when `here == dest`.
    ///
    /// Must satisfy: the escape port is itself a productive (minimal)
    /// direction, and the escape relation taken alone is deadlock-free on
    /// the escape virtual channels (with
    /// [`escape_subclasses`](RoutingAlgorithm::escape_subclasses) dateline
    /// classes on a torus).
    fn escape_port(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> Option<Port>;

    /// Dateline subclass of the escape channel to request at this hop.
    ///
    /// Always 0 on a mesh. On a torus the dimension-order escape needs two
    /// subclasses per direction: class 0 while the remaining route in the
    /// current dimension still has to cross the wrap-around link, class 1
    /// after (or when it never does).
    fn escape_subclass(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> usize {
        let _ = (mesh, here, dest);
        0
    }

    /// [`candidates`](RoutingAlgorithm::candidates),
    /// [`escape_port`](RoutingAlgorithm::escape_port) and
    /// [`escape_subclass`](RoutingAlgorithm::escape_subclass) at once: what
    /// a routing table stores for a `(here, dest)` pair. Algorithms whose
    /// escape is picked from the same productive ports as their
    /// candidates override it to derive those ports once per pair.
    fn route(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> (PortSet, Option<Port>, usize) {
        (
            self.candidates(mesh, here, dest),
            self.escape_port(mesh, here, dest),
            self.escape_subclass(mesh, here, dest),
        )
    }

    /// Number of escape subclasses the algorithm needs on this topology.
    fn escape_subclasses(&self, mesh: &Mesh) -> usize;

    /// Whether the adaptive relation alone is deadlock-free, making escape
    /// channels optional (true for deterministic and turn-model routing).
    fn deadlock_free_without_escape(&self) -> bool;
}

/// Dateline subclass for a dimension-order hop on a torus: class 0 while the
/// remaining travel in the hop's dimension still crosses the wrap link,
/// class 1 otherwise. On a mesh this is always 0.
///
/// Exposed so table programs can recompute the subclass positionally — the
/// economical-storage table indexes by relative *sign* only, which cannot
/// encode dateline state (§5.2.1 extension; the comparator hardware that
/// computes the sign also computes this).
pub fn torus_dateline_subclass(
    mesh: &Mesh,
    here: NodeId,
    dest: NodeId,
    port: Option<Port>,
) -> usize {
    if !mesh.is_torus() {
        return 0;
    }
    let Some(dir) = port.and_then(Port::direction) else {
        return 0;
    };
    let h = mesh.coord_of(here);
    let d = mesh.coord_of(dest);
    let dim = dir.dim();
    // Travelling +: the wrap link (k-1 -> 0) lies ahead iff dest < here.
    // Travelling -: the wrap link (0 -> k-1) lies ahead iff dest > here.
    let crosses = if dir.is_positive() {
        d[dim] < h[dim]
    } else {
        d[dim] > h[dim]
    };
    usize::from(!crosses)
}

/// The routing algorithm of a scenario.
///
/// The five classic variants are routing relations themselves (they
/// implement [`RoutingAlgorithm`]): every one is minimal and escapes on
/// its lowest-index candidate port, so its escape is dimension order
/// within what it permits. The two up*/down* variants name relations
/// compiled per topology instance by [`Algorithm::build_on`]; asked for a
/// route themselves, they panic.
///
/// # Example
///
/// ```
/// use lapses_routing::{Algorithm, RoutingAlgorithm};
/// use lapses_topology::{Direction, Mesh, Port, PortSet};
///
/// let mesh = Mesh::mesh_2d(3, 3);
/// let here = mesh.id_at(&[1, 1]).unwrap();
/// // Fig. 7(d), destination (0,2): both -X and +Y are minimal but
/// // North-Last permits only -X.
/// let dest = mesh.id_at(&[0, 2]).unwrap();
/// assert_eq!(Algorithm::Duato.candidates(&mesh, here, dest).len(), 2);
/// assert_eq!(
///     Algorithm::NorthLast.candidates(&mesh, here, dest),
///     PortSet::single(Port::from(Direction::minus(0)))
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Deterministic dimension-order routing (XY in 2-D, XYZ in 3-D):
    /// fully resolve dimension 0, then dimension 1, and so on — the
    /// paper's `DET`, Duato's escape function, and the relation the
    /// "STATIC-XY" path-selection preference collapses to.
    ///
    /// ```
    /// use lapses_routing::{Algorithm, RoutingAlgorithm};
    /// use lapses_topology::{Direction, Mesh, Port};
    ///
    /// let mesh = Mesh::mesh_2d(8, 8);
    /// let here = mesh.id_at(&[2, 2]).unwrap();
    /// let dest = mesh.id_at(&[5, 7]).unwrap();
    /// // X is corrected before Y.
    /// assert_eq!(
    ///     Algorithm::DimensionOrder.escape_port(&mesh, here, dest),
    ///     Some(Port::from(Direction::plus(0)))
    /// );
    /// ```
    DimensionOrder,
    /// Duato's minimal fully-adaptive routing — the paper's `ADAPT`: any
    /// productive port on the adaptive VCs, dimension order on the escape
    /// VC. It needs 2 VCs per physical channel in a 2-D mesh (1 escape +
    /// 1 adaptive) and benefits from more adaptive VCs.
    ///
    /// ```
    /// use lapses_routing::{Algorithm, RoutingAlgorithm};
    /// use lapses_topology::Mesh;
    ///
    /// let mesh = Mesh::mesh_2d(16, 16);
    /// let here = mesh.id_at(&[5, 5]).unwrap();
    /// let dest = mesh.id_at(&[9, 1]).unwrap();
    /// let cands = Algorithm::Duato.candidates(&mesh, here, dest);
    /// assert_eq!(cands.len(), 2); // +X and -Y are both minimal
    /// ```
    Duato,
    /// North-Last partially-adaptive turn-model routing: `+Y` (north)
    /// hops come last; adaptive among `{±X, -Y}`. Fig. 7 programs it.
    NorthLast,
    /// West-First partially-adaptive turn-model routing: `-X` (west) hops
    /// come first; adaptive among `{+X, ±Y}`.
    WestFirst,
    /// Negative-First partially-adaptive turn-model routing: all negative
    /// hops before any positive hop, adaptive within each phase.
    NegativeFirst,
    /// Deterministic BFS-rooted up*/down* routing over the surviving
    /// links — the fault-tolerant deterministic baseline (deadlock-free
    /// without escape VCs, like dimension-order).
    UpDown,
    /// Minimal-adaptive candidates over the surviving links with an
    /// up*/down* escape — the fault-tolerant twin of Duato's protocol.
    UpDownAdaptive,
}

impl Algorithm {
    /// Every algorithm, in declaration order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::DimensionOrder,
        Algorithm::Duato,
        Algorithm::NorthLast,
        Algorithm::WestFirst,
        Algorithm::NegativeFirst,
        Algorithm::UpDown,
        Algorithm::UpDownAdaptive,
    ];

    /// The routing relation, boxed.
    ///
    /// # Panics
    ///
    /// Panics for the up*/down* variants, whose program is compiled per
    /// topology instance — use [`Algorithm::build_on`] for those.
    pub fn build(self) -> Box<dyn RoutingAlgorithm> {
        if self.fault_tolerant() {
            self.compiled_per_instance()
        }
        Box::new(self)
    }

    /// The routing relation over a (possibly fault-free) faulty-mesh
    /// view: the up*/down* variants compile their program on it, and the
    /// classic algorithms ignore it (they run only without dead links).
    pub fn build_on(self, fmesh: &Arc<FaultyMesh>) -> Box<dyn RoutingAlgorithm> {
        match self {
            Algorithm::UpDown => Box::new(UpDown::new(Arc::clone(fmesh))),
            Algorithm::UpDownAdaptive => Box::new(UpDown::adaptive(Arc::clone(fmesh))),
            classic => Box::new(classic),
        }
    }

    /// A short name for reports and scenario specs.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::DimensionOrder => "dimension-order",
            Algorithm::Duato => "duato",
            Algorithm::NorthLast => "north-last",
            Algorithm::WestFirst => "west-first",
            Algorithm::NegativeFirst => "negative-first",
            Algorithm::UpDown => "up-down",
            Algorithm::UpDownAdaptive => "up-down-adaptive",
        }
    }

    /// Whether the relation is defined on `mesh`: the turn models only on
    /// a 2-D mesh, every other algorithm everywhere.
    pub fn supports(self, mesh: &Mesh) -> bool {
        match self {
            Algorithm::NorthLast | Algorithm::WestFirst | Algorithm::NegativeFirst => {
                mesh.dims() == 2 && !mesh.is_torus()
            }
            _ => true,
        }
    }

    /// Whether the relation routes around dead links (the up*/down*
    /// family). Every other algorithm requires a perfect topology.
    pub fn fault_tolerant(self) -> bool {
        matches!(self, Algorithm::UpDown | Algorithm::UpDownAdaptive)
    }

    /// Escape VCs the relation needs on `mesh` from a router with
    /// `escape_vcs` of them: one per escape subclass (dateline class), or
    /// 0 when the relation alone is deadlock-free and the router has no
    /// escape VCs — escape VCs a router does have always carry the
    /// subclasses. Answered without compiling an up*/down* program.
    pub fn escape_vcs_needed(self, mesh: &Mesh, escape_vcs: usize) -> usize {
        if self.deadlock_free_without_escape() && escape_vcs == 0 {
            0
        } else {
            self.escape_subclasses(mesh).max(1)
        }
    }

    fn compiled_per_instance(self) -> ! {
        panic!(
            "{} routing is compiled per topology instance; use Algorithm::build_on",
            self.name()
        )
    }
}

impl RoutingAlgorithm for Algorithm {
    fn name(&self) -> &'static str {
        Algorithm::name(*self)
    }

    /// The productive ports, restricted: to the lowest-index one for
    /// dimension order (ports run `+0, −0, +1, −1, …`, so that is the
    /// first unresolved dimension, in its positive direction on a torus
    /// half-way tie), by the turn rule for the turn models.
    ///
    /// # Panics
    ///
    /// Panics for the turn models off a 2-D mesh, and for the up*/down*
    /// variants (see [`Algorithm::build_on`]).
    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet {
        let productive = mesh.productive_ports(here, dest);
        // A turn model takes its restricted ports, or every productive
        // port when the rule leaves none.
        let turn = |restricted: PortSet| {
            assert!(
                self.supports(mesh),
                "turn-model routing is defined for 2-D meshes"
            );
            if restricted.is_empty() {
                productive
            } else {
                restricted
            }
        };
        match self {
            Algorithm::DimensionOrder => productive.first().map_or(PortSet::EMPTY, PortSet::single),
            Algorithm::Duato => productive,
            // North only when nothing else is productive.
            Algorithm::NorthLast => {
                turn(productive.difference(PortSet::single(Port::from(Direction::plus(1)))))
            }
            // West (if needed) before anything else.
            Algorithm::WestFirst => {
                turn(productive.intersection(PortSet::single(Port::from(Direction::minus(0)))))
            }
            Algorithm::NegativeFirst => turn(
                productive
                    .iter()
                    .filter(|p| p.direction().is_some_and(|d| d.sign() == Sign::Minus))
                    .collect(),
            ),
            Algorithm::UpDown | Algorithm::UpDownAdaptive => self.compiled_per_instance(),
        }
    }

    /// The lowest-index candidate. For a turn model that is a fixed
    /// selection inside a relation that is itself deadlock-free, so a
    /// valid escape.
    fn escape_port(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> Option<Port> {
        self.candidates(mesh, here, dest).first()
    }

    fn escape_subclass(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> usize {
        self.route(mesh, here, dest).2
    }

    /// The candidates, once: the escape is their lowest-index port.
    fn route(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> (PortSet, Option<Port>, usize) {
        let candidates = self.candidates(mesh, here, dest);
        let escape = candidates.first();
        (
            candidates,
            escape,
            torus_dateline_subclass(mesh, here, dest, escape),
        )
    }

    /// Two dateline classes on a torus, one on a mesh; up*/down* ignores
    /// wrap state, so it has one on any topology.
    fn escape_subclasses(&self, mesh: &Mesh) -> usize {
        if mesh.is_torus() && !self.fault_tolerant() {
            2
        } else {
            1
        }
    }

    fn deadlock_free_without_escape(&self) -> bool {
        !matches!(self, Algorithm::Duato | Algorithm::UpDownAdaptive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapses_topology::FaultSet;

    /// The five relations an [`Algorithm`] answers itself.
    const CLASSIC: [Algorithm; 5] = [
        Algorithm::DimensionOrder,
        Algorithm::Duato,
        Algorithm::NorthLast,
        Algorithm::WestFirst,
        Algorithm::NegativeFirst,
    ];

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    #[test]
    fn xy_resolves_x_before_y() {
        let m = mesh16();
        let xy = Algorithm::DimensionOrder;
        let here = m.id_at(&[4, 4]).unwrap();
        let dest = m.id_at(&[1, 9]).unwrap();
        assert_eq!(
            xy.escape_port(&m, here, dest),
            Some(Port::from(Direction::minus(0)))
        );
        // Same column: route in Y.
        let dest2 = m.id_at(&[4, 9]).unwrap();
        assert_eq!(
            xy.escape_port(&m, here, dest2),
            Some(Port::from(Direction::plus(1)))
        );
        assert_eq!(xy.escape_port(&m, here, here), None);
        assert!(xy.candidates(&m, here, here).is_empty());
    }

    /// The escape port against dimension order spelled out on
    /// coordinates: the first dimension whose coordinates differ, in the
    /// shorter direction (`+` on a torus half-way tie).
    #[test]
    fn escape_resolves_dimensions_in_order_on_meshes_and_tori() {
        for m in [
            Mesh::mesh_2d(5, 4),
            Mesh::mesh_3d(3, 4, 2),
            Mesh::torus_2d(4, 5),
            Mesh::torus(&[3, 4, 6]),
        ] {
            let xy = Algorithm::DimensionOrder;
            for here in m.nodes() {
                for dest in m.nodes() {
                    let (h, d) = (m.coord_of(here), m.coord_of(dest));
                    let want = (0..m.dims()).find(|&i| h[i] != d[i]).map(|i| {
                        let k = m.extent(i);
                        let fwd = (d[i] + k - h[i]) % k;
                        let plus = if m.is_torus() {
                            fwd <= k - fwd
                        } else {
                            d[i] > h[i]
                        };
                        Port::from(if plus {
                            Direction::plus(i)
                        } else {
                            Direction::minus(i)
                        })
                    });
                    assert_eq!(xy.escape_port(&m, here, dest), want, "{m} {here}->{dest}");
                    assert_eq!(
                        xy.escape_subclass(&m, here, dest),
                        torus_dateline_subclass(&m, here, dest, want),
                        "{m} {here}->{dest}"
                    );
                }
            }
        }
    }

    /// The one-call `route` of every classic algorithm agrees with the
    /// three separate queries, on a 2-D mesh, tori and a 3-D mesh
    /// (the turn models on the 2-D mesh only).
    #[test]
    fn route_is_the_three_queries_at_once() {
        for m in [
            Mesh::mesh_2d(5, 4),
            Mesh::torus_2d(4, 5),
            Mesh::torus(&[3, 4, 6]),
            Mesh::mesh_3d(3, 4, 2),
        ] {
            for algo in CLASSIC {
                if !algo.supports(&m) {
                    continue;
                }
                for here in m.nodes() {
                    for dest in m.nodes() {
                        let separate = (
                            algo.candidates(&m, here, dest),
                            algo.escape_port(&m, here, dest),
                            algo.escape_subclass(&m, here, dest),
                        );
                        assert_eq!(algo.route(&m, here, dest), separate, "{} {m}", algo.name());
                    }
                }
            }
        }
    }

    #[test]
    fn xy_candidates_are_singleton_escape() {
        let m = mesh16();
        let xy = Algorithm::DimensionOrder;
        for here in m.nodes().step_by(17) {
            for dest in m.nodes().step_by(13) {
                let c = xy.candidates(&m, here, dest);
                match xy.escape_port(&m, here, dest) {
                    Some(p) => assert_eq!(c, PortSet::single(p)),
                    None => assert!(c.is_empty()),
                }
            }
        }
    }

    #[test]
    fn duato_candidates_equal_productive_ports() {
        let m = mesh16();
        let duato = Algorithm::Duato;
        for here in m.nodes().step_by(11) {
            for dest in m.nodes().step_by(7) {
                assert_eq!(
                    duato.candidates(&m, here, dest),
                    m.productive_ports(here, dest)
                );
                // Escape route is always one of the candidates.
                if let Some(p) = duato.escape_port(&m, here, dest) {
                    assert!(duato.candidates(&m, here, dest).contains(p));
                }
            }
        }
    }

    #[test]
    fn all_candidates_are_minimal() {
        let m = Mesh::mesh_2d(6, 6);
        for algo in CLASSIC {
            for here in m.nodes() {
                for dest in m.nodes() {
                    let cands = algo.candidates(&m, here, dest);
                    if here == dest {
                        assert!(cands.is_empty(), "{} at destination", algo.name());
                        continue;
                    }
                    assert!(
                        !cands.is_empty(),
                        "{} gives no route {here}->{dest}",
                        algo.name()
                    );
                    for p in cands.iter() {
                        let dir = p.direction().unwrap();
                        let nb = m.neighbor(here, dir).unwrap();
                        assert_eq!(
                            m.distance(nb, dest) + 1,
                            m.distance(here, dest),
                            "{} non-minimal candidate {p} for {here}->{dest}",
                            algo.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn north_last_matches_fig7_table() {
        // The paper's Fig. 7(d) on a 3x3 mesh from router (1,1).
        let m = Mesh::mesh_2d(3, 3);
        let nl = Algorithm::NorthLast;
        let here = m.id_at(&[1, 1]).unwrap();
        let px = Port::from(Direction::plus(0));
        let mx = Port::from(Direction::minus(0));
        let py = Port::from(Direction::plus(1));
        let my = Port::from(Direction::minus(1));

        let cases: &[(&[u16; 2], &[Port])] = &[
            (&[0, 0], &[mx, my]),
            (&[1, 0], &[my]),
            (&[2, 0], &[px, my]),
            (&[0, 1], &[mx]),
            (&[2, 1], &[px]),
            (&[0, 2], &[mx]), // full candidates {-X,+Y}; NL drops +Y
            (&[1, 2], &[py]),
            (&[2, 2], &[px]), // full candidates {+X,+Y}; NL drops +Y
        ];
        for (coords, want) in cases {
            let dest = m.id_at(&coords[..]).unwrap();
            let got = nl.candidates(&m, here, dest);
            let want: PortSet = want.iter().copied().collect();
            assert_eq!(got, want, "dest {coords:?}");
        }
        // Destination == source routes nowhere (local exit).
        assert!(nl.candidates(&m, here, here).is_empty());
    }

    #[test]
    fn west_first_forces_west_hops_first() {
        let m = mesh16();
        let wf = Algorithm::WestFirst;
        let here = m.id_at(&[5, 5]).unwrap();
        let dest = m.id_at(&[2, 9]).unwrap(); // needs -X and +Y
        assert_eq!(
            wf.candidates(&m, here, dest),
            PortSet::single(Port::from(Direction::minus(0)))
        );
        // No west component: fully adaptive among the rest.
        let dest2 = m.id_at(&[9, 9]).unwrap();
        assert_eq!(wf.candidates(&m, here, dest2).len(), 2);
    }

    #[test]
    fn negative_first_orders_phases() {
        let m = mesh16();
        let nf = Algorithm::NegativeFirst;
        let here = m.id_at(&[5, 5]).unwrap();
        // Mixed signs: only the negative direction allowed first.
        let dest = m.id_at(&[9, 2]).unwrap();
        assert_eq!(
            nf.candidates(&m, here, dest),
            PortSet::single(Port::from(Direction::minus(1)))
        );
        // Both negative: adaptive between the two negatives.
        let dest2 = m.id_at(&[2, 2]).unwrap();
        assert_eq!(nf.candidates(&m, here, dest2).len(), 2);
        // Both positive: adaptive between the two positives.
        let dest3 = m.id_at(&[9, 9]).unwrap();
        assert_eq!(nf.candidates(&m, here, dest3).len(), 2);
    }

    #[test]
    fn escape_port_is_candidate_for_turn_models() {
        let m = Mesh::mesh_2d(5, 5);
        for tm in [
            Algorithm::NorthLast,
            Algorithm::WestFirst,
            Algorithm::NegativeFirst,
        ] {
            for here in m.nodes() {
                for dest in m.nodes() {
                    if here == dest {
                        continue;
                    }
                    let p = tm.escape_port(&m, here, dest).unwrap();
                    assert!(tm.candidates(&m, here, dest).contains(p));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2-D meshes")]
    fn turn_model_rejects_torus() {
        let t = Mesh::torus_2d(4, 4);
        let nl = Algorithm::NorthLast;
        let a = t.nodes().next().unwrap();
        let _ = nl.candidates(&t, a, a);
    }

    #[test]
    fn mesh_escape_subclass_is_zero() {
        let m = mesh16();
        let xy = Algorithm::DimensionOrder;
        let a = m.id_at(&[0, 0]).unwrap();
        let b = m.id_at(&[9, 9]).unwrap();
        assert_eq!(xy.escape_subclass(&m, a, b), 0);
        assert_eq!(xy.escape_subclasses(&m), 1);
    }

    #[test]
    fn torus_dateline_subclasses() {
        let t = Mesh::torus_2d(8, 8);
        let xy = Algorithm::DimensionOrder;
        assert_eq!(xy.escape_subclasses(&t), 2);

        // 6 -> 1 going + wraps: before the wrap link, class 0.
        let here = t.id_at(&[6, 0]).unwrap();
        let dest = t.id_at(&[1, 0]).unwrap();
        assert_eq!(
            xy.escape_port(&t, here, dest),
            Some(Port::from(Direction::plus(0)))
        );
        assert_eq!(xy.escape_subclass(&t, here, dest), 0);

        // After wrapping (now at 0 heading to 1): class 1.
        let here2 = t.id_at(&[0, 0]).unwrap();
        assert_eq!(xy.escape_subclass(&t, here2, dest), 1);

        // A route that never wraps is class 1 from the start.
        let a = t.id_at(&[1, 0]).unwrap();
        let b = t.id_at(&[3, 0]).unwrap();
        assert_eq!(xy.escape_subclass(&t, a, b), 1);
    }

    /// One spelling per algorithm: the relation's name is the selector's
    /// `.scn` name, compiled up*/down* programs included.
    #[test]
    fn names_are_stable() {
        let names = Algorithm::ALL.map(Algorithm::name);
        assert_eq!(
            names,
            [
                "dimension-order",
                "duato",
                "north-last",
                "west-first",
                "negative-first",
                "up-down",
                "up-down-adaptive",
            ]
        );
        let fmesh = Arc::new(FaultyMesh::new(Mesh::mesh_2d(3, 3), FaultSet::empty()).unwrap());
        for algorithm in Algorithm::ALL {
            assert_eq!(RoutingAlgorithm::name(&algorithm), algorithm.name());
            assert_eq!(algorithm.build_on(&fmesh).name(), algorithm.name());
        }
    }

    #[test]
    fn escape_vc_needs_match_the_compiled_relations() {
        for mesh in [
            Mesh::mesh_2d(4, 4),
            Mesh::torus_2d(4, 4),
            Mesh::mesh_3d(3, 3, 3),
        ] {
            let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap());
            for algorithm in Algorithm::ALL {
                if !algorithm.supports(&mesh) {
                    continue;
                }
                let algo = algorithm.build_on(&fmesh);
                for escape_vcs in [0, 1, 2] {
                    let compiled = if algo.deadlock_free_without_escape() && escape_vcs == 0 {
                        0
                    } else {
                        algo.escape_subclasses(&mesh).max(1)
                    };
                    assert_eq!(
                        algorithm.escape_vcs_needed(&mesh, escape_vcs),
                        compiled,
                        "{} on {mesh} with {escape_vcs} escape VC(s)",
                        algorithm.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "compiled per topology")]
    fn updown_build_needs_a_topology() {
        let _ = Algorithm::UpDown.build();
    }

    #[test]
    #[should_panic(
        expected = "up-down-adaptive routing is compiled per topology instance; use Algorithm::build_on"
    )]
    fn updown_pair_queries_need_a_topology() {
        let m = Mesh::mesh_2d(4, 4);
        let _ = Algorithm::UpDownAdaptive.route(&m, NodeId(0), NodeId(5));
    }
}
