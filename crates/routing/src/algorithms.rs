//! The routing relations used in the study.

use lapses_topology::{Direction, Mesh, NodeId, Port, PortSet, Sign};
use std::fmt;

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
pub trait RoutingAlgorithm: fmt::Debug + Send + Sync {
    /// A short name for reports ("XY", "Duato", "North-Last", ...).
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
    fn escape_subclasses(&self, mesh: &Mesh) -> usize {
        if mesh.is_torus() {
            2
        } else {
            1
        }
    }

    /// Whether the adaptive relation alone is deadlock-free, making escape
    /// channels optional (true for deterministic and turn-model routing).
    fn deadlock_free_without_escape(&self) -> bool {
        false
    }
}

/// Deterministic dimension-order routing (XY in 2-D, XYZ in 3-D):
/// fully resolve dimension 0, then dimension 1, and so on.
///
/// This is the paper's deterministic baseline (`DET` routers in Fig. 5),
/// the escape function of [`DuatoAdaptive`], and the relation the
/// "STATIC-XY" path-selection preference collapses to.
///
/// # Example
///
/// ```
/// use lapses_routing::{DimensionOrder, RoutingAlgorithm};
/// use lapses_topology::{Direction, Mesh, Port};
///
/// let mesh = Mesh::mesh_2d(8, 8);
/// let xy = DimensionOrder::new();
/// let here = mesh.id_at(&[2, 2]).unwrap();
/// let dest = mesh.id_at(&[5, 7]).unwrap();
/// // X is corrected before Y.
/// assert_eq!(
///     xy.escape_port(&mesh, here, dest),
///     Some(Port::from(Direction::plus(0)))
/// );
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DimensionOrder {
    _priv: (),
}

impl DimensionOrder {
    /// Creates the dimension-order router.
    pub fn new() -> Self {
        DimensionOrder { _priv: () }
    }
}

impl RoutingAlgorithm for DimensionOrder {
    fn name(&self) -> &'static str {
        "XY"
    }

    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet {
        self.escape_port(mesh, here, dest)
            .map_or(PortSet::EMPTY, PortSet::single)
    }

    /// The lowest-index productive port. Ports run `+0, −0, +1, −1, …`,
    /// so that is the first unresolved dimension, in its positive
    /// direction on a torus half-way tie.
    fn escape_port(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> Option<Port> {
        mesh.productive_ports(here, dest).first()
    }

    fn escape_subclass(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> usize {
        if !mesh.is_torus() {
            return 0;
        }
        torus_dateline_subclass(mesh, here, dest, self.escape_port(mesh, here, dest))
    }

    fn route(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> (PortSet, Option<Port>, usize) {
        let escape = self.escape_port(mesh, here, dest);
        (
            escape.map_or(PortSet::EMPTY, PortSet::single),
            escape,
            torus_dateline_subclass(mesh, here, dest, escape),
        )
    }

    fn deadlock_free_without_escape(&self) -> bool {
        true
    }
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

/// Duato's fully adaptive routing: any minimal (productive) port on the
/// adaptive virtual channels, dimension-order routing on the escape virtual
/// channel.
///
/// This is the algorithm the paper simulates ("we use Duato's fully
/// adaptive algorithm \[9\] for performance analyses"); it needs 2 VCs per
/// physical channel for deadlock freedom in a 2-D mesh — 1 escape + 1
/// adaptive — and benefits from more adaptive VCs.
///
/// # Example
///
/// ```
/// use lapses_routing::{DuatoAdaptive, RoutingAlgorithm};
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let duato = DuatoAdaptive::new();
/// let here = mesh.id_at(&[5, 5]).unwrap();
/// let dest = mesh.id_at(&[9, 1]).unwrap();
/// let cands = duato.candidates(&mesh, here, dest);
/// assert_eq!(cands.len(), 2); // +X and -Y are both minimal
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DuatoAdaptive {
    escape: DimensionOrder,
}

impl DuatoAdaptive {
    /// Creates the fully adaptive router with a dimension-order escape.
    pub fn new() -> Self {
        DuatoAdaptive {
            escape: DimensionOrder::new(),
        }
    }
}

impl RoutingAlgorithm for DuatoAdaptive {
    fn name(&self) -> &'static str {
        "Duato"
    }

    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet {
        mesh.productive_ports(here, dest)
    }

    fn escape_port(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> Option<Port> {
        self.escape.escape_port(mesh, here, dest)
    }

    fn escape_subclass(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> usize {
        self.escape.escape_subclass(mesh, here, dest)
    }

    /// The productive ports, once: the escape is their lowest-index port
    /// (see [`DimensionOrder`]).
    fn route(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> (PortSet, Option<Port>, usize) {
        let candidates = mesh.productive_ports(here, dest);
        let escape = candidates.first();
        (
            candidates,
            escape,
            torus_dateline_subclass(mesh, here, dest, escape),
        )
    }
}

/// The turn-model variants of Glass & Ni used in the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TurnModelKind {
    /// `+Y` (north) hops must come last; adaptive among `{±X, -Y}`.
    NorthLast,
    /// `-X` (west) hops must come first; adaptive among `{+X, ±Y}`.
    WestFirst,
    /// All negative hops before any positive hop; adaptive within each
    /// phase.
    NegativeFirst,
}

/// Partially-adaptive turn-model routing for 2-D meshes.
///
/// Turn-model algorithms prohibit just enough turns to break all cycles, so
/// they are deadlock-free *without* escape channels
/// ([`deadlock_free_without_escape`](RoutingAlgorithm::deadlock_free_without_escape)
/// is true); the paper uses North-Last to illustrate that economical-storage
/// tables can express restricted relations (Fig. 7(d)).
///
/// # Example
///
/// ```
/// use lapses_routing::{RoutingAlgorithm, TurnModel, TurnModelKind};
/// use lapses_topology::{Direction, Mesh, Port};
///
/// let mesh = Mesh::mesh_2d(3, 3);
/// let nl = TurnModel::new(TurnModelKind::NorthLast);
/// let here = mesh.id_at(&[1, 1]).unwrap();
/// // Fig. 7(d), destination (0,2): both -X and +Y are minimal but
/// // North-Last permits only -X.
/// let dest = mesh.id_at(&[0, 2]).unwrap();
/// assert_eq!(
///     nl.candidates(&mesh, here, dest),
///     lapses_topology::PortSet::single(Port::from(Direction::minus(0)))
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TurnModel {
    kind: TurnModelKind,
}

impl TurnModel {
    /// Creates the given turn-model router (2-D meshes only; the relation
    /// methods panic on other topologies).
    pub fn new(kind: TurnModelKind) -> Self {
        TurnModel { kind }
    }

    /// Which variant this is.
    pub fn kind(&self) -> TurnModelKind {
        self.kind
    }

    fn check_topology(mesh: &Mesh) {
        assert!(
            mesh.dims() == 2 && !mesh.is_torus(),
            "turn-model routing is defined for 2-D meshes"
        );
    }

    /// Applies the turn restriction to a productive-port set.
    fn restrict(&self, productive: PortSet) -> PortSet {
        let north = Port::from(Direction::plus(1));
        match self.kind {
            TurnModelKind::NorthLast => {
                // North only when nothing else is productive.
                let others = productive.difference(PortSet::single(north));
                if others.is_empty() {
                    productive
                } else {
                    others
                }
            }
            TurnModelKind::WestFirst => {
                // West (if needed) before anything else.
                let west = Port::from(Direction::minus(0));
                if productive.contains(west) {
                    PortSet::single(west)
                } else {
                    productive
                }
            }
            TurnModelKind::NegativeFirst => {
                let negatives: PortSet = productive
                    .iter()
                    .filter(|p| {
                        p.direction()
                            .map(|d| d.sign() == Sign::Minus)
                            .unwrap_or(false)
                    })
                    .collect();
                if negatives.is_empty() {
                    productive
                } else {
                    negatives
                }
            }
        }
    }
}

impl RoutingAlgorithm for TurnModel {
    fn name(&self) -> &'static str {
        match self.kind {
            TurnModelKind::NorthLast => "North-Last",
            TurnModelKind::WestFirst => "West-First",
            TurnModelKind::NegativeFirst => "Negative-First",
        }
    }

    fn candidates(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> PortSet {
        Self::check_topology(mesh);
        self.restrict(mesh.productive_ports(here, dest))
    }

    fn escape_port(&self, mesh: &Mesh, here: NodeId, dest: NodeId) -> Option<Port> {
        // Deterministic pick inside the restricted relation: lowest port
        // index (X before Y). The restricted relation is itself
        // deadlock-free, so any fixed selection is a valid escape.
        self.candidates(mesh, here, dest).first()
    }

    fn deadlock_free_without_escape(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    #[test]
    fn xy_resolves_x_before_y() {
        let m = mesh16();
        let xy = DimensionOrder::new();
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
            let xy = DimensionOrder::new();
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

    /// The one-call `route` of every algorithm that overrides it agrees
    /// with the three separate queries, on meshes and tori.
    #[test]
    fn route_is_the_three_queries_at_once() {
        let algos: [&dyn RoutingAlgorithm; 3] = [
            &DimensionOrder::new(),
            &DuatoAdaptive::new(),
            &TurnModel::new(TurnModelKind::NorthLast),
        ];
        for m in [
            Mesh::mesh_2d(5, 4),
            Mesh::torus_2d(4, 5),
            Mesh::torus(&[3, 4, 6]),
        ] {
            for algo in algos {
                if algo.name() == "North-Last" && m.is_torus() {
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
        let xy = DimensionOrder::new();
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
        let duato = DuatoAdaptive::new();
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
        let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
            Box::new(DimensionOrder::new()),
            Box::new(DuatoAdaptive::new()),
            Box::new(TurnModel::new(TurnModelKind::NorthLast)),
            Box::new(TurnModel::new(TurnModelKind::WestFirst)),
            Box::new(TurnModel::new(TurnModelKind::NegativeFirst)),
        ];
        for algo in &algos {
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
        let nl = TurnModel::new(TurnModelKind::NorthLast);
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
        let wf = TurnModel::new(TurnModelKind::WestFirst);
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
        let nf = TurnModel::new(TurnModelKind::NegativeFirst);
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
        for kind in [
            TurnModelKind::NorthLast,
            TurnModelKind::WestFirst,
            TurnModelKind::NegativeFirst,
        ] {
            let tm = TurnModel::new(kind);
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
        let nl = TurnModel::new(TurnModelKind::NorthLast);
        let a = t.nodes().next().unwrap();
        let _ = nl.candidates(&t, a, a);
    }

    #[test]
    fn mesh_escape_subclass_is_zero() {
        let m = mesh16();
        let xy = DimensionOrder::new();
        let a = m.id_at(&[0, 0]).unwrap();
        let b = m.id_at(&[9, 9]).unwrap();
        assert_eq!(xy.escape_subclass(&m, a, b), 0);
        assert_eq!(xy.escape_subclasses(&m), 1);
    }

    #[test]
    fn torus_dateline_subclasses() {
        let t = Mesh::torus_2d(8, 8);
        let xy = DimensionOrder::new();
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

    #[test]
    fn names_are_stable() {
        assert_eq!(DimensionOrder::new().name(), "XY");
        assert_eq!(DuatoAdaptive::new().name(), "Duato");
        assert_eq!(
            TurnModel::new(TurnModelKind::NorthLast).name(),
            "North-Last"
        );
        assert_eq!(
            TurnModel::new(TurnModelKind::NegativeFirst).kind(),
            TurnModelKind::NegativeFirst
        );
    }
}
