//! Routing-table storage schemes (§5 of the paper).
//!
//! Table-based routers store, per destination, the set of crossbar output
//! ports a message may take. The paper compares three ways of organizing
//! that storage — and this module implements all of them, plus interval
//! routing for the Table 5 comparison:
//!
//! * [`FullTable`] — one entry per destination node (`N` entries/router);
//!   complete flexibility, poor scalability. (Cray T3D/T3E, S3.mp.)
//! * [`MetaTable`] — two-level hierarchical routing over a cluster labeling
//!   (`N/m + m` entries); loses adaptivity at cluster boundaries, which §5.2.2
//!   shows is disastrous for 2-D meshes.
//! * [`EconomicalTable`] — the paper's proposal: index by the per-dimension
//!   *sign* of the destination-relative coordinates, needing only `3ⁿ`
//!   entries (9 for 2-D, 27 for 3-D) with **zero** loss of routing
//!   flexibility for source-relative algorithms.
//! * [`IntervalTable`] — one interval per output port (Transputer C-104);
//!   smallest possible but deterministic and labeling-sensitive.
//!
//! A scheme is a *program*: it answers [`TableScheme::entry`] for every
//! (router, destination) pair, exactly as the per-router hardware tables
//! would after being configured for a routing algorithm. A program is a
//! function of the topology and the relation alone: dead links reach a
//! table only through a relation that routes around them (up*/down*),
//! which checks its own routes against the surviving links. Routers access
//! their slice of the program through [`RouterTable`], which also serves
//! the look-ahead queries (the entry at a *neighbor*, §3.2).

use lapses_routing::RoutingAlgorithm;
use lapses_topology::{Mesh, NodeId, Port, PortSet};
use std::fmt;
use std::sync::Arc;

mod cost;
mod economical;
mod full;
mod interval;
mod meta;

pub use cost::{scheme_comparison, SchemeCost, StorageCost};
pub use economical::EconomicalTable;
pub use full::FullTable;
pub use interval::IntervalTable;
pub use meta::MetaTable;

/// One routing-table entry: the route options for one destination (or
/// destination class) at one router.
///
/// `candidates` is the adaptive candidate-port set ("up to two output-port
/// choices" for 2-D minimal routing); `escape` is the deterministic escape
/// route used by Duato-style escape virtual channels, always a member of
/// `candidates`; `escape_subclass` selects the dateline class on tori.
///
/// At the destination router the entry is [`RouteEntry::local`]: the single
/// candidate is the local exit port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Adaptive candidate output ports.
    pub candidates: PortSet,
    /// Deterministic escape route (`None` only in unprogrammed entries).
    pub escape: Option<Port>,
    /// Escape virtual-channel subclass (dateline class; 0 on meshes).
    pub escape_subclass: u8,
}

impl RouteEntry {
    /// The entry used when the message has arrived: exit via the local port.
    pub fn local() -> RouteEntry {
        RouteEntry {
            candidates: PortSet::single(Port::LOCAL),
            escape: Some(Port::LOCAL),
            escape_subclass: 0,
        }
    }

    /// An unprogrammed entry (used for sign combinations that cannot occur
    /// at a given router, e.g. `(-,-)` at the mesh origin).
    pub fn unprogrammed() -> RouteEntry {
        RouteEntry {
            candidates: PortSet::EMPTY,
            escape: None,
            escape_subclass: 0,
        }
    }

    /// The entry `algo` programs at `node` for `dest`: [`RouteEntry::local`]
    /// at the destination, else the algorithm's
    /// [`route`](RoutingAlgorithm::route).
    pub(crate) fn compile(
        algo: &dyn RoutingAlgorithm,
        mesh: &Mesh,
        node: NodeId,
        dest: NodeId,
    ) -> RouteEntry {
        if node == dest {
            return RouteEntry::local();
        }
        let (candidates, escape, escape_subclass) = algo.route(mesh, node, dest);
        RouteEntry {
            candidates,
            escape,
            escape_subclass: escape_subclass as u8,
        }
    }

    /// Whether this entry routes to the local exit port.
    pub fn is_local(&self) -> bool {
        self.candidates == PortSet::single(Port::LOCAL)
    }
}

impl fmt::Display for RouteEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.candidates)?;
        if let Some(e) = self.escape {
            write!(f, " esc {e}")?;
            if self.escape_subclass != 0 {
                write!(f, ".{}", self.escape_subclass)?;
            }
        }
        Ok(())
    }
}

/// A programmed routing-table scheme covering every router of a topology.
///
/// Conceptually each router holds its own table; the program owns all of
/// them (hardware would flash each router separately, a simulator shares
/// the storage). All queries are total over valid node pairs.
pub trait TableScheme: fmt::Debug + Send + Sync {
    /// A short name for reports ("full", "meta", "economical", "interval").
    fn name(&self) -> &'static str;

    /// The topology this program was compiled for.
    fn mesh(&self) -> &Mesh;

    /// The table entry consulted by router `node` for destination `dest`.
    ///
    /// Returns [`RouteEntry::local`] when `node == dest`.
    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry;

    /// Hardware storage cost of one router's table under this scheme.
    fn storage(&self) -> StorageCost;
}

/// A router's view of a [`TableScheme`]: its own entries plus the
/// neighbor entries needed for look-ahead routing.
///
/// # Example
///
/// ```
/// use lapses_core::tables::{FullTable, RouterTable};
/// use lapses_routing::DuatoAdaptive;
/// use lapses_topology::Mesh;
/// use std::sync::Arc;
///
/// let mesh = Mesh::mesh_2d(4, 4);
/// let program = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
/// let node = mesh.id_at(&[1, 1]).unwrap();
/// let dest = mesh.id_at(&[3, 3]).unwrap();
/// let table = RouterTable::new(program, node);
/// assert_eq!(table.entry(dest).candidates.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RouterTable {
    program: Arc<dyn TableScheme>,
    node: NodeId,
    /// Neighbor node per port index (`None` for the local port and for
    /// directions off the mesh edge), so the per-header look-ahead lookup
    /// is one array read instead of a coordinate round trip.
    neighbors: [Option<NodeId>; lapses_topology::MAX_DIMS * 2 + 1],
}

impl RouterTable {
    /// Creates the view of `program` for router `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the program's topology.
    pub fn new(program: Arc<dyn TableScheme>, node: NodeId) -> RouterTable {
        assert!(
            node.index() < program.mesh().node_count(),
            "node {node} outside the programmed topology"
        );
        let mut neighbors = [None; lapses_topology::MAX_DIMS * 2 + 1];
        let mesh = program.mesh();
        for port in mesh.direction_ports() {
            let dir = port.direction().expect("direction port");
            neighbors[port.index()] = mesh.neighbor(node, dir);
        }
        RouterTable {
            program,
            node,
            neighbors,
        }
    }

    /// The router this view belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The underlying program.
    pub fn program(&self) -> &Arc<dyn TableScheme> {
        &self.program
    }

    /// This router's entry for `dest` — the PROUD table-lookup stage.
    pub fn entry(&self, dest: NodeId) -> RouteEntry {
        self.program.entry(self.node, dest)
    }

    /// The entry the *neighbor* along `via` will need for `dest` — the
    /// look-ahead lookup performed concurrently with arbitration (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if `via` is the local port or points off the mesh edge.
    pub fn lookahead_entry(&self, via: Port, dest: NodeId) -> RouteEntry {
        assert!(
            !via.is_local(),
            "look-ahead is undefined for the local port"
        );
        let neighbor = self.neighbors[via.index()].expect("look-ahead across a missing link");
        self.program.entry(neighbor, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapses_routing::DuatoAdaptive;

    #[test]
    fn local_entry_shape() {
        let e = RouteEntry::local();
        assert!(e.is_local());
        assert_eq!(e.escape, Some(Port::LOCAL));
        assert_eq!(e.to_string(), "{local} esc local");
    }

    #[test]
    fn unprogrammed_entry_is_empty() {
        let e = RouteEntry::unprogrammed();
        assert!(e.candidates.is_empty());
        assert_eq!(e.escape, None);
        assert!(!e.is_local());
    }

    #[test]
    fn router_table_answers_own_and_neighbor_entries() {
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let node = mesh.id_at(&[1, 1]).unwrap();
        let dest = mesh.id_at(&[3, 3]).unwrap();
        let table = RouterTable::new(Arc::clone(&program), node);

        let own = table.entry(dest);
        assert_eq!(own.candidates.len(), 2);

        // The lookahead entry via +X equals the neighbor's own entry.
        let px = Port::from(lapses_topology::Direction::plus(0));
        let la = table.lookahead_entry(px, dest);
        let neighbor = mesh.id_at(&[2, 1]).unwrap();
        assert_eq!(la, program.entry(neighbor, dest));
    }

    #[test]
    #[should_panic(expected = "local port")]
    fn lookahead_via_local_port_panics() {
        let mesh = Mesh::mesh_2d(4, 4);
        let program = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let table = RouterTable::new(program, NodeId(0));
        let _ = table.lookahead_entry(Port::LOCAL, NodeId(5));
    }

    #[test]
    #[should_panic(expected = "missing link")]
    fn lookahead_off_the_mesh_edge_panics() {
        let mesh = Mesh::mesh_2d(4, 4);
        let program = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let table = RouterTable::new(program, NodeId(0));
        let minus_x = Port::from(lapses_topology::Direction::minus(0));
        let _ = table.lookahead_entry(minus_x, NodeId(5));
    }

    #[test]
    fn cached_neighbors_match_the_mesh() {
        // Every direction of every router of a 3-D torus and a 2-D mesh:
        // the cached neighbor must be the mesh's (edges included).
        for mesh in [Mesh::torus(&[3, 4, 3]), Mesh::mesh_2d(3, 5)] {
            let program: Arc<dyn TableScheme> =
                Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
            for node in mesh.nodes() {
                let table = RouterTable::new(Arc::clone(&program), node);
                for port in mesh.direction_ports() {
                    let dir = port.direction().expect("direction port");
                    assert_eq!(table.neighbors[port.index()], mesh.neighbor(node, dir));
                }
                assert_eq!(table.neighbors[Port::LOCAL.index()], None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_node_rejected() {
        let mesh = Mesh::mesh_2d(2, 2);
        let program = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let _ = RouterTable::new(program, NodeId(99));
    }
}
