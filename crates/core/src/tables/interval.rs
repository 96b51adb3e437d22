//! Interval routing — §5.1.2, for the Table 5 comparison: Y-then-X
//! intervals on a perfect mesh, or escape-port runs for any other
//! deterministic relation.

use crate::tables::cost::StorageCost;
use crate::tables::{RouteEntry, TableScheme};
use lapses_routing::RoutingAlgorithm;
use lapses_topology::{Direction, Mesh, NodeId, Port, PortSet};

/// Interval (universal) routing: each output port is labeled with
/// contiguous intervals of destination identifiers, so the table has only
/// as many entries as the router has interval labels — the smallest
/// possible size, used by the Transputer C-104 switch.
///
/// The catch, per the paper: it "is not readily receptive to adaptive
/// routing" and needs a compatible node labeling. With the mesh's row-major
/// labels, *Y-then-X* dimension-order routing partitions destinations into
/// one interval per port (all lower rows, all higher rows, left in row,
/// right in row, self), which is what [`IntervalTable::program`] compiles —
/// exactly one interval per port, the classic C-104 cost.
///
/// Under any other deterministic relation — up*/down* routes around dead
/// links — a port's destination set need not be contiguous, so
/// [`IntervalTable::escape_runs`] generalizes to a *run list*: the
/// relation's escape port, run-length encoded over the row-major labels.
/// Storage is counted in runs — the honest price interval routing pays for
/// irregularity (and the reason the paper's programmable tables win
/// there).
///
/// # Example
///
/// ```
/// use lapses_core::tables::{IntervalTable, TableScheme};
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let table = IntervalTable::program(&mesh);
/// assert_eq!(table.storage().entries_per_router, 5); // one per port
/// ```
#[derive(Debug)]
pub struct IntervalTable {
    mesh: Mesh,
    /// `runs[node]`: `(lo, hi, port)` half-open id runs sorted by `lo`,
    /// jointly covering every destination id exactly once.
    runs: Vec<Vec<(u32, u32, Port)>>,
    /// Hardware entries per router: the worst-case run count (equals
    /// `ports_per_router` for the classic Y-then-X program).
    entries_per_router: usize,
}

impl IntervalTable {
    /// Whether [`IntervalTable::program`] supports `mesh`: meshes only.
    pub fn supports(mesh: &Mesh) -> bool {
        !mesh.is_torus()
    }

    /// Compiles interval labels for Y-then-X dimension-order routing on a
    /// row-major-labeled mesh.
    ///
    /// # Panics
    ///
    /// Panics on tori (wrap-around breaks interval contiguity under this
    /// labeling) and — defensively — if any port's destination set is not
    /// one contiguous interval, which would indicate an incompatible
    /// labeling.
    pub fn program(mesh: &Mesh) -> IntervalTable {
        assert!(
            Self::supports(mesh),
            "interval routing here supports meshes only"
        );
        let table = Self::from_relation(mesh, |node, dest| yx_port(mesh, node, dest));
        // The classic labeling claim: one interval per port, so the run
        // count never exceeds the port count.
        for (node, runs) in table.runs.iter().enumerate() {
            let mut ports_seen = PortSet::EMPTY;
            for &(_, _, port) in runs {
                assert!(
                    !ports_seen.contains(port),
                    "port {port} of n{node} has a non-contiguous destination set"
                );
                ports_seen.insert(port);
            }
        }
        IntervalTable {
            entries_per_router: mesh.ports_per_router(),
            ..table
        }
    }

    /// Compiles a run-list interval table from a routing relation's escape
    /// port. Storage is the worst-case per-router run count.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm needs more than one escape subclass (run
    /// lists store a port per destination range, no dateline state).
    pub fn escape_runs(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> IntervalTable {
        assert_eq!(
            algo.escape_subclasses(mesh),
            1,
            "interval runs cannot encode dateline subclasses"
        );
        let table = Self::from_relation(mesh, |node, dest| {
            if node == dest {
                return Port::LOCAL;
            }
            algo.escape_port(mesh, node, dest)
                .expect("escape route exists away from dest")
        });
        let entries_per_router = table.runs.iter().map(Vec::len).max().unwrap_or(0);
        IntervalTable {
            entries_per_router,
            ..table
        }
    }

    /// Run-length encodes `port_of(node, dest)` over the row-major ids.
    fn from_relation(mesh: &Mesh, port_of: impl Fn(NodeId, NodeId) -> Port) -> IntervalTable {
        let mut runs = Vec::with_capacity(mesh.node_count());
        for node in mesh.nodes() {
            let mut row: Vec<(u32, u32, Port)> = Vec::new();
            for dest in mesh.nodes() {
                let port = port_of(node, dest);
                match row.last_mut() {
                    Some((_, hi, p)) if *p == port && *hi == dest.0 => *hi += 1,
                    _ => row.push((dest.0, dest.0 + 1, port)),
                }
            }
            runs.push(row);
        }
        IntervalTable {
            mesh: mesh.clone(),
            runs,
            entries_per_router: 0,
        }
    }

    /// The `(lo, hi)` runs labeled with `port` at `node` (test hook and
    /// storage introspection).
    pub fn runs_for(&self, node: NodeId, port: Port) -> Vec<(u32, u32)> {
        self.runs[node.index()]
            .iter()
            .filter(|(_, _, p)| *p == port)
            .map(|&(lo, hi, _)| (lo, hi))
            .collect()
    }
}

/// Y-then-X (highest dimension first) dimension-order port choice; the
/// local port at the destination.
fn yx_port(mesh: &Mesh, node: NodeId, dest: NodeId) -> Port {
    let h = mesh.coord_of(node);
    let d = mesh.coord_of(dest);
    for dim in (0..mesh.dims()).rev() {
        if d[dim] > h[dim] {
            return Port::from(Direction::plus(dim));
        }
        if d[dim] < h[dim] {
            return Port::from(Direction::minus(dim));
        }
    }
    Port::LOCAL
}

impl TableScheme for IntervalTable {
    fn name(&self) -> &'static str {
        "interval"
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry {
        let runs = &self.runs[node.index()];
        let i = runs
            .partition_point(|&(_, hi, _)| hi <= dest.0)
            .min(runs.len().saturating_sub(1));
        let (lo, hi, port) = runs[i];
        assert!(
            (lo..hi).contains(&dest.0),
            "interval labeling does not cover {dest} at {node}"
        );
        if port.is_local() {
            return RouteEntry::local();
        }
        RouteEntry {
            candidates: PortSet::single(port),
            escape: Some(port),
            escape_subclass: 0,
        }
    }

    fn storage(&self) -> StorageCost {
        StorageCost::for_scheme(&self.mesh, self.entries_per_router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_destination_is_covered_once() {
        let mesh = Mesh::mesh_2d(8, 8);
        let table = IntervalTable::program(&mesh);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let e = table.entry(node, dest);
                assert_eq!(e.candidates.len(), 1);
                if node == dest {
                    assert!(e.is_local());
                }
            }
        }
    }

    #[test]
    fn routes_are_minimal_and_reach_destination() {
        let mesh = Mesh::mesh_2d(6, 6);
        let table = IntervalTable::program(&mesh);
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                // Walk the route.
                let mut at = src;
                let mut hops = 0;
                loop {
                    let e = table.entry(at, dest);
                    let p = e.candidates.first().unwrap();
                    if p.is_local() {
                        break;
                    }
                    at = mesh.neighbor(at, p.direction().unwrap()).unwrap();
                    hops += 1;
                    assert!(hops <= mesh.distance(src, dest), "non-minimal walk");
                }
                assert_eq!(at, dest);
                assert_eq!(hops, mesh.distance(src, dest));
            }
        }
    }

    #[test]
    fn y_ports_hold_whole_row_blocks() {
        let mesh = Mesh::mesh_2d(16, 16);
        let table = IntervalTable::program(&mesh);
        let node = mesh.id_at(&[5, 5]).unwrap();
        let minus_y = Port::from(Direction::minus(1));
        // All of rows 0..5 (ids 0..80) route -Y.
        assert_eq!(table.runs_for(node, minus_y), vec![(0, 80)]);
        let plus_y = Port::from(Direction::plus(1));
        assert_eq!(table.runs_for(node, plus_y), vec![(96, 256)]);
    }

    #[test]
    fn table_size_is_port_count() {
        let mesh = Mesh::mesh_3d(4, 4, 4);
        let table = IntervalTable::program(&mesh);
        assert_eq!(table.storage().entries_per_router, 7);
        assert_eq!(table.name(), "interval");
    }

    #[test]
    #[should_panic(expected = "meshes only")]
    fn torus_rejected() {
        let _ = IntervalTable::program(&Mesh::torus_2d(4, 4));
    }

    #[test]
    fn escape_runs_store_any_deterministic_relation() {
        // X-first routing splits the off-row destinations of every column
        // side into one run per row: correct, but more runs than ports.
        use lapses_routing::{Algorithm, RoutingAlgorithm};
        let mesh = Mesh::mesh_2d(6, 5);
        let algo = Algorithm::DimensionOrder;
        let table = IntervalTable::escape_runs(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes().filter(|&d| d != node) {
                assert_eq!(
                    table.entry(node, dest).escape,
                    algo.escape_port(&mesh, node, dest)
                );
            }
        }
        assert!(table.storage().entries_per_router > mesh.ports_per_router());
    }
}
