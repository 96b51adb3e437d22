//! Full-table routing: one entry per destination per router.

use crate::tables::cost::StorageCost;
use crate::tables::{RouteEntry, TableScheme};
use lapses_routing::RoutingAlgorithm;
use lapses_topology::{FaultyMesh, Mesh, NodeId, Port, PortSet};

/// The conventional complete routing table (§5: "a distinct routing table
/// entry is available for every destination node") — the baseline the
/// economical-storage scheme is measured against.
///
/// The program materializes every router's `N`-entry table, so the storage
/// cost it reports is exactly what the hardware would pay.
///
/// # Example
///
/// ```
/// use lapses_core::tables::{FullTable, TableScheme};
/// use lapses_routing::DuatoAdaptive;
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let table = FullTable::program(&mesh, &DuatoAdaptive::new());
/// assert_eq!(table.storage().entries_per_router, 256);
/// ```
#[derive(Debug)]
pub struct FullTable {
    mesh: Mesh,
    /// Node count `n`, the row stride.
    nodes: usize,
    /// Flattened `entries[node * n + dest]`.
    entries: Vec<RouteEntry>,
}

impl FullTable {
    /// Compiles a full table for every router from a routing algorithm.
    pub fn program(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> FullTable {
        let mut entries = Vec::with_capacity(mesh.node_count() * mesh.node_count());
        for node in mesh.nodes() {
            entries.extend(mesh.nodes().map(|dest| {
                if node == dest {
                    RouteEntry::local()
                } else {
                    RouteEntry {
                        candidates: algo.candidates(mesh, node, dest),
                        escape: algo.escape_port(mesh, node, dest),
                        escape_subclass: algo.escape_subclass(mesh, node, dest) as u8,
                    }
                }
            }));
        }
        FullTable {
            mesh: mesh.clone(),
            nodes: mesh.node_count(),
            entries,
        }
    }

    /// Compiles a full table over a faulty topology, asserting that no
    /// programmed entry — candidate or escape — ever crosses a dead link.
    /// Per-destination tables express irregular relations natively, so
    /// this is [`FullTable::program`] plus the safety check: every port an
    /// entry names must be the local port or one of the router's alive
    /// ports.
    pub fn program_faulty(fmesh: &FaultyMesh, algo: &dyn RoutingAlgorithm) -> FullTable {
        let table = Self::program(fmesh.mesh(), algo);
        for (node, row) in fmesh
            .mesh()
            .nodes()
            .zip(table.entries.chunks_exact(table.nodes))
        {
            let usable = fmesh.alive_ports(node).union(PortSet::single(Port::LOCAL));
            for (dest, e) in row.iter().enumerate() {
                let used = e
                    .candidates
                    .union(e.escape.map_or(PortSet::EMPTY, PortSet::single));
                if let Some(dead) = used.difference(usable).first() {
                    panic!("table entry {node}->n{dest} routes over the dead link {node} {dead}");
                }
            }
        }
        table
    }
}

impl TableScheme for FullTable {
    fn name(&self) -> &'static str {
        "full"
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry {
        self.entries[node.index() * self.nodes + dest.index()]
    }

    fn storage(&self) -> StorageCost {
        StorageCost::for_scheme(&self.mesh, self.mesh.node_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapses_routing::{DimensionOrder, DuatoAdaptive};
    use lapses_topology::Direction;

    #[test]
    fn full_table_reproduces_the_algorithm_exactly() {
        let mesh = Mesh::mesh_2d(6, 6);
        let algo = DuatoAdaptive::new();
        let table = FullTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let e = table.entry(node, dest);
                if node == dest {
                    assert!(e.is_local());
                } else {
                    assert_eq!(e.candidates, algo.candidates(&mesh, node, dest));
                    assert_eq!(e.escape, algo.escape_port(&mesh, node, dest));
                    assert!(e.candidates.contains(e.escape.unwrap()));
                }
            }
        }
    }

    #[test]
    fn deterministic_program_has_singleton_entries() {
        let mesh = Mesh::mesh_2d(4, 4);
        let table = FullTable::program(&mesh, &DimensionOrder::new());
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                if node == dest {
                    continue;
                }
                assert_eq!(table.entry(node, dest).candidates.len(), 1);
            }
        }
    }

    #[test]
    fn torus_entries_carry_dateline_subclasses() {
        let torus = Mesh::torus_2d(8, 8);
        let table = FullTable::program(&torus, &DuatoAdaptive::new());
        let here = torus.id_at(&[6, 0]).unwrap();
        let dest = torus.id_at(&[1, 0]).unwrap();
        let e = table.entry(here, dest);
        // Route wraps: still class 0.
        assert_eq!(e.escape_subclass, 0);
        assert_eq!(e.escape, Some(Port::from(Direction::plus(0))));
        let here2 = torus.id_at(&[0, 0]).unwrap();
        assert_eq!(table.entry(here2, dest).escape_subclass, 1);
    }

    #[test]
    fn storage_is_one_entry_per_destination() {
        let mesh = Mesh::mesh_2d(16, 16);
        let table = FullTable::program(&mesh, &DuatoAdaptive::new());
        assert_eq!(table.storage().entries_per_router, 256);
        assert_eq!(table.name(), "full");
    }

    #[test]
    fn quadrant_entries_have_two_choices() {
        // §5.2: quadrant destinations get two ports, axis destinations one.
        let mesh = Mesh::mesh_2d(16, 16);
        let table = FullTable::program(&mesh, &DuatoAdaptive::new());
        let node = mesh.id_at(&[8, 8]).unwrap();
        let quadrant = mesh.id_at(&[12, 12]).unwrap();
        let axis = mesh.id_at(&[8, 2]).unwrap();
        assert_eq!(table.entry(node, quadrant).candidates.len(), 2);
        let want: PortSet = [
            Port::from(Direction::plus(0)),
            Port::from(Direction::plus(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(table.entry(node, quadrant).candidates, want);
        assert_eq!(table.entry(node, axis).candidates.len(), 1);
    }
}
