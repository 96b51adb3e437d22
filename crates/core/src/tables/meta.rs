//! Two-level hierarchical (meta-table) routing — §5.1.1.

use crate::tables::cost::StorageCost;
use crate::tables::{RouteEntry, TableScheme};
use lapses_routing::RoutingAlgorithm;
use lapses_topology::labeling::{ClusterId, ClusterMap};
use lapses_topology::{Coord, Mesh, NodeId};

/// A two-level meta-table: a full sub-cluster table for destinations inside
/// the router's own cluster, plus one entry per *cluster* for everything
/// else (`N/m + m` entries instead of `N`).
///
/// The inter-cluster entry for cluster `C` can only hold directions that
/// are productive toward **every** node of `C` (otherwise some destination
/// in `C` would be routed non-minimally), which is what destroys adaptivity
/// at cluster boundaries — the effect the paper's Table 4 quantifies. Two
/// labelings from Fig. 8 matter:
///
/// * [`MetaTable::rows`] — "minimal flexibility": row clusters collapse the
///   relation to dimension-order (YX) routing;
/// * [`MetaTable::blocks`] — "maximal flexibility": square clusters keep
///   adaptivity inside clusters but serialize traffic at boundaries.
///
/// # Example
///
/// ```
/// use lapses_core::tables::{MetaTable, TableScheme};
/// use lapses_routing::Algorithm;
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let meta = MetaTable::blocks(&mesh, &[4, 4], &Algorithm::Duato);
/// // 16 intra-cluster + 16 cluster entries instead of 256.
/// assert_eq!(meta.storage().entries_per_router, 32);
/// ```
#[derive(Debug)]
pub struct MetaTable {
    mesh: Mesh,
    map: ClusterMap,
    /// `intra[node][sub_id]` — destinations in the router's own cluster.
    intra: Vec<Vec<RouteEntry>>,
    /// `inter[node][cluster_id]` — destinations in other clusters.
    inter: Vec<Vec<RouteEntry>>,
}

impl MetaTable {
    /// Compiles a meta-table over an arbitrary rectangular cluster shape.
    ///
    /// Intra-cluster entries reproduce `algo` exactly (rectangular clusters
    /// are convex, so minimal paths between members never leave the
    /// cluster). Inter-cluster entries hold the cluster-safe direction set
    /// with the lowest-index member as the deterministic escape.
    ///
    /// # Panics
    ///
    /// Panics if the cluster shape does not tile the mesh (see
    /// [`ClusterMap::blocks`]).
    pub fn program(mesh: &Mesh, cluster_shape: &[u16], algo: &dyn RoutingAlgorithm) -> MetaTable {
        let map = ClusterMap::blocks(mesh, cluster_shape);
        let n = mesh.node_count();
        let mut intra = Vec::with_capacity(n);
        let mut inter = Vec::with_capacity(n);

        for node in mesh.nodes() {
            let coord = mesh.coord_of(node);
            let home = map.cluster_of(&coord);

            let mut intra_row = Vec::with_capacity(map.nodes_per_cluster());
            for sub in 0..map.nodes_per_cluster() as u32 {
                let dest = node_of(mesh, &map, home, sub);
                intra_row.push(if dest == node {
                    RouteEntry::local()
                } else {
                    RouteEntry {
                        candidates: algo.candidates(mesh, node, dest),
                        escape: algo.escape_port(mesh, node, dest),
                        escape_subclass: 0,
                    }
                });
            }
            intra.push(intra_row);

            let mut inter_row = Vec::with_capacity(map.cluster_count());
            for c in 0..map.cluster_count() as u32 {
                let cluster = ClusterId(c);
                inter_row.push(if cluster == home {
                    RouteEntry::unprogrammed() // looked up via the intra table
                } else {
                    let safe = map.safe_ports_toward(&coord, cluster);
                    debug_assert!(!safe.is_empty(), "no safe port toward {cluster}");
                    RouteEntry {
                        candidates: safe,
                        escape: safe.first(),
                        escape_subclass: 0,
                    }
                });
            }
            inter.push(inter_row);
        }

        MetaTable {
            mesh: mesh.clone(),
            map,
            intra,
            inter,
        }
    }

    /// The Fig. 8(a) "minimal flexibility" labeling: one cluster per row.
    pub fn rows(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> MetaTable {
        let mut shape = vec![1u16; mesh.dims()];
        shape[0] = mesh.extent(0);
        Self::program(mesh, &shape, algo)
    }

    /// The Fig. 8(b) "maximal flexibility" labeling over square blocks.
    pub fn blocks(mesh: &Mesh, cluster_shape: &[u16], algo: &dyn RoutingAlgorithm) -> MetaTable {
        Self::program(mesh, cluster_shape, algo)
    }

    /// The cluster labeling in use.
    pub fn cluster_map(&self) -> &ClusterMap {
        &self.map
    }
}

/// Node id of `(cluster, sub_id)` under a cluster map.
fn node_of(mesh: &Mesh, map: &ClusterMap, cluster: ClusterId, sub: u32) -> NodeId {
    let (lo, _) = map.cluster_bounds(cluster);
    let shape = map.cluster_shape();
    let mut comps = [0u16; lapses_topology::MAX_DIMS];
    let mut rest = sub as usize;
    for dim in 0..mesh.dims() {
        comps[dim] = lo[dim] + (rest % shape[dim] as usize) as u16;
        rest /= shape[dim] as usize;
    }
    mesh.id_of(&Coord::new(&comps[..mesh.dims()]))
}

impl TableScheme for MetaTable {
    fn name(&self) -> &'static str {
        "meta"
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry {
        if node == dest {
            return RouteEntry::local();
        }
        let (home, _) = self.map.locate(&self.mesh, node);
        let (dest_cluster, dest_sub) = self.map.locate(&self.mesh, dest);
        if home == dest_cluster {
            self.intra[node.index()][dest_sub as usize]
        } else {
            self.inter[node.index()][dest_cluster.index()]
        }
    }

    fn storage(&self) -> StorageCost {
        StorageCost::for_scheme(
            &self.mesh,
            self.map.nodes_per_cluster() + self.map.cluster_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::FullTable;
    use lapses_routing::Algorithm;
    use lapses_topology::{Direction, Port, PortSet};

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    #[test]
    fn intra_cluster_entries_match_full_table() {
        let mesh = mesh16();
        let algo = Algorithm::Duato;
        let meta = MetaTable::blocks(&mesh, &[4, 4], &algo);
        let full = FullTable::program(&mesh, &algo);
        let map = meta.cluster_map().clone();
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let same =
                    map.cluster_of(&mesh.coord_of(node)) == map.cluster_of(&mesh.coord_of(dest));
                if same {
                    assert_eq!(meta.entry(node, dest), full.entry(node, dest));
                }
            }
        }
    }

    #[test]
    fn inter_cluster_entries_lose_adaptivity_at_boundaries() {
        // Paper §5.2.2: from cluster 1 (south of cluster 5), only +Y remains.
        let mesh = mesh16();
        let meta = MetaTable::blocks(&mesh, &[4, 4], &Algorithm::Duato);
        let node = mesh.id_at(&[5, 2]).unwrap(); // in cluster 1
        let dest = mesh.id_at(&[6, 6]).unwrap(); // in cluster 5
        let e = meta.entry(node, dest);
        assert_eq!(
            e.candidates,
            PortSet::single(Port::from(Direction::plus(1)))
        );
        // From cluster 0 the same destination still has two choices.
        let node0 = mesh.id_at(&[2, 2]).unwrap();
        assert_eq!(meta.entry(node0, dest).candidates.len(), 2);
    }

    #[test]
    fn row_mapping_collapses_to_dimension_order() {
        // Fig. 8(a): the row labeling forces Y-then-X routing everywhere.
        let mesh = mesh16();
        let meta = MetaTable::rows(&mesh, &Algorithm::Duato);
        for node in mesh.nodes().step_by(7) {
            for dest in mesh.nodes().step_by(5) {
                if node == dest {
                    continue;
                }
                let e = meta.entry(node, dest);
                assert_eq!(
                    e.candidates.len(),
                    1,
                    "row meta-table should be deterministic at {node}->{dest}"
                );
                let hc = mesh.coord_of(node);
                let dc = mesh.coord_of(dest);
                let want = if hc[1] != dc[1] {
                    // Different row: resolve Y first.
                    if dc[1] > hc[1] {
                        Port::from(Direction::plus(1))
                    } else {
                        Port::from(Direction::minus(1))
                    }
                } else if dc[0] > hc[0] {
                    Port::from(Direction::plus(0))
                } else {
                    Port::from(Direction::minus(0))
                };
                assert_eq!(e.candidates.first(), Some(want));
            }
        }
    }

    #[test]
    fn entries_are_always_minimal() {
        let mesh = Mesh::mesh_2d(8, 8);
        let meta = MetaTable::blocks(&mesh, &[4, 4], &Algorithm::Duato);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                if node == dest {
                    continue;
                }
                let e = meta.entry(node, dest);
                assert!(!e.candidates.is_empty());
                for p in e.candidates.iter() {
                    let nb = mesh.neighbor(node, p.direction().unwrap()).unwrap();
                    assert_eq!(
                        mesh.distance(nb, dest) + 1,
                        mesh.distance(node, dest),
                        "non-minimal meta entry at {node}->{dest}"
                    );
                }
                let esc = e.escape.unwrap();
                assert!(e.candidates.contains(esc));
            }
        }
    }

    #[test]
    fn storage_counts_both_levels() {
        let mesh = mesh16();
        let meta = MetaTable::blocks(&mesh, &[4, 4], &Algorithm::DimensionOrder);
        assert_eq!(meta.storage().entries_per_router, 16 + 16);
        let rows = MetaTable::rows(&mesh, &Algorithm::DimensionOrder);
        assert_eq!(rows.storage().entries_per_router, 16 + 16);
        assert_eq!(meta.name(), "meta");
    }

    #[test]
    fn node_of_inverts_locate() {
        let mesh = Mesh::mesh_2d(8, 8);
        let map = ClusterMap::blocks(&mesh, &[4, 2]);
        for node in mesh.nodes() {
            let (c, s) = map.locate(&mesh, node);
            assert_eq!(node_of(&mesh, &map, c, s), node);
        }
    }
}
