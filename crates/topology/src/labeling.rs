//! Node-labeling (clustering) schemes for hierarchical meta-table routing.
//!
//! §5.1.1 of the paper: meta-table routing partitions the network into
//! clusters; nodes within a cluster share a cluster id and have distinct
//! sub-cluster ids. Fig. 8 gives two labelings of the 256-node mesh:
//!
//! * **(a) minimal flexibility** — each cluster is one *row* of the mesh
//!   and clusters stack in a single column, which collapses adaptive routing
//!   to dimension-order routing;
//! * **(b) maximal flexibility** — each cluster is a 4×4 block and clusters
//!   form a 4×4 grid, preserving adaptivity inside clusters but losing it at
//!   cluster boundaries (the congestion pathology the paper demonstrates).
//!
//! [`ClusterMap`] expresses both (and any other rectangular blocking) as a
//! cluster shape that tiles the mesh.

use crate::coord::{Coord, MAX_DIMS};
use crate::mesh::Mesh;
use crate::port::{Direction, Port, PortSet};
use crate::NodeId;
use std::fmt;

/// Identifier of a cluster under a [`ClusterMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The id as a usize index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A rectangular clustering of a mesh into equally-shaped blocks.
///
/// # Example
///
/// ```
/// use lapses_topology::labeling::ClusterMap;
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let blocks = ClusterMap::blocks(&mesh, &[4, 4]); // Fig. 8(b)
/// assert_eq!(blocks.cluster_count(), 16);
/// assert_eq!(blocks.nodes_per_cluster(), 16);
///
/// let rows = ClusterMap::rows(&mesh); // Fig. 8(a)
/// assert_eq!(rows.cluster_count(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    mesh_shape: Vec<u16>,
    cluster_shape: Vec<u16>,
    /// Number of clusters along each dimension.
    grid: Vec<u16>,
}

impl ClusterMap {
    /// Creates a clustering of `mesh` into blocks of `cluster_shape`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_shape` has the wrong dimensionality or does not
    /// evenly tile the mesh, or if `mesh` is a torus (the paper's meta-table
    /// analysis targets meshes; cluster "safe directions" are not defined
    /// under wrap-around).
    pub fn blocks(mesh: &Mesh, cluster_shape: &[u16]) -> ClusterMap {
        assert!(
            Self::tiles(mesh, cluster_shape),
            "cluster shape {cluster_shape:?} does not tile the {mesh} \
             (cluster maps require a mesh, not a torus)"
        );
        ClusterMap {
            mesh_shape: mesh.shape().to_vec(),
            cluster_shape: cluster_shape.to_vec(),
            grid: cluster_shape
                .iter()
                .zip(mesh.shape())
                .map(|(&c, &k)| k / c)
                .collect(),
        }
    }

    /// Whether blocks of `cluster_shape` tile `mesh`: the mesh is not a
    /// torus, the shape has its dimensionality, and every cluster extent
    /// is positive and divides the mesh extent.
    pub fn tiles(mesh: &Mesh, cluster_shape: &[u16]) -> bool {
        !mesh.is_torus()
            && cluster_shape.len() == mesh.dims()
            && cluster_shape
                .iter()
                .zip(mesh.shape())
                .all(|(&c, &k)| c > 0 && k % c == 0)
    }

    /// The paper's Fig. 8(a) labeling: each cluster is a full row (all of
    /// dimension 0, one unit of every other dimension), forcing
    /// dimension-order routing.
    pub fn rows(mesh: &Mesh) -> ClusterMap {
        let mut shape = vec![1u16; mesh.dims()];
        shape[0] = mesh.extent(0);
        Self::blocks(mesh, &shape)
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.grid.iter().map(|&g| g as usize).product()
    }

    /// Nodes per cluster.
    pub fn nodes_per_cluster(&self) -> usize {
        self.cluster_shape.iter().map(|&c| c as usize).product()
    }

    /// Shape of one cluster.
    pub fn cluster_shape(&self) -> &[u16] {
        &self.cluster_shape
    }

    /// The cluster containing `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` has the wrong dimensionality.
    pub fn cluster_of(&self, coord: &Coord) -> ClusterId {
        assert_eq!(coord.dims(), self.dims(), "dimensionality mismatch");
        let mut id = 0usize;
        for dim in (0..self.dims()).rev() {
            let g = (coord[dim] / self.cluster_shape[dim]) as usize;
            id = id * self.grid[dim] as usize + g;
        }
        ClusterId(id as u32)
    }

    /// The sub-cluster index of `coord` within its cluster (row-major within
    /// the block).
    pub fn sub_id_of(&self, coord: &Coord) -> u32 {
        assert_eq!(coord.dims(), self.dims(), "dimensionality mismatch");
        let mut id = 0usize;
        for dim in (0..self.dims()).rev() {
            let s = (coord[dim] % self.cluster_shape[dim]) as usize;
            id = id * self.cluster_shape[dim] as usize + s;
        }
        id as u32
    }

    /// Inclusive coordinate bounds `(low, high)` of a cluster's block.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    pub fn cluster_bounds(&self, cluster: ClusterId) -> (Coord, Coord) {
        assert!(
            cluster.index() < self.cluster_count(),
            "cluster {cluster} out of range"
        );
        let mut rest = cluster.index();
        let mut lo = [0u16; MAX_DIMS];
        let mut hi = [0u16; MAX_DIMS];
        for dim in 0..self.dims() {
            let g = (rest % self.grid[dim] as usize) as u16;
            rest /= self.grid[dim] as usize;
            lo[dim] = g * self.cluster_shape[dim];
            hi[dim] = lo[dim] + self.cluster_shape[dim] - 1;
        }
        (
            Coord::new(&lo[..self.dims()]),
            Coord::new(&hi[..self.dims()]),
        )
    }

    /// Whether `coord` lies inside `cluster`.
    pub fn contains(&self, cluster: ClusterId, coord: &Coord) -> bool {
        self.cluster_of(coord) == cluster
    }

    /// Directions that are productive toward **every** node of `cluster`
    /// from `from` — the only directions a per-cluster table entry can
    /// safely hold (§5.2.2: using any other direction would be non-minimal
    /// for some destination in the cluster).
    ///
    /// Non-empty whenever `from` lies outside the cluster, because distinct
    /// blocks are disjoint in at least one dimension.
    pub fn safe_ports_toward(&self, from: &Coord, cluster: ClusterId) -> PortSet {
        let (lo, hi) = self.cluster_bounds(cluster);
        let mut set = PortSet::EMPTY;
        for dim in 0..self.dims() {
            if from[dim] < lo[dim] {
                set.insert(Port::from(Direction::plus(dim)));
            } else if from[dim] > hi[dim] {
                set.insert(Port::from(Direction::minus(dim)));
            }
        }
        set
    }

    /// Cluster and sub-cluster id of a node in `mesh`.
    ///
    /// # Panics
    ///
    /// Panics if `mesh` has a different shape than the one this map was
    /// built for.
    pub fn locate(&self, mesh: &Mesh, node: NodeId) -> (ClusterId, u32) {
        assert_eq!(mesh.shape(), &self.mesh_shape[..], "mesh shape mismatch");
        let c = mesh.coord_of(node);
        (self.cluster_of(&c), self.sub_id_of(&c))
    }

    fn dims(&self) -> usize {
        self.mesh_shape.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    #[test]
    fn fig8a_row_clusters() {
        let m = mesh16();
        let rows = ClusterMap::rows(&m);
        assert_eq!(rows.cluster_count(), 16);
        assert_eq!(rows.nodes_per_cluster(), 16);
        // Fig. 8(a): nodes 0..=15 are cluster 0, 16..=31 cluster 1, ...
        assert_eq!(rows.locate(&m, NodeId(0)).0, ClusterId(0));
        assert_eq!(rows.locate(&m, NodeId(15)).0, ClusterId(0));
        assert_eq!(rows.locate(&m, NodeId(16)).0, ClusterId(1));
        assert_eq!(rows.locate(&m, NodeId(255)).0, ClusterId(15));
    }

    #[test]
    fn fig8b_block_clusters() {
        let m = mesh16();
        let blocks = ClusterMap::blocks(&m, &[4, 4]);
        assert_eq!(blocks.cluster_count(), 16);
        // Fig. 8(b): node 0 in cluster 0; node (4,0)=id 4 in cluster 1;
        // node (0,4)=id 64 in cluster 4; node (15,15) in cluster 15.
        assert_eq!(blocks.cluster_of(&m.coord_of(NodeId(0))), ClusterId(0));
        assert_eq!(blocks.cluster_of(&m.coord_of(NodeId(4))), ClusterId(1));
        assert_eq!(blocks.cluster_of(&m.coord_of(NodeId(64))), ClusterId(4));
        assert_eq!(blocks.cluster_of(&m.coord_of(NodeId(255))), ClusterId(15));
    }

    #[test]
    fn sub_ids_are_unique_within_cluster() {
        let m = mesh16();
        let blocks = ClusterMap::blocks(&m, &[4, 4]);
        use std::collections::HashSet;
        let mut per_cluster: Vec<HashSet<u32>> = vec![HashSet::new(); 16];
        for node in m.nodes() {
            let (c, s) = blocks.locate(&m, node);
            assert!(s < 16);
            assert!(per_cluster[c.index()].insert(s), "duplicate sub id");
        }
        for set in per_cluster {
            assert_eq!(set.len(), 16);
        }
    }

    #[test]
    fn cluster_bounds_roundtrip() {
        let m = mesh16();
        let blocks = ClusterMap::blocks(&m, &[4, 4]);
        for c in 0..blocks.cluster_count() {
            let cluster = ClusterId(c as u32);
            let (lo, hi) = blocks.cluster_bounds(cluster);
            assert!(blocks.contains(cluster, &lo));
            assert!(blocks.contains(cluster, &hi));
            // The corner just outside is in another cluster.
            if hi[0] + 1 < 16 {
                let outside = hi.with(0, hi[0] + 1);
                assert!(!blocks.contains(cluster, &outside));
            }
        }
    }

    #[test]
    fn safe_ports_match_paper_example() {
        // Paper §5.2.2: from cluster 0, clusters {+X, +Y} toward cluster 5;
        // from cluster 1 (directly south of 5), only +Y.
        let m = mesh16();
        let blocks = ClusterMap::blocks(&m, &[4, 4]);
        let c5 = ClusterId(5);
        let from_c0 = Coord::new(&[2, 2]);
        let safe = blocks.safe_ports_toward(&from_c0, c5);
        assert_eq!(safe.len(), 2);
        assert!(safe.contains(Port::from(Direction::plus(0))));
        assert!(safe.contains(Port::from(Direction::plus(1))));

        let from_c1 = Coord::new(&[5, 2]);
        let safe = blocks.safe_ports_toward(&from_c1, c5);
        assert_eq!(safe.len(), 1);
        assert!(safe.contains(Port::from(Direction::plus(1))));
    }

    #[test]
    fn safe_ports_nonempty_outside_cluster() {
        let m = Mesh::mesh_2d(8, 8);
        let blocks = ClusterMap::blocks(&m, &[4, 2]);
        for node in m.nodes() {
            let coord = m.coord_of(node);
            let home = blocks.cluster_of(&coord);
            for c in 0..blocks.cluster_count() {
                let cluster = ClusterId(c as u32);
                if cluster == home {
                    continue;
                }
                assert!(
                    !blocks.safe_ports_toward(&coord, cluster).is_empty(),
                    "no safe port from {coord} toward {cluster}"
                );
            }
        }
    }

    #[test]
    fn row_map_gives_only_y_toward_other_rows() {
        let m = mesh16();
        let rows = ClusterMap::rows(&m);
        let from = Coord::new(&[3, 2]);
        // Toward row 7 (cluster 7): only +Y is safe (the row spans all X).
        let safe = rows.safe_ports_toward(&from, ClusterId(7));
        assert_eq!(safe.len(), 1);
        assert!(safe.contains(Port::from(Direction::plus(1))));
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn non_tiling_cluster_rejected() {
        let m = Mesh::mesh_2d(16, 16);
        let _ = ClusterMap::blocks(&m, &[5, 4]);
    }

    #[test]
    #[should_panic(expected = "not a torus")]
    fn torus_rejected() {
        let t = Mesh::torus_2d(8, 8);
        let _ = ClusterMap::blocks(&t, &[4, 4]);
    }
}
