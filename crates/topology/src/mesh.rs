//! n-dimensional mesh and torus topologies.

use crate::coord::{Coord, MAX_DIMS};
use crate::port::{Direction, Port, PortSet};
use crate::NodeId;
use std::fmt;

/// A k-ary n-dimensional mesh, optionally with wrap-around links (torus).
///
/// The paper's evaluation network is `Mesh::mesh_2d(16, 16)`; §5.2.1 argues
/// the economical-storage scheme extends to n-dimensional meshes and tori,
/// which this type supports directly.
///
/// Node ids are row-major: dimension 0 varies fastest, so in 2-D the id of
/// `(x, y)` is `y * width + x` (the labeling of the paper's Fig. 8(a)).
///
/// # Example
///
/// ```
/// use lapses_topology::{Direction, Mesh};
///
/// let mesh = Mesh::mesh_2d(4, 4);
/// let n5 = mesh.id_at(&[1, 1]).unwrap();
/// let east = mesh.neighbor(n5, Direction::plus(0)).unwrap();
/// assert_eq!(mesh.coord_of(east).components(), &[2, 1]);
///
/// // Mesh edges do not wrap; torus edges do.
/// let n0 = mesh.id_at(&[0, 0]).unwrap();
/// assert!(mesh.neighbor(n0, Direction::minus(0)).is_none());
/// let torus = Mesh::torus_2d(4, 4);
/// assert!(torus.neighbor(n0, Direction::minus(0)).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mesh {
    shape: Vec<u16>,
    torus: bool,
    /// The product of `shape`, computed once by [`Mesh::new`]: scenario
    /// validation and the traffic patterns ask for it again and again.
    nodes: usize,
    /// Per dimension, the multiplier that divides a node id by the extent
    /// (see [`div_multiplier`]), so [`Mesh::coord_of`] never divides.
    /// Fixed by `shape`: four words however large the mesh is.
    div: [u64; MAX_DIMS],
}

/// `⌈2⁶⁴ / k⌉` for an extent `k ≥ 2`, and 0 for `k = 1`. For every id
/// `a < 2³²` — all that [`Mesh::new`] admits — the high word of `a · m`
/// is exactly `a / k`: `m = 2⁶⁴/k + e` with `0 ≤ e < 1`, so the product
/// overshoots `a / k` by `a · e / 2⁶⁴ < 2⁻³²`, less than the `1/k` gap
/// between `a / k`'s fractional part and the next integer.
fn div_multiplier(k: u16) -> u64 {
    if k < 2 {
        0
    } else {
        u64::MAX / u64::from(k) + 1
    }
}

/// Why a shape names no valid mesh or torus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// The shape has no dimensions or more than [`MAX_DIMS`].
    Dims(usize),
    /// Some extent is zero.
    ZeroExtent,
    /// A torus extent is below 3: a wrap link in a 1- or 2-wide dimension
    /// would duplicate a direct link and break neighbor uniqueness.
    TorusExtent(u16),
    /// The node count does not fit a `u32` node id.
    TooManyNodes(u64),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::Dims(n) => {
                write!(f, "mesh dimensionality must be 1..={MAX_DIMS}, got {n}")
            }
            MeshError::ZeroExtent => write!(f, "mesh extents must be positive"),
            MeshError::TorusExtent(k) => {
                write!(f, "torus extents must be at least 3, got {k}")
            }
            MeshError::TooManyNodes(n) => {
                write!(f, "mesh too large: {n} nodes do not fit 32-bit node ids")
            }
        }
    }
}

impl std::error::Error for MeshError {}

impl Mesh {
    /// Creates an n-dimensional mesh (`torus = false`) or torus with the
    /// given per-dimension extents, or says why the shape is invalid.
    pub fn new(shape: &[u16], torus: bool) -> Result<Mesh, MeshError> {
        if shape.is_empty() || shape.len() > MAX_DIMS {
            return Err(MeshError::Dims(shape.len()));
        }
        if shape.contains(&0) {
            return Err(MeshError::ZeroExtent);
        }
        if let Some(&k) = shape.iter().find(|&&k| torus && k < 3) {
            return Err(MeshError::TorusExtent(k));
        }
        let nodes: u64 = shape.iter().map(|&k| k as u64).product();
        if nodes > u32::MAX as u64 {
            return Err(MeshError::TooManyNodes(nodes));
        }
        let mut div = [0; MAX_DIMS];
        for (m, &k) in div.iter_mut().zip(shape) {
            *m = div_multiplier(k);
        }
        Ok(Mesh {
            shape: shape.to_vec(),
            torus,
            nodes: nodes as usize,
            div,
        })
    }

    /// Creates an n-dimensional mesh with the given per-dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if [`Mesh::new`] rejects the shape: it is empty, longer than
    /// [`MAX_DIMS`], has a zero extent, or has more than `u32::MAX` nodes.
    // The name mirrors `Mesh::torus` and reads well at call sites
    // (`Mesh::mesh(&[4, 4, 4])`), so keep it despite the clippy style lint.
    #[allow(clippy::self_named_constructors)]
    pub fn mesh(shape: &[u16]) -> Mesh {
        Self::new(shape, false).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an n-dimensional torus (mesh with wrap-around links).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Mesh::mesh`], and additionally
    /// if any extent is less than 3 (see [`MeshError::TorusExtent`]).
    pub fn torus(shape: &[u16]) -> Mesh {
        Self::new(shape, true).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's evaluation topology family: a `width × height` 2-D mesh.
    pub fn mesh_2d(width: u16, height: u16) -> Mesh {
        Self::mesh(&[width, height])
    }

    /// A `width × height` 2-D torus.
    pub fn torus_2d(width: u16, height: u16) -> Mesh {
        Self::torus(&[width, height])
    }

    /// A 3-D mesh (e.g. for validating the 27-entry economical table).
    pub fn mesh_3d(x: u16, y: u16, z: u16) -> Mesh {
        Self::mesh(&[x, y, z])
    }

    /// Whether wrap-around links are present.
    #[inline]
    pub fn is_torus(&self) -> bool {
        self.torus
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.shape.len()
    }

    /// Per-dimension extents.
    #[inline]
    pub fn shape(&self) -> &[u16] {
        &self.shape
    }

    /// Extent of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    #[inline]
    pub fn extent(&self, dim: usize) -> u16 {
        self.shape[dim]
    }

    /// Total node count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Ports per router: one local port plus two per dimension (the paper's
    /// "five exit ports" for 2-D).
    #[inline]
    pub fn ports_per_router(&self) -> usize {
        2 * self.dims() + 1
    }

    /// All direction-ports of this topology in index order (excludes the
    /// local port).
    pub fn direction_ports(&self) -> impl Iterator<Item = Port> + '_ {
        (0..self.dims()).flat_map(|d| {
            [
                Port::from(Direction::plus(d)),
                Port::from(Direction::minus(d)),
            ]
        })
    }

    /// Coordinate of a node id. Each dimension but the last costs one
    /// multiply-high by a per-dimension reciprocal and one multiply; the
    /// last takes what is left, which is below its extent.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn coord_of(&self, node: NodeId) -> Coord {
        assert!(
            node.index() < self.node_count(),
            "node {node} out of range for {self}"
        );
        let last = self.dims() - 1;
        let mut rest = u64::from(node.0);
        let mut c = [0u16; MAX_DIMS];
        for ((c, &k), &m) in c.iter_mut().zip(&self.shape[..last]).zip(&self.div) {
            let q = if k == 1 {
                rest
            } else {
                ((u128::from(rest) * u128::from(m)) >> 64) as u64
            };
            *c = (rest - q * u64::from(k)) as u16;
            rest = q;
        }
        c[last] = rest as u16;
        Coord {
            dims: self.dims() as u8,
            c,
        }
    }

    /// Node id of a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate has the wrong dimensionality or lies outside
    /// the mesh.
    pub fn id_of(&self, coord: &Coord) -> NodeId {
        assert_eq!(coord.dims(), self.dims(), "dimensionality mismatch");
        let mut id = 0usize;
        for dim in (0..self.dims()).rev() {
            let c = coord[dim];
            assert!(
                c < self.shape[dim],
                "coordinate {coord} outside mesh {self}"
            );
            id = id * self.shape[dim] as usize + c as usize;
        }
        NodeId(id as u32)
    }

    /// Node id at the given components, or `None` if outside the mesh.
    pub fn id_at(&self, components: &[u16]) -> Option<NodeId> {
        if components.len() != self.dims() {
            return None;
        }
        if components.iter().zip(&self.shape).any(|(&c, &k)| c >= k) {
            return None;
        }
        Some(self.id_of(&Coord::new(components)))
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The neighbor of `node` along `direction`, or `None` when the link
    /// does not exist (mesh edge).
    ///
    /// # Panics
    ///
    /// Panics if the direction's dimension is outside this topology.
    pub fn neighbor(&self, node: NodeId, direction: Direction) -> Option<NodeId> {
        let dim = direction.dim();
        assert!(dim < self.dims(), "direction {direction} out of range");
        let coord = self.coord_of(node);
        let k = self.shape[dim];
        let c = coord[dim];
        let next = if direction.is_positive() {
            if c + 1 < k {
                c + 1
            } else if self.torus {
                0
            } else {
                return None;
            }
        } else if c > 0 {
            c - 1
        } else if self.torus {
            k - 1
        } else {
            return None;
        };
        Some(self.id_of(&coord.with(dim, next)))
    }

    /// Minimal hop distance between two nodes (wrap-aware on a torus).
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        (0..self.dims())
            .map(|d| self.dim_distance(d, ca[d], cb[d]).0)
            .sum()
    }

    /// Per-dimension minimal distance and the productive direction(s):
    /// returns `(hops, plus_productive, minus_productive)`.
    fn dim_distance(&self, dim: usize, from: u16, to: u16) -> (u32, bool, bool) {
        if from == to {
            return (0, false, false);
        }
        if !self.torus {
            let hops = from.abs_diff(to) as u32;
            return (hops, to > from, to < from);
        }
        let k = self.shape[dim] as u32;
        let fwd = (to as u32 + k - from as u32) % k; // hops going +
        let bwd = k - fwd; // hops going -
        match fwd.cmp(&bwd) {
            std::cmp::Ordering::Less => (fwd, true, false),
            std::cmp::Ordering::Greater => (bwd, false, true),
            std::cmp::Ordering::Equal => (fwd, true, true), // tie: both minimal
        }
    }

    /// The set of output ports that move a message closer to `dest` —
    /// "productive directions" in the paper's terminology. Empty when
    /// `from == dest` (the message should exit via the local port).
    ///
    /// On a torus, when the destination is exactly half-way around a
    /// dimension both directions of that dimension are productive.
    pub fn productive_ports(&self, from: NodeId, dest: NodeId) -> PortSet {
        let (cf, cd) = (self.coord_of(from), self.coord_of(dest));
        // Port `+d` has index `1 + 2d` and `−d` index `2 + 2d`.
        let mut bits = 0u16;
        for dim in 0..self.dims() {
            let (_, plus, minus) = self.dim_distance(dim, cf.c[dim], cd.c[dim]);
            bits |= (u16::from(plus) << 1 | u16::from(minus) << 2) << (2 * dim);
        }
        PortSet::from_bits(bits)
    }

    /// Unidirectional channel count across the bisection, cutting the
    /// highest-extent dimension in half: the product of the other extents
    /// (doubled on a torus because wrap links also cross the cut).
    pub fn bisection_channels(&self) -> u32 {
        let cut_dim = (0..self.dims())
            .max_by_key(|&d| self.shape[d])
            .expect("mesh has at least one dimension");
        let others: u32 = (0..self.dims())
            .filter(|&d| d != cut_dim)
            .map(|d| self.shape[d] as u32)
            .product();
        if self.torus {
            2 * others
        } else {
            others
        }
    }

    /// The injection rate (flits/node/cycle) that saturates the bisection
    /// under node-uniform traffic — the paper's "normalized load" of 1.0.
    ///
    /// Derivation: with an even bisection split, half the uniformly-chosen
    /// destinations lie across the cut and half of those cross in each
    /// direction, so each direction carries `rate × N / 4` flits/cycle
    /// against a capacity of [`Mesh::bisection_channels`] flits/cycle.
    /// For the paper's 16×16 mesh this is `4 × 16 / 256 = 0.25`.
    pub fn saturation_injection_rate(&self) -> f64 {
        4.0 * self.bisection_channels() as f64 / self.node_count() as f64
    }
}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in self.shape.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{k}")?;
        }
        if self.torus {
            write!(f, " torus")
        } else {
            write!(f, " mesh")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_has_256_nodes_five_ports() {
        let m = Mesh::mesh_2d(16, 16);
        assert_eq!(m.node_count(), 256);
        assert_eq!(m.ports_per_router(), 5);
        assert_eq!(m.dims(), 2);
        assert!(!m.is_torus());
    }

    #[test]
    fn ids_and_coords_roundtrip() {
        let m = Mesh::mesh(&[3, 4, 5]);
        for node in m.nodes() {
            let c = m.coord_of(node);
            assert_eq!(m.id_of(&c), node);
        }
    }

    #[test]
    fn row_major_labels_match_fig8a() {
        // Fig. 8(a): node 16 starts the second row of a 16-wide mesh.
        let m = Mesh::mesh_2d(16, 16);
        assert_eq!(m.id_at(&[0, 1]), Some(NodeId(16)));
        assert_eq!(m.id_at(&[15, 0]), Some(NodeId(15)));
        assert_eq!(m.id_at(&[15, 15]), Some(NodeId(255)));
        assert_eq!(m.id_at(&[16, 0]), None);
        assert_eq!(m.id_at(&[0]), None); // wrong dimensionality
    }

    #[test]
    fn mesh_edges_do_not_wrap() {
        let m = Mesh::mesh_2d(4, 4);
        let corner = m.id_at(&[0, 0]).unwrap();
        assert_eq!(m.neighbor(corner, Direction::minus(0)), None);
        assert_eq!(m.neighbor(corner, Direction::minus(1)), None);
        assert_eq!(m.neighbor(corner, Direction::plus(0)), m.id_at(&[1, 0]));
    }

    #[test]
    fn torus_edges_wrap() {
        let t = Mesh::torus_2d(4, 4);
        let corner = t.id_at(&[0, 0]).unwrap();
        assert_eq!(t.neighbor(corner, Direction::minus(0)), t.id_at(&[3, 0]));
        assert_eq!(t.neighbor(corner, Direction::minus(1)), t.id_at(&[0, 3]));
    }

    #[test]
    fn neighbors_are_symmetric() {
        for m in [Mesh::mesh_2d(4, 3), Mesh::torus_2d(4, 3)] {
            for node in m.nodes() {
                for dim in 0..m.dims() {
                    for dir in [Direction::plus(dim), Direction::minus(dim)] {
                        if let Some(nb) = m.neighbor(node, dir) {
                            assert_eq!(
                                m.neighbor(nb, dir.opposite()),
                                Some(node),
                                "asymmetric link {node}->{nb}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let m = Mesh::mesh_2d(16, 16);
        let a = m.id_at(&[2, 3]).unwrap();
        let b = m.id_at(&[10, 1]).unwrap();
        assert_eq!(m.distance(a, b), 8 + 2);
        assert_eq!(m.distance(a, a), 0);
    }

    #[test]
    fn torus_distance_wraps() {
        let t = Mesh::torus_2d(8, 8);
        let a = t.id_at(&[0, 0]).unwrap();
        let b = t.id_at(&[7, 0]).unwrap();
        assert_eq!(t.distance(a, b), 1); // wrap is shorter
        let c = t.id_at(&[4, 0]).unwrap();
        assert_eq!(t.distance(a, c), 4); // half-way tie
    }

    #[test]
    fn productive_ports_mesh_quadrant() {
        // §5.2: a quadrant destination has exactly two productive ports.
        let m = Mesh::mesh_2d(16, 16);
        let from = m.id_at(&[5, 5]).unwrap();
        let dest = m.id_at(&[8, 2]).unwrap();
        let ports = m.productive_ports(from, dest);
        assert_eq!(ports.len(), 2);
        assert!(ports.contains(Port::from(Direction::plus(0))));
        assert!(ports.contains(Port::from(Direction::minus(1))));
    }

    #[test]
    fn productive_ports_axis_and_self() {
        let m = Mesh::mesh_2d(16, 16);
        let from = m.id_at(&[5, 5]).unwrap();
        let axis = m.id_at(&[5, 9]).unwrap();
        let ports = m.productive_ports(from, axis);
        assert_eq!(ports.len(), 1);
        assert!(ports.contains(Port::from(Direction::plus(1))));
        assert!(m.productive_ports(from, from).is_empty());
    }

    #[test]
    fn productive_ports_torus_halfway_tie() {
        let t = Mesh::torus_2d(8, 8);
        let from = t.id_at(&[0, 0]).unwrap();
        let dest = t.id_at(&[4, 0]).unwrap();
        let ports = t.productive_ports(from, dest);
        assert_eq!(ports.len(), 2); // both X directions minimal
    }

    #[test]
    fn productive_port_always_reduces_distance() {
        let m = Mesh::mesh_2d(5, 7);
        for a in m.nodes() {
            for b in m.nodes() {
                for port in m.productive_ports(a, b).iter() {
                    let dir = port.direction().expect("productive ports face out");
                    let nb = m.neighbor(a, dir).expect("productive link exists");
                    assert_eq!(m.distance(nb, b) + 1, m.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn bisection_matches_paper_network() {
        let m = Mesh::mesh_2d(16, 16);
        assert_eq!(m.bisection_channels(), 16);
        assert!((m.saturation_injection_rate() - 0.25).abs() < 1e-12);

        let t = Mesh::torus_2d(16, 16);
        assert_eq!(t.bisection_channels(), 32);
    }

    #[test]
    fn bisection_cuts_largest_dimension() {
        // 4 wide, 8 tall: cut the Y dimension -> 4 channels across.
        let m = Mesh::mesh_2d(4, 8);
        assert_eq!(m.bisection_channels(), 4);
    }

    /// The reciprocal division against `%` and `/`, on every node of
    /// small shapes (extents of 1 included) and on the highest ids of the
    /// largest shapes [`Mesh::new`] admits.
    #[test]
    fn coord_of_matches_division() {
        let naive = |m: &Mesh, id: u32| -> Vec<u16> {
            let mut rest = id as u64;
            m.shape()
                .iter()
                .map(|&k| {
                    let c = (rest % k as u64) as u16;
                    rest /= k as u64;
                    c
                })
                .collect()
        };
        let small = [
            Mesh::mesh_2d(16, 16),
            Mesh::mesh_2d(7, 3),
            Mesh::mesh(&[4, 1, 3]),
            Mesh::mesh(&[1, 5]),
            Mesh::mesh(&[9]),
            Mesh::torus(&[3, 5, 7]),
            Mesh::mesh(&[2, 3, 4, 5]),
        ];
        for m in &small {
            for node in m.nodes() {
                assert_eq!(
                    m.coord_of(node).components(),
                    naive(m, node.0),
                    "{m} {node}"
                );
                assert_eq!(m.id_of(&m.coord_of(node)), node);
            }
        }
        for shape in [
            &[65535, 65535][..],
            &[65521, 65519],
            &[1, 65535, 65535],
            &[255, 257, 65535],
        ] {
            let m = Mesh::mesh(shape);
            let top = m.node_count() as u32 - 1;
            for id in (top - 4096..=top).chain([0, 1, 65534, 65535, 65536, top / 2]) {
                assert_eq!(
                    m.coord_of(NodeId(id)).components(),
                    naive(&m, id),
                    "{m} n{id}"
                );
            }
        }
    }

    #[test]
    fn invalid_shapes_are_typed_errors() {
        assert_eq!(Mesh::new(&[], false), Err(MeshError::Dims(0)));
        assert_eq!(Mesh::new(&[1; 5], false), Err(MeshError::Dims(5)));
        assert_eq!(Mesh::new(&[4, 0], false), Err(MeshError::ZeroExtent));
        assert_eq!(Mesh::new(&[2, 4], true), Err(MeshError::TorusExtent(2)));
        assert_eq!(
            Mesh::new(&[65535, 65535, 2], false),
            Err(MeshError::TooManyNodes(65535 * 65535 * 2))
        );
        assert_eq!(Mesh::new(&[2, 4], false), Ok(Mesh::mesh_2d(2, 4)));
        assert_eq!(Mesh::new(&[3, 4], true), Ok(Mesh::torus_2d(3, 4)));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_torus_rejected() {
        let _ = Mesh::torus_2d(2, 4);
    }

    #[test]
    fn three_d_mesh_works() {
        let m = Mesh::mesh_3d(4, 4, 4);
        assert_eq!(m.node_count(), 64);
        assert_eq!(m.ports_per_router(), 7);
        let a = m.id_at(&[0, 0, 0]).unwrap();
        let b = m.id_at(&[3, 3, 3]).unwrap();
        assert_eq!(m.distance(a, b), 9);
        assert_eq!(m.productive_ports(a, b).len(), 3);
    }

    #[test]
    fn display_names_topology() {
        assert_eq!(Mesh::mesh_2d(16, 16).to_string(), "16x16 mesh");
        assert_eq!(Mesh::torus(&[4, 4, 4]).to_string(), "4x4x4 torus");
    }
}
