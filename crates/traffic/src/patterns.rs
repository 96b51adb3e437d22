//! Spatial traffic patterns.
//!
//! Bit-permutation patterns (transpose, bit-reversal, perfect-shuffle,
//! bit-complement) operate on the binary node address, following the
//! standard definitions the paper cites (Fulgham & Snyder). They require a
//! power-of-two node count of at least two; transpose additionally
//! requires an even number of address bits (a square mesh qualifies: the
//! row-major address of `(x, y)` on a 16×16 mesh is `y·16 + x`, i.e. the
//! concatenation `y‖x`, so swapping address halves is exactly the
//! coordinate transpose).

use lapses_sim::SimRng;
use lapses_topology::{Mesh, NodeId, MAX_DIMS};

/// A spatial traffic pattern (the paper's four plus the usual extras):
/// maps a source node to a destination.
///
/// Deterministic patterns map some sources to themselves (e.g. the diagonal
/// under transpose); those sources do not inject, which
/// [`destination`](Pattern::destination) signals by returning `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Node-uniform random traffic: each message picks a destination
    /// uniformly among all other nodes.
    Uniform,
    /// Matrix transpose `(x,y) → (y,x)`; in address form the high and low
    /// halves of the node address swap. Diagonal nodes do not inject.
    Transpose,
    /// Bit-reversal of the node address. Palindromic addresses do not
    /// inject.
    BitReversal,
    /// Perfect shuffle: the address rotated left by one bit. Fixed points
    /// (all-zeros, all-ones) do not inject.
    PerfectShuffle,
    /// Bitwise complement of the node address; every node injects.
    BitComplement,
    /// Tornado: each source sends `⌈k/2⌉ - 1` hops around its own row
    /// (dimension 0) — the classic adversarial pattern for rings and tori.
    Tornado,
    /// Uniform with a hotspot node receiving extra traffic: with
    /// `probability` the destination is the hotspot, otherwise uniform.
    Hotspot {
        /// The hotspot node id.
        node: u32,
        /// Probability a message targets the hotspot.
        probability: f64,
    },
    /// Random adjacent-node traffic.
    NearestNeighbor,
}

impl Pattern {
    /// The paper's four evaluation patterns, in presentation order.
    pub const PAPER_FOUR: [Pattern; 4] = [
        Pattern::Uniform,
        Pattern::Transpose,
        Pattern::BitReversal,
        Pattern::PerfectShuffle,
    ];

    /// Every pattern without parameters (all but [`Pattern::Hotspot`]).
    pub const ALL: [Pattern; 7] = [
        Pattern::Uniform,
        Pattern::Transpose,
        Pattern::BitReversal,
        Pattern::PerfectShuffle,
        Pattern::BitComplement,
        Pattern::Tornado,
        Pattern::NearestNeighbor,
    ];

    /// The destination for a message from `src`, or `None` when `src` does
    /// not inject under this pattern.
    ///
    /// # Panics
    ///
    /// Panics if a bit-permutation pattern runs on a network it is not
    /// defined on (see [`supports`](Pattern::supports)).
    pub fn destination(self, mesh: &Mesh, src: NodeId, rng: &mut SimRng) -> Option<NodeId> {
        // The bit permutations' fixed points do not inject.
        let moved = |dest: NodeId| (dest != src).then_some(dest);
        match self {
            Pattern::Uniform => Some(uniform(mesh, src, rng)),
            Pattern::Transpose => {
                assert!(
                    self.supports(mesh),
                    "transpose needs a power-of-two node count with an even number of \
                     address bits, got {} nodes",
                    mesh.node_count()
                );
                let half = mesh.node_count().trailing_zeros() / 2;
                let mask = (1u32 << half) - 1;
                moved(NodeId(((src.0 & mask) << half) | (src.0 >> half)))
            }
            Pattern::BitReversal => moved(NodeId(
                src.0.reverse_bits() >> (32 - checked_address_bits(mesh)),
            )),
            Pattern::PerfectShuffle => {
                let bits = checked_address_bits(mesh);
                let mask = (1u32 << bits) - 1;
                moved(NodeId(((src.0 << 1) | (src.0 >> (bits - 1))) & mask))
            }
            Pattern::BitComplement => {
                let mask = (1u32 << checked_address_bits(mesh)) - 1;
                Some(NodeId(!src.0 & mask))
            }
            Pattern::Tornado => {
                let coord = mesh.coord_of(src);
                let k = mesh.extent(0);
                let hop = k.div_ceil(2) - 1;
                (hop > 0).then(|| mesh.id_of(&coord.with(0, (coord[0] + hop) % k)))
            }
            Pattern::Hotspot { node, probability } => {
                Some(if rng.chance(probability) && src != NodeId(node) {
                    NodeId(node)
                } else {
                    uniform(mesh, src, rng)
                })
            }
            Pattern::NearestNeighbor => {
                let mut neighbors = [src; 2 * MAX_DIMS];
                let mut count = 0;
                for port in mesh.direction_ports() {
                    let direction = port.direction().expect("direction port");
                    if let Some(neighbor) = mesh.neighbor(src, direction) {
                        neighbors[count] = neighbor;
                        count += 1;
                    }
                }
                rng.choose_index(count).map(|i| neighbors[i])
            }
        }
    }

    /// Whether the pattern is defined on `mesh`, so that some source
    /// injects: uniform, hotspot and nearest-neighbor traffic need two
    /// nodes (and the hotspot a node of `mesh` and a probability in
    /// `[0, 1]`); the bit permutations need a power-of-two node count,
    /// transpose with an even number of address bits, bit-reversal and
    /// perfect-shuffle with at least two (a one-bit address is its own
    /// reversal and rotation); tornado needs a row of at least three nodes,
    /// so its hop count is positive.
    pub fn supports(self, mesh: &Mesh) -> bool {
        let bits = address_bits(mesh);
        match self {
            Pattern::Uniform | Pattern::NearestNeighbor => mesh.node_count() >= 2,
            Pattern::Transpose => bits.is_some_and(|b| b.is_multiple_of(2)),
            Pattern::BitReversal | Pattern::PerfectShuffle => bits.is_some_and(|b| b >= 2),
            Pattern::BitComplement => bits.is_some(),
            Pattern::Tornado => mesh.extent(0) >= 3,
            Pattern::Hotspot { node, probability } => {
                mesh.node_count() >= 2
                    && (node as usize) < mesh.node_count()
                    && (0.0..=1.0).contains(&probability)
            }
        }
    }

    /// A short name for reports and scenario specs.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::BitReversal => "bit-reversal",
            Pattern::PerfectShuffle => "perfect-shuffle",
            Pattern::BitComplement => "bit-complement",
            Pattern::Tornado => "tornado",
            Pattern::Hotspot { .. } => "hotspot",
            Pattern::NearestNeighbor => "nearest-neighbor",
        }
    }
}

/// A uniform destination other than `src`: one draw from `[0, n-1)`,
/// skipping over `src` to exclude self-traffic without rejection sampling.
fn uniform(mesh: &Mesh, src: NodeId, rng: &mut SimRng) -> NodeId {
    debug_assert!(
        mesh.node_count() >= 2,
        "uniform traffic needs at least two nodes"
    );
    let raw = rng.below(mesh.node_count() as u64 - 1) as u32;
    NodeId(if raw >= src.0 { raw + 1 } else { raw })
}

/// Number of address bits of a network the bit-permutation patterns are
/// defined on — a power-of-two node count of at least two — or `None`.
fn address_bits(mesh: &Mesh) -> Option<u32> {
    let n = mesh.node_count();
    (n >= 2 && n.is_power_of_two()).then(|| n.trailing_zeros())
}

/// [`address_bits`] of a network a pattern is about to permute.
fn checked_address_bits(mesh: &Mesh) -> u32 {
    address_bits(mesh).expect("bit-permutation patterns need a power-of-two node count of 2+")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    /// Fraction of nodes that inject under `pattern`.
    fn injecting_fraction(pattern: Pattern, mesh: &Mesh) -> f64 {
        let n = mesh.node_count() as u32;
        let mut rng = SimRng::from_seed(0);
        let injecting = (0..n)
            .filter(|&i| pattern.destination(mesh, NodeId(i), &mut rng).is_some())
            .count();
        injecting as f64 / n as f64
    }

    #[test]
    fn uniform_never_self_targets_and_covers() {
        let m = mesh16();
        let src = NodeId(37);
        let mut rng = SimRng::from_seed(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let d = Pattern::Uniform.destination(&m, src, &mut rng).unwrap();
            assert_ne!(d, src);
            assert!(d.index() < m.node_count());
            seen.insert(d);
        }
        assert_eq!(seen.len(), 255, "all other nodes should be reachable");
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = mesh16();
        let t = Pattern::Transpose;
        let mut rng = SimRng::from_seed(0);
        let src = m.id_at(&[3, 11]).unwrap();
        let d = t.destination(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord_of(d).components(), &[11, 3]);
        // Diagonal nodes do not inject.
        let diag = m.id_at(&[7, 7]).unwrap();
        assert_eq!(t.destination(&m, diag, &mut rng), None);
    }

    #[test]
    fn transpose_is_an_involution() {
        let m = mesh16();
        let t = Pattern::Transpose;
        let mut rng = SimRng::from_seed(0);
        for src in m.nodes() {
            if let Some(d) = t.destination(&m, src, &mut rng) {
                assert_eq!(t.destination(&m, d, &mut rng), Some(src));
            }
        }
    }

    #[test]
    fn bit_reversal_matches_hand_computed() {
        let m = mesh16();
        let b = Pattern::BitReversal;
        let mut rng = SimRng::from_seed(0);
        // 0b0000_0001 reversed in 8 bits = 0b1000_0000 = 128.
        assert_eq!(b.destination(&m, NodeId(1), &mut rng), Some(NodeId(128)));
        // Palindrome 0b1000_0001 = 129 maps to itself: no injection.
        assert_eq!(b.destination(&m, NodeId(129), &mut rng), None);
    }

    #[test]
    fn perfect_shuffle_rotates_left() {
        let m = mesh16();
        let p = Pattern::PerfectShuffle;
        let mut rng = SimRng::from_seed(0);
        // 0b0100_0001 -> 0b1000_0010
        assert_eq!(
            p.destination(&m, NodeId(0b0100_0001), &mut rng),
            Some(NodeId(0b1000_0010))
        );
        // All-ones is a fixed point.
        assert_eq!(p.destination(&m, NodeId(255), &mut rng), None);
    }

    #[test]
    fn bit_complement_reflects_through_center() {
        let m = mesh16();
        let b = Pattern::BitComplement;
        let mut rng = SimRng::from_seed(0);
        let src = m.id_at(&[0, 0]).unwrap();
        let d = b.destination(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord_of(d).components(), &[15, 15]);
        assert!((injecting_fraction(b, &m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_patterns_stay_in_range() {
        let m = mesh16();
        let mut rng = SimRng::from_seed(0);
        for p in Pattern::PAPER_FOUR {
            for src in m.nodes() {
                if let Some(d) = p.destination(&m, src, &mut rng) {
                    assert!(d.index() < m.node_count(), "{p:?} out of range");
                    assert_ne!(d, src, "{p:?} self-traffic");
                }
            }
        }
    }

    #[test]
    fn tornado_travels_half_way_in_x() {
        let m = mesh16();
        let mut rng = SimRng::from_seed(0);
        let src = m.id_at(&[14, 3]).unwrap();
        let d = Pattern::Tornado.destination(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord_of(d).components(), &[(14 + 7) % 16, 3]);
    }

    #[test]
    fn hotspot_probability_biases_destinations() {
        let m = mesh16();
        let spot = m.id_at(&[8, 8]).unwrap();
        let h = Pattern::Hotspot {
            node: spot.0,
            probability: 0.3,
        };
        let mut rng = SimRng::from_seed(77);
        let src = NodeId(0);
        let hits = (0..10_000)
            .filter(|_| h.destination(&m, src, &mut rng) == Some(spot))
            .count();
        let frac = hits as f64 / 10_000.0;
        // 0.3 hotspot + ~1/255 uniform residue.
        assert!((0.27..0.35).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn nearest_neighbor_is_adjacent() {
        let mut rng = SimRng::from_seed(5);
        for m in [mesh16(), Mesh::mesh(&[3, 3, 3, 3])] {
            let corner = NodeId(0);
            let center = m.id_at(&[1, 1, 1, 1][..m.dims()]).unwrap();
            let mut seen = std::collections::HashSet::new();
            for src in [corner, center] {
                for _ in 0..200 {
                    let d = Pattern::NearestNeighbor
                        .destination(&m, src, &mut rng)
                        .unwrap();
                    assert_eq!(m.distance(src, d), 1);
                    seen.insert((src, d));
                }
            }
            // A corner has one neighbour per dimension, an inner node two.
            assert_eq!(seen.len(), 3 * m.dims(), "on {m}");
        }
    }

    #[test]
    fn injecting_fraction_counts_silent_nodes() {
        let m = mesh16();
        // Transpose: 16 diagonal nodes are silent.
        let f = injecting_fraction(Pattern::Transpose, &m);
        assert!((f - 240.0 / 256.0).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_patterns_reject_odd_sizes() {
        let m = Mesh::mesh_2d(3, 3);
        let mut rng = SimRng::from_seed(0);
        let _ = Pattern::BitReversal.destination(&m, NodeId(0), &mut rng);
    }

    /// Every mesh and torus of 1–3 dimensions with extents 1–4 that
    /// `Mesh::new` accepts.
    fn small_topologies() -> Vec<Mesh> {
        let mut shapes: Vec<Vec<u16>> = vec![vec![]];
        let mut all = Vec::new();
        for _ in 0..3 {
            shapes = shapes
                .iter()
                .flat_map(|s| (1..=4).map(move |k| [s.as_slice(), &[k]].concat()))
                .collect();
            for shape in &shapes {
                all.extend([false, true].map(|torus| Mesh::new(shape, torus).ok()));
            }
        }
        all.into_iter().flatten().collect()
    }

    #[test]
    fn supported_patterns_always_inject() {
        let hotspot = Pattern::Hotspot {
            node: 0,
            probability: 0.5,
        };
        for m in small_topologies() {
            for pattern in Pattern::ALL.into_iter().chain([hotspot]) {
                if pattern.supports(&m) {
                    assert!(injecting_fraction(pattern, &m) > 0.0, "{pattern:?} on {m}");
                }
            }
        }
    }
}
