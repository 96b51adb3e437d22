//! Spatial traffic patterns.
//!
//! Bit-permutation patterns (transpose, bit-reversal, perfect-shuffle,
//! bit-complement) operate on the binary node address, following the
//! standard definitions the paper cites (Fulgham & Snyder). They require a
//! power-of-two node count; transpose additionally requires an even number
//! of address bits (a square mesh qualifies: the row-major address of
//! `(x, y)` on a 16×16 mesh is `y·16 + x`, i.e. the concatenation `y‖x`,
//! so swapping address halves is exactly the coordinate transpose).

use lapses_sim::SimRng;
use lapses_topology::{Mesh, NodeId};
use std::fmt;

/// A spatial traffic pattern: maps a source node to a destination.
///
/// Deterministic patterns map some sources to themselves (e.g. the diagonal
/// under transpose); those sources do not inject, which the trait signals
/// by returning `None`.
pub trait TrafficPattern: fmt::Debug + Send + Sync {
    /// A short name for reports ("uniform", "transpose", ...).
    fn name(&self) -> &'static str;

    /// The destination for a message from `src`, or `None` when `src` does
    /// not inject under this pattern.
    fn destination(&self, mesh: &Mesh, src: NodeId, rng: &mut SimRng) -> Option<NodeId>;

    /// Fraction of nodes that inject (1.0 unless the pattern has
    /// self-mapped sources). Used when normalizing offered load.
    fn injecting_fraction(&self, mesh: &Mesh) -> f64 {
        let n = mesh.node_count() as u32;
        let mut rng = SimRng::from_seed(0);
        let injecting = (0..n)
            .filter(|&i| self.destination(mesh, NodeId(i), &mut rng).is_some())
            .count();
        injecting as f64 / n as f64
    }
}

/// Number of address bits of a network the bit-permutation patterns are
/// defined on — a power-of-two node count of at least two — or `None`.
pub fn address_bits(mesh: &Mesh) -> Option<u32> {
    let n = mesh.node_count();
    (n >= 2 && n.is_power_of_two()).then(|| n.trailing_zeros())
}

/// [`address_bits`] of a network a pattern is about to permute.
fn checked_address_bits(mesh: &Mesh) -> u32 {
    address_bits(mesh).expect("bit-permutation patterns need a power-of-two node count of 2+")
}

/// Node-uniform traffic: each message picks a destination uniformly among
/// all other nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform {
    _priv: (),
}

impl Uniform {
    /// Creates the uniform pattern.
    pub fn new() -> Self {
        Uniform { _priv: () }
    }

    /// Whether uniform traffic is defined on `mesh`: every source needs
    /// another node to send to.
    pub fn supports(mesh: &Mesh) -> bool {
        mesh.node_count() >= 2
    }
}

impl TrafficPattern for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, rng: &mut SimRng) -> Option<NodeId> {
        debug_assert!(
            Self::supports(mesh),
            "uniform traffic needs at least two nodes"
        );
        let n = mesh.node_count() as u64;
        // Draw from [0, n-1) and skip over src to exclude self-traffic
        // without rejection sampling.
        let raw = rng.below(n - 1) as u32;
        Some(NodeId(if raw >= src.0 { raw + 1 } else { raw }))
    }
}

/// Matrix-transpose traffic: `(x, y) → (y, x)`; in address form the high
/// and low halves of the node address swap. Diagonal nodes do not inject.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose {
    _priv: (),
}

impl Transpose {
    /// Creates the transpose pattern.
    pub fn new() -> Self {
        Transpose { _priv: () }
    }

    /// Whether transpose is defined on `mesh`: a bit-permutation network
    /// (see [`address_bits`]) with an even number of address bits.
    pub fn supports(mesh: &Mesh) -> bool {
        address_bits(mesh).is_some_and(|bits| bits.is_multiple_of(2))
    }
}

impl TrafficPattern for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, _rng: &mut SimRng) -> Option<NodeId> {
        assert!(
            Self::supports(mesh),
            "transpose needs a power-of-two node count with an even number of address bits, \
             got {} nodes",
            mesh.node_count()
        );
        let half = mesh.node_count().trailing_zeros() / 2;
        let mask = (1u32 << half) - 1;
        let dest = NodeId(((src.0 & mask) << half) | (src.0 >> half));
        (dest != src).then_some(dest)
    }
}

/// Bit-reversal traffic: the destination address is the source address with
/// its bits reversed. Palindromic addresses do not inject.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitReversal {
    _priv: (),
}

impl BitReversal {
    /// Creates the bit-reversal pattern.
    pub fn new() -> Self {
        BitReversal { _priv: () }
    }
}

impl TrafficPattern for BitReversal {
    fn name(&self) -> &'static str {
        "bit-reversal"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, _rng: &mut SimRng) -> Option<NodeId> {
        let bits = checked_address_bits(mesh);
        let dest = NodeId(src.0.reverse_bits() >> (32 - bits));
        (dest != src).then_some(dest)
    }
}

/// Perfect-shuffle traffic: the destination address is the source address
/// rotated left by one bit. Fixed points (all-zeros, all-ones) do not
/// inject.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectShuffle {
    _priv: (),
}

impl PerfectShuffle {
    /// Creates the perfect-shuffle pattern.
    pub fn new() -> Self {
        PerfectShuffle { _priv: () }
    }
}

impl TrafficPattern for PerfectShuffle {
    fn name(&self) -> &'static str {
        "perfect-shuffle"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, _rng: &mut SimRng) -> Option<NodeId> {
        let bits = checked_address_bits(mesh);
        let mask = (1u32 << bits) - 1;
        let dest = NodeId(((src.0 << 1) | (src.0 >> (bits - 1))) & mask);
        (dest != src).then_some(dest)
    }
}

/// Bit-complement traffic: the destination is the bitwise complement of the
/// source address; every node injects.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitComplement {
    _priv: (),
}

impl BitComplement {
    /// Creates the bit-complement pattern.
    pub fn new() -> Self {
        BitComplement { _priv: () }
    }
}

impl TrafficPattern for BitComplement {
    fn name(&self) -> &'static str {
        "bit-complement"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, _rng: &mut SimRng) -> Option<NodeId> {
        let bits = checked_address_bits(mesh);
        let mask = (1u32 << bits) - 1;
        Some(NodeId(!src.0 & mask))
    }
}

/// Tornado traffic: each source sends `⌈k/2⌉ - 1` hops around its own row
/// (dimension 0) — the classic adversarial pattern for rings and tori.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tornado {
    _priv: (),
}

impl Tornado {
    /// Creates the tornado pattern.
    pub fn new() -> Self {
        Tornado { _priv: () }
    }
}

impl TrafficPattern for Tornado {
    fn name(&self) -> &'static str {
        "tornado"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, _rng: &mut SimRng) -> Option<NodeId> {
        let coord = mesh.coord_of(src);
        let k = mesh.extent(0);
        let hop = k.div_ceil(2) - 1;
        if hop == 0 {
            return None;
        }
        let dest = coord.with(0, (coord[0] + hop) % k);
        Some(mesh.id_of(&dest))
    }
}

/// Hotspot traffic: with probability `p` the destination is a designated
/// hotspot node; otherwise it is uniform.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    hotspot: NodeId,
    probability: f64,
    uniform: Uniform,
}

impl Hotspot {
    /// Creates a hotspot pattern aimed at `hotspot` with the given hotspot
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn new(hotspot: NodeId, probability: f64) -> Self {
        assert!(
            is_probability(probability),
            "hotspot probability must be in [0, 1]"
        );
        Hotspot {
            hotspot,
            probability,
            uniform: Uniform::new(),
        }
    }
}

impl Hotspot {
    /// Whether a hotspot pattern aimed at `hotspot` with hotspot
    /// probability `probability` is defined on `mesh`: the hotspot is a
    /// node of `mesh`, the probability lies in `[0, 1]`, and uniform
    /// traffic (the rest of the messages) is defined.
    pub fn supports(mesh: &Mesh, hotspot: NodeId, probability: f64) -> bool {
        Uniform::supports(mesh)
            && hotspot.index() < mesh.node_count()
            && is_probability(probability)
    }
}

fn is_probability(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

impl TrafficPattern for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, rng: &mut SimRng) -> Option<NodeId> {
        if rng.chance(self.probability) && src != self.hotspot {
            Some(self.hotspot)
        } else {
            self.uniform.destination(mesh, src, rng)
        }
    }
}

/// Nearest-neighbor traffic: each message goes to a random adjacent node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NearestNeighbor {
    _priv: (),
}

impl NearestNeighbor {
    /// Creates the nearest-neighbor pattern.
    pub fn new() -> Self {
        NearestNeighbor { _priv: () }
    }
}

impl TrafficPattern for NearestNeighbor {
    fn name(&self) -> &'static str {
        "nearest-neighbor"
    }

    fn destination(&self, mesh: &Mesh, src: NodeId, rng: &mut SimRng) -> Option<NodeId> {
        let neighbors: Vec<NodeId> = mesh
            .direction_ports()
            .filter_map(|p| mesh.neighbor(src, p.direction().expect("direction port")))
            .collect();
        rng.choose_index(neighbors.len()).map(|i| neighbors[i])
    }
}

/// The paper's four evaluation patterns, in presentation order.
pub fn paper_patterns() -> Vec<Box<dyn TrafficPattern>> {
    vec![
        Box::new(Uniform::new()),
        Box::new(Transpose::new()),
        Box::new(BitReversal::new()),
        Box::new(PerfectShuffle::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    #[test]
    fn uniform_never_self_targets_and_covers() {
        let m = mesh16();
        let u = Uniform::new();
        let src = NodeId(37);
        let mut rng = SimRng::from_seed(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let d = u.destination(&m, src, &mut rng).unwrap();
            assert_ne!(d, src);
            assert!(d.index() < m.node_count());
            seen.insert(d);
        }
        assert_eq!(seen.len(), 255, "all other nodes should be reachable");
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = mesh16();
        let t = Transpose::new();
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
        let t = Transpose::new();
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
        let b = BitReversal::new();
        let mut rng = SimRng::from_seed(0);
        // 0b0000_0001 reversed in 8 bits = 0b1000_0000 = 128.
        assert_eq!(b.destination(&m, NodeId(1), &mut rng), Some(NodeId(128)));
        // Palindrome 0b1000_0001 = 129 maps to itself: no injection.
        assert_eq!(b.destination(&m, NodeId(129), &mut rng), None);
    }

    #[test]
    fn perfect_shuffle_rotates_left() {
        let m = mesh16();
        let p = PerfectShuffle::new();
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
        let b = BitComplement::new();
        let mut rng = SimRng::from_seed(0);
        let src = m.id_at(&[0, 0]).unwrap();
        let d = b.destination(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord_of(d).components(), &[15, 15]);
        assert!((b.injecting_fraction(&m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_patterns_stay_in_range() {
        let m = mesh16();
        let pats = paper_patterns();
        let mut rng = SimRng::from_seed(0);
        for p in &pats {
            for src in m.nodes() {
                if let Some(d) = p.destination(&m, src, &mut rng) {
                    assert!(d.index() < m.node_count(), "{} out of range", p.name());
                    assert_ne!(d, src, "{} self-traffic", p.name());
                }
            }
        }
    }

    #[test]
    fn tornado_travels_half_way_in_x() {
        let m = mesh16();
        let t = Tornado::new();
        let mut rng = SimRng::from_seed(0);
        let src = m.id_at(&[14, 3]).unwrap();
        let d = t.destination(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord_of(d).components(), &[(14 + 7) % 16, 3]);
    }

    #[test]
    fn hotspot_probability_biases_destinations() {
        let m = mesh16();
        let spot = m.id_at(&[8, 8]).unwrap();
        let h = Hotspot::new(spot, 0.3);
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
        let m = mesh16();
        let nn = NearestNeighbor::new();
        let mut rng = SimRng::from_seed(5);
        let corner = m.id_at(&[0, 0]).unwrap();
        for _ in 0..100 {
            let d = nn.destination(&m, corner, &mut rng).unwrap();
            assert_eq!(m.distance(corner, d), 1);
        }
    }

    #[test]
    fn injecting_fraction_counts_silent_nodes() {
        let m = mesh16();
        // Transpose: 16 diagonal nodes are silent.
        let f = Transpose::new().injecting_fraction(&m);
        assert!((f - 240.0 / 256.0).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_patterns_reject_odd_sizes() {
        let m = Mesh::mesh_2d(3, 3);
        let mut rng = SimRng::from_seed(0);
        let _ = BitReversal::new().destination(&m, NodeId(0), &mut rng);
    }
}
