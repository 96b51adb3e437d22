//! Economical-storage routing tables — the paper's §5.2 proposal.

use crate::tables::cost::StorageCost;
use crate::tables::{RouteEntry, TableScheme};
use lapses_routing::{torus_dateline_subclass, RoutingAlgorithm};
use lapses_topology::{FaultyMesh, Mesh, NodeId, SignVec, MAX_DIMS};

/// The 3ⁿ-entry economical-storage (ES) routing table.
///
/// Instead of indexing by destination address, the router computes the
/// per-dimension **sign** of the destination-relative coordinates
/// (`s_x = sign(d_x - i_x)`, `s_y = sign(d_y - i_y)`, …) with two
/// comparators and a node-id register, and uses the sign vector to index a
/// table of only `3ⁿ` entries — **9** for 2-D meshes and **27** for 3-D,
/// independent of network size (§5.2.1).
///
/// Because "all the popular adaptive mesh routing algorithms use network
/// symmetry and source-relative directions", the candidate set of such an
/// algorithm is a function of the sign vector alone, so the ES table loses
/// *no* routing flexibility relative to a full table (§5.2.2) — a claim the
/// test-suite verifies exhaustively and by property test.
///
/// On a torus the sign is computed from the minimal wrap-aware direction
/// (preferring `+` on an exactly-half-way tie) and the escape dateline
/// subclass is recomputed positionally by the same comparator hardware —
/// the §5.2.1 "minimal path routing in n-dimensional tori" extension.
///
/// # Example
///
/// ```
/// use lapses_core::tables::{EconomicalTable, TableScheme};
/// use lapses_routing::DuatoAdaptive;
/// use lapses_topology::Mesh;
///
/// let mesh = Mesh::mesh_2d(16, 16);
/// let table = EconomicalTable::program(&mesh, &DuatoAdaptive::new());
/// assert_eq!(table.storage().entries_per_router, 9); // not 256!
/// ```
#[derive(Debug)]
pub struct EconomicalTable {
    mesh: Mesh,
    /// The comparator logic: per-node coordinates for the sign index.
    signs: SignIndex,
    /// Flattened `entries[node * 3ⁿ + sign_index]`.
    entries: Vec<RouteEntry>,
    /// Per-destination overrides for relations the sign index cannot
    /// express — the small exception CAM an irregular-network ES table
    /// carries — in CSR form: router `i`'s exceptions are
    /// `exceptions[exception_start[i]..exception_start[i + 1]]`, sorted by
    /// destination id. Destination ids and entries are kept in parallel
    /// arrays so the lookup's binary search touches only the ids. Empty
    /// for source-relative algorithms on perfect meshes, so the classic
    /// lookup is untouched.
    exception_start: Vec<u32>,
    exception_dests: Vec<u32>,
    exception_entries: Vec<RouteEntry>,
    /// Whether [`TableScheme::entry`] recomputes the torus dateline
    /// subclass positionally (the classic §5.2.1 extension). Faulty
    /// programs store the subclass verbatim instead.
    recompute_dateline: bool,
}

impl EconomicalTable {
    /// Compiles the per-router sign-indexed tables from a routing algorithm.
    ///
    /// Each router's entry for a sign vector is programmed from any
    /// destination realizing that sign from the router (they all agree for
    /// source-relative algorithms — verified with debug assertions).
    /// Sign combinations unrealizable at a router (e.g. `(-,·)` at the
    /// left edge of a mesh) stay [`RouteEntry::unprogrammed`].
    pub fn program(mesh: &Mesh, algo: &dyn RoutingAlgorithm) -> EconomicalTable {
        let signs = SignIndex::new(mesh);
        let table_len = signs.table_len();
        let mut entries = vec![RouteEntry::unprogrammed(); mesh.node_count() * table_len];
        let mut programmed = vec![false; table_len];

        for (node, row) in mesh.nodes().zip(entries.chunks_exact_mut(table_len)) {
            programmed.fill(false);
            for dest in mesh.nodes() {
                let idx = signs.index(node, dest);
                let entry = if node == dest {
                    RouteEntry::local()
                } else {
                    let mut candidates = algo.candidates(mesh, node, dest);
                    if mesh.is_torus() {
                        // At an exactly-half-way torus tie both directions
                        // are minimal, but a sign can encode only one; keep
                        // the sign-consistent direction (the slight
                        // adaptivity loss of the sign encoding).
                        let sv = SignVec::from_table_index(idx, mesh.dims());
                        candidates = candidates
                            .iter()
                            .filter(|p| {
                                let d = p.direction().expect("network port");
                                sv.sign(d.dim()) == d.sign()
                            })
                            .collect();
                    }
                    RouteEntry {
                        candidates,
                        escape: algo.escape_port(mesh, node, dest),
                        // The stored subclass is for the mesh case; torus
                        // lookups recompute it positionally in `entry()`.
                        escape_subclass: 0,
                    }
                };
                if programmed[idx] {
                    debug_assert_eq!(
                        (row[idx].candidates, row[idx].escape),
                        (entry.candidates, entry.escape),
                        "algorithm {} is not source-relative: sign index {idx} at {node} \
                         maps to different entries",
                        algo.name()
                    );
                } else {
                    row[idx] = entry;
                    programmed[idx] = true;
                }
            }
        }

        EconomicalTable {
            mesh: mesh.clone(),
            signs,
            entries,
            exception_start: vec![0; mesh.node_count() + 1],
            exception_dests: Vec::new(),
            exception_entries: Vec::new(),
            recompute_dateline: true,
        }
    }

    /// Compiles an economical table for an *arbitrary* routing relation
    /// over a faulty (or perfect) topology — the table-programming story
    /// for irregular networks.
    ///
    /// Up*/down* routes around dead links are not functions of the sign
    /// vector alone, so the 3ⁿ base table cannot be lossless by itself.
    /// Instead, each sign class is programmed with the entry shared by the
    /// *most* destinations of the class (ties go to the entry whose first
    /// destination has the lowest id), and every disagreeing destination
    /// goes into a small per-router exception store (the CAM a real ES
    /// router would add for irregular networks). The result is exactly
    /// lossless for any relation; for source-relative algorithms on
    /// fault-free meshes the exception store is empty and the table
    /// degenerates to the classic 3ⁿ program (asserted by tests).
    ///
    /// Per router this is three passes over the destinations: compute each
    /// true entry and its sign class, count `(class, entry)` occurrences in
    /// a direct-indexed array, then keep the first destination of each
    /// class whose entry has the class's highest count.
    pub fn program_faulty(fmesh: &FaultyMesh, algo: &dyn RoutingAlgorithm) -> EconomicalTable {
        let mesh = fmesh.mesh();
        let n = mesh.node_count();
        let signs = SignIndex::new(mesh);
        let table_len = signs.table_len();
        let ports = mesh.ports_per_router();
        let mut entries = vec![RouteEntry::unprogrammed(); n * table_len];
        let mut exception_start = Vec::with_capacity(n + 1);
        exception_start.push(0u32);
        let mut exception_dests = Vec::new();
        let mut exception_entries = Vec::new();

        // Per-router scratch, reused: each destination's true entry, its
        // dense key and sign class, the per-(class, key) counts, and each
        // class's base destination with its count.
        let mut row: Vec<(RouteEntry, usize, usize)> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        let mut base = vec![(0u32, 0usize); table_len];
        for (node, base_row) in mesh.nodes().zip(entries.chunks_exact_mut(table_len)) {
            row.clear();
            let mut keys = 0;
            for dest in mesh.nodes() {
                let entry = if node == dest {
                    RouteEntry::local()
                } else {
                    RouteEntry {
                        candidates: algo.candidates(mesh, node, dest),
                        escape: algo.escape_port(mesh, node, dest),
                        escape_subclass: algo.escape_subclass(mesh, node, dest) as u8,
                    }
                };
                let key = entry_key(entry, ports);
                keys = keys.max(key + 1);
                row.push((entry, key, signs.index(node, dest)));
            }
            counts.clear();
            counts.resize(table_len * keys, 0);
            for &(_, key, class) in &row {
                counts[class * keys + key] += 1;
            }
            base.fill((0, 0));
            for (dest, &(_, key, class)) in row.iter().enumerate() {
                let count = counts[class * keys + key];
                if count > base[class].0 {
                    base[class] = (count, dest);
                }
            }
            for (slot, &(count, dest)) in base_row.iter_mut().zip(&base) {
                if count > 0 {
                    *slot = row[dest].0;
                }
            }
            for (dest, &(entry, _, class)) in row.iter().enumerate() {
                if entry != base_row[class] {
                    exception_dests.push(dest as u32);
                    exception_entries.push(entry);
                }
            }
            exception_start.push(
                u32::try_from(exception_dests.len()).expect("exception count fits the CSR offsets"),
            );
        }

        EconomicalTable {
            mesh: mesh.clone(),
            signs,
            entries,
            exception_start,
            exception_dests,
            exception_entries,
            recompute_dateline: false,
        }
    }

    /// Exception entries across all routers (0 for source-relative
    /// algorithms on fault-free meshes).
    pub fn exception_count(&self) -> usize {
        self.exception_dests.len()
    }

    /// The largest per-router exception store — the extra entries one
    /// router's hardware table would need on top of the 3ⁿ base.
    pub fn max_exceptions_per_router(&self) -> usize {
        self.exception_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// A dense injective key for an entry whose ports lie below `ports`:
/// candidate bits, then the escape port (0 for none), then the subclass.
fn entry_key(entry: RouteEntry, ports: usize) -> usize {
    let bits = entry.candidates.bits() as usize;
    debug_assert!(bits < 1 << ports, "candidate outside the router's ports");
    let escape = entry.escape.map_or(0, |p| p.index() + 1);
    let escape_bits = usize::BITS - ports.leading_zeros();
    bits | (escape << ports) | ((entry.escape_subclass as usize) << (ports + escape_bits as usize))
}

/// The comparator logic of §5.2.1 with the node-id register unpacked:
/// per-node coordinates, precomputed once, from which the sign-table index
/// of any `(router, destination)` pair follows with no division.
///
/// Per dimension the sign is the minimal direction of travel toward the
/// destination, or zero when aligned. On a mesh that is the plain
/// coordinate-difference sign; on a torus it is wrap-aware, preferring `+`
/// on an exactly-half-way tie.
#[derive(Debug, Clone)]
struct SignIndex {
    dims: usize,
    /// Entries per router: 3ⁿ.
    len: usize,
    /// Per-dimension extents on a torus, `None` on a mesh.
    wrap: Option<[u16; MAX_DIMS]>,
    coords: Vec<[u16; MAX_DIMS]>,
}

impl SignIndex {
    fn new(mesh: &Mesh) -> SignIndex {
        let dims = mesh.dims();
        let mut extents = [0u16; MAX_DIMS];
        extents[..dims].copy_from_slice(mesh.shape());
        let coords = mesh
            .nodes()
            .map(|node| {
                let mut c = [0u16; MAX_DIMS];
                c[..dims].copy_from_slice(mesh.coord_of(node).components());
                c
            })
            .collect();
        SignIndex {
            dims,
            len: SignVec::table_len(dims),
            wrap: mesh.is_torus().then_some(extents),
            coords,
        }
    }

    /// Entries per router: 3ⁿ.
    fn table_len(&self) -> usize {
        self.len
    }

    /// The sign-table index of `dest` seen from `node`: base 3 with
    /// dimension 0 least significant, digits `0` aligned, `1` plus, `2`
    /// minus (see [`SignVec::table_index`]).
    #[inline]
    fn index(&self, node: NodeId, dest: NodeId) -> usize {
        let h = &self.coords[node.index()];
        let d = &self.coords[dest.index()];
        let mut idx = 0;
        for dim in (0..self.dims).rev() {
            let digit = match self.wrap {
                None => usize::from(d[dim] > h[dim]) + 2 * usize::from(d[dim] < h[dim]),
                Some(k) => {
                    let k = u32::from(k[dim]);
                    let fwd = (u32::from(d[dim]) + k - u32::from(h[dim])) % k;
                    if fwd == 0 {
                        0
                    } else if fwd <= k - fwd {
                        1
                    } else {
                        2
                    }
                }
            };
            idx = idx * 3 + digit;
        }
        idx
    }
}

impl TableScheme for EconomicalTable {
    fn name(&self) -> &'static str {
        "economical"
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn entry(&self, node: NodeId, dest: NodeId) -> RouteEntry {
        let lo = self.exception_start[node.index()] as usize;
        let hi = self.exception_start[node.index() + 1] as usize;
        if lo != hi {
            if let Ok(i) = self.exception_dests[lo..hi].binary_search(&dest.0) {
                return self.exception_entries[lo + i];
            }
        }
        let mut e =
            self.entries[node.index() * self.signs.table_len() + self.signs.index(node, dest)];
        if self.recompute_dateline && self.signs.wrap.is_some() {
            e.escape_subclass = torus_dateline_subclass(&self.mesh, node, dest, e.escape) as u8;
        }
        e
    }

    fn storage(&self) -> StorageCost {
        StorageCost::for_scheme(
            &self.mesh,
            SignVec::table_len(self.mesh.dims()) + self.max_exceptions_per_router(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::FullTable;
    use lapses_routing::{DimensionOrder, DuatoAdaptive, TurnModel, TurnModelKind};
    use lapses_topology::Sign;

    /// §5.2.2's headline claim: "performance of full-table routing and
    /// economical storage routing are identical" because the entries agree
    /// for every (router, destination) pair.
    fn assert_equivalent(mesh: &Mesh, algo: &dyn RoutingAlgorithm) {
        let full = FullTable::program(mesh, algo);
        let econ = EconomicalTable::program(mesh, algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let f = full.entry(node, dest);
                let e = econ.entry(node, dest);
                assert_eq!(
                    (f.candidates, f.escape),
                    (e.candidates, e.escape),
                    "{} differs from full table at {node}->{dest}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn equivalent_to_full_table_for_duato() {
        assert_equivalent(&Mesh::mesh_2d(8, 8), &DuatoAdaptive::new());
    }

    #[test]
    fn equivalent_to_full_table_for_xy() {
        assert_equivalent(&Mesh::mesh_2d(8, 8), &DimensionOrder::new());
    }

    #[test]
    fn equivalent_to_full_table_for_north_last() {
        assert_equivalent(
            &Mesh::mesh_2d(8, 8),
            &TurnModel::new(TurnModelKind::NorthLast),
        );
    }

    #[test]
    fn equivalent_on_3d_mesh() {
        assert_equivalent(&Mesh::mesh_3d(4, 4, 4), &DuatoAdaptive::new());
    }

    #[test]
    fn nine_entries_for_2d_27_for_3d() {
        let t2 = EconomicalTable::program(&Mesh::mesh_2d(16, 16), &DuatoAdaptive::new());
        assert_eq!(t2.storage().entries_per_router, 9);
        let t3 = EconomicalTable::program(&Mesh::mesh_3d(4, 4, 4), &DuatoAdaptive::new());
        assert_eq!(t3.storage().entries_per_router, 27);
    }

    #[test]
    fn torus_lookup_recomputes_dateline_subclass() {
        let torus = Mesh::torus_2d(8, 8);
        let algo = DuatoAdaptive::new();
        let econ = EconomicalTable::program(&torus, &algo);
        let full = FullTable::program(&torus, &algo);
        for node in torus.nodes() {
            for dest in torus.nodes() {
                let f = full.entry(node, dest);
                let e = econ.entry(node, dest);
                // Candidate sets may differ only at half-way ties (the sign
                // table prefers +); escapes and subclasses must agree there
                // too because the escape picks + on ties as well.
                assert_eq!(f.escape, e.escape, "{node}->{dest}");
                assert_eq!(f.escape_subclass, e.escape_subclass, "{node}->{dest}");
                assert!(
                    e.candidates.is_subset(f.candidates),
                    "ES candidates exceed minimal set at {node}->{dest}"
                );
            }
        }
    }

    #[test]
    fn edge_routers_have_unprogrammed_impossible_signs() {
        let mesh = Mesh::mesh_2d(4, 4);
        let econ = EconomicalTable::program(&mesh, &DuatoAdaptive::new());
        // Origin router can never see a (-, -) destination; that entry
        // stays unprogrammed. Look it up through the raw storage.
        let sv = SignVec::from_signs(&[Sign::Minus, Sign::Minus]);
        let origin = mesh.id_at(&[0, 0]).unwrap();
        assert_eq!(
            econ.entries[origin.index() * 9 + sv.table_index()],
            RouteEntry::unprogrammed()
        );
    }

    #[test]
    fn relative_sign_on_mesh_matches_signvec() {
        for mesh in [Mesh::mesh_2d(8, 5), Mesh::mesh_3d(3, 4, 2)] {
            let signs = SignIndex::new(&mesh);
            for node in mesh.nodes() {
                for dest in mesh.nodes() {
                    let direct = SignVec::between(&mesh.coord_of(node), &mesh.coord_of(dest));
                    assert_eq!(signs.index(node, dest), direct.table_index());
                }
            }
        }
    }

    #[test]
    fn faulty_program_is_lossless_and_exception_free_when_source_relative() {
        use lapses_topology::{FaultSet, FaultyMesh};
        // A fault-free faulty-view program of a source-relative algorithm
        // needs no exceptions and matches the classic program everywhere.
        let mesh = Mesh::mesh_2d(6, 6);
        let fmesh = FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap();
        let algo = DuatoAdaptive::new();
        let faulty = EconomicalTable::program_faulty(&fmesh, &algo);
        assert_eq!(faulty.exception_count(), 0);
        assert_eq!(faulty.storage().entries_per_router, 9);
        let classic = EconomicalTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                assert_eq!(faulty.entry(node, dest), classic.entry(node, dest));
            }
        }
    }

    #[test]
    fn faulty_program_reproduces_updown_exactly() {
        use lapses_routing::UpDown;
        use lapses_topology::{FaultSet, FaultyMesh};
        use std::sync::Arc;
        let mesh = Mesh::mesh_2d(5, 5);
        let faults = FaultSet::random(&mesh, 3, 17).unwrap();
        let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).unwrap());
        let algo = UpDown::adaptive(Arc::clone(&fmesh));
        let table = EconomicalTable::program_faulty(&fmesh, &algo);
        let full = FullTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                assert_eq!(
                    table.entry(node, dest),
                    full.entry(node, dest),
                    "exception table lost {node}->{dest}"
                );
            }
        }
        // Up*/down* around faults is not sign-consistent: some exceptions
        // exist, but far fewer than a full table's 25 entries per router.
        assert!(table.exception_count() > 0);
        assert!(table.max_exceptions_per_router() < mesh.node_count());
        assert_eq!(
            table.storage().entries_per_router,
            9 + table.max_exceptions_per_router()
        );
    }

    #[test]
    fn relative_sign_on_torus_points_the_short_way() {
        let torus = Mesh::torus_2d(8, 8);
        let signs = SignIndex::new(&torus);
        let sign = |a, b| SignVec::from_table_index(signs.index(a, b), 2).sign(0);
        let a = torus.id_at(&[1, 0]).unwrap();
        let b = torus.id_at(&[7, 0]).unwrap();
        // Short way from 1 to 7 is backwards (2 hops) not forward (6).
        assert_eq!(sign(a, b), Sign::Minus);
        // Half-way tie prefers +.
        let c = torus.id_at(&[5, 0]).unwrap();
        assert_eq!(sign(a, c), Sign::Plus);
    }
}
