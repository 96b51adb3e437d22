//! Fault-tolerance acceptance and property tests.
//!
//! The property harness draws random connected fault sets across 2-D and
//! 3-D mesh shapes and *proves*, per generated instance, that the
//! up*/down* routing the economical tables are programmed with is safe:
//! the escape channel-dependency graph is acyclic (Dally's criterion, via
//! the `cdg` machinery), every source/destination pair still has a
//! terminating route, and a short simulation run drains. A second
//! property checks the table-backed faulty mesh against a plain BFS
//! oracle, and the economical table's exception programming against the
//! full table, on meshes and tori. `PROPTEST_CASES` bounds the suite from
//! the outside so tier-1 stays fast; CI's `scenarios` job pins it at 64
//! cases.

use lapses::prelude::*;
use lapses::routing::cdg::ChannelGraph;
use lapses::topology::Direction;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

fn arb_mesh() -> impl Strategy<Value = Mesh> {
    prop_oneof![
        (4u16..=8, 4u16..=8).prop_map(|(w, h)| Mesh::mesh_2d(w, h)),
        (3u16..=4, 3u16..=4, 3u16..=4).prop_map(|(x, y, z)| Mesh::mesh_3d(x, y, z)),
    ]
}

fn arb_topology() -> impl Strategy<Value = Mesh> {
    prop_oneof![
        (3u16..=7, 3u16..=7).prop_map(|(w, h)| Mesh::mesh_2d(w, h)),
        (2u16..=4, 2u16..=3, 2u16..=3).prop_map(|(x, y, z)| Mesh::mesh_3d(x, y, z)),
        (3u16..=6, 3u16..=6).prop_map(|(w, h)| Mesh::torus_2d(w, h)),
    ]
}

/// The neighbor over a surviving link, straight from the perfect topology
/// and the dead-link list.
fn oracle_neighbor(mesh: &Mesh, faults: &FaultSet, node: NodeId, dir: Direction) -> Option<NodeId> {
    mesh.neighbor(node, dir)
        .filter(|&nb| !faults.contains(node, nb))
}

/// Hop distances from `src` by a plain BFS over [`oracle_neighbor`],
/// stepping from a reached node `x` to a neighbor `u` where `follow(x, u)`.
fn oracle_distances(
    mesh: &Mesh,
    faults: &FaultSet,
    src: NodeId,
    follow: impl Fn(NodeId, NodeId) -> bool,
) -> Vec<u32> {
    let mut dist = vec![u32::MAX; mesh.node_count()];
    dist[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(node) = queue.pop_front() {
        for dim in 0..mesh.dims() {
            for dir in [Direction::plus(dim), Direction::minus(dim)] {
                if let Some(nb) = oracle_neighbor(mesh, faults, node, dir) {
                    if dist[nb.index()] == u32::MAX && follow(node, nb) {
                        dist[nb.index()] = dist[node.index()] + 1;
                        queue.push_back(nb);
                    }
                }
            }
        }
    }
    dist
}

/// Walks the escape relation from `src` to `dest` over surviving links,
/// returning an error instead of looping forever.
fn escape_reaches(
    algo: &dyn RoutingAlgorithm,
    fmesh: &FaultyMesh,
    src: NodeId,
    dest: NodeId,
) -> Result<(), String> {
    let mesh = fmesh.mesh();
    let mut at = src;
    let mut hops = 0u32;
    while at != dest {
        let p = algo
            .escape_port(mesh, at, dest)
            .ok_or_else(|| format!("{at}->{dest}: no escape port"))?;
        let dir = p
            .direction()
            .ok_or_else(|| format!("local escape at {at}"))?;
        let next = fmesh
            .neighbor(at, dir)
            .ok_or_else(|| format!("{at}->{dest}: escape over dead link {dir}"))?;
        at = next;
        hops += 1;
        if hops > 4 * mesh.node_count() as u32 {
            return Err(format!("{src}->{dest}: escape walk does not terminate"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: every random connected faulty instance is
    /// deadlock-free (acyclic up*/down* escape CDG), fully routable, and
    /// a short run over the compiled tables drains.
    #[test]
    fn random_faulty_instances_are_safe(
        mesh in arb_mesh(),
        count in 1usize..=6,
        fault_seed in 0u64..10_000,
        run_seed in 0u64..1_000,
    ) {
        let faults = FaultSet::random(&mesh, count, fault_seed)
            .expect("small fault counts always fit these shapes");
        prop_assert_eq!(faults.len(), count);
        let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).expect("random sets stay connected"));

        for algo in [UpDown::new(Arc::clone(&fmesh)), UpDown::adaptive(Arc::clone(&fmesh))] {
            // (a) Deadlock freedom, proven per instance by the CDG.
            let g = ChannelGraph::escape_network_faulty(&fmesh, &algo);
            prop_assert!(
                g.is_acyclic(),
                "cyclic escape CDG on {} with {} faults (seed {})",
                fmesh.mesh(), count, fault_seed
            );
            // (b) Full reachability: every pair routes, and the adaptive
            // candidate set is never empty away from the destination.
            for src in fmesh.mesh().nodes() {
                for dest in fmesh.mesh().nodes() {
                    if src == dest {
                        continue;
                    }
                    if let Err(e) = escape_reaches(&algo, &fmesh, src, dest) {
                        prop_assert!(false, "{} ({} faults, seed {}): {e}", fmesh.mesh(), count, fault_seed);
                    }
                    prop_assert!(!algo.candidates(fmesh.mesh(), src, dest).is_empty());
                }
            }
        }

        // (c) A short run over the compiled economical tables drains.
        let r = Scenario::builder()
            .topology(mesh)
            .table(TableKind::Economical)
            .load(0.12)
            .message_counts(30, 250)
            .seed(run_seed)
            .algorithm(Algorithm::UpDownAdaptive)
            .random_faults(count, fault_seed)
            .build()
            .expect("the instance resolved above is a valid scenario")
            .run();
        prop_assert!(!r.saturated, "faulty instance failed to drain");
        prop_assert_eq!(r.messages, 250);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The table-backed faulty mesh answers exactly what the plain oracle
    /// answers — neighbors, alive ports, distances, productive ports — as
    /// do the up*/down* programs' packed per-pair bytes: the adaptive
    /// candidates are the oracle's productive ports, and every escape
    /// takes a surviving link on a legal up*…down* walk. The economical
    /// table with its exception store reproduces the full table entry
    /// for entry, for both up*/down* variants.
    #[test]
    fn faulty_views_and_tables_match_their_oracles(
        mesh in arb_topology(),
        count in 0usize..=6,
        fault_seed in 0u64..10_000,
    ) {
        let Ok(faults) = FaultSet::random(&mesh, count, fault_seed) else {
            // Tiny shapes cannot hold every count; nothing to check.
            return Ok(());
        };
        let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults.clone()).expect("random sets stay connected"));
        let dist: Vec<Vec<u32>> = mesh
            .nodes()
            .map(|src| oracle_distances(&mesh, &faults, src, |_, _| true))
            .collect();
        let deterministic = UpDown::new(Arc::clone(&fmesh));
        let adaptive = UpDown::adaptive(Arc::clone(&fmesh));

        for a in mesh.nodes() {
            let mut alive = PortSet::EMPTY;
            for dim in 0..mesh.dims() {
                for dir in [Direction::plus(dim), Direction::minus(dim)] {
                    let want = oracle_neighbor(&mesh, &faults, a, dir);
                    prop_assert_eq!(fmesh.neighbor(a, dir), want, "{} {} on {}", a, dir, mesh);
                    if want.is_some() {
                        alive.insert(Port::from(dir));
                    }
                }
            }
            prop_assert_eq!(fmesh.alive_ports(a), alive, "{} on {}", a, mesh);
            prop_assert_eq!(&fmesh.distances_from(a), &dist[a.index()], "from {} on {}", a, mesh);
            for b in mesh.nodes() {
                let d = dist[a.index()][b.index()];
                prop_assert_eq!(fmesh.distance(a, b), d, "{}->{} on {}", a, b, mesh);
                let mut productive = PortSet::EMPTY;
                for port in alive.iter() {
                    let dir = port.direction().expect("direction port");
                    let nb = oracle_neighbor(&mesh, &faults, a, dir).expect("alive port");
                    if a != b && dist[nb.index()][b.index()] + 1 == d {
                        productive.insert(port);
                    }
                }
                prop_assert_eq!(fmesh.productive_ports(a, b), productive, "{}->{} on {}", a, b, mesh);
                // The adaptive program's packed candidates are the same set.
                prop_assert_eq!(adaptive.candidates(&mesh, a, b), productive, "{}->{} on {}", a, b, mesh);
            }
        }

        // Both programs' packed escapes: the same port, over a surviving
        // link, and every escape walk is up* then down* in the order of
        // the oracle's BFS levels from node 0 (ties by id). Where a
        // down-only path exists, the walk is a shortest one.
        let level = &dist[0];
        let up = |from: NodeId, to: NodeId| (level[to.index()], to.0) < (level[from.index()], from.0);
        for b in mesh.nodes() {
            // Down-only distances to `b`: from x back to each u whose link
            // u→x is a down link.
            let down = oracle_distances(&mesh, &faults, b, up);
            for a in mesh.nodes() {
                let esc = deterministic.escape_port(&mesh, a, b);
                prop_assert_eq!(adaptive.escape_port(&mesh, a, b), esc, "{}->{} on {}", a, b, mesh);
                prop_assert_eq!(
                    deterministic.candidates(&mesh, a, b),
                    esc.map_or(PortSet::EMPTY, PortSet::single),
                    "{}->{} on {}", a, b, mesh
                );
                let (mut at, mut hops, mut gone_down) = (a, 0, false);
                while at != b {
                    let dir = deterministic
                        .escape_port(&mesh, at, b)
                        .and_then(Port::direction)
                        .expect("a direction port away from the destination");
                    let next = oracle_neighbor(&mesh, &faults, at, dir);
                    prop_assert!(next.is_some(), "{}->{}: escape {} at {} is no surviving link", a, b, dir, at);
                    let next = next.unwrap();
                    if up(at, next) {
                        prop_assert!(!gone_down, "{}->{}: up hop {}->{} after a down hop", a, b, at, next);
                    } else {
                        gone_down = true;
                    }
                    at = next;
                    hops += 1;
                    prop_assert!(hops <= mesh.node_count(), "{}->{}: escape walk does not end", a, b);
                }
                if down[a.index()] != u32::MAX {
                    prop_assert_eq!(hops as u32, down[a.index()], "{}->{}: down phase not shortest", a, b);
                }
            }
        }

        for algo in [deterministic, adaptive] {
            let econ = EconomicalTable::program(&mesh, &algo);
            let full = FullTable::program(&mesh, &algo);
            for a in mesh.nodes() {
                for b in mesh.nodes() {
                    prop_assert_eq!(econ.entry(a, b), full.entry(a, b), "{} {}->{} on {}", algo.name(), a, b, mesh);
                }
            }
        }
    }
}

/// The acceptance point: an 8×8 mesh with ≥ 3 dead links runs to
/// drain under up*/down* escape with adaptive candidates.
#[test]
fn eight_by_eight_with_three_dead_links_drains() {
    let scenario = Scenario::builder()
        .mesh_2d(8, 8)
        .faults(&[(27, 28), (35, 43), (9, 10), (52, 60)])
        .algorithm(Algorithm::UpDownAdaptive)
        .load(0.15)
        .message_counts(200, 2_000)
        .build()
        .expect("faulty scenario validates");
    let result = scenario.run();
    assert!(!result.saturated);
    assert_eq!(result.messages, 2_000);
    assert!(result.avg_latency > 0.0);
    // Adaptive candidates actually get exercised around the breaks.
    assert!(result.choice_fraction > 0.0);
}

/// `ScenarioAxis::FaultCount` sweeps fault density through the
/// work-stealing runner, bit-identically across thread counts.
#[test]
fn fault_count_sweep_is_bit_identical_across_threads() {
    let base = Scenario::builder()
        .mesh_2d(8, 8)
        .algorithm(Algorithm::UpDownAdaptive)
        .random_faults(1, 13)
        .load(0.15)
        .message_counts(50, 400)
        .build()
        .unwrap();
    let grid = SweepGrid::new()
        .scenario_series(
            "fault density",
            &base,
            &ScenarioAxis::FaultCount(vec![0, 1, 2, 3, 4]),
        )
        .unwrap();
    let run = |threads| {
        SweepRunner::new()
            .with_threads(threads)
            .with_master_seed(77)
            .run(&grid)
    };
    let single = run(1);
    assert_eq!(single, run(2));
    assert_eq!(single, run(8));
    assert_eq!(single.series().len(), 1);
    assert_eq!(single.series()[0].points.len(), 5);
    // Latency should not *improve* as links die (weak sanity: the
    // fault-free point is at least as fast as the worst *faulty* one).
    let lat: Vec<f64> = single.series()[0]
        .points
        .iter()
        .map(|(_, r)| r.avg_latency)
        .collect();
    let worst_faulty = lat[1..].iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        lat[0] <= worst_faulty,
        "fault-free latency {} beat by every faulty point (max {worst_faulty})",
        lat[0]
    );
}

/// Faults must cost nothing when absent: a fault-free run of the exact
/// reference configuration is byte-for-byte the same result whether the
/// faults field is `None` or an explicitly empty random draw, under every
/// fault-capable table scheme, on a mesh and on a torus (where the economical table drops half-way-tie candidates).
#[test]
fn empty_fault_sets_cost_nothing() {
    let mesh = Scenario::builder().mesh_2d(8, 8);
    let torus = Scenario::builder().torus_2d(6, 6).vcs(4, 2);
    let cases = [
        (mesh.clone(), TableKind::Full),
        (mesh.clone(), TableKind::Economical),
        (mesh, TableKind::Interval),
        (torus.clone(), TableKind::Full),
        (torus, TableKind::Economical),
    ];
    for (topology, table) in cases {
        let reference = topology.table(table).load(0.2).message_counts(200, 1_000);
        let a = reference.clone().build().unwrap();
        let b = reference.random_faults(0, 99).build().unwrap();
        assert_eq!(
            b.config().faults,
            FaultsConfig::Random { count: 0, seed: 99 }
        );
        let what = format!("{} tables on {}", a.config().table.name(), a.config().mesh);
        assert_eq!(a.run(), b.run(), "{what}");
    }
}

/// The economical table stores up*/down* routes around dead links exactly:
/// its exception store holds what the 3ⁿ sign classes cannot.
#[test]
fn faulty_program_reproduces_updown_exactly() {
    let mesh = Mesh::mesh_2d(5, 5);
    let faults = FaultSet::random(&mesh, 3, 17).unwrap();
    let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).unwrap());
    let algo = UpDown::adaptive(Arc::clone(&fmesh));
    let table = EconomicalTable::program(&mesh, &algo);
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

/// Interval escape runs reproduce the up*/down* escape around dead links.
#[test]
fn faulty_runs_reproduce_the_updown_escape() {
    let mesh = Mesh::mesh_2d(5, 5);
    let faults = FaultSet::random(&mesh, 3, 23).unwrap();
    let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).unwrap());
    let algo = UpDown::new(Arc::clone(&fmesh));
    let table = IntervalTable::escape_runs(&mesh, &algo);
    for node in mesh.nodes() {
        for dest in mesh.nodes() {
            let e = table.entry(node, dest);
            if node == dest {
                assert!(e.is_local());
            } else {
                assert_eq!(e.escape, algo.escape_port(&mesh, node, dest));
            }
        }
    }
    // Irregularity fragments the labels: more runs than ports, but
    // still far fewer than one entry per destination.
    let per_router = table.storage().entries_per_router;
    assert!(per_router > 0 && per_router < mesh.node_count());
}

/// Up*/down* escape runs on a perfect mesh deliver every pair.
#[test]
fn faulty_program_on_perfect_mesh_matches_updown_walks() {
    let mesh = Mesh::mesh_2d(4, 4);
    let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), FaultSet::empty()).unwrap());
    let algo = UpDown::new(Arc::clone(&fmesh));
    let table = IntervalTable::escape_runs(&mesh, &algo);
    // Walk every pair to the destination over table entries alone.
    for src in mesh.nodes() {
        for dest in mesh.nodes() {
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
                assert!(hops <= 4 * mesh.node_count(), "walk does not terminate");
            }
            assert_eq!(at, dest);
        }
    }
}
