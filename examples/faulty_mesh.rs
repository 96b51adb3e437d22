//! Faulty-link routing end to end: kill links, prove the up*/down*
//! program deadlock-free, inspect the table-programming cost, run to
//! drain, sweep fault density, and compile a 64×64 faulty mesh.
//!
//! ```text
//! cargo run --release --example faulty_mesh
//! ```

use lapses::core::tables::{EconomicalTable, TableScheme};
use lapses::prelude::*;
use lapses::routing::cdg::ChannelGraph;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // --- 1. A mesh with dead links, validated up front -------------------
    let dead_links = [(27u32, 28u32), (35, 43), (9, 10)];
    let mesh = Mesh::mesh_2d(8, 8);
    let faults = FaultSet::new(&mesh, &dead_links.map(|(a, b)| (NodeId(a), NodeId(b))))
        .expect("every pair names a real link");
    let fmesh = Arc::new(FaultyMesh::new(mesh.clone(), faults).expect("network stays connected"));
    println!("topology     : {fmesh}");
    println!("dead links   : {}", fmesh.faults());

    // --- 2. Up*/down* over the surviving links, proven safe --------------
    let updown = UpDown::adaptive(Arc::clone(&fmesh));
    let cdg = ChannelGraph::escape_network_faulty(&fmesh, &updown);
    println!("escape CDG   : {cdg}");
    assert!(cdg.is_acyclic(), "up*/down* escape must be deadlock-free");

    // The detour is visible in the faulty distance metric.
    let (a, b) = (NodeId(27), NodeId(28));
    println!(
        "detour       : {a}->{b} costs {} hops (1 on the perfect mesh)",
        fmesh.distance(a, b)
    );

    // --- 3. The Fig. 7 table-programming story for irregular networks ----
    let table = EconomicalTable::program(&mesh, &updown);
    println!(
        "ES table     : 9 base entries + up to {} exception entries/router \
         ({} exceptions total) vs {} for a full table",
        table.max_exceptions_per_router(),
        table.exception_count(),
        fmesh.node_count(),
    );
    assert!(table.storage().entries_per_router < fmesh.node_count());

    // --- 4. Run the faulty scenario to drain ------------------------------
    let scenario = Scenario::builder()
        .mesh_2d(8, 8)
        .faults(&dead_links)
        .algorithm(Algorithm::UpDownAdaptive)
        .table(TableKind::Economical)
        .lookahead(true)
        .load(0.15)
        .message_counts(500, 5_000)
        .build()
        .expect("faulty scenario validates");
    let result = scenario.run();
    println!(
        "faulty run   : {} msgs in {} cycles, avg latency {:.1}, {} flit-hops",
        result.messages, result.cycles, result.avg_latency, result.flit_hops
    );
    assert!(!result.saturated);

    // Misconfigurations are typed errors, not mid-run panics.
    let err = Scenario::builder()
        .mesh_2d(8, 8)
        .faults(&dead_links)
        .build()
        .unwrap_err();
    println!("validation   : {err}");

    // --- 5. Fault-density sweep through the work-stealing runner ----------
    let base = Scenario::builder()
        .mesh_2d(8, 8)
        .algorithm(Algorithm::UpDownAdaptive)
        .random_faults(1, 13)
        .load(0.15)
        .message_counts(200, 2_000)
        .build()
        .unwrap();
    let grid = SweepGrid::new()
        .scenario_series(
            "latency vs dead links",
            &base,
            &ScenarioAxis::FaultCount(vec![0, 1, 2, 3, 4, 5, 6]),
        )
        .expect("fault-count axis applies");
    let report = SweepRunner::new().with_master_seed(99).run(&grid);
    println!("\nfault-density sweep (x = dead links):");
    println!("{}", report.to_tables()[0]);

    // --- 6. Compiling at scale ----------------------------------------------
    // A 64x64 mesh with 256 dead links: the up*/down* program keeps two
    // bytes per (router, destination), 32 MiB here, and no all-pairs
    // distance matrix; the economical tables fold it into 9 base entries
    // per router plus exceptions.
    let start = Instant::now();
    let big = Mesh::mesh_2d(64, 64);
    let faults = FaultSet::random(&big, 256, 64).expect("256 faults fit a 64x64 mesh");
    let fbig = Arc::new(FaultyMesh::new(big, faults).expect("random sets stay connected"));
    let updown = UpDown::adaptive(Arc::clone(&fbig));
    let table = EconomicalTable::program(fbig.mesh(), &updown);
    println!(
        "\n64x64 compile: {fbig}, adaptive up*/down* economical tables in {:.2} s: \
         {} exceptions (at most {}/router)",
        start.elapsed().as_secs_f64(),
        table.exception_count(),
        table.max_exceptions_per_router(),
    );
}
