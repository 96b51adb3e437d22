//! Network-level invariants: flow-control conservation after drain,
//! topology generality (torus, 3-D), and the meta-table boundary-congestion
//! mechanism the paper describes.

use lapses_core::tables::FullTable;
use lapses_core::{RouterConfig, TableScheme};
use lapses_network::network::Network;
use lapses_network::{Pattern, Scenario, TableKind};
use lapses_routing::Algorithm;
use lapses_sim::Cycle;
use lapses_topology::{Mesh, NodeId};
use std::sync::Arc;

/// Runs a hand-built workload to completion and checks the network ends in
/// a credit-balanced quiescent state — no leaked buffer slots anywhere.
fn run_and_check_quiescent(mesh: Mesh, cfg: RouterConfig, messages: &[(u32, u32, u32)]) {
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
    let mut net = Network::new(mesh, cfg, program, 1, 11);
    let mut expected = 0;
    for &(src, dest, len) in messages {
        net.offer_message(NodeId(src), NodeId(dest), len, Cycle::ZERO, true);
        expected += 1;
    }
    let mut delivered = 0;
    for t in 0..200_000u64 {
        delivered += net.step(Cycle::new(t)).measured_deliveries;
        if delivered >= expected {
            break;
        }
    }
    assert_eq!(delivered, expected, "messages lost");
    // Let stragglers (credits in flight) settle.
    for t in 200_000..200_016u64 {
        net.step(Cycle::new(t));
    }
    net.assert_quiescent();
}

#[test]
fn credits_conserve_on_mesh_under_crossing_traffic() {
    let mesh = Mesh::mesh_2d(6, 6);
    // All four corners exchange long messages through the center.
    let corners = [0u32, 5, 30, 35];
    let mut msgs = Vec::new();
    for &a in &corners {
        for &b in &corners {
            if a != b {
                msgs.push((a, b, 24));
            }
        }
    }
    run_and_check_quiescent(mesh, RouterConfig::paper_adaptive(), &msgs);
}

#[test]
fn credits_conserve_with_lookahead_routers() {
    let mesh = Mesh::mesh_2d(5, 5);
    let msgs: Vec<(u32, u32, u32)> = (0..25u32)
        .filter(|n| n % 3 != 0)
        .map(|n| (n, 24 - n, 8))
        .filter(|(a, b, _)| a != b)
        .collect();
    run_and_check_quiescent(
        mesh,
        RouterConfig::paper_adaptive().with_lookahead(true),
        &msgs,
    );
}

#[test]
fn credits_conserve_on_torus_with_dateline() {
    let mesh = Mesh::torus_2d(6, 6);
    let msgs: Vec<(u32, u32, u32)> = (0..36u32).map(|n| (n, (n + 19) % 36, 12)).collect();
    let mut cfg = RouterConfig::paper_adaptive().with_vcs(4, 2);
    cfg.escape_subclasses = 2;
    run_and_check_quiescent(mesh, cfg, &msgs);
}

#[test]
fn credits_conserve_on_3d_mesh() {
    let mesh = Mesh::mesh_3d(4, 4, 4);
    let msgs: Vec<(u32, u32, u32)> = (0..64u32)
        .map(|n| (n, 63 - n, 10))
        .filter(|(a, b, _)| a != b)
        .collect();
    run_and_check_quiescent(mesh, RouterConfig::paper_adaptive(), &msgs);
}

#[test]
fn torus_simulation_runs_to_completion() {
    let torus = |load| {
        Scenario::builder()
            .topology(Mesh::torus_2d(8, 8))
            .load(load)
            .message_counts(200, 2_000)
            .seed(5)
            .router(RouterConfig::paper_adaptive().with_vcs(4, 2))
            .build()
            .unwrap()
            .run()
    };
    let r = torus(0.25);
    assert!(!r.saturated);
    assert_eq!(r.messages, 2_000);
    // Wrap links shorten the average path: compare at equal *absolute*
    // injection rates (the torus bisection is twice the mesh's, so
    // normalized load 0.1 on the torus equals 0.2 on the mesh).
    let torus_r = torus(0.1);
    let mesh_r = Scenario::builder()
        .mesh_2d(8, 8)
        .load(0.2)
        .message_counts(200, 2_000)
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert!(
        torus_r.avg_latency < mesh_r.avg_latency,
        "torus {} should beat mesh {} at equal absolute load",
        torus_r.avg_latency,
        mesh_r.avg_latency
    );
}

#[test]
fn meta_blocks_congest_cluster_boundary_links() {
    // The paper's §5.2.2 explanation: with the Fig. 8(b) labeling, messages
    // lose adaptivity at cluster boundaries, so boundary links carry
    // disproportionate load. Compare the busiest link under meta-blocks vs
    // full tables at the same offered traffic.
    let max_util = |table: TableKind| {
        Scenario::builder()
            .table(table)
            .pattern(Pattern::Transpose)
            .load(0.15)
            .message_counts(300, 3_000)
            .seed(9)
            .build()
            .unwrap()
            .run()
            .max_link_utilization
    };
    let full = max_util(TableKind::Full);
    let meta = max_util(TableKind::MetaBlocks(vec![4, 4]));
    assert!(
        meta > full * 1.15,
        "expected boundary hot links under meta-blocks: meta {meta:.3} vs full {full:.3}"
    );
}

#[test]
fn slow_table_ram_penalizes_full_tables_but_not_es_with_lookahead() {
    // End-to-end version of the Table 5 lookup-time argument.
    let base = Scenario::builder()
        .mesh_2d(8, 8)
        .load(0.15)
        .message_counts(200, 2_000)
        .seed(3);
    let fast = base.clone().build().unwrap().run();
    let slow = base.table_lookup_cycles(2).build().unwrap().run();
    // One extra cycle per hop: ~6.25 routers on the average path.
    let delta = slow.avg_latency - fast.avg_latency;
    assert!(
        (4.0..9.0).contains(&delta),
        "2-cycle RAM should add ~1 cycle/hop, added {delta}"
    );
}
