//! Deadlock-freedom analysis of every routing relation the simulator runs,
//! via exhaustive channel-dependency-graph construction.
//!
//! These are the safety proofs (per topology instance) behind the
//! experiment configurations: each escape network used by a simulation must
//! be acyclic, and the known-unsafe relations must be detected as cyclic.

use lapses::core::tables::{MetaTable, TableScheme};
use lapses::prelude::*;
use lapses::routing::cdg::ChannelGraph;
use lapses::topology::Port;

#[test]
fn xy_escape_is_acyclic_on_the_paper_mesh() {
    let mesh = Mesh::mesh_2d(16, 16);
    let g = ChannelGraph::escape_network(&mesh, &Algorithm::DimensionOrder);
    assert!(g.is_acyclic());
}

#[test]
fn duato_adaptive_relation_alone_is_cyclic() {
    // This is *why* Duato needs the escape channel.
    let mesh = Mesh::mesh_2d(4, 4);
    let g = ChannelGraph::adaptive_network(&mesh, &Algorithm::Duato);
    assert!(!g.is_acyclic());
}

#[test]
fn turn_models_are_acyclic_adaptive_relations() {
    let mesh = Mesh::mesh_2d(6, 6);
    for turn_model in [
        Algorithm::NorthLast,
        Algorithm::WestFirst,
        Algorithm::NegativeFirst,
    ] {
        let g = ChannelGraph::adaptive_network(&mesh, &turn_model);
        assert!(g.is_acyclic(), "{turn_model:?} must be deadlock-free");
    }
}

/// Builds the CDG of a table scheme's *escape* relation (what the escape
/// VCs actually follow in the simulator).
fn escape_graph_of_scheme(mesh: &Mesh, scheme: &dyn TableScheme) -> ChannelGraph {
    ChannelGraph::for_relation(mesh, 1, |here, dest| {
        scheme
            .entry(here, dest)
            .escape
            .and_then(Port::direction)
            .map(|d| (d, 0))
            .into_iter()
            .collect()
    })
}

#[test]
fn meta_table_escape_relations_are_acyclic() {
    // Not obvious a priori: the block labeling interleaves X and Y phases
    // (toward-cluster then within-cluster). The exhaustive CDG shows both
    // Fig. 8 labelings yield acyclic escapes, so the meta-table simulations
    // are deadlock-free — they saturate early for congestion reasons, not
    // deadlock.
    let mesh = Mesh::mesh_2d(8, 8);
    let duato = Algorithm::Duato;
    let rows = MetaTable::rows(&mesh, &duato);
    assert!(escape_graph_of_scheme(&mesh, &rows).is_acyclic());
    let blocks = MetaTable::blocks(&mesh, &[4, 4], &duato);
    assert!(escape_graph_of_scheme(&mesh, &blocks).is_acyclic());
}

#[test]
fn economical_and_full_escape_relations_are_acyclic() {
    let mesh = Mesh::mesh_2d(8, 8);
    let duato = Algorithm::Duato;
    let full = FullTable::program(&mesh, &duato);
    assert!(escape_graph_of_scheme(&mesh, &full).is_acyclic());
    let econ = EconomicalTable::program(&mesh, &duato);
    assert!(escape_graph_of_scheme(&mesh, &econ).is_acyclic());
}

#[test]
fn interval_routing_relation_is_acyclic() {
    // Y-then-X dimension order: provably deadlock-free, confirmed here.
    let mesh = Mesh::mesh_2d(8, 8);
    let table = IntervalTable::program(&mesh);
    let g = ChannelGraph::for_relation(&mesh, 1, |here, dest| {
        table
            .entry(here, dest)
            .candidates
            .iter()
            .filter_map(Port::direction)
            .map(|d| (d, 0))
            .collect()
    });
    assert!(g.is_acyclic());
}

#[test]
fn torus_escape_needs_both_dateline_classes() {
    let torus = Mesh::torus_2d(6, 6);
    let xy = Algorithm::DimensionOrder;
    // With the dateline classes the escape is safe...
    assert!(ChannelGraph::escape_network(&torus, &xy).is_acyclic());
    // ...without them it must not be.
    let single = ChannelGraph::for_relation(&torus, 1, |here, dest| {
        xy.escape_port(&torus, here, dest)
            .and_then(Port::direction)
            .map(|d| (d, 0))
            .into_iter()
            .collect()
    });
    assert!(!single.is_acyclic());
}

#[test]
fn three_dimensional_escape_is_acyclic() {
    let mesh = Mesh::mesh_3d(4, 4, 4);
    let g = ChannelGraph::escape_network(&mesh, &Algorithm::Duato);
    assert!(g.is_acyclic());
}
