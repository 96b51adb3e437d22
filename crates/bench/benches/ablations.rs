//! Ablations beyond the paper's figures: design choices the paper leaves
//! open (credit aggregation, LFU granularity, the VC split, a random
//! baseline, table RAM latency) plus the §5.2.1 extensions (3-D meshes,
//! tori).
//!
//! 1. MAX-CREDIT aggregation: sum of per-VC credits (the paper's reading)
//!    vs best single VC.
//! 2. LFU counting granularity: per flit vs per message header.
//! 3. Escape/adaptive VC split under Duato's protocol (1+3, 2+2, 1+1, 1+7).
//! 4. Random selection (Chaos-style) as an extra PSH baseline.
//! 5. Economical storage on a 3-D mesh (27-entry tables).
//! 6. Economical storage on a 2-D torus with the dateline escape.

use lapses_bench::{with_bench_counts_scenario, Table};
use lapses_core::psh::{CreditAggregate, LfuCounting, PathSelection};
use lapses_core::RouterConfig;
use lapses_network::{Pattern, Scenario, ScenarioBuilder, TableKind};
use lapses_topology::Mesh;

/// Runs one point at the bench message counts; its latency cell.
fn latency_cell(builder: ScenarioBuilder) -> String {
    with_bench_counts_scenario(builder)
        .build()
        .expect("ablation points are valid scenarios")
        .run()
        .latency_cell()
}

fn transpose_at(builder: ScenarioBuilder, load: f64) -> String {
    latency_cell(builder.pattern(Pattern::Transpose).load(load))
}

fn main() {
    println!("== Ablations ==\n");

    // 1 + 2 + 4: path-selection variants on transpose.
    let mut psh = Table::new(&["selection", "t@0.2", "t@0.35"]);
    for (name, kind) in [
        ("static-xy", PathSelection::StaticXy),
        ("random", PathSelection::Random),
        (
            "max-credit(sum)",
            PathSelection::MaxCredit(CreditAggregate::Sum),
        ),
        (
            "max-credit(max)",
            PathSelection::MaxCredit(CreditAggregate::Max),
        ),
        ("lfu(per-flit)", PathSelection::Lfu(LfuCounting::PerFlit)),
        ("lfu(per-msg)", PathSelection::Lfu(LfuCounting::PerMessage)),
        ("lru", PathSelection::Lru),
    ] {
        psh.row(vec![
            name.to_string(),
            transpose_at(Scenario::builder().path_selection(kind), 0.2),
            transpose_at(Scenario::builder().path_selection(kind), 0.35),
        ]);
    }
    println!("-- path-selection ablations (transpose traffic) --");
    println!("{}", psh.render());
    psh.save_csv("ablation_psh");

    // 3: escape/adaptive VC split.
    let mut vcsplit = Table::new(&["VCs (escape+adaptive)", "t@0.2", "t@0.35"]);
    for (total, escape) in [(4usize, 1usize), (4, 2), (2, 1), (8, 1)] {
        let mk =
            || Scenario::builder().router(RouterConfig::paper_adaptive().with_vcs(total, escape));
        vcsplit.row(vec![
            format!("{}+{}", escape, total - escape),
            transpose_at(mk(), 0.2),
            transpose_at(mk(), 0.35),
        ]);
    }
    println!("-- escape/adaptive VC split (Duato, transpose) --");
    println!("{}", vcsplit.render());
    vcsplit.save_csv("ablation_vcsplit");

    // 5: 3-D mesh with 27-entry economical tables.
    let mut dims = Table::new(&["topology", "table", "uniform@0.2", "uniform@0.4"]);
    for kind in [TableKind::Full, TableKind::Economical] {
        let mk = |load: f64| {
            latency_cell(
                Scenario::builder()
                    .topology(Mesh::mesh_3d(6, 6, 6))
                    .table(kind.clone())
                    .load(load),
            )
        };
        dims.row(vec![
            "6x6x6 mesh".into(),
            kind.name().into(),
            mk(0.2),
            mk(0.4),
        ]);
    }

    // 6: 2-D torus with the dateline escape (2 escape subclasses).
    for kind in [TableKind::Full, TableKind::Economical] {
        let mk = |load: f64| {
            latency_cell(
                Scenario::builder()
                    .topology(Mesh::torus_2d(8, 8))
                    .table(kind.clone())
                    .load(load)
                    // Dateline escape needs two escape subclasses.
                    .router(RouterConfig::paper_adaptive().with_vcs(4, 2)),
            )
        };
        dims.row(vec![
            "8x8 torus".into(),
            kind.name().into(),
            mk(0.2),
            mk(0.4),
        ]);
    }
    println!("-- economical storage beyond 2-D meshes (uniform traffic) --");
    println!("{}", dims.render());
    dims.save_csv("ablation_topologies");

    // 7: table-lookup latency — the hardware argument *for* economical
    // storage. Table 5 notes full-table lookup time is "possibly high"
    // (proportional to table size); model the 256-entry RAM as 2-cycle
    // and the 9-entry ES as 1-cycle and compare end-to-end.
    let mut lookup = Table::new(&["configuration", "u@0.2", "t@0.3"]);
    let cases: [(&str, TableKind, u32, bool); 4] = [
        ("full, 1-cycle RAM", TableKind::Full, 1, false),
        ("full, 2-cycle RAM", TableKind::Full, 2, false),
        ("ES,   1-cycle RAM", TableKind::Economical, 1, false),
        ("full 2-cyc + LA", TableKind::Full, 2, true),
    ];
    for (name, kind, cycles, lookahead) in cases {
        let run = |pattern: Pattern, load: f64| {
            latency_cell(
                Scenario::builder()
                    .table(kind.clone())
                    .table_lookup_cycles(cycles)
                    .lookahead(lookahead)
                    .pattern(pattern)
                    .load(load),
            )
        };
        lookup.row(vec![
            name.to_string(),
            run(Pattern::Uniform, 0.2),
            run(Pattern::Transpose, 0.3),
        ]);
    }
    println!("-- table-lookup latency: slow big-table RAM vs 9-entry ES --");
    println!("{}", lookup.render());
    lookup.save_csv("ablation_lookup_latency");
}
