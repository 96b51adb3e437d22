//! Criterion microbenchmarks backing the qualitative columns of Table 5
//! and the cost model of the router's critical path:
//!
//! * table lookup cost per scheme (full vs meta vs economical vs interval)
//!   — the paper argues lookup time grows with table size, favoring the
//!   9-entry economical table;
//! * path-selection decision cost per heuristic;
//! * a full network cycle of the 16×16 mesh under load (simulator
//!   throughput, flits moved per second of wall time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lapses_core::psh::{PathSelection, PathSelector, PortStatus};
use lapses_core::router::INFINITE_CREDITS;
use lapses_core::tables::{EconomicalTable, FullTable, IntervalTable, MetaTable, TableScheme};
use lapses_core::{Flit, MessageId, MsgRef, Router, RouterConfig, RouterTable, StepOutputs};
use lapses_network::{Pattern, SimConfig};
use lapses_routing::DuatoAdaptive;
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{Direction, Mesh, NodeId, Port};
use std::hint::black_box;
use std::sync::Arc;

/// A mid-mesh router with full downstream credits, fed by the benchmark.
fn bench_router() -> Router {
    let mesh = Mesh::mesh_2d(8, 8);
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
    let node = mesh.id_at(&[4, 4]).unwrap();
    let mut r = Router::new(
        node,
        mesh.ports_per_router(),
        RouterConfig::paper_adaptive(),
        RouterTable::new(program, node),
        SimRng::from_seed(5),
    );
    for p in 0..r.ports() {
        let port = Port::from_index(p);
        for v in 0..r.config().vcs_per_port {
            let credits = if port.is_local() {
                INFINITE_CREDITS
            } else {
                20
            };
            r.set_credits(port, v, credits);
        }
    }
    r
}

/// One router stepped in isolation: the cost floor of the cycle loop's
/// inner call, across the occupancy regimes the scheduler distinguishes
/// (idle / one streaming message / every port saturated).
fn bench_router_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_step");
    let mesh = Mesh::mesh_2d(8, 8);
    let dest = mesh.id_at(&[7, 7]).unwrap();

    // Idle: the step the active-set scheduler elides entirely.
    group.bench_function("idle", |b| {
        let mut r = bench_router();
        let mut out = StepOutputs::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            r.step_into(Cycle::new(t), &mut out);
            black_box(out.moved)
        })
    });

    // Streaming: one long message — the common mid-load regime where a
    // busy router moves a flit or two per cycle.
    group.bench_function("streaming", |b| {
        b.iter_batched(
            || {
                let mut r = bench_router();
                let flits = Flit::message(MessageId(1), MsgRef(0), dest, 1000);
                for f in flits.into_iter().take(18) {
                    r.accept_flit(Port::LOCAL, 0, f, Cycle::ZERO);
                }
                (r, StepOutputs::default())
            },
            |(mut r, mut out)| {
                for t in 1..=12u64 {
                    r.step_into(Cycle::new(t), &mut out);
                    black_box(out.launches.len());
                }
                (r, out)
            },
            BatchSize::SmallInput,
        )
    });

    // Saturated: every input port streams a long message through the
    // crossbar each cycle (the occupancy masks are all hot).
    group.bench_function("saturated", |b| {
        b.iter_batched(
            || {
                let mut r = bench_router();
                for p in 0..r.ports() {
                    let flits =
                        Flit::message(MessageId(p as u64 + 1), MsgRef(p as u32), dest, 1000);
                    for f in flits.into_iter().take(18) {
                        r.accept_flit(Port::from_index(p), 0, f, Cycle::ZERO);
                    }
                }
                (r, StepOutputs::default())
            },
            |(mut r, mut out)| {
                for t in 1..=12u64 {
                    r.step_into(Cycle::new(t), &mut out);
                    black_box(out.launches.len());
                }
                (r, out)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The per-cycle delivery phase at network scale: zero-copy payloads and
/// per-router batched commits over a warmed-up 16×16 network.
fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery");
    group.sample_size(10);
    group.bench_function("batched", |b| {
        b.iter_batched(
            || {
                let cfg = SimConfig::paper_adaptive(16, 16)
                    .with_pattern(Pattern::Uniform)
                    .with_load(0.4);
                let program = cfg.table.build(&cfg.mesh, cfg.algorithm.build().as_ref());
                let mut net = lapses_network::Network::new(
                    cfg.mesh.clone(),
                    cfg.router.clone(),
                    program,
                    1,
                    9,
                );
                let mut rng = SimRng::from_seed(11);
                for src in cfg.mesh.nodes() {
                    let dest = NodeId(rng.below(256) as u32);
                    if dest != src {
                        net.offer_message(src, dest, 20, lapses_sim::Cycle::ZERO, false);
                    }
                }
                // Warm up so the wires carry steady traffic.
                for t in 0..100u64 {
                    net.step(lapses_sim::Cycle::new(t));
                }
                net
            },
            |mut net| {
                for t in 100..300u64 {
                    black_box(net.step(lapses_sim::Cycle::new(t)));
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_table_lookup(c: &mut Criterion) {
    let mesh = Mesh::mesh_2d(16, 16);
    let algo = DuatoAdaptive::new();
    let schemes: Vec<(&str, Box<dyn TableScheme>)> = vec![
        ("full", Box::new(FullTable::program(&mesh, &algo))),
        (
            "economical",
            Box::new(EconomicalTable::program(&mesh, &algo)),
        ),
        (
            "meta-4x4",
            Box::new(MetaTable::blocks(&mesh, &[4, 4], &algo)),
        ),
        ("interval", Box::new(IntervalTable::program(&mesh))),
    ];
    let mut group = c.benchmark_group("table_lookup");
    let pairs: Vec<(NodeId, NodeId)> = {
        let mut rng = SimRng::from_seed(7);
        (0..256)
            .map(|_| {
                let a = NodeId(rng.below(256) as u32);
                let b = NodeId(rng.below(256) as u32);
                (a, b)
            })
            .collect()
    };
    for (name, scheme) in &schemes {
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (node, dest) = pairs[i % pairs.len()];
                i += 1;
                black_box(scheme.entry(black_box(node), black_box(dest)))
            })
        });
    }
    group.finish();
}

fn bench_path_selection(c: &mut Criterion) {
    let candidates = [
        Port::from(Direction::plus(0)),
        Port::from(Direction::plus(1)),
    ];
    let status = |p: Port| PortStatus {
        active_vcs: p.index() as u32 % 3,
        credits_sum: 40 + p.index() as u32,
        credits_max: 20,
    };
    let mut group = c.benchmark_group("path_selection");
    for psh in PathSelection::paper_five() {
        group.bench_function(psh.name(), |b| {
            let mut sel = PathSelector::new(psh, 5);
            let mut rng = SimRng::from_seed(3);
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                let pick = sel.select(black_box(&candidates), status, &mut rng);
                sel.note_port_used(pick, t, true);
                black_box(pick)
            })
        });
    }
    group.finish();
}

fn bench_network_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_cycle");
    group.sample_size(10);
    for (name, lookahead) in [("proud_16x16", false), ("la_proud_16x16", true)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    // A warmed-up network at moderate load: run the first
                    // 2000 cycles outside the measurement.
                    let cfg = SimConfig::paper_adaptive(16, 16)
                        .with_lookahead(lookahead)
                        .with_pattern(Pattern::Uniform)
                        .with_load(0.4)
                        .with_message_counts(100, 2_000);
                    let program = cfg.table.build(&cfg.mesh, cfg.algorithm.build().as_ref());
                    let mut net = lapses_network::Network::new(
                        cfg.mesh.clone(),
                        cfg.router.clone(),
                        program,
                        1,
                        9,
                    );
                    // Seed some traffic.
                    let mut rng = SimRng::from_seed(11);
                    for src in cfg.mesh.nodes() {
                        let dest = NodeId(rng.below(256) as u32);
                        if dest != src {
                            net.offer_message(src, dest, 20, lapses_sim::Cycle::ZERO, false);
                        }
                    }
                    net
                },
                |mut net| {
                    for t in 0..200u64 {
                        black_box(net.step(lapses_sim::Cycle::new(t)));
                    }
                    net
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_table_lookup, bench_path_selection, bench_router_step, bench_delivery,
        bench_network_cycle
}
criterion_main!(benches);
