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
use lapses_core::{Flit, MsgRef, Router, RouterConfig, StepOutputs};
use lapses_routing::Algorithm;
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{Direction, Mesh, NodeId, Port};
use std::hint::black_box;
use std::sync::Arc;

/// A mid-mesh paper router (PROUD, or LA-PROUD with `la`) over `program`
/// with full downstream credits, fed by the benchmark.
fn bench_router(la: bool, program: &Arc<dyn TableScheme>) -> Router {
    let mesh = Mesh::mesh_2d(8, 8);
    let mut r = Router::new(
        mesh.id_at(&[4, 4]).unwrap(),
        mesh.ports_per_router(),
        RouterConfig::paper_adaptive().with_lookahead(la),
        Arc::clone(program),
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

/// A bench router in a steady regime: each fed input port streams an
/// endless run of 1000-flit messages on VC 0, refilled as the router
/// returns its credits, and every launched flit's credit comes straight
/// back (an ideal downstream). Every step is then one cycle of unbroken
/// traffic, however many cycles a sample times.
struct Steady {
    router: Router,
    out: StepOutputs,
    dest: NodeId,
    /// Per input port: the rest of its current message.
    feeds: Vec<std::vec::IntoIter<Flit>>,
    messages: u32,
    now: u64,
}

impl Steady {
    /// Starts `ports` streaming to `dest`, each with 18 flits queued.
    fn new(router: Router, dest: NodeId, ports: &[Port]) -> Steady {
        let feeds = vec![Vec::new().into_iter(); router.ports()];
        let mut s = Steady {
            router,
            out: StepOutputs::default(),
            dest,
            feeds,
            messages: 0,
            now: 0,
        };
        for &port in ports {
            for _ in 0..18 {
                s.feed(port);
            }
        }
        s
    }

    /// Queues the next flit of `port`'s stream on its VC 0.
    fn feed(&mut self, port: Port) {
        let feed = &mut self.feeds[port.index()];
        let flit = feed.next().unwrap_or_else(|| {
            self.messages += 1;
            *feed = Flit::message(MsgRef(self.messages), self.dest, 1000).into_iter();
            feed.next().expect("a message has flits")
        });
        self.router.accept_flit(port, 0, flit, Cycle::new(self.now));
    }

    /// Steps one cycle, returns every credit and refills every freed
    /// slot; yields the flits launched.
    fn step(&mut self) -> usize {
        self.now += 1;
        self.router.step_into(Cycle::new(self.now), &mut self.out);
        for l in &self.out.launches {
            self.router.accept_credit(l.port, l.vc);
        }
        for k in 0..self.out.credits.len() {
            let (port, _) = self.out.credits[k];
            self.feed(port);
        }
        self.out.launches.len()
    }
}

/// Router cycles per timed iteration of a loaded `router_step` case.
const CYCLES_PER_ITER: usize = 100;

/// One router stepped in isolation: the cost floor of the cycle loop's
/// inner call, across the occupancy regimes the scheduler distinguishes
/// (idle / one streaming message / every port saturated). The loaded
/// regimes run in PROUD and LA-PROUD (`la_proud_*`, the pipeline every
/// perfbench workload runs) and hold steady for every timed cycle
/// ([`Steady`]). One loaded iteration is [`CYCLES_PER_ITER`] router
/// cycles, so the harness's clock read per iteration stays out of the
/// reading; the table program is compiled once for the group.
fn bench_router_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_step");
    let mesh = Mesh::mesh_2d(8, 8);
    let dest = mesh.id_at(&[7, 7]).unwrap();
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));

    // Idle: the step the active-set scheduler elides entirely.
    group.bench_function("idle", |b| {
        let mut r = bench_router(false, &program);
        let mut out = StepOutputs::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            r.step_into(Cycle::new(t), &mut out);
            black_box(out.moved)
        })
    });

    let all_ports: Vec<Port> = (0..mesh.ports_per_router()).map(Port::from_index).collect();
    for (prefix, la) in [("", false), ("la_proud_", true)] {
        // Streaming: one long message — the common mid-load regime where
        // a busy router moves a flit or two per cycle. Saturated: every
        // input port streams through the crossbar each cycle (the
        // occupancy masks are all hot).
        for (regime, ports) in [("streaming", &[Port::LOCAL][..]), ("saturated", &all_ports)] {
            group.bench_function(&format!("{prefix}{regime}"), |b| {
                let mut s = Steady::new(bench_router(la, &program), dest, ports);
                b.iter(|| (0..CYCLES_PER_ITER).map(|_| s.step()).sum::<usize>())
            });
        }
    }
    group.finish();
}

/// The paper's 16×16 mesh of adaptive (LA-)PROUD routers over full Duato
/// tables, empty.
fn network_16x16(la: bool) -> (Mesh, lapses_network::Network) {
    let mesh = Mesh::mesh_2d(16, 16);
    let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
    let router = RouterConfig::paper_adaptive().with_lookahead(la);
    let net = lapses_network::Network::new(mesh.clone(), router, program, 1, 9);
    (mesh, net)
}

/// The per-cycle delivery phase at network scale: zero-copy payloads and
/// per-router batched commits over a warmed-up 16×16 network.
fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery");
    group.sample_size(10);
    group.bench_function("batched", |b| {
        b.iter_batched(
            || {
                let (mesh, mut net) = network_16x16(false);
                let mut rng = SimRng::from_seed(11);
                for src in mesh.nodes() {
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
    let algo = Algorithm::Duato;
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
    for (name, la) in [("proud_16x16", false), ("la_proud_16x16", true)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    // A warmed-up network at moderate load: run the first
                    // 2000 cycles outside the measurement.
                    let (mesh, mut net) = network_16x16(la);
                    // Seed some traffic.
                    let mut rng = SimRng::from_seed(11);
                    for src in mesh.nodes() {
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
