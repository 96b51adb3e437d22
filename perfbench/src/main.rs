//! Same-host benchmark of the LAPSES simulator.
//!
//! One process runs one workload on one simulation thread
//! (`SweepRunner::with_threads(1)`), checks the simulated outcome against
//! goldens, and prints every metric by name with its unit. The last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh16_ref --seed 1999 --seconds 15 --trace 0
//! ```
//!
//! The package builds with the repository's release profile and calls only
//! the simulator crates' public APIs. Compare its numbers on one host only,
//! parent against change, runs interleaved; the `host` line (`nproc`, CPU
//! model, `rustc -V`, git revision, profile) is informational.
//!
//! # Workloads
//!
//! Every point is built through `Scenario::builder()` with LA-PROUD routers
//! (`lookahead(true)`), fixed 20-flit messages and exponential arrivals, in
//! an open loop: nodes inject on their own schedule, and the watchdog cuts a
//! run off as saturated once the NIC backlog passes 16 messages per node.
//!
//! - `mesh16_ref`: 16×16 mesh, Duato routing, full tables, the paper's four
//!   patterns at normalized load 0.2, 500 + 5000 messages each, one grid.
//!   The paper's Fig. 5 low-load point and the repository's pinned
//!   reference. Routers are sparse, so the active-set scheduler, idle
//!   cycles, NIC offers and workload polling carry their largest share.
//! - `mesh16_knee`: 16×16 mesh, uniform traffic at load 0.7, just below
//!   saturation, 4000 + 40000 messages. Every router is busy with VC and
//!   switch contention, escape fallbacks and selection stalls; the router
//!   walk dominates and LAPSES's latency effects are largest.
//! - `faulty32_updown`: 32×32 mesh, 64 random dead links (drawn once from
//!   seed 1999), adaptive up*/down* over economical tables with per-router
//!   exceptions, uniform traffic at load 0.1, 2000 + 20000 messages. The
//!   only heavy set-up (`Scenario::build` compiles the faulty mesh and
//!   up*/down* to validate, `Scenario::run` compiles them again with the
//!   tables) and a working set 4× the 16×16's.
//!
//! Left out: a saturated point (its result is a placeholder with 0
//! flit-hops and infinite latency) and a torus (the layers of
//! `mesh16_knee`).
//!
//! # Checks
//!
//! `--seed` makes each point's traffic seed. Every run first drives each
//! point at seed 1999 and compares its [`Fingerprint`] with the goldens
//! below; `mesh16_ref` also re-runs the pinned reference sweep (36284
//! cycles, 20000 messages, 400000 flits). Each timed point must then finish
//! without a cut-off, deliver every measured message and repeat bit for bit
//! across repetitions, and on seed 1999 agree with its golden. Any other
//! seed is held out: only the invariants apply. A traced run must reproduce
//! `Scenario::run`'s `SimResult` exactly, or its per-layer numbers are
//! discarded and the run fails. `failed / attempted` is the golden-mismatch
//! share: it is not a metric, since a metric must never read 0. A panic
//! prints a failed result and exits with code 1. `--record-goldens` prints
//! the golden tables; re-record them only for a deliberate change of
//! simulated behaviour.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! - `setup_s`: host seconds of `Scenario::build` for all points (median
//!   over repetitions, each averaged over at least 20 ms of builds).
//! - `flit_hops_per_s`: simulated flit-hops per host second of
//!   `Scenario::run`, its table and network construction included (median
//!   over repetitions).
//! - `peak_rss_mib`: peak resident memory of the process.
//! - `sim_latency_avg_cycles`, `sim_latency_p99_cycles`: simulated mean
//!   network latency over all measured messages, and the worst point's p99.
//!   They repeat exactly for a seed and move only with router semantics.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! [`drive`] re-drives `Scenario::run`'s loop from public calls and times
//! each call from outside; the first repetition's spans are written to
//! `perfbench/traces/<workload>-seed<n>.csv`. Values are medians over the
//! repetitions in `--seconds`.
//!
//! - `traffic.poll_ns_per_msg`, `network.offer_ns_per_msg`,
//!   `network.idle_cycle_frac` → `flit_hops_per_s` on `mesh16_ref`.
//! - `network.step_ns_per_cycle.p50` / `.p99` → `flit_hops_per_s`, sparse on
//!   `mesh16_ref`, dense on `mesh16_knee`; `network.step_ns_per_flit_switched`
//!   → `flit_hops_per_s` on `mesh16_knee`; `loop.self_s` is the loop's own
//!   time outside the three calls.
//! - `topology.faulty_mesh_s`, `routing.updown_compile_s`,
//!   `core.table_program_s`, `network.new_s` → `flit_hops_per_s` and
//!   `setup_s` on `faulty32_updown`; `core.table_entry_ns`
//!   (`TableScheme::entry` over the offered pairs) → `flit_hops_per_s` on
//!   `faulty32_updown`, against full tables on 16×16.
//! - Exact counts: `network.cycles`, `network.flit_hops`,
//!   `network.peak_backlog_msgs`, `core.flits_switched`,
//!   `core.headers_routed`; `core.escape_fraction`, `core.choice_fraction`,
//!   `core.selection_stall_per_header` → `sim_latency_*` on `mesh16_knee`.
//! - `trace.overhead_frac`: traced time over the untraced run, minus 1.
//!
//! Splitting `Network::step` into router walk, wires, NIC and ejection needs
//! spans inside the simulator and is left to a later change.

#![forbid(unsafe_code)]

use lapses_core::router::RouterStats;
use lapses_core::TableScheme;
use lapses_network::{
    Algorithm, ArrivalKind, Network, Pattern, Scenario, ScenarioBuilder, SimResult, SweepGrid,
    SweepRunner, TableKind,
};
use lapses_sim::rng::mix64;
use lapses_sim::{Cycle, MeasurementPhase, PhaseController, ProgressWatchdog};
use lapses_topology::{FaultyMesh, NodeId};
use lapses_traffic::LengthDistribution;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::hint::black_box;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// The seed the goldens pin; every other seed is held out.
const DEFAULT_SEED: u64 = 1999;
/// The pinned reference sweep (`mesh16_ref`'s points under the sweep
/// runner's master seed 1999): simulated cycles, messages, flits.
const PINNED_REFERENCE: [u64; 3] = [36_284, 20_000, 400_000];
/// Least host time one set-up or table-lookup sample spans: a 16×16 set-up
/// takes microseconds, so it is repeated and averaged.
const MIN_SAMPLE_S: f64 = 0.02;
/// Least number of timed repetitions in an untraced run, for a median.
const MIN_REPS: usize = 3;

// ---------------------------------------------------------------- workloads

/// A named benchmark workload (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Mesh16Ref,
    Mesh16Knee,
    Faulty32UpDown,
}

/// `Full` is what the benchmark measures; `Tiny` (a 4×4 or 6×6 mesh, 220
/// messages per point) serves the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Mesh16Ref,
        Workload::Mesh16Knee,
        Workload::Faulty32UpDown,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Mesh16Ref => "mesh16_ref",
            Workload::Mesh16Knee => "mesh16_knee",
            Workload::Faulty32UpDown => "faulty32_updown",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's points for `seed`, not yet validated:
    /// `ScenarioBuilder::build` is the set-up the benchmark times.
    fn builders(self, seed: u64, size: Size) -> Vec<ScenarioBuilder> {
        let full = size == Size::Full;
        let point = |side: u16, tiny_side: u16, (warmup, measure): (u64, u64)| {
            let (side, warmup, measure) = if full {
                (side, warmup, measure)
            } else {
                (tiny_side, 20, 200)
            };
            Scenario::builder()
                .mesh_2d(side, side)
                .lookahead(true)
                .lengths(LengthDistribution::PAPER_DEFAULT)
                .arrivals(ArrivalKind::Exponential)
                .message_counts(warmup, measure)
        };
        match self {
            Workload::Mesh16Ref => Pattern::PAPER_FOUR
                .iter()
                .enumerate()
                .map(|(i, &pattern)| {
                    // Decorrelated per-point seeds.
                    let point_seed =
                        mix64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    point(16, 4, (500, 5_000))
                        .algorithm(Algorithm::Duato)
                        .table(TableKind::Full)
                        .pattern(pattern)
                        .load(0.2)
                        .seed(point_seed)
                })
                .collect(),
            Workload::Mesh16Knee => vec![point(16, 4, (4_000, 40_000))
                .algorithm(Algorithm::Duato)
                .table(TableKind::Full)
                .pattern(Pattern::Uniform)
                .load(0.7)
                .seed(seed)],
            // The dead links are drawn once, from the default seed: every
            // seed runs on the same faulty network and varies the traffic.
            Workload::Faulty32UpDown => vec![point(32, 6, (2_000, 20_000))
                .random_faults(if full { 64 } else { 3 }, DEFAULT_SEED)
                .algorithm(Algorithm::UpDownAdaptive)
                .table(TableKind::Economical)
                .pattern(Pattern::Uniform)
                .load(0.1)
                .seed(seed)],
        }
    }
}

/// Builds every point of `workload` at `seed`, untimed.
fn build(workload: Workload, seed: u64, size: Size) -> Vec<Scenario> {
    workload
        .builders(seed, size)
        .into_iter()
        .map(|b| b.build().expect("benchmark scenarios are valid"))
        .collect()
}

/// Runs the pinned reference sweep on one thread; returns its totals in the
/// order of [`PINNED_REFERENCE`].
fn pinned_reference() -> [u64; 3] {
    let scenarios = build(Workload::Mesh16Ref, DEFAULT_SEED, Size::Full);
    let grid = scenarios
        .iter()
        .enumerate()
        .fold(SweepGrid::new(), |grid, (i, s)| {
            grid.scenario_point(format!("point{i}"), 0.2, s)
        });
    let report = SweepRunner::new()
        .with_threads(1)
        .with_master_seed(1999)
        .run(&grid);
    let nodes = scenarios[0].config().mesh.node_count() as f64;
    let mut totals = [0u64; 3];
    for (_, r) in report.series().iter().flat_map(|s| &s.points) {
        totals[0] += r.cycles;
        totals[1] += r.messages;
        // `throughput` is measured flits per cycle per node.
        totals[2] += (r.throughput * r.cycles as f64 * nodes).round() as u64;
    }
    totals
}

// ------------------------------------------------------------------ goldens

/// The simulated outcome of one point, exact to the bit. It repeats on any
/// host, so a mismatch means router semantics changed (or [`drive`] drifted
/// from `Scenario::run`), never noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    cycles: u64,
    messages: u64,
    flit_hops: u64,
    avg_latency_bits: u64,
    /// `u64::MAX` when the p99 is unresolvable.
    p99_latency_bits: u64,
    stats: RouterStats,
}

impl Fingerprint {
    fn of(result: &SimResult, stats: RouterStats) -> Fingerprint {
        Fingerprint {
            cycles: result.cycles,
            messages: result.messages,
            flit_hops: result.flit_hops,
            avg_latency_bits: result.avg_latency.to_bits(),
            p99_latency_bits: result.p99_latency.map_or(u64::MAX, f64::to_bits),
            stats,
        }
    }

    /// Whether `result` matches every field a `SimResult` carries (it has no
    /// router counters, so those are not compared).
    fn agrees_with(&self, result: &SimResult) -> bool {
        Fingerprint::of(result, self.stats) == *self
    }
}

/// The goldens of `workload` at the default seed, one per point.
fn goldens_of(workload: Workload) -> &'static [Fingerprint] {
    match workload {
        Workload::Mesh16Ref => &MESH16_REF,
        Workload::Mesh16Knee => &MESH16_KNEE,
        Workload::Faulty32UpDown => &FAULTY32_UPDOWN,
    }
}

// Printed by `--record-goldens`.
static MESH16_REF: [Fingerprint; 4] = [
    Fingerprint {
        cycles: 8717,
        messages: 5000,
        flit_hops: 1188620,
        avg_latency_bits: 4635843495713589264,
        p99_latency_bits: 4640094885719684827,
        stats: RouterStats {
            flits_switched: 1298620,
            headers_routed: 64931,
            adaptive_allocations: 64792,
            escape_allocations: 139,
            selection_stall_cycles: 101,
            multi_candidate_decisions: 27535,
        },
    },
    Fingerprint {
        cycles: 9323,
        messages: 5000,
        flit_hops: 1252480,
        avg_latency_bits: 4636837243118866224,
        p99_latency_bits: 4642469998380309982,
        stats: RouterStats {
            flits_switched: 1362480,
            headers_routed: 68124,
            adaptive_allocations: 67369,
            escape_allocations: 755,
            selection_stall_cycles: 3102,
            multi_candidate_decisions: 31232,
        },
    },
    Fingerprint {
        cycles: 9376,
        messages: 5000,
        flit_hops: 1241680,
        avg_latency_bits: 4636970254119110871,
        p99_latency_bits: 4642014947167961088,
        stats: RouterStats {
            flits_switched: 1351680,
            headers_routed: 67584,
            adaptive_allocations: 66737,
            escape_allocations: 847,
            selection_stall_cycles: 3753,
            multi_candidate_decisions: 30617,
        },
    },
    Fingerprint {
        cycles: 8915,
        messages: 5000,
        flit_hops: 886900,
        avg_latency_bits: 4635056998333664359,
        p99_latency_bits: 4639357173830173932,
        stats: RouterStats {
            flits_switched: 996900,
            headers_routed: 49845,
            adaptive_allocations: 49559,
            escape_allocations: 286,
            selection_stall_cycles: 897,
            multi_candidate_decisions: 20867,
        },
    },
];
static MESH16_KNEE: [Fingerprint; 1] = [Fingerprint {
    cycles: 19941,
    messages: 40000,
    flit_hops: 9394440,
    avg_latency_bits: 4640712190375986055,
    p99_latency_bits: 4648048141076667123,
    stats: RouterStats {
        flits_switched: 10274440,
        headers_routed: 513722,
        adaptive_allocations: 476914,
        escape_allocations: 36808,
        selection_stall_cycles: 561737,
        multi_candidate_decisions: 150878,
    },
}];
static FAULTY32_UPDOWN: [Fingerprint; 1] = [Fingerprint {
    cycles: 34380,
    messages: 20000,
    flit_hops: 9356000,
    avg_latency_bits: 4638985384494721946,
    p99_latency_bits: 4643526275878140463,
    stats: RouterStats {
        flits_switched: 9796000,
        headers_routed: 489800,
        adaptive_allocations: 489447,
        escape_allocations: 353,
        selection_stall_cycles: 228,
        multi_candidate_decisions: 213093,
    },
}];

// -------------------------------------------------------- the driven loop

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// Fault resolution and `FaultyMesh::new` (resolution alone when
    /// fault-free).
    FaultyMesh,
    /// `Algorithm::build_on` (the up*/down* compile) or `Algorithm::build`.
    RoutingCompile,
    /// `TableKind::build_faulty` or `TableKind::build`.
    TableProgram,
    NetworkNew,
    Poll,
    Offer,
    Step,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::FaultyMesh => "topology.faulty_mesh",
            Layer::RoutingCompile => "routing.compile",
            Layer::TableProgram => "core.table_program",
            Layer::NetworkNew => "network.new",
            Layer::Poll => "traffic.poll",
            Layer::Offer => "network.offer",
            Layer::Step => "network.step",
        }
    }
}

/// Receives every timed call of [`drive`]; `cycle` is `None` for set-up.
trait Tracer {
    fn span<R>(&mut self, layer: Layer, cycle: Option<u64>, f: impl FnOnce() -> R) -> R;
    fn offered(&mut self, src: NodeId, dest: NodeId);
}

/// The untraced loop: every hook compiles to nothing.
struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _: Layer, _: Option<u64>, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn offered(&mut self, _: NodeId, _: NodeId) {}
}

/// One timed call, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    cycle: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps every span and offered (source, destination) pair in memory.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    offered: Vec<(NodeId, NodeId)>,
}

impl Recorder {
    fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            offered: Vec::new(),
        }
    }

    fn total_ns(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ns)
            .sum()
    }
}

impl Tracer for Recorder {
    fn span<R>(&mut self, layer: Layer, cycle: Option<u64>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            cycle,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        out
    }

    fn offered(&mut self, src: NodeId, dest: NodeId) {
        self.offered.push((src, dest));
    }
}

/// What one driven run leaves behind.
struct Driven {
    /// `None` when the watchdog or the cycle cap cut the run off.
    result: Option<SimResult>,
    stats: RouterStats,
    peak_backlog: u64,
    idle_cycles: u64,
    cycles: u64,
    offered: u64,
    /// Wall seconds of the cycle loop, set-up excluded.
    loop_s: f64,
    program: Arc<dyn TableScheme>,
}

/// Runs `scenario` the way `Scenario::run` does, making the same public
/// calls in the same order, each through `tracer`. Traced runs check that
/// the result equals `Scenario::run`'s, so this copy cannot drift.
fn drive<T: Tracer>(scenario: &Scenario, tracer: &mut T) -> Driven {
    let cfg = scenario.config();
    let (algo, program) = if cfg.faults.is_none() && !cfg.algorithm.fault_tolerant() {
        tracer.span(Layer::FaultyMesh, None, || {
            cfg.faults
                .resolve(&cfg.mesh)
                .expect("an empty fault configuration always resolves")
        });
        let algo = tracer.span(Layer::RoutingCompile, None, || cfg.algorithm.build());
        let program = tracer.span(Layer::TableProgram, None, || {
            cfg.table.build(&cfg.mesh, algo.as_ref())
        });
        (algo, program)
    } else {
        let fmesh = tracer.span(Layer::FaultyMesh, None, || {
            let faults = cfg
                .faults
                .resolve(&cfg.mesh)
                .expect("Scenario::build validated the faults");
            Arc::new(
                FaultyMesh::new(cfg.mesh.clone(), faults)
                    .expect("Scenario::build proved the faulty mesh connected"),
            )
        });
        let algo = tracer.span(Layer::RoutingCompile, None, || {
            cfg.algorithm.build_on(&fmesh)
        });
        let program = tracer.span(Layer::TableProgram, None, || {
            cfg.table.build_faulty(&fmesh, algo.as_ref())
        });
        (algo, program)
    };

    let mut router = cfg.router.clone();
    router.escape_subclasses = algo.escape_subclasses(&cfg.mesh).max(1);
    if algo.deadlock_free_without_escape() && router.escape_vcs == 0 {
        router.escape_subclasses = 1;
    }
    let mut net = tracer.span(Layer::NetworkNew, None, || {
        Network::new(
            cfg.mesh.clone(),
            router,
            Arc::clone(&program),
            cfg.link_delay,
            cfg.seed,
        )
    });
    let mut workload = cfg.build_workload();

    let loop_start = Instant::now();
    let mut phase = PhaseController::new(cfg.warmup_msgs, cfg.measure_msgs);
    let mut watchdog = ProgressWatchdog::new(cfg.stall_window, cfg.backlog_limit);
    let mut clock = Cycle::ZERO;
    // Due-time heap over nodes, ties in node order: the library's polling
    // order, which the injection sequence (and so the run) depends on.
    let mut due: BinaryHeap<Reverse<(u64, u32)>> = (0..workload.node_count() as u32)
        .map(|n| Reverse((workload.next_due_cycle(n), n)))
        .collect();
    let mut specs = Vec::new();
    let (mut idle_cycles, mut offered) = (0u64, 0u64);
    let mut cut_off = false;

    loop {
        let now = clock.as_u64();
        while phase.accepting_injections() {
            match due.peek() {
                Some(&Reverse((t, _))) if t <= now => {}
                _ => break,
            }
            let Reverse((_, node)) = due.pop().expect("peeked entry");
            specs.clear();
            tracer.span(Layer::Poll, Some(now), || {
                workload.poll(node, clock, &mut specs)
            });
            for spec in &specs {
                if !phase.accepting_injections() {
                    break;
                }
                let measured = phase.note_injection();
                offered += 1;
                tracer.offered(spec.src, spec.dest);
                tracer.span(Layer::Offer, Some(now), || {
                    net.offer_message(spec.src, spec.dest, spec.length, clock, measured)
                });
            }
            due.push(Reverse((workload.next_due_cycle(node), node)));
        }

        let summary = tracer.span(Layer::Step, Some(now), || net.step(clock));
        for _ in 0..summary.measured_deliveries {
            phase.note_measured_delivery();
        }
        if summary.moved {
            watchdog.note_progress(clock);
        } else {
            idle_cycles += 1;
        }
        watchdog.note_backlog(net.backlog());

        if phase.phase() == MeasurementPhase::Done {
            break;
        }
        // A finite source that ran dry on a drained network ends the run.
        if phase.accepting_injections()
            && !net.has_traffic()
            && due.peek().is_some_and(|&Reverse((t, _))| t == u64::MAX)
        {
            break;
        }
        if watchdog.is_saturated()
            || watchdog.is_stalled(clock, net.has_traffic())
            || now >= cfg.max_cycles
        {
            cut_off = true;
            break;
        }
        clock.tick();
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    let stats = net.router_stats();
    let result = (!cut_off).then(|| {
        let allocs = stats.adaptive_allocations + stats.escape_allocations;
        let cycles = net.cycles_run().max(1);
        let (mut max_link, mut flit_hops) = (0u64, 0u64);
        for (_, port, flits) in net.link_loads() {
            if !port.is_local() {
                max_link = max_link.max(flits);
                flit_hops += flits;
            }
        }
        SimResult {
            avg_latency: net.latency().mean(),
            avg_total_latency: net.total_latency().mean(),
            p50_latency: net.histogram().percentile(50.0),
            p95_latency: net.histogram().percentile(95.0),
            p99_latency: net.histogram().percentile(99.0),
            max_latency: net.latency().max().unwrap_or(0.0),
            messages: net.latency().count(),
            cycles: net.cycles_run(),
            saturated: false,
            throughput: net.measured_flits_ejected() as f64
                / cycles as f64
                / cfg.mesh.node_count() as f64,
            escape_fraction: if allocs == 0 {
                0.0
            } else {
                stats.escape_allocations as f64 / allocs as f64
            },
            choice_fraction: if stats.headers_routed == 0 {
                0.0
            } else {
                stats.multi_candidate_decisions as f64 / stats.headers_routed as f64
            },
            max_link_utilization: max_link as f64 / cycles as f64,
            flit_hops,
        }
    });
    Driven {
        result,
        stats,
        peak_backlog: watchdog.peak_backlog(),
        idle_cycles,
        cycles: net.cycles_run(),
        offered,
        loop_s,
        program,
    }
}

// ------------------------------------------------------------------ metrics

/// A reported metric: its name in `BENCHMARK.json` and its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

const END_TO_END: [Metric; 5] = [
    metric("setup_s", "s"),
    metric("flit_hops_per_s", "1/s"),
    metric("peak_rss_mib", "MiB"),
    metric("sim_latency_avg_cycles", "cycles"),
    metric("sim_latency_p99_cycles", "cycles"),
];

const PER_LAYER: [Metric; 21] = [
    metric("traffic.poll_ns_per_msg", "ns"),
    metric("network.offer_ns_per_msg", "ns"),
    metric("network.step_ns_per_cycle.p50", "ns"),
    metric("network.step_ns_per_cycle.p99", "ns"),
    metric("network.step_ns_per_flit_switched", "ns"),
    metric("network.idle_cycle_frac", "frac"),
    metric("loop.self_s", "s"),
    metric("topology.faulty_mesh_s", "s"),
    metric("routing.updown_compile_s", "s"),
    metric("core.table_program_s", "s"),
    metric("network.new_s", "s"),
    metric("core.table_entry_ns", "ns"),
    metric("network.cycles", "cycles"),
    metric("network.flit_hops", "count"),
    metric("network.peak_backlog_msgs", "count"),
    metric("core.flits_switched", "count"),
    metric("core.headers_routed", "count"),
    metric("core.escape_fraction", "frac"),
    metric("core.choice_fraction", "frac"),
    metric("core.selection_stall_per_header", "cycles"),
    metric("trace.overhead_frac", "frac"),
];

/// The value of `name` in `metrics`; NaN when absent.
fn lookup(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// The median of `values`, which it sorts; NaN when empty.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of the ascending `sorted`; NaN when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The last output line. The run is correct when no check failed and every
/// metric of `defs` was measured and is finite; discarded metrics (`None`)
/// print an empty map.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: Option<&[(&'static str, f64)]>,
    defs: &[Metric],
) -> String {
    let mut correct = failed == 0 && metrics.is_some();
    let mut fields = Vec::new();
    if let Some(metrics) = metrics {
        for def in defs {
            let value = lookup(metrics, def.name);
            if value.is_finite() {
                fields.push(format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                ));
            } else {
                correct = false;
            }
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

// ---------------------------------------------------------------------- runs

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cli {
    Run(Args),
    RecordGoldens,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    if argv.len() == 1 && argv[0] == "--record-goldens" {
        return Ok(Cli::RecordGoldens);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value} is not a whole number"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value} is not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is neither 0 nor 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    // The release profile aborts on a panic: report the run as failed first.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: {info}");
        println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
        std::process::exit(1);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::RecordGoldens) => return record_goldens(),
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] \
                 [--trace 0|1]\n       perfbench --record-goldens",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("host {}", host_record());
    let outcome = run(&args, Size::Full);
    if !outcome.spans.is_empty() {
        match write_spans(&args, &outcome.spans) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    let defs: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = outcome.metrics.as_deref();
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, metrics, defs)
    );
}

/// What one run found.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `None` when the traced loop disagreed with `Scenario::run`, which
    /// discards its layer numbers.
    metrics: Option<Vec<(&'static str, f64)>>,
    /// The first traced repetition's spans, one recorder per point.
    spans: Vec<Recorder>,
}

/// Counts checks and reports failed ones on standard error.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {e}");
        }
    }
}

/// `Ok` when `ok`, else the error `what` describes.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// One benchmark run: the golden checks, then the timed or traced part.
fn run(args: &Args, size: Size) -> Outcome {
    let mut checks = Checks::default();
    if args.workload == Workload::Mesh16Ref && size == Size::Full {
        let got = pinned_reference();
        checks.check(ensure(got == PINNED_REFERENCE, || {
            format!(
                "pinned reference sweep gave (cycles, messages, flits) {got:?}, \
                 expected {PINNED_REFERENCE:?}"
            )
        }));
    }
    let golden = golden_pass(args.workload, size, &mut checks);
    let (metrics, spans) = if args.trace {
        traced(args, size, &mut checks)
    } else {
        let expected = (args.seed == DEFAULT_SEED).then_some(golden.as_slice());
        (
            Some(untraced(args, size, expected, &mut checks)),
            Vec::new(),
        )
    };
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        spans,
    }
}

/// Each point's fingerprint from an untraced drive; `None` for a point cut
/// off as saturated.
fn fingerprints(workload: Workload, seed: u64, size: Size) -> Vec<Option<Fingerprint>> {
    build(workload, seed, size)
        .iter()
        .map(|s| {
            let d = drive(s, &mut NoTrace);
            d.result.map(|r| Fingerprint::of(&r, d.stats))
        })
        .collect()
}

/// Drives every point at the default seed and, at full size, checks each
/// against its golden. Returns the fingerprints, which timed repetitions on
/// the default seed must agree with.
fn golden_pass(workload: Workload, size: Size, checks: &mut Checks) -> Vec<Option<Fingerprint>> {
    let got = fingerprints(workload, DEFAULT_SEED, size);
    if size == Size::Full {
        check_goldens(workload.name(), goldens_of(workload), &got, checks);
    }
    got
}

fn check_goldens(
    name: &str,
    want: &[Fingerprint],
    got: &[Option<Fingerprint>],
    checks: &mut Checks,
) {
    checks.check(ensure(want.len() == got.len(), || {
        format!("{name}: {} points but {} goldens", got.len(), want.len())
    }));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        checks.check(ensure(g.as_ref() == Some(w), || {
            format!("{name} point {i}: fingerprint {g:?} differs from golden {w:?}")
        }));
    }
}

/// Checks one untraced point: not cut off, every measured message
/// delivered, identical to `earlier` (the first repetition at the same
/// seed), and agreeing with `expected` (the default seed's fingerprint).
fn check_point(
    scenario: &Scenario,
    r: &SimResult,
    earlier: Option<&SimResult>,
    expected: Option<&Option<Fingerprint>>,
) -> Result<(), String> {
    let measure = scenario.config().measure_msgs;
    ensure(!r.saturated, || "cut off as saturated".into())?;
    ensure(r.messages == measure && r.p99_latency.is_some(), || {
        format!("delivered {} of {measure} measured messages", r.messages)
    })?;
    ensure(earlier.is_none_or(|e| e == r), || {
        "differs from an earlier repetition at the same seed".into()
    })?;
    ensure(
        expected.is_none_or(|f| f.is_some_and(|f| f.agrees_with(r))),
        || format!("disagrees with the default seed's fingerprint {expected:?}"),
    )
}

/// Builds every point, repeating until `MIN_SAMPLE_S` is spent; returns the
/// last build and the mean seconds of one.
fn timed_setup(builders: &[ScenarioBuilder]) -> (Vec<Scenario>, f64) {
    let (mut spent, mut builds) = (0.0, 0u32);
    loop {
        let fresh = builders.to_vec();
        let start = Instant::now();
        let scenarios: Vec<Scenario> = fresh
            .into_iter()
            .map(|b| b.build().expect("benchmark scenarios are valid"))
            .collect();
        spent += start.elapsed().as_secs_f64();
        builds += 1;
        if spent >= MIN_SAMPLE_S {
            return (scenarios, spent / f64::from(builds));
        }
    }
}

/// Runs the points as one grid on a one-thread `SweepRunner`; returns the
/// results in point order and the wall seconds of the run.
fn run_grid(scenarios: &[Scenario]) -> (Vec<SimResult>, f64) {
    let grid = scenarios
        .iter()
        .enumerate()
        .fold(SweepGrid::new(), |grid, (i, s)| {
            grid.scenario_point(format!("point{i}"), i as f64, s)
        });
    let start = Instant::now();
    let report = SweepRunner::new().with_threads(1).run(&grid);
    let wall = start.elapsed().as_secs_f64();
    let results = report
        .series()
        .iter()
        .flat_map(|s| s.points.iter().map(|(_, r)| r.clone()))
        .collect();
    (results, wall)
}

/// Times set-up and runs of `args.seed` for `args.seconds` (at least
/// `MIN_REPS` repetitions) and returns the end-to-end metrics.
fn untraced(
    args: &Args,
    size: Size,
    expected: Option<&[Option<Fingerprint>]>,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let builders = args.workload.builders(args.seed, size);
    let start = Instant::now();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut first: Vec<SimResult> = Vec::new();
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let (scenarios, setup_s) = timed_setup(&builders);
        let (results, run_s) = run_grid(&scenarios);
        for (i, (s, r)) in scenarios.iter().zip(&results).enumerate() {
            let result = check_point(s, r, first.get(i), expected.map(|e| &e[i]));
            checks.check(result.map_err(|e| format!("{} point {i}: {e}", args.workload.name())));
        }
        setups.push(setup_s);
        rates.push(results.iter().map(|r| r.flit_hops).sum::<u64>() as f64 / run_s);
        if first.is_empty() {
            first = results;
        }
    }
    let done: Vec<&SimResult> = first.iter().filter(|r| !r.saturated).collect();
    let messages = done.iter().map(|r| r.messages).sum::<u64>() as f64;
    let latency_sum: f64 = done.iter().map(|r| r.avg_latency * r.messages as f64).sum();
    vec![
        ("setup_s", median(&mut setups)),
        ("flit_hops_per_s", median(&mut rates)),
        ("peak_rss_mib", peak_rss_mib()),
        ("sim_latency_avg_cycles", latency_sum / messages),
        (
            "sim_latency_p99_cycles",
            done.iter()
                .filter_map(|r| r.p99_latency)
                .fold(f64::NAN, f64::max),
        ),
    ]
}

/// Alternates a traced drive of every point with an untraced run of the
/// same scenarios for `args.seconds` (at least once), checks that the two
/// agree, and returns the per-layer metrics (medians over repetitions) and
/// the first repetition's spans.
fn traced(
    args: &Args,
    size: Size,
    checks: &mut Checks,
) -> (Option<Vec<(&'static str, f64)>>, Vec<Recorder>) {
    let epoch = Instant::now();
    let (mut reps, mut spans, mut agree) = (Vec::new(), Vec::new(), true);
    while reps.is_empty() || epoch.elapsed().as_secs_f64() < args.seconds {
        let scenarios = build(args.workload, args.seed, size);
        let start = Instant::now();
        let driven: Vec<(Driven, Recorder)> = scenarios
            .iter()
            .map(|s| {
                let mut rec = Recorder::new(epoch);
                (drive(s, &mut rec), rec)
            })
            .collect();
        let traced_s = start.elapsed().as_secs_f64();
        let (results, untraced_s) = run_grid(&scenarios);
        for (i, ((d, _), (s, r))) in driven
            .iter()
            .zip(scenarios.iter().zip(&results))
            .enumerate()
        {
            let same = d.result.as_ref() == Some(r);
            agree &= same;
            let result = check_point(s, r, None, None).and_then(|()| {
                ensure(same, || {
                    "the traced loop's SimResult differs from Scenario::run's".into()
                })
            });
            checks.check(result.map_err(|e| format!("{} point {i}: {e}", args.workload.name())));
        }
        reps.push(layer_metrics(&driven, traced_s, untraced_s));
        if spans.is_empty() {
            spans = driven.into_iter().map(|(_, rec)| rec).collect();
        }
    }
    let metrics = agree.then(|| {
        PER_LAYER
            .iter()
            .map(|m| {
                let mut values: Vec<f64> = reps.iter().map(|rep| lookup(rep, m.name)).collect();
                (m.name, median(&mut values))
            })
            .collect()
    });
    (metrics, spans)
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(
    driven: &[(Driven, Recorder)],
    traced_s: f64,
    untraced_s: f64,
) -> Vec<(&'static str, f64)> {
    let ns = |layer: Layer| {
        driven
            .iter()
            .map(|(_, rec)| rec.total_ns(layer))
            .sum::<u64>() as f64
    };
    let sum = |count: fn(&Driven) -> u64| driven.iter().map(|(d, _)| count(d)).sum::<u64>() as f64;
    let mut steps: Vec<f64> = driven
        .iter()
        .flat_map(|(_, rec)| &rec.spans)
        .filter(|s| s.layer == Layer::Step)
        .map(|s| s.ns() as f64)
        .collect();
    steps.sort_by(f64::total_cmp);
    let offered = sum(|d| d.offered);
    let cycles = sum(|d| d.cycles);
    let switched = sum(|d| d.stats.flits_switched);
    let headers = sum(|d| d.stats.headers_routed);
    let escapes = sum(|d| d.stats.escape_allocations);
    let loop_s: f64 = driven.iter().map(|(d, _)| d.loop_s).sum();
    let calls_s = (ns(Layer::Poll) + ns(Layer::Offer) + ns(Layer::Step)) / 1e9;
    vec![
        ("traffic.poll_ns_per_msg", ns(Layer::Poll) / offered),
        ("network.offer_ns_per_msg", ns(Layer::Offer) / offered),
        ("network.step_ns_per_cycle.p50", quantile(&steps, 0.50)),
        ("network.step_ns_per_cycle.p99", quantile(&steps, 0.99)),
        (
            "network.step_ns_per_flit_switched",
            ns(Layer::Step) / switched,
        ),
        ("network.idle_cycle_frac", sum(|d| d.idle_cycles) / cycles),
        ("loop.self_s", loop_s - calls_s),
        ("topology.faulty_mesh_s", ns(Layer::FaultyMesh) / 1e9),
        ("routing.updown_compile_s", ns(Layer::RoutingCompile) / 1e9),
        ("core.table_program_s", ns(Layer::TableProgram) / 1e9),
        ("network.new_s", ns(Layer::NetworkNew) / 1e9),
        ("core.table_entry_ns", table_entry_ns(driven)),
        ("network.cycles", cycles),
        (
            "network.flit_hops",
            sum(|d| d.result.as_ref().map_or(0, |r| r.flit_hops)),
        ),
        (
            "network.peak_backlog_msgs",
            driven
                .iter()
                .map(|(d, _)| d.peak_backlog)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("core.flits_switched", switched),
        ("core.headers_routed", headers),
        (
            "core.escape_fraction",
            escapes / (escapes + sum(|d| d.stats.adaptive_allocations)),
        ),
        (
            "core.choice_fraction",
            sum(|d| d.stats.multi_candidate_decisions) / headers,
        ),
        (
            "core.selection_stall_per_header",
            sum(|d| d.stats.selection_stall_cycles) / headers,
        ),
        ("trace.overhead_frac", traced_s / untraced_s - 1.0),
    ]
}

/// Mean host nanoseconds of one `TableScheme::entry` lookup over the
/// repetition's offered pairs, repeated until `MIN_SAMPLE_S` is spent.
fn table_entry_ns(driven: &[(Driven, Recorder)]) -> f64 {
    let per_pass: usize = driven.iter().map(|(_, rec)| rec.offered.len()).sum();
    if per_pass == 0 {
        return f64::NAN;
    }
    let (mut spent, mut passes) = (0.0, 0u32);
    while spent < MIN_SAMPLE_S {
        let start = Instant::now();
        for (d, rec) in driven {
            for &(src, dest) in &rec.offered {
                black_box(d.program.entry(black_box(src), black_box(dest)));
            }
        }
        spent += start.elapsed().as_secs_f64();
        passes += 1;
    }
    spent * 1e9 / (f64::from(passes) * per_pass as f64)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status =
        fs::read_to_string("/proc/self/status").expect("peak RSS is read from /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Writes the spans as CSV to `perfbench/traces/<workload>-seed<n>.csv`.
fn write_spans(args: &Args, spans: &[Recorder]) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.csv", args.workload.name(), args.seed));
    let mut out = BufWriter::new(fs::File::create(&path)?);
    writeln!(out, "point,layer,cycle,start_ns,end_ns")?;
    for (point, rec) in spans.iter().enumerate() {
        for s in &rec.spans {
            let cycle = s.cycle.map_or_else(String::new, |c| c.to_string());
            writeln!(
                out,
                "{point},{},{cycle},{},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()?;
    Ok(path)
}

/// Prints the golden tables. Re-record them only for a deliberate change of
/// simulated behaviour.
fn record_goldens() {
    for w in Workload::ALL {
        let points = fingerprints(w, DEFAULT_SEED, Size::Full);
        println!(
            "static {}: [Fingerprint; {}] = [",
            w.name().to_uppercase(),
            points.len()
        );
        for p in points {
            println!("    {:?},", p.expect("golden points are never cut off"));
        }
        println!("];");
    }
}

/// The informational host record. It is never compared: comparisons are
/// same-host A/B only.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        info.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \"profile\": \"{profile}\"}}",
        json_string(cpu),
        json_string(rustc),
        json_string(git_revision())
    )
}

/// The checked-out revision, read from `.git` in the working directory (a
/// benchmark checkout need not be a repository).
fn git_revision() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference))
        .map(|rev| rev.trim().to_string())
}

fn json_string(s: Option<String>) -> String {
    let s = s.unwrap_or_else(|| "unknown".into());
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
        let args = Args {
            workload,
            seed,
            seconds: 0.0,
            trace,
        };
        run(&args, Size::Tiny)
    }

    #[test]
    fn metric_names_are_valid_unique_and_listed_in_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let valid = m.name.len() <= 64
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(valid, "invalid metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            let entry = format!("\"name\": \"{}\"", w.name());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            seen.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn every_workload_completes_at_a_tiny_size() {
        for w in Workload::ALL {
            for trace in [false, true] {
                // The golden seed and a held-out one.
                for seed in [DEFAULT_SEED, 7] {
                    let out = tiny(w, seed, trace);
                    let defs = if trace {
                        &PER_LAYER[..]
                    } else {
                        &END_TO_END[..]
                    };
                    let line = result_line(out.attempted, out.failed, out.metrics.as_deref(), defs);
                    assert!(out.attempted > 0);
                    assert!(
                        line.starts_with("{\"correct\": true"),
                        "{} seed {seed} trace {trace}: {line}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn a_perturbed_golden_is_caught() {
        let got = fingerprints(Workload::Mesh16Ref, DEFAULT_SEED, Size::Tiny);
        let exact: Vec<Fingerprint> = got.iter().map(|f| f.expect("tiny points drain")).collect();
        let failures = |want: &[Fingerprint]| {
            let mut checks = Checks::default();
            check_goldens("mesh16_ref", want, &got, &mut checks);
            checks.failed
        };
        assert_eq!(failures(&exact), 0);
        let scenarios = build(Workload::Mesh16Ref, DEFAULT_SEED, Size::Tiny);
        let (results, _) = run_grid(&scenarios);
        let perturbations: [fn(&mut Fingerprint); 4] = [
            |f| f.cycles += 1,
            |f| f.avg_latency_bits ^= 1,
            |f| f.p99_latency_bits ^= 1,
            |f| f.stats.selection_stall_cycles += 1,
        ];
        for perturb in perturbations {
            let mut wrong = exact.clone();
            perturb(&mut wrong[1]);
            assert_eq!(failures(&wrong), 1);
            // A timed repetition has no router counters to compare, only the
            // fields a `SimResult` carries.
            let timed = check_point(&scenarios[1], &results[1], None, Some(&Some(wrong[1])));
            assert_eq!(timed.is_err(), wrong[1].stats == exact[1].stats);
        }
    }

    #[test]
    fn goldens_cover_every_point() {
        for w in Workload::ALL {
            let points = w.builders(DEFAULT_SEED, Size::Full).len();
            assert_eq!(goldens_of(w).len(), points, "{}", w.name());
        }
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        let parse_args =
            |args: &[&str]| parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(parse_args(&["--workload", "torus16"]).is_err());
        assert!(parse_args(&["--workload", "mesh16_ref", "--trace", "2"]).is_err());
        assert!(parse_args(&["--workload", "mesh16_ref", "--seconds", "-1"]).is_err());
        assert!(parse_args(&["--seed", "1"]).is_err());
        let ok = parse_args(&[
            "--workload",
            "mesh16_knee",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        assert!(matches!(
            ok,
            Ok(Cli::Run(Args {
                seed: 5,
                trace: true,
                ..
            }))
        ));
    }
}
