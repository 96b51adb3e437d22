//! Reference-sweep performance benchmark — the simulator's own speedometer.
//!
//! Runs a **fixed** reference sweep (16×16 mesh, LA-ADAPT router, the
//! paper's four traffic patterns at 0.2 normalized load) on a single
//! worker thread, and writes `BENCH_sweep.json` to the workspace-root
//! `bench_results/` ([`lapses_bench::bench_results_dir`]) with wall
//! time, simulated cycles/sec and delivered flits/sec, so the performance
//! trajectory of the cycle loop is tracked from PR to PR. CI's perf-smoke
//! job uploads this file as an artifact.
//!
//! The workload is deliberately pinned — same mesh, seeds, message counts
//! and thread count — so two checkouts produce comparable numbers, and the
//! simulated outcome (total cycles, delivered messages) is bit-stable: a
//! perf PR that changes `simulated_cycles` changed semantics, not speed.
//!
//! Run with `cargo bench -p lapses-bench --bench perf_sweep`.

use lapses_network::scenario::Scenario;
use lapses_network::{Pattern, ScenarioAxis, SweepGrid, SweepRunner};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed run of the reference grid (built through the Scenario API,
/// which compiles to the identical internal configuration — the pinned
/// workload's simulated counts must never drift). Returns the report,
/// the node count of the reference mesh, and the wall time.
fn run_reference_with(warmup: u64, measure: u64) -> (lapses_network::SweepReport, u64, f64) {
    let mut grid = SweepGrid::new();
    let mut node_count = 0u64;
    for pattern in Pattern::PAPER_FOUR {
        let scenario = Scenario::builder()
            .mesh_2d(16, 16)
            .lookahead(true)
            .pattern(pattern)
            .message_counts(warmup, measure)
            .build()
            .expect("reference scenario is valid");
        node_count = scenario.config().mesh.node_count() as u64;
        grid = grid
            .scenario_series(pattern.name(), &scenario, &ScenarioAxis::Load(vec![0.2]))
            .expect("reference load axis is valid");
    }
    let runner = SweepRunner::new().with_threads(1).with_master_seed(1999);
    let start = Instant::now();
    let report = runner.run(&grid);
    (report, node_count, start.elapsed().as_secs_f64())
}

/// The classic pinned reference sweep.
fn run_reference() -> (lapses_network::SweepReport, u64, f64) {
    run_reference_with(500, 5_000)
}

/// Total flit-hops (flits carried over direction links) in a report —
/// the simulated-work unit of the noise-robust metric.
fn total_flit_hops(report: &lapses_network::SweepReport) -> u64 {
    report
        .series()
        .iter()
        .flat_map(|s| s.points.iter())
        .map(|(_, r)| r.flit_hops)
        .sum()
}

fn main() {
    // Warm-up pass (page in code and allocator state), then best-of-N
    // timed passes: the minimum wall time is the standard robust
    // estimator when the machine is shared/noisy, and the report is
    // identical across passes (asserted) so any pass's numbers serve.
    let passes: usize = std::env::var("LAPSES_BENCH_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let _ = run_reference();
    let (report, node_count, mut wall) = run_reference();
    for _ in 1..passes {
        let (again, _, t) = run_reference();
        assert_eq!(again, report, "reference sweep must be deterministic");
        wall = wall.min(t);
    }

    let mut simulated_cycles = 0u64;
    let mut delivered_messages = 0u64;
    let mut delivered_flits = 0.0f64;
    let mut points = String::new();
    for series in report.series() {
        for (load, r) in &series.points {
            simulated_cycles += r.cycles;
            delivered_messages += r.messages;
            // throughput is measured flits / cycle / node.
            delivered_flits += r.throughput * r.cycles as f64 * node_count as f64;
            if !points.is_empty() {
                points.push(',');
            }
            let _ = write!(
                points,
                "\n    {{\"series\": \"{}\", \"load\": {load}, \"cycles\": {}, \
                 \"messages\": {}, \"avg_latency\": {:.6}}}",
                series.label, r.cycles, r.messages, r.avg_latency
            );
        }
    }

    // Noise-robust protocol: many *short* repetitions of a scaled-down
    // reference sweep, scored as flit-hops of simulated work per wall
    // second, best-of-reps. Short reps interleave better with shared-host
    // noise than one long pass, and hops-per-second measures the actual
    // simulated work rather than the cycle count (idle cycles are cheap).
    let hop_reps: usize = std::env::var("LAPSES_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let mut flit_hops_rep = 0u64;
    let mut hops_per_sec = 0.0f64;
    for rep in 0..hop_reps {
        let (rep_report, _, rep_wall) = run_reference_with(200, 1_500);
        let hops = total_flit_hops(&rep_report);
        if rep == 0 {
            flit_hops_rep = hops;
        } else {
            assert_eq!(
                hops, flit_hops_rep,
                "short reference rep must be deterministic"
            );
        }
        hops_per_sec = hops_per_sec.max(hops as f64 / rep_wall);
    }

    let cycles_per_sec = simulated_cycles as f64 / wall;
    let flits_per_sec = delivered_flits / wall;
    let json = format!(
        "{{\n  \"bench\": \"reference_sweep\",\n  \"mesh\": \"16x16\",\n  \
         \"router\": \"la-adapt\",\n  \"load\": 0.2,\n  \"threads\": 1,\n  \
         \"wall_seconds\": {wall:.6},\n  \"simulated_cycles\": {simulated_cycles},\n  \
         \"cycles_per_second\": {cycles_per_sec:.1},\n  \
         \"delivered_messages\": {delivered_messages},\n  \
         \"delivered_flits\": {delivered_flits:.0},\n  \
         \"delivered_flits_per_second\": {flits_per_sec:.1},\n  \
         \"hop_reps\": {hop_reps},\n  \
         \"flit_hops_rep\": {flit_hops_rep},\n  \
         \"flit_hops_per_second\": {hops_per_sec:.1},\n  \
         \"points\": [{points}\n  ]\n}}\n"
    );

    println!("reference sweep: {simulated_cycles} cycles in {wall:.3}s");
    println!("  {cycles_per_sec:.0} simulated cycles/sec");
    println!("  {flits_per_sec:.0} delivered flits/sec");
    println!("  {hops_per_sec:.0} flit-hops/sec (best of {hop_reps} short reps)");

    let dir = lapses_bench::bench_results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_sweep.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
