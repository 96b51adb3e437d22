//! A full latency-vs-load sweep rendered as a paper-style table plus an
//! ASCII chart — the quickest way to *see* the Fig. 5 crossover between
//! deterministic and adaptive routing, now with a bursty third curve.
//!
//! The grid (3 scenarios × load axes) runs on all cores through
//! [`SweepRunner`]; the report is bit-identical to a single-threaded run.
//!
//! ```text
//! cargo run --release --example sweep_report
//! ```

use lapses::prelude::*;

fn main() {
    let loads = vec![0.1, 0.2, 0.3, 0.4, 0.5];
    let base = Scenario::builder()
        .mesh_2d(16, 16)
        .lookahead(true)
        .pattern(Pattern::Transpose)
        .message_counts(400, 4_000);

    let det = base
        .clone()
        .router(RouterConfig::paper_deterministic().with_lookahead(true))
        .algorithm(Algorithm::DimensionOrder)
        .build()
        .expect("deterministic scenario");
    let adapt = base.clone().build().expect("adaptive scenario");
    // The same adaptive router under ON/OFF bursts (mean 8 messages per
    // burst at one message every 2 cycles) — same offered load, burstier
    // arrivals.
    let bursty = base.bursty(8, 2.0).build().expect("bursty scenario");

    let axis = ScenarioAxis::Load(loads.clone());
    let grid = SweepGrid::new()
        .scenario_series("LA, DET", &det, &axis)
        .expect("load axis")
        .scenario_series("LA, ADAPT", &adapt, &axis)
        .expect("load axis")
        .scenario_series("LA, ADAPT bursty", &bursty, &axis)
        .expect("load axis");

    // No master seed: every point keeps its scenario seed, so each load
    // is a paired comparison on the identical workload draw.
    let runner = SweepRunner::new();
    let start = std::time::Instant::now();
    let report = runner.run(&grid);
    let wall = start.elapsed();

    println!("Transpose traffic on a 16x16 mesh — deterministic vs adaptive vs bursty:\n");
    for table in report.to_tables() {
        println!("{table}");
    }
    println!("{}", report.to_chart(12));
    for s in report.saturation_summary() {
        match s.saturation_load {
            Some(load) => println!("{:>18} saturates at load {load:.1}", s.label),
            None => println!("{:>18} stable across the whole sweep", s.label),
        }
    }
    println!(
        "\n{} grid points in {wall:.2?} on up to {} threads.",
        grid.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "The adaptive curve stays flat well past the load where dimension-\n\
         order routing takes off — the Fig. 5(b) story. Bursty arrivals at\n\
         the same mean load saturate earlier: burstiness, not just load,\n\
         sets the knee."
    );
}
