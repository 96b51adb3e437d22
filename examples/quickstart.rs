//! Quickstart: compose a scenario for the paper's LA-ADAPT router, run
//! it, and print a summary.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lapses::prelude::*;

fn main() {
    // The paper's adaptive look-ahead router (LA-PROUD, Duato's algorithm,
    // 4 VCs, 20-flit messages) on the paper's 16x16 mesh, described as a
    // Scenario: the builder validates the composition (escape VCs vs
    // algorithm, workload parameters, topology support) and compiles to
    // the same internal configuration the hot loop always ran.
    let scenario = Scenario::builder()
        .mesh_2d(16, 16)
        .lookahead(true)
        .pattern(Pattern::Uniform)
        .load(0.2)
        .message_counts(1_000, 10_000)
        .build()
        .expect("the reference scenario is valid");

    let start = std::time::Instant::now();
    let result = scenario.run();
    let wall = start.elapsed();

    println!("LAPSES quickstart — 16x16 mesh, uniform traffic, load 0.2");
    println!(
        "  average network latency : {:.1} cycles",
        result.avg_latency
    );
    println!(
        "  incl. source queueing   : {:.1} cycles",
        result.avg_total_latency
    );
    println!(
        "  p95 latency             : {:.0} cycles",
        result.p95_latency.unwrap_or(f64::NAN)
    );
    println!(
        "  throughput              : {:.4} flits/node/cycle",
        result.throughput
    );
    println!("  messages measured       : {}", result.messages);
    println!("  simulated cycles        : {}", result.cycles);
    println!("  flit-hops simulated     : {}", result.flit_hops);
    println!("  escape-channel fraction : {:.3}", result.escape_fraction);
    println!("  wall time               : {wall:.2?}");
    println!();
    println!(
        "The same scenario as a spec file (see examples/scenarios/*.scn \
         and the scenario_from_spec example):\n"
    );
    // Scenario specs are the text form of the builder above: absent keys
    // keep the reference values, and `format` writes every key.
    let spec = ScenarioSpec::parse("lookahead = true\nwarmup = 1000\nmeasure = 10000\n")
        .expect("the spec is valid");
    print!("{}", spec.format());
}
