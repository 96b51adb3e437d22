//! Renders the paper's experiments from `lapses_bench::paper`, each with
//! the paper's values beside ours where the paper prints them, and lists
//! any claim the run does not meet:
//!
//! ```text
//! cargo bench -p lapses-bench --bench paper [-- fig5|fig6|table3|table4]
//! ```
//!
//! Without an id every experiment runs. Claims are calibrated at 300/3000
//! messages and up, so a smaller run may miss some through noise alone.

use lapses_bench::{bench_counts, paper};

fn main() {
    // `cargo bench` passes `--bench` to every harness-less target.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let wanted = |id: &str| ids.is_empty() || ids.iter().any(|w| w == id);
    let experiments: Vec<_> = paper::all().into_iter().filter(|e| wanted(e.id)).collect();
    if experiments.len() < ids.len() {
        eprintln!("unknown experiment in {ids:?}; known: fig5, table3, fig6, table4");
        std::process::exit(2);
    }

    let (warmup, measure) = bench_counts();
    for experiment in experiments {
        println!("== {} ({warmup}/{measure} messages) ==\n", experiment.title);
        let outcome = experiment.run(warmup, measure);
        let table = outcome.table();
        println!("{}", table.render());
        table.save_csv(experiment.id);
        for violation in outcome.check() {
            println!("claim not met: {violation}");
        }
        println!();
    }
}
