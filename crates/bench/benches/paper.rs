//! Renders every experiment of `lapses_bench::paper`, each with the
//! paper's values beside ours where the paper prints them, lists any
//! claim the run does not meet, and renders Table 5:
//!
//! ```text
//! cargo bench -p lapses-bench --bench paper [-- <id>...]
//! ```
//!
//! The ids are `fig5`, `table3`, `fig6`, `table4`, the ablations `psh`,
//! `vcs`, `topologies` and `lookup`, the burst sweep `burst`, and
//! `table5`. Without an id everything renders. Claims are calibrated at
//! 300/3000 messages and up, so a smaller run may miss some through
//! noise alone.

use lapses_bench::{bench_counts, paper, save_csv};

fn main() {
    // `cargo bench` passes `--bench` to every harness-less target.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let experiments = paper::all();
    let known: Vec<&str> = experiments
        .iter()
        .map(|e| e.id)
        .chain([paper::TABLE5])
        .collect();
    if let Some(unknown) = ids.iter().find(|id| !known.contains(&id.as_str())) {
        eprintln!(
            "unknown experiment {unknown:?}; known: {}",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let wanted = |id: &str| ids.is_empty() || ids.iter().any(|w| w == id);

    let (warmup, measure) = bench_counts().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for experiment in experiments.into_iter().filter(|e| wanted(e.id)) {
        println!("== {} ({warmup}/{measure} messages) ==\n", experiment.title);
        let outcome = experiment.run(warmup, measure);
        let table = outcome.table();
        println!("{table}");
        save_csv(&table, experiment.id);
        for violation in outcome.check() {
            println!("claim not met: {violation}");
        }
        println!();
    }
    if wanted(paper::TABLE5) {
        println!("== Table 5: table-storage schemes vs router properties ==\n");
        let table = paper::table5();
        println!("{table}");
        save_csv(&table, paper::TABLE5);
    }
}
