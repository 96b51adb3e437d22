//! Burstiness chapter — saturation knees vs burst length, Fig. 5 style.
//!
//! The ON/OFF source offers the *same long-run load* as the smooth
//! exponential source at every point; only the burst structure differs
//! (mean `burst_len` messages back to back at one message per `peak_gap`
//! cycles, separated by exponential silences). This bench sweeps offered
//! load per burst length and reports where each curve saturates — the
//! expected shape: longer bursts push the saturation knee down and the
//! pre-knee latency up, which is what the bursty workload axis exists to
//! show.
//!
//! Results print as tables and land in `bench_results/burst_knee.csv` and
//! `bench_results/burst_latency.csv`. The whole grid is run twice and
//! the two reports must be identical — sweep results are deterministic
//! regardless of work-stealing interleavings.
//!
//! Run with `cargo bench -p lapses-bench --bench burst_sweep`.

use lapses_bench::{with_bench_counts_scenario, Table};
use lapses_network::scenario::Scenario;
use lapses_network::{Pattern, ScenarioAxis, SweepGrid, SweepReport, SweepRunner};

const BURST_LENS: [u32; 5] = [1, 2, 4, 8, 16];
const PEAK_GAP: f64 = 2.0;
const LOADS: [f64; 7] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

fn series_label(burst_len: u32) -> String {
    format!("burst {burst_len}")
}

fn build_grid() -> SweepGrid {
    let mut grid = SweepGrid::new();
    for burst_len in BURST_LENS {
        let scenario = with_bench_counts_scenario(
            Scenario::builder()
                .mesh_2d(8, 8)
                .lookahead(true)
                .pattern(Pattern::Uniform)
                .bursty(burst_len, PEAK_GAP),
        )
        .build()
        .expect("bursty bench scenario is valid");
        grid = grid
            .scenario_series(
                series_label(burst_len),
                &scenario,
                &ScenarioAxis::Load(LOADS.to_vec()),
            )
            .expect("load axis applies to the bursty scenario");
    }
    // One fixed-load series along the BurstLen axis itself: latency vs
    // burstiness at a stable operating point.
    let base = with_bench_counts_scenario(
        Scenario::builder()
            .mesh_2d(8, 8)
            .lookahead(true)
            .pattern(Pattern::Uniform)
            .bursty(BURST_LENS[0], PEAK_GAP)
            .load(0.3),
    )
    .build()
    .expect("burst-axis scenario is valid");
    grid.scenario_series(
        "latency vs burst",
        &base,
        &ScenarioAxis::BurstLen(BURST_LENS.to_vec()),
    )
    .expect("burst-length axis applies")
}

fn run_once(grid: &SweepGrid) -> SweepReport {
    SweepRunner::new().with_master_seed(2026).run(grid)
}

fn main() {
    println!("== Burstiness chapter: saturation knee vs burst length (8x8, LA-ADAPT) ==\n");

    let grid = build_grid();
    let report = run_once(&grid);
    // Determinism: an identical second pass.
    let again = run_once(&grid);
    assert_eq!(again, report, "burst sweep must be deterministic");

    let mut knees = Table::new(&["burst len", "last stable load", "saturation load"]);
    for burst_len in BURST_LENS {
        let label = series_label(burst_len);
        let sat = report
            .saturation_summary()
            .into_iter()
            .find(|s| s.label == label)
            .expect("series is in the report");
        knees.row(vec![
            burst_len.to_string(),
            sat.last_stable_load
                .map_or("-".into(), |l| format!("{l:.1}")),
            sat.saturation_load
                .map_or("none".into(), |l| format!("{l:.1}")),
        ]);
    }
    println!("-- saturation knees --");
    println!("{}", knees.render());
    knees.save_csv("burst_knee");

    let mut latency = Table::new(&["burst len", "avg latency @0.3", "p95 @0.3"]);
    // `build_grid` adds the burst-length series last.
    let burst_axis = report.series().last().expect("the grid has series");
    for (x, r) in &burst_axis.points {
        latency.row(vec![
            format!("{x:.0}"),
            r.latency_cell(),
            r.p95_latency.map_or("-".into(), |p| format!("{p:.0}")),
        ]);
    }
    println!("-- latency vs burst length at load 0.3 --");
    println!("{}", latency.render());
    latency.save_csv("burst_latency");

    println!("-- full curves --");
    println!("{}", report.to_table());

    // The chapter's claim, asserted: the burstiest curve never saturates
    // *later* than the smoothest one.
    let knee = |label: &str| report.saturation_load(label).unwrap_or(f64::INFINITY);
    assert!(
        knee(&series_label(16)) <= knee(&series_label(1)),
        "longer bursts must not raise the saturation knee"
    );
}
