//! Integration tests for the parallel sweep runner: determinism across
//! thread counts, saturation cut-off propagation, and a smoke sweep over
//! all four paper patterns.

use lapses_network::{
    CutoffPolicy, Pattern, Scenario, ScenarioAxis, ScenarioBuilder, SweepGrid, SweepRunner,
};

fn fast(width: u16, height: u16) -> ScenarioBuilder {
    Scenario::builder()
        .mesh_2d(width, height)
        .lookahead(true)
        .message_counts(100, 800)
}

/// Adds one series: `base` swept across `loads`.
fn series(
    grid: SweepGrid,
    label: impl Into<String>,
    base: ScenarioBuilder,
    loads: &[f64],
) -> SweepGrid {
    let base = base.build().expect("base scenario is valid");
    grid.scenario_series(label, &base, &ScenarioAxis::Load(loads.to_vec()))
        .expect("series points are valid")
}

/// Builds the acceptance-criterion grid: 12 points across three series.
fn twelve_point_grid() -> SweepGrid {
    let loads = [0.1, 0.2, 0.3, 0.4];
    let grid = series(
        SweepGrid::new(),
        "uniform",
        fast(8, 8).pattern(Pattern::Uniform),
        &loads,
    );
    let grid = series(
        grid,
        "transpose",
        fast(8, 8).pattern(Pattern::Transpose),
        &loads,
    );
    series(
        grid,
        "bit-reversal",
        fast(8, 8).pattern(Pattern::BitReversal),
        &loads,
    )
}

#[test]
fn twelve_points_on_four_threads_match_single_thread_bit_for_bit() {
    let grid = twelve_point_grid();
    assert!(grid.len() >= 12);
    let serial = SweepRunner::new()
        .with_threads(1)
        .with_master_seed(2026)
        .run(&grid);
    let parallel = SweepRunner::new()
        .with_threads(4)
        .with_master_seed(2026)
        .run(&grid);
    assert_eq!(serial, parallel, "thread count changed the report");
    // And the comparison is not vacuous: every series has real data.
    for s in serial.series() {
        assert_eq!(s.points.len(), 4, "{} truncated unexpectedly", s.label);
        for (load, r) in &s.points {
            assert!(!r.saturated, "{} saturated at {load}", s.label);
            assert!(r.avg_latency > 0.0);
        }
    }
}

#[test]
fn master_seed_changes_results_and_reproduces_exactly() {
    let grid = series(SweepGrid::new(), "u", fast(4, 4), &[0.15, 0.25]);
    let a = SweepRunner::new()
        .with_threads(2)
        .with_master_seed(1)
        .run(&grid);
    let b = SweepRunner::new()
        .with_threads(3)
        .with_master_seed(1)
        .run(&grid);
    let c = SweepRunner::new()
        .with_threads(2)
        .with_master_seed(2)
        .run(&grid);
    assert_eq!(a, b);
    assert_ne!(
        a.series()[0].points[0].1.avg_latency,
        c.series()[0].points[0].1.avg_latency,
        "different master seeds should perturb the statistics"
    );
}

#[test]
fn saturation_cutoff_propagates_to_the_report() {
    // Overload a 4x4 mesh so the series saturates mid-sweep; the two
    // higher loads must be absent from the report, like the paper's
    // "Sat." cut-off.
    let base = Scenario::builder().mesh_2d(4, 4).message_counts(200, 1_200);
    let loads = [0.2, 3.0, 4.0, 5.0];
    let grid = series(SweepGrid::new(), "overload", base, &loads);

    for threads in [1, 4] {
        let report = SweepRunner::new()
            .with_threads(threads)
            .with_master_seed(7)
            .run(&grid);
        let points = &report.series()[0].points;
        assert_eq!(
            points.len(),
            2,
            "series must stop after its first Sat. point ({threads} threads)"
        );
        assert!(!points[0].1.saturated);
        assert!(points[1].1.saturated);
        assert_eq!(report.saturation_load("overload"), Some(3.0));
        let summary = report.saturation_summary();
        assert_eq!(summary[0].last_stable_load, Some(0.2));
        assert_eq!(summary[0].saturation_load, Some(3.0));
    }

    // KeepAll runs the doomed points anyway and reports all four cells.
    let keep = SweepRunner::new()
        .with_threads(4)
        .with_master_seed(7)
        .with_cutoff(CutoffPolicy::KeepAll)
        .run(&grid);
    assert_eq!(keep.series()[0].points.len(), 4);
}

#[test]
fn work_stealing_keeps_reports_bit_identical_across_thread_counts() {
    // The work-stealing schedule is exercised hardest by a skewed grid:
    // one long saturated point (it runs all the way to the backlog
    // watchdog) next to many short low-load points. Whatever order the
    // workers steal in, the report must be bit-identical across 1, 2 and
    // 8 threads — and the saturated series must still truncate correctly.
    let short = Scenario::builder().mesh_2d(4, 4).message_counts(50, 300);
    let long = Scenario::builder().mesh_2d(8, 8).message_counts(300, 6_000);
    let mut grid = series(SweepGrid::new(), "saturated", long, &[3.0]);
    for i in 0..6 {
        grid = series(
            grid,
            format!("short-{i}"),
            short.clone().pattern(Pattern::PAPER_FOUR[i % 4]),
            &[0.1, 0.15],
        );
    }

    let reports: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            SweepRunner::new()
                .with_threads(threads)
                .with_master_seed(31337)
                .run(&grid)
        })
        .collect();
    assert_eq!(reports[0], reports[1], "2 threads changed the report");
    assert_eq!(reports[0], reports[2], "8 threads changed the report");

    // Not vacuous: the long point saturated, the short ones all ran.
    let report = &reports[0];
    assert_eq!(report.series().len(), 7);
    assert!(report.series()[0].points[0].1.saturated);
    for s in &report.series()[1..] {
        assert_eq!(s.points.len(), 2, "{} truncated", s.label);
        assert!(s.points.iter().all(|(_, r)| !r.saturated));
    }
}

#[test]
fn smoke_sweep_covers_all_four_paper_patterns_on_8x8() {
    let mut grid = SweepGrid::new();
    for pattern in Pattern::PAPER_FOUR {
        grid = series(
            grid,
            pattern.name(),
            fast(8, 8).pattern(pattern),
            &[0.1, 0.2],
        );
    }
    let report = SweepRunner::new().with_master_seed(11).run(&grid);
    assert_eq!(report.series().len(), 4);
    for s in report.series() {
        assert_eq!(s.points.len(), 2, "{}", s.label);
        for (load, r) in &s.points {
            assert!(!r.saturated, "{} saturated at {load}", s.label);
            assert_eq!(r.messages, 800);
        }
    }
    // The report renders: every pattern appears in the table.
    let table = report.to_tables()[0].render();
    for pattern in Pattern::PAPER_FOUR {
        assert!(table.contains(&pattern.name()[..7.min(pattern.name().len())]));
    }
}
