//! Acceptance tests for `ScenarioAxis` sweeps: grids built from scenario
//! axes — including bursty and trace-replay series — must produce reports
//! bit-identical across 1/2/8 runner threads, and axis misuse must be
//! rejected up front.

use lapses_network::scenario::{Scenario, ScenarioBuilder, ScenarioError};
use lapses_network::{
    Algorithm, Pattern, ScenarioAxis, SweepGrid, SweepReport, SweepRunner, WorkloadKind,
};
use lapses_traffic::Trace;
use std::sync::Arc;

fn fast() -> ScenarioBuilder {
    Scenario::builder().mesh_2d(8, 8).message_counts(100, 700)
}

/// A deterministic synthetic trace on the 8×8 mesh: staggered nearest-
/// neighbor-ish hops, sixty messages over ~600 cycles.
fn trace_scenario() -> Scenario {
    let mut text = String::new();
    for i in 0u64..60 {
        let src = (i * 7) % 64;
        let dest = (src + 9) % 64;
        text.push_str(&format!("{} {} {} 10\n", i * 10, src, dest));
    }
    let trace = Arc::new(Trace::parse(&text, 64).unwrap());
    fast()
        .trace(trace)
        .message_counts(0, 10_000)
        .build()
        .unwrap()
}

/// The acceptance-criterion grid: a load axis, a bursty burst-length
/// axis, an algorithm enumeration, a mesh-extent axis, and a trace-replay
/// point — every workload family in one grid.
fn multi_axis_grid() -> SweepGrid {
    let synthetic = fast().pattern(Pattern::Transpose).build().unwrap();
    let bursty = fast().bursty(4, 2.0).load(0.15).build().unwrap();
    let small = Scenario::builder()
        .mesh_2d(4, 4)
        .message_counts(60, 400)
        .build()
        .unwrap();
    SweepGrid::new()
        .scenario_series(
            "transpose",
            &synthetic,
            &ScenarioAxis::Load(vec![0.1, 0.2, 0.3]),
        )
        .unwrap()
        .scenario_series(
            "bursty",
            &bursty,
            &ScenarioAxis::BurstLen(vec![2, 4, 8, 16]),
        )
        .unwrap()
        .scenario_series(
            "algo",
            &small,
            &ScenarioAxis::Algorithm(vec![Algorithm::Duato, Algorithm::DimensionOrder]),
        )
        .unwrap()
        .scenario_series(
            "extent",
            &small,
            &ScenarioAxis::MeshExtent(vec![(4, 4), (8, 8)]),
        )
        .unwrap()
        .scenario_point("trace", 1.0, &trace_scenario())
}

fn run(threads: usize) -> SweepReport {
    SweepRunner::new()
        .with_threads(threads)
        .with_master_seed(77)
        .run(&multi_axis_grid())
}

#[test]
fn multi_axis_grid_is_bit_identical_across_thread_counts() {
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "2 threads diverged from 1");
    assert_eq!(one, eight, "8 threads diverged from 1");

    // Coverage is real: every series present with live data.
    let labels: Vec<&str> = one.series().iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "transpose",
            "bursty",
            "algo/duato",
            "algo/dimension-order",
            "extent",
            "trace"
        ]
    );
    for series in one.series() {
        assert!(!series.points.is_empty(), "{} is empty", series.label);
        for (x, r) in &series.points {
            assert!(!r.saturated, "{} saturated at {x}", series.label);
            assert!(r.messages > 0 && r.cycles > 0);
        }
    }
    // The burst-length axis is really on that axis.
    let bursty = &one.series()[1];
    let xs: Vec<f64> = bursty.points.iter().map(|(x, _)| *x).collect();
    assert_eq!(xs, vec![2.0, 4.0, 8.0, 16.0]);
    // And burstiness matters: latency differs across burst lengths.
    let lat: Vec<f64> = bursty.points.iter().map(|(_, r)| r.avg_latency).collect();
    assert!(lat.iter().any(|l| (l - lat[0]).abs() > 1e-9));
    // The trace point replays every recorded message.
    assert_eq!(one.series()[5].points[0].1.messages, 60);
}

#[test]
fn master_seed_pairs_trace_points_across_runs() {
    // Trace replay is fully deterministic: same grid, different master
    // seed, identical trace-point results (the seed only feeds synthetic
    // and bursty sources' RNG streams — and arbiter/jitter state, which
    // the trace still exercises through the router seed).
    let a = SweepRunner::new()
        .with_master_seed(1)
        .run(&multi_axis_grid());
    let b = SweepRunner::new()
        .with_master_seed(2)
        .run(&multi_axis_grid());
    let (ta, tb) = (&a.series()[5].points[0].1, &b.series()[5].points[0].1);
    assert_eq!(ta.messages, tb.messages);
    // Synthetic series must differ (their injections are seed-derived).
    assert_ne!(
        a.series()[0].points[0].1.avg_latency,
        b.series()[0].points[0].1.avg_latency
    );
}

#[test]
fn burst_axis_requires_a_bursty_workload() {
    let synthetic = fast().build().unwrap();
    let err = SweepGrid::new()
        .scenario_series("x", &synthetic, &ScenarioAxis::BurstLen(vec![2, 4]))
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::AxisMismatch {
            axis: "burst-length",
            workload: "synthetic"
        }
    );
}

#[test]
fn load_axis_rejects_trace_workloads() {
    // Trace replay ignores the load field; a "load sweep" over it would
    // just repeat the identical replay.
    let err = SweepGrid::new()
        .scenario_series("x", &trace_scenario(), &ScenarioAxis::Load(vec![0.1, 0.2]))
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::AxisMismatch {
            axis: "load",
            workload: "trace"
        }
    );
}

#[test]
fn extent_axis_rejects_trace_workloads() {
    let err = SweepGrid::new()
        .scenario_series(
            "x",
            &trace_scenario(),
            &ScenarioAxis::MeshExtent(vec![(4, 4), (8, 8)]),
        )
        .unwrap_err();
    assert!(matches!(err, ScenarioError::AxisMismatch { .. }));
}

#[test]
fn value_axes_must_ascend() {
    let s = fast().build().unwrap();
    let err = SweepGrid::new()
        .scenario_series("x", &s, &ScenarioAxis::Load(vec![0.3, 0.1]))
        .unwrap_err();
    assert_eq!(err, ScenarioError::AxisNotAscending { axis: "load" });
}

#[test]
fn invalid_axis_values_are_reported_before_the_sweep() {
    // At load 30 the mean gap (~1.3 cycles) is below the 2-cycle peak
    // gap: a 2-message burst still fits, but long bursts consume more
    // time at peak rate than the load budget allows — no OFF silence.
    let bursty = fast().bursty(2, 2.0).load(30.0).build().unwrap();
    let err = SweepGrid::new()
        .scenario_series("x", &bursty, &ScenarioAxis::BurstLen(vec![2, 4_096]))
        .unwrap_err();
    assert!(matches!(err, ScenarioError::BurstParams { .. }), "{err:?}");
}

#[test]
fn extent_axis_preserves_torus_kind() {
    let torus = Scenario::builder()
        .torus_2d(4, 4)
        .vcs(4, 2)
        .message_counts(50, 300)
        .build()
        .unwrap();
    let grid = SweepGrid::new()
        .scenario_series("t", &torus, &ScenarioAxis::MeshExtent(vec![(4, 4), (6, 6)]))
        .unwrap();
    for p in grid.points() {
        assert!(p.scenario.config().mesh.is_torus());
        assert!(matches!(
            p.scenario.config().workload,
            WorkloadKind::Synthetic { .. }
        ));
    }
}
