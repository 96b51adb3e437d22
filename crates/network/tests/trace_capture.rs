//! Trace-capture round trip: a live run recorded through the capture sink
//! and replayed as a `WorkloadKind::Trace` workload must be bit-identical
//! in every reported statistic — the injection interleaving reproduces
//! exactly because each node is polled at most once per cycle and drains
//! all of its due messages in that one poll.

use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{ArrivalKind, Pattern, SimResult};
use lapses_traffic::Trace;
use std::sync::Arc;

fn fast() -> ScenarioBuilder {
    Scenario::builder()
        .mesh_2d(8, 8)
        .message_counts(100, 800)
        .seed(321)
}

/// Re-runs `scenario` as a replay of `trace`.
fn replay(scenario: &Scenario, trace: Trace) -> SimResult {
    scenario
        .to_builder()
        .trace(Arc::new(trace))
        .build()
        .unwrap()
        .run()
}

/// Capture → replay must reproduce the run exactly, across arrival
/// processes and patterns.
#[test]
fn synthetic_capture_replays_bit_identically() {
    for arrivals in [
        ArrivalKind::Exponential,
        ArrivalKind::Bernoulli,
        ArrivalKind::Periodic,
    ] {
        for pattern in [Pattern::Uniform, Pattern::Transpose] {
            let scenario = fast()
                .pattern(pattern)
                .arrivals(arrivals)
                .load(0.2)
                .build()
                .unwrap();
            let (original, trace) = scenario.run_capturing();
            let cfg = scenario.config();
            assert_eq!(
                trace.len() as u64,
                cfg.warmup_msgs + cfg.measure_msgs,
                "capture records exactly the offered messages"
            );
            assert_eq!(
                original,
                replay(&scenario, trace),
                "{pattern:?}/{arrivals:?} replay drifted from the live run"
            );
        }
    }
}

/// The captured trace survives its own text format: format → parse →
/// replay is still bit-identical (the capture sink writes what the loader
/// reads).
#[test]
fn captured_trace_round_trips_through_text() {
    let scenario = fast().load(0.25).build().unwrap();
    let (original, trace) = scenario.run_capturing();
    let text = trace.format();
    let reloaded = Trace::parse(&text, trace.node_count()).expect("formatted capture parses");
    assert_eq!(trace, reloaded);
    assert_eq!(original, replay(&scenario, reloaded));
}

/// Capturing must not perturb the run itself.
#[test]
fn capturing_does_not_change_the_run() {
    let scenario = fast().load(0.2).build().unwrap();
    let plain = scenario.run();
    let (captured, _) = scenario.run_capturing();
    assert_eq!(plain, captured);
}

/// Scenario-level capture of a bursty run replays exactly, including the
/// lookahead router and a non-default pattern.
#[test]
fn bursty_lookahead_capture_replays() {
    let scenario = Scenario::builder()
        .mesh_2d(8, 8)
        .lookahead(true)
        .pattern(Pattern::BitReversal)
        .bursty(6, 2.0)
        .load(0.15)
        .message_counts(100, 800)
        .build()
        .unwrap();
    let (original, trace) = scenario.run_capturing();
    assert_eq!(original, replay(&scenario, trace));
}
