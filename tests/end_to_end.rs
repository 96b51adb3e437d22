//! Cross-crate integration tests: whole-network behaviour of the four
//! router configurations of the paper's Fig. 5, table-scheme equivalence,
//! and reproducibility.

use lapses::prelude::*;

/// The paper's adaptive PROUD router (`NO LA, ADAPT`) on a
/// `width × height` mesh, at test-sized message counts.
fn adaptive(width: u16, height: u16) -> ScenarioBuilder {
    Scenario::builder()
        .mesh_2d(width, height)
        .message_counts(300, 2_500)
        .seed(2026)
}

/// The deterministic PROUD router (`NO LA, DET`): XY routing with all
/// four VCs usable.
fn deterministic(width: u16, height: u16) -> ScenarioBuilder {
    adaptive(width, height)
        .algorithm(Algorithm::DimensionOrder)
        .router(RouterConfig::paper_deterministic())
}

fn run(builder: ScenarioBuilder) -> SimResult {
    builder.build().unwrap().run()
}

#[test]
fn all_four_router_configs_deliver_on_all_paper_patterns() {
    let makers: [fn(u16, u16) -> ScenarioBuilder; 4] = [
        deterministic,
        |w, h| deterministic(w, h).lookahead(true),
        adaptive,
        |w, h| adaptive(w, h).lookahead(true),
    ];
    for mk in makers {
        for pattern in [
            Pattern::Uniform,
            Pattern::Transpose,
            Pattern::BitReversal,
            Pattern::PerfectShuffle,
        ] {
            let r = run(mk(8, 8).pattern(pattern).load(0.15));
            assert!(
                !r.saturated,
                "{pattern:?} saturated at low load — simulator bug"
            );
            assert_eq!(r.messages, 2_500);
            assert!(r.avg_latency > 10.0 && r.avg_latency < 500.0);
        }
    }
}

#[test]
fn lookahead_gain_is_one_cycle_per_hop_at_zero_load() {
    // At vanishingly small load the LA gain must equal the average hop
    // count plus one (one saved stage per traversed router).
    let proud = run(adaptive(8, 8).load(0.02));
    let la = run(adaptive(8, 8).lookahead(true).load(0.02));
    // Uniform 8x8: mean distance = 2 * (64-1)/(3*8) = 5.25 hops,
    // 6.25 routers on average.
    let gain = proud.avg_latency - la.avg_latency;
    assert!(
        (5.8..6.7).contains(&gain),
        "expected ~6.25 cycles of gain, got {gain}"
    );
}

#[test]
fn adaptive_beats_deterministic_on_transpose_at_load() {
    let det = run(deterministic(16, 16)
        .pattern(Pattern::Transpose)
        .load(0.3)
        .message_counts(500, 5_000));
    let adpt = run(adaptive(16, 16)
        .pattern(Pattern::Transpose)
        .load(0.3)
        .message_counts(500, 5_000));
    assert!(
        adpt.avg_latency * 1.4 < det.avg_latency,
        "adaptive {} should be well under deterministic {}",
        adpt.avg_latency,
        det.avg_latency
    );
}

#[test]
fn economical_storage_is_bit_identical_to_full_table() {
    // The §5.2.2 claim, end to end: same relation + same seed => exactly
    // the same simulation.
    for pattern in [Pattern::Uniform, Pattern::Transpose] {
        let full = run(adaptive(8, 8)
            .table(TableKind::Full)
            .pattern(pattern)
            .load(0.3));
        let econ = run(adaptive(8, 8)
            .table(TableKind::Economical)
            .pattern(pattern)
            .load(0.3));
        assert_eq!(full.avg_latency, econ.avg_latency, "{pattern:?}");
        assert_eq!(full.cycles, econ.cycles, "{pattern:?}");
        assert_eq!(full.max_latency, econ.max_latency, "{pattern:?}");
    }
}

#[test]
fn interval_routing_behaves_like_a_deterministic_router() {
    let r = run(deterministic(8, 8).table(TableKind::Interval).load(0.2));
    assert!(!r.saturated);
    assert_eq!(r.choice_fraction, 0.0, "interval routing has no choices");
}

#[test]
fn turn_model_routing_runs_without_escape_vcs() {
    let r = run(adaptive(8, 8)
        .load(0.2)
        .algorithm(Algorithm::NorthLast)
        .router(RouterConfig::paper_deterministic())); // 0 escape VCs
    assert!(!r.saturated);
    assert_eq!(r.escape_fraction, 0.0);
}

#[test]
fn results_reproduce_exactly_across_runs() {
    let mk = || {
        run(adaptive(8, 8)
            .lookahead(true)
            .pattern(Pattern::BitReversal)
            .load(0.25))
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.avg_latency, b.avg_latency);
    assert_eq!(a.p99_latency, b.p99_latency);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn different_seeds_give_statistically_close_latencies() {
    let at = |seed: u64| {
        run(Scenario::builder()
            .mesh_2d(8, 8)
            .load(0.2)
            .message_counts(300, 3_000)
            .seed(seed))
        .avg_latency
    };
    let a = at(1);
    let b = at(2);
    assert!(
        (a - b).abs() / a < 0.05,
        "seeds disagree too much: {a} vs {b}"
    );
}

#[test]
fn hotspot_traffic_congests_the_hotspot_links() {
    let r = run(adaptive(8, 8)
        .pattern(Pattern::Hotspot {
            node: 27,
            probability: 0.2,
        })
        .load(0.15));
    assert!(!r.saturated);
    // The hotspot drives the busiest link well above the average.
    assert!(r.max_link_utilization > 0.1);
}

#[test]
fn escape_channels_engage_under_pressure() {
    let r = run(adaptive(8, 8).pattern(Pattern::Transpose).load(0.4));
    // At high adaptive load some headers must fall back to escape VCs.
    assert!(r.escape_fraction > 0.0, "escape VCs never engaged");
}
