//! One scenario, two spellings: the reference 16×16 synthetic scenario
//! built through `ScenarioBuilder` and parsed from its `.scn` text must
//! compile to the same configuration and produce **bit-identical**
//! `SimResult`s (cycles / messages / flit-hops / every latency float),
//! across arrival processes. The outcome itself is pinned by a golden
//! fingerprint (see `common/mod.rs`).

mod common;

use common::{check, Golden};
use lapses_network::scenario::Scenario;
use lapses_network::{ArrivalKind, Pattern, ScenarioSpec, SimResult};
use std::path::Path;

/// The reference point as `.scn` text.
const REFERENCE_SPEC: &str = "\
topology = mesh 16x16
lookahead = true
pattern = uniform
load = 0.2
warmup = 300
measure = 2500
seed = 1999
";

/// The reference point, scaled to test time: the paper's 16×16 mesh and
/// LA-ADAPT router, uniform traffic at 0.2 normalized load.
fn reference_spec() -> Scenario {
    ScenarioSpec::parse(REFERENCE_SPEC)
        .and_then(|spec| spec.to_scenario(Path::new(".")))
        .expect("reference spec is valid")
}

fn reference_scenario() -> Scenario {
    Scenario::builder()
        .mesh_2d(16, 16)
        .lookahead(true)
        .pattern(Pattern::Uniform)
        .load(0.2)
        .message_counts(300, 2_500)
        .seed(1999)
        .build()
        .expect("reference scenario is valid")
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a, b, "{what}: builder and spec fronts diverged");
    assert!(!a.saturated, "{what}: reference must not saturate");
    assert_eq!(a.messages, 2_500, "{what}: full measurement window");
    assert!(a.flit_hops > 0, "{what}: hops must be counted");
}

#[test]
fn scenario_compiles_to_the_identical_config_shape() {
    let built = reference_scenario();
    let parsed = reference_spec();
    let (compiled, direct) = (built.config(), parsed.config());
    assert_eq!(compiled.mesh, direct.mesh);
    assert_eq!(compiled.router, direct.router);
    assert_eq!(compiled.algorithm, direct.algorithm);
    assert_eq!(compiled.table, direct.table);
    assert_eq!(compiled.workload, direct.workload);
    assert_eq!(compiled.load, direct.load);
    assert_eq!(compiled.lengths, direct.lengths);
    assert_eq!(compiled.seed, direct.seed);
    assert_eq!(compiled.warmup_msgs, direct.warmup_msgs);
    assert_eq!(compiled.measure_msgs, direct.measure_msgs);
}

#[test]
fn reference_scenario_is_bit_identical_across_scheduler_toggles() {
    // Recorded before the always-step scheduler was deleted, and reproduced
    // with it forced on and off (and with the other two reference paths).
    let scenic = reference_scenario().run();
    check(
        "REFERENCE",
        REFERENCE,
        &[("16x16/la/uniform@0.2".to_string(), scenic)],
    );
}

#[rustfmt::skip]
const REFERENCE: &[Golden] = &[
    ("16x16/la/uniform@0.2", 4471, 2500, 593200, 0xfea42b6767c55cfe),
];

#[test]
fn reference_scenario_matches_the_spec_path() {
    let direct = reference_spec().run();
    let scenic = reference_scenario().run();
    assert_bit_identical(&scenic, &direct, "exponential arrivals");
}

#[test]
fn bernoulli_arrivals_are_equivalent_through_both_fronts() {
    let bernoulli = format!("{REFERENCE_SPEC}workload = synthetic bernoulli\n");
    let direct = ScenarioSpec::parse(&bernoulli)
        .and_then(|spec| spec.to_scenario(Path::new(".")))
        .unwrap()
        .run();
    let scenic = reference_scenario()
        .to_builder()
        .arrivals(ArrivalKind::Bernoulli)
        .build()
        .unwrap()
        .run();
    assert_bit_identical(&scenic, &direct, "bernoulli arrivals");
}
