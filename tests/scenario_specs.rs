//! Tier-1 guard for the committed scenario specs: every `examples/
//! scenarios/*.scn` must parse, round-trip `parse → format → parse`
//! exactly, and validate into a runnable scenario (trace paths resolve
//! relative to the spec file), and simulate exactly the pinned outcome.
//! CI's `scenarios` step additionally runs them via the
//! `scenario_from_spec` example.

use lapses::prelude::*;
use std::path::{Path, PathBuf};

fn committed_specs() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/scenarios must exist")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "scn").then_some(path)
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn committed_specs_exist_and_cover_every_workload_family() {
    let names: Vec<String> = committed_specs()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(names.len() >= 4, "specs: {names:?}");
    for expected in [
        "quickstart.scn",
        "bursty.scn",
        "trace_replay.scn",
        "faulty_mesh.scn",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
}

#[test]
fn committed_specs_round_trip_exactly() {
    for path in committed_specs() {
        let spec = ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let formatted = spec.format();
        let reparsed = ScenarioSpec::parse(&formatted)
            .unwrap_or_else(|e| panic!("{}: canonical form failed: {e}", path.display()));
        assert_eq!(
            spec,
            reparsed,
            "{}: parse→format→parse is not the identity",
            path.display()
        );
        // And the canonical form is a fixed point of format.
        assert_eq!(formatted, reparsed.format(), "{}", path.display());
    }
}

#[test]
fn committed_specs_validate_into_scenarios() {
    for path in committed_specs() {
        let spec = ScenarioSpec::load(&path).unwrap();
        let base = path.parent().unwrap();
        let scenario = spec
            .to_scenario(base)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Compiled form is sane without running the full scenario here
        // (the scenario_from_spec example runs them in CI).
        assert!(scenario.config().measure_msgs > 0);
        assert!(
            scenario.config().mesh.node_count() > 0,
            "{}",
            path.display()
        );
    }
}

#[test]
fn faulty_spec_runs_to_drain() {
    let path = committed_specs()
        .into_iter()
        .find(|p| p.file_name().unwrap() == "faulty_mesh.scn")
        .expect("faulty spec is committed");
    let spec = ScenarioSpec::load(&path).unwrap();
    let scenario = spec.to_scenario(path.parent().unwrap()).unwrap();
    assert!(matches!(scenario.config().faults, FaultsConfig::Links(ref l) if l.len() == 3));
    assert_eq!(scenario.config().algorithm, Algorithm::UpDownAdaptive);
    let result = scenario.run();
    assert!(!result.saturated);
    assert_eq!(result.messages, 2_000);
}

#[test]
fn trace_spec_replays_the_fixture() {
    let path = committed_specs()
        .into_iter()
        .find(|p| p.file_name().unwrap() == "trace_replay.scn")
        .expect("trace spec is committed");
    let spec = ScenarioSpec::load(&path).unwrap();
    let result = spec.to_scenario(path.parent().unwrap()).unwrap().run();
    assert!(!result.saturated);
    assert_eq!(result.messages, 16); // every fixture event measured
}

/// What each committed spec simulates: measured messages, cycles,
/// flit-hops and the bits of the average latency, recorded before the
/// `.scn` text became a codec for the builder's configuration.
const COMMITTED_OUTCOMES: [(&str, u64, u64, u64, u64); 4] = [
    ("bursty.scn", 2_000, 8_645, 258_560, 0x405d_ad58_1062_4dcc),
    (
        "faulty_mesh.scn",
        2_000,
        8_835,
        234_960,
        0x404e_4cac_0831_26e9,
    ),
    (
        "quickstart.scn",
        2_000,
        3_480,
        468_300,
        0x4055_a27e_f9db_22d2,
    ),
    ("trace_replay.scn", 16, 103, 680, 0x4043_a7ff_ffff_ffff),
];

#[test]
fn committed_specs_simulate_their_pinned_outcomes() {
    let paths = committed_specs();
    for (name, messages, cycles, flit_hops, latency_bits) in COMMITTED_OUTCOMES {
        let path = paths
            .iter()
            .find(|p| p.file_name().unwrap() == name)
            .unwrap_or_else(|| panic!("{name} is committed"));
        let spec = ScenarioSpec::load(path).unwrap();
        let r = spec.to_scenario(path.parent().unwrap()).unwrap().run();
        assert_eq!(
            (r.messages, r.cycles, r.flit_hops, r.avg_latency.to_bits()),
            (messages, cycles, flit_hops, latency_bits),
            "{name}: simulated outcome moved (avg latency {})",
            r.avg_latency
        );
    }
}
