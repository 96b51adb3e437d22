//! Robustness of the text entry points: random and mutated `.scn` specs and
//! trace files must parse to a value or a typed error, never a panic.
//!
//! For every generated spec text:
//!
//! * `ScenarioSpec::parse` returns `Ok` or a typed `SpecError`;
//! * on `Ok`, `parse(format(spec)) == spec`;
//! * `to_scenario` returns `Ok` or a typed error;
//! * a scenario that builds on at most 64 nodes completes a tiny run
//!   (2 warm-up / 8 measured messages, capped at 20k cycles).
//!
//! For every generated trace text, `Trace::parse` returns `Ok` or a typed
//! `TraceError`. The fixed cases at the bottom are inputs that used to
//! panic inside the simulator instead of returning an error.

use lapses::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Trace paths in generated specs resolve against the committed scenarios.
fn base_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("scenarios")
}

/// A splitmix64 stream: the generators below draw many small choices from
/// one proptest-supplied seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    fn percent(&mut self, p: usize) -> bool {
        self.below(100) < p
    }
}

const KEYS: &[&str] = &[
    "topology",
    "faults",
    "fault-count",
    "fault-seed",
    "lookahead",
    "vcs",
    "path-selection",
    "algorithm",
    "table",
    "pattern",
    "workload",
    "load",
    "lengths",
    "warmup",
    "measure",
    "seed",
];
const COUNTS: &[&str] = &["0", "1", "2", "3", "5", "8", "20", "64"];
const EDGE_COUNTS: &[&str] = &["-1", "4000000000", "99999999999999999999", "x", "1.5"];
const FLOATS: &[&str] = &["0.05", "0.1", "0.2", "0.5", "0.9", "1", "2", "3"];
const EDGE_FLOATS: &[&str] = &[
    "0", "-0.1", "1.5", "nan", "inf", "1e-300", "1e300", "1e9", "abc",
];

/// A shape of 1–4 extents, mostly small enough to run; at the edges, 5
/// extents or a zero, huge or missing one.
fn shape(g: &mut Gen, edge: bool) -> String {
    let dims = [1, 2, 2, 2, 3, 4, if edge { 5 } else { 2 }][g.below(7)];
    (0..dims)
        .map(|_| match edge && g.percent(30) {
            true => g.pick(&["0", "65535", "x", ""]),
            false => g.pick(&["1", "2", "3", "4", "4", "5", "8", "16"]),
        })
        .collect::<Vec<_>>()
        .join("x")
}

/// A value for `key`: usually well-formed, one time in fifteen drawn from
/// the edges of the key's domain (zero, negative, huge, NaN, misspelled).
fn value(g: &mut Gen, key: &str) -> String {
    let edge = g.percent(7);
    let count = |g: &mut Gen| {
        if edge {
            g.pick(EDGE_COUNTS)
        } else {
            g.pick(COUNTS)
        }
        .to_string()
    };
    let float = |g: &mut Gen| {
        if edge {
            g.pick(EDGE_FLOATS)
        } else {
            g.pick(FLOATS)
        }
        .to_string()
    };
    match key {
        "topology" => format!(
            "{} {}",
            g.pick(&["mesh", "mesh", "torus", if edge { "ring" } else { "mesh" }]),
            shape(g, edge)
        ),
        "faults" => (0..1 + g.below(3))
            .map(|_| match (edge, g.below(3)) {
                (true, 0) => "(1)".to_string(),
                (true, _) => format!("{} {}", g.below(20), g.below(20)),
                _ => format!("({} {})", g.below(20), g.below(20)),
            })
            .collect::<Vec<_>>()
            .join(", "),
        "lookahead" => g
            .pick(&["true", "false", if edge { "yes" } else { "true" }])
            .to_string(),
        "vcs" => format!("{} {}", g.below(if edge { 20 } else { 9 }), g.below(4)),
        "path-selection" => g
            .pick(&["static-xy", "random", "min-mux", "lfu", "lru", "max-credit"])
            .to_string(),
        "algorithm" => g
            .pick(&[
                "dimension-order",
                "duato",
                "north-last",
                "west-first",
                "negative-first",
                "up-down",
                "up-down-adaptive",
                if edge { "valiant" } else { "duato" },
            ])
            .to_string(),
        "table" => match g.below(6) {
            0 => format!("meta-blocks {}", shape(g, edge)),
            _ => g
                .pick(&[
                    "full",
                    "economical",
                    "meta-rows",
                    "interval",
                    if edge { "cam" } else { "full" },
                ])
                .to_string(),
        },
        "pattern" => match g.below(5) {
            0 => format!("hotspot {} {}", g.below(70), float(g)),
            _ => g
                .pick(&[
                    "uniform",
                    "transpose",
                    "bit-reversal",
                    "perfect-shuffle",
                    "bit-complement",
                    "tornado",
                    "nearest-neighbor",
                    if edge { "zipf" } else { "uniform" },
                ])
                .to_string(),
        },
        "workload" => match g.below(4) {
            0 => format!("bursty {} {}", count(g), float(g)),
            1 => format!(
                "trace {}",
                if edge {
                    "missing.trace"
                } else {
                    "../../crates/traffic/tests/fixtures/small.trace"
                }
            ),
            _ => format!(
                "synthetic {}",
                g.pick(&[
                    "exponential",
                    "bernoulli",
                    "periodic",
                    if edge { "poisson" } else { "periodic" }
                ])
            ),
        },
        "lengths" => match g.below(3) {
            0 => format!("fixed {}", count(g)),
            1 => format!("uniform {} {}", count(g), count(g)),
            _ => format!("bimodal {} {} {}", count(g), count(g), float(g)),
        },
        "load" => float(g),
        _ => count(g),
    }
}

/// Random character-level damage: deletions, insertions and duplicated
/// lines.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + g.below(4) {
        match g.below(3) {
            0 if !chars.is_empty() => {
                let i = g.below(chars.len());
                chars.remove(i);
            }
            1 => {
                let i = g.below(chars.len() + 1);
                let c = g.pick(&[" ", "=", "#", "x", "0", "9", ".", "-", "\n", "(", ")", "é"]);
                chars.insert(i, c.chars().next().unwrap());
            }
            _ => {
                let text: String = chars.iter().collect();
                let lines: Vec<&str> = text.lines().collect();
                if let Some(line) = lines.get(g.below(lines.len().max(1))) {
                    chars.extend(format!("\n{line}").chars());
                }
            }
        }
    }
    chars.into_iter().collect()
}

fn spec_text(seed: u64) -> String {
    let mut g = Gen(seed);
    // A random subset of distinct keys in random order, usually including
    // a topology (the default 16x16 mesh is too big to run here).
    let mut keys = KEYS.to_vec();
    for i in (1..keys.len()).rev() {
        keys.swap(i, g.below(i + 1));
    }
    let mut keys: Vec<&str> = keys[..g.below(keys.len() + 1)].to_vec();
    if g.percent(80) && !keys.contains(&"topology") {
        keys.push("topology");
    }
    // Explicit faults exclude a random fault set, and a fault seed needs a
    // count; usually keep the spec consistent.
    if g.percent(90) {
        if keys.contains(&"faults") {
            keys.retain(|k| !k.starts_with("fault-"));
        } else if !keys.contains(&"fault-count") {
            keys.retain(|k| *k != "fault-seed");
        }
    }
    let mut text = String::new();
    for key in keys {
        if g.percent(3) {
            text.push_str(g.pick(&["# comment\n", "\n", "unknown = 1\n", "load\n"]));
        }
        text.push_str(&format!("{key} = {}", value(&mut g, key)));
        text.push_str(g.pick(&["\n", "\n", "\r\n", " # trailing\n"]));
    }
    if g.percent(15) {
        text = mutate(&mut g, &text);
    }
    text
}

fn trace_text(seed: u64) -> String {
    let mut g = Gen(seed);
    let mut text = String::new();
    let mut cycle = 0u64;
    for _ in 0..g.below(12) {
        cycle += g.below(4) as u64;
        let line = match g.below(8) {
            0 => g
                .pick(&["", "# comment", "1 2 3", "a b c d", "1 2 3 4 5"])
                .to_string(),
            1 => format!("{} 0 1 {}", g.pick(EDGE_COUNTS), g.pick(COUNTS)),
            _ => format!(
                "{cycle} {} {} {}",
                g.below(10),
                g.below(10),
                1 + g.below(30)
            ),
        };
        text.push_str(&line);
        text.push_str(g.pick(&["\n", "\r\n", "  # note\n"]));
    }
    if g.percent(30) {
        text = mutate(&mut g, &text);
    }
    text
}

/// The spec's outcome through every stage; panics are the only failure.
fn exercise(text: &str) -> Result<(), TestCaseError> {
    let Ok(spec) = ScenarioSpec::parse(text) else {
        return Ok(());
    };
    let again = ScenarioSpec::parse(&spec.format());
    prop_assert!(
        matches!(&again, Ok(s) if *s == spec),
        "round trip changed {text:?} into {again:?}"
    );
    let base = base_dir();
    let Ok(scenario) = spec.to_scenario(&base) else {
        return Ok(());
    };
    if scenario.config().mesh.node_count() <= 64 {
        let tiny = spec
            .to_builder(&base)
            .expect("the spec composed once already")
            .message_counts(2, 8)
            .max_cycles(20_000)
            .build();
        if let Ok(tiny) = tiny {
            let _ = tiny.run();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random and mutated spec texts parse, round-trip, build and run
    /// without panicking.
    #[test]
    fn random_specs_never_panic(seed in any::<u64>()) {
        exercise(&spec_text(seed))?;
    }

    /// Random and mutated trace texts parse or fail with a typed error.
    #[test]
    fn random_traces_never_panic(seed in any::<u64>(), nodes in 0u32..12) {
        let _ = Trace::parse(&trace_text(seed), nodes);
    }
}

/// Inputs that once panicked (inside `Mesh` constructors, `lapses_traffic`,
/// table programming or the router's VC checks), allocated without bound
/// (a huge fault count) or made one workload poll generate millions of
/// messages (a huge load); each must now be a typed error.
#[test]
fn former_panics_are_typed_errors() {
    let parse_errors = [
        "topology = torus 2x4",
        "topology = mesh 1x1x1x1x1",
        "topology = mesh 65535x65535x2",
        "table = meta-blocks 1x1x1x1x1",
    ];
    for text in parse_errors {
        match ScenarioSpec::parse(text) {
            Err(SpecError::Parse { line: 1, .. }) => {}
            other => panic!("{text:?}: expected a line-1 parse error, got {other:?}"),
        }
    }
    let scenario_errors = [
        "lengths = fixed 0",
        "lengths = uniform 5 3",
        "lengths = bimodal 5 10 1.5",
        "topology = mesh 1x1",
        "topology = mesh 4x8\npattern = transpose",
        "topology = mesh 3x5\npattern = bit-reversal",
        "topology = mesh 3x5\npattern = perfect-shuffle",
        "topology = mesh 1x4\npattern = tornado",
        "topology = mesh 4x4\npattern = hotspot 16 0.2",
        "topology = mesh 4x4\npattern = hotspot 3 1.5",
        // Found by the property tests above.
        "topology = torus 4x4\nvcs = 4 2\ntable = interval",
        "topology = torus 4x4\nvcs = 4 2\ntable = meta-rows",
        "topology = mesh 4x4\ntable = meta-blocks 3x3",
        "topology = mesh 4x4\nfault-count = 0\ntable = meta-rows",
        "topology = torus 4x4\nalgorithm = dimension-order",
        "topology = mesh 4x4\nload = 1e9",
        "topology = mesh 1x5x4x4\nfault-count = 4000000000",
    ];
    for text in scenario_errors {
        let spec = ScenarioSpec::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        match spec.to_scenario(&base_dir()) {
            Err(SpecError::Scenario(_)) => {}
            other => panic!("{text:?}: expected a scenario error, got {other:?}"),
        }
    }
}
