//! `ScenarioSpec` — the text form of a [`Scenario`], so sweeps can be
//! driven from committed spec files.
//!
//! The format is deliberately tiny and hand-rolled (no serde in this
//! workspace): one `key = value` per line, `#` comments, every key
//! optional with the paper-reference default. A spec is a codec for the
//! unvalidated configuration a [`ScenarioBuilder`] holds, with one arm
//! per key each way: [`ScenarioSpec::parse`] applies each key to the
//! reference configuration [`Scenario::builder`] starts from, and
//! [`ScenarioSpec::format`] renders the keys back in the order of `KEYS`.
//! Selector values are the `name()`s of the selector types. The two
//! round-trip exactly —
//! `parse(format(spec)) == spec` — which the `scenario_specs` tests and
//! the CI `scenarios` step enforce on the committed `examples/scenarios/
//! *.scn` files.
//!
//! ```text
//! # LAPSES scenario
//! topology = mesh 16x16
//! faults = (85 86), (120 136)           # optional dead links ...
//! # fault-count = 3                     # ... or a seeded random set
//! # fault-seed = 7
//! lookahead = true
//! vcs = 4 1                             # total and escape VCs per port
//! path-selection = static-xy
//! algorithm = duato
//! table = full                          # or: meta-blocks 4x4
//! pattern = uniform                     # or: hotspot 27 0.05
//! workload = synthetic exponential     # or: bursty 8 2 | trace path.trace
//! load = 0.2
//! lengths = fixed 20                   # or: uniform 5 50 | bimodal 5 50 0.2
//! warmup = 2000
//! measure = 20000
//! seed = 20260611
//! link-delay = 1                       # 0 gives the paper's Table 2 timing
//! ```

use crate::experiment::{
    Algorithm, ArrivalKind, FaultsConfig, Pattern, SimConfig, TableKind, WorkloadKind,
};
use crate::scenario::{Scenario, ScenarioBuilder, ScenarioError};
use lapses_core::psh::PathSelection;
use lapses_topology::Mesh;
use lapses_traffic::{LengthDistribution, Trace, TraceError};
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

/// A parsed scenario spec: the unvalidated configuration of a
/// [`ScenarioBuilder`], with the reference value for every absent key.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    config: Box<SimConfig>,
    /// The `workload = trace <path>` path as written (relative paths
    /// resolve against the base directory given to
    /// [`ScenarioSpec::to_builder`], which is the only place the file is
    /// opened).
    trace: Option<String>,
}

impl Default for ScenarioSpec {
    /// The reference scenario [`Scenario::builder`] starts from.
    fn default() -> Self {
        ScenarioSpec {
            config: Box::new(SimConfig::reference()),
            trace: None,
        }
    }
}

/// Why a spec failed to parse or build.
#[derive(Debug)]
pub enum SpecError {
    /// A syntax or value problem in the spec text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The referenced trace file failed to load.
    Trace(TraceError),
    /// The composed scenario failed validation.
    Scenario(ScenarioError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, message } => {
                write!(f, "scenario spec line {line}: {message}")
            }
            SpecError::Trace(e) => write!(f, "scenario spec: {e}"),
            SpecError::Scenario(e) => write!(f, "scenario spec: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TraceError> for SpecError {
    fn from(e: TraceError) -> Self {
        SpecError::Trace(e)
    }
}

impl From<ScenarioError> for SpecError {
    fn from(e: ScenarioError) -> Self {
        SpecError::Scenario(e)
    }
}

/// Every key, in the order [`ScenarioSpec::format`] writes them; a spec
/// may give them in any order.
const KEYS: [&str; 17] = [
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
    "link-delay",
];

fn shape_to_string(shape: &[u16]) -> String {
    shape
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Parses a `KxKx…` shape into a valid mesh (or torus); the error says
/// why not.
fn parse_mesh(text: &str, torus: bool) -> Result<Mesh, String> {
    let shape: Vec<u16> = text
        .split('x')
        .map(|k| k.parse().ok())
        .collect::<Option<_>>()
        .ok_or_else(|| format!("bad shape {text:?}"))?;
    Mesh::new(&shape, torus).map_err(|e| format!("bad shape {text:?}: {e}"))
}

/// Parses one value; the error says `what` was bad.
fn parse_as<T: FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("bad {what} {text:?}"))
}

/// Parses a finite number: NaN would break the exact round trip, and no
/// key has a meaningful infinite value.
fn parse_finite(text: &str, what: &str) -> Result<f64, String> {
    let finite = text.parse().ok().filter(|x: &f64| x.is_finite());
    finite.ok_or_else(|| format!("bad {what} {text:?}"))
}

/// The selectors with parameters, for their names.
const HOTSPOT: Pattern = Pattern::Hotspot {
    node: 0,
    probability: 0.0,
};
const META_BLOCKS: TableKind = TableKind::MetaBlocks(Vec::new());

/// The entry of a selector's spelling table whose `name()` is `text`.
fn named<T: Clone>(
    all: &[T],
    name: impl Fn(&T) -> &'static str,
    text: &str,
    what: &str,
) -> Result<T, String> {
    all.iter()
        .find(|v| name(v) == text)
        .cloned()
        .ok_or_else(|| format!("unknown {what} {text:?}"))
}

impl ScenarioSpec {
    /// Parses spec text. Unknown keys, duplicate keys and malformed
    /// values are reported with their line number.
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let mut spec = ScenarioSpec::default();
        let mut seen: Vec<&str> = Vec::new();
        // The line of a `fault-seed`, for the error when no `fault-count`
        // ever shows up.
        let mut fault_seed_line = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let err = |message: String| SpecError::Parse { line, message };
            let body = raw.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let (key, value) = body
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got {body:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(err(format!("key {key:?} has no value")));
            }
            let canonical = KEYS
                .into_iter()
                .find(|k| *k == key)
                .ok_or_else(|| err(format!("unknown key {key:?}")))?;
            if seen.contains(&canonical) {
                return Err(err(format!("duplicate key {key:?}")));
            }
            spec.set(canonical, value, &seen).map_err(err)?;
            seen.push(canonical);
            if canonical == "fault-seed" {
                fault_seed_line = Some(line);
            }
        }
        match fault_seed_line {
            Some(line) if !seen.contains(&"fault-count") => Err(SpecError::Parse {
                line,
                message: "fault-seed needs a fault-count".into(),
            }),
            _ => Ok(spec),
        }
    }

    /// Applies one key's value, `seen` holding the keys before it.
    fn set(&mut self, key: &str, value: &str, seen: &[&str]) -> Result<(), String> {
        let c = &mut *self.config;
        let fields: Vec<&str> = value.split_whitespace().collect();
        match key {
            "topology" => {
                let [kind, shape] = fields[..] else {
                    return Err(format!(
                        "topology must be `mesh WxH` or `torus WxH`, got {value:?}"
                    ));
                };
                let torus = match kind {
                    "mesh" => false,
                    "torus" => true,
                    _ => return Err(format!("unknown topology kind {kind:?}")),
                };
                c.set_mesh(parse_mesh(shape, torus)?);
            }
            "faults" if seen.contains(&"fault-count") || seen.contains(&"fault-seed") => {
                return Err("explicit faults cannot be combined with fault-count/fault-seed".into())
            }
            "faults" => {
                let link = |part: &str| {
                    let part = part.trim();
                    let inner = part
                        .strip_prefix('(')
                        .and_then(|p| p.strip_suffix(')'))
                        .ok_or_else(|| format!("fault must be `(a b)`, got {part:?}"))?;
                    match inner.split_whitespace().collect::<Vec<_>>()[..] {
                        [a, b] => Ok((parse_as(a, "fault node")?, parse_as(b, "fault node")?)),
                        _ => Err(format!("fault must name two nodes, got {part:?}")),
                    }
                };
                c.faults =
                    FaultsConfig::Links(value.split(',').map(link).collect::<Result<_, _>>()?);
            }
            "fault-count" | "fault-seed" if seen.contains(&"faults") => {
                return Err(format!("{key} cannot be combined with explicit faults"))
            }
            "fault-count" => {
                // Seed 1 unless a fault-seed came first.
                let seed = match c.faults {
                    FaultsConfig::Random { seed, .. } => seed,
                    _ => 1,
                };
                let count = parse_as(value, "fault count")?;
                c.faults = FaultsConfig::Random { count, seed };
            }
            "fault-seed" => {
                // Before its fault-count, the count is a placeholder that
                // `parse` requires the count to replace.
                let count = match c.faults {
                    FaultsConfig::Random { count, .. } => count,
                    _ => 0,
                };
                let seed = parse_as(value, "fault seed")?;
                c.faults = FaultsConfig::Random { count, seed };
            }
            "lookahead" => {
                let lookahead = value
                    .parse()
                    .map_err(|_| format!("lookahead must be true/false, got {value:?}"))?;
                c.router = c.router.clone().with_lookahead(lookahead);
            }
            "vcs" => {
                let [total, escape] = fields[..] else {
                    return Err(format!("vcs must be `<total> <escape>`, got {value:?}"));
                };
                c.router.vcs_per_port = parse_as(total, "VC count")?;
                c.router.escape_vcs = parse_as(escape, "escape VC count")?;
            }
            "path-selection" => {
                c.router.path_selection =
                    named(&PathSelection::ALL, |p| p.name(), value, "path selection")?;
            }
            "algorithm" => c.algorithm = named(&Algorithm::ALL, |a| a.name(), value, "algorithm")?,
            "table" => {
                c.table = match fields[..] {
                    [kind, shape] if kind == META_BLOCKS.name() => {
                        TableKind::MetaBlocks(parse_mesh(shape, false)?.shape().to_vec())
                    }
                    _ => named(&TableKind::ALL, TableKind::name, value, "table scheme")?,
                }
            }
            "pattern" => {
                c.pattern = match fields[..] {
                    [kind, node, prob] if kind == HOTSPOT.name() => Pattern::Hotspot {
                        node: parse_as(node, "hotspot node")?,
                        probability: parse_finite(prob, "hotspot probability")?,
                    },
                    _ => named(&Pattern::ALL, |p| p.name(), value, "pattern")?,
                }
            }
            "workload" => match fields[..] {
                ["synthetic", arrivals] => {
                    let arrivals =
                        named(&ArrivalKind::ALL, |a| a.name(), arrivals, "arrival process")?;
                    c.workload = WorkloadKind::Synthetic { arrivals };
                }
                ["bursty", burst, gap] => {
                    let arrivals = ArrivalKind::OnOff {
                        burst_len: parse_as(burst, "burst length")?,
                        peak_gap: parse_finite(gap, "peak gap")?,
                    };
                    c.workload = WorkloadKind::Synthetic { arrivals };
                }
                ["trace"] => return Err("trace workload needs a path".into()),
                ["trace", ..] => self.trace = Some(value["trace".len()..].trim().to_string()),
                _ => return Err(format!("unknown workload {value:?}")),
            },
            "load" => c.load = parse_finite(value, "load")?,
            "lengths" => {
                c.lengths = match fields[..] {
                    ["fixed", n] => LengthDistribution::Fixed(parse_as(n, "length")?),
                    ["uniform", min, max] => LengthDistribution::UniformRange {
                        min: parse_as(min, "length")?,
                        max: parse_as(max, "length")?,
                    },
                    ["bimodal", short, long, fraction] => LengthDistribution::Bimodal {
                        short: parse_as(short, "length")?,
                        long: parse_as(long, "length")?,
                        long_fraction: parse_finite(fraction, "fraction")?,
                    },
                    _ => return Err(format!("unknown length distribution {value:?}")),
                }
            }
            "warmup" => c.warmup_msgs = parse_as(value, "warmup count")?,
            "measure" => c.measure_msgs = parse_as(value, "measure count")?,
            "seed" => c.seed = parse_as(value, "seed")?,
            "link-delay" => c.link_delay = parse_as(value, "link delay")?,
            _ => unreachable!("`parse` passes only KEYS"),
        }
        Ok(())
    }

    /// Reads and parses a spec file.
    pub fn load(path: impl AsRef<Path>) -> Result<ScenarioSpec, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Parse {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        ScenarioSpec::parse(&text)
    }

    /// Renders the spec in canonical form: every key in `KEYS` order, the
    /// fault keys only when faults are set. The round-trip
    /// `parse(format(spec)) == spec` holds exactly.
    pub fn format(&self) -> String {
        let c = &*self.config;
        let mut out = String::from("# LAPSES scenario\n");
        for key in KEYS {
            let value = match key {
                "topology" => {
                    let kind = if c.mesh.is_torus() { "torus" } else { "mesh" };
                    format!("{kind} {}", shape_to_string(c.mesh.shape()))
                }
                "faults" => match &c.faults {
                    FaultsConfig::Links(pairs) => pairs
                        .iter()
                        .map(|(a, b)| format!("({a} {b})"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    _ => continue,
                },
                "fault-count" => match c.faults {
                    FaultsConfig::Random { count, .. } => count.to_string(),
                    _ => continue,
                },
                "fault-seed" => match c.faults {
                    FaultsConfig::Random { seed, .. } => seed.to_string(),
                    _ => continue,
                },
                "lookahead" => c.router.pipeline.is_lookahead().to_string(),
                "vcs" => format!("{} {}", c.router.vcs_per_port, c.router.escape_vcs),
                "path-selection" => c.router.path_selection.name().to_string(),
                "algorithm" => c.algorithm.name().to_string(),
                "table" => match &c.table {
                    TableKind::MetaBlocks(shape) => {
                        format!("{} {}", c.table.name(), shape_to_string(shape))
                    }
                    other => other.name().to_string(),
                },
                "pattern" => match c.pattern {
                    Pattern::Hotspot { node, probability } => {
                        format!("{} {node} {probability}", c.pattern.name())
                    }
                    other => other.name().to_string(),
                },
                "workload" => match (&self.trace, &c.workload) {
                    (Some(path), _) => format!("trace {path}"),
                    (None, WorkloadKind::Synthetic { arrivals }) => match arrivals {
                        ArrivalKind::OnOff {
                            burst_len,
                            peak_gap,
                        } => {
                            format!("bursty {burst_len} {peak_gap}")
                        }
                        other => format!("synthetic {}", other.name()),
                    },
                    (_, WorkloadKind::Trace(_)) => unreachable!("a spec names its trace by path"),
                },
                "load" => c.load.to_string(),
                "lengths" => match c.lengths {
                    LengthDistribution::Fixed(n) => format!("fixed {n}"),
                    LengthDistribution::UniformRange { min, max } => {
                        format!("uniform {min} {max}")
                    }
                    LengthDistribution::Bimodal {
                        short,
                        long,
                        long_fraction,
                    } => format!("bimodal {short} {long} {long_fraction}"),
                },
                "warmup" => c.warmup_msgs.to_string(),
                "measure" => c.measure_msgs.to_string(),
                "seed" => c.seed.to_string(),
                "link-delay" => c.link_delay.to_string(),
                _ => unreachable!("every key has an arm"),
            };
            out.push_str(&format!("{key} = {value}\n"));
        }
        out
    }

    /// The spec's [`ScenarioBuilder`], loading any trace file relative to
    /// `base_dir`. Call `.build()` on the result (or use
    /// [`ScenarioSpec::to_scenario`]) to validate.
    pub fn to_builder(&self, base_dir: &Path) -> Result<ScenarioBuilder, SpecError> {
        let builder = ScenarioBuilder {
            config: self.config.clone(),
        };
        Ok(match &self.trace {
            None => builder,
            Some(path) => {
                let nodes = self.config.mesh.node_count() as u32;
                builder.trace(Arc::new(Trace::load(base_dir.join(path), nodes)?))
            }
        })
    }

    /// Composes and validates the spec into a runnable [`Scenario`].
    pub fn to_scenario(&self, base_dir: &Path) -> Result<Scenario, SpecError> {
        Ok(self.to_builder(base_dir)?.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> ScenarioSpec {
        ScenarioSpec::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
    }

    /// `parse(format(spec)) == spec`, and `format` is a fixed point.
    fn assert_round_trips(spec: &ScenarioSpec) {
        let text = spec.format();
        let again = parse(&text);
        assert_eq!(*spec, again, "{text}");
        assert_eq!(text, again.format());
    }

    #[test]
    fn default_spec_round_trips_and_builds_the_reference() {
        let spec = ScenarioSpec::default();
        assert_round_trips(&spec);
        let scenario = spec.to_scenario(Path::new(".")).unwrap();
        let reference = Scenario::builder().build().unwrap();
        assert_eq!(scenario.config(), reference.config());
    }

    #[test]
    fn empty_text_is_all_defaults() {
        assert_eq!(parse(""), ScenarioSpec::default());
        assert_eq!(parse("# only comments\n\n"), ScenarioSpec::default());
    }

    #[test]
    fn rich_spec_round_trips() {
        let spec = parse(
            "topology = torus 8x8\nlookahead = true\nvcs = 4 2\npath-selection = lru\n\
             table = meta-blocks 4x4\npattern = hotspot 27 0.05\nworkload = bursty 8 2.5\n\
             load = 0.35\nlengths = bimodal 5 50 0.2\nwarmup = 123\nmeasure = 4567\nseed = 42\n",
        );
        assert_round_trips(&spec);
        let c = &spec.config;
        assert!(c.mesh.is_torus() && c.router.pipeline.is_lookahead());
        assert_eq!((c.router.vcs_per_port, c.router.escape_vcs), (4, 2));
        assert_eq!(c.table, TableKind::MetaBlocks(vec![4, 4]));
        assert_eq!(
            c.workload,
            WorkloadKind::Synthetic {
                arrivals: ArrivalKind::OnOff {
                    burst_len: 8,
                    peak_gap: 2.5
                }
            }
        );
    }

    #[test]
    fn link_delay_key_sets_the_delay() {
        assert_eq!(ScenarioSpec::default().config.link_delay, 1);
        let spec = parse("topology = mesh 4x4\nlink-delay = 0\n");
        assert_eq!(spec.config.link_delay, 0);
        assert_round_trips(&spec);
        assert!(spec.format().contains("link-delay = 0\n"));
        let built = spec.to_scenario(Path::new(".")).unwrap();
        assert_eq!(built.config().link_delay, 0);
        for bad in ["-1", "1.5", "x", "18446744073709551616"] {
            let text = format!("link-delay = {bad}");
            assert!(
                matches!(
                    ScenarioSpec::parse(&text),
                    Err(SpecError::Parse { line: 1, .. })
                ),
                "{text}"
            );
        }
        let too_long = parse("link-delay = 257");
        assert!(matches!(
            too_long.to_scenario(Path::new(".")),
            Err(SpecError::Scenario(ScenarioError::LinkDelay {
                delay: 257,
                ..
            }))
        ));
    }

    #[test]
    fn every_selector_spelling_parses_to_its_variant() {
        for algorithm in Algorithm::ALL {
            let spec = parse(&format!("algorithm = {}", algorithm.name()));
            assert_eq!(spec.config.algorithm, algorithm);
            assert_round_trips(&spec);
        }
        for psh in PathSelection::ALL {
            let spec = parse(&format!("path-selection = {}", psh.name()));
            assert_eq!(spec.config.router.path_selection, psh);
            assert_round_trips(&spec);
        }
        for table in TableKind::ALL {
            let spec = parse(&format!("table = {}", table.name()));
            assert_eq!(spec.config.table, table);
            assert_round_trips(&spec);
        }
        for pattern in Pattern::ALL {
            let spec = parse(&format!("pattern = {}", pattern.name()));
            assert_eq!(spec.config.pattern, pattern);
            assert_round_trips(&spec);
        }
        for arrivals in ArrivalKind::ALL {
            let spec = parse(&format!("workload = synthetic {}", arrivals.name()));
            assert_eq!(spec.config.workload, WorkloadKind::Synthetic { arrivals });
            assert_round_trips(&spec);
        }
    }

    #[test]
    fn router_key_is_retired() {
        // `router = deterministic` was `vcs = 4 0`; the key is gone.
        let err = ScenarioSpec::parse("router = adaptive").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        let det = parse("vcs = 4 0").to_builder(Path::new(".")).unwrap();
        assert_eq!(
            det.config.router,
            lapses_core::RouterConfig::paper_deterministic()
        );
    }

    #[test]
    fn trace_paths_survive_the_round_trip() {
        let spec = parse("topology = mesh 4x4\nworkload = trace fixtures/small.trace\n");
        assert_eq!(spec.trace.as_deref(), Some("fixtures/small.trace"));
        assert_round_trips(&spec);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = ScenarioSpec::parse("load = 0.2\nbogus-key = 3\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("bogus-key"), "{msg}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = ScenarioSpec::parse("load = 0.2\nload = 0.3\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn malformed_values_are_rejected() {
        for bad in [
            "topology = blob 4x4",
            "topology = mesh 4y4",
            "lookahead = yes",
            "vcs = 4",
            "algorithm = zigzag",
            "path-selection = lfu per-flit",
            "table = meta-rows 4x4",
            "pattern = hotspot 3",
            "workload = synthetic",
            "workload = bursty 8",
            "workload = trace",
            "workload = synthetic bursty 8 2",
            "workload = tracefoo x",
            "pattern = hotspot",
            "table = meta-blocks",
            "topology = mesh",
            "lengths = uniform 5",
            "load = heavy",
            "lengths = fixed many",
            "just words",
        ] {
            let err = ScenarioSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, SpecError::Parse { line: 1, .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn invalid_shapes_and_non_finite_numbers_are_parse_errors() {
        for (bad, says) in [
            ("topology = torus 2x4", "at least 3"),
            ("topology = mesh 1x1x1x1x1", "dimensionality"),
            ("topology = mesh 65535x65535x2", "too large"),
            ("topology = mesh 0x4", "positive"),
            ("table = meta-blocks 1x1x1x1x1", "dimensionality"),
            ("load = nan", "bad load"),
            ("load = inf", "bad load"),
            ("pattern = hotspot 3 NaN", "probability"),
            ("workload = bursty 8 nan", "peak gap"),
            ("lengths = bimodal 1 2 nan", "fraction"),
        ] {
            let err = ScenarioSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, SpecError::Parse { line: 1, .. }) && err.to_string().contains(says),
                "{bad:?} gave {err}"
            );
        }
    }

    #[test]
    fn fault_links_round_trip() {
        let spec =
            parse("topology = mesh 4x4\nfaults = (1 2), (5 9)\nalgorithm = up-down-adaptive\n");
        assert_eq!(
            spec.config.faults,
            FaultsConfig::Links(vec![(1, 2), (5, 9)])
        );
        let text = spec.format();
        assert!(text.contains("faults = (1 2), (5 9)"), "{text}");
        assert!(text.contains("algorithm = up-down-adaptive"), "{text}");
        assert_round_trips(&spec);
        assert!(spec.to_scenario(Path::new(".")).is_ok());
    }

    #[test]
    fn empty_explicit_fault_list_formats_parseably() {
        // A fault-free spec writes no fault key (an empty `faults =` value
        // would fail to re-parse), and a spec cannot name an empty list.
        let text = ScenarioSpec::default().format();
        assert!(!text.contains("fault"), "{text}");
        assert_eq!(parse(&text).config.faults, FaultsConfig::None);
        assert!(ScenarioSpec::parse("faults =").is_err());
    }

    #[test]
    fn random_faults_round_trip() {
        let spec =
            parse("topology = mesh 8x8\nfault-count = 3\nfault-seed = 7\nalgorithm = up-down\n");
        assert_eq!(
            spec.config.faults,
            FaultsConfig::Random { count: 3, seed: 7 }
        );
        let text = spec.format();
        assert!(text.contains("fault-count = 3") && text.contains("fault-seed = 7"));
        assert_round_trips(&spec);
        // fault-seed may precede fault-count.
        let reordered =
            "fault-seed = 7\nfault-count = 3\nalgorithm = up-down\ntopology = mesh 8x8\n";
        assert_eq!(parse(reordered), spec);
        // Omitted fault-seed defaults to 1.
        let defaulted = parse("fault-count = 2\n");
        assert_eq!(
            defaulted.config.faults,
            FaultsConfig::Random { count: 2, seed: 1 }
        );
    }

    #[test]
    fn malformed_fault_clauses_are_rejected() {
        // Each text with the line it is rejected on.
        for (bad, at) in [
            ("faults = 1 2", 1),
            ("faults = (1)", 1),
            ("faults = (1 2 3)", 1),
            ("faults = (a b)", 1),
            ("faults = (0 1),", 1),
            ("fault-count = lots", 1),
            ("fault-seed = 3", 1), // seed without a count
            ("faults = (0 1)\nfault-count = 2", 2),
            ("fault-count = 2\nfaults = (0 1)", 2),
            ("faults = (0 1)\nfault-seed = 9", 2),
            ("fault-seed = 3\nfaults = (0 1)", 2),
        ] {
            let err = ScenarioSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, SpecError::Parse { line, .. } if line == at),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn vc_slot_budget_errors_surface_as_scenario_errors() {
        let spec = parse("topology = mesh 4x4\nvcs = 13 1\n");
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Scenario(ScenarioError::VcSlots { ports: 5, vcs: 13 })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn node_count_limit_errors_surface_as_scenario_errors() {
        let spec = parse("topology = mesh 2048x2048\n");
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Scenario(ScenarioError::TooManyNodes {
                    nodes: 4_194_304,
                    limit: 4_194_304
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn fault_validation_errors_surface_as_scenario_errors() {
        // A diagonal pair names no link.
        let spec = parse("topology = mesh 4x4\nfaults = (0 5)\nalgorithm = up-down-adaptive\n");
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(matches!(err, SpecError::Scenario(_)), "{err:?}");
        assert!(err.to_string().contains("names no link"));
    }

    #[test]
    fn scenario_validation_errors_surface() {
        // A torus with the default single escape VC is invalid.
        let spec = parse("topology = torus 4x4\n");
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(matches!(err, SpecError::Scenario(_)), "{err:?}");
    }

    #[test]
    fn missing_trace_file_surfaces_as_trace_error() {
        let spec = parse("workload = trace does-not-exist.trace\n");
        let err = spec.to_scenario(Path::new("/nonexistent")).unwrap_err();
        assert!(matches!(err, SpecError::Trace(_)), "{err:?}");
    }
}
