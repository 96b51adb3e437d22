//! `ScenarioSpec` — the text form of a [`Scenario`], so sweeps can be
//! driven from committed spec files.
//!
//! The format is deliberately tiny and hand-rolled (no serde in this
//! workspace): one `key = value` per line, `#` comments, every key
//! optional with the paper-reference default. [`ScenarioSpec::parse`] and
//! [`ScenarioSpec::format`] round-trip exactly —
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
//! router = adaptive
//! lookahead = true
//! vcs = 4 1
//! path-selection = static-xy
//! algorithm = duato
//! table = full
//! pattern = uniform
//! workload = synthetic exponential     # or: bursty 8 2 | trace path.trace
//! load = 0.2
//! lengths = fixed 20                   # or: uniform 5 50 | bimodal 5 50 0.2
//! warmup = 2000
//! measure = 20000
//! seed = 20260611
//! ```

use crate::experiment::{Algorithm, ArrivalKind, FaultsConfig, Pattern, TableKind};
use crate::scenario::{Scenario, ScenarioBuilder, ScenarioError};
use lapses_core::psh::{CreditAggregate, LfuCounting, PathSelection};
use lapses_core::RouterConfig;
use lapses_topology::Mesh;
use lapses_traffic::{LengthDistribution, Trace, TraceError};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Router microarchitecture preset named in a spec file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPreset {
    /// [`RouterConfig::paper_adaptive`]: 4 VCs, 1 escape.
    Adaptive,
    /// [`RouterConfig::paper_deterministic`]: 4 VCs, no escape class.
    Deterministic,
}

impl RouterPreset {
    fn name(self) -> &'static str {
        match self {
            RouterPreset::Adaptive => "adaptive",
            RouterPreset::Deterministic => "deterministic",
        }
    }

    fn build(self) -> RouterConfig {
        match self {
            RouterPreset::Adaptive => RouterConfig::paper_adaptive(),
            RouterPreset::Deterministic => RouterConfig::paper_deterministic(),
        }
    }
}

/// The workload clause of a spec. Trace workloads carry the file path as
/// written; the file is only opened by [`ScenarioSpec::to_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// `workload = synthetic <arrivals>`.
    Synthetic(ArrivalKind),
    /// `workload = bursty <burst_len> <peak_gap>`.
    Bursty {
        /// Mean messages per ON burst.
        burst_len: u32,
        /// Cycles between messages within a burst.
        peak_gap: f64,
    },
    /// `workload = trace <path>` (relative paths resolve against the
    /// base directory passed to [`ScenarioSpec::to_scenario`]).
    Trace(String),
}

/// A parsed scenario spec: the typed value of every key, with paper
/// defaults for the absent ones.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Topology: torus flag plus per-dimension extents.
    pub torus: bool,
    /// Mesh shape, e.g. `[16, 16]`.
    pub shape: Vec<u16>,
    /// Dead links: explicit `faults = (a b), ...` pairs or a seeded
    /// random set (`fault-count` / `fault-seed`).
    pub faults: FaultsConfig,
    /// Router preset.
    pub router: RouterPreset,
    /// LA-PROUD vs PROUD.
    pub lookahead: bool,
    /// Total and escape VCs per port, when overriding the preset.
    pub vcs: Option<(usize, usize)>,
    /// Path-selection heuristic.
    pub path_selection: PathSelection,
    /// Routing algorithm.
    pub algorithm: Algorithm,
    /// Table storage scheme.
    pub table: TableKind,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Message source.
    pub workload: WorkloadSpec,
    /// Normalized offered load.
    pub load: f64,
    /// Message length distribution.
    pub lengths: LengthDistribution,
    /// Warm-up injections.
    pub warmup: u64,
    /// Measured injections.
    pub measure: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            torus: false,
            shape: vec![16, 16],
            faults: FaultsConfig::None,
            router: RouterPreset::Adaptive,
            lookahead: false,
            vcs: None,
            path_selection: PathSelection::StaticXy,
            algorithm: Algorithm::Duato,
            table: TableKind::Full,
            pattern: Pattern::Uniform,
            workload: WorkloadSpec::Synthetic(ArrivalKind::Exponential),
            load: 0.2,
            lengths: LengthDistribution::PAPER_DEFAULT,
            warmup: 2_000,
            measure: 20_000,
            seed: 20260611,
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

fn shape_to_string(shape: &[u16]) -> String {
    shape
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Parses a `KxKx…` shape that names a valid mesh (or torus); the error
/// says why not.
fn parse_shape(text: &str, torus: bool) -> Result<Vec<u16>, String> {
    let shape: Vec<u16> = text
        .split('x')
        .map(|k| k.parse().ok())
        .collect::<Option<_>>()
        .ok_or_else(|| format!("bad shape {text:?}"))?;
    Mesh::new(&shape, torus).map_err(|e| format!("bad shape {text:?}: {e}"))?;
    Ok(shape)
}

/// Parses a finite number: NaN would break the exact round trip, and no
/// key has a meaningful infinite value.
fn parse_finite(text: &str) -> Option<f64> {
    text.parse().ok().filter(|x: &f64| x.is_finite())
}

impl ScenarioSpec {
    /// Parses spec text. Unknown keys, duplicate keys and malformed
    /// values are reported with their line number.
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let mut spec = ScenarioSpec::default();
        let mut seen: Vec<&str> = Vec::new();
        // `fault-seed` may precede `fault-count` in the file; remember it
        // (with its line, for the error when no count ever shows up) and
        // fold it in after the scan.
        let mut fault_seed: Option<(u64, usize)> = None;
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
            let canonical = [
                "topology",
                "faults",
                "fault-count",
                "fault-seed",
                "router",
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
            ]
            .iter()
            .find(|k| **k == key)
            .copied()
            .ok_or_else(|| err(format!("unknown key {key:?}")))?;
            if seen.contains(&canonical) {
                return Err(err(format!("duplicate key {key:?}")));
            }
            seen.push(canonical);

            let fields: Vec<&str> = value.split_whitespace().collect();
            match canonical {
                "topology" => {
                    let [kind, shape] = fields.as_slice() else {
                        return Err(err(format!(
                            "topology must be `mesh WxH` or `torus WxH`, got {value:?}"
                        )));
                    };
                    spec.torus = match *kind {
                        "mesh" => false,
                        "torus" => true,
                        other => return Err(err(format!("unknown topology kind {other:?}"))),
                    };
                    spec.shape = parse_shape(shape, spec.torus).map_err(err)?;
                }
                "faults" => {
                    if seen.contains(&"fault-count") || seen.contains(&"fault-seed") {
                        return Err(err(
                            "explicit faults cannot be combined with fault-count/fault-seed".into(),
                        ));
                    }
                    let mut pairs = Vec::new();
                    for part in value.split(',') {
                        let part = part.trim();
                        let inner = part
                            .strip_prefix('(')
                            .and_then(|p| p.strip_suffix(')'))
                            .ok_or_else(|| err(format!("fault must be `(a b)`, got {part:?}")))?;
                        let nums: Vec<&str> = inner.split_whitespace().collect();
                        let [a, b] = nums.as_slice() else {
                            return Err(err(format!("fault must name two nodes, got {part:?}")));
                        };
                        let a = a
                            .parse()
                            .map_err(|_| err(format!("bad fault node {a:?}")))?;
                        let b = b
                            .parse()
                            .map_err(|_| err(format!("bad fault node {b:?}")))?;
                        pairs.push((a, b));
                    }
                    spec.faults = FaultsConfig::Links(pairs);
                }
                "fault-count" => {
                    if seen.contains(&"faults") {
                        return Err(err(
                            "fault-count cannot be combined with explicit faults".into()
                        ));
                    }
                    let count = value
                        .parse()
                        .map_err(|_| err(format!("bad fault count {value:?}")))?;
                    // Default seed 1; a fault-seed key (before or after)
                    // overrides it below.
                    spec.faults = FaultsConfig::Random { count, seed: 1 };
                }
                "fault-seed" => {
                    if seen.contains(&"faults") {
                        return Err(err(
                            "fault-seed cannot be combined with explicit faults".into()
                        ));
                    }
                    let seed = value
                        .parse()
                        .map_err(|_| err(format!("bad fault seed {value:?}")))?;
                    fault_seed = Some((seed, line));
                }
                "router" => {
                    spec.router = match value {
                        "adaptive" => RouterPreset::Adaptive,
                        "deterministic" => RouterPreset::Deterministic,
                        other => return Err(err(format!("unknown router preset {other:?}"))),
                    };
                }
                "lookahead" => {
                    spec.lookahead = value
                        .parse()
                        .map_err(|_| err(format!("lookahead must be true/false, got {value:?}")))?;
                }
                "vcs" => {
                    let [total, escape] = fields.as_slice() else {
                        return Err(err(format!(
                            "vcs must be `<total> <escape>`, got {value:?}"
                        )));
                    };
                    let total = total
                        .parse()
                        .map_err(|_| err(format!("bad VC count {total:?}")))?;
                    let escape = escape
                        .parse()
                        .map_err(|_| err(format!("bad escape VC count {escape:?}")))?;
                    spec.vcs = Some((total, escape));
                }
                "path-selection" => {
                    spec.path_selection = match value {
                        "static-xy" => PathSelection::StaticXy,
                        "random" => PathSelection::Random,
                        "min-mux" => PathSelection::MinMux,
                        "lfu" => PathSelection::Lfu(LfuCounting::default()),
                        "lru" => PathSelection::Lru,
                        "max-credit" => PathSelection::MaxCredit(CreditAggregate::default()),
                        other => return Err(err(format!("unknown path selection {other:?}"))),
                    };
                }
                "algorithm" => {
                    spec.algorithm = match value {
                        "dimension-order" => Algorithm::DimensionOrder,
                        "duato" => Algorithm::Duato,
                        "north-last" => Algorithm::NorthLast,
                        "west-first" => Algorithm::WestFirst,
                        "negative-first" => Algorithm::NegativeFirst,
                        "up-down" => Algorithm::UpDown,
                        "up-down-adaptive" => Algorithm::UpDownAdaptive,
                        other => return Err(err(format!("unknown algorithm {other:?}"))),
                    };
                }
                "table" => {
                    spec.table = match fields.as_slice() {
                        ["full"] => TableKind::Full,
                        ["economical"] => TableKind::Economical,
                        ["meta-rows"] => TableKind::MetaRows,
                        ["interval"] => TableKind::Interval,
                        ["meta-blocks", shape] => {
                            TableKind::MetaBlocks(parse_shape(shape, false).map_err(err)?)
                        }
                        _ => return Err(err(format!("unknown table scheme {value:?}"))),
                    };
                }
                "pattern" => {
                    spec.pattern = match fields.as_slice() {
                        ["uniform"] => Pattern::Uniform,
                        ["transpose"] => Pattern::Transpose,
                        ["bit-reversal"] => Pattern::BitReversal,
                        ["perfect-shuffle"] => Pattern::PerfectShuffle,
                        ["bit-complement"] => Pattern::BitComplement,
                        ["tornado"] => Pattern::Tornado,
                        ["nearest-neighbor"] => Pattern::NearestNeighbor,
                        ["hotspot", node, prob] => Pattern::Hotspot {
                            node: node
                                .parse()
                                .map_err(|_| err(format!("bad hotspot node {node:?}")))?,
                            probability: parse_finite(prob)
                                .ok_or_else(|| err(format!("bad hotspot probability {prob:?}")))?,
                        },
                        _ => return Err(err(format!("unknown pattern {value:?}"))),
                    };
                }
                "workload" => {
                    spec.workload = match fields.as_slice() {
                        ["synthetic", arrivals] => WorkloadSpec::Synthetic(match *arrivals {
                            "exponential" => ArrivalKind::Exponential,
                            "bernoulli" => ArrivalKind::Bernoulli,
                            "periodic" => ArrivalKind::Periodic,
                            other => return Err(err(format!("unknown arrival process {other:?}"))),
                        }),
                        ["bursty", burst, gap] => WorkloadSpec::Bursty {
                            burst_len: burst
                                .parse()
                                .map_err(|_| err(format!("bad burst length {burst:?}")))?,
                            peak_gap: parse_finite(gap)
                                .ok_or_else(|| err(format!("bad peak gap {gap:?}")))?,
                        },
                        [kind, ..] if *kind == "trace" => {
                            let path = value["trace".len()..].trim();
                            if path.is_empty() {
                                return Err(err("trace workload needs a path".into()));
                            }
                            WorkloadSpec::Trace(path.to_string())
                        }
                        _ => return Err(err(format!("unknown workload {value:?}"))),
                    };
                }
                "load" => {
                    spec.load =
                        parse_finite(value).ok_or_else(|| err(format!("bad load {value:?}")))?;
                }
                "lengths" => {
                    spec.lengths = match fields.as_slice() {
                        ["fixed", n] => LengthDistribution::Fixed(
                            n.parse().map_err(|_| err(format!("bad length {n:?}")))?,
                        ),
                        ["uniform", lo, hi] => LengthDistribution::UniformRange {
                            min: lo.parse().map_err(|_| err(format!("bad length {lo:?}")))?,
                            max: hi.parse().map_err(|_| err(format!("bad length {hi:?}")))?,
                        },
                        ["bimodal", s, l, frac] => LengthDistribution::Bimodal {
                            short: s.parse().map_err(|_| err(format!("bad length {s:?}")))?,
                            long: l.parse().map_err(|_| err(format!("bad length {l:?}")))?,
                            long_fraction: parse_finite(frac)
                                .ok_or_else(|| err(format!("bad fraction {frac:?}")))?,
                        },
                        _ => return Err(err(format!("unknown length distribution {value:?}"))),
                    };
                }
                "warmup" => {
                    spec.warmup = value
                        .parse()
                        .map_err(|_| err(format!("bad warmup count {value:?}")))?;
                }
                "measure" => {
                    spec.measure = value
                        .parse()
                        .map_err(|_| err(format!("bad measure count {value:?}")))?;
                }
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| err(format!("bad seed {value:?}")))?;
                }
                _ => unreachable!("key was canonicalized above"),
            }
        }
        if let Some((seed, line)) = fault_seed {
            match &mut spec.faults {
                FaultsConfig::Random { seed: s, .. } => *s = seed,
                _ => {
                    return Err(SpecError::Parse {
                        line,
                        message: "fault-seed needs a fault-count".into(),
                    })
                }
            }
        }
        Ok(spec)
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

    /// Renders the spec in canonical form: every key, fixed order. The
    /// round-trip `parse(format(spec)) == spec` holds exactly.
    pub fn format(&self) -> String {
        let mut out = String::from("# LAPSES scenario\n");
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv(
            "topology",
            format!(
                "{} {}",
                if self.torus { "torus" } else { "mesh" },
                shape_to_string(&self.shape)
            ),
        );
        match &self.faults {
            FaultsConfig::None => {}
            // An empty explicit list means "no faults": skip the key, or
            // `faults = ` (no value) would fail to re-parse.
            FaultsConfig::Links(pairs) if pairs.is_empty() => {}
            FaultsConfig::Links(pairs) => kv(
                "faults",
                pairs
                    .iter()
                    .map(|(a, b)| format!("({a} {b})"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            FaultsConfig::Random { count, seed } => {
                kv("fault-count", count.to_string());
                kv("fault-seed", seed.to_string());
            }
        }
        kv("router", self.router.name().to_string());
        kv("lookahead", self.lookahead.to_string());
        if let Some((total, escape)) = self.vcs {
            kv("vcs", format!("{total} {escape}"));
        }
        kv("path-selection", self.path_selection.name().to_string());
        kv("algorithm", self.algorithm.name().to_string());
        kv(
            "table",
            match &self.table {
                TableKind::MetaBlocks(shape) => {
                    format!("meta-blocks {}", shape_to_string(shape))
                }
                other => other.name().to_string(),
            },
        );
        kv(
            "pattern",
            match self.pattern {
                Pattern::Hotspot { node, probability } => {
                    format!("hotspot {node} {probability}")
                }
                other => other.name().to_string(),
            },
        );
        kv(
            "workload",
            match &self.workload {
                WorkloadSpec::Synthetic(arrivals) => format!("synthetic {}", arrivals.name()),
                WorkloadSpec::Bursty {
                    burst_len,
                    peak_gap,
                } => format!("bursty {burst_len} {peak_gap}"),
                WorkloadSpec::Trace(path) => format!("trace {path}"),
            },
        );
        kv("load", self.load.to_string());
        kv(
            "lengths",
            match self.lengths {
                LengthDistribution::Fixed(n) => format!("fixed {n}"),
                LengthDistribution::UniformRange { min, max } => format!("uniform {min} {max}"),
                LengthDistribution::Bimodal {
                    short,
                    long,
                    long_fraction,
                } => format!("bimodal {short} {long} {long_fraction}"),
            },
        );
        kv("warmup", self.warmup.to_string());
        kv("measure", self.measure.to_string());
        kv("seed", self.seed.to_string());
        out
    }

    /// Composes the spec into a [`ScenarioBuilder`], loading any trace
    /// file relative to `base_dir`. Call `.build()` on the result (or use
    /// [`ScenarioSpec::to_scenario`]) to validate.
    pub fn to_builder(&self, base_dir: &Path) -> Result<ScenarioBuilder, SpecError> {
        // A parsed shape is always valid; a hand-built spec may not be.
        let mesh = Mesh::new(&self.shape, self.torus).map_err(|e| SpecError::Parse {
            line: 0,
            message: format!("bad topology: {e}"),
        })?;
        let mut router = self.router.build().with_lookahead(self.lookahead);
        if let Some((total, escape)) = self.vcs {
            router.vcs_per_port = total;
            router.escape_vcs = escape;
        }
        router.path_selection = self.path_selection;

        let builder = Scenario::builder().topology(mesh.clone()).router(router);
        let builder = match &self.faults {
            FaultsConfig::None => builder,
            FaultsConfig::Links(pairs) => builder.faults(pairs),
            FaultsConfig::Random { count, seed } => builder.random_faults(*count, *seed),
        };
        let mut builder = builder
            .algorithm(self.algorithm)
            .table(self.table.clone())
            .pattern(self.pattern)
            .load(self.load)
            .lengths(self.lengths)
            .message_counts(self.warmup, self.measure)
            .seed(self.seed);
        builder = match &self.workload {
            WorkloadSpec::Synthetic(arrivals) => builder.arrivals(*arrivals),
            WorkloadSpec::Bursty {
                burst_len,
                peak_gap,
            } => builder.bursty(*burst_len, *peak_gap),
            WorkloadSpec::Trace(path) => {
                let resolved = base_dir.join(path);
                let trace = Trace::load(resolved, mesh.node_count() as u32)?;
                builder.trace(Arc::new(trace))
            }
        };
        Ok(builder)
    }

    /// Composes and validates the spec into a runnable [`Scenario`].
    pub fn to_scenario(&self, base_dir: &Path) -> Result<Scenario, SpecError> {
        Ok(self.to_builder(base_dir)?.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips_and_builds_the_reference() {
        let spec = ScenarioSpec::default();
        let text = spec.format();
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again);

        let scenario = spec.to_scenario(Path::new(".")).unwrap();
        let reference = Scenario::builder().build().unwrap();
        assert_eq!(scenario.config().mesh, reference.config().mesh);
        assert_eq!(scenario.config().router, reference.config().router);
        assert_eq!(scenario.config().seed, reference.config().seed);
    }

    #[test]
    fn empty_text_is_all_defaults() {
        assert_eq!(ScenarioSpec::parse("").unwrap(), ScenarioSpec::default());
        assert_eq!(
            ScenarioSpec::parse("# only comments\n\n").unwrap(),
            ScenarioSpec::default()
        );
    }

    #[test]
    fn rich_spec_round_trips() {
        let spec = ScenarioSpec {
            torus: true,
            shape: vec![8, 8],
            faults: FaultsConfig::None,
            router: RouterPreset::Adaptive,
            lookahead: true,
            vcs: Some((4, 2)),
            path_selection: PathSelection::Lru,
            algorithm: Algorithm::Duato,
            table: TableKind::MetaBlocks(vec![4, 4]),
            pattern: Pattern::Hotspot {
                node: 27,
                probability: 0.05,
            },
            workload: WorkloadSpec::Bursty {
                burst_len: 8,
                peak_gap: 2.5,
            },
            load: 0.35,
            lengths: LengthDistribution::Bimodal {
                short: 5,
                long: 50,
                long_fraction: 0.2,
            },
            warmup: 123,
            measure: 4567,
            seed: 42,
        };
        let again = ScenarioSpec::parse(&spec.format()).unwrap();
        assert_eq!(spec, again);
        // And a second round through format is byte-stable.
        assert_eq!(spec.format(), again.format());
    }

    #[test]
    fn trace_paths_survive_the_round_trip() {
        let spec = ScenarioSpec {
            workload: WorkloadSpec::Trace("fixtures/small.trace".into()),
            shape: vec![4, 4],
            ..ScenarioSpec::default()
        };
        let again = ScenarioSpec::parse(&spec.format()).unwrap();
        assert_eq!(spec, again);
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
            "pattern = hotspot 3",
            "workload = bursty 8",
            "workload = trace",
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
        // A hand-built spec is checked when it is composed.
        let spec = ScenarioSpec {
            torus: true,
            shape: vec![2, 4],
            ..ScenarioSpec::default()
        };
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("at least 3"), "{err}");
    }

    #[test]
    fn fault_links_round_trip() {
        let spec = ScenarioSpec {
            shape: vec![4, 4],
            faults: FaultsConfig::Links(vec![(1, 2), (5, 9)]),
            algorithm: Algorithm::UpDownAdaptive,
            ..ScenarioSpec::default()
        };
        let text = spec.format();
        assert!(text.contains("faults = (1 2), (5 9)"), "{text}");
        assert!(text.contains("algorithm = up-down-adaptive"), "{text}");
        let again = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, again);
        assert_eq!(text, again.format());
        assert!(spec.to_scenario(Path::new(".")).is_ok());
    }

    #[test]
    fn empty_explicit_fault_list_formats_parseably() {
        // `Links(vec![])` means "no faults": format must skip the key
        // (an empty `faults =` value would fail to re-parse).
        let spec = ScenarioSpec {
            faults: FaultsConfig::Links(Vec::new()),
            ..ScenarioSpec::default()
        };
        let text = spec.format();
        assert!(!text.contains("faults"), "{text}");
        assert_eq!(
            ScenarioSpec::parse(&text).unwrap().faults,
            FaultsConfig::None
        );
    }

    #[test]
    fn random_faults_round_trip() {
        let spec = ScenarioSpec {
            shape: vec![8, 8],
            faults: FaultsConfig::Random { count: 3, seed: 7 },
            algorithm: Algorithm::UpDown,
            ..ScenarioSpec::default()
        };
        let text = spec.format();
        assert!(text.contains("fault-count = 3") && text.contains("fault-seed = 7"));
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        // fault-seed may precede fault-count.
        let reordered =
            "fault-seed = 7\nfault-count = 3\nalgorithm = up-down\ntopology = mesh 8x8\n";
        assert_eq!(ScenarioSpec::parse(reordered).unwrap().faults, spec.faults);
        // Omitted fault-seed defaults to 1.
        let defaulted = ScenarioSpec::parse("fault-count = 2\n").unwrap();
        assert_eq!(defaulted.faults, FaultsConfig::Random { count: 2, seed: 1 });
    }

    #[test]
    fn malformed_fault_clauses_are_rejected() {
        for bad in [
            "faults = 1 2",
            "faults = (1)",
            "faults = (1 2 3)",
            "faults = (a b)",
            "fault-count = lots",
            "fault-seed = 3", // seed without a count
            "faults = (0 1)\nfault-count = 2",
            "fault-count = 2\nfaults = (0 1)",
            "faults = (0 1)\nfault-seed = 9",
        ] {
            let err = ScenarioSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, SpecError::Parse { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn vc_slot_budget_errors_surface_as_scenario_errors() {
        let spec = ScenarioSpec::parse("topology = mesh 4x4\nvcs = 13 1\n").unwrap();
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
        let spec = ScenarioSpec::parse("topology = mesh 2048x2048\n").unwrap();
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
        let spec = ScenarioSpec {
            shape: vec![4, 4],
            faults: FaultsConfig::Links(vec![(0, 5)]), // diagonal: no link
            algorithm: Algorithm::UpDownAdaptive,
            ..ScenarioSpec::default()
        };
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(matches!(err, SpecError::Scenario(_)), "{err:?}");
        assert!(err.to_string().contains("names no link"));
    }

    #[test]
    fn scenario_validation_errors_surface() {
        // A torus with the default single escape VC is invalid.
        let spec = ScenarioSpec {
            torus: true,
            shape: vec![4, 4],
            ..ScenarioSpec::default()
        };
        let err = spec.to_scenario(Path::new(".")).unwrap_err();
        assert!(matches!(err, SpecError::Scenario(_)), "{err:?}");
    }

    #[test]
    fn missing_trace_file_surfaces_as_trace_error() {
        let spec = ScenarioSpec {
            workload: WorkloadSpec::Trace("does-not-exist.trace".into()),
            ..ScenarioSpec::default()
        };
        let err = spec.to_scenario(Path::new("/nonexistent")).unwrap_err();
        assert!(matches!(err, SpecError::Trace(_)), "{err:?}");
    }
}
