//! Path-selection heuristics (§4 of the paper).
//!
//! When the adaptive routing relation offers several productive output
//! ports, the selection-cum-arbitration stage must pick exactly one
//! *currently available* port. The paper compares two known policies —
//! **STATIC-XY** (dimension-order preference) and **MIN-MUX** (least
//! VC-multiplexed physical channel, from Duato) — against its three
//! traffic-sensitive proposals:
//!
//! * **LFU** — least frequently used output port (cumulative usage
//!   counters);
//! * **LRU** — least recently used output port (age since last crossbar
//!   use);
//! * **MAX-CREDIT** — the port with the most flow-control credits, i.e.
//!   the most free buffer space downstream.
//!
//! A uniform-random policy is included as an extra baseline (used by the
//! Chaos router). Ties break toward the lowest port index, which equals
//! the STATIC-XY preference order.

use lapses_sim::SimRng;
use lapses_topology::Port;
use std::fmt;

/// How MAX-CREDIT aggregates per-VC credits into a physical-channel score.
///
/// The paper describes credits per *channel* ("routers credit their
/// neighboring routers with the amount of free buffer space available for
/// that channel"), i.e. the sum over the channel's VCs; taking the maximum
/// single-VC credit is provided as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CreditAggregate {
    /// Sum of credits across the port's VCs (the paper's reading).
    #[default]
    Sum,
    /// The best single VC's credits.
    Max,
}

/// What counts as one "use" for the LFU counters.
///
/// The paper says to increment "whenever the corresponding port is used";
/// we default to counting every flit that crosses the crossbar (port
/// occupancy), with per-message counting as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LfuCounting {
    /// Count every flit through the port.
    #[default]
    PerFlit,
    /// Count only message headers.
    PerMessage,
}

/// The path-selection heuristic an adaptive router applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSelection {
    /// Prefer the X dimension, then Y — the static baseline (§4.1).
    StaticXy,
    /// Uniform random among available candidates (Chaos-router style).
    Random,
    /// Fewest currently-active VCs on the physical channel (Duato).
    MinMux,
    /// Least frequently used port.
    Lfu(LfuCounting),
    /// Least recently used port.
    Lru,
    /// Most flow-control credits available.
    MaxCredit(CreditAggregate),
}

impl PathSelection {
    /// Every heuristic, in declaration order, with default parameters.
    pub const ALL: [PathSelection; 6] = [
        PathSelection::StaticXy,
        PathSelection::Random,
        PathSelection::MinMux,
        PathSelection::Lfu(LfuCounting::PerFlit),
        PathSelection::Lru,
        PathSelection::MaxCredit(CreditAggregate::Sum),
    ];

    /// The five heuristics of the paper's Fig. 6, in presentation order.
    pub fn paper_five() -> [PathSelection; 5] {
        [
            PathSelection::StaticXy,
            PathSelection::MinMux,
            PathSelection::Lfu(LfuCounting::default()),
            PathSelection::Lru,
            PathSelection::MaxCredit(CreditAggregate::default()),
        ]
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PathSelection::StaticXy => "static-xy",
            PathSelection::Random => "random",
            PathSelection::MinMux => "min-mux",
            PathSelection::Lfu(_) => "lfu",
            PathSelection::Lru => "lru",
            PathSelection::MaxCredit(_) => "max-credit",
        }
    }
}

impl fmt::Display for PathSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Live per-port state the router exposes to the selector at decision time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStatus {
    /// Currently-owned (multiplexed) VCs on the port — MIN-MUX's metric.
    pub active_vcs: u32,
    /// Sum of flow-control credits across the port's VCs.
    pub credits_sum: u32,
    /// Largest single-VC credit count on the port.
    pub credits_max: u32,
}

/// The stateful selector: owns the LFU usage counters and LRU timestamps
/// the heuristics need ("maintaining a counter for each crossbar output
/// port").
///
/// # Example
///
/// ```
/// use lapses_core::psh::{PathSelection, PathSelector, PortStatus};
/// use lapses_sim::SimRng;
/// use lapses_topology::{Direction, Port};
///
/// let mut sel = PathSelector::new(PathSelection::Lru, 5);
/// let px = Port::from(Direction::plus(0));
/// let py = Port::from(Direction::plus(1));
/// let mut rng = SimRng::from_seed(0);
///
/// sel.note_port_used(px, 10, true); // +X was just used...
/// let pick = sel.select(&[px, py], |_| PortStatus::default(), &mut rng);
/// assert_eq!(pick, py); // ...so LRU prefers +Y
/// ```
#[derive(Debug, Clone)]
pub struct PathSelector {
    kind: PathSelection,
    // Inline per-port counters (not `Vec`s): `note_port_used` runs once
    // per switched flit, and a router's whole selector state staying
    // inside its own struct keeps that touch off the heap.
    usage: [u64; MAX_SELECTOR_PORTS],
    last_used: [u64; MAX_SELECTOR_PORTS],
}

/// Largest per-router port count the selector tracks (local + 2 per
/// dimension).
const MAX_SELECTOR_PORTS: usize = lapses_topology::MAX_DIMS * 2 + 1;

impl PathSelector {
    /// Creates a selector for a router with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or exceeds the per-router port budget.
    pub fn new(kind: PathSelection, ports: usize) -> PathSelector {
        assert!(ports > 0, "router needs at least one port");
        assert!(ports <= MAX_SELECTOR_PORTS, "too many ports");
        PathSelector {
            kind,
            usage: [0; MAX_SELECTOR_PORTS],
            last_used: [0; MAX_SELECTOR_PORTS],
        }
    }

    /// The heuristic in use.
    pub fn kind(&self) -> PathSelection {
        self.kind
    }

    /// Records a crossbar traversal through `port` at cycle `now`
    /// (`is_head` distinguishes headers for per-message LFU counting).
    pub fn note_port_used(&mut self, port: Port, now: u64, is_head: bool) {
        let i = port.index();
        self.last_used[i] = now;
        let count = match self.kind {
            PathSelection::Lfu(LfuCounting::PerMessage) => is_head,
            _ => true,
        };
        if count {
            self.usage[i] = self.usage[i].saturating_add(1);
        }
    }

    /// Cumulative LFU usage count of a port.
    pub fn usage(&self, port: Port) -> u64 {
        self.usage[port.index()]
    }

    /// Cycle of the port's most recent use (0 if never used).
    pub fn last_used(&self, port: Port) -> u64 {
        self.last_used[port.index()]
    }

    /// Picks one port among the available `candidates`.
    ///
    /// `status` supplies the live VC/credit state per port. Candidates must
    /// be sorted ascending by port index (the router passes them that way);
    /// ties break toward the first (lowest-index) candidate, i.e. STATIC-XY
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn select(
        &mut self,
        candidates: &[Port],
        status: impl Fn(Port) -> PortStatus,
        rng: &mut SimRng,
    ) -> Port {
        assert!(!candidates.is_empty(), "no candidate to select from");
        if candidates.len() == 1 {
            return candidates[0];
        }
        match self.kind {
            PathSelection::StaticXy => candidates[0],
            PathSelection::Random => {
                candidates[rng.choose_index(candidates.len()).expect("non-empty")]
            }
            PathSelection::MinMux => {
                Self::argbest(candidates, |p| i64::from(status(p).active_vcs), false)
            }
            PathSelection::Lfu(_) => {
                Self::argbest(candidates, |p| self.usage[p.index()] as i64, false)
            }
            PathSelection::Lru => {
                Self::argbest(candidates, |p| self.last_used[p.index()] as i64, false)
            }
            PathSelection::MaxCredit(agg) => Self::argbest(
                candidates,
                |p| {
                    let s = status(p);
                    i64::from(match agg {
                        CreditAggregate::Sum => s.credits_sum,
                        CreditAggregate::Max => s.credits_max,
                    })
                },
                true,
            ),
        }
    }

    /// First candidate with the minimal (or maximal) score.
    fn argbest(candidates: &[Port], mut score: impl FnMut(Port) -> i64, maximize: bool) -> Port {
        let mut best = candidates[0];
        let mut best_score = score(best);
        for &p in &candidates[1..] {
            let s = score(p);
            let better = if maximize {
                s > best_score
            } else {
                s < best_score
            };
            if better {
                best = p;
                best_score = s;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapses_topology::Direction;

    fn ports() -> (Port, Port) {
        (
            Port::from(Direction::plus(0)),
            Port::from(Direction::plus(1)),
        )
    }

    #[test]
    fn static_xy_prefers_lowest_index() {
        let (px, py) = ports();
        let mut sel = PathSelector::new(PathSelection::StaticXy, 5);
        let mut rng = SimRng::from_seed(0);
        assert_eq!(
            sel.select(&[px, py], |_| PortStatus::default(), &mut rng),
            px
        );
    }

    #[test]
    fn single_candidate_shortcut() {
        let (_, py) = ports();
        let mut sel = PathSelector::new(PathSelection::Random, 5);
        let mut rng = SimRng::from_seed(0);
        assert_eq!(sel.select(&[py], |_| PortStatus::default(), &mut rng), py);
    }

    #[test]
    fn min_mux_picks_least_multiplexed() {
        let (px, py) = ports();
        let mut sel = PathSelector::new(PathSelection::MinMux, 5);
        let mut rng = SimRng::from_seed(0);
        let status = |p: Port| PortStatus {
            active_vcs: if p == px { 3 } else { 1 },
            ..Default::default()
        };
        assert_eq!(sel.select(&[px, py], status, &mut rng), py);
    }

    #[test]
    fn lfu_prefers_lower_usage_and_counts_flits() {
        let (px, py) = ports();
        let mut sel = PathSelector::new(PathSelection::Lfu(LfuCounting::PerFlit), 5);
        let mut rng = SimRng::from_seed(0);
        sel.note_port_used(px, 1, true);
        sel.note_port_used(px, 2, false); // body flit also counts
        sel.note_port_used(py, 3, true);
        assert_eq!(sel.usage(px), 2);
        assert_eq!(sel.usage(py), 1);
        assert_eq!(
            sel.select(&[px, py], |_| PortStatus::default(), &mut rng),
            py
        );
    }

    #[test]
    fn lfu_per_message_ignores_body_flits() {
        let (px, _) = ports();
        let mut sel = PathSelector::new(PathSelection::Lfu(LfuCounting::PerMessage), 5);
        sel.note_port_used(px, 1, true);
        sel.note_port_used(px, 2, false);
        sel.note_port_used(px, 3, false);
        assert_eq!(sel.usage(px), 1);
    }

    #[test]
    fn lru_prefers_oldest_port() {
        let (px, py) = ports();
        let mut sel = PathSelector::new(PathSelection::Lru, 5);
        let mut rng = SimRng::from_seed(0);
        sel.note_port_used(px, 100, true);
        sel.note_port_used(py, 50, true);
        assert_eq!(
            sel.select(&[px, py], |_| PortStatus::default(), &mut rng),
            py
        );
        // A never-used port beats both.
        let pz = Port::from(Direction::minus(0));
        assert_eq!(
            sel.select(&[px, py, pz], |_| PortStatus::default(), &mut rng),
            pz
        );
    }

    #[test]
    fn max_credit_sum_vs_max_aggregation() {
        let (px, py) = ports();
        let status = |p: Port| {
            if p == px {
                PortStatus {
                    credits_sum: 10,
                    credits_max: 4,
                    ..Default::default()
                }
            } else {
                PortStatus {
                    credits_sum: 8,
                    credits_max: 8,
                    ..Default::default()
                }
            }
        };
        let mut rng = SimRng::from_seed(0);
        let mut sum = PathSelector::new(PathSelection::MaxCredit(CreditAggregate::Sum), 5);
        assert_eq!(sum.select(&[px, py], status, &mut rng), px);
        let mut max = PathSelector::new(PathSelection::MaxCredit(CreditAggregate::Max), 5);
        assert_eq!(max.select(&[px, py], status, &mut rng), py);
    }

    #[test]
    fn ties_break_in_static_xy_order() {
        let (px, py) = ports();
        let mut rng = SimRng::from_seed(0);
        for kind in [
            PathSelection::MinMux,
            PathSelection::Lfu(LfuCounting::PerFlit),
            PathSelection::Lru,
            PathSelection::MaxCredit(CreditAggregate::Sum),
        ] {
            let mut sel = PathSelector::new(kind, 5);
            assert_eq!(
                sel.select(&[px, py], |_| PortStatus::default(), &mut rng),
                px,
                "{kind} tie should break toward X"
            );
        }
    }

    #[test]
    fn random_covers_all_candidates() {
        let (px, py) = ports();
        let mut sel = PathSelector::new(PathSelection::Random, 5);
        let mut rng = SimRng::from_seed(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(sel.select(&[px, py], |_| PortStatus::default(), &mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn paper_five_matches_fig6_lineup() {
        let names: Vec<_> = PathSelection::paper_five()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(
            names,
            vec!["static-xy", "min-mux", "lfu", "lru", "max-credit"]
        );
    }

    #[test]
    #[should_panic(expected = "no candidate")]
    fn empty_candidates_panics() {
        let mut sel = PathSelector::new(PathSelection::StaticXy, 5);
        let mut rng = SimRng::from_seed(0);
        let _ = sel.select(&[], |_| PortStatus::default(), &mut rng);
    }
}
