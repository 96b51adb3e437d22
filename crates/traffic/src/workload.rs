//! Pluggable message sources — the workload side of the Scenario API.
//!
//! A [`Workload`] owns every injecting node's traffic state for one run and
//! is polled node by node through the experiment loop's due-time heap, the
//! same way the per-node [`Generator`]s always were: a poll strictly before
//! [`Workload::next_due_cycle`] must be a state-preserving no-op, so the
//! scheduler can skip idle nodes without perturbing the run. Three sources
//! are provided:
//!
//! * [`SyntheticWorkload`] — the classic pattern × arrival-process ×
//!   length-distribution generator, the paper's traffic;
//! * [`OnOffWorkload`] — an ON/OFF bursty source: geometric-length bursts
//!   at a fixed peak rate separated by exponential silences, normalized to
//!   the same long-run offered load as the synthetic source;
//! * [`TraceWorkload`](crate::trace::TraceWorkload) — replay of a recorded
//!   `cycle src dst len` trace.

use crate::arrivals::ArrivalKind;
use crate::generator::{Generator, MessageSpec};
use crate::lengths::LengthDistribution;
use crate::patterns::Pattern;
use lapses_sim::{Cycle, SimRng};
use lapses_topology::Mesh;
use std::fmt;

/// An object-safe source of timed [`MessageSpec`]s, polled per node.
///
/// # Contract
///
/// * Node indices are `0..node_count()`, matching the mesh's node ids.
/// * [`poll`](Workload::poll) appends every message of `node` whose arrival
///   time is at or before `now`; polling strictly before
///   [`next_due_cycle`](Workload::next_due_cycle) must leave the workload's
///   state (including any RNG) untouched.
/// * `next_due_cycle` returns [`u64::MAX`] once the node can never produce
///   another message (finite sources such as trace replay); the experiment
///   loop ends a run when every node is exhausted and the network drained.
pub trait Workload: fmt::Debug + Send {
    /// A short name for reports ("synthetic", "bursty", "trace").
    fn name(&self) -> &'static str;

    /// Number of injecting nodes.
    fn node_count(&self) -> usize;

    /// First cycle at which polling `node` could produce a message, or
    /// [`u64::MAX`] when the node is exhausted.
    fn next_due_cycle(&self, node: u32) -> u64;

    /// Appends every message of `node` due at or before `now` to `out`.
    fn poll(&mut self, node: u32, now: Cycle, out: &mut Vec<MessageSpec>);

    /// Messages generated so far across all nodes (including pattern-
    /// suppressed ones), for diagnostics.
    fn generated(&self) -> u64;
}

/// The classic synthetic source: one [`Generator`] per node driving a
/// traffic pattern, an arrival process, and a length distribution.
///
/// Construction forks a master stream seeded with `traffic_seed` once per
/// node, in node order. That wiring is what the golden fingerprints of the
/// simulator pin, so it must not change.
pub struct SyntheticWorkload {
    mesh: Mesh,
    pattern: Pattern,
    lengths: LengthDistribution,
    generators: Vec<Generator>,
}

impl SyntheticWorkload {
    /// Creates the per-node generators, each drawing `arrivals` at
    /// `mean_gap` cycles per message, forking the master stream seeded
    /// with `traffic_seed` once per node in node order.
    pub fn new(
        mesh: Mesh,
        pattern: Pattern,
        arrivals: ArrivalKind,
        mean_gap: f64,
        lengths: LengthDistribution,
        traffic_seed: u64,
    ) -> SyntheticWorkload {
        let mut master = SimRng::from_seed(traffic_seed);
        let generators = mesh
            .nodes()
            .map(|n| Generator::new(n, arrivals, mean_gap, master.fork(n.0 as u64)))
            .collect();
        SyntheticWorkload {
            mesh,
            pattern,
            lengths,
            generators,
        }
    }
}

impl fmt::Debug for SyntheticWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyntheticWorkload")
            .field("pattern", &self.pattern)
            .field("lengths", &self.lengths)
            .field("nodes", &self.generators.len())
            .finish()
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn node_count(&self) -> usize {
        self.generators.len()
    }

    fn next_due_cycle(&self, node: u32) -> u64 {
        self.generators[node as usize].next_due_cycle()
    }

    fn poll(&mut self, node: u32, now: Cycle, out: &mut Vec<MessageSpec>) {
        self.generators[node as usize].poll(now, &self.mesh, self.pattern, self.lengths, out);
    }

    fn generated(&self) -> u64 {
        self.generators.iter().map(Generator::generated).sum()
    }
}

/// Per-node state of the ON/OFF source: position on the real-valued
/// arrival timeline plus how many messages remain in the current burst.
#[derive(Debug)]
struct OnOffState {
    rng: SimRng,
    next_arrival: Option<f64>,
    /// Messages left in the current burst, *counting* the pending arrival.
    remaining: u32,
    generated: u64,
}

/// An ON/OFF bursty source.
///
/// Each node alternates between ON bursts — a geometrically distributed
/// number of messages (mean `burst_len`) back to back at one message every
/// `peak_gap` cycles — and OFF silences with exponentially distributed
/// length. The OFF mean is derived from the target long-run `mean_gap` so
/// the offered load matches a synthetic source with the same gap; only the
/// burstiness differs.
pub struct OnOffWorkload {
    mesh: Mesh,
    pattern: Pattern,
    lengths: LengthDistribution,
    burst_len: f64,
    peak_gap: f64,
    off_mean: f64,
    nodes: Vec<OnOffState>,
}

impl OnOffWorkload {
    /// Creates an ON/OFF workload with the given mean burst length
    /// (messages), intra-burst gap and long-run mean inter-message gap
    /// (both in cycles). Per-node streams fork from `traffic_seed` in node
    /// order, like [`SyntheticWorkload`].
    ///
    /// # Panics
    ///
    /// Panics unless `burst_len >= 1`, `peak_gap > 0`, and the implied OFF
    /// silence is positive (`burst_len * mean_gap > (burst_len - 1) *
    /// peak_gap`) — use [`OnOffWorkload::off_mean_for`] to pre-validate.
    pub fn new(
        mesh: Mesh,
        pattern: Pattern,
        lengths: LengthDistribution,
        burst_len: u32,
        peak_gap: f64,
        mean_gap: f64,
        traffic_seed: u64,
    ) -> OnOffWorkload {
        let off_mean = Self::off_mean_for(burst_len, peak_gap, mean_gap)
            .expect("bursty parameters leave no room for an OFF period");
        let mut master = SimRng::from_seed(traffic_seed);
        let nodes = mesh
            .nodes()
            .map(|n| OnOffState {
                rng: master.fork(n.0 as u64),
                next_arrival: None,
                remaining: 0,
                generated: 0,
            })
            .collect();
        OnOffWorkload {
            mesh,
            pattern,
            lengths,
            burst_len: burst_len as f64,
            peak_gap,
            off_mean,
            nodes,
        }
    }

    /// The mean OFF-silence length (cycles) that realizes `mean_gap` per
    /// message overall: `burst_len * mean_gap - (burst_len - 1) *
    /// peak_gap`. `None` when the parameters are inconsistent (zero burst
    /// length, non-positive gaps, or a peak rate too slow to leave any
    /// silence).
    pub fn off_mean_for(burst_len: u32, peak_gap: f64, mean_gap: f64) -> Option<f64> {
        if burst_len < 1 || peak_gap <= 0.0 || mean_gap <= 0.0 {
            return None;
        }
        let b = burst_len as f64;
        let off = b * mean_gap - (b - 1.0) * peak_gap;
        (off > 0.0).then_some(off)
    }
}

impl fmt::Debug for OnOffWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnOffWorkload")
            .field("pattern", &self.pattern)
            .field("burst_len", &self.burst_len)
            .field("peak_gap", &self.peak_gap)
            .field("off_mean", &self.off_mean)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Workload for OnOffWorkload {
    fn name(&self) -> &'static str {
        "bursty"
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn next_due_cycle(&self, node: u32) -> u64 {
        match self.nodes[node as usize].next_arrival {
            Some(t) => t.max(0.0).ceil() as u64,
            None => 0,
        }
    }

    fn poll(&mut self, node: u32, now: Cycle, out: &mut Vec<MessageSpec>) {
        let src = lapses_topology::NodeId(node);
        let state = &mut self.nodes[node as usize];
        let now = now.as_u64() as f64;
        // Lazily open with an OFF silence, then the first burst.
        let mut next = match state.next_arrival {
            Some(t) => t,
            None => {
                state.remaining = 0; // draw the burst when it fires
                state.rng.exponential(self.off_mean)
            }
        };
        while next <= now {
            if state.remaining == 0 {
                // The silence ended: this arrival opens a fresh burst,
                // geometric like a Bernoulli gap; a mean of 1 draws nothing.
                state.remaining = if self.burst_len <= 1.0 {
                    1
                } else {
                    ArrivalKind::Bernoulli.next_gap(self.burst_len, &mut state.rng) as u32
                };
            }
            state.generated += 1;
            if let Some(dest) = self.pattern.destination(&self.mesh, src, &mut state.rng) {
                out.push(MessageSpec {
                    src,
                    dest,
                    length: self.lengths.sample(&mut state.rng),
                });
            }
            state.remaining -= 1;
            next += if state.remaining > 0 {
                self.peak_gap
            } else {
                state.rng.exponential(self.off_mean)
            };
        }
        state.next_arrival = Some(next);
    }

    fn generated(&self) -> u64 {
        self.nodes.iter().map(|n| n.generated).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::mesh_2d(4, 4)
    }

    fn poll_all(w: &mut dyn Workload, upto: u64) -> Vec<MessageSpec> {
        let mut out = Vec::new();
        for node in 0..w.node_count() as u32 {
            w.poll(node, Cycle::new(upto), &mut out);
        }
        out
    }

    #[test]
    fn synthetic_workload_matches_bare_generators() {
        let seed = 0xFEED;
        let mut w = SyntheticWorkload::new(
            mesh(),
            Pattern::Uniform,
            ArrivalKind::Exponential,
            30.0,
            LengthDistribution::Fixed(20),
            seed,
        );
        let via_trait = poll_all(&mut w, 5_000);

        let mut master = SimRng::from_seed(seed);
        let mut direct = Vec::new();
        for n in mesh().nodes() {
            let mut g = Generator::new(n, ArrivalKind::Exponential, 30.0, master.fork(n.0 as u64));
            g.poll(
                Cycle::new(5_000),
                &mesh(),
                Pattern::Uniform,
                LengthDistribution::Fixed(20),
                &mut direct,
            );
        }
        assert_eq!(via_trait, direct);
        assert!(w.generated() > 0);
    }

    #[test]
    fn synthetic_due_cycle_gates_polls() {
        let mut w = SyntheticWorkload::new(
            mesh(),
            Pattern::Uniform,
            ArrivalKind::Exponential,
            100.0,
            LengthDistribution::Fixed(5),
            7,
        );
        assert_eq!(w.next_due_cycle(3), 0);
        let mut out = Vec::new();
        w.poll(3, Cycle::new(10_000), &mut out);
        let due = w.next_due_cycle(3);
        assert!(due > 10_000);
        // Polling strictly before the due cycle is a no-op.
        let before = out.len();
        w.poll(3, Cycle::new(due - 1), &mut out);
        assert_eq!(out.len(), before);
    }

    #[test]
    fn bursty_long_run_rate_matches_mean_gap() {
        let horizon = 400_000u64;
        let mean_gap = 100.0;
        let mut w = OnOffWorkload::new(
            mesh(),
            Pattern::Uniform,
            LengthDistribution::Fixed(20),
            8,
            2.0,
            mean_gap,
            99,
        );
        let msgs = poll_all(&mut w, horizon);
        let per_node = msgs.len() as f64 / 16.0;
        let rate = per_node / horizon as f64;
        let target = 1.0 / mean_gap;
        assert!(
            (rate - target).abs() / target < 0.1,
            "rate {rate} vs target {target}"
        );
    }

    #[test]
    fn bursty_is_burstier_than_synthetic() {
        // Compare squared-coefficient-of-variation of inter-arrival gaps
        // on one node: ON/OFF must exceed the exponential baseline (~1).
        let gaps = |msgs: &[u64]| {
            let diffs: Vec<f64> = msgs.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
            let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / diffs.len() as f64;
            var / (mean * mean)
        };
        // Arrival times via cycle-by-cycle polling of node 0.
        let times_of = |w: &mut dyn Workload| {
            let mut times = Vec::new();
            let mut out = Vec::new();
            let mut c = 0u64;
            while c < 200_000 {
                c = w.next_due_cycle(0).max(c + 1);
                out.clear();
                w.poll(0, Cycle::new(c), &mut out);
                times.extend(std::iter::repeat_n(c, out.len()));
            }
            times
        };
        let mut bursty = OnOffWorkload::new(
            mesh(),
            Pattern::Uniform,
            LengthDistribution::Fixed(20),
            10,
            1.0,
            50.0,
            5,
        );
        let mut smooth = SyntheticWorkload::new(
            mesh(),
            Pattern::Uniform,
            ArrivalKind::Exponential,
            50.0,
            LengthDistribution::Fixed(20),
            5,
        );
        let cv2_bursty = gaps(&times_of(&mut bursty));
        let cv2_smooth = gaps(&times_of(&mut smooth));
        assert!(
            cv2_bursty > cv2_smooth * 1.5,
            "bursty cv² {cv2_bursty} vs smooth cv² {cv2_smooth}"
        );
    }

    #[test]
    fn bursty_is_deterministic_per_seed() {
        let run = |seed| {
            let mut w = OnOffWorkload::new(
                mesh(),
                Pattern::Uniform,
                LengthDistribution::Fixed(20),
                4,
                2.0,
                40.0,
                seed,
            );
            poll_all(&mut w, 20_000)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn off_mean_validation() {
        assert!(OnOffWorkload::off_mean_for(4, 2.0, 40.0).is_some());
        assert!(OnOffWorkload::off_mean_for(0, 2.0, 40.0).is_none());
        assert!(OnOffWorkload::off_mean_for(4, 0.0, 40.0).is_none());
        // Peak gap slower than the target mean leaves no OFF time.
        assert!(OnOffWorkload::off_mean_for(100, 41.0, 40.0).is_none());
    }

    #[test]
    #[should_panic(expected = "OFF period")]
    fn bursty_rejects_impossible_parameters() {
        let _ = OnOffWorkload::new(
            mesh(),
            Pattern::Uniform,
            LengthDistribution::Fixed(20),
            100,
            50.0,
            40.0,
            1,
        );
    }
}
