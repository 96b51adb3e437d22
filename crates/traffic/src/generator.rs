//! Per-node message generation.

use crate::arrivals::ArrivalKind;
use crate::lengths::LengthDistribution;
use crate::patterns::Pattern;
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{Mesh, NodeId};

/// A message to be injected: source, destination and length in flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSpec {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Message length in flits (head + body + tail).
    pub length: u32,
}

/// Per-node traffic generator.
///
/// Owns the node's arrival process, its private random stream and its
/// position on the real-valued arrival timeline. Each simulated cycle the
/// network polls the generator; all arrivals whose (fractional) timestamps
/// have passed become messages. Nodes that are silent under a
/// deterministic pattern (e.g. diagonal nodes under transpose) consume
/// arrivals without emitting messages, so pattern changes never perturb
/// other nodes' streams.
///
/// # Example
///
/// ```
/// use lapses_sim::{Cycle, SimRng};
/// use lapses_topology::{Mesh, NodeId};
/// use lapses_traffic::{ArrivalKind, Generator, LengthDistribution, Pattern};
///
/// let mesh = Mesh::mesh_2d(4, 4);
/// let mut rng = SimRng::from_seed(1);
/// let mut generator = Generator::new(NodeId(0), ArrivalKind::Periodic, 4.0, rng.fork(0));
/// let mut msgs = Vec::new();
/// generator.poll(
///     Cycle::new(10),
///     &mesh,
///     Pattern::Uniform,
///     LengthDistribution::Fixed(20),
///     &mut msgs,
/// );
/// assert_eq!(msgs.len(), 2); // arrivals at t=4 and t=8
/// ```
#[derive(Debug)]
pub struct Generator {
    src: NodeId,
    arrivals: ArrivalKind,
    mean_gap: f64,
    rng: SimRng,
    next_arrival: Option<f64>,
    generated: u64,
}

impl Generator {
    /// The smallest inter-arrival gap, in cycles, a workload may be
    /// configured with (as its mean gap, or a bursty source's peak gap). A
    /// poll returns every message due by its cycle in one batch, so the gap
    /// bounds the batch: at 1/16 cycle a node offers 16 messages per
    /// cycle, which fills a network's saturation backlog in its first
    /// cycle, and as the gap vanishes a single poll never finishes.
    pub const MIN_GAP: f64 = 1.0 / 16.0;

    /// Creates a generator for node `src` whose arrivals follow `arrivals`
    /// at `mean_gap` cycles per message, drawn from its own random stream.
    pub fn new(src: NodeId, arrivals: ArrivalKind, mean_gap: f64, rng: SimRng) -> Self {
        Generator {
            src,
            arrivals,
            mean_gap,
            rng,
            next_arrival: None,
            generated: 0,
        }
    }

    /// The node this generator injects from.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Messages generated so far (including suppressed self-targets).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// First cycle at which polling could produce a message: the ceiling
    /// of the pending arrival timestamp, or `0` when the first gap has not
    /// been drawn yet. Polling strictly before this cycle is a no-op that
    /// leaves the generator's state (including its RNG) untouched, so a
    /// scheduler may skip those polls without perturbing the run.
    pub fn next_due_cycle(&self) -> u64 {
        match self.next_arrival {
            Some(t) => t.max(0.0).ceil() as u64,
            None => 0,
        }
    }

    /// Appends to `out` every message whose arrival time is at or before
    /// `now`, each sent to `pattern`'s destination with a length drawn
    /// from `lengths`.
    pub fn poll(
        &mut self,
        now: Cycle,
        mesh: &Mesh,
        pattern: Pattern,
        lengths: LengthDistribution,
        out: &mut Vec<MessageSpec>,
    ) {
        let now = now.as_u64() as f64;
        // Lazily draw the first gap so construction order does not matter.
        let mut next = match self.next_arrival {
            Some(t) => t,
            None => self.arrivals.next_gap(self.mean_gap, &mut self.rng),
        };
        while next <= now {
            self.generated += 1;
            if let Some(dest) = pattern.destination(mesh, self.src, &mut self.rng) {
                out.push(MessageSpec {
                    src: self.src,
                    dest,
                    length: lengths.sample(&mut self.rng),
                });
            }
            next += self.arrivals.next_gap(self.mean_gap, &mut self.rng);
        }
        self.next_arrival = Some(next);
    }

    /// Offered-load helper: the mean inter-arrival gap in cycles that
    /// realizes `normalized_load` on `mesh`, for the given mean message
    /// length.
    ///
    /// Normalized load follows the paper's definition: 1.0 is the per-node
    /// *flit* injection rate that saturates the bisection under uniform
    /// traffic ([`Mesh::saturation_injection_rate`]); the message rate
    /// divides that by the mean message length.
    ///
    /// # Panics
    ///
    /// Panics if `normalized_load` or `mean_length` is not positive.
    pub fn mean_gap_for_load(mesh: &Mesh, normalized_load: f64, mean_length: f64) -> f64 {
        assert!(normalized_load > 0.0, "load must be positive");
        assert!(mean_length > 0.0, "message length must be positive");
        let flit_rate = normalized_load * mesh.saturation_injection_rate();
        mean_length / flit_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh16() -> Mesh {
        Mesh::mesh_2d(16, 16)
    }

    /// Polls `g` up to `now` under `pattern` with 20-flit messages.
    fn poll(g: &mut Generator, now: u64, pattern: Pattern) -> Vec<MessageSpec> {
        let mut out = Vec::new();
        g.poll(
            Cycle::new(now),
            &mesh16(),
            pattern,
            LengthDistribution::Fixed(20),
            &mut out,
        );
        out
    }

    #[test]
    fn periodic_arrivals_are_counted_exactly() {
        let mut g = Generator::new(NodeId(5), ArrivalKind::Periodic, 10.0, SimRng::from_seed(9));
        let msgs = poll(&mut g, 100, Pattern::Uniform);
        assert_eq!(msgs.len(), 10); // t = 10, 20, ..., 100
        for m in &msgs {
            assert_eq!(m.src, NodeId(5));
            assert_eq!(m.length, 20);
            assert_ne!(m.dest, m.src);
        }
        // Nothing new until the next period boundary.
        assert!(poll(&mut g, 109, Pattern::Uniform).is_empty());
    }

    #[test]
    fn polls_append_to_the_buffer() {
        let mut g = Generator::new(NodeId(5), ArrivalKind::Periodic, 10.0, SimRng::from_seed(9));
        let mut out = poll(&mut g, 50, Pattern::Uniform);
        g.poll(
            Cycle::new(100),
            &mesh16(),
            Pattern::Uniform,
            LengthDistribution::Fixed(20),
            &mut out,
        );
        let mut again =
            Generator::new(NodeId(5), ArrivalKind::Periodic, 10.0, SimRng::from_seed(9));
        assert_eq!(out, poll(&mut again, 100, Pattern::Uniform));
    }

    #[test]
    fn exponential_rate_is_respected() {
        let mut g = Generator::new(
            NodeId(0),
            ArrivalKind::Exponential,
            50.0,
            SimRng::from_seed(11),
        );
        let horizon = 200_000u64;
        let msgs = poll(&mut g, horizon, Pattern::Uniform);
        let rate = msgs.len() as f64 / horizon as f64;
        assert!((rate - 0.02).abs() < 0.002, "rate {rate}");
    }

    #[test]
    fn silent_nodes_consume_but_do_not_emit() {
        let diag = mesh16().id_at(&[7, 7]).unwrap();
        let mut g = Generator::new(diag, ArrivalKind::Periodic, 10.0, SimRng::from_seed(3));
        assert!(poll(&mut g, 1000, Pattern::Transpose).is_empty());
        assert_eq!(g.generated(), 100);
    }

    #[test]
    fn mean_gap_matches_paper_normalization() {
        let mesh = mesh16();
        // Load 1.0, 20-flit messages: 0.25 flits/node/cycle = 80-cycle gaps.
        let gap = Generator::mean_gap_for_load(&mesh, 1.0, 20.0);
        assert!((gap - 80.0).abs() < 1e-9);
        // Load 0.2: five times sparser.
        let gap = Generator::mean_gap_for_load(&mesh, 0.2, 20.0);
        assert!((gap - 400.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let mut g = Generator::new(
                NodeId(1),
                ArrivalKind::Exponential,
                25.0,
                SimRng::from_seed(seed),
            );
            poll(&mut g, 5000, Pattern::Uniform)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
