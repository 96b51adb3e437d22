//! The message source of one run — the workload side of the Scenario API.
//!
//! A [`Workload`] owns every injecting node's traffic state for one run and
//! is polled node by node through the experiment loop's due-time heap: a
//! poll strictly before [`Workload::next_due_cycle`] is a state-preserving
//! no-op, so the scheduler can skip idle nodes without perturbing the run.
//! It holds one of two sources:
//!
//! * [`Workload::synthetic`] — one [`Generator`] per node: pattern ×
//!   arrival process × length distribution. This is the paper's traffic
//!   (Table 2) and, with [`ArrivalKind::OnOff`] arrivals, this repo's
//!   bursty traffic;
//! * [`Workload::trace`] — replay of a recorded `cycle src dst len`
//!   [`Trace`].

use crate::arrivals::ArrivalKind;
use crate::generator::{Generator, MessageSpec};
use crate::lengths::LengthDistribution;
use crate::patterns::Pattern;
use crate::trace::Trace;
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{Mesh, NodeId};
use std::sync::Arc;

/// The message source of one run, polled per node. Node indices are
/// `0..node_count()`, matching the mesh's node ids.
#[derive(Debug)]
pub struct Workload(Source);

#[derive(Debug)]
enum Source {
    Synthetic {
        mesh: Mesh,
        pattern: Pattern,
        lengths: LengthDistribution,
        generators: Vec<Generator>,
    },
    Trace {
        trace: Arc<Trace>,
        /// Per node: indices into the trace's event list, in cycle order.
        per_node: Vec<Vec<u32>>,
        /// Per node: position of the next unplayed event in `per_node`.
        cursor: Vec<u32>,
    },
}

impl Workload {
    /// Synthetic traffic: one [`Generator`] per node drawing `arrivals`
    /// at `mean_gap` cycles per message, sent to `pattern`'s destinations
    /// with lengths drawn from `lengths`.
    ///
    /// Construction forks a master stream seeded with `traffic_seed` once
    /// per node, in node order. That wiring is what the golden
    /// fingerprints of the simulator pin, so it must not change.
    pub fn synthetic(
        mesh: Mesh,
        pattern: Pattern,
        arrivals: ArrivalKind,
        mean_gap: f64,
        lengths: LengthDistribution,
        traffic_seed: u64,
    ) -> Workload {
        let mut master = SimRng::from_seed(traffic_seed);
        let generators = mesh
            .nodes()
            .map(|n| Generator::new(n, arrivals, mean_gap, master.fork(n.0 as u64)))
            .collect();
        Workload(Source::Synthetic {
            mesh,
            pattern,
            lengths,
            generators,
        })
    }

    /// Replays `trace`. Events are partitioned per source node up front
    /// (preserving file order, which within a node is cycle order); each
    /// node's cursor then advances monotonically, so replay allocates
    /// nothing.
    pub fn trace(trace: Arc<Trace>) -> Workload {
        let mut per_node = vec![Vec::new(); trace.node_count() as usize];
        for (i, e) in trace.events().iter().enumerate() {
            per_node[e.src as usize].push(i as u32);
        }
        let cursor = vec![0; per_node.len()];
        Workload(Source::Trace {
            trace,
            per_node,
            cursor,
        })
    }

    /// Number of injecting nodes.
    pub fn node_count(&self) -> usize {
        match &self.0 {
            Source::Synthetic { generators, .. } => generators.len(),
            Source::Trace { per_node, .. } => per_node.len(),
        }
    }

    /// First cycle at which polling `node` could produce a message, or
    /// [`u64::MAX`] once the node can never produce another (a replayed
    /// trace runs dry); the experiment loop ends a run when every node is
    /// exhausted and the network drained.
    pub fn next_due_cycle(&self, node: u32) -> u64 {
        let node = node as usize;
        match &self.0 {
            Source::Synthetic { generators, .. } => generators[node].next_due_cycle(),
            Source::Trace {
                trace,
                per_node,
                cursor,
            } => match per_node[node].get(cursor[node] as usize) {
                Some(&i) => trace.events()[i as usize].cycle,
                None => u64::MAX,
            },
        }
    }

    /// Appends every message of `node` due at or before `now` to `out`.
    /// Polling strictly before [`next_due_cycle`](Workload::next_due_cycle)
    /// leaves the workload's state (including any RNG) untouched.
    pub fn poll(&mut self, node: u32, now: Cycle, out: &mut Vec<MessageSpec>) {
        let node = node as usize;
        match &mut self.0 {
            Source::Synthetic {
                mesh,
                pattern,
                lengths,
                generators,
            } => generators[node].poll(now, mesh, *pattern, *lengths, out),
            Source::Trace {
                trace,
                per_node,
                cursor,
            } => {
                let (queue, cursor) = (&per_node[node], &mut cursor[node]);
                while let Some(&i) = queue.get(*cursor as usize) {
                    let e = trace.events()[i as usize];
                    if e.cycle > now.as_u64() {
                        break;
                    }
                    *cursor += 1;
                    out.push(MessageSpec {
                        src: NodeId(e.src),
                        dest: NodeId(e.dest),
                        length: e.length,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::mesh_2d(4, 4)
    }

    fn poll_all(w: &mut Workload, upto: u64) -> Vec<MessageSpec> {
        let mut out = Vec::new();
        for node in 0..w.node_count() as u32 {
            w.poll(node, Cycle::new(upto), &mut out);
        }
        out
    }

    /// Uniform 20-flit traffic on the 4×4 mesh.
    fn uniform(arrivals: ArrivalKind, mean_gap: f64, seed: u64) -> Workload {
        Workload::synthetic(
            mesh(),
            Pattern::Uniform,
            arrivals,
            mean_gap,
            LengthDistribution::Fixed(20),
            seed,
        )
    }

    fn on_off(burst_len: u32, peak_gap: f64) -> ArrivalKind {
        ArrivalKind::OnOff {
            burst_len,
            peak_gap,
        }
    }

    #[test]
    fn synthetic_workload_matches_bare_generators() {
        let seed = 0xFEED;
        let mut w = uniform(ArrivalKind::Exponential, 30.0, seed);
        let via_workload = poll_all(&mut w, 5_000);

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
        assert_eq!(via_workload, direct);
        assert!(!via_workload.is_empty());
    }

    #[test]
    fn synthetic_due_cycle_gates_polls() {
        let mut w = Workload::synthetic(
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
        let mut w = uniform(on_off(8, 2.0), mean_gap, 99);
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
        let times_of = |mut w: Workload| {
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
        let cv2_bursty = gaps(&times_of(uniform(on_off(10, 1.0), 50.0, 5)));
        let cv2_smooth = gaps(&times_of(uniform(ArrivalKind::Exponential, 50.0, 5)));
        assert!(
            cv2_bursty > cv2_smooth * 1.5,
            "bursty cv² {cv2_bursty} vs smooth cv² {cv2_smooth}"
        );
    }

    #[test]
    fn bursty_is_deterministic_per_seed() {
        let run = |seed| poll_all(&mut uniform(on_off(4, 2.0), 40.0, seed), 20_000);
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn off_mean_validation() {
        assert!(ArrivalKind::off_mean_for(4, 2.0, 40.0).is_some());
        assert!(ArrivalKind::off_mean_for(0, 2.0, 40.0).is_none());
        assert!(ArrivalKind::off_mean_for(4, 0.0, 40.0).is_none());
        // Peak gap slower than the target mean leaves no OFF time.
        assert!(ArrivalKind::off_mean_for(100, 41.0, 40.0).is_none());
    }

    #[test]
    #[should_panic(expected = "OFF period")]
    fn bursty_rejects_impossible_parameters() {
        let _ = poll_all(&mut uniform(on_off(100, 50.0), 40.0, 1), 1);
    }
}
