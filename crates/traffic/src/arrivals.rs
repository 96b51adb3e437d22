//! Message arrival processes.
//!
//! The paper injects messages "with exponential inter-arrival times"
//! (Table 2); [`ArrivalKind::Exponential`] is that process.
//! [`ArrivalKind::Bernoulli`] (geometric gaps) and [`ArrivalKind::Periodic`]
//! (deterministic gaps) are provided for validation and ablation runs — at
//! equal rates all three should saturate at the same load, differing only
//! in burstiness. [`ArrivalKind::OnOff`] is this repo's extension, not
//! Table 2's process: bursts at a fixed peak rate separated by exponential
//! silences, at the same long-run rate.
//!
//! The kinds are plain data; the per-node [`Generator`](crate::Generator)
//! draws every gap, and keeps the one piece of state a process needs (the
//! messages left in an on/off burst).

/// A point process generating message inter-arrival gaps, in cycles.
///
/// Gaps are real-valued; the per-node [`Generator`](crate::Generator)
/// accumulates them on a real-valued timeline and fires whenever the
/// integer clock passes the next arrival, so fractional rates are honored
/// exactly in the long run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalKind {
    /// Exponential (Poisson) inter-arrival gaps — the paper's process.
    #[default]
    Exponential,
    /// Bernoulli trials per cycle with probability `1 / mean_gap`:
    /// geometric integer gaps.
    Bernoulli,
    /// Deterministic fixed gaps (no burstiness at all).
    Periodic,
    /// ON/OFF bursts: a geometric number of messages (mean `burst_len`)
    /// `peak_gap` cycles apart, then an exponential silence whose mean
    /// ([`ArrivalKind::off_mean_for`]) keeps the long-run gap at the
    /// generator's mean gap, so only the burstiness differs.
    OnOff {
        /// Mean messages per burst (geometric; a mean of 1 is one message).
        burst_len: u32,
        /// Cycles between messages within a burst.
        peak_gap: f64,
    },
}

impl ArrivalKind {
    /// Every arrival process without parameters, in declaration order.
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Exponential,
        ArrivalKind::Bernoulli,
        ArrivalKind::Periodic,
    ];

    /// A short name for reports and scenario specs.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Exponential => "exponential",
            ArrivalKind::Bernoulli => "bernoulli",
            ArrivalKind::Periodic => "periodic",
            ArrivalKind::OnOff { .. } => "bursty",
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Generator;
    use lapses_sim::SimRng;
    use lapses_topology::NodeId;

    /// `n` gaps of `kind` at `mean_gap`, drawn by a generator.
    fn gaps(kind: ArrivalKind, mean_gap: f64, seed: u64, n: usize) -> Vec<f64> {
        let mut g = Generator::new(NodeId(0), kind, mean_gap, SimRng::from_seed(seed));
        (0..n).map(|_| g.next_gap()).collect()
    }

    fn observed_mean(kind: ArrivalKind, mean_gap: f64, n: usize) -> f64 {
        gaps(kind, mean_gap, 42, n).iter().sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_hits_its_mean() {
        let m = observed_mean(ArrivalKind::Exponential, 25.0, 40_000);
        assert!((m - 25.0).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn bernoulli_hits_its_mean() {
        let m = observed_mean(ArrivalKind::Bernoulli, 10.0, 40_000);
        assert!((m - 10.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn bernoulli_gaps_are_positive_integers() {
        for g in gaps(ArrivalKind::Bernoulli, 4.0, 7, 1000) {
            assert!(g >= 1.0);
            assert_eq!(g.fract(), 0.0);
        }
    }

    #[test]
    fn periodic_is_constant() {
        for g in gaps(ArrivalKind::Periodic, 7.5, 1, 10) {
            assert_eq!(g, 7.5);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = gaps(ArrivalKind::Exponential, 0.0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn bernoulli_rejects_sub_cycle_gaps() {
        let _ = gaps(ArrivalKind::Bernoulli, 0.5, 1, 1);
    }
}
