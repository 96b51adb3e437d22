//! Message arrival processes.
//!
//! The paper injects messages "with exponential inter-arrival times"
//! (Table 2); [`ArrivalKind::Exponential`] is that process.
//! [`ArrivalKind::Bernoulli`] (geometric gaps) and [`ArrivalKind::Periodic`]
//! (deterministic gaps) are provided for validation and ablation runs — at
//! equal rates all three should saturate at the same load, differing only
//! in burstiness.

use lapses_sim::SimRng;

/// A point process generating message inter-arrival gaps, in cycles.
///
/// Gaps are real-valued; the per-node [`Generator`](crate::Generator)
/// accumulates them on a real-valued timeline and fires whenever the
/// integer clock passes the next arrival, so fractional rates are honored
/// exactly in the long run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalKind {
    /// Exponential (Poisson) inter-arrival gaps — the paper's process.
    #[default]
    Exponential,
    /// Bernoulli trials per cycle with probability `1 / mean_gap`:
    /// geometric integer gaps.
    Bernoulli,
    /// Deterministic fixed gaps (no burstiness at all).
    Periodic,
}

impl ArrivalKind {
    /// Every arrival process, in declaration order.
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Exponential,
        ArrivalKind::Bernoulli,
        ArrivalKind::Periodic,
    ];

    /// Draws the next inter-arrival gap of the process at `mean_gap`
    /// cycles per message.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap` is positive, and at least 1 for Bernoulli
    /// arrivals (at most one trial per cycle).
    pub fn next_gap(self, mean_gap: f64, rng: &mut SimRng) -> f64 {
        match self {
            ArrivalKind::Exponential => rng.exponential(mean_gap),
            ArrivalKind::Bernoulli => {
                assert!(mean_gap >= 1.0, "Bernoulli mean gap must be at least 1");
                // Geometric via inverse transform: ceil(ln U / ln(1-p)).
                let p = 1.0 / mean_gap;
                let u = 1.0 - rng.unit(); // in (0, 1]
                (u.ln() / (1.0 - p).ln()).ceil().max(1.0)
            }
            ArrivalKind::Periodic => {
                assert!(mean_gap > 0.0, "gap must be positive");
                mean_gap
            }
        }
    }

    /// A short name for reports and scenario specs.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Exponential => "exponential",
            ArrivalKind::Bernoulli => "bernoulli",
            ArrivalKind::Periodic => "periodic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed_mean(kind: ArrivalKind, mean_gap: f64, n: usize) -> f64 {
        let mut rng = SimRng::from_seed(42);
        (0..n)
            .map(|_| kind.next_gap(mean_gap, &mut rng))
            .sum::<f64>()
            / n as f64
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
        let mut rng = SimRng::from_seed(7);
        for _ in 0..1000 {
            let g = ArrivalKind::Bernoulli.next_gap(4.0, &mut rng);
            assert!(g >= 1.0);
            assert_eq!(g.fract(), 0.0);
        }
    }

    #[test]
    fn periodic_is_constant() {
        let mut rng = SimRng::from_seed(1);
        for _ in 0..10 {
            assert_eq!(ArrivalKind::Periodic.next_gap(7.5, &mut rng), 7.5);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = ArrivalKind::Exponential.next_gap(0.0, &mut SimRng::from_seed(1));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn bernoulli_rejects_sub_cycle_gaps() {
        let _ = ArrivalKind::Bernoulli.next_gap(0.5, &mut SimRng::from_seed(1));
    }
}
