//! Message arrival processes.
//!
//! The paper injects messages "with exponential inter-arrival times"
//! (Table 2); [`Exponential`] is that process. [`Bernoulli`] (geometric
//! gaps) and [`Periodic`] (deterministic gaps) are provided for validation
//! and ablation runs — at equal rates all three should saturate at the same
//! load, differing only in burstiness.

use lapses_sim::SimRng;
use std::fmt;

/// A point process generating message inter-arrival gaps, in cycles.
///
/// Gaps are real-valued; the per-node [`Generator`](crate::Generator)
/// accumulates them on a real-valued timeline and fires whenever the
/// integer clock passes the next arrival, so fractional rates are honored
/// exactly in the long run.
pub trait ArrivalProcess: fmt::Debug + Send + Sync {
    /// Mean gap between messages, in cycles.
    fn mean_gap(&self) -> f64;

    /// Draws the next inter-arrival gap.
    fn next_gap(&self, rng: &mut SimRng) -> f64;
}

/// Poisson arrivals: exponentially distributed gaps (the paper's process).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates a Poisson process with the given mean gap in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is not strictly positive.
    pub fn new(mean_gap: f64) -> Self {
        assert!(mean_gap > 0.0, "mean gap must be positive");
        Exponential { mean: mean_gap }
    }
}

impl ArrivalProcess for Exponential {
    fn mean_gap(&self) -> f64 {
        self.mean
    }

    fn next_gap(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean)
    }
}

/// Bernoulli arrivals: one trial per cycle with probability `1 / mean_gap`,
/// giving geometrically distributed integer gaps.
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    mean: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli process with the given mean gap in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap < 1` (more than one arrival per cycle).
    pub fn new(mean_gap: f64) -> Self {
        assert!(mean_gap >= 1.0, "Bernoulli mean gap must be at least 1");
        Bernoulli { mean: mean_gap }
    }
}

impl ArrivalProcess for Bernoulli {
    fn mean_gap(&self) -> f64 {
        self.mean
    }

    fn next_gap(&self, rng: &mut SimRng) -> f64 {
        // Geometric via inverse transform: ceil(ln U / ln(1-p)).
        let p = 1.0 / self.mean;
        let u = 1.0 - rng.unit(); // in (0, 1]
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0)
    }
}

/// Deterministic arrivals every `gap` cycles (no burstiness at all).
#[derive(Debug, Clone, Copy)]
pub struct Periodic {
    gap: f64,
}

impl Periodic {
    /// Creates a periodic process with the given fixed gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is not strictly positive.
    pub fn new(gap: f64) -> Self {
        assert!(gap > 0.0, "gap must be positive");
        Periodic { gap }
    }
}

impl ArrivalProcess for Periodic {
    fn mean_gap(&self) -> f64 {
        self.gap
    }

    fn next_gap(&self, _rng: &mut SimRng) -> f64 {
        self.gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed_mean(p: &dyn ArrivalProcess, n: usize) -> f64 {
        let mut rng = SimRng::from_seed(42);
        (0..n).map(|_| p.next_gap(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_hits_its_mean() {
        let p = Exponential::new(25.0);
        let m = observed_mean(&p, 40_000);
        assert!((m - 25.0).abs() < 1.0, "mean {m}");
        assert_eq!(p.mean_gap(), 25.0);
    }

    #[test]
    fn bernoulli_hits_its_mean() {
        let p = Bernoulli::new(10.0);
        let m = observed_mean(&p, 40_000);
        assert!((m - 10.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn bernoulli_gaps_are_positive_integers() {
        let p = Bernoulli::new(4.0);
        let mut rng = SimRng::from_seed(7);
        for _ in 0..1000 {
            let g = p.next_gap(&mut rng);
            assert!(g >= 1.0);
            assert_eq!(g.fract(), 0.0);
        }
    }

    #[test]
    fn periodic_is_constant() {
        let p = Periodic::new(7.5);
        let mut rng = SimRng::from_seed(1);
        for _ in 0..10 {
            assert_eq!(p.next_gap(&mut rng), 7.5);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::new(0.0);
    }
}
