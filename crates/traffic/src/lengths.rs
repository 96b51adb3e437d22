//! Message length distributions.
//!
//! The paper uses "a constant message length of 20 flits (unless otherwise
//! indicated)" and sweeps lengths {5, 10, 20, 50} in Table 3; the
//! [`LengthDistribution::Fixed`] variant covers both. The bimodal variant
//! models the short-control/long-data mixes the introduction motivates
//! (shared-memory traffic plus bulk transfer).

use lapses_sim::SimRng;
use std::fmt;

/// How many flits each generated message carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDistribution {
    /// Every message has exactly this many flits (the paper's setting).
    Fixed(u32),
    /// Uniformly distributed in `[min, max]` inclusive.
    UniformRange {
        /// Smallest message length, in flits.
        min: u32,
        /// Largest message length, in flits.
        max: u32,
    },
    /// Short messages with probability `1 - long_fraction`, long otherwise.
    Bimodal {
        /// Length of short (e.g. control) messages.
        short: u32,
        /// Length of long (e.g. bulk data) messages.
        long: u32,
        /// Probability that a message is long.
        long_fraction: f64,
    },
}

impl LengthDistribution {
    /// The paper's default: 20-flit messages.
    pub const PAPER_DEFAULT: LengthDistribution = LengthDistribution::Fixed(20);

    /// Whether the parameters are consistent: every length at least one
    /// flit, an ordered range, and a long fraction in `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        match *self {
            LengthDistribution::Fixed(len) => len >= 1,
            LengthDistribution::UniformRange { min, max } => min >= 1 && min <= max,
            LengthDistribution::Bimodal {
                short,
                long,
                long_fraction,
            } => short >= 1 && long >= 1 && (0.0..=1.0).contains(&long_fraction),
        }
    }

    /// Draws a message length in flits (always at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the distribution is not [valid](Self::is_valid).
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match *self {
            LengthDistribution::Fixed(len) => {
                assert!(self.is_valid(), "message length must be at least 1 flit");
                len
            }
            LengthDistribution::UniformRange { min, max } => {
                assert!(self.is_valid(), "invalid length range");
                rng.range(min as u64, max as u64 + 1) as u32
            }
            LengthDistribution::Bimodal {
                short,
                long,
                long_fraction,
            } => {
                assert!(self.is_valid(), "invalid bimodal lengths");
                if rng.chance(long_fraction) {
                    long
                } else {
                    short
                }
            }
        }
    }

    /// Expected message length in flits, used to convert flit rates to
    /// message rates when normalizing load.
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDistribution::Fixed(len) => len as f64,
            LengthDistribution::UniformRange { min, max } => (min as f64 + max as f64) / 2.0,
            LengthDistribution::Bimodal {
                short,
                long,
                long_fraction,
            } => short as f64 * (1.0 - long_fraction) + long as f64 * long_fraction,
        }
    }
}

impl Default for LengthDistribution {
    fn default() -> Self {
        LengthDistribution::PAPER_DEFAULT
    }
}

impl fmt::Display for LengthDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LengthDistribution::Fixed(len) => write!(f, "{len} flits"),
            LengthDistribution::UniformRange { min, max } => {
                write!(f, "uniform {min}..={max} flits")
            }
            LengthDistribution::Bimodal {
                short,
                long,
                long_fraction,
            } => write!(
                f,
                "bimodal {short}/{long} flits ({:.0}% long)",
                long_fraction * 100.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_returns_its_length() {
        let mut rng = SimRng::from_seed(1);
        let d = LengthDistribution::Fixed(20);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 20);
        }
        assert_eq!(d.mean(), 20.0);
    }

    #[test]
    fn paper_default_is_20_flits() {
        assert_eq!(LengthDistribution::default(), LengthDistribution::Fixed(20));
    }

    #[test]
    fn uniform_range_is_inclusive() {
        let mut rng = SimRng::from_seed(2);
        let d = LengthDistribution::UniformRange { min: 3, max: 5 };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let l = d.sample(&mut rng);
            assert!((3..=5).contains(&l));
            seen.insert(l);
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(d.mean(), 4.0);
    }

    #[test]
    fn bimodal_mixes_lengths() {
        let mut rng = SimRng::from_seed(3);
        let d = LengthDistribution::Bimodal {
            short: 5,
            long: 50,
            long_fraction: 0.25,
        };
        let n = 20_000;
        let longs = (0..n).filter(|_| d.sample(&mut rng) == 50).count();
        let frac = longs as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "long fraction {frac}");
        assert!((d.mean() - (5.0 * 0.75 + 50.0 * 0.25)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid length range")]
    fn inverted_range_rejected() {
        let mut rng = SimRng::from_seed(4);
        let _ = LengthDistribution::UniformRange { min: 9, max: 3 }.sample(&mut rng);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(LengthDistribution::Fixed(20).to_string(), "20 flits");
        assert_eq!(
            LengthDistribution::Bimodal {
                short: 5,
                long: 50,
                long_fraction: 0.25
            }
            .to_string(),
            "bimodal 5/50 flits (25% long)"
        );
    }
}
