//! Offline stand-in for the crates.io `criterion` crate.
//!
//! The build image has no network access, so the real criterion cannot be
//! fetched. This shim implements the subset of the API the `lapses-bench`
//! microbenchmarks use — `criterion_group!`/`criterion_main!`, benchmark
//! groups, `iter`, and `iter_batched` — with a plain wall-clock harness: it
//! warms up, times batches until the measurement window closes, and prints
//! the mean and the median-sample ns/iteration per benchmark. There are no
//! other statistics, plots, or baselines; swap the real crate back in when
//! a registry is available.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost (accepted, not acted upon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs: one setup per routine call.
    LargeInput,
    /// One setup per batch of unspecified size.
    PerIteration,
}

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            sample_size: 50,
        }
    }
}

impl Criterion {
    /// Sets the per-benchmark measurement window.
    pub fn measurement_time(mut self, t: Duration) -> Criterion {
        self.measurement_time = t;
        self
    }

    /// Sets the per-benchmark warm-up window.
    pub fn warm_up_time(mut self, t: Duration) -> Criterion {
        self.warm_up_time = t;
        self
    }

    /// Sets the default sample count (upper bound on timed batches).
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Criterion {
        let (mt, wt, ss) = (self.measurement_time, self.warm_up_time, self.sample_size);
        run_one(name, mt, wt, ss, f);
        self
    }
}

/// A named group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        run_one(
            &full,
            self.criterion.measurement_time,
            self.criterion.warm_up_time,
            self.sample_size.unwrap_or(self.criterion.sample_size),
            f,
        );
        self
    }

    /// Ends the group (a no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    phase_budget: Duration,
    iters_done: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` repeatedly until the phase budget is spent. The
    /// clock is read once per batch of iterations, not per iteration: the
    /// batches double, each capped at the iterations the budget left is
    /// estimated to hold, so the clock stays out of one-call routines and
    /// the phase overshoots its budget by about one iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        let mut done = 0u64;
        let mut batch = 1u64;
        loop {
            for _ in 0..batch {
                black_box(routine());
            }
            done += batch;
            let spent = start.elapsed();
            if spent >= self.phase_budget {
                self.iters_done += done;
                self.elapsed += spent;
                return;
            }
            let left = (self.phase_budget - spent).as_nanos();
            let fits = left * u128::from(done) / spent.as_nanos().max(1);
            batch = batch
                .saturating_mul(2)
                .min(u64::try_from(fits).unwrap_or(u64::MAX))
                .max(1);
        }
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let phase_start = Instant::now();
        while phase_start.elapsed() < self.phase_budget {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.elapsed += t.elapsed();
            self.iters_done += 1;
        }
    }
}

/// The median of `samples` (the mean of the middle two for an even
/// count), or NaN when there are none.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    match samples.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => samples[mid],
        _ => (samples[mid - 1] + samples[mid]) / 2.0,
    }
}

/// Warms up, then times `sample_size` calls of `f`, each one sample.
/// Prints the mean over all iterations and the median sample's ns/iter,
/// which one slow stretch of the host cannot move on its own.
fn run_one<F: FnMut(&mut Bencher)>(
    name: &str,
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    mut f: F,
) {
    let mut warm = Bencher {
        phase_budget: warm_up_time,
        iters_done: 0,
        elapsed: Duration::ZERO,
    };
    f(&mut warm);

    let mut bench = Bencher {
        // The closure body calls iter()/iter_batched() once per invocation;
        // split the window across `sample_size` invocations.
        phase_budget: measurement_time / sample_size as u32,
        iters_done: 0,
        elapsed: Duration::ZERO,
    };
    let mut samples = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let (iters, elapsed) = (bench.iters_done, bench.elapsed);
        f(&mut bench);
        let iters = bench.iters_done - iters;
        if iters > 0 {
            samples.push((bench.elapsed - elapsed).as_nanos() as f64 / iters as f64);
        }
    }
    let iters = bench.iters_done.max(1);
    let per_iter = bench.elapsed.as_nanos() as f64 / iters as f64;
    let median = median(&mut samples);
    println!("{name:<48} {per_iter:>14.1} ns/iter  median {median:>.1}  ({iters} iters)");
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_counts_iterations() {
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(1));
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        // Routine calls per call of the bench body: the warm-up, then one
        // per sample.
        let mut calls = Vec::new();
        group.bench_function("noop", |b| {
            let mut n = 0u64;
            b.iter(|| n += 1);
            calls.push(n);
        });
        group.finish();
        assert_eq!(calls.len(), 3, "{calls:?}");
        assert!(calls.iter().all(|&n| n >= 1), "{calls:?}");

        // `iter` counts every call it makes and stops once its budget is
        // spent.
        let mut b = Bencher {
            phase_budget: Duration::from_millis(2),
            iters_done: 0,
            elapsed: Duration::ZERO,
        };
        let mut n = 0u64;
        b.iter(|| n += 1);
        assert_eq!(b.iters_done, n);
        assert!(
            n >= 1 && b.elapsed >= b.phase_budget,
            "{n} in {:?}",
            b.elapsed
        );
    }

    #[test]
    fn median_is_the_middle_sample() {
        assert_eq!(median(&mut [5.0, 1.0, 900.0]), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 1000.0]), 3.0);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn iter_batched_runs_setup_per_call() {
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1))
            .sample_size(2);
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::LargeInput)
        });
    }
}
