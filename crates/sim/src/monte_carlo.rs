//! Monte-Carlo estimation of system availability.
//!
//! Runs many independent simulation trials (distinct seeds) in parallel
//! and aggregates the observed availabilities into a mean with a
//! confidence interval — experiment V1's check that the analytic Eqs. 1–4
//! predict what the simulated infrastructure actually delivers.

use crossbeam::thread;
use serde::{Deserialize, Serialize};
use uptime_core::{Probability, SystemSpec};

use crate::error::SimError;
use crate::system::{SimConfig, Simulation};

/// Aggregated Monte-Carlo result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloEstimate {
    trials: u32,
    mean: f64,
    std_dev: f64,
}

impl MonteCarloEstimate {
    /// Aggregates raw per-trial availability samples into an estimate
    /// (sample mean, sample standard deviation). This is how every runner
    /// in the crate folds its trials — exposed so ad-hoc batches (e.g. the
    /// composition cross-validation suite) report through the same
    /// statistics as [`MonteCarloRunner`].
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return MonteCarloEstimate {
                trials: 0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = if samples.len() > 1 {
            samples.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        MonteCarloEstimate {
            trials: u32::try_from(samples.len()).unwrap_or(u32::MAX),
            mean,
            std_dev: variance.sqrt(),
        }
    }

    /// Number of trials aggregated.
    #[must_use]
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// Mean observed availability.
    #[must_use]
    pub fn mean(&self) -> Probability {
        Probability::saturating(self.mean)
    }

    /// Sample standard deviation of per-trial availability.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.std_dev / f64::from(self.trials).sqrt()
        }
    }

    /// 95 % confidence interval for the mean (normal approximation).
    #[must_use]
    pub fn ci95(&self) -> (Probability, Probability) {
        let half = 1.96 * self.std_error();
        (
            Probability::saturating(self.mean - half),
            Probability::saturating(self.mean + half),
        )
    }

    /// Whether an analytic prediction lies within `sigmas` standard errors
    /// of the observed mean.
    #[must_use]
    pub fn agrees_with(&self, prediction: Probability, sigmas: f64) -> bool {
        let tolerance = sigmas * self.std_error();
        (self.mean - prediction.value()).abs() <= tolerance
    }
}

/// Configurable Monte-Carlo runner.
///
/// # Examples
///
/// ```
/// use uptime_core::{ClusterSpec, Probability, SystemSpec};
/// use uptime_sim::MonteCarloRunner;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = SystemSpec::builder()
///     .cluster(ClusterSpec::singleton("web", Probability::new(0.02)?, 2.0)?)
///     .build()?;
/// let estimate = MonteCarloRunner::new(system)
///     .years_per_trial(20.0)
///     .trials(16)
///     .run()?;
/// assert!(estimate.agrees_with(Probability::new(0.98)?, 4.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarloRunner {
    system: SystemSpec,
    years_per_trial: f64,
    trials: u32,
    base_seed: u64,
    threads: usize,
}

impl MonteCarloRunner {
    /// Creates a runner with defaults: 10 years/trial, 32 trials, seed 1,
    /// hardware parallelism.
    #[must_use]
    pub fn new(system: SystemSpec) -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        MonteCarloRunner {
            system,
            years_per_trial: 10.0,
            trials: 32,
            base_seed: 1,
            threads,
        }
    }

    /// Sets the simulated years per trial.
    #[must_use]
    pub fn years_per_trial(mut self, years: f64) -> Self {
        self.years_per_trial = years;
        self
    }

    /// Sets the number of independent trials.
    #[must_use]
    pub fn trials(mut self, trials: u32) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base RNG seed. Trial `i` runs on
    /// [`crate::rng::stream_seed`]`(base_seed, i)` — a splitmix64-mixed
    /// derivation, so trials get statistically independent streams rather
    /// than the adjacent `StdRng` states `base_seed + i` would produce.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Caps worker threads (default: hardware parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs all trials and aggregates.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoTrials`] when `trials == 0`.
    /// * Any configuration error from the underlying [`Simulation`].
    pub fn run(&self) -> Result<MonteCarloEstimate, SimError> {
        if self.trials == 0 {
            return Err(SimError::NoTrials);
        }
        // Validate configuration once, up front.
        let _probe = Simulation::new(&self.system, SimConfig::years(self.years_per_trial))?;

        let trial_ids: Vec<u32> = (0..self.trials).collect();
        let workers = self.threads.min(trial_ids.len()).max(1);
        let chunk = trial_ids.len().div_ceil(workers);

        let availabilities: Vec<f64> = thread::scope(|scope| {
            let handles: Vec<_> = trial_ids
                .chunks(chunk)
                .map(|ids| {
                    let system = &self.system;
                    let years = self.years_per_trial;
                    let base = self.base_seed;
                    scope.spawn(move |_| {
                        ids.iter()
                            .map(|&i| {
                                Simulation::new(
                                    system,
                                    SimConfig::years(years)
                                        .with_seed(crate::rng::stream_seed(base, u64::from(i))),
                                )
                                .expect("validated by probe")
                                .run()
                                .availability()
                                .value()
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        })
        .expect("thread scope panicked");

        Ok(MonteCarloEstimate::from_samples(&availabilities))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uptime_core::ClusterSpec;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn singleton_system(down: f64, f: f64) -> SystemSpec {
        SystemSpec::builder()
            .cluster(ClusterSpec::singleton("only", p(down), f).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn zero_trials_rejected() {
        let runner = MonteCarloRunner::new(singleton_system(0.02, 2.0)).trials(0);
        assert!(matches!(runner.run(), Err(SimError::NoTrials)));
    }

    #[test]
    fn invalid_system_surfaces_config_error() {
        let runner = MonteCarloRunner::new(singleton_system(0.5, 0.0)).trials(4);
        assert!(matches!(
            runner.run(),
            Err(SimError::InvalidDynamics { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let runner = MonteCarloRunner::new(singleton_system(0.05, 3.0))
            .years_per_trial(5.0)
            .trials(8)
            .base_seed(11);
        let a = runner.run().unwrap();
        let b = runner.run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let base = MonteCarloRunner::new(singleton_system(0.05, 3.0))
            .years_per_trial(5.0)
            .trials(10)
            .base_seed(11);
        let serial = base.clone().threads(1).run().unwrap();
        let parallel = base.threads(4).run().unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn estimate_brackets_analytic_value() {
        let system = singleton_system(0.04, 2.0);
        let estimate = MonteCarloRunner::new(system.clone())
            .years_per_trial(50.0)
            .trials(24)
            .base_seed(3)
            .run()
            .unwrap();
        let analytic = system.uptime().availability();
        assert!(
            estimate.agrees_with(analytic, 4.0),
            "mean {} vs analytic {} (se {})",
            estimate.mean(),
            analytic,
            estimate.std_error()
        );
        let (lo, hi) = estimate.ci95();
        assert!(lo <= estimate.mean() && estimate.mean() <= hi);
        assert!(estimate.std_dev() > 0.0);
        assert_eq!(estimate.trials(), 24);
    }

    #[test]
    fn single_trial_has_zero_stddev() {
        let estimate = MonteCarloRunner::new(singleton_system(0.05, 2.0))
            .years_per_trial(2.0)
            .trials(1)
            .run()
            .unwrap();
        assert_eq!(estimate.std_dev(), 0.0);
        assert_eq!(estimate.std_error(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let estimate = MonteCarloRunner::new(singleton_system(0.05, 2.0))
            .years_per_trial(2.0)
            .trials(2)
            .run()
            .unwrap();
        let json = serde_json::to_string(&estimate).unwrap();
        let back: MonteCarloEstimate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, estimate);
    }
}
