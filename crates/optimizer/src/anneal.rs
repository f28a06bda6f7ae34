//! Simulated-annealing heuristic (ablation baseline).
//!
//! Deterministically seeded so that benchmark runs are reproducible.
//! Useful once spaces grow past exhaustive reach (`k^n` in the millions);
//! on the paper's n = 3 space it is pure overhead and exists as a
//! comparison point.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uptime_core::TcoModel;

use crate::evaluate::Evaluation;
use crate::objective::Objective;
use crate::outcome::{SearchOutcome, SearchStats};
use crate::space::SearchSpace;

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Schedule {
    /// Starting temperature, in TCO dollars.
    initial_temperature: f64,
    /// Multiplicative cooling factor per step, in `(0, 1)`.
    cooling: f64,
    /// Total proposal steps.
    steps: u32,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            initial_temperature: 2000.0,
            cooling: 0.995,
            steps: 2000,
        }
    }
}

/// Runs simulated annealing from the baseline assignment with the given
/// seed and schedule.
#[must_use]
fn search_with(
    space: &SearchSpace,
    model: &TcoModel,
    objective: Objective,
    seed: u64,
    schedule: Schedule,
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = SearchStats::default();

    let start = space
        .baseline_assignment()
        .unwrap_or_else(|| vec![0; space.len()]);
    let mut current = Evaluation::evaluate(space, model, &start);
    stats.evaluated += 1;
    let mut best = current.clone();
    let mut evaluations = vec![current.clone()];

    let mut temperature = schedule.initial_temperature;
    for _ in 0..schedule.steps {
        // Propose: re-pick one component's candidate uniformly.
        let comp = rng.random_range(0..space.len());
        let k = space.components()[comp].len();
        if k == 1 {
            temperature *= schedule.cooling;
            continue;
        }
        let mut idx = rng.random_range(0..k);
        if idx == current.assignment()[comp] {
            idx = (idx + 1) % k;
        }
        let mut assignment = current.assignment().to_vec();
        assignment[comp] = idx;
        let proposal = Evaluation::evaluate(space, model, &assignment);
        stats.evaluated += 1;

        let delta = proposal.tco().total().value() - current.tco().total().value();
        let accept = delta <= 0.0 || {
            let u: f64 = rng.random();
            u < (-delta / temperature.max(f64::MIN_POSITIVE)).exp()
        };
        if accept {
            current = proposal.clone();
            if objective.better(&current, &best) {
                best = current.clone();
            }
        }
        evaluations.push(proposal);
        temperature *= schedule.cooling;
    }

    // Ensure the recorded best is in the evaluation list exactly once at
    // minimum; SearchOutcome re-derives best from the list, which includes
    // it already.
    SearchOutcome::from_evaluations(objective, evaluations, stats)
}

/// Runs simulated annealing with the default schedule and a fixed seed.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{anneal, Objective, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let outcome = anneal::search(&space, &case_study::tco_model(), Objective::MinTco);
/// assert!(outcome.best().is_some());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn search(space: &SearchSpace, model: &TcoModel, objective: Objective) -> SearchOutcome {
    search_with(space, model, objective, 0x5EED, Schedule::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive;
    use uptime_catalog::{case_study, extended, ComponentKind};

    fn paper_space() -> SearchSpace {
        SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap()
    }

    #[test]
    fn reaches_paper_optimum() {
        let outcome = search(&paper_space(), &case_study::tco_model(), Objective::MinTco);
        assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let space = paper_space();
        let model = case_study::tco_model();
        let a = search_with(&space, &model, Objective::MinTco, 7, Schedule::default());
        let b = search_with(&space, &model, Objective::MinTco, 7, Schedule::default());
        assert_eq!(
            a.best().unwrap().assignment(),
            b.best().unwrap().assignment()
        );
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn never_beats_exhaustive() {
        let catalog = extended::hybrid_catalog();
        let space = SearchSpace::from_catalog(
            &catalog,
            &extended::nimbus_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        let model = case_study::tco_model();
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        for seed in [1u64, 2, 3] {
            let sa = search_with(&space, &model, Objective::MinTco, seed, Schedule::default());
            assert!(
                sa.best().unwrap().tco().total() >= full.best().unwrap().tco().total(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn respects_step_budget() {
        let space = paper_space();
        let model = case_study::tco_model();
        let schedule = Schedule {
            steps: 50,
            ..Schedule::default()
        };
        let outcome = search_with(&space, &model, Objective::MinTco, 1, schedule);
        assert!(outcome.stats().evaluated <= 51);
    }

    #[test]
    fn single_choice_components_do_not_loop() {
        use crate::space::{Candidate, ComponentChoices};
        use uptime_core::{ClusterSpec, MoneyPerMonth, Probability};
        let space = SearchSpace::new(vec![ComponentChoices::new(
            "solo",
            vec![Candidate::new(
                "only",
                ClusterSpec::singleton("solo", Probability::new(0.01).unwrap(), 1.0).unwrap(),
                MoneyPerMonth::ZERO,
                true,
            )],
        )
        .unwrap()])
        .unwrap();
        let outcome = search(&space, &case_study::tco_model(), Objective::MinTco);
        assert_eq!(outcome.stats().evaluated, 1);
    }
}
