//! Exhaustive `k^n` enumeration — the paper's baseline algorithm (§II.C).
//!
//! The enumeration runs on the composition kernel's cursor: per-candidate
//! terms are cached once and combined incrementally, so the only
//! per-assignment cost left is materializing the [`Evaluation`] report
//! itself. Callers that need just the optimum should prefer
//! [`crate::composition::search`], which skips even that.

use uptime_core::TcoModel;

use crate::composition::{CompositionEvaluator, CompositionSpace};
use crate::evaluate::Evaluation;
use crate::objective::Objective;
use crate::outcome::{SearchOutcome, SearchStats};
use crate::space::SearchSpace;

/// Evaluates **every** assignment of a serial space and returns the full
/// outcome: [`composition_search`] on the pure-series space. Exact by
/// construction; `O(k^n)` evaluations.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{exhaustive, Objective, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let outcome = exhaustive::search(&space, &case_study::tco_model(), Objective::MinTco);
/// assert_eq!(outcome.stats().evaluated, 8);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn search(space: &SearchSpace, model: &TcoModel, objective: Objective) -> SearchOutcome {
    composition_search(&CompositionSpace::from_serial(space), model, objective)
}

/// Evaluates every assignment of a composition space, in lexicographic
/// visit order — the full option table behind the paper's Fig. 10 and
/// every archetype's.
#[must_use]
pub fn composition_search(
    space: &CompositionSpace,
    model: &TcoModel,
    objective: Objective,
) -> SearchOutcome {
    let mut evaluations: Vec<Evaluation> =
        Vec::with_capacity(space.assignment_count().min(1 << 20) as usize);
    let eval = CompositionEvaluator::new(space, model);
    let mut cursor = eval.cursor();
    loop {
        evaluations.push(cursor.evaluation());
        if !cursor.advance() {
            break;
        }
    }
    let stats = SearchStats {
        evaluated: evaluations.len() as u64,
        skipped: 0,
    };
    SearchOutcome::from_evaluations(objective, evaluations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn evaluates_all_eight_options() {
        let outcome = search(&paper_space(), &case_study::tco_model(), Objective::MinTco);
        assert_eq!(outcome.evaluations().len(), 8);
        assert_eq!(outcome.stats().evaluated, 8);
        assert_eq!(outcome.stats().skipped, 0);
    }

    #[test]
    fn finds_paper_optimum() {
        let outcome = search(&paper_space(), &case_study::tco_model(), Objective::MinTco);
        let best = outcome.best().unwrap();
        assert_eq!(best.tco().total().value(), 1250.0);
        assert_eq!(best.assignment(), &[0, 1, 0]);
    }

    #[test]
    fn min_penalty_risk_finds_option5() {
        let outcome = search(
            &paper_space(),
            &case_study::tco_model(),
            Objective::MinPenaltyRisk,
        );
        assert_eq!(outcome.best().unwrap().tco().total().value(), 1350.0);
    }

    #[test]
    fn table_is_in_lexicographic_visit_order() {
        let space = paper_space();
        let outcome = search(&space, &case_study::tco_model(), Objective::MinTco);
        let visited: Vec<&[usize]> = outcome
            .evaluations()
            .iter()
            .map(|e| e.assignment())
            .collect();
        let expected: Vec<Vec<usize>> = space.assignments().collect();
        assert_eq!(visited, expected);
    }

    #[test]
    fn hybrid_space_is_36_wide() {
        let catalog = extended::hybrid_catalog();
        let space = SearchSpace::from_catalog(
            &catalog,
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        assert_eq!(space.assignment_count(), 36);
        let outcome = search(&space, &case_study::tco_model(), Objective::MinTco);
        assert_eq!(outcome.stats().evaluated, 36);
        // With more (cheap, fast-failover) choices the optimum can only
        // improve on the k=2 optimum.
        assert!(outcome.best().unwrap().tco().total().value() <= 1250.0);
    }
}
