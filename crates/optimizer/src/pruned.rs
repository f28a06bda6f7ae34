//! The paper's §III.C superset-pruned search.
//!
//! > "The algorithm starts by evaluating all HA permutations where only one
//! > component is clustered, then proceeds to permutations where two
//! > components are clustered, and so on. If a particular permutation
//! > yields an uptime greater than what the contractual SLA stipulates,
//! > super-sets of that permutation can be pruned since those will increase
//! > uptime (beyond the SLA) while also increasing cost."
//!
//! A permutation `A` is a *superset* of `B` when `A` keeps every clustered
//! choice of `B` and additionally clusters one or more components that `B`
//! left at baseline.
//!
//! **Exactness.** The paper justifies pruning via uptime monotonicity,
//! which Eq. 3 does not strictly guarantee (adding HA introduces a failover
//! term). A sharper argument makes the pruning exact regardless: if `B`
//! meets the SLA then `TCO(B) = C_HA(B)`, and any superset `A` has
//! `C_HA(A) ≥ C_HA(B)` (it adds non-negatively-priced methods), hence
//! `TCO(A) = C_HA(A) + penalty(A) ≥ C_HA(B) = TCO(B)`. A pruned assignment
//! therefore can never beat the satisfier that pruned it, so the returned
//! optimum equals the exhaustive optimum under [`Objective::MinTco`].
//! (For ties, the satisfier itself is already in the result set.)

use uptime_core::TcoModel;

use crate::composition::{CompositionEvaluator, CompositionSpace};
use crate::evaluate::Evaluation;
use crate::objective::Objective;
use crate::outcome::{SearchOutcome, SearchStats};
use crate::space::SearchSpace;

/// Runs the superset-pruned search.
///
/// Components without a baseline candidate are treated as always-clustered:
/// they contribute to every permutation's cardinality and are never
/// eligible for the "upgrade from baseline" superset relation.
///
/// # Examples
///
/// The paper's example — after option #5 satisfies the SLA, option #8 (its
/// superset) is clipped:
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{pruned, Objective, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let outcome = pruned::search(&space, &case_study::tco_model(), Objective::MinTco);
/// assert!(outcome.stats().skipped >= 1, "option #8 must be clipped");
/// assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn search(space: &SearchSpace, model: &TcoModel, objective: Objective) -> SearchOutcome {
    let sla = model.sla();
    let chain = CompositionSpace::from_serial(space);
    let eval = CompositionEvaluator::new(&chain, model);
    let mut evaluations: Vec<Evaluation> = Vec::new();
    let mut satisfiers: Vec<Vec<usize>> = Vec::new();
    let mut stats = SearchStats::default();

    // Group assignments by ascending cardinality, as the paper prescribes.
    let mut by_cardinality: Vec<Vec<Vec<usize>>> = vec![Vec::new(); space.len() + 1];
    for assignment in space.assignments() {
        let c = space.cardinality(&assignment);
        by_cardinality[c].push(assignment);
    }

    for level in by_cardinality {
        for assignment in level {
            if satisfiers
                .iter()
                .any(|b| is_superset(space, &assignment, b))
            {
                stats.skipped += 1;
                continue;
            }
            let evaluation = eval.evaluate(&assignment);
            stats.evaluated += 1;
            if sla.is_met_by(evaluation.uptime().availability()) {
                satisfiers.push(assignment);
            }
            evaluations.push(evaluation);
        }
    }

    SearchOutcome::from_evaluations(objective, evaluations, stats)
}

/// Whether `a` is a strict superset of `b`: identical wherever `b` is
/// clustered, and clustered somewhere `b` is baseline.
fn is_superset(space: &SearchSpace, a: &[usize], b: &[usize]) -> bool {
    let mut strictly_more = false;
    for ((&ai, &bi), comp) in a.iter().zip(b).zip(space.components()) {
        let b_is_baseline = comp.candidates()[bi].is_baseline();
        if ai == bi {
            continue;
        }
        if !b_is_baseline {
            // b clustered this component differently: not a superset.
            return false;
        }
        if comp.candidates()[ai].is_baseline() {
            // a downgraded to a different baseline (impossible with one
            // baseline per component, defensive anyway).
            return false;
        }
        strictly_more = true;
    }
    strictly_more
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
    fn clips_option8_after_option5() {
        let outcome = search(&paper_space(), &case_study::tco_model(), Objective::MinTco);
        // Option #5 ([0,1,1], cardinality 2) meets the SLA; its only strict
        // superset is option #8 ([1,1,1]).
        assert_eq!(outcome.stats().skipped, 1);
        assert_eq!(outcome.stats().evaluated, 7);
        assert!(
            !outcome
                .evaluations()
                .iter()
                .any(|e| e.assignment() == [1, 1, 1]),
            "option #8 must not be evaluated"
        );
    }

    #[test]
    fn agrees_with_exhaustive_on_paper_space() {
        let space = paper_space();
        let model = case_study::tco_model();
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        let fast = search(&space, &model, Objective::MinTco);
        assert_eq!(
            full.best().unwrap().tco().total(),
            fast.best().unwrap().tco().total()
        );
        assert_eq!(
            full.best().unwrap().assignment(),
            fast.best().unwrap().assignment()
        );
    }

    #[test]
    fn agrees_with_exhaustive_on_hybrid_space() {
        let catalog = extended::hybrid_catalog();
        let model = case_study::tco_model();
        for cloud in [
            case_study::cloud_id(),
            extended::nimbus_id(),
            extended::stratus_id(),
        ] {
            let space =
                SearchSpace::from_catalog(&catalog, &cloud, &ComponentKind::paper_tiers()).unwrap();
            let full = exhaustive::search(&space, &model, Objective::MinTco);
            let fast = search(&space, &model, Objective::MinTco);
            assert_eq!(
                full.best().unwrap().tco().total(),
                fast.best().unwrap().tco().total(),
                "{cloud}"
            );
            assert!(fast.stats().evaluated <= full.stats().evaluated, "{cloud}");
        }
    }

    #[test]
    fn superset_relation() {
        let space = paper_space();
        // [1,1,1] ⊃ [0,1,1].
        assert!(is_superset(&space, &[1, 1, 1], &[0, 1, 1]));
        // Not a superset of itself.
        assert!(!is_superset(&space, &[0, 1, 1], &[0, 1, 1]));
        // Sibling, not superset.
        assert!(!is_superset(&space, &[1, 0, 1], &[0, 1, 1]));
        // Subset, not superset.
        assert!(!is_superset(&space, &[0, 1, 0], &[0, 1, 1]));
    }

    #[test]
    fn evaluated_plus_skipped_covers_space() {
        let space = paper_space();
        let outcome = search(&space, &case_study::tco_model(), Objective::MinTco);
        assert_eq!(
            u128::from(outcome.stats().considered()),
            space.assignment_count()
        );
    }

    #[test]
    fn impossible_sla_prunes_nothing() {
        use uptime_core::{PenaltyClause, SlaTarget, TcoModel};
        let space = paper_space();
        let model = TcoModel::new(
            SlaTarget::from_percent(100.0).unwrap(),
            PenaltyClause::per_hour(100.0).unwrap(),
        );
        let outcome = search(&space, &model, Objective::MinTco);
        assert_eq!(outcome.stats().skipped, 0);
        assert_eq!(outcome.stats().evaluated, 8);
    }

    #[test]
    fn trivial_sla_prunes_aggressively() {
        use uptime_core::{PenaltyClause, SlaTarget, TcoModel};
        let space = paper_space();
        // A 1% SLA is met even with no HA: every non-baseline permutation
        // is a superset of the all-baseline satisfier.
        let model = TcoModel::new(
            SlaTarget::from_percent(1.0).unwrap(),
            PenaltyClause::per_hour(100.0).unwrap(),
        );
        let outcome = search(&space, &model, Objective::MinTco);
        assert_eq!(outcome.stats().evaluated, 1);
        assert_eq!(outcome.stats().skipped, 7);
        assert_eq!(outcome.best().unwrap().assignment(), &[0, 0, 0]);
    }
}
