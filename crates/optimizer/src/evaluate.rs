//! Assignment evaluation: assignment → system → uptime → TCO.

use serde::{Deserialize, Serialize};
use uptime_core::{MoneyPerMonth, SystemSpec, TcoBreakdown, TcoModel, UptimeBreakdown};

use crate::objective::RankKey;
use crate::space::SearchSpace;

/// The fully-evaluated result for one assignment: which candidates were
/// chosen, the modeled uptime, and the itemized TCO.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    assignment: Vec<usize>,
    cardinality: usize,
    uptime: UptimeBreakdown,
    tco: TcoBreakdown,
}

impl Evaluation {
    /// Evaluates one assignment of the space under the given TCO model.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one in-range index per
    /// component — assignments must come from the same [`SearchSpace`].
    #[must_use]
    pub fn evaluate(space: &SearchSpace, model: &TcoModel, assignment: &[usize]) -> Self {
        assert_eq!(
            assignment.len(),
            space.len(),
            "assignment arity must match component count"
        );
        let clusters: Vec<_> = assignment
            .iter()
            .zip(space.components())
            .map(|(&idx, comp)| comp.candidates()[idx].cluster().clone())
            .collect();
        let system = SystemSpec::new(clusters).expect("space components are non-empty");
        let uptime = system.uptime();
        let ha_cost: MoneyPerMonth = assignment
            .iter()
            .zip(space.components())
            .map(|(&idx, comp)| comp.candidates()[idx].monthly_cost())
            .sum();
        let tco = model.evaluate(ha_cost, uptime.availability());
        Evaluation {
            assignment: assignment.to_vec(),
            cardinality: space.cardinality(assignment),
            uptime,
            tco,
        }
    }

    /// Assembles an evaluation from parts already computed elsewhere.
    ///
    /// Used by [`crate::composition`] to package results combined from
    /// cached per-cluster terms; semantics are identical to
    /// [`Evaluation::evaluate`] when the parts are consistent with the
    /// space.
    pub(crate) fn from_parts(
        assignment: Vec<usize>,
        cardinality: usize,
        uptime: UptimeBreakdown,
        tco: TcoBreakdown,
    ) -> Self {
        Evaluation {
            assignment,
            cardinality,
            uptime,
            tco,
        }
    }

    /// The scalar facts objectives rank by.
    #[must_use]
    pub fn rank_key(&self) -> RankKey {
        RankKey {
            total: self.tco.total(),
            expects_penalty: self.tco.expects_penalty(),
            cardinality: self.cardinality,
            availability: self.uptime.availability(),
        }
    }

    /// The assignment indices, one per component.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of components using a non-baseline candidate.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// The modeled uptime breakdown (`B_s`, `F_s`, `U_s`).
    #[must_use]
    pub fn uptime(&self) -> &UptimeBreakdown {
        &self.uptime
    }

    /// The itemized TCO.
    #[must_use]
    pub fn tco(&self) -> &TcoBreakdown {
        &self.tco
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Candidate, ComponentChoices};
    use uptime_catalog::{case_study, ComponentKind};
    use uptime_core::{ClusterSpec, PenaltyClause, Probability, SlaTarget};

    fn paper_space() -> SearchSpace {
        SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap()
    }

    /// The paper's 8 options keyed by (compute, storage, network) booleans.
    fn assignment(compute_ha: bool, storage_ha: bool, network_ha: bool) -> Vec<usize> {
        vec![
            compute_ha as usize,
            storage_ha as usize,
            network_ha as usize,
        ]
    }

    #[test]
    fn paper_option_tcos_reproduce_fig10() {
        let space = paper_space();
        let model = case_study::tco_model();
        // (assignment, expected U_s %, expected TCO $) per Figs. 3–10.
        let cases = [
            (assignment(false, false, false), 92.17, 4300.0), // #1
            (assignment(false, false, true), 94.01, 4000.0),  // #2
            (assignment(false, true, false), 96.78, 1250.0),  // #3
            (assignment(true, false, false), 93.04, 5900.0),  // #4
            (assignment(false, true, true), 98.71, 1350.0),   // #5
            (assignment(true, false, true), 94.91, 5500.0),   // #6
            (assignment(true, true, false), 97.70, 2850.0),   // #7
            (assignment(true, true, true), 99.66, 3550.0),    // #8
        ];
        for (a, uptime_pct, tco) in cases {
            let e = Evaluation::evaluate(&space, &model, &a);
            assert!(
                (e.uptime().availability().as_percent() - uptime_pct).abs() < 0.02,
                "{a:?}: uptime {} want {uptime_pct}",
                e.uptime().availability().as_percent()
            );
            assert!(
                (e.tco().total().value() - tco).abs() < 0.5,
                "{a:?}: tco {} want {tco}",
                e.tco().total()
            );
        }
    }

    #[test]
    fn option5_and_8_meet_sla() {
        let space = paper_space();
        let model = case_study::tco_model();
        for (a, meets) in [
            (assignment(false, true, true), true),
            (assignment(true, true, true), true),
            (assignment(false, true, false), false),
            (assignment(false, false, false), false),
        ] {
            let e = Evaluation::evaluate(&space, &model, &a);
            assert_eq!(!e.tco().expects_penalty(), meets, "{a:?}");
        }
    }

    #[test]
    fn cardinality_recorded() {
        let space = paper_space();
        let model = case_study::tco_model();
        assert_eq!(
            Evaluation::evaluate(&space, &model, &assignment(false, false, false)).cardinality(),
            0
        );
        assert_eq!(
            Evaluation::evaluate(&space, &model, &assignment(true, true, true)).cardinality(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "assignment arity")]
    fn wrong_arity_panics() {
        let space = paper_space();
        let model = case_study::tco_model();
        let _ = Evaluation::evaluate(&space, &model, &[0, 0]);
    }

    #[test]
    fn single_component_space() {
        let cluster = ClusterSpec::singleton("only", Probability::new(0.01).unwrap(), 1.0).unwrap();
        let space = SearchSpace::new(vec![ComponentChoices::new(
            "only",
            vec![Candidate::new("none", cluster, MoneyPerMonth::ZERO, true)],
        )
        .unwrap()])
        .unwrap();
        let model = uptime_core::TcoModel::new(
            SlaTarget::from_percent(99.9).unwrap(),
            PenaltyClause::per_hour(10.0).unwrap(),
        );
        let e = Evaluation::evaluate(&space, &model, &[0]);
        assert!((e.uptime().availability().value() - 0.99).abs() < 1e-12);
        assert!(e.tco().expects_penalty());
    }

    #[test]
    fn serde_roundtrip() {
        let space = paper_space();
        let model = case_study::tco_model();
        let e = Evaluation::evaluate(&space, &model, &assignment(false, true, false));
        let json = serde_json::to_string(&e).unwrap();
        let back: Evaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
