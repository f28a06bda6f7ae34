//! Cost/uptime Pareto analysis.
//!
//! Beyond the single `OptCh` recommendation, a broker can present the
//! client with the *frontier* of deployments where spending more strictly
//! buys more uptime — useful when the SLA itself is negotiable.
//!
//! The engines live in [`crate::pareto_bnb`]; [`ParetoPoint`] is the
//! point they return. The tests below pin the unconstrained exhaustive
//! sweep of a serial chain ([`crate::pareto_bnb::sweep`]) against the
//! naive dominance-filter definition
//! (`frontier_matches_naive_dominance_filter`).

use serde::{Deserialize, Serialize};

use crate::evaluate::Evaluation;

/// One point on the cost/uptime frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    evaluation: Evaluation,
}

impl ParetoPoint {
    /// Wraps an evaluation the frontier engines already vetted.
    pub(crate) fn from_evaluation(evaluation: Evaluation) -> Self {
        ParetoPoint { evaluation }
    }

    /// The underlying evaluation.
    #[must_use]
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// Monthly HA cost of this point.
    #[must_use]
    pub fn ha_cost(&self) -> uptime_core::MoneyPerMonth {
        self.evaluation.tco().ha_cost()
    }

    /// Modeled uptime of this point.
    #[must_use]
    pub fn uptime(&self) -> uptime_core::Probability {
        self.evaluation.uptime().availability()
    }

    /// Expected failover downtime of this point, minutes/month — the
    /// coordinate SLO failover budgets are measured against.
    #[must_use]
    pub fn failover_minutes_per_month(&self) -> f64 {
        crate::pareto_bnb::failover_minutes(self.evaluation.uptime())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto_bnb::{self, FrontierConstraints};
    use crate::space::SearchSpace;
    use uptime_catalog::{case_study, ComponentKind};
    use uptime_core::TcoModel;

    /// The unconstrained exhaustive frontier of a serial chain.
    fn frontier(space: &SearchSpace, model: &TcoModel) -> Vec<ParetoPoint> {
        pareto_bnb::sweep(space, model, &FrontierConstraints::NONE, 0.0).into_points()
    }

    fn paper_frontier() -> Vec<ParetoPoint> {
        let space = SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        frontier(&space, &case_study::tco_model())
    }

    #[test]
    fn frontier_is_sorted_and_strictly_improving() {
        let f = paper_frontier();
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[0].ha_cost() <= w[1].ha_cost());
            assert!(w[0].uptime() < w[1].uptime(), "uptime must strictly rise");
        }
    }

    #[test]
    fn frontier_endpoints() {
        let f = paper_frontier();
        // Cheapest point: the free no-HA deployment.
        assert_eq!(f.first().unwrap().ha_cost().value(), 0.0);
        assert!((f.first().unwrap().uptime().as_percent() - 92.17).abs() < 0.01);
        // Most expensive frontier point must be the global max uptime
        // (option #8, 99.65 % by exact evaluation).
        let last = f.last().unwrap();
        assert!((last.uptime().as_percent() - 99.65).abs() < 0.02);
    }

    #[test]
    fn dominated_options_excluded() {
        let f = paper_frontier();
        // Option #4 (VMware only, $2200, 93.04 %) is dominated by RAID-1
        // ($350, 96.78 %): must not be on the frontier.
        assert!(
            !f.iter().any(|p| (p.ha_cost().value() - 2200.0).abs() < 0.5),
            "VMware-only is dominated"
        );
    }

    #[test]
    fn paper_frontier_contents() {
        // Expect exactly: $0 (92.17), $350 (96.78), $1350 (98.71), $3550 (99.66).
        let costs: Vec<f64> = paper_frontier()
            .iter()
            .map(|p| p.ha_cost().value())
            .collect();
        assert_eq!(costs, vec![0.0, 350.0, 1350.0, 3550.0]);
    }

    #[test]
    fn frontier_matches_naive_dominance_filter() {
        // Differential: the streamed cached-term sweep must agree with the
        // definition applied naively — evaluate everything the slow way,
        // keep the points no other point dominates — on every catalog.
        use uptime_catalog::extended;
        let catalog = extended::hybrid_catalog();
        let model = case_study::tco_model();
        for cloud in [
            case_study::cloud_id(),
            extended::nimbus_id(),
            extended::stratus_id(),
        ] {
            let space =
                SearchSpace::from_catalog(&catalog, &cloud, &ComponentKind::paper_tiers()).unwrap();
            let evals: Vec<Evaluation> = space
                .assignments()
                .map(|a| Evaluation::evaluate(&space, &model, &a))
                .collect();
            let mut naive: Vec<_> = evals
                .iter()
                .filter(|e| {
                    !evals.iter().any(|o| {
                        (o.tco().ha_cost() <= e.tco().ha_cost()
                            && o.uptime().availability() > e.uptime().availability())
                            || (o.tco().ha_cost() < e.tco().ha_cost()
                                && o.uptime().availability() >= e.uptime().availability())
                    })
                })
                .map(|e| (e.tco().ha_cost(), e.uptime().availability()))
                .collect();
            naive.sort();
            naive.dedup();
            let swept: Vec<_> = frontier(&space, &model)
                .iter()
                .map(|p| (p.ha_cost(), p.uptime()))
                .collect();
            assert_eq!(swept, naive, "{cloud}");
        }
    }

    #[test]
    fn duplicate_points_are_deduplicated_deterministically() {
        // A space where two distinct assignments produce identical
        // (cost, uptime) pairs: two interchangeable copies of the same
        // HA candidate. The frontier must keep exactly one point per
        // value pair, represented by the lexicographically-first
        // assignment (the lower flat index).
        use uptime_core::{ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, Probability};

        use crate::space::{Candidate, ComponentChoices};

        let p = Probability::new(0.05).unwrap();
        let baseline = Candidate::new(
            "none",
            ClusterSpec::singleton("web", p, 2.0).unwrap(),
            MoneyPerMonth::ZERO,
            true,
        );
        let ha = |name: &str| {
            Candidate::new(
                name,
                ClusterSpec::builder("web-ha")
                    .total_nodes(2)
                    .standby_budget(1)
                    .node_down_probability(p)
                    .failures_per_year(FailuresPerYear::new(2.0).unwrap())
                    .failover_time(Minutes::new(5.0).unwrap())
                    .build()
                    .unwrap(),
                MoneyPerMonth::new(400.0).unwrap(),
                false,
            )
        };
        let space = SearchSpace::new(vec![ComponentChoices::new(
            "web",
            vec![baseline, ha("twin-a"), ha("twin-b")],
        )
        .unwrap()])
        .unwrap();
        let model = case_study::tco_model();

        let f = frontier(&space, &model);
        // Values must be strictly increasing — the twin pair collapses.
        for w in f.windows(2) {
            assert!(w[0].ha_cost() < w[1].ha_cost() || w[0].uptime() < w[1].uptime());
        }
        let twins: Vec<_> = f
            .iter()
            .filter(|pt| (pt.ha_cost().value() - 400.0).abs() < 1e-9)
            .collect();
        assert_eq!(twins.len(), 1, "equal-value twins must deduplicate");
        // twin-a (assignment [1]) beats twin-b ([2]) on flat index.
        assert_eq!(twins[0].evaluation().assignment(), &[1]);
    }

    #[test]
    fn every_non_frontier_point_is_dominated() {
        let space = SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        let model = case_study::tco_model();
        let f = frontier(&space, &model);
        for a in space.assignments() {
            let e = Evaluation::evaluate(&space, &model, &a);
            let on_frontier = f
                .iter()
                .any(|p| p.evaluation().assignment() == e.assignment());
            if !on_frontier {
                let dominated = f.iter().any(|p| {
                    p.ha_cost() <= e.tco().ha_cost() && p.uptime() >= e.uptime().availability()
                });
                assert!(
                    dominated,
                    "{:?} neither on frontier nor dominated",
                    e.assignment()
                );
            }
        }
    }
}
