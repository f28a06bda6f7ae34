//! Search outcomes and instrumentation.

use serde::{Deserialize, Serialize};

use crate::evaluate::Evaluation;
use crate::objective::Objective;

/// Instrumentation counters for one search run, used by the §III.C
/// complexity experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Assignments fully evaluated (system built + TCO computed).
    pub evaluated: u64,
    /// Assignments skipped by pruning/bounding without evaluation.
    pub skipped: u64,
}

impl SearchStats {
    /// Total assignments considered (evaluated + skipped).
    #[must_use]
    pub fn considered(&self) -> u64 {
        self.evaluated + self.skipped
    }
}

/// The result of a search: the winning evaluation, everything evaluated
/// (for reporting), and counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    objective: Objective,
    best: Option<Evaluation>,
    evaluations: Vec<Evaluation>,
    stats: SearchStats,
}

impl SearchOutcome {
    /// Assembles an outcome, selecting the best evaluation under
    /// `objective`.
    #[must_use]
    pub fn from_evaluations(
        objective: Objective,
        evaluations: Vec<Evaluation>,
        stats: SearchStats,
    ) -> Self {
        let best = objective.best(&evaluations).cloned();
        SearchOutcome {
            objective,
            best,
            evaluations,
            stats,
        }
    }

    /// The objective the search ran under.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The winning evaluation (`OptCh`), if the space was non-empty.
    #[must_use]
    pub fn best(&self) -> Option<&Evaluation> {
        self.best.as_ref()
    }

    /// Every evaluation the search performed, in visit order.
    #[must_use]
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evaluations
    }

    /// Consumes the outcome, yielding every evaluation in visit order.
    #[must_use]
    pub fn into_evaluations(self) -> Vec<Evaluation> {
        self.evaluations
    }

    /// Instrumentation counters.
    #[must_use]
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Evaluations sorted by ascending TCO (for Fig. 10-style summaries).
    #[must_use]
    pub fn ranked(&self) -> Vec<&Evaluation> {
        let mut v: Vec<&Evaluation> = self.evaluations.iter().collect();
        v.sort_by(|a, b| {
            a.tco()
                .total()
                .cmp(&b.tco().total())
                .then_with(|| a.cardinality().cmp(&b.cardinality()))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;
    use uptime_catalog::{case_study, ComponentKind};

    fn outcome() -> SearchOutcome {
        let space = SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        let model = case_study::tco_model();
        let evals: Vec<_> = space
            .assignments()
            .map(|a| Evaluation::evaluate(&space, &model, &a))
            .collect();
        let stats = SearchStats {
            evaluated: evals.len() as u64,
            skipped: 0,
        };
        SearchOutcome::from_evaluations(Objective::MinTco, evals, stats)
    }

    #[test]
    fn stats_arithmetic() {
        let s = SearchStats {
            evaluated: 5,
            skipped: 3,
        };
        assert_eq!(s.considered(), 8);
        assert_eq!(SearchStats::default().considered(), 0);
    }

    #[test]
    fn best_is_min_tco() {
        let o = outcome();
        assert_eq!(o.best().unwrap().tco().total().value(), 1250.0);
        assert_eq!(o.objective(), Objective::MinTco);
        assert_eq!(o.stats().evaluated, 8);
    }

    #[test]
    fn ranked_matches_fig10_order() {
        let o = outcome();
        let tcos: Vec<f64> = o.ranked().iter().map(|e| e.tco().total().value()).collect();
        assert_eq!(
            tcos,
            vec![1250.0, 1350.0, 2850.0, 3550.0, 4000.0, 4300.0, 5500.0, 5900.0]
        );
    }

    #[test]
    fn empty_outcome_has_no_best() {
        let o =
            SearchOutcome::from_evaluations(Objective::MinTco, Vec::new(), SearchStats::default());
        assert!(o.best().is_none());
        assert!(o.evaluations().is_empty());
        assert!(o.ranked().is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let o = outcome();
        let json = serde_json::to_string(&o).unwrap();
        let back: SearchOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, o);
    }
}
