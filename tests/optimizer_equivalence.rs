//! Property-based equivalence of the exact search algorithms, plus model
//! invariants, over randomized search spaces.

use proptest::prelude::*;
use uptime_suite::core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_suite::optimizer::{
    composition_bnb, exhaustive, greedy, pruned, Candidate, ComponentChoices, CompositionSpace,
    Objective, SearchSpace,
};

/// Strategy: one component with a free baseline plus up to 2 HA options.
fn component_strategy(index: usize) -> impl Strategy<Value = ComponentChoices> {
    (
        0.001f64..0.2,  // node down probability
        0.1f64..6.0,    // failures/year
        1usize..=3,     // number of candidates
        0.0f64..20.0,   // failover minutes for HA candidates
        1.0f64..3000.0, // cost scale
    )
        .prop_map(move |(p, f, k, failover, cost)| {
            let mut candidates = vec![Candidate::new(
                "none",
                ClusterSpec::singleton(format!("c{index}"), Probability::new(p).unwrap(), f)
                    .unwrap(),
                MoneyPerMonth::ZERO,
                true,
            )];
            for level in 1..k {
                let cluster = ClusterSpec::builder(format!("c{index}-ha{level}"))
                    .total_nodes(1 + level as u32 * 2)
                    .standby_budget(level as u32)
                    .node_down_probability(Probability::new(p).unwrap())
                    .failures_per_year(FailuresPerYear::new(f).unwrap())
                    .failover_time(Minutes::new(failover).unwrap())
                    .build()
                    .unwrap();
                candidates.push(Candidate::new(
                    format!("ha{level}"),
                    cluster,
                    MoneyPerMonth::new(cost * level as f64).unwrap(),
                    false,
                ));
            }
            ComponentChoices::new(format!("comp{index}"), candidates).unwrap()
        })
}

fn space_strategy() -> impl Strategy<Value = SearchSpace> {
    prop::collection::vec(any::<u8>(), 1..=4).prop_flat_map(|seeds| {
        let comps: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| component_strategy(i))
            .collect();
        comps.prop_map(|v| SearchSpace::new(v).unwrap())
    })
}

fn model_strategy() -> impl Strategy<Value = TcoModel> {
    (80.0f64..99.99, 0.0f64..500.0).prop_map(|(sla, rate)| {
        TcoModel::new(
            SlaTarget::from_percent(sla).unwrap(),
            PenaltyClause::per_hour(rate).unwrap(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exhaustive, superset-pruned, and branch-and-bound always agree on
    /// the minimum TCO.
    #[test]
    fn exact_searches_agree(space in space_strategy(), model in model_strategy()) {
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        let fast = pruned::search(&space, &model, Objective::MinTco);
        let (bb, _) = composition_bnb::search(&CompositionSpace::from_serial(&space), &model, 1);
        let best = full.best().unwrap().tco().total();
        prop_assert_eq!(fast.best().unwrap().tco().total(), best);
        prop_assert_eq!(bb.best().unwrap().tco().total(), best);
    }

    /// The pruned search does no more work than exhaustive and accounts
    /// for the entire space.
    #[test]
    fn pruned_covers_space(space in space_strategy(), model in model_strategy()) {
        let fast = pruned::search(&space, &model, Objective::MinTco);
        prop_assert_eq!(
            u128::from(fast.stats().considered()),
            space.assignment_count()
        );
        prop_assert!(u128::from(fast.stats().evaluated) <= space.assignment_count());
    }

    /// Greedy is never better than the exact optimum (sanity of both).
    #[test]
    fn greedy_never_beats_exact(space in space_strategy(), model in model_strategy()) {
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        let heuristic = greedy::search(&space, &model, Objective::MinTco);
        prop_assert!(
            heuristic.best().unwrap().tco().total() >= full.best().unwrap().tco().total()
        );
    }

    /// Every evaluation's TCO is at least its HA cost, and its uptime is a
    /// valid probability.
    #[test]
    fn evaluation_invariants(space in space_strategy(), model in model_strategy()) {
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        for e in full.evaluations() {
            prop_assert!(e.tco().total() >= e.tco().ha_cost());
            let u = e.uptime().availability().value();
            prop_assert!((0.0..=1.0).contains(&u));
            let d = e.uptime().downtime_probability().value();
            prop_assert!((u + d - 1.0).abs() < 1e-12);
        }
    }

    /// The optimal TCO is monotone non-decreasing in the SLA target — a
    /// stricter contract can never be cheaper to serve.
    #[test]
    fn sweep_tco_monotone_in_target(space in space_strategy(), rate in 0.0f64..500.0) {
        use uptime_suite::core::{PenaltyClause, RoundingPolicy};
        use uptime_suite::optimizer::sweep;
        let penalty = PenaltyClause::per_hour(rate).unwrap();
        let targets: Vec<f64> = (0..12).map(|i| 85.0 + f64::from(i) * 1.25).collect();
        let result = sweep::sla_sweep(&space, &penalty, RoundingPolicy::CeilHour, &targets);
        let mut prev = uptime_suite::core::MoneyPerMonth::ZERO;
        for point in result.points() {
            prop_assert!(point.best_tco >= prev, "at {}%", point.sla_percent);
            prev = point.best_tco;
        }
        // Each sweep point's winner matches a direct exhaustive run at
        // that target.
        for point in result.points() {
            let model = TcoModel::new(
                SlaTarget::from_percent(point.sla_percent).unwrap(),
                penalty.clone(),
            );
            let direct = exhaustive::search(&space, &model, Objective::MinTco);
            prop_assert_eq!(
                direct.best().unwrap().tco().total(),
                point.best_tco,
                "at {}%", point.sla_percent
            );
        }
    }

    /// Upgrading one component from baseline to HA never reduces total
    /// C_HA (the monotonicity the pruning correctness rests on).
    #[test]
    fn cost_monotone_in_upgrades(space in space_strategy(), model in model_strategy()) {
        let Some(baseline) = space.baseline_assignment() else {
            return Ok(());
        };
        let base_eval = uptime_suite::optimizer::Evaluation::evaluate(&space, &model, &baseline);
        for (i, comp) in space.components().iter().enumerate() {
            for idx in 0..comp.len() {
                let mut upgraded = baseline.clone();
                upgraded[i] = idx;
                let e = uptime_suite::optimizer::Evaluation::evaluate(&space, &model, &upgraded);
                prop_assert!(e.tco().ha_cost() >= base_eval.tco().ha_cost());
            }
        }
    }
}
