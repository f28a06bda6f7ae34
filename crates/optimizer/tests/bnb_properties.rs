//! Property tests for the branch-and-bound engine on serial chains (the
//! pure-series composition spaces the paper searches):
//!
//! * **Admissibility** — for every prefix of every assignment of a random
//!   space, `composition_bnb::prefix_bound` never exceeds the true TCO of
//!   any completion of that prefix. This is the invariant §III.C-style
//!   pruning exactness rests on: a subtree is discarded only when its
//!   bound already beats the incumbent, so an admissible bound can never
//!   discard the optimum.
//! * **Exactness under parallelism** — the bounded search returns the
//!   `composition::search` winner bit-for-bit at several worker counts,
//!   and its `evaluated + skipped` accounting always covers the whole
//!   space.

use proptest::prelude::*;
use uptime_core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_optimizer::{
    composition, composition_bnb, Candidate, ComponentChoices, CompositionEvaluator,
    CompositionSpace, Objective,
};

/// Strategy: one component with a free baseline plus up to 3 HA options,
/// all parameters drawn from continuous ranges (mirrors
/// `fast_properties.rs` so the two suites exercise the same space family).
fn component_strategy(index: usize) -> impl Strategy<Value = ComponentChoices> {
    (
        0.001f64..0.25, // node down probability
        0.1f64..10.0,   // failures/year
        1usize..=4,     // number of candidates
        0.1f64..25.0,   // failover minutes for HA candidates
        1.0f64..4000.0, // cost scale
        2u32..=5,       // cluster width for HA candidates
    )
        .prop_map(move |(p, f, k, failover, cost, width)| {
            let mut candidates = vec![Candidate::new(
                "none",
                ClusterSpec::singleton(format!("c{index}"), Probability::new(p).unwrap(), f)
                    .unwrap(),
                MoneyPerMonth::ZERO,
                true,
            )];
            for level in 1..k {
                let standby = (level as u32).min(width - 1);
                let cluster = ClusterSpec::builder(format!("c{index}-ha{level}"))
                    .total_nodes(width)
                    .standby_budget(standby)
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

fn space_strategy() -> impl Strategy<Value = CompositionSpace> {
    prop::collection::vec(any::<u8>(), 1..=4).prop_flat_map(|seeds| {
        let comps: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| component_strategy(i))
            .collect();
        comps.prop_map(|v| {
            CompositionSpace::from_serial(&uptime_optimizer::SearchSpace::new(v).unwrap())
        })
    })
}

fn model_strategy() -> impl Strategy<Value = TcoModel> {
    (85.0f64..99.99, 1.0f64..500.0).prop_map(|(sla, rate)| {
        TcoModel::new(
            SlaTarget::from_percent(sla).unwrap(),
            PenaltyClause::per_hour(rate).unwrap(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `prefix_bound(prefix) ≤ TCO(completion)` for **every** prefix of
    /// **every** assignment. Each assignment's depth-d truncation is a
    /// prefix whose completions include that assignment, so sweeping all
    /// (assignment, depth) pairs covers every reachable prefix paired with
    /// every one of its completions.
    #[test]
    fn prefix_bound_is_admissible(
        space in space_strategy(),
        model in model_strategy(),
    ) {
        let fast_eval = CompositionEvaluator::new(&space, &model);
        for assignment in space.assignments() {
            let tco = fast_eval.evaluate(&assignment).tco().total().value();
            for depth in 0..=assignment.len() {
                let bound = composition_bnb::prefix_bound(&space, &model, &assignment[..depth]);
                prop_assert!(
                    bound <= tco + 1e-9,
                    "inadmissible bound at depth {depth}: bound {bound} > TCO {tco} \
                     for completion {assignment:?}"
                );
            }
        }
    }

    /// The bound is monotone along any root-to-leaf path: pushing one more
    /// candidate can only tighten (raise) the lower bound. (Even at full
    /// depth it stays a *lower* bound — `U_s ≤ Π aᵢ` is strict whenever
    /// failover downtime is nonzero — so monotonicity, not equality, is
    /// the invariant.)
    #[test]
    fn prefix_bound_tightens_with_depth(
        space in space_strategy(),
        model in model_strategy(),
    ) {
        for assignment in space.assignments() {
            let mut previous = f64::NEG_INFINITY;
            for depth in 0..=assignment.len() {
                let bound = composition_bnb::prefix_bound(&space, &model, &assignment[..depth]);
                prop_assert!(
                    bound >= previous - 1e-9,
                    "bound slackened from {previous} to {bound} at depth {depth} \
                     along {assignment:?}"
                );
                previous = bound;
            }
        }
    }

    /// The bounded search is exact and thread-count independent on
    /// arbitrary spaces: winner bit-identical to `composition::search`,
    /// space fully accounted for.
    #[test]
    fn bounded_search_is_exact_at_any_width(
        space in space_strategy(),
        model in model_strategy(),
        threads in 1usize..=8,
    ) {
        let streamed = composition::search(&space, &model, Objective::MinTco);
        let (bounded, _) = composition_bnb::search(&space, &model, threads);
        prop_assert_eq!(bounded.best().unwrap(), streamed.best().unwrap());
        prop_assert_eq!(
            u128::from(bounded.stats().considered()),
            space.assignment_count()
        );
    }
}
