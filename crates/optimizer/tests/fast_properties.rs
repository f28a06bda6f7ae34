//! Property tests for the factorized evaluation engine and the model
//! invariants it must preserve (ISSUE PR 2 satellites):
//!
//! * `U_s ∈ [0, 1]` for every assignment of every valid space.
//! * `B_s + F_s = D_s` (saturated at 1), i.e. downtime decomposes exactly
//!   into breakdown and failover shares.
//! * At fixed `C_HA`, TCO is monotone non-increasing in `U_s` — more
//!   uptime can only shrink the slippage penalty (Eq. 5).
//! * Superset pruning never discards the exhaustive optimum.
//! * Fast (composition-kernel, pure-series) and naive evaluation agree
//!   pointwise (≤1e-12) on arbitrary spaces, and the streaming search
//!   returns the exhaustive argmin.

use proptest::prelude::*;
use uptime_core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_optimizer::{
    composition, exhaustive, pruned, Candidate, ComponentChoices, CompositionEvaluator,
    CompositionSpace, Evaluation, Objective, SearchSpace,
};

/// Strategy: one component with a free baseline plus up to 3 HA options,
/// all parameters drawn from continuous ranges.
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
    (85.0f64..99.99, 1.0f64..500.0).prop_map(|(sla, rate)| {
        TcoModel::new(
            SlaTarget::from_percent(sla).unwrap(),
            PenaltyClause::per_hour(rate).unwrap(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `U_s` is a probability and downtime decomposes as `B_s + F_s`
    /// (saturated), under both the naive and factorized evaluators.
    #[test]
    fn uptime_in_unit_interval_and_decomposes(
        space in space_strategy(),
        model in model_strategy(),
    ) {
        let chain = CompositionSpace::from_serial(&space);
        let fast_eval = CompositionEvaluator::new(&chain, &model);
        for assignment in space.assignments() {
            for e in [
                Evaluation::evaluate(&space, &model, &assignment),
                fast_eval.evaluate(&assignment),
            ] {
                let u = e.uptime().availability().value();
                prop_assert!((0.0..=1.0).contains(&u), "U_s = {u}");
                let b = e.uptime().breakdown_probability().value();
                let f = e.uptime().failover_probability().value();
                let d = e.uptime().downtime_probability().value();
                prop_assert!(
                    (d - (b + f).min(1.0)).abs() <= 1e-15,
                    "D_s {d} != B_s {b} + F_s {f}"
                );
            }
        }
    }

    /// Eq. 5 monotonicity: at fixed `C_HA`, higher modeled uptime never
    /// raises the TCO (the penalty term is non-increasing in `U_s`).
    #[test]
    fn tco_monotone_non_increasing_in_uptime(
        model in model_strategy(),
        ha_cost in 0.0f64..10_000.0,
        u_lo in 0.0f64..1.0,
        u_hi in 0.0f64..1.0,
    ) {
        let (lo, hi) = if u_lo <= u_hi { (u_lo, u_hi) } else { (u_hi, u_lo) };
        let cost = MoneyPerMonth::new(ha_cost).unwrap();
        let at_lo = model.evaluate(cost, Probability::new(lo).unwrap());
        let at_hi = model.evaluate(cost, Probability::new(hi).unwrap());
        prop_assert!(
            at_hi.total() <= at_lo.total(),
            "TCO rose with uptime: U={lo} -> {}, U={hi} -> {}",
            at_lo.total(),
            at_hi.total()
        );
    }

    /// Superset pruning is exact: the pruned optimum equals the exhaustive
    /// optimum (the skipped assignments never contain it).
    #[test]
    fn pruning_never_discards_optimum(
        space in space_strategy(),
        model in model_strategy(),
    ) {
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        let clipped = pruned::search(&space, &model, Objective::MinTco);
        prop_assert_eq!(
            full.best().unwrap().tco().total(),
            clipped.best().unwrap().tco().total()
        );
        prop_assert_eq!(
            u128::from(clipped.stats().considered()),
            space.assignment_count()
        );
    }

    /// The factorized engine agrees with the naive reference pointwise,
    /// and its streaming search returns the exhaustive argmin.
    #[test]
    fn fast_engine_matches_naive(
        space in space_strategy(),
        model in model_strategy(),
    ) {
        let chain = CompositionSpace::from_serial(&space);
        let fast_eval = CompositionEvaluator::new(&chain, &model);
        for assignment in space.assignments() {
            let naive = Evaluation::evaluate(&space, &model, &assignment);
            let quick = fast_eval.evaluate(&assignment);
            prop_assert_eq!(quick.cardinality(), naive.cardinality());
            prop_assert!(
                (quick.tco().total().value() - naive.tco().total().value()).abs() <= 1e-12
            );
            prop_assert!(
                (quick.uptime().availability().value()
                    - naive.uptime().availability().value()).abs() <= 1e-12
            );
        }
        let streamed = composition::search(&chain, &model, Objective::MinTco);
        let full = exhaustive::search(&space, &model, Objective::MinTco);
        prop_assert_eq!(
            streamed.best().unwrap().assignment(),
            full.best().unwrap().assignment()
        );
    }
}
