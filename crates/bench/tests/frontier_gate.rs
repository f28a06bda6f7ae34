//! The PR 9 bench gate's correctness half, as a test: on the synthetic
//! `6^6` space the branch-and-bound frontier must equal the naive
//! dominance sweep on every frontier coordinate and pick the same
//! (lexicographically-smallest) representative assignments.
//!
//! Full `Evaluation` equality is deliberately NOT asserted: derived
//! fields off the frontier axes (the failover probability, and penalty
//! terms downstream of it) are summed in a different order by the fast
//! path and may differ in the last ulp.

use uptime_bench::{synthetic_model, synthetic_space};
use uptime_optimizer::{pareto_bnb, CompositionSpace};

#[test]
fn bnb_matches_naive_on_the_synthetic_6x6_space() {
    let space = synthetic_space(6, 6);
    let model = synthetic_model();
    let constraints = pareto_bnb::FrontierConstraints::NONE;
    let naive = pareto_bnb::naive_frontier(&space, &model, &constraints);
    let chain = CompositionSpace::from_serial(&space);
    let bnb = pareto_bnb::composition_search(&chain, &model, &constraints, 1e-9, 1);
    assert!(!naive.is_empty());
    let key = |p: &uptime_optimizer::ParetoPoint| {
        (
            p.evaluation().assignment().to_vec(),
            p.ha_cost().value(),
            p.uptime().value(),
        )
    };
    let naive_keys: Vec<_> = naive.iter().map(key).collect();
    let bnb_keys: Vec<_> = bnb.points().iter().map(key).collect();
    assert_eq!(naive_keys, bnb_keys);
}
