//! Experiment C1 (paper §III.C): how the superset-pruned search and
//! branch-and-bound tame the `O(k^n)` exhaustive enumeration as systems
//! grow.
//!
//! Builds synthetic search spaces with `n` components and `k` HA choices
//! each, and prints evaluations performed by each algorithm plus agreement
//! of the found optimum.
//!
//! Run with: `cargo run --release --example pruning_scaling`

use uptime_suite::core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_suite::optimizer::{
    composition_bnb, exhaustive, pruned, Candidate, ComponentChoices, CompositionSpace, Objective,
    SearchSpace,
};

/// Builds a synthetic space: each component has a free baseline plus
/// `k − 1` increasingly redundant (and costly) HA methods.
fn synthetic_space(n: usize, k: usize) -> SearchSpace {
    let components = (0..n)
        .map(|i| {
            let p = 0.01 + 0.01 * (i % 5) as f64;
            let mut candidates = vec![Candidate::new(
                "none",
                ClusterSpec::singleton(format!("c{i}"), Probability::new(p).unwrap(), 1.0).unwrap(),
                MoneyPerMonth::ZERO,
                true,
            )];
            for level in 1..k {
                let cluster = ClusterSpec::builder(format!("c{i}-ha{level}"))
                    .total_nodes(1 + level as u32)
                    .standby_budget(level as u32)
                    .node_down_probability(Probability::new(p).unwrap())
                    .failures_per_year(FailuresPerYear::new(1.0).unwrap())
                    .failover_time(Minutes::new(1.0).unwrap())
                    .build()
                    .unwrap();
                candidates.push(Candidate::new(
                    format!("ha{level}"),
                    cluster,
                    MoneyPerMonth::new(200.0 * level as f64 + 50.0 * i as f64).unwrap(),
                    false,
                ));
            }
            ComponentChoices::new(format!("comp{i}"), candidates).unwrap()
        })
        .collect();
    SearchSpace::new(components).unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TcoModel::new(
        SlaTarget::from_percent(98.0)?,
        PenaltyClause::per_hour(100.0)?,
    );

    println!(
        "{:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "n", "k", "space", "exhaustive", "pruned", "B&B", "agree"
    );
    for &k in &[2usize, 3, 4] {
        for &n in &[2usize, 4, 6, 8, 10] {
            // Keep the biggest products tractable for a demo run.
            if (k as u128).pow(n as u32) > 2_000_000 {
                continue;
            }
            let space = synthetic_space(n, k);
            let full = exhaustive::search(&space, &model, Objective::MinTco);
            let fast = pruned::search(&space, &model, Objective::MinTco);
            let bb = composition_bnb::search(&CompositionSpace::from_serial(&space), &model);
            let best = full.best().unwrap().tco().total();
            let agree = fast.best().unwrap().tco().total() == best
                && bb.best().unwrap().tco().total() == best;
            println!(
                "{:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>8}",
                n,
                k,
                space.assignment_count(),
                full.stats().evaluated,
                fast.stats().evaluated,
                bb.stats().evaluated,
                if agree { "yes" } else { "NO" },
            );
            assert!(agree, "all exact algorithms must agree");
        }
    }
    println!("\nPruned and branch-and-bound always match the exhaustive optimum. ✔");
    Ok(())
}
