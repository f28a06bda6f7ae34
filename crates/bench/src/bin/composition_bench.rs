//! PR 7 benchmark driver: the factorized composition fold against naive
//! per-variant `Block` re-evaluation on series–parallel spaces, plus the
//! composition branch-and-bound prune rate, emitting machine-readable
//! `BENCH_PR7.json` (written to the working directory, or to the path
//! given as the first argument).
//!
//! ```text
//! cargo run --release -p uptime-bench --bin composition_bench [-- out.json] [--enforce]
//! ```
//!
//! With `--enforce` the acceptance gates become hard failures (nonzero
//! exit): the factorized fold sweep must beat the naive `Block` sweep by
//! ≥10× on the contract space, branch-and-bound pruning must actually
//! fire on the large space, and every engine must agree on the argmin.
//! The large space (`4^10` ≈ 1 M variants) is never naive-swept in full —
//! its `Block` cost is projected from a measured sample.

use uptime_bench::{
    paper_catalog, paper_cloud, paper_model, stats_json, synthetic_model, synthetic_space, time_ns,
    variants_per_sec,
};
use uptime_core::{MoneyPerMonth, TcoModel};
use uptime_optimizer::{
    composition, composition_bnb, Archetype, BnbStats, CompositionNode, CompositionSpace, Objective,
};

/// A gateway tier in series with `zones` parallel replica stacks of
/// `per_zone` components each, every leaf with `k` HA candidates —
/// `k^(zones·per_zone + 1)` assignments.
fn replica_space(zones: usize, per_zone: usize, k: usize) -> CompositionSpace {
    let serial = synthetic_space(zones * per_zone + 1, k);
    let comps = serial.components();
    let gateway = CompositionNode::Component(comps[0].clone());
    let stacks = (0..zones)
        .map(|z| {
            CompositionNode::Series(
                comps[1 + z * per_zone..1 + (z + 1) * per_zone]
                    .iter()
                    .cloned()
                    .map(CompositionNode::Component)
                    .collect(),
            )
        })
        .collect();
    CompositionSpace::new(CompositionNode::Series(vec![
        gateway,
        CompositionNode::Parallel(stacks),
    ]))
    .expect("replica topology is well-formed")
}

/// One naive `Block` evaluation: materialize the diagram, fold its
/// failover-aware availability, price it through the TCO model. Returns
/// the total so the sweep can argmin without the factorized evaluator.
fn naive_eval(space: &CompositionSpace, model: &TcoModel, assignment: &[usize]) -> f64 {
    let block = space.to_block(assignment);
    let avail = block.failover_aware_availability();
    let cost = MoneyPerMonth::new(space.monthly_cost(assignment)).expect("finite candidate costs");
    model.evaluate(cost, avail).total().value()
}

/// Full naive sweep: `Block` re-evaluation per variant, argmin under the
/// same `(total, cardinality)` preference the streaming engine uses.
fn naive_sweep(space: &CompositionSpace, model: &TcoModel) -> (Vec<usize>, f64) {
    let mut best: Option<(Vec<usize>, f64, usize)> = None;
    for assignment in space.assignments() {
        let total = naive_eval(space, model, &assignment);
        let cardinality = space.cardinality(&assignment);
        let better = match &best {
            None => true,
            Some((_, bt, bc)) => total < *bt || (total == *bt && cardinality < *bc),
        };
        if better {
            best = Some((assignment, total, cardinality));
        }
    }
    let (assignment, total, _) = best.expect("non-empty space");
    (assignment, total)
}

struct Row {
    name: String,
    leaves: usize,
    assignments: u128,
    /// `None` when the space is only sample-projected, not fully swept.
    naive_ns: Option<u128>,
    /// Measured per-variant naive cost over a sample (projection input).
    naive_sample_ns_per_variant: f64,
    fold_ns: u128,
    bnb_ns: u128,
    bnb_stats: BnbStats,
}

impl Row {
    fn visited_fraction(&self) -> f64 {
        self.bnb_stats.leaves_evaluated as f64 / self.assignments as f64
    }

    /// Measured (full sweep) or projected (sample × space) naive cost.
    fn naive_total_ns(&self) -> f64 {
        self.naive_ns.map_or(
            self.naive_sample_ns_per_variant * self.assignments as f64,
            |ns| ns as f64,
        )
    }

    fn fold_speedup(&self) -> f64 {
        self.naive_total_ns() / self.fold_ns.max(1) as f64
    }
}

/// Measures one composition space. When `sweep_naive` is set the naive
/// `Block` sweep covers the whole space and its argmin is checked against
/// both factorized engines; either way a sample pins the per-variant
/// naive cost and branch-and-bound must agree with the streaming fold.
fn measure(
    name: &str,
    space: &CompositionSpace,
    model: &TcoModel,
    reps: u32,
    sweep_naive: bool,
) -> Row {
    let fold = composition::search(space, model, Objective::MinTco);
    let fold_best = fold.best().expect("non-empty space").clone();
    assert_eq!(
        u128::from(fold.stats().evaluated),
        space.assignment_count(),
        "{name}: streaming fold must cover the space"
    );

    let (bnb, bnb_stats) = composition_bnb::search_with_stats(space, model, 0);
    assert_eq!(
        bnb.best().expect("non-empty space").assignment(),
        fold_best.assignment(),
        "{name}: branch-and-bound argmin diverged from the streaming fold"
    );

    let naive_ns = if sweep_naive {
        let (naive_assignment, naive_total) = naive_sweep(space, model);
        assert_eq!(
            &naive_assignment[..],
            fold_best.assignment(),
            "{name}: factorized fold argmin diverged from naive Block sweep"
        );
        assert!(
            (naive_total - fold_best.tco().total().value()).abs() <= 1e-9,
            "{name}: fold total diverged from naive Block sweep"
        );
        Some(time_ns(reps, || naive_sweep(space, model)))
    } else {
        None
    };

    // Per-variant naive cost over a fixed sample (used to project spaces
    // too large to sweep; reported for swept spaces as a cross-check).
    let sample: Vec<Vec<usize>> = space.assignments().take(2048).collect();
    let sample_ns = time_ns(reps, || {
        let mut acc = 0.0;
        for assignment in &sample {
            acc += naive_eval(space, model, assignment);
        }
        acc
    });
    let naive_sample_ns_per_variant = sample_ns as f64 / sample.len() as f64;

    let fold_ns = time_ns(reps, || {
        composition::search(space, model, Objective::MinTco)
    });
    let bnb_ns = time_ns(reps, || {
        composition_bnb::search_with_threads(space, model, 0)
    });

    Row {
        name: name.to_string(),
        leaves: space.leaf_count(),
        assignments: space.assignment_count(),
        naive_ns,
        naive_sample_ns_per_variant,
        fold_ns,
        bnb_ns,
        bnb_stats,
    }
}

/// The archetype scenario pack on the paper's case-study catalog: small
/// spaces, reported for the record (winner agreement is asserted).
fn archetype_section() -> serde_json::Value {
    let catalog = paper_catalog();
    let cloud = paper_cloud();
    let model = paper_model();
    let mut entries = Vec::new();
    for &archetype in Archetype::all() {
        let space = archetype.space(&catalog, &cloud).expect("case-study space");
        let fold = composition::search(&space, &model, Objective::MinTco);
        let (bnb, stats) = composition_bnb::search_with_stats(&space, &model, 0);
        let best = fold.best().expect("non-empty space");
        assert_eq!(
            bnb.best().expect("non-empty space").assignment(),
            best.assignment(),
            "{archetype}: engines disagree on the case-study catalog"
        );
        let fold_ns = time_ns(5, || composition::search(&space, &model, Objective::MinTco));
        entries.push(serde_json::json!({
            "name": archetype.name(),
            "leaves": space.leaf_count(),
            "assignments": space.assignment_count() as u64,
            "fold_ns": fold_ns as u64,
            "winner_assignment": best.assignment(),
            "winner_tco": best.tco().total().value(),
            "winner_availability": best.uptime().availability().value(),
            "bnb_leaves_evaluated": stats.leaves_evaluated,
            "bnb_subtrees_pruned": stats.subtrees_pruned,
        }));
    }
    serde_json::Value::Array(entries)
}

fn main() {
    let mut out_path = "BENCH_PR7.json".to_string();
    let mut enforce = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--enforce" => enforce = true,
            other => out_path = other.to_string(),
        }
    }

    let model = synthetic_model();
    // Contract space: 3 zones × 2 components + gateway, 4 candidates each
    // (`4^7` = 16 384 variants) — small enough to naive-sweep in full.
    let mid_space = replica_space(3, 2, 4);
    // Scale space: 3 zones × 3 components + gateway (`4^10` ≈ 1 M
    // variants) — fold-swept in full, naive cost projected from a sample.
    let big_space = replica_space(3, 3, 4);

    let rows = vec![
        measure("replica_4^7", &mid_space, &model, 3, true),
        measure("replica_4^10", &big_space, &model, 3, false),
    ];

    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "space", "variants", "naive ns", "fold ns", "bnb ns", "speedup", "visited"
    );
    let mut spaces = Vec::new();
    for row in &rows {
        println!(
            "{:<14} {:>12} {:>14} {:>14} {:>14} {:>8.1}x {:>8.3}%",
            row.name,
            row.assignments,
            row.naive_ns.map_or_else(
                || format!("~{:.0}", row.naive_total_ns()),
                |ns| ns.to_string()
            ),
            row.fold_ns,
            row.bnb_ns,
            row.fold_speedup(),
            row.visited_fraction() * 100.0,
        );
        spaces.push(serde_json::json!({
            "name": row.name,
            "leaves": row.leaves,
            "assignments": row.assignments as u64,
            "naive_block_sweep": row.naive_ns.map(|ns| serde_json::json!({
                "total_ns": ns as u64,
                "variants_per_sec": variants_per_sec(row.assignments, ns),
            })),
            "naive_ns_per_variant_sampled": row.naive_sample_ns_per_variant,
            "naive_total_ns_effective": row.naive_total_ns(),
            "factorized_fold": {
                "total_ns": row.fold_ns as u64,
                "variants_per_sec": variants_per_sec(row.assignments, row.fold_ns),
            },
            "bnb_parallel": stats_json(row.bnb_ns, &row.bnb_stats),
            "speedup_fold_vs_naive": row.fold_speedup(),
            "bnb_visited_fraction": row.visited_fraction(),
            "bnb_prune_rate": row.bnb_stats.subtrees_pruned,
        }));
    }

    let mid = &rows[0];
    let big = &rows[1];
    let gates = [
        (
            "fold speedup >= 10x vs naive Block sweep on 4^7",
            mid.fold_speedup() >= 10.0,
        ),
        (
            "projected fold speedup >= 10x on 4^10",
            big.fold_speedup() >= 10.0,
        ),
        (
            "bnb pruning fired on 4^10",
            big.bnb_stats.subtrees_pruned > 0,
        ),
        ("bnb visited < 50% of 4^10", big.visited_fraction() < 0.50),
    ];
    let mut all_pass = true;
    for (label, pass) in &gates {
        if !pass {
            all_pass = false;
            eprintln!("GATE FAILED: {label}");
        }
    }
    println!(
        "4^7: {:.1}x fold over naive Block sweep; 4^10: {:.1}x projected, \
         bnb visited {:.3}% with {} subtrees pruned",
        mid.fold_speedup(),
        big.fold_speedup(),
        big.visited_fraction() * 100.0,
        big.bnb_stats.subtrees_pruned,
    );

    let report = serde_json::json!({
        "benchmark": "BENCH_PR7",
        "description": "factorized series-parallel composition fold vs naive Block re-evaluation, with composition branch-and-bound prune rate",
        "spaces": spaces,
        "archetypes": archetype_section(),
        "speedup_fold_vs_naive_4^7": mid.fold_speedup(),
        "speedup_fold_vs_naive_4^10_projected": big.fold_speedup(),
        "bnb_subtrees_pruned_4^10": big.bnb_stats.subtrees_pruned,
        "bnb_visited_fraction_4^10": big.visited_fraction(),
        "gates_pass": all_pass,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, rendered).expect("write benchmark report");
    println!("wrote {out_path}");

    if enforce && !all_pass {
        eprintln!("--enforce: acceptance gates failed");
        std::process::exit(1);
    }
}
