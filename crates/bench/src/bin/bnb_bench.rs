//! PR 5 benchmark driver: bounded parallel branch-and-bound against the
//! factorized streaming enumeration on synthetic `6^6`, `6^9`, and `6^12`
//! spaces, emitting machine-readable `BENCH_PR5.json` (written to the
//! working directory, or to the path given as the first argument).
//!
//! ```text
//! cargo run --release -p uptime-bench --bin bnb_bench [-- out.json] [--enforce]
//! ```
//!
//! With `--enforce` the acceptance gates become hard failures (nonzero
//! exit): the `6^9` parallel search must beat single-threaded enumeration
//! by ≥10×, must evaluate <10 % of the space, pruning must actually fire,
//! and every engine must agree on the argmin. The `6^12` space (~2.2
//! billion variants) is never enumerated — branch-and-bound must complete
//! it outright, and the enumeration cost is projected from the measured
//! `6^9` throughput.
//!
//! The `frontier_6^6` section gates the Pareto frontier the same way: on
//! synthetic `6^6` the epsilon-dominance branch-and-bound (best of 3)
//! must be ≥5× faster than one naive O(N²) dominance sweep and return
//! the same points (representative assignment, cost and uptime).

use uptime_bench::{stats_json, synthetic_model, synthetic_space, time_ns, variants_per_sec};
use uptime_core::TcoModel;
use uptime_optimizer::{
    composition, composition_bnb, pareto_bnb, BnbStats, CompositionSpace, Objective, ParetoPoint,
    ParetoStats,
};

/// One recorded parallel run on the space, distilled to the
/// `optimizer.bnb.*` counters, gauge, and span the engine flushes.
fn obs_section(space: &CompositionSpace, model: &TcoModel) -> serde_json::Value {
    let registry = uptime_obs::MetricsRegistry::new();
    let _ = composition_bnb::search_with_threads_recorded(
        space,
        model,
        0,
        &registry,
        &uptime_obs::TraceSpan::disabled(),
    );
    let snapshot = registry.snapshot();
    let counters: serde_json::Map = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("optimizer.bnb."))
        .map(|(name, value)| (name.clone(), serde_json::json!(value)))
        .collect();
    let gauges: serde_json::Map = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("optimizer.bnb."))
        .map(|(name, value)| (name.clone(), serde_json::json!(value)))
        .collect();
    let spans: serde_json::Map = snapshot
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("optimizer.bnb.") && h.name.ends_with(".ns"))
        .map(|h| {
            (
                h.name.clone(),
                serde_json::json!({
                    "count": h.count,
                    "total_ns": h.sum,
                    "p50_ns": h.p50,
                    "max_ns": h.max,
                }),
            )
        })
        .collect();
    serde_json::json!({ "counters": counters, "gauges": gauges, "spans": spans })
}

struct Row {
    name: String,
    components: usize,
    choices: usize,
    assignments: u128,
    /// `None` when the space is too large to enumerate.
    fast_ns: Option<u128>,
    bnb_serial_ns: u128,
    bnb_serial_stats: BnbStats,
    bnb_parallel_ns: u128,
    bnb_parallel_stats: BnbStats,
}

impl Row {
    /// Deterministic (single-threaded) share of the space actually
    /// evaluated at leaves.
    fn visited_fraction(&self) -> f64 {
        self.bnb_serial_stats.leaves_evaluated as f64 / self.assignments as f64
    }
}

/// Measures one `(n, k)` space. When `enumerate` is set the streaming
/// engine sweeps the whole space too and every engine's argmin is checked
/// for exact agreement; either way the bounded search must be bit-identical
/// across 1, 2, and the machine's worker count.
fn measure(n: usize, k: usize, reps: u32, enumerate: bool) -> Row {
    let space = CompositionSpace::from_serial(&synthetic_space(n, k));
    let model = synthetic_model();

    let (serial, serial_stats) = composition_bnb::search_with_stats(&space, &model, 1);
    let serial_best = serial.best().expect("non-empty space").clone();
    for threads in [2, 0] {
        let (sharded, _) = composition_bnb::search_with_stats(&space, &model, threads);
        assert_eq!(
            sharded.best().expect("non-empty space"),
            &serial_best,
            "{n}^{k}: branch-and-bound winner must be thread-count independent"
        );
    }
    let fast_ns = if enumerate {
        let streamed = composition::search(&space, &model, Objective::MinTco);
        assert_eq!(
            streamed.best().expect("non-empty space"),
            &serial_best,
            "{n}^{k}: branch-and-bound argmin diverged from full enumeration"
        );
        Some(time_ns(reps, || {
            composition::search(&space, &model, Objective::MinTco)
        }))
    } else {
        None
    };

    let bnb_serial_ns = time_ns(reps, || {
        composition_bnb::search_with_threads(&space, &model, 1)
    });
    let bnb_parallel_ns = time_ns(reps, || {
        composition_bnb::search_with_threads(&space, &model, 0)
    });
    let (_, parallel_stats) = composition_bnb::search_with_stats(&space, &model, 0);

    Row {
        name: format!("synthetic_{k}^{n}"),
        components: n,
        choices: k,
        assignments: space.assignment_count(),
        fast_ns,
        bnb_serial_ns,
        bnb_serial_stats: serial_stats,
        bnb_parallel_ns,
        bnb_parallel_stats: parallel_stats,
    }
}

/// The `6^6` Pareto-frontier measurement behind the `frontier_6^6` gates.
struct Frontier {
    assignments: u128,
    bnb_ns: u128,
    naive_ns: u128,
    stats: ParetoStats,
    matches_naive: bool,
}

impl Frontier {
    fn speedup(&self) -> f64 {
        self.naive_ns as f64 / self.bnb_ns.max(1) as f64
    }
}

/// Times the frontier branch-and-bound (best of 3) against one naive
/// dominance sweep, which is too slow to repeat, and compares the points.
fn measure_frontier() -> Frontier {
    let space = synthetic_space(6, 6);
    let chain = CompositionSpace::from_serial(&space);
    let model = synthetic_model();
    let constraints = pareto_bnb::FrontierConstraints::NONE;
    let epsilon = 1e-9;

    let mut naive = Vec::new();
    let naive_ns = time_ns(1, || {
        naive = pareto_bnb::naive_frontier(&space, &model, &constraints);
    });
    let bnb = pareto_bnb::composition_search(&chain, &model, &constraints, epsilon);
    let bnb_ns = time_ns(3, || {
        pareto_bnb::composition_search(&chain, &model, &constraints, epsilon)
    });

    // The frontier contract, not whole `Evaluation`s: fields off the
    // frontier axes are summed in a different order by the fast path and
    // may differ in the last ulp (see `tests/frontier_gate.rs`).
    let key = |p: &ParetoPoint| {
        (
            p.evaluation().assignment().to_vec(),
            p.ha_cost().value(),
            p.uptime().value(),
        )
    };
    Frontier {
        assignments: space.assignment_count(),
        bnb_ns,
        naive_ns,
        stats: *bnb.stats(),
        matches_naive: !naive.is_empty() && bnb.points().iter().map(key).eq(naive.iter().map(key)),
    }
}

fn main() {
    let mut out_path = "BENCH_PR5.json".to_string();
    let mut enforce = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--enforce" => enforce = true,
            other => out_path = other.to_string(),
        }
    }

    let rows = vec![
        measure(6, 6, 5, true),
        measure(9, 6, 3, true),
        measure(12, 6, 3, false),
    ];

    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "space", "variants", "fast ns", "bnb(1) ns", "bnb(N) ns", "speedup", "visited"
    );
    let mut spaces = Vec::new();
    for row in &rows {
        let speedup = row
            .fast_ns
            .map(|ns| ns as f64 / row.bnb_parallel_ns.max(1) as f64);
        println!(
            "{:<16} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8.3}%",
            row.name,
            row.assignments,
            row.fast_ns
                .map_or_else(|| "-".to_string(), |ns| ns.to_string()),
            row.bnb_serial_ns,
            row.bnb_parallel_ns,
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.1}x")),
            row.visited_fraction() * 100.0,
        );
        spaces.push(serde_json::json!({
            "name": row.name,
            "components": row.components,
            "choices": row.choices,
            "assignments": row.assignments as u64,
            "enumeration": row.fast_ns.map(|ns| serde_json::json!({
                "total_ns": ns as u64,
                "variants_per_sec": variants_per_sec(row.assignments, ns),
            })),
            "bnb_serial": stats_json(row.bnb_serial_ns, &row.bnb_serial_stats),
            "bnb_parallel": stats_json(row.bnb_parallel_ns, &row.bnb_parallel_stats),
            "speedup_bnb_parallel_vs_enumeration": speedup,
            "visited_fraction": row.visited_fraction(),
        }));
    }

    // Gates (6^9 is the contract space; 6^12 proves scale).
    let mid = &rows[1];
    let big = &rows[2];
    let speedup_6_9 =
        mid.fast_ns.expect("6^9 is enumerated") as f64 / mid.bnb_parallel_ns.max(1) as f64;
    let visited_6_9 = mid.visited_fraction();
    let pruning_active = mid.bnb_serial_stats.subtrees_pruned > 0;
    // Projected cost of enumerating 6^12 at the measured 6^9 throughput.
    let enum_rate = variants_per_sec(mid.assignments, mid.fast_ns.expect("6^9 is enumerated"));
    let projected_enumeration_ns = big.assignments as f64 / enum_rate * 1e9;

    let frontier = measure_frontier();

    let gates = [
        (
            "speedup_6^9 >= 10x vs single-threaded enumeration",
            speedup_6_9 >= 10.0,
        ),
        ("visited_6^9 < 10% of the space", visited_6_9 < 0.10),
        ("pruning fired on 6^9", pruning_active),
        (
            "6^12 completed without enumeration",
            big.bnb_parallel_stats.leaves_evaluated > 0,
        ),
        (
            "frontier_6^6 bnb >= 5x vs the naive dominance sweep",
            frontier.speedup() >= 5.0,
        ),
        (
            "frontier_6^6 points equal the naive dominance sweep",
            frontier.matches_naive,
        ),
    ];
    let mut all_pass = true;
    for (label, pass) in &gates {
        if !pass {
            all_pass = false;
            eprintln!("GATE FAILED: {label}");
        }
    }
    println!(
        "6^9: {speedup_6_9:.1}x over enumeration, {:.3}% visited; \
         6^12 solved in {:.1} ms (enumeration projected at {:.0} s)",
        visited_6_9 * 100.0,
        big.bnb_parallel_ns as f64 / 1e6,
        projected_enumeration_ns / 1e9,
    );
    println!(
        "frontier 6^6: bnb {:.2} ms vs naive sweep {:.0} ms ({:.0}x), {} points, matches naive: {}",
        frontier.bnb_ns as f64 / 1e6,
        frontier.naive_ns as f64 / 1e6,
        frontier.speedup(),
        frontier.stats.frontier_size,
        frontier.matches_naive,
    );

    let report = serde_json::json!({
        "benchmark": "BENCH_PR5",
        "description": "bounded parallel branch-and-bound vs factorized streaming enumeration",
        "spaces": spaces,
        "speedup_6^9_parallel_vs_enumeration": speedup_6_9,
        "visited_fraction_6^9": visited_6_9,
        "pruning_active_6^9": pruning_active,
        "projected_6^12_enumeration_ns": projected_enumeration_ns,
        "bnb_6^12_parallel_ns": big.bnb_parallel_ns as u64,
        "frontier_6^6": {
            "assignments": frontier.assignments as u64,
            "frontier_size": frontier.stats.frontier_size,
            "leaves_evaluated": frontier.stats.leaves_evaluated,
            "subtrees_pruned": frontier.stats.subtrees_pruned,
            "bnb_ns": frontier.bnb_ns as u64,
            "naive_ns": frontier.naive_ns as u64,
            "speedup_bnb_vs_naive": frontier.speedup(),
            "matches_naive": frontier.matches_naive,
        },
        "gates_pass": all_pass,
        "obs": obs_section(
            &CompositionSpace::from_serial(&synthetic_space(9, 6)),
            &synthetic_model(),
        ),
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, rendered).expect("write benchmark report");
    println!("wrote {out_path}");

    if enforce && !all_pass {
        eprintln!("--enforce: acceptance gates failed");
        std::process::exit(1);
    }
}
