//! PR 2 benchmark driver: times the naive per-assignment sweep against the
//! factorized streaming engine on the three reference workloads and emits
//! machine-readable `BENCH_PR2.json` (written to the working directory, or
//! to the path given as the first argument).
//!
//! ```text
//! cargo run --release -p uptime-bench --bin bench [-- out.json]
//! ```

use uptime_bench::{
    hybrid_metacloud_space, paper_model, paper_space, synthetic_model, synthetic_space, time_ns,
    variants_per_sec,
};
use uptime_core::TcoModel;
use uptime_optimizer::{composition, CompositionSpace, Evaluation, Objective, SearchSpace};

/// The pre-PR-2 loop: clone clusters, rebuild the `SystemSpec`, evaluate —
/// for every assignment — then rank.
fn naive_sweep(space: &SearchSpace, model: &TcoModel) -> Evaluation {
    let evaluations: Vec<Evaluation> = space
        .assignments()
        .map(|a| Evaluation::evaluate(space, model, &a))
        .collect();
    Objective::MinTco.best(&evaluations).unwrap().clone()
}

struct Row {
    name: &'static str,
    assignments: u128,
    naive_ns: u128,
    fast_ns: u128,
    fast_noop_ns: u128,
    spans: serde_json::Value,
}

/// Runs the instrumented streaming search once against a live registry
/// and distills the per-stage span breakdown (histograms named `*.ns`,
/// plus counters) for the report.
fn span_breakdown(space: &CompositionSpace, model: &TcoModel) -> serde_json::Value {
    let registry = uptime_obs::MetricsRegistry::new();
    let _ = composition::search_recorded(
        space,
        model,
        Objective::MinTco,
        &registry,
        &uptime_obs::TraceSpan::disabled(),
    );
    let snapshot = registry.snapshot();
    let mut spans = serde_json::Map::new();
    for hist in &snapshot.histograms {
        if !hist.name.ends_with(".ns") {
            continue;
        }
        spans.insert(
            hist.name.clone(),
            serde_json::json!({
                "count": hist.count,
                "total_ns": hist.sum,
                "p50_ns": hist.p50,
                "max_ns": hist.max,
            }),
        );
    }
    let counters: serde_json::Map = snapshot
        .counters
        .iter()
        .map(|(name, value)| (name.clone(), serde_json::json!(value)))
        .collect();
    serde_json::json!({ "spans": spans, "counters": counters })
}

fn measure(name: &'static str, space: &SearchSpace, model: &TcoModel, reps: u32) -> Row {
    let naive_best = naive_sweep(space, model);
    let chain = &CompositionSpace::from_serial(space);
    let fast_best = composition::search(chain, model, Objective::MinTco);
    assert_eq!(
        fast_best.best().unwrap().assignment(),
        naive_best.assignment(),
        "{name}: engines disagree on the argmin"
    );
    Row {
        name,
        assignments: space.assignment_count(),
        naive_ns: time_ns(reps, || naive_sweep(space, model)),
        fast_ns: time_ns(reps, || {
            composition::search(chain, model, Objective::MinTco)
        }),
        fast_noop_ns: time_ns(reps, || {
            composition::search_recorded(
                chain,
                model,
                Objective::MinTco,
                &uptime_obs::NOOP,
                &uptime_obs::TraceSpan::disabled(),
            )
        }),
        spans: span_breakdown(chain, model),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR2.json".to_string());

    let rows = vec![
        measure("paper_2x2x2", &paper_space(), &paper_model(), 20),
        measure(
            "metacloud_972",
            &hybrid_metacloud_space(),
            &paper_model(),
            10,
        ),
        measure(
            "synthetic_6x6",
            &synthetic_space(6, 6),
            &synthetic_model(),
            5,
        ),
    ];

    let mut spaces = Vec::new();
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>8}",
        "space", "variants", "naive ns", "fast ns", "speedup"
    );
    for row in &rows {
        let speedup = row.naive_ns as f64 / row.fast_ns.max(1) as f64;
        println!(
            "{:<16} {:>10} {:>14} {:>14} {:>7.1}x",
            row.name, row.assignments, row.naive_ns, row.fast_ns, speedup
        );
        spaces.push(serde_json::json!({
            "name": row.name,
            "assignments": row.assignments as u64,
            "naive": {
                "total_ns": row.naive_ns as u64,
                "variants_per_sec": variants_per_sec(row.assignments, row.naive_ns),
            },
            "fast": {
                "total_ns": row.fast_ns as u64,
                "variants_per_sec": variants_per_sec(row.assignments, row.fast_ns),
            },
            "speedup_fast_vs_naive": speedup,
            "obs": row.spans,
        }));
    }

    let synthetic = rows
        .iter()
        .find(|r| r.name == "synthetic_6x6")
        .expect("synthetic row present");
    let synthetic_speedup = synthetic.naive_ns as f64 / synthetic.fast_ns.max(1) as f64;
    let target_met = synthetic_speedup >= 10.0;
    if !target_met {
        eprintln!("warning: synthetic 6x6 speedup {synthetic_speedup:.1}x below the 10x target");
    }

    // No-op-recorder overhead on the hot engine: instrumented search with
    // the no-op recorder vs the plain search, on the widest space.
    let noop_overhead_pct =
        (synthetic.fast_noop_ns as f64 / synthetic.fast_ns.max(1) as f64 - 1.0) * 100.0;
    if noop_overhead_pct > 5.0 {
        eprintln!("warning: no-op recorder overhead {noop_overhead_pct:.1}% exceeds the 5% budget");
    }

    let report = serde_json::json!({
        "benchmark": "BENCH_PR2",
        "description": "naive per-assignment evaluation vs factorized incremental engine",
        "spaces": spaces,
        "synthetic_6x6_speedup": synthetic_speedup,
        "meets_10x_target": target_met,
        "noop_recorder_overhead_pct": noop_overhead_pct,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, rendered).expect("write benchmark report");
    println!("wrote {out_path}");
}
