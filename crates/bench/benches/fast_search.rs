//! PR 2 factorized-engine benchmarks: naive per-assignment evaluation vs
//! the composition kernel's cached-term incremental cursor (pure-series
//! spaces), on the three reference workloads —
//! the paper's 2³ space, the hybrid metacloud joint space (972 variants),
//! and the synthetic 6-tier × 6-choice space (46 656 variants).
//!
//! `cargo bench -p uptime-bench --bench fast_search`; the `bench` binary
//! reruns the same comparison and emits machine-readable `BENCH_PR2.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use uptime_bench::{
    hybrid_metacloud_space, paper_model, paper_space, synthetic_model, synthetic_space,
};
use uptime_core::TcoModel;
use uptime_optimizer::{
    composition, CompositionEvaluator, CompositionSpace, Evaluation, Objective, SearchSpace,
};

/// The pre-PR-2 search loop: naive evaluation of every assignment.
fn naive_sweep(space: &SearchSpace, model: &TcoModel) -> Evaluation {
    let evaluations: Vec<Evaluation> = space
        .assignments()
        .map(|a| Evaluation::evaluate(space, model, &a))
        .collect();
    Objective::MinTco.best(&evaluations).unwrap().clone()
}

fn bench_space(c: &mut Criterion, name: &str, space: &SearchSpace, model: &TcoModel) {
    let chain = CompositionSpace::from_serial(space);
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function("naive_sweep", |b| {
        b.iter(|| naive_sweep(black_box(space), model))
    });
    group.bench_function("fast_streaming", |b| {
        b.iter(|| composition::search(black_box(&chain), model, Objective::MinTco))
    });
    group.finish();
}

fn bench_paper(c: &mut Criterion) {
    bench_space(c, "fast_paper_2x2x2", &paper_space(), &paper_model());
}

fn bench_metacloud(c: &mut Criterion) {
    bench_space(
        c,
        "fast_metacloud_972",
        &hybrid_metacloud_space(),
        &paper_model(),
    );
}

fn bench_synthetic(c: &mut Criterion) {
    bench_space(
        c,
        "fast_synthetic_6x6",
        &synthetic_space(6, 6),
        &synthetic_model(),
    );
}

/// Slice evaluation with cached terms, isolated from enumeration — the
/// per-variant cost the pruned search now pays.
fn bench_single_evaluation(c: &mut Criterion) {
    let space = synthetic_space(6, 6);
    let model = synthetic_model();
    let chain = CompositionSpace::from_serial(&space);
    let engine = CompositionEvaluator::new(&chain, &model);
    let assignment = vec![3usize; 6];
    let mut group = c.benchmark_group("fast_single_eval_6x6");
    group.bench_function("naive", |b| {
        b.iter(|| Evaluation::evaluate(black_box(&space), &model, &assignment))
    });
    group.bench_function("fast", |b| {
        b.iter(|| engine.evaluate(black_box(&assignment)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_paper,
    bench_metacloud,
    bench_synthetic,
    bench_single_evaluation
);
criterion_main!(benches);
