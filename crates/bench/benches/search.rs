//! §III.C complexity benchmarks: exhaustive vs superset-pruned vs
//! branch-and-bound vs heuristics as the search space grows, plus the
//! pruning ablation on the paper's own 2³ space.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uptime_bench::{paper_model, paper_space, synthetic_model, synthetic_space};
use uptime_core::{PenaltyClause, RoundingPolicy};
use uptime_optimizer::{
    anneal, composition_bnb, exhaustive, greedy, pruned, sweep, CompositionSpace, Objective,
};

fn bench_paper_space_algorithms(c: &mut Criterion) {
    let space = paper_space();
    let chain = CompositionSpace::from_serial(&space);
    let model = paper_model();
    let mut group = c.benchmark_group("paper_space_2x2x2");
    group.bench_function("exhaustive", |b| {
        b.iter(|| exhaustive::search(black_box(&space), &model, Objective::MinTco))
    });
    group.bench_function("pruned", |b| {
        b.iter(|| pruned::search(black_box(&space), &model, Objective::MinTco))
    });
    group.bench_function("branch_bound", |b| {
        b.iter(|| composition_bnb::search(black_box(&chain), &model, 1))
    });
    group.bench_function("greedy", |b| {
        b.iter(|| greedy::search(black_box(&space), &model, Objective::MinTco))
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let model = synthetic_model();
    let mut group = c.benchmark_group("search_scaling_k2");
    for n in [4usize, 6, 8, 10] {
        let space = synthetic_space(n, 2);
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &space, |b, s| {
            b.iter(|| exhaustive::search(s, &model, Objective::MinTco))
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &space, |b, s| {
            b.iter(|| pruned::search(s, &model, Objective::MinTco))
        });
        let chain = CompositionSpace::from_serial(&space);
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &chain, |b, s| {
            b.iter(|| composition_bnb::search(s, &model, 1))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &space, |b, s| {
            b.iter(|| greedy::search(s, &model, Objective::MinTco))
        });
    }
    group.finish();
}

fn bench_wider_choice_sets(c: &mut Criterion) {
    let model = synthetic_model();
    let mut group = c.benchmark_group("search_scaling_n6");
    for k in [2usize, 3, 4] {
        let space = synthetic_space(6, k);
        group.bench_with_input(BenchmarkId::new("exhaustive", k), &space, |b, s| {
            b.iter(|| exhaustive::search(s, &model, Objective::MinTco))
        });
        let chain = CompositionSpace::from_serial(&space);
        group.bench_with_input(BenchmarkId::new("branch_bound", k), &chain, |b, s| {
            b.iter(|| composition_bnb::search(s, &model, 1))
        });
        group.bench_with_input(BenchmarkId::new("anneal", k), &space, |b, s| {
            b.iter(|| anneal::search(s, &model, Objective::MinTco))
        });
    }
    group.finish();
}

fn bench_sla_sweep(c: &mut Criterion) {
    let space = paper_space();
    let penalty = PenaltyClause::per_hour(100.0).expect("constant");
    c.bench_function("sla_sweep_20_targets", |b| {
        b.iter(|| {
            sweep::sla_sweep_range(
                black_box(&space),
                &penalty,
                RoundingPolicy::CeilHour,
                90.0,
                99.5,
                20,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_paper_space_algorithms,
    bench_scaling,
    bench_wider_choice_sets,
    bench_sla_sweep
);
criterion_main!(benches);
