//! Parallel streaming argmin for large spaces.
//!
//! The paper waves `O(k^n)` away because "`n` in practice is usually low".
//! For hybrid-brokerage spaces (many clouds × many methods) the product
//! still grows; this module shards the **flat index range** `[0, k^n)`
//! across threads. Each worker seeds a [`crate::CompositionCursor`] at its
//! shard's starting index via [`CompositionEvaluator::cursor_at`] and walks
//! forward incrementally, keeping only its running argmin; the merge keeps
//! the global one. No assignment list is ever materialized, so memory
//! stays `O(threads · n)` regardless of space size, and ties resolve to
//! the lexicographically-first winner — the same assignment every other
//! exact strategy returns.

use crossbeam::thread;
use uptime_core::TcoModel;

use crate::composition::{CompositionEvaluator, CompositionSpace};
use crate::objective::{Objective, RankKey};
use crate::outcome::{SearchOutcome, SearchStats};

/// A worker's contiguous slice of the flat assignment index space.
#[derive(Debug, Clone, Copy)]
struct Shard {
    start: u128,
    len: u128,
}

/// Splits `[0, total)` into at most `workers` contiguous, non-empty shards.
fn shards(total: u128, workers: usize) -> Vec<Shard> {
    let workers = u128::try_from(workers.max(1))
        .unwrap_or(1)
        .min(total.max(1));
    let base = total / workers;
    let extra = total % workers;
    let mut out = Vec::with_capacity(workers as usize);
    let mut start = 0u128;
    for w in 0..workers {
        let len = base + u128::from(w < extra);
        if len == 0 {
            break;
        }
        out.push(Shard { start, len });
        start += len;
    }
    out
}

/// Streaming parallel argmin over up to `threads` workers: each keeps only
/// its best assignment, so memory stays `O(threads · n)` no matter how wide
/// the space is. The returned outcome carries just the winning
/// [`crate::Evaluation`]; `stats().evaluated` counts the full space
/// (saturating at `u64::MAX`).
///
/// `threads = 0` is treated as 1; thread counts beyond the number of
/// assignments are clamped down so no worker starts empty. Ties resolve to
/// the lexicographically-first best assignment — identical to every
/// materializing strategy — because the shard merge only replaces the
/// incumbent when a later shard's key is *strictly* better.
///
/// # Panics
///
/// Panics if a worker thread panics (propagated).
#[must_use]
pub fn search_best_with_threads(
    space: &CompositionSpace,
    model: &TcoModel,
    objective: Objective,
    threads: usize,
) -> SearchOutcome {
    search_best_with_threads_core(space, model, objective, threads, &uptime_obs::NOOP)
}

/// [`search_best_with_threads`] with observability: an
/// `optimizer.parallel.search_best` span plus per-shard wall-clock timings
/// (`optimizer.parallel.shard_ns` histogram, `optimizer.parallel.shards` /
/// `optimizer.parallel.variants` counters). Workers time themselves; the
/// recorder is only touched after the join, so the shard loops and the
/// merge are bit-identical to the unrecorded path.
#[must_use]
pub fn search_best_with_threads_recorded(
    space: &CompositionSpace,
    model: &TcoModel,
    objective: Objective,
    threads: usize,
    rec: &dyn uptime_obs::Recorder,
    parent: &uptime_obs::TraceSpan,
) -> SearchOutcome {
    let _span = uptime_obs::span!(rec, "optimizer.parallel.search_best");
    let mut trace_span = parent.child("optimizer.parallel.search_best");
    let outcome = search_best_with_threads_core(space, model, objective, threads, rec);
    trace_span.attr_u64("variants", outcome.stats().evaluated);
    outcome
}

fn search_best_with_threads_core(
    space: &CompositionSpace,
    model: &TcoModel,
    objective: Objective,
    threads: usize,
    rec: &dyn uptime_obs::Recorder,
) -> SearchOutcome {
    let eval = CompositionEvaluator::new(space, model);
    let total = space.assignment_count();
    let plan = shards(total, threads);

    let shard_bests: Vec<(RankKey, Vec<usize>, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .map(|&Shard { start, len }| {
                let eval = &eval;
                scope.spawn(move |_| {
                    let started = std::time::Instant::now();
                    let mut cursor = eval.cursor_at(start);
                    let mut best_key = cursor.rank_key();
                    let mut best_digits = cursor.assignment().to_vec();
                    for _ in 1..len {
                        assert!(cursor.advance(), "shard overran the space");
                        let key = cursor.rank_key();
                        if objective.better_key(&key, &best_key) {
                            best_key = key;
                            best_digits.clear();
                            best_digits.extend_from_slice(cursor.assignment());
                        }
                    }
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    (best_key, best_digits, ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
    .expect("thread scope panicked");

    rec.counter_add("optimizer.parallel.shards", shard_bests.len() as u64);
    for (_, _, ns) in &shard_bests {
        rec.observe("optimizer.parallel.shard_ns", *ns as f64);
    }
    rec.counter_add(
        "optimizer.parallel.variants",
        u64::try_from(total).unwrap_or(u64::MAX),
    );

    // Earlier shards hold lexicographically-earlier assignments; strict
    // comparison therefore preserves first-wins tie-breaking.
    let (_, best_digits, _) = shard_bests
        .into_iter()
        .reduce(|acc, cand| {
            if objective.better_key(&cand.0, &acc.0) {
                cand
            } else {
                acc
            }
        })
        .expect("spaces always contain at least one assignment");

    let stats = SearchStats {
        evaluated: u64::try_from(total).unwrap_or(u64::MAX),
        skipped: 0,
    };
    SearchOutcome::from_evaluations(objective, vec![eval.evaluate(&best_digits)], stats)
}

/// [`search_best_with_threads`] at the machine's available parallelism.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{parallel, CompositionSpace, Objective, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let serial = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let space = CompositionSpace::from_serial(&serial);
/// let outcome = parallel::search_best(&space, &case_study::tco_model(), Objective::MinTco);
/// assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn search_best(
    space: &CompositionSpace,
    model: &TcoModel,
    objective: Objective,
) -> SearchOutcome {
    search_best_with_threads(space, model, objective, default_threads())
}

pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;
    use crate::{composition, exhaustive};
    use uptime_catalog::{case_study, ComponentKind};

    fn paper_space() -> CompositionSpace {
        CompositionSpace::from_serial(
            &SearchSpace::from_catalog(
                &case_study::catalog(),
                &case_study::cloud_id(),
                &ComponentKind::paper_tiers(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn oversubscribed_threads_clamped() {
        let space = paper_space();
        let model = case_study::tco_model();
        let outcome = search_best_with_threads(&space, &model, Objective::MinTco, 1000);
        assert_eq!(outcome.stats().evaluated, 8);
        assert_eq!(outcome.best().unwrap().assignment(), &[0, 1, 0]);
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let space = paper_space();
        let model = case_study::tco_model();
        let streaming = search_best_with_threads(&space, &model, Objective::MinTco, 0);
        assert_eq!(streaming.stats().evaluated, 8);
        assert_eq!(streaming.best().unwrap().assignment(), &[0, 1, 0]);
    }

    #[test]
    fn recorded_search_matches_and_times_shards() {
        let space = paper_space();
        let model = case_study::tco_model();
        let registry = uptime_obs::MetricsRegistry::new();

        let plain_best = search_best_with_threads(&space, &model, Objective::MinTco, 3);
        let recorded_best = search_best_with_threads_recorded(
            &space,
            &model,
            Objective::MinTco,
            3,
            &registry,
            &uptime_obs::TraceSpan::disabled(),
        );
        assert_eq!(plain_best.best(), recorded_best.best());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("optimizer.parallel.shards"), Some(3));
        assert_eq!(snap.counter("optimizer.parallel.variants"), Some(8));
        assert_eq!(
            snap.histogram("optimizer.parallel.shard_ns").unwrap().count,
            3
        );
        assert_eq!(
            snap.counter("optimizer.parallel.search_best.calls"),
            Some(1)
        );
    }

    #[test]
    fn shard_plan_covers_range_without_overlap() {
        for (total, workers) in [(8u128, 3usize), (8, 8), (8, 1000), (1, 4), (47, 7), (6, 6)] {
            let plan = shards(total, workers);
            assert!(plan.len() <= workers.max(1));
            let mut next = 0u128;
            for s in &plan {
                assert_eq!(s.start, next, "contiguous");
                assert!(s.len > 0, "no empty shards");
                next += s.len;
            }
            assert_eq!(next, total, "full coverage");
        }
    }

    #[test]
    fn streaming_matches_materializing_best() {
        let space = paper_space();
        let model = case_study::tco_model();
        for objective in [Objective::MinTco, Objective::MinPenaltyRisk] {
            let full = exhaustive::composition_search(&space, &model, objective);
            for threads in [1, 2, 5, 100] {
                let slim = search_best_with_threads(&space, &model, objective, threads);
                assert_eq!(
                    slim.best().unwrap(),
                    full.best().unwrap(),
                    "{objective:?} x{threads}"
                );
                assert_eq!(slim.stats().evaluated, 8);
                assert_eq!(slim.evaluations().len(), 1);
            }
        }
    }

    #[test]
    fn streaming_matches_single_cursor_search() {
        let space = paper_space();
        let model = case_study::tco_model();
        let serial = composition::search(&space, &model, Objective::MinTco);
        let parallel = search_best(&space, &model, Objective::MinTco);
        assert_eq!(serial.best().unwrap(), parallel.best().unwrap());
    }
}
