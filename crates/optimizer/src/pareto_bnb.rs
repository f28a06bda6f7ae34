//! Epsilon-dominance branch-and-bound Pareto frontier extraction.
//!
//! This module extracts the cost/uptime frontier on the bounded fast path
//! ([`sweep`] and [`composition_sweep`] are its exhaustive twins, and
//! [`crate::pareto::frontier`] the unconstrained serial sweep). A
//! depth-first walk over the composition kernel's cached terms carries the
//! admissible per-prefix aggregates of `composition_bnb::Bounds`: at depth
//! `d` the *ideal point* of the subtree — its cost floor and its
//! availability ceiling — bounds every completion in both frontier axes at
//! once. The subtree is discarded when an already-achieved feasible point
//! **epsilon-dominates** that ideal point: beats the cost floor by more
//! than `ε + slack` *and* the availability ceiling by more than
//! `ε + slack`. Every leaf inside such a subtree is strictly dominated by
//! an achieved point, so pruning never removes a frontier achiever — which
//! is exactly why the output is thread-count-independent (see DESIGN.md
//! §16 for the full argument):
//!
//! 1. survivors always include *every* assignment whose `(cost, uptime)`
//!    pair is non-dominated within the feasible set, regardless of how
//!    prefix tasks were interleaved across workers, and
//! 2. the final merge sorts survivors by `(cost ↑, uptime ↓, digits ↑)`
//!    and keeps strict-uptime improvements, which reconstructs the exact
//!    feasible frontier with the lexicographically-smallest assignment
//!    as every point's representative.
//!
//! Hard SLO constraints ([`FrontierConstraints`]) integrate as
//! deterministic box pruning: a cost cap cuts subtrees whose cost floor
//! exceeds it, an uptime floor cuts subtrees whose availability ceiling
//! misses it. The failover budget has no admissible per-prefix bound, so
//! it is enforced exactly at each leaf — a feasible point can be
//! cost/uptime-dominated by a failover-infeasible one, which is why
//! infeasible leaves never enter the pruning archive.
//!
//! The paper's serial chains run through the same walk as the pure-series
//! case ([`CompositionSpace::from_serial`]; [`sweep`] takes a
//! [`SearchSpace`] directly). [`naive_frontier`] /
//! [`naive_composition_frontier`] are the materializing O(N²) dominance
//! references the differential suite and the PR 9 bench gate compare
//! against.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use uptime_core::{Probability, TcoModel, UptimeBreakdown, HOURS_PER_MONTH};

use crate::composition::{finish, Accum, CompositionEvaluator, CompositionSpace, Masked};
use crate::composition_bnb::{
    resolve_threads, run_workers, seed_assignments, task_plan, BnbStats, Bounds, Descent, Walk,
};
use crate::evaluate::Evaluation;
use crate::pareto::ParetoPoint;
use crate::space::SearchSpace;

/// Floating-point guard under every prune, matching the argmin engines:
/// a subtree needs to be dominated by more than `ε + BOUND_SLACK` before
/// it is cut, so bound-vs-leaf rounding noise can never discard a
/// frontier achiever.
const BOUND_SLACK: f64 = 1e-6;

/// Hard SLO box constraints restricting the feasible set the frontier is
/// extracted over. `None` everywhere (see [`FrontierConstraints::NONE`])
/// reproduces the unconstrained cost/uptime frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontierConstraints {
    /// Maximum monthly HA spend, $/month.
    pub max_cost: Option<f64>,
    /// Minimum availability, as a fraction in [0, 1].
    pub min_uptime: Option<f64>,
    /// Maximum expected failover downtime, minutes/month.
    pub max_failover_minutes: Option<f64>,
}

impl FrontierConstraints {
    /// No constraints: the full cost/uptime frontier.
    pub const NONE: FrontierConstraints = FrontierConstraints {
        max_cost: None,
        min_uptime: None,
        max_failover_minutes: None,
    };

    /// Exact feasibility of one achieved point (no epsilon slack).
    fn admits(&self, cost: f64, uptime: f64, failover_minutes: f64) -> bool {
        self.max_cost.is_none_or(|cap| cost <= cap)
            && self.min_uptime.is_none_or(|floor| uptime >= floor)
            && self
                .max_failover_minutes
                .is_none_or(|budget| failover_minutes <= budget)
    }
}

/// Tree-shape instrumentation of one frontier search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParetoStats {
    /// Worker threads the search ran on.
    pub threads: u64,
    /// Prefix tasks stolen.
    pub tasks: u64,
    /// Interior tree nodes expanded.
    pub nodes_visited: u64,
    /// Complete assignments evaluated at leaves.
    pub leaves_evaluated: u64,
    /// Bound cutoffs: subtrees discarded without descending.
    pub subtrees_pruned: u64,
    /// Complete assignments inside those discarded subtrees.
    pub variants_skipped: u64,
    /// Points on the returned frontier.
    pub frontier_size: u64,
}

/// A frontier plus the instrumentation of the search that produced it.
///
/// `points` is empty exactly when no assignment satisfies the hard
/// constraints — callers surface that as a typed infeasibility error.
#[derive(Debug, Clone)]
pub struct FrontierOutcome {
    points: Vec<ParetoPoint>,
    stats: ParetoStats,
}

impl FrontierOutcome {
    /// The frontier, cost-ascending with strictly rising uptime.
    #[must_use]
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Consumes the outcome, yielding the frontier.
    #[must_use]
    pub fn into_points(self) -> Vec<ParetoPoint> {
        self.points
    }

    /// Search instrumentation.
    #[must_use]
    pub fn stats(&self) -> &ParetoStats {
        &self.stats
    }

    /// `true` when the hard constraints admit no assignment at all.
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        self.points.is_empty()
    }
}

/// Expected failover downtime of one evaluated point, minutes/month —
/// the shared coordinate every engine (and the broker's SLO scoring)
/// measures the failover budget against.
#[must_use]
pub fn failover_minutes(uptime: &UptimeBreakdown) -> f64 {
    uptime.failover_probability().value() * HOURS_PER_MONTH * 60.0
}

/// One achieved survivor: the compact facts the merge sorts, plus the
/// digits to rematerialize the winning assignments afterwards.
type Survivor = (f64, Probability, Vec<usize>);

/// The per-worker incumbent archive: achieved **feasible** points kept
/// as a staircase (cost strictly ascending, uptime strictly ascending).
/// Pruning queries and membership both run in `O(log n)`.
struct Archive {
    points: Vec<(f64, f64)>,
    margin: f64,
}

impl Archive {
    fn new(margin: f64) -> Self {
        Archive {
            points: Vec::new(),
            margin,
        }
    }

    /// Whether some achieved point epsilon-dominates a subtree whose
    /// best-case completions cost at least `cost_lb` and reach at most
    /// `up_ub`: strictly better than both bounds by more than `margin`.
    fn dominates_bound(&self, cost_lb: f64, up_ub: f64) -> bool {
        // Staircase order ⇒ the best challenger below the cost floor is
        // the most expensive one.
        let idx = self.points.partition_point(|p| p.0 < cost_lb - self.margin);
        idx > 0 && self.points[idx - 1].1 > up_ub + self.margin
    }

    /// Records an achieved feasible point. Returns whether it is a
    /// frontier candidate worth carrying to the merge: not strictly
    /// dominated by an existing point. An exact `(cost, uptime)` tie
    /// with a staircase point is still a candidate (the merge picks the
    /// lexicographically-smallest achiever of every value pair) but
    /// leaves the archive unchanged.
    fn insert(&mut self, cost: f64, uptime: f64) -> bool {
        let idx = self.points.partition_point(|p| p.0 <= cost);
        if idx > 0 && self.points[idx - 1].1 >= uptime {
            return self.points[idx - 1] == (cost, uptime);
        }
        // Drop points the newcomer dominates: the equal-cost run just
        // below (their uptime is lower — the check above passed) and any
        // pricier points that don't improve on it.
        let mut start = idx;
        while start > 0 && self.points[start - 1].0 == cost {
            start -= 1;
        }
        let mut end = idx;
        while end < self.points.len() && self.points[end].1 <= uptime {
            end += 1;
        }
        self.points.splice(start..end, [(cost, uptime)]);
        true
    }
}

/// Single-threaded frontier extraction. Exact: the points equal
/// [`naive_composition_frontier`]'s (same cost/uptime pairs), with the
/// lexicographically-smallest assignment representing each point.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{pareto_bnb, CompositionSpace, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let serial = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let outcome = pareto_bnb::composition_search(
///     &CompositionSpace::from_serial(&serial),
///     &case_study::tco_model(),
///     &pareto_bnb::FrontierConstraints::NONE,
///     1e-9,
/// );
/// assert_eq!(outcome.points().first().unwrap().ha_cost().value(), 0.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn composition_search(
    space: &CompositionSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
    epsilon: f64,
) -> FrontierOutcome {
    composition_search_with_threads(space, model, constraints, epsilon, 1)
}

/// [`composition_search`] across `threads` workers; `0` means the
/// machine's available parallelism. Thread-count-independent output.
#[must_use]
pub fn composition_search_with_threads(
    space: &CompositionSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
    epsilon: f64,
    threads: usize,
) -> FrontierOutcome {
    let threads = resolve_threads(threads);
    let eval = CompositionEvaluator::new(space, model);
    let terms = eval.terms();
    let bounds = Bounds::new(space, terms);
    let margin = epsilon.max(0.0) + BOUND_SLACK;

    // Seed every worker's archive with the two extreme achieved points
    // (cheapest-possible and most-available-possible assignments) so the
    // first tasks already prune — only if they are actually feasible.
    let mut seeds: Vec<(f64, f64)> = Vec::new();
    for seed in seed_assignments(terms) {
        let (uptime, tco, key) = finish(model, &eval.fold(&seed).combined());
        let (cost, up) = (tco.ha_cost().value(), key.availability.value());
        if constraints.admits(cost, up, failover_minutes(&uptime)) {
            seeds.push((cost, up));
        }
    }

    let (split_depth, task_count) = task_plan(terms, threads);
    let next_task = AtomicUsize::new(0);
    let per_worker = run_workers(threads, || -> (Vec<Survivor>, BnbStats) {
        let mut archive = Archive::new(margin);
        for &(cost, up) in &seeds {
            archive.insert(cost, up);
        }
        let mut descent = Descent::new(&eval, &bounds);
        let mut walk = FrontierWalk {
            model,
            bounds: &bounds,
            constraints,
            archive,
            found: Vec::new(),
        };
        loop {
            let task = next_task.fetch_add(1, Ordering::Relaxed);
            if task >= task_count {
                break;
            }
            descent.run(&mut walk, task, split_depth);
        }
        (walk.found, descent.stats)
    });

    let (survivors, mut stats) = merge_workers(per_worker, threads);
    let points = materialize(survivors, |digits| eval.evaluate(digits));
    stats.frontier_size = points.len() as u64;
    FrontierOutcome { points, stats }
}

/// [`composition_search_with_threads`] with observability: the run
/// wrapped in an `optimizer.pareto.search` span, the tree-shape counters
/// (`optimizer.pareto.{nodes_visited,pruned,frontier_size}` and friends)
/// flushed once at the end, and a matching trace span hung under
/// `parent`. Pass [`uptime_obs::TraceSpan::disabled`] outside a traced
/// request.
#[must_use]
pub fn composition_search_with_threads_recorded(
    space: &CompositionSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
    epsilon: f64,
    threads: usize,
    rec: &dyn uptime_obs::Recorder,
    parent: &uptime_obs::TraceSpan,
) -> FrontierOutcome {
    let _span = uptime_obs::span!(rec, "optimizer.pareto.search");
    let outcome = composition_search_with_threads(space, model, constraints, epsilon, threads);
    record_stats(outcome.stats(), rec, parent);
    outcome
}

fn record_stats(
    stats: &ParetoStats,
    rec: &dyn uptime_obs::Recorder,
    parent: &uptime_obs::TraceSpan,
) {
    let mut trace_span = parent.child("optimizer.pareto.search");
    rec.gauge_set("optimizer.pareto.threads", stats.threads as f64);
    rec.counter_add("optimizer.pareto.tasks", stats.tasks);
    rec.counter_add("optimizer.pareto.nodes_visited", stats.nodes_visited);
    rec.counter_add("optimizer.pareto.leaves_evaluated", stats.leaves_evaluated);
    rec.counter_add("optimizer.pareto.pruned", stats.subtrees_pruned);
    rec.counter_add("optimizer.pareto.variants_skipped", stats.variants_skipped);
    rec.counter_add("optimizer.pareto.frontier_size", stats.frontier_size);
    trace_span.attr_u64("tasks", stats.tasks);
    trace_span.attr_u64("nodes_visited", stats.nodes_visited);
    trace_span.attr_u64("leaves_evaluated", stats.leaves_evaluated);
    trace_span.attr_u64("pruned", stats.subtrees_pruned);
    trace_span.attr_u64("variants_skipped", stats.variants_skipped);
    trace_span.attr_u64("frontier_size", stats.frontier_size);
}

/// Exhaustive frontier extraction over a serial space:
/// [`composition_sweep`] on the pure-series space.
#[must_use]
pub fn sweep(
    space: &SearchSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
    epsilon: f64,
) -> FrontierOutcome {
    composition_sweep(
        &CompositionSpace::from_serial(space),
        model,
        constraints,
        epsilon,
    )
}

/// Exhaustive frontier extraction: every assignment is folded through the
/// cached terms (no pruning, no `Evaluation` materialization until the
/// final merge), filtered by the hard constraints, and dominance-filtered
/// through the same archive and merge as [`composition_search`] — so the
/// points, order, and representatives are bit-identical to the
/// branch-and-bound engine's. The broker runs it on spaces small enough
/// to sweep; only the stats differ (every leaf is visited here).
#[must_use]
pub fn composition_sweep(
    space: &CompositionSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
    epsilon: f64,
) -> FrontierOutcome {
    let eval = CompositionEvaluator::new(space, model);
    let mut archive = Archive::new(epsilon.max(0.0) + BOUND_SLACK);
    let mut found: Vec<Survivor> = Vec::new();
    let mut stats = ParetoStats {
        threads: 1,
        tasks: 1,
        ..ParetoStats::default()
    };
    let mut cursor = eval.cursor();
    loop {
        stats.leaves_evaluated += 1;
        let (uptime, tco, key) = finish(model, &cursor.accum());
        let (cost, up) = (tco.ha_cost().value(), key.availability.value());
        if constraints.admits(cost, up, failover_minutes(&uptime)) && archive.insert(cost, up) {
            found.push((cost, key.availability, cursor.assignment().to_vec()));
        }
        if !cursor.advance() {
            break;
        }
    }
    let points = materialize(found, |digits| eval.evaluate(digits));
    stats.frontier_size = points.len() as u64;
    FrontierOutcome { points, stats }
}

/// [`composition_sweep`] with recorded observability.
#[must_use]
pub fn composition_sweep_recorded(
    space: &CompositionSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
    epsilon: f64,
    rec: &dyn uptime_obs::Recorder,
    parent: &uptime_obs::TraceSpan,
) -> FrontierOutcome {
    let _span = uptime_obs::span!(rec, "optimizer.pareto.search");
    let outcome = composition_sweep(space, model, constraints, epsilon);
    record_stats(outcome.stats(), rec, parent);
    outcome
}

/// The naive reference over a serial space: materialize a full
/// [`Evaluation`] per assignment, filter to feasible points, apply the
/// O(N²) dominance definition, and pick the lexicographically-smallest
/// representative per `(cost, uptime)` pair. Slow by design — this is
/// the differential baseline the exact engines and the PR 9 bench gate
/// are measured against.
#[must_use]
pub fn naive_frontier(
    space: &SearchSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
) -> Vec<ParetoPoint> {
    let evals: Vec<Evaluation> = space
        .assignments()
        .map(|a| Evaluation::evaluate(space, model, &a))
        .filter(|e| {
            constraints.admits(
                e.tco().ha_cost().value(),
                e.uptime().availability().value(),
                failover_minutes(e.uptime()),
            )
        })
        .collect();
    naive_filter(evals)
}

/// [`naive_frontier`] over a composition space.
#[must_use]
pub fn naive_composition_frontier(
    space: &CompositionSpace,
    model: &TcoModel,
    constraints: &FrontierConstraints,
) -> Vec<ParetoPoint> {
    let eval = CompositionEvaluator::new(space, model);
    let evals: Vec<Evaluation> = space
        .assignments()
        .map(|a| eval.evaluate(&a))
        .filter(|e| {
            constraints.admits(
                e.tco().ha_cost().value(),
                e.uptime().availability().value(),
                failover_minutes(e.uptime()),
            )
        })
        .collect();
    naive_filter(evals)
}

fn naive_filter(evals: Vec<Evaluation>) -> Vec<ParetoPoint> {
    let mut kept: Vec<&Evaluation> = evals
        .iter()
        .filter(|e| {
            !evals.iter().any(|o| {
                (o.tco().ha_cost() <= e.tco().ha_cost()
                    && o.uptime().availability() > e.uptime().availability())
                    || (o.tco().ha_cost() < e.tco().ha_cost()
                        && o.uptime().availability() >= e.uptime().availability())
            })
        })
        .collect();
    kept.sort_by(|a, b| {
        a.tco()
            .ha_cost()
            .cmp(&b.tco().ha_cost())
            .then_with(|| b.uptime().availability().cmp(&a.uptime().availability()))
            .then_with(|| a.assignment().cmp(b.assignment()))
    });
    kept.dedup_by(|a, b| {
        a.tco().ha_cost() == b.tco().ha_cost()
            && a.uptime().availability() == b.uptime().availability()
    });
    kept.into_iter()
        .map(|e| ParetoPoint::from_evaluation(e.clone()))
        .collect()
}

/// Sums worker stats and pools their survivors for the final sweep.
fn merge_workers(
    per_worker: Vec<(Vec<Survivor>, BnbStats)>,
    threads: usize,
) -> (Vec<Survivor>, ParetoStats) {
    let mut tree = BnbStats::default();
    let mut survivors: Vec<Survivor> = Vec::new();
    for (found, worker_stats) in per_worker {
        tree.add(&worker_stats);
        survivors.extend(found);
    }
    let stats = ParetoStats {
        threads: threads as u64,
        tasks: tree.tasks,
        nodes_visited: tree.nodes_visited,
        leaves_evaluated: tree.leaves_evaluated,
        subtrees_pruned: tree.subtrees_pruned,
        variants_skipped: tree.variants_skipped,
        frontier_size: 0,
    };
    (survivors, stats)
}

/// The deterministic final sweep: sort survivors by
/// `(cost ↑, uptime ↓, digits ↑)`, keep strict uptime improvements, and
/// materialize only the winners. Because the survivor pool always
/// contains every feasible-frontier achiever (pruning is conservative),
/// this reconstructs the exact frontier with lex-min representatives no
/// matter how the pool was produced.
fn materialize(
    mut survivors: Vec<Survivor>,
    evaluate: impl Fn(&[usize]) -> Evaluation,
) -> Vec<ParetoPoint> {
    survivors.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    let mut points = Vec::new();
    let mut best_uptime: Option<Probability> = None;
    for (_, uptime, digits) in survivors {
        if best_uptime.is_none_or(|b| uptime > b) {
            best_uptime = Some(uptime);
            points.push(ParetoPoint::from_evaluation(evaluate(&digits)));
        }
    }
    points
}

/// The frontier walk: prunes subtrees outside the SLO box or dominated by
/// an achieved feasible point, keeps every feasible leaf the archive does
/// not strictly dominate.
struct FrontierWalk<'a> {
    model: &'a TcoModel,
    bounds: &'a Bounds,
    constraints: &'a FrontierConstraints,
    archive: Archive,
    found: Vec<Survivor>,
}

impl Walk for FrontierWalk<'_> {
    /// Whether the subtree at `depth` can be discarded: its cost floor
    /// breaks the cap, its availability ceiling misses the floor, or an
    /// achieved feasible point epsilon-dominates its ideal point (see
    /// [`Bounds::ideal`] for the arguments).
    fn prunes(&self, depth: usize, spine: &Accum, masked: Masked) -> bool {
        let (cost_lb, avail_ub) = self.bounds.ideal(depth, spine, masked);
        let up_ub = Probability::saturating(avail_ub);
        if let Some(cap) = self.constraints.max_cost {
            if cost_lb - BOUND_SLACK > cap {
                return true;
            }
        }
        if let Some(floor) = self.constraints.min_uptime {
            if up_ub.value() + BOUND_SLACK < floor {
                return true;
            }
        }
        self.archive.dominates_bound(cost_lb, up_ub.value())
    }

    fn leaf(&mut self, digits: &[usize], acc: &Accum) {
        let (uptime, tco, key) = finish(self.model, acc);
        let cost = tco.ha_cost().value();
        let up = key.availability;
        if !self
            .constraints
            .admits(cost, up.value(), failover_minutes(&uptime))
        {
            return;
        }
        if self.archive.insert(cost, up.value()) {
            self.found.push((cost, up, digits.to_vec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto;
    use uptime_catalog::{case_study, ComponentKind};

    fn paper_serial() -> SearchSpace {
        SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap()
    }

    fn paper_space() -> CompositionSpace {
        CompositionSpace::from_serial(&paper_serial())
    }

    fn pairs(points: &[ParetoPoint]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|p| (p.ha_cost().value(), p.uptime().value()))
            .collect()
    }

    #[test]
    fn unconstrained_matches_streaming_frontier() {
        let model = case_study::tco_model();
        let swept = pareto::frontier(&paper_serial(), &model);
        let bnb = composition_search(&paper_space(), &model, &FrontierConstraints::NONE, 1e-9);
        assert_eq!(pairs(bnb.points()), pairs(&swept));
        assert_eq!(bnb.stats().frontier_size, swept.len() as u64);
    }

    #[test]
    fn matches_naive_reference_under_constraints() {
        let model = case_study::tco_model();
        let constraints = FrontierConstraints {
            max_cost: Some(2000.0),
            min_uptime: Some(0.93),
            max_failover_minutes: None,
        };
        let naive = naive_frontier(&paper_serial(), &model, &constraints);
        let bnb = composition_search(&paper_space(), &model, &constraints, 1e-9);
        assert_eq!(pairs(bnb.points()), pairs(&naive));
        // The cap and floor cut both frontier ends of the paper space.
        assert!(bnb.points().iter().all(|p| p.ha_cost().value() <= 2000.0));
        assert!(bnb.points().iter().all(|p| p.uptime().value() >= 0.93));
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let space = paper_space();
        let model = case_study::tco_model();
        let base =
            composition_search_with_threads(&space, &model, &FrontierConstraints::NONE, 1e-9, 1);
        for threads in [2, 8] {
            let other = composition_search_with_threads(
                &space,
                &model,
                &FrontierConstraints::NONE,
                1e-9,
                threads,
            );
            assert_eq!(base.points(), other.points(), "threads {threads} diverged");
        }
    }

    #[test]
    fn infeasible_constraints_return_empty() {
        let model = case_study::tco_model();
        let constraints = FrontierConstraints {
            max_cost: Some(10.0),
            min_uptime: Some(0.9999),
            max_failover_minutes: None,
        };
        let outcome = composition_search(&paper_space(), &model, &constraints, 1e-9);
        assert!(outcome.is_infeasible());
        assert!(naive_frontier(&paper_serial(), &model, &constraints).is_empty());
    }

    #[test]
    fn prunes_against_full_enumeration() {
        let space = paper_space();
        let model = case_study::tco_model();
        let outcome = composition_search(&space, &model, &FrontierConstraints::NONE, 1e-9);
        let total: u64 = outcome.stats().leaves_evaluated + outcome.stats().variants_skipped;
        assert_eq!(u128::from(total), space.assignment_count());
    }

    #[test]
    fn serial_sweep_matches_bounded_search() {
        let model = case_study::tco_model();
        let swept = sweep(&paper_serial(), &model, &FrontierConstraints::NONE, 1e-9);
        let bnb = composition_search(&paper_space(), &model, &FrontierConstraints::NONE, 1e-9);
        assert_eq!(swept.points(), bnb.points());
        assert_eq!(
            swept.stats().leaves_evaluated,
            8,
            "the sweep visits every leaf"
        );
    }

    #[test]
    fn archive_staircase_semantics() {
        let mut a = Archive::new(1e-6);
        assert!(a.insert(100.0, 0.95));
        assert!(a.insert(200.0, 0.99));
        // Strictly dominated: same cost, lower uptime.
        assert!(!a.insert(100.0, 0.94));
        // An exact tie stays a candidate (merge tie-breaks on digits).
        assert!(a.insert(100.0, 0.95));
        // Dominates the 200/0.99 point: cheaper, same uptime.
        assert!(a.insert(150.0, 0.99));
        assert_eq!(a.points, vec![(100.0, 0.95), (150.0, 0.99)]);
        // Bound pruning needs strict domination beyond the margin.
        assert!(a.dominates_bound(200.0, 0.98));
        assert!(!a.dominates_bound(150.0, 0.98));
        assert!(!a.dominates_bound(200.0, 0.99));
    }
}
