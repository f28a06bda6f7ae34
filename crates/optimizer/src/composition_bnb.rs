//! Tight-bound, work-stealing parallel branch-and-bound — exact `MinTco`
//! over spaces enumeration cannot touch, serial chains and series–parallel
//! topologies alike.
//!
//! # The bound
//!
//! For a prefix `p` (leaves `0..p` chosen, in depth-first order) the fold
//! state carries the spine accumulators `V_p`, `C_p` and the mask `M_p`
//! (product of *completed* maximal parallel subtrees). Precompute, over
//! the remaining leaves:
//!
//! * `minC_p = Σ_{i≥p} min_j cost(i, j)` — costs add leaf-by-leaf
//!   regardless of context;
//! * `spineMaxA_p = Π_{i≥p, i on spine} max_j a(i, j)` — the spine product
//!   can only shrink by at most each remaining spine leaf's best factor;
//! * `parMaxA_p = Π_{s: lo_s ≥ p} A_s^max` over maximal parallel subtrees
//!   entirely right of `p`, where `A_s^max` folds every leaf of `s` at its
//!   maximum availability — admissible because series–parallel
//!   availability is monotone non-decreasing in each leaf availability.
//!
//! A parallel subtree *straddling* `p` is bounded by `1.0` (its factor is
//! a probability). Every completion `c` then satisfies
//!
//! ```text
//! U(c) ≤ V_p · M_p · spineMaxA_p · parMaxA_p
//! TCO(c) ≥ C_p + minC_p + penalty_lb(U_ub)
//! ```
//!
//! because Eq. 3's failover term only subtracts uptime and the Eq. 5
//! penalty is monotone non-increasing in uptime. `penalty_lb` charges the
//! clause for the *unrounded* slippage hours (minus half an hour under
//! nearest-hour billing), so billing round-up can only increase the true
//! penalty above the bound — see DESIGN.md §14 for the derivation, which
//! mirrors the §III.C exactness argument in [`crate::pruned`]. On a
//! pure-series space `M_p = parMaxA_p = 1.0` and `spineMaxA_p` is the
//! serial suffix product `maxA_p = Π_{i≥p} max_j a(i, j)`.
//!
//! # Exactness and determinism
//!
//! Pruning is strict — a subtree dies only when its bound exceeds the
//! incumbent (an *achieved* TCO) by more than a fixed slack — so every
//! leaf whose TCO ties the optimum survives in every execution, and the
//! [`crate::objective::RankKey`] tie-breakers (fewer clustered components,
//! then higher availability, then lexicographic-first) decide among them
//! exactly as [`crate::composition::search`] decides. Workers steal prefix
//! tasks from a shared counter and publish improvements to a process-wide
//! incumbent (`AtomicU64` over the bit pattern of a non-negative `f64`,
//! which orders like the float), so scheduling affects only *how much* is
//! pruned, never *what wins*: results are bit-identical across thread
//! counts. Visit/prune counters, by contrast, are timing-dependent under
//! parallelism and are reported for observability, not compared for
//! equality.
//!
//! Exact for [`Objective::MinTco`] only; the outcome is streaming (the
//! evaluation list holds just the winner), so Fig. 10-style full tables
//! should use [`crate::exhaustive`] or [`crate::pruned`] instead.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::thread;
use serde::{Deserialize, Serialize};
use uptime_core::{Probability, RoundingPolicy, TcoModel};

use crate::composition::{
    finish, Accum, CandidateTerms, CompositionEvaluator, CompositionSpace, FoldState, Masked,
};
use crate::objective::{Objective, RankKey};
use crate::outcome::{SearchOutcome, SearchStats};

/// Absolute slack (dollars) subtracted from every bound before comparing
/// against the incumbent. The bound and the leaf evaluation associate
/// floating-point sums differently, so a bound can exceed the true TCO of
/// its own subtree's optimum by a few ulps; the slack absorbs that noise
/// (≤ ~1e-10 for realistic magnitudes) without giving up measurable
/// pruning power. Without it, an ulp-high bound could prune a tie-optimal
/// leaf and flip a tie-break.
const BOUND_SLACK: f64 = 1e-6;

/// How many prefix tasks to aim for per worker. More tasks → finer work
/// stealing (better load balance when subtree costs are skewed by
/// pruning); fewer → less per-task overhead.
const TASKS_PER_THREAD: usize = 8;

/// Branch-and-bound instrumentation beyond [`SearchStats`] — the shape of
/// the search tree actually walked. Exposed as `optimizer.bnb.*` counters
/// by [`search_with_threads_recorded`] and serialized into `BENCH_PR5.json`.
///
/// Under parallelism these counts depend on incumbent-propagation timing
/// and are **not** deterministic across runs or thread counts (the argmin
/// is — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BnbStats {
    /// Worker threads the search ran on.
    pub threads: u64,
    /// Prefix tasks pulled from the steal queue.
    pub tasks: u64,
    /// Interior tree nodes expanded (bound computed, children considered).
    pub nodes_visited: u64,
    /// Complete assignments evaluated at leaves.
    pub leaves_evaluated: u64,
    /// Bound cutoffs: subtrees discarded without descending.
    pub subtrees_pruned: u64,
    /// Complete assignments inside those discarded subtrees.
    pub variants_skipped: u64,
}

impl BnbStats {
    /// Adds another worker's tree-shape counts (not its thread count).
    pub(crate) fn add(&mut self, other: &BnbStats) {
        self.tasks += other.tasks;
        self.nodes_visited += other.nodes_visited;
        self.leaves_evaluated += other.leaves_evaluated;
        self.subtrees_pruned += other.subtrees_pruned;
        self.variants_skipped = self.variants_skipped.saturating_add(other.variants_skipped);
    }
}

/// Per-leaf suffix aggregates of the bound. Shared with
/// [`crate::pareto_bnb`]'s frontier prune.
pub(crate) struct Bounds {
    /// `minC_p = Σ_{i≥p} min_j cost(i, j)`; index `n` is 0.
    pub(crate) suffix_min_cost: Vec<f64>,
    /// `spineMaxA_p = Π_{i≥p, spine} max_j a(i, j)`; index `n` is 1.
    pub(crate) spine_suffix_max: Vec<f64>,
    /// `parMaxA_p = Π_{s: lo_s ≥ p} A_s^max`; index `n` is 1.
    pub(crate) par_suffix_max: Vec<f64>,
    /// `Π_{i≥p} k_i` (saturating): variants under a depth-`p` node.
    pub(crate) suffix_size: Vec<u64>,
}

impl Bounds {
    pub(crate) fn new(space: &CompositionSpace, terms: &[Vec<CandidateTerms>]) -> Self {
        let n = terms.len();
        let leaf_max: Vec<f64> = terms
            .iter()
            .map(|comp| comp.iter().map(|t| t.availability).fold(0.0f64, f64::max))
            .collect();
        let factors = space.parallel_factors(&leaf_max);

        let mut suffix_min_cost = vec![0.0; n + 1];
        let mut spine_suffix_max = vec![1.0; n + 1];
        let mut par_suffix_max = vec![1.0; n + 1];
        let mut suffix_size = vec![1u64; n + 1];
        let spine = space.spine_leaf();
        for p in (0..n).rev() {
            let min_cost = terms[p]
                .iter()
                .map(|t| t.cost)
                .fold(f64::INFINITY, f64::min);
            suffix_min_cost[p] = suffix_min_cost[p + 1] + min_cost;
            spine_suffix_max[p] = if spine[p] {
                spine_suffix_max[p + 1] * leaf_max[p]
            } else {
                spine_suffix_max[p + 1]
            };
            par_suffix_max[p] = par_suffix_max[p + 1];
            for &(lo, a) in &factors {
                if lo == p {
                    par_suffix_max[p] *= a;
                }
            }
            suffix_size[p] = suffix_size[p + 1].saturating_mul(terms[p].len() as u64);
        }
        Bounds {
            suffix_min_cost,
            spine_suffix_max,
            par_suffix_max,
            suffix_size,
        }
    }

    /// The ideal point of every completion of a prefix whose next
    /// unassigned leaf is `depth`: its cost floor and its availability
    /// ceiling. `spine` is the prefix's spine accumulator; `masked` holds
    /// the rest of its fold (see [`FoldState::masked`]).
    #[inline(always)]
    pub(crate) fn ideal(&self, depth: usize, spine: &Accum, masked: Masked) -> (f64, f64) {
        let cost_lb = spine.cost + masked.extra_cost + self.suffix_min_cost[depth];
        let avail_ub =
            spine.avail * masked.mask * self.spine_suffix_max[depth] * self.par_suffix_max[depth];
        (cost_lb, avail_ub)
    }

    /// Admissible lower bound on the TCO of every completion of such a
    /// prefix (see [`Self::ideal`] for the arguments).
    #[inline(always)]
    fn lower_bound(&self, model: &TcoModel, depth: usize, spine: &Accum, masked: Masked) -> f64 {
        let (cost_lb, avail_ub) = self.ideal(depth, spine, masked);
        let raw_hours = model
            .sla()
            .slippage_hours_per_month(Probability::saturating(avail_ub));
        // Billing can only round the true raw hours *up* under Exact/Ceil;
        // NearestHour can shave at most half an hour off.
        let hours_lb = match model.rounding() {
            RoundingPolicy::NearestHour => (raw_hours - 0.5).max(0.0),
            RoundingPolicy::Exact | RoundingPolicy::CeilHour => raw_hours,
        };
        cost_lb + model.penalty().charge(hours_lb).value()
    }
}

/// The admissible lower bound for a partial assignment, exposed so the
/// property suites can check `bound(prefix) ≤ TCO(completion)` for every
/// completion, over serial chains (`bnb_properties.rs`) and DAG
/// topologies (`composition_properties.rs`).
///
/// # Panics
///
/// Panics if `prefix` is longer than the leaf list or indexes a candidate
/// out of range.
#[must_use]
pub fn prefix_bound(space: &CompositionSpace, model: &TcoModel, prefix: &[usize]) -> f64 {
    let eval = CompositionEvaluator::new(space, model);
    let terms = eval.terms();
    assert!(prefix.len() <= terms.len(), "prefix longer than leaf list");
    let bounds = Bounds::new(space, terms);
    let mut states = vec![eval.base_state(); prefix.len() + 1];
    for (i, &idx) in prefix.iter().enumerate() {
        eval.step_into(&mut states, i, idx);
    }
    let state = &states[prefix.len()];
    bounds.lower_bound(model, prefix.len(), &state.spine, state.masked())
}

/// Single-threaded branch-and-bound minimization of total TCO. Exact:
/// returns the same winner as [`crate::composition::search`] under
/// [`Objective::MinTco`], visiting (usually far) fewer assignments.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{composition_bnb, CompositionSpace, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let serial = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let space = CompositionSpace::from_serial(&serial);
/// let outcome = composition_bnb::search(&space, &case_study::tco_model());
/// assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn search(space: &CompositionSpace, model: &TcoModel) -> SearchOutcome {
    search_with_threads(space, model, 1)
}

/// [`search`] across `threads` workers stealing prefix tasks; `0` means
/// the machine's available parallelism. The winner is bit-identical for
/// every thread count.
#[must_use]
pub fn search_with_threads(
    space: &CompositionSpace,
    model: &TcoModel,
    threads: usize,
) -> SearchOutcome {
    search_with_stats(space, model, threads).0
}

/// [`search_with_threads`] with observability: wraps the run in an
/// `optimizer.bnb.search` span and flushes the [`BnbStats`] counters
/// (`optimizer.bnb.{tasks,nodes_visited,leaves_evaluated,subtrees_pruned,`
/// `variants_skipped}` plus the `optimizer.bnb.threads` gauge) when it
/// finishes. The descent itself never touches the recorder. `parent`
/// hangs a matching trace span carrying the same tree-shape counters as
/// attributes under the caller's request trace; pass
/// [`uptime_obs::TraceSpan::disabled`] outside a traced request.
#[must_use]
pub fn search_with_threads_recorded(
    space: &CompositionSpace,
    model: &TcoModel,
    threads: usize,
    rec: &dyn uptime_obs::Recorder,
    parent: &uptime_obs::TraceSpan,
) -> SearchOutcome {
    let _span = uptime_obs::span!(rec, "optimizer.bnb.search");
    let mut trace_span = parent.child("optimizer.bnb.search");
    let (outcome, stats) = search_with_stats(space, model, threads);
    rec.gauge_set("optimizer.bnb.threads", stats.threads as f64);
    rec.counter_add("optimizer.bnb.tasks", stats.tasks);
    rec.counter_add("optimizer.bnb.nodes_visited", stats.nodes_visited);
    rec.counter_add("optimizer.bnb.leaves_evaluated", stats.leaves_evaluated);
    rec.counter_add("optimizer.bnb.subtrees_pruned", stats.subtrees_pruned);
    rec.counter_add("optimizer.bnb.variants_skipped", stats.variants_skipped);
    trace_span.attr_u64("tasks", stats.tasks);
    trace_span.attr_u64("nodes_visited", stats.nodes_visited);
    trace_span.attr_u64("leaves_evaluated", stats.leaves_evaluated);
    trace_span.attr_u64("subtrees_pruned", stats.subtrees_pruned);
    trace_span.attr_u64("variants_skipped", stats.variants_skipped);
    outcome
}

/// [`search_with_threads`] returning the tree-shape instrumentation
/// alongside the outcome — what the bench bins serialize.
#[must_use]
pub fn search_with_stats(
    space: &CompositionSpace,
    model: &TcoModel,
    threads: usize,
) -> (SearchOutcome, BnbStats) {
    let threads = resolve_threads(threads);
    let eval = CompositionEvaluator::new(space, model);
    let terms = eval.terms();
    let bounds = Bounds::new(space, terms);

    // Seed the incumbent with two cheap achieved TCOs so the very first
    // tasks already prune: the all-min-cost assignment (wins when
    // penalties stay small) and the all-max-availability assignment (wins
    // when penalties dominate).
    let [min_cost_seed, max_avail_seed] = seed_assignments(terms);
    let seed_total = eval
        .rank_key(&min_cost_seed)
        .total
        .value()
        .min(eval.rank_key(&max_avail_seed).total.value());
    let incumbent = AtomicU64::new(seed_total.to_bits());

    let (split_depth, task_count) = task_plan(terms, threads);
    let next_task = AtomicUsize::new(0);
    let per_worker = run_workers(threads, || -> (TaskWins, BnbStats) {
        let mut descent = Descent::new(&eval, &bounds);
        let mut walk = MinTcoWalk {
            model,
            bounds: &bounds,
            incumbent: &incumbent,
            best: None,
        };
        let mut found = Vec::new();
        loop {
            let task = next_task.fetch_add(1, Ordering::Relaxed);
            if task >= task_count {
                break;
            }
            descent.run(&mut walk, task, split_depth);
            if let Some((key, digits)) = walk.best.take() {
                found.push((task, key, digits));
            }
        }
        (found, descent.stats)
    });

    let mut stats = BnbStats {
        threads: threads as u64,
        ..BnbStats::default()
    };
    let mut candidates: TaskWins = Vec::new();
    for (found, worker_stats) in per_worker {
        stats.add(&worker_stats);
        candidates.extend(found);
    }

    // Merge in task (= lexicographic prefix) order with strict
    // replacement: among equal keys the earliest assignment wins, exactly
    // as the streaming enumeration tie-breaks.
    candidates.sort_by_key(|(task, _, _)| *task);
    let objective = Objective::MinTco;
    let mut best: Option<(RankKey, Vec<usize>)> = None;
    for (_, key, digits) in candidates {
        let improved = match &best {
            None => true,
            Some((b, _)) => objective.better_key(&key, b),
        };
        if improved {
            best = Some((key, digits));
        }
    }
    let (_, best_digits) = best.expect("non-empty spaces always yield a winner");
    let winner = eval.evaluate(&best_digits);
    let outcome = SearchOutcome::from_evaluations(
        objective,
        vec![winner],
        SearchStats {
            evaluated: stats.leaves_evaluated,
            skipped: stats.variants_skipped,
        },
    );
    (outcome, stats)
}

/// Per-task winners one worker collected: `(task index, rank key, digits)`.
type TaskWins = Vec<(usize, RankKey, Vec<usize>)>;

/// `threads`, with `0` meaning the machine's available parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The all-min-cost and all-max-availability assignments — the two
/// extremes the bounded walks seed their incumbents with.
pub(crate) fn seed_assignments(terms: &[Vec<CandidateTerms>]) -> [Vec<usize>; 2] {
    let argmin_by = |score: fn(&CandidateTerms) -> f64| -> Vec<usize> {
        terms
            .iter()
            .map(|comp| {
                let mut best = 0usize;
                for (idx, t) in comp.iter().enumerate().skip(1) {
                    if score(t) < score(&comp[best]) {
                        best = idx;
                    }
                }
                best
            })
            .collect()
    };
    [argmin_by(|t| t.cost), argmin_by(|t| -t.availability)]
}

/// Shards the top of the tree into prefix tasks: the smallest depth whose
/// prefix count gives every worker several tasks to steal. Never splits
/// the last level — leaves must stay under an interior node so the bound
/// gets a chance to cut them. Returns `(split_depth, task_count)`.
pub(crate) fn task_plan(terms: &[Vec<CandidateTerms>], threads: usize) -> (usize, usize) {
    let target_tasks = threads.saturating_mul(TASKS_PER_THREAD).max(1);
    let mut split_depth = 0usize;
    let mut task_count = 1usize;
    while split_depth + 1 < terms.len() && task_count < target_tasks {
        task_count = task_count.saturating_mul(terms[split_depth].len());
        split_depth += 1;
    }
    (split_depth, task_count)
}

/// Runs `worker` once per thread — inline when `threads == 1` — and
/// returns the results in spawn order.
///
/// # Panics
///
/// Panics if a worker panics (propagated).
pub(crate) fn run_workers<T: Send>(threads: usize, worker: impl Fn() -> T + Sync) -> Vec<T> {
    if threads == 1 {
        return vec![worker()];
    }
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(|_| worker())).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("branch-and-bound worker panicked"))
            .collect()
    })
    .expect("thread scope panicked")
}

/// The decisions a bounded depth-first walk makes at each node: the
/// argmin's incumbent test and leaf, or the frontier's archive test and
/// leaf. [`Descent`] owns the walk itself.
pub(crate) trait Walk {
    /// Whether the subtree whose next unassigned leaf is `depth` can be
    /// cut (see [`Bounds::ideal`] for `spine` and `masked`).
    fn prunes(&self, depth: usize, spine: &Accum, masked: Masked) -> bool;

    /// Visits the complete assignment `digits`, whose combined
    /// accumulator is `acc`.
    fn leaf(&mut self, digits: &[usize], acc: &Accum);
}

/// One worker's depth-first descent over the linearized leaves. The digit
/// stack and per-depth fold states are reused across tasks, so the hot
/// loop allocates nothing once frame stacks have grown to the topology
/// depth.
pub(crate) struct Descent<'a> {
    eval: &'a CompositionEvaluator<'a>,
    // Per-node lookups, held here rather than behind `eval`.
    terms: &'a [Vec<CandidateTerms>],
    spine_step: &'a [bool],
    suffix_size: &'a [u64],
    digits: Vec<usize>,
    /// `states[d]` = fold state just before leaf `d`; `states[n]` = final.
    states: Vec<FoldState>,
    /// The tree walked so far (`threads` stays 0).
    pub(crate) stats: BnbStats,
}

impl<'a> Descent<'a> {
    pub(crate) fn new(eval: &'a CompositionEvaluator<'a>, bounds: &'a Bounds) -> Self {
        let n = eval.terms().len();
        Descent {
            eval,
            terms: eval.terms(),
            spine_step: eval.space().spine_step(),
            suffix_size: &bounds.suffix_size,
            digits: vec![0; n],
            states: vec![eval.base_state(); n + 1],
            stats: BnbStats::default(),
        }
    }

    /// Walks the subtree of prefix task `task`: a mixed-radix index over
    /// leaves `0..split_depth`, most significant first — the cursor's
    /// lexicographic order.
    pub(crate) fn run<W: Walk>(&mut self, walk: &mut W, task: usize, split_depth: usize) {
        self.stats.tasks += 1;
        let mut rem = task;
        for pos in (0..split_depth).rev() {
            let radix = self.terms[pos].len();
            self.digits[pos] = rem % radix;
            rem /= radix;
        }
        debug_assert_eq!(rem, 0, "task index out of range");
        for (pos, &digit) in self.digits[..split_depth].iter().enumerate() {
            self.eval.step_into(&mut self.states, pos, digit);
        }
        if split_depth < self.digits.len() {
            let state = &self.states[split_depth];
            if walk.prunes(split_depth, &state.spine, state.masked()) {
                self.prune(split_depth);
                return;
            }
        }
        self.descend(walk, split_depth);
    }

    fn prune(&mut self, depth: usize) {
        self.stats.subtrees_pruned += 1;
        self.stats.variants_skipped = self
            .stats
            .variants_skipped
            .saturating_add(self.suffix_size[depth]);
    }

    fn leaf<W: Walk>(&mut self, walk: &mut W, acc: &Accum) {
        self.stats.leaves_evaluated += 1;
        walk.leaf(&self.digits, acc);
    }

    fn descend<W: Walk>(&mut self, walk: &mut W, depth: usize) {
        let n = self.digits.len();
        if depth == n {
            let acc = self.states[n].combined();
            self.leaf(walk, &acc);
            return;
        }
        self.stats.nodes_visited += 1;
        let last = depth + 1 == n;
        let terms = &self.terms[depth];
        if self.spine_step[depth] {
            // A spine step moves only the serial accumulators: bound each
            // child from a register-held accumulator and write its fold
            // state only if the walk descends into it.
            let parent = &self.states[depth];
            let (base, masked) = (parent.spine, parent.masked());
            for (idx, t) in terms.iter().enumerate() {
                self.digits[depth] = idx;
                let spine = base.push(t);
                if last {
                    self.leaf(walk, &masked.combine(&spine));
                    continue;
                }
                // Bound each child before recursing: one prune here skips
                // the whole child subtree without a stack frame.
                if walk.prunes(depth + 1, &spine, masked) {
                    self.prune(depth + 1);
                    continue;
                }
                let (head, tail) = self.states.split_at_mut(depth + 1);
                tail[0].set_spine_step(&head[depth], spine);
                self.descend(walk, depth + 1);
            }
            return;
        }
        for idx in 0..terms.len() {
            self.digits[depth] = idx;
            self.eval.step_into(&mut self.states, depth, idx);
            let child = &self.states[depth + 1];
            if last {
                let acc = child.combined();
                self.leaf(walk, &acc);
                continue;
            }
            if walk.prunes(depth + 1, &child.spine, child.masked()) {
                self.prune(depth + 1);
                continue;
            }
            self.descend(walk, depth + 1);
        }
    }
}

/// The `MinTco` argmin walk: prunes on the shared incumbent, keeps the
/// task's best leaf.
struct MinTcoWalk<'a> {
    model: &'a TcoModel,
    bounds: &'a Bounds,
    incumbent: &'a AtomicU64,
    best: Option<(RankKey, Vec<usize>)>,
}

impl Walk for MinTcoWalk<'_> {
    /// Runs once per child of every visited node; it and the bound are
    /// forced inline (left to the heuristics, the 6^12 one-thread walk ran
    /// ~20 % slower).
    #[inline(always)]
    fn prunes(&self, depth: usize, spine: &Accum, masked: Masked) -> bool {
        let incumbent = f64::from_bits(self.incumbent.load(Ordering::Relaxed));
        self.bounds.lower_bound(self.model, depth, spine, masked) - BOUND_SLACK > incumbent
    }

    fn leaf(&mut self, digits: &[usize], acc: &Accum) {
        let key = finish(self.model, acc).2;
        let improved = match &self.best {
            None => true,
            Some((b, _)) => Objective::MinTco.better_key(&key, b),
        };
        if improved {
            let total = key.total.value();
            let incumbent = f64::from_bits(self.incumbent.load(Ordering::Relaxed));
            if total < incumbent {
                self.incumbent.fetch_min(total.to_bits(), Ordering::Relaxed);
            }
            if let Some((k, d)) = &mut self.best {
                *k = key;
                d.clear();
                d.extend_from_slice(digits);
            } else {
                self.best = Some((key, digits.to_vec()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::{self, CompositionNode};
    use crate::exhaustive;
    use crate::space::{Candidate, ComponentChoices, SearchSpace};
    use uptime_catalog::{case_study, extended, ComponentKind};
    use uptime_core::{ClusterSpec, MoneyPerMonth, Probability};

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

    fn component(name: &str, downs: &[f64], costs: &[f64]) -> ComponentChoices {
        let candidates = downs
            .iter()
            .zip(costs)
            .enumerate()
            .map(|(i, (&down, &cost))| {
                Candidate::new(
                    format!("{name}-{i}"),
                    ClusterSpec::singleton(
                        format!("{name}-{i}"),
                        Probability::new(down).unwrap(),
                        1.0,
                    )
                    .unwrap(),
                    MoneyPerMonth::new(cost).unwrap(),
                    i == 0,
                )
            })
            .collect();
        ComponentChoices::new(name, candidates).unwrap()
    }

    fn dual_site_space() -> CompositionSpace {
        let site = |tag: &str| {
            CompositionNode::Series(vec![
                CompositionNode::Component(component(
                    &format!("{tag}-web"),
                    &[0.02, 0.002, 0.0004],
                    &[0.0, 80.0, 400.0],
                )),
                CompositionNode::Component(component(
                    &format!("{tag}-db"),
                    &[0.05, 0.004],
                    &[0.0, 120.0],
                )),
            ])
        };
        CompositionSpace::new(CompositionNode::Series(vec![
            CompositionNode::Component(component("gw", &[0.01, 0.001], &[0.0, 60.0])),
            CompositionNode::Parallel(vec![site("a"), site("b")]),
        ]))
        .unwrap()
    }

    #[test]
    fn skipped_variants_saturate_instead_of_wrapping() {
        // Five tiers of 70,000 candidates: every subtree under a first
        // choice holds 70,000^4 > u64::MAX variants, and every first
        // choice but the free one is pruned, so an unsaturated count
        // overflows on the second prune.
        let k = 70_000;
        let downs: Vec<f64> = (0..k).map(|i| if i == 0 { 0.01 } else { 0.001 }).collect();
        let costs: Vec<f64> = (0..k)
            .map(|i| if i == 0 { 0.0 } else { 1e4 + i as f64 })
            .collect();
        let tiers = (0..5).map(|t| component(&format!("t{t}"), &downs, &costs));
        let space = CompositionSpace::from_serial(&SearchSpace::new(tiers.collect()).unwrap());
        let (outcome, stats) = search_with_stats(&space, &case_study::tco_model(), 1);
        assert_eq!(outcome.best().unwrap().assignment(), &[0; 5]);
        assert!(stats.subtrees_pruned >= 2, "{stats:?}");
        assert_eq!(stats.variants_skipped, u64::MAX);
    }

    #[test]
    fn finds_paper_optimum() {
        let space = paper_space();
        let model = case_study::tco_model();
        let outcome = search(&space, &model);
        let best = outcome.best().unwrap();
        assert_eq!(best.tco().total().value(), 1250.0);
        assert_eq!(best.assignment(), &[0, 1, 0]);
        // The winner is the streaming search's, bit for bit.
        let streaming = composition::search(&space, &model, Objective::MinTco);
        assert_eq!(streaming.best().unwrap(), best);
    }

    #[test]
    fn visits_no_more_than_exhaustive() {
        let space = paper_space();
        let model = case_study::tco_model();
        let full = exhaustive::composition_search(&space, &model, Objective::MinTco);
        let bb = search(&space, &model);
        assert!(bb.stats().evaluated <= full.stats().evaluated);
        assert_eq!(
            u128::from(bb.stats().considered()),
            space.assignment_count(),
            "evaluated + skipped must cover the space"
        );
    }

    #[test]
    fn agrees_with_exhaustive_on_hybrid_clouds() {
        let catalog = extended::hybrid_catalog();
        let model = case_study::tco_model();
        for cloud in [
            case_study::cloud_id(),
            extended::nimbus_id(),
            extended::stratus_id(),
        ] {
            let serial =
                SearchSpace::from_catalog(&catalog, &cloud, &ComponentKind::paper_tiers()).unwrap();
            let space = CompositionSpace::from_serial(&serial);
            let full = exhaustive::search(&serial, &model, Objective::MinTco);
            let bb = search(&space, &model);
            assert_eq!(
                full.best().unwrap().tco().total(),
                bb.best().unwrap().tco().total(),
                "{cloud}"
            );
        }
    }

    #[test]
    fn single_candidate_components() {
        let space = CompositionSpace::new(CompositionNode::Component(
            ComponentChoices::new(
                "solo",
                vec![Candidate::new(
                    "only",
                    ClusterSpec::singleton("solo", Probability::new(0.01).unwrap(), 1.0).unwrap(),
                    MoneyPerMonth::new(10.0).unwrap(),
                    false,
                )],
            )
            .unwrap(),
        ))
        .unwrap();
        let outcome = search(&space, &case_study::tco_model());
        assert_eq!(outcome.stats().evaluated, 1);
        assert!(outcome.best().is_some());
    }

    #[test]
    fn matches_streaming_composition_search() {
        let space = dual_site_space();
        let model = case_study::tco_model();
        let streaming = composition::search(&space, &model, Objective::MinTco);
        let bb = search(&space, &model);
        assert_eq!(streaming.best().unwrap(), bb.best().unwrap());
        assert_eq!(
            u128::from(bb.stats().considered()),
            space.assignment_count(),
            "evaluated + skipped must cover the space"
        );
    }

    #[test]
    fn thread_counts_agree_bit_identically() {
        let hybrid = CompositionSpace::from_serial(
            &SearchSpace::from_catalog(
                &extended::hybrid_catalog(),
                &extended::nimbus_id(),
                &ComponentKind::paper_tiers(),
            )
            .unwrap(),
        );
        let model = case_study::tco_model();
        for space in [dual_site_space(), hybrid] {
            let serial = search_with_threads(&space, &model, 1);
            for threads in [2, 4, 8] {
                let parallel = search_with_threads(&space, &model, threads);
                assert_eq!(
                    serial.best().unwrap(),
                    parallel.best().unwrap(),
                    "{threads} threads"
                );
                assert_eq!(
                    u128::from(parallel.stats().considered()),
                    space.assignment_count(),
                    "{threads} threads must still cover the space"
                );
            }
        }
    }

    #[test]
    fn prefix_bound_is_admissible() {
        let model = case_study::tco_model();
        for space in [paper_space(), dual_site_space()] {
            let eval = CompositionEvaluator::new(&space, &model);
            for depth in 0..=space.leaf_count() {
                for assignment in space.assignments() {
                    let prefix = &assignment[..depth];
                    let bound = prefix_bound(&space, &model, prefix);
                    // Every full assignment extending this prefix must cost
                    // at least the bound.
                    for completion in space.assignments() {
                        if completion[..depth] == *prefix {
                            let tco = eval.evaluate(&completion).tco().total().value();
                            assert!(
                                bound <= tco + 1e-9,
                                "bound {bound} > tco {tco} for prefix {prefix:?} -> {completion:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prunes_expensive_subtrees() {
        // The gate leaf offers a cheap and a ruinously expensive candidate
        // with the same availability; once any cheap-side leaf becomes the
        // incumbent, the expensive prefix's cost bound alone exceeds it and
        // that whole subtree must die unvisited — on a serial chain and
        // with a parallel block behind the gate.
        let gate = || {
            CompositionNode::Component(component("gate", &[0.0001, 0.0001], &[100.0, 1_000_000.0]))
        };
        let serial = CompositionSpace::new(CompositionNode::Series(vec![
            gate(),
            CompositionNode::Component(component(
                "tail",
                &[0.0001, 0.0001, 0.0001],
                &[10.0, 20.0, 30.0],
            )),
        ]))
        .unwrap();
        let dag = CompositionSpace::new(CompositionNode::Series(vec![
            gate(),
            CompositionNode::Parallel(vec![
                CompositionNode::Component(component("a", &[0.01, 0.001], &[10.0, 20.0])),
                CompositionNode::Component(component("b", &[0.01, 0.001], &[10.0, 20.0])),
            ]),
        ]))
        .unwrap();
        for space in [serial, dag] {
            let (outcome, stats) = search_with_stats(&space, &case_study::tco_model(), 1);
            assert!(stats.subtrees_pruned > 0, "expected a bound cutoff");
            assert!(
                outcome.stats().skipped >= 3,
                "the expensive subtree has at least 3 leaves"
            );
            assert_eq!(
                u128::from(outcome.stats().considered()),
                space.assignment_count()
            );
        }
    }

    #[test]
    fn recorded_search_is_bit_identical_and_counts() {
        let space = paper_space();
        let model = case_study::tco_model();
        let registry = uptime_obs::MetricsRegistry::new();
        let plain = search_with_threads(&space, &model, 1);
        let recorded = search_with_threads_recorded(
            &space,
            &model,
            1,
            &registry,
            &uptime_obs::TraceSpan::disabled(),
        );
        assert_eq!(
            plain.best().unwrap(),
            recorded.best().unwrap(),
            "instrumentation must not change results"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("optimizer.bnb.search.calls"), Some(1));
        assert_eq!(snap.histogram("optimizer.bnb.search.ns").unwrap().count, 1);
        let visited = snap.counter("optimizer.bnb.leaves_evaluated").unwrap();
        let skipped = snap.counter("optimizer.bnb.variants_skipped").unwrap();
        assert_eq!(u128::from(visited + skipped), space.assignment_count());
        assert_eq!(snap.gauge("optimizer.bnb.threads"), Some(1.0));
    }
}
