//! Cross-strategy differential harness.
//!
//! Generates random-but-valid search spaces from seeded entropy and checks
//! that every exact strategy agrees, each engine running on the
//! composition kernel over the pure-series space:
//!
//! * `composition::search` (streaming), `pruned`, and `composition_bnb`
//!   must pick the **same argmin** as the naive exhaustive reference,
//!   with TCO and uptime within `1e-12`.
//! * `exhaustive::search` must reproduce the kernel's evaluation of every
//!   assignment **exactly** (bit-for-bit), in lexicographic order.
//! * `composition_bnb::search_with_threads` must return a winner
//!   bit-identical to `composition::search` at 1, 2, and 8 worker threads,
//!   with `evaluated + skipped` covering the whole space.
//! * `greedy` is a heuristic: its result must be a valid assignment whose
//!   TCO is an **upper bound** on (never better than) the true optimum.
//!
//! Parameters are drawn from continuous ranges, so exact objective ties —
//! the only case where "same argmin" could legitimately diverge — occur
//! with probability zero unless two candidates are structurally identical,
//! and identical candidates rank identically under the shared `RankKey`
//! tie-breakers (cardinality, then uptime), resolving to the first in
//! lexicographic visit order for every strategy.

use uptime_core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_optimizer::{
    composition, composition_bnb, exhaustive, greedy, pruned, Candidate, ComponentChoices,
    CompositionEvaluator, CompositionSpace, Evaluation, Objective, SearchSpace,
};

/// Deterministic splitmix64 — self-contained so the harness does not
/// depend on any RNG crate's stream staying stable.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[lo, hi]`.
    fn int(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// A random HA candidate: `K ∈ [2,5]`, `K̂ ∈ [1, K−1]`, continuous `P`,
/// `f`, `t`, and cost.
fn random_ha_candidate(rng: &mut Rng, comp: usize, idx: usize) -> Candidate {
    let total = rng.int(2, 5);
    let standby = rng.int(1, total - 1);
    let cluster = ClusterSpec::builder(format!("c{comp}-m{idx}"))
        .total_nodes(total)
        .standby_budget(standby)
        .node_down_probability(Probability::new(rng.range(0.001, 0.2)).unwrap())
        .failures_per_year(FailuresPerYear::new(rng.range(0.5, 20.0)).unwrap())
        .failover_time(Minutes::new(rng.range(0.1, 30.0)).unwrap())
        .build()
        .unwrap();
    Candidate::new(
        format!("ha-{comp}-{idx}"),
        cluster,
        MoneyPerMonth::new(rng.range(50.0, 5000.0)).unwrap(),
        false,
    )
}

/// A random space: `n ∈ [1,4]` components, `k ∈ [2,4]` candidates each
/// (baseline + HA options).
fn random_space(rng: &mut Rng) -> SearchSpace {
    let n = rng.int(1, 4) as usize;
    let components = (0..n)
        .map(|comp| {
            let baseline = Candidate::new(
                format!("none-{comp}"),
                ClusterSpec::singleton(
                    format!("c{comp}-base"),
                    Probability::new(rng.range(0.01, 0.15)).unwrap(),
                    rng.range(1.0, 15.0),
                )
                .unwrap(),
                MoneyPerMonth::ZERO,
                true,
            );
            let k = rng.int(2, 4) as usize;
            let mut candidates = vec![baseline];
            for idx in 1..k {
                candidates.push(random_ha_candidate(rng, comp, idx));
            }
            ComponentChoices::new(format!("tier-{comp}"), candidates).unwrap()
        })
        .collect();
    SearchSpace::new(components).unwrap()
}

fn random_model(rng: &mut Rng) -> TcoModel {
    TcoModel::new(
        SlaTarget::from_percent(rng.range(90.0, 99.9)).unwrap(),
        PenaltyClause::per_hour(rng.range(10.0, 500.0)).unwrap(),
    )
}

fn assert_same_optimum(label: &str, reference: &Evaluation, candidate: &Evaluation) {
    assert_eq!(
        candidate.assignment(),
        reference.assignment(),
        "{label}: argmin diverged"
    );
    assert!(
        (candidate.tco().total().value() - reference.tco().total().value()).abs() <= 1e-12,
        "{label}: TCO {} vs reference {}",
        candidate.tco().total(),
        reference.tco().total()
    );
    assert!(
        (candidate.uptime().availability().value() - reference.uptime().availability().value())
            .abs()
            <= 1e-12,
        "{label}: U_s {} vs reference {}",
        candidate.uptime().availability().value(),
        reference.uptime().availability().value()
    );
}

/// The naive exhaustive reference: per-assignment `Evaluation::evaluate`
/// (clusters cloned, `SystemSpec` rebuilt), best picked by the objective.
fn naive_reference(space: &SearchSpace, model: &TcoModel, objective: Objective) -> Evaluation {
    let evaluations: Vec<Evaluation> = space
        .assignments()
        .map(|a| Evaluation::evaluate(space, model, &a))
        .collect();
    objective.best(&evaluations).unwrap().clone()
}

fn run_differential(seed: u64) {
    let mut rng = Rng::new(seed);
    let space = random_space(&mut rng);
    let chain = CompositionSpace::from_serial(&space);
    let model = random_model(&mut rng);

    for objective in [Objective::MinTco, Objective::MinPenaltyRisk] {
        let reference = naive_reference(&space, &model, objective);

        // Streaming search: same argmin, ≤1e-12 on TCO and uptime.
        let streamed = composition::search(&chain, &model, objective);
        assert_same_optimum("composition::search", &reference, streamed.best().unwrap());
        assert_eq!(
            u128::from(streamed.stats().evaluated),
            space.assignment_count(),
            "composition::search must visit the whole space"
        );

        // The materialized table must equal the kernel's evaluation of
        // every assignment bit-for-bit, in lexicographic order.
        let table = exhaustive::search(&space, &model, objective);
        let eval = CompositionEvaluator::new(&chain, &model);
        let pointwise: Vec<Evaluation> = space.assignments().map(|a| eval.evaluate(&a)).collect();
        assert_eq!(
            table.evaluations(),
            pointwise.as_slice(),
            "exhaustive: evaluation list diverged from the kernel"
        );
        assert_same_optimum(
            "exhaustive (kernel-backed)",
            &reference,
            table.best().unwrap(),
        );

        // Greedy is a heuristic lower bound on quality: never better than
        // the true optimum, always a valid full assignment.
        let heuristic = greedy::search(&space, &model, objective);
        let greedy_best = heuristic.best().unwrap();
        assert_eq!(greedy_best.assignment().len(), space.len());
        assert!(
            !objective.better(greedy_best, &reference),
            "greedy beat the exhaustive optimum: {} < {}",
            greedy_best.tco().total(),
            reference.tco().total()
        );
    }

    // Pruned and branch-and-bound are MinTco-exact (their pruning argument
    // is cost-based); compare under MinTco only.
    let reference = naive_reference(&space, &model, Objective::MinTco);
    let clipped = pruned::search(&space, &model, Objective::MinTco);
    let best = clipped.best().unwrap();
    assert!(
        (best.tco().total().value() - reference.tco().total().value()).abs() <= 1e-12,
        "pruned: optimum TCO {} vs reference {}",
        best.tco().total(),
        reference.tco().total()
    );
    assert_eq!(
        u128::from(clipped.stats().considered()),
        space.assignment_count(),
        "pruned: evaluated + skipped must cover the space"
    );
    let bounded = composition_bnb::search(&chain, &model);
    assert_same_optimum("composition_bnb", &reference, bounded.best().unwrap());
    assert_eq!(
        u128::from(bounded.stats().considered()),
        space.assignment_count(),
        "composition_bnb: evaluated + skipped must cover the space"
    );

    // The bounded search shares the factorized evaluator with the
    // streaming search, so its winner must be bit-identical (not merely
    // within tolerance) to the streaming argmin — and independent of the
    // worker count.
    let streaming = composition::search(&chain, &model, Objective::MinTco);
    let serial_best = bounded.best().unwrap();
    assert_eq!(
        serial_best,
        streaming.best().unwrap(),
        "composition_bnb: winner must equal composition::search bit-for-bit"
    );
    for threads in [2, 8] {
        let sharded = composition_bnb::search_with_threads(&chain, &model, threads);
        assert_eq!(
            sharded.best().unwrap(),
            serial_best,
            "composition_bnb x{threads}: winner diverged from single-threaded run"
        );
        assert_eq!(
            u128::from(sharded.stats().considered()),
            space.assignment_count(),
            "composition_bnb x{threads}: evaluated + skipped must cover the space"
        );
    }
}

#[test]
fn seed_0() {
    run_differential(0);
}

#[test]
fn seed_1() {
    run_differential(1);
}

#[test]
fn seed_2() {
    run_differential(2);
}

#[test]
fn seed_3() {
    run_differential(3);
}

#[test]
fn seed_4() {
    run_differential(4);
}

/// A wider sweep beyond the contract seeds — cheap insurance against the
/// first five seeds being structurally lucky.
#[test]
fn seeds_5_through_24() {
    for seed in 5..25 {
        run_differential(seed);
    }
}

/// Every assignment (not just the argmin) of a random space evaluates
/// identically under the naive and factorized paths.
#[test]
fn fast_matches_naive_pointwise() {
    for seed in 0..10 {
        let mut rng = Rng::new(seed ^ 0xD1F7);
        let space = random_space(&mut rng);
        let model = random_model(&mut rng);
        let chain = CompositionSpace::from_serial(&space);
        let fast = CompositionEvaluator::new(&chain, &model);
        for assignment in space.assignments() {
            let naive = Evaluation::evaluate(&space, &model, &assignment);
            let quick = fast.evaluate(&assignment);
            assert_eq!(quick.assignment(), naive.assignment());
            assert_eq!(quick.cardinality(), naive.cardinality());
            assert!(
                (quick.tco().total().value() - naive.tco().total().value()).abs() <= 1e-12,
                "seed {seed} {assignment:?}"
            );
            assert!(
                (quick.uptime().availability().value() - naive.uptime().availability().value())
                    .abs()
                    <= 1e-12,
                "seed {seed} {assignment:?}"
            );
        }
    }
}
