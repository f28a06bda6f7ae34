//! Differential harness for the series–parallel composition engines.
//!
//! Two contracts, checked over seeded random spaces:
//!
//! * **Serial special case.** On a pure-series `CompositionSpace` (built
//!   with `from_serial`) the streaming search and the branch-and-bound
//!   must both return the winner of a naive exhaustive sweep
//!   (per-assignment `Evaluation::evaluate` on the serial chain), and be
//!   **bit-identical** (`assert_eq!` on the whole
//!   `Evaluation`) to one another and to the kernel's own evaluation of
//!   that winner, across seeds 0–24 and 1/2/8 worker threads. The fold
//!   multiplies by `mask = 1.0` and adds `extra_cost = 0.0`, both of
//!   which preserve every bit, so nothing weaker than equality is
//!   acceptable between engines.
//! * **DAG topologies.** On random series–parallel spaces (a spine
//!   gateway plus 2–3 parallel site chains) the winners of both engines
//!   must match a naive exhaustive sweep that materializes every
//!   assignment's [`uptime_core::composition::Block`] and prices it
//!   through `Block::failover_aware_availability` — same argmin, TCO and
//!   uptime within `1e-12` — again thread-count independent.
//!
//! Parameters are continuous, so exact ties occur with probability zero
//! (see `differential.rs` for the argument); strict argmin comparison is
//! therefore sound.

use uptime_core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_optimizer::{
    composition, composition_bnb, Candidate, ComponentChoices, CompositionEvaluator,
    CompositionNode, CompositionSpace, Evaluation, Objective, SearchSpace,
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
fn random_ha_candidate(rng: &mut Rng, name: &str, idx: usize) -> Candidate {
    let total = rng.int(2, 5);
    let standby = rng.int(1, total - 1);
    let cluster = ClusterSpec::builder(format!("{name}-m{idx}"))
        .total_nodes(total)
        .standby_budget(standby)
        .node_down_probability(Probability::new(rng.range(0.001, 0.2)).unwrap())
        .failures_per_year(FailuresPerYear::new(rng.range(0.5, 20.0)).unwrap())
        .failover_time(Minutes::new(rng.range(0.1, 30.0)).unwrap())
        .build()
        .unwrap();
    Candidate::new(
        format!("ha-{name}-{idx}"),
        cluster,
        MoneyPerMonth::new(rng.range(50.0, 5000.0)).unwrap(),
        false,
    )
}

/// A random choice set: baseline singleton + `k−1` HA candidates.
fn random_choices(rng: &mut Rng, name: &str, max_k: u32) -> ComponentChoices {
    let baseline = Candidate::new(
        format!("none-{name}"),
        ClusterSpec::singleton(
            format!("{name}-base"),
            Probability::new(rng.range(0.01, 0.15)).unwrap(),
            rng.range(1.0, 15.0),
        )
        .unwrap(),
        MoneyPerMonth::ZERO,
        true,
    );
    let k = rng.int(2, max_k) as usize;
    let mut candidates = vec![baseline];
    for idx in 1..k {
        candidates.push(random_ha_candidate(rng, name, idx));
    }
    ComponentChoices::new(name, candidates).unwrap()
}

/// A random serial space: `n ∈ [1,4]` components, `k ∈ [2,4]` candidates.
fn random_serial_space(rng: &mut Rng) -> SearchSpace {
    let n = rng.int(1, 4) as usize;
    let components = (0..n)
        .map(|comp| random_choices(rng, &format!("tier-{comp}"), 4))
        .collect();
    SearchSpace::new(components).unwrap()
}

/// A random DAG space: a spine gateway leaf in series with a parallel
/// composite of 2–3 site chains, each a series of 1–2 components. Sized
/// (`k ∈ [2,3]`, ≤ 7 leaves) so the naive `Block` sweep stays cheap.
fn random_dag_space(rng: &mut Rng) -> CompositionSpace {
    let sites = rng.int(2, 3);
    let branches = (0..sites)
        .map(|s| {
            let depth = rng.int(1, 2);
            CompositionNode::Series(
                (0..depth)
                    .map(|d| {
                        CompositionNode::Component(random_choices(rng, &format!("s{s}t{d}"), 3))
                    })
                    .collect(),
            )
        })
        .collect();
    CompositionSpace::new(CompositionNode::Series(vec![
        CompositionNode::Component(random_choices(rng, "gw", 3)),
        CompositionNode::Parallel(branches),
    ]))
    .unwrap()
}

fn random_model(rng: &mut Rng) -> TcoModel {
    TcoModel::new(
        SlaTarget::from_percent(rng.range(90.0, 99.9)).unwrap(),
        PenaltyClause::per_hour(rng.range(10.0, 500.0)).unwrap(),
    )
}

/// Pure-series contract: every engine finds the naive argmin, and the
/// engines' winners are bit-identical — `assert_eq!`, not tolerance.
fn run_serial_differential(seed: u64) {
    let mut rng = Rng::new(seed);
    let serial = random_serial_space(&mut rng);
    let space = CompositionSpace::from_serial(&serial);
    let model = random_model(&mut rng);
    assert!(space.is_pure_series());
    let eval = CompositionEvaluator::new(&space, &model);

    for objective in [Objective::MinTco, Objective::MinPenaltyRisk] {
        let naive: Vec<Evaluation> = serial
            .assignments()
            .map(|a| Evaluation::evaluate(&serial, &model, &a))
            .collect();
        let reference = objective.best(&naive).unwrap();
        let comp_win = composition::search(&space, &model, objective);
        let best = comp_win.best().unwrap();
        assert_eq!(
            best.assignment(),
            reference.assignment(),
            "seed {seed}: composition::search diverged from the naive argmin"
        );
        assert!(
            (best.tco().total().value() - reference.tco().total().value()).abs() <= 1e-12,
            "seed {seed}: TCO {} vs naive {}",
            best.tco().total(),
            reference.tco().total()
        );
        assert_eq!(
            best,
            &eval.evaluate(best.assignment()),
            "seed {seed}: streaming winner must be the kernel's evaluation bit-for-bit"
        );
        assert_eq!(
            u128::from(comp_win.stats().evaluated),
            space.assignment_count(),
            "seed {seed}: streaming search must visit the whole space"
        );
    }

    // The bounded engine is MinTco-exact; its winner must agree with the
    // streaming argmin bit-for-bit, at every thread count.
    let streaming = composition::search(&space, &model, Objective::MinTco);
    for threads in [1, 2, 8] {
        let (comp_bnb, _) = composition_bnb::search(&space, &model, threads);
        assert_eq!(
            comp_bnb.best().unwrap(),
            streaming.best().unwrap(),
            "seed {seed} x{threads}: composition BnB diverged from the streaming search"
        );
        assert_eq!(
            u128::from(comp_bnb.stats().considered()),
            space.assignment_count(),
            "seed {seed} x{threads}: evaluated + skipped must cover the space"
        );
    }
}

/// The naive DAG reference: materialize every assignment's `Block`, price
/// it with `failover_aware_availability` + the TCO model, and argmin under
/// `MinTco`'s (total, cardinality, availability) order.
fn naive_block_reference(space: &CompositionSpace, model: &TcoModel) -> (Vec<usize>, f64, f64) {
    let mut best: Option<(Vec<usize>, f64, usize, f64)> = None;
    for assignment in space.assignments() {
        let block = space.to_block(&assignment);
        block.validate().expect("generated diagrams are valid");
        let avail = block.failover_aware_availability();
        let cost = MoneyPerMonth::new(space.monthly_cost(&assignment)).unwrap();
        let total = model.evaluate(cost, avail).total().value();
        let cardinality = space.cardinality(&assignment);
        let better = match &best {
            None => true,
            Some((_, bt, bc, ba)) => {
                total < *bt
                    || (total == *bt
                        && (cardinality < *bc || (cardinality == *bc && avail.value() > *ba)))
            }
        };
        if better {
            best = Some((assignment, total, cardinality, avail.value()));
        }
    }
    let (assignment, total, _, avail) = best.expect("non-empty space");
    (assignment, total, avail)
}

/// DAG contract: both composition engines match the naive `Block` sweep
/// within `1e-12`, independent of thread count.
fn run_dag_differential(seed: u64) {
    let mut rng = Rng::new(seed ^ 0xDA6_0DA6);
    let space = random_dag_space(&mut rng);
    let model = random_model(&mut rng);
    assert!(!space.is_pure_series());

    let (ref_assignment, ref_total, ref_avail) = naive_block_reference(&space, &model);

    let check = |label: &str, best: &Evaluation| {
        assert_eq!(
            best.assignment(),
            &ref_assignment[..],
            "seed {seed} {label}: argmin diverged from Block sweep"
        );
        assert!(
            (best.tco().total().value() - ref_total).abs() <= 1e-12,
            "seed {seed} {label}: TCO {} vs Block sweep {ref_total}",
            best.tco().total()
        );
        assert!(
            (best.uptime().availability().value() - ref_avail).abs() <= 1e-12,
            "seed {seed} {label}: U_s {} vs Block sweep {ref_avail}",
            best.uptime().availability().value()
        );
    };

    let streamed = composition::search(&space, &model, Objective::MinTco);
    check("composition::search", streamed.best().unwrap());
    assert_eq!(
        u128::from(streamed.stats().evaluated),
        space.assignment_count()
    );

    for threads in [1, 2, 8] {
        let (bounded, _) = composition_bnb::search(&space, &model, threads);
        check(
            &format!("composition_bnb x{threads}"),
            bounded.best().unwrap(),
        );
        assert_eq!(
            u128::from(bounded.stats().considered()),
            space.assignment_count(),
            "seed {seed} x{threads}: evaluated + skipped must cover the space"
        );
        // Thread counts must also agree bit-for-bit with each other.
        assert_eq!(
            bounded.best().unwrap(),
            composition_bnb::search(&space, &model, 1).0.best().unwrap(),
            "seed {seed} x{threads}: thread count changed the winner"
        );
    }
}

#[test]
fn serial_seed_0() {
    run_serial_differential(0);
}

#[test]
fn serial_seed_1() {
    run_serial_differential(1);
}

#[test]
fn serial_seed_2() {
    run_serial_differential(2);
}

#[test]
fn serial_seed_3() {
    run_serial_differential(3);
}

#[test]
fn serial_seed_4() {
    run_serial_differential(4);
}

/// The wider sweep the PR contract names: seeds 5–24 on top of the five
/// individually-reported seeds above.
#[test]
fn serial_seeds_5_through_24() {
    for seed in 5..25 {
        run_serial_differential(seed);
    }
}

#[test]
fn dag_seed_0() {
    run_dag_differential(0);
}

#[test]
fn dag_seed_1() {
    run_dag_differential(1);
}

#[test]
fn dag_seed_2() {
    run_dag_differential(2);
}

#[test]
fn dag_seed_3() {
    run_dag_differential(3);
}

#[test]
fn dag_seed_4() {
    run_dag_differential(4);
}

#[test]
fn dag_seeds_5_through_24() {
    for seed in 5..25 {
        run_dag_differential(seed);
    }
}

/// Every assignment of a random DAG space evaluates identically under the
/// factorized fold and the naive `Block` path — not just the argmin.
#[test]
fn fold_matches_block_pointwise_on_random_dags() {
    for seed in 0..10 {
        let mut rng = Rng::new(seed ^ 0xB10C);
        let space = random_dag_space(&mut rng);
        let model = random_model(&mut rng);
        let eval = composition::CompositionEvaluator::new(&space, &model);
        for assignment in space.assignments() {
            let folded = eval.evaluate(&assignment);
            let avail = space
                .to_block(&assignment)
                .failover_aware_availability()
                .value();
            assert!(
                (folded.uptime().availability().value() - avail).abs() <= 1e-12,
                "seed {seed} {assignment:?}: fold {} vs block {avail}",
                folded.uptime().availability().value()
            );
            // Costs reach thousands and the fold sums spine and masked
            // leaves separately, so association noise is a few ulps of the
            // total — compare at 1e-9 (still ~1e-13 relative).
            assert!(
                (folded.tco().ha_cost().value() - space.monthly_cost(&assignment)).abs() <= 1e-9,
                "seed {seed} {assignment:?}: fold cost {} vs flat sum {}",
                folded.tco().ha_cost().value(),
                space.monthly_cost(&assignment)
            );
            assert_eq!(folded.cardinality(), space.cardinality(&assignment));
        }
    }
}
