//! Differential harness for epsilon-dominance frontier extraction
//! (ISSUE PR 9 acceptance): over seeded random spaces — serial chains
//! and series–parallel DAGs — `pareto_bnb` must reproduce exhaustive
//! dominance filtering.
//!
//! Checked per seed 0–24, with and without hard SLO box constraints:
//!
//! * **Reference equality.** The branch-and-bound frontier's
//!   `(cost, uptime)` pairs equal the naive reference's — a full
//!   materializing sweep plus the O(N²) dominance definition — so every
//!   naive-frontier point is matched exactly (trivially within any
//!   epsilon) by a returned point.
//! * **Mutual non-domination.** No returned point weakly dominates
//!   another.
//! * **Thread independence.** Worker counts 1, 2, and 8 return
//!   bit-identical frontiers (`assert_eq!` on the full `ParetoPoint`
//!   list, representatives included).
//! * **Coverage accounting.** `leaves_evaluated + variants_skipped`
//!   equals the space size — pruning never loses track of a subtree.

use uptime_core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    TcoModel,
};
use uptime_optimizer::{
    pareto_bnb, Candidate, ComponentChoices, CompositionNode, CompositionSpace,
    FrontierConstraints, ParetoPoint, SearchSpace,
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
/// composite of 2–3 site chains, each a series of 1–2 components —
/// the archetype shape the broker serves.
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

/// Random hard constraints that usually leave the space feasible: the
/// cap and floor are drawn between the space's own extremes so some —
/// but typically not all — points survive.
fn random_constraints(rng: &mut Rng, naive_all: &[ParetoPoint]) -> FrontierConstraints {
    let costs: Vec<f64> = naive_all.iter().map(|p| p.ha_cost().value()).collect();
    let ups: Vec<f64> = naive_all.iter().map(|p| p.uptime().value()).collect();
    let max_cost = costs.iter().copied().fold(0.0f64, f64::max);
    let min_up = ups.iter().copied().fold(1.0f64, f64::min);
    let max_up = ups.iter().copied().fold(0.0f64, f64::max);
    FrontierConstraints {
        max_cost: Some(rng.range(max_cost * 0.3, max_cost * 1.1)),
        min_uptime: Some(rng.range(min_up, (min_up + max_up) / 2.0)),
        max_failover_minutes: Some(rng.range(1.0, 600.0)),
    }
}

fn pairs(points: &[ParetoPoint]) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|p| (p.ha_cost().value(), p.uptime().value()))
        .collect()
}

fn assert_mutually_non_dominated(points: &[ParetoPoint], label: &str) {
    for (i, a) in points.iter().enumerate() {
        for (j, b) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates = a.ha_cost() <= b.ha_cost() && a.uptime() >= b.uptime();
            assert!(!dominates, "{label}: point {i} weakly dominates point {j}");
        }
    }
}

fn run_serial_differential(seed: u64) {
    let mut rng = Rng::new(seed);
    let serial = random_serial_space(&mut rng);
    let space = CompositionSpace::from_serial(&serial);
    let model = random_model(&mut rng);
    let unconstrained = pareto_bnb::naive_frontier(&serial, &model, &FrontierConstraints::NONE);
    let constraints = random_constraints(&mut rng, &unconstrained);

    for (label, cons) in [
        ("unconstrained", FrontierConstraints::NONE),
        ("constrained", constraints),
    ] {
        let naive = pareto_bnb::naive_frontier(&serial, &model, &cons);
        let base = pareto_bnb::composition_search_with_threads(&space, &model, &cons, 1e-9, 1);
        assert_eq!(
            pairs(base.points()),
            pairs(&naive),
            "seed {seed} {label}: BnB frontier diverged from naive dominance filter"
        );
        assert_mutually_non_dominated(base.points(), label);
        let swept = pareto_bnb::sweep(&serial, &model, &cons, 1e-9);
        assert_eq!(
            base.points(),
            swept.points(),
            "seed {seed} {label}: exhaustive sweep engine diverged from BnB"
        );
        let total = base.stats().leaves_evaluated + base.stats().variants_skipped;
        assert_eq!(
            u128::from(total),
            space.assignment_count(),
            "seed {seed} {label}: evaluated + skipped must cover the space"
        );
        for threads in [2, 8] {
            let other =
                pareto_bnb::composition_search_with_threads(&space, &model, &cons, 1e-9, threads);
            assert_eq!(
                base.points(),
                other.points(),
                "seed {seed} {label} x{threads}: frontier not thread-count-independent"
            );
        }
    }
}

fn run_dag_differential(seed: u64) {
    let mut rng = Rng::new(seed);
    let space = random_dag_space(&mut rng);
    let model = random_model(&mut rng);
    let unconstrained =
        pareto_bnb::naive_composition_frontier(&space, &model, &FrontierConstraints::NONE);
    let constraints = random_constraints(&mut rng, &unconstrained);

    for (label, cons) in [
        ("unconstrained", FrontierConstraints::NONE),
        ("constrained", constraints),
    ] {
        let naive = pareto_bnb::naive_composition_frontier(&space, &model, &cons);
        let base = pareto_bnb::composition_search_with_threads(&space, &model, &cons, 1e-9, 1);
        assert_eq!(
            pairs(base.points()),
            pairs(&naive),
            "seed {seed} {label}: composition BnB diverged from naive dominance filter"
        );
        assert_mutually_non_dominated(base.points(), label);
        let swept = pareto_bnb::composition_sweep(&space, &model, &cons, 1e-9);
        assert_eq!(
            base.points(),
            swept.points(),
            "seed {seed} {label}: exhaustive composition sweep diverged from BnB"
        );
        for threads in [2, 8] {
            let other =
                pareto_bnb::composition_search_with_threads(&space, &model, &cons, 1e-9, threads);
            assert_eq!(
                base.points(),
                other.points(),
                "seed {seed} {label} x{threads}: frontier not thread-count-independent"
            );
        }
    }
}

#[test]
fn serial_frontier_matches_naive_seeds_0_24() {
    for seed in 0..25 {
        run_serial_differential(seed);
    }
}

#[test]
fn dag_frontier_matches_naive_seeds_0_24() {
    for seed in 0..25 {
        run_dag_differential(seed);
    }
}
