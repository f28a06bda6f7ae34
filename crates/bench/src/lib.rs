//! Shared workload builders for the reproduction harness and Criterion
//! benches. Each function corresponds to an experiment row in DESIGN.md's
//! experiment index. The kernel benchmark binaries and the overhead tests
//! also share one best-of timer ([`time_ns`]) and its report helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::Instant;

use uptime_broker::{BrokerService, SolutionRequest};
use uptime_catalog::{case_study, extended, CatalogStore, CloudId, ComponentKind, HaMethodId};
use uptime_core::{
    ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability, SlaTarget,
    SystemSpec, TcoModel,
};
use uptime_optimizer::{BnbStats, Candidate, ComponentChoices, SearchSpace};

/// The paper's catalog (three tiers, two HA choices each).
#[must_use]
pub fn paper_catalog() -> CatalogStore {
    case_study::catalog()
}

/// The paper's contract (98 % SLA, $100/h, ceiling rounding).
#[must_use]
pub fn paper_model() -> TcoModel {
    case_study::tco_model()
}

/// The paper's cloud id.
#[must_use]
pub fn paper_cloud() -> CloudId {
    case_study::cloud_id()
}

/// The paper's `2^3` search space.
///
/// # Panics
///
/// Panics only if the built-in catalog is inconsistent (it is tested).
#[must_use]
pub fn paper_space() -> SearchSpace {
    SearchSpace::from_catalog(
        &paper_catalog(),
        &paper_cloud(),
        &ComponentKind::paper_tiers(),
    )
    .expect("built-in catalog is complete")
}

/// The paper's intake request, including the Fig. 3 as-is declaration.
///
/// # Panics
///
/// Panics only if the built-in constants are invalid (they are tested).
#[must_use]
pub fn paper_request() -> SolutionRequest {
    SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)
        .expect("constant")
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)
        .expect("constant")
        .cloud(paper_cloud())
        .as_is(vec![
            HaMethodId::new("vmware-ha-3p1"),
            HaMethodId::new("raid1"),
            HaMethodId::new("dual-gw"),
        ])
        .build()
        .expect("constant request is valid")
}

/// A broker fronting the paper's catalog.
#[must_use]
pub fn paper_broker() -> BrokerService {
    BrokerService::new(paper_catalog())
}

/// Materializes the [`SystemSpec`] of one case-study assignment
/// (`[compute, storage, network]`, 0 = no HA, 1 = the paper's HA method).
///
/// # Panics
///
/// Panics on an out-of-range assignment.
#[must_use]
pub fn option_system(assignment: &[usize]) -> SystemSpec {
    let space = paper_space();
    let clusters: Vec<ClusterSpec> = assignment
        .iter()
        .zip(space.components())
        .map(|(&idx, comp)| comp.candidates()[idx].cluster().clone())
        .collect();
    SystemSpec::new(clusters).expect("three clusters")
}

/// The metacloud joint space over the extended hybrid catalog: per paper
/// tier, one candidate for every `(cloud, HA method)` pair the knowledge
/// base can host — the same space `recommend_metacloud` searches
/// (9 × 12 × 9 = 972 assignments).
///
/// # Panics
///
/// Panics only if the built-in hybrid catalog is inconsistent (it is
/// tested).
#[must_use]
pub fn hybrid_metacloud_space() -> SearchSpace {
    let catalog = extended::hybrid_catalog();
    let clouds: Vec<CloudId> = catalog.cloud_ids().cloned().collect();
    let components = ComponentKind::paper_tiers()
        .iter()
        .map(|kind| {
            let mut candidates = Vec::new();
            for cloud in &clouds {
                let profile = catalog.cloud(cloud).expect("listed cloud exists");
                if profile.reliability(*kind).is_none() {
                    continue;
                }
                for method in catalog.methods_for(*kind) {
                    let Ok(cluster) = catalog.cluster_spec(cloud, *kind, method.id()) else {
                        continue;
                    };
                    let Ok(quote) = catalog.quote(cloud, method.id()) else {
                        continue;
                    };
                    candidates.push(Candidate::new(
                        format!("{}@{}", method.display_name(), cloud),
                        cluster,
                        quote.total(),
                        method.is_none(),
                    ));
                }
            }
            ComponentChoices::new(kind.label(), candidates).expect("every tier is hostable")
        })
        .collect();
    SearchSpace::new(components).expect("three tiers")
}

/// A synthetic space with `n` components and `k` choices each, used by the
/// §III.C complexity experiments. Deterministic for a given `(n, k)`.
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`.
#[must_use]
pub fn synthetic_space(n: usize, k: usize) -> SearchSpace {
    assert!(n > 0 && k > 0, "need at least one component and choice");
    let components = (0..n)
        .map(|i| {
            let p = 0.01 + 0.01 * (i % 5) as f64;
            let mut candidates = vec![Candidate::new(
                "none",
                ClusterSpec::singleton(format!("c{i}"), Probability::new(p).expect("small"), 1.0)
                    .expect("valid"),
                MoneyPerMonth::ZERO,
                true,
            )];
            for level in 1..k {
                let cluster = ClusterSpec::builder(format!("c{i}-ha{level}"))
                    .total_nodes(1 + level as u32)
                    .standby_budget(level as u32)
                    .node_down_probability(Probability::new(p).expect("small"))
                    .failures_per_year(FailuresPerYear::new(1.0).expect("valid"))
                    .failover_time(Minutes::new(1.0).expect("valid"))
                    .build()
                    .expect("valid shape");
                candidates.push(Candidate::new(
                    format!("ha{level}"),
                    cluster,
                    MoneyPerMonth::new(200.0 * level as f64 + 50.0 * i as f64).expect("valid"),
                    false,
                ));
            }
            ComponentChoices::new(format!("comp{i}"), candidates).expect("non-empty")
        })
        .collect();
    SearchSpace::new(components).expect("non-empty")
}

/// A synthetic TCO model matching the paper's contract shape.
///
/// # Panics
///
/// Never in practice — constants are valid.
#[must_use]
pub fn synthetic_model() -> TcoModel {
    TcoModel::new(
        SlaTarget::from_percent(98.0).expect("constant"),
        PenaltyClause::per_hour(100.0).expect("constant"),
    )
}

/// Times `body` over `reps` runs and returns the best (least-noise) wall
/// time in nanoseconds. Each run's output goes through
/// [`black_box`], so the work cannot be optimized away.
pub fn time_ns<T>(reps: u32, mut body: impl FnMut() -> T) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let out = body();
        best = best.min(start.elapsed().as_nanos());
        black_box(&out);
    }
    best
}

/// Sweep throughput: `assignments` variants in `ns` nanoseconds, as
/// variants per second (infinite when the time rounds to zero).
#[must_use]
pub fn variants_per_sec(assignments: u128, ns: u128) -> f64 {
    if ns == 0 {
        f64::INFINITY
    } else {
        assignments as f64 / (ns as f64 / 1e9)
    }
}

/// A branch-and-bound run's wall time and counters, as a report object.
#[must_use]
pub fn stats_json(ns: u128, stats: &BnbStats) -> serde_json::Value {
    serde_json::json!({
        "total_ns": ns as u64,
        "threads": stats.threads,
        "tasks": stats.tasks,
        "nodes_visited": stats.nodes_visited,
        "leaves_evaluated": stats.leaves_evaluated,
        "subtrees_pruned": stats.subtrees_pruned,
        "variants_skipped": stats.variants_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_is_2_cubed() {
        assert_eq!(paper_space().assignment_count(), 8);
    }

    #[test]
    fn option_systems_have_three_clusters() {
        for assignment in [[0, 0, 0], [1, 1, 1], [0, 1, 0]] {
            assert_eq!(option_system(&assignment).len(), 3);
        }
    }

    #[test]
    fn synthetic_space_dimensions() {
        let s = synthetic_space(4, 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.assignment_count(), 81);
        assert!(s.baseline_assignment().is_some());
    }

    #[test]
    fn hybrid_metacloud_space_is_972_wide() {
        let s = hybrid_metacloud_space();
        assert_eq!(s.len(), 3);
        assert_eq!(s.assignment_count(), 9 * 12 * 9);
    }

    #[test]
    fn paper_request_builds() {
        let r = paper_request();
        assert_eq!(r.tiers().len(), 3);
        assert!(r.as_is().is_some());
    }
}
