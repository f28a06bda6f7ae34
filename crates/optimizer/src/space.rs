//! The search space: per-component HA candidates.

use std::fmt;

use serde::{Deserialize, Serialize};
use uptime_catalog::{CatalogError, CatalogStore, CloudId, ComponentKind};
use uptime_core::{ClusterSpec, MoneyPerMonth};

/// Errors in search-space construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpaceError {
    /// A component was declared with no candidates.
    EmptyComponent {
        /// Component display name.
        name: String,
    },
    /// The space has no components.
    EmptySpace,
    /// Catalog lookup failed while building from a catalog.
    Catalog(CatalogError),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::EmptyComponent { name } => {
                write!(f, "component `{name}` has no HA candidates")
            }
            SpaceError::EmptySpace => write!(f, "search space has no components"),
            SpaceError::Catalog(err) => write!(f, "catalog error: {err}"),
        }
    }
}

impl std::error::Error for SpaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpaceError::Catalog(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CatalogError> for SpaceError {
    fn from(err: CatalogError) -> Self {
        SpaceError::Catalog(err)
    }
}

/// One deployable HA construct for a component: the cluster it engineers
/// and what it costs per month.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    label: String,
    cluster: ClusterSpec,
    monthly_cost: MoneyPerMonth,
    is_baseline: bool,
}

impl Candidate {
    /// Creates a candidate. `is_baseline` marks the "no HA" choice used by
    /// the superset-pruning search to define permutation cardinality.
    pub fn new(
        label: impl Into<String>,
        cluster: ClusterSpec,
        monthly_cost: MoneyPerMonth,
        is_baseline: bool,
    ) -> Self {
        Candidate {
            label: label.into(),
            cluster,
            monthly_cost,
            is_baseline,
        }
    }

    /// Display label (e.g. "RAID 1").
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The engineered cluster.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Monthly cost `C_HA` contribution of this candidate.
    #[must_use]
    pub fn monthly_cost(&self) -> MoneyPerMonth {
        self.monthly_cost
    }

    /// Whether this is the component's "no HA" baseline.
    #[must_use]
    pub fn is_baseline(&self) -> bool {
        self.is_baseline
    }
}

/// The candidate choices for one serial component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentChoices {
    name: String,
    candidates: Vec<Candidate>,
}

impl ComponentChoices {
    /// Creates the choice set for a component.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::EmptyComponent`] if `candidates` is empty.
    pub fn new(name: impl Into<String>, candidates: Vec<Candidate>) -> Result<Self, SpaceError> {
        let name = name.into();
        if candidates.is_empty() {
            return Err(SpaceError::EmptyComponent { name });
        }
        Ok(ComponentChoices { name, candidates })
    }

    /// Component display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidates.
    #[must_use]
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Number of choices `k` for this component.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Always `false` after construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Index of the baseline candidate, if any.
    #[must_use]
    pub fn baseline_index(&self) -> Option<usize> {
        self.candidates.iter().position(Candidate::is_baseline)
    }

    /// The cheapest candidate cost (used for branch-and-bound lower bounds).
    #[must_use]
    pub fn min_cost(&self) -> MoneyPerMonth {
        self.candidates
            .iter()
            .map(Candidate::monthly_cost)
            .min()
            .expect("non-empty by construction")
    }
}

/// The full search space: choices per serial component.
///
/// An *assignment* is one index per component, selecting a candidate each;
/// the space contains `Π k_i` assignments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    components: Vec<ComponentChoices>,
}

impl SearchSpace {
    /// Creates a space from per-component choices.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::EmptySpace`] if `components` is empty.
    pub fn new(components: Vec<ComponentChoices>) -> Result<Self, SpaceError> {
        if components.is_empty() {
            return Err(SpaceError::EmptySpace);
        }
        Ok(SearchSpace { components })
    }

    /// Builds the space for a serial chain of component kinds on one cloud,
    /// taking every applicable catalog method as a candidate.
    ///
    /// # Errors
    ///
    /// Propagates catalog lookup failures; a component kind with no
    /// registered methods yields [`SpaceError::EmptyComponent`].
    pub fn from_catalog(
        catalog: &CatalogStore,
        cloud: &CloudId,
        tiers: &[ComponentKind],
    ) -> Result<Self, SpaceError> {
        let mut components = Vec::with_capacity(tiers.len());
        for kind in tiers {
            let methods = catalog.methods_for(*kind);
            let mut candidates = Vec::with_capacity(methods.len());
            for method in methods {
                let cluster = catalog.cluster_spec(cloud, *kind, method.id())?;
                let cost = catalog.quote(cloud, method.id())?.total();
                candidates.push(Candidate::new(
                    method.display_name(),
                    cluster,
                    cost,
                    method.is_none(),
                ));
            }
            components.push(ComponentChoices::new(kind.label(), candidates)?);
        }
        SearchSpace::new(components)
    }

    /// Per-component choice sets, in serial order.
    #[must_use]
    pub fn components(&self) -> &[ComponentChoices] {
        &self.components
    }

    /// Number of serial components `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always `false` after construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Total number of assignments `Π k_i`, saturating at `u128::MAX`.
    #[must_use]
    pub fn assignment_count(&self) -> u128 {
        saturating_count(&self.components)
    }

    /// The all-baseline assignment, if every component has a baseline.
    #[must_use]
    pub fn baseline_assignment(&self) -> Option<Vec<usize>> {
        self.components
            .iter()
            .map(ComponentChoices::baseline_index)
            .collect()
    }

    /// Iterates over every assignment in lexicographic order.
    #[must_use]
    pub fn assignments(&self) -> Assignments<'_> {
        Assignments {
            space: self,
            next: Some(vec![0; self.components.len()]),
        }
    }

    /// The HA cardinality of an assignment: how many components use a
    /// non-baseline candidate (the paper's "number of clustered
    /// components").
    #[must_use]
    pub fn cardinality(&self, assignment: &[usize]) -> usize {
        assignment
            .iter()
            .zip(&self.components)
            .filter(|(&idx, comp)| !comp.candidates()[idx].is_baseline())
            .count()
    }
}

/// `Π k_i` over the given candidate sets, saturating at `u128::MAX`: a
/// plain `u128` product wraps past 2^128 (128 two-method tiers count 0),
/// which would make an unbounded space look small.
pub(crate) fn saturating_count(components: &[ComponentChoices]) -> u128 {
    components
        .iter()
        .try_fold(1u128, |count, c| count.checked_mul(c.len() as u128))
        .unwrap_or(u128::MAX)
}

/// Iterator over all assignments of a [`SearchSpace`], lexicographic.
#[derive(Debug)]
pub struct Assignments<'a> {
    space: &'a SearchSpace,
    next: Option<Vec<usize>>,
}

impl Iterator for Assignments<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        // Compute the successor (odometer increment from the right).
        let mut succ = current.clone();
        let mut pos = succ.len();
        loop {
            if pos == 0 {
                self.next = None;
                break;
            }
            pos -= 1;
            succ[pos] += 1;
            if succ[pos] < self.space.components()[pos].len() {
                self.next = Some(succ);
                break;
            }
            succ[pos] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uptime_core::Probability;

    fn cluster(name: &str, p: f64) -> ClusterSpec {
        ClusterSpec::singleton(name, Probability::new(p).unwrap(), 1.0).unwrap()
    }

    fn money(v: f64) -> MoneyPerMonth {
        MoneyPerMonth::new(v).unwrap()
    }

    fn two_by_three() -> SearchSpace {
        SearchSpace::new(vec![
            ComponentChoices::new(
                "a",
                vec![
                    Candidate::new("none", cluster("a0", 0.01), money(0.0), true),
                    Candidate::new("ha", cluster("a1", 0.001), money(100.0), false),
                ],
            )
            .unwrap(),
            ComponentChoices::new(
                "b",
                vec![
                    Candidate::new("none", cluster("b0", 0.02), money(0.0), true),
                    Candidate::new("ha1", cluster("b1", 0.002), money(50.0), false),
                    Candidate::new("ha2", cluster("b2", 0.0002), money(500.0), false),
                ],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn empty_space_and_component_rejected() {
        assert!(matches!(
            SearchSpace::new(vec![]).unwrap_err(),
            SpaceError::EmptySpace
        ));
        assert!(matches!(
            ComponentChoices::new("x", vec![]).unwrap_err(),
            SpaceError::EmptyComponent { .. }
        ));
    }

    #[test]
    fn assignment_count_is_product() {
        let s = two_by_three();
        assert_eq!(s.assignment_count(), 6);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn assignment_count_saturates_instead_of_wrapping() {
        let tier = ComponentChoices::new(
            "compute",
            vec![
                Candidate::new("none", cluster("c0", 0.01), money(0.0), true),
                Candidate::new("ha", cluster("c1", 0.001), money(100.0), false),
            ],
        )
        .unwrap();
        for (tiers, count) in [(127, 1u128 << 127), (128, u128::MAX), (200, u128::MAX)] {
            let serial = SearchSpace::new(vec![tier.clone(); tiers]).unwrap();
            assert_eq!(serial.assignment_count(), count, "{tiers} tiers");
            let composed = crate::CompositionSpace::from_serial(&serial);
            assert_eq!(composed.assignment_count(), count, "{tiers} tiers");
        }
    }

    #[test]
    fn assignments_enumerate_lexicographically() {
        let s = two_by_three();
        let all: Vec<_> = s.assignments().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn cardinality_counts_non_baseline() {
        let s = two_by_three();
        assert_eq!(s.cardinality(&[0, 0]), 0);
        assert_eq!(s.cardinality(&[1, 0]), 1);
        assert_eq!(s.cardinality(&[0, 2]), 1);
        assert_eq!(s.cardinality(&[1, 1]), 2);
    }

    #[test]
    fn baseline_assignment_found() {
        let s = two_by_three();
        assert_eq!(s.baseline_assignment(), Some(vec![0, 0]));
    }

    #[test]
    fn baseline_assignment_absent_when_no_baseline() {
        let s = SearchSpace::new(vec![ComponentChoices::new(
            "a",
            vec![Candidate::new("ha", cluster("a", 0.01), money(10.0), false)],
        )
        .unwrap()])
        .unwrap();
        assert_eq!(s.baseline_assignment(), None);
    }

    #[test]
    fn min_cost_per_component() {
        let s = two_by_three();
        assert_eq!(s.components()[0].min_cost(), money(0.0));
        assert_eq!(s.components()[1].min_cost(), money(0.0));
    }

    #[test]
    fn from_catalog_builds_paper_space() {
        use uptime_catalog::case_study;
        let catalog = case_study::catalog();
        let space = SearchSpace::from_catalog(
            &catalog,
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        assert_eq!(space.len(), 3);
        assert_eq!(space.assignment_count(), 8, "paper: 2^3 options");
        // Baseline-first ordering from the catalog.
        for comp in space.components() {
            assert!(comp.candidates()[0].is_baseline());
            assert_eq!(comp.candidates()[0].monthly_cost(), money(0.0));
        }
        // VMware candidate costs $2200.
        let compute_ha = &space.components()[0].candidates()[1];
        assert!((compute_ha.monthly_cost().value() - 2200.0).abs() < 1.0);
    }

    #[test]
    fn from_catalog_unknown_cloud_errors() {
        use uptime_catalog::case_study;
        let catalog = case_study::catalog();
        let err = SearchSpace::from_catalog(
            &catalog,
            &CloudId::new("ghost"),
            &ComponentKind::paper_tiers(),
        )
        .unwrap_err();
        assert!(matches!(err, SpaceError::Catalog(_)));
    }

    #[test]
    fn serde_roundtrip() {
        let s = two_by_three();
        let json = serde_json::to_string(&s).unwrap();
        let back: SearchSpace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
