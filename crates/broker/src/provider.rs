//! Cloud provider abstraction and the simulated provider.
//!
//! The paper's broker provisions onto real clouds (IBM SoftLayer in §III).
//! We have no cloud, so [`SimulatedProvider`] substitutes one: it accepts
//! provisioning calls, tracks deployments in memory, and emits telemetry
//! by running the discrete-event simulator against **ground-truth**
//! failure dynamics — which may differ from what the broker's catalog
//! believes, exactly the skew §IV worries about.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use uptime_catalog::{CatalogStore, CloudId, ComponentKind};
use uptime_core::{ClusterSpec, FailuresPerYear, Probability, SystemSpec};
use uptime_sim::{SimConfig, SimDuration, Simulation, Trace};

use crate::error::BrokerError;
use crate::planner::DeploymentPlan;

/// Handle to a provisioned deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeploymentHandle(u64);

impl DeploymentHandle {
    /// The raw id.
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }
}

/// A harvested batch of telemetry: the trace plus the observation frame
/// the estimators need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderTelemetry {
    /// The raw event trace.
    pub trace: Trace,
    /// Nodes covered per cluster in the trace.
    pub nodes_per_cluster: u32,
    /// Number of clusters covered.
    pub clusters: u32,
    /// Observation window.
    pub span: SimDuration,
}

/// A cloud the broker can provision onto and harvest telemetry from.
pub trait CloudProvider {
    /// The provider's cloud id.
    fn id(&self) -> &CloudId;

    /// Human-readable name.
    fn display_name(&self) -> &str;

    /// Executes a deployment plan, returning a handle.
    ///
    /// # Errors
    ///
    /// Implementations reject plans targeting a different cloud.
    fn provision(&mut self, plan: &DeploymentPlan) -> Result<DeploymentHandle, BrokerError>;

    /// Tears down a deployment. Returns `true` if the handle was live.
    fn deprovision(&mut self, handle: DeploymentHandle) -> bool;

    /// Currently live deployments.
    fn deployments(&self) -> Vec<DeploymentHandle>;

    /// Harvests telemetry for a fleet of unclustered nodes of one
    /// component kind — the raw material for `P̂` and `f̂`.
    ///
    /// # Errors
    ///
    /// Fails when the provider has no ground truth for `kind` or the
    /// simulation is misconfigured.
    fn harvest_component_telemetry(
        &self,
        kind: ComponentKind,
        fleet: u32,
        years: f64,
        seed: u64,
    ) -> Result<ProviderTelemetry, BrokerError>;

    /// Harvests telemetry for one clustered deployment — the raw material
    /// for `t̂`.
    ///
    /// # Errors
    ///
    /// Fails when the cluster spec is unusable for simulation.
    fn harvest_cluster_telemetry(
        &self,
        spec: &ClusterSpec,
        years: f64,
        seed: u64,
    ) -> Result<ProviderTelemetry, BrokerError>;
}

/// Ground-truth failure behaviour of one component kind on a simulated
/// cloud.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// True node down-probability.
    pub down_probability: Probability,
    /// True failures per node-year.
    pub failures_per_year: FailuresPerYear,
}

/// An in-memory cloud: provisioning ledger + simulator-backed telemetry.
#[derive(Debug, Clone)]
pub struct SimulatedProvider {
    id: CloudId,
    display_name: String,
    ground_truth: BTreeMap<ComponentKind, GroundTruth>,
    deployments: BTreeMap<u64, DeploymentPlan>,
    next_handle: u64,
}

impl SimulatedProvider {
    /// Creates a provider with no ground truth registered.
    pub fn new(id: impl Into<CloudId>, display_name: impl Into<String>) -> Self {
        SimulatedProvider {
            id: id.into(),
            display_name: display_name.into(),
            ground_truth: BTreeMap::new(),
            deployments: BTreeMap::new(),
            next_handle: 1,
        }
    }

    /// Registers the true failure behaviour of a component kind.
    #[must_use]
    pub fn with_ground_truth(mut self, kind: ComponentKind, truth: GroundTruth) -> Self {
        self.ground_truth.insert(kind, truth);
        self
    }

    /// The registered ground truth for a kind, if any.
    #[must_use]
    pub fn ground_truth(&self, kind: ComponentKind) -> Option<GroundTruth> {
        self.ground_truth.get(&kind).copied()
    }

    /// One clean provider per cloud of `store`, in catalog order, each
    /// paired with the component kinds its cloud observes. Every observed
    /// kind's reliability record is its ground truth, so the telemetry
    /// these providers emit is always plausible to the catalog. Wrap a
    /// provider in a `ChaosProvider` to make it misbehave.
    #[must_use]
    pub fn for_catalog(store: &CatalogStore) -> Vec<(SimulatedProvider, Vec<ComponentKind>)> {
        store
            .cloud_ids()
            .map(|id| {
                let profile = store.cloud(id).expect("listed id resolves");
                let mut provider = SimulatedProvider::new(id.clone(), profile.display_name());
                let kinds: Vec<ComponentKind> = profile.observed_components().collect();
                for &kind in &kinds {
                    let record = profile.reliability(kind).expect("observed");
                    provider = provider.with_ground_truth(
                        kind,
                        GroundTruth {
                            down_probability: record.down_probability(),
                            failures_per_year: record.failures_per_year(),
                        },
                    );
                }
                (provider, kinds)
            })
            .collect()
    }
}

impl CloudProvider for SimulatedProvider {
    fn id(&self) -> &CloudId {
        &self.id
    }

    fn display_name(&self) -> &str {
        &self.display_name
    }

    fn provision(&mut self, plan: &DeploymentPlan) -> Result<DeploymentHandle, BrokerError> {
        if plan.cloud() != &self.id {
            return Err(BrokerError::ProviderMismatch {
                plan_cloud: plan.cloud().clone(),
                provider_cloud: self.id.clone(),
            });
        }
        let handle = DeploymentHandle(self.next_handle);
        self.next_handle += 1;
        self.deployments.insert(handle.id(), plan.clone());
        Ok(handle)
    }

    fn deprovision(&mut self, handle: DeploymentHandle) -> bool {
        self.deployments.remove(&handle.id()).is_some()
    }

    fn deployments(&self) -> Vec<DeploymentHandle> {
        self.deployments
            .keys()
            .copied()
            .map(DeploymentHandle)
            .collect()
    }

    fn harvest_component_telemetry(
        &self,
        kind: ComponentKind,
        fleet: u32,
        years: f64,
        seed: u64,
    ) -> Result<ProviderTelemetry, BrokerError> {
        let truth = self
            .ground_truth
            .get(&kind)
            .ok_or_else(|| BrokerError::InvalidRequest {
                reason: format!("no ground truth for {kind} on {}", self.id),
            })?;
        let clusters: Vec<ClusterSpec> = (0..fleet.max(1))
            .map(|i| {
                ClusterSpec::singleton(
                    format!("{}-{i}", kind.label()),
                    truth.down_probability,
                    truth.failures_per_year.value(),
                )
            })
            .collect::<Result<_, _>>()?;
        let system = SystemSpec::new(clusters)?;
        let (_, trace, _) = Simulation::new(
            &system,
            SimConfig::years(years).with_seed(seed).with_trace(),
        )?
        .run_full();
        Ok(ProviderTelemetry {
            trace,
            nodes_per_cluster: 1,
            clusters: fleet.max(1),
            span: SimDuration::from_minutes(years * uptime_core::MINUTES_PER_YEAR),
        })
    }

    fn harvest_cluster_telemetry(
        &self,
        spec: &ClusterSpec,
        years: f64,
        seed: u64,
    ) -> Result<ProviderTelemetry, BrokerError> {
        let system = SystemSpec::new(vec![spec.clone()])?;
        let (_, trace, _) = Simulation::new(
            &system,
            SimConfig::years(years).with_seed(seed).with_trace(),
        )?
        .run_full();
        Ok(ProviderTelemetry {
            trace,
            nodes_per_cluster: spec.total_nodes(),
            clusters: 1,
            span: SimDuration::from_minutes(years * uptime_core::MINUTES_PER_YEAR),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::ProvisionStep;
    use uptime_catalog::HaMethodId;

    fn provider() -> SimulatedProvider {
        SimulatedProvider::new("softlayer", "IBM SoftLayer (simulated)").with_ground_truth(
            ComponentKind::Storage,
            GroundTruth {
                down_probability: Probability::new(0.05).unwrap(),
                failures_per_year: FailuresPerYear::new(2.0).unwrap(),
            },
        )
    }

    fn plan(cloud: &str) -> DeploymentPlan {
        DeploymentPlan::new(
            CloudId::new(cloud),
            vec![ProvisionStep::new(
                ComponentKind::Storage,
                HaMethodId::new("raid1"),
                "RAID 1",
                2,
            )],
        )
    }

    #[test]
    fn provision_and_deprovision() {
        let mut p = provider();
        let h1 = p.provision(&plan("softlayer")).unwrap();
        let h2 = p.provision(&plan("softlayer")).unwrap();
        assert_ne!(h1, h2);
        assert_eq!(p.deployments().len(), 2);
        assert!(p.deprovision(h1));
        assert!(!p.deprovision(h1), "double deprovision returns false");
        assert_eq!(p.deployments(), vec![h2]);
    }

    #[test]
    fn provision_rejects_wrong_cloud() {
        let mut p = provider();
        let err = p.provision(&plan("nimbus")).unwrap_err();
        assert!(matches!(err, BrokerError::ProviderMismatch { .. }));
    }

    #[test]
    fn component_telemetry_requires_ground_truth() {
        let p = provider();
        assert!(p
            .harvest_component_telemetry(ComponentKind::Compute, 5, 1.0, 1)
            .is_err());
        assert!(p.ground_truth(ComponentKind::Storage).is_some());
        assert!(p.ground_truth(ComponentKind::Compute).is_none());
    }

    #[test]
    fn component_telemetry_has_events() {
        let p = provider();
        let telemetry = p
            .harvest_component_telemetry(ComponentKind::Storage, 5, 10.0, 42)
            .unwrap();
        assert!(!telemetry.trace.is_empty());
        assert_eq!(telemetry.nodes_per_cluster, 1);
        assert_eq!(telemetry.clusters, 5);
        // Roughly 2 failures/yr × 5 nodes × 10 yr = 100 down events.
        let downs = telemetry
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, uptime_sim::TraceEventKind::NodeDown { .. }))
            .count();
        assert!((50..200).contains(&downs), "got {downs}");
    }

    #[test]
    fn cluster_telemetry_captures_failovers() {
        use uptime_core::Minutes;
        let p = provider();
        let spec = ClusterSpec::builder("storage")
            .total_nodes(2)
            .standby_budget(1)
            .node_down_probability(Probability::new(0.05).unwrap())
            .failures_per_year(FailuresPerYear::new(2.0).unwrap())
            .failover_time(Minutes::from_seconds(30.0).unwrap())
            .build()
            .unwrap();
        let telemetry = p.harvest_cluster_telemetry(&spec, 50.0, 7).unwrap();
        let starts = telemetry
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, uptime_sim::TraceEventKind::FailoverStart))
            .count();
        assert!(
            starts > 10,
            "expected failovers over 50 years, got {starts}"
        );
        assert_eq!(telemetry.nodes_per_cluster, 2);
    }

    #[test]
    fn zero_fleet_clamped_to_one() {
        let p = provider();
        let telemetry = p
            .harvest_component_telemetry(ComponentKind::Storage, 0, 1.0, 1)
            .unwrap();
        assert_eq!(telemetry.clusters, 1);
    }
}
