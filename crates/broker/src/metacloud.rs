//! Metacloud optimization — the paper's stated "larger goal" (§V):
//!
//! > "The larger goal of our research is to design what we envisage as
//! > next-generation cloud brokerage that constructs a commercial
//! > meta-cloud whose ownership is scattered across cloud providers."
//!
//! Instead of evaluating each cloud's option space separately and picking
//! the best cloud, the metacloud search lets **every tier** be placed on
//! **any** fronted cloud: a candidate is a `(cloud, HA method)` pair, and
//! the serial chain may span providers. The search space grows to
//! `Π_i (Σ_c k_{i,c})` but remains exact under the same optimizers.

use serde::{Deserialize, Serialize};
use uptime_catalog::{CatalogStore, CloudId, ComponentKind, HaMethodId};
use uptime_core::MoneyPerMonth;
use uptime_optimizer::{
    Candidate, ComponentChoices, CompositionNode, CompositionSpace, Evaluation,
};

use crate::error::BrokerError;
use crate::recommendation::DegradedMode;
use crate::request::SolutionRequest;
use crate::service::BrokerService;

/// One tier's placement in a metacloud deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The tier being placed.
    pub component: ComponentKind,
    /// The cloud hosting it.
    pub cloud: CloudId,
    /// The HA method engineered on that cloud.
    pub method: HaMethodId,
    /// The tier's monthly `C_HA` contribution.
    pub monthly_cost: MoneyPerMonth,
}

/// The metacloud recommendation: a cross-provider serial chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetacloudRecommendation {
    placements: Vec<Placement>,
    evaluation: Evaluation,
    clouds_used: Vec<CloudId>,
    assignments_searched: u128,
    degraded: Option<DegradedMode>,
}

impl MetacloudRecommendation {
    /// Tier placements, in serial order.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The winning evaluation (uptime + TCO).
    #[must_use]
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// Distinct clouds the deployment spans, in first-use order.
    #[must_use]
    pub fn clouds_used(&self) -> &[CloudId] {
        &self.clouds_used
    }

    /// Whether the deployment actually spans more than one provider.
    #[must_use]
    pub fn is_cross_cloud(&self) -> bool {
        self.clouds_used.len() > 1
    }

    /// Size of the searched space.
    #[must_use]
    pub fn assignments_searched(&self) -> u128 {
        self.assignments_searched
    }

    /// Degradation metadata, when the answer rests on a stale catalog.
    #[must_use]
    pub fn degraded(&self) -> Option<&DegradedMode> {
        self.degraded.as_ref()
    }

    /// Whether the answer was served in degraded mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

impl BrokerService {
    /// Runs the metacloud search: every tier may land on any fronted cloud
    /// (or any subset named in the request), minimizing total TCO.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::UnknownCloud`] for a requested cloud the broker
    ///   does not front.
    /// * [`BrokerError::NoCandidates`] when no cloud can host some tier.
    /// * Catalog errors for inconsistent knowledge-base entries.
    pub fn recommend_metacloud(
        &self,
        request: &SolutionRequest,
    ) -> Result<MetacloudRecommendation, BrokerError> {
        self.recommend_metacloud_traced(request, &uptime_obs::TraceSpan::disabled())
    }

    /// [`Self::recommend_metacloud`] under a request trace: hangs a
    /// `broker.recommend.metacloud` span — with the engine child carrying
    /// the search counters — below `parent`. Identical answer otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`Self::recommend_metacloud`].
    pub fn recommend_metacloud_traced(
        &self,
        request: &SolutionRequest,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<MetacloudRecommendation, BrokerError> {
        let mut trace_span = parent.child("broker.recommend.metacloud");
        if request.topology().is_some() {
            // The metacloud search already spreads tiers across clouds;
            // an archetype shape on top has no defined placement space.
            return Err(BrokerError::InvalidRequest {
                reason: "topology archetypes are not supported by the metacloud search".into(),
            });
        }
        let catalog = self.catalog_snapshot();
        let clouds: Vec<CloudId> = if request.clouds().is_empty() {
            catalog.cloud_ids().cloned().collect()
        } else {
            for id in request.clouds() {
                if catalog.cloud(id).is_none() {
                    return Err(BrokerError::UnknownCloud { id: id.clone() });
                }
            }
            request.clouds().to_vec()
        };

        let (space, keys) = joint_space(&catalog, &clouds, request.tiers())?;
        let searched = space.assignment_count();

        let model = request.tco_model();
        // Only the argmin matters here, and joint spaces multiply fast
        // (Π_i Σ_c k_{i,c}): branch-and-bound proves it on one thread,
        // pruning the subtrees the admissible bound rules out.
        trace_span.attr_u64("variants", u64::try_from(searched).unwrap_or(u64::MAX));
        let outcome = self.bnb_argmin(&space, &model, &trace_span);
        let best = outcome.best().ok_or(BrokerError::NoCandidates)?.clone();

        let placements: Vec<Placement> = best
            .assignment()
            .iter()
            .zip(request.tiers())
            .zip(&keys)
            .zip(space.leaves())
            .map(|(((&idx, kind), tier_keys), comp)| {
                let (cloud, method) = tier_keys[idx].clone();
                Placement {
                    component: *kind,
                    cloud,
                    method,
                    monthly_cost: comp.candidates()[idx].monthly_cost(),
                }
            })
            .collect();
        let mut clouds_used: Vec<CloudId> = Vec::new();
        for placement in &placements {
            if !clouds_used.contains(&placement.cloud) {
                clouds_used.push(placement.cloud.clone());
            }
        }
        Ok(MetacloudRecommendation {
            degraded: self.degraded_mode(&clouds),
            placements,
            evaluation: best,
            clouds_used,
            assignments_searched: searched,
        })
    }
}

/// Per tier, the `(cloud, HA method)` pair behind each joint-space candidate.
pub(crate) type PlacementKeys = Vec<Vec<(CloudId, HaMethodId)>>;

/// The metacloud's joint space: per tier, a candidate for every `(cloud,
/// HA method)` pair whose knowledge base can host it, chained in series,
/// with each candidate's pair alongside.
pub(crate) fn joint_space(
    catalog: &CatalogStore,
    clouds: &[CloudId],
    tiers: &[ComponentKind],
) -> Result<(CompositionSpace, PlacementKeys), BrokerError> {
    let mut components = Vec::with_capacity(tiers.len());
    let mut keys = Vec::with_capacity(tiers.len());
    for kind in tiers {
        let mut candidates = Vec::new();
        let mut tier_keys = Vec::new();
        for cloud in clouds {
            let profile = catalog.cloud(cloud).expect("callers pass known clouds");
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
                tier_keys.push((cloud.clone(), method.id().clone()));
            }
        }
        if candidates.is_empty() {
            return Err(BrokerError::NoCandidates);
        }
        components.push(ComponentChoices::new(kind.label(), candidates)?);
        keys.push(tier_keys);
    }
    let space = CompositionSpace::new(CompositionNode::series(components))?;
    Ok((space, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uptime_catalog::{case_study, extended};

    fn request() -> SolutionRequest {
        SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn single_cloud_metacloud_equals_plain_recommendation() {
        let broker = BrokerService::new(case_study::catalog());
        let req = request();
        let meta = broker.recommend_metacloud(&req).unwrap();
        let plain = broker.recommend(&req).unwrap();
        assert_eq!(
            meta.evaluation().tco().total(),
            plain.clouds()[0].best().evaluation().tco().total()
        );
        assert!(!meta.is_cross_cloud());
        assert_eq!(meta.assignments_searched(), 8);
    }

    #[test]
    fn metacloud_never_worse_than_best_single_cloud() {
        let broker = BrokerService::new(extended::hybrid_catalog());
        let req = request();
        let meta = broker.recommend_metacloud(&req).unwrap();
        let per_cloud = broker.recommend(&req).unwrap();
        let best_single = per_cloud.best_tco().unwrap();
        assert!(
            meta.evaluation().tco().total() <= best_single,
            "metacloud {} must be ≤ best single cloud {}",
            meta.evaluation().tco().total(),
            best_single
        );
        // Space: per tier, 3 clouds × (3 or 4) methods.
        assert_eq!(meta.assignments_searched(), 9 * 12 * 9);
    }

    #[test]
    fn placements_cover_all_tiers() {
        let broker = BrokerService::new(extended::hybrid_catalog());
        let meta = broker.recommend_metacloud(&request()).unwrap();
        assert_eq!(meta.placements().len(), 3);
        for (placement, kind) in meta.placements().iter().zip(ComponentKind::paper_tiers()) {
            assert_eq!(placement.component, kind);
        }
        assert!(!meta.clouds_used().is_empty());
        // Total placement cost equals the evaluation's C_HA.
        let total: MoneyPerMonth = meta.placements().iter().map(|p| p.monthly_cost).sum();
        assert_eq!(total, meta.evaluation().tco().ha_cost());
    }

    #[test]
    fn restricting_clouds_restricts_placements() {
        let broker = BrokerService::new(extended::hybrid_catalog());
        let req = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(extended::stratus_id())
            .build()
            .unwrap();
        let meta = broker.recommend_metacloud(&req).unwrap();
        assert_eq!(meta.clouds_used(), &[extended::stratus_id()]);
    }

    #[test]
    fn unknown_cloud_rejected() {
        let broker = BrokerService::new(case_study::catalog());
        let req = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(CloudId::new("ghost"))
            .build()
            .unwrap();
        assert!(matches!(
            broker.recommend_metacloud(&req),
            Err(BrokerError::UnknownCloud { .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let broker = BrokerService::new(extended::hybrid_catalog());
        let meta = broker.recommend_metacloud(&request()).unwrap();
        let json = serde_json::to_string(&meta).unwrap();
        let back: MetacloudRecommendation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }
}
