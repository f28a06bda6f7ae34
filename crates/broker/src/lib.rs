//! # uptime-broker
//!
//! The paper's framework realized "as-a-service by a cloud broker"
//! (Fig. 2): given a base architecture, an uptime SLA and a slippage
//! penalty, the broker models **all** HA-enabled permutations of the
//! architecture on every cloud it fronts, prices each one, and recommends
//! the minimum-TCO deployment.
//!
//! The crate wires together the whole pipeline:
//!
//! * [`provider`] — the [`CloudProvider`] trait plus [`SimulatedProvider`],
//!   a stand-in for real IaaS APIs that provisions in memory and emits
//!   telemetry by running the discrete-event simulator against
//!   ground-truth failure dynamics (the substitution documented in
//!   DESIGN.md).
//! * [`telemetry`] — estimators that reconstruct `P̂_i`, `f̂_i`, `t̂_i`
//!   from harvested traces, feeding the broker's knowledge base.
//! * [`service`] — [`BrokerService`]: intake → search → recommendation.
//! * [`slo`] — declarative SLO intake ([`FrontierRequest`]): hard and
//!   weighted-soft objectives answered with the exact feasible Pareto
//!   frontier per cloud ([`FrontierReport`]).
//! * [`resilience`] — [`RetryPolicy`] and per-provider [`CircuitBreaker`]
//!   guarding every provider call, over a deterministic virtual clock.
//! * [`chaos`] — [`ChaosProvider`], a seeded fault-injecting decorator
//!   for exercising the control plane under provider misbehavior.
//! * [`serving`] — [`ServingBroker`], the backend that plugs the service
//!   into the `uptime-serve` daemon (epoch-keyed caching, coalescing,
//!   admission control; `brokerctl serve` is the CLI entry point).
//! * [`report`] — renders the paper's Figs. 4–10 as text tables and JSON.
//! * [`planner`] — turns a recommendation into provisioning steps.
//! * [`audit`] — Monte-Carlo validation that a recommended architecture
//!   delivers its modeled uptime.
//!
//! # End-to-end example
//!
//! ```
//! use uptime_broker::{BrokerService, SolutionRequest};
//! use uptime_catalog::{case_study, ComponentKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let broker = BrokerService::new(case_study::catalog());
//! let request = SolutionRequest::builder()
//!     .tiers(ComponentKind::paper_tiers())
//!     .sla_percent(98.0)?
//!     .penalty_per_hour(100.0)?
//!     .cloud(case_study::cloud_id())
//!     .build()?;
//! let recommendation = broker.recommend(&request)?;
//! let best = recommendation.best().expect("non-empty catalog");
//! assert_eq!(best.evaluation().tco().total().value(), 1250.0); // option #3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chaos;
pub mod durability;
pub mod error;
pub mod metacloud;
pub mod planner;
pub mod provider;
pub mod recommendation;
pub mod report;
pub mod request;
pub mod resilience;
pub mod service;
pub mod serving;
pub mod settlement;
pub mod slo;
pub mod telemetry;
pub mod whatif;

pub use audit::{audit_recommendation, AuditReport};
pub use chaos::{ChaosConfig, ChaosProvider, ChaosStats};
pub use durability::{
    DurabilityConfig, JournalEntry, PersistentState, RecoveryReport, ReportedTruncation,
    JOURNAL_SCHEMA_VERSION, SNAPSHOT_SCHEMA_VERSION,
};
pub use error::BrokerError;
pub use metacloud::{MetacloudRecommendation, Placement};
pub use planner::{DeploymentPlan, ProvisionStep};
pub use provider::{
    CloudProvider, DeploymentHandle, GroundTruth, ProviderTelemetry, SimulatedProvider,
};
pub use recommendation::{CloudRecommendation, DegradedMode, RankedOption, Recommendation};
pub use request::{SolutionRequest, SolutionRequestBuilder};
pub use resilience::{BreakerState, CircuitBreaker, RetryOutcome, RetryPolicy};
pub use service::{
    BrokerHealth, BrokerService, Incident, IncidentCategory, ProviderHealth,
    DEFAULT_INCIDENT_CAPACITY,
};
pub use serving::{
    canonical_fingerprint, frontier_fingerprint, ServingBroker, HEALTH_SCHEMA_VERSION,
};
pub use settlement::{settle, MonthlyStatement, SettlementReport};
pub use slo::{
    CloudFrontier, FrontierPoint, FrontierReport, FrontierRequest, FRONTIER_SCHEMA_VERSION,
};
pub use telemetry::{validate_batch, EstimatedParameters, QuarantinePolicy, TelemetryEstimator};
pub use whatif::UptimeBounds;
