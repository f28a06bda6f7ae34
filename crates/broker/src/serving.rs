//! The production [`ServeBackend`]: wires [`BrokerService`] into the
//! `uptime-serve` daemon.
//!
//! Two things live here:
//!
//! 1. [`canonical_fingerprint`] — the cache key. It hashes the *parsed*
//!    [`SolutionRequest`], not the client's JSON text, so float formatting
//!    (`98.0` vs `9.8e1`), key order, and omitted defaulted fields all
//!    collapse to one fingerprint, while anything that changes the
//!    optimization problem (tier order, SLA, penalty schedule, rounding,
//!    cloud restriction, as-is baseline) changes it.
//! 2. [`ServingBroker`] — endpoint routing. `recommend` and `metacloud`
//!    are pure functions of `(request, knowledge base)` and therefore
//!    cacheable; `health` and `sync` observe or mutate broker state and
//!    are declared uncacheable via a `None` fingerprint.

use std::sync::Arc;

use serde::Value;
use uptime_catalog::{CloudId, ComponentKind};
use uptime_core::{PenaltyClause, RoundingPolicy};
use uptime_serve::{BackendError, ServeBackend};

use crate::error::BrokerError;
use crate::request::SolutionRequest;
use crate::service::BrokerService;
use crate::slo::FrontierRequest;

/// Version of the `health` payload shape (shared by `brokerctl health
/// --json` and the daemon's `health` endpoint). Bump when the top-level
/// layout changes.
pub const HEALTH_SCHEMA_VERSION: u32 = 1;

/// 128-bit FNV-1a, the canonical-byte hasher behind request fingerprints.
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128 {
            state: Self::OFFSET_BASIS,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Bit-exact float encoding: `to_bits` distinguishes every distinct
    /// f64 (including `-0.0` from `0.0`) and is stable across formatting.
    fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed so `["ab","c"]` and `["a","bc"]` cannot collide.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

/// Computes the canonical fingerprint of `(endpoint, request)`.
///
/// The encoding is order-preserving where order is semantic (tiers,
/// clouds, as-is methods, penalty tiers) and normalizes everything that is
/// not: two JSON spellings that deserialize to the same request always
/// fingerprint identically.
#[must_use]
pub fn canonical_fingerprint(endpoint: &str, request: &SolutionRequest) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("uptime-serve/fingerprint/v1");
    h.write_str(endpoint);

    h.write_u64(request.tiers().len() as u64);
    for kind in request.tiers() {
        h.write_str(kind.label());
    }

    h.write_f64(request.sla().target().value());

    match request.penalty() {
        PenaltyClause::PerHour { rate } => {
            h.write_u8(0);
            h.write_f64(*rate);
        }
        PenaltyClause::Tiered { tiers } => {
            h.write_u8(1);
            h.write_u64(tiers.len() as u64);
            for tier in tiers {
                h.write_f64(tier.up_to_hours);
                h.write_f64(tier.rate);
            }
        }
        // `PenaltyClause` is non-exhaustive; give any future variant a
        // distinct, deterministic encoding via its debug form.
        other => {
            h.write_u8(255);
            h.write_str(&format!("{other:?}"));
        }
    }

    h.write_u8(match request.rounding() {
        RoundingPolicy::Exact => 0,
        RoundingPolicy::NearestHour => 1,
        RoundingPolicy::CeilHour => 2,
    });

    h.write_u64(request.clouds().len() as u64);
    for cloud in request.clouds() {
        h.write_str(cloud.as_str());
    }

    match request.as_is() {
        None => h.write_u8(0),
        Some(methods) => {
            h.write_u8(1);
            h.write_u64(methods.len() as u64);
            for method in methods {
                h.write_str(method.as_str());
            }
        }
    }

    match request.topology() {
        None => h.write_u8(0),
        Some(topology) => {
            h.write_u8(1);
            h.write_str(topology);
        }
    }

    h.finish()
}

/// Computes the canonical fingerprint of a `frontier` request: the
/// envelope's canonical encoding (tiers, derived SLA, penalty, rounding,
/// clouds, topology) extended with every SLO objective's
/// `(metric, mode, weight, threshold)` tuple and the epsilon-dominance
/// margin. Two spec spellings that parse to the same objective list
/// fingerprint identically; any change to the optimization problem —
/// a threshold nudge, a hard/soft flip, a reweighting — does not.
#[must_use]
pub fn frontier_fingerprint(request: &FrontierRequest) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("uptime-serve/fingerprint/frontier/v1");
    h.write(&canonical_fingerprint("frontier", request.base()).to_le_bytes());
    let objectives = request.spec().objectives();
    h.write_u64(objectives.len() as u64);
    for objective in objectives {
        h.write_u8(objective.metric().tag());
        h.write_u8(objective.mode().tag());
        h.write_f64(objective.weight());
        h.write_f64(objective.threshold());
    }
    h.write_f64(request.spec().epsilon());
    h.finish()
}

/// [`BrokerService`] adapted to the daemon's [`ServeBackend`] interface.
///
/// Endpoints:
///
/// | endpoint    | cacheable | body                                  |
/// |-------------|-----------|---------------------------------------|
/// | `recommend` | yes       | a [`SolutionRequest`]                 |
/// | `metacloud` | yes       | a [`SolutionRequest`]                 |
/// | `frontier`  | yes       | a [`FrontierRequest`] (SLO spec)      |
/// | `health`    | no        | ignored                               |
/// | `sync`      | no        | optional `{ "seed": u64 }`            |
///
/// `sync` drives one telemetry round over the configured sync targets and
/// reports the resulting epoch — the serve-layer hook for "new telemetry
/// arrived, recompute on next ask".
pub struct ServingBroker {
    service: Arc<BrokerService>,
    sync_targets: Vec<(CloudId, Vec<ComponentKind>)>,
    flight_recorder: Option<Arc<uptime_obs::FlightRecorder>>,
}

impl ServingBroker {
    /// Fronts the given service with no sync targets (the `sync` endpoint
    /// becomes a no-op reporting the current epoch).
    #[must_use]
    pub fn new(service: Arc<BrokerService>) -> Self {
        ServingBroker {
            service,
            sync_targets: Vec::new(),
            flight_recorder: None,
        }
    }

    /// Declares which `(cloud, components)` pairs one `sync` round
    /// harvests; the clouds must have registered providers.
    #[must_use]
    pub fn with_sync_targets(mut self, targets: Vec<(CloudId, Vec<ComponentKind>)>) -> Self {
        self.sync_targets = targets;
        self
    }

    /// Shares the daemon's flight recorder so `health` can report ring
    /// occupancy alongside broker health. (Broker spans attach to the
    /// request trace through [`ServeBackend::handle_traced`] regardless;
    /// this only feeds the health payload.)
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<uptime_obs::FlightRecorder>) -> Self {
        self.flight_recorder = Some(recorder);
        self
    }

    /// The wrapped service.
    #[must_use]
    pub fn service(&self) -> &Arc<BrokerService> {
        &self.service
    }

    fn parse_request(body: &Value) -> Result<SolutionRequest, BackendError> {
        serde_json::from_value(body).map_err(|err| BackendError::BadRequest(err.to_string()))
    }

    fn parse_frontier(body: &Value) -> Result<FrontierRequest, BackendError> {
        serde_json::from_value(body).map_err(|err| BackendError::BadRequest(err.to_string()))
    }

    fn health_body(&self) -> Value {
        let trace = match &self.flight_recorder {
            Some(recorder) => {
                let stats = recorder.stats();
                serde_json::json!({
                    "enabled": true,
                    "capacity": stats.capacity,
                    "occupancy": stats.occupancy,
                    "completed": stats.completed,
                    "recorded": stats.recorded,
                    "sampled_out": stats.sampled_out,
                    "evicted": stats.evicted,
                    "unwound": stats.unwound,
                })
            }
            None => serde_json::json!({
                "enabled": false,
                "capacity": 0,
                "occupancy": 0,
                "completed": 0,
                "recorded": 0,
                "sampled_out": 0,
                "evicted": 0,
                "unwound": 0,
            }),
        };
        serde_json::json!({
            "schema_version": HEALTH_SCHEMA_VERSION,
            "epoch": self.service.telemetry_epoch(),
            "health": self.service.health(),
            "incidents": self.service.incidents(),
            "trace": trace,
        })
    }

    fn sync_body(
        &self,
        body: &Value,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<Value, BackendError> {
        let seed = match body.get("seed") {
            None | Some(Value::Null) => 7,
            Some(value) => value
                .as_u64()
                .ok_or_else(|| BackendError::BadRequest("`seed` must be a u64".into()))?,
        };
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for (cloud, kinds) in &self.sync_targets {
            for (k, kind) in kinds.iter().enumerate() {
                match self.service.sync_telemetry_traced(
                    cloud,
                    *kind,
                    20,
                    5.0,
                    seed.wrapping_add(k as u64 * 31),
                    parent,
                ) {
                    Ok(_) => accepted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        Ok(serde_json::json!({
            "epoch": self.service.telemetry_epoch(),
            "accepted": accepted,
            "rejected": rejected,
        }))
    }
}

/// Maps domain failures onto wire error classes: request-shaped problems
/// are the client's fault, everything else is the broker's.
fn classify(err: &BrokerError) -> BackendError {
    match err {
        BrokerError::InvalidRequest { .. }
        | BrokerError::UnknownCloud { .. }
        | BrokerError::NoCandidates
        | BrokerError::SloSpec { .. }
        | BrokerError::SloInfeasible { .. } => BackendError::BadRequest(err.to_string()),
        other => BackendError::Internal(other.to_string()),
    }
}

impl ServeBackend for ServingBroker {
    fn epoch(&self) -> u64 {
        self.service.telemetry_epoch()
    }

    fn fingerprint(&self, endpoint: &str, body: &Value) -> Result<Option<u128>, BackendError> {
        match endpoint {
            "recommend" | "metacloud" => {
                let request = Self::parse_request(body)?;
                Ok(Some(canonical_fingerprint(endpoint, &request)))
            }
            "frontier" => {
                let request = Self::parse_frontier(body)?;
                Ok(Some(frontier_fingerprint(&request)))
            }
            "health" | "sync" => Ok(None),
            other => Err(BackendError::UnknownEndpoint(other.to_owned())),
        }
    }

    fn handle(&self, endpoint: &str, body: &Value) -> Result<Value, BackendError> {
        self.handle_traced(endpoint, body, &uptime_obs::TraceSpan::disabled())
    }

    fn handle_traced(
        &self,
        endpoint: &str,
        body: &Value,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<Value, BackendError> {
        match endpoint {
            "recommend" => {
                let request = Self::parse_request(body)?;
                let recommendation = self
                    .service
                    .recommend_traced(&request, parent)
                    .map_err(|e| classify(&e))?;
                Ok(serde_json::to_value(&recommendation))
            }
            "metacloud" => {
                let request = Self::parse_request(body)?;
                let recommendation = self
                    .service
                    .recommend_metacloud_traced(&request, parent)
                    .map_err(|e| classify(&e))?;
                Ok(serde_json::to_value(&recommendation))
            }
            "frontier" => {
                let request = Self::parse_frontier(body)?;
                let report = self
                    .service
                    .solve_slo_traced(&request, parent)
                    .map_err(|e| classify(&e))?;
                Ok(serde_json::to_value(&report))
            }
            "health" => Ok(self.health_body()),
            "sync" => self.sync_body(body, parent),
            other => Err(BackendError::UnknownEndpoint(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use uptime_catalog::{case_study, HaMethodId};

    fn request(percent: f64) -> SolutionRequest {
        SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(percent)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn equal_requests_fingerprint_identically() {
        assert_eq!(
            canonical_fingerprint("recommend", &request(98.0)),
            canonical_fingerprint("recommend", &request(98.0))
        );
    }

    #[test]
    fn sla_and_endpoint_discriminate() {
        let base = canonical_fingerprint("recommend", &request(98.0));
        assert_ne!(base, canonical_fingerprint("recommend", &request(98.5)));
        assert_ne!(base, canonical_fingerprint("metacloud", &request(98.0)));
    }

    #[test]
    fn cloud_order_is_semantic_but_json_spelling_is_not() {
        let ab: SolutionRequest = serde_json::from_str(
            &serde_json::to_string(&{
                SolutionRequest::builder()
                    .tiers(ComponentKind::paper_tiers())
                    .sla_percent(98.0)
                    .unwrap()
                    .penalty_per_hour(100.0)
                    .unwrap()
                    .cloud(CloudId::new("a"))
                    .cloud(CloudId::new("b"))
                    .build()
                    .unwrap()
            })
            .unwrap(),
        )
        .unwrap();
        let ba = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(CloudId::new("b"))
            .cloud(CloudId::new("a"))
            .build()
            .unwrap();
        let ab_direct = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(CloudId::new("a"))
            .cloud(CloudId::new("b"))
            .build()
            .unwrap();
        assert_eq!(
            canonical_fingerprint("recommend", &ab),
            canonical_fingerprint("recommend", &ab_direct),
            "serde roundtrip preserves the fingerprint"
        );
        assert_ne!(
            canonical_fingerprint("recommend", &ab),
            canonical_fingerprint("recommend", &ba),
            "cloud preference order is part of the request"
        );
    }

    #[test]
    fn as_is_discriminates() {
        let with = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .as_is(vec![
                HaMethodId::new("vmware-ha-3p1"),
                HaMethodId::new("raid1"),
                HaMethodId::new("dual-gw"),
            ])
            .build()
            .unwrap();
        assert_ne!(
            canonical_fingerprint("recommend", &request(98.0)),
            canonical_fingerprint("recommend", &with)
        );
    }

    #[test]
    fn topology_discriminates() {
        let archetype = |name: &str| {
            SolutionRequest::builder()
                .tiers(ComponentKind::paper_tiers())
                .sla_percent(98.0)
                .unwrap()
                .penalty_per_hour(100.0)
                .unwrap()
                .topology(name)
                .build()
                .unwrap()
        };
        // A serial request and every archetype must all cache separately.
        let serial = canonical_fingerprint("recommend", &request(98.0));
        let zonal = canonical_fingerprint("recommend", &archetype("zonal"));
        let regional = canonical_fingerprint("recommend", &archetype("regional"));
        assert_ne!(serial, zonal, "archetype requests answer differently");
        assert_ne!(zonal, regional, "each shape is its own cache entry");
        // Same topology spelled identically still coalesces.
        assert_eq!(
            regional,
            canonical_fingerprint("recommend", &archetype("regional"))
        );
    }

    #[test]
    fn backend_routes_and_classifies() {
        let service = Arc::new(BrokerService::new(case_study::catalog()));
        let backend = ServingBroker::new(service);
        // Cacheable endpoints fingerprint; admin endpoints do not.
        let body = serde_json::to_value(&request(98.0));
        assert!(backend.fingerprint("recommend", &body).unwrap().is_some());
        assert!(backend
            .fingerprint("health", &Value::Null)
            .unwrap()
            .is_none());
        assert!(matches!(
            backend.fingerprint("nope", &Value::Null),
            Err(BackendError::UnknownEndpoint(_))
        ));
        // A garbage body is the client's fault.
        assert!(matches!(
            backend.fingerprint("recommend", &serde_json::json!({"tiers": 3})),
            Err(BackendError::BadRequest(_))
        ));
        // The happy path answers with the same payload `recommend` gives.
        let direct = backend.service().recommend(&request(98.0)).unwrap();
        let served = backend.handle("recommend", &body).unwrap();
        assert_eq!(served, serde_json::to_value(&direct));
    }

    fn frontier_body(threshold: f64, weight: f64) -> Value {
        serde_json::json!({
            "tiers": ["Compute", "Storage", "NetworkGateway"],
            "penalty": { "PerHour": { "rate": 100.0 } },
            "slo": { "objectives": [
                { "metric": "uptime", "threshold": threshold, "mode": "hard" },
                { "metric": "cost", "threshold": 1500.0, "mode": "soft", "weight": weight },
            ] },
        })
    }

    #[test]
    fn frontier_fingerprint_tracks_the_spec() {
        let parse = |v: &Value| FrontierRequest::from_value(v).unwrap();
        let base = frontier_fingerprint(&parse(&frontier_body(98.0, 2.0)));
        assert_eq!(
            base,
            frontier_fingerprint(&parse(&frontier_body(98.0, 2.0))),
            "equal specs coalesce"
        );
        assert_ne!(
            base,
            frontier_fingerprint(&parse(&frontier_body(99.0, 2.0))),
            "threshold is part of the problem"
        );
        assert_ne!(
            base,
            frontier_fingerprint(&parse(&frontier_body(98.0, 3.0))),
            "soft weight is part of the problem"
        );
        let Value::Object(mut with_eps) = frontier_body(98.0, 2.0) else {
            unreachable!()
        };
        let Some(Value::Object(slo)) = with_eps.get_mut("slo") else {
            unreachable!()
        };
        slo.insert("epsilon".into(), serde_json::json!(0.5));
        assert_ne!(
            base,
            frontier_fingerprint(&parse(&Value::Object(with_eps))),
            "epsilon is part of the problem"
        );
    }

    #[test]
    fn frontier_endpoint_routes_and_classifies() {
        let service = Arc::new(BrokerService::new(case_study::catalog()));
        let backend = ServingBroker::new(service);
        let body = frontier_body(98.0, 2.0);
        assert!(backend.fingerprint("frontier", &body).unwrap().is_some());

        // Served bytes equal the direct service answer.
        let request = FrontierRequest::from_value(&body).unwrap();
        let direct = backend.service().solve_slo(&request).unwrap();
        let served = backend.handle("frontier", &body).unwrap();
        assert_eq!(served, serde_json::to_value(&direct));

        // A bad spec is the client's fault, at fingerprint time already.
        let bad = serde_json::json!({
            "tiers": ["Compute"],
            "penalty": { "PerHour": { "rate": 100.0 } },
            "slo": { "objectives": [] },
        });
        assert!(matches!(
            backend.fingerprint("frontier", &bad),
            Err(BackendError::BadRequest(_))
        ));

        // Infeasible hard constraints classify as a bad request too.
        let infeasible = serde_json::json!({
            "tiers": ["Compute", "Storage", "NetworkGateway"],
            "penalty": { "PerHour": { "rate": 100.0 } },
            "slo": { "objectives": [
                { "metric": "uptime", "threshold": 99.999, "mode": "hard" },
                { "metric": "cost", "threshold": 1.0, "mode": "hard" },
            ] },
        });
        assert!(matches!(
            backend.handle("frontier", &infeasible),
            Err(BackendError::BadRequest(_))
        ));
    }

    #[test]
    fn sync_without_targets_reports_epoch() {
        let service = Arc::new(BrokerService::new(case_study::catalog()));
        let backend = ServingBroker::new(service);
        let out = backend.handle("sync", &Value::Null).unwrap();
        assert_eq!(out.get("accepted").and_then(Value::as_u64), Some(0));
        assert_eq!(out.get("epoch").and_then(Value::as_u64), Some(0));
    }
}
