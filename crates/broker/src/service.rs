//! The brokered service itself.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use uptime_catalog::{CatalogStore, CloudId, ComponentKind, HaMethodId};
use uptime_core::TcoModel;
use uptime_durability::{Journal, SnapshotStore, StateDir, HEADER_LEN};
use uptime_optimizer::{
    composition_bnb, exhaustive, pareto_bnb, Archetype, Candidate, CompositionEvaluator,
    CompositionSpace, Evaluation, FrontierOutcome, Objective, SearchSpace, SearchStats,
};
use uptime_slo::PointMetrics;

use crate::durability::{
    DurabilityConfig, DurabilityInner, DurabilityState, JournalEntry, PersistentState,
    RecoveryReport, ReportedTruncation, JOURNAL_SCHEMA_VERSION, SNAPSHOT_SCHEMA_VERSION,
};
use crate::error::BrokerError;
use crate::planner::{DeploymentPlan, ProvisionStep};
use crate::provider::{CloudProvider, ProviderTelemetry};
use crate::recommendation::{CloudRecommendation, DegradedMode, RankedOption, Recommendation};
use crate::request::SolutionRequest;
use crate::resilience::{BreakerState, CircuitBreaker, RetryPolicy};
use crate::slo::{CloudFrontier, FrontierPoint, FrontierReport, FrontierRequest};
use crate::telemetry::{validate_batch, EstimatedParameters, QuarantinePolicy, TelemetryEstimator};

/// Consecutive quarantined batches after which a provider's catalog view
/// is considered stale for degraded-mode purposes.
const QUARANTINE_STALE_STREAK: u32 = 3;

/// Per-provider control-plane state: the provider itself plus the
/// resilience bookkeeping the broker keeps about it.
struct ProviderSlot {
    provider: Box<dyn CloudProvider + Send + Sync>,
    breaker: CircuitBreaker,
    quarantined_streak: u32,
    batches_absorbed: u64,
    batches_quarantined: u64,
}

/// Default number of incidents the bounded incident ring retains.
pub const DEFAULT_INCIDENT_CAPACITY: usize = 1024;

/// What went wrong, as recorded in the incident log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentCategory {
    /// A telemetry batch failed structural validation.
    TelemetryRejected,
    /// A structurally valid batch carried an implausible estimate.
    ImplausibleEstimate,
    /// A provider call failed even after retries.
    ProviderFault,
    /// A provider's circuit breaker tripped open.
    BreakerOpened,
    /// A provider's circuit breaker closed again after a successful probe.
    BreakerRecovered,
    /// Recovery found the journal's tail torn or corrupt and truncated
    /// replay at the last valid record.
    JournalTruncated,
    /// A write-ahead journal append failed; the batch was NOT absorbed.
    DurabilityFault,
}

/// One entry in the broker's incident log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Monotonic sequence number (order of occurrence).
    pub seq: u64,
    /// The cloud involved.
    pub cloud: CloudId,
    /// What kind of incident this is.
    pub category: IncidentCategory,
    /// Human-readable detail.
    pub detail: String,
    /// The provider breaker's virtual tick when a state transition was
    /// logged. Set for [`IncidentCategory::BreakerOpened`] and
    /// [`IncidentCategory::BreakerRecovered`] so the incident log carries
    /// the same timeline the `obs` breaker counters summarize.
    pub breaker_tick: Option<u64>,
    /// The breaker state *after* the transition, when one occurred.
    pub breaker_state: Option<BreakerState>,
}

/// A bounded incident log: a capped ring buffer with a dedicated
/// monotonic sequence counter, so `incident_count` and per-incident
/// seqs stay correct after old entries are evicted.
#[derive(Debug)]
pub(crate) struct IncidentRing {
    entries: VecDeque<Incident>,
    capacity: usize,
    /// Seq the next incident gets; doubles as the lifetime total.
    next_seq: u64,
}

impl IncidentRing {
    fn new(capacity: usize) -> IncidentRing {
        IncidentRing {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
        }
    }

    /// Rebuilds a ring from snapshot state. The restored `next_seq` is
    /// clamped up so it can never run behind the retained entries.
    fn restore(entries: Vec<Incident>, next_seq: u64, capacity: usize) -> IncidentRing {
        let mut ring = IncidentRing::new(capacity);
        let floor = entries.iter().map(|i| i.seq + 1).max().unwrap_or(0);
        ring.next_seq = next_seq.max(floor);
        for incident in entries {
            ring.entries.push_back(incident);
            if ring.entries.len() > ring.capacity {
                ring.entries.pop_front();
            }
        }
        ring
    }

    /// Appends an incident, assigning it the next sequence number and
    /// evicting the oldest entry when at capacity.
    fn push(&mut self, make: impl FnOnce(u64) -> Incident) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(make(seq));
        if self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
        seq
    }

    /// Lifetime incident count (monotonic; unaffected by eviction).
    fn total(&self) -> u64 {
        self.next_seq
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn to_vec(&self) -> Vec<Incident> {
        self.entries.iter().cloned().collect()
    }
}

/// Control-plane health of one fronted provider.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProviderHealth {
    /// The cloud this provider fronts.
    pub cloud: CloudId,
    /// The provider's display name.
    pub display_name: String,
    /// Current circuit-breaker state.
    pub state: BreakerState,
    /// Consecutive provider-call failures observed.
    pub consecutive_failures: u32,
    /// How many times the breaker has tripped open.
    pub times_opened: u64,
    /// Consecutive telemetry batches quarantined.
    pub quarantined_streak: u32,
    /// Batches absorbed into the catalog.
    pub batches_absorbed: u64,
    /// Batches quarantined instead of absorbed.
    pub batches_quarantined: u64,
}

/// A point-in-time health report for the whole broker.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BrokerHealth {
    /// Per-provider health, ordered by cloud id.
    pub providers: Vec<ProviderHealth>,
    /// Total incidents logged since startup.
    pub incident_count: u64,
    /// Total telemetry batches quarantined across providers.
    pub quarantined_batches: u64,
    /// Whether recommendations are currently served degraded.
    pub degraded: bool,
}

/// The uptime-optimizing brokered service of the paper's Fig. 2.
///
/// Holds the broker's knowledge base behind a read-write lock so that
/// telemetry ingestion (writes) can interleave with recommendation
/// requests (reads) — the long-running service shape the paper envisages.
///
/// Beyond the knowledge base, the service optionally fronts live
/// [`CloudProvider`]s. Provider calls go through a [`RetryPolicy`] and a
/// per-provider [`CircuitBreaker`]; harvested telemetry passes structural
/// validation and a [`QuarantinePolicy`] plausibility gate before being
/// absorbed. When a provider is unreachable or its telemetry is
/// quarantined, recommendations keep flowing from the last known-good
/// catalog, annotated with [`DegradedMode`].
pub struct BrokerService {
    catalog: RwLock<CatalogStore>,
    providers: RwLock<BTreeMap<CloudId, ProviderSlot>>,
    incidents: RwLock<IncidentRing>,
    retry: RetryPolicy,
    quarantine: QuarantinePolicy,
    breaker_template: CircuitBreaker,
    recorder: Arc<dyn uptime_obs::Recorder>,
    /// Bumped on every successful telemetry absorb; serving-layer caches
    /// key their entries by this and so are invalidated by any absorb.
    epoch: std::sync::atomic::AtomicU64,
    /// Write-ahead journal + snapshot endpoint; `None` runs in-memory
    /// only (the pre-PR 6 behavior).
    durability: Option<DurabilityState>,
}

impl fmt::Debug for BrokerService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerService")
            .field("providers", &self.providers.read().len())
            .field("incidents", &self.incidents.read().len())
            .field("retry", &self.retry)
            .field("quarantine", &self.quarantine)
            .finish_non_exhaustive()
    }
}

impl BrokerService {
    /// Creates a service fronting the given knowledge base.
    #[must_use]
    pub fn new(catalog: CatalogStore) -> Self {
        BrokerService {
            catalog: RwLock::new(catalog),
            providers: RwLock::new(BTreeMap::new()),
            incidents: RwLock::new(IncidentRing::new(DEFAULT_INCIDENT_CAPACITY)),
            retry: RetryPolicy::default(),
            quarantine: QuarantinePolicy::default(),
            breaker_template: CircuitBreaker::default(),
            recorder: Arc::new(uptime_obs::NoopRecorder),
            epoch: std::sync::atomic::AtomicU64::new(0),
            durability: None,
        }
    }

    /// Caps the incident ring at `capacity` entries (existing entries and
    /// the sequence counter are preserved; the oldest overflow is
    /// evicted). The default is [`DEFAULT_INCIDENT_CAPACITY`].
    #[must_use]
    pub fn with_incident_capacity(self, capacity: usize) -> Self {
        {
            let mut incidents = self.incidents.write();
            *incidents = IncidentRing::restore(incidents.to_vec(), incidents.total(), capacity);
        }
        self
    }

    /// The telemetry epoch: how many telemetry batches this service has
    /// absorbed into its knowledge base. Any recommendation computed at
    /// epoch `e` is stale once the epoch moves past `e` — serving-layer
    /// caches compare entry epochs against this value on every lookup.
    #[must_use]
    pub fn telemetry_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Attaches a metrics recorder; every sync, ingest, and recommend call
    /// reports `broker.*` metrics through it. The default is the no-op
    /// recorder, which costs nothing.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn uptime_obs::Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder recommendations report `broker.*` metrics through.
    pub(crate) fn obs_recorder(&self) -> &dyn uptime_obs::Recorder {
        &*self.recorder
    }

    /// Replaces the retry policy applied to provider calls.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the telemetry plausibility gate.
    #[must_use]
    pub fn with_quarantine_policy(mut self, quarantine: QuarantinePolicy) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Replaces the circuit-breaker template cloned for each provider
    /// registered afterwards.
    #[must_use]
    pub fn with_circuit_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker_template = breaker;
        self
    }

    /// Registers a live provider for its cloud, replacing any previous
    /// provider for the same cloud (breaker state starts fresh).
    pub fn register_provider(&self, provider: Box<dyn CloudProvider + Send + Sync>) {
        let cloud = provider.id().clone();
        let slot = ProviderSlot {
            provider,
            breaker: self.breaker_template.clone(),
            quarantined_streak: 0,
            batches_absorbed: 0,
            batches_quarantined: 0,
        };
        self.providers.write().insert(cloud, slot);
    }

    /// A snapshot of the current knowledge base.
    #[must_use]
    pub fn catalog_snapshot(&self) -> CatalogStore {
        self.catalog.read().clone()
    }

    /// A snapshot of the retained incident log, in order of occurrence.
    /// The ring is bounded: after eviction this holds the most recent
    /// entries, while [`BrokerHealth::incident_count`] stays lifetime-
    /// accurate.
    #[must_use]
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents.read().to_vec()
    }

    fn log_incident(
        &self,
        cloud: &CloudId,
        category: IncidentCategory,
        detail: String,
        transition: Option<(u64, BreakerState)>,
    ) {
        self.recorder.event("broker.incident", &detail);
        self.incidents.write().push(|seq| Incident {
            seq,
            cloud: cloud.clone(),
            category,
            detail,
            breaker_tick: transition.map(|(tick, _)| tick),
            breaker_state: transition.map(|(_, state)| state),
        });
    }

    /// Harvests component telemetry from the registered provider for
    /// `cloud` — through the retry policy and circuit breaker — and
    /// absorbs it via [`Self::ingest_component_telemetry`].
    ///
    /// # Errors
    ///
    /// * [`BrokerError::ProviderUnavailable`] when no provider is
    ///   registered for `cloud`, or the provider kept faulting after
    ///   retries.
    /// * [`BrokerError::CircuitOpen`] when the breaker rejects the call.
    /// * [`BrokerError::Timeout`] when the last retry timed out.
    /// * [`BrokerError::TelemetryRejected`] when the harvested batch was
    ///   quarantined instead of absorbed.
    pub fn sync_telemetry(
        &self,
        cloud: &CloudId,
        kind: ComponentKind,
        fleet: u32,
        years: f64,
        seed: u64,
    ) -> Result<EstimatedParameters, BrokerError> {
        self.sync_telemetry_traced(
            cloud,
            kind,
            fleet,
            years,
            seed,
            &uptime_obs::TraceSpan::disabled(),
        )
    }

    /// [`Self::sync_telemetry`] under a request trace: hangs a
    /// `broker.sync` span — with `broker.sync.harvest` and absorb children
    /// attributing time to the provider call vs the catalog merge — below
    /// `parent`. Identical behaviour otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`Self::sync_telemetry`].
    pub fn sync_telemetry_traced(
        &self,
        cloud: &CloudId,
        kind: ComponentKind,
        fleet: u32,
        years: f64,
        seed: u64,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<EstimatedParameters, BrokerError> {
        let rec = &*self.recorder;
        let _span = uptime_obs::span!(rec, "broker.sync");
        let trace_span = parent.child("broker.sync");
        // Harvest phase: providers lock only (never held across the
        // catalog lock taken during ingestion).
        let telemetry = {
            let mut harvest_span = trace_span.child("broker.sync.harvest");
            let mut providers = self.providers.write();
            let slot =
                providers
                    .get_mut(cloud)
                    .ok_or_else(|| BrokerError::ProviderUnavailable {
                        cloud: cloud.clone(),
                        reason: "no provider registered".into(),
                    })?;
            if !slot.breaker.allow() {
                rec.counter_add("broker.breaker.rejected", 1);
                return Err(BrokerError::CircuitOpen {
                    cloud: cloud.clone(),
                });
            }
            let was = slot.breaker.state();
            let outcome = self.retry.run(
                seed,
                |e: &BrokerError| {
                    matches!(
                        e,
                        BrokerError::ProviderUnavailable { .. } | BrokerError::Timeout { .. }
                    )
                },
                |_attempt| {
                    slot.provider
                        .harvest_component_telemetry(kind, fleet, years, seed)
                },
            );
            rec.observe("broker.sync.attempts", f64::from(outcome.attempts));
            rec.observe("broker.sync.backoff_ms", outcome.virtual_elapsed_ms as f64);
            rec.counter_add(
                "broker.sync.retries",
                u64::from(outcome.attempts.saturating_sub(1)),
            );
            harvest_span.attr_u64("attempts", u64::from(outcome.attempts));
            match outcome.result {
                Ok(telemetry) => {
                    slot.breaker.record_success();
                    let tick = slot.breaker.tick();
                    if was != BreakerState::Closed {
                        drop(providers);
                        rec.counter_add("broker.breaker.recovered", 1);
                        self.log_incident(
                            cloud,
                            IncidentCategory::BreakerRecovered,
                            "probe harvest succeeded; breaker closed".into(),
                            Some((tick, BreakerState::Closed)),
                        );
                    }
                    telemetry
                }
                Err(err) => {
                    let opened_before = slot.breaker.times_opened();
                    slot.breaker.record_failure();
                    let tripped = slot.breaker.times_opened() > opened_before;
                    let tick = slot.breaker.tick();
                    drop(providers);
                    rec.counter_add("broker.sync.failed", 1);
                    self.log_incident(
                        cloud,
                        IncidentCategory::ProviderFault,
                        format!(
                            "harvest failed after {} attempt(s): {err}",
                            outcome.attempts
                        ),
                        None,
                    );
                    if tripped {
                        rec.counter_add("broker.breaker.opened", 1);
                        self.log_incident(
                            cloud,
                            IncidentCategory::BreakerOpened,
                            "consecutive provider faults tripped the breaker".into(),
                            Some((tick, BreakerState::Open)),
                        );
                    }
                    return Err(err);
                }
            }
        };
        self.ingest_component_telemetry_traced(cloud, kind, &telemetry, &trace_span)
    }

    /// Absorbs harvested component telemetry into the knowledge base:
    /// validates the batch, estimates `P̂`/`f̂` from the trace, checks the
    /// estimate against the plausibility gate, and evidence-merges it into
    /// the cloud's reliability record for that component.
    ///
    /// Returns the estimate that was absorbed.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::UnknownCloud`] if the broker does not front
    ///   `cloud`.
    /// * [`BrokerError::TelemetryRejected`] if the batch failed structural
    ///   validation or the plausibility gate; the batch is quarantined and
    ///   logged, and the catalog is left untouched.
    pub fn ingest_component_telemetry(
        &self,
        cloud: &CloudId,
        kind: ComponentKind,
        telemetry: &ProviderTelemetry,
    ) -> Result<EstimatedParameters, BrokerError> {
        self.ingest_component_telemetry_traced(
            cloud,
            kind,
            telemetry,
            &uptime_obs::TraceSpan::disabled(),
        )
    }

    /// [`Self::ingest_component_telemetry`] under a request trace: hangs a
    /// `broker.absorb` span — with a `broker.journal.append` child around
    /// the write-ahead — below `parent`. Identical behaviour otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`Self::ingest_component_telemetry`].
    pub fn ingest_component_telemetry_traced(
        &self,
        cloud: &CloudId,
        kind: ComponentKind,
        telemetry: &ProviderTelemetry,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<EstimatedParameters, BrokerError> {
        let mut absorb_span = parent.child("broker.absorb");
        absorb_span.attr_u64("clusters", u64::from(telemetry.clusters));
        if let Err(reason) = validate_batch(telemetry) {
            self.note_quarantine(cloud, IncidentCategory::TelemetryRejected, &reason);
            return Err(BrokerError::TelemetryRejected { reason });
        }

        let estimator = TelemetryEstimator::new();
        // Estimate each observed cluster (a fleet of singletons) and merge.
        let records: Vec<_> = (0..telemetry.clusters as usize)
            .map(|c| {
                estimator.estimate(
                    &telemetry.trace,
                    c,
                    telemetry.nodes_per_cluster,
                    telemetry.span,
                )
            })
            .collect();
        let merged_record = records
            .iter()
            .map(EstimatedParameters::to_reliability_record)
            .reduce(|a, b| a.merge(&b))
            .ok_or(BrokerError::NoCandidates)?;
        let merged_estimate = records
            .into_iter()
            .reduce(|a, b| merge_estimates(&a, &b))
            .expect("records non-empty");

        {
            let mut catalog = self.catalog.write();
            let profile = catalog
                .cloud_mut(cloud)
                .ok_or_else(|| BrokerError::UnknownCloud { id: cloud.clone() })?;
            if let Some(existing) = profile.reliability(kind) {
                if let Err(reason) = self.quarantine.plausible(existing, &merged_estimate) {
                    drop(catalog);
                    self.note_quarantine(cloud, IncidentCategory::ImplausibleEstimate, &reason);
                    return Err(BrokerError::TelemetryRejected { reason });
                }
            }

            // Write-ahead: the distilled absorb reaches the journal before
            // it commits. Every epoch bump happens under this write lock,
            // so the post-absorb epoch is exactly current + 1. A failed
            // append aborts the absorb — the journal never lags the
            // in-memory state.
            if let Some(durability) = &self.durability {
                let _journal_span = absorb_span.child("broker.journal.append");
                let epoch_after = self.epoch.load(std::sync::atomic::Ordering::Acquire) + 1;
                let entry = JournalEntry {
                    schema_version: JOURNAL_SCHEMA_VERSION,
                    cloud: cloud.clone(),
                    kind,
                    epoch_after,
                    estimate: merged_estimate.clone(),
                    record: merged_record,
                };
                if let Err(reason) = self.append_journal(durability, &entry) {
                    drop(catalog);
                    self.recorder.counter_add("broker.journal.append_failed", 1);
                    self.log_incident(
                        cloud,
                        IncidentCategory::DurabilityFault,
                        format!("journal append failed, batch not absorbed: {reason}"),
                        None,
                    );
                    return Err(BrokerError::Durability { reason });
                }
            }

            profile.absorb_reliability(kind, merged_record);

            // The knowledge base moved: everything computed before this
            // absorb is now stale. Bump while still holding the write lock
            // so a reader observing the new epoch observes the new records.
            self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        }
        self.maybe_snapshot();

        // The batch made it into the catalog: clear the quarantine streak.
        if let Some(slot) = self.providers.write().get_mut(cloud) {
            slot.quarantined_streak = 0;
            slot.batches_absorbed += 1;
        }
        self.recorder.counter_add("broker.quarantine.accepted", 1);
        Ok(merged_estimate)
    }

    /// Records a quarantined batch against the provider slot (if any) and
    /// the incident log.
    fn note_quarantine(&self, cloud: &CloudId, category: IncidentCategory, reason: &str) {
        if let Some(slot) = self.providers.write().get_mut(cloud) {
            slot.quarantined_streak += 1;
            slot.batches_quarantined += 1;
        }
        self.recorder.counter_add("broker.quarantine.rejected", 1);
        self.log_incident(cloud, category, reason.to_owned(), None);
    }

    /// Degradation metadata for the given clouds, or `None` when every
    /// involved provider is healthy (or unmanaged).
    #[must_use]
    pub fn degraded_mode(&self, clouds: &[CloudId]) -> Option<DegradedMode> {
        let providers = self.providers.read();
        let mut stale_clouds = Vec::new();
        let mut quarantined_batches = 0;
        for cloud in clouds {
            let Some(slot) = providers.get(cloud) else {
                continue;
            };
            let breaker_open = slot.breaker.state() != BreakerState::Closed;
            let telemetry_stale = slot.quarantined_streak >= QUARANTINE_STALE_STREAK;
            if breaker_open || telemetry_stale {
                stale_clouds.push(cloud.clone());
                quarantined_batches += slot.batches_quarantined;
            }
        }
        if stale_clouds.is_empty() {
            return None;
        }
        let names: Vec<&str> = stale_clouds.iter().map(CloudId::as_str).collect();
        Some(DegradedMode {
            note: format!(
                "answers for {} rest on the last known-good catalog \
                 (provider unreachable or telemetry quarantined)",
                names.join(", ")
            ),
            stale_clouds,
            quarantined_batches,
        })
    }

    /// A point-in-time health report across every registered provider.
    #[must_use]
    pub fn health(&self) -> BrokerHealth {
        let providers = self.providers.read();
        let provider_health: Vec<ProviderHealth> = providers
            .iter()
            .map(|(cloud, slot)| ProviderHealth {
                cloud: cloud.clone(),
                display_name: slot.provider.display_name().to_owned(),
                state: slot.breaker.state(),
                consecutive_failures: slot.breaker.consecutive_failures(),
                times_opened: slot.breaker.times_opened(),
                quarantined_streak: slot.quarantined_streak,
                batches_absorbed: slot.batches_absorbed,
                batches_quarantined: slot.batches_quarantined,
            })
            .collect();
        let quarantined_batches = provider_health.iter().map(|p| p.batches_quarantined).sum();
        let degraded = provider_health.iter().any(|p| {
            p.state != BreakerState::Closed || p.quarantined_streak >= QUARANTINE_STALE_STREAK
        });
        drop(providers);
        BrokerHealth {
            providers: provider_health,
            incident_count: self.incidents.read().total(),
            quarantined_batches,
            degraded,
        }
    }

    /// Runs the paper's full pipeline: enumerate every HA permutation on
    /// every requested cloud, price them, and assemble the recommendation.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::UnknownCloud`] for a requested cloud the broker
    ///   does not front.
    /// * [`BrokerError::InvalidRequest`] when a declared as-is method does
    ///   not exist for its tier.
    /// * Catalog/space errors for missing prices or reliability records.
    pub fn recommend(&self, request: &SolutionRequest) -> Result<Recommendation, BrokerError> {
        self.recommend_traced(request, &uptime_obs::TraceSpan::disabled())
    }

    /// [`Self::recommend`] under a request trace: hangs a
    /// `broker.recommend` span — with engine-level children carrying the
    /// search counters — below `parent`. Identical answer bytes; the only
    /// difference is what lands in the flight recorder.
    ///
    /// A `topology` on the request replicates the tiers into that
    /// deployment archetype's series–parallel shape (see [`Archetype`]);
    /// without one the tiers form the paper's serial chain. Both are
    /// searched by the same engines and ranked by the same table rule:
    /// the full table up to 4,096 variants, otherwise the winner plus the
    /// declared as-is option.
    ///
    /// # Errors
    ///
    /// Same as [`Self::recommend`].
    pub fn recommend_traced(
        &self,
        request: &SolutionRequest,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<Recommendation, BrokerError> {
        let rec = &*self.recorder;
        let _span = uptime_obs::span!(rec, "broker.recommend");
        let trace_span = parent.child("broker.recommend");
        let archetype = request_archetype(request)?;
        if archetype.is_some() && request.as_is().is_some() {
            // As-is methods name one candidate per *serial tier*; an
            // archetype space has per-leaf candidates in a different
            // arity, so the Fig. 10 savings comparison has no referent.
            return Err(BrokerError::InvalidRequest {
                reason: "as-is comparison is not supported with a topology archetype".into(),
            });
        }
        let catalog = self.catalog.read();
        let clouds = resolve_clouds(&catalog, request)?;

        let model = request.tco_model();
        let mut cloud_recs = Vec::with_capacity(clouds.len());
        for cloud in clouds {
            let (space, method_ids) = cloud_space(&catalog, &cloud, request, archetype)?;
            let as_is_assignment = match request.as_is() {
                Some(methods) => Some(resolve_as_is(&method_ids, methods)?),
                None => None,
            };
            let (ordered, stats) =
                self.option_table(&space, &model, as_is_assignment.as_deref(), &trace_span)?;

            let mut options = Vec::with_capacity(ordered.len());
            let mut best_index = 0;
            let mut min_risk_index: Option<usize> = None;
            let mut as_is_index: Option<usize> = None;
            for (i, e) in ordered.iter().enumerate() {
                let meets = model.sla().is_met_by(e.uptime().availability());
                let mut labels = Vec::with_capacity(method_ids.len());
                let mut ids = Vec::with_capacity(method_ids.len());
                let mut tier_costs = Vec::with_capacity(method_ids.len());
                for (candidate, id) in chosen(&space, &method_ids, e.assignment()) {
                    labels.push(candidate.label().to_owned());
                    ids.push(id.clone());
                    tier_costs.push(candidate.monthly_cost());
                }
                options.push(RankedOption::new(
                    i + 1,
                    labels,
                    ids,
                    tier_costs,
                    (*e).clone(),
                    meets,
                ));

                if e.tco().total() < ordered[best_index].tco().total() {
                    best_index = i;
                }
                if meets {
                    let better = match min_risk_index {
                        Some(j) => e.tco().total() < ordered[j].tco().total(),
                        None => true,
                    };
                    if better {
                        min_risk_index = Some(i);
                    }
                }
                if as_is_assignment.as_deref() == Some(e.assignment()) {
                    as_is_index = Some(i);
                }
            }

            cloud_recs.push(CloudRecommendation::new(
                cloud,
                options,
                best_index,
                min_risk_index,
                as_is_index,
                stats,
            ));
        }
        drop(catalog);
        Ok(self.finish_recommendation(cloud_recs))
    }

    /// One cloud's ranked option table and its search stats — the one
    /// table rule for serial and archetype requests alike, where the
    /// space's size picks the engine. Up to [`TABLE_CAP`] variants the
    /// exhaustive engine ranks every one the way the paper numbers them
    /// (ascending cardinality, then mixed-radix value). Past it,
    /// branch-and-bound proves the winner on one thread without visiting
    /// most of the space; the table is that winner, plus the declared
    /// as-is option as a second row.
    fn option_table(
        &self,
        space: &CompositionSpace,
        model: &TcoModel,
        as_is: Option<&[usize]>,
        trace_span: &uptime_obs::TraceSpan,
    ) -> Result<(Vec<Evaluation>, SearchStats), BrokerError> {
        let rec = &*self.recorder;
        if space.assignment_count() <= TABLE_CAP {
            let outcome = {
                let _span = uptime_obs::span!(rec, "optimizer.exhaustive.search");
                let mut table_span = trace_span.child("optimizer.exhaustive.search");
                let outcome = exhaustive::composition_search(space, model, Objective::MinTco);
                rec.counter_add("optimizer.exhaustive.variants", outcome.stats().evaluated);
                table_span.attr_u64("variants", outcome.stats().evaluated);
                outcome
            };
            let stats = outcome.stats();
            let mut ordered = outcome.into_evaluations();
            ordered.sort_by_key(|e| (e.cardinality(), assignment_value(space, e.assignment())));
            return Ok((ordered, stats));
        }
        let outcome =
            composition_bnb::search_with_threads_recorded(space, model, 1, rec, trace_span);
        let mut ordered = vec![outcome.best().ok_or(BrokerError::NoCandidates)?.clone()];
        if let Some(assignment) = as_is {
            if assignment != ordered[0].assignment() {
                ordered.push(CompositionEvaluator::new(space, model).evaluate(assignment));
            }
        }
        Ok((ordered, outcome.stats()))
    }

    /// Answers a declarative SLO request with the exact feasible
    /// cost/uptime Pareto frontier per cloud (PR 9): the spec's hard
    /// objectives become box constraints for
    /// [`uptime_optimizer::pareto_bnb`], the soft objectives score every
    /// returned point, and the broker recommends the point with the
    /// lowest weighted violation.
    ///
    /// The size rule of [`Self::recommend`] picks one engine per request:
    /// when every requested cloud's space has at most 4,096 variants,
    /// the full-enumeration sweep; otherwise the
    /// epsilon-dominance branch-and-bound on one thread, for every cloud,
    /// so the report's `engine` names what ran. Both answer
    /// bit-identical points. A `topology` on the request routes to the
    /// archetype's series–parallel composition space.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::SloInfeasible`] when no deployment satisfies the
    ///   hard constraints on *any* requested cloud. (A cloud that is
    ///   individually infeasible while others are not is reported with
    ///   an empty frontier instead.)
    /// * Otherwise the same failures as [`Self::recommend`].
    pub fn solve_slo(&self, request: &FrontierRequest) -> Result<FrontierReport, BrokerError> {
        self.solve_slo_traced(request, &uptime_obs::TraceSpan::disabled())
    }

    /// [`Self::solve_slo`] under a request trace: hangs a
    /// `broker.frontier` span — with `optimizer.pareto.search` children
    /// carrying the tree-shape counters — below `parent`. Identical
    /// answer bytes.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve_slo`].
    pub fn solve_slo_traced(
        &self,
        request: &FrontierRequest,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<FrontierReport, BrokerError> {
        let rec = &*self.recorder;
        let _span = uptime_obs::span!(rec, "broker.frontier");
        let trace_span = parent.child("broker.frontier");
        let spec = request.spec();
        let constraints = request.constraints();
        let epsilon = spec.epsilon();
        let catalog = self.catalog.read();
        let clouds = resolve_clouds(&catalog, request.base())?;
        let model = request.base().tco_model();

        let archetype = request_archetype(request.base())?;
        let spaces = clouds
            .into_iter()
            .map(|cloud| {
                let (space, method_ids) = cloud_space(&catalog, &cloud, request.base(), archetype)?;
                Ok((cloud, space, method_ids))
            })
            .collect::<Result<Vec<_>, BrokerError>>()?;
        let sweep = spaces
            .iter()
            .all(|(_, space, _)| space.assignment_count() <= TABLE_CAP);
        let mut cloud_fronts = Vec::with_capacity(spaces.len());
        for (cloud, space, method_ids) in spaces {
            let outcome = if sweep {
                pareto_bnb::composition_sweep_recorded(
                    &space,
                    &model,
                    &constraints,
                    epsilon,
                    rec,
                    &trace_span,
                )
            } else {
                pareto_bnb::composition_search_with_threads_recorded(
                    &space,
                    &model,
                    &constraints,
                    epsilon,
                    1,
                    rec,
                    &trace_span,
                )
            };
            let points = frontier_points(&outcome, request, &space, &method_ids);
            cloud_fronts.push(CloudFrontier::new(cloud, points, *outcome.stats()));
        }
        drop(catalog);

        rec.counter_add("broker.frontier.clouds", cloud_fronts.len() as u64);
        if cloud_fronts.iter().all(|c| c.points().is_empty()) {
            rec.counter_add("broker.frontier.infeasible", 1);
            return Err(BrokerError::SloInfeasible {
                reason: infeasibility_reason(&constraints),
            });
        }
        Ok(FrontierReport::new(
            if sweep { "exhaustive" } else { "bnb" },
            epsilon,
            spec.uptime_target_percent(),
            cloud_fronts,
        ))
    }

    /// Shared tail of every recommend path: emit metrics and annotate the
    /// answer when any involved provider is serving from a stale catalog.
    fn finish_recommendation(&self, cloud_recs: Vec<CloudRecommendation>) -> Recommendation {
        let rec = &*self.recorder;
        let answered: Vec<CloudId> = cloud_recs.iter().map(|c| c.cloud().clone()).collect();
        rec.counter_add("broker.recommend.clouds", answered.len() as u64);
        let mut recommendation = Recommendation::new(cloud_recs);
        if let Some(degraded) = self.degraded_mode(&answered) {
            recommendation = recommendation.with_degraded(degraded);
            rec.gauge_set("broker.degraded", 1.0);
            // Degraded-mode duration: how long each stale provider's
            // breaker has been non-closed, in admission-check ticks.
            let providers = self.providers.read();
            for (_, slot) in providers.iter() {
                if let Some(ticks) = slot.breaker.open_ticks() {
                    rec.observe("broker.breaker.open_ticks", ticks as f64);
                }
            }
        } else {
            rec.gauge_set("broker.degraded", 0.0);
        }
        recommendation
    }

    /// Turns a ranked option into a provisioning plan for its cloud.
    ///
    /// # Errors
    ///
    /// Returns catalog errors when a method id no longer resolves.
    pub fn plan(
        &self,
        cloud: &CloudId,
        tiers: &[ComponentKind],
        option: &RankedOption,
    ) -> Result<DeploymentPlan, BrokerError> {
        let catalog = self.catalog.read();
        let mut steps = Vec::with_capacity(option.method_ids().len());
        for (kind, method_id) in tiers.iter().zip(option.method_ids()) {
            let method = catalog.method(method_id.as_str()).ok_or_else(|| {
                BrokerError::Catalog(uptime_catalog::CatalogError::UnknownMethod {
                    id: method_id.clone(),
                })
            })?;
            steps.push(ProvisionStep::new(
                *kind,
                method_id.clone(),
                method.display_name(),
                method.shape().total_nodes,
            ));
        }
        Ok(DeploymentPlan::new(cloud.clone(), steps))
    }

    // ------------------------------------------------------------------
    // Durability: write-ahead journaling, snapshots, crash recovery.
    // Lock order everywhere: catalog → incidents → durability journal.
    // ------------------------------------------------------------------

    /// Attaches a state directory, first recovering whatever it holds:
    /// loads the snapshot (if valid), repairs the journal's tail, and
    /// replays post-snapshot records through the normal ingest pipeline.
    /// After this returns, every accepted batch is journaled before its
    /// absorb commits, and snapshots are taken per
    /// [`DurabilityConfig::snapshot_every`].
    ///
    /// Call this on a freshly seeded service, before registering
    /// providers or serving traffic.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Durability`] when the state directory cannot be
    /// created, read, or repaired — never for mere corruption, which is
    /// recovered from and reported in the [`RecoveryReport`].
    pub fn with_durability(
        mut self,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), BrokerError> {
        if self.durability.is_some() {
            return Err(BrokerError::Durability {
                reason: "durability already attached".into(),
            });
        }
        let state_dir = StateDir::create(&config.state_dir).map_err(durability_err)?;
        let report = self.run_recovery(&state_dir, true)?;
        let journal =
            Journal::open(state_dir.journal_path(), config.fsync).map_err(durability_err)?;
        let store = SnapshotStore::new(state_dir).with_sync(config.fsync.guards_power_loss());
        self.durability = Some(DurabilityState {
            snapshot_every: config.snapshot_every,
            inner: Mutex::new(DurabilityInner {
                journal,
                store,
                absorbs_since_snapshot: 0,
            }),
        });
        Ok((self, report))
    }

    /// Dry-runs a recovery from `state_dir` against this (freshly
    /// seeded, durability-free) service without repairing the journal
    /// file: replays into memory and reports what a real recovery would
    /// do. This mutates the in-memory state — use a throwaway service.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Durability`] on I/O failure, or when durability is
    /// already attached (a live journal must not be replayed onto).
    pub fn verify_recovery(&self, state_dir: &Path) -> Result<RecoveryReport, BrokerError> {
        if self.durability.is_some() {
            return Err(BrokerError::Durability {
                reason: "cannot verify-recover with durability attached".into(),
            });
        }
        let state_dir = StateDir::create(state_dir).map_err(durability_err)?;
        self.run_recovery(&state_dir, false)
    }

    /// The recovery core: snapshot restore + journal replay. `repair`
    /// physically truncates a torn journal tail (real recovery); without
    /// it the file is left untouched (`recover --verify`).
    fn run_recovery(
        &self,
        state_dir: &StateDir,
        repair: bool,
    ) -> Result<RecoveryReport, BrokerError> {
        let rec = &*self.recorder;
        let _span = uptime_obs::span!(rec, "broker.recover");

        // Phase 1: snapshot restore (replay accelerator, never required).
        let store = SnapshotStore::new(state_dir.clone());
        let mut snapshot_used = false;
        let mut snapshot_epoch = 0u64;
        let mut replay_from = 0u64;
        if let Some(loaded) = store.load().map_err(durability_err)? {
            match serde_json::from_slice::<PersistentState>(&loaded.payload) {
                Ok(state) if state.schema_version == SNAPSHOT_SCHEMA_VERSION => {
                    snapshot_used = true;
                    snapshot_epoch = state.epoch;
                    replay_from = loaded.manifest.journal_offset;
                    let capacity = self.incidents.read().capacity;
                    *self.catalog.write() = state.catalog;
                    *self.incidents.write() =
                        IncidentRing::restore(state.incidents, state.incident_next_seq, capacity);
                    self.raise_epoch_floor(state.epoch);
                    rec.counter_add("broker.recovery.snapshot_loaded", 1);
                }
                _ => {
                    // Checksums matched but the payload is from another
                    // era: fall back to a full journal replay.
                    rec.event(
                        "broker.recovery",
                        "snapshot payload unreadable; full journal replay",
                    );
                }
            }
        }

        // Phase 2: journal replay. Each distilled entry passes the same
        // plausibility gate the live batch did, then absorbs the exact
        // record the pre-crash broker committed (durability is not
        // attached yet, so nothing re-journals itself).
        let decoded = if repair {
            Journal::repair(state_dir.journal_path())
        } else {
            Journal::replay(state_dir.journal_path())
        }
        .map_err(durability_err)?;

        let mut offset = 0u64;
        let journal_records = decoded.payloads.len() as u64;
        let mut skipped_by_snapshot = 0u64;
        let mut replayed = 0u64;
        let mut quarantined = 0u64;
        let mut malformed = 0u64;
        let mut last_epoch_after = 0u64;
        for payload in &decoded.payloads {
            let start = offset;
            offset += (HEADER_LEN + payload.len()) as u64;
            if start < replay_from {
                skipped_by_snapshot += 1;
                continue;
            }
            let entry = match serde_json::from_slice::<JournalEntry>(payload) {
                Ok(entry) if entry.schema_version == JOURNAL_SCHEMA_VERSION => entry,
                _ => {
                    malformed += 1;
                    continue;
                }
            };
            last_epoch_after = last_epoch_after.max(entry.epoch_after);
            match self.apply_journal_entry(&entry) {
                Ok(()) => replayed += 1,
                Err(_) => quarantined += 1,
            }
        }
        // Epoch continuity: the restored epoch must be ≥ every epoch a
        // pre-crash client could have observed for the surviving records,
        // so serve-layer caches can never validate stale bodies.
        self.raise_epoch_floor(last_epoch_after);
        rec.counter_add("broker.recovery.replayed", replayed);
        rec.counter_add("broker.recovery.skipped", skipped_by_snapshot);
        rec.counter_add("broker.recovery.quarantined", quarantined);
        rec.counter_add("broker.recovery.malformed", malformed);

        let truncation = decoded.truncation.map(|t| ReportedTruncation {
            offset: t.offset,
            reason: t.reason.to_string(),
        });
        if let Some(trunc) = &truncation {
            rec.counter_add("broker.recovery.truncated", 1);
            self.log_incident(
                &CloudId::new("broker"),
                IncidentCategory::JournalTruncated,
                format!(
                    "journal replay stopped at byte {}: {}; tail discarded",
                    trunc.offset, trunc.reason
                ),
                None,
            );
        }

        Ok(RecoveryReport {
            state_dir: state_dir.root().display().to_string(),
            snapshot_used,
            snapshot_epoch,
            journal_bytes: decoded.valid_len,
            journal_records,
            skipped_by_snapshot,
            replayed,
            quarantined,
            malformed,
            truncation,
            repaired: repair,
            epoch: self.telemetry_epoch(),
            incident_count: self.incidents.read().total(),
        })
    }

    /// Applies one replayed journal entry: structural sanity on the raw
    /// `f64` evidence fields (the unit newtypes already validated their
    /// ranges during deserialization), the same plausibility gate the
    /// live batch passed, then the exact absorbed record. Rejections
    /// quarantine with an incident, exactly like a live rejection.
    fn apply_journal_entry(&self, entry: &JournalEntry) -> Result<(), BrokerError> {
        let node_years = entry.estimate.node_years();
        let evidence = entry.record.node_years_observed();
        if !node_years.is_finite() || node_years < 0.0 || !evidence.is_finite() || evidence < 0.0 {
            let reason = format!(
                "journal entry evidence insane: node_years = {node_years}, observed = {evidence}"
            );
            self.note_quarantine(&entry.cloud, IncidentCategory::TelemetryRejected, &reason);
            return Err(BrokerError::TelemetryRejected { reason });
        }

        let mut catalog = self.catalog.write();
        let profile = catalog
            .cloud_mut(&entry.cloud)
            .ok_or_else(|| BrokerError::UnknownCloud {
                id: entry.cloud.clone(),
            })?;
        if let Some(existing) = profile.reliability(entry.kind) {
            if let Err(reason) = self.quarantine.plausible(existing, &entry.estimate) {
                drop(catalog);
                self.note_quarantine(&entry.cloud, IncidentCategory::ImplausibleEstimate, &reason);
                return Err(BrokerError::TelemetryRejected { reason });
            }
        }
        profile.absorb_reliability(entry.kind, entry.record);
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        drop(catalog);
        self.recorder.counter_add("broker.quarantine.accepted", 1);
        Ok(())
    }

    /// Appends one entry to the write-ahead journal. Called with the
    /// catalog write lock held (catalog → journal lock order).
    fn append_journal(
        &self,
        durability: &DurabilityState,
        entry: &JournalEntry,
    ) -> Result<(), String> {
        let payload = entry.to_json();
        let mut inner = durability.inner.lock();
        inner
            .journal
            .append(payload.as_bytes())
            .map_err(|e| format!("append: {e}"))?;
        inner.absorbs_since_snapshot += 1;
        let stats = inner.journal.stats();
        drop(inner);
        self.recorder.counter_add("broker.journal.appends", 1);
        self.recorder
            .observe("broker.journal.bytes", stats.bytes as f64);
        self.recorder
            .observe("broker.journal.fsyncs", stats.fsyncs as f64);
        Ok(())
    }

    /// Takes an automatic snapshot when the cadence says one is due.
    /// Snapshot failures are reported but never fail the absorb that
    /// triggered them — the journal already holds the batch.
    fn maybe_snapshot(&self) {
        let Some(durability) = &self.durability else {
            return;
        };
        if durability.snapshot_every == 0
            || durability.inner.lock().absorbs_since_snapshot < durability.snapshot_every
        {
            return;
        }
        if let Err(err) = self.snapshot_now() {
            self.recorder
                .event("broker.snapshot.failed", &err.to_string());
        }
    }

    /// Writes a snapshot of the current state now, regardless of cadence.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Durability`] when no state dir is attached or the
    /// write fails.
    pub fn snapshot_now(&self) -> Result<(), BrokerError> {
        self.persist_snapshot(false)
    }

    /// Takes a snapshot and then physically truncates the journal —
    /// explicit admin compaction (`brokerctl recover --compact`). The
    /// snapshot is durable (written and fsynced) before any journal
    /// bytes are discarded, and the manifest is re-pointed at offset 0
    /// afterwards so post-compaction appends replay from the start.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Durability`] when no state dir is attached or a
    /// write fails; a failure between steps never loses state (the
    /// journal is only reset after the covering snapshot is durable).
    pub fn compact_state(&self) -> Result<(), BrokerError> {
        self.persist_snapshot(true)
    }

    fn persist_snapshot(&self, compact: bool) -> Result<(), BrokerError> {
        let durability = self
            .durability
            .as_ref()
            .ok_or_else(|| BrokerError::Durability {
                reason: "no state directory attached".into(),
            })?;
        // Hold the catalog read lock across the whole operation: absorbs
        // (which hold the write lock) cannot interleave, so the captured
        // state and the journal offset refer to the same instant.
        let catalog = self.catalog.read();
        let incidents = self.incidents.read();
        let epoch = self.telemetry_epoch();
        let state = PersistentState {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            epoch,
            incident_next_seq: incidents.total(),
            incidents: incidents.to_vec(),
            catalog: catalog.clone(),
        };
        drop(incidents);
        let payload = serde_json::to_string(&state)
            .map_err(|e| BrokerError::Durability {
                reason: format!("snapshot encode: {e}"),
            })?
            .into_bytes();
        let mut inner = durability.inner.lock();
        let offset = inner.journal.len();
        inner
            .store
            .write(&payload, epoch, offset)
            .map_err(durability_err)?;
        if compact {
            // Crash-ordering: snapshot(offset) is durable ⇒ resetting is
            // safe; if we die before re-pointing the manifest, replay
            // skips everything below `offset` against an empty journal —
            // still exactly the snapshot state.
            inner.journal.reset().map_err(durability_err)?;
            inner
                .store
                .write(&payload, epoch, 0)
                .map_err(durability_err)?;
        }
        inner.absorbs_since_snapshot = 0;
        drop(inner);
        drop(catalog);
        self.recorder.counter_add("broker.journal.snapshots", 1);
        Ok(())
    }

    fn raise_epoch_floor(&self, floor: u64) {
        self.epoch
            .fetch_max(floor, std::sync::atomic::Ordering::AcqRel);
    }
}

fn durability_err(e: std::io::Error) -> BrokerError {
    BrokerError::Durability {
        reason: e.to_string(),
    }
}

/// Mixed-radix value of an assignment (last leaf least significant),
/// reproducing the paper's option numbering within a cardinality level.
fn assignment_value(space: &CompositionSpace, assignment: &[usize]) -> u128 {
    let mut value: u128 = 0;
    for (idx, leaf) in assignment.iter().zip(space.leaves()) {
        value = value * leaf.len() as u128 + *idx as u128;
    }
    value
}

/// Largest space the broker enumerates: up to it, `recommend` ranks the
/// full table and `solve_slo` sweeps; beyond it, both run
/// branch-and-bound and the option table is trimmed to the winner (plus
/// the declared as-is option). The paper's chain has 8 assignments and
/// the six survey archetypes top out at 512 on the case-study catalog.
const TABLE_CAP: u128 = 4096;

/// The request's deployment archetype, if it names a `topology`.
fn request_archetype(request: &SolutionRequest) -> Result<Option<Archetype>, BrokerError> {
    request
        .topology()
        .map(|topology| {
            topology
                .parse()
                .map_err(|err: uptime_optimizer::archetypes::UnknownArchetype| {
                    BrokerError::InvalidRequest {
                        reason: err.to_string(),
                    }
                })
        })
        .transpose()
}

/// The space one cloud is searched over, with the catalog method id of
/// every leaf's candidates: the archetype's series–parallel space, or the
/// request's tiers as the paper's pure-series chain.
fn cloud_space(
    catalog: &CatalogStore,
    cloud: &CloudId,
    request: &SolutionRequest,
    archetype: Option<Archetype>,
) -> Result<(CompositionSpace, Vec<Vec<HaMethodId>>), BrokerError> {
    if let Some(archetype) = archetype {
        let space = archetype.space(catalog, cloud)?;
        let method_ids = leaf_method_ids(catalog, &space);
        return Ok((space, method_ids));
    }
    let space = SearchSpace::from_catalog(catalog, cloud, request.tiers())?;
    // Method ids per tier, in the same order the space was built.
    let method_ids = request
        .tiers()
        .iter()
        .map(|kind| {
            catalog
                .methods_for(*kind)
                .iter()
                .map(|m| m.id().clone())
                .collect()
        })
        .collect();
    Ok((CompositionSpace::from_serial(&space), method_ids))
}

/// Every leaf's chosen candidate under `assignment`, with its catalog
/// method id — what an option row and a frontier point show.
fn chosen<'a>(
    space: &'a CompositionSpace,
    method_ids: &'a [Vec<HaMethodId>],
    assignment: &'a [usize],
) -> impl Iterator<Item = (&'a Candidate, &'a HaMethodId)> + 'a {
    assignment
        .iter()
        .zip(space.leaves())
        .zip(method_ids)
        .map(|((&idx, leaf), ids)| (&leaf.candidates()[idx], &ids[idx]))
}

/// Per-leaf catalog method ids for an archetype space. Tier leaves follow
/// [`Archetype::space`]'s `{prefix}-{tier-label}` naming and preserve
/// `methods_for` order, so candidate `i` is that tier's `i`-th method.
/// Shared-domain pseudo-leaves exist only in the composition model, not
/// the catalog; their single candidate gets a synthetic id from its label.
fn leaf_method_ids(catalog: &CatalogStore, space: &CompositionSpace) -> Vec<Vec<HaMethodId>> {
    space
        .leaves()
        .iter()
        .map(|leaf| {
            let tier = ComponentKind::paper_tiers().into_iter().find(|kind| {
                leaf.name() == kind.label() || leaf.name().ends_with(&format!("-{}", kind.label()))
            });
            match tier {
                Some(kind) if catalog.methods_for(kind).len() == leaf.len() => catalog
                    .methods_for(kind)
                    .iter()
                    .map(|m| m.id().clone())
                    .collect(),
                _ => leaf
                    .candidates()
                    .iter()
                    .map(|c| HaMethodId::new(c.label()))
                    .collect(),
            }
        })
        .collect()
}

/// Resolves the clouds a request names (empty = every cloud the broker
/// fronts), rejecting unknown ids.
fn resolve_clouds(
    catalog: &CatalogStore,
    request: &SolutionRequest,
) -> Result<Vec<CloudId>, BrokerError> {
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
    if clouds.is_empty() {
        return Err(BrokerError::NoCandidates);
    }
    Ok(clouds)
}

fn resolve_as_is(
    method_ids: &[Vec<HaMethodId>],
    declared: &[HaMethodId],
) -> Result<Vec<usize>, BrokerError> {
    declared
        .iter()
        .zip(method_ids)
        .map(|(want, tier)| {
            tier.iter()
                .position(|id| id == want)
                .ok_or_else(|| BrokerError::InvalidRequest {
                    reason: format!("as-is method `{want}` is not available for its tier"),
                })
        })
        .collect()
}

/// Materializes one cloud's frontier outcome into wire points, each
/// scored against the spec's soft objectives.
fn frontier_points(
    outcome: &FrontierOutcome,
    request: &FrontierRequest,
    space: &CompositionSpace,
    method_ids: &[Vec<HaMethodId>],
) -> Vec<FrontierPoint> {
    outcome
        .points()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let cost = p.ha_cost().value();
            let uptime = p.uptime();
            let failover = p.failover_minutes_per_month();
            let soft_score =
                request
                    .spec()
                    .soft_score(&PointMetrics::new(cost, uptime.value(), failover));
            let (labels, method_ids): (Vec<String>, Vec<HaMethodId>) =
                chosen(space, method_ids, p.evaluation().assignment())
                    .map(|(candidate, id)| (candidate.label().to_owned(), id.clone()))
                    .unzip();
            FrontierPoint::new(
                i + 1,
                labels,
                method_ids,
                cost,
                uptime.as_percent(),
                failover,
                p.evaluation().tco().total().value(),
                p.evaluation().tco().expects_penalty(),
                soft_score,
            )
        })
        .collect()
}

/// Renders which hard-constraint combination admitted nothing, for the
/// [`BrokerError::SloInfeasible`] message.
fn infeasibility_reason(constraints: &uptime_optimizer::FrontierConstraints) -> String {
    let mut parts = Vec::new();
    if let Some(floor) = constraints.min_uptime {
        parts.push(format!("uptime >= {}%", floor * 100.0));
    }
    if let Some(cap) = constraints.max_cost {
        parts.push(format!("cost <= ${cap}/month"));
    }
    if let Some(budget) = constraints.max_failover_minutes {
        parts.push(format!("failover <= {budget} min/month"));
    }
    if parts.is_empty() {
        // Unconstrained infeasibility means the space itself was empty.
        "no candidate deployments exist".to_owned()
    } else {
        format!(
            "no deployment satisfies {} on any requested cloud",
            parts.join(" and ")
        )
    }
}

fn merge_estimates(a: &EstimatedParameters, b: &EstimatedParameters) -> EstimatedParameters {
    // Delegates the numeric merge to ReliabilityRecord, then rebuilds; the
    // failover estimate keeps whichever side observed one (preferring a).
    let merged = a.to_reliability_record().merge(&b.to_reliability_record());
    EstimatedParameters::from_parts(
        merged.down_probability(),
        merged.failures_per_year(),
        a.failover_time().or(b.failover_time()),
        merged.node_years_observed(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{CloudProvider, GroundTruth, SimulatedProvider};
    use crate::request::SolutionRequest;
    use uptime_catalog::case_study;
    use uptime_core::{FailuresPerYear, Probability};
    use uptime_optimizer::{composition, SearchOutcome};

    fn paper_request() -> SolutionRequest {
        SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(case_study::cloud_id())
            .as_is(vec![
                HaMethodId::new("vmware-ha-3p1"),
                HaMethodId::new("raid1"),
                HaMethodId::new("dual-gw"),
            ])
            .build()
            .unwrap()
    }

    fn service() -> BrokerService {
        BrokerService::new(case_study::catalog())
    }

    #[test]
    fn reproduces_paper_fig10() {
        let rec = service().recommend(&paper_request()).unwrap();
        let cloud = &rec.clouds()[0];
        assert_eq!(cloud.options().len(), 8);

        // Paper numbering and TCOs.
        let expected = [
            (1, 4300.0),
            (2, 4000.0),
            (3, 1250.0),
            (4, 5900.0),
            (5, 1350.0),
            (6, 5500.0),
            (7, 2850.0),
            (8, 3550.0),
        ];
        for (opt, (number, tco)) in cloud.options().iter().zip(expected) {
            assert_eq!(opt.option_number(), number);
            assert!(
                (opt.evaluation().tco().total().value() - tco).abs() < 0.5,
                "#{number}: got {} want {tco}",
                opt.evaluation().tco().total()
            );
        }

        assert_eq!(cloud.best().option_number(), 3);
        assert_eq!(cloud.min_risk().unwrap().option_number(), 5);
        assert_eq!(cloud.as_is().unwrap().option_number(), 8);
        let savings = cloud.savings_vs_as_is().unwrap();
        assert!((savings - 0.62).abs() < 0.005, "got {savings}");
    }

    fn archetype_request(name: &str) -> SolutionRequest {
        SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(case_study::cloud_id())
            .topology(name)
            .build()
            .unwrap()
    }

    #[test]
    fn zonal_archetype_reproduces_the_serial_table() {
        let rec = service().recommend(&archetype_request("zonal")).unwrap();
        let cloud = &rec.clouds()[0];
        // The zonal archetype *is* the paper's serial chain: same eight
        // options, same numbering, same winner.
        assert_eq!(cloud.options().len(), 8);
        assert_eq!(cloud.best().option_number(), 3);
        assert_eq!(cloud.best().evaluation().tco().total().value(), 1250.0);
        assert_eq!(cloud.min_risk().unwrap().option_number(), 5);
        // Zonal leaf names are the plain tier labels, so method ids come
        // straight from the catalog and the winner is provisionable.
        let plan = service()
            .plan(
                &case_study::cloud_id(),
                &ComponentKind::paper_tiers(),
                cloud.best(),
            )
            .unwrap();
        assert_eq!(plan.steps().len(), 3);
    }

    /// 13 Compute tiers: 2^13 = 8,192 variants, past [`TABLE_CAP`].
    fn thirteen_compute_tiers() -> SolutionRequest {
        SolutionRequest::builder()
            .tiers(vec![ComponentKind::Compute; 13])
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(case_study::cloud_id())
            .as_is(vec![HaMethodId::new("vmware-ha-3p1"); 13])
            .build()
            .unwrap()
    }

    #[test]
    fn serial_tables_past_the_cap_keep_the_winner_and_as_is() {
        // Past TABLE_CAP branch-and-bound proves the winner, and the table
        // keeps only it and the declared as-is option.
        let request = thirteen_compute_tiers();
        let rec = service().recommend(&request).unwrap();
        let cloud = &rec.clouds()[0];
        assert_eq!(cloud.stats().considered(), 8192);
        assert_eq!(cloud.options().len(), 2);
        assert_eq!(cloud.best().option_number(), 1);
        assert_eq!(cloud.as_is().unwrap().option_number(), 2);
        assert_eq!(
            cloud.as_is().unwrap().method_ids(),
            vec![HaMethodId::new("vmware-ha-3p1"); 13].as_slice()
        );
        // The paper's 8-variant request keeps every row.
        let paper = service().recommend(&paper_request()).unwrap();
        assert_eq!(paper.clouds()[0].options().len(), 8);
    }

    #[test]
    fn full_tables_report_the_exhaustive_counters() {
        // Every full table, serial or archetype, is one
        // `optimizer.exhaustive.search` call over the whole space; a
        // trimmed table is one `optimizer.bnb.search` call whose leaves
        // and skipped variants cover the space, and reports no
        // exhaustive counter.
        let recorded = |request: &SolutionRequest| {
            let registry = Arc::new(uptime_obs::MetricsRegistry::new());
            service()
                .with_recorder(registry.clone())
                .recommend(request)
                .unwrap();
            let snap = registry.snapshot();
            let bnb_covered = snap
                .counter("optimizer.bnb.leaves_evaluated")
                .zip(snap.counter("optimizer.bnb.variants_skipped"))
                .map(|(leaves, skipped)| leaves + skipped);
            [
                snap.counter("optimizer.exhaustive.variants"),
                snap.counter("optimizer.exhaustive.search.calls"),
                snap.counter("optimizer.bnb.search.calls"),
                bnb_covered,
            ]
        };
        assert_eq!(recorded(&paper_request()), [Some(8), Some(1), None, None]);
        let regional = Archetype::Regional
            .space(&case_study::catalog(), &case_study::cloud_id())
            .unwrap();
        let variants = u64::try_from(regional.assignment_count()).unwrap();
        assert_eq!(
            recorded(&archetype_request("regional")),
            [Some(variants), Some(1), None, None]
        );
        assert_eq!(
            recorded(&thirteen_compute_tiers()),
            [None, None, Some(1), Some(8192)]
        );
    }

    /// The exhaustive table of `request`'s space on its one cloud: every
    /// variant, evaluated in lexicographic order.
    fn exhaustive_table(svc: &BrokerService, request: &SolutionRequest) -> SearchOutcome {
        let catalog = svc.catalog_snapshot();
        let cloud = &request.clouds()[0];
        let (space, _) = cloud_space(&catalog, cloud, request, None).unwrap();
        exhaustive::composition_search(&space, &request.tco_model(), Objective::MinTco)
    }

    #[test]
    fn bnb_as_is_rows_match_the_exhaustive_table() {
        // A trimmed table evaluates the declared as-is option with the
        // kernel that fills the full table, so past the cap the as-is row
        // is that option's exhaustive row, bit for bit. Nine hybrid tiers
        // (the paper's three, thrice) give 36^3 = 46,656 variants a cloud;
        // every one of a cloud's 36 three-tier options, repeated thrice,
        // is declared as-is in turn.
        let catalog = uptime_catalog::extended::hybrid_catalog;
        let svc = BrokerService::new(catalog());
        let request = |cloud: &CloudId, as_is: &[HaMethodId], copies: usize| {
            let as_is: Vec<_> = as_is
                .iter()
                .cycle()
                .take(as_is.len() * copies)
                .cloned()
                .collect();
            SolutionRequest::builder()
                .tiers(ComponentKind::paper_tiers().repeat(copies))
                .sla_percent(98.0)
                .unwrap()
                .penalty_per_hour(100.0)
                .unwrap()
                .cloud(cloud.clone())
                .as_is(as_is)
                .build()
                .unwrap()
        };
        let paper_as_is = paper_request().as_is().unwrap().to_vec();
        for cloud in catalog().cloud_ids() {
            let table = exhaustive_table(&svc, &request(cloud, &paper_as_is, 3));
            let rows = table.evaluations();
            assert_eq!(rows.len(), 46_656);
            let small = svc.recommend(&request(cloud, &paper_as_is, 1)).unwrap();
            let options = small.clouds()[0].options();
            assert_eq!(options.len(), 36);
            for option in options {
                let declared = request(cloud, option.method_ids(), 3);
                let answer = svc.recommend(&declared).unwrap();
                let answer = &answer.clouds()[0];
                assert_eq!(answer.best().evaluation(), table.best().unwrap(), "{cloud}");
                let as_is = answer.as_is().unwrap();
                assert_eq!(as_is.method_ids(), declared.as_is().unwrap());
                let row = rows
                    .binary_search_by(|e| e.assignment().cmp(as_is.evaluation().assignment()))
                    .unwrap();
                assert_eq!(as_is.evaluation(), &rows[row], "{cloud}");
            }
        }
    }

    #[test]
    fn regional_archetype_searches_the_composition_space() {
        let rec = service().recommend(&archetype_request("regional")).unwrap();
        let cloud = &rec.clouds()[0];
        assert_eq!(cloud.stats().evaluated, 128);
        assert_eq!(cloud.options().len(), 128);
        // Every option carries one label/id/cost per composition leaf.
        assert_eq!(cloud.best().labels().len(), 10);
        assert_eq!(cloud.best().method_ids().len(), 10);
        assert_eq!(cloud.best().tier_costs().len(), 10);
        // The winner must agree with the optimizer's own search.
        let space = Archetype::Regional
            .space(&case_study::catalog(), &case_study::cloud_id())
            .unwrap();
        let model = archetype_request("regional").tco_model();
        let outcome = composition::search(&space, &model, Objective::MinTco);
        let best = outcome.best().unwrap();
        assert_eq!(cloud.best().evaluation().assignment(), best.assignment());
        assert_eq!(cloud.best().evaluation().tco().total(), best.tco().total());
    }

    /// The paper intake over every cloud the broker fronts, in
    /// `topology`'s shape when one is given.
    fn every_cloud(topology: Option<&str>) -> SolutionRequest {
        let builder = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap();
        match topology {
            Some(name) => builder.topology(name),
            None => builder,
        }
        .build()
        .unwrap()
    }

    #[test]
    fn bnb_engine_matches_exhaustive_archetype_winner() {
        // The hybrid catalog's regional and global archetypes (5,184 and
        // 46,656 variants a cloud) run past the cap: the proven winner is
        // the streaming enumeration's, bit for bit, and stands alone.
        let catalog = uptime_catalog::extended::hybrid_catalog();
        let svc = BrokerService::new(catalog.clone());
        for (archetype, variants) in [(Archetype::Regional, 5_184), (Archetype::Global, 46_656)] {
            let request = every_cloud(Some(archetype.name()));
            let rec = svc.recommend(&request).unwrap();
            assert_eq!(rec.clouds().len(), 3);
            for cloud in rec.clouds() {
                let space = archetype.space(&catalog, cloud.cloud()).unwrap();
                assert_eq!(space.assignment_count(), variants);
                let oracle = composition::search(&space, &request.tco_model(), Objective::MinTco);
                let name = archetype.name();
                assert_eq!(cloud.best().evaluation(), oracle.best().unwrap(), "{name}");
                assert_eq!(cloud.options().len(), 1, "{name}: trimmed to the winner");
                assert_eq!(u128::from(cloud.stats().considered()), variants, "{name}");
            }
        }
    }

    #[test]
    fn unknown_topology_rejected() {
        let err = service()
            .recommend(&archetype_request("orbital"))
            .unwrap_err();
        match err {
            BrokerError::InvalidRequest { reason } => {
                assert!(reason.contains("orbital"), "{reason}");
                assert!(reason.contains("zonal"), "lists the valid names: {reason}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn archetype_with_as_is_rejected_at_recommend_time() {
        // Wire requests bypass the builder's validation, so recommend
        // itself must reject the combination.
        let serde::Value::Object(mut map) = serde_json::to_value(&paper_request()) else {
            panic!("requests serialize as objects");
        };
        map.insert(
            "topology".to_owned(),
            serde_json::to_value(&"regional".to_owned()),
        );
        let request = SolutionRequest::from_value(&serde::Value::Object(map)).unwrap();
        assert!(matches!(
            service().recommend(&request),
            Err(BrokerError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn metacloud_rejects_topology() {
        let err = service()
            .recommend_metacloud(&archetype_request("regional"))
            .unwrap_err();
        assert!(matches!(err, BrokerError::InvalidRequest { .. }));
    }

    #[test]
    fn branch_bound_engine_matches_exhaustive_winner() {
        // Past the cap the serial winner and the as-is row are the
        // exhaustive table's rows, bit for bit.
        let request = thirteen_compute_tiers();
        let svc = service();
        let table = exhaustive_table(&svc, &request);
        let rec = svc.recommend(&request).unwrap();
        let cloud = &rec.clouds()[0];
        assert_eq!(
            cloud.best().evaluation(),
            table.best().unwrap(),
            "branch-and-bound must agree with the table on the winner bit-for-bit"
        );
        let as_is = cloud.as_is().unwrap().evaluation();
        let row = table
            .evaluations()
            .iter()
            .find(|e| e.assignment() == as_is.assignment())
            .unwrap();
        assert_eq!(as_is, row);
    }

    #[test]
    fn branch_bound_engine_matches_metacloud_placement() {
        // The metacloud answer is the streaming enumeration's winner over
        // the same joint space, bit for bit.
        let catalog = uptime_catalog::extended::hybrid_catalog();
        let request = every_cloud(None);
        let meta = BrokerService::new(catalog.clone())
            .recommend_metacloud(&request)
            .unwrap();
        let clouds: Vec<CloudId> = catalog.cloud_ids().cloned().collect();
        let (space, _) = crate::metacloud::joint_space(&catalog, &clouds, request.tiers()).unwrap();
        let oracle = composition::search(&space, &request.tco_model(), Objective::MinTco);
        assert_eq!(meta.evaluation(), oracle.best().unwrap());
    }

    #[test]
    fn engine_parses_and_displays() {
        // The frontier report names the engine the size rule ran, and the
        // name survives the wire: the sweep below the cap, bnb past it.
        let request = |hybrid: bool, topology: &str| {
            let base = SolutionRequest::builder()
                .tiers(ComponentKind::paper_tiers())
                .penalty_per_hour(100.0)
                .unwrap()
                .topology(topology);
            let spec = uptime_slo::SloSpec::from_json_str(
                r#"{ "objectives": [ { "metric": "uptime", "threshold": 98.0, "mode": "hard" } ] }"#,
            )
            .unwrap();
            let svc = if hybrid {
                BrokerService::new(uptime_catalog::extended::hybrid_catalog())
            } else {
                service()
            };
            svc.solve_slo(&FrontierRequest::from_spec(base, spec).unwrap())
                .unwrap()
        };
        for (report, engine) in [
            (request(false, "global"), "exhaustive"),
            (request(true, "multi-zonal"), "exhaustive"),
            (request(true, "global"), "bnb"),
        ] {
            assert_eq!(report.engine(), engine);
            let wire = serde_json::to_value(&report);
            assert_eq!(
                wire.get("engine").and_then(serde::Value::as_str),
                Some(engine)
            );
            assert_eq!(FrontierReport::from_value(&wire).unwrap(), report);
        }
    }

    #[test]
    fn option_numbering_matches_paper_descriptions() {
        let rec = service().recommend(&paper_request()).unwrap();
        let cloud = &rec.clouds()[0];
        let labels: Vec<Vec<&str>> = cloud
            .options()
            .iter()
            .map(|o| o.labels().iter().map(String::as_str).collect())
            .collect();
        assert_eq!(labels[0], ["None", "None", "None"]); // #1
        assert_eq!(labels[1], ["None", "None", "Dual Node GW Cluster"]); // #2
        assert_eq!(labels[2], ["None", "RAID 1", "None"]); // #3
        assert_eq!(labels[3], ["VMware HA (3+1)", "None", "None"]); // #4
        assert_eq!(labels[4], ["None", "RAID 1", "Dual Node GW Cluster"]); // #5
        assert_eq!(
            labels[5],
            ["VMware HA (3+1)", "None", "Dual Node GW Cluster"]
        ); // #6
        assert_eq!(labels[6], ["VMware HA (3+1)", "RAID 1", "None"]); // #7
        assert_eq!(
            labels[7],
            ["VMware HA (3+1)", "RAID 1", "Dual Node GW Cluster"]
        );
        // #8
    }

    #[test]
    fn unknown_cloud_rejected() {
        let request = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .cloud(CloudId::new("ghost"))
            .build()
            .unwrap();
        assert!(matches!(
            service().recommend(&request),
            Err(BrokerError::UnknownCloud { .. })
        ));
    }

    #[test]
    fn empty_clouds_means_all() {
        let request = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .build()
            .unwrap();
        let rec = service().recommend(&request).unwrap();
        assert_eq!(rec.clouds().len(), 1, "case-study catalog has one cloud");
    }

    #[test]
    fn bad_as_is_method_rejected() {
        let request = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .as_is(vec![
                HaMethodId::new("raid1"), // wrong tier: raid1 is storage
                HaMethodId::new("raid1"),
                HaMethodId::new("dual-gw"),
            ])
            .build()
            .unwrap();
        assert!(matches!(
            service().recommend(&request),
            Err(BrokerError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn plan_for_best_option() {
        let svc = service();
        let rec = svc.recommend(&paper_request()).unwrap();
        let cloud = &rec.clouds()[0];
        let plan = svc
            .plan(cloud.cloud(), &ComponentKind::paper_tiers(), cloud.best())
            .unwrap();
        assert_eq!(plan.steps().len(), 3);
        // Option #3: singleton compute, RAID-1 pair, singleton gateway.
        assert_eq!(plan.steps()[0].nodes(), 1);
        assert_eq!(plan.steps()[1].nodes(), 2);
        assert_eq!(plan.steps()[2].nodes(), 1);
        assert_eq!(plan.total_nodes(), 4);
    }

    #[test]
    fn telemetry_ingestion_updates_catalog() {
        let svc = service();
        let provider = SimulatedProvider::new(case_study::cloud_id(), "sim").with_ground_truth(
            ComponentKind::Storage,
            GroundTruth {
                // Ground truth differs from the catalog's 5 %: the broker
                // should move toward it as evidence accumulates.
                down_probability: Probability::new(0.10).unwrap(),
                failures_per_year: FailuresPerYear::new(4.0).unwrap(),
            },
        );
        let before = svc
            .catalog_snapshot()
            .cloud(&case_study::cloud_id())
            .unwrap()
            .reliability(ComponentKind::Storage)
            .unwrap()
            .down_probability()
            .value();

        let telemetry = provider
            .harvest_component_telemetry(ComponentKind::Storage, 50, 100.0, 5)
            .unwrap();
        let estimate = svc
            .ingest_component_telemetry(&case_study::cloud_id(), ComponentKind::Storage, &telemetry)
            .unwrap();
        assert!((estimate.down_probability().value() - 0.10).abs() < 0.02);

        let after = svc
            .catalog_snapshot()
            .cloud(&case_study::cloud_id())
            .unwrap()
            .reliability(ComponentKind::Storage)
            .unwrap()
            .down_probability()
            .value();
        assert!(after > before, "catalog belief moved toward ground truth");
    }

    fn storage_provider(p: f64, f: f64) -> SimulatedProvider {
        SimulatedProvider::new(case_study::cloud_id(), "sim").with_ground_truth(
            ComponentKind::Storage,
            GroundTruth {
                down_probability: Probability::new(p).unwrap(),
                failures_per_year: FailuresPerYear::new(f).unwrap(),
            },
        )
    }

    fn catalog_storage_p(svc: &BrokerService) -> f64 {
        svc.catalog_snapshot()
            .cloud(&case_study::cloud_id())
            .unwrap()
            .reliability(ComponentKind::Storage)
            .unwrap()
            .down_probability()
            .value()
    }

    #[test]
    fn sync_telemetry_happy_path() {
        let svc = service();
        svc.register_provider(Box::new(storage_provider(0.10, 4.0)));
        let estimate = svc
            .sync_telemetry(
                &case_study::cloud_id(),
                ComponentKind::Storage,
                50,
                100.0,
                5,
            )
            .unwrap();
        assert!((estimate.down_probability().value() - 0.10).abs() < 0.02);
        let health = svc.health();
        assert!(!health.degraded);
        assert_eq!(health.providers.len(), 1);
        assert_eq!(health.providers[0].batches_absorbed, 1);
        assert_eq!(health.providers[0].state, BreakerState::Closed);
        assert!(svc.incidents().is_empty());
    }

    #[test]
    fn sync_without_registered_provider_is_provider_unavailable() {
        let svc = service();
        assert!(matches!(
            svc.sync_telemetry(&case_study::cloud_id(), ComponentKind::Storage, 10, 1.0, 1),
            Err(BrokerError::ProviderUnavailable { .. })
        ));
    }

    #[test]
    fn repeated_faults_trip_breaker_and_degrade_recommendations() {
        use crate::chaos::{ChaosConfig, ChaosProvider};
        let svc = service();
        let config = ChaosConfig::quiet(7).with_harvest_timeout_rate(1.0);
        svc.register_provider(Box::new(ChaosProvider::new(
            storage_provider(0.10, 4.0),
            config,
        )));

        // Default breaker trips after 3 consecutive failed syncs.
        for round in 0..3 {
            let err = svc
                .sync_telemetry(
                    &case_study::cloud_id(),
                    ComponentKind::Storage,
                    10,
                    1.0,
                    round,
                )
                .unwrap_err();
            assert!(matches!(err, BrokerError::Timeout { .. }), "{err}");
        }
        let health = svc.health();
        assert_eq!(health.providers[0].state, BreakerState::Open);
        assert!(health.degraded);
        assert!(svc
            .incidents()
            .iter()
            .any(|i| i.category == IncidentCategory::BreakerOpened));

        // While open, calls are rejected without reaching the provider.
        assert!(matches!(
            svc.sync_telemetry(&case_study::cloud_id(), ComponentKind::Storage, 10, 1.0, 9),
            Err(BrokerError::CircuitOpen { .. })
        ));

        // Recommendations still flow, annotated as degraded.
        let rec = svc.recommend(&paper_request()).unwrap();
        assert!(rec.is_degraded());
        let meta = rec.degraded().unwrap();
        assert_eq!(meta.stale_clouds, vec![case_study::cloud_id()]);
        assert!(meta.note.contains("last known-good catalog"));
        // The degraded answer itself is the unchanged Fig. 10 answer.
        assert_eq!(rec.clouds()[0].best().option_number(), 3);
    }

    #[test]
    fn corrupted_batches_are_quarantined_not_absorbed() {
        use crate::chaos::{ChaosConfig, ChaosProvider};
        let svc = service();
        let config = ChaosConfig::quiet(11).with_corrupt_rate(1.0);
        svc.register_provider(Box::new(ChaosProvider::new(
            storage_provider(0.10, 4.0),
            config,
        )));
        let before = catalog_storage_p(&svc);

        for round in 0..4 {
            let err = svc
                .sync_telemetry(
                    &case_study::cloud_id(),
                    ComponentKind::Storage,
                    10,
                    5.0,
                    round,
                )
                .unwrap_err();
            assert!(
                matches!(err, BrokerError::TelemetryRejected { .. }),
                "{err}"
            );
        }
        assert_eq!(catalog_storage_p(&svc), before, "catalog untouched");
        let health = svc.health();
        assert_eq!(health.providers[0].batches_quarantined, 4);
        assert_eq!(health.providers[0].quarantined_streak, 4);
        assert!(health.degraded, "sustained quarantine degrades the broker");
        assert!(svc
            .incidents()
            .iter()
            .all(|i| i.category == IncidentCategory::TelemetryRejected));
        let rec = svc.recommend(&paper_request()).unwrap();
        assert_eq!(rec.degraded().unwrap().quarantined_batches, 4);
    }

    #[test]
    fn implausible_estimates_are_gated() {
        let svc = service();
        // Ground truth wildly off the catalog's 5 % belief (0.9 is far
        // outside both the P99 band and the 0.15 drift slack).
        svc.register_provider(Box::new(storage_provider(0.9, 4.0)));
        let before = catalog_storage_p(&svc);
        let err = svc
            .sync_telemetry(&case_study::cloud_id(), ComponentKind::Storage, 50, 20.0, 3)
            .unwrap_err();
        assert!(
            matches!(err, BrokerError::TelemetryRejected { .. }),
            "{err}"
        );
        assert_eq!(catalog_storage_p(&svc), before);
        assert!(svc
            .incidents()
            .iter()
            .any(|i| i.category == IncidentCategory::ImplausibleEstimate));
    }

    #[test]
    fn breaker_recovers_after_faults_stop() {
        use crate::chaos::{ChaosConfig, ChaosProvider};
        let svc = service().with_circuit_breaker(crate::resilience::CircuitBreaker::new(2, 1));
        let config = ChaosConfig::quiet(13).with_harvest_timeout_rate(1.0);
        let chaotic = ChaosProvider::new(storage_provider(0.10, 4.0), config);
        svc.register_provider(Box::new(chaotic));
        for round in 0..2 {
            let _ = svc.sync_telemetry(
                &case_study::cloud_id(),
                ComponentKind::Storage,
                10,
                1.0,
                round,
            );
        }
        assert_eq!(svc.health().providers[0].state, BreakerState::Open);

        // Replace with a healthy provider but keep driving the same slot:
        // instead, register a fresh healthy provider — breaker resets.
        svc.register_provider(Box::new(storage_provider(0.10, 4.0)));
        let estimate = svc
            .sync_telemetry(
                &case_study::cloud_id(),
                ComponentKind::Storage,
                50,
                100.0,
                5,
            )
            .unwrap();
        assert!((estimate.down_probability().value() - 0.10).abs() < 0.02);
        assert_eq!(svc.health().providers[0].state, BreakerState::Closed);
    }

    #[test]
    fn incident_ring_evicts_but_seqs_and_total_stay_monotonic() {
        use crate::chaos::{ChaosConfig, ChaosProvider};
        let svc = service().with_incident_capacity(2);
        let config = ChaosConfig::quiet(11).with_corrupt_rate(1.0);
        svc.register_provider(Box::new(ChaosProvider::new(
            storage_provider(0.10, 4.0),
            config,
        )));
        for round in 0..5 {
            let _ = svc.sync_telemetry(
                &case_study::cloud_id(),
                ComponentKind::Storage,
                10,
                5.0,
                round,
            );
        }
        let incidents = svc.incidents();
        assert_eq!(incidents.len(), 2, "ring capped at 2");
        assert_eq!(
            incidents.iter().map(|i| i.seq).collect::<Vec<_>>(),
            vec![3, 4],
            "retained entries keep their original seqs"
        );
        assert_eq!(
            svc.health().incident_count,
            5,
            "lifetime count unaffected by eviction"
        );
    }

    fn scratch_state_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "uptime-svc-durability-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn drive_absorbs(svc: &BrokerService, rounds: u64) {
        svc.register_provider(Box::new(storage_provider(0.10, 4.0)));
        for round in 0..rounds {
            svc.sync_telemetry(
                &case_study::cloud_id(),
                ComponentKind::Storage,
                20,
                5.0,
                round * 31,
            )
            .unwrap();
        }
    }

    #[test]
    fn durable_service_recovers_state_bit_identically() {
        let dir = scratch_state_dir("roundtrip");
        let reference = service();
        drive_absorbs(&reference, 4);

        let (svc, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert_eq!(report.replayed, 0, "fresh state dir");
        drive_absorbs(&svc, 4);
        assert_eq!(svc.telemetry_epoch(), 4);
        drop(svc); // crash-only: no graceful shutdown path exists

        let (recovered, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert_eq!(report.replayed, 4);
        assert!(report.truncation.is_none());
        assert_eq!(recovered.telemetry_epoch(), 4, "epoch continuity");
        assert_eq!(
            recovered.catalog_snapshot(),
            reference.catalog_snapshot(),
            "recovered knowledge base matches an uninterrupted run"
        );
        let want = reference.recommend(&paper_request()).unwrap();
        let got = recovered.recommend(&paper_request()).unwrap();
        assert_eq!(
            want.clouds()[0].best().evaluation(),
            got.clouds()[0].best().evaluation()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_tail_truncates_and_logs_incident() {
        use std::io::Write;
        let dir = scratch_state_dir("torn");
        let (svc, _) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        drive_absorbs(&svc, 3);
        drop(svc);
        // Tear the tail: append garbage that is not a valid record.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("journal.log"))
                .unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let (recovered, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert_eq!(report.replayed, 3, "valid prefix fully replayed");
        assert!(report.truncation.is_some());
        assert!(report.repaired);
        assert_eq!(recovered.telemetry_epoch(), 3);
        let incidents = recovered.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].category, IncidentCategory::JournalTruncated);
        // The repair restored the invariant: a third restart is clean.
        drop(recovered);
        let (_, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert!(report.truncation.is_none(), "repaired file replays clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_accelerates_and_compaction_preserves_state() {
        let dir = scratch_state_dir("compact");
        let (svc, _) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir).with_snapshot_every(2))
            .unwrap();
        drive_absorbs(&svc, 5);
        drop(svc);

        let (svc, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert!(report.snapshot_used);
        assert!(
            report.skipped_by_snapshot >= 2,
            "snapshot skipped replay work"
        );
        assert_eq!(
            report.skipped_by_snapshot + report.replayed,
            5,
            "snapshot + suffix covers every record"
        );
        assert_eq!(svc.telemetry_epoch(), 5);

        // Explicit compaction: journal shrinks to zero, state survives.
        svc.compact_state().unwrap();
        let catalog_before = svc.catalog_snapshot();
        drop(svc);
        assert_eq!(
            std::fs::metadata(dir.join("journal.log")).unwrap().len(),
            0,
            "compaction physically truncated the journal"
        );
        let (svc, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert!(report.snapshot_used);
        assert_eq!(report.journal_records, 0);
        assert_eq!(svc.telemetry_epoch(), 5);
        assert_eq!(svc.catalog_snapshot(), catalog_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_recovery_is_a_dry_run() {
        let dir = scratch_state_dir("verify");
        let (svc, _) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        drive_absorbs(&svc, 2);
        drop(svc);
        let before = std::fs::read(dir.join("journal.log")).unwrap();

        let probe = service();
        let report = probe.verify_recovery(&dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(!report.repaired);
        assert_eq!(report.epoch, 2);
        assert_eq!(
            std::fs::read(dir.join("journal.log")).unwrap(),
            before,
            "dry run never modifies the journal"
        );

        // A durability-attached service refuses to verify onto itself.
        let (attached, _) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert!(matches!(
            attached.verify_recovery(&dir),
            Err(BrokerError::Durability { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_falls_back_to_full_replay() {
        let dir = scratch_state_dir("nosnap");
        let (svc, _) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir).with_snapshot_every(2))
            .unwrap();
        drive_absorbs(&svc, 4);
        let reference_catalog = svc.catalog_snapshot();
        drop(svc);
        std::fs::remove_file(dir.join("snapshot.json")).unwrap();
        std::fs::remove_file(dir.join("snapshot.manifest")).unwrap();

        let (recovered, report) = service()
            .with_durability(crate::durability::DurabilityConfig::new(&dir))
            .unwrap();
        assert!(!report.snapshot_used);
        assert_eq!(report.replayed, 4, "journal alone fully recovers");
        assert_eq!(recovered.telemetry_epoch(), 4);
        assert_eq!(recovered.catalog_snapshot(), reference_catalog);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingestion_for_unknown_cloud_fails() {
        let svc = service();
        let provider = SimulatedProvider::new("ghost", "ghost").with_ground_truth(
            ComponentKind::Storage,
            GroundTruth {
                down_probability: Probability::new(0.1).unwrap(),
                failures_per_year: FailuresPerYear::new(2.0).unwrap(),
            },
        );
        let telemetry = provider
            .harvest_component_telemetry(ComponentKind::Storage, 2, 1.0, 1)
            .unwrap();
        assert!(matches!(
            svc.ingest_component_telemetry(
                &CloudId::new("ghost"),
                ComponentKind::Storage,
                &telemetry
            ),
            Err(BrokerError::UnknownCloud { .. })
        ));
    }
}
