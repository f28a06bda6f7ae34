//! Telemetry estimation: the broker's database-building pipeline.
//!
//! The paper assumes the broker "determines and maintains a database of
//! the `P_i` and `f_i` across IaaS components across clouds" and "the
//! `t_i` for various components" (§II.C). This module reconstructs those
//! three quantities from raw infrastructure traces:
//!
//! * `f̂` — observed node failures per node-year,
//! * `P̂` — observed fraction of node-time spent down,
//! * `t̂` — mean observed failover window.
//!
//! Because providers can deliver corrupted or truncated captures, the
//! module also hosts the broker's telemetry quarantine: structural batch
//! validation ([`validate_batch`]) and the statistical plausibility gate
//! ([`QuarantinePolicy`]) applied before an estimate is absorbed into the
//! knowledge base.

use serde::{Deserialize, Serialize};
use uptime_catalog::ReliabilityRecord;
use uptime_core::{ConfidenceLevel, FailuresPerYear, Minutes, Probability, ProbabilityInterval};
use uptime_sim::{SimDuration, SimTime, Trace, TraceEventKind};

use crate::provider::ProviderTelemetry;

/// Parameters recovered from observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatedParameters {
    down_probability: Probability,
    failures_per_year: FailuresPerYear,
    failover_time: Option<Minutes>,
    node_years: f64,
}

impl EstimatedParameters {
    /// Assembles an estimate from already-known parts (used when merging
    /// per-cluster estimates).
    #[must_use]
    pub(crate) fn from_parts(
        down_probability: Probability,
        failures_per_year: FailuresPerYear,
        failover_time: Option<Minutes>,
        node_years: f64,
    ) -> Self {
        EstimatedParameters {
            down_probability,
            failures_per_year,
            failover_time,
            node_years,
        }
    }

    /// Estimated node down-probability `P̂`.
    #[must_use]
    pub fn down_probability(&self) -> Probability {
        self.down_probability
    }

    /// Estimated failure rate `f̂`.
    #[must_use]
    pub fn failures_per_year(&self) -> FailuresPerYear {
        self.failures_per_year
    }

    /// Mean observed failover window `t̂`, if any window was observed.
    #[must_use]
    pub fn failover_time(&self) -> Option<Minutes> {
        self.failover_time
    }

    /// Node-years of observation behind the estimate.
    #[must_use]
    pub fn node_years(&self) -> f64 {
        self.node_years
    }

    /// Converts to a catalog [`ReliabilityRecord`] carrying the evidence
    /// mass.
    #[must_use]
    pub fn to_reliability_record(&self) -> ReliabilityRecord {
        ReliabilityRecord::new(
            self.down_probability,
            self.failures_per_year,
            self.node_years,
        )
    }
}

/// Stateless estimator over traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryEstimator;

impl TelemetryEstimator {
    /// Creates an estimator.
    #[must_use]
    pub fn new() -> Self {
        TelemetryEstimator
    }

    /// Estimates parameters for one cluster's fleet from a trace.
    ///
    /// `node_count` is the number of nodes the trace covers and `span` the
    /// observation window; down intervals still open at the end of the
    /// span are clipped to it.
    #[must_use]
    pub fn estimate(
        &self,
        trace: &Trace,
        cluster: usize,
        node_count: u32,
        span: SimDuration,
    ) -> EstimatedParameters {
        let span_end = SimTime::ZERO + span;
        let mut down_since: std::collections::BTreeMap<usize, SimTime> =
            std::collections::BTreeMap::new();
        let mut total_down = SimDuration::ZERO;
        let mut failures: u64 = 0;
        let mut failover_open: Option<SimTime> = None;
        let mut failover_total = SimDuration::ZERO;
        let mut failover_count: u64 = 0;

        for event in trace.for_cluster(cluster) {
            match event.kind {
                TraceEventKind::NodeDown { node } => {
                    failures += 1;
                    down_since.entry(node).or_insert(event.at);
                }
                TraceEventKind::NodeUp { node } => {
                    if let Some(start) = down_since.remove(&node) {
                        total_down += event.at.since(start);
                    }
                }
                TraceEventKind::FailoverStart => {
                    failover_open.get_or_insert(event.at);
                }
                TraceEventKind::FailoverEnd => {
                    if let Some(start) = failover_open.take() {
                        failover_total += event.at.since(start);
                        failover_count += 1;
                    }
                }
            }
        }
        // Clip intervals still open at the end of the window.
        for (_, start) in down_since {
            total_down += span_end.since(start);
        }

        let node_time_minutes = f64::from(node_count) * span.as_minutes();
        let node_years = node_time_minutes / uptime_core::MINUTES_PER_YEAR;
        let p_hat = if node_time_minutes > 0.0 {
            Probability::saturating(total_down.as_minutes() / node_time_minutes)
        } else {
            Probability::ZERO
        };
        let f_hat = if node_years > 0.0 {
            FailuresPerYear::new(failures as f64 / node_years)
                .expect("counts over positive time are non-negative")
        } else {
            FailuresPerYear::ZERO
        };
        let t_hat = if failover_count > 0 {
            Some(
                Minutes::new(failover_total.as_minutes() / failover_count as f64)
                    .expect("non-negative mean"),
            )
        } else {
            None
        };

        EstimatedParameters {
            down_probability: p_hat,
            failures_per_year: f_hat,
            failover_time: t_hat,
            node_years,
        }
    }
}

/// Structurally validates a harvested telemetry batch.
///
/// A batch passes when its trace could have been produced by an honest
/// capture of the declared frame:
///
/// * timestamps are non-decreasing and never past the declared span;
/// * every event addresses a cluster below `clusters` and (for node
///   events) a node below `nodes_per_cluster`;
/// * per node, `NodeDown` / `NodeUp` strictly alternate starting from up
///   (no double-fail, no orphan repair);
/// * `FailoverEnd` only occurs with at least one failover window open.
///   A single `FailoverEnd` may close several merged windows, matching
///   how the simulator records extended failovers.
///
/// Returns `Err` with a human-readable reason on the first violation.
pub fn validate_batch(telemetry: &ProviderTelemetry) -> Result<(), String> {
    let span_end = SimTime::ZERO + telemetry.span;
    let mut last_at = SimTime::ZERO;
    let mut down: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    let mut open_failovers: std::collections::BTreeMap<usize, u32> =
        std::collections::BTreeMap::new();

    for (i, event) in telemetry.trace.events().iter().enumerate() {
        if event.at < last_at {
            return Err(format!(
                "event {i}: timestamp regresses ({:?} after {:?})",
                event.at, last_at
            ));
        }
        last_at = event.at;
        if event.at > span_end {
            return Err(format!("event {i}: timestamp past declared span"));
        }
        if event.cluster >= telemetry.clusters as usize {
            return Err(format!(
                "event {i}: cluster index {} out of range (frame declares {})",
                event.cluster, telemetry.clusters
            ));
        }
        match event.kind {
            TraceEventKind::NodeDown { node } => {
                if node >= telemetry.nodes_per_cluster as usize {
                    return Err(format!(
                        "event {i}: node index {node} out of range (frame declares {})",
                        telemetry.nodes_per_cluster
                    ));
                }
                if !down.insert((event.cluster, node)) {
                    return Err(format!(
                        "event {i}: node {node} in cluster {} failed while already down",
                        event.cluster
                    ));
                }
            }
            TraceEventKind::NodeUp { node } => {
                if node >= telemetry.nodes_per_cluster as usize {
                    return Err(format!(
                        "event {i}: node index {node} out of range (frame declares {})",
                        telemetry.nodes_per_cluster
                    ));
                }
                if !down.remove(&(event.cluster, node)) {
                    return Err(format!(
                        "event {i}: node {node} in cluster {} repaired while already up",
                        event.cluster
                    ));
                }
            }
            TraceEventKind::FailoverStart => {
                *open_failovers.entry(event.cluster).or_insert(0) += 1;
            }
            TraceEventKind::FailoverEnd => {
                if open_failovers.remove(&event.cluster).is_none() {
                    return Err(format!(
                        "event {i}: failover ended in cluster {} with none open",
                        event.cluster
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Statistical plausibility gate applied before an estimate is absorbed
/// into the catalog.
///
/// A structurally valid batch can still carry a wildly implausible
/// estimate (a capture of the wrong fleet, a unit mix-up). The gate
/// accepts an estimate when either
///
/// * it falls inside the Wald confidence band around the catalog's
///   existing belief at the chosen [`ConfidenceLevel`], or
/// * it is within [`max_probability_shift`](Self::max_probability_shift)
///   of the existing belief in absolute terms — the slack that lets an
///   honest drift (a provider genuinely getting worse) through even when
///   the existing record is heavily evidenced and its band is narrow.
///
/// Records with less than [`min_gate_evidence`](Self::min_gate_evidence)
/// node-years of evidence are not gated at all: a thin prior has no
/// standing to veto fresh observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantinePolicy {
    /// Confidence level of the band around the existing belief.
    pub confidence: ConfidenceLevel,
    /// Absolute down-probability drift always accepted.
    pub max_probability_shift: f64,
    /// Minimum node-years the existing record needs before it can gate.
    pub min_gate_evidence: f64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            confidence: ConfidenceLevel::P99,
            max_probability_shift: 0.15,
            min_gate_evidence: 10.0,
        }
    }
}

impl QuarantinePolicy {
    /// Checks `estimate` against the catalog's `existing` belief.
    ///
    /// Returns `Err` with a reason when the estimate is implausible.
    pub fn plausible(
        &self,
        existing: &ReliabilityRecord,
        estimate: &EstimatedParameters,
    ) -> Result<(), String> {
        if existing.node_years_observed() < self.min_gate_evidence {
            return Ok(());
        }
        let band = ProbabilityInterval::wald(
            existing.down_probability(),
            existing.node_years_observed(),
            self.confidence,
        );
        let p_hat = estimate.down_probability();
        if band.contains(p_hat) {
            return Ok(());
        }
        let shift = (p_hat.value() - existing.down_probability().value()).abs();
        if shift <= self.max_probability_shift {
            return Ok(());
        }
        Err(format!(
            "estimated P̂ = {:.4} implausible: outside {:?} band [{:.4}, {:.4}] \
             around catalog belief {:.4} and |shift| = {:.4} exceeds {:.4}",
            p_hat.value(),
            self.confidence,
            band.lower().value(),
            band.upper().value(),
            existing.down_probability().value(),
            shift,
            self.max_probability_shift
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(min: f64) -> SimTime {
        SimTime::from_minutes(min)
    }

    #[test]
    fn hand_built_trace_estimates_exactly() {
        // One node, observed for one year. Down twice: [100, 5356) and
        // [10000, 10100) minutes → 5356 min total... compute:
        // first outage 5256 min, second 100 min → 5356 min down.
        let mut trace = Trace::new();
        trace.record(at(100.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(5356.0), 0, TraceEventKind::NodeUp { node: 0 });
        trace.record(at(10_000.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(10_100.0), 0, TraceEventKind::NodeUp { node: 0 });

        let span = SimDuration::from_minutes(uptime_core::MINUTES_PER_YEAR);
        let est = TelemetryEstimator::new().estimate(&trace, 0, 1, span);
        assert!((est.failures_per_year().value() - 2.0).abs() < 1e-9);
        let expected_p = 5356.0 / uptime_core::MINUTES_PER_YEAR;
        assert!((est.down_probability().value() - expected_p).abs() < 1e-9);
        assert!((est.node_years() - 1.0).abs() < 1e-12);
        assert!(est.failover_time().is_none());
    }

    #[test]
    fn open_interval_clipped_at_span() {
        let mut trace = Trace::new();
        trace.record(at(90.0), 0, TraceEventKind::NodeDown { node: 0 });
        let span = SimDuration::from_minutes(100.0);
        let est = TelemetryEstimator::new().estimate(&trace, 0, 1, span);
        assert!((est.down_probability().value() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn failover_windows_averaged() {
        let mut trace = Trace::new();
        trace.record(at(10.0), 0, TraceEventKind::FailoverStart);
        trace.record(at(16.0), 0, TraceEventKind::FailoverEnd);
        trace.record(at(50.0), 0, TraceEventKind::FailoverStart);
        trace.record(at(52.0), 0, TraceEventKind::FailoverEnd);
        let est =
            TelemetryEstimator::new().estimate(&trace, 0, 4, SimDuration::from_minutes(100.0));
        // Mean of 6 and 2 minutes.
        assert!((est.failover_time().unwrap().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn other_clusters_ignored() {
        let mut trace = Trace::new();
        trace.record(at(1.0), 5, TraceEventKind::NodeDown { node: 0 });
        let est =
            TelemetryEstimator::new().estimate(&trace, 0, 1, SimDuration::from_minutes(100.0));
        assert_eq!(est.failures_per_year().value(), 0.0);
        assert_eq!(est.down_probability().value(), 0.0);
    }

    #[test]
    fn empty_trace_zero_estimates() {
        let est = TelemetryEstimator::new().estimate(
            &Trace::new(),
            0,
            3,
            SimDuration::from_minutes(1000.0),
        );
        assert_eq!(est.down_probability().value(), 0.0);
        assert_eq!(est.failures_per_year().value(), 0.0);
        assert!(est.failover_time().is_none());
        assert!(est.node_years() > 0.0);
    }

    #[test]
    fn record_conversion_carries_evidence() {
        let mut trace = Trace::new();
        trace.record(at(0.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(10.0), 0, TraceEventKind::NodeUp { node: 0 });
        let span = SimDuration::from_minutes(uptime_core::MINUTES_PER_YEAR * 20.0);
        let est = TelemetryEstimator::new().estimate(&trace, 0, 5, span);
        let record = est.to_reliability_record();
        assert!((record.node_years_observed() - 100.0).abs() < 1e-9);
        assert!(record.is_well_evidenced());
    }

    #[test]
    fn estimates_recover_simulated_ground_truth() {
        use uptime_core::{ClusterSpec, SystemSpec};
        use uptime_sim::{SimConfig, Simulation};
        // Simulate a 10-node fleet of singletons with P=4 %, f=2/yr for
        // 40 years and check the estimator recovers the parameters.
        let p = Probability::new(0.04).unwrap();
        let clusters: Vec<ClusterSpec> = (0..10)
            .map(|i| ClusterSpec::singleton(format!("n{i}"), p, 2.0).unwrap())
            .collect();
        let system = SystemSpec::new(clusters).unwrap();
        let years = 40.0;
        let (_, trace, _) =
            Simulation::new(&system, SimConfig::years(years).with_seed(17).with_trace())
                .unwrap()
                .run_full();

        // Merge the 10 single-node clusters by estimating each and
        // averaging by (equal) evidence.
        let span = SimDuration::from_minutes(uptime_core::MINUTES_PER_YEAR * years);
        let est = TelemetryEstimator::new();
        let records: Vec<_> = (0..10)
            .map(|c| est.estimate(&trace, c, 1, span).to_reliability_record())
            .collect();
        let merged = records
            .iter()
            .skip(1)
            .fold(records[0], |acc, r| acc.merge(r));
        assert!(
            (merged.down_probability().value() - 0.04).abs() < 0.008,
            "P̂ = {}",
            merged.down_probability()
        );
        assert!(
            (merged.failures_per_year().value() - 2.0).abs() < 0.3,
            "f̂ = {}",
            merged.failures_per_year()
        );
        assert!((merged.node_years_observed() - 400.0).abs() < 1e-6);
    }

    fn batch(trace: Trace) -> ProviderTelemetry {
        ProviderTelemetry {
            trace,
            nodes_per_cluster: 2,
            clusters: 2,
            span: SimDuration::from_minutes(1000.0),
        }
    }

    #[test]
    fn clean_batch_validates() {
        let mut trace = Trace::new();
        trace.record(at(5.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(6.0), 0, TraceEventKind::FailoverStart);
        trace.record(at(9.0), 0, TraceEventKind::FailoverEnd);
        trace.record(at(10.0), 0, TraceEventKind::NodeUp { node: 0 });
        trace.record(at(20.0), 1, TraceEventKind::NodeDown { node: 1 });
        assert_eq!(validate_batch(&batch(trace)), Ok(()));
    }

    #[test]
    fn merged_failover_windows_validate() {
        // The simulator records one FailoverEnd for merged windows; two
        // Starts then one End must pass.
        let mut trace = Trace::new();
        trace.record(at(1.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(1.0), 0, TraceEventKind::FailoverStart);
        trace.record(at(2.0), 0, TraceEventKind::NodeDown { node: 1 });
        trace.record(at(2.0), 0, TraceEventKind::FailoverStart);
        trace.record(at(3.0), 0, TraceEventKind::NodeUp { node: 0 });
        trace.record(at(4.0), 0, TraceEventKind::NodeUp { node: 1 });
        trace.record(at(4.0), 0, TraceEventKind::FailoverEnd);
        assert_eq!(validate_batch(&batch(trace)), Ok(()));
    }

    #[test]
    fn structural_violations_rejected() {
        // Timestamp regression.
        let mut trace = Trace::new();
        trace.record(at(10.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(5.0), 0, TraceEventKind::NodeUp { node: 0 });
        assert!(validate_batch(&batch(trace))
            .unwrap_err()
            .contains("regresses"));

        // Cluster out of range.
        let mut trace = Trace::new();
        trace.record(at(1.0), 7, TraceEventKind::NodeDown { node: 0 });
        assert!(validate_batch(&batch(trace))
            .unwrap_err()
            .contains("cluster"));

        // Node out of range.
        let mut trace = Trace::new();
        trace.record(at(1.0), 0, TraceEventKind::NodeDown { node: 9 });
        assert!(validate_batch(&batch(trace))
            .unwrap_err()
            .contains("node index"));

        // Double fail.
        let mut trace = Trace::new();
        trace.record(at(1.0), 0, TraceEventKind::NodeDown { node: 0 });
        trace.record(at(2.0), 0, TraceEventKind::NodeDown { node: 0 });
        assert!(validate_batch(&batch(trace))
            .unwrap_err()
            .contains("already down"));

        // Orphan repair.
        let mut trace = Trace::new();
        trace.record(at(1.0), 0, TraceEventKind::NodeUp { node: 0 });
        assert!(validate_batch(&batch(trace))
            .unwrap_err()
            .contains("already up"));

        // Orphan failover end.
        let mut trace = Trace::new();
        trace.record(at(1.0), 0, TraceEventKind::FailoverEnd);
        assert!(validate_batch(&batch(trace))
            .unwrap_err()
            .contains("none open"));

        // Timestamp past span.
        let mut trace = Trace::new();
        trace.record(at(2000.0), 0, TraceEventKind::NodeDown { node: 0 });
        assert!(validate_batch(&batch(trace)).unwrap_err().contains("span"));
    }

    fn estimate_with_p(p: f64) -> EstimatedParameters {
        EstimatedParameters::from_parts(
            Probability::new(p).unwrap(),
            FailuresPerYear::new(1.0).unwrap(),
            None,
            100.0,
        )
    }

    #[test]
    fn gate_accepts_in_band_and_small_shift() {
        let policy = QuarantinePolicy::default();
        let existing = ReliabilityRecord::new(
            Probability::new(0.05).unwrap(),
            FailuresPerYear::new(2.0).unwrap(),
            1000.0,
        );
        // Inside the Wald band.
        assert_eq!(policy.plausible(&existing, &estimate_with_p(0.055)), Ok(()));
        // Outside the band but within the absolute drift slack — honest
        // degradation of the provider (the case-study ingestion path).
        assert_eq!(policy.plausible(&existing, &estimate_with_p(0.10)), Ok(()));
    }

    #[test]
    fn gate_rejects_wild_estimates() {
        let policy = QuarantinePolicy::default();
        let existing = ReliabilityRecord::new(
            Probability::new(0.05).unwrap(),
            FailuresPerYear::new(2.0).unwrap(),
            1000.0,
        );
        let err = policy
            .plausible(&existing, &estimate_with_p(0.8))
            .unwrap_err();
        assert!(err.contains("implausible"), "{err}");
    }

    #[test]
    fn gate_waived_for_thin_priors() {
        let policy = QuarantinePolicy::default();
        let thin = ReliabilityRecord::new(
            Probability::new(0.05).unwrap(),
            FailuresPerYear::new(2.0).unwrap(),
            2.0,
        );
        assert_eq!(policy.plausible(&thin, &estimate_with_p(0.9)), Ok(()));
    }
}
