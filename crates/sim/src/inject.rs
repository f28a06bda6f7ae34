//! Deterministic failure injection.
//!
//! Instead of stochastic renewal processes, a [`FailureScript`] drives the
//! exact same cluster state machines with hand-written outages. Used by
//! tests to pin down corner-case behaviour (cascades, overlapping windows,
//! breakdown recovery) and by the broker's audit examples.

use serde::{Deserialize, Serialize};
use uptime_core::SystemSpec;

use crate::accountant::DowntimeAccountant;
use crate::cluster::{ClusterSim, FailureOutcome};
use crate::error::SimError;
use crate::events::{EventKind, EventQueue};
use crate::report::{ClusterReport, SimReport};
use crate::time::{SimDuration, SimTime};

/// One scripted node outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedOutage {
    /// Cluster index within the system.
    pub cluster: usize,
    /// Node index within the cluster.
    pub node: usize,
    /// When the node goes down.
    pub start: SimTime,
    /// How long it stays down.
    pub duration: SimDuration,
}

impl ScriptedOutage {
    /// When the node comes back.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A deterministic outage schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureScript {
    outages: Vec<ScriptedOutage>,
}

impl FailureScript {
    /// Creates an empty script.
    #[must_use]
    pub fn new() -> Self {
        FailureScript::default()
    }

    /// Adds an outage.
    #[must_use]
    pub fn outage(
        mut self,
        cluster: usize,
        node: usize,
        start: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.outages.push(ScriptedOutage {
            cluster,
            node,
            start,
            duration,
        });
        self
    }

    /// The scripted outages, in insertion order.
    #[must_use]
    pub fn outages(&self) -> &[ScriptedOutage] {
        &self.outages
    }

    /// Replays the script against the system's cluster shapes over the
    /// given horizon, returning the observed report.
    ///
    /// The stochastic parameters (`P`, `f`) of the system are ignored —
    /// only `K`, `K̂` and `t` matter here.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyHorizon`] for a zero horizon.
    /// * [`SimError::UnknownScriptTarget`] for out-of-range indices.
    /// * [`SimError::ScriptOverlap`] when two outages of the same node
    ///   overlap (a node cannot fail while already down).
    pub fn run(&self, system: &SystemSpec, horizon: SimDuration) -> Result<SimReport, SimError> {
        if horizon == SimDuration::ZERO {
            return Err(SimError::EmptyHorizon);
        }
        // Validate targets and overlaps.
        for o in &self.outages {
            let cluster =
                system
                    .clusters()
                    .get(o.cluster)
                    .ok_or(SimError::UnknownScriptTarget {
                        cluster: o.cluster,
                        node: o.node,
                    })?;
            if o.node >= cluster.total_nodes() as usize {
                return Err(SimError::UnknownScriptTarget {
                    cluster: o.cluster,
                    node: o.node,
                });
            }
        }
        let mut per_node: Vec<ScriptedOutage> = self.outages.clone();
        per_node.sort_by_key(|o| (o.cluster, o.node, o.start));
        for w in per_node.windows(2) {
            if w[0].cluster == w[1].cluster && w[0].node == w[1].node && w[1].start < w[0].end() {
                return Err(SimError::ScriptOverlap {
                    cluster: w[0].cluster,
                    node: w[0].node,
                });
            }
        }

        let mut clusters: Vec<ClusterSim> = system
            .clusters()
            .iter()
            .map(|spec| {
                ClusterSim::new(
                    spec.name(),
                    spec.total_nodes(),
                    spec.active_nodes(),
                    SimDuration::from_model(spec.failover_time()),
                )
            })
            .collect();

        let horizon_time = SimTime::ZERO + horizon;
        let mut queue = EventQueue::new();
        queue.schedule(horizon_time, EventKind::HorizonReached);
        // Schedule from the sorted copy, not insertion order: when one
        // node's outages abut (end == next start), the repair and the next
        // failure share a timestamp and the queue breaks the tie FIFO —
        // insertion order could enqueue the failure first and double-fail
        // the node.
        for o in &per_node {
            if o.start >= horizon_time {
                continue;
            }
            queue.schedule(
                o.start,
                EventKind::NodeFailed {
                    cluster: o.cluster,
                    node: o.node,
                },
            );
            queue.schedule(
                o.end(),
                EventKind::NodeRepaired {
                    cluster: o.cluster,
                    node: o.node,
                },
            );
        }

        let mut accountant = DowntimeAccountant::new(clusters.len());
        while let Some(event) = queue.pop() {
            let now = event.at;
            match event.kind {
                EventKind::HorizonReached => break,
                EventKind::NodeFailed { cluster: ci, node } => {
                    let outcome = clusters[ci].node_failed(node, now);
                    if let FailureOutcome::FailoverStarted { until, token } = outcome {
                        queue.schedule(until, EventKind::FailoverEnded { cluster: ci, token });
                    }
                    accountant.set_cluster_state(ci, clusters[ci].is_down(), now);
                }
                EventKind::NodeRepaired { cluster: ci, node } => {
                    clusters[ci].node_repaired(node, now);
                    accountant.set_cluster_state(ci, clusters[ci].is_down(), now);
                }
                EventKind::FailoverEnded { cluster: ci, token } => {
                    clusters[ci].failover_ended(token, now);
                    accountant.set_cluster_state(ci, clusters[ci].is_down(), now);
                }
            }
        }
        accountant.finalize(horizon_time);

        let cluster_reports = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| ClusterReport {
                name: c.name().to_owned(),
                downtime: accountant.cluster_downtime(i),
                failover_windows: c.failover_windows(),
                breakdowns: c.breakdowns(),
            })
            .collect();
        Ok(SimReport::new(
            horizon,
            accountant.system_downtime(),
            accountant.system_outages(),
            cluster_reports,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uptime_core::{ClusterSpec, FailuresPerYear, Minutes, Probability};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn system() -> SystemSpec {
        SystemSpec::builder()
            .cluster(ClusterSpec::singleton("web", p(0.01), 1.0).unwrap())
            .cluster(
                ClusterSpec::builder("storage")
                    .total_nodes(2)
                    .standby_budget(1)
                    .node_down_probability(p(0.05))
                    .failures_per_year(FailuresPerYear::new(2.0).unwrap())
                    .failover_time(Minutes::new(2.0).unwrap())
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    fn minutes(m: f64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    fn at(m: f64) -> SimTime {
        SimTime::from_minutes(m)
    }

    #[test]
    fn singleton_outage_counts_fully() {
        let report = FailureScript::new()
            .outage(0, 0, at(10.0), minutes(30.0))
            .run(&system(), minutes(1000.0))
            .unwrap();
        assert_eq!(report.system_downtime(), minutes(30.0));
        assert_eq!(report.clusters()[0].downtime, minutes(30.0));
        assert_eq!(report.clusters()[0].breakdowns, 1);
        assert_eq!(report.system_outages(), 1);
    }

    #[test]
    fn redundant_cluster_absorbs_single_outage_with_failover_blip() {
        // Active node of the 1+1 storage cluster fails for an hour:
        // only the 2-minute failover window is service-visible.
        let report = FailureScript::new()
            .outage(1, 0, at(10.0), minutes(60.0))
            .run(&system(), minutes(1000.0))
            .unwrap();
        assert_eq!(report.clusters()[1].downtime, minutes(2.0));
        assert_eq!(report.clusters()[1].failover_windows, 1);
        assert_eq!(report.clusters()[1].breakdowns, 0);
        assert_eq!(report.system_downtime(), minutes(2.0));
    }

    #[test]
    fn standby_outage_is_invisible() {
        let report = FailureScript::new()
            .outage(1, 1, at(10.0), minutes(60.0))
            .run(&system(), minutes(1000.0))
            .unwrap();
        assert_eq!(report.system_downtime(), SimDuration::ZERO);
        assert_eq!(report.availability().value(), 1.0);
    }

    #[test]
    fn double_outage_breaks_redundant_cluster() {
        // Both storage nodes down [20, 50): failover window [10, 12) from
        // the first failure, breakdown [20, 50).
        let report = FailureScript::new()
            .outage(1, 0, at(10.0), minutes(100.0))
            .outage(1, 1, at(20.0), minutes(30.0))
            .run(&system(), minutes(1000.0))
            .unwrap();
        assert_eq!(report.clusters()[1].breakdowns, 1);
        // Downtime: 2 min failover + 30 min breakdown.
        assert_eq!(report.clusters()[1].downtime, minutes(32.0));
    }

    #[test]
    fn simultaneous_cross_cluster_outages_union() {
        let report = FailureScript::new()
            .outage(0, 0, at(10.0), minutes(20.0)) // web down [10, 30)
            .outage(1, 0, at(25.0), minutes(100.0)) // storage failover [25, 27)
            .run(&system(), minutes(1000.0))
            .unwrap();
        // Union: [10, 30) = 20 min (the failover blip is inside it).
        assert_eq!(report.system_downtime(), minutes(20.0));
        assert_eq!(report.system_outages(), 1);
    }

    #[test]
    fn outage_crossing_horizon_is_clipped() {
        let report = FailureScript::new()
            .outage(0, 0, at(90.0), minutes(100.0))
            .run(&system(), minutes(100.0))
            .unwrap();
        assert_eq!(report.system_downtime(), minutes(10.0));
    }

    #[test]
    fn outage_after_horizon_ignored() {
        let report = FailureScript::new()
            .outage(0, 0, at(500.0), minutes(10.0))
            .run(&system(), minutes(100.0))
            .unwrap();
        assert_eq!(report.system_downtime(), SimDuration::ZERO);
    }

    #[test]
    fn validation_errors() {
        let sys = system();
        assert!(matches!(
            FailureScript::new()
                .outage(5, 0, at(1.0), minutes(1.0))
                .run(&sys, minutes(10.0)),
            Err(SimError::UnknownScriptTarget { cluster: 5, .. })
        ));
        assert!(matches!(
            FailureScript::new()
                .outage(1, 7, at(1.0), minutes(1.0))
                .run(&sys, minutes(10.0)),
            Err(SimError::UnknownScriptTarget { node: 7, .. })
        ));
        assert!(matches!(
            FailureScript::new()
                .outage(0, 0, at(1.0), minutes(10.0))
                .outage(0, 0, at(5.0), minutes(10.0))
                .run(&sys, minutes(100.0)),
            Err(SimError::ScriptOverlap { .. })
        ));
        assert!(matches!(
            FailureScript::new().run(&sys, SimDuration::ZERO),
            Err(SimError::EmptyHorizon)
        ));
    }

    #[test]
    fn back_to_back_outages_allowed() {
        // End of first == start of second: no overlap.
        let report = FailureScript::new()
            .outage(0, 0, at(10.0), minutes(5.0))
            .outage(0, 0, at(15.0), minutes(5.0))
            .run(&system(), minutes(100.0))
            .unwrap();
        assert_eq!(report.system_downtime(), minutes(10.0));
    }

    #[test]
    fn back_to_back_outages_allowed_in_any_insertion_order() {
        // Regression: the later outage inserted first. Scheduling used to
        // follow insertion order, so NodeFailed@15 got a lower queue
        // sequence than NodeRepaired@15 and the replay panicked with
        // "failed while already down". Results must not depend on
        // insertion order at all.
        let reversed = FailureScript::new()
            .outage(0, 0, at(15.0), minutes(5.0))
            .outage(0, 0, at(10.0), minutes(5.0))
            .run(&system(), minutes(100.0))
            .unwrap();
        assert_eq!(reversed.system_downtime(), minutes(10.0));

        let forward = FailureScript::new()
            .outage(0, 0, at(10.0), minutes(5.0))
            .outage(0, 0, at(15.0), minutes(5.0))
            .run(&system(), minutes(100.0))
            .unwrap();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn three_abutting_outages_reversed_still_replay() {
        // A longer abutting chain inserted fully reversed, on the
        // redundant cluster for good measure.
        let report = FailureScript::new()
            .outage(1, 0, at(30.0), minutes(10.0))
            .outage(1, 0, at(20.0), minutes(10.0))
            .outage(1, 0, at(10.0), minutes(10.0))
            .run(&system(), minutes(100.0))
            .unwrap();
        // One continuous [10, 40) outage of the active node: a single
        // 2-minute failover window is all the service sees.
        assert_eq!(report.clusters()[1].failover_windows, 1);
        assert_eq!(report.system_downtime(), minutes(2.0));
    }

    #[test]
    fn overlap_detected_regardless_of_insertion_order() {
        // The overlap validator must also be insertion-order independent.
        assert!(matches!(
            FailureScript::new()
                .outage(0, 0, at(5.0), minutes(10.0))
                .outage(0, 0, at(1.0), minutes(10.0))
                .run(&system(), minutes(100.0)),
            Err(SimError::ScriptOverlap {
                cluster: 0,
                node: 0
            })
        ));
    }

    #[test]
    fn empty_script_is_perfect_uptime() {
        let report = FailureScript::new().run(&system(), minutes(100.0)).unwrap();
        assert_eq!(report.availability().value(), 1.0);
        assert!(FailureScript::new().outages().is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let script = FailureScript::new().outage(1, 0, at(3.0), minutes(4.0));
        let json = serde_json::to_string(&script).unwrap();
        let back: FailureScript = serde_json::from_str(&json).unwrap();
        assert_eq!(back, script);
    }
}
