//! The top-level simulation: event loop over a serial system.

use uptime_core::{FailureDynamics, SystemSpec};

use crate::accountant::DowntimeAccountant;
use crate::cluster::{ClusterSim, FailureOutcome};
use crate::error::SimError;
use crate::events::{EventKind, EventQueue};
use crate::report::{ClusterReport, SimReport};
use crate::rng::ExpSampler;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEventKind};

/// Configuration for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    horizon: SimDuration,
    seed: u64,
    capture_trace: bool,
    log_outages: bool,
}

impl SimConfig {
    /// Simulates for the given number of years.
    #[must_use]
    pub fn years(years: f64) -> Self {
        SimConfig {
            horizon: SimTime::from_years(years).since(SimTime::ZERO),
            seed: 0,
            capture_trace: false,
            log_outages: false,
        }
    }

    /// Simulates for an explicit duration.
    #[must_use]
    pub fn horizon(horizon: SimDuration) -> Self {
        SimConfig {
            horizon,
            seed: 0,
            capture_trace: false,
            log_outages: false,
        }
    }

    /// Sets the RNG seed (default 0).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables trace capture (off by default; traces can be large).
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }

    /// Additionally records every system outage interval, for workload
    /// riders (see [`crate::workload`]).
    #[must_use]
    pub fn with_outage_log(mut self) -> Self {
        self.log_outages = true;
        self
    }
}

struct NodeDynamics {
    mtbf_ms: f64,
    mttr_ms: f64,
}

/// A ready-to-run simulation of one [`SystemSpec`].
pub struct Simulation {
    clusters: Vec<ClusterSim>,
    dynamics: Vec<NodeDynamics>, // per cluster (shared by its nodes)
    config: SimConfig,
}

impl Simulation {
    /// Prepares a simulation of the system.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyHorizon`] for a zero-length horizon.
    /// * [`SimError::InvalidDynamics`] when a cluster's `(P, f)` cannot be
    ///   converted to MTBF/MTTR (see
    ///   [`FailureDynamics::from_paper_params`]).
    pub fn new(system: &SystemSpec, config: SimConfig) -> Result<Self, SimError> {
        if config.horizon == SimDuration::ZERO {
            return Err(SimError::EmptyHorizon);
        }
        let mut clusters = Vec::with_capacity(system.len());
        let mut dynamics = Vec::with_capacity(system.len());
        for spec in system.clusters() {
            let dyn_ = FailureDynamics::from_paper_params(
                spec.node_down_probability(),
                spec.failures_per_year(),
            )
            .map_err(|source| SimError::InvalidDynamics {
                cluster: spec.name().to_owned(),
                source,
            })?;
            clusters.push(ClusterSim::new(
                spec.name(),
                spec.total_nodes(),
                spec.active_nodes(),
                SimDuration::from_model(spec.failover_time()),
            ));
            dynamics.push(NodeDynamics {
                mtbf_ms: dyn_.mtbf().as_minutes().value() * 60_000.0,
                mttr_ms: dyn_.mttr().as_minutes().value() * 60_000.0,
            });
        }
        Ok(Simulation {
            clusters,
            dynamics,
            config,
        })
    }

    /// Runs the event loop to the horizon and returns the report.
    #[must_use]
    pub fn run(self) -> SimReport {
        self.run_full().0
    }

    /// Runs and returns the report, the trace (empty unless
    /// [`SimConfig::with_trace`]) and the outage log (present only with
    /// [`SimConfig::with_outage_log`]).
    #[must_use]
    pub fn run_full(mut self) -> (SimReport, Trace, Option<crate::workload::OutageLog>) {
        let horizon_time = SimTime::ZERO + self.config.horizon;
        let mut queue = EventQueue::new();
        let mut sampler = ExpSampler::seed_from_u64(self.config.seed);
        let mut accountant = DowntimeAccountant::new(self.clusters.len());
        if self.config.log_outages {
            accountant = accountant.with_outage_log();
        }
        let mut trace = Trace::new();

        queue.schedule(horizon_time, EventKind::HorizonReached);
        for (ci, cluster) in self.clusters.iter().enumerate() {
            for node in 0..cluster.total_nodes() as usize {
                let ttf = sampler.sample_exponential_ms(self.dynamics[ci].mtbf_ms);
                queue.schedule(
                    SimTime::ZERO + ttf,
                    EventKind::NodeFailed { cluster: ci, node },
                );
            }
        }

        while let Some(event) = queue.pop() {
            let now = event.at;
            match event.kind {
                EventKind::HorizonReached => break,
                EventKind::NodeFailed { cluster: ci, node } => {
                    let was_down = self.clusters[ci].is_down();
                    let outcome = self.clusters[ci].node_failed(node, now);
                    if self.config.capture_trace {
                        trace.record(now, ci, TraceEventKind::NodeDown { node });
                        if matches!(outcome, FailureOutcome::FailoverStarted { .. }) && !was_down {
                            trace.record(now, ci, TraceEventKind::FailoverStart);
                        }
                    }
                    if let FailureOutcome::FailoverStarted { until, token } = outcome {
                        queue.schedule(until, EventKind::FailoverEnded { cluster: ci, token });
                    }
                    let ttr = sampler.sample_exponential_ms(self.dynamics[ci].mttr_ms.max(1.0));
                    queue.schedule(now + ttr, EventKind::NodeRepaired { cluster: ci, node });
                    accountant.set_cluster_state(ci, self.clusters[ci].is_down(), now);
                }
                EventKind::NodeRepaired { cluster: ci, node } => {
                    self.clusters[ci].node_repaired(node, now);
                    if self.config.capture_trace {
                        trace.record(now, ci, TraceEventKind::NodeUp { node });
                    }
                    let ttf = sampler.sample_exponential_ms(self.dynamics[ci].mtbf_ms);
                    queue.schedule(now + ttf, EventKind::NodeFailed { cluster: ci, node });
                    accountant.set_cluster_state(ci, self.clusters[ci].is_down(), now);
                }
                EventKind::FailoverEnded { cluster: ci, token } => {
                    let was_down = self.clusters[ci].is_down();
                    self.clusters[ci].failover_ended(token, now);
                    let is_down = self.clusters[ci].is_down();
                    if self.config.capture_trace && was_down && !is_down {
                        trace.record(now, ci, TraceEventKind::FailoverEnd);
                    }
                    accountant.set_cluster_state(ci, is_down, now);
                }
            }
        }

        accountant.finalize(horizon_time);
        let clusters = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| ClusterReport {
                name: c.name().to_owned(),
                downtime: accountant.cluster_downtime(i),
                failover_windows: c.failover_windows(),
                breakdowns: c.breakdowns(),
            })
            .collect();
        let outages = accountant.take_outage_log();
        (
            SimReport::new(
                self.config.horizon,
                accountant.system_downtime(),
                accountant.system_outages(),
                clusters,
            ),
            trace,
            outages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uptime_core::{ClusterSpec, FailuresPerYear, Minutes, Probability};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn singleton_system(down: f64, f: f64) -> SystemSpec {
        SystemSpec::builder()
            .cluster(ClusterSpec::singleton("only", p(down), f).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn zero_horizon_rejected() {
        let sys = singleton_system(0.02, 2.0);
        assert!(matches!(
            Simulation::new(&sys, SimConfig::horizon(SimDuration::ZERO)),
            Err(SimError::EmptyHorizon)
        ));
    }

    #[test]
    fn contradictory_dynamics_rejected() {
        let sys = singleton_system(0.5, 0.0);
        assert!(matches!(
            Simulation::new(&sys, SimConfig::years(1.0)),
            Err(SimError::InvalidDynamics { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let sys = singleton_system(0.05, 3.0);
        let a = Simulation::new(&sys, SimConfig::years(10.0).with_seed(9))
            .unwrap()
            .run();
        let b = Simulation::new(&sys, SimConfig::years(10.0).with_seed(9))
            .unwrap()
            .run();
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_availability_converges_to_one_minus_p() {
        let sys = singleton_system(0.05, 4.0);
        let report = Simulation::new(&sys, SimConfig::years(400.0).with_seed(1))
            .unwrap()
            .run();
        let availability = report.availability().value();
        assert!(
            (availability - 0.95).abs() < 0.01,
            "got {availability}, want ≈0.95"
        );
    }

    #[test]
    fn never_failing_system_stays_up() {
        let sys = singleton_system(0.0, 0.0);
        let report = Simulation::new(&sys, SimConfig::years(5.0)).unwrap().run();
        assert_eq!(report.availability().value(), 1.0);
        assert_eq!(report.system_outages(), 0);
    }

    #[test]
    fn serial_system_downtime_is_union() {
        let sys = SystemSpec::builder()
            .cluster(ClusterSpec::singleton("a", p(0.03), 2.0).unwrap())
            .cluster(ClusterSpec::singleton("b", p(0.03), 2.0).unwrap())
            .build()
            .unwrap();
        let report = Simulation::new(&sys, SimConfig::years(300.0).with_seed(2))
            .unwrap()
            .run();
        // Analytic: 1 − 0.97² ≈ 5.91 % downtime.
        let observed = 1.0 - report.availability().value();
        assert!((observed - 0.0591).abs() < 0.01, "got {observed}");
        // Union is at most the sum of the parts.
        let sum = report.clusters()[0].downtime + report.clusters()[1].downtime;
        assert!(report.system_downtime() <= sum);
        assert!(report.system_downtime().as_millis() > 0);
    }

    #[test]
    fn redundant_cluster_beats_singleton() {
        let raid = SystemSpec::builder()
            .cluster(
                ClusterSpec::builder("raid")
                    .total_nodes(2)
                    .standby_budget(1)
                    .node_down_probability(p(0.05))
                    .failures_per_year(FailuresPerYear::new(2.0).unwrap())
                    .failover_time(Minutes::from_seconds(30.0).unwrap())
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let single = singleton_system(0.05, 2.0);
        let raid_report = Simulation::new(&raid, SimConfig::years(300.0).with_seed(3))
            .unwrap()
            .run();
        let single_report = Simulation::new(&single, SimConfig::years(300.0).with_seed(3))
            .unwrap()
            .run();
        assert!(raid_report.availability() > single_report.availability());
        // RAID-1 analytic availability 99.75 % minus a sliver of failover.
        assert!(
            (raid_report.availability().value() - 0.9975).abs() < 0.002,
            "got {}",
            raid_report.availability()
        );
        assert!(raid_report.clusters()[0].failover_windows > 0);
    }

    #[test]
    fn vmware_cluster_failover_rate_matches_model() {
        // f·(K−K̂) ≈ 3 failovers per year when repairs are fast.
        let sys = SystemSpec::builder()
            .cluster(
                ClusterSpec::builder("compute")
                    .total_nodes(4)
                    .standby_budget(1)
                    .node_down_probability(p(0.01))
                    .failures_per_year(FailuresPerYear::new(1.0).unwrap())
                    .failover_time(Minutes::new(6.0).unwrap())
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let years = 500.0;
        let report = Simulation::new(&sys, SimConfig::years(years).with_seed(4))
            .unwrap()
            .run();
        let rate = report.clusters()[0].failover_windows as f64 / years;
        // Actives fail at ~3/yr; nearly all failures find the standby up.
        assert!((rate - 3.0).abs() < 0.25, "got {rate} failovers/yr");
    }

    #[test]
    fn trace_capture_records_node_events() {
        let sys = singleton_system(0.1, 6.0);
        let (report, trace, _) =
            Simulation::new(&sys, SimConfig::years(5.0).with_seed(5).with_trace())
                .unwrap()
                .run_full();
        assert!(report.system_outages() > 0);
        let downs = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::NodeDown { .. }))
            .count();
        let ups = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::NodeUp { .. }))
            .count();
        assert!(downs > 0);
        // Every down is eventually followed by an up or the horizon.
        assert!(ups == downs || ups + 1 == downs);
    }

    #[test]
    fn outage_log_capture_and_workload_rider() {
        use crate::workload::RequestWorkload;
        let sys = singleton_system(0.05, 4.0);
        let (report, _, outages) =
            Simulation::new(&sys, SimConfig::years(50.0).with_seed(8).with_outage_log())
                .unwrap()
                .run_full();
        let outages = outages.expect("log requested");
        // The log's total downtime must equal the report's.
        assert_eq!(outages.total_downtime(), report.system_downtime());
        assert_eq!(outages.len() as u64, report.system_outages());

        // A uniform request stream sees roughly the time availability.
        let workload = RequestWorkload::new(2.0, 99);
        let assessed = workload.assess(&outages, report.horizon());
        let request_availability = assessed.request_availability().value();
        assert!(
            (request_availability - report.availability().value()).abs() < 0.01,
            "request {} vs time {}",
            request_availability,
            report.availability()
        );
    }

    #[test]
    fn without_outage_flag_log_is_absent() {
        let sys = singleton_system(0.05, 4.0);
        let (_, _, outages) = Simulation::new(&sys, SimConfig::years(1.0).with_seed(8))
            .unwrap()
            .run_full();
        assert!(outages.is_none());
    }

    #[test]
    fn without_trace_flag_trace_is_empty() {
        let sys = singleton_system(0.1, 6.0);
        let (_, trace, _) = Simulation::new(&sys, SimConfig::years(2.0).with_seed(6))
            .unwrap()
            .run_full();
        assert!(trace.is_empty());
    }
}
