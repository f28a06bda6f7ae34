//! End-to-end checks of the PR 9 SLO frontier path (`solve_slo` and the
//! `frontier` serve endpoint):
//!
//! * the engine the space's size picks (the sweep up to 4,096 variants a
//!   cloud, branch-and-bound past it) answers the exhaustive sweep's
//!   points bit for bit, on serial chains AND archetype composition
//!   spaces, and past-cap answers are byte-identical run to run;
//! * the served endpoint's bytes equal a direct `solve_slo` call, and
//!   stay bit-identical across a telemetry-epoch bump that does not
//!   touch the requested cloud (the report carries no epoch);
//! * hard constraints shape the frontier (cost caps truncate it) and an
//!   unsatisfiable spec surfaces `BrokerError::SloInfeasible`;
//! * soft objectives pick the recommended point.

use std::sync::Arc;

use serde::{Deserialize, Value};
use uptime_broker::{
    BrokerError, BrokerService, FrontierReport, FrontierRequest, ProviderTelemetry, ServingBroker,
    SolutionRequest,
};
use uptime_catalog::{case_study, extended, ComponentKind};
use uptime_optimizer::{pareto_bnb, Archetype, CompositionSpace, SearchSpace};
use uptime_serve::ServeBackend;
use uptime_sim::{SimDuration, SimTime, Trace, TraceEventKind};
use uptime_slo::SloSpec;

fn spec(json: &str) -> SloSpec {
    SloSpec::from_json_str(json).unwrap()
}

/// A paper-tier request against the case-study cloud with the given spec.
fn paper_request(slo: &str) -> FrontierRequest {
    FrontierRequest::from_spec(
        SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .penalty_per_hour(100.0)
            .unwrap(),
        spec(slo),
    )
    .unwrap()
}

const BASIC_SPEC: &str = r#"{ "objectives": [
    { "metric": "uptime", "threshold": 92.0, "mode": "hard" },
    { "metric": "cost", "threshold": 1000.0, "mode": "soft", "weight": 1.0 }
] }"#;

/// [`BASIC_SPEC`] over the paper tiers, optionally in an archetype shape.
fn shaped_request(topology: Option<&str>) -> FrontierRequest {
    let mut base = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .penalty_per_hour(100.0)
        .unwrap();
    if let Some(name) = topology {
        base = base.topology(name);
    }
    FrontierRequest::from_spec(base, spec(BASIC_SPEC)).unwrap()
}

#[test]
fn engines_answer_bit_identically_serial_and_archetype() {
    // Whichever engine the size rule runs, every cloud's points are the
    // exhaustive sweep's, bit for bit, down to each point's methods.
    for (hybrid, archetype, engine) in [
        (false, None, "exhaustive"),
        (false, Some(Archetype::Zonal), "exhaustive"),
        (true, Some(Archetype::Regional), "bnb"),
        (true, Some(Archetype::Global), "bnb"),
    ] {
        let catalog = if hybrid {
            extended::hybrid_catalog()
        } else {
            case_study::catalog()
        };
        let request = shaped_request(archetype.map(Archetype::name));
        let report = BrokerService::new(catalog.clone())
            .solve_slo(&request)
            .unwrap();
        assert_eq!(report.engine(), engine, "{archetype:?}");
        for cloud in report.clouds() {
            let space = match archetype {
                Some(archetype) => archetype.space(&catalog, cloud.cloud()).unwrap(),
                None => CompositionSpace::from_serial(
                    &SearchSpace::from_catalog(&catalog, cloud.cloud(), request.base().tiers())
                        .unwrap(),
                ),
            };
            let oracle = pareto_bnb::composition_sweep(
                &space,
                &request.base().tco_model(),
                &request.constraints(),
                request.spec().epsilon(),
            );
            let served: Vec<_> = cloud
                .points()
                .iter()
                .map(|p| {
                    let axes = [p.cost_per_month(), p.uptime_percent()];
                    let rest = [p.failover_minutes_per_month(), p.tco_total()];
                    (axes, rest, p.labels().to_vec())
                })
                .collect();
            let swept: Vec<_> = oracle
                .points()
                .iter()
                .map(|p| {
                    let axes = [p.ha_cost().value(), p.uptime().as_percent()];
                    let tco = p.evaluation().tco().total().value();
                    let labels = (p.evaluation().assignment().iter().zip(space.leaves()))
                        .map(|(&idx, leaf)| leaf.candidates()[idx].label().to_owned());
                    (
                        axes,
                        [p.failover_minutes_per_month(), tco],
                        labels.collect(),
                    )
                })
                .collect();
            assert_eq!(served, swept, "{archetype:?}");
        }
    }
}

#[test]
fn past_cap_answers_are_byte_identical_across_services() {
    // Past the cap one-thread branch-and-bound answers; its stats depend
    // on nothing but the request, so two fresh services print the same
    // bytes for recommend and frontier alike.
    for topology in ["regional", "global"] {
        let recommend = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(98.0)
            .unwrap()
            .penalty_per_hour(100.0)
            .unwrap()
            .topology(topology)
            .build()
            .unwrap();
        let frontier = shaped_request(Some(topology));
        let answer = || {
            let svc = BrokerService::new(extended::hybrid_catalog());
            let report = svc.solve_slo(&frontier).unwrap();
            assert!(report.clouds().iter().all(|c| c.stats().threads == 1));
            (
                serde_json::to_string(&svc.recommend(&recommend).unwrap()).unwrap(),
                serde_json::to_string(&report).unwrap(),
            )
        };
        assert_eq!(answer(), answer(), "{topology}");
    }
}

#[test]
fn paper_frontier_points_and_recommendation() {
    let report = BrokerService::new(case_study::catalog())
        .solve_slo(&paper_request(BASIC_SPEC))
        .unwrap();
    assert_eq!(report.schema_version(), 1);
    assert_eq!(report.target_uptime_percent(), 92.0);
    let cloud = &report.clouds()[0];
    // The paper's unconstrained frontier is $0 / $350 / $1350 / $3550;
    // the 92% hard floor keeps all four (the free option sits at 92.17%).
    let costs: Vec<f64> = cloud.points().iter().map(|p| p.cost_per_month()).collect();
    assert_eq!(costs, vec![0.0, 350.0, 1350.0, 3550.0]);
    for (i, point) in cloud.points().iter().enumerate() {
        assert_eq!(point.rank(), i + 1);
        assert_eq!(point.labels().len(), 3);
        assert_eq!(point.method_ids().len(), 3);
    }
    // Soft cost cap $1000: $0 and $350 score 0; the tie resolves to the
    // cheaper point, the free deployment.
    let pick = cloud.recommended().unwrap();
    assert_eq!(pick.cost_per_month(), 0.0);
    assert_eq!(pick.soft_score(), 0.0);
    let best = report.best().unwrap();
    assert_eq!(best.1.cost_per_month(), 0.0);
}

#[test]
fn hard_cost_cap_truncates_the_frontier() {
    let capped = paper_request(
        r#"{ "objectives": [
            { "metric": "uptime", "threshold": 92.0, "mode": "hard" },
            { "metric": "cost", "threshold": 500.0, "mode": "hard" }
        ] }"#,
    );
    let report = BrokerService::new(case_study::catalog())
        .solve_slo(&capped)
        .unwrap();
    let costs: Vec<f64> = report.clouds()[0]
        .points()
        .iter()
        .map(|p| p.cost_per_month())
        .collect();
    assert_eq!(costs, vec![0.0, 350.0], "points above the cap must drop");
}

#[test]
fn unsatisfiable_spec_is_a_typed_infeasibility() {
    let impossible = paper_request(
        r#"{ "objectives": [
            { "metric": "uptime", "threshold": 99.999, "mode": "hard" },
            { "metric": "cost", "threshold": 1.0, "mode": "hard" }
        ] }"#,
    );
    let err = BrokerService::new(case_study::catalog())
        .solve_slo(&impossible)
        .unwrap_err();
    let BrokerError::SloInfeasible { reason } = err else {
        panic!("expected SloInfeasible, got {err}");
    };
    assert!(reason.contains("99.999"), "{reason}");
    assert!(reason.contains("$1"), "{reason}");
}

/// A year-scale single-node observation with one short outage: always
/// structurally valid and plausible, so absorbing it bumps the epoch.
fn honest_batch() -> ProviderTelemetry {
    let mut trace = Trace::new();
    trace.record(
        SimTime::from_millis(50_000),
        0,
        TraceEventKind::NodeDown { node: 0 },
    );
    trace.record(
        SimTime::from_millis(52_000),
        0,
        TraceEventKind::NodeUp { node: 0 },
    );
    ProviderTelemetry {
        trace,
        nodes_per_cluster: 1,
        clusters: 1,
        span: SimDuration::from_millis(40_000_000),
    }
}

#[test]
fn served_frontier_is_bit_identical_across_an_epoch_bump() {
    // Multi-cloud catalog; the request pins the nimbus cloud, and the
    // epoch bump lands telemetry on stratus — the requested cloud's
    // inputs are untouched, so the bytes must not move.
    let service = Arc::new(BrokerService::new(extended::hybrid_catalog()));
    let backend = ServingBroker::new(Arc::clone(&service));

    let body = serde_json::json!({
        "tiers": ["Compute", "Storage", "NetworkGateway"],
        "penalty": { "PerHour": { "rate": 100.0 } },
        "clouds": [extended::nimbus_id().as_str()],
        "slo": { "objectives": [
            { "metric": "uptime", "threshold": 92.0, "mode": "hard" },
            { "metric": "failover", "threshold": 120.0, "mode": "soft", "weight": 0.5 }
        ] },
    });
    let request = FrontierRequest::from_value(&body).unwrap();

    let direct_before = serde_json::to_value(&service.solve_slo(&request).unwrap());
    let served_before = backend.handle("frontier", &body).unwrap();
    assert_eq!(served_before, direct_before, "served bytes == direct bytes");

    let epoch_before = backend.epoch();
    service
        .ingest_component_telemetry(
            &extended::stratus_id(),
            ComponentKind::Compute,
            &honest_batch(),
        )
        .unwrap();
    assert_eq!(backend.epoch(), epoch_before + 1, "the epoch must move");

    let served_after = backend.handle("frontier", &body).unwrap();
    let direct_after = serde_json::to_value(&service.solve_slo(&request).unwrap());
    assert_eq!(
        served_after, served_before,
        "an epoch bump that leaves the requested cloud untouched must not change the answer"
    );
    assert_eq!(served_after, direct_after);

    // The fingerprint is epoch-free too: the cache key never moves.
    assert_eq!(
        backend.fingerprint("frontier", &body).unwrap(),
        backend.fingerprint("frontier", &body).unwrap()
    );
}

fn load_schema(name: &str) -> Value {
    let path = format!("{}/../../schemas/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).expect("schema parses")
}

#[test]
fn slo_specs_validate_against_the_checked_in_schema() {
    let schema = load_schema("slo_spec.schema.json");
    // Everything the parser accepts must validate — including the
    // serialized normal form (`to_value` always spells out epsilon
    // and soft weights).
    for accepted in [
        BASIC_SPEC,
        r#"{ "objectives": [ { "metric": "uptime", "threshold": 99.0 } ] }"#,
        r#"{ "epsilon": 1e-6, "objectives": [
            { "metric": "uptime", "threshold": 99.5, "mode": "hard" },
            { "metric": "cost", "threshold": 2000.0, "mode": "soft", "weight": 2.0 },
            { "metric": "failover", "threshold": 5.0, "mode": "soft" }
        ] }"#,
    ] {
        let parsed = spec(accepted);
        uptime_serve::schema::assert_valid(&serde_json::from_str(accepted).unwrap(), &schema);
        uptime_serve::schema::assert_valid(&parsed.to_value(), &schema);
    }
    // And what the parser rejects on shape grounds, the schema rejects too.
    let violations = |text: &str| {
        let mut errors = Vec::new();
        let value: Value = serde_json::from_str(text).unwrap();
        uptime_serve::schema::validate(&value, &schema, "$", &mut errors);
        errors
    };
    for rejected in [
        r#"{ }"#,
        r#"{ "objectives": [ { "metric": "latency", "threshold": 1.0 } ] }"#,
        r#"{ "objectives": [ { "metric": "uptime" } ] }"#,
        r#"{ "objectives": [ { "metric": "uptime", "threshold": 99.0, "bogus": 1 } ] }"#,
        r#"{ "objectives": [ { "metric": "uptime", "threshold": 99.0 } ], "extra": true }"#,
    ] {
        assert!(
            !violations(rejected).is_empty(),
            "schema accepted {rejected}"
        );
        assert!(
            SloSpec::from_json_str(rejected).is_err(),
            "parser accepted {rejected}"
        );
    }
}

#[test]
fn live_reports_validate_against_the_response_schema() {
    let schema = load_schema("frontier_response.schema.json");
    // Below the cap (the sweep) and past it (branch-and-bound).
    for (report, engine) in [
        (
            BrokerService::new(case_study::catalog()).solve_slo(&paper_request(BASIC_SPEC)),
            "exhaustive",
        ),
        (
            BrokerService::new(extended::hybrid_catalog())
                .solve_slo(&shaped_request(Some("global"))),
            "bnb",
        ),
    ] {
        let report: FrontierReport = report.unwrap();
        assert_eq!(report.engine(), engine);
        uptime_serve::schema::assert_valid(&serde_json::to_value(&report), &schema);
    }
    // A cloud with an empty frontier (hard floor met by no point on one
    // cloud of a multi-cloud request) still validates: points [], null
    // recommended_index.
    let report = BrokerService::new(extended::hybrid_catalog())
        .solve_slo(&paper_request(BASIC_SPEC))
        .unwrap();
    uptime_serve::schema::assert_valid(&serde_json::to_value(&report), &schema);
}

#[test]
fn frontier_report_round_trips_through_json() {
    let report = BrokerService::new(case_study::catalog())
        .solve_slo(&paper_request(BASIC_SPEC))
        .unwrap();
    let wire = serde_json::to_value(&report);
    assert_eq!(
        wire.get("schema_version").and_then(Value::as_u64),
        Some(1),
        "schema_version must be on the wire"
    );
    let back = uptime_broker::FrontierReport::from_value(&wire).unwrap();
    assert_eq!(back, report);
}
