//! End-to-end tracing acceptance: a daemon with chaos-delayed telemetry
//! harvests and a cold-cache recommend, interrogated through the real
//! `brokerctl trace` client over loopback TCP.
//!
//! Proves the PR 8 contract: the span tree attributes wall-clock time to
//! the stage that actually spent it (the deterministic harvest delay
//! dominates the sync trace), the export validates against the published
//! `schemas/trace.schema.json`, and the CLI renders the same tree.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;

use serde_json::Value;
use uptime_broker::{
    BrokerService, ChaosConfig, ChaosProvider, CloudProvider, ServingBroker, SimulatedProvider,
    SolutionRequest,
};
use uptime_catalog::{case_study, ComponentKind};
use uptime_obs::{FlightRecorder, MetricsRegistry, TraceConfig};
use uptime_serve::{RequestFrame, ResponseFrame, Server, ServerConfig, ServerHandle};

/// Per-harvest deterministic delay: with three observed components, one
/// `sync` round spends at least 3 × this in `broker.sync.harvest`.
const HARVEST_DELAY_MS: u64 = 20;

/// A daemon over the case-study catalog whose single provider sleeps a
/// fixed [`HARVEST_DELAY_MS`] inside every telemetry harvest — otherwise
/// chaos-free, so syncs succeed and the trace is about *time*, not faults.
/// Returns the daemon with the flight recorder it built (tracing is on by
/// default).
fn start_daemon() -> (ServerHandle, Arc<FlightRecorder>) {
    let store = case_study::catalog();
    let broker = Arc::new(BrokerService::new(store.clone()));
    let mut targets = Vec::new();
    for (provider, kinds) in SimulatedProvider::for_catalog(&store) {
        targets.push((provider.id().clone(), kinds));
        broker.register_provider(Box::new(ChaosProvider::new(
            provider,
            ChaosConfig::quiet(7).with_harvest_delay_ms(HARVEST_DELAY_MS),
        )));
    }

    let backend = Arc::new(ServingBroker::new(broker).with_sync_targets(targets));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        ..ServerConfig::default()
    };
    let handle =
        Server::start(backend, config, Arc::new(MetricsRegistry::new())).expect("daemon binds");
    let recorder = handle.flight_recorder().expect("tracing is on by default");
    (handle, recorder)
}

fn call(addr: std::net::SocketAddr, frame: &RequestFrame) -> ResponseFrame {
    let stream = TcpStream::connect(addr).expect("daemon accepts");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut text = serde_json::to_string(frame).expect("frame serializes");
    text.push('\n');
    writer.write_all(text.as_bytes()).expect("send frame");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(&line).expect("response frame parses")
}

fn recommend_frame(id: u64) -> RequestFrame {
    let request = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(98.0)
        .expect("valid sla")
        .penalty_per_hour(100.0)
        .expect("valid rate")
        .build()
        .expect("valid request");
    RequestFrame::new(id, "recommend", serde_json::to_value(&request))
}

fn brokerctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_brokerctl"))
        .args(args)
        .output()
        .expect("brokerctl runs")
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("missing key `{key}` in {value}"))
}

#[test]
fn slowest_trace_attributes_time_to_the_delayed_harvest() {
    let (mut handle, _recorder) = start_daemon();
    let addr = handle.local_addr();

    // A cold-cache recommend (fast) and one sync round (slow: every
    // harvest sleeps HARVEST_DELAY_MS).
    assert_eq!(call(addr, &recommend_frame(1)).code, 200);
    let sync = call(
        addr,
        &RequestFrame::new(2, "sync", serde_json::json!({"seed": 11})),
    );
    assert_eq!(sync.code, 200, "{:?}", sync.error);

    // `brokerctl trace --slowest 1` against the live daemon: the sync
    // trace wins, and its tree must blame the harvest stage.
    let addr_text = addr.to_string();
    let output = brokerctl(&["trace", "--addr", &addr_text, "--slowest", "1", "--json"]);
    assert!(output.status.success(), "{output:?}");
    let export: Value = serde_json::from_slice(&output.stdout).expect("export parses");

    let schema_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace.schema.json"
    );
    let schema: Value =
        serde_json::from_str(&std::fs::read_to_string(schema_path).expect("schema readable"))
            .expect("schema parses");
    uptime_serve::schema::assert_valid(&export, &schema);

    let traces = get(&export, "traces").as_array().expect("traces array");
    assert_eq!(traces.len(), 1, "--slowest 1 returns exactly one trace");
    let slowest = &traces[0];
    assert_eq!(get(slowest, "endpoint").as_str(), Some("sync"));
    let total_ns = get(slowest, "total_ns").as_u64().expect("total_ns");

    let spans = get(slowest, "spans").as_array().expect("spans");
    let harvest_ns: u64 = spans
        .iter()
        .filter(|s| get(s, "name").as_str() == Some("broker.sync.harvest"))
        .map(|s| get(s, "duration_ns").as_u64().unwrap_or(0))
        .sum();
    let floor_ns = 3 * HARVEST_DELAY_MS * 1_000_000;
    assert!(
        harvest_ns >= floor_ns,
        "harvest spans {harvest_ns}ns below the injected {floor_ns}ns"
    );
    assert!(
        harvest_ns * 2 >= total_ns,
        "harvest {harvest_ns}ns should dominate the {total_ns}ns trace"
    );

    // The human rendering names the same guilty stage.
    let human = brokerctl(&["trace", "--addr", &addr_text, "--slowest", "1"]);
    assert!(human.status.success(), "{human:?}");
    let text = String::from_utf8(human.stdout).expect("utf8");
    assert!(text.contains("endpoint=sync"), "{text}");
    assert!(text.contains("broker.sync.harvest"), "{text}");

    // The Chrome trace-event form holds only complete ("X") events.
    let chrome = brokerctl(&["trace", "--addr", &addr_text, "--slowest", "2", "--chrome"]);
    assert!(chrome.status.success(), "{chrome:?}");
    let chrome: Value = serde_json::from_slice(&chrome.stdout).expect("chrome export parses");
    let events = get(&chrome, "traceEvents").as_array().expect("traceEvents");
    assert!(!events.is_empty(), "empty chrome export: {chrome}");
    for event in events {
        assert_eq!(get(event, "ph").as_str(), Some("X"), "{event}");
    }

    // One output form at a time.
    let both = brokerctl(&["trace", "--addr", &addr_text, "--json", "--chrome"]);
    assert!(!both.status.success(), "{both:?}");
    let stderr = String::from_utf8(both.stderr).expect("utf8");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    handle.shutdown();
}

#[test]
fn cold_recommend_trace_reaches_the_optimizer() {
    let (mut handle, recorder) = start_daemon();
    let addr = handle.local_addr();
    assert_eq!(call(addr, &recommend_frame(1)).code, 200);

    let traces = recorder.snapshot();
    let recommend = traces
        .iter()
        .find(|t| t.endpoint == "recommend")
        .expect("recommend trace recorded");
    let names: Vec<&str> = recommend.spans.iter().map(|s| s.name).collect();
    for expected in [
        "serve.request",
        "serve.execute",
        "broker.recommend",
        "optimizer.exhaustive.search",
        "broker.render",
    ] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }

    handle.shutdown();
}

#[test]
fn trace_cli_reports_disabled_tracing_cleanly() {
    let store = case_study::catalog();
    let broker = Arc::new(BrokerService::new(store));
    let backend = Arc::new(ServingBroker::new(broker));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        trace: TraceConfig::disabled(),
        ..ServerConfig::default()
    };
    let mut handle =
        Server::start(backend, config, Arc::new(MetricsRegistry::new())).expect("daemon binds");
    let addr_text = handle.local_addr().to_string();
    let output = brokerctl(&["trace", "--addr", &addr_text]);
    assert!(!output.status.success(), "disabled tracing is an error");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("disabled"), "{stderr}");
    handle.shutdown();
}
