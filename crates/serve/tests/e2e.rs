//! End-to-end daemon tests over real loopback TCP.
//!
//! The daemon here fronts the *real* broker (`uptime-broker` is a
//! dev-dependency; the cycle is dev-only and allowed by cargo), so these
//! tests prove the serving layer's contract:
//!
//! * served responses are bit-identical to direct `BrokerService` calls,
//!   before and after a telemetry-epoch bump;
//! * cache hit/miss/stale counters reconcile exactly with the requests
//!   sent;
//! * a full admission queue sheds instead of hanging;
//! * concurrent identical requests coalesce onto one backend execution;
//! * shutdown drains everything already admitted.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Value;
use uptime_broker::{BrokerService, GroundTruth, ServingBroker, SimulatedProvider};
use uptime_catalog::{case_study, CloudId, ComponentKind};
use uptime_obs::MetricsRegistry;
use uptime_serve::{
    code, BackendError, RequestFrame, ResponseFrame, ServeBackend, Server, ServerConfig,
    ServerHandle,
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A broker over the case-study catalog with one simulated provider per
/// cloud — constructed identically every time, so two instances answer
/// bit-identically and absorb identical telemetry for identical seeds.
fn backend() -> ServingBroker {
    let store = case_study::catalog();
    let broker = Arc::new(BrokerService::new(store.clone()));
    let mut targets: Vec<(CloudId, Vec<ComponentKind>)> = Vec::new();
    for id in store.cloud_ids() {
        let profile = store.cloud(id).expect("listed id resolves");
        let mut provider = SimulatedProvider::new(id.clone(), profile.display_name());
        let mut kinds = Vec::new();
        for kind in profile.observed_components() {
            let record = profile.reliability(kind).expect("observed");
            provider = provider.with_ground_truth(
                kind,
                GroundTruth {
                    down_probability: record.down_probability(),
                    failures_per_year: record.failures_per_year(),
                },
            );
            kinds.push(kind);
        }
        broker.register_provider(Box::new(provider));
        targets.push((id.clone(), kinds));
    }
    ServingBroker::new(broker).with_sync_targets(targets)
}

fn start(backend: Arc<dyn ServeBackend>, workers: usize, queue_depth: usize) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    Server::start(backend, config, Arc::new(MetricsRegistry::new())).expect("daemon binds")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("daemon accepts");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send(&mut self, frame: &RequestFrame) {
        let mut text = serde_json::to_string(frame).expect("frame serializes");
        text.push('\n');
        self.writer.write_all(text.as_bytes()).expect("send frame");
    }

    fn recv(&mut self) -> ResponseFrame {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        serde_json::from_str(&line).expect("response frame parses")
    }

    fn call(&mut self, frame: &RequestFrame) -> ResponseFrame {
        self.send(frame);
        self.recv()
    }
}

fn recommend_frame(id: u64, percent: f64) -> RequestFrame {
    let request = uptime_broker::SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(percent)
        .expect("valid sla")
        .penalty_per_hour(100.0)
        .expect("valid rate")
        .build()
        .expect("valid request");
    RequestFrame::new(id, "recommend", serde_json::to_value(&request))
}

fn frontier_frame(id: u64, threshold: f64) -> RequestFrame {
    let body = serde_json::json!({
        "tiers": ["Compute", "Storage", "NetworkGateway"],
        "penalty": { "PerHour": { "rate": 100.0 } },
        "slo": { "objectives": [
            { "metric": "uptime", "threshold": threshold, "mode": "hard" },
            { "metric": "cost", "threshold": 1000.0, "mode": "soft" }
        ] },
    });
    RequestFrame::new(id, "frontier", body)
}

/// Canonical text form for bit-identical comparisons (the vendored map is
/// a `BTreeMap`, so serialization order is deterministic).
fn text(value: &Value) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle.registry().snapshot().counter(name).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Bit-identical serving, before and after an epoch bump
// ---------------------------------------------------------------------------

#[test]
fn served_responses_are_bit_identical_to_direct_calls() {
    let daemon_backend = backend();
    let mirror = backend();
    let handle = start(Arc::new(daemon_backend), 2, 16);
    let mut client = Client::connect(handle.local_addr());

    for (id, percent) in [(1u64, 98.0), (2, 99.0), (3, 98.0)] {
        let served = client.call(&recommend_frame(id, percent));
        assert_eq!(served.code, code::OK, "{served:?}");
        assert_eq!(served.id, id);
        let direct = mirror
            .handle("recommend", &recommend_frame(id, percent).body)
            .expect("direct call succeeds");
        assert_eq!(
            text(served.body.as_ref().expect("ok body")),
            text(&direct),
            "served response must be byte-for-byte the direct answer"
        );
    }
    // The third call repeated the first: it must have come from cache and
    // still been bit-identical.
    assert_eq!(counter(&handle, "serve.cache.hit"), 1);

    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn epoch_bump_invalidates_cache_and_stays_bit_identical() {
    let daemon_backend = backend();
    let mirror = backend();
    let handle = start(Arc::new(daemon_backend), 2, 16);
    let mut client = Client::connect(handle.local_addr());

    let first = client.call(&recommend_frame(1, 98.0));
    assert_eq!(first.epoch, 0);
    assert!(!first.cached);

    let second = client.call(&recommend_frame(2, 98.0));
    assert!(second.cached, "identical repeat at the same epoch hits");
    assert_eq!(
        text(second.body.as_ref().unwrap()),
        text(first.body.as_ref().unwrap())
    );

    // Absorb telemetry through the daemon AND identically on the mirror.
    let synced = client.call(&RequestFrame::new(3, "sync", Value::Null));
    let new_epoch = synced.epoch;
    assert!(new_epoch > 0, "sync must bump the telemetry epoch");
    let mirror_sync = mirror.handle("sync", &Value::Null).expect("mirror syncs");
    assert_eq!(
        mirror_sync.get("epoch").and_then(Value::as_u64),
        Some(new_epoch),
        "mirror absorbed the same number of batches"
    );

    // The cached entry is now stale: recomputed, not served stale.
    let third = client.call(&recommend_frame(4, 98.0));
    assert!(!third.cached, "stale entries must not be served");
    assert_eq!(third.epoch, new_epoch);
    assert_eq!(counter(&handle, "serve.cache.stale"), 1);

    // And the recomputed answer is bit-identical to a direct call against
    // the identically-synced mirror.
    let direct = mirror
        .handle("recommend", &recommend_frame(4, 98.0).body)
        .expect("direct call succeeds");
    assert_eq!(text(third.body.as_ref().unwrap()), text(&direct));

    // A repeat at the new epoch hits again.
    let fourth = client.call(&recommend_frame(5, 98.0));
    assert!(fourth.cached);
    assert_eq!(text(fourth.body.as_ref().unwrap()), text(&direct));

    let mut handle = handle;
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Counter reconciliation
// ---------------------------------------------------------------------------

#[test]
fn cache_counters_reconcile_exactly() {
    let handle = start(Arc::new(backend()), 2, 16);
    let mut client = Client::connect(handle.local_addr());

    // 5 identical + 3 distinct requests, strictly sequentially: the
    // identical ones produce 1 miss + 4 hits, the distinct ones 3 misses.
    for id in 0..5u64 {
        assert_eq!(client.call(&recommend_frame(id, 98.0)).code, code::OK);
    }
    for (id, percent) in [(5u64, 97.5), (6, 99.0), (7, 99.5)] {
        assert_eq!(client.call(&recommend_frame(id, percent)).code, code::OK);
    }

    // Frontier traffic is cacheable too and attributed separately:
    // 2 identical + 1 distinct → 1 hit, 2 misses on `frontier`.
    for (id, threshold) in [(8u64, 92.0), (9, 92.0), (10, 95.0)] {
        assert_eq!(client.call(&frontier_frame(id, threshold)).code, code::OK);
    }

    assert_eq!(counter(&handle, "serve.cache.hit"), 5);
    assert_eq!(counter(&handle, "serve.cache.miss"), 6);
    assert_eq!(counter(&handle, "serve.cache.stale"), 0);
    assert_eq!(counter(&handle, "serve.shed"), 0);
    assert_eq!(counter(&handle, "serve.responses"), 11);
    assert_eq!(counter(&handle, "serve.cache.recommend.hit"), 4);
    assert_eq!(counter(&handle, "serve.cache.recommend.miss"), 4);
    assert_eq!(counter(&handle, "serve.cache.frontier.hit"), 1);
    assert_eq!(counter(&handle, "serve.cache.frontier.miss"), 2);

    // The stats endpoint reports the same numbers (plus its own response).
    let stats = client.call(&RequestFrame::new(99, "stats", Value::Null));
    let body = stats.body.expect("stats body");
    let cache = body.get("cache").expect("cache section");
    assert_eq!(cache.get("hit").and_then(Value::as_u64), Some(5));
    assert_eq!(cache.get("miss").and_then(Value::as_u64), Some(6));
    assert_eq!(cache.get("size").and_then(Value::as_u64), Some(6));
    // … broken out per endpoint, so frontier cache behavior is visible
    // independently of recommend.
    let by_endpoint = body.get("cache_by_endpoint").expect("per-endpoint section");
    let section = |endpoint: &str, verdict: &str| {
        by_endpoint
            .get(endpoint)
            .and_then(|e| e.get(verdict))
            .and_then(Value::as_u64)
    };
    assert_eq!(section("recommend", "hit"), Some(4));
    assert_eq!(section("recommend", "miss"), Some(4));
    assert_eq!(section("recommend", "stale"), Some(0));
    assert_eq!(section("frontier", "hit"), Some(1));
    assert_eq!(section("frontier", "miss"), Some(2));
    assert_eq!(section("frontier", "stale"), Some(0));

    let mut handle = handle;
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A gate-controlled backend for deterministic overload and drain tests
// ---------------------------------------------------------------------------

/// A backend whose `handle` blocks until the test opens a gate, with
/// per-entry notification so tests can wait until a request is mid-flight.
struct GateBackend {
    calls: AtomicU64,
    entered: Mutex<u64>,
    entered_cv: Condvar,
    open: Mutex<bool>,
    open_cv: Condvar,
}

impl GateBackend {
    fn new() -> Self {
        GateBackend {
            calls: AtomicU64::new(0),
            entered: Mutex::new(0),
            entered_cv: Condvar::new(),
            open: Mutex::new(false),
            open_cv: Condvar::new(),
        }
    }

    /// Blocks until `n` calls have entered `handle`.
    fn wait_entered(&self, n: u64) {
        let mut entered = self.entered.lock().unwrap();
        while *entered < n {
            let (guard, timeout) = self
                .entered_cv
                .wait_timeout(entered, Duration::from_secs(10))
                .unwrap();
            assert!(!timeout.timed_out(), "backend never reached {n} entries");
            entered = guard;
        }
    }

    /// Releases every blocked (and future) `handle` call.
    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.open_cv.notify_all();
    }
}

impl ServeBackend for GateBackend {
    fn epoch(&self) -> u64 {
        0
    }

    fn fingerprint(&self, endpoint: &str, body: &Value) -> Result<Option<u128>, BackendError> {
        match endpoint {
            // Fingerprint = hash of the body text: identical bodies
            // coalesce, distinct bodies do not.
            "echo" => {
                let text = serde_json::to_string(body).expect("body serializes");
                let mut hash = 0xcbf2_9ce4_8422_2325u128;
                for byte in text.bytes() {
                    hash ^= u128::from(byte);
                    hash = hash.wrapping_mul(0x1_0000_0000_01b3);
                }
                Ok(Some(hash))
            }
            other => Err(BackendError::UnknownEndpoint(other.to_owned())),
        }
    }

    fn handle(&self, _endpoint: &str, body: &Value) -> Result<Value, BackendError> {
        {
            let mut entered = self.entered.lock().unwrap();
            *entered += 1;
            self.entered_cv.notify_all();
        }
        let mut open = self.open.lock().unwrap();
        while !*open {
            let (guard, timeout) = self
                .open_cv
                .wait_timeout(open, Duration::from_secs(10))
                .unwrap();
            assert!(!timeout.timed_out(), "gate never opened");
            open = guard;
        }
        drop(open);
        let call = self.calls.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(serde_json::json!({ "echo": body.clone(), "call": call }))
    }
}

fn echo_frame(id: u64, tag: &str) -> RequestFrame {
    RequestFrame::new(id, "echo", serde_json::json!({ "tag": tag }))
}

#[test]
fn full_queue_sheds_rather_than_hangs() {
    let gate = Arc::new(GateBackend::new());
    // One worker, one queue slot: the third distinct request must shed.
    let handle = start(Arc::clone(&gate) as Arc<dyn ServeBackend>, 1, 1);
    let mut client = Client::connect(handle.local_addr());

    client.send(&echo_frame(1, "a"));
    gate.wait_entered(1); // request 1 is mid-flight, not in the queue
    client.send(&echo_frame(2, "b")); // fills the single queue slot
    client.send(&echo_frame(3, "c")); // must shed, immediately

    let shed = client.recv();
    assert_eq!(shed.id, 3, "the shed response arrives while 1 and 2 block");
    assert_eq!(shed.code, code::SHED);
    assert_eq!(counter(&handle, "serve.shed"), 1);

    gate.open_gate();
    let mut done = [client.recv(), client.recv()];
    done.sort_by_key(|r| r.id);
    assert_eq!((done[0].id, done[0].code), (1, code::OK));
    assert_eq!((done[1].id, done[1].code), (2, code::OK));

    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_execution() {
    let gate = Arc::new(GateBackend::new());
    let handle = start(Arc::clone(&gate) as Arc<dyn ServeBackend>, 2, 16);
    let mut client = Client::connect(handle.local_addr());

    client.send(&echo_frame(1, "same"));
    gate.wait_entered(1); // the leader is executing
    client.send(&echo_frame(2, "same")); // identical: must coalesce

    // The second worker has joined the flight once `serve.coalesced`
    // ticks; only then is it deterministic that no second execution runs.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&handle, "serve.coalesced") == 0 {
        assert!(Instant::now() < deadline, "follower never joined");
        std::thread::sleep(Duration::from_millis(5));
    }

    gate.open_gate();
    let mut responses = [client.recv(), client.recv()];
    responses.sort_by_key(|r| r.id);
    assert_eq!(
        text(responses[0].body.as_ref().unwrap()),
        text(responses[1].body.as_ref().unwrap()),
        "leader and follower share one result"
    );
    assert_eq!(
        responses.iter().filter(|r| r.coalesced).count(),
        1,
        "exactly one response is the coalesced follower"
    );
    assert_eq!(
        gate.calls.load(Ordering::Acquire),
        1,
        "the backend executed exactly once"
    );

    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn shutdown_drains_admitted_requests() {
    let gate = Arc::new(GateBackend::new());
    let handle = start(Arc::clone(&gate) as Arc<dyn ServeBackend>, 1, 4);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr);

    client.send(&echo_frame(1, "inflight"));
    gate.wait_entered(1);
    client.send(&echo_frame(2, "queued"));
    let draining = client.call(&RequestFrame::new(3, "shutdown", Value::Null));
    assert_eq!(draining.code, code::OK);

    // The daemon is draining: the two admitted requests must still be
    // answered once the gate opens, then the daemon stops.
    gate.open_gate();
    let mut done = [client.recv(), client.recv()];
    done.sort_by_key(|r| r.id);
    assert_eq!((done[0].id, done[0].code), (1, code::OK));
    assert_eq!((done[1].id, done[1].code), (2, code::OK));

    handle.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "after the drain the listener is closed"
    );
}

// ---------------------------------------------------------------------------
// Concurrency soak: many clients, one answer
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_get_identical_answers_and_counters_balance() {
    let handle = start(Arc::new(backend()), 4, 32);
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                (0..5u64)
                    .map(|i| {
                        let response = client.call(&recommend_frame(c * 10 + i, 98.0));
                        assert_eq!(response.code, code::OK);
                        text(response.body.as_ref().expect("ok body"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut bodies: Vec<String> = Vec::new();
    for client in clients {
        bodies.extend(client.join().expect("client thread"));
    }
    assert_eq!(bodies.len(), 20);
    assert!(
        bodies.iter().all(|b| *b == bodies[0]),
        "every client saw the identical answer"
    );

    // Every request is exactly one of hit/miss (no epoch moved, so no
    // stale); coalesced followers were counted as misses first.
    let hit = counter(&handle, "serve.cache.hit");
    let miss = counter(&handle, "serve.cache.miss");
    let coalesced = counter(&handle, "serve.coalesced");
    assert_eq!(hit + miss, 20, "hit {hit} + miss {miss}");
    assert!(miss >= 1, "someone computed it");
    assert!(coalesced <= miss, "followers are a subset of misses");
    assert_eq!(counter(&handle, "serve.responses"), 20);
    assert_eq!(counter(&handle, "serve.shed"), 0);

    let mut handle = handle;
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Request tracing: byte identity, explain, and the traces endpoint
// ---------------------------------------------------------------------------

/// Sends `frame` and returns the raw response line — for bit-for-bit
/// comparisons the parsed `ResponseFrame` would erase.
fn call_raw(client: &mut Client, frame: &RequestFrame) -> String {
    client.send(frame);
    let mut line = String::new();
    let n = client.reader.read_line(&mut line).expect("read response");
    assert!(n > 0, "daemon closed the connection unexpectedly");
    line
}

fn start_with_trace(
    backend: Arc<dyn ServeBackend>,
    trace: uptime_obs::TraceConfig,
) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        cache_capacity: 64,
        trace,
        ..ServerConfig::default()
    };
    Server::start(backend, config, Arc::new(MetricsRegistry::new())).expect("daemon binds")
}

#[test]
fn tracing_enabled_answers_are_byte_identical_to_tracing_disabled() {
    let mut traced = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::default());
    let mut untraced = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::disabled());
    let mut traced_client = Client::connect(traced.local_addr());
    let mut untraced_client = Client::connect(untraced.local_addr());

    // Same request stream against both daemons: a miss, a hit, a second
    // SLA point. Every response line must be byte-identical — tracing
    // attributes time, it never changes answers.
    for (id, percent) in [(1, 98.0), (2, 98.0), (3, 99.0)] {
        let frame = recommend_frame(id, percent);
        let with = call_raw(&mut traced_client, &frame);
        let without = call_raw(&mut untraced_client, &frame);
        assert_eq!(with, without, "traced vs untraced response lines differ");
    }

    traced.shutdown();
    untraced.shutdown();
}

#[test]
fn explain_returns_span_breakdown_and_leaves_answer_untouched() {
    let mut handle = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::default());
    let mut client = Client::connect(handle.local_addr());

    let plain = client.call(&recommend_frame(1, 98.0));
    assert_eq!(plain.code, code::OK);
    assert!(plain.explain.is_none(), "explain only appears when asked");

    let explained = client.call(&recommend_frame(2, 98.0).with_explain(true));
    assert_eq!(explained.code, code::OK);
    assert_eq!(
        text(plain.body.as_ref().unwrap()),
        text(explained.body.as_ref().unwrap()),
        "explain must not perturb the answer bytes"
    );
    let explain = explained.explain.expect("explain requested");
    let spans = explain
        .get("spans")
        .and_then(Value::as_array)
        .expect("explain carries spans");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"serve.request"), "{names:?}");
    assert!(names.contains(&"serve.cache.lookup"), "{names:?}");
    // The second identical request is a cache hit: no execute span.
    assert!(!names.contains(&"serve.execute"), "{names:?}");

    // A cold request's explain attributes time to the execute stage and
    // reaches down into the broker and optimizer.
    let cold = client.call(&recommend_frame(3, 97.25).with_explain(true));
    let explain = cold.explain.expect("explain requested");
    let spans = explain
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    for expected in ["serve.execute", "broker.recommend"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }

    handle.shutdown();
}

#[test]
fn explain_on_disabled_tracing_daemon_is_omitted() {
    let mut handle = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::disabled());
    let mut client = Client::connect(handle.local_addr());
    let response = client.call(&recommend_frame(1, 98.0).with_explain(true));
    assert_eq!(response.code, code::OK);
    assert!(response.explain.is_none(), "no tracer, no breakdown");
    handle.shutdown();
}

#[test]
fn traces_endpoint_matches_published_schema() {
    let mut handle = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::default());
    let mut client = Client::connect(handle.local_addr());
    for id in 0..4u64 {
        assert_eq!(client.call(&recommend_frame(id, 98.0)).code, code::OK);
    }

    let response = client.call(&RequestFrame::new(9, "traces", serde_json::json!({})));
    assert_eq!(response.code, code::OK);
    let body = response.body.expect("traces body");
    let schema_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace.schema.json"
    );
    let schema: Value =
        serde_json::from_str(&std::fs::read_to_string(schema_path).expect("schema readable"))
            .expect("schema parses");
    uptime_serve::schema::assert_valid(&body, &schema);

    let traces = body
        .get("traces")
        .and_then(Value::as_array)
        .expect("traces");
    assert!(!traces.is_empty(), "requests were recorded");

    // Filtered forms stay within the schema too.
    let slowest = client.call(&RequestFrame::new(
        10,
        "traces",
        serde_json::json!({"slowest": 1}),
    ));
    let slowest_body = slowest.body.expect("slowest body");
    uptime_serve::schema::assert_valid(&slowest_body, &schema);
    assert_eq!(
        slowest_body
            .get("traces")
            .and_then(Value::as_array)
            .map(Vec::len),
        Some(1)
    );

    // Chrome export is a different shape (not schema'd) but must parse
    // and carry one complete event per span.
    let chrome = client.call(&RequestFrame::new(
        11,
        "traces",
        serde_json::json!({"format": "chrome"}),
    ));
    let chrome_body = chrome.body.expect("chrome body");
    let events = chrome_body
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Value::as_str) == Some("X")));

    handle.shutdown();
}

#[test]
fn trace_ids_are_deterministic_across_daemons() {
    // The trace id seeds from the request fingerprint, so two daemons
    // given the same request mint the same id — grep one id across a
    // fleet's flight recorders.
    let trace_id = |handle: &mut ServerHandle| {
        let mut client = Client::connect(handle.local_addr());
        let response = client.call(&recommend_frame(1, 98.0).with_explain(true));
        response
            .explain
            .expect("explain")
            .get("trace_id")
            .and_then(Value::as_str)
            .expect("trace_id")
            .to_owned()
    };
    let mut first = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::default());
    let mut second = start_with_trace(Arc::new(backend()), uptime_obs::TraceConfig::default());
    let a = trace_id(&mut first);
    let b = trace_id(&mut second);
    assert_eq!(a, b, "same request must mint the same trace id");
    first.shutdown();
    second.shutdown();
}

#[test]
fn shed_requests_land_in_the_flight_recorder() {
    let gate = Arc::new(GateBackend::new());
    // One worker, one queue slot, tracing on (the default config).
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 1,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    let handle = Server::start(
        Arc::clone(&gate) as Arc<dyn ServeBackend>,
        config,
        Arc::new(MetricsRegistry::new()),
    )
    .expect("daemon binds");
    let mut client = Client::connect(handle.local_addr());

    client.send(&echo_frame(1, "a"));
    gate.wait_entered(1); // request 1 is mid-flight, not in the queue
    client.send(&echo_frame(2, "b")); // fills the single queue slot
    client.send(&echo_frame(3, "c")); // must shed, immediately

    let shed = client.recv();
    assert_eq!(shed.code, code::SHED);
    gate.open_gate();
    let _ = client.recv();
    let _ = client.recv();

    // Tail sampling always keeps sheds: the refusal is visible in the
    // flight recorder even though no worker ever saw the request.
    let recorder = handle.flight_recorder().expect("tracing enabled");
    assert!(
        recorder
            .errors()
            .iter()
            .any(|t| t.outcome == uptime_obs::TraceOutcome::Shed),
        "shed requests must be kept by tail sampling"
    );
    let mut handle = handle;
    handle.shutdown();
}
