//! The daemon: TCP acceptor, per-connection readers, a bounded admission
//! queue, and a worker pool that answers through the cache and
//! single-flight layers.
//!
//! Each reader splits its socket's bytes into frames with a
//! [`FrameScanner`], which caps how much one connection may buffer.
//!
//! ```text
//!  clients ──► acceptor ──► reader threads ──► BoundedQueue ──► workers
//!                              │    (shed when full: 429)        │
//!                              │                                 ├─► EpochCache (hit?)
//!                              └─ ping/stats/shutdown inline     ├─► SingleFlight (coalesce)
//!                                                                └─► ServeBackend::handle
//! ```
//!
//! Shutdown (a `shutdown` admin frame, or [`ServerHandle::shutdown`]) is a
//! *drain*: the acceptor stops, connection read-halves are closed so
//! readers wind down, the queue is closed, and workers answer everything
//! already admitted before exiting. Nothing admitted is ever dropped.

use std::collections::BTreeMap;
use std::fmt::Write as FmtWrite;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use serde::{Map, Value};
use uptime_obs::{
    trace_seed_from_bytes, trace_seed_from_fingerprint, ActiveTrace, FlightRecorder,
    MetricsRegistry, Recorder, TraceConfig, TraceOutcome, TraceRecord,
};

use crate::backend::{BackendError, ServeBackend};
use crate::cache::{EpochCache, Lookup};
use crate::protocol::{code, RequestFrame, ResponseFrame};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::frame::{FrameScanner, Scan};
use crate::singleflight::{Role, SingleFlight};

/// Bytes a connection reader asks the socket for per read.
const READ_CHUNK: usize = 8 * 1024;

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it requests are shed.
    pub queue_depth: usize,
    /// Maximum cached responses (FIFO eviction).
    pub cache_capacity: usize,
    /// Idle-connection read timeout in milliseconds; a connection that
    /// sends nothing for this long is dropped (`0` disables the timeout).
    /// Defends the per-connection reader threads against slowloris
    /// clients that open sockets and never speak.
    pub read_timeout_ms: u64,
    /// Maximum request-frame length in bytes (the newline excluded). A
    /// longer frame gets a 400 and the connection is dropped — an
    /// unbounded line would otherwise let one client buffer the daemon
    /// into the ground.
    pub max_frame_bytes: usize,
    /// Request-trace tuning. With `trace.enabled = false` the daemon
    /// serves with tracing fully inert (no recorder, no spans, no
    /// atomics) and `traces`/`explain` report tracing as unavailable.
    pub trace: TraceConfig,
    /// A pre-built flight recorder to land traces in — share one with
    /// the backend so its spans and the daemon's frame spans join the
    /// same ring. `None` with `trace.enabled` makes the daemon build its
    /// own private recorder.
    pub flight_recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".to_owned(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 4096,
            read_timeout_ms: 30_000,
            max_frame_bytes: 1024 * 1024,
            trace: TraceConfig::default(),
            flight_recorder: None,
        }
    }
}

/// One admitted request awaiting a worker.
struct Job {
    frame: RequestFrame,
    out: Arc<Mutex<TcpStream>>,
    received: Instant,
}

/// State shared by every daemon thread.
struct Shared {
    backend: Arc<dyn ServeBackend>,
    cache: EpochCache,
    flights: SingleFlight,
    queue: BoundedQueue<Job>,
    registry: Arc<MetricsRegistry>,
    shutdown: AtomicBool,
    inflight: AtomicI64,
    conns: Mutex<Vec<TcpStream>>,
    readers: Mutex<usize>,
    readers_done: Condvar,
    local_addr: SocketAddr,
    read_timeout_ms: u64,
    max_frame_bytes: usize,
    tracer: Option<Arc<FlightRecorder>>,
}

/// The serving daemon. Construct with [`Server::start`].
pub struct Server;

/// A running daemon: join it, inspect it, or shut it down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker threads, and returns a
    /// handle. All metrics flow through `registry` under `serve.*` names.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        backend: Arc<dyn ServeBackend>,
        config: ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ServerHandle> {
        let tracer = if config.trace.enabled {
            Some(
                config
                    .flight_recorder
                    .clone()
                    .unwrap_or_else(|| Arc::new(FlightRecorder::new(config.trace))),
            )
        } else {
            None
        };
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            cache: EpochCache::new(config.cache_capacity),
            flights: SingleFlight::new(),
            queue: BoundedQueue::new(config.queue_depth),
            registry,
            shutdown: AtomicBool::new(false),
            inflight: AtomicI64::new(0),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(0),
            readers_done: Condvar::new(),
            local_addr,
            read_timeout_ms: config.read_timeout_ms,
            max_frame_bytes: config.max_frame_bytes.max(1),
            tracer,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port request).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The metrics registry the daemon records into.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Live cached-entry count (for tests and stats).
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// The flight recorder request traces land in, when tracing is on.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.tracer.clone()
    }

    /// Triggers the drain and blocks until every admitted request has
    /// been answered and all daemon threads have exited. Idempotent.
    pub fn shutdown(&mut self) {
        begin_shutdown(&self.shared);
        self.join_threads();
    }

    /// Blocks until the daemon shuts down (via a `shutdown` admin frame
    /// or another thread calling [`ServerHandle::shutdown`]).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Every response is written; release the write halves.
        self.shared.conns.lock().expect("conns lock").clear();
    }
}

/// Begins (idempotently) the graceful drain; see the module docs.
fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.registry.event("serve.lifecycle", "drain begun");
    // Unblock the acceptor with a no-op connection to ourselves.
    let _ = TcpStream::connect(shared.local_addr);
    // EOF every reader: no new requests can be admitted.
    for conn in shared.conns.lock().expect("conns lock").iter() {
        let _ = conn.shutdown(Shutdown::Read);
    }
    // Wait for readers to finish enqueueing what they had in hand.
    let mut readers = shared.readers.lock().expect("readers lock");
    while *readers > 0 {
        readers = shared.readers_done.wait(readers).expect("readers wait");
    }
    drop(readers);
    // Workers drain the queue, answer everything, then exit.
    shared.queue.close();
    shared
        .registry
        .event("serve.lifecycle", "queue closed, draining workers");
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small and latency-sensitive; never batch them.
        let _ = stream.set_nodelay(true);
        if shared.read_timeout_ms > 0 {
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(
                shared.read_timeout_ms,
            )));
        }
        shared.registry.counter_add("serve.connections", 1);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(clone);
        }
        *shared.readers.lock().expect("readers lock") += 1;
        let shared = Arc::clone(shared);
        thread::spawn(move || {
            reader_loop(&shared, stream);
            let mut readers = shared.readers.lock().expect("readers lock");
            *readers -= 1;
            if *readers == 0 {
                shared.readers_done.notify_all();
            }
        });
    }
}

/// Reads frames off one connection until it closes, idles out, or sends
/// an oversized frame, dispatching each as it completes.
fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(write_half));
    let mut scanner = FrameScanner::new(shared.max_frame_bytes);
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match stream.read(&mut chunk) {
            // Orderly end of stream; a torn trailing fragment is dropped.
            Ok(0) => return,
            Ok(n) => scanner.extend(&chunk[..n]),
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                shared.registry.counter_add("serve.conn.idle_dropped", 1);
                // Actively hang up (a dup of this socket lives in `conns`
                // until shutdown, so dropping our halves is not enough).
                let _ = out.lock().expect("writer lock").shutdown(Shutdown::Both);
                return;
            }
            Err(_) => return,
        }
        loop {
            let range = match scanner.next_frame() {
                Scan::Frame(range) => range,
                Scan::Incomplete => break,
                Scan::Oversized => {
                    shared.registry.counter_add("serve.conn.oversized", 1);
                    write_frame(
                        &out,
                        &ResponseFrame::error(
                            0,
                            shared.backend.epoch(),
                            code::BAD_REQUEST,
                            format!(
                                "frame exceeds {} byte cap; connection closed",
                                shared.max_frame_bytes
                            ),
                        ),
                    );
                    let _ = out.lock().expect("writer lock").shutdown(Shutdown::Both);
                    return;
                }
            };
            let line = String::from_utf8_lossy(&scanner.bytes()[range]);
            if line.trim().is_empty() {
                continue;
            }
            let received = Instant::now();
            match serde_json::from_str::<RequestFrame>(&line) {
                Ok(frame) => dispatch(shared, frame, &out, received),
                Err(err) => {
                    shared.registry.counter_add("serve.parse_error", 1);
                    write_frame(
                        &out,
                        &ResponseFrame::error(
                            0,
                            shared.backend.epoch(),
                            code::BAD_REQUEST,
                            format!("bad frame: {err}"),
                        ),
                    );
                }
            }
        }
    }
}

/// Routes one parsed frame: admin endpoints inline, everything else
/// through admission control into the queue.
fn dispatch(
    shared: &Arc<Shared>,
    frame: RequestFrame,
    out: &Arc<Mutex<TcpStream>>,
    received: Instant,
) {
    let rec: &dyn Recorder = shared.registry.as_ref();
    match frame.endpoint.as_str() {
        "ping" => {
            let body = serde_json::json!({ "pong": true });
            write_frame(
                out,
                &ResponseFrame::ok(frame.id, shared.backend.epoch(), body),
            );
        }
        "stats" => {
            let body = stats_body(shared);
            write_frame(
                out,
                &ResponseFrame::ok(frame.id, shared.backend.epoch(), body),
            );
        }
        "traces" => match traces_body(shared, &frame.body) {
            Ok(body) => write_frame(
                out,
                &ResponseFrame::ok(frame.id, shared.backend.epoch(), body),
            ),
            Err(detail) => write_frame(
                out,
                &ResponseFrame::error(frame.id, shared.backend.epoch(), code::BAD_REQUEST, detail),
            ),
        },
        "shutdown" => {
            write_frame(
                out,
                &ResponseFrame::ok(
                    frame.id,
                    shared.backend.epoch(),
                    serde_json::json!({ "draining": true }),
                ),
            );
            let shared = Arc::clone(shared);
            thread::spawn(move || begin_shutdown(&shared));
        }
        _ => {
            if shared.shutdown.load(Ordering::Acquire) {
                rec.counter_add("serve.drain.refused", 1);
                write_frame(
                    out,
                    &ResponseFrame::error(
                        frame.id,
                        shared.backend.epoch(),
                        code::DRAINING,
                        "daemon is draining",
                    ),
                );
                return;
            }
            let job = Job {
                frame,
                out: Arc::clone(out),
                received,
            };
            match shared.queue.try_push(job) {
                Ok(()) => {
                    rec.observe("serve.queue.depth", shared.queue.len() as f64);
                }
                Err(PushError::Full(job)) => {
                    rec.counter_add("serve.shed", 1);
                    // Sheds are always tail-sampling keepers: record a
                    // one-span trace so overload shows up in the ring.
                    if let Some(tracer) = &shared.tracer {
                        let endpoint = sanitize_endpoint(&job.frame.endpoint);
                        let trace =
                            tracer.begin(trace_seed_from_bytes(endpoint.as_bytes()), &endpoint);
                        trace.finish(TraceOutcome::Shed);
                    }
                    write_frame(
                        &job.out,
                        &ResponseFrame::shed(
                            job.frame.id,
                            shared.backend.epoch(),
                            "queue full; retry later",
                        ),
                    );
                }
                Err(PushError::Closed(job)) => {
                    rec.counter_add("serve.drain.refused", 1);
                    write_frame(
                        &job.out,
                        &ResponseFrame::error(
                            job.frame.id,
                            shared.backend.epoch(),
                            code::DRAINING,
                            "daemon is draining",
                        ),
                    );
                }
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let inflight = shared.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        shared.registry.gauge_set("serve.inflight", inflight as f64);
        handle_job(shared, job);
        let inflight = shared.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
        shared.registry.gauge_set("serve.inflight", inflight as f64);
    }
}

/// Executes the backend under panic isolation, capturing the epoch the
/// computation started under (the epoch the cache entry is keyed by).
/// The body is rendered to its canonical JSON text exactly once here;
/// cache hits and coalesced followers reuse the rendered bytes.
fn execute(
    shared: &Shared,
    endpoint: &str,
    body: &Value,
    parent: &uptime_obs::TraceSpan,
) -> Result<(Arc<str>, u64), BackendError> {
    let epoch_before = shared.backend.epoch();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.backend.handle_traced(endpoint, body, parent)
    }));
    match outcome {
        Ok(Ok(value)) => {
            let _render_span = parent.child("serve.render");
            match serde_json::to_string(&value) {
                Ok(text) => Ok((Arc::from(text), epoch_before)),
                Err(err) => Err(BackendError::Internal(format!(
                    "unserializable body: {err}"
                ))),
            }
        }
        Ok(Err(err)) => Err(err),
        Err(_) => Err(BackendError::Internal("backend panicked".into())),
    }
}

/// One answered request: either a success with a pre-rendered body (the
/// hot path — spliced into the envelope without re-serializing) or a
/// fully-structured error frame.
enum Reply {
    Ok {
        epoch: u64,
        cached: bool,
        coalesced: bool,
        body: Arc<str>,
    },
    Frame(ResponseFrame),
}

fn handle_job(shared: &Arc<Shared>, job: Job) {
    let rec: &dyn Recorder = shared.registry.as_ref();
    let frame = &job.frame;
    let endpoint = frame.endpoint.as_str();
    let mut known_endpoint = true;

    // Fingerprint first: it seeds the trace id, so identical requests
    // trace identically run after run (uncacheable endpoints fall back
    // to the endpoint name). The trace is fully inert when tracing is
    // off — `ActiveTrace::disabled()` allocates nothing.
    let fingerprinted = shared.backend.fingerprint(endpoint, &frame.body);
    let trace = match &shared.tracer {
        Some(tracer) => {
            let seed = match &fingerprinted {
                Ok(Some(fingerprint)) => trace_seed_from_fingerprint(*fingerprint),
                _ => trace_seed_from_bytes(endpoint.as_bytes()),
            };
            let trace = tracer.begin(seed, &sanitize_endpoint(endpoint));
            trace
                .root()
                .child_completed_ns("serve.queue.wait", job.received.elapsed().as_nanos() as u64);
            trace
        }
        None => ActiveTrace::disabled(),
    };

    let reply = match fingerprinted {
        Err(err) => {
            known_endpoint = !matches!(err, BackendError::UnknownEndpoint(_));
            Reply::Frame(ResponseFrame::error(
                frame.id,
                shared.backend.epoch(),
                err.code(),
                err.message(),
            ))
        }
        // Uncacheable endpoint: straight to the backend. Report the
        // post-execution epoch — mutating endpoints (sync) move it.
        Ok(None) => {
            let exec_span = trace.root().child("serve.execute");
            let result = execute(shared, endpoint, &frame.body, &exec_span);
            drop(exec_span);
            match result {
                Ok((body, _)) => Reply::Ok {
                    epoch: shared.backend.epoch(),
                    cached: false,
                    coalesced: false,
                    body,
                },
                Err(err) => {
                    known_endpoint = !matches!(err, BackendError::UnknownEndpoint(_));
                    Reply::Frame(ResponseFrame::error(
                        frame.id,
                        shared.backend.epoch(),
                        err.code(),
                        err.message(),
                    ))
                }
            }
        }
        Ok(Some(fingerprint)) => {
            // Cache traffic is also attributed per endpoint (bounded by
            // `sanitize_endpoint`) so `stats` can answer e.g. how the
            // `frontier` cache behaves independently of `recommend`.
            let cache_label = sanitize_endpoint(endpoint);
            let epoch_now = shared.backend.epoch();
            let lookup = {
                let mut cache_span = trace.root().child("serve.cache.lookup");
                let lookup = shared.cache.lookup(fingerprint, epoch_now);
                cache_span.attr_text(
                    "verdict",
                    match &lookup {
                        Lookup::Hit(_) => "hit",
                        Lookup::Stale => "stale",
                        _ => "miss",
                    },
                );
                lookup
            };
            match lookup {
                Lookup::Hit(body) => {
                    rec.counter_add("serve.cache.hit", 1);
                    rec.counter_add(&format!("serve.cache.{cache_label}.hit"), 1);
                    Reply::Ok {
                        epoch: epoch_now,
                        cached: true,
                        coalesced: false,
                        body,
                    }
                }
                probe => {
                    let verdict = match probe {
                        Lookup::Stale => "stale",
                        _ => "miss",
                    };
                    rec.counter_add(&format!("serve.cache.{verdict}"), 1);
                    rec.counter_add(&format!("serve.cache.{cache_label}.{verdict}"), 1);
                    match shared.flights.join(fingerprint) {
                        Role::Leader(flight) => {
                            let mut exec_span = trace.root().child("serve.execute");
                            exec_span.attr_flag("leader", true);
                            let result = execute(shared, endpoint, &frame.body, &exec_span);
                            drop(exec_span);
                            if let Ok((body, computed_under)) = &result {
                                // Cache only if no absorb raced the run;
                                // the entry's epoch is the one the answer
                                // was computed under, so a racing bump
                                // still invalidates on the next lookup.
                                if shared.backend.epoch() == *computed_under {
                                    shared.cache.insert(
                                        fingerprint,
                                        *computed_under,
                                        Arc::clone(body),
                                    );
                                }
                            }
                            shared
                                .flights
                                .complete(fingerprint, &flight, result.clone());
                            match result {
                                Ok((body, epoch)) => Reply::Ok {
                                    epoch,
                                    cached: false,
                                    coalesced: false,
                                    body,
                                },
                                Err(err) => Reply::Frame(ResponseFrame::error(
                                    frame.id,
                                    shared.backend.epoch(),
                                    err.code(),
                                    err.message(),
                                )),
                            }
                        }
                        Role::Follower(flight) => {
                            rec.counter_add("serve.coalesced", 1);
                            let wait = trace.root().child("serve.flight.wait");
                            let result = flight.wait();
                            drop(wait);
                            match result {
                                Ok((body, epoch)) => Reply::Ok {
                                    epoch,
                                    cached: false,
                                    coalesced: true,
                                    body,
                                },
                                Err(err) => Reply::Frame(ResponseFrame::error(
                                    frame.id,
                                    shared.backend.epoch(),
                                    err.code(),
                                    err.message(),
                                )),
                            }
                        }
                    }
                }
            }
        }
    };

    // Every trace ends here — including error replies — so tail sampling
    // sees the outcome it keys on.
    let outcome = match &reply {
        Reply::Ok { .. } => TraceOutcome::Ok,
        Reply::Frame(f) => match f.status {
            crate::protocol::Status::Shed => TraceOutcome::Shed,
            _ => TraceOutcome::Error(f.code),
        },
    };
    let record = trace.finish(outcome);
    // `explain` is opt-in per request and rides outside the cached body,
    // so answer bytes stay identical with and without it.
    let explain = if frame.explain {
        record.as_ref().map(|r| explain_value(r))
    } else {
        None
    };

    // Count before writing so a client that has its response in hand is
    // guaranteed to see it reflected in the counters.
    rec.counter_add("serve.responses", 1);
    match reply {
        Reply::Ok {
            epoch,
            cached,
            coalesced,
            body,
        } => {
            let explain_text = explain.as_ref().and_then(|v| serde_json::to_string(v).ok());
            write_line(
                &job.out,
                render_ok_line(
                    frame.id,
                    epoch,
                    cached,
                    coalesced,
                    &body,
                    explain_text.as_deref(),
                ),
            );
        }
        Reply::Frame(mut response) => {
            response.explain = explain;
            write_frame(&job.out, &response);
        }
    }
    let label = if known_endpoint {
        sanitize_endpoint(endpoint)
    } else {
        "unknown".into()
    };
    rec.observe(
        &format!("serve.{label}.ns"),
        job.received.elapsed().as_nanos() as f64,
    );
}

/// Bounds metric-name cardinality: lowercase alphanumerics and `_`/`-`
/// pass through (truncated), anything else becomes `other`.
fn sanitize_endpoint(endpoint: &str) -> String {
    let clean = endpoint.len() <= 32
        && !endpoint.is_empty()
        && endpoint
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-');
    if clean {
        endpoint.to_owned()
    } else {
        "other".to_owned()
    }
}

fn stats_body(shared: &Shared) -> Value {
    let snap = shared.registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    serde_json::json!({
        "epoch": shared.backend.epoch(),
        "cache": {
            "hit": counter("serve.cache.hit"),
            "miss": counter("serve.cache.miss"),
            "stale": counter("serve.cache.stale"),
            "size": shared.cache.len() as u64,
        },
        "cache_by_endpoint": cache_by_endpoint(&snap),
        "coalesced": counter("serve.coalesced"),
        "shed": counter("serve.shed"),
        "responses": counter("serve.responses"),
        "connections": counter("serve.connections"),
        "conn": {
            "oversized": counter("serve.conn.oversized"),
            "idle_dropped": counter("serve.conn.idle_dropped"),
        },
        "queue_depth": shared.queue.len() as u64,
        "inflight": shared.inflight.load(Ordering::Acquire),
        "trace": trace_stats_value(shared.tracer.as_deref()),
    })
}

/// The `cache_by_endpoint` section of the `stats` body: for every
/// endpoint that has seen cacheable traffic, its hit/miss/stale tallies,
/// reconstructed from the `serve.cache.<endpoint>.<verdict>` counters.
/// Endpoint label cardinality is bounded by `sanitize_endpoint`.
fn cache_by_endpoint(snap: &uptime_obs::MetricsSnapshot) -> Value {
    let mut per_endpoint: BTreeMap<&str, Map> = BTreeMap::new();
    for (name, value) in &snap.counters {
        let Some(rest) = name.strip_prefix("serve.cache.") else {
            continue;
        };
        let Some((endpoint, verdict)) = rest.rsplit_once('.') else {
            continue; // the global hit/miss/stale counters
        };
        if matches!(verdict, "hit" | "miss" | "stale") {
            per_endpoint
                .entry(endpoint)
                .or_default()
                .insert(verdict.to_owned(), serde_json::to_value(value));
        }
    }
    let mut body = Map::new();
    for (endpoint, mut verdicts) in per_endpoint {
        for verdict in ["hit", "miss", "stale"] {
            verdicts
                .entry(verdict.to_owned())
                .or_insert_with(|| serde_json::to_value(&0u64));
        }
        body.insert(endpoint.to_owned(), Value::Object(verdicts));
    }
    Value::Object(body)
}

/// The flight-recorder section of `stats` and `health` bodies: occupancy
/// and drop counters, all zero (with `enabled: false`) when tracing is
/// off.
fn trace_stats_value(tracer: Option<&FlightRecorder>) -> Value {
    let stats = tracer.map(FlightRecorder::stats).unwrap_or_default();
    serde_json::json!({
        "enabled": tracer.is_some(),
        "capacity": stats.capacity,
        "occupancy": stats.occupancy,
        "completed": stats.completed,
        "recorded": stats.recorded,
        "sampled_out": stats.sampled_out,
        "evicted": stats.evicted,
        "unwound": stats.unwound,
    })
}

/// Serves the `traces` endpoint: exports the flight-recorder contents.
/// Body params (all optional): `slowest: N` (top-N by total duration),
/// `errors: true` (error/shed traces only), `format: "json" | "chrome"`.
fn traces_body(shared: &Shared, params: &Value) -> Result<Value, String> {
    let Some(tracer) = shared.tracer.as_deref() else {
        return Err("tracing is disabled on this daemon".into());
    };
    if !params.is_null() && params.as_object().is_none() {
        return Err("traces body must be an object".into());
    }
    let get = |key: &str| params.as_object().and_then(|m| m.get(key));
    let errors = get("errors").and_then(Value::as_bool).unwrap_or(false);
    let slowest = get("slowest").and_then(Value::as_u64);
    let format = get("format").and_then(Value::as_str).unwrap_or("json");
    let traces = if errors {
        tracer.errors()
    } else if let Some(n) = slowest {
        tracer.slowest(n as usize)
    } else {
        tracer.snapshot()
    };
    let text = match format {
        "json" => uptime_obs::traces_to_json(&traces, &tracer.stats()),
        "chrome" => uptime_obs::traces_to_chrome(&traces),
        other => {
            return Err(format!(
                "unknown trace format `{other}` (expected `json` or `chrome`)"
            ))
        }
    };
    serde_json::from_str(&text).map_err(|err| format!("trace export did not parse: {err}"))
}

/// The inline `explain` payload: the request's own span tree, compact
/// enough to ride beside the answer without re-querying `traces`.
fn explain_value(record: &TraceRecord) -> Value {
    use uptime_obs::trace::AttrValue;
    let spans: Vec<Value> = record
        .spans
        .iter()
        .map(|span| {
            let mut attrs = serde::Map::new();
            for (key, value) in &span.attrs {
                let json = match value {
                    AttrValue::U64(v) => serde_json::json!(*v),
                    AttrValue::F64(v) => serde_json::json!(*v),
                    AttrValue::Text(v) => serde_json::json!(v),
                    AttrValue::Flag(v) => serde_json::json!(*v),
                };
                attrs.insert((*key).to_owned(), json);
            }
            serde_json::json!({
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start_ns": span.start_ns,
                "duration_ns": span.duration_ns,
                "attrs": Value::Object(attrs),
            })
        })
        .collect();
    serde_json::json!({
        "trace_id": record.trace_id_hex(),
        "outcome": record.outcome.as_str(),
        "total_ns": record.total_ns,
        "sampled": record.kept_because,
        "spans": spans,
    })
}

/// Renders a success envelope around a pre-serialized body, byte-for-byte
/// what serializing the equivalent [`ResponseFrame`] would produce (the
/// vendored serializer emits map keys in sorted order) — without
/// re-walking the body's value tree.
fn render_ok_line(
    id: u64,
    epoch: u64,
    cached: bool,
    coalesced: bool,
    body: &str,
    explain: Option<&str>,
) -> String {
    let mut text = String::with_capacity(body.len() + explain.map_or(0, str::len) + 124);
    text.push_str("{\"body\":");
    text.push_str(body);
    text.push_str(",\"cached\":");
    text.push_str(if cached { "true" } else { "false" });
    text.push_str(",\"coalesced\":");
    text.push_str(if coalesced { "true" } else { "false" });
    let _ = write!(text, ",\"code\":{},\"epoch\":{epoch}", code::OK);
    if let Some(explain) = explain {
        // Sorted-key order: `epoch` < `explain` < `id`, matching what the
        // serde path emits for a frame with `explain` set.
        text.push_str(",\"explain\":");
        text.push_str(explain);
    }
    let _ = write!(
        text,
        ",\"id\":{id},\"status\":\"ok\",\"v\":{}}}",
        crate::protocol::PROTOCOL_VERSION,
    );
    text.push('\n');
    text
}

/// Writes one already-rendered response line; write errors mean the
/// client went away and are deliberately ignored.
fn write_line(out: &Mutex<TcpStream>, text: String) {
    let mut stream = out.lock().expect("writer lock");
    let _ = stream.write_all(text.as_bytes());
    let _ = stream.flush();
}

/// Serializes and writes one response line; write errors mean the client
/// went away and are deliberately ignored.
fn write_frame(out: &Mutex<TcpStream>, frame: &ResponseFrame) {
    let Ok(mut text) = serde_json::to_string(frame) else {
        return;
    };
    text.push('\n');
    write_line(out, text);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spliced hot-path envelope must be byte-for-byte what the serde
    /// path would have produced for the same frame.
    #[test]
    fn rendered_ok_line_matches_serde_serialization() {
        let body = serde_json::json!({"plan": {"tco": 1234.5}, "zeta": [1, 2]});
        let body_text = serde_json::to_string(&body).expect("body serializes");
        for (cached, coalesced) in [(false, false), (true, false), (false, true)] {
            let mut frame = ResponseFrame::ok(42, 7, body.clone());
            frame = frame.with_cached(cached).with_coalesced(coalesced);
            let mut via_serde = serde_json::to_string(&frame).expect("frame serializes");
            via_serde.push('\n');
            let spliced = render_ok_line(42, 7, cached, coalesced, &body_text, None);
            assert_eq!(spliced, via_serde);
        }
    }

    /// The explain splice must also be byte-for-byte what serializing a
    /// frame with `explain` set would produce.
    #[test]
    fn rendered_explain_line_matches_serde_serialization() {
        let body = serde_json::json!({"plan": {"tco": 1234.5}});
        let body_text = serde_json::to_string(&body).expect("body serializes");
        let explain = serde_json::json!({"spans": [{"name": "serve.request"}], "total_ns": 9});
        let explain_text = serde_json::to_string(&explain).expect("explain serializes");
        let frame = ResponseFrame::ok(42, 7, body).with_explain(Some(explain));
        let mut via_serde = serde_json::to_string(&frame).expect("frame serializes");
        via_serde.push('\n');
        let spliced = render_ok_line(42, 7, false, false, &body_text, Some(&explain_text));
        assert_eq!(spliced, via_serde);
    }
}
