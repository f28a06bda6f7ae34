//! `trace` mode: per-layer numbers.
//!
//! The workload's first open-loop stream is replayed in-process on one
//! thread through the public functions the daemon calls, in the daemon's
//! order, with a span around each call (scan, decode, fingerprint, cache
//! lookup, on a miss handle and render, trace recording, envelope).
//! Attribution probes then re-run sampled misses' parse, search, and
//! serialization separately. A short open-loop phase against the real
//! daemon supplies what only the daemon shows: cache and shed ratios,
//! context switches, and CPU the replay does not account for.
//!
//! Layers a workload does not exercise are probed with another
//! workload's requests (recommend from `cold`, SLO from `frontier`,
//! syncs from `churn`), so every report carries every layer; the README's
//! layer map says which workload each layer moves.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};
use uptime_broker::{
    BrokerError, BrokerService, DurabilityConfig, FrontierRequest, GroundTruth, ServingBroker,
    SimulatedProvider, SolutionRequest,
};
use uptime_catalog::{case_study, CatalogStore};
use uptime_durability::{FsyncPolicy, Journal, StateDir, HEADER_LEN};
use uptime_obs::{
    trace_seed_from_bytes, trace_seed_from_fingerprint, FlightRecorder, MetricsRegistry,
    TraceConfig, TraceOutcome,
};
use uptime_optimizer::{
    composition, exhaustive, pareto_bnb, Archetype, CompositionSpace, Objective, SearchSpace,
};
use uptime_serve::reactor::frame::{FrameScanner, Scan};
use uptime_serve::{EpochCache, Lookup, RequestFrame, ResponseFrame, ServeBackend, ServerConfig};

use crate::daemon::Daemon;
use crate::load::{self, Checks, Conns, Tally};
use crate::report::{self, Outcome, PER_LAYER};
use crate::verify;
use crate::workload::{phase_seed, poisson_schedule, splitmix64, Kind, Stream, Workload};

/// Shares of `--seconds` spent replaying in-process, warming the daemon
/// up, and measuring it open-loop; the probes take the rest.
const REPLAY: f64 = 0.4;
const WIRE_WARMUP: f64 = 0.1;
const WIRE: f64 = 0.4;

/// Spans of the first this-many replayed requests go to the spans file.
const KEPT_REQUESTS: u64 = 2_000;

/// Misses remembered as candidates for the attribution probes.
const MAX_MISSES: usize = 4_096;

/// Requests per attribution probe set.
const PROBE_SAMPLES: usize = 16;

/// Syncs run by the durability probe when the workload sends none.
const PROBE_SYNCS: u64 = 32;

/// Catalog constructions timed by the catalog probe.
const CATALOG_BUILDS: u32 = 16;

/// Empty spans timed to price one benchmark span.
const SPAN_PROBES: u32 = 10_000;

fn other(message: impl std::fmt::Display) -> io::Error {
    io::Error::other(message.to_string())
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    /// The enclosing span's id, 0 for a request's root.
    parent: u64,
    parent_index: Option<usize>,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub ops: u64,
    pub total_ns: u64,
    /// Time not covered by child spans.
    pub self_ns: u64,
}

impl Layer {
    fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.ops.max(1) as f64
    }
}

/// Records nested spans per request and folds them into per-layer totals.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    request: u64,
    open: Vec<Span>,
    stack: Vec<usize>,
    layers: BTreeMap<&'static str, Layer>,
    kept: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: 0,
            request: 0,
            open: Vec::new(),
            stack: Vec::new(),
            layers: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let parent_index = self.stack.last().copied();
        self.next_id += 1;
        self.open.push(Span {
            id: self.next_id,
            parent: parent_index.map_or(0, |i| self.open[i].id),
            parent_index,
            request: self.request,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(self.open.len() - 1);
    }

    pub fn exit(&mut self) {
        let index = self.stack.pop().expect("exit matches an enter");
        self.open[index].end_ns = self.now_ns();
    }

    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = call();
        self.exit();
        out
    }

    /// Folds the finished request's spans into the per-layer totals.
    pub fn end_request(&mut self) {
        assert!(self.stack.is_empty(), "a span is still open");
        let mut child_ns = vec![0u64; self.open.len()];
        for span in &self.open {
            if let Some(parent) = span.parent_index {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.open.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let layer = self.layers.entry(span.name).or_default();
            layer.ops += 1;
            layer.total_ns += duration;
            layer.self_ns += duration.saturating_sub(children);
        }
        if self.request < KEPT_REQUESTS {
            self.kept.extend_from_slice(&self.open);
        }
        self.open.clear();
        self.request += 1;
    }

    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, span) in self.kept.iter().enumerate() {
            let parent = match span.parent {
                0 => "null".to_owned(),
                id => id.to_string(),
            };
            writeln!(
                out,
                "{}{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                span.id,
                span.request,
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

/// The broker `brokerctl serve` fronts: the case-study catalog, a metrics
/// registry, one clean simulated provider per cloud as sync targets, and
/// the journal when `state_dir` is given.
fn serving_broker(state_dir: Option<&Path>) -> io::Result<ServingBroker> {
    let store = case_study::catalog();
    let mut service =
        BrokerService::new(store.clone()).with_recorder(Arc::new(MetricsRegistry::new()));
    if let Some(dir) = state_dir {
        service = service
            .with_durability(DurabilityConfig::new(dir))
            .map_err(other)?
            .0;
    }
    let service = Arc::new(service);
    let mut targets = Vec::new();
    for id in store.cloud_ids() {
        let profile = store.cloud(id).expect("listed id resolves");
        let mut provider = SimulatedProvider::new(id.clone(), profile.display_name());
        let mut kinds = Vec::new();
        for kind in profile.observed_components() {
            let record = profile
                .reliability(kind)
                .expect("observed component has a record");
            provider = provider.with_ground_truth(
                kind,
                GroundTruth {
                    down_probability: record.down_probability(),
                    failures_per_year: record.failures_per_year(),
                },
            );
            kinds.push(kind);
        }
        service.register_provider(Box::new(provider));
        targets.push((id.clone(), kinds));
    }
    Ok(ServingBroker::new(service).with_sync_targets(targets))
}

/// The success envelope around a rendered body: the public
/// `ResponseFrame` serializer renders the envelope fields and the body
/// text is spliced in front of them, giving the daemon's bytes.
fn envelope(id: u64, epoch: u64, cached: bool, body: &str) -> String {
    let frame = ResponseFrame {
        body: None,
        ..ResponseFrame::ok(id, epoch, Value::Null).with_cached(cached)
    };
    let fields = serde_json::to_string(&frame).expect("envelope serializes");
    let mut line = String::with_capacity(body.len() + fields.len() + 10);
    line.push_str("{\"body\":");
    line.push_str(body);
    line.push(',');
    line.push_str(&fields[1..]);
    line.push('\n');
    line
}

/// What the in-process replay measured.
struct Replay {
    tracer: Tracer,
    requests: u64,
    hits: u64,
    /// Misses in replay order, for the attribution probes.
    misses: Vec<(Kind, String)>,
    rendered_bytes: u64,
}

fn replay(
    workload: Workload,
    seed: u64,
    seconds: f64,
    state_dir: Option<&Path>,
) -> io::Result<Replay> {
    let backend = serving_broker(state_dir)?;
    let defaults = ServerConfig::default();
    let cache = EpochCache::new(defaults.cache_capacity);
    let recorder = Arc::new(FlightRecorder::new(TraceConfig::default()));
    let mut scanner = FrameScanner::new(defaults.max_frame_bytes);
    let mut stream = Stream::new(workload, seed, 1);
    let mut replay = Replay {
        tracer: Tracer::new(),
        requests: 0,
        hits: 0,
        misses: Vec::new(),
        rendered_bytes: 0,
    };
    let t = &mut replay.tracer;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let request = stream.next_request(replay.requests);
        replay.requests += 1;
        t.enter("serve.request");
        let scanned = t.span("serve.scan", || {
            scanner.extend(request.frame.as_bytes());
            scanner.next_frame()
        });
        let Scan::Frame(range) = scanned else {
            return Err(other("a generated frame did not scan"));
        };
        let frame: RequestFrame = t
            .span("serve.frame_decode", || {
                serde_json::from_str(&String::from_utf8_lossy(&scanner.bytes()[range]))
            })
            .map_err(other)?;
        let fingerprint = t
            .span("broker.fingerprint", || {
                backend.fingerprint(&frame.endpoint, &frame.body)
            })
            .map_err(other)?;
        let epoch = backend.epoch();
        let (body, cached): (Arc<str>, bool) = match fingerprint {
            Some(fingerprint) => {
                match t.span("serve.cache_lookup", || cache.lookup(fingerprint, epoch)) {
                    Lookup::Hit(body) => (body, true),
                    Lookup::Stale | Lookup::Miss => {
                        let value = t
                            .span("broker.handle", || {
                                backend.handle(&frame.endpoint, &frame.body)
                            })
                            .map_err(other)?;
                        let text: Arc<str> = t
                            .span("broker.render", || serde_json::to_string(&value))
                            .map_err(other)?
                            .into();
                        t.span("serve.cache_insert", || {
                            cache.insert(fingerprint, epoch, Arc::clone(&text));
                        });
                        replay.rendered_bytes += text.len() as u64;
                        if replay.misses.len() < MAX_MISSES {
                            replay
                                .misses
                                .push((request.kind, request.body().to_owned()));
                        }
                        (text, false)
                    }
                }
            }
            None => {
                let text = t
                    .span("broker.sync", || {
                        backend
                            .handle(&frame.endpoint, &frame.body)
                            .map(|value| serde_json::to_string(&value))
                    })
                    .map_err(other)?
                    .map_err(other)?;
                (text.into(), false)
            }
        };
        replay.hits += u64::from(cached);
        t.span("obs.trace", || {
            let trace_seed = fingerprint.map_or_else(
                || trace_seed_from_bytes(frame.endpoint.as_bytes()),
                trace_seed_from_fingerprint,
            );
            let trace = recorder.begin(trace_seed, &frame.endpoint);
            trace.root().child_completed_ns("serve.queue.wait", 0);
            trace
                .root()
                .child("serve.cache.lookup")
                .attr_text("verdict", if cached { "hit" } else { "miss" });
            trace.finish(TraceOutcome::Ok)
        });
        let line = t.span("serve.envelope", || {
            envelope(frame.id, backend.epoch(), cached, &body)
        });
        std::hint::black_box(line);
        t.exit();
        t.end_request();
    }
    Ok(replay)
}

/// Mean costs of one attribution probe set.
#[derive(Debug, Clone, Copy)]
struct Probe {
    samples: usize,
    parse_ns: f64,
    /// `recommend` or `solve_slo`.
    call_ns: f64,
    to_value_ns: f64,
    search_ns: f64,
    /// Assignments in the searched spaces, per second of search.
    assignments_per_s: f64,
}

/// Up to `n` evenly spaced items.
fn evenly<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    let step = (items.len() as f64 / n as f64).max(1.0);
    (0..n.min(items.len())).map(move |i| &items[(i as f64 * step) as usize])
}

fn timed<T>(total: &mut Duration, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = call();
    *total += start.elapsed();
    std::hint::black_box(out)
}

fn mean_ns(total: Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// Times `serial` or `composition`, whichever fits the request, on the
/// request's search space on every cloud. Returns the time and the number
/// of assignments in the searched spaces.
fn time_kernel<S, C>(
    catalog: &CatalogStore,
    request: &SolutionRequest,
    serial: impl Fn(&SearchSpace) -> S,
    composition: impl Fn(&CompositionSpace) -> C,
) -> io::Result<(Duration, u128)> {
    let mut spent = Duration::ZERO;
    let mut assignments = 0;
    for cloud in catalog.cloud_ids() {
        match request.topology() {
            None => {
                let space =
                    SearchSpace::from_catalog(catalog, cloud, request.tiers()).map_err(other)?;
                assignments += space.assignment_count();
                timed(&mut spent, || serial(&space));
            }
            Some(name) => {
                let archetype: Archetype = name.parse().map_err(other)?;
                let space = archetype.space(catalog, cloud).map_err(other)?;
                assignments += space.assignment_count();
                timed(&mut spent, || composition(&space));
            }
        }
    }
    Ok((spent, assignments))
}

/// Times, separately for each sampled body, its parse into `R`, the
/// broker `call`, `to_value` of the answer, and the optimizer `kernel`.
fn probe<R: Deserialize, A: Serialize>(
    bodies: &[String],
    call: impl Fn(&R) -> Result<A, BrokerError>,
    kernel: impl Fn(&R) -> io::Result<(Duration, u128)>,
) -> io::Result<Probe> {
    let [mut parse, mut calls, mut to_value, mut search] = [Duration::ZERO; 4];
    let mut assignments = 0u128;
    for body in bodies {
        let value: Value = serde_json::from_str(body).map_err(other)?;
        let request: R = timed(&mut parse, || serde_json::from_value(&value)).map_err(other)?;
        let answer = timed(&mut calls, || call(&request)).map_err(other)?;
        timed(&mut to_value, || serde_json::to_value(&answer));
        let (spent, searched) = kernel(&request)?;
        search += spent;
        assignments += searched;
    }
    let n = bodies.len();
    Ok(Probe {
        samples: n,
        parse_ns: mean_ns(parse, n),
        call_ns: mean_ns(calls, n),
        to_value_ns: mean_ns(to_value, n),
        search_ns: mean_ns(search, n),
        assignments_per_s: assignments as f64 / search.as_secs_f64().max(1e-9),
    })
}

/// Sampled bodies of the replay's misses of one endpoint, or the first
/// requests of `fallback`'s stream when the workload sends none.
fn probe_bodies(
    misses: &[(Kind, String)],
    endpoint: &str,
    fallback: Workload,
    seed: u64,
) -> Vec<String> {
    let own: Vec<&String> = misses
        .iter()
        .filter(|(kind, _)| kind.endpoint() == endpoint)
        .map(|(_, body)| body)
        .collect();
    if own.is_empty() {
        let mut stream = Stream::new(fallback, seed, 1);
        (0..PROBE_SAMPLES as u64)
            .map(|id| stream.next_request(id).body().to_owned())
            .collect()
    } else {
        evenly(&own, PROBE_SAMPLES).map(|b| (*b).clone()).collect()
    }
}

/// Journal costs over the records in `state_dir`; runs seeded syncs into
/// a fresh `work/probe-state` first when the replay journaled nothing.
struct DurabilityProbe {
    sync_ns: Option<f64>,
    append_ns: f64,
    bytes_per_absorb: f64,
    replay_ns_per_record: f64,
}

fn probe_durability(
    work: &Path,
    seed: u64,
    replay_state: Option<&Path>,
) -> io::Result<DurabilityProbe> {
    let (state_dir, sync_ns) = match replay_state {
        Some(dir) => (dir.to_path_buf(), None),
        None => {
            let dir = work.join("probe-state");
            let backend = serving_broker(Some(&dir))?;
            let mut rng = phase_seed(seed, Workload::Churn, 2_000);
            let mut total = Duration::ZERO;
            for _ in 0..PROBE_SYNCS {
                let body = serde_json::json!({ "seed": splitmix64(&mut rng) });
                timed(&mut total, || backend.handle("sync", &body)).map_err(other)?;
            }
            (dir, Some(mean_ns(total, PROBE_SYNCS as usize)))
        }
    };
    let payloads = Journal::replay(StateDir::create(&state_dir)?.journal_path())?.payloads;
    if payloads.is_empty() {
        return Err(other("the durability probe journaled nothing"));
    }
    let mut journal = Journal::open(work.join("probe-journal.log"), FsyncPolicy::default())?;
    let mut append = Duration::ZERO;
    for payload in &payloads {
        timed(&mut append, || journal.append(payload))?;
    }
    let bytes: usize = payloads.iter().map(|p| p.len() + HEADER_LEN).sum();
    let mut recovery = Duration::ZERO;
    timed(&mut recovery, || {
        BrokerService::new(case_study::catalog()).verify_recovery(&state_dir)
    })
    .map_err(other)?;
    Ok(DurabilityProbe {
        sync_ns,
        append_ns: mean_ns(append, payloads.len()),
        bytes_per_absorb: bytes as f64 / payloads.len() as f64,
        replay_ns_per_record: mean_ns(recovery, payloads.len()),
    })
}

/// What the short open-loop phase against the daemon showed.
struct Wire {
    /// The open-loop phase's counts.
    tally: Tally,
    /// Warmup and open-loop counts together.
    total: Tally,
    p99_us: f64,
    cpu_us_per_req: f64,
    ctx_switches_per_req: f64,
    send_late_p99_us: f64,
    mismatches: u64,
}

/// A closed-loop warmup of `warmup_s`, then `open_s` open-loop at the
/// workload's rate, against a fresh daemon.
fn wire_phase(
    brokerctl: &Path,
    work: &Path,
    workload: Workload,
    seed: u64,
    warmup_s: f64,
    open_s: f64,
) -> io::Result<Wire> {
    let state_dir = workload.durable().then(|| work.join("wire-state"));
    let daemon = Daemon::spawn(brokerctl, state_dir.as_deref())?;
    let conns = Conns::open(daemon.addr)?;
    let mut checks = Checks::new(workload == Workload::Hot);
    let warmup = load::closed_loop(
        &conns,
        &mut Stream::new(workload, seed, 0),
        workload.depth(),
        warmup_s,
        0,
        &mut checks,
    )?;
    let offsets = poisson_schedule(workload.rate_rps(), open_s, phase_seed(seed, workload, 101));
    let base_id = warmup.tally.sent;
    let mut stream = Stream::new(workload, seed, 1);
    let requests: Vec<_> = (0..offsets.len() as u64)
        .map(|i| stream.next_request(base_id + i))
        .collect();
    let (cpu_before, ctx_before) = (daemon.cpu_ns()?, daemon.context_switches()?);
    let open = load::open_loop(&conns, &requests, &offsets, base_id, &mut checks)?;
    let cpu_ns = daemon.cpu_ns()?.saturating_sub(cpu_before);
    let ctx = daemon.context_switches()?.saturating_sub(ctx_before);
    drop(conns);
    daemon.shutdown()?;
    let answered = open.tally.answered.max(1) as f64;
    let mut late = open.send_late_ns;
    late.sort_unstable();
    let mut latency = open.latency_ns;
    latency.sort_unstable();
    let mut total = warmup.tally;
    total.add(&open.tally);
    Ok(Wire {
        tally: open.tally,
        total,
        p99_us: report::percentile(&latency, 99.0) as f64 / 1e3,
        cpu_us_per_req: cpu_ns as f64 / 1e3 / answered,
        ctx_switches_per_req: ctx as f64 / answered,
        send_late_p99_us: report::percentile(&late, 99.0) as f64 / 1e3,
        mismatches: verify::mismatches(&checks),
    })
}

/// Runs the traced measurement of one workload, prints its layer table,
/// and writes its spans to `spans_path`.
pub fn trace(
    brokerctl: &Path,
    work: &Path,
    spans_path: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    let replay_state: Option<PathBuf> = workload.durable().then(|| work.join("replay-state"));
    let replay = replay(workload, seed, REPLAY * seconds, replay_state.as_deref())?;
    replay.tracer.write_spans(spans_path)?;

    let service = BrokerService::new(case_study::catalog());
    let recommend_bodies = probe_bodies(&replay.misses, "recommend", Workload::Cold, seed);
    let frontier_bodies = probe_bodies(&replay.misses, "frontier", Workload::Frontier, seed);
    let catalog = service.catalog_snapshot();
    let recommend = probe(
        &recommend_bodies,
        |request: &SolutionRequest| service.recommend(request),
        |request| {
            let model = request.tco_model();
            time_kernel(
                &catalog,
                request,
                |space| exhaustive::search(space, &model, Objective::MinTco),
                |space| composition::search(space, &model, Objective::MinTco),
            )
        },
    )?;
    let frontier = probe(
        &frontier_bodies,
        |request: &FrontierRequest| service.solve_slo(request),
        |request| {
            let (model, constraints) = (request.base().tco_model(), request.constraints());
            let epsilon = request.spec().epsilon();
            time_kernel(
                &catalog,
                request.base(),
                |space| pareto_bnb::sweep(space, &model, &constraints, epsilon),
                |space| pareto_bnb::composition_sweep(space, &model, &constraints, epsilon),
            )
        },
    )?;
    let own = if workload == Workload::Frontier {
        frontier
    } else {
        recommend
    };
    let durability = probe_durability(work, seed, replay_state.as_deref())?;
    let mut catalog = Duration::ZERO;
    for _ in 0..CATALOG_BUILDS {
        timed(&mut catalog, case_study::catalog);
    }
    let mut scratch = Tracer::new();
    let span_start = Instant::now();
    for _ in 0..SPAN_PROBES {
        scratch.span("bench.span", || ());
    }
    let span_ns = span_start.elapsed().as_nanos() as f64 / f64::from(SPAN_PROBES);

    let wire = wire_phase(
        brokerctl,
        work,
        workload,
        seed,
        WIRE_WARMUP * seconds,
        WIRE * seconds,
    )?;

    let t = &replay.tracer;
    let root = t.layer("serve.request");
    let handle = t.layer("broker.handle");
    let render = t.layer("broker.render");
    let sync_ns = match t.layer("broker.sync") {
        sync if sync.ops > 0 => sync.mean_ns(),
        _ => durability
            .sync_ns
            .expect("the probe syncs when the replay did not"),
    };
    let ok = wire.tally.ok.max(1) as f64;
    let entries = vec![
        ("serve.p99_us", wire.p99_us),
        ("serve.scan_ns", t.layer("serve.scan").mean_ns()),
        (
            "serve.frame_decode_ns",
            t.layer("serve.frame_decode").mean_ns(),
        ),
        (
            "serve.cache_lookup_ns",
            t.layer("serve.cache_lookup").mean_ns(),
        ),
        ("serve.envelope_ns", t.layer("serve.envelope").mean_ns()),
        ("serve.cache_hit_ratio", wire.tally.cached as f64 / ok),
        ("serve.coalesced_ratio", wire.tally.coalesced as f64 / ok),
        (
            "serve.shed_ratio",
            wire.tally.shed as f64 / wire.tally.answered.max(1) as f64,
        ),
        ("serve.ctx_switches_per_req", wire.ctx_switches_per_req),
        (
            "serve.unattributed_us",
            wire.cpu_us_per_req - root.mean_ns() / 1e3,
        ),
        (
            "broker.fingerprint_ns",
            t.layer("broker.fingerprint").mean_ns(),
        ),
        ("broker.handle_ns", handle.mean_ns()),
        ("broker.request_parse_ns", own.parse_ns),
        ("broker.recommend_ns", recommend.call_ns),
        ("broker.solve_slo_ns", frontier.call_ns),
        ("broker.to_value_ns", own.to_value_ns),
        ("broker.render_ns", render.mean_ns()),
        (
            "broker.body_bytes",
            replay.rendered_bytes as f64 / render.ops.max(1) as f64,
        ),
        ("broker.sync_ns", sync_ns),
        ("optimizer.search_ns", recommend.search_ns),
        ("optimizer.assignments_per_s", recommend.assignments_per_s),
        ("optimizer.pareto_ns", frontier.search_ns),
        ("durability.append_ns", durability.append_ns),
        ("durability.bytes_per_absorb", durability.bytes_per_absorb),
        (
            "durability.replay_ns_per_record",
            durability.replay_ns_per_record,
        ),
        ("obs.trace_ns", t.layer("obs.trace").mean_ns()),
        (
            "catalog.build_ns",
            mean_ns(catalog, CATALOG_BUILDS as usize),
        ),
        ("bench.send_late_p99_us", wire.send_late_p99_us),
        ("bench.span_ns", span_ns),
    ];
    let measured = report::collect(
        &PER_LAYER,
        entries
            .into_iter()
            .map(|(name, value)| (name, value, Vec::new()))
            .collect(),
    );

    let mut layers: Vec<(&str, Layer)> = t.layers.iter().map(|(n, l)| (*n, *l)).collect();
    layers.sort_by_key(|(_, layer)| std::cmp::Reverse(layer.self_ns));
    let share = |ns: f64| ns / root.total_ns.max(1) as f64;
    let mut table = vec![format!(
        "{:<22} {:>10} {:>12} {:>14} {:>7}",
        "layer", "ops", "ns/op", "self ns/op", "share"
    )];
    let mut layer_rows = Vec::new();
    for (name, layer) in &layers {
        let self_per_op = layer.self_ns as f64 / layer.ops.max(1) as f64;
        table.push(format!(
            "{name:<22} {:>10} {:>12.0} {:>14.0} {:>6.1}%",
            layer.ops,
            layer.mean_ns(),
            self_per_op,
            share(layer.self_ns as f64) * 100.0
        ));
        layer_rows.push(serde_json::json!({
            "name": name,
            "ops": layer.ops,
            "ns_per_op": layer.mean_ns(),
            "self_ns_per_op": self_per_op,
            "share": share(layer.self_ns as f64),
        }));
    }
    // Shares of the probe's own re-run of the same samples: a few samples
    // of a heavy-tailed mix need not reproduce the replay's mean handle.
    let probe_handle_ns = own.parse_ns + own.call_ns + own.to_value_ns;
    let of_handle = |ns: f64| ns / probe_handle_ns.max(1.0);
    let attribution = serde_json::json!({
        "probe_handle_ns": probe_handle_ns,
        "samples": own.samples as u64,
        "parse_share": of_handle(own.parse_ns),
        "call_share": of_handle(own.call_ns),
        "to_value_share": of_handle(own.to_value_ns),
        "search_share": of_handle(own.search_ns),
    });
    table.push(format!(
        "attribution of broker.handle ({:.0} ns over {} re-run samples): parse {:.1}%, {} {:.1}%, to_value {:.1}%, search {:.1}%",
        probe_handle_ns,
        own.samples,
        of_handle(own.parse_ns) * 100.0,
        if workload == Workload::Frontier { "solve_slo" } else { "recommend" },
        of_handle(own.call_ns) * 100.0,
        of_handle(own.to_value_ns) * 100.0,
        of_handle(own.search_ns) * 100.0,
    ));

    let failed = wire.total.failed() + wire.mismatches;
    let report = serde_json::json!({
        "mode": "trace",
        "workload": workload.name(),
        "seed": seed,
        "valid": load::generator_kept_up(workload.name(), wire.send_late_p99_us),
        "host": report::host(),
        "config": {
            "seconds": seconds,
            "replay_s": REPLAY * seconds,
            "wire_warmup_s": WIRE_WARMUP * seconds,
            "wire_open_loop_s": WIRE * seconds,
            "rate_rps": workload.rate_rps(),
            "probe_samples": PROBE_SAMPLES as u64,
        },
        "replay": {
            "requests": replay.requests,
            "hit_ratio": replay.hits as f64 / replay.requests.max(1) as f64,
        },
        "spans_file": spans_path.display().to_string(),
        "layers": layer_rows,
        "attribution": attribution,
        "wire": {
            "sent": wire.total.sent,
            "answered": wire.total.answered,
            "failed": wire.total.failed(),
            "mismatches": wire.mismatches,
            "cpu_us_per_req": wire.cpu_us_per_req,
        },
        "metrics": report::metrics_value(&measured),
    });
    for row in &table {
        println!("{:<9} {row}", workload.name());
    }
    Ok(Outcome {
        measured,
        attempted: wire.total.sent,
        failed,
        mismatches: wire.mismatches,
        report,
    })
}
