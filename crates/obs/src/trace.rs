//! Request-scoped hierarchical tracing and the flight recorder.
//!
//! Where [`crate::span!`] aggregates flat wall-clock histograms across
//! *all* requests, this module answers the per-request question: what did
//! *this* frame spend its time on? A trace is born at the serve frame
//! boundary ([`FlightRecorder::begin`]), its id seeded deterministically
//! from the request fingerprint (same request → same trace id, so tests
//! replay bit-identically), and a tree of [`TraceSpan`]s is threaded by
//! reference down through cache, single-flight, broker, durability, and
//! the optimizer engines. Each span records its start offset, duration,
//! and attributes (engine counters, cache verdicts) when its guard drops —
//! drops may happen out of order or during a panic unwind; the tree is
//! reconstructed from parent ids at finish, so neither hurts.
//!
//! Completed traces land in the [`FlightRecorder`]: a bounded ring with
//! **tail-sampling** — the keep/drop decision happens *after* the trace
//! completes, so the interesting ones (errors, sheds, slow-over-threshold)
//! are always kept and only boring fast successes are probabilistically
//! thinned ([`TraceConfig::sample_one_in`]). The sampling coin is
//! `splitmix64(trace_id)`, not a real RNG, so a given request is either
//! always or never sampled — deterministic for tests.
//!
//! Everything is exported two ways, each a [`Value`] built from the
//! records' [`Serialize`] impls: a schema'd JSON document
//! ([`traces_to_json`], `schemas/trace.schema.json`) and Chrome
//! `trace_event` format ([`traces_to_chrome`]) loadable in
//! `about:tracing` / Perfetto. The daemon's inline `explain` is a
//! [`TraceRecord`]'s spans under a five-field envelope.
//!
//! Disabled tracing is free-ish: [`TraceSpan::disabled`] is an
//! `Option::None` wrapper whose child/attr calls are no-ops, so an
//! untraced call pays one branch per span it would have opened.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use serde::{Map, Serialize, Value};
use serde_json::json;

/// Version of the trace export document (`schemas/trace.schema.json`).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// SplitMix64 — the workspace-standard seeded generator, used here to
/// derive trace ids and the deterministic sampling coin.
#[must_use]
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a 128-bit request fingerprint into the 64-bit trace-id seed.
#[must_use]
pub fn trace_seed_from_fingerprint(fingerprint: u128) -> u64 {
    (fingerprint as u64) ^ ((fingerprint >> 64) as u64)
}

/// FNV-1a over `bytes` — the seed for traces without a fingerprint
/// (uncacheable endpoints), keyed by whatever identifies the request.
#[must_use]
pub fn trace_seed_from_bytes(bytes: &[u8]) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Tunables for one [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; disabled recorders hand out inert traces whose
    /// span operations are no-ops and record nothing.
    pub enabled: bool,
    /// Ring capacity: how many completed traces are retained (FIFO
    /// eviction; evictions are counted, never silent).
    pub capacity: usize,
    /// A trace at least this long is always kept, whatever the sampler
    /// says.
    pub slow_threshold_ns: u64,
    /// Keep roughly one in this many fast, successful traces (errors,
    /// sheds, and slow traces are always kept). `1` keeps everything;
    /// `0` is treated as `1`.
    pub sample_one_in: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 256,
            slow_threshold_ns: 25_000_000, // 25 ms
            sample_one_in: 1,
        }
    }
}

impl TraceConfig {
    /// A recorder that records nothing and costs (almost) nothing.
    #[must_use]
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        }
    }
}

/// How a traced request ended — the always-keep classes of tail-sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Served successfully.
    Ok,
    /// Failed with the given wire code.
    Error(u16),
    /// Shed by admission control.
    Shed,
}

impl TraceOutcome {
    /// The lowercase wire form (matches the serve `status` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Error(_) => "error",
            TraceOutcome::Shed => "shed",
        }
    }
}

/// One span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An integer counter (nodes visited, variants skipped, …).
    U64(u64),
    /// A float measurement.
    F64(f64),
    /// A short label (cache verdict, single-flight role, …).
    Text(String),
    /// A boolean flag.
    Flag(bool),
}

/// A bare JSON scalar; a non-finite float prints as `null`.
impl Serialize for AttrValue {
    fn to_value(&self) -> Value {
        match self {
            AttrValue::U64(v) => v.to_value(),
            AttrValue::F64(v) => v.to_value(),
            AttrValue::Text(s) => s.to_value(),
            AttrValue::Flag(b) => b.to_value(),
        }
    }
}

/// One completed span: a node of the trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within the trace; the root is always id `1`.
    pub id: u64,
    /// Parent span id; `0` marks the root.
    pub parent: u64,
    /// Dotted span name, e.g. `serve.execute`, `broker.recommend`.
    pub name: &'static str,
    /// Start offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Attributes attached while the span was live.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// `attrs` becomes an object; a key recorded twice keeps its last value.
impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        json!({
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": Value::Object(attr_members(&self.attrs).collect()),
        })
    }
}

/// Span attributes as object members, in recorded order.
fn attr_members<'a>(
    attrs: &'a [(&'static str, AttrValue)],
) -> impl Iterator<Item = (String, Value)> + 'a {
    attrs
        .iter()
        .map(|(key, value)| ((*key).to_owned(), value.to_value()))
}

/// The identity of a live span: 64-bit trace id + span id, the pair that
/// would go on the wire if traces ever crossed a process boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request-scoped trace id (deterministic per fingerprint).
    pub trace_id: u64,
    /// This span's id within the trace.
    pub span_id: u64,
}

/// The per-trace accumulation buffer every span handle points back into.
#[derive(Debug)]
struct TraceBuf {
    trace_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceBuf {
    fn push(&self, record: SpanRecord) {
        // A panic while a span guard is live must not poison the trace:
        // recover the guts and keep recording.
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// A live span: an RAII guard that records itself into its trace when
/// dropped. Dropping out of order, on another thread, or during a panic
/// unwind is all fine — the tree is rebuilt from parent ids at finish.
///
/// A disabled span ([`TraceSpan::disabled`]) is the no-op form that flows
/// through un-traced call paths; all its operations return immediately.
#[derive(Debug)]
pub struct TraceSpan {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    buf: Arc<TraceBuf>,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl TraceSpan {
    /// The inert span: children are inert, attributes vanish, drop does
    /// nothing. This is what un-traced call sites pass to the traced
    /// broker entry points.
    #[must_use]
    pub const fn disabled() -> Self {
        TraceSpan { inner: None }
    }

    /// Whether this span actually records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's identity, or `None` when tracing is disabled.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|inner| TraceContext {
            trace_id: inner.buf.trace_id,
            span_id: inner.id,
        })
    }

    /// Opens a child span. The returned guard records itself when dropped.
    #[must_use]
    pub fn child(&self, name: &'static str) -> TraceSpan {
        match &self.inner {
            None => TraceSpan::disabled(),
            Some(inner) => TraceSpan {
                inner: Some(SpanInner {
                    buf: Arc::clone(&inner.buf),
                    id: inner.buf.next_id.fetch_add(1, Ordering::Relaxed),
                    parent: inner.id,
                    name,
                    start: Instant::now(),
                    attrs: Vec::new(),
                }),
            },
        }
    }

    /// Records an already-elapsed child span of the given duration ending
    /// now — for phases that finished before the trace existed (queue
    /// wait, for one: the job sat in the admission queue before a worker
    /// picked it up and opened the trace).
    pub fn child_completed_ns(&self, name: &'static str, duration_ns: u64) {
        let Some(inner) = &self.inner else { return };
        let now_ns = offset_ns(&inner.buf, Instant::now());
        inner.buf.push(SpanRecord {
            id: inner.buf.next_id.fetch_add(1, Ordering::Relaxed),
            parent: inner.id,
            name,
            start_ns: now_ns.saturating_sub(duration_ns),
            duration_ns,
            attrs: Vec::new(),
        });
    }

    /// Attaches an integer attribute (engine counters and friends).
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a float attribute.
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::F64(value)));
        }
    }

    /// Attaches a short text attribute (cache verdict, role, …).
    pub fn attr_text(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Text(value.into())));
        }
    }

    /// Attaches a boolean attribute.
    pub fn attr_flag(&mut self, key: &'static str, value: bool) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Flag(value)));
        }
    }
}

fn offset_ns(buf: &TraceBuf, at: Instant) -> u64 {
    at.checked_duration_since(buf.epoch)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let start_ns = offset_ns(&inner.buf, inner.start);
        let duration_ns = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let buf = Arc::clone(&inner.buf);
        buf.push(SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            start_ns,
            duration_ns,
            attrs: inner.attrs,
        });
    }
}

/// One completed trace: the span tree plus its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic completion sequence number (unique per recorder, unlike
    /// the deterministic `trace_id`, which repeats for repeated requests).
    pub seq: u64,
    /// The deterministic request-scoped trace id.
    pub trace_id: u64,
    /// The endpoint the request hit.
    pub endpoint: String,
    /// How the request ended.
    pub outcome: TraceOutcome,
    /// End-to-end wall clock in nanoseconds.
    pub total_ns: u64,
    /// Why tail-sampling kept it: `"error"`, `"shed"`, `"slow"`, or
    /// `"sampled"`.
    pub kept_because: &'static str,
    /// All spans, sorted by `(start_ns, id)`. The root has `parent == 0`.
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// The trace id in the canonical 16-hex-digit wire form (JSON numbers
    /// cannot carry a full u64 faithfully).
    #[must_use]
    pub fn trace_id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// The direct children of span `parent` (in recorded order).
    #[must_use]
    pub fn children_of(&self, parent: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == parent).collect()
    }

    /// The root span, if the trace recorded one.
    #[must_use]
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == 0)
    }
}

/// The trace id in hex ([`TraceRecord::trace_id_hex`]) and the outcome as
/// its wire string.
impl Serialize for TraceRecord {
    fn to_value(&self) -> Value {
        json!({
            "seq": self.seq,
            "trace_id": self.trace_id_hex(),
            "endpoint": self.endpoint,
            "outcome": self.outcome.as_str(),
            "total_ns": self.total_ns,
            "kept_because": self.kept_because,
            "spans": self.spans,
        })
    }
}

/// A trace being recorded: owns the root span, finishes (or is finished
/// by its [`Drop`] impl, outcome included, if a panic unwinds past it).
#[derive(Debug)]
pub struct ActiveTrace {
    root: Option<TraceSpan>,
    ctx: Option<FinishCtx>,
}

#[derive(Debug)]
struct FinishCtx {
    recorder: Arc<FlightRecorder>,
    buf: Arc<TraceBuf>,
    endpoint: String,
}

impl ActiveTrace {
    /// An inert trace (disabled recorder): root is a disabled span,
    /// finish returns `None`.
    #[must_use]
    pub fn disabled() -> Self {
        ActiveTrace {
            root: Some(TraceSpan::disabled()),
            ctx: None,
        }
    }

    /// Whether this trace records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.ctx.is_some()
    }

    /// The root span — open children off this.
    ///
    /// # Panics
    ///
    /// Never: the root is only taken at finish, which consumes `self`.
    #[must_use]
    pub fn root(&self) -> &TraceSpan {
        self.root.as_ref().expect("root lives until finish")
    }

    /// Mutable root access, for attaching request-level attributes.
    #[must_use]
    pub fn root_mut(&mut self) -> &mut TraceSpan {
        self.root.as_mut().expect("root lives until finish")
    }

    /// Completes the trace: closes the root span, assembles the span
    /// tree, runs tail-sampling, and returns the assembled record (also
    /// returned when sampling dropped it from the ring — the caller may
    /// still want it for an inline `explain`). `None` iff disabled.
    pub fn finish(mut self, outcome: TraceOutcome) -> Option<Arc<TraceRecord>> {
        self.finish_inner(outcome)
    }

    fn finish_inner(&mut self, outcome: TraceOutcome) -> Option<Arc<TraceRecord>> {
        drop(self.root.take()); // records the root span
        let ctx = self.ctx.take()?;
        let total_ns = u64::try_from(ctx.buf.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans =
            std::mem::take(&mut *ctx.buf.spans.lock().unwrap_or_else(PoisonError::into_inner));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Some(
            ctx.recorder
                .submit(ctx.buf.trace_id, ctx.endpoint, outcome, total_ns, spans),
        )
    }
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        if self.ctx.is_none() {
            return;
        }
        // A trace dropped without finish is an unwind in flight (or a
        // caller bug); either way, record it as an error so it is always
        // kept, and never panic out of this drop.
        if std::thread::panicking() {
            if let Some(ctx) = &self.ctx {
                ctx.recorder.unwound.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = self.finish_inner(TraceOutcome::Error(500));
    }
}

/// Occupancy and loss counters — what `stats` and the `traces` export
/// surface so sampling loss is observable rather than silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecorderStats {
    /// Ring capacity.
    pub capacity: u64,
    /// Traces currently retained.
    pub occupancy: u64,
    /// Traces completed over the recorder's lifetime.
    pub completed: u64,
    /// Traces tail-sampling kept.
    pub recorded: u64,
    /// Fast, successful traces the sampler dropped.
    pub sampled_out: u64,
    /// Retained traces later evicted by ring capacity.
    pub evicted: u64,
    /// Traces finished by a panic unwinding past their guard.
    pub unwound: u64,
}

/// The bounded, lock-light ring of completed traces.
///
/// One short mutex acquisition per completed trace (push + maybe evict);
/// live spans never touch it. All counters are atomics.
#[derive(Debug)]
pub struct FlightRecorder {
    config: TraceConfig,
    ring: Mutex<VecDeque<Arc<TraceRecord>>>,
    completed: AtomicU64,
    recorded: AtomicU64,
    sampled_out: AtomicU64,
    evicted: AtomicU64,
    unwound: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with the given tuning.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        FlightRecorder {
            config,
            ring: Mutex::new(VecDeque::with_capacity(config.capacity.min(1024))),
            completed: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            unwound: AtomicU64::new(0),
        }
    }

    /// The recorder's configuration.
    #[must_use]
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Opens a trace for `endpoint`. `seed` should be deterministic per
    /// request ([`trace_seed_from_fingerprint`] /
    /// [`trace_seed_from_bytes`]); the trace id is `splitmix64(seed)`.
    #[must_use]
    pub fn begin(self: &Arc<Self>, seed: u64, endpoint: &str) -> ActiveTrace {
        if !self.config.enabled {
            return ActiveTrace::disabled();
        }
        let buf = Arc::new(TraceBuf {
            trace_id: splitmix64(seed),
            epoch: Instant::now(),
            next_id: AtomicU64::new(2),
            spans: Mutex::new(Vec::with_capacity(8)),
        });
        let root = TraceSpan {
            inner: Some(SpanInner {
                buf: Arc::clone(&buf),
                id: 1,
                parent: 0,
                name: "serve.request",
                start: buf.epoch,
                attrs: Vec::new(),
            }),
        };
        ActiveTrace {
            root: Some(root),
            ctx: Some(FinishCtx {
                recorder: Arc::clone(self),
                buf,
                endpoint: endpoint.to_owned(),
            }),
        }
    }

    /// Tail-sampling + ring admission. Always returns the assembled
    /// record; bumps `sampled_out` instead of retaining when the sampler
    /// drops it.
    fn submit(
        &self,
        trace_id: u64,
        endpoint: String,
        outcome: TraceOutcome,
        total_ns: u64,
        spans: Vec<SpanRecord>,
    ) -> Arc<TraceRecord> {
        let seq = self.completed.fetch_add(1, Ordering::Relaxed);
        let kept_because = match outcome {
            TraceOutcome::Error(_) => Some("error"),
            TraceOutcome::Shed => Some("shed"),
            TraceOutcome::Ok if total_ns >= self.config.slow_threshold_ns => Some("slow"),
            TraceOutcome::Ok => {
                let one_in = self.config.sample_one_in.max(1);
                splitmix64(trace_id)
                    .is_multiple_of(one_in)
                    .then_some("sampled")
            }
        };
        let record = Arc::new(TraceRecord {
            seq,
            trace_id,
            endpoint,
            outcome,
            total_ns,
            kept_because: kept_because.unwrap_or("sampled_out"),
            spans,
        });
        if kept_because.is_some() {
            self.recorded.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
            if ring.len() >= self.config.capacity.max(1) {
                ring.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(Arc::clone(&record));
        } else {
            self.sampled_out.fetch_add(1, Ordering::Relaxed);
        }
        record
    }

    /// All retained traces, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<TraceRecord>> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// The `n` slowest retained traces, slowest first.
    #[must_use]
    pub fn slowest(&self, n: usize) -> Vec<Arc<TraceRecord>> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        all.truncate(n);
        all
    }

    /// Retained traces that did not end `ok`, oldest first.
    #[must_use]
    pub fn errors(&self) -> Vec<Arc<TraceRecord>> {
        self.snapshot()
            .into_iter()
            .filter(|t| t.outcome != TraceOutcome::Ok)
            .collect()
    }

    /// Occupancy and loss counters.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            capacity: self.config.capacity as u64,
            occupancy: self
                .ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            completed: self.completed.load(Ordering::Relaxed),
            recorded: self.recorded.load(Ordering::Relaxed),
            sampled_out: self.sampled_out.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            unwound: self.unwound.load(Ordering::Relaxed),
        }
    }
}

/// The schema'd export document (`schemas/trace.schema.json`) the
/// `traces` endpoint and `brokerctl trace --json` emit: recorder counters
/// plus the given traces.
#[must_use]
pub fn traces_to_json(traces: &[Arc<TraceRecord>], stats: &RecorderStats) -> Value {
    let traces: Vec<Value> = traces.iter().map(|trace| trace.to_value()).collect();
    json!({
        "schema_version": TRACE_SCHEMA_VERSION,
        "recorder": stats,
        "traces": traces,
    })
}

/// The traces in Chrome `trace_event` format (the JSON-object form with a
/// `traceEvents` array of complete `"X"` events), loadable in
/// `about:tracing` and Perfetto. Each trace becomes one "thread" (`tid` =
/// completion seq) so overlapping requests stack instead of interleaving;
/// timestamps are the in-trace offsets in microseconds, and each event's
/// `args` are the trace id, the outcome and the span's attributes (which
/// win a name clash).
#[must_use]
pub fn traces_to_chrome(traces: &[Arc<TraceRecord>]) -> Value {
    let mut events = Vec::new();
    for trace in traces {
        let trace_id = trace.trace_id_hex().to_value();
        let outcome = trace.outcome.as_str().to_value();
        for span in &trace.spans {
            let mut args = Map::new();
            args.insert("trace_id".to_owned(), trace_id.clone());
            args.insert("outcome".to_owned(), outcome.clone());
            args.extend(attr_members(&span.attrs));
            events.push(json!({
                "name": span.name,
                "cat": trace.endpoint,
                "ph": "X",
                "ts": span.start_ns as f64 / 1_000.0,
                "dur": span.duration_ns as f64 / 1_000.0,
                "pid": 1,
                "tid": trace.seq,
                "args": Value::Object(args),
            }));
        }
    }
    json!({ "displayTimeUnit": "ms", "traceEvents": events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(config: TraceConfig) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(config))
    }

    #[test]
    fn trace_ids_are_deterministic_per_seed() {
        let fr = recorder(TraceConfig::default());
        let a = fr.begin(42, "recommend").finish(TraceOutcome::Ok).unwrap();
        let b = fr.begin(42, "recommend").finish(TraceOutcome::Ok).unwrap();
        let c = fr.begin(43, "recommend").finish(TraceOutcome::Ok).unwrap();
        assert_eq!(a.trace_id, b.trace_id, "same request, same trace id");
        assert_ne!(a.seq, b.seq, "but each completion is unique");
        assert_ne!(a.trace_id, c.trace_id, "different request, different id");
    }

    #[test]
    fn span_tree_records_nesting_and_attrs() {
        let fr = recorder(TraceConfig::default());
        let trace = fr.begin(7, "recommend");
        {
            let mut outer = trace.root().child("broker.recommend");
            outer.attr_u64("clouds", 2);
            {
                let mut engine = outer.child("optimizer.bnb.search");
                engine.attr_u64("nodes_visited", 99);
                engine.attr_text("engine", "branch_bound");
            }
        }
        let record = trace.finish(TraceOutcome::Ok).unwrap();
        let root = record.root().expect("root span recorded");
        assert_eq!(root.name, "serve.request");
        let broker = record
            .spans
            .iter()
            .find(|s| s.name == "broker.recommend")
            .unwrap();
        assert_eq!(broker.parent, root.id);
        let engine = record
            .spans
            .iter()
            .find(|s| s.name == "optimizer.bnb.search")
            .unwrap();
        assert_eq!(engine.parent, broker.id);
        assert!(engine
            .attrs
            .contains(&("nodes_visited", AttrValue::U64(99))));
        assert!(record.total_ns >= root.duration_ns);
    }

    #[test]
    fn out_of_order_drops_still_reconstruct() {
        let fr = recorder(TraceConfig::default());
        let trace = fr.begin(7, "recommend");
        let a = trace.root().child("stage.a");
        let b = trace.root().child("stage.b");
        // Drop in reverse creation order.
        drop(a);
        drop(b);
        let record = trace.finish(TraceOutcome::Ok).unwrap();
        let root_id = record.root().unwrap().id;
        let children = record.children_of(root_id);
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|s| s.parent == root_id));
        // Sorted by start: a was created first.
        assert_eq!(children[0].name, "stage.a");
    }

    #[test]
    fn completed_child_backdates_its_start() {
        let fr = recorder(TraceConfig::default());
        let trace = fr.begin(7, "recommend");
        trace
            .root()
            .child_completed_ns("serve.queue.wait", 5_000_000);
        let record = trace.finish(TraceOutcome::Ok).unwrap();
        let wait = record
            .spans
            .iter()
            .find(|s| s.name == "serve.queue.wait")
            .unwrap();
        assert_eq!(wait.duration_ns, 5_000_000);
    }

    #[test]
    fn panic_during_traced_closure_neither_poisons_nor_deadlocks() {
        let fr = recorder(TraceConfig::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let trace = fr.begin(13, "recommend");
            let _guard = trace.root().child("serve.execute");
            panic!("backend blew up");
        }));
        assert!(result.is_err());
        // The unwound trace was finished as an error and kept.
        let stats = fr.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.unwound, 1);
        let errors = fr.errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kept_because, "error");
        assert!(
            errors[0].spans.iter().any(|s| s.name == "serve.execute"),
            "the guard dropped during unwind still recorded its span"
        );
        // And the recorder keeps working afterwards.
        let after = fr.begin(14, "recommend").finish(TraceOutcome::Ok).unwrap();
        assert_eq!(after.outcome, TraceOutcome::Ok);
        assert_eq!(fr.stats().completed, 2);
    }

    #[test]
    fn tail_sampling_always_keeps_errors_sheds_and_slow() {
        let fr = recorder(TraceConfig {
            sample_one_in: u64::MAX, // sampler alone would keep ~nothing
            slow_threshold_ns: 10,   // but everything is "slow"
            ..TraceConfig::default()
        });
        fr.begin(1, "recommend").finish(TraceOutcome::Ok).unwrap();
        let fr2 = recorder(TraceConfig {
            sample_one_in: u64::MAX,
            slow_threshold_ns: u64::MAX,
            ..TraceConfig::default()
        });
        let ok = fr2.begin(1, "a").finish(TraceOutcome::Ok).unwrap();
        let err = fr2.begin(2, "b").finish(TraceOutcome::Error(500)).unwrap();
        let shed = fr2.begin(3, "c").finish(TraceOutcome::Shed).unwrap();
        assert_eq!(fr.stats().recorded, 1, "slow trace kept");
        assert_eq!(fr.snapshot()[0].kept_because, "slow");
        assert_eq!(ok.kept_because, "sampled_out");
        assert_eq!(err.kept_because, "error");
        assert_eq!(shed.kept_because, "shed");
        let stats = fr2.stats();
        assert_eq!(stats.recorded, 2);
        assert_eq!(stats.sampled_out, 1);
    }

    #[test]
    fn sampling_is_deterministic_per_trace_id() {
        let fr = recorder(TraceConfig {
            sample_one_in: 4,
            slow_threshold_ns: u64::MAX,
            ..TraceConfig::default()
        });
        let first = fr.begin(11, "r").finish(TraceOutcome::Ok).unwrap();
        for _ in 0..5 {
            let again = fr.begin(11, "r").finish(TraceOutcome::Ok).unwrap();
            assert_eq!(again.kept_because, first.kept_because);
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_it() {
        let fr = recorder(TraceConfig {
            capacity: 2,
            ..TraceConfig::default()
        });
        for seed in 0..5 {
            fr.begin(seed, "r").finish(TraceOutcome::Ok).unwrap();
        }
        let stats = fr.stats();
        assert_eq!(stats.occupancy, 2);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.evicted, 3);
        let kept = fr.snapshot();
        assert_eq!(kept.len(), 2);
        assert!(kept[0].seq < kept[1].seq, "oldest first");
        assert_eq!(kept[1].seq, 4, "newest retained");
    }

    #[test]
    fn disabled_recorder_and_spans_are_inert() {
        let fr = recorder(TraceConfig::disabled());
        let trace = fr.begin(1, "recommend");
        assert!(!trace.is_enabled());
        let mut child = trace.root().child("anything");
        child.attr_u64("k", 1);
        child.child_completed_ns("sub", 5);
        assert!(child.context().is_none());
        drop(child);
        assert!(trace.finish(TraceOutcome::Ok).is_none());
        assert_eq!(fr.stats().completed, 0);
        // The standalone disabled span behaves the same way.
        let span = TraceSpan::disabled();
        assert!(!span.is_enabled());
        assert!(!span.child("x").is_enabled());
    }

    #[test]
    fn slowest_and_errors_queries_filter_and_order() {
        let fr = recorder(TraceConfig::default());
        fr.begin(1, "a").finish(TraceOutcome::Ok).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        // This trace lives longer, so it is the slowest.
        let trace = fr.begin(2, "b");
        std::thread::sleep(std::time::Duration::from_millis(5));
        trace.finish(TraceOutcome::Error(500)).unwrap();
        let slowest = fr.slowest(1);
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].endpoint, "b");
        let errors = fr.errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].endpoint, "b");
    }

    #[test]
    fn json_export_is_schema_shaped_and_escaped() {
        let fr = recorder(TraceConfig::default());
        let trace = fr.begin(5, "reco\"mmend");
        {
            let mut span = trace.root().child("serve.execute");
            span.attr_text("verdict", "hit \"quoted\"");
            span.attr_f64("ratio", 0.5);
            span.attr_flag("cached", true);
        }
        trace.finish(TraceOutcome::Ok).unwrap();
        let json = traces_to_json(&fr.snapshot(), &fr.stats()).to_string();
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"recorder\":{\"capacity\":256,"));
        assert!(json.contains("\"reco\\\"mmend\""));
        assert!(json.contains("\"hit \\\"quoted\\\"\""));
        assert!(json.contains("\"ratio\":0.5"));
        assert!(json.contains("\"cached\":true"));
        assert!(json.contains("\"kept_because\":\"sampled\""));
        // Exactly 16 hex digits for the id.
        let id = fr.snapshot()[0].trace_id_hex();
        assert_eq!(id.len(), 16);
        assert!(json.contains(&id));
    }

    #[test]
    fn chrome_export_emits_complete_events() {
        let fr = recorder(TraceConfig::default());
        let trace = fr.begin(5, "recommend");
        drop(trace.root().child("serve.execute"));
        trace.finish(TraceOutcome::Ok).unwrap();
        let chrome = traces_to_chrome(&fr.snapshot()).to_string();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"serve.execute\""));
        assert!(chrome.contains("\"cat\":\"recommend\""));
        assert!(chrome.contains("\"pid\":1"));
        // Empty input still renders a valid document.
        assert!(traces_to_chrome(&[])
            .to_string()
            .contains("\"traceEvents\":[]"));
    }

    /// Traces covering every attribute kind, `u64::MAX`, the string
    /// escapes, float edge cases and a span without attributes.
    fn edge_records() -> Vec<Arc<TraceRecord>> {
        let every_attr = vec![
            ("max", AttrValue::U64(u64::MAX)),
            ("zero", AttrValue::U64(0)),
            ("half", AttrValue::F64(0.5)),
            ("two", AttrValue::F64(2.0)),
            ("neg_zero", AttrValue::F64(-0.0)),
            ("tiny", AttrValue::F64(5e-324)),
            ("huge", AttrValue::F64(1e300)),
            ("nan", AttrValue::F64(f64::NAN)),
            (
                "text",
                AttrValue::Text("q\"b\\s\nc\u{1}\u{8}\u{c}é€✓".to_owned()),
            ),
            ("yes", AttrValue::Flag(true)),
            ("no", AttrValue::Flag(false)),
        ];
        let root = |duration_ns| SpanRecord {
            id: 1,
            parent: 0,
            name: "serve.request",
            start_ns: 0,
            duration_ns,
            attrs: Vec::new(),
        };
        vec![
            Arc::new(TraceRecord {
                seq: 0,
                trace_id: u64::MAX,
                endpoint: "re\"co\\m\nm\u{1}\u{8}\u{c}énd".to_owned(),
                outcome: TraceOutcome::Error(503),
                total_ns: u64::MAX,
                kept_because: "error",
                spans: vec![
                    root(u64::MAX),
                    SpanRecord {
                        id: 2,
                        parent: 1,
                        name: "serve.execute",
                        start_ns: 1,
                        duration_ns: 2_500,
                        attrs: every_attr,
                    },
                    SpanRecord {
                        id: u64::MAX,
                        parent: 2,
                        name: "broker.render",
                        start_ns: u64::MAX,
                        duration_ns: 0,
                        attrs: vec![("verdict", AttrValue::Text("miss".to_owned()))],
                    },
                ],
            }),
            Arc::new(TraceRecord {
                seq: u64::MAX,
                trace_id: 0xab,
                endpoint: "recommend".to_owned(),
                outcome: TraceOutcome::Ok,
                total_ns: 12_345,
                kept_because: "sampled",
                spans: Vec::new(),
            }),
            Arc::new(TraceRecord {
                seq: 3,
                trace_id: 0,
                endpoint: "frontier".to_owned(),
                outcome: TraceOutcome::Shed,
                total_ns: 0,
                kept_because: "shed",
                spans: vec![root(0)],
            }),
        ]
    }

    /// The compact wire bytes of [`edge_records`]' two exports, as the
    /// daemon printed them when this crate wrote its own JSON text and the
    /// daemon parsed that text back into a `Value`.
    const PINNED_JSON: &str = r#"{"recorder":{"capacity":256,"completed":18446744073709551615,"evicted":6,"occupancy":3,"recorded":4,"sampled_out":5,"unwound":0},"schema_version":1,"traces":[{"endpoint":"re\"co\\m\nm\u0001\b\fénd","kept_because":"error","outcome":"error","seq":0,"spans":[{"attrs":{},"duration_ns":18446744073709551615,"id":1,"name":"serve.request","parent":0,"start_ns":0},{"attrs":{"half":0.5,"huge":1e300,"max":18446744073709551615,"nan":null,"neg_zero":-0.0,"no":false,"text":"q\"b\\s\nc\u0001\b\fé€✓","tiny":5e-324,"two":2.0,"yes":true,"zero":0},"duration_ns":2500,"id":2,"name":"serve.execute","parent":1,"start_ns":1},{"attrs":{"verdict":"miss"},"duration_ns":0,"id":18446744073709551615,"name":"broker.render","parent":2,"start_ns":18446744073709551615}],"total_ns":18446744073709551615,"trace_id":"ffffffffffffffff"},{"endpoint":"recommend","kept_because":"sampled","outcome":"ok","seq":18446744073709551615,"spans":[],"total_ns":12345,"trace_id":"00000000000000ab"},{"endpoint":"frontier","kept_because":"shed","outcome":"shed","seq":3,"spans":[{"attrs":{},"duration_ns":0,"id":1,"name":"serve.request","parent":0,"start_ns":0}],"total_ns":0,"trace_id":"0000000000000000"}]}"#;
    const PINNED_CHROME: &str = r#"{"displayTimeUnit":"ms","traceEvents":[{"args":{"outcome":"error","trace_id":"ffffffffffffffff"},"cat":"re\"co\\m\nm\u0001\b\fénd","dur":1.844674407370955e16,"name":"serve.request","ph":"X","pid":1,"tid":0,"ts":0.0},{"args":{"half":0.5,"huge":1e300,"max":18446744073709551615,"nan":null,"neg_zero":-0.0,"no":false,"outcome":"error","text":"q\"b\\s\nc\u0001\b\fé€✓","tiny":5e-324,"trace_id":"ffffffffffffffff","two":2.0,"yes":true,"zero":0},"cat":"re\"co\\m\nm\u0001\b\fénd","dur":2.5,"name":"serve.execute","ph":"X","pid":1,"tid":0,"ts":0.001},{"args":{"outcome":"error","trace_id":"ffffffffffffffff","verdict":"miss"},"cat":"re\"co\\m\nm\u0001\b\fénd","dur":0.0,"name":"broker.render","ph":"X","pid":1,"tid":0,"ts":1.844674407370955e16},{"args":{"outcome":"shed","trace_id":"0000000000000000"},"cat":"frontier","dur":0.0,"name":"serve.request","ph":"X","pid":1,"tid":3,"ts":0.0}]}"#;

    #[test]
    fn exports_print_the_pinned_wire_bytes() {
        let wire = |value: Value| serde_json::to_string(&value).expect("export prints");
        let traces = edge_records();
        let stats = RecorderStats {
            capacity: 256,
            occupancy: 3,
            completed: u64::MAX,
            recorded: 4,
            sampled_out: 5,
            evicted: 6,
            unwound: 0,
        };
        assert_eq!(wire(traces_to_json(&traces, &stats)), PINNED_JSON);
        assert_eq!(wire(traces_to_chrome(&traces)), PINNED_CHROME);
        assert_eq!(
            wire(traces_to_json(&[], &RecorderStats::default())),
            r#"{"recorder":{"capacity":0,"completed":0,"evicted":0,"occupancy":0,"recorded":0,"sampled_out":0,"unwound":0},"schema_version":1,"traces":[]}"#
        );
        assert_eq!(
            wire(traces_to_chrome(&[])),
            r#"{"displayTimeUnit":"ms","traceEvents":[]}"#
        );
    }

    #[test]
    fn seed_helpers_are_stable() {
        assert_eq!(
            trace_seed_from_fingerprint(0x1111_0000_0000_0000_0000_0000_0000_2222),
            0x1111_0000_0000_2222
        );
        assert_eq!(
            trace_seed_from_bytes(b"sync"),
            trace_seed_from_bytes(b"sync")
        );
        assert_ne!(
            trace_seed_from_bytes(b"sync"),
            trace_seed_from_bytes(b"ping")
        );
    }
}
