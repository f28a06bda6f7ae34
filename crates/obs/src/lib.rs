//! # uptime-obs
//!
//! Observability for the uptime broker: a lock-cheap metrics registry,
//! wall-clock span timers, and a structured event ring buffer, all behind
//! a [`Recorder`] trait whose no-op default makes instrumented hot paths
//! cost nothing when observability is disabled, plus the request-trace
//! flight recorder ([`trace`]).
//!
//! Its only dependencies are the vendored `serde` and `serde_json`: each
//! observability document (the metrics snapshot, the trace export, the
//! Chrome trace) is printed once, from the types' `Serialize` impls. The
//! crates that link this one (the broker and the daemon) link both
//! anyway. The optimizer engines and the simulator do not depend on it
//! at all: the engines return their counts, and the broker records each
//! engine call it makes.
//!
//! ## Architecture
//!
//! * [`Recorder`] — the sink trait. All methods have no-op defaults;
//!   [`NoopRecorder`] is a zero-sized type whose calls compile away.
//!   Counts accumulate *locally* inside hot loops and are flushed through
//!   the trait once per phase, so even dynamic dispatch costs a handful of
//!   calls per search, not per variant.
//! * [`MetricsRegistry`] — a concrete recorder: monotonic counters,
//!   last-write-wins gauges, and fixed-bucket histograms with
//!   p50/p95/p99 estimation. Counter/histogram touches after the first
//!   take a read lock plus one atomic op.
//! * [`span!`] — a scope timer. The guard records elapsed wall-clock
//!   nanoseconds into `<name>.ns` (histogram) and bumps `<name>.calls`
//!   when dropped; nesting is expressed through dotted metric names.
//! * [`EventRing`] — a bounded ring of structured events (breaker
//!   transitions, quarantine verdicts, …) for "what just happened"
//!   debugging without unbounded memory.
//! * [`export`] — the JSON shape of a [`MetricsSnapshot`] (its
//!   `Serialize` impl) and the Prometheus text exposition format
//!   (`brokerctl obs --json|--prom`).
//!
//! ## Naming convention
//!
//! Metric names are `layer.subsystem.name` — e.g.
//! `broker.sync.retries`, `broker.recommend.clouds`,
//! `broker.frontier.infeasible`. Span metrics append a suffix: `<span>.ns` and
//! `<span>.calls`. The convention is documented in DESIGN.md §10 and is
//! load-bearing for the Prometheus exporter, which rewrites dots to
//! underscores and prefixes `uptime_`.
//!
//! ## Example
//!
//! ```
//! use uptime_obs::{MetricsRegistry, Recorder};
//!
//! let registry = MetricsRegistry::new();
//! registry.counter_add("broker.sync.retries", 3);
//! registry.observe("broker.sync.attempts", 2.0);
//! {
//!     let _span = uptime_obs::span!(&registry, "broker.recommend");
//!     // ... timed work ...
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("broker.sync.retries"), Some(3));
//! assert_eq!(snapshot.counter("broker.recommend.calls"), Some(1));
//! let json = serde_json::to_string_pretty(&snapshot).unwrap();
//! assert!(json.contains("\"broker.sync.retries\": 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod recorder;
mod registry;
mod ring;
mod span;
pub mod trace;

pub use recorder::{NoopRecorder, Recorder, NOOP};
pub use registry::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, DEFAULT_NS_BUCKETS,
    SNAPSHOT_SCHEMA_VERSION,
};
pub use ring::{EventRecord, EventRing};
pub use span::SpanGuard;
pub use trace::{
    trace_seed_from_bytes, trace_seed_from_fingerprint, traces_to_chrome, traces_to_json,
    ActiveTrace, FlightRecorder, RecorderStats, TraceConfig, TraceContext, TraceOutcome,
    TraceRecord, TraceSpan, TRACE_SCHEMA_VERSION,
};
