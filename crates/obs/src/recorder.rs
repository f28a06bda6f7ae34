//! The sink trait instrumented code talks to.

/// A sink for metrics and events.
///
/// Every method has a no-op default, so a recorder only implements what it
/// cares about and [`NoopRecorder`] implements nothing at all. All methods
/// take `&self`: recorders are shared across threads (`Send + Sync`) and
/// must synchronize internally.
///
/// Instrumentation discipline: hot loops accumulate into locals and flush
/// through this trait once per phase (per search, per sync, per trial) —
/// never per variant or per event. That keeps the cost of the dynamic
/// dispatch bounded by phase count.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge_set(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records one sample into the histogram `name`.
    fn observe(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records a completed span: `nanos` wall-clock nanoseconds under
    /// `name`. The default files it as histogram `<name>.ns` plus counter
    /// `<name>.calls`, so any recorder that implements [`Recorder::observe`]
    /// and [`Recorder::counter_add`] gets spans for free.
    fn span_ns(&self, name: &str, nanos: u64) {
        // Span names are 'static in practice but the trait takes &str; the
        // suffixing allocates only when a non-noop recorder is installed.
        self.observe(&format!("{name}.ns"), nanos as f64);
        self.counter_add(&format!("{name}.calls"), 1);
    }

    /// Records a structured event (`name` is the event kind, `detail` a
    /// human-readable payload).
    fn event(&self, name: &str, detail: &str) {
        let _ = (name, detail);
    }
}

/// The do-nothing recorder: a zero-sized type whose trait methods inherit
/// the empty defaults (overriding `span_ns` so not even the format
/// allocation happens).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn span_ns(&self, _name: &str, _nanos: u64) {}
}

/// A shared static no-op recorder, usable as `&NOOP` wherever a
/// `&dyn Recorder` is expected.
pub static NOOP: NoopRecorder = NoopRecorder;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingSink {
        counters: AtomicU64,
        spans: AtomicU64,
    }

    impl Recorder for CountingSink {
        fn counter_add(&self, _name: &str, delta: u64) {
            self.counters.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[test]
    fn defaults_are_noops() {
        let noop = NoopRecorder;
        noop.counter_add("a", 1);
        noop.gauge_set("b", 2.0);
        noop.observe("c", 3.0);
        noop.span_ns("d", 4);
        noop.event("e", "detail");
    }

    #[test]
    fn default_span_routes_through_counter_and_histogram() {
        let sink = CountingSink::default();
        sink.span_ns("layer.thing", 125);
        // Default span_ns bumps `<name>.calls` via counter_add.
        assert_eq!(sink.counters.load(Ordering::Relaxed), 1);
        assert_eq!(sink.spans.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn noop_is_object_safe_and_static() {
        let dyn_rec: &dyn Recorder = &NOOP;
        dyn_rec.counter_add("x", 7);
    }
}
