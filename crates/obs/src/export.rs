//! The metrics snapshot's two documents: JSON, printed from the
//! snapshot's [`Serialize`] impl (`schemas/obs_snapshot.schema.json`),
//! and Prometheus text exposition format.

use std::fmt::Write as _;

use serde::{Serialize, Value};
use serde_json::json;

use crate::registry::{HistogramSnapshot, MetricsSnapshot};

/// The JSON document `brokerctl obs --json` prints, mirrored by
/// `schemas/obs_snapshot.schema.json`: counters, gauges and histograms
/// as objects keyed by metric name, events oldest first. Non-finite
/// floats print as `null`.
///
/// ```json
/// {
///   "schema_version": 1,
///   "counters": { "broker.sync.retries": 3 },
///   "gauges": { "broker.degraded.active": 0.0 },
///   "histograms": {
///     "broker.sync.attempts": {
///       "count": 4, "sum": 7.0, "min": 1.0, "max": 3.0,
///       "p50": 2.0, "p95": 3.0, "p99": 3.0,
///       "buckets": [ { "le": 1.0, "count": 1 } ]
///     }
///   },
///   "events": [ { "seq": 0, "name": "...", "detail": "..." } ]
/// }
/// ```
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let histograms = self
            .histograms
            .iter()
            .map(|h| (h.name.clone(), h.to_value()))
            .collect();
        json!({
            "schema_version": self.schema_version,
            "counters": keyed(&self.counters),
            "gauges": keyed(&self.gauges),
            "histograms": Value::Object(histograms),
            "events": self.events,
        })
    }
}

/// One histogram without its name, which is its key in the snapshot.
impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .map(|(le, count)| json!({ "le": le, "count": count }))
            .collect();
        json!({
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": buckets,
        })
    }
}

/// `(name, value)` pairs as an object keyed by name.
fn keyed<T: Serialize>(members: &[(String, T)]) -> Value {
    Value::Object(
        members
            .iter()
            .map(|(name, value)| (name.clone(), value.to_value()))
            .collect(),
    )
}

/// Renders the snapshot in Prometheus text exposition format (version
/// 0.0.4): metric names are `uptime_` + the dotted name with dots and
/// dashes rewritten to underscores; histograms emit cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`. Events are not
/// exported (Prometheus has no event type); scrape the JSON form for
/// those.
#[must_use]
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for (name, value) in &snapshot.counters {
        let prom = prom_name(name);
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let prom = prom_name(name);
        let _ = writeln!(out, "# TYPE {prom} gauge");
        let _ = writeln!(out, "{prom} {}", prom_number(*value));
    }
    for h in &snapshot.histograms {
        let prom = prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {prom} histogram");
        for (le, count) in &h.buckets {
            let _ = writeln!(out, "{prom}_bucket{{le=\"{}\"}} {count}", prom_number(*le));
        }
        let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{prom}_sum {}", prom_number(h.sum));
        let _ = writeln!(out, "{prom}_count {}", h.count);
    }
    out
}

fn prom_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 7);
    out.push_str("uptime_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_number(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value == f64::INFINITY {
        "+Inf".to_owned()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::registry::MetricsRegistry;
    use crate::ring::EventRecord;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter_add("optimizer.fast.variants", 46656);
        r.gauge_set("optimizer.pruned.cut_rate", 0.125);
        r.observe("broker.sync.attempts", 1.0);
        r.observe("broker.sync.attempts", 3.0);
        r.event("broker.breaker.opened", "softlayer: 3 consecutive faults");
        r.snapshot()
    }

    fn pretty(snapshot: &MetricsSnapshot) -> String {
        serde_json::to_string_pretty(snapshot).expect("snapshot serializes")
    }

    #[test]
    fn json_has_all_sections_and_schema_version() {
        let json = pretty(&sample_snapshot());
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"optimizer.fast.variants\": 46656"));
        assert!(json.contains("\"optimizer.pruned.cut_rate\": 0.125"));
        assert!(json.contains("\"broker.sync.attempts\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"broker.breaker.opened\""));
    }

    #[test]
    fn json_of_empty_snapshot_is_well_formed() {
        let json = pretty(&MetricsRegistry::new().snapshot());
        assert!(json.contains("\"counters\": {},"));
        assert!(json.contains("\"events\": []"));
    }

    #[test]
    fn json_escapes_details() {
        let r = MetricsRegistry::new();
        r.event("e", "line1\nline2 \"quoted\" back\\slash");
        let json = pretty(&r.snapshot());
        assert!(json.contains("line1\\nline2 \\\"quoted\\\" back\\\\slash"));
    }

    #[test]
    fn json_numbers_keep_float_shape() {
        let r = MetricsRegistry::new();
        r.gauge_set("g.two", 2.0);
        r.gauge_set("g.half", 0.5);
        r.gauge_set("g.nan", f64::NAN);
        r.gauge_set("g.huge", 1e300);
        r.observe("h", 7.0);
        let json = pretty(&r.snapshot());
        for member in [
            "\"g.two\": 2.0",
            "\"g.half\": 0.5",
            "\"g.nan\": null",
            "\"g.huge\": 1e300",
            "\"sum\": 7.0",
        ] {
            assert!(json.contains(member), "{member} in {json}");
        }
    }

    /// The document the hand-written exporter printed for this snapshot
    /// before the snapshot serialized through serde: same members, same
    /// numbers, same strings.
    const PINNED_SNAPSHOT: &str = r#"{
  "schema_version": 1,
  "counters": {
    "broker.sync.calls": 3,
    "optimizer.variants": 18446744073709551615
  },
  "gauges": {
    "g.half": 0.5,
    "g.huge": 1e300,
    "g.nan": null,
    "g.two": 2.0
  },
  "histograms": {
    "broker.sync.attempts": { "count": 4, "sum": 7.0, "min": 1.0, "max": 3.0, "p50": 2.0, "p95": 3.0, "p99": 3.0, "buckets": [{ "le": 1.0, "count": 1 }, { "le": 2.0, "count": 2 }, { "le": 4.0, "count": 4 }] }
  },
  "events": [
    { "seq": 0, "name": "broker.breaker.opened", "detail": "line1\nline2 \"quoted\" back\\slash" }
  ]
}
"#;

    #[test]
    fn snapshot_serializes_to_the_pinned_document() {
        let snapshot = MetricsSnapshot {
            schema_version: 1,
            counters: vec![
                ("broker.sync.calls".to_owned(), 3),
                ("optimizer.variants".to_owned(), u64::MAX),
            ],
            gauges: vec![
                ("g.half".to_owned(), 0.5),
                ("g.huge".to_owned(), 1e300),
                ("g.nan".to_owned(), f64::NAN),
                ("g.two".to_owned(), 2.0),
            ],
            histograms: vec![HistogramSnapshot {
                name: "broker.sync.attempts".to_owned(),
                count: 4,
                sum: 7.0,
                min: 1.0,
                max: 3.0,
                p50: 2.0,
                p95: 3.0,
                p99: 3.0,
                buckets: vec![(1.0, 1), (2.0, 2), (4.0, 4)],
            }],
            events: vec![EventRecord {
                seq: 0,
                name: "broker.breaker.opened".to_owned(),
                detail: "line1\nline2 \"quoted\" back\\slash".to_owned(),
            }],
        };
        let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let printed: Value = serde_json::from_str(&text).expect("printed document parses");
        let pinned: Value = serde_json::from_str(PINNED_SNAPSHOT).expect("pinned document parses");
        assert_eq!(printed, pinned);
    }

    #[test]
    fn prometheus_renders_all_metric_kinds() {
        let prom = to_prometheus(&sample_snapshot());
        assert!(prom.contains("# TYPE uptime_optimizer_fast_variants counter"));
        assert!(prom.contains("uptime_optimizer_fast_variants 46656"));
        assert!(prom.contains("# TYPE uptime_optimizer_pruned_cut_rate gauge"));
        assert!(prom.contains("uptime_optimizer_pruned_cut_rate 0.125"));
        assert!(prom.contains("# TYPE uptime_broker_sync_attempts histogram"));
        assert!(prom.contains("uptime_broker_sync_attempts_bucket{le=\"1\"} 1"));
        assert!(prom.contains("uptime_broker_sync_attempts_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("uptime_broker_sync_attempts_sum 4"));
        assert!(prom.contains("uptime_broker_sync_attempts_count 2"));
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("a.b-c.d"), "uptime_a_b_c_d");
    }
}
