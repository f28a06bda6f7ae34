//! Metric definitions, statistics, provenance, the result line, and
//! `compare`.

use serde::Value;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. End-to-end metrics carry the share of the
/// parent's median by which they may worsen before a change regresses.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the daemon sees, measured from outside with tracing
/// left at the daemon's default.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_req", "us", Better::Lower, 0.25),
    e2e("rss_mb", "MB", Better::Lower, 0.15),
];

/// One number per layer, from the in-process replay, its probes, and a
/// short open-loop phase against the daemon.
pub const PER_LAYER: [MetricDef; 29] = [
    layer("serve.p99_us", "us", Better::Lower),
    layer("serve.scan_ns", "ns", Better::Lower),
    layer("serve.frame_decode_ns", "ns", Better::Lower),
    layer("serve.cache_lookup_ns", "ns", Better::Lower),
    layer("serve.envelope_ns", "ns", Better::Lower),
    layer("serve.cache_hit_ratio", "ratio", Better::Higher),
    layer("serve.coalesced_ratio", "ratio", Better::Higher),
    layer("serve.shed_ratio", "ratio", Better::Lower),
    layer("serve.ctx_switches_per_req", "count", Better::Lower),
    layer("serve.unattributed_us", "us", Better::Lower),
    layer("broker.fingerprint_ns", "ns", Better::Lower),
    layer("broker.handle_ns", "ns", Better::Lower),
    layer("broker.request_parse_ns", "ns", Better::Lower),
    layer("broker.recommend_ns", "ns", Better::Lower),
    layer("broker.solve_slo_ns", "ns", Better::Lower),
    layer("broker.to_value_ns", "ns", Better::Lower),
    layer("broker.render_ns", "ns", Better::Lower),
    layer("broker.body_bytes", "bytes", Better::Lower),
    layer("broker.sync_ns", "ns", Better::Lower),
    layer("optimizer.search_ns", "ns", Better::Lower),
    layer("optimizer.assignments_per_s", "1/s", Better::Higher),
    layer("optimizer.pareto_ns", "ns", Better::Lower),
    layer("durability.append_ns", "ns", Better::Lower),
    layer("durability.bytes_per_absorb", "bytes", Better::Lower),
    layer("durability.replay_ns_per_record", "ns", Better::Lower),
    layer("obs.trace_ns", "ns", Better::Lower),
    layer("catalog.build_ns", "ns", Better::Lower),
    layer("bench.send_late_p99_us", "us", Better::Lower),
    layer("bench.span_ns", "ns", Better::Lower),
];

/// A measured metric: its value and the per-trial values behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    pub trials: Vec<f64>,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub measured: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub report: Value,
}

/// Builds the measured list for `defs` from `(name, value, trials)`
/// entries; panics if a definition has no entry, which is a bug here.
pub fn collect(defs: &[MetricDef], mut entries: Vec<(&str, f64, Vec<f64>)>) -> Vec<Measured> {
    defs.iter()
        .map(|def| {
            let at = entries
                .iter()
                .position(|(name, _, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            let (_, value, trials) = entries.swap_remove(at);
            Measured {
                def: *def,
                value,
                trials,
            }
        })
        .collect()
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that leaves at least
/// ten samples beyond it, or `None` for fewer than twenty samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // (percentile, 1 / share of samples beyond it)
    [
        (99.999, 100_000),
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, inverse_share)| samples >= 10 * inverse_share)
    .map(|(p, _)| p)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max - min) / median` of per-trial values; 0 for fewer than two.
pub fn spread(trials: &[f64]) -> f64 {
    if trials.len() < 2 {
        return 0.0;
    }
    let max = trials.iter().copied().fold(f64::MIN, f64::max);
    let min = trials.iter().copied().fold(f64::MAX, f64::min);
    let mid = median(trials);
    if mid == 0.0 {
        0.0
    } else {
        (max - min) / mid.abs()
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// Host and toolchain facts every report carries.
pub fn host() -> Value {
    serde_json::json!({
        "cpus": std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .ok(),
        "rustc": command_line("rustc", &["--version"]),
        "git_rev": command_line("git", &["rev-parse", "HEAD"]),
    })
}

/// The metrics section of a report.
pub fn metrics_value(measured: &[Measured]) -> Value {
    let mut map = serde::Map::new();
    for m in measured {
        map.insert(
            m.def.name.to_owned(),
            serde_json::json!({
                "value": m.value,
                "unit": m.def.unit,
                "better": m.def.better.as_str(),
                "bound": m.def.bound,
                "trials": m.trials,
            }),
        );
    }
    Value::Object(map)
}

/// The one-line result the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, measured: &[Measured]) -> String {
    let mut metrics = serde::Map::new();
    for m in measured {
        metrics.insert(
            m.def.name.to_owned(),
            serde_json::json!({ "value": m.value, "unit": m.def.unit }),
        );
    }
    serde_json::to_string(&serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    }))
    .expect("result serializes")
}

/// Prints one aligned row per metric, with its per-trial values.
pub fn print_metrics(workload: &str, measured: &[Measured]) {
    for m in measured {
        let trials: Vec<String> = m.trials.iter().map(|t| format!("{t:.4}")).collect();
        let trials = if trials.is_empty() {
            String::new()
        } else {
            format!("trials [{}]", trials.join(", "))
        };
        println!(
            "{workload:<9} {:<32} {:>16.4} {:<6} {trials}",
            m.def.name, m.value, m.def.unit,
        );
    }
}

/// How a metric moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// The trials of either report spread wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies `old -> new` against `bound`. `worse_share` is the relative
/// change in the worsening direction.
pub fn classify(old: f64, new: f64, better: Better, bound: f64, spread: f64) -> (f64, Verdict) {
    let change = if old == 0.0 {
        0.0
    } else {
        (new - old) / old.abs()
    };
    let worse_share = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_share > bound {
        Verdict::Worse
    } else if worse_share < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worse_share, verdict)
}

/// The workload reports in a report file (one object or an array).
fn workloads(report: &Value) -> Vec<&Value> {
    match report {
        Value::Array(items) => items.iter().collect(),
        other => vec![other],
    }
}

fn trials_of(metric: &Value) -> Vec<f64> {
    metric
        .get("trials")
        .and_then(Value::as_array)
        .map(|t| t.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `compare OLD NEW`: one row per workload and bounded metric.
pub fn compare(old: &Value, new: &Value) -> Vec<String> {
    let mut rows = vec![format!(
        "{:<9} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse", "bound"
    )];
    for old_run in workloads(old) {
        let Some(name) = old_run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let Some(new_run) = workloads(new)
            .into_iter()
            .find(|run| run.get("workload").and_then(Value::as_str) == Some(name))
        else {
            rows.push(format!("{name:<9} missing from the new report"));
            continue;
        };
        let Some(Value::Object(metrics)) = old_run.get("metrics") else {
            continue;
        };
        for (metric, old_metric) in metrics {
            let Some(bound) = old_metric.get("bound").and_then(Value::as_f64) else {
                continue;
            };
            let Some(new_metric) = new_run.get("metrics").and_then(|m| m.get(metric)) else {
                rows.push(format!(
                    "{name:<9} {metric:<16} missing from the new report"
                ));
                continue;
            };
            let better = match old_metric.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let value = |m: &Value| m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let (old_value, new_value) = (value(old_metric), value(new_metric));
            let spread = spread(&trials_of(old_metric)).max(spread(&trials_of(new_metric)));
            let (worse, verdict) = classify(old_value, new_value, better, bound, spread);
            rows.push(format!(
                "{name:<9} {metric:<16} {old_value:>14.4} {new_value:>14.4} {:>8.1}% {:>6.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                verdict.as_str()
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(2_160), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(108_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn compare_classifies_against_the_bound() {
        let lower = |old, new, spread| classify(old, new, Better::Lower, 0.1, spread).1;
        assert_eq!(lower(100.0, 105.0, 0.02), Verdict::Within);
        assert_eq!(lower(100.0, 115.0, 0.02), Verdict::Worse);
        assert_eq!(lower(100.0, 85.0, 0.02), Verdict::Better);
        assert_eq!(lower(100.0, 150.0, 0.2), Verdict::Unresolved);
        let higher = |old, new| classify(old, new, Better::Higher, 0.1, 0.0).1;
        assert_eq!(higher(100.0, 85.0), Verdict::Worse);
        assert_eq!(higher(100.0, 115.0), Verdict::Better);
    }

    #[test]
    fn compare_reads_report_files() {
        let report = |rps: f64, trials: [f64; 3]| {
            serde_json::json!([{ "workload": "hot", "metrics": {
                "throughput_rps": { "value": rps, "unit": "1/s", "better": "higher",
                                    "bound": 0.1, "trials": trials },
                "serve.scan_ns": { "value": 1.0, "unit": "ns", "better": "lower",
                                   "bound": null, "trials": [] },
            } }])
        };
        let rows = compare(
            &report(1000.0, [990.0, 1000.0, 1010.0]),
            &report(800.0, [790.0, 800.0, 810.0]),
        );
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows[1].ends_with("worse"), "{rows:?}");
        let rows = compare(
            &report(1000.0, [700.0, 1000.0, 1300.0]),
            &report(800.0, [790.0, 800.0, 810.0]),
        );
        assert!(rows[1].ends_with("unresolved"), "{rows:?}");
    }

    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| spec.get(key).and_then(Value::as_array).expect(key).clone();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), def.bound);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.as_str())
            );
        }
        let names: Vec<String> = list("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect();
        let expected: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, expected);
    }
}
