//! End-to-end checks of the `brokerctl obs` exporter: the JSON form must
//! validate against the checked-in `schemas/obs_snapshot.schema.json`,
//! and the Prometheus form must follow the text exposition format.
//! `brokerctl health --json` must validate against
//! `schemas/health.schema.json`. Both go through
//! `uptime_serve::schema`, the validator the daemon's frames use.

use std::process::Command;

use serde_json::Value;

fn brokerctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_brokerctl"))
        .args(args)
        .output()
        .expect("brokerctl runs")
}

/// Member lookup that panics with the missing key's name (the vendored
/// `Value` deliberately has no `Index` impl).
fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("missing key `{key}` in {value}"))
}

/// A checked-in schema from `schemas/`.
fn schema(name: &str) -> Value {
    let path = format!("{}/../../schemas/{name}", env!("CARGO_MANIFEST_DIR"));
    serde_json::from_str(&std::fs::read_to_string(path).expect("schema file readable"))
        .expect("schema file is valid JSON")
}

fn assert_valid_snapshot(raw: &str) -> Value {
    let value: Value = serde_json::from_str(raw).expect("exporter output parses as JSON");
    uptime_serve::schema::assert_valid(&value, &schema("obs_snapshot.schema.json"));
    value
}

#[test]
fn obs_json_validates_against_checked_in_schema() {
    let output = brokerctl(&["obs", "--json"]);
    assert!(output.status.success(), "{output:?}");
    let value = assert_valid_snapshot(&String::from_utf8(output.stdout).unwrap());

    // A clean recommend+sync run populates all three metric families.
    let counters = get(&value, "counters").as_object().unwrap();
    assert!(counters.contains_key("broker.sync.calls"));
    assert!(counters.contains_key("optimizer.exhaustive.variants"));
    assert!(get(&value, "histograms")
        .as_object()
        .unwrap()
        .contains_key("broker.sync.attempts"));
    assert!(get(&value, "gauges")
        .as_object()
        .unwrap()
        .contains_key("broker.degraded"));
}

#[test]
fn obs_json_under_chaos_still_validates() {
    let output = brokerctl(&["obs", "--json", "--chaos", "3"]);
    assert!(output.status.success(), "{output:?}");
    let value = assert_valid_snapshot(&String::from_utf8(output.stdout).unwrap());
    // Chaos produces incidents, which surface in the event ring.
    assert!(!get(&value, "events").as_array().unwrap().is_empty());
}

#[test]
fn obs_prometheus_follows_exposition_format() {
    let output = brokerctl(&["obs", "--prom"]);
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("# TYPE uptime_broker_sync_calls counter"));
    assert!(text.contains("# TYPE uptime_broker_sync_attempts histogram"));
    assert!(text.contains("uptime_broker_sync_attempts_bucket{le=\"+Inf\"}"));
    assert!(text.contains("uptime_broker_sync_attempts_sum"));
    assert!(text.contains("uptime_broker_sync_attempts_count"));
    // Every non-comment line is `name{labels} value` with a sane name.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("uptime_"), "bad series name: {line}");
        assert!(
            line.split_whitespace().count() == 2,
            "bad sample line: {line}"
        );
    }
}

#[test]
fn health_json_carries_schema_version() {
    let output = brokerctl(&["health", "--json"]);
    let value: Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("health JSON");
    assert_eq!(*get(&value, "schema_version"), serde_json::json!(1));
    assert!(get(&value, "health").as_object().is_some());
    assert!(get(&value, "incidents").as_array().is_some());
}

#[test]
fn health_json_validates_against_checked_in_schema() {
    let health_schema = schema("health.schema.json");
    for seed in ["2", "9"] {
        let output = brokerctl(&["health", "--json", "--chaos", seed]);
        let value: Value =
            serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("health JSON");
        uptime_serve::schema::assert_valid(&value, &health_schema);
    }
    // Clean run too: no chaos, exit code 0, still schema-conformant.
    let output = brokerctl(&["health", "--json"]);
    assert!(output.status.success());
    let value: Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("health JSON");
    uptime_serve::schema::assert_valid(&value, &health_schema);
}

#[test]
fn help_documents_exit_codes() {
    let output = brokerctl(&["help"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("Exit codes"));
    for code in ["0", "1", "2", "3"] {
        assert!(
            text.lines().any(|l| l.trim().starts_with(code)),
            "exit code {code} undocumented"
        );
    }
}

#[test]
fn obs_watch_emits_counter_delta_lines() {
    let output = brokerctl(&["obs", "--watch", "0", "--iters", "2"]);
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSON line per tick: {text}");
    for (i, line) in lines.iter().enumerate() {
        let value: Value = serde_json::from_str(line).expect("tick line is JSON");
        assert_eq!(
            *get(&value, "tick"),
            serde_json::json!((i + 1) as u64),
            "{line}"
        );
        let deltas = get(&value, "deltas").as_object().expect("deltas object");
        // Every tick drives one recommend, so its counter moves by
        // exactly one; deltas are growth-only and strictly positive.
        assert_eq!(
            deltas.get("broker.recommend.calls"),
            Some(&serde_json::json!(1u64)),
            "{line}"
        );
        assert!(
            deltas.values().all(|v| v.as_u64().is_some_and(|n| n > 0)),
            "deltas must be positive integers: {line}"
        );
    }
}
