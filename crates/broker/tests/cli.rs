//! Smoke tests driving the `brokerctl` binary end-to-end.

use std::process::Command;

fn brokerctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_brokerctl"))
}

#[test]
fn recommend_prints_fig10_numbers() {
    let output = brokerctl().arg("recommend").output().expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("option #3 at $1250/mo"), "{text}");
    assert!(text.contains("option #5 at $1350/mo"), "{text}");
}

#[test]
fn recommend_json_parses() {
    let output = brokerctl()
        .args(["recommend", "--json"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let value: serde_json::Value = serde_json::from_slice(&output.stdout).unwrap();
    assert!(value.get("clouds").is_some());
}

#[test]
fn catalog_lists_methods_and_clouds() {
    let output = brokerctl()
        .args(["catalog", "--hybrid"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    for needle in [
        "softlayer",
        "nimbus",
        "stratus",
        "raid1",
        "bgp-dual-circuit",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn frontier_renders_the_demo_tradeoff() {
    let output = brokerctl().arg("frontier").output().expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    // Demo spec: 98% hard floor keeps the paper's two top options; the
    // $2000 soft cap recommends the $1350 point.
    assert!(text.contains("uptime target 98.000%"), "{text}");
    assert!(text.contains("<- recommended"), "{text}");
    assert!(text.contains("1350"), "{text}");
    assert!(text.contains("3550"), "{text}");
}

#[test]
fn frontier_json_matches_engines_and_specs() {
    let inline = r#"{ "objectives": [
        { "metric": "uptime", "threshold": 92.0, "mode": "hard" },
        { "metric": "cost", "threshold": 1000.0, "mode": "soft" }
    ] }"#;
    let run = |args: &[&str]| {
        let output = brokerctl()
            .args(["frontier", "--json"])
            .args(args)
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{output:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    let engine = |text: &str| {
        let value: serde_json::Value = serde_json::from_str(text).unwrap();
        value
            .get("engine")
            .and_then(|e| e.as_str())
            .map(str::to_owned)
    };
    // The space's size names the engine: the paper's 8 variants are
    // swept, the hybrid global archetype's 46,656 a cloud are not.
    let paper = run(&["--inline", inline]);
    assert_eq!(engine(&paper).as_deref(), Some("exhaustive"));
    let global = run(&["--hybrid", "--archetype", "global"]);
    assert_eq!(engine(&global).as_deref(), Some("bnb"));

    // The CLI prints the service's report byte for byte.
    let request = uptime_broker::FrontierRequest::from_spec(
        uptime_broker::SolutionRequest::builder()
            .tiers(uptime_catalog::ComponentKind::paper_tiers())
            .penalty_per_hour(100.0)
            .unwrap(),
        uptime_slo::SloSpec::from_json_str(inline).unwrap(),
    )
    .unwrap();
    let report = uptime_broker::BrokerService::new(uptime_catalog::case_study::catalog())
        .solve_slo(&request)
        .unwrap();
    assert_eq!(
        paper,
        format!("{}\n", serde_json::to_string_pretty(&report).unwrap())
    );

    // A spec file is read the same as --inline.
    let dir = std::env::temp_dir().join("brokerctl-frontier-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, inline).unwrap();
    assert_eq!(run(&["--spec", path.to_str().unwrap()]), paper);
}

#[test]
fn frontier_infeasible_spec_exits_3_and_bad_spec_exits_1() {
    let impossible = r#"{ "objectives": [
        { "metric": "uptime", "threshold": 99.999, "mode": "hard" },
        { "metric": "cost", "threshold": 1.0, "mode": "hard" }
    ] }"#;
    let output = brokerctl()
        .args(["frontier", "--inline", impossible])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "{output:?}");
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("slo infeasible"), "{err}");

    let malformed = r#"{ "objectives": [ { "metric": "latency", "threshold": 1.0 } ] }"#;
    let output = brokerctl()
        .args(["frontier", "--inline", malformed])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("brokerctl:"), "{err}");
}

#[test]
fn help_documents_frontier_and_exit_codes() {
    let output = brokerctl().arg("help").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("frontier ["), "{text}");
    assert!(text.contains("slo_spec.schema.json"), "{text}");
    assert!(
        text.contains("`frontier`: the"),
        "exit-code table must cover frontier: {text}"
    );
}

#[test]
fn sweep_shows_crossovers() {
    let output = brokerctl()
        .args(["sweep", "90", "99.5", "10"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("Crossovers"), "{text}");
}

#[test]
fn metacloud_reports_cross_cloud_plan() {
    let output = brokerctl().arg("metacloud").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("Metacloud:"), "{text}");
    assert!(text.contains("raid1"), "{text}");
}

#[test]
fn unknown_subcommand_exits_2() {
    let output = brokerctl().arg("bogus").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    for args in [
        ["recommend", "--engine", "bnb"],
        ["frontier", "--engine", "bnb"],
        ["metacloud", "--engine", "bnb"],
        ["recommend", "--josn", "--hybrid"],
        ["metacloud", "--hybird", "--json"],
        // `serve` refuses a bad flag or value before it binds.
        ["serve", "--engine", "bnb"],
        ["serve", "--workers", "many"],
        ["trace", "--bogus", "--json"],
    ] {
        let output = brokerctl().args(args).output().expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?}: {output:?}");
        let err = String::from_utf8(output.stderr).unwrap();
        assert!(err.contains(&format!("`{}`", args[1])), "{args:?}: {err}");
    }
}

#[test]
fn health_without_chaos_is_clean() {
    let output = brokerctl().arg("health").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("degraded: no"), "{text}");
    assert!(text.contains("breaker closed"), "{text}");
}

#[test]
fn health_json_parses_and_exit_code_reflects_degradation() {
    let output = brokerctl()
        .args(["health", "--json", "--chaos", "2"])
        .output()
        .expect("binary runs");
    // Under chaos the run may or may not end degraded; both are valid,
    // anything else is a failure.
    let code = output.status.code();
    assert!(code == Some(0) || code == Some(3), "{output:?}");
    let value: serde_json::Value = serde_json::from_slice(&output.stdout).unwrap();
    let health = value.get("health").expect("health key");
    let degraded = health.get("degraded").and_then(|d| d.as_bool()).unwrap();
    assert_eq!(code, Some(if degraded { 3 } else { 0 }));
    assert!(value.get("incidents").is_some());
}

#[test]
fn health_is_deterministic_per_seed() {
    let run = || {
        brokerctl()
            .args(["health", "--json", "--chaos", "5"])
            .output()
            .expect("binary runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.status.code(), b.status.code());
    assert_eq!(a.stdout, b.stdout, "identical seed, identical report");
}

#[test]
fn health_rejects_bad_seed() {
    let output = brokerctl()
        .args(["health", "nonsense"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("`SEED`"), "{err}");
}

#[test]
fn malformed_or_missing_numbers_exit_2_and_name_the_argument() {
    for (args, name) in [
        (&["sweep", "90", "99", "x"][..], "STEPS"),
        (&["sweep", "ninety", "99", "5"], "FROM"),
        (&["sweep", "90", "99"], "STEPS"),
        (&["settle", "3x"], "MONTHS"),
        (&["settle"], "MONTHS"),
        (&["settle", "3", "x"], "SEED"),
        (&["health", "--chaos", "x"], "SEED"),
        (&["obs", "x"], "SEED"),
        // `serve` refuses a bad seed before it binds.
        (&["serve", "--chaos", "x"], "SEED"),
    ] {
        let output = brokerctl().args(args).output().expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?}: {output:?}");
        let err = String::from_utf8(output.stderr).unwrap();
        assert!(err.contains(&format!("`{name}`")), "{args:?}: {err}");
    }
}
