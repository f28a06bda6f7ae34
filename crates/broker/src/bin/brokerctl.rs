//! `brokerctl` — command-line front end to the uptime brokered service.
//!
//! ```text
//! brokerctl catalog [--hybrid]
//!     List clouds, HA methods, prices and reliability records.
//!
//! brokerctl recommend [--hybrid] [--json] [--archetype NAME] [REQUEST.json]
//!     Run the full recommendation pipeline. Without a request file, uses
//!     the paper's case-study intake (98 % SLA, $100/h penalty); with
//!     --archetype, searches that deployment archetype's series-parallel
//!     composition space instead of the serial chain.
//!
//! brokerctl frontier [--hybrid] [--json] [--engine NAME] [--archetype NAME]
//!                    [--spec FILE | --inline JSON]
//!     Exact feasible cost/uptime Pareto frontier per cloud for a
//!     declarative SLO spec (hard constraints filter, weighted soft
//!     objectives rank and pick the recommendation). Exits 3 when the
//!     hard constraints are unsatisfiable everywhere.
//!
//! brokerctl sweep [--hybrid] FROM TO STEPS
//!     SLA sweep: the winning architecture per target percentage.
//!
//! brokerctl settle MONTHS [SEED]
//!     Settle a simulated multi-month contract for the case-study optimum
//!     and compare realized payouts with Eq. 5.
//!
//! brokerctl metacloud
//!     Cross-provider (metacloud) recommendation over the hybrid catalog.
//!
//! brokerctl serve [--hybrid] [--addr HOST:PORT] [--workers N] [--queue N] [--chaos SEED]
//!                 [--state-dir DIR] [--fsync os|always|every:N] [--snapshot-every N]
//!                 [--no-trace] [--trace-capacity N] [--trace-slow-ms MS]
//!                 [--trace-sample N] [--stdin]
//!     Run the long-lived serving daemon: newline-delimited JSON frames
//!     over TCP, answered through a telemetry-epoch-keyed response cache,
//!     single-flight coalescing, and a backpressured worker pool that
//!     sheds (429) when the admission queue is full. Every request is
//!     traced into a bounded flight recorder (tail-sampled: errors,
//!     sheds and slow requests always kept) queryable via the `traces`
//!     endpoint; `"explain": true` on a request frame returns an inline
//!     per-stage breakdown. With --state-dir the broker recovers its
//!     pre-crash state on startup and journals every accepted telemetry
//!     batch before absorbing it. With --stdin, the legacy loop: one
//!     SolutionRequest JSON per stdin line, one JSON response per line
//!     ({"ok": ...} or {"error": ...}).
//!
//! brokerctl trace [--addr HOST:PORT] [--slowest N] [--errors] [--json|--chrome]
//!     Pull traces from a running daemon's flight recorder: span trees
//!     with per-stage durations (default), raw export JSON, or Chrome
//!     trace_event JSON for chrome://tracing / Perfetto.
//!
//! brokerctl recover [--verify] [--json] [--compact] [--disk-chaos SEED] --state-dir DIR
//!     Replay a state directory and report what recovery found. --verify
//!     is a dry run that leaves the journal untouched; --compact folds
//!     the journal into a fresh snapshot after recovery. Exits 0 on a
//!     clean recovery, 3 when the state was degraded (torn tail,
//!     quarantined or malformed records), 1 on I/O failure.
//!
//! brokerctl health [--hybrid] [--json] [--chaos] [SEED]
//!     Register a simulated provider per cloud, drive telemetry sync
//!     rounds, and report control-plane health plus the incident log.
//!     With --chaos the providers misbehave (seeded fault injection).
//!     Exits 0 when healthy, 3 when the broker is serving degraded.
//!
//! brokerctl obs [--json|--prom] [--hybrid] [--chaos] [--watch SECS [--iters N]] [SEED]
//!     Drive an instrumented recommend+sync run against simulated
//!     providers and export the metrics snapshot as JSON (default) or
//!     Prometheus text format. --watch SECS keeps driving work and
//!     prints one JSON line of counter deltas per tick.
//!
//! brokerctl help | --help
//!     Print usage, including the exit-code contract.
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use uptime_broker::{
    report, settlement, BrokerService, ChaosConfig, ChaosProvider, DurabilityConfig, GroundTruth,
    RecoveryReport, SearchEngine, ServingBroker, SimulatedProvider, SolutionRequest,
};
use uptime_catalog::{case_study, extended, CatalogStore, ComponentKind};
use uptime_core::{PenaltyClause, RoundingPolicy, SystemSpec};
use uptime_durability::{DiskChaos, FsyncPolicy, StateDir};
use uptime_optimizer::{sweep, SearchSpace};
use uptime_serve::{Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: Vec<&str> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    let mut command = None;
    let mut engine = SearchEngine::default();
    let mut state_dir: Option<String> = None;
    let mut disk_chaos: Option<u64> = None;
    let mut archetype: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut inline_spec: Option<String> = None;
    let mut watch: Option<u64> = None;
    let mut iters: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--state-dir" {
            i += 1;
            match args.get(i) {
                Some(v) => state_dir = Some(v.clone()),
                None => {
                    eprintln!("brokerctl: --state-dir needs a directory");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--disk-chaos" {
            i += 1;
            let value = match args.get(i) {
                Some(v) => v,
                None => {
                    eprintln!("brokerctl: --disk-chaos needs a seed");
                    return ExitCode::from(2);
                }
            };
            disk_chaos = match value.parse() {
                Ok(seed) => Some(seed),
                Err(_) => {
                    eprintln!("brokerctl: --disk-chaos seed must be an integer");
                    return ExitCode::from(2);
                }
            };
        } else if arg == "--archetype" {
            i += 1;
            match args.get(i) {
                Some(v) => archetype = Some(v.clone()),
                None => {
                    eprintln!(
                        "brokerctl: --archetype needs a name (one of: {})",
                        uptime_optimizer::Archetype::all()
                            .iter()
                            .map(|a| a.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--spec" {
            i += 1;
            match args.get(i) {
                Some(v) => spec_path = Some(v.clone()),
                None => {
                    eprintln!("brokerctl: --spec needs a SLO spec file");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--inline" {
            i += 1;
            match args.get(i) {
                Some(v) => inline_spec = Some(v.clone()),
                None => {
                    eprintln!("brokerctl: --inline needs a JSON SLO spec");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--watch" {
            i += 1;
            let value = match args.get(i) {
                Some(v) => v,
                None => {
                    eprintln!("brokerctl: --watch needs an interval in seconds");
                    return ExitCode::from(2);
                }
            };
            watch = match value.parse() {
                Ok(secs) => Some(secs),
                Err(_) => {
                    eprintln!("brokerctl: --watch interval must be an integer");
                    return ExitCode::from(2);
                }
            };
        } else if arg == "--iters" {
            i += 1;
            let value = match args.get(i) {
                Some(v) => v,
                None => {
                    eprintln!("brokerctl: --iters needs a count");
                    return ExitCode::from(2);
                }
            };
            iters = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("brokerctl: --iters count must be an integer");
                    return ExitCode::from(2);
                }
            };
        } else if arg == "--engine" {
            i += 1;
            let value = match args.get(i) {
                Some(v) => v,
                None => {
                    eprintln!("brokerctl: --engine needs a value (exhaustive|bnb)");
                    return ExitCode::from(2);
                }
            };
            engine = match value.parse() {
                Ok(e) => e,
                Err(err) => {
                    eprintln!("brokerctl: {err}");
                    return ExitCode::from(2);
                }
            };
        } else if arg.starts_with("--") {
            flags.push(arg);
        } else if command.is_none() {
            command = Some(arg.as_str());
        } else {
            positional.push(arg);
        }
        i += 1;
    }
    let hybrid = flags.contains(&"--hybrid");
    let json = flags.contains(&"--json");

    if command == Some("help") || flags.contains(&"--help") {
        print_help();
        return ExitCode::SUCCESS;
    }
    if command == Some("health") {
        let chaos = flags.contains(&"--chaos");
        return match health_command(hybrid, json, chaos, positional.first().copied()) {
            Ok(true) => ExitCode::from(3),
            Ok(false) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("brokerctl: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if command == Some("recover") {
        let Some(dir) = state_dir.as_deref().or_else(|| positional.first().copied()) else {
            eprintln!("brokerctl: recover needs a state directory (--state-dir DIR or DIR)");
            return ExitCode::from(2);
        };
        let verify = flags.contains(&"--verify");
        let compact = flags.contains(&"--compact");
        return match recover_command(hybrid, json, verify, compact, disk_chaos, dir) {
            Ok(true) => ExitCode::from(3),
            Ok(false) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("brokerctl: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if command == Some("frontier") {
        if spec_path.is_some() && inline_spec.is_some() {
            eprintln!("brokerctl: --spec and --inline are mutually exclusive");
            return ExitCode::from(2);
        }
        let spec_text = match &spec_path {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => Some(text),
                Err(err) => {
                    eprintln!("brokerctl: cannot read {path}: {err}");
                    return ExitCode::FAILURE;
                }
            },
            None => inline_spec.clone(),
        };
        return match frontier_command(hybrid, json, engine, archetype.as_deref(), spec_text) {
            Ok(true) => ExitCode::from(3),
            Ok(false) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("brokerctl: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match command {
        Some("catalog") => catalog_command(hybrid),
        Some("recommend") => recommend_command(
            hybrid,
            json,
            engine,
            state_dir.as_deref(),
            archetype.as_deref(),
            positional.first().copied(),
        ),
        Some("sweep") => sweep_command(hybrid, &positional),
        Some("settle") => settle_command(&positional),
        Some("metacloud") => metacloud_command(engine),
        Some("serve") => serve_command(&args),
        Some("trace") => trace_command(&args),
        Some("obs") => obs_command(
            hybrid,
            flags.contains(&"--prom"),
            flags.contains(&"--chaos"),
            watch,
            iters,
            positional.first().copied(),
        ),
        _ => {
            eprintln!(
                "usage: brokerctl <catalog|recommend|frontier|sweep|settle|metacloud|serve|trace|health|obs|recover> [options]"
            );
            eprintln!("       run `brokerctl help` for details and exit codes");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("brokerctl: {err}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "\
brokerctl — command-line front end to the uptime brokered service

Usage: brokerctl <COMMAND> [options]

Commands:
  catalog [--hybrid]
      List clouds, HA methods, prices and reliability records.
  recommend [--hybrid] [--json] [--engine exhaustive|bnb] [--archetype NAME]
            [--state-dir DIR] [REQUEST.json]
      Run the full recommendation pipeline (default: the paper's
      case-study intake, 98% SLA and $100/h penalty). With
      --engine bnb, the exact winner is proven by tight-bound parallel
      branch-and-bound instead of enumeration: same argmin, but the
      ranked option table is trimmed to the winner (plus the declared
      as-is option) and the search stats report how much of the space
      the bound pruned. Use it for spaces enumeration cannot touch.
      With --archetype (zonal, multi-zonal, regional,
      multi-region-active-passive, multi-region-active-active, global)
      the tiers are replicated into that deployment-archetype
      series-parallel shape and the composition space is searched
      instead; request files select the same via a `topology` field.
  frontier [--hybrid] [--json] [--engine exhaustive|bnb] [--archetype NAME]
           [--spec FILE | --inline JSON]
      Extract the exact feasible cost/uptime Pareto frontier per cloud
      for a declarative SLO spec (schemas/slo_spec.schema.json): hard
      objectives constrain which deployments are feasible, weighted soft
      objectives rank the surviving frontier points and pick the
      recommended one. The spec comes from --spec FILE or --inline JSON;
      without either, a demo spec (98% hard uptime floor, $2000/mo soft
      cost cap) is used. --engine bnb prunes with epsilon-dominance
      branch-and-bound and answers bit-identically to exhaustive
      enumeration. --json emits the frontier_response document
      (schemas/frontier_response.schema.json).
  sweep [--hybrid] FROM TO STEPS
      SLA sweep: the winning architecture per target percentage.
  settle MONTHS [SEED]
      Settle a simulated multi-month contract for the case-study
      optimum and compare realized payouts with Eq. 5.
  metacloud [--engine exhaustive|bnb]
      Cross-provider (metacloud) recommendation over the hybrid catalog.
      --engine bnb proves the same placement by branch-and-bound.
  serve [--hybrid] [--addr HOST:PORT] [--workers N] [--queue N] [--chaos SEED]
        [--engine exhaustive|bnb] [--state-dir DIR] [--fsync os|always|every:N]
        [--snapshot-every N] [--no-trace] [--trace-capacity N]
        [--trace-slow-ms MS] [--trace-sample N] [--stdin]
      Long-lived serving daemon (default 127.0.0.1:7411): one JSON frame
      per line over TCP with fields id, endpoint and body; endpoints are
      recommend, frontier, metacloud, health, sync, ping, stats, traces
      and shutdown. Responses are cached per telemetry epoch, identical
      concurrent requests are coalesced, and overload sheds with code
      429. Every request is traced into a bounded in-memory flight
      recorder (tail-sampled: errors, sheds and slow requests always
      kept); add `\"explain\": true` to a request frame for an inline
      per-stage timing breakdown. --no-trace disables tracing,
      --trace-capacity bounds retained traces (default 256),
      --trace-slow-ms sets the always-keep slow threshold (default 25),
      --trace-sample keeps one in N ok-fast traces (default 1). With
      --state-dir DIR the broker recovers pre-crash state at startup and
      write-ahead-journals every accepted telemetry batch (crash-only:
      kill -9 and restart resumes bit-identically). With --stdin: one
      SolutionRequest JSON per stdin line, one JSON response per line.
  trace [--addr HOST:PORT] [--slowest N] [--errors] [--json|--chrome]
      Pull traces from a running daemon's flight recorder and render
      span trees with per-stage durations and attributes. --slowest N
      keeps the N slowest, --errors only failed/shed requests, --json
      emits the raw export (schemas/trace.schema.json), --chrome emits
      Chrome trace_event JSON loadable in chrome://tracing or Perfetto.
  recover [--verify] [--json] [--compact] [--disk-chaos SEED] --state-dir DIR
      Replay a state directory and report what recovery found: snapshot
      use, records replayed/skipped/quarantined/malformed, any torn-tail
      truncation, and the restored epoch. --verify dry-runs without
      repairing the journal file; --compact folds the journal into a
      fresh snapshot; --disk-chaos SEED injects a seeded disk fault
      first (torn tail, short write, bit flip, missing snapshot).
  health [--hybrid] [--json] [--chaos] [SEED]
      Drive telemetry sync rounds against simulated providers and report
      control-plane health plus the incident log. JSON output carries a
      top-level `schema_version` field.
  obs [--json|--prom] [--hybrid] [--chaos] [--watch SECS [--iters N]] [SEED]
      Drive an instrumented recommend+sync run and export the metrics
      snapshot as JSON (default) or Prometheus text format. With
      --watch SECS, keep driving work and print one JSON line per tick
      with the counter deltas since the previous tick (--iters N stops
      after N ticks; 0 = forever).
  help
      Print this help.

Exit codes:
  0   success; for `health`, the broker is healthy; for `recover`, the
      state recovered clean
  1   runtime error (bad input file, catalog error, I/O failure)
  2   usage error (unknown command or malformed arguments)
  3   `health`: the broker is up but serving degraded (breaker open or
      telemetry quarantined); `recover`: the state was degraded (torn
      journal tail, quarantined or malformed records); `frontier`: the
      spec parsed but its hard constraints are unsatisfiable on every
      requested cloud"
    );
}

fn catalog(hybrid: bool) -> CatalogStore {
    if hybrid {
        extended::hybrid_catalog()
    } else {
        case_study::catalog()
    }
}

fn catalog_command(hybrid: bool) -> Result<(), Box<dyn std::error::Error>> {
    let store = catalog(hybrid);
    println!("Clouds:");
    for id in store.cloud_ids() {
        let profile = store.cloud(id).expect("listed id resolves");
        println!(
            "  {:<12} {:<22} labor ${}/h",
            id.as_str(),
            profile.display_name(),
            profile.rate_card().labor_rate_per_hour()
        );
        for kind in profile.observed_components() {
            let r = profile.reliability(kind).expect("observed");
            println!(
                "      {:<18} P={:.2}%  f={:.2}/yr  ({:.0} node-years)",
                kind.label(),
                r.down_probability().as_percent(),
                r.failures_per_year().value(),
                r.node_years_observed()
            );
        }
    }
    println!("\nHA methods:");
    for method in store.methods() {
        println!(
            "  {:<22} {:<28} {:<16} shape {}  failover {}",
            method.id(),
            method.display_name(),
            method.applies_to().label(),
            method.shape(),
            method.failover_time()
        );
    }
    Ok(())
}

fn recommend_command(
    hybrid: bool,
    json: bool,
    engine: SearchEngine,
    state_dir: Option<&str>,
    archetype: Option<&str>,
    request_path: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let request: SolutionRequest = match request_path {
        Some(path) => {
            if archetype.is_some() {
                return Err(
                    "pass the archetype via the request file's `topology` field, \
                     not --archetype, when a REQUEST.json is given"
                        .into(),
                );
            }
            serde_json::from_str(&std::fs::read_to_string(path)?)?
        }
        None => {
            let mut builder = SolutionRequest::builder()
                .tiers(ComponentKind::paper_tiers())
                .sla_percent(case_study::SLA_PERCENT)?
                .penalty_per_hour(case_study::PENALTY_PER_HOUR)?;
            if let Some(name) = archetype {
                builder = builder.topology(name);
            }
            builder.build()?
        }
    };
    let mut broker = BrokerService::new(catalog(hybrid)).with_engine(engine);
    if let Some(dir) = state_dir {
        let (recovered, report) = broker.with_durability(DurabilityConfig::new(dir))?;
        broker = recovered;
        // Stderr so `--json` stdout stays machine-parsable.
        eprintln!(
            "recovered {} record(s) from {} (epoch {})",
            report.replayed, report.state_dir, report.epoch
        );
    }
    let recommendation = broker.recommend(&request)?;
    if json {
        println!("{}", report::to_json(&recommendation)?);
        return Ok(());
    }
    for cloud in recommendation.clouds() {
        print!("{}", report::render_fig10_summary(cloud));
        println!();
    }
    if recommendation.clouds().len() > 1 {
        print!("{}", report::render_cross_cloud(&recommendation));
    }
    Ok(())
}

/// The default SLO for `brokerctl frontier` with no `--spec`/`--inline`:
/// the paper's case-study uptime target as a hard floor plus a soft
/// monthly cost cap, so the output demonstrates both objective modes.
const DEFAULT_SLO_SPEC: &str = r#"{ "objectives": [
    { "metric": "uptime", "threshold": 98.0, "mode": "hard" },
    { "metric": "cost", "threshold": 2000.0, "mode": "soft", "weight": 1.0 }
] }"#;

/// `brokerctl frontier`: parse the SLO spec, extract the exact feasible
/// Pareto frontier per cloud via [`BrokerService::solve_slo`], and render
/// a cost/uptime tradeoff table (or the `frontier_response` JSON).
/// Returns whether the spec's hard constraints were unsatisfiable on
/// every requested cloud — mapped to exit code 3.
fn frontier_command(
    hybrid: bool,
    json: bool,
    engine: SearchEngine,
    archetype: Option<&str>,
    spec_text: Option<String>,
) -> Result<bool, Box<dyn std::error::Error>> {
    let text = spec_text.unwrap_or_else(|| DEFAULT_SLO_SPEC.to_owned());
    let spec = uptime_slo::SloSpec::from_json_str(&text)?;
    let mut builder = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)?;
    if let Some(name) = archetype {
        builder = builder.topology(name);
    }
    let request = uptime_broker::FrontierRequest::from_spec(builder, spec)?;
    let broker = BrokerService::new(catalog(hybrid)).with_engine(engine);
    let report = match broker.solve_slo(&request) {
        Ok(report) => report,
        Err(uptime_broker::BrokerError::SloInfeasible { reason }) => {
            eprintln!("brokerctl: slo infeasible: {reason}");
            return Ok(true);
        }
        Err(err) => return Err(err.into()),
    };
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
        return Ok(false);
    }
    println!(
        "Feasible Pareto frontier (engine {}, uptime target {:.3}%):",
        report.engine(),
        report.target_uptime_percent()
    );
    for cloud in report.clouds() {
        println!("\ncloud `{}`:", cloud.cloud());
        if cloud.points().is_empty() {
            println!("  (no deployment satisfies the hard constraints)");
            continue;
        }
        println!(
            "  {:>4} {:>12} {:>10} {:>14} {:>10}  methods",
            "rank", "cost $/mo", "U_s %", "failover m/mo", "score"
        );
        for (index, point) in cloud.points().iter().enumerate() {
            println!(
                "  {:>4} {:>12.0} {:>10.3} {:>14.3} {:>10.3}  {}{}",
                point.rank(),
                point.cost_per_month(),
                point.uptime_percent(),
                point.failover_minutes_per_month(),
                point.soft_score(),
                point.labels().join(" + "),
                if Some(index) == cloud.recommended_index() {
                    "   <- recommended"
                } else {
                    ""
                }
            );
        }
        let stats = cloud.stats();
        println!(
            "  ({} leaves evaluated, {} subtree(s) pruned, frontier size {})",
            stats.leaves_evaluated, stats.subtrees_pruned, stats.frontier_size
        );
    }
    if let Some((cloud, point)) = report.best() {
        println!(
            "\nBest across clouds: `{cloud}` at ${:.0}/mo, U_s {:.3}% (soft score {:.3})",
            point.cost_per_month(),
            point.uptime_percent(),
            point.soft_score()
        );
    }
    Ok(false)
}

fn sweep_command(hybrid: bool, positional: &[&str]) -> Result<(), Box<dyn std::error::Error>> {
    let [from, to, steps] = positional else {
        return Err("sweep needs FROM TO STEPS".into());
    };
    let from: f64 = from.parse()?;
    let to: f64 = to.parse()?;
    let steps: usize = steps.parse()?;
    let store = catalog(hybrid);
    let cloud = case_study::cloud_id();
    let space = SearchSpace::from_catalog(&store, &cloud, &ComponentKind::paper_tiers())?;
    let result = sweep::sla_sweep_range(
        &space,
        &PenaltyClause::per_hour(case_study::PENALTY_PER_HOUR)?,
        RoundingPolicy::CeilHour,
        from,
        to,
        steps,
    );
    println!(
        "{:>8} {:>14} {:>10} {:>12} {:>6}",
        "SLA %", "winner", "U_s %", "TCO $/mo", "meets"
    );
    for point in result.points() {
        println!(
            "{:>8.2} {:>14} {:>10.2} {:>12.0} {:>6}",
            point.sla_percent,
            format!("{:?}", point.best_assignment),
            point.best_uptime.as_percent(),
            point.best_tco.value(),
            if point.meets_sla { "yes" } else { "no" }
        );
    }
    let crossovers = result.crossovers();
    if crossovers.is_empty() {
        println!("\nNo crossovers in this range.");
    } else {
        println!("\nCrossovers (winner changes) between:");
        for (a, b) in crossovers {
            println!("  {a:.2}% and {b:.2}%");
        }
    }
    Ok(())
}

/// `brokerctl serve`: the long-lived daemon (default), or with `--stdin`
/// the legacy one-request-per-line stdin loop.
///
/// Daemon mode builds the catalog once, registers simulated providers
/// (chaotic when `--chaos SEED` is given), and serves newline-delimited
/// JSON frames over TCP through `uptime-serve`'s cache, single-flight
/// coalescing, and backpressured worker pool. Shut it down with a
/// `{"endpoint":"shutdown"}` frame; in-flight requests drain first.
fn serve_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut hybrid = false;
    let mut stdin_mode = false;
    let mut chaos: Option<u64> = None;
    let mut engine = SearchEngine::default();
    let mut config = ServerConfig::default();
    let mut state_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::default();
    let mut snapshot_every: Option<u64> = None;
    let mut iter = args.iter().map(String::as_str).skip(1);
    while let Some(arg) = iter.next() {
        match arg {
            "--hybrid" => hybrid = true,
            "--stdin" => stdin_mode = true,
            "--no-trace" => config.trace.enabled = false,
            "--trace-capacity" => {
                config.trace.capacity = iter
                    .next()
                    .ok_or("--trace-capacity needs a trace count")?
                    .parse()?;
            }
            "--trace-slow-ms" => {
                let ms: u64 = iter
                    .next()
                    .ok_or("--trace-slow-ms needs milliseconds")?
                    .parse()?;
                config.trace.slow_threshold_ns = ms.saturating_mul(1_000_000);
            }
            "--trace-sample" => {
                config.trace.sample_one_in = iter
                    .next()
                    .ok_or("--trace-sample needs a one-in-N rate")?
                    .parse()?;
            }
            "--addr" => {
                config.addr = iter.next().ok_or("--addr needs HOST:PORT")?.to_owned();
            }
            "--state-dir" => {
                state_dir = Some(
                    iter.next()
                        .ok_or("--state-dir needs a directory")?
                        .to_owned(),
                );
            }
            "--fsync" => {
                fsync = iter
                    .next()
                    .ok_or("--fsync needs a policy (os|always|every:N)")?
                    .parse()?;
            }
            "--snapshot-every" => {
                snapshot_every = Some(
                    iter.next()
                        .ok_or("--snapshot-every needs an absorb count")?
                        .parse()?,
                );
            }
            "--engine" => {
                engine = iter
                    .next()
                    .ok_or("--engine needs a value (exhaustive|bnb)")?
                    .parse()?;
            }
            "--workers" => {
                config.workers = iter.next().ok_or("--workers needs a count")?.parse()?;
            }
            "--queue" => {
                config.queue_depth = iter.next().ok_or("--queue needs a depth")?.parse()?;
            }
            "--chaos" => {
                chaos = Some(iter.next().ok_or("--chaos needs a seed")?.parse()?);
            }
            other => return Err(format!("serve: unknown argument `{other}`").into()),
        }
    }
    if stdin_mode {
        return serve_stdin(hybrid, engine);
    }

    let store = catalog(hybrid);
    let registry = Arc::new(uptime_obs::MetricsRegistry::new());
    let mut service = BrokerService::new(store.clone())
        .with_engine(engine)
        .with_recorder(Arc::clone(&registry) as _);
    if let Some(dir) = &state_dir {
        let mut durability = DurabilityConfig::new(dir).with_fsync(fsync);
        if let Some(every) = snapshot_every {
            durability = durability.with_snapshot_every(every);
        }
        let (recovered, report) = service.with_durability(durability)?;
        service = recovered;
        print_recovery_summary(&report);
    }
    let broker = Arc::new(service);
    let targets =
        register_simulated_providers(&broker, &store, chaos.is_some(), chaos.unwrap_or(7));
    let mut backend = ServingBroker::new(broker).with_sync_targets(targets);
    if config.trace.enabled {
        // One recorder shared between the server (which begins traces)
        // and the backend (which reports occupancy in `health`).
        let recorder = Arc::new(uptime_obs::FlightRecorder::new(config.trace));
        config.flight_recorder = Some(Arc::clone(&recorder));
        backend = backend.with_flight_recorder(recorder);
    }
    let workers = config.workers;
    let queue = config.queue_depth;
    let handle = Server::start(Arc::new(backend), config, registry)?;
    println!(
        "uptime-serve listening on {} ({} worker(s), queue {}, {})",
        handle.local_addr(),
        workers,
        queue,
        if chaos.is_some() {
            "chaotic providers"
        } else {
            "clean providers"
        }
    );
    handle.join();
    println!("uptime-serve drained and stopped");
    Ok(())
}

/// The legacy service loop: one JSON request per line in, one JSON
/// response per line out. A malformed or failing request produces an
/// `{"error": ...}` line and the loop continues — one bad client call
/// must not take the broker down.
fn serve_stdin(hybrid: bool, engine: SearchEngine) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::{BufRead, Write};
    let broker = BrokerService::new(catalog(hybrid)).with_engine(engine);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = match serde_json::from_str::<SolutionRequest>(&line) {
            Ok(request) => match broker.recommend(&request) {
                Ok(recommendation) => serde_json::json!({ "ok": recommendation }),
                Err(err) => serde_json::json!({ "error": err.to_string() }),
            },
            Err(err) => serde_json::json!({ "error": format!("bad request: {err}") }),
        };
        serde_json::to_writer(&mut out, &response)?;
        out.write_all(b"\n")?;
        out.flush()?;
    }
    Ok(())
}

fn metacloud_command(engine: SearchEngine) -> Result<(), Box<dyn std::error::Error>> {
    let broker = BrokerService::new(extended::hybrid_catalog()).with_engine(engine);
    let request = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)?
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)?
        .build()?;
    let single = broker.recommend(&request)?;
    let meta = broker.recommend_metacloud(&request)?;
    println!(
        "Best single cloud: `{}` at ${:.0}/mo",
        single.best_cloud().ok_or("no clouds")?.cloud(),
        single.best_tco().ok_or("no clouds")?.value()
    );
    println!(
        "Metacloud: ${:.0}/mo at U_s {:.2}% across {} cloud(s)",
        meta.evaluation().tco().total().value(),
        meta.evaluation().uptime().availability().as_percent(),
        meta.clouds_used().len()
    );
    for placement in meta.placements() {
        println!(
            "  {:<18} -> {:<10} via {:<22} (${:.0}/mo)",
            placement.component.label(),
            placement.cloud,
            placement.method,
            placement.monthly_cost.value()
        );
    }
    Ok(())
}

/// Version of `health --json`'s payload shape (shared with the daemon's
/// `health` endpoint via [`uptime_broker::HEALTH_SCHEMA_VERSION`]).
const HEALTH_SCHEMA_VERSION: u32 = uptime_broker::HEALTH_SCHEMA_VERSION;

/// How many telemetry sync rounds `health` and `obs` drive.
const SYNC_ROUNDS: u64 = 6;

/// Registers a simulated provider per catalog cloud (ground truth taken
/// from the catalog's own records, so clean telemetry is always
/// plausible). Returns each cloud's observed component kinds.
fn register_simulated_providers(
    broker: &BrokerService,
    store: &CatalogStore,
    chaos: bool,
    seed: u64,
) -> Vec<(uptime_catalog::CloudId, Vec<ComponentKind>)> {
    let mut components = Vec::new();
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
        if chaos {
            broker.register_provider(Box::new(ChaosProvider::new(
                provider,
                ChaosConfig::aggressive(seed),
            )));
        } else {
            broker.register_provider(Box::new(provider));
        }
        components.push((id.clone(), kinds));
    }
    components
}

/// Drives [`SYNC_ROUNDS`] telemetry sync rounds across every registered
/// provider. Any single sync may fail under chaos; that is the point —
/// errors only feed the incident log.
fn drive_sync_rounds(
    broker: &BrokerService,
    components: &[(uptime_catalog::CloudId, Vec<ComponentKind>)],
    seed: u64,
) {
    for round in 0..SYNC_ROUNDS {
        for (cloud, kinds) in components {
            for (k, kind) in kinds.iter().enumerate() {
                let _ = broker.sync_telemetry(cloud, *kind, 20, 5.0, seed + round * 31 + k as u64);
            }
        }
    }
}

/// Registers a simulated provider per catalog cloud, drives telemetry
/// sync rounds, and reports control-plane health. Returns whether the
/// broker ended up degraded.
fn health_command(
    hybrid: bool,
    json: bool,
    chaos: bool,
    seed_arg: Option<&str>,
) -> Result<bool, Box<dyn std::error::Error>> {
    let seed: u64 = seed_arg.map_or(Ok(7), str::parse)?;
    let store = catalog(hybrid);
    let broker = BrokerService::new(store.clone());
    let components = register_simulated_providers(&broker, &store, chaos, seed);
    drive_sync_rounds(&broker, &components, seed);

    let health = broker.health();
    let incidents = broker.incidents();
    if json {
        let payload = serde_json::json!({
            "schema_version": HEALTH_SCHEMA_VERSION,
            "health": health,
            "incidents": incidents,
        });
        println!("{}", serde_json::to_string_pretty(&payload)?);
        return Ok(health.degraded);
    }

    println!(
        "Broker health after {SYNC_ROUNDS} sync round(s){}:",
        if chaos { " under chaos" } else { "" }
    );
    for p in &health.providers {
        println!(
            "  {:<12} breaker {:<9} failures {:>2}  opened {:>2}x  absorbed {:>3}  quarantined {:>3} (streak {})",
            p.cloud.as_str(),
            p.state.to_string(),
            p.consecutive_failures,
            p.times_opened,
            p.batches_absorbed,
            p.batches_quarantined,
            p.quarantined_streak,
        );
    }
    println!(
        "  {} incident(s), {} batch(es) quarantined, degraded: {}",
        health.incident_count,
        health.quarantined_batches,
        if health.degraded { "yes" } else { "no" }
    );
    if !incidents.is_empty() {
        println!("\nIncident log:");
        for i in &incidents {
            println!(
                "  #{:<3} {:<12} {:?}: {}",
                i.seq,
                i.cloud.as_str(),
                i.category,
                i.detail
            );
        }
    }
    Ok(health.degraded)
}

/// Renders a [`RecoveryReport`] as a short human-readable block.
fn print_recovery_summary(report: &RecoveryReport) {
    println!(
        "recovered state from {}: epoch {}, {} record(s) replayed ({} skipped by snapshot, {} quarantined, {} malformed)",
        report.state_dir,
        report.epoch,
        report.replayed,
        report.skipped_by_snapshot,
        report.quarantined,
        report.malformed,
    );
    if report.snapshot_used {
        println!(
            "  snapshot at epoch {} accelerated replay",
            report.snapshot_epoch
        );
    }
    if let Some(truncation) = &report.truncation {
        println!(
            "  journal tail discarded at byte {}: {}{}",
            truncation.offset,
            truncation.reason,
            if report.repaired {
                " (file repaired to valid prefix)"
            } else {
                " (dry run; file untouched)"
            }
        );
    }
}

/// `brokerctl recover`: replay a state directory and report what
/// recovery found. With `--verify` the journal file is left untouched
/// (dry run); without it, a torn tail is physically repaired and
/// `--compact` folds the journal into a fresh snapshot. `--disk-chaos
/// SEED` first injects a seeded disk fault into the state directory to
/// prove recovery stays safe under corruption. Returns whether the
/// recovered state was degraded (truncation, quarantined or malformed
/// records) — mapped to exit code 3.
fn recover_command(
    hybrid: bool,
    json: bool,
    verify: bool,
    compact: bool,
    disk_chaos: Option<u64>,
    dir: &str,
) -> Result<bool, Box<dyn std::error::Error>> {
    if let Some(seed) = disk_chaos {
        let state_dir = StateDir::create(dir)?;
        let fault = DiskChaos::new(seed).mangle(&state_dir)?;
        eprintln!("injected disk fault `{fault}` (seed {seed}) into {dir}");
    }
    let broker = BrokerService::new(catalog(hybrid));
    let report = if verify {
        broker.verify_recovery(Path::new(dir))?
    } else {
        let (broker, report) = broker.with_durability(DurabilityConfig::new(dir))?;
        if compact {
            broker.compact_state()?;
            eprintln!("journal compacted into snapshot");
        }
        report
    };
    let degraded = report.truncation.is_some() || report.quarantined > 0 || report.malformed > 0;
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        print_recovery_summary(&report);
        println!(
            "  verdict: {}",
            if degraded {
                "degraded (exit 3)"
            } else {
                "clean"
            }
        );
    }
    Ok(degraded)
}

/// Drives an instrumented recommend+sync run — simulated providers,
/// telemetry sync rounds, then a full recommendation — and exports the
/// live metrics snapshot as JSON (default) or Prometheus text format.
fn obs_command(
    hybrid: bool,
    prom: bool,
    chaos: bool,
    watch: Option<u64>,
    iters: u64,
    seed_arg: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = seed_arg.map_or(Ok(7), str::parse)?;
    let store = catalog(hybrid);
    let registry = Arc::new(uptime_obs::MetricsRegistry::new());
    let broker = BrokerService::new(store.clone()).with_recorder(registry.clone());
    let components = register_simulated_providers(&broker, &store, chaos, seed);
    drive_sync_rounds(&broker, &components, seed);

    let request = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)?
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)?
        .build()?;
    let _ = broker.recommend(&request)?;

    let Some(interval) = watch else {
        let snapshot = registry.snapshot();
        if prom {
            print!("{}", uptime_obs::export::to_prometheus(&snapshot));
        } else {
            println!("{}", uptime_obs::export::to_json(&snapshot));
        }
        return Ok(());
    };

    // Watch mode: keep driving work and print what *moved* each tick as a
    // JSON line of counter deltas — the diffing layer over
    // `MetricsSnapshot` that turns cumulative counters into rates.
    // --iters 0 watches forever.
    let mut previous = registry.snapshot();
    let mut tick: u64 = 0;
    loop {
        tick += 1;
        std::thread::sleep(std::time::Duration::from_secs(interval));
        for (cloud, kinds) in &components {
            for (k, kind) in kinds.iter().enumerate() {
                let _ = broker.sync_telemetry(cloud, *kind, 20, 5.0, seed + tick * 131 + k as u64);
            }
        }
        let _ = broker.recommend(&request)?;
        let snapshot = registry.snapshot();
        let deltas: serde_json::Map = snapshot
            .counter_deltas(&previous)
            .into_iter()
            .map(|(name, delta)| (name, serde_json::json!(delta)))
            .collect();
        println!(
            "{}",
            serde_json::json!({
                "tick": tick,
                "interval_secs": interval,
                "deltas": serde_json::Value::Object(deltas),
            })
        );
        previous = snapshot;
        if iters > 0 && tick >= iters {
            return Ok(());
        }
    }
}

/// Default daemon address for the `trace` client (matches `serve`).
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7411";

/// Pulls traces from a running daemon's `traces` endpoint and renders a
/// span tree (default), the raw export JSON (`--json`), or Chrome
/// `trace_event` JSON (`--chrome`, loadable in `chrome://tracing` /
/// Perfetto).
fn trace_command(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::{BufRead, BufReader, Write};

    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut slowest: Option<u64> = None;
    let mut errors = false;
    let mut raw_json = false;
    let mut chrome = false;
    let mut iter = args.iter().map(String::as_str).skip(1);
    while let Some(arg) = iter.next() {
        match arg {
            "--addr" => addr = iter.next().ok_or("--addr needs HOST:PORT")?.to_owned(),
            "--slowest" => {
                slowest = Some(iter.next().ok_or("--slowest needs a count")?.parse()?);
            }
            "--errors" => errors = true,
            "--json" => raw_json = true,
            "--chrome" => chrome = true,
            other => return Err(format!("trace: unknown argument `{other}`").into()),
        }
    }
    if raw_json && chrome {
        return Err("trace: --json and --chrome are mutually exclusive".into());
    }

    let mut body = serde_json::Map::new();
    if let Some(n) = slowest {
        body.insert("slowest".into(), serde_json::json!(n));
    }
    if errors {
        body.insert("errors".into(), serde_json::json!(true));
    }
    body.insert(
        "format".into(),
        serde_json::json!(if chrome { "chrome" } else { "json" }),
    );
    let frame = serde_json::json!({
        "id": 1,
        "endpoint": "traces",
        "body": serde_json::Value::Object(body),
    });

    let stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("trace: cannot reach daemon at {addr}: {e}"))?;
    let mut writer = stream.try_clone()?;
    let mut request = serde_json::to_string(&frame)?;
    request.push('\n');
    writer.write_all(request.as_bytes())?;
    writer.flush()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    let response: serde_json::Value = serde_json::from_str(line.trim())
        .map_err(|e| format!("trace: malformed response frame: {e}"))?;
    if response.get("status").and_then(serde_json::Value::as_str) != Some("ok") {
        let detail = response
            .get("error")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("unknown daemon error");
        return Err(format!("trace: daemon refused: {detail}").into());
    }
    let body = response.get("body").ok_or("trace: response missing body")?;
    if raw_json || chrome {
        println!("{}", serde_json::to_string_pretty(body)?);
        return Ok(());
    }
    print_trace_trees(body)
}

/// Renders the `traces` export as indented span trees with durations and
/// attributes, newest trace first (the order the daemon returns).
fn print_trace_trees(body: &serde_json::Value) -> Result<(), Box<dyn std::error::Error>> {
    let as_u64 = |v: &serde_json::Value, key: &str| v.get(key).and_then(serde_json::Value::as_u64);
    let as_str = |v: &'_ serde_json::Value, key: &str| {
        v.get(key)
            .and_then(serde_json::Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };

    let recorder = body
        .get("recorder")
        .ok_or("trace: export missing `recorder` section")?;
    println!(
        "flight recorder: occupancy {}/{}  completed {}  recorded {}  sampled_out {}  evicted {}  unwound {}",
        as_u64(recorder, "occupancy").unwrap_or(0),
        as_u64(recorder, "capacity").unwrap_or(0),
        as_u64(recorder, "completed").unwrap_or(0),
        as_u64(recorder, "recorded").unwrap_or(0),
        as_u64(recorder, "sampled_out").unwrap_or(0),
        as_u64(recorder, "evicted").unwrap_or(0),
        as_u64(recorder, "unwound").unwrap_or(0),
    );
    let traces = body
        .get("traces")
        .and_then(serde_json::Value::as_array)
        .ok_or("trace: export missing `traces` array")?;
    if traces.is_empty() {
        println!("no traces recorded yet");
        return Ok(());
    }
    for trace in traces {
        println!(
            "\ntrace {} #{} endpoint={} outcome={} total={:.3}ms kept={}",
            as_str(trace, "trace_id"),
            as_u64(trace, "seq").unwrap_or(0),
            as_str(trace, "endpoint"),
            as_str(trace, "outcome"),
            as_u64(trace, "total_ns").unwrap_or(0) as f64 / 1e6,
            as_str(trace, "kept_because"),
        );
        let Some(spans) = trace.get("spans").and_then(serde_json::Value::as_array) else {
            continue;
        };
        // Spans carry parent ids; recover the tree by walking children in
        // recorded (start) order from each root.
        let mut children: Vec<(u64, usize)> = Vec::with_capacity(spans.len());
        for (idx, span) in spans.iter().enumerate() {
            children.push((as_u64(span, "parent").unwrap_or(0), idx));
        }
        let mut stack: Vec<(u64, usize)> = Vec::new();
        for &(parent, idx) in children.iter().filter(|(p, _)| *p == 0).rev() {
            stack.push((parent, idx));
        }
        let mut emitted = 0usize;
        while let Some((depth_key, idx)) = stack.pop() {
            let span = &spans[idx];
            let depth = usize::try_from(depth_key).unwrap_or(0);
            let mut attrs = String::new();
            if let Some(map) = span.get("attrs").and_then(serde_json::Value::as_object) {
                for (key, value) in map.iter() {
                    attrs.push_str(&format!("  {key}={value}"));
                }
            }
            println!(
                "  {:indent$}{} {:.3}ms{}",
                "",
                as_str(span, "name"),
                as_u64(span, "duration_ns").unwrap_or(0) as f64 / 1e6,
                attrs,
                indent = depth * 2,
            );
            emitted += 1;
            let id = as_u64(span, "id").unwrap_or(0);
            for &(parent, child_idx) in children.iter().filter(|(p, _)| *p == id).rev() {
                let _ = parent;
                stack.push((depth_key + 1, child_idx));
            }
        }
        if emitted < spans.len() {
            println!(
                "  ({} span(s) detached from the tree)",
                spans.len() - emitted
            );
        }
    }
    Ok(())
}

fn settle_command(positional: &[&str]) -> Result<(), Box<dyn std::error::Error>> {
    let months: u32 = positional.first().ok_or("settle needs MONTHS")?.parse()?;
    let seed: u64 = positional.get(1).map_or(Ok(7), |s| s.parse())?;

    // The case-study optimum (option #3): storage RAID-1 only.
    let store = case_study::catalog();
    let cloud = case_study::cloud_id();
    let clusters = vec![
        store.cluster_spec(&cloud, ComponentKind::Compute, &"none-compute".into())?,
        store.cluster_spec(&cloud, ComponentKind::Storage, &"raid1".into())?,
        store.cluster_spec(
            &cloud,
            ComponentKind::NetworkGateway,
            &"none-network-gateway".into(),
        )?,
    ];
    let system = SystemSpec::new(clusters)?;
    let model = case_study::tco_model();
    let ha_cost = store.quote(&cloud, &"raid1".into())?.total();
    let report = settlement::settle(&system, &model, ha_cost, months, seed)?;

    println!("Settled {months} months of option #3 (RAID-1 only), seed {seed}:");
    println!(
        "  expected TCO (Eq. 5):   ${:>8.0}/mo",
        report.expected_tco().value()
    );
    println!(
        "  mean realized TCO:      ${:>8.0}/mo",
        report.mean_realized_tco().value()
    );
    println!("  Jensen gap:             ${:>8.0}/mo", report.jensen_gap());
    println!(
        "  months in breach:        {:>3} of {months}",
        report.months_in_breach()
    );
    println!(
        "  penalty p50 / p95:      ${:.0} / ${:.0}",
        report.penalty_percentile(50.0).value(),
        report.penalty_percentile(95.0).value()
    );
    Ok(())
}
