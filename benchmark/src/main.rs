//! The daemon benchmark. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload hot|cold|frontier|churn|all --seed N --seconds S --trace 0|1
//! benchmark run   [--seed N] [--seconds S]   # every workload, end-to-end metrics
//! benchmark trace [--seed N] [--seconds S]   # every workload, per-layer metrics
//! benchmark compare OLD.json NEW.json
//! ```
//!
//! Reports go to `.bench_out/`; each run's scratch files live in
//! `.bench_work/` and are removed when it ends. The last line of output
//! is the JSON result of the last workload run.

mod daemon;
mod load;
mod report;
mod run;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use crate::report::Outcome;
use crate::workload::Workload;

const USAGE: &str =
    "usage: benchmark [run|trace] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
       benchmark compare OLD.json NEW.json";

const OUT_DIR: &str = ".bench_out";
const WORK_DIR: &str = ".bench_work";

struct Args {
    traced: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        traced: false,
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: 25.0,
    };
    let mut rest = args.iter().map(String::as_str).peekable();
    match rest.peek() {
        Some(&"run") => {
            rest.next();
        }
        Some(&"trace") => {
            rest.next();
            parsed.traced = true;
        }
        _ => {}
    }
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..).contains(&parsed.seconds) {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                parsed.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn read_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

/// Removes a run's scratch directory, tolerating its absence.
fn clear_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn measure(brokerctl: &Path, workload: Workload, args: &Args) -> std::io::Result<Outcome> {
    let name = workload.name();
    let work = PathBuf::from(WORK_DIR).join(format!("{name}-seed{}", args.seed));
    clear_dir(&work)?;
    std::fs::create_dir_all(&work)?;
    let outcome = if args.traced {
        let spans = Path::new(OUT_DIR).join(format!("spans-{name}-seed{}.json", args.seed));
        trace::trace(brokerctl, &work, &spans, workload, args.seed, args.seconds)
    } else {
        run::run(brokerctl, &work, workload, args.seed, args.seconds)
    };
    clear_dir(&work)?;
    outcome
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match (read_report(old), read_report(new)) {
            (Ok(old), Ok(new)) => {
                for row in report::compare(&old, &new) {
                    println!("{row}");
                }
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let brokerctl = std::env::current_exe()
        .map(|exe| exe.with_file_name("brokerctl"))
        .unwrap_or_default();
    if !brokerctl.is_file() {
        eprintln!(
            "benchmark: no daemon at {}; build it with \
             `cargo build --release -p uptime-broker --bin brokerctl` (benchmark/run.sh does)",
            brokerctl.display()
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("benchmark: create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mode = if args.traced { "trace" } else { "run" };
    let mut reports = Vec::new();
    let mut lines = Vec::new();
    let mut mismatches = 0;
    for &workload in &args.workloads {
        let outcome = match measure(&brokerctl, workload, &args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        report::print_metrics(workload.name(), &outcome.measured);
        let path =
            Path::new(OUT_DIR).join(format!("{mode}-{}-seed{}.json", workload.name(), args.seed));
        if let Err(e) = write_json(&path, &outcome.report) {
            eprintln!("benchmark: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        mismatches += outcome.mismatches;
        lines.push(report::result_line(
            outcome.mismatches == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.measured,
        ));
        reports.push(outcome.report);
    }
    if reports.len() > 1 {
        let path = Path::new(OUT_DIR).join(format!("{mode}-seed{}.json", args.seed));
        if let Err(e) = write_json(&path, &Value::Array(reports)) {
            eprintln!("benchmark: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report: {}", path.display());
    }
    for line in lines {
        println!("{line}");
    }
    if mismatches > 0 {
        eprintln!("benchmark: {mismatches} answer(s) differ from the in-process broker");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
