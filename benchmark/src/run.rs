//! `run` mode: the real daemon driven over TCP, measured from outside.
//!
//! Per workload: set-up (several spawns, the median time to the first
//! answered `ping`), a closed-loop warmup, then five trials of an
//! open-loop Poisson phase followed by a closed-loop phase. Each gated
//! metric is the median of its per-trial values, so one trial disturbed
//! by a neighbour on a shared host does not move it; the ungated p99
//! pools the open-loop samples of all trials.

use std::io;
use std::path::{Path, PathBuf};

use serde::Value;

use crate::daemon::Daemon;
use crate::load::{self, Checks, Conns, Tally};
use crate::report::{self, Outcome, END_TO_END};
use crate::verify;
use crate::workload::{phase_seed, poisson_schedule, splitmix64, Stream, Workload};

/// Daemon spawns whose median is `setup_s`.
const SETUP_SPAWNS: usize = 9;

/// Measured trials per run.
const TRIALS: u64 = 5;

/// Seeded `sync` frames written to the journal before churn's set-up.
const PREFILL_SYNCS: u64 = 2_000;

/// Phase lengths for a `seconds`-long measurement.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup_s: f64,
    pub open_s: f64,
    pub closed_s: f64,
}

impl Phases {
    /// A tenth of the time warms up; each trial spends 60% of its share
    /// open-loop and 40% closed-loop.
    pub fn for_seconds(seconds: f64) -> Phases {
        let trial = seconds * 0.9 / TRIALS as f64;
        Phases {
            warmup_s: seconds * 0.1,
            open_s: trial * 0.6,
            closed_s: trial * 0.4,
        }
    }
}

/// Sent, answered, and failed counts of one phase, for the report.
fn phase_value(name: &str, tally: &Tally, send_late_max_us: Option<f64>) -> Value {
    serde_json::json!({
        "phase": name,
        "sent": tally.sent,
        "ok": tally.ok,
        "cached": tally.cached,
        "shed": tally.shed,
        "errors": tally.errors,
        "timeouts": tally.timeouts,
        "send_late_max_us": send_late_max_us,
    })
}

/// Writes `count` seeded `sync` frames through a daemon over `state_dir`,
/// 16 in flight at a time, so the next spawn recovers over a real journal.
fn prefill_journal(brokerctl: &Path, state_dir: &Path, seed: u64) -> io::Result<()> {
    let daemon = Daemon::spawn(brokerctl, Some(state_dir))?;
    let conns = Conns::open(daemon.addr)?;
    let mut rng = phase_seed(seed, Workload::Churn, 1_000);
    let frames: Vec<String> = (0..PREFILL_SYNCS)
        .map(|id| {
            let body = format!("{{\"seed\":{}}}", splitmix64(&mut rng));
            format!("{{\"v\":1,\"id\":{id},\"endpoint\":\"sync\",\"body\":{body}}}\n")
        })
        .collect();
    let tally = load::windowed(&conns, &frames, 16)?;
    if tally.ok != PREFILL_SYNCS {
        return Err(io::Error::other(format!(
            "journal prefill: {} of {PREFILL_SYNCS} syncs answered 200",
            tally.ok
        )));
    }
    drop(conns);
    daemon.shutdown()
}

/// Runs one workload and returns its metrics and report.
pub fn run(
    brokerctl: &Path,
    work: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    let phases = Phases::for_seconds(seconds);
    let state_dir: Option<PathBuf> = workload.durable().then(|| work.join("state"));
    if let Some(dir) = &state_dir {
        prefill_journal(brokerctl, dir, seed)?;
    }

    let mut setup_s = Vec::with_capacity(SETUP_SPAWNS);
    let mut daemon = None;
    for spawn in 0..SETUP_SPAWNS {
        let started = Daemon::spawn(brokerctl, state_dir.as_deref())?;
        setup_s.push(started.setup.as_secs_f64());
        if spawn + 1 < SETUP_SPAWNS {
            started.shutdown()?;
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one spawn");
    let conns = Conns::open(daemon.addr)?;
    let mut checks = Checks::new(workload == Workload::Hot);
    let mut tally = Tally::default();
    let mut next_id = 0u64;

    let warmup = load::closed_loop(
        &conns,
        &mut Stream::new(workload, seed, 0),
        workload.depth(),
        phases.warmup_s,
        next_id,
        &mut checks,
    )?;
    next_id += warmup.tally.sent;
    tally.add(&warmup.tally);
    let mut per_phase = vec![phase_value("warmup", &warmup.tally, None)];

    let mut latency_ns: Vec<u64> = Vec::new();
    let mut send_late_ns: Vec<u64> = Vec::new();
    let (mut p50_trials, mut p99_trials) = (Vec::new(), Vec::new());
    let (mut cpu_trials, mut rps_trials) = (Vec::new(), Vec::new());
    for trial in 0..TRIALS {
        let open_phase = 1 + 2 * trial;
        let offsets = poisson_schedule(
            workload.rate_rps(),
            phases.open_s,
            phase_seed(seed, workload, 100 + open_phase),
        );
        let mut stream = Stream::new(workload, seed, open_phase);
        let requests: Vec<_> = (0..offsets.len() as u64)
            .map(|i| stream.next_request(next_id + i))
            .collect();
        let cpu_before = daemon.cpu_ns()?;
        let open = load::open_loop(&conns, &requests, &offsets, next_id, &mut checks)?;
        let cpu_ns = daemon.cpu_ns()?.saturating_sub(cpu_before);
        next_id += open.tally.sent;
        tally.add(&open.tally);
        let late_max_ns = open.send_late_ns.iter().max().copied().unwrap_or(0);
        per_phase.push(phase_value(
            &format!("trial{}-open", trial + 1),
            &open.tally,
            Some(late_max_ns as f64 / 1e3),
        ));
        cpu_trials.push(cpu_ns as f64 / 1e3 / open.tally.answered.max(1) as f64);
        let mut sorted = open.latency_ns.clone();
        sorted.sort_unstable();
        p50_trials.push(report::percentile(&sorted, 50.0) as f64 / 1e3);
        p99_trials.push(report::percentile(&sorted, 99.0) as f64 / 1e3);
        latency_ns.extend(open.latency_ns);
        send_late_ns.extend(open.send_late_ns);

        let closed = load::closed_loop(
            &conns,
            &mut Stream::new(workload, seed, open_phase + 1),
            workload.depth(),
            phases.closed_s,
            next_id,
            &mut checks,
        )?;
        next_id += closed.tally.sent;
        tally.add(&closed.tally);
        per_phase.push(phase_value(
            &format!("trial{}-closed", trial + 1),
            &closed.tally,
            None,
        ));
        rps_trials.push(closed.completed as f64 / closed.seconds);
    }
    let rss_mb = daemon.peak_rss_kib()? as f64 / 1024.0;

    let final_pool = match &state_dir {
        Some(_) => Some(verify::pool_answers(daemon.addr)?),
        None => None,
    };
    drop(conns);
    daemon.shutdown()?;
    let mut mismatches = verify::mismatches(&checks);
    if let (Some(dir), Some(answers)) = (&state_dir, &final_pool) {
        mismatches += verify::recovered_mismatches(answers, dir, &work.join("state-copy"))?;
    }

    latency_ns.sort_unstable();
    send_late_ns.sort_unstable();
    let send_late_p99_us = report::percentile(&send_late_ns, 99.0) as f64 / 1e3;
    let tail = report::tail_percentile(latency_ns.len());
    let measured = report::collect(
        &END_TO_END,
        vec![
            ("setup_s", report::median(&setup_s), setup_s.clone()),
            ("throughput_rps", report::median(&rps_trials), rps_trials),
            ("p50_us", report::median(&p50_trials), p50_trials),
            ("cpu_us_per_req", report::median(&cpu_trials), cpu_trials),
            ("rss_mb", rss_mb, vec![rss_mb]),
        ],
    );
    let failed = tally.failed() + mismatches;
    let valid = load::generator_kept_up(workload.name(), send_late_p99_us);
    let report = serde_json::json!({
        "mode": "run",
        "workload": workload.name(),
        "seed": seed,
        "valid": valid,
        "host": report::host(),
        "config": {
            "daemon": "brokerctl serve --addr 127.0.0.1:0 (other flags default)",
            "state_dir": workload.durable(),
            "rate_rps": workload.rate_rps(),
            "depth_per_connection": workload.depth() as u64,
            "connections": load::CONNECTIONS as u64,
            "seconds": seconds,
            "warmup_s": phases.warmup_s,
            "open_loop_s": phases.open_s,
            "closed_loop_s": phases.closed_s,
            "trials": TRIALS,
            "setup_spawns": SETUP_SPAWNS as u64,
            "prefill_syncs": if workload.durable() { PREFILL_SYNCS } else { 0 },
        },
        "open_loop_latency": {
            "samples": latency_ns.len() as u64,
            "p99_us": report::percentile(&latency_ns, 99.0) as f64 / 1e3,
            "p99_trials_us": p99_trials,
            "tail": tail.map(|p| serde_json::json!({
                "percentile": p,
                "us": report::percentile(&latency_ns, p) as f64 / 1e3,
            })),
        },
        "send_late_p99_us": send_late_p99_us,
        "totals": {
            "sent": tally.sent,
            "answered": tally.answered,
            "ok": tally.ok,
            "cached": tally.cached,
            "coalesced": tally.coalesced,
            "shed": tally.shed,
            "errors": tally.errors,
            "timeouts": tally.timeouts,
            "mismatches": mismatches,
            "checked_samples": checks.samples.len() as u64,
            "checked_pool_answers": checks.pool_answers().count() as u64,
            "failed_ratio": failed as f64 / tally.sent.max(1) as f64,
        },
        "phases": per_phase,
        "metrics": report::metrics_value(&measured),
    });
    Ok(Outcome {
        measured,
        attempted: tally.sent,
        failed,
        mismatches,
        report,
    })
}
