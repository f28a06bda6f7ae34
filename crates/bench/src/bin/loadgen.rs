//! PR 4 load generator: drives the `uptime-serve` daemon over TCP with a
//! seeded hot/cold request mix and emits machine-readable `BENCH_PR4.json`
//! (throughput, latency percentiles, cache hit rate, speedup vs cold
//! per-request evaluation).
//!
//! ```text
//! # Against an already-running daemon:
//! cargo run --release -p uptime-bench --bin loadgen -- --addr 127.0.0.1:7411
//!
//! # Self-contained (spawns an in-process daemon on a loopback port):
//! cargo run --release -p uptime-bench --bin loadgen
//! ```
//!
//! Flags: `--clients N` (4), `--requests N` per client (250),
//! `--repeat-ratio R` hot-pool fraction (0.9), `--seed S` (7),
//! `--out PATH` (BENCH_PR4.json), `--min-hit-rate F` (exit 1 below it),
//! `--fail-on-error` (exit 1 on any error/shed), `--shutdown` (drain the
//! daemon afterwards).
//!
//! Tracing-era flags (PR 8): `--health-ratio R` mixes health probes into
//! the stream (per-endpoint latency percentiles come out in the report),
//! `--explain-ratio R` asks a fraction of requests for an inline span
//! breakdown and aggregates per-stage time, `--max-p99-ms MS` fails the
//! run when overall p99 exceeds the bound, and
//! `--compare BASELINE.json --max-overhead-pct P` fails when throughput
//! regressed more than P% against a previous report (the
//! tracing-overhead gate: run once with `--no-trace`, once without,
//! compare).
//!
//! Frontier-era flags (PR 9): `--frontier-ratio R` mixes SLO frontier
//! extractions into the stream (the report gains `frontier` latency
//! percentiles), and whenever frontier traffic or `--enforce` is on the
//! run also times epsilon-dominance branch-and-bound against the naive
//! O(N²) dominance sweep on a synthetic 6^6 space and reports the
//! speedup under `frontier_bench`. `--enforce` fails the run below the
//! 5x frontier-speedup floor (or on a frontier/naive mismatch). The
//! frontier CI job writes `BENCH_PR9.json` via `--out`.
//!
//! Open-loop mode: `--connections N --duration SECS` switch the generator
//! to N persistent connections, each with a decoupled writer/reader
//! thread pair keeping up to `--pipeline` (32) frames in flight, running
//! for a fixed wall-clock window instead of a fixed request count. The
//! report's `mode` says which loop ran. The closed-loop mode and its
//! report shape are unchanged for BENCH_PR4 comparability; the in-process
//! frontier micro-bench is a closed-loop gate and is skipped in open-loop
//! runs.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Value;
use uptime_broker::{BrokerService, ServingBroker, SolutionRequest};
use uptime_catalog::{case_study, ComponentKind};
use uptime_obs::MetricsRegistry;
use uptime_serve::{RequestFrame, ResponseFrame, Server, ServerConfig, Status};

struct Config {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    repeat_ratio: f64,
    seed: u64,
    out: String,
    min_hit_rate: f64,
    fail_on_error: bool,
    shutdown: bool,
    health_ratio: f64,
    explain_ratio: f64,
    frontier_ratio: f64,
    enforce: bool,
    max_p99_ms: Option<f64>,
    compare: Option<String>,
    max_overhead_pct: Option<f64>,
    connections: usize,
    duration_secs: f64,
    pipeline: usize,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        addr: None,
        clients: 4,
        requests: 250,
        repeat_ratio: 0.9,
        seed: 7,
        out: "BENCH_PR4.json".to_owned(),
        min_hit_rate: 0.0,
        fail_on_error: false,
        shutdown: false,
        health_ratio: 0.0,
        explain_ratio: 0.0,
        frontier_ratio: 0.0,
        enforce: false,
        max_p99_ms: None,
        compare: None,
        max_overhead_pct: None,
        connections: 0,
        duration_secs: 0.0,
        pipeline: 32,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter().map(String::as_str);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<&str, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--addr" => config.addr = Some(value("--addr")?.to_owned()),
            "--clients" => {
                config.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                config.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--repeat-ratio" => {
                config.repeat_ratio = value("--repeat-ratio")?
                    .parse()
                    .map_err(|e| format!("--repeat-ratio: {e}"))?;
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => config.out = value("--out")?.to_owned(),
            "--min-hit-rate" => {
                config.min_hit_rate = value("--min-hit-rate")?
                    .parse()
                    .map_err(|e| format!("--min-hit-rate: {e}"))?;
            }
            "--fail-on-error" => config.fail_on_error = true,
            "--shutdown" => config.shutdown = true,
            "--health-ratio" => {
                config.health_ratio = value("--health-ratio")?
                    .parse()
                    .map_err(|e| format!("--health-ratio: {e}"))?;
            }
            "--explain-ratio" => {
                config.explain_ratio = value("--explain-ratio")?
                    .parse()
                    .map_err(|e| format!("--explain-ratio: {e}"))?;
            }
            "--frontier-ratio" => {
                config.frontier_ratio = value("--frontier-ratio")?
                    .parse()
                    .map_err(|e| format!("--frontier-ratio: {e}"))?;
            }
            "--enforce" => config.enforce = true,
            "--max-p99-ms" => {
                config.max_p99_ms = Some(
                    value("--max-p99-ms")?
                        .parse()
                        .map_err(|e| format!("--max-p99-ms: {e}"))?,
                );
            }
            "--compare" => config.compare = Some(value("--compare")?.to_owned()),
            "--max-overhead-pct" => {
                config.max_overhead_pct = Some(
                    value("--max-overhead-pct")?
                        .parse()
                        .map_err(|e| format!("--max-overhead-pct: {e}"))?,
                );
            }
            "--connections" => {
                config.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            "--duration" => {
                config.duration_secs = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
            }
            "--pipeline" => {
                config.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|e| format!("--pipeline: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if (config.connections > 0) != (config.duration_secs > 0.0) {
        return Err("--connections and --duration enable open-loop mode together".to_owned());
    }
    if config.pipeline == 0 {
        return Err("--pipeline must be at least 1".to_owned());
    }
    Ok(config)
}

/// splitmix64 — the repo's standard seeded generator for workloads.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn request_for(percent: f64, rate: f64) -> SolutionRequest {
    SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(percent)
        .expect("percent in range")
        .penalty_per_hour(rate)
        .expect("positive rate")
        .build()
        .expect("valid request")
}

/// The hot pool: the handful of requests a steady-state broker keeps
/// answering (think dashboards and repeated what-if queries).
fn hot_pool() -> Vec<Value> {
    [95.0, 96.0, 97.0, 97.5, 98.0, 98.5, 99.0, 99.5]
        .iter()
        .map(|&p| serde_json::to_value(&request_for(p, 100.0)))
        .collect()
}

/// The frontier hot pool: a handful of SLO specs (hard uptime floor,
/// soft cost cap) whose extraction the daemon keeps re-answering.
fn frontier_pool() -> Vec<Value> {
    [92.0, 95.0, 97.0, 98.0]
        .iter()
        .map(|&threshold| {
            serde_json::json!({
                "tiers": ["Compute", "Storage", "NetworkGateway"],
                "penalty": { "PerHour": { "rate": 100.0 } },
                "slo": { "objectives": [
                    { "metric": "uptime", "threshold": threshold, "mode": "hard" },
                    { "metric": "cost", "threshold": 2000.0, "mode": "soft", "weight": 1.0 }
                ] },
            })
        })
        .collect()
}

/// A unique cold request: an SLA/rate point nothing else in the run uses.
fn cold_request(rng: &mut u64) -> Value {
    let percent = 90.0 + (splitmix64(rng) % 800_000) as f64 / 100_000.0;
    let rate = 1.0 + (splitmix64(rng) % 100_000) as f64 / 100.0;
    serde_json::to_value(&request_for(percent, rate))
}

/// Draws the next request from the seeded mix (shared by both modes).
fn pick_request(
    rng: &mut u64,
    repeat_ratio: f64,
    health_ratio: f64,
    frontier_ratio: f64,
    pool: &[Value],
    frontiers: &[Value],
) -> (&'static str, Value) {
    let roll = |rng: &mut u64| (splitmix64(rng) % 10_000) as f64 / 10_000.0;
    if roll(rng) < health_ratio {
        ("health", Value::Null)
    } else if roll(rng) < frontier_ratio {
        (
            "frontier",
            frontiers[(splitmix64(rng) % frontiers.len() as u64) as usize].clone(),
        )
    } else if roll(rng) < repeat_ratio {
        (
            "recommend",
            pool[(splitmix64(rng) % pool.len() as u64) as usize].clone(),
        )
    } else {
        ("recommend", cold_request(rng))
    }
}

#[derive(Default)]
struct ClientStats {
    latencies_ns: Vec<u64>,
    by_endpoint_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Per span name: (samples, total ns) summed from explain payloads.
    stage_ns: BTreeMap<String, (u64, u64)>,
    ok: u64,
    cached: u64,
    coalesced: u64,
    shed: u64,
    errors: u64,
}

impl ClientStats {
    /// Folds one response line into the running tallies.
    fn absorb(
        &mut self,
        endpoint: &'static str,
        elapsed_ns: u64,
        line: &str,
    ) -> std::io::Result<()> {
        self.latencies_ns.push(elapsed_ns);
        self.by_endpoint_ns
            .entry(endpoint)
            .or_default()
            .push(elapsed_ns);
        let response: ResponseFrame = serde_json::from_str(line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
        if let Some(spans) = response
            .explain
            .as_ref()
            .and_then(|e| e.get("spans"))
            .and_then(Value::as_array)
        {
            for span in spans {
                let Some(name) = span.get("name").and_then(Value::as_str) else {
                    continue;
                };
                let ns = span.get("duration_ns").and_then(Value::as_u64).unwrap_or(0);
                let entry = self.stage_ns.entry(name.to_owned()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 = entry.1.saturating_add(ns);
            }
        }
        match response.status {
            Status::Ok => {
                self.ok += 1;
                if response.cached {
                    self.cached += 1;
                }
                if response.coalesced {
                    self.coalesced += 1;
                }
            }
            Status::Shed => self.shed += 1,
            Status::Error => self.errors += 1,
        }
        Ok(())
    }

    /// Open-loop accounting: classify the response by its rendered
    /// envelope (status suffix, cached/coalesced markers) instead of
    /// parsing the full body — the parse would bill the shared CPU for
    /// work the daemon under test needs. Falls back to the full parse
    /// when the envelope shape is unrecognized or the frame asked for an
    /// explain payload (whose spans we aggregate).
    fn absorb_scan(
        &mut self,
        endpoint: &'static str,
        elapsed_ns: u64,
        line: &str,
        parse_full: bool,
    ) -> std::io::Result<()> {
        let tail = line.trim_end();
        let (ok, shed, error) = (
            tail.ends_with("\"status\":\"ok\",\"v\":1}"),
            tail.ends_with("\"status\":\"shed\",\"v\":1}"),
            tail.ends_with("\"status\":\"error\",\"v\":1}"),
        );
        if parse_full || !(ok || shed || error) {
            return self.absorb(endpoint, elapsed_ns, line);
        }
        self.latencies_ns.push(elapsed_ns);
        self.by_endpoint_ns
            .entry(endpoint)
            .or_default()
            .push(elapsed_ns);
        if ok {
            self.ok += 1;
            if line.contains(",\"cached\":true,") {
                self.cached += 1;
            }
            if line.contains(",\"coalesced\":true,") {
                self.coalesced += 1;
            }
        } else if shed {
            self.shed += 1;
        } else {
            self.errors += 1;
        }
        Ok(())
    }

    fn merge(&mut self, other: ClientStats) {
        self.latencies_ns.extend(other.latencies_ns);
        for (endpoint, ns) in other.by_endpoint_ns {
            self.by_endpoint_ns.entry(endpoint).or_default().extend(ns);
        }
        for (name, (count, total)) in other.stage_ns {
            let entry = self.stage_ns.entry(name).or_insert((0, 0));
            entry.0 += count;
            entry.1 = entry.1.saturating_add(total);
        }
        self.ok += other.ok;
        self.cached += other.cached;
        self.coalesced += other.coalesced;
        self.shed += other.shed;
        self.errors += other.errors;
    }
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    addr: &str,
    requests: usize,
    repeat_ratio: f64,
    health_ratio: f64,
    explain_ratio: f64,
    frontier_ratio: f64,
    mut rng: u64,
    pool: &[Value],
    frontiers: &[Value],
) -> std::io::Result<ClientStats> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut stats = ClientStats::default();
    stats.latencies_ns.reserve(requests);
    for i in 0..requests {
        let (endpoint, body) = pick_request(
            &mut rng,
            repeat_ratio,
            health_ratio,
            frontier_ratio,
            pool,
            frontiers,
        );
        let explain = explain_ratio > 0.0
            && (splitmix64(&mut rng) % 10_000) as f64 / 10_000.0 < explain_ratio;
        let frame = RequestFrame::new(i as u64, endpoint, body).with_explain(explain);
        let mut text = serde_json::to_string(&frame).expect("frame serializes");
        text.push('\n');
        let start = Instant::now();
        writer.write_all(text.as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.absorb(endpoint, elapsed_ns, &line)?;
    }
    Ok(stats)
}

/// An in-flight open-loop request: endpoint, whether a full explain
/// parse is needed on its response, and its send timestamp.
type Inflight = (&'static str, bool, Instant);

/// The writer/reader rendezvous for one open-loop connection: FIFO of
/// in-flight requests plus condvars for "window has room" and "queue has
/// a head to read".
struct Window {
    queue: Mutex<VecDeque<Inflight>>,
    not_full: Condvar,
    not_empty: Condvar,
}

/// One open-loop connection: a writer that keeps up to `pipeline` frames
/// in flight until the deadline, and a reader that matches responses to
/// their send timestamps FIFO. The worker pool may answer pipelined
/// frames out of order, so per-request latencies are approximate; counts
/// and totals are exact. The connection persists for the whole window.
/// The generator deliberately stays cheap (pre-serialized hot bodies,
/// hand-spliced frames, batched writes, envelope-scan accounting) so it
/// measures the daemon rather than its own CPU appetite.
#[allow(clippy::too_many_arguments)]
fn run_open_loop_conn(
    addr: &str,
    deadline: Instant,
    pipeline: usize,
    repeat_ratio: f64,
    health_ratio: f64,
    explain_ratio: f64,
    frontier_ratio: f64,
    mut rng: u64,
    pool: &[Value],
    frontiers: &[Value],
) -> std::io::Result<ClientStats> {
    use std::fmt::Write as FmtWrite;

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let reader_stream = stream.try_clone()?;
    let window = Arc::new(Window {
        queue: Mutex::new(VecDeque::with_capacity(pipeline)),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    let done = Arc::new(AtomicBool::new(false));

    let reader_window = Arc::clone(&window);
    let reader_done = Arc::clone(&done);
    let reader = std::thread::spawn(move || -> std::io::Result<ClientStats> {
        let mut reader = BufReader::with_capacity(256 * 1024, reader_stream);
        let mut stats = ClientStats::default();
        let mut line = String::new();
        loop {
            let front = {
                let mut queue = reader_window.queue.lock().expect("window lock");
                loop {
                    if let Some(entry) = queue.front().copied() {
                        break Some(entry);
                    }
                    if reader_done.load(Ordering::Acquire) {
                        break None;
                    }
                    let (next, _) = reader_window
                        .not_empty
                        .wait_timeout(queue, Duration::from_millis(10))
                        .expect("window lock");
                    queue = next;
                }
            };
            let Some((endpoint, explain, start)) = front else {
                return Ok(stats);
            };
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon hung up with responses outstanding",
                ));
            }
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            reader_window.queue.lock().expect("window lock").pop_front();
            reader_window.not_full.notify_one();
            stats.absorb_scan(endpoint, elapsed_ns, &line, explain)?;
        }
    });

    // Hot bodies render once; only cold one-off requests pay serde.
    let pool_text: Vec<String> = pool
        .iter()
        .map(|v| serde_json::to_string(v).expect("body serializes"))
        .collect();
    let frontier_text: Vec<String> = frontiers
        .iter()
        .map(|v| serde_json::to_string(v).expect("body serializes"))
        .collect();
    let roll = |rng: &mut u64| (splitmix64(rng) % 10_000) as f64 / 10_000.0;

    let mut writer = stream;
    let mut buf = String::with_capacity(pipeline * 256);
    let mut batch: Vec<Inflight> = Vec::with_capacity(pipeline);
    let mut id = 0u64;
    let mut result = Ok(());
    'run: while Instant::now() < deadline {
        let available = {
            let mut queue = window.queue.lock().expect("window lock");
            loop {
                if queue.len() < pipeline {
                    break pipeline - queue.len();
                }
                let (next, _) = window
                    .not_full
                    .wait_timeout(queue, Duration::from_millis(10))
                    .expect("window lock");
                queue = next;
                if Instant::now() >= deadline {
                    break 'run;
                }
            }
        };
        buf.clear();
        batch.clear();
        for _ in 0..available.min(16) {
            let cold;
            let (endpoint, body_text): (&'static str, &str) = if roll(&mut rng) < health_ratio {
                ("health", "null")
            } else if roll(&mut rng) < frontier_ratio {
                (
                    "frontier",
                    &frontier_text[(splitmix64(&mut rng) % frontier_text.len() as u64) as usize],
                )
            } else if roll(&mut rng) < repeat_ratio {
                (
                    "recommend",
                    &pool_text[(splitmix64(&mut rng) % pool_text.len() as u64) as usize],
                )
            } else {
                cold = serde_json::to_string(&cold_request(&mut rng)).expect("body serializes");
                ("recommend", cold.as_str())
            };
            let explain = explain_ratio > 0.0
                && (splitmix64(&mut rng) % 10_000) as f64 / 10_000.0 < explain_ratio;
            batch.push((endpoint, explain, Instant::now()));
            let _ = write!(
                buf,
                "{{\"v\":1,\"id\":{id},\"endpoint\":\"{endpoint}\",\"body\":{body_text}"
            );
            if explain {
                buf.push_str(",\"explain\":true");
            }
            buf.push_str("}\n");
            id += 1;
        }
        window
            .queue
            .lock()
            .expect("window lock")
            .extend(batch.drain(..));
        window.not_empty.notify_one();
        if let Err(error) = writer.write_all(buf.as_bytes()) {
            result = Err(error);
            break;
        }
    }
    done.store(true, Ordering::Release);
    window.not_empty.notify_all();
    let stats = reader.join().expect("reader thread")?;
    result.map(|()| stats)
}

/// In-process floor of a cold evaluation: rebuild the catalog and broker,
/// evaluate, drop — what each request costs with no daemon and no cache,
/// excluding process startup.
fn cold_inprocess_rps(reps: u32) -> f64 {
    let request = request_for(98.0, 100.0);
    let start = Instant::now();
    for _ in 0..reps {
        let store = case_study::catalog();
        let broker = BrokerService::new(store);
        let plan = broker.recommend(&request).expect("catalog answers");
        std::hint::black_box(&plan);
    }
    f64::from(reps) / start.elapsed().as_secs_f64()
}

/// What the daemon actually replaces: a one-shot `brokerctl recommend`
/// process per request (spawn + catalog build + evaluate + print). Looks
/// for the binary next to our own executable (both live in
/// `target/release`), or under `$BROKERCTL`. Returns requests/sec, or
/// `None` when the binary is not around.
fn cold_cli_rps(reps: u32) -> Option<f64> {
    let path = std::env::var("BROKERCTL")
        .map(std::path::PathBuf::from)
        .or_else(|_| std::env::current_exe().map(|exe| exe.with_file_name("brokerctl")));
    let path = path.ok().filter(|p| p.exists())?;
    // Warm the page cache so the first spawn doesn't skew the mean.
    let probe = std::process::Command::new(&path)
        .args(["recommend", "--json"])
        .output()
        .ok()?;
    if !probe.status.success() {
        return None;
    }
    let start = Instant::now();
    for _ in 0..reps {
        let output = std::process::Command::new(&path)
            .args(["recommend", "--json"])
            .output()
            .expect("brokerctl spawns");
        assert!(output.status.success(), "one-shot recommend failed");
    }
    Some(f64::from(reps) / start.elapsed().as_secs_f64())
}

/// PR 9 gate: time epsilon-dominance branch-and-bound frontier
/// extraction against the naive O(N²) dominance sweep on a synthetic
/// `6^6` space, and differentially check the two agree. Returns the
/// report section, the measured speedup, and whether the frontiers
/// matched point-for-point.
fn frontier_bench() -> (Value, f64, bool) {
    use uptime_optimizer::pareto_bnb;

    let space = uptime_bench::synthetic_space(6, 6);
    let model = uptime_bench::synthetic_model();
    let constraints = pareto_bnb::FrontierConstraints::NONE;
    let epsilon = 1e-9;

    let naive_start = Instant::now();
    let naive = pareto_bnb::naive_frontier(&space, &model, &constraints);
    let naive_ns = u64::try_from(naive_start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    // Best of 3 for the fast path; the naive sweep is too slow to repeat.
    let mut bnb_ns = u64::MAX;
    let mut outcome = None;
    for _ in 0..3 {
        let start = Instant::now();
        let run = pareto_bnb::search(&space, &model, &constraints, epsilon);
        bnb_ns = bnb_ns.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        outcome = Some(run);
    }
    let outcome = outcome.expect("three runs happened");

    // Compare the frontier contract — representative assignment and the
    // (cost, uptime) coordinates — not whole `Evaluation`s: derived
    // fields off the frontier axes (failover probability, penalty) are
    // summed in a different order by the fast path and may differ in the
    // last ulp.
    let key = |p: &uptime_optimizer::ParetoPoint| {
        (
            p.evaluation().assignment().to_vec(),
            p.ha_cost().value(),
            p.uptime().value(),
        )
    };
    let matches_naive = outcome.points().iter().map(key).collect::<Vec<_>>()
        == naive.iter().map(key).collect::<Vec<_>>();
    let speedup = if bnb_ns > 0 {
        naive_ns as f64 / bnb_ns as f64
    } else {
        f64::INFINITY
    };
    let stats = outcome.stats();
    let section = serde_json::json!({
        "space": "synthetic-6^6",
        "leaves": 46_656u64,
        "frontier_size": stats.frontier_size,
        "leaves_evaluated": stats.leaves_evaluated,
        "subtrees_pruned": stats.subtrees_pruned,
        "bnb_ns": bnb_ns,
        "naive_ns": naive_ns,
        "speedup": speedup,
        "matches_naive": matches_naive,
        "meets_5x_target": speedup >= 5.0 && matches_naive,
    });
    (section, speedup, matches_naive)
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("loadgen: {message}");
            return ExitCode::from(2);
        }
    };
    let open_loop = config.connections > 0;

    // Either target a running daemon or spawn one in-process.
    let mut local = None;
    let addr = match &config.addr {
        Some(addr) => addr.clone(),
        None => {
            let store = case_study::catalog();
            let broker = Arc::new(BrokerService::new(store));
            let backend = Arc::new(ServingBroker::new(broker));
            let handle = Server::start(
                backend,
                ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    ..ServerConfig::default()
                },
                Arc::new(MetricsRegistry::new()),
            )
            .expect("in-process daemon binds");
            let addr = handle.local_addr().to_string();
            local = Some(handle);
            addr
        }
    };

    let pool = hot_pool();
    let frontiers = frontier_pool();
    let started = Instant::now();
    let workers: Vec<_> = if open_loop {
        let deadline = started + Duration::from_secs_f64(config.duration_secs);
        (0..config.connections)
            .map(|c| {
                let addr = addr.clone();
                let pool = pool.clone();
                let frontiers = frontiers.clone();
                let pipeline = config.pipeline;
                let ratio = config.repeat_ratio;
                let health_ratio = config.health_ratio;
                let explain_ratio = config.explain_ratio;
                let frontier_ratio = config.frontier_ratio;
                let seed = config
                    .seed
                    .wrapping_add(0x517c_c1b7_2722_0a95_u64.wrapping_mul(c as u64 + 1));
                std::thread::spawn(move || {
                    run_open_loop_conn(
                        &addr,
                        deadline,
                        pipeline,
                        ratio,
                        health_ratio,
                        explain_ratio,
                        frontier_ratio,
                        seed,
                        &pool,
                        &frontiers,
                    )
                })
            })
            .collect()
    } else {
        (0..config.clients)
            .map(|c| {
                let addr = addr.clone();
                let pool = pool.clone();
                let frontiers = frontiers.clone();
                let requests = config.requests;
                let ratio = config.repeat_ratio;
                let health_ratio = config.health_ratio;
                let explain_ratio = config.explain_ratio;
                let frontier_ratio = config.frontier_ratio;
                let seed = config
                    .seed
                    .wrapping_add(0x517c_c1b7_2722_0a95_u64.wrapping_mul(c as u64 + 1));
                std::thread::spawn(move || {
                    run_client(
                        &addr,
                        requests,
                        ratio,
                        health_ratio,
                        explain_ratio,
                        frontier_ratio,
                        seed,
                        &pool,
                        &frontiers,
                    )
                })
            })
            .collect()
    };

    let mut merged = ClientStats::default();
    for worker in workers {
        match worker.join().expect("client thread") {
            Ok(stats) => merged.merge(stats),
            Err(error) => {
                eprintln!("loadgen: client failed: {error}");
                merged.errors += if open_loop { 1 } else { config.requests as u64 };
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let ClientStats {
        latencies_ns: mut latencies,
        by_endpoint_ns: by_endpoint,
        stage_ns,
        ok,
        cached,
        coalesced,
        shed,
        errors,
    } = merged;

    if config.shutdown || local.is_some() {
        if let Ok(stream) = TcpStream::connect(&addr) {
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mut text = serde_json::to_string(&RequestFrame::new(0, "shutdown", Value::Null))
                .expect("frame serializes");
            text.push('\n');
            let _ = writer.write_all(text.as_bytes());
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
        }
    }
    if let Some(handle) = local.take() {
        handle.join();
    }

    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let throughput_rps = if elapsed > 0.0 {
        total as f64 / elapsed
    } else {
        f64::INFINITY
    };
    let inprocess_rps = cold_inprocess_rps(20);
    let cli_rps = cold_cli_rps(25);
    // The daemon replaces a one-shot CLI process per request; that is the
    // cold baseline when the binary is around, the in-process rebuild
    // otherwise.
    let (cold_rps, cold_mode) = match cli_rps {
        Some(rps) => (rps, "one-shot-cli"),
        None => (inprocess_rps, "in-process-rebuild"),
    };
    let speedup = throughput_rps / cold_rps;
    let hit_rate = if ok > 0 {
        cached as f64 / ok as f64
    } else {
        0.0
    };
    let meets_10x = speedup >= 10.0;

    if open_loop {
        println!(
            "open-loop: {} connection(s), {:.1}s window, pipeline {}",
            config.connections, config.duration_secs, config.pipeline
        );
    }
    println!(
        "{} requests in {elapsed:.2}s — {throughput_rps:.0} req/s \
         (cold {cold_mode}: {cold_rps:.0} req/s, {speedup:.1}x)",
        total
    );
    println!(
        "cache: {cached}/{ok} hits ({:.1}%), {coalesced} coalesced; {shed} shed, {errors} errors",
        hit_rate * 100.0
    );

    // Per-endpoint latency percentiles: one entry per endpoint the mix
    // actually exercised (`recommend` always; `health` under
    // --health-ratio).
    let mut endpoints = serde_json::Map::new();
    for (endpoint, mut ns) in by_endpoint {
        ns.sort_unstable();
        endpoints.insert(
            endpoint.to_owned(),
            serde_json::json!({
                "requests": ns.len() as u64,
                "p50": percentile(&ns, 0.50),
                "p95": percentile(&ns, 0.95),
                "p99": percentile(&ns, 0.99),
                "max": ns.last().copied().unwrap_or(0),
            }),
        );
    }
    let stages: serde_json::Map = stage_ns
        .into_iter()
        .map(|(name, (count, total))| {
            let mean = total.checked_div(count).unwrap_or(0);
            (
                name,
                serde_json::json!({"samples": count, "total_ns": total, "mean_ns": mean}),
            )
        })
        .collect();

    // Two-run overhead gate: against a baseline report (same workload,
    // tracing off), how much throughput did this run give up?
    let mut overhead_pct: Option<f64> = None;
    let compare_value = match &config.compare {
        None => Value::Null,
        Some(path) => {
            let baseline: Value = std::fs::read_to_string(path)
                .map_err(|e| format!("read {path}: {e}"))
                .and_then(|text| {
                    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
                })
                .unwrap_or_else(|message| {
                    eprintln!("loadgen: --compare: {message}");
                    std::process::exit(2);
                });
            let baseline_rps = baseline
                .get("throughput_rps")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| {
                    eprintln!("loadgen: --compare: {path} has no throughput_rps");
                    std::process::exit(2);
                });
            let pct = if throughput_rps > 0.0 {
                (baseline_rps / throughput_rps - 1.0) * 100.0
            } else {
                f64::INFINITY
            };
            overhead_pct = Some(pct);
            serde_json::json!({
                "baseline": path,
                "baseline_rps": baseline_rps,
                "overhead_pct": pct,
                "max_overhead_pct": config.max_overhead_pct,
            })
        }
    };

    // The frontier micro-bench only runs when the mix exercises the
    // frontier endpoint (or the gate is enforced) — BENCH_PR4/PR8 runs
    // stay unchanged. Open-loop runs skip it: the in-process sweep would
    // just pad the window.
    let (frontier_section, frontier_speedup, frontier_matches) =
        if (config.frontier_ratio > 0.0 || config.enforce) && !open_loop {
            let (section, speedup, matches) = frontier_bench();
            println!(
                "frontier bench: bnb {speedup:.1}x over naive dominance sweep \
                 (frontiers {})",
                if matches { "match" } else { "DIVERGE" }
            );
            (section, Some(speedup), matches)
        } else {
            (Value::Null, None, true)
        };

    // The report label follows the output file (BENCH_PR4.json stays the
    // PR 4 contract; the tracing CI job writes BENCH_PR8.json; the
    // frontier CI job writes BENCH_PR9.json).
    let benchmark = std::path::Path::new(&config.out)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("BENCH")
        .to_owned();
    let report = serde_json::json!({
        "benchmark": benchmark,
        "description": "uptime-serve daemon throughput vs cold per-request evaluation",
        "mode": if open_loop { "open-loop" } else { "closed-loop" },
        "config": {
            "addr": addr,
            "clients": config.clients as u64,
            "requests_per_client": config.requests as u64,
            "connections": config.connections as u64,
            "duration_secs": config.duration_secs,
            "pipeline_depth": config.pipeline as u64,
            // Serving throughput is hardware-bound, so the report records
            // how many cores this run had.
            "cpus": std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0),
            "repeat_ratio": config.repeat_ratio,
            "health_ratio": config.health_ratio,
            "explain_ratio": config.explain_ratio,
            "frontier_ratio": config.frontier_ratio,
            "seed": config.seed,
        },
        "totals": {
            "requests": total,
            "ok": ok,
            "cached": cached,
            "coalesced": coalesced,
            "shed": shed,
            "errors": errors,
        },
        "latency_ns": {
            "p50": percentile(&latencies, 0.50),
            "p95": percentile(&latencies, 0.95),
            "p99": percentile(&latencies, 0.99),
            "max": latencies.last().copied().unwrap_or(0),
        },
        "latency_by_endpoint_ns": serde_json::Value::Object(endpoints),
        "explain_stages": serde_json::Value::Object(stages),
        "frontier_bench": frontier_section,
        "compare": compare_value,
        "throughput_rps": throughput_rps,
        "cold_eval_rps": cold_rps,
        "cold_eval_mode": cold_mode,
        "cold_inprocess_rps": inprocess_rps,
        "speedup_vs_cold": speedup,
        "cache_hit_rate": hit_rate,
        "meets_10x_target": meets_10x,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&config.out, rendered).expect("write benchmark report");
    println!("wrote {}", config.out);

    if !meets_10x {
        eprintln!("warning: {speedup:.1}x below the 10x serving target");
    }
    let failed_hit_rate = hit_rate < config.min_hit_rate;
    if failed_hit_rate {
        eprintln!(
            "loadgen: cache hit rate {:.1}% below required {:.1}%",
            hit_rate * 100.0,
            config.min_hit_rate * 100.0
        );
    }
    let failed_errors = config.fail_on_error && (errors > 0 || shed > 0);
    if failed_errors {
        eprintln!("loadgen: {errors} errors / {shed} sheds with --fail-on-error");
    }
    let p99_ms = percentile(&latencies, 0.99) as f64 / 1e6;
    let failed_p99 = config.max_p99_ms.is_some_and(|bound| p99_ms > bound);
    if failed_p99 {
        eprintln!(
            "loadgen: p99 {p99_ms:.3}ms exceeds --max-p99-ms {:.3}",
            config.max_p99_ms.unwrap_or(0.0)
        );
    }
    let failed_overhead = match (overhead_pct, config.max_overhead_pct) {
        (Some(pct), Some(bound)) => {
            if pct > bound {
                eprintln!(
                    "loadgen: throughput overhead {pct:.1}% vs baseline exceeds \
                     --max-overhead-pct {bound:.1}"
                );
                true
            } else {
                println!("overhead vs baseline: {pct:.1}% (budget {bound:.1}%)");
                false
            }
        }
        (Some(pct), None) => {
            println!("overhead vs baseline: {pct:.1}%");
            false
        }
        _ => false,
    };
    let failed_frontier =
        config.enforce && (frontier_speedup.is_some_and(|s| s < 5.0) || !frontier_matches);
    if failed_frontier {
        eprintln!(
            "loadgen: frontier bench failed --enforce: speedup {:.1}x (need 5x), frontiers {}",
            frontier_speedup.unwrap_or(0.0),
            if frontier_matches { "match" } else { "diverge" }
        );
    }
    if failed_hit_rate || failed_errors || failed_p99 || failed_overhead || failed_frontier {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
