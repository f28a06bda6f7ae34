//! The tracing overhead budget: a traced daemon keeps at least 90 % of a
//! tracing-off daemon's throughput on the same request mix, in one
//! process, and answers it with p99 at most 250 ms.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;
use uptime_broker::{BrokerService, ServingBroker, SolutionRequest};
use uptime_catalog::{case_study, ComponentKind};
use uptime_obs::{MetricsRegistry, TraceConfig};
use uptime_serve::{RequestFrame, Server, ServerConfig, ServerHandle};

/// Closed-loop client connections per daemon, as many as the daemon
/// gate this test replaced used.
const CONNECTIONS: usize = 8;
/// Frames each connection sends per daemon per pair. A debug build sends
/// a third as many: it only checks the answers.
const FRAMES: usize = if cfg!(debug_assertions) { 25 } else { 75 };
/// Alternating traced/untraced pairs per attempt. The gate reads their
/// median: on a shared 2-vCPU machine one short pair's ratio ranges from
/// 0.6 to 1.3, yet with both daemons untraced the median of 99 stayed
/// within ±1.5 % of 1.
const PAIRS: usize = 99;
/// Attempts before the throughput gate fails.
const ATTEMPTS: usize = 3;
/// Least traced/untraced throughput ratio: at most 10 % overhead.
const MIN_THROUGHPUT_RATIO: f64 = 0.90;
/// Greatest p99 latency of either daemon.
const MAX_P99_NS: u64 = 250_000_000;
/// Least share of ok answers served from the cache.
const MIN_HIT_RATIO: f64 = 0.5;

/// A daemon over the case-study catalog with `ServerConfig`'s defaults,
/// wired as `brokerctl serve` wires it: the broker and the server share
/// one registry, and a traced daemon builds its own flight recorder.
fn start_daemon(traced: bool) -> ServerHandle {
    let registry = Arc::new(MetricsRegistry::new());
    let broker =
        BrokerService::new(case_study::catalog()).with_recorder(Arc::clone(&registry) as _);
    let backend = ServingBroker::new(Arc::new(broker));
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    if !traced {
        config.trace = TraceConfig::disabled();
    }
    Server::start(Arc::new(backend), config, registry).expect("daemon binds")
}

/// splitmix64, the repository's seeded generator for workloads.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn recommend_body(percent: f64, rate: f64) -> Value {
    let request = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(percent)
        .expect("percent in range")
        .penalty_per_hour(rate)
        .expect("positive rate")
        .build()
        .expect("valid request");
    serde_json::to_value(&request)
}

/// `count` rendered frames of the seeded mix: 5 % `health`; of the rest,
/// 90 % from an 8-request hot pool and 10 % unique `recommend`s.
fn mix(seed: u64, count: usize) -> Vec<String> {
    const HOT_SLA_PERCENTS: [f64; 8] = [95.0, 96.0, 97.0, 97.5, 98.0, 98.5, 99.0, 99.5];
    let mut rng = seed;
    let mut frames = Vec::with_capacity(count);
    for id in 0..count as u64 {
        let (endpoint, body) = if splitmix64(&mut rng) % 100 < 5 {
            ("health", Value::Null)
        } else if splitmix64(&mut rng) % 100 < 90 {
            let percent = HOT_SLA_PERCENTS[(splitmix64(&mut rng) % 8) as usize];
            ("recommend", recommend_body(percent, 100.0))
        } else {
            let percent = 90.0 + (splitmix64(&mut rng) % 800_000) as f64 / 100_000.0;
            let rate = 1.0 + (splitmix64(&mut rng) % 100_000) as f64 / 100.0;
            ("recommend", recommend_body(percent, rate))
        };
        let frame = RequestFrame::new(id, endpoint, body);
        frames.push(serde_json::to_string(&frame).expect("frame serializes") + "\n");
    }
    frames
}

/// What one daemon answered: how many answers came from its cache, and
/// how long each took.
#[derive(Default)]
struct Tally {
    cached: u64,
    latencies_ns: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.cached += other.cached;
        self.latencies_ns.extend(other.latencies_ns);
    }

    /// The functional half of the gate, asserted in every build; `drive`
    /// has already checked that every answer was ok.
    fn assert_serves_well(&mut self, daemon: &str) {
        let hit_ratio = self.cached as f64 / self.latencies_ns.len().max(1) as f64;
        assert!(
            hit_ratio >= MIN_HIT_RATIO,
            "{daemon} daemon: cache hit ratio {hit_ratio:.3} below {MIN_HIT_RATIO}"
        );
        self.latencies_ns.sort_unstable();
        let rank = (self.latencies_ns.len() - 1) * 99 / 100;
        let p99_ns = self.latencies_ns[rank];
        assert!(
            p99_ns <= MAX_P99_NS,
            "{daemon} daemon: p99 {p99_ns} ns above {MAX_P99_NS} ns"
        );
    }
}

/// Sends `frames` on one connection, each after the previous answer.
fn drive(addr: SocketAddr, frames: &[String]) -> Tally {
    let stream = TcpStream::connect(addr).expect("daemon accepts");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut tally = Tally::default();
    let mut line = String::new();
    for frame in frames {
        let start = Instant::now();
        writer.write_all(frame.as_bytes()).expect("send frame");
        line.clear();
        reader.read_line(&mut line).expect("read answer");
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // The envelope follows the body; parsing every body would bill the
        // client's CPU to the timing.
        assert!(
            line.trim_end().ends_with(r#""status":"ok","v":1}"#),
            "answer not ok: {line}"
        );
        let envelope = line.rfind(r#","cached":"#).map_or("", |at| &line[at..]);
        tally.cached += u64::from(envelope.starts_with(r#","cached":true"#));
        tally.latencies_ns.push(elapsed_ns);
    }
    tally
}

/// Drives one daemon with one frame list per connection, all at once,
/// and returns its answers and its throughput in frames per second.
fn run(daemon: &ServerHandle, connections: &[Vec<String>]) -> (Tally, f64) {
    let addr = daemon.local_addr();
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let clients: Vec<_> = connections
            .iter()
            .map(|frames| scope.spawn(move || drive(addr, frames)))
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally);
    }
    let rps = total.latencies_ns.len() as f64 / seconds;
    (total, rps)
}

/// Two daemons get the same seeded frames in alternating order, pair by
/// pair. Throughput is gated on the median pair ratio, and only in
/// optimized builds: a debug build times the debug daemon, not the one
/// that ships. The functional half holds in every build.
#[test]
fn tracing_overhead_is_within_budget() {
    let mut daemons = [start_daemon(true), start_daemon(false)];
    let warm_up = [mix(0, 200)];
    for daemon in &daemons {
        run(daemon, &warm_up);
    }

    let mut medians = Vec::new();
    for attempt in 0..ATTEMPTS {
        let mut tallies = [Tally::default(), Tally::default()];
        let mut ratios = Vec::with_capacity(PAIRS);
        for pair in 0..PAIRS {
            let seed = ((attempt * PAIRS + pair) * CONNECTIONS + 1) as u64;
            let connections: Vec<Vec<String>> = (0..CONNECTIONS as u64)
                .map(|c| mix(seed + c, FRAMES))
                .collect();
            let mut rps = [0.0; 2];
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let (tally, side_rps) = run(&daemons[side], &connections);
                tallies[side].merge(tally);
                rps[side] = side_rps;
            }
            ratios.push(rps[0] / rps[1]);
        }
        tallies[0].assert_serves_well("traced");
        tallies[1].assert_serves_well("untraced");

        ratios.sort_by(f64::total_cmp);
        let median = ratios[PAIRS / 2];
        eprintln!(
            "attempt {attempt}: traced/untraced throughput, median {median:.3} \
             (quartiles {:.3}..{:.3})",
            ratios[PAIRS / 4],
            ratios[3 * PAIRS / 4]
        );
        medians.push(median);
        if cfg!(debug_assertions) || median >= MIN_THROUGHPUT_RATIO {
            break;
        }
    }
    for daemon in &mut daemons {
        daemon.shutdown();
    }
    let passed = medians.last().is_some_and(|&m| m >= MIN_THROUGHPUT_RATIO);
    assert!(
        cfg!(debug_assertions) || passed,
        "tracing cost more than 10 % throughput in all {ATTEMPTS} attempts \
         (median pair ratios {medians:.3?})"
    );
}
