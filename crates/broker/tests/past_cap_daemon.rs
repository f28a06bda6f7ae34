//! A daemon stays responsive to frames whose spaces cannot be enumerated.
//!
//! Thirty serial `Compute` tiers hold 2^30 variants. Past the 4,096-variant
//! table cap the broker answers them with one-thread branch-and-bound in
//! milliseconds; enumerating one would hold a worker for about a minute.
//! After four distinct 30-tier `recommend` frames and four `frontier`
//! frames reach a default 4-worker daemon, the paper's `recommend` — a
//! cache miss that needs a worker — must come back within a second. (A
//! `ping` would prove nothing: the reader thread answers it even while
//! every worker is busy.)

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use uptime_broker::{BrokerService, ServingBroker};
use uptime_catalog::case_study;
use uptime_obs::MetricsRegistry;
use uptime_serve::{RequestFrame, ResponseFrame, Server, ServerConfig, Status};

/// Sends one frame for `tiers` at the given penalty rate (distinct rates
/// make distinct cache keys) on a fresh connection.
fn send(addr: SocketAddr, id: u64, endpoint: &str, tiers: &[&str], rate: f64) -> TcpStream {
    let body = serde_json::json!({
        "tiers": tiers,
        "sla": { "target": 0.98 },
        "penalty": { "PerHour": { "rate": rate } },
        "slo": { "objectives": [ { "metric": "uptime", "threshold": 98.0, "mode": "hard" } ] },
    });
    let mut text = serde_json::to_string(&RequestFrame::new(id, endpoint, body)).unwrap();
    text.push('\n');
    let mut stream = TcpStream::connect(addr).expect("daemon accepts");
    stream.write_all(text.as_bytes()).expect("send frame");
    stream
}

fn read_reply(stream: TcpStream) -> std::io::Result<ResponseFrame> {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(serde_json::from_str(&line).expect("response frame parses"))
}

#[test]
fn heavy_frames_leave_a_worker_for_the_next_miss() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    assert_eq!(config.workers, 4);
    let broker = Arc::new(BrokerService::new(case_study::catalog()));
    let backend = Arc::new(ServingBroker::new(broker));
    let mut handle = Server::start(backend, config, Arc::new(MetricsRegistry::new())).unwrap();
    let addr = handle.local_addr();

    let heavy = vec!["Compute"; 30];
    let mut pending = Vec::new();
    for i in 0..4 {
        let rate = 100.0 + i as f64;
        pending.push(send(addr, i, "recommend", &heavy, rate));
        pending.push(send(addr, i + 4, "frontier", &heavy, rate));
    }

    let paper = ["Compute", "Storage", "NetworkGateway"];
    let follow_up = send(addr, 99, "recommend", &paper, 100.0);
    follow_up
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    // On a timeout, leave the workers to whatever holds them: joining
    // would wait for it.
    let reply = read_reply(follow_up).expect("the paper recommend is answered within 1 s");
    assert_eq!((reply.id, reply.status), (99, Status::Ok), "{reply:?}");

    for stream in pending {
        let reply = read_reply(stream).expect("heavy frame answered");
        assert_eq!(reply.status, Status::Ok, "{reply:?}");
        if reply.id < 4 {
            // The bound accounts for every one of the 2^30 variants.
            let body = reply.body.expect("recommend body");
            let stats = body
                .get("clouds")
                .and_then(|c| c.as_array()?.first()?.get("stats"));
            let count = |key| stats.and_then(|s| s.get(key)).and_then(|v| v.as_u64());
            assert_eq!(
                count("evaluated").zip(count("skipped")).map(|(e, s)| e + s),
                Some(1 << 30)
            );
        }
    }
    handle.shutdown();
}
