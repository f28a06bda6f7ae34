//! Connection-hardening tests: the daemon must survive hostile clients —
//! oversized frames, binary garbage, slowloris silence — without
//! panicking, leaking reader threads, or buffering unbounded input. It
//! must also reassemble frames however the bytes are split or batched
//! across socket reads, and never cross answers between pipelined
//! clients.
//!
//! Answers to pipelined frames may arrive out of order (the worker pool
//! finishes them in any order), so those tests match answers by `id`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use serde::Value;
use uptime_obs::MetricsRegistry;
use uptime_serve::reactor::frame::{FrameScanner, Scan};
use uptime_serve::{
    code, BackendError, RequestFrame, ServeBackend, Server, ServerConfig, ServerHandle,
};

/// A trivial backend: one cacheable endpoint that echoes its body. The
/// fingerprint hashes the body, so distinct payloads never coalesce.
struct EchoBackend;

impl ServeBackend for EchoBackend {
    fn epoch(&self) -> u64 {
        1
    }

    fn fingerprint(&self, endpoint: &str, body: &Value) -> Result<Option<u128>, BackendError> {
        match endpoint {
            "echo" => {
                let text = serde_json::to_string(body).unwrap_or_default();
                let mut hash: u128 = 0xcbf2_9ce4_8422_2325;
                for byte in text.bytes() {
                    hash ^= u128::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(Some(hash))
            }
            other => Err(BackendError::UnknownEndpoint(other.to_owned())),
        }
    }

    fn handle(&self, endpoint: &str, body: &Value) -> Result<Value, BackendError> {
        match endpoint {
            "echo" => Ok(serde_json::json!({ "echo": body.clone() })),
            other => Err(BackendError::UnknownEndpoint(other.to_owned())),
        }
    }
}

fn start(config_tweak: impl FnOnce(&mut ServerConfig)) -> (ServerHandle, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        cache_capacity: 16,
        ..ServerConfig::default()
    };
    config_tweak(&mut config);
    let handle =
        Server::start(Arc::new(EchoBackend), config, Arc::clone(&registry)).expect("daemon binds");
    (handle, registry)
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    stream
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> Value {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    serde_json::from_str(&response).expect("response parses")
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.snapshot().counter(name).unwrap_or(0)
}

fn pong_flag(frame: &Value) -> Option<bool> {
    frame
        .get("body")
        .and_then(|body| body.get("pong"))
        .and_then(Value::as_bool)
}

fn echo_line(id: u64, payload: &str) -> String {
    format!(
        "{{\"body\":{{\"payload\":\"{payload}\"}},\"endpoint\":\"echo\",\"id\":{id},\"v\":1}}\n"
    )
}

fn echo_payload(answer: &Value) -> Option<&str> {
    answer
        .get("body")
        .and_then(|b| b.get("echo"))
        .and_then(|e| e.get("payload"))
        .and_then(Value::as_str)
}

/// Reads `n` answer lines off `stream`, keyed by their `id`.
fn answers_by_id(stream: &TcpStream, n: usize) -> BTreeMap<u64, Value> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut answers = BTreeMap::new();
    for _ in 0..n {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("read answer");
        assert!(read > 0, "daemon hung up with answers outstanding");
        let answer: Value = serde_json::from_str(&line).expect("answer parses");
        let id = answer.get("id").and_then(Value::as_u64).expect("answer id");
        assert!(
            answers.insert(id, answer).is_none(),
            "id {id} answered twice"
        );
    }
    answers
}

#[test]
fn oversized_frame_gets_400_and_connection_drops() {
    let (mut handle, registry) = start(|c| c.max_frame_bytes = 256);
    let mut bystander = connect(&handle);
    let mut stream = connect(&handle);

    // 10 KiB of 'a' with no newline until the end: far past the cap.
    let big = format!("{}\n", "a".repeat(10 * 1024));
    stream.write_all(big.as_bytes()).expect("write oversized");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read 400");
    let parsed: Value = serde_json::from_str(&response).expect("parses");
    assert_eq!(
        parsed.get("code").and_then(Value::as_u64),
        Some(u64::from(code::BAD_REQUEST))
    );
    assert!(parsed
        .get("error")
        .and_then(Value::as_str)
        .expect("error detail")
        .contains("byte cap"));

    // The daemon hangs up after the 400: the next read sees EOF.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("EOF read"), 0);
    assert_eq!(counter(&registry, "serve.conn.oversized"), 1);

    // The daemon is still healthy for well-behaved clients, both one
    // connected before the flood and a fresh one.
    let pong = roundtrip(&mut bystander, r#"{"id":1,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    let mut fresh = connect(&handle);
    let pong = roundtrip(&mut fresh, r#"{"id":2,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    handle.shutdown();
}

/// Pins the teardown *ordering* on the edge case where the oversized
/// line never gets a newline and the client never closes: the `400` must
/// be written before the connection is shut down, so the client always
/// learns why it was dropped.
#[test]
fn oversized_without_newline_gets_400_before_close() {
    let (mut handle, registry) = start(|c| c.max_frame_bytes = 256);
    let mut stream = connect(&handle);

    // Over the cap, no newline, connection deliberately left open: the
    // daemon must still answer rather than silently hang up.
    stream
        .write_all(&vec![b'b'; 2048])
        .expect("write oversized prefix");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read 400");
    let parsed: Value = serde_json::from_str(&response).expect("parses");
    assert_eq!(
        parsed.get("code").and_then(Value::as_u64),
        Some(u64::from(code::BAD_REQUEST)),
        "the 400 must arrive before the close: {response}"
    );
    assert!(parsed
        .get("error")
        .and_then(Value::as_str)
        .expect("error detail")
        .contains("byte cap"));
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("EOF read"),
        0,
        "after the 400 the daemon hangs up"
    );
    assert_eq!(counter(&registry, "serve.conn.oversized"), 1);
    handle.shutdown();
}

/// Malformed (parseable-as-text, unparseable-as-frame) lines get a `400`
/// and the connection *stays open* — teardown is reserved for oversize.
#[test]
fn malformed_frame_gets_400_and_connection_survives() {
    let (mut handle, registry) = start(|_| {});
    let mut stream = connect(&handle);
    let bad = roundtrip(&mut stream, "this is not json");
    assert_eq!(
        bad.get("code").and_then(Value::as_u64),
        Some(u64::from(code::BAD_REQUEST))
    );
    assert!(bad
        .get("error")
        .and_then(Value::as_str)
        .expect("error detail")
        .contains("bad frame"));
    assert_eq!(counter(&registry, "serve.parse_error"), 1);
    // Same socket, next line: still served.
    let pong = roundtrip(&mut stream, r#"{"id":2,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    handle.shutdown();
}

#[test]
fn oversized_never_buffers_the_whole_flood() {
    // Even a multi-megabyte flood without newlines must be rejected
    // promptly — the reader stops at cap + 1 bytes.
    let (mut handle, registry) = start(|c| c.max_frame_bytes = 1024);
    let mut stream = connect(&handle);
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .expect("client write timeout");
    let chunk = vec![b'x'; 64 * 1024];
    let started = Instant::now();
    // Write until the daemon closes on us (or we have sent 8 MiB).
    for _ in 0..128 {
        if stream.write_all(&chunk).is_err() {
            break;
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "flood rejected promptly"
    );
    // Give the reader thread a moment to count the rejection.
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter(&registry, "serve.conn.oversized") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(counter(&registry, "serve.conn.oversized"), 1);
    handle.shutdown();
}

#[test]
fn idle_connection_is_dropped_and_counted() {
    let (mut handle, registry) = start(|c| c.read_timeout_ms = 150);
    let stream = connect(&handle);

    // Say nothing. The daemon must hang up on us, not the reverse.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut buf = String::new();
    let n = reader.read_line(&mut buf).expect("EOF after idle drop");
    assert_eq!(n, 0, "daemon closed the idle connection");
    assert_eq!(counter(&registry, "serve.conn.idle_dropped"), 1);

    // Active clients are unaffected by the short timeout.
    let mut fresh = connect(&handle);
    let pong = roundtrip(&mut fresh, r#"{"id":7,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    handle.shutdown();
}

#[test]
fn binary_garbage_gets_errors_not_crashes() {
    let (mut handle, _registry) = start(|_| {});
    let mut stream = connect(&handle);

    // Newline-terminated garbage lines: each gets a 400, none kill the
    // daemon or the connection.
    for garbage in [
        "\u{7f}\u{1b}[31mnot json",
        "{\"id\": }",
        "[1,2,3]",
        "{\"endpoint\":42}",
    ] {
        let parsed = roundtrip(&mut stream, garbage);
        assert_eq!(
            parsed.get("code").and_then(Value::as_u64),
            Some(u64::from(code::BAD_REQUEST))
        );
    }
    // The same connection still serves real requests afterwards.
    let pong = roundtrip(&mut stream, r#"{"id":3,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    handle.shutdown();
}

#[test]
fn half_line_then_eof_is_harmless() {
    let (mut handle, _registry) = start(|_| {});
    {
        let mut stream = connect(&handle);
        stream
            .write_all(b"{\"id\":1,\"endpoint\":\"pi")
            .expect("write torn frame");
        // Drop without the newline: the daemon sees EOF mid-line.
    }
    let mut fresh = connect(&handle);
    let pong = roundtrip(&mut fresh, r#"{"id":9,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    handle.shutdown();
}

/// A frame dribbled in one byte at a time still parses and answers.
#[test]
fn frame_dribbled_one_byte_at_a_time_is_answered() {
    let (mut handle, _registry) = start(|_| {});
    let mut stream = connect(&handle);
    stream.set_nodelay(true).expect("nodelay");
    for byte in echo_line(9, "dribble").as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
        stream.flush().expect("flush");
    }
    let answers = answers_by_id(&stream, 1);
    assert_eq!(answers.get(&9).and_then(echo_payload), Some("dribble"));
    handle.shutdown();
}

/// Many frames batched into a single socket write all get answered, each
/// with its own payload.
#[test]
fn frames_batched_in_one_write_all_answer() {
    let (mut handle, _registry) = start(|c| c.queue_depth = 64);
    let mut stream = connect(&handle);
    let batch: String = (1..=20u64)
        .map(|id| echo_line(id, &format!("p{id}")))
        .collect();
    stream.write_all(batch.as_bytes()).expect("write batch");
    let answers = answers_by_id(&stream, 20);
    for id in 1..=20u64 {
        let answer = answers.get(&id).expect("every frame answered");
        assert_eq!(echo_payload(answer), Some(format!("p{id}").as_str()));
    }
    handle.shutdown();
}

/// Interleaved pipelined clients each get exactly their own answers.
#[test]
fn interleaved_clients_never_cross_responses() {
    // Room for every frame in flight, so nothing is shed.
    let (mut handle, _registry) = start(|c| c.queue_depth = 128);
    let mut clients: Vec<TcpStream> = (0..8).map(|_| connect(&handle)).collect();
    // Interleave: every client sends frame k before any client sends k+1.
    for round in 0..10u64 {
        for (c, client) in clients.iter_mut().enumerate() {
            let id = round * 100 + c as u64;
            client
                .write_all(echo_line(id, &format!("c{c}r{round}")).as_bytes())
                .expect("write");
        }
    }
    for (c, client) in clients.iter().enumerate() {
        let answers = answers_by_id(client, 10);
        for round in 0..10u64 {
            let id = round * 100 + c as u64;
            let answer = answers
                .get(&id)
                .unwrap_or_else(|| panic!("client {c} missing id {id}: {answers:?}"));
            assert_eq!(
                echo_payload(answer),
                Some(format!("c{c}r{round}").as_str()),
                "client {c} got someone else's answer in round {round}"
            );
        }
    }
    handle.shutdown();
}

/// Feeds `payload` to a scanner in the given chunk sizes and collects
/// every complete frame it reports, and whether it hit the size cap.
fn scan_chunked(payload: &[u8], chunks: &[usize], max_frame: usize) -> (Vec<Vec<u8>>, bool) {
    let mut scanner = FrameScanner::new(max_frame);
    let mut frames = Vec::new();
    let mut offset = 0;
    let mut chunk_sizes = chunks.iter().copied().cycle();
    while offset < payload.len() {
        let take = chunk_sizes
            .next()
            .unwrap_or(1)
            .max(1)
            .min(payload.len() - offset);
        scanner.extend(&payload[offset..offset + take]);
        offset += take;
        loop {
            match scanner.next_frame() {
                Scan::Frame(range) => frames.push(scanner.bytes()[range].to_vec()),
                Scan::Incomplete => break,
                Scan::Oversized => return (frames, true),
            }
        }
    }
    (frames, false)
}

/// Maps byte draws onto newline-free, JSON-ish printable bytes.
fn frame_bytes(picks: &[usize]) -> Vec<u8> {
    const ALPHABET: &[u8; 16] = b"az{}[]\"0123456:,";
    picks.iter().map(|&i| ALPHABET[i % 16]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever way a legal frame stream is split across reads, the
    /// scanner reassembles exactly the original frames, in order.
    #[test]
    fn any_chunking_reassembles_the_same_frames(
        frame_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 0..40),
            1..12,
        ),
        chunks in proptest::collection::vec(1usize..17, 1..8),
    ) {
        let frames: Vec<Vec<u8>> = frame_picks.iter().map(|p| frame_bytes(p)).collect();
        let mut payload = Vec::new();
        for frame in &frames {
            payload.extend_from_slice(frame);
            payload.push(b'\n');
        }
        let (scanned, oversized) = scan_chunked(&payload, &chunks, 64);
        prop_assert!(!oversized, "legal frames must never report oversize");
        prop_assert_eq!(scanned, frames);
    }

    /// A line beyond the cap poisons the scanner at whatever chunking,
    /// and every frame before it is still delivered intact.
    #[test]
    fn oversize_poisons_under_any_chunking(
        prefix_picks in proptest::collection::vec(0usize..16, 0..16),
        chunks in proptest::collection::vec(1usize..13, 1..6),
    ) {
        let prefix = frame_bytes(&prefix_picks);
        let mut payload = prefix.clone();
        payload.push(b'\n');
        payload.extend_from_slice(&[b'x'; 40]); // over the 32-byte cap
        payload.push(b'\n');
        let (scanned, oversized) = scan_chunked(&payload, &chunks, 32);
        prop_assert!(oversized);
        prop_assert_eq!(scanned, vec![prefix]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The protocol parser must never panic, whatever bytes a client
    /// sends as a line.
    #[test]
    fn request_frame_parse_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&garbage);
        let _ = serde_json::from_str::<RequestFrame>(&text);
    }

    /// JSON-ish garbage (balanced-looking but wrong shapes) also parses
    /// or errors — never panics — and `id` extraction stays safe.
    #[test]
    fn shaped_garbage_never_panics(
        picks in proptest::collection::vec(0usize..16, 0..64),
        id in any::<u64>(),
    ) {
        let endpoint = String::from_utf8(frame_bytes(&picks)).expect("ASCII alphabet");
        let line = format!("{{\"id\":{id},\"endpoint\":\"{endpoint}\",\"body\":{{}}}}");
        let _ = serde_json::from_str::<RequestFrame>(&line);
    }
}

/// A dedicated end-to-end garbage fuzz over a live socket, bounded to a
/// few dozen cases to keep the suite fast: every line is answered or the
/// connection closed, and the daemon survives to serve a real request.
#[test]
fn live_socket_survives_random_garbage() {
    let (mut handle, _registry) = start(|c| c.max_frame_bytes = 4096);
    let mut seed = 0x5EEDu64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed
    };
    for _ in 0..32 {
        let mut stream = connect(&handle);
        let len = (next() % 2048) as usize;
        let mut line: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
        // Strip embedded newlines so this is one frame, then terminate.
        line.retain(|b| *b != b'\n');
        line.push(b'\n');
        // Fire and forget: the property is "no hang, no crash", proven
        // by the healthy roundtrip below.
        let _ = stream.write_all(&line);
        drop(stream);
    }
    let mut fresh = connect(&handle);
    let pong = roundtrip(&mut fresh, r#"{"id":1,"endpoint":"ping","body":{}}"#);
    assert_eq!(pong_flag(&pong), Some(true));
    handle.shutdown();
}
