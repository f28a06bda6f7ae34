//! The crash-only contract, end to end: a `brokerctl serve --state-dir`
//! daemon is SIGKILLed mid-stream, its state directory is mangled by a
//! seeded disk fault, and a restarted daemon must answer recommend,
//! epoch and incident queries **bit-identically** to an uninterrupted
//! in-process reference broker driven through the same surviving
//! telemetry — for every fault in the `DiskChaos` repertoire (seeds
//! 0–4: clean stop, torn tail, short write, bit flip, missing
//! snapshot).
//!
//! Also pins the on-disk contracts: every record payload in a real
//! journal and the snapshot manifest must validate against the
//! checked-in JSON schemas.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use serde::Value;
use uptime_broker::{
    BrokerService, CloudProvider, DurabilityConfig, ServingBroker, SimulatedProvider,
    SolutionRequest,
};
use uptime_catalog::{case_study, CatalogStore, CloudId, ComponentKind};
use uptime_durability::{decode_all, DiskChaos, StateDir};
use uptime_serve::ServeBackend;

/// Awaited sync rounds before the kill; one more is fired un-awaited.
const ROUNDS: u64 = 3;

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("uptime-recovery-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn case_study_request() -> SolutionRequest {
    SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)
        .expect("valid SLA")
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)
        .expect("valid penalty")
        .build()
        .expect("valid request")
}

/// Mirrors `brokerctl`'s provider registration: one clean simulated
/// provider per catalog cloud, ground truth from the catalog's own
/// records. Returns each cloud's observed component kinds in catalog
/// order — the daemon's sync targets.
fn register_providers(
    broker: &BrokerService,
    store: &CatalogStore,
) -> Vec<(CloudId, Vec<ComponentKind>)> {
    let mut targets = Vec::new();
    for (provider, kinds) in SimulatedProvider::for_catalog(store) {
        targets.push((provider.id().clone(), kinds));
        broker.register_provider(Box::new(provider));
    }
    targets
}

/// The per-round seed the test sends in each sync frame's body.
fn round_seed(fault_seed: u64, round: u64) -> u64 {
    90_000 + fault_seed * 101 + round * 7919
}

/// The flattened `sync_telemetry` call plan a daemon executes when fed
/// [`ROUNDS`]`+1` sync frames — one `(cloud, kind, seed)` per epoch
/// bump, in exact order (mirrors `ServingBroker::sync_body`).
fn sync_plan(
    targets: &[(CloudId, Vec<ComponentKind>)],
    fault_seed: u64,
) -> Vec<(CloudId, ComponentKind, u64)> {
    let mut plan = Vec::new();
    for round in 0..=ROUNDS {
        let seed = round_seed(fault_seed, round);
        for (cloud, kinds) in targets {
            for (k, kind) in kinds.iter().enumerate() {
                plan.push((cloud.clone(), *kind, seed.wrapping_add(k as u64 * 31)));
            }
        }
    }
    plan
}

struct Daemon {
    child: Child,
    addr: String,
    // Kept open so the daemon's prints never hit a closed pipe.
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_daemon(state_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_brokerctl"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            state_dir.to_str().expect("utf-8 path"),
            "--snapshot-every",
            "5",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut addr = None;
    for _ in 0..32 {
        let mut line = String::new();
        if stdout.read_line(&mut line).expect("daemon stdout") == 0 {
            break;
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = Some(rest.split_whitespace().next().expect("addr").to_owned());
            break;
        }
    }
    Daemon {
        child,
        addr: addr.expect("daemon printed its listen address"),
        stdout,
    }
}

impl Daemon {
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("client read timeout");
        stream
    }

    fn shutdown(mut self) {
        let mut stream = self.connect();
        let _ = rpc(&mut stream, r#"{"id":99,"endpoint":"shutdown","body":{}}"#);
        let _ = self.child.wait();
        // Drain any farewell prints.
        let mut rest = String::new();
        use std::io::Read;
        let _ = self.stdout.read_to_string(&mut rest);
    }
}

fn rpc(stream: &mut TcpStream, line: &str) -> Value {
    stream.write_all(line.as_bytes()).expect("write frame");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    serde_json::from_str(&response).expect("response parses")
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("missing key `{key}` in {value}"))
}

/// One full kill-mangle-recover cycle under the given disk-fault seed.
fn kill_and_recover_under_fault(fault_seed: u64) {
    let dir = scratch_dir(&format!("fault{fault_seed}"));
    let store = case_study::catalog();

    // Phase 1: a durable daemon absorbs telemetry, then dies by SIGKILL
    // with one sync still in flight.
    let daemon = spawn_daemon(&dir);
    let mut stream = daemon.connect();
    for round in 0..ROUNDS {
        let frame = format!(
            r#"{{"id":{round},"endpoint":"sync","body":{{"seed":{}}}}}"#,
            round_seed(fault_seed, round)
        );
        let response = rpc(&mut stream, &frame);
        assert_eq!(
            get(get(&response, "body"), "rejected").as_u64(),
            Some(0),
            "clean providers never reject"
        );
    }
    let in_flight = format!(
        r#"{{"id":{ROUNDS},"endpoint":"sync","body":{{"seed":{}}}}}"#,
        round_seed(fault_seed, ROUNDS)
    );
    stream.write_all(in_flight.as_bytes()).expect("write frame");
    stream.write_all(b"\n").expect("write newline");
    std::thread::sleep(Duration::from_millis(30));
    let mut child = daemon.child;
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();
    drop(stream);

    // Phase 2: mangle the state directory with the seeded disk fault.
    let state_dir = StateDir::create(&dir).expect("state dir exists");
    let fault = DiskChaos::new(fault_seed)
        .mangle(&state_dir)
        .expect("mangle");

    // Phase 3: a dry-run recovery discovers what survived — without
    // touching the files the restarted daemon will read.
    let probe = BrokerService::new(store.clone());
    let report = probe.verify_recovery(&dir).expect("verify recovery");
    assert!(
        !report.repaired,
        "--verify-style dry run leaves the journal alone"
    );
    let survivors = report.epoch;
    let expected_incidents = u64::from(report.truncation.is_some());

    // Phase 4: the uninterrupted reference — same catalog, same
    // providers, driven through exactly the surviving call prefix.
    let reference = BrokerService::new(store.clone());
    let targets = register_providers(&reference, &store);
    let plan = sync_plan(&targets, fault_seed);
    assert!(
        (survivors as usize) <= plan.len(),
        "recovered epoch {survivors} cannot exceed the {} calls driven",
        plan.len()
    );
    for (cloud, kind, seed) in plan.iter().take(survivors as usize) {
        reference
            .sync_telemetry(cloud, *kind, 20, 5.0, *seed)
            .expect("clean sync absorbs");
    }
    assert_eq!(reference.telemetry_epoch(), survivors);
    let request_body = serde_json::to_value(&case_study_request());
    let ref_backend = ServingBroker::new(Arc::new(reference));
    let ref_recommendation = ref_backend
        .handle("recommend", &request_body)
        .expect("reference recommend");

    // Phase 5: restart the real daemon from the mangled directory and
    // compare every externally observable answer bit for bit.
    let daemon = spawn_daemon(&dir);
    let mut stream = daemon.connect();
    let health = rpc(&mut stream, r#"{"id":1,"endpoint":"health","body":{}}"#);
    let health_body = get(&health, "body");
    assert_eq!(
        get(health_body, "epoch").as_u64(),
        Some(survivors),
        "fault {fault} (seed {fault_seed}): epoch must match the reference"
    );
    assert_eq!(
        get(get(health_body, "health"), "incident_count").as_u64(),
        Some(expected_incidents),
        "fault {fault} (seed {fault_seed}): exactly one JournalTruncated incident per torn tail"
    );

    let recommend_frame = format!(
        r#"{{"id":2,"endpoint":"recommend","body":{}}}"#,
        serde_json::to_string(&request_body).expect("request serializes")
    );
    let recommend = rpc(&mut stream, &recommend_frame);
    assert_eq!(
        get(&recommend, "code").as_u64(),
        Some(200),
        "fault {fault} (seed {fault_seed}): recovered daemon recommends"
    );
    assert_eq!(
        get(&recommend, "body"),
        &ref_recommendation,
        "fault {fault} (seed {fault_seed}): recommendation must be bit-identical"
    );
    assert_eq!(
        get(&recommend, "epoch").as_u64(),
        Some(survivors),
        "fault {fault} (seed {fault_seed}): answer computed under the recovered epoch"
    );

    drop(stream);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_recover_is_bit_identical_across_disk_faults() {
    // Seeds 0–4 cover the whole DiskChaos fault repertoire.
    for fault_seed in 0..5 {
        kill_and_recover_under_fault(fault_seed);
    }
}

/// Every payload in a real journal written by a durable broker must
/// validate against `schemas/journal_record.schema.json`, and the
/// snapshot manifest against `schemas/snapshot_manifest.schema.json`.
#[test]
fn journal_and_manifest_match_checked_in_schemas() {
    let dir = scratch_dir("schemas");
    let store = case_study::catalog();
    let (broker, _) = BrokerService::new(store.clone())
        .with_durability(DurabilityConfig::new(&dir))
        .expect("durability attaches");
    let targets = register_providers(&broker, &store);
    for (cloud, kinds) in &targets {
        for (k, kind) in kinds.iter().enumerate() {
            broker
                .sync_telemetry(cloud, *kind, 20, 5.0, 4242 + k as u64)
                .expect("clean sync absorbs");
        }
    }
    broker.snapshot_now().expect("snapshot persists");

    let load_schema = |name: &str| -> Value {
        let path = format!("{}/../../schemas/{name}", env!("CARGO_MANIFEST_DIR"));
        serde_json::from_str(&std::fs::read_to_string(path).expect("schema file readable"))
            .expect("schema is valid JSON")
    };

    let record_schema = load_schema("journal_record.schema.json");
    let journal = std::fs::read(dir.join("journal.log")).expect("journal readable");
    let decoded = decode_all(&journal);
    assert!(decoded.truncation.is_none(), "live journal is whole");
    assert!(!decoded.payloads.is_empty(), "journal has records");
    for payload in &decoded.payloads {
        let entry: Value = serde_json::from_slice(payload).expect("payload is JSON");
        uptime_serve::schema::assert_valid(&entry, &record_schema);
    }

    let manifest_schema = load_schema("snapshot_manifest.schema.json");
    let manifest: Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("snapshot.manifest")).expect("manifest readable"),
    )
    .expect("manifest is JSON");
    uptime_serve::schema::assert_valid(&manifest, &manifest_schema);

    let _ = std::fs::remove_dir_all(&dir);
}
