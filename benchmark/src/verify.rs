//! Output verification: the daemon's answers compared, as JSON values,
//! with what the same public broker functions return in-process.

use std::io;
use std::net::SocketAddr;
use std::path::Path;

use serde::Value;
use uptime_broker::{BrokerService, FrontierRequest, SolutionRequest};
use uptime_catalog::case_study;

use crate::daemon::round_trip;
use crate::load::{parse_answer, Checks};
use crate::workload::{pool_bodies, Kind};

/// A broker fronting the catalog the daemon starts from.
pub struct Oracle {
    service: BrokerService,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            service: BrokerService::new(case_study::catalog()),
        }
    }

    /// `to_value(recommend)` or `to_value(solve_slo)` for the request.
    fn expected(&self, kind: Kind, body: &str) -> Result<Value, String> {
        let body: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
        match kind {
            Kind::Frontier => {
                let request: FrontierRequest =
                    serde_json::from_value(&body).map_err(|e| e.to_string())?;
                let report = self
                    .service
                    .solve_slo(&request)
                    .map_err(|e| e.to_string())?;
                Ok(serde_json::to_value(&report))
            }
            Kind::Pool(_) | Kind::Serial | Kind::Archetype => {
                let request: SolutionRequest =
                    serde_json::from_value(&body).map_err(|e| e.to_string())?;
                let answer = self
                    .service
                    .recommend(&request)
                    .map_err(|e| e.to_string())?;
                Ok(serde_json::to_value(&answer))
            }
            Kind::Sync => Err("sync answers are not checked".to_owned()),
        }
    }

    fn matches(&self, kind: Kind, request: &str, answer: &[u8]) -> bool {
        let Ok(expected) = self.expected(kind, request) else {
            return false;
        };
        std::str::from_utf8(answer)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(text).ok())
            .is_some_and(|got| got == expected)
    }
}

/// How many of the answers `checks` kept differ from the oracle's.
pub fn mismatches(checks: &Checks) -> u64 {
    let oracle = Oracle::new();
    let pool = pool_bodies();
    let pool_bad = checks
        .pool_answers()
        .filter(|&(index, answer)| !oracle.matches(Kind::Pool(index), &pool[index], answer))
        .count();
    let sample_bad = checks
        .samples
        .iter()
        .filter(|s| !oracle.matches(s.kind, &s.request, &s.answer))
        .count();
    (pool_bad + sample_bad) as u64
}

/// The daemon's current answer to every hot-pool request.
pub fn pool_answers(addr: SocketAddr) -> io::Result<Vec<Vec<u8>>> {
    pool_bodies()
        .iter()
        .enumerate()
        .map(|(id, body)| {
            let line = round_trip(
                addr,
                &format!("{{\"v\":1,\"id\":{id},\"endpoint\":\"recommend\",\"body\":{body}}}\n"),
            )?;
            let answer = parse_answer(line.trim_end().as_bytes())?;
            Ok(answer.body.map(|b| b.into_owned()).unwrap_or_default())
        })
        .collect()
}

/// Compares the stopped daemon's last hot-pool answers with a broker
/// recovered from a copy of its state directory (copied into `copy`).
/// Returns the mismatch count.
pub fn recovered_mismatches(answers: &[Vec<u8>], state_dir: &Path, copy: &Path) -> io::Result<u64> {
    std::fs::create_dir_all(copy)?;
    for entry in std::fs::read_dir(state_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
    }
    let oracle = Oracle::new();
    oracle
        .service
        .verify_recovery(copy)
        .map_err(|e| io::Error::other(format!("recovery of the copied state failed: {e}")))?;
    let pool = pool_bodies();
    Ok(answers
        .iter()
        .enumerate()
        .filter(|&(index, answer)| !oracle.matches(Kind::Pool(index), &pool[index], answer))
        .count() as u64)
}
