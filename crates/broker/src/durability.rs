//! Broker-side durability wiring: what goes into the journal and the
//! snapshot, and what a recovery reports.
//!
//! The byte-level machinery (record codec, append-only file, atomic
//! snapshots, disk-fault injection) lives in `uptime-durability`; this
//! module defines the broker's persistent payloads and the
//! [`RecoveryReport`] surfaced by `brokerctl recover`. The orchestration
//! (write-ahead hook on the absorb path, replay through the quarantine
//! pipeline, epoch-floor restoration) is implemented on `BrokerService`
//! in `service.rs`, where the locks live.

use std::path::PathBuf;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use uptime_catalog::{CatalogStore, CloudId, ComponentKind};
use uptime_durability::{FsyncPolicy, Journal, SnapshotStore};

use uptime_catalog::ReliabilityRecord;

use crate::service::Incident;
use crate::telemetry::EstimatedParameters;

/// Version stamped into every journal record payload.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// Version stamped into every snapshot payload.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Default absorbs between automatic snapshots.
///
/// Snapshots are purely a replay accelerator — the journal alone fully
/// recovers — and replaying a distilled entry costs single-digit
/// microseconds, so even this cadence bounds recovery's replay phase to
/// a couple of milliseconds. Taking one is the expensive part (a full
/// catalog serialize plus two atomic file writes on the absorb path),
/// which is why the default is generous rather than eager.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// How a [`crate::BrokerService`] persists its state.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding journal, snapshot, and manifest.
    pub state_dir: PathBuf,
    /// When journal appends fsync (default: [`FsyncPolicy::Os`] — the
    /// page cache survives process crashes, the threat model here).
    pub fsync: FsyncPolicy,
    /// Absorbs between automatic snapshots; `0` disables automatic
    /// snapshotting (the journal alone still fully recovers).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Config with default fsync policy and snapshot cadence.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            state_dir: state_dir.into(),
            fsync: FsyncPolicy::Os,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }

    /// Overrides the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> DurabilityConfig {
        self.fsync = fsync;
        self
    }

    /// Overrides the snapshot cadence (`0` = never snapshot).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> DurabilityConfig {
        self.snapshot_every = every;
        self
    }
}

/// One journal record: the *distilled* absorb, written *before* it
/// commits. The entry carries what the catalog actually changes by — the
/// merged estimate (for the replay-time plausibility gate) and the merged
/// reliability record (the exact value absorbed) — not the raw telemetry
/// trace. A trace is ~13 KB of JSON and costs more to serialize than the
/// whole absorb; the distilled entry is ~200 bytes, keeping write-ahead
/// cost at a few percent of the absorb path. Replay is bit-identical by
/// construction: every f64 round-trips exactly through the shortest-
/// round-trip JSON formatting, so re-absorbing `record` reproduces the
/// post-crash catalog to the bit.
///
/// Both fields are required: the live path folds per-cluster estimates in
/// a different order for the record (`to_reliability_record` then merge)
/// than for the estimate (merge then distill), so neither is derivable
/// from the other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Record format version ([`JOURNAL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The cloud the batch was harvested from.
    pub cloud: CloudId,
    /// The component tier the batch describes.
    pub kind: ComponentKind,
    /// The telemetry epoch the absorb will produce. Recovery raises the
    /// epoch floor to the last entry's value so serving caches keyed on
    /// pre-crash epochs can never validate against a recovered broker.
    pub epoch_after: u64,
    /// The merged estimate the batch produced — replayed through the
    /// plausibility gate exactly as the live batch was.
    pub estimate: EstimatedParameters,
    /// The merged reliability record the absorb committed to the catalog.
    pub record: ReliabilityRecord,
}

/// The snapshot payload: everything `BrokerService` needs to come back
/// without replaying the whole journal. Provider registrations are *not*
/// here — providers are live objects re-registered at startup; breaker
/// state deliberately starts fresh (a restarted broker re-probes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistentState {
    /// Snapshot format version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Telemetry epoch at capture time.
    pub epoch: u64,
    /// Next incident sequence number (monotonic across evictions).
    pub incident_next_seq: u64,
    /// The retained incident-ring entries, oldest first.
    pub incidents: Vec<Incident>,
    /// The knowledge base.
    pub catalog: CatalogStore,
}

/// Where and why journal replay stopped early.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReportedTruncation {
    /// Byte offset of the first invalid record.
    pub offset: u64,
    /// Human-readable reason (torn header/payload, bad magic, …).
    pub reason: String,
}

/// What a recovery (or `recover --verify` dry run) did.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// The state directory recovered from.
    pub state_dir: String,
    /// Whether a valid snapshot accelerated the replay.
    pub snapshot_used: bool,
    /// Epoch restored from the snapshot (0 without one).
    pub snapshot_epoch: u64,
    /// Bytes of valid journal prefix.
    pub journal_bytes: u64,
    /// Valid records decoded from the journal.
    pub journal_records: u64,
    /// Records skipped because the snapshot already covers them.
    pub skipped_by_snapshot: u64,
    /// Records replayed through the ingest/quarantine pipeline.
    pub replayed: u64,
    /// Replayed records the pipeline rejected (quarantined on replay).
    pub quarantined: u64,
    /// Checksum-valid records whose payload failed to parse.
    pub malformed: u64,
    /// Set when the journal tail was torn or corrupt.
    pub truncation: Option<ReportedTruncation>,
    /// Whether the journal file was physically truncated to the valid
    /// prefix (`false` for `--verify` dry runs).
    pub repaired: bool,
    /// Telemetry epoch after recovery (≥ the pre-crash epoch of every
    /// surviving record).
    pub epoch: u64,
    /// Incident-log total after recovery.
    pub incident_count: u64,
}

/// Live durability endpoint owned by a `BrokerService`.
pub(crate) struct DurabilityState {
    /// Absorbs between automatic snapshots (0 = never).
    pub(crate) snapshot_every: u64,
    pub(crate) inner: Mutex<DurabilityInner>,
}

pub(crate) struct DurabilityInner {
    pub(crate) journal: Journal,
    pub(crate) store: SnapshotStore,
    /// Appends since the last snapshot, driving the cadence.
    pub(crate) absorbs_since_snapshot: u64,
}

impl std::fmt::Debug for DurabilityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityState")
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}
