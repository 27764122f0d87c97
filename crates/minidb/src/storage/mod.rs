//! Storage layer: in-memory tables behind a pluggable durability engine.
//!
//! The row/index substrate lives in `mem` (slotted rows, ordered + hash
//! secondary indexes). On top of it sits the `StorageEngine` trait — the
//! seam between the transactional facade (`db.rs`) and durability:
//!
//! * `VolatileEngine` (the default) persists nothing. Every existing test
//!   and benchmark stays hermetic and exactly as fast as before.
//! * `wal::DurableEngine` appends logical redo records (`wal::WalRecord`)
//!   to a write-ahead log in length-prefixed, CRC-checksummed frames,
//!   fsyncs according to [`FsyncPolicy`], and periodically compacts the
//!   whole state into a `snapshot`, truncating the log. A snapshot is one
//!   committed `Begin … Commit` group of the same records, so `wal` holds
//!   the only codec for durable state.
//!
//! Commit is the atomic durability point: the facade stages redo records
//! per statement and hands them to `StorageEngine::commit_txn` only when
//! the transaction commits, so a rollback — or a crash before commit —
//! leaves no trace after replay. Once a group is durable, a failed
//! automatic checkpoint does not fail its commit: the WAL still holds it.
//! Recovery (`DurableEngine::open`) loads the newest snapshot whole or
//! refuses it, replays the WAL tail, and tolerates a torn final frame by
//! dropping it (never panicking).

pub(crate) mod mem;
pub(crate) mod snapshot;
pub mod wal;

pub(crate) use mem::{canonical_key, DataMap, HashedKey, IndexData, IndexKind, RowId, TableData};
pub use wal::FsyncPolicy;
pub(crate) use wal::{DurableEngine, WalRecord};

use crate::error::DbResult;
use crate::exec::DbState;
use crate::privilege::PrivilegeCatalog;
use std::path::PathBuf;

/// Where and how a durable engine persists committed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the WAL (`wal.log`) and snapshot (`snapshot.db`).
    /// Created on open if absent.
    pub dir: PathBuf,
    /// When the WAL is fsynced.
    pub fsync_policy: FsyncPolicy,
    /// Compact into a snapshot (and truncate the WAL) every N committed
    /// transactions. `0` disables automatic snapshots; explicit
    /// [`crate::Database::checkpoint`] calls still work.
    pub snapshot_every: usize,
}

impl DurabilityConfig {
    /// Config with the default policy: fsync on every commit, snapshot
    /// every 256 commits.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync_policy: FsyncPolicy::default(),
            snapshot_every: 256,
        }
    }

    /// Builder-style fsync policy override.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }

    /// Builder-style snapshot cadence override.
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }
}

/// What recovery found and did when a durable engine reopened its directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file was present and loaded.
    pub snapshot_loaded: bool,
    /// Highest transaction id covered by the snapshot (0 if none).
    pub(crate) snapshot_txn: u64,
    /// Committed transactions replayed from the WAL tail.
    pub replayed_txns: u64,
    /// Individual redo records applied during replay.
    pub(crate) replayed_records: u64,
    /// Bytes of torn/corrupt WAL tail dropped (and truncated away).
    pub dropped_bytes: u64,
    /// Valid WAL bytes scanned.
    pub wal_bytes: u64,
}

impl RecoveryReport {
    /// One-line human-readable summary (printed by `serve --data-dir`).
    pub fn render(&self) -> String {
        format!(
            "recovery: snapshot={} (txn {}), replayed {} txn(s) / {} record(s) \
             from {} WAL byte(s), dropped {} torn byte(s)",
            if self.snapshot_loaded {
                "loaded"
            } else {
                "none"
            },
            self.snapshot_txn,
            self.replayed_txns,
            self.replayed_records,
            self.wal_bytes,
            self.dropped_bytes,
        )
    }
}

/// The seam between the transactional facade and durability. Implementations
/// are called under the database's write lock, after in-memory state already
/// reflects the transaction, so they never see torn in-memory state.
pub(crate) trait StorageEngine: Send + Sync {
    /// Engine label for diagnostics ("volatile" / "wal").
    fn name(&self) -> &'static str;

    /// Whether commits survive a process restart.
    fn is_durable(&self) -> bool {
        false
    }

    /// Durably record one committed transaction. `state`/`privileges` are
    /// the post-commit images (used for automatic snapshot compaction,
    /// whose failure is counted, not returned). An error means the commit
    /// is NOT durable; the caller must roll the in-memory effects back
    /// before surfacing it.
    fn commit_txn(
        &mut self,
        records: &[WalRecord],
        state: &DbState,
        privileges: &PrivilegeCatalog,
    ) -> DbResult<()>;

    /// Force durability of everything committed so far.
    fn flush(&mut self) -> DbResult<()>;

    /// Compact: write a snapshot of the full state and truncate the WAL.
    fn checkpoint(&mut self, state: &DbState, privileges: &PrivilegeCatalog) -> DbResult<()>;

    /// WAL bytes appended since the last checkpoint (0 for engines without
    /// a log). A telemetry gauge reads this; it resets on checkpoint.
    fn wal_bytes_since_checkpoint(&self) -> u64 {
        0
    }
}

/// The default engine: in-memory only, nothing persists. Keeps every
/// hermetic test and benchmark free of filesystem traffic.
#[derive(Debug, Default)]
pub(crate) struct VolatileEngine;

impl StorageEngine for VolatileEngine {
    fn name(&self) -> &'static str {
        "volatile"
    }

    fn commit_txn(
        &mut self,
        _records: &[WalRecord],
        _state: &DbState,
        _privileges: &PrivilegeCatalog,
    ) -> DbResult<()> {
        Ok(())
    }

    fn flush(&mut self) -> DbResult<()> {
        Ok(())
    }

    fn checkpoint(&mut self, _state: &DbState, _privileges: &PrivilegeCatalog) -> DbResult<()> {
        Ok(())
    }
}

/// Baseline contents of a brand-new database: empty state plus the `admin`
/// superuser. Shared by `Database::new` and durable recovery so a fresh
/// directory and a fresh in-memory database are indistinguishable.
pub(crate) fn baseline() -> (DbState, PrivilegeCatalog) {
    let mut privileges = PrivilegeCatalog::new();
    privileges
        .create_user("admin", true)
        .expect("fresh catalog accepts admin");
    (DbState::default(), privileges)
}
