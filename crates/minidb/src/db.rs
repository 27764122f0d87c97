//! The database facade and per-user sessions, under MVCC snapshot isolation.
//!
//! [`Database`] publishes an immutable [`CommittedVersion`] behind a
//! pointer-swap `RwLock`; readers clone the `Arc` and execute lock-free
//! against a consistent snapshot — they never block writers and never see a
//! torn state. Writers execute on a private copy-on-write workspace and
//! commit through a single commit lock: the commit timestamp is assigned
//! there, immediately before the WAL group append, so version order and
//! durability order agree. Conflicting concurrent writers lose with a typed
//! [`DbError::SerializationConflict`] (first writer wins); autocommit
//! statements retry internally, explicit transactions surface the error for
//! the caller (an agent, via the `ToolError` mapping) to retry. A vacuum —
//! inline per commit, or a background thread via
//! [`Database::start_vacuum`] — trims retained history older than the
//! oldest active snapshot.

use crate::error::{DbError, DbResult};
use crate::exec::{self, DbState, QueryResult};
use crate::mvcc::{self, CommittedVersion, TimestampOracle, Ts};
use crate::plan::ExecOptions;
use crate::planner::{self, physical::PhysPlan};
use crate::privilege::PrivilegeCatalog;
use crate::schema::TableSchema;
use crate::storage::{
    self, DurabilityConfig, DurableEngine, RecoveryReport, StorageEngine, VolatileEngine, WalRecord,
};
use crate::sync::{Mutex, RwLock};
use crate::txn::{self, CommitPipeline, TxnStatus, UndoOp};
use crate::value::Value;
use obs::Obs;
use sqlkit::ast::{Action, Statement};
use sqlkit::parse_statement;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default bound on the retained-version history buffer.
const DEFAULT_RETAIN_CAP: usize = 32;

/// How many times an autocommit statement re-executes after losing a
/// first-writer-wins race before surfacing the conflict. Each commit admits
/// exactly one winner, so a loser makes progress every round; this bound
/// only triggers under pathological sustained contention.
const AUTOCOMMIT_RETRIES: usize = 64;

struct Shared {
    /// Latest committed version. Readers clone the `Arc` (pointer bump) and
    /// go lock-free; the write guard is held only for the pointer swap.
    committed: RwLock<Arc<CommittedVersion>>,
    /// Serializes the commit protocol and owns the durability engine. The
    /// WAL group append under this lock is the single ordering point.
    commit: Mutex<Box<dyn StorageEngine>>,
    /// Global commit-timestamp allocator.
    oracle: TimestampOracle,
    /// Whether the engine persists commits (cached; engines never change).
    durable: bool,
    /// Begin timestamps of open explicit transactions (multiset). The
    /// minimum key is the vacuum horizon.
    active: Mutex<BTreeMap<Ts, usize>>,
    /// Recent committed versions, oldest first. Versions only leave through
    /// vacuum; snapshots held by readers stay alive via their own `Arc`s
    /// regardless, so trimming is always memory-safe.
    retained: Mutex<VecDeque<Arc<CommittedVersion>>>,
    /// Bound on `retained` length.
    retain_cap: AtomicUsize,
    /// Observability handle (`mvcc.*` counters, `txn:conflict` / `vacuum`
    /// spans). Swappable after construction via [`Database::attach_obs`].
    obs: RwLock<Obs>,
}

/// A shared in-memory database. Cloning shares the underlying versions.
#[derive(Clone)]
pub struct Database {
    shared: Arc<Shared>,
    next_session: Arc<AtomicU64>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

/// What one vacuum pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// Versions in the history buffer before the pass.
    pub examined: usize,
    /// Versions dropped from the buffer.
    pub reclaimed: usize,
    /// Versions still retained after the pass.
    pub retained: usize,
    /// Oldest active explicit-transaction snapshot (`None` = no open
    /// transactions; everything before the latest version is reclaimable).
    pub oldest_active: Option<Ts>,
}

impl Database {
    /// New empty database with a single superuser `admin`, backed by the
    /// volatile (in-memory-only) engine.
    pub fn new() -> Self {
        let (state, privileges) = storage::baseline();
        Self::from_parts(state, privileges, Box::new(VolatileEngine))
    }

    fn from_parts(
        state: DbState,
        privileges: PrivilegeCatalog,
        engine: Box<dyn StorageEngine>,
    ) -> Self {
        let version = Arc::new(CommittedVersion {
            ts: 1,
            state,
            privileges,
            clocks: BTreeMap::new(),
            catalog_ts: 0,
        });
        let durable = engine.is_durable();
        Database {
            shared: Arc::new(Shared {
                committed: RwLock::new(Arc::clone(&version)),
                commit: Mutex::new(engine),
                oracle: TimestampOracle::new(1),
                durable,
                active: Mutex::new(BTreeMap::new()),
                retained: Mutex::new(VecDeque::from([version])),
                retain_cap: AtomicUsize::new(DEFAULT_RETAIN_CAP),
                obs: RwLock::new(Obs::disabled()),
            }),
            next_session: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Open (or create) a durable database in `config.dir`: load the newest
    /// snapshot, replay the WAL tail (dropping a torn final frame), and
    /// return the recovered database plus a [`RecoveryReport`].
    pub fn open(config: &DurabilityConfig) -> DbResult<(Database, RecoveryReport)> {
        Self::open_observed(config, Obs::disabled())
    }

    /// [`Database::open`] with observability: recovery emits a
    /// `recovery:replay` span, the engine reports `wal.*` counters, and the
    /// MVCC layer reports `mvcc.*` counters and `txn:conflict` / `vacuum`
    /// spans through `obs`.
    pub fn open_observed(
        config: &DurabilityConfig,
        obs: Obs,
    ) -> DbResult<(Database, RecoveryReport)> {
        let (engine, state, privileges, report) = DurableEngine::open(config, obs.clone())?;
        let db = Self::from_parts(state, privileges, Box::new(engine));
        db.attach_obs(obs);
        Ok((db, report))
    }

    /// Route `mvcc.*` counters and conflict/vacuum spans into `obs`.
    pub fn attach_obs(&self, obs: Obs) {
        *self.shared.obs.write() = obs;
    }

    fn obs(&self) -> Obs {
        self.shared.obs.read().clone()
    }

    /// The latest committed version. This *is* a consistent snapshot:
    /// holding the `Arc` pins catalog, rows, and privileges exactly as the
    /// producing transaction left them.
    pub fn snapshot(&self) -> Arc<CommittedVersion> {
        self.shared.committed.read().clone()
    }

    /// The most recently assigned commit timestamp.
    pub fn last_commit_ts(&self) -> Ts {
        self.shared.oracle.last()
    }

    /// Monotonic generation counter for external caches: the timestamp of
    /// the latest *published* committed version. Every committed change —
    /// DML, DDL, and privilege changes alike ([`Database::grant`] and
    /// friends go through the same publish path) — bumps it, so a result
    /// computed at generation `g` is valid exactly while `generation()`
    /// still returns `g`.
    pub fn generation(&self) -> u64 {
        self.snapshot().ts
    }

    /// Monotonic counter of optimizer-statistics mutations in the latest
    /// committed version. `ANALYZE` bumps it; so does anything that drops
    /// stats (DROP TABLE, table rewrites).
    pub fn stats_generation(&self) -> u64 {
        self.snapshot().state.catalog.stats_epoch()
    }

    /// Generation for *plan* caches: changes whenever either the committed
    /// state or the optimizer statistics change. Both inputs are monotonic,
    /// so the sum is too — a cached physical plan is valid exactly while
    /// `plan_generation()` is unchanged.
    pub fn plan_generation(&self) -> u64 {
        let snap = self.snapshot();
        snap.ts.saturating_add(snap.state.catalog.stats_epoch())
    }

    /// Engine label: `"volatile"` or `"wal"`.
    pub fn engine_name(&self) -> &'static str {
        self.shared.commit.lock().name()
    }

    /// Whether commits survive a process restart.
    pub fn is_durable(&self) -> bool {
        self.shared.durable
    }

    /// Force durability of everything committed so far (fsync the WAL).
    pub fn flush_wal(&self) -> DbResult<()> {
        self.shared.commit.lock().flush()
    }

    /// Compact the full committed state into a snapshot and truncate the
    /// WAL. No-op on the volatile engine.
    pub fn checkpoint(&self) -> DbResult<()> {
        let mut engine = self.shared.commit.lock();
        let latest = self.snapshot();
        engine.checkpoint(&latest.state, &latest.privileges)
    }

    /// WAL bytes appended since the last checkpoint (0 on the volatile
    /// engine). Read by the `minidb.wal.bytes_since_checkpoint` gauge.
    pub fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.shared.commit.lock().wal_bytes_since_checkpoint()
    }

    /// Register live gauges for this database's MVCC and WAL internals on
    /// `obs`:
    ///
    /// * `minidb.mvcc.retained_versions` — history-buffer length,
    /// * `minidb.mvcc.oldest_snapshot_age` — commit timestamps between the
    ///   latest commit and the oldest open explicit transaction's snapshot
    ///   (0 when no transaction is open — nothing is held back), and
    /// * `minidb.wal.bytes_since_checkpoint` — un-compacted WAL volume.
    ///
    /// Call this once per served database (e.g. from the wire server), not
    /// per session. The samplers hold `Weak` references, so registering
    /// gauges never keeps the database alive: after the last `Database`
    /// clone drops, the samplers report 0.
    pub fn register_gauges(&self, obs: &Obs) {
        let weak = Arc::downgrade(&self.shared);
        obs.register_gauge("minidb.mvcc.retained_versions", &[], move || {
            weak.upgrade()
                .map(|s| s.retained.lock().len() as f64)
                .unwrap_or(0.0)
        });
        let weak = Arc::downgrade(&self.shared);
        obs.register_gauge("minidb.mvcc.oldest_snapshot_age", &[], move || {
            weak.upgrade()
                .map(|s| {
                    let oldest = s.active.lock().keys().next().copied();
                    match oldest {
                        Some(ts) => s.oracle.last().saturating_sub(ts) as f64,
                        None => 0.0,
                    }
                })
                .unwrap_or(0.0)
        });
        let weak = Arc::downgrade(&self.shared);
        obs.register_gauge("minidb.wal.bytes_since_checkpoint", &[], move || {
            weak.upgrade()
                .map(|s| s.commit.lock().wal_bytes_since_checkpoint() as f64)
                .unwrap_or(0.0)
        });
    }

    /// Deterministic digest of everything durability must preserve: schemas,
    /// rows (with their ids — replay reproduces id allocation exactly),
    /// views, users, and grants. Two databases with equal fingerprints are
    /// indistinguishable to every query; the crash-recovery harness compares
    /// a reopened database against a volatile reference with this.
    pub fn state_fingerprint(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for name in snap.state.catalog.table_names() {
            let schema = snap.state.catalog.table(name).expect("listed table");
            out.push_str(&format!("table {name} {schema:?}\n"));
            if let Some(data) = snap.state.data.get(name) {
                for (rid, row) in data.iter() {
                    out.push_str(&format!("row {name} {rid} {row:?}\n"));
                }
            }
        }
        for name in snap.state.catalog.view_names() {
            let def = snap.state.catalog.view(name).expect("listed view");
            out.push_str(&format!("view {name} {def:?}\n"));
        }
        for name in snap.state.catalog.analyzed_tables() {
            let stats = snap.state.catalog.table_stats(name).expect("listed stats");
            out.push_str(&format!("stats {name} {stats:?}\n"));
        }
        for name in snap.privileges.user_names() {
            let u = snap.privileges.user(name).expect("listed user");
            out.push_str(&format!(
                "user {name} superuser={} grants={:?}\n",
                u.superuser,
                u.grant_list()
            ));
        }
        out
    }

    /// Open a session for `user`.
    pub fn session(&self, user: &str) -> DbResult<Session> {
        if !self.snapshot().privileges.contains(user) {
            return Err(DbError::UnknownUser(user.to_owned()));
        }
        Ok(Session {
            db: self.clone(),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            user: user.to_owned(),
            txn: None,
            status: TxnStatus::Autocommit,
        })
    }

    // -- commit protocol ---------------------------------------------------

    /// Commit one write transaction: validate against everything committed
    /// since `base`, merge if needed, assign the commit timestamp, append
    /// to the WAL, and publish the new version. Returns the commit
    /// timestamp (or `base.ts` for an effect-free transaction).
    pub(crate) fn commit_write(
        &self,
        base: &Arc<CommittedVersion>,
        undo: &[UndoOp],
        records: Vec<WalRecord>,
        work: DbState,
    ) -> DbResult<Ts> {
        if undo.is_empty() {
            return Ok(base.ts); // nothing changed; nothing to publish
        }
        let obs = self.obs();
        let ws = mvcc::write_set(undo);
        let shared = &*self.shared;
        let mut engine = shared.commit.lock();
        let latest = shared.committed.read().clone();
        let fast = latest.ts == base.ts;
        let (state, privileges, final_records) = if fast {
            (work, latest.privileges.clone(), records)
        } else {
            let merged = mvcc::validate(&ws, base.ts, &latest)
                .and_then(|()| mvcc::merge(&latest, &ws, &records));
            match merged {
                Ok(m) => (m.state, m.privileges, m.records),
                Err(e) => {
                    if e.is_serialization_conflict() {
                        obs.incr("mvcc.conflicts", 1);
                        let mut span = obs.span("txn:conflict");
                        span.attr("error", e.to_string());
                    }
                    return Err(e);
                }
            }
        };
        let ts = shared.oracle.next();
        engine.commit_txn(&final_records, &state, &privileges)?;
        let (clocks, catalog_ts) = mvcc::stamped_clocks(&latest, &ws, &final_records, ts);
        let version = Arc::new(CommittedVersion {
            ts,
            state,
            privileges,
            clocks,
            catalog_ts,
        });
        *shared.committed.write() = Arc::clone(&version);
        drop(engine);
        self.retain_version(version);
        obs.incr("mvcc.commits", 1);
        obs.incr(
            if fast {
                "mvcc.fast_commits"
            } else {
                "mvcc.merged_commits"
            },
            1,
        );
        Ok(ts)
    }

    /// Commit a privilege-only change (always against the latest version;
    /// grants are non-transactional, as in the SQL path).
    fn commit_privilege_change(
        &self,
        records: Vec<WalRecord>,
        mutate: impl FnOnce(&mut PrivilegeCatalog) -> DbResult<()>,
    ) -> DbResult<()> {
        let shared = &*self.shared;
        let mut engine = shared.commit.lock();
        let latest = shared.committed.read().clone();
        let mut next = latest.privileges.clone();
        mutate(&mut next)?;
        engine.commit_txn(&records, &latest.state, &next)?;
        let ts = shared.oracle.next();
        let version = Arc::new(CommittedVersion {
            ts,
            state: latest.state.clone(),
            privileges: next,
            clocks: latest.clocks.clone(),
            catalog_ts: latest.catalog_ts,
        });
        *shared.committed.write() = Arc::clone(&version);
        drop(engine);
        self.retain_version(version);
        Ok(())
    }

    fn retain_version(&self, version: Arc<CommittedVersion>) {
        let cap = self.shared.retain_cap.load(Ordering::Relaxed).max(1);
        let mut retained = self.shared.retained.lock();
        retained.push_back(version);
        // Inline trim bounds the buffer even without a vacuum thread.
        while retained.len() > cap {
            retained.pop_front();
        }
    }

    // -- snapshot registry & vacuum ---------------------------------------

    fn register_active(&self, ts: Ts) {
        *self.shared.active.lock().entry(ts).or_insert(0) += 1;
    }

    fn unregister_active(&self, ts: Ts) {
        let mut active = self.shared.active.lock();
        if let Some(n) = active.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                active.remove(&ts);
            }
        }
    }

    /// Begin timestamp of the oldest open explicit transaction, if any.
    /// This is the vacuum horizon: versions older than it serve no open
    /// snapshot.
    pub fn oldest_active_snapshot(&self) -> Option<Ts> {
        self.shared.active.lock().keys().next().copied()
    }

    /// Number of versions currently in the history buffer.
    pub fn retained_versions(&self) -> usize {
        self.shared.retained.lock().len()
    }

    /// Bound the history buffer to `cap` versions (minimum 1: the latest
    /// version is always retained).
    pub fn set_retain_cap(&self, cap: usize) {
        self.shared.retain_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// Reclaim retained versions older than the oldest active snapshot
    /// (safety invariant: a version may be dropped from the buffer only if
    /// every snapshot that could read it is newer — open transactions pin
    /// their own version via `Arc`, so the buffer is never load-bearing for
    /// them, but the horizon keeps history inspectable while they run).
    pub fn vacuum(&self) -> VacuumReport {
        let obs = self.obs();
        let mut span = obs.span("vacuum");
        let oldest_active = self.oldest_active_snapshot();
        let cap = self.shared.retain_cap.load(Ordering::Relaxed).max(1);
        let mut retained = self.shared.retained.lock();
        let examined = retained.len();
        let latest_ts = retained.back().map_or(0, |v| v.ts);
        let horizon = oldest_active.unwrap_or(latest_ts);
        let mut reclaimed = 0usize;
        while retained.len() > 1 {
            let drop_front = match retained.front() {
                Some(v) => v.ts < horizon || retained.len() > cap,
                None => false,
            };
            if !drop_front {
                break;
            }
            retained.pop_front();
            reclaimed += 1;
        }
        let report = VacuumReport {
            examined,
            reclaimed,
            retained: retained.len(),
            oldest_active,
        };
        drop(retained);
        obs.incr("mvcc.vacuum.runs", 1);
        obs.incr("mvcc.vacuum.reclaimed", reclaimed as u64);
        span.attr("examined", examined as i64);
        span.attr("reclaimed", reclaimed as i64);
        report
    }

    /// Spawn a background vacuum thread running every `interval`. The
    /// returned handle stops (and joins) the thread when dropped.
    pub fn start_vacuum(&self, interval: Duration) -> VacuumHandle {
        let db = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("minidb-vacuum".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::park_timeout(interval);
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = db.vacuum();
                }
            })
            .expect("spawn vacuum thread");
        VacuumHandle {
            stop,
            thread: Some(thread),
        }
    }

    // -- administrative API ------------------------------------------------

    /// Create a user (administrative API).
    pub fn create_user(&self, name: &str, superuser: bool) -> DbResult<()> {
        self.commit_privilege_change(
            vec![WalRecord::CreateUser {
                name: name.to_owned(),
                superuser,
            }],
            |p| p.create_user(name, superuser),
        )
    }

    /// Grant an action on an object (administrative API).
    pub fn grant(&self, user: &str, action: Action, object: &str) -> DbResult<()> {
        self.commit_privilege_change(
            vec![WalRecord::Grant {
                user: user.to_owned(),
                action,
                object: object.to_owned(),
            }],
            |p| p.grant(user, action, object),
        )
    }

    /// Grant all data actions on an object.
    pub fn grant_all(&self, user: &str, object: &str) -> DbResult<()> {
        self.commit_privilege_change(
            vec![WalRecord::GrantAll {
                user: user.to_owned(),
                object: object.to_owned(),
            }],
            |p| p.grant_all(user, object),
        )
    }

    /// Revoke an action on an object.
    pub fn revoke(&self, user: &str, action: Action, object: &str) -> DbResult<()> {
        self.commit_privilege_change(
            vec![WalRecord::Revoke {
                user: user.to_owned(),
                action,
                object: object.to_owned(),
            }],
            |p| p.revoke(user, action, object),
        )
    }

    /// Snapshot of one user's privileges.
    pub fn privileges_of(&self, user: &str) -> DbResult<crate::privilege::UserPrivileges> {
        Ok(self.snapshot().privileges.user(user)?.clone())
    }

    // -- read-only introspection (all snapshot-based) ----------------------

    /// Table names currently in the catalog.
    pub fn table_names(&self) -> Vec<String> {
        self.snapshot()
            .state
            .catalog
            .table_names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// View definitions currently in the catalog, as `(name, columns)`.
    pub fn views(&self) -> Vec<(String, Vec<String>)> {
        let snap = self.snapshot();
        snap.state
            .catalog
            .view_names()
            .into_iter()
            .map(|n| {
                let def = snap.state.catalog.view(n).expect("listed view exists");
                (n.to_owned(), def.columns.clone())
            })
            .collect()
    }

    /// Snapshot a table schema.
    pub fn table_schema(&self, name: &str) -> DbResult<TableSchema> {
        Ok(self.snapshot().state.catalog.table(name)?.clone())
    }

    /// Number of *committed* rows in a table. An open transaction's
    /// uncommitted writes are invisible here (snapshot isolation).
    pub fn table_rows(&self, name: &str) -> DbResult<usize> {
        let snap = self.snapshot();
        snap.state.catalog.table(name)?;
        Ok(snap.state.data.get(name).map_or(0, |d| d.len()))
    }

    /// Distinct values of a column, in total order — the raw material for
    /// BridgeScope's `get_value` exemplar retrieval.
    pub fn column_values(&self, table: &str, column: &str) -> DbResult<Vec<Value>> {
        let snap = self.snapshot();
        let schema = snap.state.catalog.table(table)?;
        let pos = schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(format!("{table}.{column}")))?;
        let data = snap
            .state
            .data
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?;
        // Chunked distinct-scan: per-worker sets over contiguous row-order
        // chunks, merged in chunk order so the first occurrence of each
        // total-order-equal group (e.g. Int(1) vs Float(1.0)) wins, exactly
        // as in a sequential pass. A BTreeSet<Key> already iterates in
        // total order, so the merged set *is* the sorted result.
        let values: Vec<&Value> = data.iter().map(|(_, row)| &row[pos]).collect();
        let sets = exec::chunked(values, planner::workers_for(data.len()), |part| {
            Ok(part
                .into_iter()
                .filter(|v| !v.is_null())
                .map(|v| crate::value::Key(vec![v.clone()]))
                .collect::<std::collections::BTreeSet<_>>())
        })?;
        let mut merged = std::collections::BTreeSet::new();
        for set in sets {
            // `insert` keeps the existing (earlier-chunk) representative.
            for key in set {
                merged.insert(key);
            }
        }
        Ok(merged
            .into_iter()
            .map(|k| k.0.into_iter().next().expect("single-column key"))
            .collect())
    }

    /// Run a read-only closure over the latest committed state (test/bench
    /// support).
    pub fn with_state<R>(&self, f: impl FnOnce(&DbState) -> R) -> R {
        let snap = self.snapshot();
        f(&snap.state)
    }

    /// Deep-copy the database: an independent instance with identical
    /// catalog, data, and privileges. Benchmarks fork a pristine template
    /// per task run so write tasks cannot contaminate each other.
    pub fn fork(&self) -> Database {
        let snap = self.snapshot();
        // Forks are always volatile: benchmark forks of a durable template
        // must not contend for (or corrupt) the template's WAL directory.
        Database::from_parts(
            snap.state.clone(),
            snap.privileges.clone(),
            Box::new(VolatileEngine),
        )
    }
}

/// Handle to a background vacuum thread; stops and joins it on drop.
pub struct VacuumHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl VacuumHandle {
    /// Stop the vacuum thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for VacuumHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An open explicit transaction: the pinned snapshot plus the private
/// workspace it executes in.
struct OpenTxn {
    /// The snapshot this transaction reads (pinned for its lifetime).
    base: Arc<CommittedVersion>,
    /// Private copy-on-write workspace; never visible to other sessions.
    work: DbState,
    /// Undo log for statement-level atomicity and savepoints.
    undo: Vec<UndoOp>,
    /// Redo records staged in lockstep with `undo`; the merge path replays
    /// them, so they are staged even on the volatile engine.
    pipeline: CommitPipeline,
    /// Named savepoints: `(name, undo-log length, staged-record count)`.
    savepoints: Vec<(String, usize, usize)>,
}

/// A connection bound to one user, carrying transaction state.
pub struct Session {
    db: Database,
    id: u64,
    user: String,
    /// Open explicit transaction, if any. Kept through the `Aborted` state
    /// so ROLLBACK TO SAVEPOINT can recover the workspace.
    txn: Option<OpenTxn>,
    status: TxnStatus,
}

impl Session {
    /// The session's user name.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Stable session identifier (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current transaction status.
    pub fn txn_status(&self) -> TxnStatus {
        self.status
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.status != TxnStatus::Autocommit
    }

    /// Parse and execute one SQL statement as this session's user.
    pub fn execute_sql(&mut self, sql: &str) -> DbResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute(&stmt)
    }

    /// Execute a parsed statement.
    pub fn execute(&mut self, stmt: &Statement) -> DbResult<QueryResult> {
        match stmt {
            Statement::Begin => return self.begin(),
            Statement::Commit => return self.commit(),
            Statement::Rollback => return self.rollback(),
            Statement::Savepoint(name) => return self.savepoint(name),
            Statement::RollbackTo(name) => return self.rollback_to(name),
            Statement::Release(name) => return self.release(name),
            Statement::Select(_) => {
                return self
                    .query(stmt, &ExecOptions::default())
                    .map(|(result, _)| result)
            }
            _ => {}
        }
        let snap = self.authorize(stmt)?;
        if let Statement::GrantRevoke(g) = stmt {
            return self.db.apply_grant_revoke(g);
        }
        // Reads: a transaction sees its own workspace; otherwise the latest
        // committed snapshot. Either way, no lock is held during execution.
        if let Statement::Explain { stmt, analyze } = stmt {
            let state = match &self.txn {
                Some(t) => &t.work,
                None => &snap.state,
            };
            return exec::explain(state, stmt, *analyze);
        }
        // ANALYZE with no table touches every table: superuser-only (the
        // static profile names no object for the per-table check to catch).
        if let Statement::Analyze { table: None } = stmt {
            if !snap.privileges.user(&self.user)?.superuser {
                return Err(DbError::PrivilegeDenied {
                    user: self.user.clone(),
                    action: Action::Alter,
                    object: "*".into(),
                });
            }
        }
        // Writes.
        if self.status == TxnStatus::Explicit {
            let t = self.txn.as_mut().expect("explicit txn has workspace");
            let mark = t.undo.len();
            match exec::execute(&mut t.work, stmt, &mut t.undo) {
                Ok(result) => {
                    // Stage redo records now, while the workspace reflects
                    // exactly this statement (redo images are read live).
                    // Always staged: the commit-time merge replays them even
                    // on the volatile engine.
                    t.pipeline.stage(&t.work, &t.undo[mark..]);
                    Ok(result)
                }
                Err(e) => {
                    // Undo the partial effects of this statement, then mark
                    // the transaction aborted (statement-level atomicity).
                    let partial = t.undo.split_off(mark);
                    txn::rollback(&mut t.work, partial);
                    self.status = TxnStatus::Aborted;
                    Err(e)
                }
            }
        } else {
            self.autocommit_write(stmt, snap)
        }
    }

    /// Execute one autocommit write: run on a workspace cloned from the
    /// snapshot, commit, and transparently re-execute on a fresh snapshot
    /// if a concurrent committer won the first-writer-wins race.
    fn autocommit_write(
        &mut self,
        stmt: &Statement,
        first_snap: Arc<CommittedVersion>,
    ) -> DbResult<QueryResult> {
        let mut snap = first_snap;
        let mut attempt = 0usize;
        loop {
            let mut work = snap.state.clone();
            let mut undo = Vec::new();
            // A statement error publishes nothing; the workspace is dropped.
            let result = exec::execute(&mut work, stmt, &mut undo)?;
            let records = txn::redo_records(&work, &undo);
            match self.db.commit_write(&snap, &undo, records, work) {
                Ok(_) => return Ok(result),
                Err(e) if e.is_serialization_conflict() && attempt < AUTOCOMMIT_RETRIES => {
                    attempt += 1;
                    self.db.obs().incr("mvcc.autocommit_retries", 1);
                    snap = self.db.snapshot();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// What every statement passes before it runs: the transaction is not
    /// aborted, and the user holds every privilege the statement's static
    /// access profile requires — checked against the latest committed
    /// version (grants are non-transactional), which is returned.
    fn authorize(&self, stmt: &Statement) -> DbResult<Arc<CommittedVersion>> {
        if self.status == TxnStatus::Aborted {
            return Err(DbError::TransactionState(
                "current transaction is aborted, commands ignored until ROLLBACK".into(),
            ));
        }
        let profile = sqlkit::analyze(stmt);
        let snap = self.db.snapshot();
        if let Statement::GrantRevoke(_) = stmt {
            if !snap.privileges.user(&self.user)?.superuser {
                return Err(DbError::PrivilegeDenied {
                    user: self.user.clone(),
                    action: Action::GrantRevoke,
                    object: profile.all_objects().into_iter().next().unwrap_or_default(),
                });
            }
            return Ok(snap);
        }
        for (action, object) in profile.required_privileges() {
            snap.privileges.check(&self.user, action, &object)?;
        }
        Ok(snap)
    }

    /// The one SELECT entry point: run a parsed SELECT under explicit
    /// [`ExecOptions`] with the session's privilege checks, reading the
    /// open transaction's workspace or else the latest committed snapshot
    /// (no lock is held during execution either way). Returns the result
    /// and, when the planner ran, the executed [`PhysPlan`] with each
    /// operator's actual row count (and wall time under
    /// [`ExecOptions::profiling`]). Only SELECT statements are accepted.
    pub fn query(
        &self,
        stmt: &Statement,
        opts: &ExecOptions,
    ) -> DbResult<(QueryResult, Option<PhysPlan>)> {
        let Statement::Select(sel) = stmt else {
            return Err(DbError::Execution(
                "query accepts only SELECT statements".into(),
            ));
        };
        let snap = self.authorize(stmt)?;
        let state = match &self.txn {
            Some(t) => &t.work,
            None => &snap.state,
        };
        exec::execute_select(state, sel, opts)
    }

    /// Parse `sql` and run it through [`Session::query`].
    pub fn query_with_options(
        &self,
        sql: &str,
        opts: &ExecOptions,
    ) -> DbResult<(QueryResult, Option<PhysPlan>)> {
        self.query(&parse_statement(sql)?, opts)
    }

    /// BEGIN an explicit transaction: pin the latest committed version as
    /// the snapshot and clone a private workspace from it. Never blocks —
    /// any number of sessions can hold open transactions concurrently.
    pub fn begin(&mut self) -> DbResult<QueryResult> {
        if self.status != TxnStatus::Autocommit {
            return Err(DbError::TransactionState(
                "a transaction is already in progress".into(),
            ));
        }
        let base = self.db.snapshot();
        self.db.register_active(base.ts);
        let work = base.state.clone();
        self.txn = Some(OpenTxn {
            base,
            work,
            undo: Vec::new(),
            pipeline: CommitPipeline::default(),
            savepoints: Vec::new(),
        });
        self.status = TxnStatus::Explicit;
        Ok(QueryResult::Status("transaction started".into()))
    }

    /// COMMIT the transaction. In the aborted state this degrades to a
    /// rollback, as in PostgreSQL. A [`DbError::SerializationConflict`]
    /// here means a concurrent transaction won the race: the transaction
    /// has been rolled back and can be retried from BEGIN.
    pub fn commit(&mut self) -> DbResult<QueryResult> {
        match self.status {
            TxnStatus::Autocommit => Err(DbError::TransactionState(
                "no transaction in progress".into(),
            )),
            TxnStatus::Explicit => {
                let mut t = self.txn.take().expect("explicit txn has workspace");
                self.status = TxnStatus::Autocommit;
                let records = t.pipeline.take();
                let result = self.db.commit_write(&t.base, &t.undo, records, t.work);
                self.db.unregister_active(t.base.ts);
                result.map(|_| QueryResult::Status("transaction committed".into()))
            }
            TxnStatus::Aborted => {
                self.rollback()?;
                Ok(QueryResult::Status(
                    "aborted transaction rolled back".into(),
                ))
            }
        }
    }

    /// ROLLBACK the transaction: discard the private workspace. Nothing was
    /// ever visible outside the session, so there is nothing to undo
    /// globally.
    pub fn rollback(&mut self) -> DbResult<QueryResult> {
        if self.status == TxnStatus::Autocommit {
            return Err(DbError::TransactionState(
                "no transaction in progress".into(),
            ));
        }
        if let Some(t) = self.txn.take() {
            self.db.unregister_active(t.base.ts);
        }
        self.status = TxnStatus::Autocommit;
        Ok(QueryResult::Status("transaction rolled back".into()))
    }

    /// SAVEPOINT: mark the current position in the transaction. Redefining
    /// an existing name moves it (PostgreSQL semantics).
    pub fn savepoint(&mut self, name: &str) -> DbResult<QueryResult> {
        if self.status != TxnStatus::Explicit {
            return Err(DbError::TransactionState(
                "SAVEPOINT requires an open transaction".into(),
            ));
        }
        let t = self.txn.as_mut().expect("explicit txn has workspace");
        t.savepoints.retain(|(n, ..)| n != name);
        t.savepoints
            .push((name.to_owned(), t.undo.len(), t.pipeline.len()));
        Ok(QueryResult::Status(format!("savepoint \"{name}\" set")))
    }

    /// ROLLBACK TO SAVEPOINT: undo everything after the savepoint within
    /// the workspace, keeping the transaction (and the savepoint itself)
    /// open. Also recovers an aborted transaction, as in PostgreSQL.
    pub fn rollback_to(&mut self, name: &str) -> DbResult<QueryResult> {
        if self.status == TxnStatus::Autocommit {
            return Err(DbError::TransactionState(
                "ROLLBACK TO SAVEPOINT requires an open transaction".into(),
            ));
        }
        let t = self.txn.as_mut().expect("open txn has workspace");
        let Some(pos) = t.savepoints.iter().position(|(n, ..)| n == name) else {
            return Err(DbError::TransactionState(format!(
                "savepoint \"{name}\" does not exist"
            )));
        };
        let (_, mark, staged_mark) = t.savepoints[pos].clone();
        // Later savepoints are destroyed; this one survives.
        t.savepoints.truncate(pos + 1);
        let suffix = t.undo.split_off(mark);
        t.pipeline.truncate(staged_mark);
        txn::rollback(&mut t.work, suffix);
        self.status = TxnStatus::Explicit;
        Ok(QueryResult::Status(format!(
            "rolled back to savepoint \"{name}\""
        )))
    }

    /// RELEASE SAVEPOINT: discard the savepoint (and any later ones),
    /// keeping its effects.
    pub fn release(&mut self, name: &str) -> DbResult<QueryResult> {
        if self.status != TxnStatus::Explicit {
            return Err(DbError::TransactionState(
                "RELEASE SAVEPOINT requires an open transaction".into(),
            ));
        }
        let t = self.txn.as_mut().expect("explicit txn has workspace");
        let Some(pos) = t.savepoints.iter().position(|(n, ..)| n == name) else {
            return Err(DbError::TransactionState(format!(
                "savepoint \"{name}\" does not exist"
            )));
        };
        t.savepoints.truncate(pos);
        Ok(QueryResult::Status(format!(
            "savepoint \"{name}\" released"
        )))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Abandoned open transactions roll back (drop the workspace and
        // unpin the snapshot).
        if self.status != TxnStatus::Autocommit {
            let _ = self.rollback();
        }
    }
}

impl Database {
    /// Apply a SQL GRANT/REVOKE under the commit lock, against the latest
    /// version. GRANT/REVOKE commits (and is logged) immediately, even
    /// inside an explicit transaction — it bypasses the undo log, so
    /// BEGIN…ROLLBACK never covered it; the WAL mirrors that by making it
    /// its own durable mini-transaction.
    fn apply_grant_revoke(&self, g: &sqlkit::ast::GrantRevoke) -> DbResult<QueryResult> {
        let shared = &*self.shared;
        let mut engine = shared.commit.lock();
        let latest = shared.committed.read().clone();
        let mut next = latest.privileges.clone();
        let mut records = Vec::new();
        if !next.contains(&g.user) {
            next.create_user(&g.user, false)?;
            records.push(WalRecord::CreateUser {
                name: g.user.clone(),
                superuser: false,
            });
        }
        for object in &g.objects {
            latest.state.catalog.table(object)?;
            match &g.actions {
                None => {
                    if g.grant {
                        next.grant_all(&g.user, object)?;
                        records.push(WalRecord::GrantAll {
                            user: g.user.clone(),
                            object: object.clone(),
                        });
                    } else {
                        next.revoke_all(&g.user, object)?;
                        records.push(WalRecord::RevokeAll {
                            user: g.user.clone(),
                            object: object.clone(),
                        });
                    }
                }
                Some(actions) => {
                    for &a in actions {
                        if g.grant {
                            next.grant(&g.user, a, object)?;
                            records.push(WalRecord::Grant {
                                user: g.user.clone(),
                                action: a,
                                object: object.clone(),
                            });
                        } else {
                            next.revoke(&g.user, a, object)?;
                            records.push(WalRecord::Revoke {
                                user: g.user.clone(),
                                action: a,
                                object: object.clone(),
                            });
                        }
                    }
                }
            }
        }
        engine.commit_txn(&records, &latest.state, &next)?;
        let ts = shared.oracle.next();
        let version = Arc::new(CommittedVersion {
            ts,
            state: latest.state.clone(),
            privileges: next,
            clocks: latest.clocks.clone(),
            catalog_ts: latest.catalog_ts,
        });
        *shared.committed.write() = Arc::clone(&version);
        drop(engine);
        self.retain_version(version);
        Ok(QueryResult::Status(if g.grant {
            "granted".to_owned()
        } else {
            "revoked".to_owned()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Database {
        let db = Database::new();
        let mut admin = db.session("admin").unwrap();
        admin
            .execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)")
            .unwrap();
        admin
            .execute_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        db
    }

    fn visible_rows(s: &mut Session) -> usize {
        match s.execute_sql("SELECT * FROM t").unwrap() {
            QueryResult::Rows { rows, .. } => rows.len(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gauges_report_mvcc_state_without_keeping_db_alive() {
        let obs = Obs::in_memory();
        let db = setup();
        db.register_gauges(&obs);

        let m = obs.snapshot().metrics;
        assert_eq!(
            m.gauge("minidb.mvcc.retained_versions", &[]),
            Some(db.retained_versions() as f64)
        );
        assert_eq!(m.gauge("minidb.mvcc.oldest_snapshot_age", &[]), Some(0.0));
        // Volatile engine: no WAL.
        assert_eq!(m.gauge("minidb.wal.bytes_since_checkpoint", &[]), Some(0.0));

        // An open transaction pins its snapshot; the age gauge tracks how
        // far the latest commit has moved past it.
        let mut pinned = db.session("admin").unwrap();
        pinned.execute_sql("BEGIN").unwrap();
        pinned.execute_sql("SELECT * FROM t").unwrap();
        let mut writer = db.session("admin").unwrap();
        writer.execute_sql("INSERT INTO t VALUES (3, 'c')").unwrap();
        let age = obs
            .snapshot()
            .metrics
            .gauge("minidb.mvcc.oldest_snapshot_age", &[])
            .unwrap();
        assert!(age >= 1.0, "snapshot age {age}");
        pinned.execute_sql("COMMIT").unwrap();

        // Weak samplers: dropping the database must not be prevented by
        // registered gauges, and samplers degrade to 0.
        drop(pinned);
        drop(writer);
        drop(db);
        let m = obs.snapshot().metrics;
        assert_eq!(m.gauge("minidb.mvcc.retained_versions", &[]), Some(0.0));
    }

    #[test]
    fn wal_bytes_gauge_tracks_appends_and_checkpoint_reset() {
        let dir = std::env::temp_dir().join(format!("minidb-walgauge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DurabilityConfig::new(&dir);
        let (db, _report) = Database::open(&config).unwrap();
        assert_eq!(db.wal_bytes_since_checkpoint(), 0);
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE w (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("INSERT INTO w VALUES (1)").unwrap();
        let bytes = db.wal_bytes_since_checkpoint();
        assert!(bytes > 0, "WAL appends must be counted");
        db.checkpoint().unwrap();
        assert_eq!(db.wal_bytes_since_checkpoint(), 0);
        // Restart: the surviving WAL tail (empty after checkpoint) seeds
        // the counter.
        drop(s);
        drop(db);
        let (db, _report) = Database::open(&config).unwrap();
        assert_eq!(db.wal_bytes_since_checkpoint(), 0);
        let mut s = db.session("admin").unwrap();
        s.execute_sql("INSERT INTO w VALUES (2)").unwrap();
        let tail = db.wal_bytes_since_checkpoint();
        assert!(tail > 0);
        drop(s);
        drop(db);
        let (db, _report) = Database::open(&config).unwrap();
        assert_eq!(db.wal_bytes_since_checkpoint(), tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn select_through_session() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        let r = s.execute_sql("SELECT v FROM t ORDER BY id").unwrap();
        match r {
            QueryResult::Rows { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Value::Text("a".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn privilege_enforcement() {
        let db = setup();
        db.create_user("reader", false).unwrap();
        db.grant("reader", Action::Select, "t").unwrap();
        let mut s = db.session("reader").unwrap();
        assert!(s.execute_sql("SELECT * FROM t").is_ok());
        let err = s.execute_sql("DELETE FROM t").unwrap_err();
        assert!(err.is_privilege());
        // Insert-select requires both privileges.
        let err = s
            .execute_sql("INSERT INTO t SELECT id + 10, v FROM t")
            .unwrap_err();
        assert!(err.is_privilege());
    }

    #[test]
    fn grant_via_sql_requires_superuser() {
        let db = setup();
        db.create_user("pleb", false).unwrap();
        let mut pleb = db.session("pleb").unwrap();
        assert!(pleb
            .execute_sql("GRANT SELECT ON t TO pleb")
            .unwrap_err()
            .is_privilege());
        let mut admin = db.session("admin").unwrap();
        admin.execute_sql("GRANT SELECT ON t TO pleb").unwrap();
        assert!(pleb.execute_sql("SELECT * FROM t").is_ok());
        admin.execute_sql("REVOKE SELECT ON t FROM pleb").unwrap();
        assert!(pleb
            .execute_sql("SELECT * FROM t")
            .unwrap_err()
            .is_privilege());
    }

    #[test]
    fn explicit_transaction_commit_and_rollback() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (3, 'c')").unwrap();
        s.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 3);

        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("DELETE FROM t").unwrap();
        // Snapshot isolation: the uncommitted delete is invisible outside
        // the transaction, but the session reads its own workspace.
        assert_eq!(db.table_rows("t").unwrap(), 3, "no dirty read");
        assert_eq!(visible_rows(&mut s), 0, "own writes visible");
        s.execute_sql("ROLLBACK").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 3);
    }

    #[test]
    fn failed_statement_aborts_transaction() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (3, 'c')").unwrap();
        // Duplicate PK fails…
        assert!(s.execute_sql("INSERT INTO t VALUES (1, 'dup')").is_err());
        // …and the transaction is now aborted.
        let err = s.execute_sql("SELECT * FROM t").unwrap_err();
        assert!(matches!(err, DbError::TransactionState(_)));
        // COMMIT degrades to rollback.
        s.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 2, "insert of 3 rolled back");
    }

    #[test]
    fn autocommit_rolls_back_failed_statement() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        // Multi-row insert where the second row violates the PK: the whole
        // statement must be atomic.
        assert!(s
            .execute_sql("INSERT INTO t VALUES (9, 'x'), (1, 'dup')")
            .is_err());
        assert_eq!(db.table_rows("t").unwrap(), 2);
    }

    #[test]
    fn concurrent_writers_no_longer_block() {
        // Under the old global transaction slot, b's write errored with
        // "database is locked". Under MVCC both proceed; a's commit merges
        // cleanly because the writes are disjoint.
        let db = setup();
        let mut a = db.session("admin").unwrap();
        let mut b = db.session("admin").unwrap();
        a.execute_sql("BEGIN").unwrap();
        a.execute_sql("INSERT INTO t VALUES (5, 'e')").unwrap();
        b.execute_sql("INSERT INTO t VALUES (6, 'f')").unwrap();
        assert!(b.execute_sql("SELECT COUNT(*) FROM t").is_ok());
        a.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 4, "both inserts committed");
    }

    #[test]
    fn first_writer_wins_on_same_row() {
        let db = setup();
        let mut a = db.session("admin").unwrap();
        let mut b = db.session("admin").unwrap();
        a.execute_sql("BEGIN").unwrap();
        b.execute_sql("BEGIN").unwrap();
        a.execute_sql("UPDATE t SET v = 'from-a' WHERE id = 1")
            .unwrap();
        b.execute_sql("UPDATE t SET v = 'from-b' WHERE id = 1")
            .unwrap();
        a.execute_sql("COMMIT").unwrap();
        let err = b.execute_sql("COMMIT").unwrap_err();
        assert!(err.is_serialization_conflict(), "{err}");
        assert!(!b.in_transaction(), "loser rolled back");
        // The winner's write survived; b can retry and now succeeds.
        b.execute_sql("BEGIN").unwrap();
        b.execute_sql("UPDATE t SET v = 'retry-b' WHERE id = 1")
            .unwrap();
        b.execute_sql("COMMIT").unwrap();
        let mut s = db.session("admin").unwrap();
        match s.execute_sql("SELECT v FROM t WHERE id = 1").unwrap() {
            QueryResult::Rows { rows, .. } => {
                assert_eq!(rows[0][0], Value::Text("retry-b".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjoint_row_writers_both_commit() {
        let db = setup();
        let mut a = db.session("admin").unwrap();
        let mut b = db.session("admin").unwrap();
        a.execute_sql("BEGIN").unwrap();
        b.execute_sql("BEGIN").unwrap();
        a.execute_sql("UPDATE t SET v = 'aa' WHERE id = 1").unwrap();
        b.execute_sql("UPDATE t SET v = 'bb' WHERE id = 2").unwrap();
        a.execute_sql("COMMIT").unwrap();
        b.execute_sql("COMMIT").unwrap();
        let mut s = db.session("admin").unwrap();
        match s.execute_sql("SELECT v FROM t ORDER BY id").unwrap() {
            QueryResult::Rows { rows, .. } => {
                assert_eq!(rows[0][0], Value::Text("aa".into()));
                assert_eq!(rows[1][0], Value::Text("bb".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn snapshot_reads_are_stable_inside_transaction() {
        let db = setup();
        let mut reader = db.session("admin").unwrap();
        reader.execute_sql("BEGIN").unwrap();
        assert_eq!(visible_rows(&mut reader), 2);
        // A concurrent autocommit write lands…
        let mut writer = db.session("admin").unwrap();
        writer.execute_sql("INSERT INTO t VALUES (3, 'c')").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 3);
        // …but the open transaction still sees its snapshot.
        assert_eq!(visible_rows(&mut reader), 2, "repeatable read");
        reader.execute_sql("COMMIT").unwrap();
        assert_eq!(visible_rows(&mut reader), 3, "new snapshot after commit");
    }

    #[test]
    fn concurrent_duplicate_pk_insert_conflicts() {
        let db = setup();
        let mut a = db.session("admin").unwrap();
        let mut b = db.session("admin").unwrap();
        a.execute_sql("BEGIN").unwrap();
        b.execute_sql("BEGIN").unwrap();
        a.execute_sql("INSERT INTO t VALUES (7, 'a7')").unwrap();
        b.execute_sql("INSERT INTO t VALUES (7, 'b7')").unwrap();
        a.execute_sql("COMMIT").unwrap();
        let err = b.execute_sql("COMMIT").unwrap_err();
        assert!(err.is_serialization_conflict(), "{err}");
        assert_eq!(db.table_rows("t").unwrap(), 3, "only the winner's row");
    }

    #[test]
    fn autocommit_writers_retry_transparently() {
        let db = setup();
        db.with_state(|_| {});
        let threads = 4;
        let per_thread = 8;
        std::thread::scope(|scope| {
            for i in 0..threads {
                let db = db.clone();
                scope.spawn(move || {
                    let mut s = db.session("admin").unwrap();
                    for j in 0..per_thread {
                        let id = 100 + i * per_thread + j;
                        s.execute_sql(&format!("INSERT INTO t VALUES ({id}, 'w')"))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(
            db.table_rows("t").unwrap(),
            2 + threads * per_thread,
            "every insert committed exactly once"
        );
    }

    #[test]
    fn dropped_session_releases_transaction() {
        let db = setup();
        {
            let mut a = db.session("admin").unwrap();
            a.execute_sql("BEGIN").unwrap();
            a.execute_sql("DELETE FROM t").unwrap();
        } // dropped without commit
        assert_eq!(db.table_rows("t").unwrap(), 2, "uncommitted delete undone");
        assert_eq!(db.oldest_active_snapshot(), None, "snapshot unpinned");
        let mut b = db.session("admin").unwrap();
        assert!(b.execute_sql("INSERT INTO t VALUES (7, 'g')").is_ok());
    }

    #[test]
    fn nested_begin_rejected() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        assert!(s.execute_sql("BEGIN").is_err());
        s.execute_sql("ROLLBACK").unwrap();
        assert!(s.execute_sql("ROLLBACK").is_err(), "no txn to roll back");
    }

    #[test]
    fn column_values_distinct_sorted() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("INSERT INTO t VALUES (3, 'a')").unwrap();
        let vals = db.column_values("t", "v").unwrap();
        assert_eq!(vals, vec![Value::Text("a".into()), Value::Text("b".into())]);
        assert!(db.column_values("t", "zzz").is_err());
    }

    #[test]
    fn unknown_user_session_rejected() {
        let db = setup();
        assert!(db.session("nobody").is_err());
    }

    #[test]
    fn vacuum_respects_active_snapshots_and_cap() {
        let db = setup();
        db.set_retain_cap(100);
        let mut s = db.session("admin").unwrap();
        for i in 0..10 {
            s.execute_sql(&format!("INSERT INTO t VALUES ({}, 'x')", 50 + i))
                .unwrap();
        }
        assert!(db.retained_versions() > 10);
        // An open transaction pins its snapshot: vacuum keeps history from
        // its begin timestamp onward.
        let mut pinner = db.session("admin").unwrap();
        pinner.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (99, 'y')").unwrap();
        let report = db.vacuum();
        assert_eq!(report.oldest_active, db.oldest_active_snapshot());
        assert!(report.reclaimed > 0, "history before the pin reclaimed");
        let after_pin = db.retained_versions();
        assert!(after_pin >= 2, "pinned snapshot & latest kept");
        pinner.execute_sql("ROLLBACK").unwrap();
        let report = db.vacuum();
        assert_eq!(report.oldest_active, None);
        assert_eq!(db.retained_versions(), 1, "only latest kept");
        assert_eq!(report.retained, 1);
    }

    #[test]
    fn background_vacuum_runs_and_stops() {
        let db = setup();
        let handle = db.start_vacuum(Duration::from_millis(5));
        let mut s = db.session("admin").unwrap();
        for i in 0..20 {
            s.execute_sql(&format!("INSERT INTO t VALUES ({}, 'v')", 200 + i))
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(40));
        handle.stop();
        assert_eq!(db.retained_versions(), 1, "background vacuum trimmed");
    }

    #[test]
    fn serialization_conflict_message_is_stable() {
        let e = DbError::SerializationConflict {
            table: "t".into(),
            detail: "row 0 written by a concurrent transaction".into(),
        };
        let text = e.to_string();
        assert!(text.starts_with("serialization conflict"), "{text}");
        assert!(text.contains("retry"), "{text}");
        assert!(e.is_retryable());
    }
}

#[cfg(test)]
mod savepoint_tests {
    use super::*;

    fn setup() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        db
    }

    fn visible_rows(s: &mut Session) -> usize {
        match s.execute_sql("SELECT * FROM t").unwrap() {
            QueryResult::Rows { rows, .. } => rows.len(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rollback_to_savepoint_keeps_earlier_work() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        s.execute_sql("SAVEPOINT sp1").unwrap();
        s.execute_sql("INSERT INTO t VALUES (2)").unwrap();
        s.execute_sql("ROLLBACK TO SAVEPOINT sp1").unwrap();
        assert_eq!(visible_rows(&mut s), 1, "post-savepoint insert undone");
        // The savepoint survives and can be rolled back to again.
        s.execute_sql("INSERT INTO t VALUES (3)").unwrap();
        s.execute_sql("ROLLBACK TO sp1").unwrap();
        assert_eq!(visible_rows(&mut s), 1);
        s.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 1);
    }

    #[test]
    fn savepoint_recovers_aborted_transaction() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        s.execute_sql("SAVEPOINT sp").unwrap();
        // Duplicate PK aborts the transaction…
        assert!(s.execute_sql("INSERT INTO t VALUES (1)").is_err());
        assert!(s.execute_sql("SELECT * FROM t").is_err(), "aborted");
        // …but rolling back to the savepoint recovers it (PostgreSQL style).
        s.execute_sql("ROLLBACK TO SAVEPOINT sp").unwrap();
        s.execute_sql("INSERT INTO t VALUES (2)").unwrap();
        s.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 2);
    }

    #[test]
    fn release_discards_marker_but_keeps_effects() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("SAVEPOINT sp").unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        s.execute_sql("RELEASE SAVEPOINT sp").unwrap();
        assert!(s.execute_sql("ROLLBACK TO sp").is_err(), "released");
        s.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 1);
    }

    #[test]
    fn nested_savepoints_truncate_correctly() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("SAVEPOINT a").unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        s.execute_sql("SAVEPOINT b").unwrap();
        s.execute_sql("INSERT INTO t VALUES (2)").unwrap();
        s.execute_sql("ROLLBACK TO a").unwrap();
        // b was destroyed by rolling back past it.
        assert!(s.execute_sql("ROLLBACK TO b").is_err());
        s.execute_sql("COMMIT").unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 0);
    }

    #[test]
    fn savepoint_outside_transaction_rejected() {
        let db = setup();
        let mut s = db.session("admin").unwrap();
        assert!(s.execute_sql("SAVEPOINT sp").is_err());
        assert!(s.execute_sql("ROLLBACK TO sp").is_err());
        assert!(s.execute_sql("RELEASE sp").is_err());
    }
}
