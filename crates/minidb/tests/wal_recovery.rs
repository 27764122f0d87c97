//! Durability integration tests: commit/reopen round trips across DML, DDL,
//! views, indexes, ALTER, users/grants; DDL-inside-explicit-transaction
//! regression coverage; snapshot compaction; and the torn-tail property —
//! truncating or bit-flipping the WAL at *every* byte offset recovers
//! exactly the committed-transaction prefix, never a panic, never a partial
//! transaction.

use minidb::{Database, DbError, DurabilityConfig, FsyncPolicy};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "minidb-walrec-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Stale leftovers from a killed previous run must not leak state in.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path) -> DurabilityConfig {
    // Snapshots off by default so tests exercise pure WAL replay; the
    // snapshot tests opt in explicitly.
    DurabilityConfig::new(dir).with_snapshot_every(0)
}

/// Reopen the directory and return the recovered database.
fn reopen(dir: &Path) -> Database {
    let (db, _) = Database::open(&config(dir)).expect("recovery succeeds");
    db
}

#[test]
fn committed_dml_and_ddl_survive_reopen() {
    let dir = tmpdir("roundtrip");
    let fingerprint = {
        let (db, report) = Database::open(&config(&dir)).unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.replayed_txns, 0);
        assert_eq!(db.engine_name(), "wal");
        assert!(db.is_durable());
        let mut s = db.session("admin").unwrap();
        for sql in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, \
             score REAL CHECK (score >= 0.0), flag BOOLEAN DEFAULT TRUE)",
            "INSERT INTO t VALUES (1, 'a', 1.5, TRUE), (2, 'b', 2.5, FALSE)",
            "UPDATE t SET score = 9.0 WHERE id = 1",
            "DELETE FROM t WHERE id = 2",
            "INSERT INTO t VALUES (3, 'c', 0.0, NULL)",
            "CREATE TABLE child (id INTEGER PRIMARY KEY, tid INTEGER REFERENCES t (id))",
            "INSERT INTO child VALUES (10, 1)",
            "CREATE INDEX ix_name ON t (name)",
            "CREATE VIEW high AS SELECT name FROM t WHERE score > 1.0",
            "ALTER TABLE t ADD COLUMN extra INTEGER",
        ] {
            s.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        db.create_user("bob", false).unwrap();
        db.grant("bob", sqlkit::Action::Select, "t").unwrap();
        db.state_fingerprint()
    };
    let db2 = reopen(&dir);
    assert_eq!(db2.state_fingerprint(), fingerprint);
    // The recovered database is fully operational, indexes included.
    let mut s = db2.session("bob").unwrap();
    let rows = s
        .execute_sql("SELECT name FROM t WHERE name = 'a'")
        .unwrap();
    assert_eq!(rows.row_count(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rename_with_inbound_fk_survives_reopen() {
    let dir = tmpdir("rename");
    let fingerprint = {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let mut s = db.session("admin").unwrap();
        for sql in [
            "CREATE TABLE parent (id INTEGER PRIMARY KEY)",
            "CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES parent (id))",
            "INSERT INTO parent VALUES (1)",
            "INSERT INTO child VALUES (1, 1)",
            "ALTER TABLE parent RENAME TO folks",
        ] {
            s.execute_sql(sql).unwrap();
        }
        db.state_fingerprint()
    };
    let db2 = reopen(&dir);
    assert_eq!(db2.state_fingerprint(), fingerprint);
    // The child's FK followed the rename, so this insert still validates.
    let mut s = db2.session("admin").unwrap();
    assert!(s.execute_sql("INSERT INTO child VALUES (2, 1)").is_ok());
    assert!(
        s.execute_sql("INSERT INTO child VALUES (3, 99)").is_err(),
        "FK against renamed table still enforced"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ddl_inside_explicit_transaction_commits_durably() {
    // Regression coverage for the documented answer to "what does DDL in a
    // transaction do?": it is undo-logged and WAL-logged like DML, so COMMIT
    // makes it durable…
    let dir = tmpdir("ddltxn");
    let fingerprint = {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        s.execute_sql("CREATE INDEX ix ON t (id)").unwrap();
        s.execute_sql("COMMIT").unwrap();
        db.state_fingerprint()
    };
    let db2 = reopen(&dir);
    assert_eq!(db2.state_fingerprint(), fingerprint);
    assert_eq!(db2.table_rows("t").unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ddl_inside_rolled_back_transaction_leaves_no_trace() {
    // …and ROLLBACK leaves no trace, in memory or on disk.
    let dir = tmpdir("ddlrb");
    let baseline = {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let before = db.state_fingerprint();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("CREATE TABLE ghost (id INTEGER)").unwrap();
        s.execute_sql("INSERT INTO ghost VALUES (1)").unwrap();
        s.execute_sql("ROLLBACK").unwrap();
        assert_eq!(db.state_fingerprint(), before, "rollback undoes DDL");
        before
    };
    let db2 = reopen(&dir);
    assert_eq!(db2.state_fingerprint(), baseline);
    assert!(!db2.table_names().contains(&"ghost".to_owned()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncommitted_transaction_crash_leaves_no_trace() {
    let dir = tmpdir("crashmid");
    let committed = {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        let committed = db.state_fingerprint();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (2)").unwrap();
        s.execute_sql("DELETE FROM t WHERE id = 1").unwrap();
        // Simulate the crash: forget the session so its Drop rollback never
        // runs, then drop the database with the transaction still open.
        std::mem::forget(s);
        committed
    };
    let db2 = reopen(&dir);
    assert_eq!(
        db2.state_fingerprint(),
        committed,
        "in-flight transaction evaporates on crash"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovery_is_traced_from_append_to_replay() {
    // One obs plane across the crash: the first engine's WAL appends and
    // fsyncs and the second engine's replay all land in the same trace.
    let obs = obs::Obs::in_memory();
    let dir = tmpdir("traced");
    let committed = {
        let (db, _) = Database::open_observed(&config(&dir), obs.clone()).unwrap();
        let mut s = db.session("admin").unwrap();
        for sql in [
            "CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)",
            "BEGIN",
            "INSERT INTO sales VALUES (900, 42.0)",
            "UPDATE sales SET amount = 99.0 WHERE id = 900",
            "COMMIT",
        ] {
            s.execute_sql(sql).unwrap();
        }
        let committed = db.state_fingerprint();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO sales VALUES (901, 1.0)")
            .unwrap();
        std::mem::forget(s);
        committed
    };
    let (db2, report) = Database::open_observed(&config(&dir), obs.clone()).unwrap();
    assert_eq!(report.replayed_txns, 2);
    assert_eq!(db2.state_fingerprint(), committed);
    let spans = obs.snapshot().spans;
    for needed in ["wal:append", "wal:fsync", "recovery:replay"] {
        assert!(
            spans.iter().any(|s| s.name == needed),
            "no {needed} span in the trace"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grant_revoke_inside_transaction_is_immediate_and_durable() {
    // GRANT/REVOKE bypasses the undo log (documented PostgreSQL divergence):
    // it commits durably even when the surrounding transaction rolls back.
    let dir = tmpdir("granttxn");
    {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("GRANT SELECT ON t TO walter").unwrap();
        s.execute_sql("ROLLBACK").unwrap();
    }
    let db2 = reopen(&dir);
    let version = db2.snapshot();
    let p = version.privileges.user("walter").expect("user exists");
    assert!(p.has(sqlkit::Action::Select, "t"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_compaction_truncates_wal_and_preserves_state() {
    let dir = tmpdir("snap");
    let fingerprint = {
        let cfg = DurabilityConfig::new(dir.clone()).with_snapshot_every(4);
        let (db, _) = Database::open(&cfg).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..10 {
            s.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'r{i}')"))
                .unwrap();
        }
        db.state_fingerprint()
    };
    // 11 autocommit transactions at snapshot_every=4 → at least two
    // compactions; the WAL holds only the post-snapshot tail.
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(dir.join("snapshot.db").exists(), "snapshot written");
    let (db2, report) = Database::open(&config(&dir)).unwrap();
    assert!(report.snapshot_loaded);
    assert!(
        report.replayed_txns <= 4,
        "snapshot absorbed most transactions (tail was {} txns, wal {} bytes)",
        report.replayed_txns,
        wal_len
    );
    assert_eq!(db2.state_fingerprint(), fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explicit_checkpoint_then_delete_wal_keeps_state() {
    // A snapshot alone (WAL deleted out from under us) must fully restore.
    let dir = tmpdir("ckpt");
    let fingerprint = {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.checkpoint().unwrap();
        db.state_fingerprint()
    };
    std::fs::remove_file(dir.join("wal.log")).unwrap();
    let (db2, report) = Database::open(&config(&dir)).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.replayed_txns, 0);
    assert_eq!(db2.state_fingerprint(), fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_policy_parsing() {
    assert_eq!(FsyncPolicy::parse("commit"), Some(FsyncPolicy::Commit));
    assert_eq!(FsyncPolicy::parse("commit"), Some(FsyncPolicy::default()));
    assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
    // There is no `always`: a transaction is one append, so `commit`
    // already fsyncs after every append.
    assert_eq!(FsyncPolicy::parse("always"), None);
    assert_eq!(FsyncPolicy::parse("sometimes"), None);
}

#[test]
fn corrupt_snapshot_surfaces_typed_error() {
    let dir = tmpdir("badsnap");
    {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.checkpoint().unwrap();
    }
    let snap = dir.join("snapshot.db");
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();
    match Database::open(&config(&dir)) {
        Err(DbError::Storage(_)) => {}
        Err(other) => panic!("corrupt snapshot must be a storage error, got {other:?}"),
        Ok(_) => panic!("corrupt snapshot must not open cleanly"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_of_a_fresh_directory_reopens() {
    // Nothing committed yet: the snapshot's group carries transaction id 0.
    let dir = tmpdir("freshckpt");
    {
        let (db, _) = Database::open(&config(&dir)).unwrap();
        db.checkpoint().unwrap();
    }
    let (db2, report) = Database::open(&config(&dir)).expect("fresh checkpoint reopens");
    assert!(report.snapshot_loaded);
    assert!(db2.session("admin").is_ok(), "admin survives the snapshot");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_automatic_checkpoint_keeps_the_commit() {
    // A directory where the snapshot's temp file goes makes every snapshot
    // write fail (EISDIR); the commits that trigger one must still stand.
    let dir = tmpdir("ckptfail");
    let blocker = dir.join("snapshot.tmp");
    std::fs::create_dir(&blocker).unwrap();
    let cfg = DurabilityConfig::new(dir.clone()).with_snapshot_every(2);
    let obs = obs::Obs::in_memory();
    {
        let (db, _) = Database::open_observed(&cfg, obs.clone()).unwrap();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        for i in 0..3 {
            s.execute_sql(&format!("INSERT INTO t VALUES ({i})"))
                .unwrap_or_else(|e| panic!("insert {i}: {e}"));
        }
        assert_eq!(db.table_rows("t").unwrap(), 3);
    }
    let snap = obs.snapshot();
    assert!(snap.metrics.counter("wal.checkpoint_errors") >= 1);
    assert!(
        snap.spans
            .iter()
            .any(|s| s.name == "snapshot:write" && s.error.is_some()),
        "the failed snapshot:write span is marked failed"
    );
    assert!(!dir.join("snapshot.db").exists());
    assert_eq!(reopen(&dir).table_rows("t").unwrap(), 3);

    // Once the obstruction is gone, the next trigger writes a snapshot.
    std::fs::remove_dir(&blocker).unwrap();
    {
        let (db, _) = Database::open(&cfg).unwrap();
        let mut s = db.session("admin").unwrap();
        for i in 3..5 {
            s.execute_sql(&format!("INSERT INTO t VALUES ({i})"))
                .unwrap();
        }
    }
    assert!(dir.join("snapshot.db").exists(), "snapshot written");
    let (db2, report) = Database::open(&config(&dir)).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(db2.table_rows("t").unwrap(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint a database holding every kind of snapshot record (rows, an
/// index, a view, a user with a grant, statistics) and return the
/// snapshot's bytes.
fn checkpointed_snapshot(dir: &Path) -> Vec<u8> {
    let (db, _) = Database::open(&config(dir)).unwrap();
    let mut s = db.session("admin").unwrap();
    for sql in [
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')",
        "DELETE FROM t WHERE id = 2",
        "CREATE INDEX ix ON t (v)",
        "CREATE VIEW vv AS SELECT v FROM t WHERE id > 1",
        "ANALYZE",
    ] {
        s.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db.create_user("bob", false).unwrap();
    db.grant("bob", sqlkit::Action::Select, "t").unwrap();
    db.checkpoint().unwrap();
    std::fs::read(dir.join("snapshot.db")).unwrap()
}

fn assert_open_is_storage_error(dir: &Path, what: &str) {
    match Database::open(&config(dir)) {
        Err(DbError::Storage(_)) => {}
        Err(other) => panic!("{what}: expected a storage error, got {other:?}"),
        Ok(_) => panic!("{what}: a damaged snapshot must not open"),
    }
}

#[test]
fn snapshot_truncated_at_every_offset_is_refused() {
    let dir = tmpdir("snaptrunc");
    let bytes = checkpointed_snapshot(&dir);
    for offset in 0..bytes.len() {
        std::fs::write(dir.join("snapshot.db"), &bytes[..offset]).unwrap();
        assert_open_is_storage_error(&dir, &format!("truncated to {offset} bytes"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_with_any_byte_flipped_is_refused() {
    let dir = tmpdir("snapflip");
    let bytes = checkpointed_snapshot(&dir);
    for at in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[at] ^= 0xFF;
        std::fs::write(dir.join("snapshot.db"), &damaged).unwrap();
        assert_open_is_storage_error(&dir, &format!("byte {at} flipped"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The torn-tail property
// ---------------------------------------------------------------------------

/// Build a WAL of several committed transactions, recording after each
/// commit (a) the WAL byte length and (b) the state fingerprint. Returns
/// `(wal_bytes, checkpoints)` where `checkpoints[i]` is `(len_i, digest_i)`
/// and index 0 is the empty-database baseline.
fn committed_prefix_oracle(dir: &Path) -> (Vec<u8>, Vec<(usize, String)>) {
    let (db, _) = Database::open(&config(dir)).unwrap();
    let mut checkpoints = vec![(0usize, db.state_fingerprint())];
    let mut s = db.session("admin").unwrap();
    let txns: Vec<Vec<&str>> = vec![
        vec!["CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"],
        vec!["INSERT INTO t VALUES (1, 'a'), (2, 'b')"],
        // A multi-statement explicit transaction — one WAL commit group.
        vec![
            "BEGIN",
            "UPDATE t SET v = 'z' WHERE id = 1",
            "INSERT INTO t VALUES (3, 'c')",
            "DELETE FROM t WHERE id = 2",
            "COMMIT",
        ],
        vec!["CREATE INDEX ix ON t (v)"],
        vec!["INSERT INTO t VALUES (4, 'd')"],
    ];
    let wal_path = dir.join("wal.log");
    for group in txns {
        for sql in group {
            s.execute_sql(sql).unwrap();
        }
        db.flush_wal().unwrap();
        let len = std::fs::metadata(&wal_path).unwrap().len() as usize;
        checkpoints.push((len, db.state_fingerprint()));
    }
    drop(s);
    let bytes = std::fs::read(&wal_path).unwrap();
    assert_eq!(bytes.len(), checkpoints.last().unwrap().0);
    (bytes, checkpoints)
}

/// The committed prefix a WAL truncated to `offset` bytes must recover to.
fn expected_digest(checkpoints: &[(usize, String)], offset: usize) -> &str {
    &checkpoints
        .iter()
        .rev()
        .find(|(len, _)| *len <= offset)
        .expect("index 0 has len 0")
        .1
}

#[test]
fn truncation_at_every_offset_recovers_committed_prefix() {
    let oracle_dir = tmpdir("torn-oracle");
    let (bytes, checkpoints) = committed_prefix_oracle(&oracle_dir);
    let dir = tmpdir("torn-replay");
    for offset in 0..=bytes.len() {
        let _ = std::fs::remove_file(dir.join("snapshot.db"));
        std::fs::write(dir.join("wal.log"), &bytes[..offset]).unwrap();
        let (db, report) = Database::open(&config(&dir))
            .unwrap_or_else(|e| panic!("recovery at offset {offset} failed: {e}"));
        assert_eq!(
            db.state_fingerprint(),
            expected_digest(&checkpoints, offset),
            "offset {offset}: recovered state must equal the committed prefix \
             (report: {})",
            report.render()
        );
    }
    std::fs::remove_dir_all(&oracle_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_tail_is_physically_removed_on_open() {
    let oracle_dir = tmpdir("trunc-oracle");
    let (bytes, checkpoints) = committed_prefix_oracle(&oracle_dir);
    let dir = tmpdir("trunc-replay");
    // Cut mid-frame somewhere inside the final transaction group.
    let offset = checkpoints[checkpoints.len() - 2].0 + 3;
    std::fs::write(dir.join("wal.log"), &bytes[..offset]).unwrap();
    {
        let (db, report) = Database::open(&config(&dir)).unwrap();
        assert!(report.dropped_bytes > 0);
        // New commits append onto the *cleaned* log.
        let mut s = db.session("admin").unwrap();
        s.execute_sql("INSERT INTO t VALUES (99, 'post-crash')")
            .unwrap();
    }
    let db2 = reopen(&dir);
    let mut s = db2.session("admin").unwrap();
    let rows = s.execute_sql("SELECT v FROM t WHERE id = 99").unwrap();
    assert_eq!(rows.row_count(), 1, "post-recovery commit is replayable");
    std::fs::remove_dir_all(&oracle_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Bit-flip any byte within the final transaction group: recovery must
    /// yield exactly the prior committed prefix (the CRC catches the damage
    /// wherever it lands — length field, txn markers, or payload).
    #[test]
    fn bit_flip_in_last_group_drops_exactly_that_txn(
        byte_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let oracle_dir = tmpdir("flip-oracle");
        let (bytes, checkpoints) = committed_prefix_oracle(&oracle_dir);
        let (prev_len, prev_digest) = checkpoints[checkpoints.len() - 2].clone();
        let dir = tmpdir("flip-replay");

        let group = bytes.len() - prev_len;
        let target = prev_len + ((byte_frac * group as f64) as usize).min(group - 1);
        let mut damaged = bytes.clone();
        damaged[target] ^= 1 << bit;
        std::fs::write(dir.join("wal.log"), &damaged).unwrap();

        let (db, _) = Database::open(&config(&dir)).expect("never panics, never errors");
        prop_assert_eq!(db.state_fingerprint(), prev_digest);
        std::fs::remove_dir_all(&oracle_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
