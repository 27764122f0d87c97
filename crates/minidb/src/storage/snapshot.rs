//! Snapshot compaction: the full committed state as one committed WAL
//! group, in the WAL's own frames and records (`wal` is the only codec):
//!
//! ```text
//! "MDBSNAP2"                 8-byte magic
//! Begin { txn: last_txn }    highest transaction id the snapshot covers
//! TableImage …               per table: schema, rows at their ids, free list
//! CreateView …               per view
//! CreateUser, Grant …        per user, then per held grant
//! Analyze …                  per analyzed table
//! Commit { txn: last_txn }
//! ```
//!
//! Loading applies the records to an empty state, all or nothing: a torn or
//! damaged frame, or anything but exactly one `Begin … Commit` group, is an
//! error, never a partial state. Writes go to a temp file that is fsynced
//! and atomically renamed over the target, so a crash mid-snapshot leaves
//! the previous snapshot intact. Replay skips WAL transactions at or below
//! `last_txn`, which makes the crash window between the rename and the WAL
//! truncation harmless: those transactions are recognized as applied.

use super::wal::{self, WalRecord};
use crate::error::{DbError, DbResult};
use crate::exec::DbState;
use crate::privilege::PrivilegeCatalog;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MDBSNAP2";

fn io_err(context: &str, e: std::io::Error) -> DbError {
    DbError::Storage(format!("{context}: {e}"))
}

fn corrupt(detail: impl Into<String>) -> DbError {
    DbError::Storage(format!("corrupt snapshot: {}", detail.into()))
}

/// Write a snapshot covering transactions up to and including `last_txn`.
/// Atomic: temp file + fsync + rename, then the directory is fsynced so the
/// rename itself is durable.
pub(crate) fn save(
    path: &Path,
    state: &DbState,
    privileges: &PrivilegeCatalog,
    last_txn: u64,
) -> DbResult<()> {
    let mut buf = MAGIC.to_vec();
    let mut put = |record: WalRecord| wal::frame(&mut buf, &record);
    put(WalRecord::Begin { txn: last_txn })?;
    let catalog = &state.catalog;
    for name in catalog.table_names() {
        let data = &state.data[name];
        put(WalRecord::TableImage {
            old_name: name.to_owned(),
            schema: catalog.table(name)?.clone(),
            slot_count: data.slot_count(),
            rows: data.rows_snapshot(),
            free: data.free_list(),
        })?;
    }
    for name in catalog.view_names() {
        let def = catalog.view(name).expect("catalog lists the view");
        put(WalRecord::CreateView {
            name: def.name.clone(),
            columns: def.columns.clone(),
            query_sql: sqlkit::format_select(&def.query),
        })?;
    }
    for name in privileges.user_names() {
        let user = privileges.user(name)?;
        put(WalRecord::CreateUser {
            name: name.to_owned(),
            superuser: user.superuser,
        })?;
        for (action, object) in user.grant_list() {
            put(WalRecord::Grant {
                user: name.to_owned(),
                action,
                object,
            })?;
        }
    }
    for name in catalog.analyzed_tables() {
        let stats = catalog.table_stats(name).expect("catalog lists the stats");
        put(WalRecord::Analyze {
            table: name.to_owned(),
            stats: stats.clone(),
        })?;
    }
    put(WalRecord::Commit { txn: last_txn })?;

    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create snapshot temp", e))?;
        f.write_all(&buf).map_err(|e| io_err("write snapshot", e))?;
        f.sync_data().map_err(|e| io_err("sync snapshot", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename snapshot into place", e))?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable; best-effort on filesystems that
        // refuse to open directories.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load a snapshot: returns the state, privileges, and the `last_txn` the
/// snapshot covers. Corruption is a typed error, never a panic and never a
/// partial state.
pub(crate) fn load(path: &Path) -> DbResult<(DbState, PrivilegeCatalog, u64)> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read snapshot", e))?;
    let Some(frames) = bytes.strip_prefix(MAGIC) else {
        return Err(if bytes.starts_with(b"MDBSNAP1") {
            DbError::Storage(
                "snapshot is in the retired MDBSNAP1 format; re-create the data directory".into(),
            )
        } else {
            corrupt("bad magic")
        });
    };
    let scanned = wal::scan(frames);
    if scanned.torn {
        let at = MAGIC.len() + scanned.valid_len;
        return Err(corrupt(format!("torn or damaged frame at byte {at}")));
    }
    let mut records = scanned.records.into_iter();
    let txn = match (records.next(), records.next_back()) {
        (Some(WalRecord::Begin { txn }), Some(WalRecord::Commit { txn: end })) if txn == end => txn,
        _ => return Err(corrupt("not one Begin … Commit group")),
    };
    let (mut state, mut privileges) = (DbState::default(), PrivilegeCatalog::new());
    for record in records {
        wal::apply_record(&mut state, &mut privileges, record)
            .map_err(|e| corrupt(e.to_string()))?;
    }
    Ok((state, privileges, txn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DbState, PrivilegeCatalog) {
        let (mut state, mut privileges) = crate::storage::baseline();
        for sql in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL CHECK (score >= 0.0))",
            "INSERT INTO t VALUES (1, 'a', 1.5)",
            "INSERT INTO t VALUES (2, 'b', 2.5)",
            "CREATE VIEW v AS SELECT name FROM t WHERE score > 1.0",
        ] {
            let stmt = sqlkit::parse_statement(sql).unwrap();
            let mut undo = Vec::new();
            crate::exec::execute(&mut state, &stmt, &mut undo).unwrap();
        }
        privileges.create_user("bob", false).unwrap();
        privileges
            .grant("bob", sqlkit::ast::Action::Select, "t")
            .unwrap();
        (state, privileges)
    }

    #[test]
    fn snapshot_round_trips() {
        let (state, privileges) = sample();
        let dir = std::env::temp_dir().join(format!("minidb-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.db");
        save(&path, &state, &privileges, 42).unwrap();
        let (state2, privileges2, txn) = load(&path).unwrap();
        assert_eq!(txn, 42);
        assert_eq!(state2.catalog.table_names(), state.catalog.table_names());
        let t = state2.catalog.table("t").unwrap();
        assert_eq!(t.checks.len(), 1);
        assert_eq!(
            state2.data["t"].rows_snapshot(),
            state.data["t"].rows_snapshot()
        );
        assert_eq!(state2.catalog.view_names(), vec!["v".to_owned()]);
        assert!(privileges2
            .user("bob")
            .unwrap()
            .has(sqlkit::ast::Action::Select, "t"));
        assert!(privileges2.user("admin").unwrap().superuser);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_format_is_named() {
        let dir = std::env::temp_dir().join(format!("minidb-snapv1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.db");
        std::fs::write(&path, b"MDBSNAP1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0").unwrap();
        match load(&path) {
            Err(DbError::Storage(msg)) => assert!(msg.contains("MDBSNAP1"), "{msg}"),
            other => panic!("expected a storage error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_typed_error() {
        let (state, privileges) = sample();
        let dir = std::env::temp_dir().join(format!("minidb-snapc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.db");
        save(&path, &state, &privileges, 1).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, DbError::Storage(_)), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
