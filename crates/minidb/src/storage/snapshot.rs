//! Snapshot compaction: the full committed state in one checksummed file.
//!
//! Layout:
//!
//! ```text
//! "MDBSNAP1"  (8-byte magic)
//! last_txn: u64 LE           — highest transaction id the snapshot covers
//! [len: u32 LE][crc32: u32 LE][payload]   — one frame, same as the WAL
//! ```
//!
//! The payload holds every table (schema + rows at their ids + allocation
//! state), every view (query as SQL text), and the privilege catalog.
//! Writes go to a temp file that is fsynced and atomically renamed over the
//! target, so a crash mid-snapshot leaves the previous snapshot intact.
//! Replay skips WAL transactions at or below `last_txn`, which makes the
//! crash window between the rename and the WAL truncation harmless: those
//! transactions are simply recognized as already applied.

use super::mem::TableData;
use super::wal::{self, Reader};
use crate::error::{DbError, DbResult};
use crate::exec::DbState;
use crate::privilege::PrivilegeCatalog;
use crate::schema::ViewDef;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MDBSNAP1";

fn io_err(context: &str, e: std::io::Error) -> DbError {
    DbError::Storage(format!("{context}: {e}"))
}

fn corrupt(detail: impl Into<String>) -> DbError {
    DbError::Storage(format!("corrupt snapshot: {}", detail.into()))
}

/// Serialize the full state into the snapshot payload (no header/frame).
fn encode(state: &DbState, privileges: &PrivilegeCatalog) -> Vec<u8> {
    let mut buf = Vec::new();
    let table_names = state.catalog.table_names();
    wal::put_u32(&mut buf, table_names.len() as u32);
    for name in &table_names {
        let schema = state.catalog.table(name).expect("catalog lists the table");
        let data = state.data.get(name).expect("data mirrors catalog");
        wal::put_schema(&mut buf, schema);
        wal::put_table_payload(
            &mut buf,
            data.slot_count(),
            &data.rows_snapshot(),
            &data.free_list(),
        );
    }
    let view_names = state.catalog.view_names();
    wal::put_u32(&mut buf, view_names.len() as u32);
    for name in &view_names {
        let def = state.catalog.view(name).expect("catalog lists the view");
        wal::put_str(&mut buf, &def.name);
        wal::put_strs(&mut buf, &def.columns);
        wal::put_str(&mut buf, &sqlkit::format_select(&def.query));
    }
    let users = privileges.user_names();
    wal::put_u32(&mut buf, users.len() as u32);
    for name in &users {
        let u = privileges.user(name).expect("catalog lists the user");
        wal::put_str(&mut buf, name);
        wal::put_bool(&mut buf, u.superuser);
        let grants = u.grant_list();
        wal::put_u32(&mut buf, grants.len() as u32);
        for (action, object) in &grants {
            buf.push(wal::action_tag(*action));
            wal::put_str(&mut buf, object);
        }
    }
    // Optimizer statistics, so ANALYZE survives checkpoint + restart.
    let analyzed = state.catalog.analyzed_tables();
    wal::put_u32(&mut buf, analyzed.len() as u32);
    for name in &analyzed {
        let stats = state
            .catalog
            .table_stats(name)
            .expect("catalog lists the analyzed table");
        wal::put_str(&mut buf, name);
        wal::put_stats(&mut buf, stats);
    }
    buf
}

fn decode(payload: &[u8]) -> DbResult<(DbState, PrivilegeCatalog)> {
    let mut r = Reader::new(payload);
    let mut state = DbState::default();
    let ntables = r.u32().map_err(corrupt)? as usize;
    for _ in 0..ntables {
        let schema = r.schema().map_err(corrupt)?;
        let (slot_count, rows, free) = r.table_payload().map_err(corrupt)?;
        let data: TableData = wal::rebuild_table(&schema, slot_count, rows, free)?;
        let name = schema.name.clone();
        state.catalog.add_table(schema)?;
        state.data.insert(name, data);
    }
    let nviews = r.u32().map_err(corrupt)? as usize;
    for _ in 0..nviews {
        let name = r.str().map_err(corrupt)?;
        let columns = r.strs().map_err(corrupt)?;
        let query_sql = r.str().map_err(corrupt)?;
        let query = wal::parse_select_sql(&query_sql).map_err(corrupt)?;
        state.catalog.add_view(ViewDef {
            name,
            query,
            columns,
        })?;
    }
    let mut privileges = PrivilegeCatalog::new();
    let nusers = r.u32().map_err(corrupt)? as usize;
    for _ in 0..nusers {
        let name = r.str().map_err(corrupt)?;
        let superuser = r.bool().map_err(corrupt)?;
        privileges.create_user(&name, superuser)?;
        let ngrants = r.u32().map_err(corrupt)? as usize;
        for _ in 0..ngrants {
            let action = r.action().map_err(corrupt)?;
            let object = r.str().map_err(corrupt)?;
            privileges.grant(&name, action, &object)?;
        }
    }
    let nstats = r.u32().map_err(corrupt)? as usize;
    for _ in 0..nstats {
        let name = r.str().map_err(corrupt)?;
        let stats = r.stats().map_err(corrupt)?;
        if state.catalog.contains(&name) {
            state.catalog.set_table_stats(&name, stats);
        }
    }
    if !r.is_done() {
        return Err(corrupt("trailing bytes after snapshot payload"));
    }
    Ok((state, privileges))
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
    let payload = encode(state, privileges);
    let mut buf = Vec::with_capacity(payload.len() + 24);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&last_txn.to_le_bytes());
    wal::put_u32(&mut buf, payload.len() as u32);
    wal::put_u32(&mut buf, wal::crc32(&payload));
    buf.extend_from_slice(&payload);

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
/// snapshot covers. Corruption is a typed error, never a panic.
pub(crate) fn load(path: &Path) -> DbResult<(DbState, PrivilegeCatalog, u64)> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read snapshot", e))?;
    if bytes.len() < 24 || &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic or short header"));
    }
    let last_txn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    if bytes.len() - 24 != len {
        return Err(corrupt(format!(
            "payload length mismatch: header says {len}, file has {}",
            bytes.len() - 24
        )));
    }
    let payload = &bytes[24..];
    if wal::crc32(payload) != crc {
        return Err(corrupt("payload CRC mismatch"));
    }
    let (state, privileges) = decode(payload)?;
    Ok((state, privileges, last_txn))
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
