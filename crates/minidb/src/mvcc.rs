//! MVCC snapshot isolation: the timestamp oracle, per-table version clocks,
//! write-set derivation, first-writer-wins validation, and commit-time merge.
//!
//! The design is optimistic. Every committed state of the database is an
//! immutable [`CommittedVersion`] (cheap to hold — table storage is
//! copy-on-write, see [`crate::storage::DataMap`]). A transaction captures
//! the latest version as its *snapshot* at BEGIN, executes against a private
//! workspace cloned from it, and at COMMIT:
//!
//! 1. **Fast path** — if no other transaction committed in between
//!    (`latest.ts == base.ts`), the workspace *is* the next version and is
//!    published directly.
//! 2. **Merge path** — otherwise the write set is validated against the
//!    clocks of everything committed since the snapshot (first writer wins;
//!    a [`DbError::SerializationConflict`] rolls the transaction back), the
//!    transaction's redo records are replayed onto the latest version (row
//!    ids of inserts are re-allocated so disjoint inserters never collide),
//!    and unique/foreign-key constraints are re-checked on the merged state
//!    to close write-skew windows the workspace could not see.
//!
//! Conflict granularity: row-level for UPDATE/DELETE (per-row commit
//! timestamps), table-level for DDL (schema clock), and database-level for
//! catalog-shape changes (create/drop/rename of tables and views). Reads
//! are never validated and never block — snapshot isolation, not
//! serializability — which is exactly the read-mostly trade BridgeScope's
//! agent workloads want.

use crate::error::{DbError, DbResult};
use crate::exec::{self, DbState};
use crate::privilege::PrivilegeCatalog;
use crate::storage::{wal, RowId, WalRecord};
use crate::txn::UndoOp;
use crate::value::{Row, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Commit timestamp: a monotonically increasing logical clock value.
pub(crate) type Ts = u64;

/// Global commit-timestamp allocator. Timestamps are assigned under the
/// commit lock immediately before the WAL group append, so WAL order and
/// timestamp order agree by construction.
#[derive(Debug)]
pub(crate) struct TimestampOracle(AtomicU64);

impl TimestampOracle {
    /// Oracle whose next allocation is `last + 1`.
    pub(crate) fn new(last: Ts) -> Self {
        TimestampOracle(AtomicU64::new(last))
    }

    /// The most recently allocated timestamp.
    pub(crate) fn last(&self) -> Ts {
        self.0.load(Ordering::SeqCst)
    }

    /// Allocate the next timestamp.
    pub(crate) fn next(&self) -> Ts {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// Last-writer commit timestamps for one table, at three granularities.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableClock {
    /// Commit ts of the last write of any kind (rows or schema).
    pub(crate) any_ts: Ts,
    /// Commit ts of the last schema change (CREATE/ALTER/index DDL).
    pub(crate) schema_ts: Ts,
    /// Per-row last-writer commit timestamps, indexed by `RowId`. Behind an
    /// `Arc` so cloning the clock map per commit shares untouched tables.
    rows: Arc<Vec<Ts>>,
}

impl TableClock {
    /// Commit ts of the last write to `rid` (0 = not written since the
    /// database's initial version).
    pub(crate) fn row_ts(&self, rid: RowId) -> Ts {
        self.rows.get(rid).copied().unwrap_or(0)
    }

    fn stamp_row(&mut self, rid: RowId, ts: Ts) {
        let rows = Arc::make_mut(&mut self.rows);
        if rows.len() <= rid {
            rows.resize(rid + 1, 0);
        }
        rows[rid] = ts;
    }
}

/// One immutable committed version of the entire database. Readers clone
/// the `Arc<CommittedVersion>` holding this and never take a lock again.
#[derive(Debug, Clone)]
pub struct CommittedVersion {
    /// Commit timestamp of the transaction that produced this version.
    pub ts: Ts,
    /// Catalog + table storage (copy-on-write).
    pub state: DbState,
    /// Users and grants as of this version.
    pub privileges: PrivilegeCatalog,
    /// Per-table version clocks used by first-writer-wins validation.
    pub(crate) clocks: BTreeMap<String, TableClock>,
    /// Commit ts of the last catalog-shape change (create/drop/rename of a
    /// table or view).
    pub(crate) catalog_ts: Ts,
}

impl CommittedVersion {
    /// Generation for *plan* caches: changes whenever either the committed
    /// state or the optimizer statistics change. Both inputs are monotonic,
    /// so the sum is too — a cached physical plan is valid exactly while
    /// the plan generation is unchanged.
    pub fn plan_generation(&self) -> u64 {
        self.ts.saturating_add(self.state.catalog.stats_epoch())
    }

    /// Distinct values of a column, in total order — the raw material for
    /// BridgeScope's `get_value` exemplar retrieval.
    pub fn column_values(&self, table: &str, column: &str) -> DbResult<Vec<Value>> {
        let schema = self.state.catalog.table(table)?;
        let pos = schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(format!("{table}.{column}")))?;
        let data = self
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
        let sets = exec::chunked(values, crate::planner::workers_for(data.len()), |part| {
            Ok(part
                .into_iter()
                .filter(|v| !v.is_null())
                .map(|v| crate::value::Key(vec![v.clone()]))
                .collect::<BTreeSet<_>>())
        })?;
        let mut merged = BTreeSet::new();
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
}

/// What one transaction wrote, at validation granularity. Derived from the
/// undo log, which records exactly the pre-existing state a transaction
/// disturbed.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    /// Per-table writes.
    pub tables: BTreeMap<String, TableWrites>,
    /// Whether the catalog shape changed (create/drop/rename table, view
    /// DDL).
    pub catalog: bool,
}

/// One table's entry in a [`WriteSet`].
#[derive(Debug, Default)]
pub(crate) struct TableWrites {
    /// Pre-existing rows this transaction updated or deleted, by snapshot
    /// row id. Rows both inserted and then touched inside the same
    /// transaction are excluded — they were never visible to anyone else.
    pub rows: BTreeSet<RowId>,
    /// Rows inserted by this transaction (workspace row ids; the merge path
    /// may re-allocate them).
    pub(crate) inserted: BTreeSet<RowId>,
    /// Old images of updated pre-existing rows (for removed-key FK checks).
    pub(crate) updated_old: Vec<Row>,
    /// Old images of deleted pre-existing rows.
    pub(crate) deleted_old: Vec<Row>,
    /// Schema-level DDL touched this table.
    pub ddl: bool,
    /// The table was created by this transaction (nothing pre-existing to
    /// validate against).
    pub created: bool,
}

impl WriteSet {
    fn table(&mut self, name: &str) -> &mut TableWrites {
        self.tables.entry(name.to_owned()).or_default()
    }
}

/// Derive a transaction's write set from its undo log.
pub(crate) fn write_set(ops: &[UndoOp]) -> WriteSet {
    let mut ws = WriteSet::default();
    for op in ops {
        match op {
            UndoOp::Insert { table, rid } => {
                ws.table(table).inserted.insert(*rid);
            }
            UndoOp::Delete { table, rid, row } => {
                let tw = ws.table(table);
                if !tw.inserted.remove(rid) {
                    tw.rows.insert(*rid);
                    tw.deleted_old.push(row.clone());
                }
            }
            UndoOp::Update { table, rid, old } => {
                let tw = ws.table(table);
                if !tw.inserted.contains(rid) {
                    tw.rows.insert(*rid);
                    tw.updated_old.push(old.clone());
                }
            }
            UndoOp::CreateTable { name } => {
                let tw = ws.table(name);
                tw.created = true;
                tw.ddl = true;
                ws.catalog = true;
            }
            UndoOp::DropTable { name, .. } => {
                ws.table(name).ddl = true;
                ws.catalog = true;
            }
            UndoOp::CreateView { .. } | UndoOp::DropView { .. } => {
                ws.catalog = true;
            }
            UndoOp::CreateIndex { table, .. } => {
                ws.table(table).ddl = true;
            }
            UndoOp::SetStats { table, .. } => {
                // A bare table entry: no row or ddl flags, so validation
                // only rejects a concurrent schema change on the same table
                // (the column layout the sample describes may have moved).
                // Concurrent row DML never conflicts with ANALYZE — stats
                // are advisory and last-writer-wins is fine.
                ws.table(table);
            }
            UndoOp::AlterSnapshot {
                table, renamed_to, ..
            } => {
                ws.table(table).ddl = true;
                ws.catalog = true;
                if let Some(new_name) = renamed_to {
                    let tw = ws.table(new_name);
                    tw.ddl = true;
                    tw.created = true;
                }
            }
        }
    }
    ws
}

fn conflict(table: &str, detail: impl Into<String>) -> DbError {
    DbError::SerializationConflict {
        table: table.to_owned(),
        detail: detail.into(),
    }
}

/// First-writer-wins validation: reject the write set if anything it
/// touched was written by a transaction that committed after `base_ts`
/// (this transaction's snapshot).
pub(crate) fn validate(ws: &WriteSet, base_ts: Ts, latest: &CommittedVersion) -> DbResult<()> {
    if ws.catalog && latest.catalog_ts > base_ts {
        return Err(conflict("<catalog>", "concurrent schema change"));
    }
    let default_clock = TableClock::default();
    for (name, tw) in &ws.tables {
        if tw.created {
            // Duplicate creations race through catalog_ts, checked above.
            continue;
        }
        if !latest.state.catalog.contains(name) {
            return Err(conflict(name, "table dropped by a concurrent transaction"));
        }
        let clock = latest.clocks.get(name).unwrap_or(&default_clock);
        if tw.ddl && clock.any_ts > base_ts {
            return Err(conflict(name, "concurrent write to DDL target"));
        }
        if clock.schema_ts > base_ts {
            return Err(conflict(name, "concurrent schema change to written table"));
        }
        for &rid in &tw.rows {
            if clock.row_ts(rid) > base_ts {
                return Err(conflict(
                    name,
                    format!("row {rid} written by a concurrent transaction"),
                ));
            }
        }
    }
    Ok(())
}

/// Result of replaying a validated transaction onto the latest version.
#[derive(Debug)]
pub(crate) struct MergeOutcome {
    /// The merged state (latest version + this transaction's writes).
    pub state: DbState,
    /// Privileges (unchanged by data transactions, cloned for the version).
    pub privileges: PrivilegeCatalog,
    /// The redo records with final row ids — what goes to the WAL and the
    /// clock stamps. Inserts may have been re-allocated.
    pub records: Vec<WalRecord>,
}

/// Replay a validated transaction's redo records onto `latest`, then
/// re-check unique and foreign-key constraints on the merged state.
///
/// Inserts are re-executed through normal slot allocation instead of
/// restored at their workspace row id: two transactions inserting into the
/// same table from the same snapshot would otherwise collide on the slot
/// both allocated, even though their writes are logically disjoint. Later
/// records of the same transaction referring to a re-allocated row are
/// remapped.
pub(crate) fn merge(
    latest: &CommittedVersion,
    ws: &WriteSet,
    records: &[WalRecord],
) -> DbResult<MergeOutcome> {
    let mut state = latest.state.clone();
    let mut privileges = latest.privileges.clone();
    let mut remap: HashMap<(String, RowId), RowId> = HashMap::new();
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        let rec = match rec.clone() {
            WalRecord::RowInsert { table, rid, row } => {
                let data = state
                    .data
                    .get_mut(&table)
                    .ok_or_else(|| conflict(&table, "insert target vanished during merge"))?;
                let new_rid = data.insert(row.clone());
                if new_rid != rid {
                    remap.insert((table.clone(), rid), new_rid);
                }
                WalRecord::RowInsert {
                    table,
                    rid: new_rid,
                    row,
                }
            }
            WalRecord::RowUpdate { table, rid, row } => {
                let rid = remap.get(&(table.clone(), rid)).copied().unwrap_or(rid);
                state
                    .data
                    .get_mut(&table)
                    .and_then(|data| data.update(rid, row.clone()))
                    .ok_or_else(|| conflict(&table, "updated row vanished during merge"))?;
                WalRecord::RowUpdate { table, rid, row }
            }
            WalRecord::RowDelete { table, rid } => {
                let rid = remap.get(&(table.clone(), rid)).copied().unwrap_or(rid);
                state
                    .data
                    .get_mut(&table)
                    .and_then(|data| data.delete(rid))
                    .ok_or_else(|| conflict(&table, "deleted row vanished during merge"))?;
                WalRecord::RowDelete { table, rid }
            }
            other => {
                wal::apply_record(&mut state, &mut privileges, other.clone())?;
                other
            }
        };
        out.push(rec);
    }
    revalidate(&state, ws, &out)?;
    Ok(MergeOutcome {
        state,
        privileges,
        records: out,
    })
}

/// Re-check the constraints a workspace cannot see across transactions:
/// unique keys (two snapshots each inserting the same key), outbound
/// foreign keys (our child row's parent deleted concurrently), and removed
/// keys (our deleted/updated-away parent key referenced by a concurrently
/// committed child row).
fn revalidate(state: &DbState, ws: &WriteSet, records: &[WalRecord]) -> DbResult<()> {
    // Final written row ids per table, from the (remapped) records.
    let mut written: BTreeMap<&str, BTreeSet<RowId>> = BTreeMap::new();
    for rec in records {
        match rec {
            WalRecord::RowInsert { table, rid, .. } | WalRecord::RowUpdate { table, rid, .. } => {
                written.entry(table).or_default().insert(*rid);
            }
            WalRecord::RowDelete { table, rid } => {
                if let Some(set) = written.get_mut(table.as_str()) {
                    set.remove(rid);
                }
            }
            _ => {}
        }
    }
    for (table, rids) in &written {
        // Dropped/renamed later inside the same transaction: rows gone.
        let Ok(schema) = state.catalog.table(table) else {
            continue;
        };
        let Some(data) = state.data.get(table) else {
            continue;
        };
        for &rid in rids {
            let Some(row) = data.get(rid) else { continue };
            for (name, idx) in &data.indexes {
                if idx.unique && idx.would_conflict(&idx.key_of(row), Some(rid)) {
                    return Err(conflict(
                        table,
                        format!("unique index \"{name}\" violated by a concurrent write"),
                    ));
                }
            }
            for fk in &schema.foreign_keys {
                let positions = schema.resolve_columns(&fk.columns)?;
                let key: Vec<Value> = positions.iter().map(|&i| row[i].clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if !exec::foreign_key_target_exists(state, fk, &key)? {
                    return Err(conflict(
                        table,
                        format!(
                            "foreign key into \"{}\" lost its target to a concurrent write",
                            fk.foreign_table
                        ),
                    ));
                }
            }
        }
    }
    for (table, tw) in &ws.tables {
        if tw.deleted_old.is_empty() && tw.updated_old.is_empty() {
            continue;
        }
        let old_rows = tw.deleted_old.iter().chain(tw.updated_old.iter());
        check_removed_keys(state, table, old_rows)?;
    }
    Ok(())
}

/// RESTRICT across snapshots: for every old row image this transaction
/// removed (delete, or update moving a key), if the key no longer exists in
/// the merged parent table, no concurrently committed child row may
/// reference it.
fn check_removed_keys<'a>(
    state: &DbState,
    table: &str,
    old_rows: impl Iterator<Item = &'a Row> + Clone,
) -> DbResult<()> {
    let Ok(schema) = state.catalog.table(table) else {
        return Ok(()); // table dropped by this transaction; drop was validated
    };
    let Some(parent_data) = state.data.get(table) else {
        return Ok(());
    };
    for other in state.catalog.referencing_tables(table) {
        for fk in other
            .foreign_keys
            .iter()
            .filter(|f| f.foreign_table == table)
        {
            let target_pos = schema.resolve_columns(&fk.foreign_columns)?;
            let local_pos = other.resolve_columns(&fk.columns)?;
            let Some(child_data) = state.data.get(&other.name) else {
                continue;
            };
            for old_row in old_rows.clone() {
                let key: Vec<Value> = target_pos.iter().map(|&i| old_row[i].clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if exec::rows_match_key(parent_data, &target_pos, &key) {
                    continue; // key still present; children remain valid
                }
                if exec::rows_match_key(child_data, &local_pos, &key) {
                    return Err(conflict(
                        table,
                        format!(
                            "removed key still referenced by a concurrent write to \"{}\"",
                            other.name
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Build the next version's clocks: stamp every written table and row with
/// the commit timestamp. Must be called with the *final* (post-merge)
/// records so re-allocated insert ids are stamped where they actually
/// landed.
pub(crate) fn stamped_clocks(
    latest: &CommittedVersion,
    ws: &WriteSet,
    records: &[WalRecord],
    ts: Ts,
) -> (BTreeMap<String, TableClock>, Ts) {
    let mut clocks = latest.clocks.clone();
    for (name, tw) in &ws.tables {
        let clock = clocks.entry(name.clone()).or_default();
        clock.any_ts = ts;
        if tw.ddl {
            clock.schema_ts = ts;
        }
    }
    for rec in records {
        match rec {
            WalRecord::RowInsert { table, rid, .. }
            | WalRecord::RowUpdate { table, rid, .. }
            | WalRecord::RowDelete { table, rid } => {
                let clock = clocks.entry(table.clone()).or_default();
                clock.any_ts = ts;
                clock.stamp_row(*rid, ts);
            }
            WalRecord::DropTable { name } => {
                clocks.remove(name);
            }
            WalRecord::TableImage {
                old_name, schema, ..
            } => {
                // The rewrite re-images every row; a fresh clock with the
                // schema stamped at `ts` makes any concurrent row writer
                // (older snapshot) conflict via `schema_ts`.
                clocks.remove(old_name);
                let clock = clocks.entry(schema.name.clone()).or_default();
                *clock = TableClock::default();
                clock.any_ts = ts;
                clock.schema_ts = ts;
            }
            WalRecord::CreateTable { schema } => {
                let clock = clocks.entry(schema.name.clone()).or_default();
                clock.any_ts = ts;
                clock.schema_ts = ts;
            }
            _ => {}
        }
    }
    let catalog_ts = if ws.catalog { ts } else { latest.catalog_ts };
    (clocks, catalog_ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use sqlkit::parse_statement;

    fn run(state: &mut DbState, sql: &str, undo: &mut Vec<UndoOp>) {
        execute(state, &parse_statement(sql).unwrap(), undo).unwrap();
    }

    fn version(state: DbState, ts: Ts) -> CommittedVersion {
        CommittedVersion {
            ts,
            state,
            privileges: PrivilegeCatalog::new(),
            clocks: BTreeMap::new(),
            catalog_ts: 0,
        }
    }

    fn base_state() -> DbState {
        let mut state = DbState::default();
        let mut undo = Vec::new();
        run(
            &mut state,
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
            &mut undo,
        );
        run(
            &mut state,
            "INSERT INTO t VALUES (1, 10), (2, 20)",
            &mut undo,
        );
        state
    }

    #[test]
    fn oracle_is_monotonic() {
        let oracle = TimestampOracle::new(5);
        assert_eq!(oracle.last(), 5);
        assert_eq!(oracle.next(), 6);
        assert_eq!(oracle.next(), 7);
        assert_eq!(oracle.last(), 7);
    }

    #[test]
    fn write_set_classifies_ops() {
        let mut state = base_state();
        let mut undo = Vec::new();
        run(&mut state, "UPDATE t SET v = 11 WHERE id = 1", &mut undo);
        run(&mut state, "DELETE FROM t WHERE id = 2", &mut undo);
        run(&mut state, "INSERT INTO t VALUES (3, 30)", &mut undo);
        let ws = write_set(&undo);
        let tw = &ws.tables["t"];
        assert_eq!(tw.rows.len(), 2, "update + delete of pre-existing rows");
        assert_eq!(tw.inserted.len(), 1);
        assert_eq!(tw.updated_old.len(), 1);
        assert_eq!(tw.deleted_old.len(), 1);
        assert!(!ws.catalog);
    }

    #[test]
    fn write_set_cancels_insert_then_delete() {
        let mut state = base_state();
        let mut undo = Vec::new();
        run(&mut state, "INSERT INTO t VALUES (9, 90)", &mut undo);
        run(&mut state, "DELETE FROM t WHERE id = 9", &mut undo);
        let ws = write_set(&undo);
        let tw = &ws.tables["t"];
        assert!(
            tw.inserted.is_empty(),
            "own insert deleted: nothing visible"
        );
        assert!(tw.rows.is_empty(), "no pre-existing row touched");
    }

    #[test]
    fn validate_detects_row_conflict() {
        let mut latest = version(base_state(), 7);
        let mut clock = TableClock {
            any_ts: 7,
            ..TableClock::default()
        };
        clock.stamp_row(0, 7);
        latest.clocks.insert("t".into(), clock);
        // A write set from a snapshot at ts 5 touching row 0 must conflict…
        let mut ws = WriteSet::default();
        ws.table("t").rows.insert(0);
        let err = validate(&ws, 5, &latest).unwrap_err();
        assert!(err.is_serialization_conflict());
        // …but the same write set from a snapshot at ts 7 is fine.
        validate(&ws, 7, &latest).unwrap();
        // And a disjoint row is fine from the old snapshot too.
        let mut ws2 = WriteSet::default();
        ws2.table("t").rows.insert(1);
        validate(&ws2, 5, &latest).unwrap();
    }

    #[test]
    fn validate_detects_schema_and_catalog_conflicts() {
        let mut latest = version(base_state(), 9);
        latest.catalog_ts = 9;
        let clock = TableClock {
            any_ts: 9,
            schema_ts: 9,
            ..TableClock::default()
        };
        latest.clocks.insert("t".into(), clock);
        let mut row_writer = WriteSet::default();
        row_writer.table("t").rows.insert(1);
        assert!(validate(&row_writer, 5, &latest)
            .unwrap_err()
            .is_serialization_conflict());
        let ddl = WriteSet {
            catalog: true,
            ..WriteSet::default()
        };
        assert!(validate(&ddl, 5, &latest)
            .unwrap_err()
            .is_serialization_conflict());
        let mut dropped = WriteSet::default();
        dropped.table("gone").rows.insert(0);
        assert!(validate(&dropped, 5, &latest)
            .unwrap_err()
            .is_serialization_conflict());
    }

    #[test]
    fn merge_reallocates_colliding_inserts() {
        // Both txns insert from the same snapshot: same workspace rid.
        let snapshot = base_state();
        let latest_version = {
            let mut state = snapshot.clone();
            let mut undo = Vec::new();
            run(&mut state, "INSERT INTO t VALUES (3, 30)", &mut undo);
            version(state, 2)
        };
        let (ws, records) = {
            let mut state = snapshot;
            let mut undo = Vec::new();
            run(&mut state, "INSERT INTO t VALUES (4, 40)", &mut undo);
            let records = crate::txn::redo_records(&state, &undo);
            (write_set(&undo), records)
        };
        validate(&ws, 1, &latest_version).unwrap();
        let outcome = merge(&latest_version, &ws, &records).unwrap();
        assert_eq!(outcome.state.data["t"].len(), 4, "both inserts survive");
        // The merged insert landed on a fresh rid, reflected in the records.
        match &outcome.records[0] {
            WalRecord::RowInsert { rid, .. } => assert_eq!(*rid, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_rejects_concurrent_duplicate_key() {
        let snapshot = base_state();
        let latest_version = {
            let mut state = snapshot.clone();
            let mut undo = Vec::new();
            run(&mut state, "INSERT INTO t VALUES (3, 30)", &mut undo);
            version(state, 2)
        };
        let (ws, records) = {
            let mut state = snapshot;
            let mut undo = Vec::new();
            run(&mut state, "INSERT INTO t VALUES (3, 99)", &mut undo);
            let records = crate::txn::redo_records(&state, &undo);
            (write_set(&undo), records)
        };
        // Row-level validation passes (disjoint rows)…
        validate(&ws, 1, &latest_version).unwrap();
        // …but the unique re-check on the merged state catches the dup PK.
        let err = merge(&latest_version, &ws, &records).unwrap_err();
        assert!(err.is_serialization_conflict(), "{err}");
    }

    #[test]
    fn stamps_cover_written_rows_and_ddl() {
        let latest_version = version(base_state(), 3);
        let mut state = latest_version.state.clone();
        let mut undo = Vec::new();
        run(&mut state, "UPDATE t SET v = 99 WHERE id = 1", &mut undo);
        run(&mut state, "CREATE TABLE u (x INTEGER)", &mut undo);
        let records = crate::txn::redo_records(&state, &undo);
        let ws = write_set(&undo);
        let (clocks, catalog_ts) = stamped_clocks(&latest_version, &ws, &records, 4);
        assert_eq!(clocks["t"].any_ts, 4);
        assert_eq!(clocks["t"].row_ts(0), 4, "updated row stamped");
        assert_eq!(clocks["t"].row_ts(1), 0, "untouched row unstamped");
        assert_eq!(clocks["t"].schema_ts, 0, "no DDL on t");
        assert_eq!(clocks["u"].schema_ts, 4);
        assert_eq!(catalog_ts, 4, "CREATE TABLE moved the catalog clock");
    }
}
