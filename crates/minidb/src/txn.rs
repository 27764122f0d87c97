//! Transaction mechanics: undo logging and redo staging.
//!
//! Every mutating operation appends an [`UndoOp`] describing how to reverse
//! it. Under MVCC ([`crate::mvcc`]) transactions execute on a private
//! copy-on-write workspace, so the undo log's job is *local*: statement-level
//! atomicity (a failed statement rolls its partial effects out of the
//! workspace) and savepoints. Whole-transaction ROLLBACK just drops the
//! workspace. The undo log doubles as the transaction's *write set* for
//! commit-time conflict validation, and the [`CommitPipeline`] stages redo
//! records ([`WalRecord`]) in lockstep — the commit path replays them onto
//! the latest committed version when a merge is needed, and appends them to
//! the WAL as the durability point. Sessions run in autocommit mode unless
//! an explicit transaction is open — matching the PostgreSQL behaviour
//! BridgeScope's `begin`/`commit`/`rollback` tools rely on.

use crate::exec::DbState;
use crate::schema::TableSchema;
use crate::storage::{RowId, TableData, WalRecord};
use crate::value::Row;

/// One reversible step of a transaction.
#[derive(Debug, Clone)]
pub(crate) enum UndoOp {
    /// A row was inserted; undo deletes it.
    Insert {
        /// Table name.
        table: String,
        /// Inserted row id.
        rid: RowId,
    },
    /// A row was deleted; undo restores it at the same id.
    Delete {
        /// Table name.
        table: String,
        /// Deleted row id.
        rid: RowId,
        /// The deleted row.
        row: Row,
    },
    /// A row was updated; undo writes the old image back.
    Update {
        /// Table name.
        table: String,
        /// Updated row id.
        rid: RowId,
        /// Pre-update row image.
        old: Row,
    },
    /// A table was created; undo drops it.
    CreateTable {
        /// Table name.
        name: String,
    },
    /// A table was dropped; undo re-registers schema and data.
    DropTable {
        /// Table name.
        name: String,
        /// Schema at drop time.
        schema: TableSchema,
        /// Data at drop time.
        data: TableData,
    },
    /// A view was created; undo removes it.
    CreateView {
        /// View name.
        name: String,
    },
    /// A view was dropped; undo re-registers it.
    DropView {
        /// The dropped definition.
        def: crate::schema::ViewDef,
    },
    /// An index was created; undo removes it.
    CreateIndex {
        /// Table name.
        table: String,
        /// Index name.
        name: String,
    },
    /// `ANALYZE` installed table statistics; undo restores the previous
    /// stats (or removes them if the table was unanalyzed).
    SetStats {
        /// Table name.
        table: String,
        /// Statistics before the ANALYZE, if any.
        old: Option<crate::schema::TableStats>,
    },
    /// ALTER TABLE with snapshot-based undo.
    AlterSnapshot {
        /// Original table name.
        table: String,
        /// Schema before the ALTER.
        schema: TableSchema,
        /// Data before the ALTER.
        data: TableData,
        /// New name if the ALTER was a rename (so undo knows what to remove).
        renamed_to: Option<String>,
    },
}

/// Replay an undo log in reverse, restoring `state` to its pre-transaction
/// image.
pub(crate) fn rollback(state: &mut DbState, log: Vec<UndoOp>) {
    for op in log.into_iter().rev() {
        match op {
            UndoOp::Insert { table, rid } => {
                if let Some(data) = state.data.get_mut(&table) {
                    data.delete(rid);
                }
            }
            UndoOp::Delete { table, rid, row } => {
                if let Some(data) = state.data.get_mut(&table) {
                    data.restore(rid, row);
                }
            }
            UndoOp::Update { table, rid, old } => {
                if let Some(data) = state.data.get_mut(&table) {
                    data.update(rid, old);
                }
            }
            UndoOp::CreateTable { name } => {
                let _ = state.catalog.remove_table(&name);
                state.data.remove(&name);
            }
            UndoOp::DropTable { name, schema, data } => {
                let _ = state.catalog.add_table(schema);
                state.data.insert(name, data);
            }
            UndoOp::CreateView { name } => {
                let _ = state.catalog.remove_view(&name);
            }
            UndoOp::DropView { def } => {
                let _ = state.catalog.add_view(def);
            }
            UndoOp::CreateIndex { table, name } => {
                if let Some(data) = state.data.get_mut(&table) {
                    data.indexes.remove(&name);
                }
                if let Ok(schema) = state.catalog.table_mut(&table) {
                    schema.indexes.retain(|i| i.name != name);
                }
            }
            UndoOp::SetStats { table, old } => match old {
                Some(stats) => state.catalog.set_table_stats(&table, stats),
                None => {
                    state.catalog.take_table_stats(&table);
                }
            },
            UndoOp::AlterSnapshot {
                table,
                schema,
                data,
                renamed_to,
            } => {
                let current_name = renamed_to.as_deref().unwrap_or(&table);
                let _ = state.catalog.remove_table(current_name);
                state.data.remove(current_name);
                let _ = state.catalog.add_table(schema);
                state.data.insert(table, data);
            }
        }
    }
    // Indexes are maintained inside TableData's insert/restore/delete/update,
    // so undo replay keeps them in sync by construction. Cheap insurance in
    // debug builds: fail loudly if that invariant ever breaks.
    #[cfg(debug_assertions)]
    for (table, data) in state.data.iter() {
        if let Err(e) = data.verify_index_consistency() {
            panic!("index out of sync after rollback of table {table}: {e}");
        }
    }
}

/// Derive the logical *redo* records for a statement's undo ops. Must be
/// called immediately after the statement succeeds, while `state` reflects
/// exactly that statement: redo images (current row contents, current
/// schemas) are read from the live state, which is only correct before any
/// later statement touches the same rows.
pub(crate) fn redo_records(state: &DbState, ops: &[UndoOp]) -> Vec<WalRecord> {
    let mut records = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            UndoOp::Insert { table, rid } => {
                if let Some(row) = state.data.get(table).and_then(|d| d.get(*rid)) {
                    records.push(WalRecord::RowInsert {
                        table: table.clone(),
                        rid: *rid,
                        row: row.clone(),
                    });
                }
            }
            UndoOp::Delete { table, rid, .. } => {
                records.push(WalRecord::RowDelete {
                    table: table.clone(),
                    rid: *rid,
                });
            }
            UndoOp::Update { table, rid, .. } => {
                if let Some(row) = state.data.get(table).and_then(|d| d.get(*rid)) {
                    records.push(WalRecord::RowUpdate {
                        table: table.clone(),
                        rid: *rid,
                        row: row.clone(),
                    });
                }
            }
            UndoOp::CreateTable { name } => {
                if let Ok(schema) = state.catalog.table(name) {
                    records.push(WalRecord::CreateTable {
                        schema: schema.clone(),
                    });
                }
            }
            UndoOp::DropTable { name, .. } => {
                records.push(WalRecord::DropTable { name: name.clone() });
            }
            UndoOp::CreateView { name } => {
                if let Some(def) = state.catalog.view(name) {
                    records.push(WalRecord::CreateView {
                        name: def.name.clone(),
                        columns: def.columns.clone(),
                        query_sql: sqlkit::format_select(&def.query),
                    });
                }
            }
            UndoOp::DropView { def } => {
                records.push(WalRecord::DropView {
                    name: def.name.clone(),
                });
            }
            UndoOp::CreateIndex { table, name } => {
                if let Some(def) = state
                    .catalog
                    .table(table)
                    .ok()
                    .and_then(|s| s.indexes.iter().find(|i| &i.name == name))
                {
                    records.push(WalRecord::CreateIndex {
                        table: table.clone(),
                        def: def.clone(),
                    });
                }
            }
            UndoOp::SetStats { table, .. } => {
                if let Some(stats) = state.catalog.table_stats(table) {
                    records.push(WalRecord::Analyze {
                        table: table.clone(),
                        stats: stats.clone(),
                    });
                }
            }
            UndoOp::AlterSnapshot {
                table, renamed_to, ..
            } => {
                // Full re-image of the post-ALTER table (rare; see the
                // WalRecord::AlterRewrite docs for the trade-off).
                let current = renamed_to.as_deref().unwrap_or(table);
                if let (Ok(schema), Some(data)) =
                    (state.catalog.table(current), state.data.get(current))
                {
                    records.push(WalRecord::AlterRewrite {
                        old_name: table.clone(),
                        schema: schema.clone(),
                        slot_count: data.slot_count(),
                        rows: data.rows_snapshot(),
                        free: data.free_list(),
                    });
                }
            }
        }
    }
    records
}

/// Staged redo records for the session's open transaction. Statements stage
/// records as they succeed; COMMIT hands the batch to the storage engine in
/// one atomic append; ROLLBACK (or statement failure) discards the affected
/// suffix in lockstep with the undo log.
#[derive(Debug, Default)]
pub(crate) struct CommitPipeline {
    staged: Vec<WalRecord>,
}

impl CommitPipeline {
    /// Stage the redo records for one just-executed statement.
    pub(crate) fn stage(&mut self, state: &DbState, ops: &[UndoOp]) {
        self.staged.extend(redo_records(state, ops));
    }

    /// Number of staged records (savepoints remember this as a cut point).
    pub(crate) fn len(&self) -> usize {
        self.staged.len()
    }

    /// Discard staged records beyond `len` (statement failure / ROLLBACK TO).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.staged.truncate(len);
    }

    /// Take the staged batch for commit, leaving the pipeline empty.
    pub(crate) fn take(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.staged)
    }
}

/// Session transaction status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnStatus {
    /// Autocommit: every statement commits on success, rolls back on error.
    Autocommit,
    /// Inside an explicit BEGIN … COMMIT/ROLLBACK block.
    Explicit,
    /// A statement inside an explicit block failed; only ROLLBACK (or
    /// COMMIT, which degrades to rollback à la PostgreSQL) is accepted.
    Aborted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, QueryResult};
    use sqlkit::parse_statement;

    fn fresh() -> DbState {
        let mut state = DbState::default();
        let mut undo = Vec::new();
        for sql in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
            "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
        ] {
            execute(&mut state, &parse_statement(sql).unwrap(), &mut undo).unwrap();
        }
        state
    }

    fn run(state: &mut DbState, sql: &str, undo: &mut Vec<UndoOp>) -> QueryResult {
        execute(state, &parse_statement(sql).unwrap(), undo).unwrap()
    }

    fn count(state: &DbState, table: &str) -> usize {
        state.data[table].len()
    }

    #[test]
    fn rollback_insert_update_delete() {
        let mut state = fresh();
        let mut undo = Vec::new();
        run(&mut state, "INSERT INTO t VALUES (3, 'c')", &mut undo);
        run(&mut state, "UPDATE t SET v = 'z' WHERE id = 1", &mut undo);
        run(&mut state, "DELETE FROM t WHERE id = 2", &mut undo);
        assert_eq!(count(&state, "t"), 2);
        rollback(&mut state, undo);
        assert_eq!(count(&state, "t"), 2);
        // Row 1's value restored, row 2 back, row 3 gone.
        let rows: Vec<_> = state.data["t"].iter().map(|(_, r)| r.clone()).collect();
        assert!(rows
            .iter()
            .any(|r| r[1] == crate::value::Value::Text("a".into())));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn rollback_ddl() {
        let mut state = fresh();
        let mut undo = Vec::new();
        run(&mut state, "CREATE TABLE u (x INTEGER)", &mut undo);
        run(&mut state, "INSERT INTO u VALUES (1)", &mut undo);
        run(&mut state, "CREATE INDEX ix ON t (v)", &mut undo);
        run(&mut state, "DROP TABLE u", &mut undo);
        rollback(&mut state, undo);
        assert!(!state.catalog.contains("u"), "created table rolled back");
        assert!(
            !state.data["t"].indexes.contains_key("ix"),
            "index rolled back"
        );
    }

    #[test]
    fn rollback_drop_restores_data() {
        let mut state = fresh();
        let mut undo = Vec::new();
        run(&mut state, "DROP TABLE t", &mut undo);
        assert!(!state.catalog.contains("t"));
        rollback(&mut state, undo);
        assert!(state.catalog.contains("t"));
        assert_eq!(count(&state, "t"), 2);
    }

    #[test]
    fn rollback_alter_rename() {
        let mut state = fresh();
        let mut undo = Vec::new();
        run(&mut state, "ALTER TABLE t RENAME TO s", &mut undo);
        assert!(state.catalog.contains("s"));
        rollback(&mut state, undo);
        assert!(state.catalog.contains("t"));
        assert!(!state.catalog.contains("s"));
        assert_eq!(count(&state, "t"), 2);
    }

    #[test]
    fn rollback_alter_add_column() {
        let mut state = fresh();
        let mut undo = Vec::new();
        run(
            &mut state,
            "ALTER TABLE t ADD COLUMN extra INTEGER",
            &mut undo,
        );
        assert_eq!(state.catalog.table("t").unwrap().columns.len(), 3);
        rollback(&mut state, undo);
        assert_eq!(state.catalog.table("t").unwrap().columns.len(), 2);
        for (_, row) in state.data["t"].iter() {
            assert_eq!(row.len(), 2);
        }
    }
}
