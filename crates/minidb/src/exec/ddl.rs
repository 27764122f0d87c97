//! DDL execution (CREATE/DROP/ALTER for tables, views, indexes) plus
//! ANALYZE, which collects the table statistics the cost-based planner
//! feeds on.

use super::{execute_select, DbState, QueryResult};
use crate::error::{DbError, DbResult};
use crate::expr::{eval, Scope};
use crate::plan::ExecOptions;
use crate::schema::{Column, ForeignKey, IndexDef, TableSchema};
use crate::storage::{RowId, TableData};
use crate::txn::UndoOp;
use crate::value::Value;
use sqlkit::ast::{AlterTable, CreateIndex, CreateTable, TableConstraint};

/// (Re)build the automatic indexes a table schema implies: unique ordered
/// indexes backing the primary key (`__pk`), single-column UNIQUEs
/// (`__unique_{col}`), and table UNIQUEs (`__uniques_{i}`), plus non-unique
/// *hash* indexes over each foreign key's local columns (`__fk_{i}`) so FK
/// validation and FK-keyed equality predicates probe instead of scanning.
/// Shared by CREATE TABLE and the ALTER TABLE DROP COLUMN rebuild so the
/// two can never drift.
pub(crate) fn build_auto_indexes(schema: &TableSchema, data: &mut TableData) -> DbResult<()> {
    if !schema.primary_key.is_empty() {
        let positions = schema.resolve_columns(&schema.primary_key)?;
        data.build_index("__pk", positions, true)
            .map_err(DbError::ConstraintViolation)?;
    }
    for col in schema.columns.iter().filter(|c| c.unique) {
        let pos = schema.column_index(&col.name).expect("own column");
        data.build_index(&format!("__unique_{}", col.name), vec![pos], true)
            .map_err(DbError::ConstraintViolation)?;
    }
    for (i, cols) in schema.uniques.iter().enumerate() {
        let positions = schema.resolve_columns(cols)?;
        data.build_index(&format!("__uniques_{i}"), positions, true)
            .map_err(DbError::ConstraintViolation)?;
    }
    for (i, fk) in schema.foreign_keys.iter().enumerate() {
        let positions = schema.resolve_columns(&fk.columns)?;
        data.build_index_kind(
            &format!("__fk_{i}"),
            positions,
            false,
            crate::storage::IndexKind::Hash,
        )
        .map_err(DbError::ConstraintViolation)?;
    }
    Ok(())
}

pub(super) fn execute_create_table(
    state: &mut DbState,
    ct: &CreateTable,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    if state.catalog.view(&ct.name).is_some() {
        return Err(DbError::AlreadyExists(ct.name.clone()));
    }
    if state.catalog.contains(&ct.name) {
        if ct.if_not_exists {
            return Ok(QueryResult::Status(format!(
                "table \"{}\" already exists, skipped",
                ct.name
            )));
        }
        return Err(DbError::AlreadyExists(ct.name.clone()));
    }
    let const_scope = Scope {
        columns: &[],
        values: &[],
    };
    let mut columns = Vec::new();
    let mut primary_key = Vec::new();
    let mut uniques = Vec::new();
    let mut foreign_keys = Vec::new();
    let mut checks = Vec::new();
    for cd in &ct.columns {
        if columns.iter().any(|c: &Column| c.name == cd.name) {
            return Err(DbError::AlreadyExists(format!("{}.{}", ct.name, cd.name)));
        }
        let default = match &cd.default {
            Some(e) => Some(
                eval(e, &const_scope)?
                    .coerce_to(cd.ty)
                    .map_err(DbError::TypeError)?,
            ),
            None => None,
        };
        if cd.primary_key {
            primary_key.push(cd.name.clone());
        }
        if let Some((t, c)) = &cd.references {
            foreign_keys.push(ForeignKey {
                columns: vec![cd.name.clone()],
                foreign_table: t.clone(),
                foreign_columns: vec![c.clone()],
            });
        }
        if let Some(check) = &cd.check {
            checks.push(check.clone());
        }
        columns.push(Column {
            name: cd.name.clone(),
            ty: cd.ty,
            not_null: cd.not_null || cd.primary_key,
            unique: cd.unique,
            default,
        });
    }
    for cons in &ct.constraints {
        match cons {
            TableConstraint::PrimaryKey(cols) => {
                if !primary_key.is_empty() {
                    return Err(DbError::ConstraintViolation(
                        "multiple primary keys declared".into(),
                    ));
                }
                primary_key = cols.clone();
                for c in cols {
                    if let Some(col) = columns.iter_mut().find(|col| &col.name == c) {
                        col.not_null = true;
                    }
                }
            }
            TableConstraint::Unique(cols) => uniques.push(cols.clone()),
            TableConstraint::ForeignKey {
                columns: c,
                foreign_table,
                foreign_columns,
            } => foreign_keys.push(ForeignKey {
                columns: c.clone(),
                foreign_table: foreign_table.clone(),
                foreign_columns: foreign_columns.clone(),
            }),
            TableConstraint::Check(e) => checks.push(e.clone()),
        }
    }
    let schema = TableSchema {
        name: ct.name.clone(),
        columns,
        primary_key: primary_key.clone(),
        uniques: uniques.clone(),
        foreign_keys: foreign_keys.clone(),
        checks,
        indexes: Vec::new(),
    };
    // Validate FK targets (allowing self-reference).
    for fk in &foreign_keys {
        let target = if fk.foreign_table == ct.name {
            &schema
        } else {
            state.catalog.table(&fk.foreign_table)?
        };
        if fk.columns.len() != fk.foreign_columns.len() {
            return Err(DbError::ConstraintViolation(
                "foreign key column count mismatch".into(),
            ));
        }
        target.resolve_columns(&fk.foreign_columns)?;
        schema.resolve_columns(&fk.columns)?;
    }
    // Materialize storage + automatic indexes (unique constraints + FK
    // probe accelerators).
    let mut data = TableData::new();
    build_auto_indexes(&schema, &mut data)?;
    state.catalog.add_table(schema)?;
    state.data.insert(ct.name.clone(), data);
    undo.push(UndoOp::CreateTable {
        name: ct.name.clone(),
    });
    Ok(QueryResult::Status(format!(
        "created table \"{}\"",
        ct.name
    )))
}

pub(super) fn execute_drop_table(
    state: &mut DbState,
    name: &str,
    if_exists: bool,
    all_dropped: &[String],
    undo: &mut Vec<UndoOp>,
) -> DbResult<usize> {
    if !state.catalog.contains(name) {
        if if_exists {
            return Ok(0);
        }
        return Err(DbError::UnknownTable(name.to_owned()));
    }
    // Inbound FK restriction, except from tables being dropped in the same
    // statement.
    let blockers: Vec<String> = state
        .catalog
        .referencing_tables(name)
        .iter()
        .map(|t| t.name.clone())
        .filter(|t| t != name && !all_dropped.contains(t))
        .collect();
    if !blockers.is_empty() {
        return Err(DbError::ConstraintViolation(format!(
            "cannot drop \"{name}\": referenced by {}",
            blockers.join(", ")
        )));
    }
    let schema = state.catalog.remove_table(name)?;
    let data = state.data.remove(name).unwrap_or_default();
    undo.push(UndoOp::DropTable {
        name: name.to_owned(),
        schema,
        data,
    });
    Ok(1)
}

pub(super) fn execute_create_view(
    state: &mut DbState,
    cv: &sqlkit::ast::CreateView,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    if state.catalog.contains_object(&cv.name) {
        return Err(DbError::AlreadyExists(cv.name.clone()));
    }
    // Validate the defining query and fix the output column names now.
    let (result, _) = execute_select(state, &cv.query, &ExecOptions::default())?;
    let columns = match result {
        QueryResult::Rows { columns, .. } => columns,
        _ => unreachable!("select returns rows"),
    };
    state.catalog.add_view(crate::schema::ViewDef {
        name: cv.name.clone(),
        query: cv.query.clone(),
        columns,
    })?;
    undo.push(UndoOp::CreateView {
        name: cv.name.clone(),
    });
    Ok(QueryResult::Status(format!("created view \"{}\"", cv.name)))
}

pub(super) fn execute_drop_view(
    state: &mut DbState,
    name: &str,
    if_exists: bool,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    if state.catalog.view(name).is_none() {
        if if_exists {
            return Ok(QueryResult::Status("no such view, skipped".into()));
        }
        if state.catalog.contains(name) {
            return Err(DbError::Execution(format!(
                "\"{name}\" is a table; use DROP TABLE"
            )));
        }
        return Err(DbError::UnknownTable(name.to_owned()));
    }
    let def = state.catalog.remove_view(name)?;
    undo.push(UndoOp::DropView { def });
    Ok(QueryResult::Status(format!("dropped view \"{name}\"")))
}

pub(super) fn execute_create_index(
    state: &mut DbState,
    ci: &CreateIndex,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    let schema = state.catalog.table(&ci.table)?.clone();
    if schema.indexes.iter().any(|i| i.name == ci.name) {
        return Err(DbError::AlreadyExists(ci.name.clone()));
    }
    let positions = schema.resolve_columns(&ci.columns)?;
    let data = state
        .data
        .get_mut(&ci.table)
        .ok_or_else(|| DbError::UnknownTable(ci.table.clone()))?;
    let def = IndexDef {
        name: ci.name.clone(),
        columns: ci.columns.clone(),
        unique: ci.unique,
    };
    data.build_index_kind(&ci.name, positions, ci.unique, def.kind())
        .map_err(DbError::ConstraintViolation)?;
    state.catalog.table_mut(&ci.table)?.indexes.push(def);
    undo.push(UndoOp::CreateIndex {
        table: ci.table.clone(),
        name: ci.name.clone(),
    });
    Ok(QueryResult::Status(format!(
        "created index \"{}\" on \"{}\"",
        ci.name, ci.table
    )))
}

pub(super) fn execute_alter(
    state: &mut DbState,
    at: &AlterTable,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    // Snapshot-based undo: cheap at our scale and trivially correct.
    let table_name = at.table().to_owned();
    let schema_before = state.catalog.table(&table_name)?.clone();
    let data_before = state
        .data
        .get(&table_name)
        .ok_or_else(|| DbError::UnknownTable(table_name.clone()))?
        .clone();
    let result = match at {
        AlterTable::AddColumn { table, column } => {
            let const_scope = Scope {
                columns: &[],
                values: &[],
            };
            let default = match &column.default {
                Some(e) => eval(e, &const_scope)?
                    .coerce_to(column.ty)
                    .map_err(DbError::TypeError)?,
                None => Value::Null,
            };
            if column.not_null && default.is_null() {
                return Err(DbError::ConstraintViolation(format!(
                    "cannot add NOT NULL column \"{}\" without a default",
                    column.name
                )));
            }
            let schema = state.catalog.table_mut(table)?;
            if schema.column_index(&column.name).is_some() {
                return Err(DbError::AlreadyExists(format!("{table}.{}", column.name)));
            }
            schema.columns.push(Column {
                name: column.name.clone(),
                ty: column.ty,
                not_null: column.not_null,
                unique: false,
                default: if default.is_null() {
                    None
                } else {
                    Some(default.clone())
                },
            });
            // Extend existing rows. Index keys are positional and unchanged.
            let data = state.data.get_mut(table).expect("checked above");
            let rids: Vec<RowId> = data.iter().map(|(rid, _)| rid).collect();
            for rid in rids {
                let mut row = data.get(rid).expect("live row").clone();
                row.push(default.clone());
                data.update(rid, row);
            }
            QueryResult::Status(format!("added column \"{}\" to \"{table}\"", column.name))
        }
        AlterTable::DropColumn { table, column } => {
            let schema = state.catalog.table_mut(table)?;
            let pos = schema
                .column_index(column)
                .ok_or_else(|| DbError::UnknownColumn(format!("{table}.{column}")))?;
            if schema.primary_key.contains(column) {
                return Err(DbError::ConstraintViolation(format!(
                    "cannot drop primary-key column \"{column}\""
                )));
            }
            schema.columns.remove(pos);
            schema.uniques.retain(|u| !u.contains(column));
            schema
                .foreign_keys
                .retain(|fk| !fk.columns.contains(column));
            schema.indexes.retain(|i| !i.columns.contains(column));
            // Drop the column from storage and rebuild indexes (positions
            // shift).
            let data = state.data.get_mut(table).expect("checked above");
            let mut rebuilt = TableData::new();
            let schema = state.catalog.table(table)?.clone();
            for (_, row) in data.iter() {
                let mut r = row.clone();
                r.remove(pos);
                rebuilt.insert(r);
            }
            build_auto_indexes(&schema, &mut rebuilt)?;
            for idx in &schema.indexes {
                let positions = schema.resolve_columns(&idx.columns)?;
                rebuilt
                    .build_index_kind(&idx.name, positions, idx.unique, idx.kind())
                    .map_err(DbError::ConstraintViolation)?;
            }
            *data = rebuilt;
            QueryResult::Status(format!("dropped column \"{column}\" from \"{table}\""))
        }
        AlterTable::RenameTable { table, new_name } => {
            state.catalog.rename_table(table, new_name)?;
            let data = state.data.remove(table).unwrap_or_default();
            state.data.insert(new_name.clone(), data);
            QueryResult::Status(format!("renamed \"{table}\" to \"{new_name}\""))
        }
    };
    undo.push(UndoOp::AlterSnapshot {
        table: table_name,
        schema: schema_before,
        data: data_before,
        renamed_to: match at {
            AlterTable::RenameTable { new_name, .. } => Some(new_name.clone()),
            _ => None,
        },
    });
    Ok(result)
}

// ---------------------------------------------------------------------------
// ANALYZE
// ---------------------------------------------------------------------------

/// `ANALYZE [table]`: collect row counts and per-column distinct/null
/// counts into the catalog, where the cost-based planner reads them. The
/// statistics participate in transactions (undo restores the previous
/// stats on rollback) and are durable (WAL record + snapshot section).
pub(super) fn execute_analyze(
    state: &mut DbState,
    table: Option<&str>,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    let names: Vec<String> = match table {
        Some(name) => {
            if state.catalog.view(name).is_some() {
                return Err(DbError::Execution(format!(
                    "cannot ANALYZE \"{name}\": it is a view"
                )));
            }
            // Errors on unknown tables.
            state.catalog.table(name)?;
            vec![name.to_owned()]
        }
        None => state
            .catalog
            .table_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
    };
    for name in &names {
        let data = state
            .data
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.clone()))?;
        let schema = state.catalog.table(name)?;
        let stats = crate::planner::stats::collect_table_stats(schema, data);
        let old = state.catalog.table_stats(name).cloned();
        state.catalog.set_table_stats(name, stats);
        undo.push(UndoOp::SetStats {
            table: name.clone(),
            old,
        });
    }
    Ok(QueryResult::Status(format!(
        "analyzed {} table(s)",
        names.len()
    )))
}
