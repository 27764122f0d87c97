//! DML execution (INSERT/UPDATE/DELETE) with full constraint enforcement:
//! NOT NULL, unique indexes (PK/UNIQUE), CHECK, and foreign keys in both
//! directions (outbound existence, inbound RESTRICT). Every applied change
//! pushes an [`UndoOp`] for transactional rollback.

use super::eval::{resolve_expr, row_matches, scope_cols_of, select_rows};
use super::{probe_index, DbState, QueryResult};
use crate::error::{DbError, DbResult};
use crate::expr::{self, eval, Scope, ScopeCol};
use crate::plan::ExecOptions;
use crate::planner::choose_probe;
use crate::schema::{ForeignKey, TableSchema};
use crate::storage::{RowId, TableData};
use crate::txn::UndoOp;
use crate::value::{Key, Row, Value};
use sqlkit::ast::{Delete, Expr, Insert, InsertSource, Update};

/// Validate a candidate row against schema constraints. `ignore` is the row
/// being replaced, for UPDATE.
fn validate_row(
    state: &DbState,
    schema: &TableSchema,
    row: &Row,
    ignore: Option<RowId>,
) -> DbResult<()> {
    // NOT NULL.
    for (i, col) in schema.columns.iter().enumerate() {
        if col.not_null && row[i].is_null() {
            return Err(DbError::ConstraintViolation(format!(
                "null value in column \"{}\" of \"{}\" violates not-null constraint",
                col.name, schema.name
            )));
        }
    }
    // Unique indexes (covers PK, single-column UNIQUE, and table UNIQUEs —
    // all materialized as unique indexes at DDL time).
    let data = state
        .data
        .get(&schema.name)
        .ok_or_else(|| DbError::UnknownTable(schema.name.clone()))?;
    for (name, idx) in &data.indexes {
        if idx.unique {
            let key = idx.key_of(row);
            if idx.would_conflict(&key, ignore) {
                return Err(DbError::ConstraintViolation(format!(
                    "duplicate key value violates unique constraint \"{name}\" on \"{}\"",
                    schema.name
                )));
            }
        }
    }
    // CHECK constraints (NULL result passes, per SQL).
    let scope_cols: Vec<ScopeCol> = schema
        .columns
        .iter()
        .map(|c| ScopeCol {
            binding: Some(schema.name.clone()),
            name: c.name.clone(),
        })
        .collect();
    for check in &schema.checks {
        let scope = Scope {
            columns: &scope_cols,
            values: row,
        };
        if expr::truth(&eval(check, &scope)?) == Some(false) {
            return Err(DbError::ConstraintViolation(format!(
                "row violates check constraint on \"{}\": {}",
                schema.name,
                sqlkit::format_expr(check)
            )));
        }
    }
    // Outbound foreign keys: referenced values must exist.
    for fk in &schema.foreign_keys {
        let local: Vec<usize> = schema.resolve_columns(&fk.columns)?;
        let key_vals: Vec<Value> = local.iter().map(|&i| row[i].clone()).collect();
        if key_vals.iter().any(Value::is_null) {
            continue; // SQL MATCH SIMPLE: NULLs pass.
        }
        if !foreign_key_target_exists(state, fk, &key_vals)? {
            return Err(DbError::ConstraintViolation(format!(
                "insert or update on \"{}\" violates foreign key to \"{}\" ({:?} not present)",
                schema.name,
                fk.foreign_table,
                key_vals.iter().map(Value::render).collect::<Vec<_>>()
            )));
        }
    }
    Ok(())
}

pub(crate) fn foreign_key_target_exists(
    state: &DbState,
    fk: &ForeignKey,
    key: &[Value],
) -> DbResult<bool> {
    let target_schema = state.catalog.table(&fk.foreign_table)?;
    let target_data = state
        .data
        .get(&fk.foreign_table)
        .ok_or_else(|| DbError::UnknownTable(fk.foreign_table.clone()))?;
    let positions = target_schema.resolve_columns(&fk.foreign_columns)?;
    Ok(rows_match_key(target_data, &positions, key))
}

/// Whether any live row matches `key` (SQL equality) at `positions`. Uses
/// an exactly-matching index as a pre-filter when one exists, re-verifying
/// candidates with `sql_eq` so the answer is identical to the scan.
pub(crate) fn rows_match_key(data: &TableData, positions: &[usize], key: &[Value]) -> bool {
    let sql_matches = |row: &Row| {
        positions
            .iter()
            .zip(key)
            .all(|(&p, k)| row[p].sql_eq(k) == Some(true))
    };
    for idx in data.indexes.values() {
        if idx.columns == positions {
            return idx
                .lookup(&Key(key.to_vec()))
                .into_iter()
                .filter_map(|rid| data.get(rid))
                .any(sql_matches);
        }
    }
    data.iter().any(|(_, row)| sql_matches(row))
}

/// RESTRICT check: error if any row in another table references `key_vals`
/// in `table`'s columns at `positions`.
fn check_inbound_references(state: &DbState, table: &str, old_row: &Row) -> DbResult<()> {
    let schema = state.catalog.table(table)?;
    for other in state.catalog.referencing_tables(table) {
        for fk in other
            .foreign_keys
            .iter()
            .filter(|f| f.foreign_table == table)
        {
            let target_pos = schema.resolve_columns(&fk.foreign_columns)?;
            let key: Vec<Value> = target_pos.iter().map(|&i| old_row[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            let other_data = state
                .data
                .get(&other.name)
                .ok_or_else(|| DbError::UnknownTable(other.name.clone()))?;
            let local_pos = other.resolve_columns(&fk.columns)?;
            if rows_match_key(other_data, &local_pos, &key) {
                return Err(DbError::ConstraintViolation(format!(
                    "row in \"{table}\" is still referenced by \"{}\"",
                    other.name
                )));
            }
        }
    }
    Ok(())
}

pub(super) fn reject_view_dml(state: &DbState, name: &str) -> DbResult<()> {
    if state.catalog.view(name).is_some() {
        return Err(DbError::Execution(format!(
            "\"{name}\" is a view; views are read-only"
        )));
    }
    Ok(())
}

/// Resolve the uncorrelated subqueries of a DML expression to constants.
fn resolved(state: &DbState, e: &Expr) -> DbResult<Expr> {
    let mut e = e.clone();
    resolve_expr(state, &mut e, &ExecOptions::default())?;
    Ok(e)
}

/// Candidate `(rid, row)` pairs for UPDATE/DELETE, before the caller applies
/// the full predicate: an index probe when the planner's access-path
/// chooser prices one under the scan, otherwise every live row.
fn candidates(
    state: &DbState,
    table: &str,
    predicate: Option<&Expr>,
) -> DbResult<Vec<(RowId, Row)>> {
    let data = state
        .data
        .get(table)
        .ok_or_else(|| DbError::UnknownTable(table.to_owned()))?;
    let rids = match predicate.and_then(|p| choose_probe(state, table, table, p, None)) {
        Some(probe) => probe_index(data, table, &probe.index, &probe.key)?,
        None => return Ok(data.iter().map(|(rid, r)| (rid, r.clone())).collect()),
    };
    Ok(rids
        .into_iter()
        .filter_map(|rid| data.get(rid).map(|r| (rid, r.clone())))
        .collect())
}

pub(super) fn execute_insert(
    state: &mut DbState,
    ins: &Insert,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    reject_view_dml(state, &ins.table)?;
    let schema = state.catalog.table(&ins.table)?.clone();
    // Resolve target column positions.
    let targets: Vec<usize> = if ins.columns.is_empty() {
        (0..schema.columns.len()).collect()
    } else {
        schema.resolve_columns(&ins.columns)?
    };
    // Materialize source rows.
    let source_rows: Vec<Row> = match &ins.source {
        InsertSource::Values(rows) => {
            let scope = Scope {
                columns: &[],
                values: &[],
            };
            let mut out = Vec::with_capacity(rows.len());
            for row_exprs in rows {
                let mut resolved = Vec::with_capacity(row_exprs.len());
                for e in row_exprs {
                    resolved.push(eval(&self::resolved(state, e)?, &scope)?);
                }
                out.push(resolved);
            }
            out
        }
        InsertSource::Select(sel) => select_rows(state, sel, &ExecOptions::default())?,
    };
    let mut inserted = 0usize;
    for source in source_rows {
        if source.len() != targets.len() {
            return Err(DbError::Execution(format!(
                "INSERT has {} values but {} target column(s)",
                source.len(),
                targets.len()
            )));
        }
        // Start from defaults.
        let mut row: Row = schema
            .columns
            .iter()
            .map(|c| c.default.clone().unwrap_or(Value::Null))
            .collect();
        for (&pos, value) in targets.iter().zip(source) {
            row[pos] = value
                .coerce_to(schema.columns[pos].ty)
                .map_err(DbError::TypeError)?;
        }
        validate_row(state, &schema, &row, None)?;
        let data = state
            .data
            .get_mut(&ins.table)
            .ok_or_else(|| DbError::UnknownTable(ins.table.clone()))?;
        let rid = data.insert(row);
        undo.push(UndoOp::Insert {
            table: ins.table.clone(),
            rid,
        });
        inserted += 1;
    }
    Ok(QueryResult::Affected(inserted))
}

pub(super) fn execute_update(
    state: &mut DbState,
    up: &Update,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    reject_view_dml(state, &up.table)?;
    let schema = state.catalog.table(&up.table)?.clone();
    let scope_cols = scope_cols_of(state, &up.table, &up.table)?;
    let assignments: Vec<(usize, Expr)> = up
        .assignments
        .iter()
        .map(|(name, e)| {
            let pos = schema
                .column_index(name)
                .ok_or_else(|| DbError::UnknownColumn(format!("{}.{name}", up.table)))?;
            Ok((pos, resolved(state, e)?))
        })
        .collect::<DbResult<_>>()?;
    let predicate = up
        .where_clause
        .as_ref()
        .map(|p| resolved(state, p))
        .transpose()?;

    // Phase 1: compute new rows (index-pruned when the predicate allows).
    let mut changes: Vec<(RowId, Row, Row)> = Vec::new();
    for (rid, row) in candidates(state, &up.table, predicate.as_ref())? {
        if let Some(pred) = &predicate {
            if !row_matches(&scope_cols, pred, &row)? {
                continue;
            }
        }
        let scope = Scope {
            columns: &scope_cols,
            values: &row,
        };
        let mut new_row = row.clone();
        for (pos, e) in &assignments {
            let v = eval(e, &scope)?;
            new_row[*pos] = v
                .coerce_to(schema.columns[*pos].ty)
                .map_err(DbError::TypeError)?;
        }
        changes.push((rid, row, new_row));
    }

    // Phase 2: validate and apply.
    let changed_positions: Vec<usize> = assignments.iter().map(|(p, _)| *p).collect();
    for (rid, old_row, new_row) in &changes {
        validate_row(state, &schema, new_row, Some(*rid))?;
        // If a referenced key column changes away from a referenced value,
        // restrict.
        let key_changed = changed_positions
            .iter()
            .any(|&p| old_row[p].sql_eq(&new_row[p]) != Some(true));
        if key_changed && !state.catalog.referencing_tables(&up.table).is_empty() {
            // Only restrict when the old key is actually referenced.
            let changed_names: Vec<&str> = changed_positions
                .iter()
                .map(|&p| schema.columns[p].name.as_str())
                .collect();
            let touches_referenced_cols = state
                .catalog
                .referencing_tables(&up.table)
                .iter()
                .flat_map(|t| t.foreign_keys.iter())
                .filter(|fk| fk.foreign_table == up.table)
                .any(|fk| {
                    fk.foreign_columns
                        .iter()
                        .any(|c| changed_names.contains(&c.as_str()))
                });
            if touches_referenced_cols {
                check_inbound_references(state, &up.table, old_row)?;
            }
        }
    }
    let count = changes.len();
    let data = state
        .data
        .get_mut(&up.table)
        .ok_or_else(|| DbError::UnknownTable(up.table.clone()))?;
    for (rid, old_row, new_row) in changes {
        data.update(rid, new_row);
        undo.push(UndoOp::Update {
            table: up.table.clone(),
            rid,
            old: old_row,
        });
    }
    Ok(QueryResult::Affected(count))
}

pub(super) fn execute_delete(
    state: &mut DbState,
    del: &Delete,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    reject_view_dml(state, &del.table)?;
    let scope_cols = scope_cols_of(state, &del.table, &del.table)?;
    let predicate = del
        .where_clause
        .as_ref()
        .map(|p| resolved(state, p))
        .transpose()?;
    let mut victims: Vec<(RowId, Row)> = Vec::new();
    for (rid, row) in candidates(state, &del.table, predicate.as_ref())? {
        let keep = match &predicate {
            Some(pred) => row_matches(&scope_cols, pred, &row)?,
            None => true,
        };
        if keep {
            victims.push((rid, row));
        }
    }
    // RESTRICT inbound references (ignoring rows deleted in this statement
    // would require FK graph analysis; we use the simple conservative rule).
    for (_, row) in &victims {
        check_inbound_references(state, &del.table, row)?;
    }
    let count = victims.len();
    let data = state
        .data
        .get_mut(&del.table)
        .ok_or_else(|| DbError::UnknownTable(del.table.clone()))?;
    for (rid, row) in victims {
        data.delete(rid);
        undo.push(UndoOp::Delete {
            table: del.table.clone(),
            rid,
            row,
        });
    }
    Ok(QueryResult::Affected(count))
}
