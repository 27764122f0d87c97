//! Statement execution, split into focused modules around an explicit
//! physical plan:
//!
//! - [`seq`] — the **sequential reference pipeline**: the semantic ground
//!   truth every optimized plan must reproduce row-for-row. Full scans on
//!   the calling thread only.
//! - [`volcano`] — the plan-driven executor: interprets the operator tree
//!   the cost-based planner ([`crate::planner`]) produces and records what
//!   each operator actually did on the tree itself.
//! - [`parallel`] — the one chunked fan-out helper and the operators built
//!   on it; only `volcano` reaches it.
//! - [`eval`] — shared sequential machinery: subquery resolution, filter /
//!   group / join kernels, aggregates, projection.
//! - [`dml`] / [`ddl`] — writes with constraint enforcement, schema changes,
//!   and `ANALYZE`.
//! - [`explain`] — renders the physical plan (with cost estimates, and
//!   measured row counts under `EXPLAIN ANALYZE`).
//!
//! A SELECT runs through exactly one of `seq` and `volcano`, chosen by
//! [`ExecOptions::planner`]. Every optimizer-chosen plan must produce rows
//! identical (content *and* order) to the sequential path; see
//! `crate::plan` for the invariants and the two sanctioned error-surfacing
//! divergences.

mod ddl;
mod dml;
mod eval;
mod explain;
mod parallel;
mod seq;
mod volcano;

pub(crate) use ddl::build_auto_indexes;
pub(crate) use dml::{foreign_key_target_exists, rows_match_key};
pub(crate) use eval::scope_cols_of;
pub(crate) use explain::explain;
pub(crate) use parallel::chunked;

use crate::error::{DbError, DbResult};
use crate::plan::ExecOptions;
use crate::planner::physical::PhysPlan;
use crate::schema::Catalog;
use crate::storage::{DataMap, RowId, TableData};
use crate::txn::UndoOp;
use crate::value::{Key, Row};
use sqlkit::ast::{Action, Select, Statement};

/// Mutable database state: catalog + per-table storage.
#[derive(Debug, Clone, Default)]
pub struct DbState {
    /// Table schemas.
    pub catalog: Catalog,
    /// Table storage, keyed by table name. Copy-on-write: cloning a
    /// `DbState` (MVCC snapshot / transaction workspace) shares every table
    /// until it is written.
    pub data: DataMap,
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A result set.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Output rows.
        rows: Vec<Row>,
    },
    /// Row count of a DML statement.
    Affected(usize),
    /// Status message of a DDL/TCL statement.
    Status(String),
}

impl QueryResult {
    /// Row count for any result kind.
    pub fn row_count(&self) -> usize {
        match self {
            QueryResult::Rows { rows, .. } => rows.len(),
            QueryResult::Affected(n) => *n,
            QueryResult::Status(_) => 0,
        }
    }
}

/// Rows a row-at-a-time loop processes between two deadline checks.
const DEADLINE_ROWS: usize = 1024;

/// Execute any statement except transaction control (handled by sessions).
/// DDL runs to completion once started: it never checks the call deadline.
pub(crate) fn execute(
    state: &mut DbState,
    stmt: &Statement,
    undo: &mut Vec<UndoOp>,
) -> DbResult<QueryResult> {
    let ddl = matches!(stmt.action(), Action::Create | Action::Drop | Action::Alter);
    let _ddl = ddl.then(crate::deadline::suspend);
    match stmt {
        Statement::Select(sel) => {
            execute_select(state, sel, &ExecOptions::default()).map(|(result, _)| result)
        }
        Statement::Insert(ins) => dml::execute_insert(state, ins, undo),
        Statement::Update(up) => dml::execute_update(state, up, undo),
        Statement::Delete(del) => dml::execute_delete(state, del, undo),
        Statement::CreateTable(ct) => ddl::execute_create_table(state, ct, undo),
        Statement::DropTable(dt) => {
            let mut total = 0;
            for name in &dt.names {
                total += ddl::execute_drop_table(state, name, dt.if_exists, &dt.names, undo)?;
            }
            Ok(QueryResult::Status(format!("dropped {total} table(s)")))
        }
        Statement::CreateView(cv) => ddl::execute_create_view(state, cv, undo),
        Statement::DropView { name, if_exists } => {
            ddl::execute_drop_view(state, name, *if_exists, undo)
        }
        Statement::CreateIndex(ci) => ddl::execute_create_index(state, ci, undo),
        Statement::AlterTable(at) => ddl::execute_alter(state, at, undo),
        Statement::Analyze { table } => ddl::execute_analyze(state, table.as_deref(), undo),
        Statement::Begin
        | Statement::Commit
        | Statement::Rollback
        | Statement::Savepoint(_)
        | Statement::RollbackTo(_)
        | Statement::Release(_) => Err(DbError::TransactionState(
            "transaction control must go through a session".into(),
        )),
        Statement::GrantRevoke(_) => Err(DbError::Execution(
            "GRANT/REVOKE must go through the database facade".into(),
        )),
        Statement::Explain { stmt, analyze } => explain::explain(state, stmt, *analyze),
    }
}

/// Execute a SELECT against a read-only state snapshot: resolve subqueries
/// (plans are built over the resolved statement, exactly as the reference
/// pipeline evaluates it), then either plan + execute through the Volcano
/// tree — returning the executed plan, each node annotated with the rows it
/// actually emitted — or run the sequential reference pipeline (no plan)
/// when [`ExecOptions::planner`] is off.
pub(crate) fn execute_select(
    state: &DbState,
    sel: &Select,
    opts: &ExecOptions,
) -> DbResult<(QueryResult, Option<PhysPlan>)> {
    let sel = eval::resolve_select(state, sel, opts)?;
    if opts.planner {
        let mut plan = crate::planner::plan_select(state, &sel, opts)?;
        let result = volcano::execute_planned(state, &mut plan, opts)?;
        Ok((result, Some(plan)))
    } else {
        Ok((seq::execute_resolved(state, &sel, opts)?, None))
    }
}

/// Row ids an index probe returns. The plan names the index it chose from
/// this same state, so a missing index is an internal error — never a
/// silently different access path.
fn probe_index(data: &TableData, table: &str, index: &str, key: &Key) -> DbResult<Vec<RowId>> {
    let idx = data.indexes.get(index).ok_or_else(|| {
        DbError::Execution(format!(
            "internal error: planned index \"{index}\" is missing on \"{table}\""
        ))
    })?;
    Ok(idx.lookup(key))
}
