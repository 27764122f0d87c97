//! EXPLAIN: render the physical plan the cost-based planner would choose,
//! with per-operator cost and cardinality estimates. `EXPLAIN ANALYZE`
//! additionally executes the plan and annotates each operator with the
//! rows it actually emitted.

use super::{eval, volcano, DbState, QueryResult};
use crate::error::DbResult;
use crate::plan::ExecOptions;
use crate::planner;
use crate::value::Value;
use sqlkit::ast::{Expr, InsertSource, Select, Statement};

/// Describe how a statement would run. For SELECTs this is the costed
/// physical operator tree; DML statements get a one-line access-path
/// summary (with the source plan inlined for INSERT ... SELECT).
pub(crate) fn explain(state: &DbState, stmt: &Statement, analyze: bool) -> DbResult<QueryResult> {
    let mut lines: Vec<String> = Vec::new();
    match stmt {
        Statement::Select(sel) => lines.extend(plan_lines(state, sel, analyze, 0)?),
        Statement::Insert(ins) => {
            state.catalog.table(&ins.table)?;
            let rows = match &ins.source {
                InsertSource::Values(v) => format!("{} row(s)", v.len()),
                InsertSource::Select(_) => "from subquery".to_owned(),
            };
            lines.push(format!("Insert on {} ({rows})", ins.table));
            if let InsertSource::Select(sel) = &ins.source {
                lines.extend(plan_lines(state, sel, false, 1)?);
            }
        }
        Statement::Update(up) => {
            state.catalog.table(&up.table)?;
            lines.push(format!(
                "Update on {} ({})",
                up.table,
                access_path(state, &up.table, up.where_clause.as_ref())
            ));
        }
        Statement::Delete(del) => {
            state.catalog.table(&del.table)?;
            lines.push(format!(
                "Delete on {} ({})",
                del.table,
                access_path(state, &del.table, del.where_clause.as_ref())
            ));
        }
        Statement::Analyze { table } => {
            lines.push(match table {
                Some(t) => format!("Analyze on {t} (collect row count and per-column statistics)"),
                None => {
                    "Analyze on all tables (collect row count and per-column statistics)".to_owned()
                }
            });
        }
        Statement::Explain { stmt, analyze } => return explain(state, stmt, *analyze),
        other => {
            lines.push(format!("Utility: {}", sqlkit::format_statement(other)));
        }
    }
    Ok(QueryResult::Rows {
        columns: vec!["plan".into()],
        rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
    })
}

/// Plan a SELECT (resolving subqueries exactly as execution would) and
/// render its operator tree — executed first for actual row counts when
/// `analyze` is set.
fn plan_lines(state: &DbState, sel: &Select, analyze: bool, depth: usize) -> DbResult<Vec<String>> {
    let opts = ExecOptions {
        // ANALYZE means "execute and measure": per-operator wall times ride
        // along with the row counts.
        profiling: analyze,
        ..ExecOptions::default()
    };
    let sel = eval::resolve_select(state, sel, &opts)?;
    let mut plan = planner::plan_select(state, &sel, &opts)?;
    if analyze {
        volcano::execute_planned(state, &mut plan, &opts)?;
    }
    let pad = "  ".repeat(depth);
    Ok(plan
        .render()
        .into_iter()
        .map(|l| format!("{pad}{l}"))
        .collect())
}

/// The access path UPDATE/DELETE candidate selection would take.
fn access_path(state: &DbState, table: &str, predicate: Option<&Expr>) -> &'static str {
    match predicate {
        Some(pred) if planner::choose_probe(state, table, table, pred, None).is_some() => {
            "index scan"
        }
        Some(_) => "seq scan",
        None => "seq scan, all rows",
    }
}
