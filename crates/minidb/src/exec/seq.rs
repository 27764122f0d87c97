//! The sequential reference pipeline: stage-at-a-time SELECT evaluation.
//!
//! This is the semantic ground truth. Every plan the cost-based planner
//! produces must yield rows identical — content *and* order — to this
//! pipeline (modulo the two sanctioned error-surfacing divergences
//! documented in [`crate::plan`]). It is kept deliberately simple — full
//! scans, materialized stages, the calling thread only; nothing it calls
//! can probe an index or spawn a thread — and is always reachable via
//! [`ExecOptions::sequential`], so differential tests can compare any
//! optimized plan against it. Its one switch, [`ExecOptions::hash_join`],
//! swaps the quadratic nested loop for a single-threaded hash join with the
//! same output, for oracles over inputs the nested loop cannot finish.

use super::eval;
use super::{DbState, QueryResult};
use crate::error::{DbError, DbResult};
use crate::expr::{self, ScopeCol};
use crate::plan::{self, ExecOptions};
use crate::value::{Key, Row, Value};
use sqlkit::ast::{JoinKind, Select};
use std::collections::BTreeMap;

/// Execute an already-resolved SELECT (no subqueries remain) stage by
/// stage: FROM/JOIN → WHERE → GROUP/HAVING or projection → ORDER BY →
/// DISTINCT → OFFSET/LIMIT.
pub(super) fn execute_resolved(
    state: &DbState,
    sel: &Select,
    opts: &ExecOptions,
) -> DbResult<QueryResult> {
    let (scope_cols, mut rows) = build_from(state, sel, opts)?;
    if let Some(pred) = &sel.where_clause {
        rows = eval::filter_rows(rows, &scope_cols, pred)?;
    }
    let has_aggregate = expr::select_aggregates(sel);
    let out_columns = eval::output_columns(sel, &scope_cols)?;

    // Each output row pairs the projected values with the rows that produced
    // it (one row, or a whole group) so ORDER BY can evaluate expressions
    // not present in the projection.
    let mut produced: Vec<(Row, Vec<Row>)> = if has_aggregate {
        // Group rows by GROUP BY keys (single group if none).
        let groups = if sel.group_by.is_empty() {
            BTreeMap::from([(Key(vec![]), rows)])
        } else {
            eval::group_rows(rows, &scope_cols, &sel.group_by)?
        };
        eval::aggregate_groups(sel, &scope_cols, groups)?
    } else {
        let mut produced = Vec::with_capacity(rows.len());
        for row in rows {
            let out = eval::project_row(sel, &scope_cols, &row)?;
            produced.push((out, vec![row]));
        }
        produced
    };

    // ORDER BY.
    if !sel.order_by.is_empty() {
        // Pre-compute sort keys.
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(produced.len());
        for (out, source_rows) in produced {
            let mut keys = Vec::with_capacity(sel.order_by.len());
            for item in &sel.order_by {
                keys.push(eval::order_key(
                    &item.expr,
                    sel,
                    &out_columns,
                    &out,
                    &scope_cols,
                    &source_rows,
                    has_aggregate,
                )?);
            }
            keyed.push((keys, out));
        }
        keyed.sort_by(|(ka, _), (kb, _)| eval::order_cmp(&sel.order_by, ka, kb));
        produced = keyed.into_iter().map(|(_, out)| (out, vec![])).collect();
    }

    let mut out_rows: Vec<Row> = produced.into_iter().map(|(out, _)| out).collect();

    // DISTINCT.
    if sel.distinct {
        let mut seen = std::collections::BTreeSet::new();
        out_rows.retain(|r| seen.insert(Key(r.clone())));
    }

    // OFFSET / LIMIT.
    if let Some(off) = sel.offset {
        let off = off as usize;
        out_rows = if off >= out_rows.len() {
            Vec::new()
        } else {
            out_rows.split_off(off)
        };
    }
    if let Some(lim) = sel.limit {
        out_rows.truncate(lim as usize);
    }

    Ok(QueryResult::Rows {
        columns: out_columns,
        rows: out_rows,
    })
}

/// Build the FROM/JOIN row set and its scope columns: a full scan of every
/// FROM item, joined left to right.
fn build_from(
    state: &DbState,
    sel: &Select,
    opts: &ExecOptions,
) -> DbResult<(Vec<ScopeCol>, Vec<Row>)> {
    let Some(from) = &sel.from else {
        // SELECT without FROM: one empty row.
        return Ok((Vec::new(), vec![Vec::new()]));
    };
    let mut cols = eval::scope_cols_of(state, from.binding(), &from.name)?;
    let mut rows = scan(state, &from.name, opts)?;
    for join in &sel.joins {
        let right_cols = eval::scope_cols_of(state, join.table.binding(), &join.table.name)?;
        let right_rows = scan(state, &join.table.name, opts)?;
        let equi = match (&join.on, opts.hash_join && join.kind != JoinKind::Cross) {
            (Some(on), true) => plan::analyze_equi_join(&cols, &right_cols, on).map(|e| (e, on)),
            _ => None,
        };
        let right_width = right_cols.len();
        cols.extend(right_cols);
        rows = match equi {
            Some((equi, on)) => {
                let matches = |combined: &Row| eval::row_matches(&cols, on, combined);
                let pad = (join.kind == JoinKind::Left).then_some(right_width);
                eval::HashJoin::build(
                    &right_rows,
                    &equi.left_keys,
                    &equi.right_keys,
                    pad,
                    &matches,
                )
                .probe(&rows)?
            }
            None => eval::nl_join_rows(
                &cols,
                &rows,
                &right_rows,
                right_width,
                join.kind,
                join.on.as_ref(),
            )?,
        };
    }
    Ok((cols, rows))
}

/// Every row of a FROM item, in row-id order. A view expands to its
/// defining query (definer semantics: privilege checks happened at the
/// session layer against the view object), run under the same options.
fn scan(state: &DbState, name: &str, opts: &ExecOptions) -> DbResult<Vec<Row>> {
    if let Some(view) = state.catalog.view(name) {
        return eval::select_rows(state, &view.query, opts);
    }
    let data = state
        .data
        .get(name)
        .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
    Ok(data.iter().map(|(_, r)| r.clone()).collect())
}
