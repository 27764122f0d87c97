//! The plan-driven executor: interprets the physical operator tree the
//! cost-based planner produces, obeying every decision recorded on it —
//! access path, join algorithm and keys, scan worker count. The one thing it
//! sizes itself is the fan-out of a filter, grouping pass or hash-join probe
//! over intermediate rows: the planner's rule (`planner::workers_for`) applied
//! to the rows that actually arrived, which no estimate can stand in for.
//!
//! Operators are *blocking* — each drains its child fully before producing
//! output — which preserves the reference pipeline's stage-at-a-time error
//! surfacing: the same expression evaluations happen in the same order, so
//! the first error raised is the same one. The single exception is the
//! sanctioned streaming pipeline (`Limit → Project → [Filter] → Seq Scan`)
//! the planner emits for LIMIT pushdown, which stops scanning once the
//! limit is filled.
//!
//! Every operator records the rows it emitted (and, under profiling, its
//! inclusive wall time) on its own plan node, so the executed tree is the
//! one report of what ran: `EXPLAIN ANALYZE` renders it and the SQL tools
//! derive their `plan.*` span attributes from it.

use super::{eval, parallel};
use super::{DbState, QueryResult};
use crate::error::{DbError, DbResult};
use crate::expr::ScopeCol;
use crate::plan::ExecOptions;
use crate::planner::physical::{PhysNode, PhysOp, PhysPlan};
use crate::planner::workers_for;
use crate::storage::TableData;
use crate::value::{Key, Row, Value};
use sqlkit::ast::{JoinKind, Select};
use std::collections::BTreeMap;
use std::time::Instant;

/// Execute a physical plan, annotating every node with its actual row
/// count and — when [`ExecOptions::profiling`] is set — its *inclusive*
/// wall time (each node's time contains its children's, so a child's time
/// never exceeds its parent's).
pub(super) fn execute_planned(
    state: &DbState,
    plan: &mut PhysPlan,
    opts: &ExecOptions,
) -> DbResult<QueryResult> {
    let ctx = Ctx {
        state,
        opts,
        sel: &plan.sel,
        scope_cols: &plan.scope_cols,
        has_aggregate: plan.has_aggregate,
    };
    let columns = eval::output_columns(ctx.sel, ctx.scope_cols)?;
    let rows = match ctx.try_streaming(&mut plan.root)? {
        Some(rows) => rows,
        None => ctx.exec_rows(&mut plan.root)?,
    };
    Ok(QueryResult::Rows { columns, rows })
}

struct Ctx<'a> {
    state: &'a DbState,
    opts: &'a ExecOptions,
    sel: &'a Select,
    scope_cols: &'a [ScopeCol],
    has_aggregate: bool,
}

impl Ctx<'_> {
    /// Run one operator, recording its output row count and — when
    /// profiling — its inclusive wall time on the node. One `Instant` pair
    /// per operator *dispatch*, not per row, so disabled profiling is a
    /// single branch. A node that dispatches through two frames (Project
    /// via both `exec_rows` and `exec_produce`) is written twice; the outer
    /// frame finishes last with the larger, still-inclusive figure.
    fn measured<T>(
        &self,
        node: &mut PhysNode,
        body: impl FnOnce(&Self, &mut PhysNode) -> DbResult<Vec<T>>,
    ) -> DbResult<Vec<T>> {
        let started = self.opts.profiling.then(Instant::now);
        let out = body(self, node)?;
        node.actual_rows = Some(out.len() as u64);
        node.actual_ns = started.map(|t| t.elapsed().as_nanos() as u64);
        Ok(out)
    }

    fn table(&self, table: &str) -> DbResult<&TableData> {
        self.state
            .data
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))
    }

    // -- streaming pipeline -------------------------------------------------

    /// If the root is the planner's streaming early-exit pipeline
    /// (`Limit → Project → [Filter] → Seq Scan`), run it row-at-a-time and
    /// stop once the limit is filled. Rows before the limit — including
    /// offset-skipped ones — are filtered and projected exactly as the
    /// reference pipeline would, so errors they raise still surface.
    fn try_streaming(&self, root: &mut PhysNode) -> DbResult<Option<Vec<Row>>> {
        let started = self.opts.profiling.then(Instant::now);
        let PhysOp::Limit {
            input: project,
            limit: Some(limit),
            offset,
            streaming: true,
        } = &mut root.op
        else {
            return Ok(None);
        };
        let PhysOp::Project {
            input: below,
            streaming: true,
        } = &mut project.op
        else {
            return Ok(None);
        };
        let (pred, filter, scan) = match &mut below.op {
            PhysOp::Filter {
                input,
                predicate,
                streaming: true,
                ..
            } => (Some(&*predicate), true, &mut **input),
            _ => (None, false, &mut **below),
        };
        let PhysOp::SeqScan {
            table,
            pushed: None,
            workers: 1,
            ..
        } = &scan.op
        else {
            return Ok(None);
        };
        let k = limit.saturating_add(*offset);
        let mut out = Vec::new();
        let (mut scanned, mut passed) = (0u64, 0u64);
        for (_, row) in self.table(table)?.iter() {
            if passed >= k {
                break;
            }
            scanned += 1;
            if let Some(pred) = pred {
                if !eval::row_matches(self.scope_cols, pred, row)? {
                    continue;
                }
            }
            let projected = eval::project_row(self.sel, self.scope_cols, row)?;
            if passed >= *offset {
                out.push(projected);
            }
            passed += 1;
        }
        // The fused pipeline executes all four operators per row, so
        // per-node time attribution is meaningless; each node is charged
        // the whole pipeline's time (inclusive semantics hold trivially).
        let ns = started.map(|t| t.elapsed().as_nanos() as u64);
        let emitted = out.len() as u64;
        let stamp = |node: &mut PhysNode, rows: u64| {
            node.actual_rows = Some(rows);
            node.actual_ns = ns;
        };
        stamp(scan, scanned);
        if filter {
            stamp(below, passed);
        }
        stamp(project, passed);
        stamp(root, emitted);
        Ok(Some(out))
    }

    // -- head operators (blocking) ------------------------------------------

    /// Execute a head operator (everything above the relational part),
    /// producing final output rows.
    fn exec_rows(&self, node: &mut PhysNode) -> DbResult<Vec<Row>> {
        self.measured(node, |ctx, node| match &mut node.op {
            PhysOp::Limit {
                input,
                limit,
                offset,
                ..
            } => {
                let mut rows = ctx.exec_rows(input)?;
                let off = (*offset as usize).min(rows.len());
                rows.drain(..off);
                if let Some(lim) = limit {
                    rows.truncate(*lim as usize);
                }
                Ok(rows)
            }
            PhysOp::Distinct { input } => {
                let mut rows = ctx.exec_rows(input)?;
                let mut seen = std::collections::BTreeSet::new();
                rows.retain(|r| seen.insert(Key(r.clone())));
                Ok(rows)
            }
            PhysOp::Sort { input, top_k, .. } => {
                let produced = ctx.exec_produce(input)?;
                ctx.exec_sort(produced, *top_k)
            }
            PhysOp::Project { .. } | PhysOp::HashAggregate { .. } => {
                let produced = ctx.exec_produce(node)?;
                Ok(produced.into_iter().map(|(out, _)| out).collect())
            }
            _ => unreachable!("relational operator at head position"),
        })
    }

    /// Sort the produced pairs. Keys are computed for *every* row first
    /// (matching the reference pipeline's error surfacing), then either a
    /// full stable sort or — under ORDER-BY+LIMIT pushdown — a top-k
    /// selection whose output provably equals the stable sort's first `k`
    /// rows (the comparator is made total by tie-breaking on the original
    /// row index).
    fn exec_sort(
        &self,
        produced: Vec<(Row, Vec<Row>)>,
        top_k: Option<usize>,
    ) -> DbResult<Vec<Row>> {
        let sel = self.sel;
        let out_columns = eval::output_columns(sel, self.scope_cols)?;
        let mut keyed: Vec<(Vec<Value>, usize, Row)> = Vec::with_capacity(produced.len());
        for (i, (out, source_rows)) in produced.into_iter().enumerate() {
            let mut keys = Vec::with_capacity(sel.order_by.len());
            for item in &sel.order_by {
                keys.push(eval::order_key(
                    &item.expr,
                    sel,
                    &out_columns,
                    &out,
                    self.scope_cols,
                    &source_rows,
                    self.has_aggregate,
                )?);
            }
            keyed.push((keys, i, out));
        }
        // Total order: ORDER BY keys, ties broken by original index. With no
        // equal elements, an unstable partial selection + sort of the prefix
        // yields exactly the stable full sort's first k rows.
        let cmp = |a: &(Vec<Value>, usize, Row), b: &(Vec<Value>, usize, Row)| {
            eval::order_cmp(&sel.order_by, &a.0, &b.0).then(a.1.cmp(&b.1))
        };
        match top_k {
            Some(0) => keyed.clear(),
            Some(k) if k < keyed.len() => {
                keyed.select_nth_unstable_by(k - 1, cmp);
                keyed.truncate(k);
                keyed.sort_by(cmp);
            }
            _ => keyed.sort_by(|a, b| eval::order_cmp(&sel.order_by, &a.0, &b.0)),
        }
        Ok(keyed.into_iter().map(|(_, _, out)| out).collect())
    }

    /// Execute the producing operator (Project or HashAggregate), returning
    /// output rows paired with their source rows (for ORDER BY expressions
    /// not present in the projection).
    fn exec_produce(&self, node: &mut PhysNode) -> DbResult<Vec<(Row, Vec<Row>)>> {
        self.measured(node, |ctx, node| match &mut node.op {
            PhysOp::Project { input, .. } => {
                let rows = ctx.eval_rel(input, 0, false)?;
                let mut produced = Vec::with_capacity(rows.len());
                for row in rows {
                    let out = eval::project_row(ctx.sel, ctx.scope_cols, &row)?;
                    produced.push((out, vec![row]));
                }
                Ok(produced)
            }
            PhysOp::HashAggregate { input, .. } => {
                let rows = ctx.eval_rel(input, 0, false)?;
                let groups = if ctx.sel.group_by.is_empty() {
                    BTreeMap::from([(Key(vec![]), rows)])
                } else {
                    let workers = workers_for(rows.len());
                    parallel::group_rows(rows, ctx.scope_cols, &ctx.sel.group_by, workers)?
                };
                eval::aggregate_groups(ctx.sel, ctx.scope_cols, groups)
            }
            _ => unreachable!("producer must be Project or HashAggregate"),
        })
    }

    // -- relational operators (blocking) ------------------------------------

    fn table_width(&self, table: &str) -> usize {
        self.state
            .catalog
            .table(table)
            .map_or(0, |s| s.columns.len())
    }

    /// Width (visible columns) of a relational subtree, for slicing the
    /// plan's combined scope.
    fn width_of(&self, node: &PhysNode) -> usize {
        match &node.op {
            PhysOp::ResultRow => 0,
            PhysOp::SeqScan { table, .. } | PhysOp::IndexScan { table, .. } => {
                self.table_width(table)
            }
            PhysOp::ViewScan { view, .. } => {
                self.state.catalog.view(view).map_or(0, |v| v.columns.len())
            }
            PhysOp::Filter { input, .. } => self.width_of(input),
            PhysOp::NestedLoopJoin { left, right, .. } | PhysOp::HashJoin { left, right, .. } => {
                self.width_of(left) + self.width_of(right)
            }
            PhysOp::Restore { perm, .. } => perm.len(),
            _ => unreachable!("head operator in relational position"),
        }
    }

    /// Evaluate a relational subtree to its materialized rows. `base` is the
    /// subtree's column offset within the plan's combined scope.
    /// `append_seq` makes scans append a hidden `Value::Int` sequence column
    /// (reordered join chains restore the original row order from it).
    fn eval_rel(&self, node: &mut PhysNode, base: usize, append_seq: bool) -> DbResult<Vec<Row>> {
        self.measured(node, |ctx, node| match &mut node.op {
            PhysOp::ResultRow => Ok(vec![Vec::new()]),
            PhysOp::SeqScan {
                table,
                pushed: Some(pred),
                workers,
                ..
            } => {
                let cols = &ctx.scope_cols[base..base + ctx.table_width(table)];
                parallel::filter_scan(ctx.table(table)?, cols, pred, *workers)
            }
            PhysOp::SeqScan { table, .. } => {
                let rows = ctx.table(table)?.iter().map(|(_, r)| r.clone());
                Ok(if append_seq {
                    rows.enumerate()
                        .map(|(i, mut row)| {
                            row.push(Value::Int(i as i64));
                            row
                        })
                        .collect()
                } else {
                    rows.collect()
                })
            }
            PhysOp::IndexScan {
                table, index, key, ..
            } => {
                let data = ctx.table(table)?;
                Ok(super::probe_index(data, table, index, key)?
                    .into_iter()
                    .filter_map(|rid| data.get(rid).cloned())
                    .collect())
            }
            PhysOp::ViewScan { view, .. } => {
                let def = ctx
                    .state
                    .catalog
                    .view(view)
                    .ok_or_else(|| DbError::UnknownTable(view.clone()))?;
                eval::select_rows(ctx.state, &def.query, ctx.opts)
            }
            PhysOp::Filter {
                input, predicate, ..
            } => {
                let rows = ctx.eval_rel(input, base, false)?;
                let cols = &ctx.scope_cols[base..base + ctx.width_of(input)];
                let workers = workers_for(rows.len());
                parallel::filter_rows(rows, cols, predicate, workers)
            }
            PhysOp::NestedLoopJoin {
                left,
                right,
                kind,
                on,
            } => {
                let (wl, wr) = (ctx.width_of(left), ctx.width_of(right));
                let left_rows = ctx.eval_rel(left, base, false)?;
                let right_rows = ctx.eval_rel(right, base + wl, false)?;
                let cols = &ctx.scope_cols[base..base + wl + wr];
                eval::nl_join_rows(cols, &left_rows, &right_rows, wr, *kind, on.as_ref())
            }
            PhysOp::HashJoin {
                left,
                right,
                kind,
                on,
                left_keys,
                right_keys,
            } => {
                let (wl, wr) = (ctx.width_of(left), ctx.width_of(right));
                let left_rows = ctx.eval_rel(left, base, false)?;
                let right_rows = ctx.eval_rel(right, base + wl, false)?;
                let cols = &ctx.scope_cols[base..base + wl + wr];
                let matches = |combined: &Row| eval::row_matches(cols, on, combined);
                let pad = (*kind == JoinKind::Left).then_some(wr);
                let join = eval::HashJoin::build(&right_rows, left_keys, right_keys, pad, &matches);
                parallel::hash_probe(&join, &left_rows, workers_for(left_rows.len()))
            }
            PhysOp::KeyedHashJoin {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                // Children carry the hidden sequence columns; key positions
                // were computed by the planner against that widened layout.
                let left_rows = ctx.eval_rel(left, 0, true)?;
                let right_rows = ctx.eval_rel(right, 0, true)?;
                // The canonical key is a pre-filter; every candidate pair is
                // verified with SQL equality on each key column, so matching
                // is exactly the pure equi-conjunction the planner proved the
                // ON chain to be.
                let wl = left_rows.first().map_or(0, Vec::len);
                let matches = |combined: &Row| {
                    Ok(left_keys
                        .iter()
                        .zip(right_keys.iter())
                        .all(|(&lk, &rk)| combined[lk].sql_eq(&combined[wl + rk]) == Some(true)))
                };
                eval::HashJoin::build(&right_rows, left_keys, right_keys, None, &matches)
                    .probe(&left_rows)
            }
            PhysOp::Restore {
                input,
                perm,
                seq_positions,
            } => {
                let mut rows = ctx.eval_rel(input, 0, true)?;
                // Sort by the hidden sequence tuple in original FROM order.
                // The tuples are unique (one per source-row combination) and
                // the left-deep nested loop enumerates combinations in
                // lexicographic sequence order, so this reconstructs the
                // reference row order exactly.
                rows.sort_unstable_by(|a, b| {
                    seq_positions
                        .iter()
                        .map(|&p| a[p].total_cmp(&b[p]))
                        .find(|ord| ord.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                Ok(rows
                    .into_iter()
                    .map(|r| perm.iter().map(|&p| r[p].clone()).collect())
                    .collect())
            }
            _ => unreachable!("head operator in relational position"),
        })
    }
}
