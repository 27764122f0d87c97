//! The cost-based planner: lowers a (subquery-resolved) SELECT into an
//! explicit physical operator tree ([`physical::PhysPlan`]).
//!
//! The planner makes every physical decision, each driven by the cost model
//! in `cost` and refined by ANALYZE statistics (`stats`); the executor
//! obeys the tree:
//!
//! 1. **Access path** per base table (`choose_probe`): index probe vs
//!    sequential scan. A matching index is not enough — the probe must *win
//!    on cost*: on a column where every row holds the same value it is
//!    priced at the full table and loses. UPDATE/DELETE candidate selection
//!    asks the same chooser.
//! 2. **Join strategy** per join: hash vs nested loop, by cost. Hash is
//!    only *eligible* when equi-keys can be extracted from the ON
//!    condition; the node carries the key positions.
//! 3. **Join order** for chains of ≥2 inner joins whose ON conditions are
//!    pure equi-conjunctions over base tables: a greedy smallest-first
//!    order executed with keyed hash joins, followed by a
//!    `physical::PhysOp::Restore` that provably reconstructs the
//!    syntactic row order from hidden per-scan sequence numbers.
//! 4. **Pushdowns**: ORDER BY + LIMIT becomes a top-k sort; LIMIT without
//!    ORDER BY over a single filtered scan becomes a streaming early-exit
//!    pipeline.
//! 5. **Scan fan-out** (`workers_for`): how many threads a filtered
//!    base-table scan splits across. (Filters, grouping passes and hash-join
//!    probes over intermediate rows apply the same rule at run time, to the
//!    rows that actually arrive — an estimate would be the wrong input.)
//!
//! Every plan the planner emits must produce rows byte-identical (content
//! *and* order) to the sequential reference pipeline in `exec::seq`; the
//! differential suite in `tests/planner_differential.rs` enforces this.

pub(crate) mod cost;
pub(crate) mod physical;
pub(crate) mod stats;

use crate::error::DbResult;
use crate::exec::{scope_cols_of, DbState};
use crate::expr::{self, ScopeCol};
use crate::plan::{self, ExecOptions};
use crate::value::Key;
use physical::{PhysNode, PhysOp, PhysPlan};
use sqlkit::ast::{Expr, JoinKind, Select};
use std::sync::OnceLock;

/// Row estimate for a view expansion (views carry no statistics).
const VIEW_ROWS_ESTIMATE: f64 = 100.0;

/// One FROM item (base table or view) with what planning needs to know.
struct FromItem {
    name: String,
    binding: String,
    is_view: bool,
    rows: f64,
    width: usize,
}

/// The parallel rule: a stage over fewer than 4096 rows stays on the
/// calling thread; above that it fans out to at most min(cores, 8) workers,
/// each with at least 2048 rows (below that, threading overhead outweighs
/// the work). The core count is read once per process. The planner asks for
/// a base-table scan, whose size it knows exactly; the executor asks for a
/// filter, grouping pass or hash-join probe once the input rows have arrived.
pub(crate) fn workers_for(rows: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    workers_on(cores, rows)
}

fn workers_on(cores: usize, rows: usize) -> usize {
    const MAX_WORKERS: usize = 8;
    const MIN_ROWS_PER_WORKER: usize = 2048;
    cores
        .min(MAX_WORKERS)
        .min(rows / MIN_ROWS_PER_WORKER)
        .max(1)
}

/// An index probe the access-path chooser accepted.
pub(crate) struct Probe {
    /// Chosen index.
    pub index: String,
    /// Probe key: the pinned value of each index column.
    pub key: Key,
    /// Estimated candidate rows.
    pub(crate) est_rows: f64,
}

/// The access-path chooser for one base table: the best index `pred` fully
/// pins, provided probing it is estimated cheaper than `must_beat` (`None`
/// = the table's full sequential scan). `None` back means "scan". SELECT
/// lowering, the LIMIT-pushdown check, UPDATE/DELETE candidate selection
/// and EXPLAIN all ask here, so they cannot disagree.
pub(crate) fn choose_probe(
    state: &DbState,
    table: &str,
    binding: &str,
    pred: &Expr,
    must_beat: Option<f64>,
) -> Option<Probe> {
    let schema = state.catalog.table(table).ok()?;
    let data = state.data.get(table)?;
    let pinned = plan::equality_bindings(schema, binding, pred);
    let (index, _, key) = plan::choose_index(data, &pinned)?;
    let rows = data.len() as f64;
    let est_rows = cost::index_probe_estimate(state.catalog.table_stats(table), rows, &pinned);
    let must_beat = must_beat.unwrap_or_else(|| cost::seq_scan_cost(rows));
    (cost::index_scan_cost(est_rows) < must_beat).then(|| Probe {
        index: index.to_owned(),
        key,
        est_rows,
    })
}

/// A not-yet-executed plan node.
fn plan_node(est_rows: f64, cost: f64, op: PhysOp) -> PhysNode {
    PhysNode {
        est_rows,
        cost,
        actual_rows: None,
        actual_ns: None,
        op,
    }
}

struct Lowering<'a> {
    state: &'a DbState,
}

impl Lowering<'_> {
    fn item_of(&self, binding: &str, name: &str) -> DbResult<FromItem> {
        if let Some(view) = self.state.catalog.view(name) {
            return Ok(FromItem {
                name: name.to_owned(),
                binding: binding.to_owned(),
                is_view: true,
                rows: VIEW_ROWS_ESTIMATE,
                width: view.columns.len(),
            });
        }
        let schema = self.state.catalog.table(name)?;
        let rows = self.state.data.get(name).map_or(0, |d| d.len()) as f64;
        Ok(FromItem {
            name: name.to_owned(),
            binding: binding.to_owned(),
            is_view: false,
            rows,
            width: schema.columns.len(),
        })
    }

    /// A plain scan of a FROM item: no predicate pushdown, no access-path
    /// choice (used for join inputs, mirroring the reference pipeline).
    fn plain_scan(&self, item: &FromItem) -> PhysNode {
        if item.is_view {
            plan_node(
                item.rows,
                item.rows,
                PhysOp::ViewScan {
                    view: item.name.clone(),
                    binding: item.binding.clone(),
                },
            )
        } else {
            plan_node(
                item.rows,
                cost::seq_scan_cost(item.rows),
                PhysOp::SeqScan {
                    table: item.name.clone(),
                    binding: item.binding.clone(),
                    pushed: None,
                    workers: 1,
                },
            )
        }
    }

    /// Access-path choice for a single-table FROM with an optional WHERE.
    /// Returns the scan subtree (with any residual Filter already applied)
    /// plus whether the WHERE is fully applied inside it.
    fn single_table(
        &self,
        item: &FromItem,
        predicate: Option<&Expr>,
        streaming: bool,
    ) -> DbResult<(PhysNode, bool)> {
        if item.is_view {
            let scan = self.plain_scan(item);
            let node = match predicate {
                Some(pred) => {
                    filter_above(scan, pred, cost::generic_predicate_selectivity(pred), false)
                }
                None => scan,
            };
            return Ok((node, true));
        }
        let schema = self.state.catalog.table(&item.name)?;
        let stats = self.state.catalog.table_stats(&item.name);
        let rows = item.rows;
        let Some(pred) = predicate else {
            return Ok((self.plain_scan(item), true));
        };
        let selectivity = cost::predicate_selectivity(schema, stats, &item.binding, pred);
        let filtered = rows * selectivity;

        // Candidate 1: index probe + residual filter, when the chooser
        // prices it under the scan.
        if !streaming {
            if let Some(probe) = choose_probe(self.state, &item.name, &item.binding, pred, None) {
                let scan = plan_node(
                    probe.est_rows,
                    cost::index_scan_cost(probe.est_rows),
                    PhysOp::IndexScan {
                        table: item.name.clone(),
                        binding: item.binding.clone(),
                        index: probe.index,
                        key: probe.key,
                    },
                );
                let node = filter_above(scan, pred, selectivity.min(1.0), false);
                return Ok((node, true));
            }
        }

        // Candidate 2: parallel filtered scan (predicate evaluated inside
        // the scan workers). Not compatible with streaming early-exit.
        let workers = workers_for(rows as usize);
        if !streaming && workers >= 2 {
            let scan = plan_node(
                filtered,
                cost::seq_scan_cost(rows),
                PhysOp::SeqScan {
                    table: item.name.clone(),
                    binding: item.binding.clone(),
                    pushed: Some(pred.clone()),
                    workers,
                },
            );
            return Ok((scan, true));
        }

        // Candidate 3: plain scan + filter (streaming when requested).
        let scan = self.plain_scan(item);
        let node = filter_above(scan, pred, selectivity, streaming);
        Ok((node, true))
    }
}

/// A Filter over `input`.
fn filter_above(input: PhysNode, pred: &Expr, selectivity: f64, streaming: bool) -> PhysNode {
    let est = (input.est_rows * selectivity).max(0.0);
    let cost = input.cost + input.est_rows;
    plan_node(
        est,
        cost,
        PhysOp::Filter {
            input: Box::new(input),
            predicate: pred.clone(),
            streaming,
        },
    )
}

/// NDV of the first right-side join key column, when the right input is an
/// analyzed base table.
fn right_key_ndv(state: &DbState, item: &FromItem, right_keys: &[usize]) -> Option<u64> {
    if item.is_view {
        return None;
    }
    let stats = state.catalog.table_stats(&item.name)?;
    right_keys
        .first()
        .and_then(|&k| stats.column_distinct(k))
        .filter(|&n| n > 0)
}

/// An equi-edge between two FROM items: `(item, column) = (item, column)`.
#[derive(Debug, Clone, Copy)]
struct EquiEdge {
    a: (usize, usize),
    b: (usize, usize),
}

/// Lower a resolved SELECT into a physical plan. `sel` must already have
/// its subqueries resolved to constants (the executor does this before
/// planning, exactly as the reference pipeline does before executing).
///
/// No [`ExecOptions`] field changes the plan: `planner` chose this path,
/// `hash_join` is reference-only and `profiling` applies at execution. The
/// parameter stays because the e2ebench ladder calls this signature.
pub fn plan_select(state: &DbState, sel: &Select, _opts: &ExecOptions) -> DbResult<PhysPlan> {
    let lw = Lowering { state };

    // Combined FROM scope in syntactic order (also validates FROM items).
    let mut items: Vec<FromItem> = Vec::new();
    let mut scope_cols: Vec<ScopeCol> = Vec::new();
    if let Some(from) = &sel.from {
        items.push(lw.item_of(from.binding(), &from.name)?);
        scope_cols.extend(scope_cols_of(state, from.binding(), &from.name)?);
        for join in &sel.joins {
            items.push(lw.item_of(join.table.binding(), &join.table.name)?);
            scope_cols.extend(scope_cols_of(
                state,
                join.table.binding(),
                &join.table.name,
            )?);
        }
    }

    let has_aggregate = expr::select_aggregates(sel);

    // LIMIT pushdown: a single-table, non-aggregated, unordered,
    // non-distinct SELECT with a LIMIT can stop scanning early. Only
    // worthwhile when the expected rows scanned to fill the limit undercut
    // the full scan (and no index probe is already sublinear).
    let mut streaming = false;
    if sel.limit.is_some()
        && sel.joins.is_empty()
        && sel.order_by.is_empty()
        && !sel.distinct
        && !has_aggregate
    {
        if let Some(item) = items.first() {
            if !item.is_view {
                let k = (sel.limit.unwrap_or(0) + sel.offset.unwrap_or(0)) as f64;
                let schema = state.catalog.table(&item.name)?;
                let item_stats = state.catalog.table_stats(&item.name);
                let selectivity = sel.where_clause.as_ref().map_or(1.0, |p| {
                    cost::predicate_selectivity(schema, item_stats, &item.binding, p)
                });
                let expected_scan = (k / selectivity).min(item.rows);
                let index_available = sel.where_clause.as_ref().is_some_and(|p| {
                    choose_probe(state, &item.name, &item.binding, p, Some(expected_scan)).is_some()
                });
                if !index_available && expected_scan < item.rows {
                    streaming = true;
                }
            }
        }
    }

    // Relational part: FROM/JOIN + WHERE.
    let mut applied_where = false;
    let mut rel = match (&sel.from, items.len()) {
        (None, _) => plan_node(1.0, 0.0, PhysOp::ResultRow),
        (Some(_), 1) => {
            let (node, applied) =
                lw.single_table(&items[0], sel.where_clause.as_ref(), streaming)?;
            applied_where = applied;
            node
        }
        _ => plan_joins(&lw, state, sel, &items)?,
    };
    if let Some(pred) = &sel.where_clause {
        if !applied_where {
            let selectivity = cost::generic_predicate_selectivity(pred);
            rel = filter_above(rel, pred, selectivity, false);
        }
    }

    // Head operators.
    let mut head = if has_aggregate {
        let keys = sel.group_by.len();
        let est = if keys == 0 {
            1.0
        } else {
            (rel.est_rows * 0.1).max(1.0)
        };
        let cost = rel.cost + rel.est_rows * cost::EVAL_FACTOR;
        plan_node(
            est,
            cost,
            PhysOp::HashAggregate {
                input: Box::new(rel),
                keys,
            },
        )
    } else {
        let est = rel.est_rows;
        let cost = rel.cost + rel.est_rows;
        plan_node(
            est,
            cost,
            PhysOp::Project {
                input: Box::new(rel),
                streaming,
            },
        )
    };

    if !sel.order_by.is_empty() {
        // ORDER BY pushdown: a LIMIT above (with no DISTINCT in between)
        // bounds the sort to its first k rows.
        let top_k = if !sel.distinct {
            sel.limit.map(|l| (l + sel.offset.unwrap_or(0)) as usize)
        } else {
            None
        };
        let n = head.est_rows.max(1.0);
        let cost = head.cost
            + match top_k {
                Some(k) => n + (k as f64).max(1.0) * (k as f64 + 1.0).log2(),
                None => n * n.log2().max(1.0),
            };
        let est = match top_k {
            Some(k) => head.est_rows.min(k as f64),
            None => head.est_rows,
        };
        head = plan_node(
            est,
            cost,
            PhysOp::Sort {
                input: Box::new(head),
                keys: sel.order_by.len(),
                top_k,
            },
        );
    }

    if sel.distinct {
        let est = head.est_rows;
        let cost = head.cost + head.est_rows;
        head = plan_node(
            est,
            cost,
            PhysOp::Distinct {
                input: Box::new(head),
            },
        );
    }

    if sel.limit.is_some() || sel.offset.is_some() {
        let k = sel.limit.unwrap_or(u64::MAX) as f64;
        let est = head.est_rows.min(k);
        let cost = if streaming {
            // The pipeline stops early: charge only the expected fraction.
            let frac = (est / head.est_rows.max(1.0)).min(1.0);
            head.cost * frac.max(0.01)
        } else {
            head.cost
        };
        head = plan_node(
            est,
            cost,
            PhysOp::Limit {
                input: Box::new(head),
                limit: sel.limit,
                offset: sel.offset.unwrap_or(0),
                streaming,
            },
        );
    }

    Ok(PhysPlan {
        root: head,
        sel: sel.clone(),
        scope_cols,
        has_aggregate,
    })
}

/// Lower a join chain: try a cost-improving reorder of all-inner pure
/// equi-join chains; otherwise build the syntactic left-deep chain with a
/// per-join strategy choice.
fn plan_joins(
    lw: &Lowering,
    state: &DbState,
    sel: &Select,
    items: &[FromItem],
) -> DbResult<PhysNode> {
    if let Some(node) = try_reorder(lw, state, sel, items)? {
        return Ok(node);
    }
    syntactic_chain(lw, state, sel, items)
}

/// The syntactic left-deep chain, hash vs nested loop chosen by cost among
/// the sound plans (hash needs extractable equi-keys).
fn syntactic_chain(
    lw: &Lowering,
    state: &DbState,
    sel: &Select,
    items: &[FromItem],
) -> DbResult<PhysNode> {
    let mut acc_cols = scope_cols_of(state, &items[0].binding, &items[0].name)?;
    let mut left = lw.plain_scan(&items[0]);
    for (i, join) in sel.joins.iter().enumerate() {
        let item = &items[i + 1];
        let right_cols = scope_cols_of(state, &item.binding, &item.name)?;
        let right = lw.plain_scan(item);
        let (l_est, r_est) = (left.est_rows, right.est_rows);
        let equi = match (join.kind, &join.on) {
            (JoinKind::Cross, _) | (_, None) => None,
            (_, Some(on)) => {
                plan::analyze_equi_join(&acc_cols, &right_cols, on).map(|equi| (equi, on))
            }
        };
        left = match equi {
            Some((equi, on)) => {
                let ndv = right_key_ndv(state, item, &equi.right_keys);
                let mut est = cost::join_output_estimate(l_est, r_est, ndv);
                if join.kind == JoinKind::Left {
                    est = est.max(l_est);
                }
                let hash_cost = left.cost + right.cost + cost::hash_join_cost(l_est, r_est, est);
                let nl_cost = left.cost + right.cost + cost::nl_join_cost(l_est, r_est);
                if hash_cost < nl_cost {
                    plan_node(
                        est,
                        hash_cost,
                        PhysOp::HashJoin {
                            left: Box::new(left),
                            right: Box::new(right),
                            kind: join.kind,
                            on: on.clone(),
                            left_keys: equi.left_keys,
                            right_keys: equi.right_keys,
                        },
                    )
                } else {
                    plan_node(
                        est,
                        nl_cost,
                        PhysOp::NestedLoopJoin {
                            left: Box::new(left),
                            right: Box::new(right),
                            kind: join.kind,
                            on: join.on.clone(),
                        },
                    )
                }
            }
            None => {
                let est = match join.kind {
                    JoinKind::Cross => l_est * r_est,
                    JoinKind::Left => (l_est * r_est * cost::OTHER_SELECTIVITY).max(l_est),
                    JoinKind::Inner => l_est * r_est * cost::OTHER_SELECTIVITY,
                };
                let cost = left.cost + right.cost + cost::nl_join_cost(l_est, r_est);
                plan_node(
                    est,
                    cost,
                    PhysOp::NestedLoopJoin {
                        left: Box::new(left),
                        right: Box::new(right),
                        kind: join.kind,
                        on: join.on.clone(),
                    },
                )
            }
        };
        acc_cols.extend(right_cols);
    }
    Ok(left)
}

/// Attempt a greedy smallest-first reorder of an all-inner, all-base-table,
/// pure equi-join chain. Returns `None` (fall back to the syntactic chain)
/// unless every precondition holds, the greedy order differs from the
/// syntactic one, and its estimated cost is strictly lower.
fn try_reorder(
    lw: &Lowering,
    state: &DbState,
    sel: &Select,
    items: &[FromItem],
) -> DbResult<Option<PhysNode>> {
    let n = items.len();
    if n < 3
        || items.iter().any(|i| i.is_view)
        || sel
            .joins
            .iter()
            .any(|j| j.kind != JoinKind::Inner || j.on.is_none())
    {
        return Ok(None);
    }

    // Extract equi-edges exactly as the syntactic chain would see them;
    // every ON must be a pure equi-conjunction (no residual) so keyed hash
    // matching is provably equivalent to ON evaluation.
    let offsets: Vec<usize> = items
        .iter()
        .scan(0usize, |acc, i| {
            let o = *acc;
            *acc += i.width;
            Some(o)
        })
        .collect();
    let mut acc_cols: Vec<ScopeCol> = scope_cols_of(state, &items[0].binding, &items[0].name)?;
    let mut edges: Vec<EquiEdge> = Vec::new();
    for (i, join) in sel.joins.iter().enumerate() {
        let item = &items[i + 1];
        let right_cols = scope_cols_of(state, &item.binding, &item.name)?;
        let on = join.on.as_ref().expect("checked above");
        let Some(equi) = plan::analyze_equi_join(&acc_cols, &right_cols, on) else {
            return Ok(None);
        };
        if !equi.residual.is_empty() {
            return Ok(None);
        }
        for (&lk, &rk) in equi.left_keys.iter().zip(&equi.right_keys) {
            let t = (0..=i)
                .rev()
                .find(|&t| lk >= offsets[t])
                .expect("key position within accumulated scope");
            edges.push(EquiEdge {
                a: (t, lk - offsets[t]),
                b: (i + 1, rk),
            });
        }
        acc_cols.extend(right_cols);
    }

    // Greedy order: smallest table first, then the smallest table connected
    // to the chosen set. Bail if the equi-graph is disconnected.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let smallest = (0..n)
        .min_by(|&a, &b| items[a].rows.total_cmp(&items[b].rows))
        .expect("non-empty");
    order.push(smallest);
    while order.len() < n {
        let next = (0..n)
            .filter(|t| !order.contains(t))
            .filter(|&t| {
                edges.iter().any(|e| {
                    (e.a.0 == t && order.contains(&e.b.0)) || (e.b.0 == t && order.contains(&e.a.0))
                })
            })
            .min_by(|&a, &b| items[a].rows.total_cmp(&items[b].rows));
        match next {
            Some(t) => order.push(t),
            None => return Ok(None),
        }
    }
    if order.iter().copied().eq(0..n) {
        return Ok(None);
    }

    // Cost both orders (scan cost + hash-join chain cost).
    let chain_cost = |ord: &[usize]| -> f64 {
        let mut cost: f64 = ord.iter().map(|&t| items[t].rows).sum();
        let mut est = items[ord[0]].rows;
        for (j, &t) in ord.iter().enumerate().skip(1) {
            let key_col = edges.iter().find_map(|e| {
                if e.b.0 == t && ord[..j].contains(&e.a.0) {
                    Some(e.b.1)
                } else if e.a.0 == t && ord[..j].contains(&e.b.0) {
                    Some(e.a.1)
                } else {
                    None
                }
            });
            let ndv = key_col.and_then(|c| {
                state
                    .catalog
                    .table_stats(&items[t].name)
                    .and_then(|s| s.column_distinct(c))
                    .filter(|&v| v > 0)
            });
            let out = cost::join_output_estimate(est, items[t].rows, ndv);
            cost += cost::hash_join_cost(est, items[t].rows, out);
            est = out;
        }
        cost
    };
    let syntactic: Vec<usize> = (0..n).collect();
    if chain_cost(&order) >= chain_cost(&syntactic) {
        return Ok(None);
    }

    // Build the reordered chain. Scans append a hidden sequence column
    // (handled by the executor), so each item contributes width+1 columns.
    let ro: Vec<usize> = order
        .iter()
        .scan(0usize, |acc, &t| {
            let o = *acc;
            *acc += items[t].width + 1;
            Some(o)
        })
        .collect();
    let pos_in_order = |t: usize| order.iter().position(|&x| x == t).expect("in order");

    let mut node = lw.plain_scan(&items[order[0]]);
    let mut est = items[order[0]].rows;
    for (j, &t) in order.iter().enumerate().skip(1) {
        let right = lw.plain_scan(&items[t]);
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for e in &edges {
            let (other, oc, rc) = if e.b.0 == t && order[..j].contains(&e.a.0) {
                (e.a.0, e.a.1, e.b.1)
            } else if e.a.0 == t && order[..j].contains(&e.b.0) {
                (e.b.0, e.b.1, e.a.1)
            } else {
                continue;
            };
            left_keys.push(ro[pos_in_order(other)] + oc);
            right_keys.push(rc);
        }
        debug_assert!(!left_keys.is_empty(), "greedy order is connected");
        let ndv = right_key_ndv(state, &items[t], &right_keys);
        let out = cost::join_output_estimate(est, items[t].rows, ndv);
        let cost = node.cost + right.cost + cost::hash_join_cost(est, items[t].rows, out);
        node = plan_node(
            out,
            cost,
            PhysOp::KeyedHashJoin {
                left: Box::new(node),
                right: Box::new(right),
                left_keys,
                right_keys,
            },
        );
        est = out;
    }

    // Restore: permute columns back to the syntactic layout and sort by the
    // hidden sequence tuple in original FROM order.
    let mut perm = Vec::new();
    let mut seq_positions = Vec::new();
    for (t, item) in items.iter().enumerate() {
        let base = ro[pos_in_order(t)];
        for c in 0..item.width {
            perm.push(base + c);
        }
        seq_positions.push(base + item.width);
    }
    let sort_cost = est.max(1.0) * est.max(2.0).log2();
    let restore = plan_node(
        est,
        node.cost + sort_cost,
        PhysOp::Restore {
            input: Box::new(node),
            perm,
            seq_positions,
        },
    );
    Ok(Some(restore))
}

#[cfg(test)]
mod tests {
    use super::workers_on;

    #[test]
    fn workers_scale_with_rows_and_cores() {
        for cores in [1, 2, 4, 64] {
            assert_eq!(workers_on(cores, 0), 1);
            assert_eq!(workers_on(cores, 4095), 1, "below the threshold");
        }
        assert_eq!(workers_on(1, 1_000_000), 1, "a single core never fans out");
        assert_eq!(workers_on(2, 4096), 2);
        assert_eq!(workers_on(4, 4096), 2, "at least 2048 rows per worker");
        assert_eq!(workers_on(4, 3 * 2048), 3);
        assert_eq!(workers_on(4, 1_000_000), 4, "capped by the cores");
        assert_eq!(workers_on(64, 1_000_000), 8, "capped at eight");
    }
}
