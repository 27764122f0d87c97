//! Shared row-level machinery: subquery resolution, projection, the
//! sequential filter / group / join kernels, and aggregates. Both the
//! sequential reference pipeline ([`super::seq`]) and the plan-driven
//! executor ([`super::volcano`]) build on these, so their row-level
//! semantics can never drift apart. Nothing here probes an index or spawns
//! a thread: the planned executor reaches those through
//! [`super::parallel`] and its own scan operators.

use super::{execute_select, DbState, QueryResult, DEADLINE_ROWS};
use crate::error::{DbError, DbResult};
use crate::expr::{self, eval, Scope, ScopeCol};
use crate::plan::ExecOptions;
use crate::storage::{canonical_key, HashedKey};
use crate::value::{Key, Row, Value};
use sqlkit::ast::{Expr, JoinKind, Literal, OrderDir, Select, SelectItem};
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------------
// Subquery resolution
// ---------------------------------------------------------------------------

/// Run a nested SELECT (subquery or view body) under the caller's options.
pub(super) fn select_rows(state: &DbState, sel: &Select, opts: &ExecOptions) -> DbResult<Vec<Row>> {
    match execute_select(state, sel, opts)?.0 {
        QueryResult::Rows { rows, .. } => Ok(rows),
        _ => unreachable!("select returns rows"),
    }
}

/// Replace the uncorrelated subqueries in an expression with constants, in
/// place, by executing them eagerly under the caller's options.
pub(super) fn resolve_expr(state: &DbState, e: &mut Expr, opts: &ExecOptions) -> DbResult<()> {
    match e {
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let list = select_rows(state, subquery, opts)?
                .into_iter()
                .map(|mut r| {
                    if r.is_empty() {
                        Err(DbError::Execution("subquery returned no columns".into()))
                    } else {
                        Ok(Expr::Literal(value_to_literal(r.swap_remove(0))))
                    }
                })
                .collect::<DbResult<Vec<_>>>()?;
            resolve_expr(state, expr, opts)?;
            *e = Expr::InList {
                expr: std::mem::replace(expr, Box::new(Expr::Literal(Literal::Null))),
                list,
                negated: *negated,
            };
        }
        Expr::ScalarSubquery(sub) => {
            let value = match select_rows(state, sub, opts)?.into_iter().next() {
                Some(mut row) if !row.is_empty() => row.swap_remove(0),
                _ => Value::Null,
            };
            *e = Expr::Literal(value_to_literal(value));
        }
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            resolve_expr(state, expr, opts)?;
        }
        Expr::Binary { left, right, .. } => {
            resolve_expr(state, left, opts)?;
            resolve_expr(state, right, opts)?;
        }
        Expr::Function { args, .. } => {
            for a in args {
                resolve_expr(state, a, opts)?;
            }
        }
        Expr::InList { expr, list, .. } => {
            resolve_expr(state, expr, opts)?;
            for i in list {
                resolve_expr(state, i, opts)?;
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            resolve_expr(state, expr, opts)?;
            resolve_expr(state, low, opts)?;
            resolve_expr(state, high, opts)?;
        }
        Expr::Like { expr, pattern, .. } => {
            resolve_expr(state, expr, opts)?;
            resolve_expr(state, pattern, opts)?;
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                resolve_expr(state, c, opts)?;
                resolve_expr(state, v, opts)?;
            }
            if let Some(e) = else_expr {
                resolve_expr(state, e, opts)?;
            }
        }
    }
    Ok(())
}

pub(super) fn value_to_literal(v: Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Float(f) => Literal::Float(f),
        Value::Text(s) => Literal::Str(s),
        Value::Bool(b) => Literal::Bool(b),
    }
}

/// Resolve every uncorrelated subquery in a SELECT to constants, returning
/// the resolved statement. Both execution paths (and the planner) operate
/// on the resolved form.
pub(super) fn resolve_select(
    state: &DbState,
    sel: &Select,
    opts: &ExecOptions,
) -> DbResult<Select> {
    let mut sel = sel.clone();
    let exprs = sel
        .where_clause
        .iter_mut()
        .chain(sel.having.iter_mut())
        .chain(sel.items.iter_mut().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        }))
        .chain(sel.group_by.iter_mut())
        .chain(sel.order_by.iter_mut().map(|o| &mut o.expr))
        .chain(sel.joins.iter_mut().filter_map(|j| j.on.as_mut()));
    for e in exprs {
        resolve_expr(state, e, opts)?;
    }
    Ok(sel)
}

// ---------------------------------------------------------------------------
// Projection helpers
// ---------------------------------------------------------------------------

/// Resolve an ORDER BY expression to a sort key for one output row.
#[allow(clippy::too_many_arguments)]
pub(super) fn order_key(
    e: &Expr,
    sel: &Select,
    out_columns: &[String],
    out: &Row,
    scope_cols: &[ScopeCol],
    source_rows: &[Row],
    has_aggregate: bool,
) -> DbResult<Value> {
    // ORDER BY <n> — positional reference.
    if let Expr::Literal(Literal::Int(n)) = e {
        let idx = *n as usize;
        if idx >= 1 && idx <= out.len() {
            return Ok(out[idx - 1].clone());
        }
        return Err(DbError::Execution(format!(
            "ORDER BY position {n} is out of range"
        )));
    }
    // ORDER BY <alias> — matches an output column name.
    if let Expr::Column(c) = e {
        if c.table.is_none() {
            if let Some(i) = out_columns.iter().position(|n| *n == c.column) {
                return Ok(out[i].clone());
            }
        }
    }
    // Same expression as a projection item → reuse its value.
    for (i, item) in sel.items.iter().enumerate() {
        if let SelectItem::Expr { expr, .. } = item {
            if expr == e && i < out.len() {
                return Ok(out[i].clone());
            }
        }
    }
    // Fall back to evaluating against the source rows.
    if has_aggregate {
        eval_agg(e, scope_cols, source_rows)
    } else {
        let row = source_rows.first().ok_or_else(|| {
            DbError::Execution("cannot evaluate ORDER BY expression after projection".into())
        })?;
        let scope = Scope {
            columns: scope_cols,
            values: row,
        };
        eval(e, &scope)
    }
}

/// Output column names for a projection.
pub(super) fn output_columns(sel: &Select, scope_cols: &[ScopeCol]) -> DbResult<Vec<String>> {
    let mut out = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                out.extend(scope_cols.iter().map(|c| c.name.clone()));
            }
            SelectItem::QualifiedWildcard(t) => {
                out.extend(
                    scope_cols
                        .iter()
                        .filter(|c| c.binding.as_deref() == Some(t.as_str()))
                        .map(|c| c.name.clone()),
                );
            }
            SelectItem::Expr { expr, alias } => out.push(match alias {
                Some(a) => a.clone(),
                None => derive_name(expr),
            }),
        }
    }
    Ok(out)
}

fn derive_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.column.clone(),
        Expr::Function { name, .. } => name.clone(),
        Expr::Cast { expr, .. } => derive_name(expr),
        _ => "expr".to_owned(),
    }
}

/// Project one row through the SELECT items (non-aggregate queries). The
/// single source of truth for per-row projection semantics — both pipelines
/// call this, so error behavior cannot diverge.
pub(super) fn project_row(sel: &Select, scope_cols: &[ScopeCol], row: &Row) -> DbResult<Row> {
    let scope = Scope {
        columns: scope_cols,
        values: row,
    };
    let mut out = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => out.extend(row.iter().cloned()),
            SelectItem::QualifiedWildcard(t) => {
                let mut any = false;
                for (i, c) in scope_cols.iter().enumerate() {
                    if c.binding.as_deref() == Some(t.as_str()) {
                        out.push(row[i].clone());
                        any = true;
                    }
                }
                if !any {
                    return Err(DbError::UnknownTable(t.clone()));
                }
            }
            SelectItem::Expr { expr, .. } => out.push(eval(expr, &scope)?),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Filter / group / join kernels (sequential; one call = one chunk)
// ---------------------------------------------------------------------------

/// Scope columns a FROM item (table or view) contributes.
pub(crate) fn scope_cols_of(state: &DbState, binding: &str, name: &str) -> DbResult<Vec<ScopeCol>> {
    let names: Vec<&String> = match state.catalog.view(name) {
        Some(view) => view.columns.iter().collect(),
        None => state
            .catalog
            .table(name)?
            .columns
            .iter()
            .map(|c| &c.name)
            .collect(),
    };
    Ok(names
        .into_iter()
        .map(|n| ScopeCol {
            binding: Some(binding.to_owned()),
            name: n.clone(),
        })
        .collect())
}

/// Whether `row` satisfies `pred` (SQL truth: NULL is not TRUE).
pub(super) fn row_matches(cols: &[ScopeCol], pred: &Expr, row: &[Value]) -> DbResult<bool> {
    let scope = Scope {
        columns: cols,
        values: row,
    };
    Ok(expr::truth(&eval(pred, &scope)?) == Some(true))
}

/// Keep the rows satisfying `pred`, in order; the first error stops.
pub(super) fn filter_rows(rows: Vec<Row>, cols: &[ScopeCol], pred: &Expr) -> DbResult<Vec<Row>> {
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        if row_matches(cols, pred, &row)? {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// Group rows by the GROUP BY key expressions; rows within a group keep
/// input order (so float aggregates accumulate in scan order).
pub(super) fn group_rows(
    rows: Vec<Row>,
    cols: &[ScopeCol],
    group_by: &[Expr],
) -> DbResult<BTreeMap<Key, Vec<Row>>> {
    let mut groups: BTreeMap<Key, Vec<Row>> = BTreeMap::new();
    for row in rows {
        let scope = Scope {
            columns: cols,
            values: &row,
        };
        let key = Key(group_by
            .iter()
            .map(|g| eval(g, &scope))
            .collect::<DbResult<Vec<_>>>()?);
        groups.entry(key).or_default().push(row);
    }
    Ok(groups)
}

/// Evaluate HAVING and the SELECT items over each group, pairing every
/// output row with the group that produced it (ORDER BY may still need it).
pub(super) fn aggregate_groups(
    sel: &Select,
    cols: &[ScopeCol],
    groups: BTreeMap<Key, Vec<Row>>,
) -> DbResult<Vec<(Row, Vec<Row>)>> {
    let mut produced = Vec::new();
    for (_, group_rows) in groups {
        // An empty global group still yields one row of aggregates (e.g.
        // COUNT(*) = 0), but grouped queries skip empty groups.
        if group_rows.is_empty() && !sel.group_by.is_empty() {
            continue;
        }
        if let Some(h) = &sel.having {
            if expr::truth(&eval_agg(h, cols, &group_rows)?) != Some(true) {
                continue;
            }
        }
        let mut out = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Expr { expr, .. } => out.push(eval_agg(expr, cols, &group_rows)?),
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(DbError::Execution(
                        "wildcard projection is not valid in aggregate queries".into(),
                    ));
                }
            }
        }
        produced.push((out, group_rows));
    }
    Ok(produced)
}

/// `l` followed by `r`.
fn combine(l: &Row, r: impl IntoIterator<Item = Value>) -> Row {
    let mut combined = l.clone();
    combined.extend(r);
    combined
}

/// The nested-loop join: the reference semantics every other join strategy
/// must reproduce. `cols` is the combined (left then right) scope. The
/// outer loop checks the call's deadline once per [`DEADLINE_ROWS`] row
/// pairs visited.
pub(super) fn nl_join_rows(
    cols: &[ScopeCol],
    left_rows: &[Row],
    right_rows: &[Row],
    right_width: usize,
    kind: JoinKind,
    on: Option<&Expr>,
) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    let mut unchecked = 0usize;
    for l in left_rows {
        unchecked += right_rows.len().max(1);
        if unchecked >= DEADLINE_ROWS {
            unchecked = 0;
            crate::deadline::check()?;
        }
        let mut matched = false;
        for r in right_rows {
            let combined = combine(l, r.iter().cloned());
            let keep = match (kind, on) {
                (JoinKind::Cross, _) | (_, None) => true,
                (_, Some(on)) => row_matches(cols, on, &combined)?,
            };
            if keep {
                matched = true;
                out.push(combined);
            }
        }
        if kind == JoinKind::Left && !matched {
            out.push(combine(l, std::iter::repeat_n(Value::Null, right_width)));
        }
    }
    Ok(out)
}

/// Extract a canonicalized join key from a row. `None` (no possible match)
/// when any key value is NULL or NaN: the corresponding `a = b` conjunct
/// can never evaluate to TRUE, so the nested loop would reject every pair
/// too. `-0.0` collapses to `0.0` so key equality (total order) agrees
/// with SQL equality wherever the latter says "equal".
fn join_key(row: &Row, positions: &[usize]) -> Option<HashedKey> {
    let mut vals = Vec::with_capacity(positions.len());
    for &p in positions {
        match &row[p] {
            Value::Null => return None,
            Value::Float(f) if f.is_nan() => return None,
            v => vals.push(v.clone()),
        }
    }
    Some(HashedKey(canonical_key(Key(vals))))
}

/// A built hash join: the right side bucketed by canonical key, ready to be
/// probed from the left. Key hashing is purely a sound pre-filter — every
/// key-matching candidate pair is still put to `matches` (the full ON
/// condition, or SQL equality on each key pair), so the output (content and
/// order: left order outer, right scan order inner, LEFT null-extension
/// included) is identical to the nested loop's.
pub(super) struct HashJoin<'a> {
    right_rows: &'a [Row],
    buckets: HashMap<HashedKey, Vec<usize>>,
    left_keys: &'a [usize],
    /// `Some(right width)` null-extends unmatched left rows (LEFT join).
    pad: Option<usize>,
    matches: &'a (dyn Fn(&Row) -> DbResult<bool> + Sync),
}

impl<'a> HashJoin<'a> {
    /// Build phase. Indices append in scan order, preserving the nested
    /// loop's inner iteration order.
    pub(super) fn build(
        right_rows: &'a [Row],
        left_keys: &'a [usize],
        right_keys: &[usize],
        pad: Option<usize>,
        matches: &'a (dyn Fn(&Row) -> DbResult<bool> + Sync),
    ) -> Self {
        let mut buckets: HashMap<HashedKey, Vec<usize>> = HashMap::new();
        for (i, r) in right_rows.iter().enumerate() {
            if let Some(key) = join_key(r, right_keys) {
                buckets.entry(key).or_default().push(i);
            }
        }
        HashJoin {
            right_rows,
            buckets,
            left_keys,
            pad,
            matches,
        }
    }

    /// Probe with a run of left rows, in order.
    pub(super) fn probe<'r>(
        &self,
        left_rows: impl IntoIterator<Item = &'r Row>,
    ) -> DbResult<Vec<Row>> {
        let mut out = Vec::new();
        for l in left_rows {
            let mut matched = false;
            let candidates = join_key(l, self.left_keys).and_then(|key| self.buckets.get(&key));
            for &ri in candidates.into_iter().flatten() {
                let combined = combine(l, self.right_rows[ri].iter().cloned());
                if (self.matches)(&combined)? {
                    matched = true;
                    out.push(combined);
                }
            }
            if let (Some(width), false) = (self.pad, matched) {
                out.push(combine(l, std::iter::repeat_n(Value::Null, width)));
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// Evaluate an expression over a group of rows, computing aggregates over
/// the group and non-aggregate parts on the group's first row.
pub(super) fn eval_agg(e: &Expr, cols: &[ScopeCol], group: &[Row]) -> DbResult<Value> {
    match e {
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } if expr::is_aggregate_name(name) => {
            compute_aggregate(name, args, *distinct, *star, cols, group)
        }
        _ if !expr::contains_aggregate(e) => {
            // Evaluate on the first row of the group (a grouping key, per
            // SQL's single-value rule; we do not validate the rule).
            let empty = Vec::new();
            let row = group.first().unwrap_or(&empty);
            let scope = Scope {
                columns: cols,
                values: row,
            };
            eval(e, &scope)
        }
        Expr::Unary { op, expr } => {
            let inner = eval_agg(expr, cols, group)?;
            let scope = Scope {
                columns: &[],
                values: &[],
            };
            eval(
                &Expr::Unary {
                    op: *op,
                    expr: Box::new(Expr::Literal(value_to_literal(inner))),
                },
                &scope,
            )
        }
        Expr::Binary { left, op, right } => {
            let l = eval_agg(left, cols, group)?;
            let r = eval_agg(right, cols, group)?;
            let scope = Scope {
                columns: &[],
                values: &[],
            };
            eval(
                &Expr::Binary {
                    left: Box::new(Expr::Literal(value_to_literal(l))),
                    op: *op,
                    right: Box::new(Expr::Literal(value_to_literal(r))),
                },
                &scope,
            )
        }
        Expr::Cast { expr, ty } => {
            let v = eval_agg(expr, cols, group)?;
            v.cast_to(*ty).map_err(DbError::TypeError)
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                if expr::truth(&eval_agg(c, cols, group)?) == Some(true) {
                    return eval_agg(v, cols, group);
                }
            }
            match else_expr {
                Some(e) => eval_agg(e, cols, group),
                None => Ok(Value::Null),
            }
        }
        // A scalar function whose arguments contain aggregates, e.g.
        // ROUND(SUM(x), 2): compute the arguments in aggregate context,
        // then apply the function.
        Expr::Function { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_agg(a, cols, group)?);
            }
            expr::scalar_function(name, &vals)
        }
        other => Err(DbError::Execution(format!(
            "unsupported aggregate expression shape: {}",
            sqlkit::format_expr(other)
        ))),
    }
}

fn compute_aggregate(
    name: &str,
    args: &[Expr],
    distinct: bool,
    star: bool,
    cols: &[ScopeCol],
    group: &[Row],
) -> DbResult<Value> {
    if star {
        if name != "count" {
            return Err(DbError::Execution(format!("{name}(*) is not valid")));
        }
        return Ok(Value::Int(group.len() as i64));
    }
    if args.len() != 1 {
        return Err(DbError::TypeError(format!(
            "aggregate {name}() expects exactly one argument"
        )));
    }
    // Collect non-null argument values across the group.
    let mut values = Vec::new();
    for row in group {
        let scope = Scope {
            columns: cols,
            values: row,
        };
        let v = eval(&args[0], &scope)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = std::collections::BTreeSet::new();
        values.retain(|v| seen.insert(Key(vec![v.clone()])));
    }
    match name {
        "count" => Ok(Value::Int(values.len() as i64)),
        "sum" | "avg" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            let mut total = 0f64;
            for v in &values {
                total += v.as_f64().ok_or_else(|| {
                    DbError::TypeError(format!("{name}() on non-numeric value {}", v.render()))
                })?;
            }
            if name == "avg" {
                Ok(Value::Float(total / values.len() as f64))
            } else if all_int {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => name == "min",
                            Some(std::cmp::Ordering::Greater) => name == "max",
                            _ => false,
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        other => Err(DbError::Execution(format!("unknown aggregate '{other}'"))),
    }
}

/// The comparator ORDER BY uses: per-key total order with direction, ties
/// resolved Equal (stable sorts preserve input order on ties).
pub(super) fn order_cmp(
    order_by: &[sqlkit::ast::OrderItem],
    ka: &[Value],
    kb: &[Value],
) -> std::cmp::Ordering {
    for (i, item) in order_by.iter().enumerate() {
        let ord = ka[i].total_cmp(&kb[i]);
        let ord = match item.dir {
            OrderDir::Asc => ord,
            OrderDir::Desc => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}
