//! The cost model: selectivity and cardinality estimation.
//!
//! Deliberately simple — textbook magic constants refined by table
//! statistics when ANALYZE has run. Costs are abstract "row visits": a
//! sequential scan of N rows costs N, a nested loop over L×R pairs costs
//! L·R times the per-pair predicate evaluation factor, a hash join costs
//! one pass over each side plus its output. The planner only ever
//! *compares* costs, so the unit is irrelevant; what matters is that the
//! ordering of alternatives responds to row counts and statistics.

use crate::schema::{TableSchema, TableStats};
use crate::value::Value;
use sqlkit::ast::{BinaryOp, Expr};

/// Equality selectivity when no statistics exist for the column.
pub(crate) const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Selectivity of a range comparison (`<`, `<=`, `>`, `>=`, BETWEEN).
pub(crate) const RANGE_SELECTIVITY: f64 = 0.3;
/// Selectivity of a LIKE pattern match.
pub(crate) const LIKE_SELECTIVITY: f64 = 0.25;
/// Selectivity of any other predicate shape (OR trees, functions, ...).
pub(crate) const OTHER_SELECTIVITY: f64 = 0.5;
/// Cost factor for evaluating the full ON/WHERE expression on one row
/// pair inside a nested loop, relative to visiting a stored row. Makes the
/// hash join (which evaluates the condition only for key-matching pairs)
/// win whenever the inputs are non-trivial, matching its observed profile.
pub(crate) const EVAL_FACTOR: f64 = 2.0;

/// Equality selectivity for one column: `1 / NDV` with statistics, the
/// default guess without. A column where every row holds the same value
/// (NDV = 1) yields selectivity 1.0 — an index probe on it would fetch the
/// whole table, so the planner correctly prefers the sequential scan.
pub(crate) fn eq_selectivity(stats: Option<&TableStats>, column: usize) -> f64 {
    match stats.and_then(|s| s.column_distinct(column)) {
        Some(ndv) if ndv > 0 => 1.0 / ndv as f64,
        // Analyzed but empty (or all-NULL) column: everything matches
        // nothing; treat as maximally selective.
        Some(_) => DEFAULT_EQ_SELECTIVITY,
        None => DEFAULT_EQ_SELECTIVITY,
    }
}

/// Does a column reference name this table's binding (or nothing)?
fn column_on_table(c: &sqlkit::ast::ColumnRef, schema: &TableSchema, binding: &str) -> bool {
    c.table
        .as_deref()
        .is_none_or(|t| t == binding || t == schema.name)
}

/// Selectivity of one conjunct against a single table's scope.
fn conjunct_selectivity(
    schema: &TableSchema,
    stats: Option<&TableStats>,
    binding: &str,
    conjunct: &Expr,
) -> f64 {
    match conjunct {
        Expr::Binary { left, op, right } => {
            let col = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(c))
                    if column_on_table(c, schema, binding) =>
                {
                    schema.column_index(&c.column)
                }
                _ => None,
            };
            match op {
                BinaryOp::Eq => match col {
                    Some(pos) => eq_selectivity(stats, pos),
                    None => OTHER_SELECTIVITY,
                },
                BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => RANGE_SELECTIVITY,
                BinaryOp::NotEq => match col {
                    Some(pos) => 1.0 - eq_selectivity(stats, pos),
                    None => OTHER_SELECTIVITY,
                },
                _ => OTHER_SELECTIVITY,
            }
        }
        Expr::Between { .. } => RANGE_SELECTIVITY,
        Expr::Like { .. } => LIKE_SELECTIVITY,
        Expr::InList { list, .. } => (list.len().max(1) as f64 * DEFAULT_EQ_SELECTIVITY).min(1.0),
        Expr::IsNull { expr, negated } => {
            let frac = match (&**expr, stats) {
                (Expr::Column(c), Some(s)) if column_on_table(c, schema, binding) => schema
                    .column_index(&c.column)
                    .and_then(|pos| s.columns.get(pos))
                    .map_or(DEFAULT_EQ_SELECTIVITY, |cs| {
                        if s.row_count == 0 {
                            0.0
                        } else {
                            cs.nulls as f64 / s.row_count as f64
                        }
                    }),
                _ => DEFAULT_EQ_SELECTIVITY,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        _ => OTHER_SELECTIVITY,
    }
}

/// Combined selectivity of a predicate's top-level AND conjuncts against a
/// single table, assuming independence. Clamped away from zero so
/// downstream cardinalities never vanish entirely.
pub(crate) fn predicate_selectivity(
    schema: &TableSchema,
    stats: Option<&TableStats>,
    binding: &str,
    predicate: &Expr,
) -> f64 {
    let mut sel = 1.0;
    for conjunct in crate::expr::conjuncts(predicate) {
        sel *= conjunct_selectivity(schema, stats, binding, conjunct);
    }
    sel.clamp(1e-4, 1.0)
}

/// Selectivity of a predicate with no single-table scope to resolve
/// against (post-join WHERE clauses, view filters): the same per-conjunct
/// shapes as [`predicate_selectivity`], minus the statistics refinement.
pub(crate) fn generic_predicate_selectivity(predicate: &Expr) -> f64 {
    let mut sel = 1.0;
    for conjunct in crate::expr::conjuncts(predicate) {
        sel *= match conjunct {
            Expr::Binary { op, .. } => match op {
                BinaryOp::Eq => DEFAULT_EQ_SELECTIVITY,
                BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => RANGE_SELECTIVITY,
                BinaryOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
                _ => OTHER_SELECTIVITY,
            },
            Expr::Between { .. } => RANGE_SELECTIVITY,
            Expr::Like { .. } => LIKE_SELECTIVITY,
            Expr::InList { list, .. } => {
                (list.len().max(1) as f64 * DEFAULT_EQ_SELECTIVITY).min(1.0)
            }
            Expr::IsNull { negated, .. } => {
                if *negated {
                    1.0 - DEFAULT_EQ_SELECTIVITY
                } else {
                    DEFAULT_EQ_SELECTIVITY
                }
            }
            _ => OTHER_SELECTIVITY,
        };
    }
    sel.clamp(1e-4, 1.0)
}

/// Estimated rows an index probe on `pinned` columns returns.
pub(crate) fn index_probe_estimate(
    stats: Option<&TableStats>,
    rows: f64,
    pinned: &std::collections::BTreeMap<usize, Value>,
) -> f64 {
    let mut sel = 1.0;
    for pos in pinned.keys() {
        sel *= eq_selectivity(stats, *pos);
    }
    rows * sel.clamp(1e-4, 1.0)
}

/// Cost of a full sequential scan.
pub(crate) fn seq_scan_cost(rows: f64) -> f64 {
    rows
}

/// Cost of an index probe returning an estimated `est` candidate rows: the
/// probe itself plus the candidate fetches.
pub(crate) fn index_scan_cost(est: f64) -> f64 {
    est + 1.0
}

/// Cost of a nested-loop join over materialized inputs.
pub(crate) fn nl_join_cost(left_rows: f64, right_rows: f64) -> f64 {
    left_rows * right_rows * EVAL_FACTOR
}

/// Cost of a grace-hash join: build + probe passes plus output assembly.
pub(crate) fn hash_join_cost(left_rows: f64, right_rows: f64, est_out: f64) -> f64 {
    left_rows + right_rows + est_out
}

/// Estimated output cardinality of an equi-join. With statistics the
/// classic `|L|·|R| / max(ndv)` formula applies; without, a flat fraction.
pub(crate) fn join_output_estimate(left_rows: f64, right_rows: f64, key_ndv: Option<u64>) -> f64 {
    match key_ndv {
        Some(ndv) if ndv > 0 => left_rows * right_rows / ndv as f64,
        _ => left_rows * right_rows * DEFAULT_EQ_SELECTIVITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnStats, TableStats};

    fn stats(ndvs: &[u64], rows: u64) -> TableStats {
        TableStats {
            row_count: rows,
            columns: ndvs
                .iter()
                .map(|&d| ColumnStats {
                    distinct: d,
                    nulls: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn eq_selectivity_uses_ndv() {
        let s = stats(&[100, 1], 1000);
        assert_eq!(eq_selectivity(Some(&s), 0), 0.01);
        assert_eq!(eq_selectivity(Some(&s), 1), 1.0);
        assert_eq!(eq_selectivity(None, 0), DEFAULT_EQ_SELECTIVITY);
    }

    #[test]
    fn constant_column_defeats_index_probe() {
        // NDV = 1: the probe would fetch every row, so its cost exceeds the
        // plain scan and the planner must keep the sequential scan. This is
        // the canonical "statistics change the plan" decision.
        let s = stats(&[1], 1000);
        let mut pinned = std::collections::BTreeMap::new();
        pinned.insert(0usize, crate::value::Value::Int(7));
        let est = index_probe_estimate(Some(&s), 1000.0, &pinned);
        assert!(index_scan_cost(est) > seq_scan_cost(1000.0));
        // A selective column keeps the probe attractive.
        let s = stats(&[500], 1000);
        let est = index_probe_estimate(Some(&s), 1000.0, &pinned);
        assert!(index_scan_cost(est) < seq_scan_cost(1000.0));
    }

    #[test]
    fn hash_join_beats_nested_loop_on_real_inputs() {
        assert!(hash_join_cost(128.0, 8.0, 128.0) < nl_join_cost(128.0, 8.0));
        // Degenerate single-row inputs: the nested loop's simplicity wins.
        assert!(nl_join_cost(1.0, 1.0) < hash_join_cost(1.0, 1.0, 0.1));
    }

    #[test]
    fn join_estimate_tightens_with_stats() {
        let with = join_output_estimate(1000.0, 100.0, Some(100));
        let without = join_output_estimate(1000.0, 100.0, None);
        assert!(with < without);
    }
}
