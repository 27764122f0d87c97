//! Execution options and the predicate analysis both the planner and the
//! executors rely on.
//!
//! A SELECT runs one of two ways, chosen by [`ExecOptions::planner`]: the
//! cost-based planner lowers it to a physical operator tree that
//! `exec::volcano` interprets, or the sequential reference pipeline in
//! `exec::seq` evaluates it stage by stage with full scans and (unless
//! [`ExecOptions::hash_join`] is set) nested-loop joins. The analysis
//! functions here decide *when* an optimized operator is sound:
//!
//! * [`equality_bindings`] finds `col = literal` conjuncts that can seed an
//!   index probe;
//! * [`choose_index`] picks the best fully-pinned index for those bindings;
//! * [`analyze_equi_join`] extracts equi-key pairs from a join's ON
//!   condition so a hash join can replace the nested loop.
//!
//! Every planned tree must be *observationally identical* to the reference
//! pipeline — same rows, same order. Two divergences are sanctioned, both
//! shared with production engines and limited to *error surfacing*, never
//! to results:
//!
//! 1. A hash join evaluates the ON condition only for key-matching pairs,
//!    so an ON expression that would *error* on some non-matching pair
//!    surfaces that error only under the nested loop.
//! 2. A pushed-down LIMIT stops scanning once enough rows are produced, so
//!    a predicate that would *error* on a row past the limit surfaces that
//!    error only under the unpushed plan.
//!
//! The differential suite in `tests/planner_differential.rs` (BIRD gold SQL
//! plus a seeded mutation workload) enforces this.

use crate::expr::{conjuncts, literal_value, try_resolve, ScopeCol};
use crate::schema::TableSchema;
use crate::storage::{IndexData, IndexKind, TableData};
use crate::value::{Key, Value};
use sqlkit::ast::{BinaryOp, Expr};
use std::collections::BTreeMap;

/// How a SELECT executes. The default plans by cost;
/// [`ExecOptions::sequential`] is the reference every plan is tested
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Lower SELECTs through the cost-based planner into a physical
    /// operator tree (`crate::planner` + `exec::volcano`), which chooses
    /// index probes, hash joins, join order and parallel fan-out by cost.
    /// Off = the reference pipeline in `exec::seq`.
    pub planner: bool,
    /// Reference pipeline only: join on extracted equi-keys with a
    /// single-threaded hash join instead of the nested loop (same rows,
    /// same order). Oracles over large joins set it; the planner ignores it.
    pub hash_join: bool,
    /// Allow the planner's pushdown optimizations (streaming LIMIT
    /// early-exit, ORDER BY top-k). Benchmarks disable this to measure the
    /// pushdown win; it has no effect when `planner` is off.
    pub pushdown: bool,
    /// Measure per-operator wall time during planned execution (`EXPLAIN
    /// ANALYZE`, slow-call profiles). Off by default: the hot path takes
    /// one branch per operator *dispatch* — not per row — so disabled
    /// profiling costs nothing measurable.
    pub profiling: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            planner: true,
            hash_join: false,
            pushdown: true,
            profiling: false,
        }
    }
}

impl ExecOptions {
    /// The reference configuration: the stage-at-a-time pipeline with full
    /// sequential scans and nested-loop joins, on the calling thread.
    pub fn sequential() -> Self {
        ExecOptions {
            planner: false,
            hash_join: false,
            pushdown: false,
            profiling: false,
        }
    }
}

/// `col = literal` bindings from the predicate's top-level AND conjuncts,
/// keyed by column position. NULL literals are excluded (`col = NULL` never
/// matches). When a column is pinned twice the first binding wins; the full
/// predicate is still evaluated afterwards, so a contradictory second
/// binding just yields an empty result through residual filtering.
pub(crate) fn equality_bindings(
    schema: &TableSchema,
    binding: &str,
    predicate: &Expr,
) -> BTreeMap<usize, Value> {
    let mut pinned: BTreeMap<usize, Value> = BTreeMap::new();
    for conjunct in conjuncts(predicate) {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        else {
            continue;
        };
        let pair = match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(c)) => {
                Some((c, l))
            }
            _ => None,
        };
        let Some((c, l)) = pair else { continue };
        let table_matches = c
            .table
            .as_deref()
            .is_none_or(|t| t == binding || t == schema.name);
        if !table_matches {
            continue;
        }
        if let Some(pos) = schema.column_index(&c.column) {
            let value = literal_value(l);
            if !value.is_null() {
                pinned.entry(pos).or_insert(value);
            }
        }
    }
    pinned
}

/// Pick the best index fully pinned by `pinned` and build its probe key.
/// Preference order: unique before non-unique (fewer candidates), hash
/// before ordered (O(1) probe), then name for determinism.
pub(crate) fn choose_index<'a>(
    data: &'a TableData,
    pinned: &BTreeMap<usize, Value>,
) -> Option<(&'a str, &'a IndexData, Key)> {
    let mut best: Option<(&str, &IndexData)> = None;
    for (name, idx) in &data.indexes {
        if idx.columns.is_empty() || !idx.columns.iter().all(|c| pinned.contains_key(c)) {
            continue;
        }
        let rank = |i: &IndexData| (!i.unique, i.kind() == IndexKind::Ordered);
        match best {
            Some((_, current)) if rank(current) <= rank(idx) => {}
            _ => best = Some((name, idx)),
        }
    }
    let (name, idx) = best?;
    let key = Key(idx.columns.iter().map(|c| pinned[c].clone()).collect());
    Some((name, idx, key))
}

/// Equi-join structure extracted from an ON condition.
#[derive(Debug, Clone)]
pub(crate) struct EquiJoin {
    /// Key column positions in the combined (left) scope.
    pub(crate) left_keys: Vec<usize>,
    /// Key column positions in the right table's own scope.
    pub(crate) right_keys: Vec<usize>,
    /// ON conjuncts that are not extracted equi-keys; evaluated against each
    /// candidate pair exactly as the nested loop would.
    pub(crate) residual: Vec<Expr>,
}

/// Analyze an ON condition for hash-joinability: split it into top-level
/// conjuncts and extract `left_col = right_col` pairs. Returns `None` when
/// no equi-key exists (the nested loop is the only sound plan). Conjuncts
/// that mention unknown or ambiguous columns go to the residual, where
/// evaluation reports the proper error.
pub(crate) fn analyze_equi_join(
    left_cols: &[ScopeCol],
    right_cols: &[ScopeCol],
    on: &Expr,
) -> Option<EquiJoin> {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts(on) {
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        {
            if let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) {
                // A column reference must resolve on exactly one side; a name
                // visible on both sides is ambiguous in the combined scope
                // and handed to the residual for a proper error.
                let a_side = (try_resolve(left_cols, a), try_resolve(right_cols, a));
                let b_side = (try_resolve(left_cols, b), try_resolve(right_cols, b));
                let pair = match (a_side, b_side) {
                    ((Some(l), None), (None, Some(r))) | ((None, Some(r)), (Some(l), None)) => {
                        Some((l, r))
                    }
                    _ => None,
                };
                if let Some((l, r)) = pair {
                    left_keys.push(l);
                    right_keys.push(r);
                    continue;
                }
            }
        }
        residual.push(conjunct.clone());
    }
    if left_keys.is_empty() {
        None
    } else {
        Some(EquiJoin {
            left_keys,
            right_keys,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::ast::Statement;
    use sqlkit::parse_statement;

    fn where_of(sql: &str) -> Expr {
        match parse_statement(sql).unwrap() {
            Statement::Select(sel) => sel.where_clause.unwrap(),
            _ => panic!("expected SELECT"),
        }
    }

    fn cols(names: &[(&str, &str)]) -> Vec<ScopeCol> {
        names
            .iter()
            .map(|(b, n)| ScopeCol {
                binding: Some((*b).to_owned()),
                name: (*n).to_owned(),
            })
            .collect()
    }

    fn schema_with(names: &[&str]) -> TableSchema {
        use crate::schema::Column;
        use sqlkit::ast::TypeName;
        TableSchema {
            name: "t".into(),
            columns: names
                .iter()
                .map(|n| Column {
                    name: (*n).to_owned(),
                    ty: TypeName::Integer,
                    not_null: false,
                    unique: false,
                    default: None,
                })
                .collect(),
            primary_key: vec![],
            uniques: vec![],
            foreign_keys: vec![],
            checks: vec![],
            indexes: vec![],
        }
    }

    #[test]
    fn bindings_from_and_chain() {
        let schema = schema_with(&["a", "b", "c"]);
        let pred = where_of("SELECT * FROM t WHERE a = 1 AND t.b = 'x' AND c > 5");
        let pinned = equality_bindings(&schema, "t", &pred);
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned[&0], Value::Int(1));
        assert_eq!(pinned[&1], Value::Text("x".into()));
    }

    #[test]
    fn null_and_foreign_bindings_ignored() {
        let schema = schema_with(&["a", "b"]);
        let pred = where_of("SELECT * FROM t WHERE a = NULL AND other.b = 2");
        assert!(equality_bindings(&schema, "t", &pred).is_empty());
    }

    #[test]
    fn or_predicates_never_bind() {
        let schema = schema_with(&["a", "b"]);
        let pred = where_of("SELECT * FROM t WHERE a = 1 OR b = 2");
        assert!(equality_bindings(&schema, "t", &pred).is_empty());
    }

    #[test]
    fn equi_join_extraction_and_residual() {
        let left = cols(&[("l", "id"), ("l", "x")]);
        let right = cols(&[("r", "lid"), ("r", "y")]);
        let on = where_of("SELECT * FROM t WHERE l.id = r.lid AND r.y > 3");
        let ej = analyze_equi_join(&left, &right, &on).unwrap();
        assert_eq!(ej.left_keys, vec![0]);
        assert_eq!(ej.right_keys, vec![0]);
        assert_eq!(ej.residual.len(), 1);
    }

    #[test]
    fn non_equi_condition_yields_no_hash_plan() {
        let left = cols(&[("l", "id")]);
        let right = cols(&[("r", "lid")]);
        let on = where_of("SELECT * FROM t WHERE l.id < r.lid");
        assert!(analyze_equi_join(&left, &right, &on).is_none());
    }

    #[test]
    fn ambiguous_column_goes_to_residual() {
        // "v" exists on both sides: the conjunct must not become a key.
        let left = cols(&[("l", "id"), ("l", "v")]);
        let right = cols(&[("r", "id2"), ("r", "v")]);
        let on = where_of("SELECT * FROM t WHERE v = r.id2");
        assert!(analyze_equi_join(&left, &right, &on).is_none());
    }
}
