//! The physical plan: an explicit operator tree with per-node cost and
//! cardinality estimates.
//!
//! Every node carries an estimated output cardinality, the estimated
//! cumulative cost of producing it, every decision the planner made for it
//! (index and probe key, join keys, scan worker count) and — once the Volcano executor has run
//! the tree — the rows it actually emitted (and its inclusive wall time
//! under profiling). EXPLAIN ANALYZE and the `plan.*` span attributes both
//! read those measurements off the executed tree. Rendering is deliberately
//! deterministic — golden tests snapshot the exact text.

use crate::expr::ScopeCol;
use crate::value::Key;
use sqlkit::ast::{Expr, JoinKind, Select};

/// One operator in the physical tree.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (abstract row-visit units).
    pub cost: f64,
    /// Rows the operator emitted; `None` until the plan has executed.
    pub actual_rows: Option<u64>,
    /// Inclusive wall time in nanoseconds (a node's time contains its
    /// children's); set only by a profiled execution.
    pub actual_ns: Option<u64>,
    /// The operator.
    pub op: PhysOp,
}

/// Physical operators. Children are boxed nodes; leaf scans carry what the
/// executor needs to open them against a [`crate::exec::DbState`].
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// `SELECT` without FROM: exactly one empty row.
    ResultRow,
    /// Full scan in row-id order. `pushed` carries the full WHERE clause
    /// when the scan itself filters (parallel chunked filter); otherwise
    /// filtering happens in a parent [`PhysOp::Filter`].
    SeqScan {
        /// Table name.
        table: String,
        /// FROM binding (alias or table name).
        binding: String,
        /// Full predicate evaluated inside the (parallel) scan.
        pushed: Option<Expr>,
        /// Threads the scan partitions across (1 = the calling thread).
        workers: usize,
    },
    /// Secondary-index probe on fully pinned equality columns. The probe
    /// over-approximates; the parent Filter re-applies the full predicate.
    IndexScan {
        /// Table name.
        table: String,
        /// FROM binding.
        binding: String,
        /// Chosen index.
        index: String,
        /// Probe key: the pinned value of each index column.
        key: Key,
    },
    /// FROM item is a view: expands to its defining query at open time.
    ViewScan {
        /// View name.
        view: String,
        /// FROM binding.
        binding: String,
    },
    /// Residual predicate over child rows. `streaming` evaluates row by
    /// row (LIMIT early-exit pipelines only — the sanctioned divergence);
    /// buffered mode filters the whole child batch, preserving the
    /// reference pipeline's stage-at-a-time error surfacing.
    Filter {
        /// Input operator.
        input: Box<PhysNode>,
        /// Predicate.
        predicate: Expr,
        /// Row-at-a-time evaluation (LIMIT pushdown pipelines only).
        streaming: bool,
    },
    /// Quadratic join; the only sound plan for non-equi conditions.
    NestedLoopJoin {
        /// Left (outer) input.
        left: Box<PhysNode>,
        /// Right (inner) input.
        right: Box<PhysNode>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (absent for CROSS).
        on: Option<Expr>,
    },
    /// Hash join on extracted equi-keys; re-evaluates the full ON for
    /// key-matching pairs, so output equals the nested loop's.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysNode>,
        /// Right (build) input.
        right: Box<PhysNode>,
        /// Join kind (Inner or Left).
        kind: JoinKind,
        /// Full ON condition.
        on: Expr,
        /// Key column positions in the left input's layout.
        left_keys: Vec<usize>,
        /// Key column positions in the right input's layout.
        right_keys: Vec<usize>,
    },
    /// Hash join used inside a reordered all-inner equi-join chain: the
    /// planner proved the ON chain is a pure equi-conjunction, so matching
    /// is pure key comparison (`sql_eq` on every pair) — no expression
    /// evaluation, hence no error-surfacing divergence.
    KeyedHashJoin {
        /// Left (probe) input.
        left: Box<PhysNode>,
        /// Right (build) input.
        right: Box<PhysNode>,
        /// Key column positions in the left input's layout.
        left_keys: Vec<usize>,
        /// Key column positions in the right input's layout.
        right_keys: Vec<usize>,
    },
    /// Above a reordered join chain: sorts by the hidden per-scan sequence
    /// columns (restoring the original FROM-order nested-loop row order)
    /// and permutes columns back to the syntactic scope layout.
    Restore {
        /// Input operator (the reordered join chain).
        input: Box<PhysNode>,
        /// Visible-column permutation: output position → input position.
        perm: Vec<usize>,
        /// Hidden sequence column positions, in original FROM order.
        seq_positions: Vec<usize>,
    },
    /// Projection of the SELECT items (non-aggregate queries).
    Project {
        /// Input operator.
        input: Box<PhysNode>,
        /// Row-at-a-time projection (LIMIT pushdown pipelines only).
        streaming: bool,
    },
    /// Grouping + aggregate evaluation + HAVING (aggregate queries).
    HashAggregate {
        /// Input operator.
        input: Box<PhysNode>,
        /// Number of GROUP BY keys (0 = one global group).
        keys: usize,
    },
    /// ORDER BY. `top_k` bounds the sort to the first `k` rows of the
    /// stable full sort when a LIMIT above allows it.
    Sort {
        /// Input operator.
        input: Box<PhysNode>,
        /// Number of sort keys.
        keys: usize,
        /// ORDER-BY pushdown: produce only the first `k` rows.
        top_k: Option<usize>,
    },
    /// DISTINCT, first occurrence wins (matches the reference pipeline).
    Distinct {
        /// Input operator.
        input: Box<PhysNode>,
    },
    /// OFFSET/LIMIT. `streaming` marks the early-exit pipeline.
    Limit {
        /// Input operator.
        input: Box<PhysNode>,
        /// LIMIT row count.
        limit: Option<u64>,
        /// OFFSET row count.
        offset: u64,
        /// Early-exit: stop pulling the child once offset+limit rows are
        /// produced (sanctioned divergence: predicate errors past the
        /// limit are not surfaced).
        streaming: bool,
    },
}

impl PhysNode {
    /// Child nodes, in left-to-right order.
    pub fn children(&self) -> Vec<&PhysNode> {
        match &self.op {
            PhysOp::ResultRow
            | PhysOp::SeqScan { .. }
            | PhysOp::IndexScan { .. }
            | PhysOp::ViewScan { .. } => Vec::new(),
            PhysOp::Filter { input, .. }
            | PhysOp::Restore { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::HashAggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Distinct { input }
            | PhysOp::Limit { input, .. } => vec![input],
            PhysOp::NestedLoopJoin { left, right, .. }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::KeyedHashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// One-line description of this operator (no cost annotations).
    pub fn describe(&self) -> String {
        match &self.op {
            PhysOp::ResultRow => "Result (no table)".into(),
            PhysOp::SeqScan {
                table,
                binding,
                pushed,
                workers,
            } => {
                let mut s = if *workers > 1 {
                    format!("Parallel Seq Scan on {table}")
                } else {
                    format!("Seq Scan on {table}")
                };
                if binding != table {
                    s.push_str(&format!(" as {binding}"));
                }
                if let Some(p) = pushed {
                    s.push_str(&format!(" (filter: {})", sqlkit::format_expr(p)));
                }
                s
            }
            PhysOp::IndexScan {
                table,
                binding,
                index,
                ..
            } => {
                let mut s = format!("Index Scan on {table}");
                if binding != table {
                    s.push_str(&format!(" as {binding}"));
                }
                s.push_str(&format!(" using {index}"));
                s
            }
            PhysOp::ViewScan { view, binding } => {
                let mut s = format!("View Scan on {view}");
                if binding != view {
                    s.push_str(&format!(" as {binding}"));
                }
                s
            }
            PhysOp::Filter {
                predicate,
                streaming,
                ..
            } => {
                let mut s = format!("Filter ({})", sqlkit::format_expr(predicate));
                if *streaming {
                    s.push_str(" [streaming]");
                }
                s
            }
            PhysOp::NestedLoopJoin { kind, on, .. } => {
                let mut s = match kind {
                    JoinKind::Inner => "Nested Loop Join".to_owned(),
                    JoinKind::Left => "Nested Loop Left Join".to_owned(),
                    JoinKind::Cross => "Nested Loop Cross Join".to_owned(),
                };
                if let Some(on) = on {
                    s.push_str(&format!(" on {}", sqlkit::format_expr(on)));
                }
                s
            }
            // The trailing marker is the satellite requirement: whenever a
            // hash join replaces the nested loop, the documented ON-error
            // divergence must be visible in the plan text.
            PhysOp::HashJoin { kind, on, .. } => {
                let head = match kind {
                    JoinKind::Left => "Hash Left Join",
                    _ => "Hash Join",
                };
                format!(
                    "{head} on {} [over nested loop: ON errors on non-key-matching pairs \
                     are not surfaced]",
                    sqlkit::format_expr(on)
                )
            }
            PhysOp::KeyedHashJoin { left_keys, .. } => format!(
                "Hash Join (reordered, {} key(s)) [pure equi-keys: no ON expression evaluation]",
                left_keys.len()
            ),
            PhysOp::Restore { perm, .. } => {
                format!("Restore FROM order ({} column(s))", perm.len())
            }
            PhysOp::Project { streaming, .. } => {
                if *streaming {
                    "Project [streaming]".into()
                } else {
                    "Project".into()
                }
            }
            PhysOp::HashAggregate { keys, .. } => {
                if *keys == 0 {
                    "Aggregate".into()
                } else {
                    format!("HashAggregate ({keys} key(s))")
                }
            }
            PhysOp::Sort { keys, top_k, .. } => match top_k {
                Some(k) => format!("Sort ({keys} key(s), top-k={k})"),
                None => format!("Sort ({keys} key(s))"),
            },
            PhysOp::Distinct { .. } => "Distinct".into(),
            PhysOp::Limit {
                limit,
                offset,
                streaming,
                ..
            } => {
                let mut s = "Limit (".to_owned();
                if let Some(l) = limit {
                    s.push_str(&format!("limit={l}"));
                }
                if *offset > 0 {
                    if limit.is_some() {
                        s.push_str(", ");
                    }
                    s.push_str(&format!("offset={offset}"));
                }
                s.push(')');
                if *streaming {
                    s.push_str(" [streaming early-exit]");
                }
                s
            }
        }
    }
}

/// A complete physical plan for one SELECT block.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// Root operator.
    pub root: PhysNode,
    /// The (subquery-resolved) SELECT the plan executes; head operators
    /// read their expressions from here.
    pub sel: Select,
    /// Combined FROM scope in syntactic order.
    pub scope_cols: Vec<ScopeCol>,
    /// Whether the query aggregates (GROUP BY or aggregate functions).
    pub has_aggregate: bool,
}

impl PhysPlan {
    /// Render the tree as indented text, one operator per line. An executed
    /// plan appends each operator's measured rows (`actual rows=N`, or
    /// `actual time=X.XXXms rows=N` after a profiled run).
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        render_into(&self.root, 0, &mut lines);
        lines
    }

    /// The executed plan condensed to stable `(key, count)` pairs — the
    /// shape span attributes want, so executor decisions (index probes vs
    /// parallel scans vs hash joins) appear in the same trace tree as the
    /// tool call that caused them. Keys are always present, in a fixed
    /// order. `plan.rows_scanned` sums the rows the scan leaves *emitted*:
    /// index candidates, view results, and table rows that survived a
    /// pushed-down predicate or were read before a streaming LIMIT stopped.
    pub fn attr_counts(&self) -> Vec<(&'static str, u64)> {
        let (mut seq, mut parallel, mut probes, mut views) = (0u64, 0u64, 0u64, 0u64);
        let (mut nested, mut hash, mut rows_scanned) = (0u64, 0u64, 0u64);
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            let scan_kind = match &node.op {
                PhysOp::SeqScan { workers, .. } if *workers > 1 => Some(&mut parallel),
                PhysOp::SeqScan { .. } => Some(&mut seq),
                PhysOp::IndexScan { .. } => Some(&mut probes),
                PhysOp::ViewScan { .. } => Some(&mut views),
                PhysOp::NestedLoopJoin { .. } => {
                    nested += 1;
                    None
                }
                PhysOp::HashJoin { .. } | PhysOp::KeyedHashJoin { .. } => {
                    hash += 1;
                    None
                }
                _ => None,
            };
            if let Some(kind) = scan_kind {
                *kind += 1;
                rows_scanned += node.actual_rows.unwrap_or(0);
            }
            stack.extend(node.children());
        }
        vec![
            ("plan.seq_scans", seq),
            ("plan.parallel_scans", parallel),
            ("plan.index_probes", probes),
            ("plan.view_expands", views),
            ("plan.nested_loop_joins", nested),
            ("plan.hash_joins", hash),
            ("plan.rows_scanned", rows_scanned),
        ]
    }
}

fn render_into(node: &PhysNode, depth: usize, lines: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    let mut line = format!(
        "{pad}{} (cost={:.2} rows={})",
        node.describe(),
        node.cost,
        node.est_rows.round().max(0.0) as u64
    );
    if let Some(n) = node.actual_rows {
        match node.actual_ns {
            Some(ns) => line.push_str(&format!(
                " (actual time={:.3}ms rows={n})",
                ns as f64 / 1_000_000.0
            )),
            None => line.push_str(&format!(" (actual rows={n})")),
        }
    }
    lines.push(line);
    for child in node.children() {
        render_into(child, depth + 1, lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::ast::Statement;

    fn node(actual_rows: u64, op: PhysOp) -> Box<PhysNode> {
        Box::new(PhysNode {
            est_rows: 0.0,
            cost: 0.0,
            actual_rows: Some(actual_rows),
            actual_ns: None,
            op,
        })
    }

    fn scan(table: &str, workers: usize, actual_rows: u64) -> Box<PhysNode> {
        let op = PhysOp::SeqScan {
            table: table.into(),
            binding: table.into(),
            pushed: None,
            workers,
        };
        node(actual_rows, op)
    }

    #[test]
    fn attr_counts_cover_every_scan_and_join_kind() {
        let Ok(Statement::Select(sel)) = sqlkit::parse_statement("SELECT 1 FROM a WHERE x = y")
        else {
            panic!("expected SELECT");
        };
        let probe = PhysOp::IndexScan {
            table: "c".into(),
            binding: "c".into(),
            index: "c_idx".into(),
            key: Key(Vec::new()),
        };
        let view = PhysOp::ViewScan {
            view: "v".into(),
            binding: "v".into(),
        };
        let nested = PhysOp::NestedLoopJoin {
            left: scan("a", 1, 10),
            right: scan("b", 4, 100),
            kind: JoinKind::Cross,
            on: None,
        };
        let hash = PhysOp::HashJoin {
            left: node(1000, nested),
            right: node(3, probe),
            kind: JoinKind::Left,
            on: sel.where_clause.clone().expect("WHERE"),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let keyed = PhysOp::KeyedHashJoin {
            left: node(1000, hash),
            right: node(5, view),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let mut plan = PhysPlan {
            root: *node(
                40,
                PhysOp::Project {
                    input: node(40, keyed),
                    streaming: false,
                },
            ),
            sel,
            scope_cols: Vec::new(),
            has_aggregate: false,
        };
        // Only scan leaves feed `rows_scanned` (10 + 100 + 3 + 5), not the
        // join outputs above them.
        let expect = [
            ("plan.seq_scans", 1),
            ("plan.parallel_scans", 1),
            ("plan.index_probes", 1),
            ("plan.view_expands", 1),
            ("plan.nested_loop_joins", 1),
            ("plan.hash_joins", 2),
            ("plan.rows_scanned", 118),
        ];
        assert_eq!(plan.attr_counts(), expect);
        // Keys and order are stable even on a plan with nothing to count.
        plan.root = *node(1, PhysOp::ResultRow);
        assert_eq!(plan.attr_counts(), expect.map(|(key, _)| (key, 0)));
    }
}
