//! Static analysis of parsed statements.
//!
//! BridgeScope's object-level verification (§2.3 of the paper) needs to know,
//! for any SQL text, *which action it performs on which objects* — before the
//! engine touches anything. [`analyze`] walks the AST and produces exactly
//! that: per-object action requirements, including objects referenced only
//! from subqueries or `INSERT … SELECT` sources.

use crate::ast::*;
use std::collections::BTreeSet;

/// The access profile of one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessProfile {
    /// The primary action of the statement.
    pub action: Action,
    /// Objects the statement reads from (tables appearing in FROM/joins/
    /// subqueries/sources).
    pub reads: BTreeSet<String>,
    /// Objects the statement writes (DML targets, DDL subjects).
    pub writes: BTreeSet<String>,
}

impl AccessProfile {
    /// All ⟨action, object⟩ pairs the statement requires. Reads require
    /// SELECT; writes require the statement's primary action.
    pub fn required_privileges(&self) -> Vec<(Action, String)> {
        let mut out = Vec::new();
        for obj in &self.reads {
            out.push((Action::Select, obj.clone()));
        }
        for obj in &self.writes {
            out.push((self.action, obj.clone()));
        }
        out
    }

    /// Every object the statement touches in any way.
    pub fn all_objects(&self) -> BTreeSet<String> {
        self.reads.union(&self.writes).cloned().collect()
    }
}

/// Column-level usage of a statement, with aliases resolved to table names.
/// Supports column-granular security checks (paper §2.2's "more granular
/// privileges (e.g., on specific columns)").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnUsage {
    /// Tables whose *entire* row is exposed or written: `SELECT *`,
    /// `t.*`, or `INSERT INTO t VALUES …` without a column list.
    pub(crate) wildcard_tables: BTreeSet<String>,
    /// Column references resolved to a table (`t.c`, or an alias of `t`).
    pub qualified: BTreeSet<(String, String)>,
    /// Unqualified column names, paired with the set of tables in scope at
    /// the point of use — the column belongs to one of them.
    pub unqualified: Vec<(String, BTreeSet<String>)>,
}

impl ColumnUsage {
    /// Whether the statement may touch `table.column` — conservatively
    /// (wildcards and unresolved unqualified names count as "may touch").
    pub fn may_touch(&self, table: &str, column: &str) -> bool {
        if self.wildcard_tables.contains(table) {
            return true;
        }
        if self
            .qualified
            .contains(&(table.to_owned(), column.to_owned()))
        {
            return true;
        }
        self.unqualified
            .iter()
            .any(|(name, scope)| name == column && scope.contains(table))
    }
}

/// Compute the column-level usage of a statement.
pub fn column_usage(stmt: &Statement) -> ColumnUsage {
    if let Statement::Explain { stmt: inner, .. } = stmt {
        return column_usage(inner);
    }
    let mut usage = ColumnUsage::default();
    match stmt {
        Statement::Select(s) => usage_select(s, &mut usage),
        Statement::Insert(ins) => {
            if ins.columns.is_empty() {
                usage.wildcard_tables.insert(ins.table.clone());
            } else {
                for c in &ins.columns {
                    usage.qualified.insert((ins.table.clone(), c.clone()));
                }
            }
            match &ins.source {
                InsertSource::Values(rows) => {
                    let scope = BTreeSet::new();
                    for row in rows {
                        for e in row {
                            usage_expr(e, &scope, &mut usage);
                        }
                    }
                }
                InsertSource::Select(sel) => usage_select(sel, &mut usage),
            }
        }
        Statement::Update(u) => {
            let scope: BTreeSet<String> = [u.table.clone()].into();
            for (col, e) in &u.assignments {
                usage.qualified.insert((u.table.clone(), col.clone()));
                usage_expr(e, &scope, &mut usage);
            }
            if let Some(w) = &u.where_clause {
                usage_expr(w, &scope, &mut usage);
            }
        }
        Statement::Delete(d) => {
            let scope: BTreeSet<String> = [d.table.clone()].into();
            if let Some(w) = &d.where_clause {
                usage_expr(w, &scope, &mut usage);
            }
        }
        Statement::CreateView(v) => usage_select(&v.query, &mut usage),
        // DDL/TCL/privilege statements operate at object granularity.
        _ => {}
    }
    usage
}

fn usage_select(s: &Select, usage: &mut ColumnUsage) {
    // Resolve bindings: alias (or table name) → table name.
    let mut bindings: Vec<(&str, &str)> = Vec::new();
    let mut scope: BTreeSet<String> = BTreeSet::new();
    if let Some(from) = &s.from {
        bindings.push((from.binding(), from.name.as_str()));
        scope.insert(from.name.clone());
    }
    for j in &s.joins {
        bindings.push((j.table.binding(), j.table.name.as_str()));
        scope.insert(j.table.name.clone());
    }
    let resolve = |qualifier: &str| -> Option<String> {
        bindings
            .iter()
            .find(|(b, _)| *b == qualifier)
            .map(|(_, t)| (*t).to_owned())
    };
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                usage.wildcard_tables.extend(scope.iter().cloned());
            }
            SelectItem::QualifiedWildcard(q) => {
                if let Some(t) = resolve(q) {
                    usage.wildcard_tables.insert(t);
                } else {
                    usage.wildcard_tables.insert(q.clone());
                }
            }
            SelectItem::Expr { expr, .. } => usage_expr_in_select(expr, &scope, &resolve, usage),
        }
    }
    for e in s
        .where_clause
        .iter()
        .chain(s.group_by.iter())
        .chain(s.having.iter())
        .chain(s.order_by.iter().map(|o| &o.expr))
        .chain(s.joins.iter().filter_map(|j| j.on.as_ref()))
    {
        usage_expr_in_select(e, &scope, &resolve, usage);
    }
}

fn usage_expr_in_select(
    e: &Expr,
    scope: &BTreeSet<String>,
    resolve: &dyn Fn(&str) -> Option<String>,
    usage: &mut ColumnUsage,
) {
    match e {
        Expr::Column(c) => match &c.table {
            Some(q) => {
                let table = resolve(q).unwrap_or_else(|| q.clone());
                usage.qualified.insert((table, c.column.clone()));
            }
            None => usage.unqualified.push((c.column.clone(), scope.clone())),
        },
        Expr::InSubquery { expr, subquery, .. } => {
            usage_expr_in_select(expr, scope, resolve, usage);
            usage_select(subquery, usage);
        }
        Expr::ScalarSubquery(sub) => usage_select(sub, usage),
        other => {
            for child in expr_children(other) {
                usage_expr_in_select(child, scope, resolve, usage);
            }
        }
    }
}

fn usage_expr(e: &Expr, scope: &BTreeSet<String>, usage: &mut ColumnUsage) {
    let resolve = |q: &str| -> Option<String> {
        if scope.contains(q) {
            Some(q.to_owned())
        } else {
            None
        }
    };
    usage_expr_in_select(e, scope, &resolve, usage);
}

/// Direct sub-expressions of an expression (excluding subqueries, which the
/// usage walker handles itself).
fn expr_children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Literal(_) | Expr::Column(_) => Vec::new(),
        Expr::Unary { expr, .. } => vec![expr],
        Expr::Binary { left, right, .. } => vec![left, right],
        Expr::Function { args, .. } => args.iter().collect(),
        Expr::IsNull { expr, .. } => vec![expr],
        Expr::InList { expr, list, .. } => {
            let mut out = vec![expr.as_ref()];
            out.extend(list.iter());
            out
        }
        Expr::InSubquery { expr, .. } => vec![expr],
        Expr::ScalarSubquery(_) => Vec::new(),
        Expr::Between {
            expr, low, high, ..
        } => vec![expr, low, high],
        Expr::Like { expr, pattern, .. } => vec![expr, pattern],
        Expr::Case {
            branches,
            else_expr,
        } => {
            let mut out = Vec::new();
            for (c, v) in branches {
                out.push(c);
                out.push(v);
            }
            if let Some(e) = else_expr {
                out.push(e.as_ref());
            }
            out
        }
        Expr::Cast { expr, .. } => vec![expr],
    }
}

/// Compute the access profile of a statement.
pub fn analyze(stmt: &Statement) -> AccessProfile {
    if let Statement::Explain { stmt: inner, .. } = stmt {
        // EXPLAIN requires the explained statement's privileges.
        return analyze(inner);
    }
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    match stmt {
        Statement::Select(s) => collect_select(s, &mut reads),
        Statement::Insert(ins) => {
            writes.insert(ins.table.clone());
            match &ins.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            collect_expr(e, &mut reads);
                        }
                    }
                }
                InsertSource::Select(sel) => collect_select(sel, &mut reads),
            }
        }
        Statement::Update(u) => {
            writes.insert(u.table.clone());
            for (_, e) in &u.assignments {
                collect_expr(e, &mut reads);
            }
            if let Some(w) = &u.where_clause {
                collect_expr(w, &mut reads);
            }
        }
        Statement::Delete(d) => {
            writes.insert(d.table.clone());
            if let Some(w) = &d.where_clause {
                collect_expr(w, &mut reads);
            }
        }
        Statement::CreateView(v) => {
            writes.insert(v.name.clone());
            collect_select(&v.query, &mut reads);
        }
        Statement::DropView { name, .. } => {
            writes.insert(name.clone());
        }
        Statement::CreateTable(ct) => {
            writes.insert(ct.name.clone());
            for c in &ct.columns {
                if let Some((t, _)) = &c.references {
                    reads.insert(t.clone());
                }
            }
            for cons in &ct.constraints {
                if let TableConstraint::ForeignKey { foreign_table, .. } = cons {
                    reads.insert(foreign_table.clone());
                }
            }
        }
        Statement::DropTable(dt) => {
            for name in &dt.names {
                writes.insert(name.clone());
            }
        }
        Statement::CreateIndex(ci) => {
            writes.insert(ci.table.clone());
        }
        Statement::AlterTable(at) => {
            writes.insert(at.table().to_owned());
        }
        Statement::Begin
        | Statement::Commit
        | Statement::Rollback
        | Statement::Savepoint(_)
        | Statement::RollbackTo(_)
        | Statement::Release(_) => {}
        Statement::Explain { .. } => unreachable!("handled above"),
        Statement::Analyze { table } => {
            // Statistics collection rewrites the catalog entry of the named
            // table. A whole-database ANALYZE names no static object; the
            // engine gates it at execution (superuser only).
            if let Some(t) = table {
                writes.insert(t.clone());
            }
        }
        Statement::GrantRevoke(g) => {
            for obj in &g.objects {
                writes.insert(obj.clone());
            }
        }
    }
    AccessProfile {
        action: stmt.action(),
        reads,
        writes,
    }
}

fn collect_select(s: &Select, reads: &mut BTreeSet<String>) {
    if let Some(from) = &s.from {
        reads.insert(from.name.clone());
    }
    for j in &s.joins {
        reads.insert(j.table.name.clone());
        if let Some(on) = &j.on {
            collect_expr(on, reads);
        }
    }
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_expr(expr, reads);
        }
    }
    if let Some(w) = &s.where_clause {
        collect_expr(w, reads);
    }
    for g in &s.group_by {
        collect_expr(g, reads);
    }
    if let Some(h) = &s.having {
        collect_expr(h, reads);
    }
    for o in &s.order_by {
        collect_expr(&o.expr, reads);
    }
}

fn collect_expr(e: &Expr, reads: &mut BTreeSet<String>) {
    match e {
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Unary { expr, .. } => collect_expr(expr, reads),
        Expr::Binary { left, right, .. } => {
            collect_expr(left, reads);
            collect_expr(right, reads);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_expr(a, reads);
            }
        }
        Expr::IsNull { expr, .. } => collect_expr(expr, reads),
        Expr::InList { expr, list, .. } => {
            collect_expr(expr, reads);
            for item in list {
                collect_expr(item, reads);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            collect_expr(expr, reads);
            collect_select(subquery, reads);
        }
        Expr::ScalarSubquery(sub) => collect_select(sub, reads),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_expr(expr, reads);
            collect_expr(low, reads);
            collect_expr(high, reads);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_expr(expr, reads);
            collect_expr(pattern, reads);
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_expr(c, reads);
                collect_expr(v, reads);
            }
            if let Some(e) = else_expr {
                collect_expr(e, reads);
            }
        }
        Expr::Cast { expr, .. } => collect_expr(expr, reads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn profile(sql: &str) -> AccessProfile {
        analyze(&parse_statement(sql).unwrap())
    }

    fn names(set: &BTreeSet<String>) -> Vec<&str> {
        set.iter().map(String::as_str).collect()
    }

    #[test]
    fn select_reads_all_tables() {
        let p = profile("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y IN (SELECT y FROM c)");
        assert_eq!(p.action, Action::Select);
        assert_eq!(names(&p.reads), vec!["a", "b", "c"]);
        assert!(p.writes.is_empty());
    }

    #[test]
    fn insert_writes_target_reads_source() {
        let p = profile("INSERT INTO t SELECT * FROM u");
        assert_eq!(p.action, Action::Insert);
        assert_eq!(names(&p.writes), vec!["t"]);
        assert_eq!(names(&p.reads), vec!["u"]);
    }

    #[test]
    fn update_with_subquery_in_where() {
        let p = profile("UPDATE t SET a = 1 WHERE id IN (SELECT id FROM u)");
        assert_eq!(names(&p.writes), vec!["t"]);
        assert_eq!(names(&p.reads), vec!["u"]);
    }

    #[test]
    fn delete_profile() {
        let p = profile("DELETE FROM logs WHERE day < '2020-01-01'");
        assert_eq!(p.action, Action::Delete);
        assert_eq!(names(&p.writes), vec!["logs"]);
    }

    #[test]
    fn ddl_profiles() {
        let p = profile("CREATE TABLE t (id INTEGER REFERENCES u(id))");
        assert_eq!(p.action, Action::Create);
        assert_eq!(names(&p.writes), vec!["t"]);
        assert_eq!(names(&p.reads), vec!["u"]);

        let p = profile("DROP TABLE a, b");
        assert_eq!(p.action, Action::Drop);
        assert_eq!(names(&p.writes), vec!["a", "b"]);
    }

    #[test]
    fn required_privileges_pairs() {
        let p = profile("INSERT INTO t SELECT * FROM u");
        let req = p.required_privileges();
        assert!(req.contains(&(Action::Select, "u".into())));
        assert!(req.contains(&(Action::Insert, "t".into())));
    }

    #[test]
    fn transaction_statements_touch_nothing() {
        let p = profile("BEGIN");
        assert!(p.reads.is_empty() && p.writes.is_empty());
        assert_eq!(p.action, Action::Transaction);
    }

    #[test]
    fn scalar_subquery_in_projection() {
        let p = profile("SELECT (SELECT MAX(x) FROM m), a FROM t");
        assert_eq!(names(&p.reads), vec!["m", "t"]);
    }

    fn usage(sql: &str) -> ColumnUsage {
        column_usage(&parse_statement(sql).unwrap())
    }

    #[test]
    fn column_usage_resolves_aliases() {
        let u = usage("SELECT e.salary, d.name FROM emp AS e JOIN dept AS d ON e.dept_id = d.id");
        assert!(u.qualified.contains(&("emp".into(), "salary".into())));
        assert!(u.qualified.contains(&("dept".into(), "name".into())));
        assert!(u.qualified.contains(&("emp".into(), "dept_id".into())));
        assert!(u.may_touch("emp", "salary"));
        assert!(!u.may_touch("emp", "nope"));
    }

    #[test]
    fn column_usage_unqualified_is_conservative() {
        let u = usage("SELECT salary FROM emp JOIN dept ON 1 = 1");
        // `salary` could come from either table in scope.
        assert!(u.may_touch("emp", "salary"));
        assert!(u.may_touch("dept", "salary"));
        assert!(!u.may_touch("other", "salary"));
    }

    #[test]
    fn column_usage_wildcards() {
        let u = usage("SELECT * FROM emp");
        assert!(u.wildcard_tables.contains("emp"));
        assert!(u.may_touch("emp", "anything"));
        let u = usage("SELECT e.* FROM emp AS e JOIN dept AS d ON e.id = d.id");
        assert!(u.wildcard_tables.contains("emp"));
        assert!(!u.wildcard_tables.contains("dept"));
    }

    #[test]
    fn column_usage_dml() {
        let u = usage("INSERT INTO emp (id, salary) VALUES (1, 2)");
        assert!(u.may_touch("emp", "salary"));
        assert!(!u.may_touch("emp", "name"));
        let u = usage("INSERT INTO emp VALUES (1, 2)");
        assert!(u.wildcard_tables.contains("emp"));
        let u = usage("UPDATE emp SET salary = salary * 2 WHERE id = 1");
        assert!(u.may_touch("emp", "salary"));
        assert!(u.may_touch("emp", "id"));
        let u = usage("DELETE FROM emp WHERE salary > 10");
        assert!(u.may_touch("emp", "salary"));
    }

    #[test]
    fn column_usage_sees_subqueries() {
        let u = usage("SELECT a FROM t WHERE x IN (SELECT salary FROM emp)");
        assert!(u.may_touch("emp", "salary"));
        let u = usage("INSERT INTO t SELECT salary FROM emp");
        assert!(u.may_touch("emp", "salary"));
    }
}
