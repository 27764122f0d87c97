//! F2 — action-modularized, security-gated SQL execution tools.
//!
//! BridgeScope instantiates one tool per SQL action (`select`, `insert`, …).
//! Each tool (paper §2.3):
//!
//! 1. **accepts only statements of its own action** — an `insert` tool
//!    refuses a `DELETE`, keeping tool semantics crisp for the LLM;
//! 2. runs **object-level verification** before execution: every object the
//!    statement touches (including via subqueries, discovered by `sqlkit`'s
//!    static analysis) is checked against the user's database privileges and
//!    the user-side security policy;
//! 3. only then executes through the shared session, so statements compose
//!    with the transaction tools.

use crate::bridge::{db_error_to_tool, result_to_output, BridgeContext};
use gate::PreparedPlan;
use minidb::{CommittedVersion, ExecOptions};
use obs::SpanGuard;
use sqlkit::ast::Action;
use std::sync::Arc;
use toolproto::{ArgSpec, ArgType, Args, FnTool, Risk, Signature, Tool, ToolError, ToolResult};

/// Maximum characters of SQL text kept in span attributes and contexts.
const SQL_ATTR_MAX: usize = 200;

/// Risk class of an action's tool.
pub(crate) fn action_risk(action: Action) -> Risk {
    match action {
        Action::Select => Risk::Safe,
        Action::Insert | Action::Update | Action::Delete => Risk::Mutating,
        Action::Create | Action::Drop | Action::Alter => Risk::Destructive,
        Action::GrantRevoke | Action::Transaction => Risk::Destructive,
    }
}

/// The verification-and-execution body shared by all action tools: open a
/// `sql:execute` span around the whole verify-then-run path, attach the
/// statement, outcome, and executor plan attributes, and enrich any denial
/// with the originating SQL.
fn verified_execute(ctx: &BridgeContext, expected: Action, sql: &str) -> ToolResult {
    let mut span = ctx.obs.span("sql:execute");
    if span.enabled() {
        span.attr("action", expected.keyword());
        span.attr("sql", sqlkit::truncate_sql(sql, SQL_ATTR_MAX));
    }
    // The statement's one normalization, computed only when something reads
    // it: the plan-cache key, the in-flight note and the statement-store key.
    let key =
        (ctx.obs.is_enabled() || ctx.plan_cache.get().is_some()).then(|| gate::normalize_sql(sql));
    // One committed version for the whole call: the plan-cache stamp, the
    // tool-side checks and the engine's own check all read it.
    let version = ctx.db.snapshot();
    let prepared = prepare(ctx, sql, key.as_deref(), &version);
    let cache_hit = matches!(prepared, Ok((_, true)));
    let result = prepared.and_then(|(plan, _)| {
        verify_and_run(ctx, expected, &plan, &version, key.as_deref(), &mut span)
    });
    if ctx.obs.is_enabled() {
        match &result {
            Ok(out) => {
                if let Some(rows) = out.rows {
                    span.attr("rows", rows);
                }
                ctx.obs
                    .incr_with("sql.statements", &[("action", expected.keyword())], 1);
            }
            Err(e) => {
                span.fail(e.to_string());
                ctx.obs.incr("sql.errors", 1);
            }
        }
        ctx.obs.observe_ns("sql.latency", span.elapsed_ns());
        // Feed the statement statistics store. Keys are the gate's
        // token-normalized form, so whitespace-only variants collapse into
        // one entry (bounded cardinality per user; see `obs::StatementStore`).
        let outcome = match &result {
            Ok(_) => obs::StatementOutcome::Ok,
            Err(ToolError::Denied { .. }) => obs::StatementOutcome::Denied,
            // `db_error_to_tool` keeps the engine's stable "serialization
            // conflict" prefix through the round-trip precisely so layers
            // like this one can classify without a dedicated variant.
            Err(e) if e.to_string().contains("serialization conflict") => {
                obs::StatementOutcome::Conflict
            }
            Err(_) => obs::StatementOutcome::Error,
        };
        let rows = result.as_ref().ok().and_then(|o| o.rows).unwrap_or(0) as u64;
        if let Some(key) = &key {
            let elapsed = span.elapsed_ns();
            ctx.obs
                .record_statement(&ctx.user, key, elapsed, rows, cache_hit, outcome);
        }
    }
    result.map_err(|e| e.with_denial_sql(sqlkit::truncate_sql(sql, SQL_ATTR_MAX)))
}

/// Parse and statically analyze `sql`, through the prepared-plan cache when
/// the gated build installed one. The cached artifact is pure parse +
/// analysis — every privilege and policy check below re-runs against the
/// version pinned for the call, so a cache hit can never widen access; it
/// only skips re-deriving what the text alone determines. Returns whether
/// the plan came from the cache, for the statement statistics store. `key`
/// is the statement's normalized text, present whenever a cache is
/// installed.
fn prepare(
    ctx: &BridgeContext,
    sql: &str,
    key: Option<&str>,
    version: &CommittedVersion,
) -> Result<(Arc<PreparedPlan>, bool), ToolError> {
    match (ctx.plan_cache.get(), key) {
        (Some(cache), Some(key)) => {
            // The gate's span for the plan-cache consult: nested under the
            // enclosing `sql:execute`, so a cross-layer trace shows whether
            // parsing/analysis was skipped.
            let mut span = ctx.obs.span("gate:plan");
            // Keyed on the plan generation, not the commit timestamp alone:
            // a cached plan must also be invalidated when ANALYZE refreshes
            // the optimizer statistics it was costed against.
            let generation = version.plan_generation();
            let (plan, hit) = cache
                .prepare(key, sql, generation)
                .map_err(|e| ToolError::Execution(e.to_string()))?;
            if span.enabled() {
                span.attr("hit", hit);
            }
            ctx.obs.incr_with(
                "gate.cache",
                &[
                    ("tool", "plan"),
                    ("hit", if hit { "true" } else { "false" }),
                ],
                1,
            );
            Ok((plan, hit))
        }
        _ => PreparedPlan::prepare(sql)
            .map(|plan| (Arc::new(plan), false))
            .map_err(|e| ToolError::Execution(e.to_string())),
    }
}

fn verify_and_run(
    ctx: &BridgeContext,
    expected: Action,
    prepared: &PreparedPlan,
    version: &Arc<CommittedVersion>,
    key: Option<&str>,
    span: &mut SpanGuard,
) -> ToolResult {
    let stmt = &prepared.stmt;
    let action = stmt.action();
    if action != expected {
        return Err(ToolError::Execution(format!(
            "this tool executes only {expected} statements, got a {action} statement",
        )));
    }
    // Surface the (normalized) statement on the in-flight call registry, so
    // `/queries` shows what each live trace is executing right now.
    if let (true, Some(key)) = (ctx.obs.is_enabled(), key) {
        ctx.obs.note_statement(key);
    }
    // Object-level verification (tool-side, before the engine sees it).
    let profile = &prepared.profile;
    let objects = profile.all_objects();
    for object in &objects {
        // Policy first: policy restrictions exist precisely to hide objects
        // the user *could* access. A whitelist confines even creations.
        ctx.check_policy_object(object)?;
    }
    for (action, object) in profile.required_privileges() {
        // CREATE TABLE introduces a new object, on which privileges cannot
        // be checked: the engine's check (superuser-only) decides.
        if action == Action::Create && !version.state.catalog.contains(&object) {
            continue;
        }
        ctx.check_privilege(version, action, &object)?;
    }
    // Column-level policy: reject statements that may touch a restricted
    // column, including via wildcards (which would expose it).
    if objects
        .iter()
        .any(|t| ctx.policy.has_column_restrictions(t))
    {
        let usage = &prepared.usage;
        for (table, column) in &ctx.policy.column_blacklist {
            if usage.may_touch(table, column) {
                return Err(ctx.deny_column(
                    table,
                    column,
                    format!(
                        "statement may access column \"{table}.{column}\", which is restricted \
                         by the user's security policy (avoid wildcards; list columns explicitly)"
                    ),
                ));
            }
        }
    }
    // Execute on the pinned version; the engine re-checks the same profile
    // against the same grants. Writes and in-transaction statements go
    // through the shared session (that is what makes begin/insert/commit
    // compose). Reads outside a transaction run on an ephemeral session
    // instead, so proxy units can execute sibling SELECT producers truly in
    // parallel rather than serializing on the shared-session lock.
    let mut shared = ctx.session.lock();
    let (result, plan) = if expected != Action::Select || shared.in_transaction() {
        shared
            .execute_pinned(stmt, profile, version, &ExecOptions::default())
            .map(|(result, _)| (result, None))
    } else {
        drop(shared);
        let mut ephemeral = ctx
            .db
            .session(&ctx.user)
            .map_err(|e| ToolError::Execution(e.to_string()))?;
        // A traced call also profiles, so the span carries the annotated
        // operator tree (actual rows *and* wall time per node). The cost is
        // two clock reads per operator dispatch — negligible next to the
        // wire round-trip — and when the flight recorder later retains this
        // call as slow, the profile explains where the time went.
        let opts = ExecOptions {
            profiling: span.enabled(),
            ..ExecOptions::default()
        };
        ephemeral.execute_pinned(stmt, profile, version, &opts)
    }
    .map_err(db_error_to_tool)?;
    if let (true, Some(plan)) = (span.enabled(), plan) {
        for (key, count) in plan.attr_counts() {
            span.attr(key, count);
        }
        span.attr("plan.profile", plan.render().join("\n"));
    }
    Ok(result_to_output(result))
}

fn sql_signature(action: Action) -> Signature {
    Signature::new(vec![ArgSpec::required(
        "sql",
        ArgType::String,
        format!("a single {action} statement"),
    )])
}

fn description(action: Action) -> String {
    match action {
        Action::Select => "Execute a SELECT query and return its rows.".into(),
        Action::Insert => "Execute an INSERT statement (inside begin/commit).".into(),
        Action::Update => "Execute an UPDATE statement (inside begin/commit).".into(),
        Action::Delete => "Execute a DELETE statement (inside begin/commit).".into(),
        Action::Create => "Execute a CREATE TABLE/INDEX statement.".into(),
        Action::Drop => "Execute a DROP TABLE statement. Destructive.".into(),
        Action::Alter => "Execute an ALTER TABLE statement.".into(),
        other => format!("Execute a {other} statement."),
    }
}

/// Build the dedicated tool for one SQL action.
pub(crate) fn action_tool(ctx: Arc<BridgeContext>, action: Action) -> impl Tool {
    FnTool::new(
        action.keyword(),
        description(action),
        sql_signature(action),
        move |args: &Args| {
            let sql = args["sql"].as_str().expect("validated");
            verified_execute(&ctx, action, sql)
        },
    )
    .with_risk(action_risk(action))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityPolicy;
    use minidb::Database;
    use toolproto::{Json, Registry};

    fn demo() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)")
            .unwrap();
        s.execute_sql("CREATE TABLE other (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("INSERT INTO sales VALUES (1, 10.0), (2, 20.0)")
            .unwrap();
        db.create_user("manager", false).unwrap();
        db.grant_all("manager", "sales").unwrap();
        db
    }

    fn registry(db: &Database, user: &str, policy: SecurityPolicy) -> Registry {
        let ctx = BridgeContext::new(db.clone(), user, policy).unwrap();
        let mut reg = Registry::new();
        for action in [
            Action::Select,
            Action::Insert,
            Action::Update,
            Action::Delete,
            Action::Drop,
        ] {
            reg.register(std::sync::Arc::new(action_tool(Arc::clone(&ctx), action)));
        }
        reg
    }

    fn sql_args(sql: &str) -> Json {
        Json::object([("sql", Json::str(sql))])
    }

    #[test]
    fn select_tool_returns_rows() {
        let db = demo();
        let reg = registry(&db, "manager", SecurityPolicy::default());
        let out = reg
            .call("select", &sql_args("SELECT COUNT(*) FROM sales"))
            .unwrap();
        assert_eq!(
            out.value.pointer("/rows/0/0").and_then(Json::as_i64),
            Some(2)
        );
    }

    #[test]
    fn tool_rejects_foreign_action() {
        let db = demo();
        let reg = registry(&db, "manager", SecurityPolicy::default());
        let err = reg
            .call("insert", &sql_args("DELETE FROM sales"))
            .unwrap_err();
        assert!(err.to_string().contains("only INSERT"), "{err}");
        // Prompt-injection style: a SELECT tool asked to DROP.
        let err = reg
            .call("select", &sql_args("DROP TABLE sales"))
            .unwrap_err();
        assert!(err.to_string().contains("only SELECT"), "{err}");
    }

    #[test]
    fn object_verification_blocks_unauthorized_tables() {
        let db = demo();
        let reg = registry(&db, "manager", SecurityPolicy::default());
        // manager has no privileges on `other`, even via subquery.
        let err = reg
            .call(
                "select",
                &sql_args("SELECT * FROM sales WHERE id IN (SELECT id FROM other)"),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "privilege"));
    }

    #[test]
    fn policy_blocks_objects_before_engine() {
        let db = demo();
        let policy = SecurityPolicy::default().with_blacklist(["sales"]);
        let reg = registry(&db, "admin", policy);
        let err = reg
            .call("select", &sql_args("SELECT * FROM sales"))
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "policy"));
    }

    #[test]
    fn dml_flows_through() {
        let db = demo();
        let reg = registry(&db, "manager", SecurityPolicy::default());
        let out = reg
            .call("insert", &sql_args("INSERT INTO sales VALUES (3, 30.0)"))
            .unwrap();
        assert_eq!(out.value.get("affected").and_then(Json::as_i64), Some(1));
        let out = reg
            .call(
                "update",
                &sql_args("UPDATE sales SET amount = 0 WHERE id = 3"),
            )
            .unwrap();
        assert_eq!(out.value.get("affected").and_then(Json::as_i64), Some(1));
        let out = reg
            .call("delete", &sql_args("DELETE FROM sales WHERE id = 3"))
            .unwrap();
        assert_eq!(out.value.get("affected").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn parse_errors_are_execution_errors() {
        let db = demo();
        let reg = registry(&db, "manager", SecurityPolicy::default());
        let err = reg.call("select", &sql_args("SELEC oops")).unwrap_err();
        assert!(matches!(err, ToolError::Execution(_)));
    }

    #[test]
    fn risk_classes() {
        assert_eq!(action_risk(Action::Select), Risk::Safe);
        assert_eq!(action_risk(Action::Update), Risk::Mutating);
        assert_eq!(action_risk(Action::Drop), Risk::Destructive);
    }

    #[test]
    fn column_blacklist_blocks_access_paths() {
        let db = demo();
        let policy = SecurityPolicy::default().with_column_blacklist([("sales", "amount")]);
        let reg = registry(&db, "admin", policy);
        // Direct reference, qualified or not.
        for stmt in [
            "SELECT amount FROM sales",
            "SELECT s.amount FROM sales AS s",
            "SELECT * FROM sales",
            "SELECT id FROM sales ORDER BY amount",
            "SELECT id FROM sales WHERE amount > 5",
            "UPDATE sales SET amount = 0 WHERE id = 1",
            "INSERT INTO sales VALUES (9, 9.0)",
        ] {
            let err = reg
                .call(
                    if stmt.starts_with("UPDATE") {
                        "update"
                    } else if stmt.starts_with("INSERT") {
                        "insert"
                    } else {
                        "select"
                    },
                    &sql_args(stmt),
                )
                .unwrap_err();
            assert!(
                matches!(err, ToolError::Denied { ref code, .. } if code == "policy"),
                "{stmt}: {err}"
            );
        }
        // Column-free access to the same table still works.
        let out = reg
            .call("select", &sql_args("SELECT id FROM sales WHERE id = 1"))
            .unwrap();
        assert_eq!(out.rows, Some(1));
        let out = reg
            .call("insert", &sql_args("INSERT INTO sales (id) VALUES (9)"))
            .unwrap();
        assert_eq!(out.value.get("affected").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn column_blacklist_via_subquery_blocked() {
        let db = demo();
        db.grant_all("manager", "other").unwrap();
        let policy = SecurityPolicy::default().with_column_blacklist([("sales", "amount")]);
        let reg = registry(&db, "manager", policy);
        let err = reg
            .call(
                "select",
                &sql_args(
                    "SELECT id FROM other WHERE id IN (SELECT CAST(amount AS INTEGER) FROM sales)",
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, ToolError::Denied { ref code, .. } if code == "policy"),
            "{err}"
        );
    }

    #[test]
    fn drop_tool_gated_by_privilege() {
        let db = demo();
        let reg = registry(&db, "manager", SecurityPolicy::default());
        // manager holds all data actions on sales, including drop.
        reg.call("drop", &sql_args("DROP TABLE sales")).unwrap();
        assert!(!db.table_names().contains(&"sales".to_string()));
    }
}
