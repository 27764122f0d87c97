//! F3 — transaction management tools: `begin`, `commit`, `rollback`.
//!
//! Thin wrappers over the shared session. Their value is not mechanism but
//! *salience*: the paper's §3.2 shows that surfacing transaction control as
//! explicit tools is what makes agents actually use it (Figure 5c).

use crate::bridge::{db_error_to_tool, result_to_output, BridgeContext};
use minidb::{DbError, QueryResult};
use std::sync::Arc;
use toolproto::{Args, FnTool, Risk, Signature, Tool, ToolResult};

/// Run one transaction-control operation under a `txn:{verb}` span, counting
/// outcomes per verb in `txn{verb,outcome}` (outcome `ok` or `error`).
fn run_txn_op(
    ctx: &BridgeContext,
    verb: &str,
    op: impl FnOnce(&BridgeContext) -> Result<QueryResult, DbError>,
) -> ToolResult {
    let mut span = ctx.obs.span(&format!("txn:{verb}"));
    let result = op(ctx).map_err(db_error_to_tool);
    if ctx.obs.is_enabled() {
        let outcome = if result.is_ok() { "ok" } else { "error" };
        ctx.obs
            .incr_with("txn", &[("verb", verb), ("outcome", outcome)], 1);
        if let Err(e) = &result {
            span.fail(e.to_string());
        }
    }
    result.map(result_to_output)
}

/// Build the `begin` tool.
pub(crate) fn begin_tool(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "begin",
        "Begin a transaction. Call before any statement that modifies the database.",
        Signature::new(vec![]),
        move |_: &Args| run_txn_op(&ctx, "begin", |ctx| ctx.session.lock().begin()),
    )
    .with_risk(Risk::Mutating)
}

/// Build the `commit` tool.
pub(crate) fn commit_tool(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "commit",
        "Commit the current transaction.",
        Signature::new(vec![]),
        move |_: &Args| run_txn_op(&ctx, "commit", |ctx| ctx.session.lock().commit()),
    )
    .with_risk(Risk::Mutating)
}

/// Build the `rollback` tool.
pub(crate) fn rollback_tool(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "rollback",
        "Roll back the current transaction, discarding its changes.",
        Signature::new(vec![]),
        move |_: &Args| run_txn_op(&ctx, "rollback", |ctx| ctx.session.lock().rollback()),
    )
    .with_risk(Risk::Mutating)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityPolicy;
    use crate::sql_tools::action_tool;
    use minidb::Database;
    use sqlkit::ast::Action;
    use toolproto::{Json, Registry};

    fn setup() -> (Database, Registry) {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        let ctx = BridgeContext::new(db.clone(), "admin", SecurityPolicy::default()).unwrap();
        let mut reg = Registry::new();
        reg.register_tool(begin_tool(Arc::clone(&ctx)));
        reg.register_tool(commit_tool(Arc::clone(&ctx)));
        reg.register_tool(rollback_tool(Arc::clone(&ctx)));
        reg.register(std::sync::Arc::new(action_tool(ctx, Action::Insert)));
        (db, reg)
    }

    #[test]
    fn begin_insert_commit_persists() {
        let (db, reg) = setup();
        reg.call("begin", &Json::Null).unwrap();
        reg.call(
            "insert",
            &Json::object([("sql", Json::str("INSERT INTO t VALUES (1)"))]),
        )
        .unwrap();
        reg.call("commit", &Json::Null).unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 1);
    }

    #[test]
    fn begin_insert_rollback_discards() {
        let (db, reg) = setup();
        reg.call("begin", &Json::Null).unwrap();
        reg.call(
            "insert",
            &Json::object([("sql", Json::str("INSERT INTO t VALUES (1)"))]),
        )
        .unwrap();
        reg.call("rollback", &Json::Null).unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 0);
    }

    #[test]
    fn commit_without_begin_fails() {
        let (_db, reg) = setup();
        assert!(reg.call("commit", &Json::Null).is_err());
        assert!(reg.call("rollback", &Json::Null).is_err());
    }

    #[test]
    fn txn_outcomes_are_counted_when_observed() {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        let obs = obs::Obs::in_memory();
        let ctx =
            BridgeContext::with_obs(db, "admin", SecurityPolicy::default(), obs.clone()).unwrap();
        let mut reg = Registry::new();
        reg.register_tool(begin_tool(Arc::clone(&ctx)));
        reg.register_tool(commit_tool(Arc::clone(&ctx)));
        reg.register_tool(rollback_tool(ctx));

        reg.call("commit", &Json::Null).unwrap_err();
        reg.call("begin", &Json::Null).unwrap();
        reg.call("commit", &Json::Null).unwrap();

        let snap = obs.snapshot();
        let txn = |verb, outcome| {
            snap.metrics
                .labeled_counter("txn", &[("verb", verb), ("outcome", outcome)])
        };
        assert_eq!(txn("begin", "ok"), 1);
        assert_eq!(txn("commit", "ok"), 1);
        assert_eq!(txn("commit", "error"), 1);
        let failed = snap
            .spans
            .iter()
            .find(|sp| sp.name == "txn:commit" && sp.error.is_some())
            .expect("failed commit span");
        assert!(failed.error.as_deref().unwrap().contains("transaction"));
    }
}
