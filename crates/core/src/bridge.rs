//! Shared plumbing between BridgeScope tools and the database engine.
//!
//! All tools of one server share a [`BridgeContext`]: the database handle,
//! the acting user, the user-side security policy, and — crucially — a single
//! database session, so `begin`/`insert`/`commit` tool calls compose into one
//! transaction the way the paper's Figure 3 shows.

use crate::config::SecurityPolicy;
use minidb::sync::Mutex;
use minidb::{CommittedVersion, Database, DbError, QueryResult, Session, UserPrivileges, Value};
use obs::Obs;
use sqlkit::ast::Action;
use std::sync::Arc;
use toolproto::{DenialContext, Json, ToolError, ToolOutput};

/// One conversion point for everything that builds a tool surface over a
/// database. `Database` is Arc-backed, so all of `Database`, `&Database`,
/// and an existing handle convert cheaply — call sites pass whichever they
/// have instead of sprinkling `.clone()` everywhere, and future engine
/// parameters land here instead of at N construction sites.
#[derive(Clone)]
pub struct DatabaseHandle(Database);

impl DatabaseHandle {
    /// Unwrap into the underlying database.
    pub(crate) fn into_database(self) -> Database {
        self.0
    }
}

impl From<Database> for DatabaseHandle {
    fn from(db: Database) -> Self {
        DatabaseHandle(db)
    }
}

impl From<&Database> for DatabaseHandle {
    fn from(db: &Database) -> Self {
        DatabaseHandle(db.clone())
    }
}

impl From<&DatabaseHandle> for DatabaseHandle {
    fn from(h: &DatabaseHandle) -> Self {
        h.clone()
    }
}

/// Shared state of one BridgeScope (or baseline) server instance.
pub struct BridgeContext {
    /// The database.
    pub db: Database,
    /// The acting database user.
    pub user: String,
    /// The user-side security policy.
    pub policy: SecurityPolicy,
    /// The shared session carrying transaction state across tool calls.
    pub session: Mutex<Session>,
    /// Observability handle; disabled by default, shared by all tools of
    /// this server so denials, SQL execution, and proxy data movement land
    /// in one trace.
    pub obs: Obs,
    /// Prepared-plan cache (parse + static analysis keyed on normalized
    /// SQL, generation-invalidated). Unset by default; installed once by
    /// the gated server build. Security checks always re-verify the cached
    /// profile against the policy and the privileges of the version pinned
    /// for the call.
    pub(crate) plan_cache: std::sync::OnceLock<Arc<gate::PlanCache>>,
}

impl BridgeContext {
    /// Open a context (and its session) for `user`, without observability.
    pub fn new(
        db: impl Into<DatabaseHandle>,
        user: &str,
        policy: SecurityPolicy,
    ) -> Result<Arc<Self>, DbError> {
        BridgeContext::with_obs(db, user, policy, Obs::disabled())
    }

    /// Open a context that records into `obs`.
    pub fn with_obs(
        db: impl Into<DatabaseHandle>,
        user: &str,
        policy: SecurityPolicy,
        obs: Obs,
    ) -> Result<Arc<Self>, DbError> {
        let db = db.into().into_database();
        db.attach_obs(obs.clone());
        let session = db.session(user)?;
        Ok(Arc::new(BridgeContext {
            db,
            user: user.to_owned(),
            policy,
            session: Mutex::new(session),
            obs,
            plan_cache: std::sync::OnceLock::new(),
        }))
    }

    /// Install the prepared-plan cache (at most once, from the gated server
    /// build).
    pub(crate) fn install_plan_cache(&self, cache: Arc<gate::PlanCache>) {
        let _ = self.plan_cache.set(cache);
    }

    /// Record a denial: bump the per-gate counter and emit an (instant)
    /// span carrying the structured denial context under whatever span is
    /// currently open (typically the enclosing `tool:*` or `sql:execute`).
    fn record_denial(&self, gate: &str, context: &DenialContext) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.incr_with("denials", &[("gate", gate)], 1);
        let mut span = self.obs.span(&format!("denial:{gate}"));
        span.attr("user", self.user.as_str());
        for (key, value) in context.fields() {
            span.attr(key, value);
        }
    }

    /// The acting user's privileges in `version`, borrowed.
    pub fn privileges<'v>(
        &self,
        version: &'v CommittedVersion,
    ) -> Result<&'v UserPrivileges, ToolError> {
        version
            .privileges
            .user(&self.user)
            .map_err(|e| ToolError::Execution(e.to_string()))
    }

    /// Database-side privilege check against the grants of `version` (the
    /// committed version pinned for the call), as a tool error.
    pub(crate) fn check_privilege(
        &self,
        version: &CommittedVersion,
        action: Action,
        object: &str,
    ) -> Result<(), ToolError> {
        let privs = self.privileges(version)?;
        if privs.superuser || privs.has(action, object) {
            Ok(())
        } else {
            let context = DenialContext::default()
                .with_action(action.to_string())
                .with_object(object);
            self.record_denial("privilege", &context);
            Err(ToolError::denied_with(
                "privilege",
                format!(
                    "user \"{}\" lacks the {action} privilege on \"{object}\"",
                    self.user
                ),
                context,
            ))
        }
    }

    /// User-side policy check, as a tool error.
    pub(crate) fn check_policy_object(&self, object: &str) -> Result<(), ToolError> {
        if self.policy.object_allowed(object) {
            Ok(())
        } else {
            let context = DenialContext::default().with_object(object);
            self.record_denial("policy", &context);
            Err(ToolError::denied_with(
                "policy",
                format!("object \"{object}\" is restricted by the user's security policy"),
                context,
            ))
        }
    }

    /// Like [`check_policy_object`](Self::check_policy_object), but records
    /// the restricted column (`table.column`) as the denied object. Used by
    /// tools that gate on the column blacklist.
    pub(crate) fn deny_column(&self, table: &str, column: &str, message: String) -> ToolError {
        let context = DenialContext::default().with_object(format!("{table}.{column}"));
        self.record_denial("policy", &context);
        ToolError::denied_with("policy", message, context)
    }
}

/// Map an engine error onto the tool error model: privilege denials become
/// [`ToolError::Denied`] (the agent aborts), everything else an execution
/// error (the agent may retry). Engine privilege errors carry the acted-on
/// object and action, which are preserved in the denial context.
/// [`DbError::SerializationConflict`] keeps its stable
/// `"serialization conflict"` message prefix through the round-trip, so an
/// agent (or the wire client) can detect it and re-run the transaction.
pub fn db_error_to_tool(e: DbError) -> ToolError {
    match e {
        DbError::PrivilegeDenied {
            ref action,
            ref object,
            ..
        } => {
            let context = DenialContext::default()
                .with_action(action.to_string())
                .with_object(object.clone());
            ToolError::denied_with("privilege", e.to_string(), context)
        }
        e if e.is_privilege() => ToolError::denied("privilege", e.to_string()),
        e => ToolError::Execution(e.to_string()),
    }
}

/// Convert an engine value to JSON.
pub(crate) fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Number(*i as f64),
        Value::Float(f) => Json::Number(*f),
        Value::Text(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

/// Convert a query result to the tool output JSON conventions:
/// `{"columns": …, "rows": …}`, `{"affected": n}`, or `{"status": "…"}`.
pub fn result_to_output(result: QueryResult) -> ToolOutput {
    match result {
        QueryResult::Rows { columns, rows } => {
            let n = rows.len();
            let value = Json::object([
                ("columns", Json::array(columns.into_iter().map(Json::Str))),
                (
                    "rows",
                    Json::array(
                        rows.iter()
                            .map(|r| Json::array(r.iter().map(value_to_json))),
                    ),
                ),
            ]);
            ToolOutput::with_rows(value, n)
        }
        QueryResult::Affected(n) => {
            ToolOutput::with_rows(Json::object([("affected", Json::num(n as f64))]), n)
        }
        QueryResult::Status(s) => ToolOutput::value(Json::object([("status", Json::str(s))])),
    }
}

/// Like [`result_to_output`], but rows are rendered as objects keyed by
/// column name — the verbose shape the stock PostgreSQL MCP server emits
/// (and a large part of why routing bulk results through an LLM is so
/// expensive). BridgeScope's own tools use the compact array form.
pub fn result_to_output_verbose(result: QueryResult) -> ToolOutput {
    match result {
        QueryResult::Rows { columns, rows } => {
            let n = rows.len();
            let value = Json::object([
                (
                    "columns",
                    Json::array(columns.iter().map(|c| Json::str(c.clone()))),
                ),
                (
                    "rows",
                    Json::array(rows.iter().map(|r| {
                        Json::object(
                            columns
                                .iter()
                                .zip(r)
                                .map(|(c, v)| (c.clone(), value_to_json(v))),
                        )
                    })),
                ),
            ]);
            ToolOutput::with_rows(value, n)
        }
        other => result_to_output(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_db() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        s.execute_sql("INSERT INTO t VALUES (1, 'a')").unwrap();
        db
    }

    #[test]
    fn context_shares_a_session() {
        let db = demo_db();
        let ctx = BridgeContext::new(db, "admin", SecurityPolicy::default()).unwrap();
        ctx.session.lock().execute_sql("BEGIN").unwrap();
        assert!(ctx.session.lock().in_transaction());
        ctx.session.lock().execute_sql("ROLLBACK").unwrap();
    }

    #[test]
    fn privilege_check_maps_to_denied() {
        let db = demo_db();
        db.create_user("reader", false).unwrap();
        db.grant("reader", Action::Select, "t").unwrap();
        let ctx = BridgeContext::new(db, "reader", SecurityPolicy::default()).unwrap();
        let v = ctx.db.snapshot();
        assert!(ctx.check_privilege(&v, Action::Select, "t").is_ok());
        let err = ctx.check_privilege(&v, Action::Insert, "t").unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "privilege"));
    }

    #[test]
    fn policy_check_maps_to_denied() {
        let db = demo_db();
        let policy = SecurityPolicy::default().with_blacklist(["t"]);
        let ctx = BridgeContext::new(db, "admin", policy).unwrap();
        let err = ctx.check_policy_object("t").unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "policy"));
    }

    #[test]
    fn denials_carry_context_and_are_counted() {
        let db = demo_db();
        db.create_user("reader", false).unwrap();
        db.grant("reader", Action::Select, "t").unwrap();
        let policy = SecurityPolicy::default().with_blacklist(["hidden"]);
        let ctx = BridgeContext::with_obs(db, "reader", policy, Obs::in_memory()).unwrap();

        let v = ctx.db.snapshot();
        let err = ctx.check_privilege(&v, Action::Insert, "t").unwrap_err();
        let dctx = err.denial_context().unwrap();
        assert_eq!(dctx.object.as_deref(), Some("t"));
        assert_eq!(dctx.action.as_deref(), Some("INSERT"));

        let err = ctx.check_policy_object("hidden").unwrap_err();
        assert_eq!(
            err.denial_context().unwrap().object.as_deref(),
            Some("hidden")
        );

        let snap = ctx.obs.snapshot();
        let denials = |gate| snap.metrics.labeled_counter("denials", &[("gate", gate)]);
        assert_eq!(denials("privilege"), 1);
        assert_eq!(denials("policy"), 1);
        let denial = snap
            .spans
            .iter()
            .find(|s| s.name == "denial:privilege")
            .unwrap();
        assert_eq!(
            denial.attr("object"),
            Some(&obs::AttrValue::Str("t".into()))
        );
    }

    #[test]
    fn engine_denial_preserves_object_in_context() {
        let denied = DbError::PrivilegeDenied {
            user: "u".into(),
            action: Action::Drop,
            object: "t".into(),
        };
        let err = db_error_to_tool(denied);
        let dctx = err.denial_context().unwrap();
        assert_eq!(dctx.object.as_deref(), Some("t"));
        assert_eq!(dctx.action.as_deref(), Some("DROP"));
    }

    #[test]
    fn result_conversion() {
        let out = result_to_output(QueryResult::Rows {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Null]],
        });
        assert_eq!(out.rows, Some(2));
        assert_eq!(
            out.value.pointer("/rows/0/0").and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(out.value.pointer("/rows/1/0"), Some(&Json::Null));
        let out = result_to_output(QueryResult::Affected(3));
        assert_eq!(out.value.get("affected").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn db_error_mapping() {
        let denied = DbError::PrivilegeDenied {
            user: "u".into(),
            action: Action::Drop,
            object: "t".into(),
        };
        assert!(matches!(db_error_to_tool(denied), ToolError::Denied { .. }));
        let exec = DbError::UnknownColumn("c".into());
        assert!(matches!(db_error_to_tool(exec), ToolError::Execution(_)));
    }
}
