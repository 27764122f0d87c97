//! Baseline toolkits from the paper's evaluation (§3.1).
//!
//! * **PG-MCP** — the stock PostgreSQL MCP server design: a `get_schema`
//!   tool (full dump, *no* privilege annotations, *no* policy filtering) and
//!   a universal `execute_sql` tool accepting any statement, including
//!   transaction control.
//! * **PG-MCP⁻** — the reduced variant of §3.2: a single `execute_sql` tool
//!   that must serve context retrieval *and* execution.
//! * **PG-MCP-S** — PG-MCP over a row-sampled database (§3.4); the sampling
//!   itself is done by the benchmark harness, the toolkit is identical.

use crate::bridge::{
    db_error_to_tool, result_to_output_verbose, value_to_json, BridgeContext, DatabaseHandle,
};
use crate::config::SecurityPolicy;
use minidb::DbError;
use std::sync::Arc;
use toolproto::{
    ArgSpec, ArgType, Args, FnTool, Json, Registry, Risk, Signature, Tool, ToolError, ToolOutput,
};

/// Build PG-MCP's `get_schema`: every table, full detail, no annotations.
fn pg_get_schema(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "get_schema",
        "Return the schema of all tables in the database.",
        Signature::new(vec![]),
        move |_: &Args| {
            let version = ctx.db.snapshot();
            let catalog = &version.state.catalog;
            let mut tables = Vec::new();
            for name in catalog.table_names() {
                let schema = catalog
                    .table(name)
                    .map_err(|e| ToolError::Execution(e.to_string()))?;
                // The stock server dumps everything pg_dump-style: columns
                // with types/defaults, keys, foreign keys, indexes, sizes —
                // for every table, whether or not the user may touch it.
                let columns = Json::array(schema.columns.iter().map(|c| {
                    Json::object([
                        ("name", Json::str(c.name.clone())),
                        ("type", Json::str(c.ty.sql())),
                        ("nullable", Json::Bool(!c.not_null)),
                        ("unique", Json::Bool(c.unique)),
                        (
                            "default",
                            c.default.as_ref().map_or(Json::Null, value_to_json),
                        ),
                    ])
                }));
                let rows = version.state.row_count(name).unwrap_or(0);
                tables.push(Json::object([
                    ("name", Json::str(name)),
                    ("columns", columns),
                    (
                        "primary_key",
                        Json::array(schema.primary_key.iter().map(|c| Json::str(c.clone()))),
                    ),
                    (
                        "foreign_keys",
                        Json::array(schema.foreign_keys.iter().map(|fk| {
                            Json::object([
                                (
                                    "columns",
                                    Json::array(fk.columns.iter().map(|c| Json::str(c.clone()))),
                                ),
                                ("references", Json::str(fk.foreign_table.clone())),
                                (
                                    "referenced_columns",
                                    Json::array(
                                        fk.foreign_columns.iter().map(|c| Json::str(c.clone())),
                                    ),
                                ),
                            ])
                        })),
                    ),
                    (
                        "indexes",
                        Json::array(schema.indexes.iter().map(|i| {
                            Json::object([
                                ("name", Json::str(i.name.clone())),
                                (
                                    "columns",
                                    Json::array(i.columns.iter().map(|c| Json::str(c.clone()))),
                                ),
                                ("unique", Json::Bool(i.unique)),
                            ])
                        })),
                    ),
                    ("row_count", Json::num(rows as f64)),
                ]));
            }
            Ok(ToolOutput::value(Json::object([
                ("tables", Json::array(tables)),
                ("detail", Json::str("full")),
            ])))
        },
    )
}

/// Build the universal `execute_sql` tool: any statement, engine-enforced
/// security only.
fn pg_execute_sql(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "execute_sql",
        "Execute any SQL statement against the database and return the result.",
        Signature::new(vec![ArgSpec::required(
            "sql",
            ArgType::String,
            "the SQL statement to execute",
        )]),
        move |args: &Args| {
            let sql = args["sql"].as_str().expect("validated");
            let result = ctx
                .session
                .lock()
                .execute_sql(sql)
                .map_err(db_error_to_tool)?;
            // The stock server returns rows as objects keyed by column name.
            Ok(result_to_output_verbose(result))
        },
    )
    // The single tool can do anything, up to and including DROP — that is
    // precisely the paper's Challenge C1.
    .with_risk(Risk::Destructive)
}

/// A built baseline server.
pub struct BaselineServer {
    /// The tools exposed to the agent.
    pub registry: Registry,
    /// The generic system prompt.
    pub prompt: &'static str,
}

/// Build the PG-MCP baseline (get_schema + execute_sql).
pub fn pg_mcp(
    db: impl Into<DatabaseHandle>,
    user: &str,
    external: &Registry,
) -> Result<BaselineServer, DbError> {
    let ctx = BridgeContext::new(db, user, SecurityPolicy::permissive())?;
    let mut registry = Registry::new();
    registry.register_tool(pg_get_schema(Arc::clone(&ctx)));
    registry.register_tool(pg_execute_sql(ctx));
    registry.extend(external);
    Ok(BaselineServer {
        registry,
        prompt: crate::prompt::GENERIC_DB_PROMPT,
    })
}

/// Build the PG-MCP⁻ variant (execute_sql only).
pub fn pg_mcp_minus(
    db: impl Into<DatabaseHandle>,
    user: &str,
    external: &Registry,
) -> Result<BaselineServer, DbError> {
    let ctx = BridgeContext::new(db, user, SecurityPolicy::permissive())?;
    let mut registry = Registry::new();
    registry.register_tool(pg_execute_sql(ctx));
    registry.extend(external);
    Ok(BaselineServer {
        registry,
        prompt: crate::prompt::GENERIC_DB_PROMPT,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::Database;

    fn demo() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE a (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("CREATE TABLE b (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.create_user("limited", false).unwrap();
        db.grant("limited", sqlkit::Action::Select, "a").unwrap();
        db
    }

    #[test]
    fn pg_mcp_shows_everything_without_annotations() {
        let db = demo();
        let server = pg_mcp(db, "limited", &Registry::new()).unwrap();
        let out = server.registry.call("get_schema", &Json::Null).unwrap();
        let tables = out.value.get("tables").and_then(Json::as_array).unwrap();
        assert_eq!(tables.len(), 2, "no privilege filtering");
        assert!(tables.iter().all(|t| t.get("privileges").is_none()));
    }

    #[test]
    fn execute_sql_accepts_anything_engine_allows() {
        let db = demo();
        let server = pg_mcp(db.clone(), "admin", &Registry::new()).unwrap();
        let reg = &server.registry;
        let sql = |s: &str| Json::object([("sql", Json::str(s))]);
        reg.call("execute_sql", &sql("BEGIN")).unwrap();
        reg.call("execute_sql", &sql("INSERT INTO a VALUES (1)"))
            .unwrap();
        reg.call("execute_sql", &sql("COMMIT")).unwrap();
        assert_eq!(db.table_rows("a").unwrap(), 1);
        // And the dangerous stuff, too — the paper's point.
        reg.call("execute_sql", &sql("DROP TABLE b")).unwrap();
        assert!(!db.table_names().contains(&"b".to_string()));
    }

    #[test]
    fn engine_still_denies_unprivileged_sql() {
        let db = demo();
        let server = pg_mcp(db, "limited", &Registry::new()).unwrap();
        let err = server
            .registry
            .call(
                "execute_sql",
                &Json::object([("sql", Json::str("INSERT INTO a VALUES (1)"))]),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { .. }), "{err}");
    }

    #[test]
    fn pg_mcp_minus_has_single_tool() {
        let db = demo();
        let server = pg_mcp_minus(db, "admin", &Registry::new()).unwrap();
        assert_eq!(server.registry.names(), vec!["execute_sql"]);
    }
}
