//! F1 — context retrieval tools: `get_schema`, `get_object`, `get_value`.
//!
//! * `get_schema` adapts to database scale (paper §2.2): below the policy's
//!   threshold *n* it returns full object definitions; above it, names only,
//!   with details fetched per object via `get_object`.
//! * Outputs contain **only user-permitted objects** (policy ∩ privileges)
//!   and are **annotated with the user's privileges** per object — the
//!   mechanism that lets the LLM plan within its authorization boundary.
//! * `get_value(col, key, k)` returns the top-k stored values most relevant
//!   to a task key, grounding text predicates.
//! * Each call reads names, definitions, privileges and values from one
//!   pinned committed version, so concurrent DDL cannot tear its output.

use crate::bridge::{value_to_json, BridgeContext};
use crate::similarity;
use minidb::{Catalog, CommittedVersion, UserPrivileges};
use sqlkit::ast::Action;
use std::sync::Arc;
use toolproto::{ArgSpec, ArgType, Args, FnTool, Json, Signature, Tool, ToolError, ToolOutput};

/// Objects of `version` visible to this context's user (policy-allowed ∩
/// privilege-held), sorted, as `(name, is_view)` pairs.
fn visible_objects<'v>(
    ctx: &BridgeContext,
    version: &'v CommittedVersion,
    privs: &UserPrivileges,
) -> Vec<(&'v str, bool)> {
    let catalog = &version.state.catalog;
    let allowed = |name: &str| {
        ctx.policy.object_allowed(name) && (privs.superuser || !privs.actions_on(name).is_empty())
    };
    let tables = catalog.table_names().into_iter().map(|t| (t, false));
    let views = catalog.view_names().into_iter().map(|v| (v, true));
    let mut out: Vec<(&str, bool)> = tables.chain(views).filter(|(n, _)| allowed(n)).collect();
    out.sort();
    out
}

/// Render one object of `catalog`, a view or a table, with the user's
/// privileges on it. Policy-restricted columns are simply absent from the
/// LLM's view.
fn object_json(
    ctx: &BridgeContext,
    catalog: &Catalog,
    privs: &UserPrivileges,
    name: &str,
) -> Result<Json, ToolError> {
    let privileges = Json::array(
        privs
            .actions_on(name)
            .iter()
            .map(|a| Json::str(a.keyword())),
    );
    if let Some(view) = catalog.view(name) {
        return Ok(Json::object([
            ("name", Json::str(name)),
            ("type", Json::str("view")),
            (
                "columns",
                Json::array(
                    view.columns
                        .iter()
                        .filter(|c| ctx.policy.column_allowed(name, c))
                        .map(|c| Json::object([("name", Json::str(c.clone()))])),
                ),
            ),
            ("privileges", privileges),
        ]));
    }
    let schema = catalog
        .table(name)
        .map_err(|e| ToolError::Execution(e.to_string()))?;
    let columns = Json::array(
        schema
            .columns
            .iter()
            .filter(|c| ctx.policy.column_allowed(name, &c.name))
            .map(|c| {
                Json::object([
                    ("name", Json::str(c.name.clone())),
                    ("type", Json::str(c.ty.sql())),
                    ("nullable", Json::Bool(!c.not_null)),
                ])
            }),
    );
    let mut fields: Vec<(String, Json)> = vec![
        ("name".into(), Json::str(name)),
        ("type".into(), Json::str("table")),
        ("columns".into(), columns),
        ("privileges".into(), privileges),
    ];
    if !schema.primary_key.is_empty() {
        fields.push((
            "primary_key".into(),
            Json::array(schema.primary_key.iter().map(|c| Json::str(c.clone()))),
        ));
    }
    if !schema.foreign_keys.is_empty() {
        fields.push((
            "foreign_keys".into(),
            Json::array(schema.foreign_keys.iter().map(|fk| {
                Json::object([
                    (
                        "columns",
                        Json::array(fk.columns.iter().map(|c| Json::str(c.clone()))),
                    ),
                    ("references", Json::str(fk.foreign_table.clone())),
                    (
                        "referenced_columns",
                        Json::array(fk.foreign_columns.iter().map(|c| Json::str(c.clone()))),
                    ),
                ])
            })),
        ));
    }
    Ok(Json::object(fields))
}

/// Build the `get_schema` tool.
pub(crate) fn get_schema_tool(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "get_schema",
        "Return the schema of every object you may access, annotated with your privileges. \
         Large databases return names only; use get_object for details.",
        Signature::new(vec![]),
        move |_: &Args| {
            let version = ctx.db.snapshot();
            let privs = ctx.privileges(&version)?;
            let objects = visible_objects(&ctx, &version, privs);
            if objects.len() > ctx.policy.schema_threshold {
                // Hierarchical mode: names only.
                let names = Json::array(objects.iter().map(|(name, is_view)| {
                    Json::object([
                        ("name", Json::str(*name)),
                        ("type", Json::str(if *is_view { "view" } else { "table" })),
                    ])
                }));
                return Ok(ToolOutput::value(Json::object([
                    ("tables", names),
                    ("detail", Json::str("names_only")),
                ])));
            }
            let catalog = &version.state.catalog;
            let rendered = objects
                .iter()
                .map(|(name, _)| object_json(&ctx, catalog, privs, name))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ToolOutput::value(Json::object([
                ("tables", Json::array(rendered)),
                ("detail", Json::str("full")),
            ])))
        },
    )
}

/// Build the `get_object` tool.
pub(crate) fn get_object_tool(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "get_object",
        "Return one object's detailed definition (columns, keys, your privileges).",
        Signature::new(vec![ArgSpec::required(
            "name",
            ArgType::String,
            "object name as listed by get_schema",
        )]),
        move |args: &Args| {
            let name = args["name"].as_str().expect("validated");
            ctx.check_policy_object(name)?;
            let version = ctx.db.snapshot();
            let privs = ctx.privileges(&version)?;
            if !privs.superuser && privs.actions_on(name).is_empty() {
                return Err(ToolError::denied_with(
                    "privilege",
                    format!("no privileges on object \"{name}\""),
                    toolproto::DenialContext::default()
                        .with_object(name)
                        .with_tool("get_object_detail"),
                ));
            }
            object_json(&ctx, &version.state.catalog, privs, name).map(ToolOutput::value)
        },
    )
}

/// Build the `get_value` tool.
pub(crate) fn get_value_tool(ctx: Arc<BridgeContext>) -> impl Tool {
    FnTool::new(
        "get_value",
        "Return the top-k stored values of a column most relevant to a task key; use it to \
         ground text predicates against actual data.",
        Signature::new(vec![
            ArgSpec::required("table", ArgType::String, "table holding the column"),
            ArgSpec::required("column", ArgType::String, "column to search"),
            ArgSpec::required("key", ArgType::String, "task-specific key to match"),
            ArgSpec::optional("k", ArgType::Integer, "number of values", Json::num(5.0)),
        ]),
        move |args: &Args| {
            let table = args["table"].as_str().expect("validated");
            let column = args["column"].as_str().expect("validated");
            let key = args["key"].as_str().expect("validated");
            // `k` bounds the payload handed back to the LLM: a non-positive
            // one would otherwise cast to "every distinct value".
            let k = args["k"].as_i64().filter(|&k| k >= 1).ok_or_else(|| {
                ToolError::Execution(format!("k must be a positive integer, got {}", args["k"]))
            })? as usize;
            ctx.check_policy_object(table)?;
            if !ctx.policy.column_allowed(table, column) {
                return Err(ctx.deny_column(
                    table,
                    column,
                    format!(
                        "column \"{table}.{column}\" is restricted by the user's security policy"
                    ),
                ));
            }
            let version = ctx.db.snapshot();
            ctx.check_privilege(&version, Action::Select, table)?;
            // The distinct-scan behind `column_values` runs chunked-parallel
            // in the engine for large tables, so repeated grounding calls on
            // big columns stay cheap.
            let values = version
                .column_values(table, column)
                .map_err(crate::bridge::db_error_to_tool)?;
            // Rank text values semantically; numeric columns instead return
            // a bounded sample plus range statistics, which is what grounds
            // numeric predicates (thresholds, BETWEEN bounds).
            let texts: Vec<String> = values
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect();
            if texts.is_empty() {
                let sample: Vec<Json> = values.iter().take(k).map(value_to_json).collect();
                let mut fields: Vec<(String, Json)> = vec![("values".into(), Json::array(sample))];
                // One pass over the distinct values for the range stats.
                let (mut min, mut max, mut any) = (f64::INFINITY, f64::NEG_INFINITY, false);
                for n in values.iter().filter_map(|v| v.as_f64()) {
                    min = min.min(n);
                    max = max.max(n);
                    any = true;
                }
                if any {
                    fields.push((
                        "stats".into(),
                        Json::object([
                            ("min", Json::num(min)),
                            ("max", Json::num(max)),
                            ("distinct", Json::num(values.len() as f64)),
                        ]),
                    ));
                }
                return Ok(ToolOutput::value(Json::object(fields)));
            }
            let out: Vec<Json> = similarity::top_k(key, &texts, k)
                .into_iter()
                .map(|(v, _)| Json::str(v))
                .collect();
            Ok(ToolOutput::value(Json::object([(
                "values",
                Json::array(out),
            )])))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityPolicy;
    use minidb::Database;
    use toolproto::Registry;

    fn demo() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql(
            "CREATE TABLE brand_a_sales (id INTEGER PRIMARY KEY, category TEXT, amount REAL)",
        )
        .unwrap();
        s.execute_sql("CREATE TABLE brand_b_sales (id INTEGER PRIMARY KEY, amount REAL)")
            .unwrap();
        s.execute_sql("CREATE TABLE salaries (id INTEGER PRIMARY KEY, pay REAL)")
            .unwrap();
        s.execute_sql(
            "INSERT INTO brand_a_sales VALUES (1, 'women''s wear', 10.0), (2, 'menswear', 5.0), \
             (3, 'kids', 2.0)",
        )
        .unwrap();
        db.create_user("manager", false).unwrap();
        db.grant_all("manager", "brand_a_sales").unwrap();
        db.grant("manager", Action::Select, "salaries").unwrap();
        db
    }

    fn registry_for(db: &Database, user: &str, policy: SecurityPolicy) -> Registry {
        let ctx = BridgeContext::new(db.clone(), user, policy).unwrap();
        let mut reg = Registry::new();
        reg.register_tool(get_schema_tool(Arc::clone(&ctx)));
        reg.register_tool(get_object_tool(Arc::clone(&ctx)));
        reg.register_tool(get_value_tool(ctx));
        reg
    }

    #[test]
    fn schema_hides_unauthorized_objects_and_annotates_privileges() {
        let db = demo();
        let reg = registry_for(&db, "manager", SecurityPolicy::default());
        let out = reg.call("get_schema", &Json::Null).unwrap();
        let tables = out.value.get("tables").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = tables
            .iter()
            .filter_map(|t| t.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["brand_a_sales", "salaries"], "brand_b hidden");
        // Full privileges on brand_a_sales, select-only on salaries.
        let privs_of = |name: &str| -> Vec<String> {
            tables
                .iter()
                .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|t| t.get("privileges"))
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect()
        };
        assert!(privs_of("brand_a_sales").contains(&"insert".to_string()));
        assert_eq!(privs_of("salaries"), vec!["select"]);
    }

    #[test]
    fn policy_blacklist_hides_sensitive_tables() {
        let db = demo();
        let policy = SecurityPolicy::default().with_blacklist(["salaries"]);
        let reg = registry_for(&db, "manager", policy);
        let out = reg.call("get_schema", &Json::Null).unwrap();
        let names: Vec<&str> = out
            .value
            .get("tables")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|t| t.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["brand_a_sales"]);
        // get_object on the blacklisted table is denied by policy.
        let err = reg
            .call(
                "get_object",
                &Json::object([("name", Json::str("salaries"))]),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "policy"));
    }

    #[test]
    fn adaptive_schema_switches_to_names_only() {
        let db = demo();
        let policy = SecurityPolicy::default().with_schema_threshold(1);
        let reg = registry_for(&db, "admin", policy);
        let out = reg.call("get_schema", &Json::Null).unwrap();
        assert_eq!(
            out.value.get("detail").and_then(Json::as_str),
            Some("names_only")
        );
        let tables = out.value.get("tables").and_then(Json::as_array).unwrap();
        assert!(tables.iter().all(|t| t.get("columns").is_none()));
        // Details come from get_object.
        let out = reg
            .call(
                "get_object",
                &Json::object([("name", Json::str("brand_a_sales"))]),
            )
            .unwrap();
        assert!(out.value.get("columns").is_some());
        assert_eq!(
            out.value
                .get("primary_key")
                .and_then(|v| v.at(0))
                .and_then(Json::as_str),
            Some("id")
        );
    }

    #[test]
    fn views_enable_least_privilege_exposure() {
        // The classic pattern: hide the sensitive table, expose a view over
        // its harmless columns. The agent sees only the view.
        let db = demo();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE VIEW public_sales AS SELECT category, amount FROM brand_a_sales")
            .unwrap();
        db.create_user("guest", false).unwrap();
        db.grant("guest", Action::Select, "public_sales").unwrap();
        let reg = registry_for(&db, "guest", SecurityPolicy::default());
        let out = reg.call("get_schema", &Json::Null).unwrap();
        let tables = out.value.get("tables").and_then(Json::as_array).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].get("name").and_then(Json::as_str),
            Some("public_sales")
        );
        assert_eq!(tables[0].get("type").and_then(Json::as_str), Some("view"));
        // get_object renders the view too.
        let out = reg
            .call(
                "get_object",
                &Json::object([("name", Json::str("public_sales"))]),
            )
            .unwrap();
        let cols: Vec<&str> = out
            .value
            .get("columns")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        // Columns keep the view's declaration order.
        assert_eq!(cols, vec!["category", "amount"]);
        // And the select tool works against it, while the base table stays
        // out of reach.
        let ctx = BridgeContext::new(db.clone(), "guest", SecurityPolicy::default()).unwrap();
        let mut exec = Registry::new();
        exec.register(std::sync::Arc::new(crate::sql_tools::action_tool(
            ctx,
            Action::Select,
        )));
        assert!(exec
            .call(
                "select",
                &Json::object([("sql", Json::str("SELECT COUNT(*) FROM public_sales"))])
            )
            .is_ok());
        assert!(exec
            .call(
                "select",
                &Json::object([("sql", Json::str("SELECT * FROM brand_a_sales"))])
            )
            .is_err());
    }

    #[test]
    fn get_value_ranks_relevant_exemplars() {
        let db = demo();
        let reg = registry_for(&db, "manager", SecurityPolicy::default());
        let get_value = |k: f64| {
            reg.call(
                "get_value",
                &Json::object([
                    ("table", Json::str("brand_a_sales")),
                    ("column", Json::str("category")),
                    ("key", Json::str("women")),
                    ("k", Json::num(k)),
                ]),
            )
        };
        let out = get_value(2.0).unwrap();
        let values = out.value.get("values").and_then(Json::as_array).unwrap();
        assert_eq!(values[0].as_str(), Some("women's wear"));
        assert_eq!(values.len(), 2);
        // A non-positive k is refused, not cast to "every distinct value".
        for k in [-1.0, 0.0] {
            let err = get_value(k).unwrap_err();
            assert!(
                err.to_string().contains("k must be a positive integer"),
                "{err}"
            );
        }
    }

    #[test]
    fn get_value_requires_select_privilege() {
        let db = demo();
        let reg = registry_for(&db, "manager", SecurityPolicy::default());
        let err = reg
            .call(
                "get_value",
                &Json::object([
                    ("table", Json::str("brand_b_sales")),
                    ("column", Json::str("amount")),
                    ("key", Json::str("x")),
                ]),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { .. }));
    }

    #[test]
    fn column_blacklist_masks_schema_and_exemplars() {
        let db = demo();
        let policy = SecurityPolicy::default().with_column_blacklist([("brand_a_sales", "amount")]);
        let reg = registry_for(&db, "manager", policy);
        let out = reg.call("get_schema", &Json::Null).unwrap();
        let tables = out.value.get("tables").and_then(Json::as_array).unwrap();
        let sales = tables
            .iter()
            .find(|t| t.get("name").and_then(Json::as_str) == Some("brand_a_sales"))
            .unwrap();
        let cols: Vec<&str> = sales
            .get("columns")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        assert!(!cols.contains(&"amount"), "masked column leaked: {cols:?}");
        assert!(cols.contains(&"category"));
        // Exemplar retrieval refuses the masked column.
        let err = reg
            .call(
                "get_value",
                &Json::object([
                    ("table", Json::str("brand_a_sales")),
                    ("column", Json::str("amount")),
                    ("key", Json::str("10")),
                ]),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "policy"));
    }

    #[test]
    fn get_value_on_numeric_column_returns_sample() {
        let db = demo();
        let reg = registry_for(&db, "manager", SecurityPolicy::default());
        let out = reg
            .call(
                "get_value",
                &Json::object([
                    ("table", Json::str("brand_a_sales")),
                    ("column", Json::str("amount")),
                    ("key", Json::str("10")),
                    ("k", Json::num(2.0)),
                ]),
            )
            .unwrap();
        let values = out.value.get("values").and_then(Json::as_array).unwrap();
        assert_eq!(values.len(), 2);
        // Numeric columns additionally carry range statistics.
        let stats = out.value.get("stats").expect("stats for numeric column");
        assert_eq!(stats.get("min").and_then(Json::as_f64), Some(2.0));
        assert_eq!(stats.get("max").and_then(Json::as_f64), Some(10.0));
        assert_eq!(stats.get("distinct").and_then(Json::as_i64), Some(3));
    }
}
