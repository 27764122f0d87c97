//! Multi-datasource BridgeScope (paper §2.6).
//!
//! "This database-agnostic design enables LLMs to interact with any data
//! source using a consistent set of tools … greatly enhancing their
//! capabilities in multi-datasource scenarios." This module implements that
//! claim: one tool surface spanning several databases. Every BridgeScope
//! tool gains a `source` argument (optional when only one source is
//! registered); a `list_sources` tool enumerates them; and a single `proxy`
//! spans all sources, so one proxy unit can pull data from two databases
//! into one downstream consumer.

use crate::config::SecurityPolicy;
use crate::proxy::proxy_tool;
use crate::server::BridgeScopeServer;
use minidb::{Database, DbError};
use obs::Obs;
use std::collections::BTreeMap;
use std::sync::Arc;
use toolproto::{ArgSpec, ArgType, Args, FnTool, Json, Registry, Signature, ToolError, ToolOutput};

/// One data source of a multi-source surface.
pub struct SourceSpec {
    /// Source name, used as the `source` argument value.
    pub name: String,
    /// The database.
    pub db: Database,
    /// The acting user on that database.
    pub user: String,
    /// The user-side policy for that source.
    pub policy: SecurityPolicy,
}

/// A built multi-source server.
pub struct MultiSourceServer {
    /// The combined tool surface.
    pub registry: Registry,
    /// The crafted system prompt.
    pub prompt: &'static str,
}

impl MultiSourceServer {
    /// Build a combined surface over several sources. Tools named like
    /// single-source BridgeScope tools accept an extra `source` argument
    /// (defaulting to the sole source when only one is given); `external`
    /// tools and the cross-source `proxy` complete the surface.
    pub fn build(sources: Vec<SourceSpec>, external: &Registry) -> Result<Self, DbError> {
        assert!(!sources.is_empty(), "at least one source required");
        let default_source = if sources.len() == 1 {
            Some(sources[0].name.clone())
        } else {
            None
        };
        // Build each source's own surface (privilege- and policy-shaped).
        let mut per_source: BTreeMap<String, Registry> = BTreeMap::new();
        for spec in sources {
            let server =
                BridgeScopeServer::build(spec.db, &spec.user, spec.policy, &Registry::new())?;
            // The per-source proxy is dropped: one cross-source proxy is
            // built over the combined surface below.
            let mut registry = server.registry;
            registry.unregister("proxy");
            per_source.insert(spec.name, registry);
        }
        let per_source = Arc::new(per_source);

        let mut combined = Registry::new();
        // `list_sources`: names plus the tools each one offers.
        {
            let per_source = Arc::clone(&per_source);
            combined.register_tool(FnTool::new(
                "list_sources",
                "List the registered data sources and the tools each one offers.",
                Signature::new(vec![]),
                move |_: &Args| {
                    let items = per_source.iter().map(|(name, reg)| {
                        Json::object([
                            ("name", Json::str(name.clone())),
                            ("tools", Json::array(reg.names().into_iter().map(Json::str))),
                        ])
                    });
                    Ok(ToolOutput::value(Json::object([(
                        "sources",
                        Json::array(items),
                    )])))
                },
            ));
        }
        // One dispatching wrapper per tool name appearing in any source.
        let mut tool_names: Vec<String> = per_source
            .values()
            .flat_map(|r| r.names().into_iter().map(str::to_owned))
            .collect();
        tool_names.sort();
        tool_names.dedup();
        for name in tool_names {
            let per_source = Arc::clone(&per_source);
            let default = default_source.clone();
            let tool_name = name.clone();
            // Describe using the first source that has the tool; risk is the
            // max across sources so policy filtering stays conservative.
            let description = per_source
                .values()
                .find_map(|r| r.get(&name).map(|t| t.description().to_owned()))
                .unwrap_or_default();
            let risk = per_source
                .values()
                .filter_map(|r| r.get(&name).map(|t| t.risk()))
                .max()
                .unwrap_or(toolproto::Risk::Safe);
            let source_arg = match &default {
                Some(d) => ArgSpec::optional(
                    "source",
                    ArgType::String,
                    "data source name",
                    Json::str(d.clone()),
                ),
                None => ArgSpec::required(
                    "source",
                    ArgType::String,
                    "data source name (see list_sources)",
                ),
            };
            combined.register_tool(
                FnTool::new(
                    name.clone(),
                    format!("{description} (on the data source named by 'source')"),
                    Signature::open(vec![source_arg]),
                    move |args: &Args| {
                        let source =
                            args.get("source").and_then(Json::as_str).ok_or_else(|| {
                                ToolError::Execution("missing 'source' argument".into())
                            })?;
                        let registry = per_source.get(source).ok_or_else(|| {
                            ToolError::Execution(format!(
                                "unknown source '{source}'; call list_sources"
                            ))
                        })?;
                        if !registry.contains(&tool_name) {
                            return Err(ToolError::denied_with(
                                "privilege",
                                format!(
                                    "tool '{tool_name}' is not available on source '{source}' \
                                     for this user"
                                ),
                                toolproto::DenialContext::default()
                                    .with_tool(tool_name.clone())
                                    .with_object(source),
                            ));
                        }
                        let mut forwarded = args.clone();
                        forwarded.remove("source");
                        // Re-validate against the source tool's own signature
                        // (the wrapper's signature is open).
                        registry.call(&tool_name, &Json::Object(forwarded))
                    },
                )
                .with_risk(risk),
            );
        }
        combined.extend(external);
        let surface = combined.clone();
        combined.register_tool(proxy_tool(surface, Obs::disabled()));
        Ok(MultiSourceServer {
            registry: combined,
            prompt: crate::prompt::BRIDGESCOPE_PROMPT,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Action;

    fn sales_db() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)")
            .unwrap();
        s.execute_sql("INSERT INTO sales VALUES (1, 10.0), (2, 20.0)")
            .unwrap();
        db.create_user("ana", false).unwrap();
        db.grant_all("ana", "sales").unwrap();
        db
    }

    fn hr_db() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE staff (id INTEGER PRIMARY KEY, name TEXT)")
            .unwrap();
        s.execute_sql("INSERT INTO staff VALUES (1, 'Ada'), (2, 'Bob'), (3, 'Cy')")
            .unwrap();
        db.create_user("ana", false).unwrap();
        db.grant("ana", Action::Select, "staff").unwrap();
        db
    }

    fn build() -> MultiSourceServer {
        MultiSourceServer::build(
            vec![
                SourceSpec {
                    name: "sales_db".into(),
                    db: sales_db(),
                    user: "ana".into(),
                    policy: SecurityPolicy::default(),
                },
                SourceSpec {
                    name: "hr_db".into(),
                    db: hr_db(),
                    user: "ana".into(),
                    policy: SecurityPolicy::default(),
                },
            ],
            &Registry::new(),
        )
        .unwrap()
    }

    #[test]
    fn list_sources_enumerates_surfaces() {
        let server = build();
        let out = server.registry.call("list_sources", &Json::Null).unwrap();
        let sources = out.value.get("sources").and_then(Json::as_array).unwrap();
        assert_eq!(sources.len(), 2);
        // ana can write on sales_db but is read-only on hr_db.
        let tools_of = |name: &str| -> Vec<String> {
            sources
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|s| s.get("tools"))
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect()
        };
        assert!(tools_of("sales_db").contains(&"insert".to_string()));
        assert!(!tools_of("hr_db").contains(&"insert".to_string()));
    }

    #[test]
    fn dispatch_by_source() {
        let server = build();
        let out = server
            .registry
            .call(
                "select",
                &Json::object([
                    ("source", Json::str("hr_db")),
                    ("sql", Json::str("SELECT COUNT(*) FROM staff")),
                ]),
            )
            .unwrap();
        assert_eq!(
            out.value.pointer("/rows/0/0").and_then(Json::as_i64),
            Some(3)
        );
        // Unknown source errors helpfully.
        let err = server
            .registry
            .call(
                "select",
                &Json::object([
                    ("source", Json::str("nope")),
                    ("sql", Json::str("SELECT 1")),
                ]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("list_sources"), "{err}");
    }

    #[test]
    fn per_source_privileges_enforced() {
        let server = build();
        // Writing on the read-only hr_db source is denied (no insert tool
        // there), even though sales_db exposes insert.
        let err = server
            .registry
            .call(
                "insert",
                &Json::object([
                    ("source", Json::str("hr_db")),
                    ("sql", Json::str("INSERT INTO staff VALUES (9, 'Eve')")),
                ]),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::Denied { .. }), "{err}");
        // And allowed on sales_db.
        server
            .registry
            .call(
                "insert",
                &Json::object([
                    ("source", Json::str("sales_db")),
                    ("sql", Json::str("INSERT INTO sales VALUES (3, 30.0)")),
                ]),
            )
            .unwrap();
    }

    #[test]
    fn cross_source_proxy_unit() {
        let mut external = Registry::new();
        external.register_tool(FnTool::new(
            "combine",
            "count rows from two datasets",
            Signature::open(vec![]),
            |args: &Args| {
                let n = |k: &str| {
                    args.get(k)
                        .and_then(Json::as_array)
                        .map_or(0, <[Json]>::len)
                };
                Ok(ToolOutput::value(Json::object([(
                    "total",
                    Json::num((n("a") + n("b")) as f64),
                )])))
            },
        ));
        let server = MultiSourceServer::build(
            vec![
                SourceSpec {
                    name: "sales_db".into(),
                    db: sales_db(),
                    user: "ana".into(),
                    policy: SecurityPolicy::default(),
                },
                SourceSpec {
                    name: "hr_db".into(),
                    db: hr_db(),
                    user: "ana".into(),
                    policy: SecurityPolicy::default(),
                },
            ],
            &external,
        )
        .unwrap();
        // One unit pulling from both databases into one consumer — the
        // paper's multi-datasource scenario.
        let out = server
            .registry
            .call(
                "proxy",
                &Json::parse(
                    r#"{"target_tool": "combine", "tool_args": {
                        "a": {"tool": "select",
                              "args": {"source": "sales_db", "sql": "SELECT * FROM sales"},
                              "transform": "/rows"},
                        "b": {"tool": "select",
                              "args": {"source": "hr_db", "sql": "SELECT * FROM staff"},
                              "transform": "/rows"}}}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.value.get("total").and_then(Json::as_i64), Some(5));
    }

    #[test]
    fn single_source_needs_no_source_argument() {
        let server = MultiSourceServer::build(
            vec![SourceSpec {
                name: "only".into(),
                db: sales_db(),
                user: "ana".into(),
                policy: SecurityPolicy::default(),
            }],
            &Registry::new(),
        )
        .unwrap();
        let out = server
            .registry
            .call(
                "select",
                &Json::object([("sql", Json::str("SELECT COUNT(*) FROM sales"))]),
            )
            .unwrap();
        assert_eq!(
            out.value.pointer("/rows/0/0").and_then(Json::as_i64),
            Some(2)
        );
    }
}
