//! Assembly of a per-user BridgeScope tool surface.
//!
//! [`BridgeScopeServer::build`] is where the paper's action-level
//! modularization becomes concrete: the registry handed to a user's agent
//! contains a SQL tool **only if** the user holds the corresponding privilege
//! on at least one object *and* the user-side policy allows the tool. A
//! read-only user's agent simply never sees `insert`.

use crate::bridge::{BridgeContext, DatabaseHandle};
use crate::config::SecurityPolicy;
use crate::context_tools::{get_object_tool, get_schema_tool, get_value_tool};
use crate::proxy::proxy_tool_observed;
use crate::sql_tools::{action_risk, action_tool};
use crate::txn_tools::{begin_tool, commit_tool, rollback_tool};
use gate::{BudgetMeter, CachedTool, GateConfig, GenerationSource, MeteredTool, PlanCache};
use minidb::DbError;
use obs::{Obs, ObsConfig, ObsSnapshot};
use sqlkit::ast::Action;
use std::sync::{Arc, Weak};
use toolproto::{Registry, Tool};

/// A built BridgeScope server: the tool registry for one user plus the
/// crafted system prompt.
pub struct BridgeScopeServer {
    /// The tools exposed to this user's agent.
    pub registry: Registry,
    /// The system prompt to install in the agent.
    pub prompt: &'static str,
    /// The shared context (for tests and advanced wiring).
    pub context: Arc<BridgeContext>,
    /// The observability handle recording this surface (disabled by
    /// default; see [`BridgeScopeServer::build_with_config`]).
    pub obs: Obs,
}

impl BridgeScopeServer {
    /// Build the tool surface for `user` under `policy`. Tools in
    /// `external` (e.g. ML/MCP tools) become available to proxy units and
    /// are re-exported in the final registry. Observability is off; use
    /// [`BridgeScopeServer::build_with_config`] to record traces.
    pub fn build(
        db: impl Into<DatabaseHandle>,
        user: &str,
        policy: SecurityPolicy,
        external: &Registry,
    ) -> Result<BridgeScopeServer, DbError> {
        Self::build_with_config(db, user, policy, external, &ObsConfig::Off)
    }

    /// [`BridgeScopeServer::build`] with an observability configuration:
    /// `Off` makes every recording call a no-op, `InMemory` collects spans
    /// and metrics for [`BridgeScopeServer::snapshot`], and `Jsonl` also
    /// arms [`Obs::flush`] to export the trace as JSON Lines.
    pub fn build_with_config(
        db: impl Into<DatabaseHandle>,
        user: &str,
        policy: SecurityPolicy,
        external: &Registry,
        config: &ObsConfig,
    ) -> Result<BridgeScopeServer, DbError> {
        Self::build_observed(db, user, policy, external, Obs::from_config(config))
    }

    /// [`BridgeScopeServer::build`] recording into an existing `obs` handle,
    /// so several servers (or a server plus an agent harness) can share one
    /// trace. Attaches a registry-level call observer and the observed proxy
    /// when the handle is enabled.
    pub fn build_observed(
        db: impl Into<DatabaseHandle>,
        user: &str,
        policy: SecurityPolicy,
        external: &Registry,
        obs: Obs,
    ) -> Result<BridgeScopeServer, DbError> {
        Self::build_gated(db, user, policy, external, obs, &GateConfig::default())
    }

    /// [`BridgeScopeServer::build_observed`] behind the agent-traffic gate:
    /// `gate_config` may enable the retrieval/plan caches (generation-
    /// invalidated through [`minidb::Database::generation`]) and attach
    /// per-session / per-user cost budgets metered at tool dispatch. The
    /// default config is fully transparent — this is exactly
    /// [`BridgeScopeServer::build_observed`] then.
    pub fn build_gated(
        db: impl Into<DatabaseHandle>,
        user: &str,
        policy: SecurityPolicy,
        external: &Registry,
        obs: Obs,
        gate_config: &GateConfig,
    ) -> Result<BridgeScopeServer, DbError> {
        let db = db.into().into_database();
        let ctx = BridgeContext::with_obs(&db, user, policy, obs.clone())?;
        let mut registry = Registry::new();

        // Retrieval-cache wiring: read-only F1 tools get memoized per
        // session surface, keyed on args and stamped with the database
        // generation (bumped by every committed DML/DDL/privilege change).
        let cache_cfg = gate_config.cache.clone();
        let generation: GenerationSource = {
            let db = db.clone();
            Arc::new(move || db.generation())
        };
        let mut retrieval_caches: Vec<Weak<gate::GenCache<toolproto::ToolOutput>>> = Vec::new();
        let mut wrap_context = |tool: Arc<dyn Tool>| -> Arc<dyn Tool> {
            match &cache_cfg {
                Some(cfg) => {
                    let cached = Arc::new(CachedTool::new(
                        tool,
                        cfg.context_capacity,
                        Arc::clone(&generation),
                        obs.clone(),
                    ));
                    retrieval_caches.push(Arc::downgrade(cached.cache()));
                    cached
                }
                None => tool,
            }
        };
        let plan_cache = cache_cfg.as_ref().map(|cfg| {
            let cache = Arc::new(PlanCache::new(cfg.plan_capacity));
            ctx.install_plan_cache(Arc::clone(&cache));
            cache
        });

        // F1 — context retrieval (always exposed; outputs are filtered).
        registry.register(wrap_context(Arc::new(get_schema_tool(Arc::clone(&ctx)))));
        registry.register(wrap_context(Arc::new(get_object_tool(Arc::clone(&ctx)))));
        registry.register(wrap_context(Arc::new(get_value_tool(Arc::clone(&ctx)))));

        // Pull-model cache-health gauges: occupancy and hit rate sampled at
        // scrape time, labeled by user. Re-registering a series replaces the
        // sampler when the same user rebuilds a server; `Weak` references
        // keep gauges from pinning a torn-down surface alive — a dead
        // sampler reports `NaN` and the series vanishes from output.
        if !retrieval_caches.is_empty() {
            let caches = retrieval_caches.clone();
            obs.register_gauge(
                "gate.retrieval_cache.entries",
                &[("user", user)],
                move || {
                    let live: Vec<_> = caches.iter().filter_map(Weak::upgrade).collect();
                    if live.is_empty() {
                        return f64::NAN;
                    }
                    live.iter().map(|c| c.len() as f64).sum()
                },
            );
            let caches = retrieval_caches;
            obs.register_gauge(
                "gate.retrieval_cache.hit_rate",
                &[("user", user)],
                move || {
                    let live: Vec<_> = caches.iter().filter_map(Weak::upgrade).collect();
                    if live.is_empty() {
                        return f64::NAN;
                    }
                    let (hits, misses) = live.iter().fold((0u64, 0u64), |(h, m), c| {
                        let s = c.stats();
                        (h + s.hits, m + s.misses)
                    });
                    if hits + misses == 0 {
                        0.0
                    } else {
                        hits as f64 / (hits + misses) as f64
                    }
                },
            );
        }
        if let Some(cache) = &plan_cache {
            let weak = Arc::downgrade(cache);
            obs.register_gauge("gate.plan_cache.entries", &[("user", user)], move || {
                weak.upgrade().map_or(f64::NAN, |c| c.len() as f64)
            });
            let weak = Arc::downgrade(cache);
            obs.register_gauge("gate.plan_cache.hit_rate", &[("user", user)], move || {
                weak.upgrade().map_or(f64::NAN, |c| c.stats().hit_rate())
            });
        }

        // F2 — per-action SQL tools, exposed by privilege ∧ policy.
        let held = db.snapshot().privileges.user(user)?.held_actions();
        let mut any_write_tool = false;
        for action in Action::DATA_ACTIONS {
            if !held.contains(&action) {
                continue;
            }
            let name = action.keyword();
            if !ctx.policy.tool_allowed(name, action_risk(action)) {
                continue;
            }
            if action.is_write() {
                any_write_tool = true;
            }
            registry.register(Arc::new(action_tool(Arc::clone(&ctx), action)));
        }

        // F3 — transaction tools, useful only when the user can write.
        if any_write_tool {
            for (name, _) in [("begin", 0), ("commit", 0), ("rollback", 0)] {
                if !ctx.policy.tool_allowed(name, toolproto::Risk::Mutating) {
                    continue;
                }
                match name {
                    "begin" => registry.register_tool(begin_tool(Arc::clone(&ctx))),
                    "commit" => registry.register_tool(commit_tool(Arc::clone(&ctx))),
                    _ => registry.register_tool(rollback_tool(Arc::clone(&ctx))),
                }
            }
        }

        // External (MCP-ecosystem) tools join the surface.
        registry.extend(external);

        // Budget metering wraps the whole surface *before* the proxy
        // snapshots it, so proxy-side producer calls draw down the same
        // account — an agent cannot route around its budget by hiding work
        // inside proxy units. Meters are checked session-first, then user.
        let mut meters: Vec<Arc<BudgetMeter>> = Vec::new();
        if let Some(limits) = &gate_config.session_budget {
            meters.push(Arc::new(BudgetMeter::session(limits.clone())));
        }
        if let Some(ledger) = &gate_config.user_ledger {
            meters.push(ledger.meter_for(user));
        }
        let wrap_budget = |tool: Arc<dyn Tool>| -> Arc<dyn Tool> {
            if meters.is_empty() {
                tool
            } else {
                Arc::new(MeteredTool::new(tool, meters.clone(), user, obs.clone()))
            }
        };
        if !meters.is_empty() {
            let mut metered = Registry::new();
            for tool in registry.iter() {
                metered.register(wrap_budget(Arc::clone(tool)));
            }
            registry = metered;
        }

        // Every tool invocation through the registry becomes a `tool:{name}`
        // span plus `tool.calls{tool,outcome}` and `tool.latency{tool}`.
        // Attached before the proxy snapshot so producer-side calls are
        // traced too (they inflate `tool.calls` past what the LLM issued —
        // use the harness-level `llm.tool_calls` counter for that figure).
        if let Some(observer) = obs.registry_observer() {
            registry.set_observer(observer);
        }

        // F4 — the proxy operates over a snapshot of everything above. The
        // proxy call itself is metered like any other tool.
        let surface = registry.clone();
        registry.register(wrap_budget(Arc::new(proxy_tool_observed(
            surface,
            obs.clone(),
        ))));

        Ok(BridgeScopeServer {
            registry,
            prompt: crate::prompt::BRIDGESCOPE_PROMPT,
            context: ctx,
            obs,
        })
    }

    /// Snapshot the spans and metrics recorded so far (empty when
    /// observability is off).
    pub fn snapshot(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::Database;
    use toolproto::Json;

    fn demo_db() -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)")
            .unwrap();
        s.execute_sql("INSERT INTO sales VALUES (1, 10.0)").unwrap();
        db.create_user("reader", false).unwrap();
        db.grant("reader", Action::Select, "sales").unwrap();
        db.create_user("manager", false).unwrap();
        db.grant_all("manager", "sales").unwrap();
        db
    }

    #[test]
    fn reader_sees_only_select_and_context_tools() {
        let db = demo_db();
        let server =
            BridgeScopeServer::build(db, "reader", SecurityPolicy::default(), &Registry::new())
                .unwrap();
        let names = server.registry.names();
        assert!(names.contains(&"select"));
        assert!(names.contains(&"get_schema"));
        assert!(names.contains(&"get_value"));
        assert!(names.contains(&"proxy"));
        assert!(!names.contains(&"insert"), "read-only user: no insert tool");
        assert!(!names.contains(&"delete"));
        assert!(!names.contains(&"begin"), "no writes → no txn tools");
    }

    #[test]
    fn manager_gets_full_crud_and_txn_tools() {
        let db = demo_db();
        let server =
            BridgeScopeServer::build(db, "manager", SecurityPolicy::default(), &Registry::new())
                .unwrap();
        let names = server.registry.names();
        for t in [
            "select", "insert", "update", "delete", "begin", "commit", "rollback",
        ] {
            assert!(names.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn policy_blocks_destructive_tools() {
        let db = demo_db();
        let policy = SecurityPolicy::default().with_blocked_tools(["drop"]);
        let server = BridgeScopeServer::build(db, "manager", policy, &Registry::new()).unwrap();
        assert!(!server.registry.contains("drop"));
        // Admin with risk cap: nothing destructive.
        let db = demo_db();
        let policy = SecurityPolicy::default().with_max_risk(toolproto::Risk::Mutating);
        let server = BridgeScopeServer::build(db, "admin", policy, &Registry::new()).unwrap();
        assert!(!server.registry.contains("drop"));
        assert!(!server.registry.contains("create"));
        assert!(server.registry.contains("insert"));
    }

    #[test]
    fn proxy_reaches_external_tools() {
        let db = demo_db();
        let mut external = Registry::new();
        external.register_tool(toolproto::FnTool::new(
            "count_rows",
            "count array entries",
            toolproto::Signature::open(vec![]),
            |args: &toolproto::Args| {
                let n = args
                    .get("data")
                    .and_then(Json::as_array)
                    .map_or(0, <[Json]>::len);
                Ok(toolproto::ToolOutput::value(Json::object([(
                    "count",
                    Json::num(n as f64),
                )])))
            },
        ));
        let server =
            BridgeScopeServer::build(db, "manager", SecurityPolicy::default(), &external).unwrap();
        let out = server
            .registry
            .call(
                "proxy",
                &Json::parse(
                    r#"{"target_tool": "count_rows", "tool_args": {
                        "data": {"tool": "select", "args": {"sql": "SELECT * FROM sales"},
                                 "transform": "/rows"}}}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.value.get("count").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn observed_build_records_tool_spans_and_plan_attributes() {
        let db = demo_db();
        let obs = Obs::in_memory();
        let server = BridgeScopeServer::build_observed(
            db,
            "reader",
            SecurityPolicy::default(),
            &Registry::new(),
            obs.clone(),
        )
        .unwrap();
        server
            .registry
            .call(
                "select",
                &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
            )
            .unwrap();
        let snap = server.snapshot();
        obs::validate_tree(&snap.spans).unwrap();
        let m = &snap.metrics;
        assert_eq!(m.counter("tool.calls"), 1);
        assert_eq!(
            m.labeled_counter("tool.calls", &[("tool", "select"), ("outcome", "ok")]),
            1
        );
        assert_eq!(
            m.labeled_counter("sql.statements", &[("action", "select")]),
            1
        );
        let tool = snap
            .spans
            .iter()
            .find(|sp| sp.name == "tool:select")
            .expect("tool span");
        let sql = snap
            .spans
            .iter()
            .find(|sp| sp.name == "sql:execute")
            .expect("sql span");
        assert_eq!(sql.parent, Some(tool.id), "sql span nests under tool span");
        assert!(
            sql.attr("plan.seq_scans").is_some(),
            "executor plan attributes attached: {:?}",
            sql.attrs
        );
    }

    #[test]
    fn default_build_keeps_observability_off() {
        let db = demo_db();
        let server =
            BridgeScopeServer::build(db, "reader", SecurityPolicy::default(), &Registry::new())
                .unwrap();
        assert!(!server.obs.is_enabled());
        server
            .registry
            .call(
                "select",
                &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
            )
            .unwrap();
        let snap = server.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.metrics.counter("tool.calls"), 0);
    }

    #[test]
    fn gated_build_caches_context_tools_and_invalidates_on_write() {
        let db = demo_db();
        let obs = Obs::in_memory();
        let server = BridgeScopeServer::build_gated(
            db.clone(),
            "reader",
            SecurityPolicy::default(),
            &Registry::new(),
            obs.clone(),
            &gate::GateConfig::default().with_cache(),
        )
        .unwrap();
        let a = server.registry.call("get_schema", &Json::Null).unwrap();
        let b = server.registry.call("get_schema", &Json::Null).unwrap();
        assert_eq!(a, b, "cached output identical");
        let snap = obs.snapshot();
        assert_eq!(
            snap.metrics
                .labeled_counter("gate.cache", &[("tool", "get_schema"), ("hit", "true")]),
            1
        );
        assert_eq!(
            snap.metrics
                .labeled_counter("gate.cache", &[("tool", "get_schema"), ("hit", "false")]),
            1
        );
        // A committed write (by anyone) invalidates: next call is a miss.
        let mut s = db.session("admin").unwrap();
        s.execute_sql("INSERT INTO sales VALUES (5, 50.0)").unwrap();
        server.registry.call("get_schema", &Json::Null).unwrap();
        assert_eq!(
            obs.snapshot()
                .metrics
                .labeled_counter("gate.cache", &[("tool", "get_schema"), ("hit", "false")]),
            2
        );
    }

    #[test]
    fn gated_build_plan_cache_hits_on_normalized_sql() {
        let db = demo_db();
        let obs = Obs::in_memory();
        let server = BridgeScopeServer::build_gated(
            db,
            "reader",
            SecurityPolicy::default(),
            &Registry::new(),
            obs.clone(),
            &gate::GateConfig::default().with_cache(),
        )
        .unwrap();
        let args = |sql: &str| Json::object([("sql", Json::str(sql))]);
        let a = server
            .registry
            .call("select", &args("SELECT * FROM sales"))
            .unwrap();
        let b = server
            .registry
            .call("select", &args("SELECT  *  FROM\n sales"))
            .unwrap();
        assert_eq!(a, b);
        let snap = obs.snapshot();
        assert_eq!(
            snap.metrics
                .labeled_counter("gate.cache", &[("tool", "plan"), ("hit", "true")]),
            1
        );
    }

    #[test]
    fn gated_build_enforces_session_budget_with_typed_denial() {
        let db = demo_db();
        let server = BridgeScopeServer::build_gated(
            db,
            "reader",
            SecurityPolicy::default(),
            &Registry::new(),
            Obs::disabled(),
            &gate::GateConfig::default()
                .with_session_budget(gate::BudgetLimits::default().with_calls(2)),
        )
        .unwrap();
        server.registry.call("get_schema", &Json::Null).unwrap();
        server.registry.call("get_schema", &Json::Null).unwrap();
        let err = server.registry.call("get_schema", &Json::Null).unwrap_err();
        match err {
            toolproto::ToolError::Denied { code, message, .. } => {
                assert_eq!(code, "budget");
                assert_eq!(
                    message,
                    "budget exhausted: calls limit for this session reached (2/2)"
                );
            }
            other => panic!("expected budget denial, got {other:?}"),
        }
    }

    #[test]
    fn transparent_gate_config_changes_nothing() {
        let db = demo_db();
        let plain = BridgeScopeServer::build(
            db.clone(),
            "reader",
            SecurityPolicy::default(),
            &Registry::new(),
        )
        .unwrap();
        let gated = BridgeScopeServer::build_gated(
            db,
            "reader",
            SecurityPolicy::default(),
            &Registry::new(),
            Obs::disabled(),
            &gate::GateConfig::default(),
        )
        .unwrap();
        assert_eq!(plain.registry.names(), gated.registry.names());
        assert_eq!(plain.prompt, gated.prompt);
        let probe = Json::object([("sql", Json::str("SELECT * FROM sales"))]);
        assert_eq!(
            plain.registry.call("select", &probe),
            gated.registry.call("select", &probe)
        );
    }

    #[test]
    fn end_to_end_transactional_flow_through_registry() {
        let db = demo_db();
        let server = BridgeScopeServer::build(
            db.clone(),
            "manager",
            SecurityPolicy::default(),
            &Registry::new(),
        )
        .unwrap();
        let reg = &server.registry;
        reg.call("begin", &Json::Null).unwrap();
        reg.call(
            "insert",
            &Json::object([("sql", Json::str("INSERT INTO sales VALUES (2, 20.0)"))]),
        )
        .unwrap();
        reg.call("commit", &Json::Null).unwrap();
        assert_eq!(db.table_rows("sales").unwrap(), 2);
    }
}
