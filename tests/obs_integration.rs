//! End-to-end observability: a full BridgeScope server driven by the
//! simulated agent, with the trace checked three ways — differentially
//! against the independently-maintained `TaskTrace`, structurally as a span
//! tree, and through a JSONL export/re-parse round trip.

use bridgescope::prelude::*;
use llmsim::SqlStep;

fn demo_db() -> Database {
    let db = Database::new();
    let mut admin = db.session("admin").expect("admin exists");
    for sql in [
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount REAL)",
        "CREATE TABLE salaries (id INTEGER PRIMARY KEY, pay REAL)",
        "INSERT INTO salaries VALUES (1, 1.0)",
    ] {
        admin.execute_sql(sql).expect("setup");
    }
    for i in 0..60 {
        admin
            .execute_sql(&format!(
                "INSERT INTO sales VALUES ({i}, 'r{}', {}.0)",
                i % 3,
                i
            ))
            .expect("insert");
    }
    db.create_user("analyst", false).expect("fresh user");
    db.grant_all("analyst", "sales").expect("table exists");
    db
}

fn strict_profile() -> LlmProfile {
    LlmProfile {
        schema_hallucination_rate: 0.0,
        predicate_error_rate: 0.0,
        privilege_awareness: 1.0,
        spurious_abort_rate: 0.0,
        sql_accuracy: 1.0,
        txn_awareness_explicit: 1.0,
        ..LlmProfile::gpt4o()
    }
}

fn observed_server(obs: &Obs) -> BridgeScopeServer {
    BridgeScopeServer::build_observed(
        demo_db(),
        "analyst",
        SecurityPolicy::default(),
        &Registry::new(),
        obs.clone(),
    )
    .expect("analyst exists")
}

fn read_task() -> TaskSpec {
    TaskSpec::read(
        "obs-read",
        "How many sales are there?",
        SqlStep::simple("select", vec!["sales".into()], "SELECT COUNT(*) FROM sales"),
    )
}

#[test]
fn metrics_agree_with_the_task_trace() {
    let obs = Obs::in_memory();
    let server = observed_server(&obs);
    let agent = ReactAgent::new(strict_profile(), server.prompt).with_obs(obs.clone());

    let trace = agent.run(&server.registry, &read_task(), 11);
    assert!(trace.outcome.is_completed(), "{}", trace.render());

    // Differential check: the metrics registry and the TaskTrace are
    // maintained by different code paths and must agree. `llm.tool_calls`
    // counts what the LLM issued; the registry-level `tool.calls` would
    // additionally count proxy-internal producer calls.
    let snap = server.snapshot();
    assert_eq!(snap.metrics.counter("llm.calls"), trace.llm_calls as u64);
    assert_eq!(
        snap.metrics.counter("llm.tool_calls"),
        trace.tool_calls as u64
    );
    assert_eq!(
        snap.metrics.counter("llm.rows_via_context"),
        trace.rows_via_llm as u64
    );
    assert_eq!(
        snap.metrics.counter("llm.prompt_tokens"),
        trace.prompt_tokens as u64
    );
    // No proxy ran, so registry- and LLM-level tool counts coincide here.
    assert_eq!(snap.metrics.counter("tool.calls"), trace.tool_calls as u64);
}

#[test]
fn span_chain_links_task_to_executor_plan() {
    let obs = Obs::in_memory();
    let server = observed_server(&obs);
    let agent = ReactAgent::new(strict_profile(), server.prompt).with_obs(obs.clone());
    agent.run(&server.registry, &read_task(), 11);

    let snap = server.snapshot();
    obs::validate_tree(&snap.spans).unwrap();
    // Walk up from the SQL execution span to the task root.
    let sql = snap
        .spans
        .iter()
        .find(|sp| sp.name == "sql:execute")
        .expect("sql span");
    assert!(
        sql.attr("plan.seq_scans").is_some() || sql.attr("plan.index_probes").is_some(),
        "executor plan attributes attached: {:?}",
        sql.attrs
    );
    let by_id = |id: u64| snap.spans.iter().find(|sp| sp.id == id).unwrap();
    let tool = by_id(sql.parent.expect("sql nests under a tool call"));
    assert_eq!(tool.name, "tool:select");
    let llm = by_id(tool.parent.expect("tool nests under an llm call"));
    assert_eq!(llm.name, "llm:call");
    let task = by_id(llm.parent.expect("llm call nests under the task"));
    assert_eq!(task.name, "task");
    assert_eq!(task.parent, None);
}

#[test]
fn denials_are_counted_with_context() {
    let obs = Obs::in_memory();
    let server = observed_server(&obs);
    let err = server
        .registry
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT pay FROM salaries"))]),
        )
        .expect_err("salaries were never granted");
    let ctx = err.denial_context().expect("denial carries context");
    assert_eq!(ctx.object.as_deref(), Some("salaries"));
    assert_eq!(ctx.action.as_deref(), Some("SELECT"));

    let snap = server.snapshot();
    let m = &snap.metrics;
    assert_eq!(m.labeled_counter("denials", &[("gate", "privilege")]), 1);
    assert_eq!(
        m.labeled_counter("tool.denied", &[("code", "privilege")]),
        1
    );
    let denial = snap
        .spans
        .iter()
        .find(|sp| sp.name == "denial:privilege")
        .expect("denial event span");
    assert_eq!(
        denial.attr("object"),
        Some(&obs::AttrValue::Str("salaries".into()))
    );
}

#[test]
fn proxy_moves_rows_without_the_llm_and_counts_them() {
    let obs = Obs::in_memory();
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
            Ok(ToolOutput::value(Json::object([(
                "count",
                Json::num(n as f64),
            )])))
        },
    ));
    let server = BridgeScopeServer::build_observed(
        demo_db(),
        "analyst",
        SecurityPolicy::default(),
        &external,
        obs.clone(),
    )
    .expect("analyst exists");
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
        .expect("proxy runs");
    assert_eq!(out.value.get("count").and_then(Json::as_i64), Some(60));

    let snap = server.snapshot();
    obs::validate_tree(&snap.spans).unwrap();
    assert_eq!(snap.metrics.counter("proxy.units"), 1);
    assert_eq!(snap.metrics.counter("proxy.rows_moved"), 60);
    // The one hand-off, counted once: 60 rows `[i,"r<i % 3>",i]` of 8
    // bytes plus i's digits twice (10 one-digit ids, 50 two-digit ones),
    // and the array's brackets and 59 commas: 480 + 220 + 61.
    assert_eq!(snap.metrics.counter("proxy.bytes_moved"), 761);
    // The producer-side select ran under the unit: registry-level calls
    // exceed what a caller issued directly (proxy + inner select + consumer).
    let ok = |tool| {
        snap.metrics
            .labeled_counter("tool.calls", &[("tool", tool), ("outcome", "ok")])
    };
    assert_eq!(ok("select"), 1);
    assert_eq!(ok("proxy"), 1);
    let unit = snap
        .spans
        .iter()
        .find(|sp| sp.name == "proxy:unit")
        .expect("unit span");
    assert_eq!(
        unit.attr("rows_in"),
        Some(&obs::AttrValue::Int(60)),
        "unit records the rows it moved"
    );
}

#[test]
fn jsonl_export_round_trips_a_full_run() {
    let path = std::env::temp_dir().join(format!("obs-e2e-{}.jsonl", std::process::id()));
    let obs = Obs::jsonl(&path);
    let server = observed_server(&obs);
    let agent = ReactAgent::new(strict_profile(), server.prompt).with_obs(obs.clone());
    agent.run(&server.registry, &read_task(), 11);

    obs.flush().expect("flush succeeds");
    let text = std::fs::read_to_string(&path).unwrap();
    let rebuilt = obs::parse_jsonl(&text).expect("trace re-parses");
    obs::validate_tree(&rebuilt.spans).unwrap();

    let original = server.snapshot();
    assert_eq!(rebuilt.spans, original.spans);
    assert_eq!(
        rebuilt.metrics.counter("llm.calls"),
        original.metrics.counter("llm.calls")
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn observability_off_records_nothing() {
    let server = BridgeScopeServer::build(
        demo_db(),
        "analyst",
        SecurityPolicy::default(),
        &Registry::new(),
    )
    .expect("analyst exists");
    let agent = ReactAgent::new(strict_profile(), server.prompt);
    let trace = agent.run(&server.registry, &read_task(), 11);
    assert!(trace.outcome.is_completed());

    let snap = server.snapshot();
    assert!(snap.spans.is_empty());
    assert_eq!(snap.metrics.counter("tool.calls"), 0);
    assert_eq!(snap.metrics.counter("llm.calls"), 0);
}

/// A server for the superuser over `demo_db` plus a view of one region.
fn admin_server(obs: Option<&Obs>) -> BridgeScopeServer {
    let db = demo_db();
    db.session("admin")
        .expect("admin exists")
        .execute_sql("CREATE VIEW r0 AS SELECT id, amount FROM sales WHERE region = 'r0'")
        .expect("view");
    let (policy, extra) = (SecurityPolicy::default(), Registry::new());
    match obs {
        Some(obs) => BridgeScopeServer::build_observed(db, "admin", policy, &extra, obs.clone()),
        None => BridgeScopeServer::build(db, "admin", policy, &extra),
    }
    .expect("admin exists")
}

fn select(server: &BridgeScopeServer, sql: &str) -> ToolOutput {
    let args = Json::object([("sql", Json::str(sql))]);
    server
        .registry
        .call("select", &args)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn plan_attributes_report_the_outer_tree_and_the_rows_its_scans_emitted() {
    const KEYS: [&str; 7] = [
        "plan.seq_scans",
        "plan.parallel_scans",
        "plan.index_probes",
        "plan.view_expands",
        "plan.nested_loop_joins",
        "plan.hash_joins",
        "plan.rows_scanned",
    ];
    let obs = Obs::in_memory();
    let server = admin_server(Some(&obs));
    let attrs = |sql: &str| -> Vec<String> {
        select(&server, sql);
        let snap = server.snapshot();
        let span = snap.spans.iter().rev().find(|sp| sp.name == "sql:execute");
        let span = span.expect("sql span");
        assert!(span.attr("plan.profile").is_some(), "{sql}");
        KEYS.map(|k| {
            span.attr(k)
                .unwrap_or_else(|| panic!("{k}: {sql}"))
                .to_string()
        })
        .to_vec()
    };
    let expect = |counts: [u64; 7]| counts.map(|n| n.to_string()).to_vec();
    // A filter above a plain scan: every table row leaves the scan.
    assert_eq!(
        attrs("SELECT id FROM sales WHERE amount > 49.5"),
        expect([1, 0, 0, 0, 0, 0, 60])
    );
    // A probe emits its candidates only.
    assert_eq!(
        attrs("SELECT amount FROM sales WHERE id = 7"),
        expect([0, 0, 1, 0, 0, 0, 1])
    );
    // A streaming LIMIT stops the scan early.
    assert_eq!(
        attrs("SELECT id FROM sales LIMIT 5"),
        expect([1, 0, 0, 0, 0, 0, 5])
    );
    assert_eq!(
        attrs("SELECT s.id FROM sales s JOIN salaries p ON s.id = p.id"),
        expect([2, 0, 0, 0, 0, 1, 61])
    );
    // A view counts as one leaf emitting its 20 result rows; the scan of
    // `sales` inside its body (60 rows) belongs to a nested plan and is not
    // unfolded. Likewise for a subquery resolved before planning.
    assert_eq!(
        attrs("SELECT COUNT(*) FROM r0"),
        expect([0, 0, 0, 1, 0, 0, 20])
    );
    assert_eq!(
        attrs("SELECT id FROM sales WHERE amount > (SELECT AVG(amount) FROM sales)"),
        expect([1, 0, 0, 0, 0, 0, 60])
    );
}

#[test]
fn select_tool_runs_explain_with_observability_on_and_off() {
    let obs = Obs::in_memory();
    for server in [admin_server(Some(&obs)), admin_server(None)] {
        for sql in [
            "EXPLAIN SELECT id FROM sales WHERE amount > 1.0",
            "EXPLAIN ANALYZE SELECT id FROM sales WHERE amount > 1.0",
        ] {
            let text = select(&server, sql).value.to_compact();
            assert!(text.contains("Seq Scan on sales"), "{sql}: {text}");
        }
    }
    let snap = obs.snapshot();
    let spans = snap.spans.iter().filter(|sp| sp.name == "sql:execute");
    assert_eq!(spans.filter(|sp| sp.error.is_none()).count(), 2);
}
