//! Moderation of agent traffic over real wire sessions, asserted on counts:
//! a budgeted runaway tenant is capped and denied while steady tenants are
//! untouched, exploration-heavy agents are served from the retrieval
//! cache, and any number of sessions hold a transaction open at once.

mod common;

use bridgescope::prelude::*;
use common::{demo_db, drive};
use llmsim::{SqlStep, ValueLookup};
use std::sync::{Arc, Barrier, Mutex};

#[test]
fn budgeted_runaway_is_capped_and_steady_tenants_are_untouched() {
    const HOG_BUDGET: u64 = 12;
    const CALLS: usize = 100;
    let steady = ["tenant_a", "tenant_b", "tenant_c"];
    let db = demo_db();
    for user in steady.iter().copied().chain(["hog"]) {
        db.create_user(user, false).unwrap();
        db.grant(user, Action::Select, "sales").unwrap();
    }
    let ledger = BudgetLedger::new(BudgetLimits::unlimited())
        .with_user_limit("hog", BudgetLimits::unlimited().with_calls(HOG_BUDGET));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(db).with_gate(
            GateConfig::default()
                .with_cache()
                .with_user_ledger(Arc::new(ledger)),
        ),
        WireConfig {
            tenant_weights: steady.iter().map(|u| (u.to_string(), 4)).collect(),
            ..WireConfig::default()
        },
        Obs::in_memory(),
    )
    .unwrap();
    // Calls are admitted before they are charged, so concurrent sessions of
    // one user may overshoot a budget by a call each (DESIGN.md §11); the
    // runaway drives one session so its count is exact.
    let probe = "SELECT region, amount FROM sales WHERE id < 50";
    let mut sessions: Vec<(&str, &str)> = steady.iter().map(|u| (*u, probe)).collect();
    sessions.push(("hog", "SELECT * FROM sales"));
    let tallies = drive(server.local_addr(), &sessions, CALLS);
    server.shutdown();

    let (hog, steady_tallies) = tallies.split_last().unwrap();
    assert_eq!(hog.ok, HOG_BUDGET, "{hog:?}");
    assert!(!hog.errors.is_empty(), "the runaway was never denied");
    for error in &hog.errors {
        assert!(
            matches!(error, ToolError::Denied { code, .. } if code == "budget"),
            "{error:?}"
        );
    }
    for (user, tally) in steady.iter().zip(steady_tallies) {
        assert_eq!(
            (tally.ok, tally.busy),
            (CALLS as u64, 0),
            "{user}: {tally:?}"
        );
        assert!(tally.errors.is_empty(), "{user}: {tally:?}");
    }
}

/// A read task grounded on the demo `sales` table, with a value lookup so
/// an exploring agent re-probes `get_value` as well as `get_schema`.
fn demo_task() -> TaskSpec {
    let mut step = SqlStep::simple(
        "select",
        vec!["sales".into()],
        "SELECT region, amount FROM sales WHERE region = 'north'",
    );
    step.lookup = Some(ValueLookup {
        table: "sales".into(),
        column: "region".into(),
        key: "north".into(),
        actual: "north".into(),
    });
    TaskSpec::read("serve-demo", "Total sales for the north region", step)
}

#[test]
fn exploring_agents_are_served_from_the_context_cache() {
    const SESSIONS: usize = 4;
    const TASKS: usize = 6;
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()).with_gate(GateConfig::default().with_cache()),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let addr = server.local_addr();
    let task = demo_task();
    let completed: usize = std::thread::scope(|scope| {
        let sessions: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let task = &task;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let init = client.initialize("admin").unwrap();
                    let prompt = init.get("prompt").and_then(Json::as_str).unwrap();
                    let agent = ReactAgent::new(LlmProfile::explorer(), prompt.to_owned());
                    let mirror = wire::mirror_registry(Arc::new(Mutex::new(client))).unwrap();
                    (0..TASKS)
                        .filter(|j| {
                            let seed =
                                benchkit::harness::task_seed((i * TASKS + j) as u64, &task.id);
                            agent.run(&mirror, task, seed).outcome.is_completed()
                        })
                        .count()
                })
            })
            .collect();
        sessions.into_iter().map(|s| s.join().unwrap()).sum()
    });
    server.shutdown();

    let metrics = obs.snapshot().metrics;
    let count = |hit: &str| -> u64 {
        ["get_schema", "get_object", "get_value"]
            .iter()
            .map(|tool| metrics.labeled_counter("gate.cache", &[("tool", tool), ("hit", hit)]))
            .sum()
    };
    let (hits, misses) = (count("true"), count("false"));
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(hit_rate >= 0.8, "{hits} hits / {misses} misses");
    let completion = completed as f64 / (SESSIONS * TASKS) as f64;
    assert!(completion >= 0.75, "{completed}/{} tasks", SESSIONS * TASKS);
}

/// There is no global transaction slot: eight sessions each hold a
/// transaction open at the same moment, and every one of them reads and
/// commits.
#[test]
fn eight_sessions_hold_open_transactions_at_once() {
    const SESSIONS: usize = 8;
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()),
        WireConfig::default(),
        Obs::in_memory(),
    )
    .unwrap();
    let addr = server.local_addr();
    let all_open = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        for _ in 0..SESSIONS {
            let all_open = &all_open;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.initialize("admin").unwrap();
                client.call("begin", &Json::Null).unwrap().unwrap();
                all_open.wait();
                let out = client
                    .call(
                        "select",
                        &Json::object([("sql", Json::str("SELECT id FROM sales WHERE id < 10"))]),
                    )
                    .unwrap()
                    .unwrap();
                assert_eq!(out.rows, Some(10));
                client.call("commit", &Json::Null).unwrap().unwrap();
                client.shutdown().unwrap();
            });
        }
    });
    server.shutdown();
}
