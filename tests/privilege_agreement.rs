//! The tool-side and engine-side privilege verdicts agree under GRANT/REVOKE
//! churn.
//!
//! A SQL tool call verifies every object of its statement against the
//! user's privileges, then hands the statement to the engine, which checks
//! the same profile again before running it. Both checks read the one
//! committed version pinned at call start, so a REVOKE racing a call lands
//! wholly before it (the tool denies, with its typed message and denial
//! context) or wholly after it (the call runs): it can never slip between
//! the two checks and surface as the engine's `permission denied:` error.
//!
//! Seeded workers issue `select` / `insert` / `update` / `delete` calls on
//! live surfaces (with the plan cache on, so both cache hits and misses are
//! exercised) while an admin thread grants and revokes random actions on
//! the tables they touch.

use bridgescope::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const TABLES: [&str; 3] = ["t0", "t1", "t2"];
const WORKERS: u64 = 3;
const CALLS_PER_WORKER: u64 = 400;
const ACTIONS: [Action; 4] = [
    Action::Select,
    Action::Insert,
    Action::Update,
    Action::Delete,
];

fn seeded_db() -> Database {
    let db = Database::new();
    let mut admin = db.session("admin").unwrap();
    for t in TABLES {
        admin
            .execute_sql(&format!(
                "CREATE TABLE {t} (id INTEGER PRIMARY KEY, v INTEGER)"
            ))
            .unwrap();
        for id in 0..20 {
            admin
                .execute_sql(&format!("INSERT INTO {t} VALUES ({id}, {id})"))
                .unwrap();
        }
    }
    db.create_user("agent", false).unwrap();
    for t in TABLES {
        // Every action is held at build time, so every SQL tool is listed.
        db.grant_all("agent", t).unwrap();
    }
    db
}

/// One seeded statement for `worker`'s `i`-th call: the tool name and SQL.
/// Most statements touch two tables, so a call checks several objects.
fn statement(rng: &mut SmallRng, worker: u64, i: u64) -> (&'static str, String) {
    let a = TABLES[rng.gen_range(0..TABLES.len())];
    let b = TABLES[rng.gen_range(0..TABLES.len())];
    let row = rng.gen_range(0..20u64);
    match rng.gen_range(0..4u32) {
        0 => (
            "select",
            format!("SELECT COUNT(*) FROM {a} WHERE id IN (SELECT id FROM {b})"),
        ),
        1 => (
            "insert",
            format!(
                "INSERT INTO {a} VALUES ({}, {row})",
                1000 + worker * 10_000 + i
            ),
        ),
        2 => (
            "update",
            format!("UPDATE {a} SET v = v + 1 WHERE id IN (SELECT id FROM {b} WHERE id = {row})"),
        ),
        _ => (
            "delete",
            format!(
                "DELETE FROM {a} WHERE id = {}",
                1000 + worker * 10_000 + row
            ),
        ),
    }
}

#[test]
fn tool_and_engine_verdicts_agree_under_grant_churn() {
    let db = seeded_db();
    // Surfaces are built before the churn starts: the tool list is fixed
    // at build time, from the privileges held then.
    let servers: Vec<_> = (0..WORKERS)
        .map(|_| {
            BridgeScopeServer::build_gated(
                db.clone(),
                "agent",
                SecurityPolicy::default(),
                &Registry::new(),
                Obs::disabled(),
                &GateConfig::default().with_cache(),
            )
            .unwrap()
        })
        .collect();
    let churning = Arc::new(AtomicBool::new(true));
    let admin = {
        let db = db.clone();
        let churning = Arc::clone(&churning);
        thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
            let mut changes = 0u64;
            while churning.load(Ordering::Relaxed) {
                let action = ACTIONS[rng.gen_range(0..ACTIONS.len())];
                let table = TABLES[rng.gen_range(0..TABLES.len())];
                if rng.gen_bool(0.5) {
                    db.grant("agent", action, table).unwrap();
                } else {
                    db.revoke("agent", action, table).unwrap();
                }
                changes += 1;
            }
            changes
        })
    };
    let workers: Vec<_> = servers
        .into_iter()
        .zip(0..WORKERS)
        .map(|(server, worker)| {
            thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(42 + worker);
                let (mut ok, mut denied) = (0u64, 0u64);
                for i in 0..CALLS_PER_WORKER {
                    let (tool, sql) = statement(&mut rng, worker, i);
                    let args = Json::object([("sql", Json::str(sql.clone()))]);
                    match server.registry.call(tool, &args) {
                        Ok(_) => ok += 1,
                        Err(ToolError::Denied {
                            code,
                            message,
                            context,
                        }) => {
                            assert_eq!(code, "privilege", "{sql}: {message}");
                            assert!(
                                !message.starts_with("permission denied:"),
                                "engine-side denial reached the tool: {sql}: {message}"
                            );
                            assert!(
                                message.starts_with("user \"agent\" lacks the ")
                                    && message.contains(" privilege on \""),
                                "{sql}: {message}"
                            );
                            let (action, object) = (context.action, context.object);
                            assert!(
                                action.is_some() && object.is_some(),
                                "{sql}: denial without its action and object"
                            );
                            denied += 1;
                        }
                        Err(e) => panic!("{sql}: {e}"),
                    }
                }
                (ok, denied)
            })
        })
        .collect();
    let (mut ok, mut denied) = (0, 0);
    for worker in workers {
        let (o, d) = worker.join().expect("worker");
        ok += o;
        denied += d;
    }
    churning.store(false, Ordering::Relaxed);
    let changes = admin.join().expect("admin");
    assert_eq!(ok + denied, WORKERS * CALLS_PER_WORKER);
    assert!(ok > 0 && denied > 0, "ok {ok}, denied {denied}");
    assert!(changes > 0);
}
