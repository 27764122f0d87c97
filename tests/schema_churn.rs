//! `get_schema` and `get_object` survive concurrent catalog churn.
//!
//! A context-tool call pins one committed version and reads names,
//! definitions and privileges from it, so a table or view dropped while the
//! call renders is either wholly listed (with its real definition) or wholly
//! absent. One thread creates and drops tables and views in a seeded loop
//! while another keeps calling `get_schema` and `get_object` on a live
//! surface: every call must succeed, and every rendered view must carry its
//! real column list.

use bridgescope::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const CHURN_ROUNDS: usize = 300;

fn names(value: &Json, key: &str) -> Vec<String> {
    value
        .get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

/// The column list a view of this fixture must render with.
fn expected_view_columns(view: &str) -> Vec<String> {
    let cols: &[&str] = if view == "stable_v" {
        &["id", "name"]
    } else {
        &["a", "b"]
    };
    cols.iter().map(|c| c.to_string()).collect()
}

#[test]
fn get_schema_survives_catalog_churn() {
    let db = Database::new();
    let mut admin = db.session("admin").unwrap();
    admin
        .execute_sql("CREATE TABLE stable_a (id INTEGER PRIMARY KEY, name TEXT)")
        .unwrap();
    admin
        .execute_sql("CREATE VIEW stable_v AS SELECT id, name FROM stable_a")
        .unwrap();
    let server = BridgeScopeServer::build(
        db.clone(),
        "admin",
        SecurityPolicy::default(),
        &Registry::new(),
    )
    .unwrap();

    let churning = Arc::new(AtomicBool::new(true));
    let churner = {
        let churning = Arc::clone(&churning);
        thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..CHURN_ROUNDS {
                let slot = rng.gen_range(0..4u32);
                for sql in [
                    format!("CREATE TABLE churn_{slot} (id INTEGER PRIMARY KEY, a TEXT, b REAL)"),
                    format!("CREATE VIEW churn_view_{slot} AS SELECT a, b FROM churn_{slot}"),
                    format!("DROP VIEW churn_view_{slot}"),
                    format!("DROP TABLE churn_{slot}"),
                ] {
                    admin.execute_sql(&sql).unwrap();
                }
            }
            churning.store(false, Ordering::Relaxed);
        })
    };

    let mut calls = 0usize;
    let mut churned_views_seen = 0usize;
    while churning.load(Ordering::Relaxed) {
        let out = server
            .registry
            .call("get_schema", &Json::Null)
            .unwrap_or_else(|e| panic!("get_schema failed under churn: {e}"));
        assert_eq!(out.value.get("detail").and_then(Json::as_str), Some("full"));
        for entry in out.value.get("tables").and_then(Json::as_array).unwrap() {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            let columns = names(entry, "columns");
            match entry.get("type").and_then(Json::as_str) {
                Some("view") => {
                    assert_eq!(columns, expected_view_columns(name), "view {name}");
                    churned_views_seen += usize::from(name != "stable_v");
                }
                _ => assert!(!columns.is_empty(), "table {name} rendered without columns"),
            }
        }
        for object in ["stable_a", "stable_v"] {
            let out = server
                .registry
                .call("get_object", &Json::object([("name", Json::str(object))]))
                .unwrap_or_else(|e| panic!("get_object({object}) failed under churn: {e}"));
            assert!(!names(&out.value, "columns").is_empty(), "{object}");
        }
        calls += 1;
    }
    churner.join().expect("churner");
    assert!(calls > 0, "no get_schema call overlapped the churn");
    // Not asserted (it depends on scheduling), but printed: how often the
    // reader caught a churned view mid-life.
    println!("{calls} get_schema calls, {churned_views_seen} churned views rendered");
}
