//! Planner-vs-reference differential suite.
//!
//! Every query runs twice: once through the cost-based planner + Volcano
//! executor (`ExecOptions::default`) and once through the sequential
//! reference (`ExecOptions::sequential`). Results must be byte-identical —
//! content *and* row order.
//!
//! * The full BIRD-Ext gold SQL (300 tasks) is swept in three statistics
//!   regimes (unanalyzed, analyzed, analyzed-then-mutated stale stats),
//!   because statistics change *which* plan the optimizer picks but must
//!   never change what it returns. Gold write statements are replayed
//!   between read sweeps so the data the plans run over drifts the way a
//!   real agent workload drifts; statements that no longer apply (gold SQL
//!   assumes a pristine database) are skipped, exactly as
//!   `benchkit::crashlab` does.
//! * A seeded-LCG insert/update/delete/rollback workload over a small shop
//!   schema checks index consistency after every batch and pins the plan
//!   shapes (index probe, hash join, parallel scan) on the rendered
//!   `PhysPlan`.
//! * The reference's one switch — `hash_join`, which benchmark oracles set —
//!   must not change a single row of the nested-loop reference's answer.

use minidb::{Database, ExecOptions, QueryResult, Session};
use sqlkit::ast::Statement;

/// Run one SELECT under the planner and the sequential reference; both must
/// agree byte-for-byte (or fail with the identical error).
fn differential(session: &Session, sql: &str) -> Option<QueryResult> {
    let planned = session.query_with_options(sql, &ExecOptions::default());
    let reference = session.query_with_options(sql, &ExecOptions::sequential());
    match (planned, reference) {
        (Ok((planned, plan)), Ok((reference, _))) => {
            assert_eq!(
                planned,
                reference,
                "planner diverged from the sequential reference for: {sql}\nplan:\n{}",
                plan.expect("planned").render().join("\n")
            );
            Some(planned)
        }
        (Err(p), Err(r)) => {
            assert_eq!(
                p.to_string(),
                r.to_string(),
                "planner surfaced a different error for: {sql}"
            );
            None
        }
        (Ok(_), Err(r)) => panic!("only the sequential reference failed for {sql}: {r}"),
        (Err(p), Ok(_)) => panic!("only the planner path failed for {sql}: {p}"),
    }
}

/// EXPLAIN must render a real operator tree with cost estimates, and
/// EXPLAIN ANALYZE's root actual-row count must equal the rows the query
/// actually returns.
fn check_explain(session: &mut Session, sql: &str, expect_rows: usize) {
    let plan = match session.execute_sql(&format!("EXPLAIN {sql}")) {
        Ok(QueryResult::Rows { rows, .. }) => rows,
        other => panic!("EXPLAIN {sql} did not return rows: {other:?}"),
    };
    assert!(!plan.is_empty(), "EXPLAIN produced no plan for {sql}");
    let first = match &plan[0][0] {
        minidb::Value::Text(t) => t.clone(),
        v => panic!("EXPLAIN row is not text: {v:?}"),
    };
    assert!(
        first.contains("cost=") && first.contains("rows="),
        "EXPLAIN root line has no cost estimate: {first}"
    );

    let analyzed = match session.execute_sql(&format!("EXPLAIN ANALYZE {sql}")) {
        Ok(QueryResult::Rows { rows, .. }) => rows,
        other => panic!("EXPLAIN ANALYZE {sql} did not return rows: {other:?}"),
    };
    let root = match &analyzed[0][0] {
        minidb::Value::Text(t) => t.clone(),
        v => panic!("EXPLAIN ANALYZE row is not text: {v:?}"),
    };
    // The annotation is `(actual time=0.123ms rows=N)` — the time renders
    // only under profiling, so parse the rows count from whatever follows
    // `(actual `.
    let actual: usize = root
        .split("(actual ")
        .nth(1)
        .and_then(|t| t.split("rows=").nth(1))
        .and_then(|t| t.split(')').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("EXPLAIN ANALYZE root has no actual rows: {root}"));
    assert_eq!(
        actual, expect_rows,
        "EXPLAIN ANALYZE root actual rows disagree with execution for: {sql}"
    );
}

/// Sweep every gold SELECT differentially; returns how many ran.
fn sweep_selects(session: &mut Session, bench: &benchkit::BirdExt, explain_every: usize) -> usize {
    let mut ran = 0;
    for task in &bench.tasks {
        for step in &task.spec.steps {
            let Ok(stmt) = sqlkit::parse_statement(&step.gold) else {
                continue;
            };
            if !matches!(stmt, Statement::Select(_)) {
                continue;
            }
            if let Some(result) = differential(session, &step.gold) {
                // EXPLAIN ANALYZE executes the statement again; sample the
                // suite rather than doubling its runtime end to end.
                if ran % explain_every == 0 {
                    check_explain(session, &step.gold, result.row_count());
                }
            }
            ran += 1;
        }
    }
    ran
}

/// Replay the gold write statements, skipping any that no longer apply.
fn replay_writes(session: &mut Session, bench: &benchkit::BirdExt) -> usize {
    let mut applied = 0;
    for task in &bench.tasks {
        if !task.is_write() {
            continue;
        }
        for step in &task.spec.steps {
            let Ok(stmt) = sqlkit::parse_statement(&step.gold) else {
                continue;
            };
            if matches!(stmt, Statement::Select(_)) {
                continue;
            }
            if session.execute_sql(&step.gold).is_ok() {
                applied += 1;
            }
        }
    }
    applied
}

#[test]
fn bird_gold_sql_planner_matches_sequential_reference() {
    let bench = benchkit::generate_bird_ext(11);
    let db: Database = bench.template.fork();
    let mut session = db.session("admin").expect("admin exists");

    // Regime 1: no statistics — the planner runs on default selectivities.
    let unanalyzed = sweep_selects(&mut session, &bench, 10);
    assert!(
        unanalyzed >= 150,
        "BIRD-Ext must contribute at least its 150 read-task gold SELECTs, got {unanalyzed}"
    );

    // Regime 2: fresh statistics — access paths and join orders may change;
    // results may not.
    session.execute_sql("ANALYZE").expect("admin may analyze");
    let analyzed = sweep_selects(&mut session, &bench, 10);
    assert_eq!(unanalyzed, analyzed);

    // Regime 3: stale statistics — replay the gold write workload so the
    // stored data drifts away from what ANALYZE sampled, then sweep again.
    // Stale stats may mis-cost plans; they must never mis-answer them.
    let applied = replay_writes(&mut session, &bench);
    assert!(applied > 0, "gold write workload must partially apply");
    let stale = sweep_selects(&mut session, &bench, 10);
    assert_eq!(unanalyzed, stale);
}

// ---------------------------------------------------------------------------
// Seeded mutation workload over a small shop schema
// ---------------------------------------------------------------------------

/// Deterministic 64-bit LCG (Knuth's MMIX constants), so failures reproduce
/// exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// [`differential`] for a query that must succeed, plus the rendered plan.
fn planned(session: &Session, sql: &str) -> (QueryResult, String) {
    let result = differential(session, sql).unwrap_or_else(|| panic!("{sql} failed"));
    let (_, plan) = session
        .query_with_options(sql, &ExecOptions::default())
        .unwrap();
    (result, plan.expect("planned").render().join("\n"))
}

fn assert_indexes_consistent(db: &Database) {
    if let Err(e) = db.with_state(|state| state.verify_indexes()) {
        panic!("index inconsistency in {e}");
    }
}

fn seed_shop(db: &Database) -> Session {
    let mut s = db.session("admin").unwrap();
    for sql in [
        "CREATE TABLE groups (gid INTEGER PRIMARY KEY, label TEXT NOT NULL)",
        "CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER, price REAL, tag TEXT, \
         FOREIGN KEY (grp) REFERENCES groups (gid))",
        "CREATE INDEX idx_items_grp ON items (grp)",
        "CREATE INDEX idx_items_tag ON items (tag)",
    ] {
        s.execute_sql(sql).unwrap();
    }
    for gid in 0..8 {
        s.execute_sql(&format!("INSERT INTO groups VALUES ({gid}, 'g{gid}')"))
            .unwrap();
    }
    s
}

fn insert_items(s: &mut Session, rng: &mut Lcg, start_id: &mut i64, n: usize) {
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let id = *start_id;
        *start_id += 1;
        let grp = rng.below(8);
        let price = rng.below(10_000) as f64 / 100.0;
        let tag = format!("'tag{}'", rng.below(5));
        rows.push(format!("({id}, {grp}, {price}, {tag})"));
    }
    s.execute_sql(&format!("INSERT INTO items VALUES {}", rows.join(", ")))
        .unwrap();
}

/// The query suite exercised after every mutation batch: index-probe
/// selects, a hash join, grouped aggregates, and a plain filter scan.
fn query_suite(rng: &mut Lcg) -> Vec<String> {
    let g = rng.below(8);
    let t = rng.below(5);
    vec![
        format!("SELECT * FROM items WHERE grp = {g}"),
        format!("SELECT id, price FROM items WHERE tag = 'tag{t}' AND price > 20.0"),
        "SELECT i.id, g.label FROM items AS i JOIN groups AS g ON i.grp = g.gid".into(),
        "SELECT g.label, COUNT(*), SUM(i.price) FROM items AS i \
         JOIN groups AS g ON i.grp = g.gid GROUP BY g.label"
            .into(),
        "SELECT grp, COUNT(*) FROM items WHERE price > 50.0 GROUP BY grp".into(),
        "SELECT * FROM items WHERE price > 99.0 ORDER BY price, id LIMIT 7".into(),
    ]
}

#[test]
fn plan_shapes_on_the_shop_fixture() {
    let db = Database::new();
    let mut s = seed_shop(&db);
    let mut rng = Lcg(7);
    let mut next_id = 0;
    insert_items(&mut s, &mut rng, &mut next_id, 128);

    // An equality predicate on an indexed column probes the index; one on an
    // unindexed column stays a scan.
    let (result, plan) = planned(&s, "SELECT id, price FROM items WHERE grp = 3");
    assert!(plan.contains("Index Scan on items using "), "{plan}");
    assert!(result.row_count() > 0, "workload should hit group 3");
    let (_, plan) = planned(&s, "SELECT id FROM items WHERE price = 1.0");
    assert!(!plan.contains("Index Scan"), "{plan}");

    // An equi-join hashes; a non-equi join must stay nested-loop.
    let join = "SELECT i.id, g.label FROM items AS i JOIN groups AS g ON i.grp = g.gid";
    let (result, plan) = planned(&s, join);
    assert!(plan.contains("Hash Join on i.grp = g.gid"), "{plan}");
    assert_eq!(result.row_count(), 128);
    let (_, plan) = planned(
        &s,
        "SELECT i.id FROM items AS i JOIN groups AS g ON i.grp < g.gid",
    );
    assert!(plan.contains("Nested Loop Join"), "{plan}");
    assert!(!plan.contains("Hash"), "{plan}");

    // Items without a group (grp NULL) null-extend identically under the
    // hash LEFT join.
    s.execute_sql("INSERT INTO items VALUES (-1, NULL, 5.0, 'b')")
        .unwrap();
    let (result, plan) = planned(
        &s,
        "SELECT i.id, g.label FROM items AS i LEFT JOIN groups AS g ON i.grp = g.gid",
    );
    assert!(plan.contains("Hash Left Join"), "{plan}");
    assert_eq!(result.row_count(), 129);

    // Past the planner's 4096-row threshold a filtered scan (and the
    // grouping above it) fans out — on a host with a second core. Explicit
    // worker counts are driven by minidb's in-crate `exec::parallel` tests;
    // here the planned tree, whatever its width, must match the reference.
    for _ in 0..50 {
        insert_items(&mut s, &mut rng, &mut next_id, 100);
    }
    let multicore = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    for sql in [
        "SELECT id, tag FROM items WHERE price > 25.0",
        "SELECT grp, COUNT(*), SUM(price) FROM items WHERE price >= 0.0 GROUP BY grp",
        "SELECT g.label, SUM(i.price) FROM items AS i JOIN groups AS g ON i.grp = g.gid \
         WHERE i.price > 10.0 GROUP BY g.label",
    ] {
        let (result, plan) = planned(&s, sql);
        assert!(result.row_count() > 0);
        if !sql.contains("JOIN") {
            assert_eq!(plan.contains("Parallel Seq Scan"), multicore, "{plan}");
        }
    }
}

#[test]
fn seeded_mutation_workload_matches_reference() {
    let db = Database::new();
    let mut s = seed_shop(&db);
    let mut rng = Lcg(0xB51DC0);
    let mut next_id = 0;
    insert_items(&mut s, &mut rng, &mut next_id, 80);

    let run_suite = |s: &Session, seed: u64| -> Vec<QueryResult> {
        query_suite(&mut Lcg(seed))
            .iter()
            .map(|sql| differential(s, sql).unwrap_or_else(|| panic!("{sql} failed")))
            .collect()
    };
    for round in 0..12 {
        // Mutation batch: inserts, point updates, point deletes.
        insert_items(&mut s, &mut rng, &mut next_id, 10);
        for _ in 0..6 {
            let id = rng.below(next_id as u64);
            match rng.below(3) {
                0 => {
                    let g = rng.below(8);
                    s.execute_sql(&format!("UPDATE items SET grp = {g} WHERE id = {id}"))
                        .unwrap();
                }
                1 => {
                    let p = rng.below(10_000) as f64 / 100.0;
                    s.execute_sql(&format!("UPDATE items SET price = {p} WHERE id = {id}"))
                        .unwrap();
                }
                _ => {
                    s.execute_sql(&format!("DELETE FROM items WHERE id = {id}"))
                        .unwrap();
                }
            }
        }
        assert_indexes_consistent(&db);
        run_suite(&s, rng.next());
        // Every few rounds, run a batch inside a transaction and roll it
        // back: indexes and query results must return to the prior state.
        if round % 3 == 2 {
            let before = run_suite(&s, round);
            s.execute_sql("BEGIN").unwrap();
            insert_items(&mut s, &mut rng, &mut next_id, 15);
            s.execute_sql("UPDATE items SET tag = 'rolled' WHERE grp = 1")
                .unwrap();
            s.execute_sql("DELETE FROM items WHERE grp = 2").unwrap();
            s.execute_sql("ROLLBACK").unwrap();
            assert_indexes_consistent(&db);
            assert_eq!(
                before,
                run_suite(&s, round),
                "rollback did not restore query results"
            );
        }
    }
}

#[test]
fn column_values_distinct_scan_is_stable() {
    // `column_values` (the get_value substrate) chunks its distinct scan
    // past the parallel threshold; the output contract — distinct non-null
    // values in total order — must not change.
    let db = Database::new();
    let mut s = seed_shop(&db);
    let mut rng = Lcg(99);
    let mut next_id = 0;
    for _ in 0..50 {
        insert_items(&mut s, &mut rng, &mut next_id, 100);
    }
    let tags = db.column_values("items", "tag").unwrap();
    let expect: Vec<minidb::Value> = (0..5)
        .map(|i| minidb::Value::Text(format!("tag{i}")))
        .collect();
    assert_eq!(tags, expect);
    let groups = db.column_values("items", "grp").unwrap();
    assert_eq!(groups.len(), 8);
    assert!(groups.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()));
}

#[test]
fn queries_with_options_respect_privileges() {
    let db = Database::new();
    let mut admin = seed_shop(&db);
    insert_items(&mut admin, &mut Lcg(5), &mut 0, 8);

    db.create_user("intern", false).unwrap();
    let intern = db.session("intern").unwrap();
    for opts in [ExecOptions::default(), ExecOptions::sequential()] {
        assert!(
            intern
                .query_with_options("SELECT * FROM items", &opts)
                .is_err(),
            "query_with_options must run the same privilege checks as execute()"
        );
    }
    admin
        .execute_sql("GRANT SELECT ON items TO intern")
        .unwrap();
    let (result, _) = intern
        .query_with_options("SELECT * FROM items", &ExecOptions::default())
        .unwrap();
    assert_eq!(result.row_count(), 8);
}

// ---------------------------------------------------------------------------
// The reference's hash-join switch
// ---------------------------------------------------------------------------

/// The configuration benchmark oracles run: the reference pipeline with its
/// nested loop swapped for the hash join. Must equal the plain reference.
fn reference_hash_join_differential(session: &Session, sql: &str) {
    let hashed = ExecOptions {
        hash_join: true,
        ..ExecOptions::sequential()
    };
    let hashed = session.query_with_options(sql, &hashed);
    let nested = session.query_with_options(sql, &ExecOptions::sequential());
    match (hashed, nested) {
        (Ok((hashed, _)), Ok((nested, _))) => {
            assert_eq!(hashed, nested, "reference hash join diverged for: {sql}")
        }
        (Err(h), Err(n)) => assert_eq!(h.to_string(), n.to_string(), "{sql}"),
        (h, n) => panic!("one join algorithm failed for {sql}: {h:?} vs {n:?}"),
    }
}

#[test]
fn reference_hash_join_matches_nested_loop_on_bird_gold_joins() {
    let bench = benchkit::generate_bird_ext(11);
    let db: Database = bench.template.fork();
    let session = db.session("admin").expect("admin exists");
    let mut joins = 0;
    for step in bench.tasks.iter().flat_map(|t| &t.spec.steps) {
        if let Ok(Statement::Select(sel)) = sqlkit::parse_statement(&step.gold) {
            if !sel.joins.is_empty() {
                reference_hash_join_differential(&session, &step.gold);
                joins += 1;
            }
        }
    }
    assert!(
        joins >= 20,
        "BIRD-Ext gold SQL has JOIN selects, got {joins}"
    );
}

#[test]
fn reference_hash_join_matches_nested_loop_on_awkward_keys() {
    // A star schema whose join keys hold everything hashing could get
    // wrong: NULL and NaN (equal to nothing, themselves included), -0.0
    // (equal to 0.0), integers joined to floats, duplicate dimension keys.
    let db = Database::new();
    let mut s = db.session("admin").unwrap();
    for sql in [
        "CREATE TABLE dims (k REAL, label TEXT)",
        "CREATE TABLE days (d INTEGER PRIMARY KEY, name TEXT)",
        "CREATE TABLE facts (id INTEGER PRIMARY KEY, k REAL, d INTEGER)",
        "INSERT INTO dims VALUES (0.0, 'zero'), (-0.0, 'negzero'), \
         (CAST('NaN' AS REAL), 'nan'), (NULL, 'null'), (1.0, 'one'), (1.0, 'uno'), (3.0, 'lone')",
        "INSERT INTO days VALUES (0, 'mon'), (1, 'tue'), (2, 'wed')",
    ] {
        s.execute_sql(sql).unwrap();
    }
    let keys = ["0.0", "-0.0", "CAST('NaN' AS REAL)", "NULL", "1.0", "2.0"];
    let facts: Vec<String> = (0..48)
        .map(|id| {
            let d = if id % 5 == 4 {
                "NULL".to_owned()
            } else {
                (id % 4).to_string()
            };
            format!("({id}, {}, {d})", keys[id % keys.len()])
        })
        .collect();
    s.execute_sql(&format!("INSERT INTO facts VALUES {}", facts.join(", ")))
        .unwrap();
    for sql in [
        "SELECT f.id, d.label, y.name FROM facts AS f \
         JOIN dims AS d ON f.k = d.k JOIN days AS y ON f.d = y.d",
        "SELECT f.id, d.label, y.name FROM facts AS f \
         LEFT JOIN dims AS d ON f.k = d.k LEFT JOIN days AS y ON f.d = y.d",
        // Residual conjuncts beside the key, and an int = float key.
        "SELECT f.id, d.label FROM facts AS f \
         LEFT JOIN dims AS d ON f.k = d.k AND d.label <> 'uno' AND f.id < 40",
        "SELECT f.id, d.label FROM facts AS f JOIN dims AS d ON f.d = d.k",
        "SELECT d.label, COUNT(*), SUM(f.id) FROM dims AS d \
         LEFT JOIN facts AS f ON d.k = f.k LEFT JOIN days AS y ON f.d = y.d \
         GROUP BY d.label ORDER BY d.label",
    ] {
        reference_hash_join_differential(&s, sql);
        // The planner's hash joins carry the same keys; hold them to it too.
        differential(&s, sql);
    }
    // -0.0 met 0.0, and NaN / NULL met nothing.
    let (result, _) = s
        .query_with_options(
            "SELECT COUNT(*) FROM facts AS f JOIN dims AS d ON f.k = d.k",
            &ExecOptions {
                hash_join: true,
                ..ExecOptions::sequential()
            },
        )
        .unwrap();
    // 16 facts with k = ±0.0 match 2 dims each; 8 with k = 1.0 match 2 each.
    assert_eq!(
        result,
        QueryResult::Rows {
            columns: vec!["count".into()],
            rows: vec![vec![minidb::Value::Int(48)]],
        }
    );
}
