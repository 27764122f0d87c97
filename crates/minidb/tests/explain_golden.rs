//! Golden snapshot tests for EXPLAIN: the rendered physical plan is
//! compared byte-for-byte against frozen expectations, so any silent change
//! of plan shape — a different access path, join strategy, join order, or a
//! lost pushdown — fails loudly and must be re-frozen deliberately.
//!
//! The dataset is deterministic (no randomness), so estimates and costs in
//! the snapshots are stable. `EXPLAIN ANALYZE` lines carry measured row
//! counts and are asserted the same way.

use minidb::{Database, QueryResult, Session, Value};

/// Seed the fixture: three joinable tables with skew that makes statistics
/// matter, plus a constant column that defeats its own index once analyzed.
fn fixture() -> (Database, Session) {
    let db = Database::new();
    let mut s = db.session("admin").unwrap();
    for sql in [
        // No FOREIGN KEYs: their auto-indexes would shadow the named ones
        // below in the snapshots.
        "CREATE TABLE regions (rid INTEGER PRIMARY KEY, rname TEXT NOT NULL)",
        "CREATE TABLE stores (sid INTEGER PRIMARY KEY, rid INTEGER, sname TEXT NOT NULL)",
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, sid INTEGER, amount REAL, flag INTEGER)",
        "CREATE INDEX idx_sales_sid ON sales (sid)",
        "CREATE INDEX idx_sales_flag ON sales (flag)",
    ] {
        s.execute_sql(sql).unwrap();
    }
    for rid in 0..4 {
        s.execute_sql(&format!("INSERT INTO regions VALUES ({rid}, 'r{rid}')"))
            .unwrap();
    }
    for sid in 0..16 {
        s.execute_sql(&format!(
            "INSERT INTO stores VALUES ({sid}, {}, 's{sid}')",
            sid % 4
        ))
        .unwrap();
    }
    let mut rows = Vec::new();
    for id in 0..512 {
        // `flag` is the constant column: every row holds 7.
        rows.push(format!("({id}, {}, {}.5, 7)", id % 16, id % 100));
    }
    s.execute_sql(&format!("INSERT INTO sales VALUES {}", rows.join(", ")))
        .unwrap();
    (db, s)
}

fn explain(s: &mut Session, sql: &str) -> String {
    match s.execute_sql(sql) {
        Ok(QueryResult::Rows { rows, .. }) => rows
            .into_iter()
            .map(|r| match r.into_iter().next() {
                Some(Value::Text(t)) => t,
                v => panic!("EXPLAIN produced a non-text cell: {v:?}"),
            })
            .collect::<Vec<_>>()
            .join("\n"),
        other => panic!("{sql} did not return rows: {other:?}"),
    }
}

#[track_caller]
fn assert_plan(s: &mut Session, sql: &str, expected: &str) {
    let got = explain(s, sql);
    assert_eq!(
        got,
        expected.trim_matches('\n'),
        "\nplan for `{sql}` changed shape.\n-- got --\n{got}\n-- expected --\n{expected}\n\
         If the change is intentional, re-freeze the snapshot."
    );
}

#[test]
fn filter_scan_and_aggregate_snapshots() {
    let (_db, mut s) = fixture();
    assert_plan(
        &mut s,
        "EXPLAIN SELECT id FROM sales WHERE amount > 90.0",
        "
Project (cost=1177.60 rows=154)
  Filter (amount > 90.0) (cost=1024.00 rows=154)
    Seq Scan on sales (cost=512.00 rows=512)
",
    );
    assert_plan(
        &mut s,
        "EXPLAIN SELECT sid, COUNT(*), SUM(amount) FROM sales GROUP BY sid",
        "
HashAggregate (1 key(s)) (cost=1536.00 rows=51)
  Seq Scan on sales (cost=512.00 rows=512)
",
    );
}

#[test]
fn analyze_flips_index_choice_both_ways() {
    let (_db, mut s) = fixture();
    // Unanalyzed: the default equality selectivity (0.1) prices both probes
    // under the full scan, so each indexed equality picks its index.
    let selective = "EXPLAIN SELECT id FROM sales WHERE sid = 3";
    let constant = "EXPLAIN SELECT id FROM sales WHERE flag = 7";
    assert_plan(
        &mut s,
        selective,
        "
Project (cost=108.52 rows=5)
  Filter (sid = 3) (cost=103.40 rows=5)
    Index Scan on sales using idx_sales_sid (cost=52.20 rows=51)
",
    );
    assert_plan(
        &mut s,
        constant,
        "
Project (cost=108.52 rows=5)
  Filter (flag = 7) (cost=103.40 rows=5)
    Index Scan on sales using idx_sales_flag (cost=52.20 rows=51)
",
    );
    s.execute_sql("ANALYZE").unwrap();
    // Analyzed: sid has NDV 16 — the probe gets cheaper and stays. flag has
    // NDV 1 — the probe would fetch every row, so the planner must fall
    // back to the sequential scan. This is the canonical statistics-driven
    // plan change the planner-smoke CI gate also asserts.
    assert_plan(
        &mut s,
        selective,
        "
Project (cost=67.00 rows=2)
  Filter (sid = 3) (cost=65.00 rows=2)
    Index Scan on sales using idx_sales_sid (cost=33.00 rows=32)
",
    );
    assert_plan(
        &mut s,
        constant,
        "
Project (cost=1536.00 rows=512)
  Filter (flag = 7) (cost=1024.00 rows=512)
    Seq Scan on sales (cost=512.00 rows=512)
",
    );
}

#[test]
fn dml_candidates_follow_the_same_access_path_choice() {
    // UPDATE/DELETE ask the chooser SELECT lowering asks: the probe on the
    // constant column is taken while unanalyzed and priced out once ANALYZE
    // reports NDV = 1 — with the same rows affected either way.
    let update = "UPDATE sales SET amount = 0.0 WHERE flag = 7 AND id < 100";
    let delete = "DELETE FROM sales WHERE flag = 7 AND sid = 3";
    let mut affected = Vec::new();
    for analyzed in [false, true] {
        let (_db, mut s) = fixture();
        if analyzed {
            s.execute_sql("ANALYZE").unwrap();
        }
        let path = if analyzed { "seq scan" } else { "index scan" };
        assert_plan(
            &mut s,
            &format!("EXPLAIN {update}"),
            &format!("Update on sales ({path})"),
        );
        // `sid = 3` stays selective (NDV 16): DELETE keeps its probe.
        assert_plan(
            &mut s,
            &format!("EXPLAIN {delete}"),
            "Delete on sales (index scan)",
        );
        affected.push((
            s.execute_sql(update).unwrap(),
            s.execute_sql(delete).unwrap(),
            s.execute_sql("SELECT * FROM sales ORDER BY id").unwrap(),
        ));
    }
    assert_eq!(affected[0].0, QueryResult::Affected(100));
    assert_eq!(affected[0].1, QueryResult::Affected(32));
    assert_eq!(affected[0], affected[1]);
}

#[test]
fn hash_join_snapshot_carries_divergence_marker() {
    let (_db, mut s) = fixture();
    // The equi-join picks the hash join on cost; the rendered operator must
    // flag the sanctioned ON-error divergence vs the nested loop.
    assert_plan(
        &mut s,
        "EXPLAIN SELECT st.sname FROM stores AS st JOIN regions AS r ON st.rid = r.rid",
        "
Project (cost=52.80 rows=6)
  Hash Join on st.rid = r.rid [over nested loop: ON errors on non-key-matching pairs \
are not surfaced] (cost=46.40 rows=6)
    Seq Scan on stores as st (cost=16.00 rows=16)
    Seq Scan on regions as r (cost=4.00 rows=4)
",
    );
    // A non-equi ON keeps the nested loop (the only sound plan).
    assert_plan(
        &mut s,
        "EXPLAIN SELECT st.sname FROM stores AS st JOIN regions AS r ON st.rid < r.rid",
        "
Project (cost=180.00 rows=32)
  Nested Loop Join on st.rid < r.rid (cost=148.00 rows=32)
    Seq Scan on stores as st (cost=16.00 rows=16)
    Seq Scan on regions as r (cost=4.00 rows=4)
",
    );
}

#[test]
fn analyzed_three_way_join_reorders_with_restore() {
    let (_db, mut s) = fixture();
    s.execute_sql("ANALYZE").unwrap();
    // Syntactic order starts from the 512-row sales table; the greedy
    // reorder starts from the 4-row regions table instead and rebuilds the
    // original row order via the hidden sequence columns.
    assert_plan(
        &mut s,
        "EXPLAIN SELECT r.rname, sa.amount FROM sales AS sa \
         JOIN stores AS st ON sa.sid = st.sid \
         JOIN regions AS r ON st.rid = r.rid",
        "
Project (cost=6728.00 rows=512)
  Restore FROM order (9 column(s)) (cost=6216.00 rows=512)
    Hash Join (reordered, 1 key(s)) [pure equi-keys: no ON expression evaluation] \
(cost=1608.00 rows=512)
      Hash Join (reordered, 1 key(s)) [pure equi-keys: no ON expression evaluation] \
(cost=56.00 rows=16)
        Seq Scan on regions as r (cost=4.00 rows=4)
        Seq Scan on stores as st (cost=16.00 rows=16)
      Seq Scan on sales as sa (cost=512.00 rows=512)
",
    );
}

#[test]
fn pushdown_snapshots() {
    let (_db, mut s) = fixture();
    // ORDER BY + LIMIT: the sort is bounded to the first k rows.
    assert_plan(
        &mut s,
        "EXPLAIN SELECT id, amount FROM sales ORDER BY amount LIMIT 5",
        "
Limit (limit=5) (cost=1548.92 rows=5)
  Sort (1 key(s), top-k=5) (cost=1548.92 rows=5)
    Project (cost=1024.00 rows=512)
      Seq Scan on sales (cost=512.00 rows=512)
",
    );
    // LIMIT without ORDER BY over a filtered single-table scan: the whole
    // pipeline streams and stops early.
    assert_plan(
        &mut s,
        "EXPLAIN SELECT id FROM sales WHERE amount > 4.0 LIMIT 3",
        "
Limit (limit=3) [streaming early-exit] (cost=23.00 rows=3)
  Project [streaming] (cost=1177.60 rows=154)
    Filter (amount > 4.0) [streaming] (cost=1024.00 rows=154)
      Seq Scan on sales (cost=512.00 rows=512)
",
    );
}

/// Strip the nondeterministic per-operator wall times (`time=0.123ms `)
/// from EXPLAIN ANALYZE output — after asserting every measured line had
/// one — so the rest of the plan stays byte-exact.
fn strip_times(rendered: &str) -> String {
    rendered
        .lines()
        .map(|line| match line.find("(actual time=") {
            Some(at) => {
                let rest = &line[at + "(actual time=".len()..];
                let ms = rest.find("ms ").expect("time has an ms unit");
                assert!(
                    rest[..ms].parse::<f64>().is_ok(),
                    "unparseable actual time in: {line}"
                );
                format!("{}(actual {}", &line[..at], &rest[ms + "ms ".len()..])
            }
            None => {
                assert!(
                    !line.contains("(actual "),
                    "ANALYZE line lost its time annotation: {line}"
                );
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[track_caller]
fn assert_analyze_plan(s: &mut Session, sql: &str, expected: &str) {
    let got = strip_times(&explain(s, sql));
    assert_eq!(
        got,
        expected.trim_matches('\n'),
        "\nplan for `{sql}` changed shape (times stripped).\n-- got --\n{got}\n-- expected --\n{expected}\n\
         If the change is intentional, re-freeze the snapshot."
    );
}

#[test]
fn explain_analyze_reports_actual_rows() {
    let (_db, mut s) = fixture();
    s.execute_sql("ANALYZE").unwrap();
    // sid = 3 matches ids 3, 19, 35, ... — 32 of the 512 rows. The index
    // probe estimate (NDV 16) is exact; the Filter above re-applies the
    // selectivity it does not know is already satisfied, so its estimate
    // undershoots while the actuals tell the truth.
    assert_analyze_plan(
        &mut s,
        "EXPLAIN ANALYZE SELECT id FROM sales WHERE sid = 3",
        "
Project (cost=67.00 rows=2) (actual rows=32)
  Filter (sid = 3) (cost=65.00 rows=2) (actual rows=32)
    Index Scan on sales using idx_sales_sid (cost=33.00 rows=32) (actual rows=32)
",
    );
    // The streaming pipeline's scan stops early: every operator, the scan
    // included, touches only the 3 rows the LIMIT needed.
    assert_analyze_plan(
        &mut s,
        "EXPLAIN ANALYZE SELECT id FROM sales WHERE amount > 0.0 LIMIT 3",
        "
Limit (limit=3) [streaming early-exit] (cost=23.00 rows=3) (actual rows=3)
  Project [streaming] (cost=1177.60 rows=154) (actual rows=3)
    Filter (amount > 0.0) [streaming] (cost=1024.00 rows=154) (actual rows=3)
      Seq Scan on sales (cost=512.00 rows=512) (actual rows=3)
",
    );
}

#[test]
fn explain_analyze_times_are_inclusive() {
    let (_db, mut s) = fixture();
    s.execute_sql("ANALYZE").unwrap();
    // Parse the measured times back out of the rendered tree and check the
    // inclusive-time invariant: a child operator never reports more time
    // than its parent (each frame's measurement contains its children's).
    let rendered = explain(&mut s, "EXPLAIN ANALYZE SELECT id FROM sales WHERE sid = 3");
    let times: Vec<(usize, f64)> = rendered
        .lines()
        .map(|line| {
            let depth = (line.len() - line.trim_start().len()) / 2;
            let at = line.find("(actual time=").expect("profiled line") + "(actual time=".len();
            let ms: f64 = line[at..][..line[at..].find("ms").unwrap()]
                .parse()
                .unwrap();
            (depth, ms)
        })
        .collect();
    assert!(times.len() >= 3, "expected a multi-operator plan");
    for window in times.windows(2) {
        let ((pd, pt), (cd, ct)) = (window[0], window[1]);
        if cd == pd + 1 {
            assert!(
                ct <= pt,
                "child time {ct}ms exceeds parent time {pt}ms in:\n{rendered}"
            );
        }
    }
}
