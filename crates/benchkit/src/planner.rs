//! Planner microbenchmark: measures what the cost-based planner buys on
//! the three workloads it was built for, and records the plan shapes it
//! chose so CI can assert the *decisions*, not just the timings.
//!
//! * **Selective probe** — an indexed equality over a wide table, timed
//!   through the planner (index probe after `ANALYZE`) against the
//!   monolithic sequential reference;
//! * **Three-way join** — a star-shaped equi-join written worst-first
//!   (fact table leftmost), where the planner must pick a non-syntactic
//!   join order, against the nested-loop reference;
//! * **ORDER BY + LIMIT top-k** and **streaming LIMIT** — the two pushdown
//!   rules, each timed against the *same* planner with `pushdown` disabled,
//!   so the delta isolates the pushdown itself rather than the executor.
//!
//! Every timed pair is also checked for answer equality — a benchmark that
//! rewards a wrong answer is worse than no benchmark.

use minidb::{Database, ExecOptions, QueryResult, Session};
use std::time::Instant;

/// Sizing knobs for one [`run`] call.
#[derive(Debug, Clone)]
pub struct PlannerBenchConfig {
    /// Rows in the `sales` fact table. `stores` gets `sales_rows / 64`
    /// rows (min 16) and `regions` a quarter of that, preserving the
    /// star shape at every scale.
    pub sales_rows: usize,
    /// Timed repetitions per query; the report keeps the minimum, which
    /// is the standard way to strip scheduler noise from a microbench.
    pub iters: usize,
}

impl Default for PlannerBenchConfig {
    fn default() -> Self {
        PlannerBenchConfig {
            sales_rows: 20_000,
            iters: 5,
        }
    }
}

/// Outcome of one planner microbenchmark run: the plan shapes the
/// optimizer picked plus best-of-N wall-clock times for each pair.
#[derive(Debug, Clone)]
pub struct PlannerBenchReport {
    /// Fact-table rows the run was sized with.
    pub sales_rows: usize,
    /// After `ANALYZE`, the selective probe ran as an `Index Scan`.
    pub probe_uses_index: bool,
    /// After `ANALYZE`, the constant-column probe fell back to a
    /// sequential scan (its index would fetch every row).
    pub constant_probe_uses_seq_scan: bool,
    /// The worst-first three-way join was reordered away from syntactic
    /// order (the plan carries the `reordered` marker).
    pub join_reordered: bool,
    /// The ORDER BY + LIMIT sort was bounded (`top-k` in the plan).
    pub topk_bounded: bool,
    /// The bare LIMIT pipeline streamed with early exit.
    pub limit_streams: bool,
    /// Selective probe through the planner, ns.
    pub probe_planned_ns: u64,
    /// Selective probe through the sequential reference, ns.
    pub probe_reference_ns: u64,
    /// Three-way join through the planner (reordered hash joins), ns.
    pub join_planned_ns: u64,
    /// Three-way join through the sequential reference (nested loops), ns.
    pub join_reference_ns: u64,
    /// ORDER BY + LIMIT with pushdown (bounded top-k sort), ns.
    pub topk_pushdown_ns: u64,
    /// ORDER BY + LIMIT with pushdown disabled (full sort), ns.
    pub topk_unpushed_ns: u64,
    /// Streaming LIMIT with pushdown (early-exit scan), ns.
    pub limit_pushdown_ns: u64,
    /// Same LIMIT with pushdown disabled (full materialization), ns.
    pub limit_unpushed_ns: u64,
}

impl PlannerBenchReport {
    /// Sequential-reference time over planned time for the probe.
    pub fn probe_speedup(&self) -> f64 {
        ratio(self.probe_reference_ns, self.probe_planned_ns)
    }

    /// Sequential-reference time over planned time for the join.
    pub fn join_speedup(&self) -> f64 {
        ratio(self.join_reference_ns, self.join_planned_ns)
    }

    /// Unpushed time over pushed time for the top-k sort.
    pub fn topk_speedup(&self) -> f64 {
        ratio(self.topk_unpushed_ns, self.topk_pushdown_ns)
    }

    /// Unpushed time over pushed time for the streaming LIMIT.
    pub fn limit_speedup(&self) -> f64 {
        ratio(self.limit_unpushed_ns, self.limit_pushdown_ns)
    }

    /// All plan-shape assertions at once — the CI gate's first check.
    pub fn plans_ok(&self) -> bool {
        self.probe_uses_index
            && self.constant_probe_uses_seq_scan
            && self.join_reordered
            && self.topk_bounded
            && self.limit_streams
    }

    /// Human-readable summary, one line per workload.
    pub fn render(&self) -> String {
        format!(
            "planner bench ({} fact rows):\n\
             \x20 probe: {} vs reference {} ({:.1}x) index={}\n\
             \x20 join: {} vs reference {} ({:.1}x) reordered={}\n\
             \x20 top-k: {} vs unpushed {} ({:.1}x) bounded={}\n\
             \x20 limit: {} vs unpushed {} ({:.1}x) streaming={}\n\
             \x20 constant-column probe falls back to seq scan: {}\n",
            self.sales_rows,
            fmt_ns(self.probe_planned_ns),
            fmt_ns(self.probe_reference_ns),
            self.probe_speedup(),
            self.probe_uses_index,
            fmt_ns(self.join_planned_ns),
            fmt_ns(self.join_reference_ns),
            self.join_speedup(),
            self.join_reordered,
            fmt_ns(self.topk_pushdown_ns),
            fmt_ns(self.topk_unpushed_ns),
            self.topk_speedup(),
            self.topk_bounded,
            fmt_ns(self.limit_pushdown_ns),
            fmt_ns(self.limit_unpushed_ns),
            self.limit_speedup(),
            self.limit_streams,
            self.constant_probe_uses_seq_scan,
        )
    }
}

fn ratio(baseline_ns: u64, candidate_ns: u64) -> f64 {
    baseline_ns as f64 / candidate_ns.max(1) as f64
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Build the star-shaped fixture: `regions` ← `stores` ← `sales`, with a
/// named index on the selective `sales.sid` column and one on the
/// constant `sales.flag` column (every row holds 7).
fn build(cfg: &PlannerBenchConfig) -> (Database, Session) {
    let db = Database::new();
    let mut s = db.session("admin").expect("admin exists");
    let stores = (cfg.sales_rows / 64).max(16);
    let regions = (stores / 4).max(4);
    for sql in [
        "CREATE TABLE regions (rid INTEGER PRIMARY KEY, rname TEXT NOT NULL)",
        "CREATE TABLE stores (sid INTEGER PRIMARY KEY, rid INTEGER, sname TEXT NOT NULL)",
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, sid INTEGER, amount REAL, flag INTEGER)",
        "CREATE INDEX idx_sales_sid ON sales (sid)",
        "CREATE INDEX idx_sales_flag ON sales (flag)",
    ] {
        s.execute_sql(sql).expect("fixture DDL");
    }
    let mut rows: Vec<String> = (0..regions).map(|r| format!("({r}, 'r{r}')")).collect();
    s.execute_sql(&format!("INSERT INTO regions VALUES {}", rows.join(", ")))
        .expect("regions");
    rows = (0..stores)
        .map(|sid| format!("({sid}, {}, 's{sid}')", sid % regions))
        .collect();
    s.execute_sql(&format!("INSERT INTO stores VALUES {}", rows.join(", ")))
        .expect("stores");
    for chunk in (0..cfg.sales_rows).collect::<Vec<_>>().chunks(1024) {
        rows = chunk
            .iter()
            .map(|&id| format!("({id}, {}, {}.25, 7)", id % stores, id % 997))
            .collect();
        s.execute_sql(&format!("INSERT INTO sales VALUES {}", rows.join(", ")))
            .expect("sales");
    }
    (db, s)
}

/// Time `sql` under `opts`: best of `iters` runs, plus the last result
/// and rendered plan for shape/answer checks.
fn time_query(
    s: &Session,
    sql: &str,
    opts: &ExecOptions,
    iters: usize,
) -> (u64, QueryResult, String) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let (result, plan) = s
            .query_with_options(sql, opts)
            .unwrap_or_else(|e| panic!("bench query failed: {sql}: {e}"));
        best = best.min(t0.elapsed().as_nanos() as u64);
        last = Some((result, plan.map(|p| p.render().join("\n"))));
    }
    let (result, plan) = last.expect("at least one iteration");
    (best, result, plan.unwrap_or_default())
}

/// Run the planner microbenchmark. Panics if any timed pair disagrees on
/// its answer — speed with a wrong result is not a result.
pub fn run_planner_bench(cfg: &PlannerBenchConfig) -> PlannerBenchReport {
    let (_db, mut s) = build(cfg);
    s.execute_sql("ANALYZE").expect("admin may analyze");

    let planned = ExecOptions::default();
    let reference = ExecOptions::sequential();
    let unpushed = ExecOptions {
        pushdown: false,
        ..ExecOptions::default()
    };

    let probe_sql = "SELECT id, amount FROM sales WHERE sid = 3";
    let (probe_planned_ns, probe_rows, probe_plan) = time_query(&s, probe_sql, &planned, cfg.iters);
    let (probe_reference_ns, probe_ref_rows, _) = time_query(&s, probe_sql, &reference, cfg.iters);
    assert_eq!(probe_rows, probe_ref_rows, "probe answers diverged");

    let (_, _, constant_plan) = time_query(&s, "SELECT id FROM sales WHERE flag = 7", &planned, 1);

    // Worst-first syntactic order: the 512×-larger fact table leads.
    let join_sql = "SELECT r.rname, sa.amount FROM sales AS sa \
                    JOIN stores AS st ON sa.sid = st.sid \
                    JOIN regions AS r ON st.rid = r.rid";
    let (join_planned_ns, join_rows, join_plan) = time_query(&s, join_sql, &planned, cfg.iters);
    let (join_reference_ns, join_ref_rows, _) = time_query(&s, join_sql, &reference, cfg.iters);
    assert_eq!(join_rows, join_ref_rows, "join answers diverged");

    let topk_sql = "SELECT id, amount FROM sales ORDER BY amount, id LIMIT 10";
    let (topk_pushdown_ns, topk_rows, topk_plan) = time_query(&s, topk_sql, &planned, cfg.iters);
    let (topk_unpushed_ns, topk_un_rows, _) = time_query(&s, topk_sql, &unpushed, cfg.iters);
    assert_eq!(topk_rows, topk_un_rows, "top-k answers diverged");

    let limit_sql = "SELECT id FROM sales WHERE amount > 1.0 LIMIT 10";
    let (limit_pushdown_ns, limit_rows, limit_plan) =
        time_query(&s, limit_sql, &planned, cfg.iters);
    let (limit_unpushed_ns, limit_un_rows, _) = time_query(&s, limit_sql, &unpushed, cfg.iters);
    assert_eq!(
        limit_rows, limit_un_rows,
        "streaming LIMIT answers diverged"
    );

    PlannerBenchReport {
        sales_rows: cfg.sales_rows,
        probe_uses_index: probe_plan.contains("Index Scan on sales using idx_sales_sid"),
        constant_probe_uses_seq_scan: constant_plan.contains("Seq Scan on sales")
            && !constant_plan.contains("Index Scan"),
        join_reordered: join_plan.contains("reordered"),
        topk_bounded: topk_plan.contains("top-k"),
        limit_streams: limit_plan.contains("streaming early-exit"),
        probe_planned_ns,
        probe_reference_ns,
        join_planned_ns,
        join_reference_ns,
        topk_pushdown_ns,
        topk_unpushed_ns,
        limit_pushdown_ns,
        limit_unpushed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_reports_every_plan_shape() {
        let cfg = PlannerBenchConfig {
            sales_rows: 2_048,
            iters: 2,
        };
        let report = run_planner_bench(&cfg);
        assert!(report.probe_uses_index, "{}", report.render());
        assert!(report.constant_probe_uses_seq_scan, "{}", report.render());
        assert!(report.join_reordered, "{}", report.render());
        assert!(report.topk_bounded, "{}", report.render());
        assert!(report.limit_streams, "{}", report.render());
        assert!(report.plans_ok());
        for ns in [
            report.probe_planned_ns,
            report.probe_reference_ns,
            report.join_planned_ns,
            report.join_reference_ns,
            report.topk_pushdown_ns,
            report.topk_unpushed_ns,
            report.limit_pushdown_ns,
            report.limit_unpushed_ns,
        ] {
            assert!(ns > 0 && ns < u64::MAX, "unmeasured timing");
        }
        let text = report.render();
        assert!(text.contains("probe:"), "{text}");
        assert!(text.contains("reordered=true"), "{text}");
    }
}
