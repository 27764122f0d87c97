//! The six workloads: what each sends, against which data, and why.
//!
//! Sizing constants were chosen at the commit that introduced the
//! benchmark (2 cores, release build) so that a repetition holds enough
//! samples for its tail percentile, and are frozen here: a later change is
//! measured with the same work, not the same duration.

use crate::agent::{
    bird_with_roles, denials_for, denied_calls, record, shuffle, surface, with_denials, BIRD_SEED,
};
use crate::check::{call_from_oracle, Call, Kind};
use crate::fixture::{Fixture, ScratchDir, Script, SessionPlan};
use crate::writer::Writer;
use benchkit::BirdTask;
use llmsim::LlmProfile;
use minidb::{Database, DurabilityConfig, ExecOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlkit::Action;
use std::path::Path;
use std::time::{Duration, Instant};
use toolproto::Json;

/// The two database users every wire workload's sessions authenticate as.
pub const USERS: [&str; 2] = ["alice_admin", "norman"];

/// Static description of a workload.
pub struct Spec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Calls session 0 and session 1 make per second of `--seconds`
    /// (a writer session rounds up to whole transactions).
    pub rate: [usize; 2],
    /// Timed repetitions; each holds `--seconds / reps` seconds of calls.
    pub reps: usize,
    /// Sessions whose samples feed `call_p50_us` / `call_p99_us`.
    pub call_sessions: &'static [usize],
    /// Call kinds that end a transaction here: explicit commits where the
    /// workload has them; otherwise every call, each being its own
    /// autocommit transaction (so `commit_*` and `txn_per_s` then repeat
    /// `call_*` and `calls_per_s` and add no noise of their own).
    pub txn_kinds: &'static [Kind],
    /// Length of the call list the traced run replays down the ladder.
    pub ladder_calls: usize,
    /// Set-up: generate data, record traces, compute the oracle.
    pub build: fn(seed: u64, out: &Path, obs: &obs::Obs) -> Fixture,
}

const BOTH: &[usize] = &[0, 1];
const AUTOCOMMIT: &[Kind] = &[Kind::Select, Kind::Context, Kind::Proxy];

/// The wire workloads (`paper_eval` runs in process; see `paper.rs`).
pub const WIRE: [Spec; 5] = [
    Spec {
        name: "agent_mix",
        why: "recorded Claude-4 + explorer agent traces over tiny BIRD-Ext tables at saturation: \
              wire, gate, core, sqlkit and the planner do the work, the executor little",
        rate: [1100, 1100],
        reps: 9,
        call_sessions: BOTH,
        txn_kinds: AUTOCOMMIT,
        ladder_calls: 700,
        build: |seed, _, _| agent_fixture(seed, None, false),
    },
    Spec {
        name: "agent_paced",
        why: "the agent_mix trace with 2 ms think time: an LLM-paced server is idle between \
              calls, so every call pays cold wake-ups and queueing gains must not show",
        rate: [290, 290],
        reps: 9,
        call_sessions: BOTH,
        txn_kinds: AUTOCOMMIT,
        ladder_calls: 700,
        build: |seed, _, _| agent_fixture(seed, Some(THINK), false),
    },
    Spec {
        name: "analytic_scan",
        why: "seeded probe/limit/aggregate/group-by/top-k/join mix over a 40k-row star schema: \
              planner + executor dominate and wire is a few percent, the mirror of agent_mix",
        rate: [156, 156],
        reps: 6,
        call_sessions: BOTH,
        txn_kinds: AUTOCOMMIT,
        ladder_calls: 80,
        build: |seed, _, _| analytic_fixture(seed),
    },
    Spec {
        name: "bulk_transfer",
        why: "the same 20k-row select returned over the wire, fed to a level-1 and to a level-2 \
              proxy unit: result serialisation versus in-process hand-off to mltools",
        rate: [28, 28],
        reps: 9,
        call_sessions: BOTH,
        txn_kinds: AUTOCOMMIT,
        ladder_calls: 12,
        build: |seed, _, _| bulk_fixture(seed),
    },
    Spec {
        name: "durable_write",
        why: "generated write transactions on a WAL-backed engine (fsync per commit, snapshot \
              every 256) beside an explorer reader whose retrieval cache every commit invalidates",
        rate: [1190, 1190],
        reps: 9,
        call_sessions: &[1],
        txn_kinds: &[Kind::Commit],
        ladder_calls: 600,
        build: durable_fixture,
    },
];

/// Think time of `agent_paced`.
pub const THINK: Duration = Duration::from_millis(2);
/// One call in this many is an expected denial on the agent workloads.
pub const DENIAL_EVERY: usize = 20;

fn replay(user: &'static str, calls: Vec<Call>) -> SessionPlan {
    SessionPlan {
        user,
        script: Script::replay(calls),
    }
}

// ---------------------------------------------------------------------------
// agent_mix / agent_paced / the reader of durable_write
// ---------------------------------------------------------------------------

/// The recorded trace of one role: `profile` over `tasks`, with one
/// expected denial spliced in per [`DENIAL_EVERY`] calls.
fn agent_trace(
    db: &Database,
    user: &'static str,
    profile: &LlmProfile,
    tasks: &[&BirdTask],
    seed: u64,
) -> Vec<Call> {
    let calls = record(db, user, profile, tasks, seed);
    let denied = denied_calls(db, user, denials_for(calls.len(), DENIAL_EVERY), seed);
    with_denials(calls, denied, DENIAL_EVERY)
}

/// BIRD-Ext on the volatile engine; session 0 replays Claude-4 as the
/// administrator, session 1 the explorer profile as the read-only user,
/// both over the 150 read tasks.
pub fn agent_fixture(seed: u64, think: Option<Duration>, admin_only: bool) -> Fixture {
    let bench = bird_with_roles();
    let reads: Vec<&BirdTask> = bench.tasks.iter().filter(|t| !t.is_write()).collect();
    let db = &bench.template;
    let mut sessions = vec![replay(
        USERS[0],
        agent_trace(db, USERS[0], &LlmProfile::claude4(), &reads, seed),
    )];
    if !admin_only {
        sessions.push(replay(
            USERS[1],
            agent_trace(db, USERS[1], &LlmProfile::explorer(), &reads, seed),
        ));
    }
    Fixture {
        db: bench.template,
        sessions,
        probes: Vec::new(),
        think,
        durable: None,
        load_rows_per_s: None,
    }
}

// ---------------------------------------------------------------------------
// durable_write
// ---------------------------------------------------------------------------

fn durable_fixture(seed: u64, out: &Path, obs: &obs::Obs) -> Fixture {
    let dir = ScratchDir::create(out).expect("create scratch directory");
    // The `serve --data-dir` defaults: fsync at every commit, snapshot
    // every 256 commits.
    let config = DurabilityConfig::new(&dir.0);
    let (db, _) = Database::open_observed(&config, obs.clone()).expect("open fresh directory");
    benchkit::bird::build_database_on(&db, BIRD_SEED);
    let tables: Vec<String> = db
        .table_names()
        .into_iter()
        .filter(|t| t != "employee_salaries")
        .collect();
    benchkit::roles::install_roles(&db, &tables);
    // The reader's oracle must not depend on the writer: keep the read
    // tasks that touch neither table it writes.
    let bench = benchkit::generate_bird_ext(BIRD_SEED);
    let reads: Vec<&BirdTask> = bench
        .tasks
        .iter()
        .filter(|t| !t.is_write())
        .filter(|t| {
            t.spec
                .steps
                .iter()
                .all(|s| s.tables.iter().all(|t| !t.starts_with("brand_a_")))
        })
        .collect();
    let reader = agent_trace(&db, USERS[1], &LlmProfile::explorer(), &reads, seed);
    Fixture {
        sessions: vec![
            SessionPlan {
                user: USERS[0],
                script: Script::Writer(Writer::new(seed)),
            },
            replay(USERS[1], reader),
        ],
        db,
        probes: Vec::new(),
        think: None,
        durable: Some((config, dir)),
        load_rows_per_s: None,
    }
}

// ---------------------------------------------------------------------------
// analytic_scan
// ---------------------------------------------------------------------------

/// Fact rows of the star schema.
pub const SALES_ROWS: usize = 40_000;
const STORES: usize = SALES_ROWS / 64;
const REGIONS: usize = 24;
/// Calls in the statement list each session cycles through; with the
/// workload's rate one repetition is one pass, so repetitions are alike.
const ANALYTIC_LIST: usize = 260;

fn grant_select(db: &Database, tables: &[&str]) {
    for user in USERS {
        db.create_user(user, false).expect("fresh user");
        for table in tables {
            db.grant(user, Action::Select, table).expect("table exists");
        }
    }
}

/// A table no benchmark user holds a grant on, for the denied probe.
fn private_table(db: &Database) {
    let mut s = db.session("admin").expect("admin exists");
    s.execute_sql("CREATE TABLE private_notes (id INTEGER PRIMARY KEY, note TEXT)")
        .expect("DDL is valid");
    s.execute_sql("INSERT INTO private_notes VALUES (1, 'not for agents')")
        .expect("insert is valid");
}

/// Context and denied probes for workloads whose own traffic has neither,
/// with their oracle from the in-process surface of `user`.
fn layer_probes(db: &Database, user: &str, table: &str, text_column: &str) -> Vec<Call> {
    let server = surface(&db.fork(), user);
    let sql = |s: &str| Json::object([("sql", Json::str(s))]);
    [
        ("get_schema", Json::object(Vec::<(String, Json)>::new())),
        ("get_object", Json::object([("name", Json::str(table))])),
        (
            "get_value",
            Json::object([
                ("table", Json::str(table)),
                ("column", Json::str(text_column)),
                ("key", Json::str("near")),
            ]),
        ),
        ("select", sql("SELECT note FROM private_notes WHERE id = 1")),
    ]
    .into_iter()
    .map(|(tool, args)| {
        let result = server.registry.call(tool, &args);
        call_from_oracle(tool, args, &result).expect("probe succeeds or is denied")
    })
    .collect()
}

/// `regions <- stores <- sales`, seeded, indexed on `sales.sid`, analyzed.
/// Returns the database and the fact-table load rate.
fn star_schema(seed: u64) -> (Database, f64) {
    let db = Database::new();
    let mut s = db.session("admin").expect("admin exists");
    for sql in [
        "CREATE TABLE regions (rid INTEGER PRIMARY KEY, rname TEXT NOT NULL)",
        "CREATE TABLE stores (sid INTEGER PRIMARY KEY, rid INTEGER, sname TEXT NOT NULL)",
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, sid INTEGER, qty INTEGER, amount REAL, \
         day INTEGER)",
        "CREATE INDEX idx_sales_sid ON sales (sid)",
    ] {
        s.execute_sql(sql).expect("fixture DDL");
    }
    let rows: Vec<String> = (0..REGIONS)
        .map(|r| format!("({r}, 'region {r}')"))
        .collect();
    s.execute_sql(&format!("INSERT INTO regions VALUES {}", rows.join(", ")))
        .expect("regions");
    let rows: Vec<String> = (0..STORES)
        .map(|sid| format!("({sid}, {}, 'store {sid}')", sid % REGIONS))
        .collect();
    s.execute_sql(&format!("INSERT INTO stores VALUES {}", rows.join(", ")))
        .expect("stores");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57a2);
    let started = Instant::now();
    for chunk in (0..SALES_ROWS).collect::<Vec<_>>().chunks(1024) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|id| {
                format!(
                    "({id}, {}, {}, {}.{:02}, {})",
                    rng.gen_range(0..STORES),
                    rng.gen_range(1..=20),
                    rng.gen_range(1..1000),
                    rng.gen_range(0..100),
                    rng.gen_range(0..365)
                )
            })
            .collect();
        s.execute_sql(&format!("INSERT INTO sales VALUES {}", rows.join(", ")))
            .expect("sales");
    }
    let load_rows_per_s = SALES_ROWS as f64 / started.elapsed().as_secs_f64();
    s.execute_sql("ANALYZE").expect("admin may analyze");
    (db, load_rows_per_s)
}

/// The fact table's bulk-load rate alone, rows per second.
pub fn star_load_rate(seed: u64) -> f64 {
    star_schema(seed).1
}

/// The statement classes with the calls each has in a list of
/// [`ANALYTIC_LIST`]: index probe 35%, streaming LIMIT 5%, range-filter
/// aggregate 25%, filtered GROUP BY 15%, top-k 15%, three-way join 5%.
///
/// The counts are exact, not drawn: one join costs as much as several
/// hundred probes, so a list with ten joins and one with sixteen are
/// different workloads. The sub-millisecond classes hold 40% of the
/// calls, clear of one half: at an even split the median call sits on the
/// edge between a 0.1 ms probe and a 5 ms scan and flips between them from
/// run to run.
const CLASS_CALLS: [usize; 6] = [91, 13, 65, 39, 39, 13];

/// Draw the parameters of one statement of class `class`. Aggregates are
/// over integers and every ordered result has a total order, so digests do
/// not depend on evaluation order.
fn analytic_statement(class: usize, rng: &mut SmallRng) -> String {
    let day = rng.gen_range(0..300);
    match class {
        0 => format!(
            "SELECT id, qty, amount FROM sales WHERE sid = {}",
            rng.gen_range(0..STORES)
        ),
        1 => format!(
            "SELECT id, amount FROM sales WHERE amount > {}.5 LIMIT {}",
            rng.gen_range(100..900),
            rng.gen_range(10..50)
        ),
        2 => format!(
            "SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty) FROM sales \
             WHERE day >= {day} AND day < {}",
            day + rng.gen_range(7..60)
        ),
        3 => format!(
            "SELECT day, COUNT(*), SUM(qty) FROM sales WHERE day >= {day} AND day < {} \
             GROUP BY day ORDER BY day",
            day + rng.gen_range(14..60)
        ),
        4 => format!(
            "SELECT id, amount FROM sales WHERE qty >= {} ORDER BY amount DESC, id LIMIT {}",
            rng.gen_range(12..20),
            rng.gen_range(10..40)
        ),
        _ => format!(
            "SELECT r.rname, COUNT(*), SUM(sa.qty) FROM sales AS sa \
             JOIN stores AS st ON sa.sid = st.sid JOIN regions AS r ON st.rid = r.rid \
             WHERE sa.day >= {day} AND sa.day < {} GROUP BY r.rname \
             ORDER BY SUM(sa.qty) DESC, r.rname LIMIT 5",
            day + rng.gen_range(7..30)
        ),
    }
}

/// The statement list: per class, half the calls go round a small pool of
/// reused texts (one per ten calls) and half draw a fresh parameter; the
/// order is drawn from `rng`.
fn analytic_statements(rng: &mut SmallRng) -> Vec<String> {
    let mut list = Vec::with_capacity(ANALYTIC_LIST);
    for (class, &calls) in CLASS_CALLS.iter().enumerate() {
        let pool: Vec<String> = (0..calls.div_ceil(10))
            .map(|_| analytic_statement(class, rng))
            .collect();
        for i in 0..calls {
            list.push(if i % 2 == 0 {
                pool[i / 2 % pool.len()].clone()
            } else {
                analytic_statement(class, rng)
            });
        }
    }
    shuffle(&mut list, rng);
    list
}

/// The reference executor for the oracle: `ExecOptions::sequential()`,
/// except that the three-way join keeps the hash join — the nested-loop
/// reference needs about four seconds per join statement at this size.
/// Either way the monolithic `exec::seq` pipeline answers, not the planner
/// and Volcano executor the server runs.
pub fn reference_options(sql: &str) -> ExecOptions {
    ExecOptions {
        hash_join: sql.contains(" JOIN "),
        ..ExecOptions::sequential()
    }
}

/// Oracle for `select` statements over `db`: run each distinct statement
/// on the reference executor (two threads) and digest what the `select`
/// tool would return. Also returns the reference executor's total time.
pub fn reference_calls(db: &Database, statements: &[String]) -> (Vec<Call>, Duration) {
    let mut distinct: Vec<&String> = statements.iter().collect();
    distinct.sort();
    distinct.dedup();
    let run = |sqls: &[&String]| -> Vec<(String, Call, Duration)> {
        let session = db.session("admin").expect("admin exists");
        sqls.iter()
            .map(|sql| {
                let t = Instant::now();
                let (result, _) = session
                    .query_with_options(sql, &reference_options(sql))
                    .unwrap_or_else(|e| panic!("reference failed on {sql}: {e}"));
                let took = t.elapsed();
                let output = Ok(bridgescope_core::bridge::result_to_output(result));
                let args = Json::object([("sql", Json::str(sql.as_str()))]);
                let call = call_from_oracle("select", args, &output).expect("success");
                ((*sql).clone(), call, took)
            })
            .collect()
    };
    let (left, right) = distinct.split_at(distinct.len() / 2);
    let answered: Vec<(String, Call, Duration)> = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(right));
        let mut all = run(left);
        all.extend(other.join().expect("oracle thread panicked"));
        all
    });
    let total = answered.iter().map(|a| a.2).sum();
    let by_sql: std::collections::BTreeMap<&str, &Call> =
        answered.iter().map(|(s, c, _)| (s.as_str(), c)).collect();
    let calls = statements
        .iter()
        .map(|s| by_sql[s.as_str()].clone())
        .collect();
    (calls, total)
}

fn analytic_fixture(seed: u64) -> Fixture {
    let (db, load_rows_per_s) = star_schema(seed);
    private_table(&db);
    grant_select(&db, &["regions", "stores", "sales"]);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa7a1);
    let statements = analytic_statements(&mut rng);
    let (calls, _) = reference_calls(&db, &statements);
    // The second session walks the same list half a turn ahead.
    let mut shifted = calls.clone();
    shifted.rotate_left(ANALYTIC_LIST / 2);
    let probes = layer_probes(&db, USERS[1], "stores", "sname");
    Fixture {
        db,
        sessions: vec![replay(USERS[0], calls), replay(USERS[1], shifted)],
        probes,
        think: None,
        durable: None,
        load_rows_per_s: Some(load_rows_per_s),
    }
}

// ---------------------------------------------------------------------------
// bulk_transfer
// ---------------------------------------------------------------------------

/// Rows of the `house` table (the paper's NL2ML size).
pub const HOUSE_ROWS: usize = 20_000;

const BULK_SELECT: &str = "SELECT median_income, housing_median_age, median_house_value FROM house";

/// The three uses of the same `select`: (a) returned to the client, (b) a
/// level-1 unit `select -> train_linear_regression`, (c) a level-2 unit
/// `select -> normalize_zscore -> train_linear_regression`. `return_model`
/// puts the coefficients in the output, so the digest covers them.
pub fn bulk_calls() -> Vec<(&'static str, Json)> {
    let producer = format!(
        r#"{{"tool": "select", "args": {{"sql": "{BULK_SELECT}"}}, "transform": "/rows"}}"#
    );
    let level1 = format!(
        r#"{{"target_tool": "train_linear_regression", "tool_args": {{
            "data": {producer}, "target": {{"value": 2}}, "return_model": {{"value": true}}}}}}"#
    );
    let level2 = format!(
        r#"{{"target_tool": "train_linear_regression", "tool_args": {{
            "data": {{"unit": {{"target_tool": "normalize_zscore", "tool_args": {{
                "data": {producer}, "exclude": {{"value": 2}}}}}}, "transform": "/rows"}},
            "target": {{"value": 2}}, "return_model": {{"value": true}}}}}}"#
    );
    vec![
        ("select", Json::object([("sql", Json::str(BULK_SELECT))])),
        ("proxy", Json::parse(&level1).expect("valid unit")),
        ("proxy", Json::parse(&level2).expect("valid unit")),
    ]
}

fn bulk_fixture(seed: u64) -> Fixture {
    let db = benchkit::housing::build_database(HOUSE_ROWS, seed);
    private_table(&db);
    grant_select(&db, &["house"]);
    let server = surface(&db.fork(), USERS[0]);
    let calls: Vec<Call> = bulk_calls()
        .into_iter()
        .map(|(tool, args)| {
            let result = server.registry.call(tool, &args);
            let call = call_from_oracle(tool, args, &result)
                .unwrap_or_else(|| panic!("{tool} oracle failed: {result:?}"));
            assert_eq!(call.rows, HOUSE_ROWS, "{tool} moves the whole table");
            call
        })
        .collect();
    // The second session starts on (b) while the first starts on (a).
    let mut shifted = calls.clone();
    shifted.rotate_left(1);
    let probes = layer_probes(&db, USERS[1], "house", "ocean_proximity");
    Fixture {
        db,
        sessions: vec![replay(USERS[0], calls), replay(USERS[1], shifted)],
        probes,
        think: None,
        durable: None,
        load_rows_per_s: None,
    }
}

/// Look a wire workload up by name.
pub fn wire_spec(name: &str) -> Option<&'static Spec> {
    WIRE.iter().find(|s| s.name == name)
}
