//! Loopback integration tests: every failure mode in the threat model gets
//! a typed JSON-RPC error (never a panic, never a hang past the deadline),
//! and privilege gating holds across the wire.

use minidb::Database;
use obs::Obs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use toolproto::{Args, FnTool, Json, Registry, Signature, Tool, ToolError, ToolOutput, ToolResult};
use wire::{
    mirror_registry, Client, ErrorCode, FrameError, Tenancy, WireConfig, WireError, WireServer,
};

fn demo_db() -> Database {
    let db = Database::new();
    let mut s = db.session("admin").unwrap();
    s.execute_sql("CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)")
        .unwrap();
    s.execute_sql("INSERT INTO sales VALUES (1, 10.0)").unwrap();
    db.create_user("reader", false).unwrap();
    db.grant("reader", sqlkit::Action::Select, "sales").unwrap();
    db
}

fn serve(config: WireConfig) -> WireServer {
    WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()),
        config,
        Obs::in_memory(),
    )
    .unwrap()
}

/// Raw-socket helper: send one line, read one line back.
fn roundtrip_line(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    read_line(stream)
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => out.push(byte[0]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
    String::from_utf8(out).unwrap()
}

fn error_code(frame: &str) -> i64 {
    Json::parse(frame)
        .unwrap()
        .pointer("/error/code")
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("no error code in: {frame}"))
}

#[test]
fn full_session_lifecycle_over_tcp() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    let init = client.initialize("admin").unwrap();
    assert_eq!(
        init.get("protocol").and_then(Json::as_str),
        Some(wire::PROTOCOL)
    );
    let tools = client.tools_list().unwrap();
    assert!(tools.iter().any(|t| t.name == "select"));
    let out = client
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
        )
        .unwrap()
        .unwrap();
    assert_eq!(out.rows, Some(1));
    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn privilege_gating_holds_across_the_wire() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("reader").unwrap();
    let tools = client.tools_list().unwrap();
    assert!(
        !tools.iter().any(|t| t.name == "insert"),
        "read-only session must not list 'insert'"
    );
    // Calling it anyway is UnknownTool — the tool does not exist in this
    // session's surface, exactly like in-process.
    let err = client
        .call(
            "insert",
            &Json::object([("sql", Json::str("INSERT INTO sales VALUES (9, 9.0)"))]),
        )
        .unwrap()
        .unwrap_err();
    assert_eq!(err, ToolError::UnknownTool("insert".into()));
    server.shutdown();
}

#[test]
fn mixed_user_load_has_zero_privilege_leakage() {
    // 32 concurrent sessions alternating admin/reader. Every reader
    // session must see a read-only surface — no `insert` in tools/list,
    // and calling it anyway is UnknownTool — while admin sessions mutate
    // freely. A single leaked surface fails the run.
    let server = serve(WireConfig::default());
    let addr = server.local_addr();
    let failures = Mutex::new(Vec::<String>::new());
    std::thread::scope(|scope| {
        for i in 0..32 {
            let failures = &failures;
            scope.spawn(move || {
                let fail = |msg: String| failures.lock().unwrap().push(msg);
                let user = if i % 2 == 0 { "admin" } else { "reader" };
                let mut c = Client::connect(addr).unwrap();
                c.initialize(user).unwrap();
                let names: Vec<String> = c
                    .tools_list()
                    .unwrap()
                    .into_iter()
                    .map(|t| t.name)
                    .collect();
                let insert_sql = format!("INSERT INTO sales VALUES ({}, 1.0)", 100 + i);
                let args = Json::object([("sql", Json::str(insert_sql))]);
                if user == "reader" {
                    if names.iter().any(|n| n == "insert") {
                        fail(format!("session {i}: reader lists insert"));
                    }
                    match c.call("insert", &args) {
                        Ok(Err(ToolError::UnknownTool(_))) => {}
                        other => fail(format!("session {i}: reader insert -> {other:?}")),
                    }
                } else {
                    if !names.iter().any(|n| n == "insert") {
                        fail(format!("session {i}: admin missing insert"));
                    }
                    if let Err(e) = c.call("insert", &args).unwrap() {
                        fail(format!("session {i}: admin insert denied: {e}"));
                    }
                }
            });
        }
    });
    server.shutdown();
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "leakage: {failures:?}");
}

#[test]
fn requested_policy_only_tightens() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .initialize_with("admin", &Json::object([("max_risk", Json::str("safe"))]))
        .unwrap();
    let tools = client.tools_list().unwrap();
    assert!(tools.iter().any(|t| t.name == "select"));
    assert!(
        !tools.iter().any(|t| t.name == "insert"),
        "risk-capped session lists no mutating tools"
    );
    server.shutdown();
}

#[test]
fn denials_round_trip_with_context() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .initialize_with(
            "admin",
            &Json::object([("object_blacklist", Json::array([Json::str("sales")]))]),
        )
        .unwrap();
    let err = client
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
        )
        .unwrap()
        .unwrap_err();
    match &err {
        ToolError::Denied { code, context, .. } => {
            assert_eq!(code, "policy");
            assert_eq!(context.object.as_deref(), Some("sales"));
        }
        other => panic!("expected a policy denial, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn requested_column_blacklist_denies_only_that_column() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .initialize_with(
            "admin",
            &Json::object([
                (
                    "column_blacklist",
                    Json::array([Json::array([Json::str("sales"), Json::str("amount")])]),
                ),
                ("schema_threshold", Json::num(8.0)),
            ]),
        )
        .unwrap();
    let select = |client: &mut Client, sql: &str| {
        client
            .call("select", &Json::object([("sql", Json::str(sql))]))
            .unwrap()
    };
    match select(&mut client, "SELECT amount FROM sales").unwrap_err() {
        ToolError::Denied { code, .. } => assert_eq!(code, "policy"),
        other => panic!("expected a policy denial, got {other:?}"),
    }
    let out = select(&mut client, "SELECT id FROM sales").unwrap();
    assert_eq!(out.rows, Some(1));
    server.shutdown();
}

#[test]
fn malformed_requested_policy_is_invalid_params() {
    let server = serve(WireConfig::default());
    let malformed = [
        (
            "column_blacklist",
            Json::array([Json::array([Json::str("sales")])]),
        ),
        (
            "column_blacklist",
            Json::array([Json::array([Json::str("sales"), Json::num(1.0)])]),
        ),
        ("schema_threshold", Json::num(-1.0)),
        ("schema_threshold", Json::num(2.5)),
    ];
    for (key, value) in malformed {
        let mut client = Client::connect(server.local_addr()).unwrap();
        match client.initialize_with("admin", &Json::object([(key, value)])) {
            Err(WireError::Rpc(rpc)) => assert_eq!(rpc.code, ErrorCode::InvalidParams, "{key}"),
            other => panic!("expected InvalidParams for {key}, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn unknown_user_fails_auth() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.initialize("mallory").unwrap_err();
    match err {
        WireError::Rpc(rpc) => assert_eq!(rpc.code, ErrorCode::AuthFailed),
        other => panic!("expected AuthFailed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn calls_before_initialize_are_rejected() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.tools_list().unwrap_err();
    match err {
        WireError::Rpc(rpc) => assert_eq!(rpc.code, ErrorCode::NotInitialized),
        other => panic!("expected NotInitialized, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_method_and_malformed_json_get_typed_errors() {
    let server = serve(WireConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let reply = roundtrip_line(&mut stream, "this is not json");
    assert_eq!(error_code(&reply), -32700, "parse error");
    let reply = roundtrip_line(&mut stream, r#"{"jsonrpc":"2.0","id":1}"#);
    assert_eq!(error_code(&reply), -32600, "invalid request");
    let reply = roundtrip_line(
        &mut stream,
        r#"{"jsonrpc":"2.0","id":2,"method":"tools/destroy"}"#,
    );
    assert_eq!(error_code(&reply), -32601, "method not found");
    server.shutdown();
}

#[test]
fn oversized_frame_rejected_then_closed() {
    let server = serve(WireConfig {
        max_frame_bytes: 256,
        ..WireConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let huge = format!(
        r#"{{"jsonrpc":"2.0","id":1,"method":"ping","params":{{"pad":"{}"}}}}"#,
        "x".repeat(1024)
    );
    let reply = roundtrip_line(&mut stream, &huge);
    assert_eq!(error_code(&reply), -32001, "frame too large");
    // The connection is closed afterwards: the next read sees EOF.
    assert_eq!(read_line(&mut stream), "");
    server.shutdown();
}

#[test]
fn slow_partial_frame_hits_the_deadline() {
    let server = serve(WireConfig {
        read_timeout: Duration::from_millis(200),
        ..WireConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Dribble a partial frame and stall.
    stream.write_all(b"{\"jsonrpc\":").unwrap();
    let started = Instant::now();
    let reply = read_line(&mut stream);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "server must answer within the deadline window, took {:?}",
        started.elapsed()
    );
    assert_eq!(error_code(&reply), -32002, "deadline exceeded");
    server.shutdown();
}

/// A `stall` tool that holds its worker until released, for driving a
/// one-worker, one-slot pool into shedding.
#[derive(Clone, Default)]
struct Stall {
    started: Arc<AtomicUsize>,
    release: Arc<AtomicBool>,
}

impl Stall {
    fn tool(&self) -> impl Tool {
        let latch = self.clone();
        FnTool::new(
            "stall",
            "holds a worker until released",
            Signature::open(vec![]),
            move |_: &Args| {
                latch.started.fetch_add(1, Ordering::SeqCst);
                while !latch.release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(ToolOutput::value(Json::str("done")))
            },
        )
    }

    /// Pin the one worker with a first `stall` call, race two more for the
    /// one queue slot until `obs` counts a shed call, then release the
    /// worker. Returns the two contenders' outcomes.
    fn shed_one(&self, addr: SocketAddr, obs: &Obs) -> [Result<ToolResult, wire::WireError>; 2] {
        let call = || {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.initialize("admin").unwrap();
                c.call("stall", &Json::Null)
            })
        };
        let first = call();
        // Only once the worker runs the first call does the queue have
        // exactly one free slot; atomics, not sleeps, sequence the race.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.started.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "first stall never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        let contenders = [call(), call()];
        while obs.snapshot().metrics.counter("wire.rejected.busy") == 0 {
            assert!(Instant::now() < deadline, "no server_busy rejection");
            std::thread::sleep(Duration::from_millis(5));
        }
        self.release.store(true, Ordering::SeqCst);
        first.join().unwrap().unwrap().unwrap();
        contenders.map(|c| c.join().unwrap())
    }
}

#[test]
fn busy_queue_answers_server_busy() {
    // One worker, queue depth 1: the first call occupies the worker, and of
    // the two contenders that follow, exactly one sits in the queue slot and
    // exactly one is rejected with server_busy.
    let stall = Stall::default();
    let mut external = Registry::new();
    external.register_tool(stall.tool());
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()).with_external(external),
        WireConfig {
            workers: 1,
            queue_depth: 1,
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();
    // The queued contender completes; the other got server_busy
    // (backpressure sheds load without corrupting in-flight work).
    let outcomes = stall.shed_one(server.local_addr(), &obs);
    let busy = outcomes
        .iter()
        .filter(|r| matches!(r, Err(WireError::Rpc(rpc)) if rpc.code == ErrorCode::ServerBusy))
        .count();
    let done = outcomes
        .iter()
        .filter(|r| matches!(r, Ok(Ok(out)) if out.value.as_str() == Some("done")))
        .count();
    assert_eq!((busy, done), (1, 1), "outcomes: {outcomes:?}");
    server.shutdown();
}

#[test]
fn only_a_call_that_waited_for_its_ticket_records_the_wait() {
    let stall = Stall::default();
    let mut external = Registry::new();
    external.register_tool(stall.tool());
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()).with_external(external),
        WireConfig {
            workers: 1,
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();
    let addr = server.local_addr();
    let call = || {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.initialize("admin").unwrap();
            c.call("stall", &Json::Null).unwrap().unwrap()
        })
    };
    let first = call();
    settle(
        || stall.started.load(Ordering::SeqCst) == 1,
        "first stall never started",
    );
    let second = call();
    let waiting = || obs.snapshot().metrics.gauge("wire.queue_depth", &[]);
    settle(|| waiting() == Some(1.0), "second call never waited");
    stall.release.store(true, Ordering::SeqCst);
    first.join().unwrap();
    second.join().unwrap();
    server.shutdown();

    let snap = obs.snapshot();
    let calls: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "wire:call")
        .collect();
    let waited: Vec<_> = calls
        .iter()
        .filter_map(|s| s.attr("admission.wait_ns"))
        .collect();
    assert_eq!((calls.len(), waited.len()), (2, 1), "{calls:?}");
    let histogram = snap.metrics.histogram("wire.admission.wait", &[]);
    assert_eq!(histogram.map(|h| h.count), Some(1));
}

/// `demo_db` plus a `grid` table of `GRID_ROWS` rows.
fn grid_db() -> Database {
    let db = demo_db();
    let mut s = db.session("admin").unwrap();
    s.execute_sql("CREATE TABLE grid (id INTEGER PRIMARY KEY)")
        .unwrap();
    let values: Vec<String> = (0..GRID_ROWS).map(|i| format!("({i})")).collect();
    s.execute_sql(&format!("INSERT INTO grid VALUES {}", values.join(", ")))
        .unwrap();
    db
}

const GRID_ROWS: usize = 3000;

/// The cross join of `grid` with itself, filtered by a predicate no pair
/// satisfies: the nested loop visits all 9 M pairs (about 5 s in a debug
/// build, 1.5 s in a release build) and keeps none, so nothing piles up.
const RUNAWAY_JOIN: &str = "SELECT COUNT(*) FROM grid a JOIN grid b ON a.id + b.id < 0";

fn sql(text: &str) -> Json {
    Json::object([("sql", Json::str(text))])
}

fn assert_deadline_exceeded(outcome: Result<ToolResult, WireError>) {
    match outcome {
        Err(WireError::Rpc(rpc)) => assert_eq!(rpc.code, ErrorCode::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn call_deadline_stops_a_runaway_join() {
    let mut external = Registry::new();
    external.register_tool(FnTool::new(
        "nap",
        "sleeps past the call deadline without touching the engine",
        Signature::open(vec![]),
        |_args: &Args| {
            std::thread::sleep(Duration::from_millis(200));
            Ok(ToolOutput::value(Json::str("rested")))
        },
    ));
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(grid_db()).with_external(external),
        WireConfig {
            call_timeout: Duration::from_millis(100),
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    let started = Instant::now();
    assert_deadline_exceeded(client.call("select", &sql(RUNAWAY_JOIN)));
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "stopped after {took:?}");
    assert_eq!(obs.snapshot().metrics.counter("wire.rejected.timeout"), 1);
    // The session lives on.
    let out = client.call("select", &sql("SELECT 1")).unwrap().unwrap();
    assert_eq!(out.rows, Some(1));
    // A tool that never reaches the engine runs to completion and answers
    // for real.
    let out = client.call("nap", &Json::Null).unwrap().unwrap();
    assert_eq!(out.value.as_str(), Some("rested"));
    server.shutdown();
}

#[test]
fn a_stopped_select_in_a_transaction_is_an_ordinary_statement_error() {
    let db = grid_db();
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(db.clone()),
        WireConfig {
            call_timeout: Duration::from_millis(100),
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    let mut call = |tool: &str, args: Json| client.call(tool, &args);
    let committed_ids = || {
        let (result, _) = db
            .session("admin")
            .unwrap()
            .query_with_options("SELECT id FROM sales", &minidb::ExecOptions::default())
            .unwrap();
        result.row_count()
    };

    // Stopped, then committed: like a select that fails on a bad column,
    // the stopped one leaves the transaction open with its insert.
    call("begin", Json::Null).unwrap().unwrap();
    call("insert", sql("INSERT INTO sales VALUES (2, 20.0)"))
        .unwrap()
        .unwrap();
    assert_deadline_exceeded(call("select", sql(RUNAWAY_JOIN)));
    call("select", sql("SELECT nope FROM sales"))
        .unwrap()
        .unwrap_err();
    let own = call("select", sql("SELECT id FROM sales"))
        .unwrap()
        .unwrap();
    assert_eq!(own.rows, Some(2), "the transaction still sees its insert");
    assert_eq!(committed_ids(), 1, "and nobody else does yet");
    call("commit", Json::Null).unwrap().unwrap();
    assert_eq!(committed_ids(), 2);

    // Stopped, then rolled back: nothing becomes visible.
    call("begin", Json::Null).unwrap().unwrap();
    call("insert", sql("INSERT INTO sales VALUES (3, 30.0)"))
        .unwrap()
        .unwrap();
    assert_deadline_exceeded(call("select", sql(RUNAWAY_JOIN)));
    call("rollback", Json::Null).unwrap().unwrap();
    assert_eq!(committed_ids(), 2);

    // A transaction left open across a stopped select pins its snapshot
    // until the session ends.
    call("begin", Json::Null).unwrap().unwrap();
    assert_deadline_exceeded(call("select", sql(RUNAWAY_JOIN)));
    db.session("admin")
        .unwrap()
        .execute_sql("INSERT INTO sales VALUES (4, 40.0)")
        .unwrap();
    let snapshot_age = || {
        obs.snapshot()
            .metrics
            .gauge("minidb.mvcc.oldest_snapshot_age", &[])
            .unwrap()
    };
    assert_eq!(snapshot_age(), 1.0);
    drop(client);
    settle(|| snapshot_age() == 0.0, "the snapshot was never released");
    server.shutdown();
}

/// Poll `done` for up to two seconds: a connection thread notices a closed
/// socket on its own schedule.
fn settle(done: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_panicking_tool_ends_only_its_own_session() {
    let db = demo_db();
    let mut external = Registry::new();
    external.register_tool(FnTool::new(
        "explode",
        "panics mid-call",
        Signature::open(vec![]),
        |_args: &Args| -> ToolResult { panic!("tool bug") },
    ));
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(db.clone()).with_external(external),
        WireConfig {
            workers: 1,
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();
    let before = db.state_fingerprint();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    client.call("begin", &Json::Null).unwrap().unwrap();
    client
        .call("insert", &sql("INSERT INTO sales VALUES (2, 20.0)"))
        .unwrap()
        .unwrap();
    match client.call("explode", &Json::Null).unwrap() {
        Err(ToolError::Execution(message)) => {
            assert!(message.starts_with("internal:"), "{message}")
        }
        other => panic!("expected a typed internal error, got {other:?}"),
    }
    // The session ended with the call, and the connection with it.
    assert!(
        client.ping().is_err(),
        "the connection outlived its session"
    );

    // The one ticket came back: a new connection's call runs at once.
    let mut next = Client::connect(server.local_addr()).unwrap();
    next.initialize("admin").unwrap();
    let started = Instant::now();
    let out = next
        .call("select", &sql("SELECT * FROM sales"))
        .unwrap()
        .unwrap();
    assert!(started.elapsed() < Duration::from_secs(1));
    assert_eq!(out.rows, Some(1), "the insert was rolled back");
    drop(next);
    let gauge = |name: &str| obs.snapshot().metrics.gauge(name, &[]).unwrap();
    settle(
        || gauge("wire.active_sessions") == 0.0 && gauge("wire.queue_depth") == 0.0,
        "gauges never settled",
    );
    assert_eq!(db.state_fingerprint(), before);
    server.shutdown();
}

#[test]
fn session_request_cap_enforced() {
    let server = serve(WireConfig {
        max_requests_per_session: Some(2),
        ..WireConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    client.tools_list().unwrap();
    client
        .call("select", &Json::object([("sql", Json::str("SELECT 1"))]))
        .unwrap()
        .unwrap();
    let err = client.tools_list().unwrap_err();
    match err {
        WireError::Rpc(rpc) => assert_eq!(rpc.code, ErrorCode::SessionLimit),
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    // ping is exempt from the budget — the session is throttled, not dead.
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn double_initialize_rejected() {
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    let err = client.initialize("reader").unwrap_err();
    match err {
        WireError::Rpc(rpc) => assert_eq!(rpc.code, ErrorCode::InvalidRequest),
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn mirror_registry_matches_remote_surface_and_forwards_calls() {
    let server = serve(WireConfig::default());

    // Ground truth: the in-process surface for the same user and policy.
    let local = bridgescope_core::BridgeScopeServer::build(
        demo_db(),
        "reader",
        bridgescope_core::SecurityPolicy::default(),
        &Registry::new(),
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("reader").unwrap();
    let mirror = mirror_registry(Arc::new(Mutex::new(client))).unwrap();

    assert_eq!(mirror.names(), local.registry.names());
    assert_eq!(
        mirror.render_prompt(),
        local.registry.render_prompt(),
        "mirror prompt must be byte-identical to the in-process prompt"
    );

    let remote_out = mirror
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
        )
        .unwrap();
    let local_out = local
        .registry
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
        )
        .unwrap();
    assert_eq!(remote_out, local_out);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_calls() {
    let db = demo_db();
    let mut external = Registry::new();
    external.register_tool(FnTool::new(
        "slowish",
        "sleeps briefly",
        Signature::open(vec![]),
        |_args: &Args| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(ToolOutput::value(Json::str("finished")))
        },
    ));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(db).with_external(external),
        WireConfig::default(),
        Obs::in_memory(),
    )
    .unwrap();
    let addr = server.local_addr();
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.initialize("admin").unwrap();
        c.call("slowish", &Json::object::<_, String>([])).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown(); // must not abandon the in-flight call
    let result = worker.join().unwrap().unwrap();
    assert_eq!(result.value.as_str(), Some("finished"));
}

#[test]
fn wire_spans_nest_under_sessions_and_metrics_count() {
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    client
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
        )
        .unwrap()
        .unwrap();
    client.shutdown().unwrap();
    server.shutdown();

    let snap = obs.snapshot();
    obs::validate_tree(&snap.spans).unwrap();
    let session = snap
        .spans
        .iter()
        .find(|s| s.name == "wire:session")
        .expect("wire:session span");
    let call = snap
        .spans
        .iter()
        .find(|s| s.name == "wire:call")
        .expect("wire:call span");
    // Plain calls carry no traceparent, so the server nests them under
    // the session span: a whole session reads as one trace.
    assert_eq!(
        call.parent,
        Some(session.id),
        "untraced call nests under wire:session"
    );
    assert!(
        call.attr("trace.remote_parent").is_none(),
        "no remote parent without a client traceparent"
    );
    assert_eq!(call.trace, session.trace, "call joins the session trace");
    let tool = snap
        .spans
        .iter()
        .find(|s| s.name == "tool:select")
        .expect("tool:select span");
    assert_eq!(
        tool.parent,
        Some(call.id),
        "tool span nests under wire:call"
    );
    assert_eq!(tool.trace, call.trace, "tool span joins the call's trace");
    assert_eq!(snap.metrics.counter("wire.sessions"), 1);
    assert!(snap.metrics.counter("wire.requests") >= 3);
    assert_eq!(snap.metrics.counter("wire.requests.tools_call"), 1);
}

#[test]
fn stream_transport_serves_a_scripted_session() {
    use std::io::Cursor;
    let tenancy = Tenancy::new(demo_db());
    let config = WireConfig::default();
    let obs = Obs::disabled();
    let script = concat!(
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"user":"admin"}}"#,
        "\n",
        r#"{"jsonrpc":"2.0","id":2,"method":"tools/call","params":{"name":"select","arguments":{"sql":"SELECT * FROM sales"}}}"#,
        "\n",
        r#"{"jsonrpc":"2.0","id":3,"method":"shutdown"}"#,
        "\n",
    );
    let mut output = Vec::new();
    wire::serve_stream(
        &tenancy,
        &config,
        &obs,
        Cursor::new(script.as_bytes().to_vec()),
        &mut output,
    )
    .unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(lines.len(), 3);
    for line in &lines {
        let doc = Json::parse(line).unwrap();
        assert!(doc.get("result").is_some(), "unexpected error: {line}");
    }
    assert_eq!(
        Json::parse(lines[1])
            .unwrap()
            .pointer("/result/rows")
            .and_then(Json::as_i64),
        Some(1)
    );
}

/// `wire.bytes{dir}` counts exactly the bytes the client wrote and read,
/// delimiters included (a `\r\n` frame counts both bytes), whatever the
/// replies carried.
#[test]
fn wire_bytes_count_what_the_client_wrote_and_read() {
    use std::io::Cursor;
    let tenancy = Tenancy::new(demo_db());
    let config = WireConfig::default();
    let obs = Obs::in_memory();
    let script = concat!(
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"user":"admin"}}"#,
        "\n",
        r#"{"jsonrpc":"2.0","id":2,"method":"tools/call","params":{"name":"select","arguments":{"sql":"SELECT * FROM sales"}}}"#,
        "\r\n",
        r#"{"jsonrpc":"2.0","id":3,"method":"tools/call","params":{"name":"nope"}}"#,
        "\n",
        "not json\n",
        r#"{"jsonrpc":"2.0","id":4,"method":"shutdown"}"#,
        "\n",
    );
    let mut output = Vec::new();
    wire::serve_stream(
        &tenancy,
        &config,
        &obs,
        Cursor::new(script.as_bytes().to_vec()),
        &mut output,
    )
    .unwrap();
    assert_eq!(output.iter().filter(|&&b| b == b'\n').count(), 5);
    let m = obs.snapshot().metrics;
    let bytes = |dir| m.labeled_counter("wire.bytes", &[("dir", dir)]);
    assert_eq!(bytes("in"), script.len() as u64);
    assert_eq!(bytes("out"), output.len() as u64);
}

/// Method strings and tool names are client-controlled: whatever a peer
/// sends, before or after `initialize`, the set of metric series (and so
/// `/metrics`) must not grow.
#[test]
fn bogus_methods_and_tool_names_do_not_mint_metric_series() {
    use std::io::Cursor;
    let tenancy = Tenancy::new(demo_db());
    let config = WireConfig::default();
    let obs = Obs::in_memory();
    let session = |bogus: usize| {
        let mut script = String::new();
        let mut id = 0;
        let mut push = |method: &str, params: &str| {
            id += 1;
            script.push_str(&format!(
                r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#
            ));
            script.push('\n');
        };
        for i in 0..bogus {
            push(&format!("early/{i}"), "null");
        }
        push("initialize", r#"{"user":"admin"}"#);
        for i in 0..bogus {
            push(&format!("tools/bogus-{i}"), "null");
            push("tools/call", &format!(r#"{{"name":"no_such_tool_{i}"}}"#));
        }
        push("shutdown", "null");
        let mut output = Vec::new();
        wire::serve_stream(
            &tenancy,
            &config,
            &obs,
            Cursor::new(script.into_bytes()),
            &mut output,
        )
        .unwrap();
        String::from_utf8(output).unwrap().lines().count()
    };
    let series = || {
        let m = obs.snapshot().metrics;
        m.labeled_counters.len() + m.labeled_histograms.len()
    };
    assert_eq!(session(1), 5, "every request is answered");
    let before = series();
    assert_eq!(session(1000), 3002);
    assert_eq!(series(), before);
    let snap = obs.snapshot();
    assert_eq!(snap.metrics.counter("wire.requests.other"), 2 + 2000);
    assert_eq!(snap.metrics.counter("wire.requests.tools_call"), 1 + 1000);
    assert_eq!(
        snap.metrics
            .labeled_counter("wire.calls", &[("user", "admin"), ("tool", "unknown")]),
        1001
    );
    assert_eq!(
        snap.metrics.labeled_counter(
            "tool.calls",
            &[("tool", "unknown"), ("outcome", "tool-error")]
        ),
        1001
    );
}

/// One session's mix of outcomes — an ok call, a privilege denial, a SQL
/// parse error, an unknown tool, a proxy hand-off, a commit conflict and a
/// budget denial — plus a shed call. Tools, actions and codes end up as
/// labels: no series name carries one. Every counter name the benchmark
/// reads is still there.
#[test]
fn outcomes_are_labels_and_benchmark_counter_names_survive() {
    let dir = std::env::temp_dir().join(format!("loopback-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::in_memory();
    let config = minidb::DurabilityConfig::new(&dir);
    let (db, _) = Database::open_observed(&config, obs.clone()).unwrap();
    let mut admin = db.session("admin").unwrap();
    for sql in [
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)",
        "CREATE TABLE audit (id INTEGER PRIMARY KEY)",
        "INSERT INTO sales VALUES (1, 10.0), (2, 20.0)",
    ] {
        admin.execute_sql(sql).unwrap();
    }
    db.create_user("writer", false).unwrap();
    db.grant("writer", sqlkit::Action::Select, "sales").unwrap();
    db.grant("writer", sqlkit::Action::Update, "sales").unwrap();
    let stall = Stall::default();
    let mut external = Registry::new();
    external.register_tool(stall.tool());
    external.register_tool(FnTool::new(
        "sink",
        "accepts anything",
        Signature::open(vec![]),
        |_: &Args| Ok(ToolOutput::value(Json::Null)),
    ));
    let ledger = gate::BudgetLedger::new(gate::BudgetLimits::unlimited().with_calls(12));
    let gate = gate::GateConfig::default()
        .with_cache()
        .with_user_ledger(Arc::new(ledger));
    let tenancy = Tenancy::new(db.clone()).with_external(external);
    let server = WireServer::bind(
        "127.0.0.1:0",
        tenancy.with_gate(gate),
        WireConfig {
            workers: 1,
            queue_depth: 1,
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();

    let sql = |text: &str| Json::object([("sql", Json::str(text))]);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("writer").unwrap();
    let mut call = |tool: &str, args: Json| client.call(tool, &args).unwrap();
    call("select", sql("SELECT * FROM sales")).unwrap();
    call("select", sql("SELECT * FROM audit")).unwrap_err();
    call("select", sql("SELEC oops")).unwrap_err();
    call("no_such_tool", Json::Null).unwrap_err();
    let unit = r#"{"target_tool": "sink", "tool_args": {"data": {"tool": "select",
        "args": {"sql": "SELECT * FROM sales"}, "transform": "/rows"}}}"#;
    call("proxy", Json::parse(unit).unwrap()).unwrap();
    // A concurrent commit to the same row makes this commit lose
    // first-writer-wins.
    call("begin", Json::Null).unwrap();
    call("update", sql("UPDATE sales SET amount = 11.0 WHERE id = 2")).unwrap();
    admin
        .execute_sql("UPDATE sales SET amount = 12.0 WHERE id = 2")
        .unwrap();
    call("commit", Json::Null).unwrap_err();
    let budget_denied = (0..20).any(|_| {
        matches!(call("select", sql("SELECT * FROM sales")),
            Err(ToolError::Denied { ref code, .. }) if code == "budget")
    });
    assert!(budget_denied, "the 12-call budget never ran out");
    let _ = stall.shed_one(server.local_addr(), &obs);
    server.shutdown();
    drop((admin, db));
    std::fs::remove_dir_all(&dir).ok();

    let m = obs.snapshot().metrics;
    for (name, labels) in [
        ("tool.calls", &[("tool", "select"), ("outcome", "ok")][..]),
        (
            "tool.calls",
            &[("tool", "unknown"), ("outcome", "tool-error")],
        ),
        ("tool.calls", &[("tool", "commit"), ("outcome", "conflict")]),
        ("tool.denied", &[("code", "privilege")]),
        ("tool.denied", &[("code", "budget")]),
        ("denials", &[("gate", "privilege")]),
        ("denials", &[("gate", "budget")]),
        ("sql.statements", &[("action", "update")]),
        ("txn", &[("verb", "commit"), ("outcome", "error")]),
        ("wire.errors", &[("code", "tool_denied")]),
        ("wire.errors", &[("code", "server_busy")]),
    ] {
        assert!(m.labeled_counter(name, labels) > 0, "{name}{labels:?}");
    }
    // No series name carries a tool, an action or a code. `commit`, `proxy`
    // and `budget` are left out of the check: `wal.commit`, `proxy.*` and
    // `gate.budget` are fixed names of their own layers.
    let codes = (-32013..=-32000)
        .chain([-32700, -32602, -32601, -32600])
        .filter_map(ErrorCode::from_code)
        .map(ErrorCode::name);
    let words = "select update begin sink stall no_such_tool unknown privilege policy";
    let forbidden: Vec<&str> = words.split(' ').chain(codes).collect();
    let names = (m.labeled_counters.iter().map(|s| &s.name))
        .chain(m.labeled_histograms.iter().map(|s| &s.name))
        .chain(m.gauges.iter().map(|s| &s.name));
    for name in names {
        let carried = name.split('.').find(|part| forbidden.contains(part));
        assert_eq!(carried, None, "series name `{name}`");
    }
    // The names the benchmark reads.
    for name in [
        "wire.requests.tools_call",
        "wire.rejected.busy",
        "proxy.bytes_moved",
        "wire.bytes",
        "mvcc.conflicts",
        "wal.bytes",
        "wal.fsyncs",
    ] {
        assert!(m.counter(name) > 0, "{name} is gone");
    }
    let cache = m.labeled_counters.iter().find(|s| s.name == "gate.cache");
    let keys: Vec<&str> = cache.map_or(vec![], |s| {
        s.labels.iter().map(|(k, _)| k.as_str()).collect()
    });
    assert_eq!(keys, ["hit", "tool"]);
}

#[test]
fn client_surfaces_frame_errors() {
    // Connect to a server, then have the server close mid-session: the
    // client reports Closed instead of hanging.
    let server = serve(WireConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    server.shutdown();
    let err = client.ping().unwrap_err();
    match err {
        WireError::Frame(FrameError::Closed) | WireError::Io(_) | WireError::Rpc(_) => {}
        other => panic!("expected a transport-level failure, got {other:?}"),
    }
}
