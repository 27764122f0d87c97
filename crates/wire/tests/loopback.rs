//! Loopback integration tests: every failure mode in the threat model gets
//! a typed JSON-RPC error (never a panic, never a hang past the deadline),
//! and privilege gating holds across the wire.

use minidb::Database;
use obs::Obs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use toolproto::{Args, FnTool, Json, Registry, Signature, ToolError, ToolOutput};
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

#[test]
fn busy_queue_answers_server_busy() {
    // One worker, queue depth 1, and a tool that holds the worker until
    // the test releases it: the first call occupies the worker, and of the
    // two contenders that follow, exactly one sits in the queue slot and
    // exactly one is rejected with server_busy. Gate atomics (not sleeps)
    // sequence the race so the outcome is deterministic.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let db = demo_db();
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let mut external = Registry::new();
    {
        let started = Arc::clone(&started);
        let release = Arc::clone(&release);
        external.register_tool(FnTool::new(
            "stall",
            "holds a worker until released",
            Signature::open(vec![]),
            move |_args: &Args| {
                started.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(ToolOutput::value(Json::str("done")))
            },
        ));
    }
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(db).with_external(external),
        WireConfig {
            workers: 1,
            queue_depth: 1,
            ..WireConfig::default()
        },
        obs.clone(),
    )
    .unwrap();
    let addr = server.local_addr();

    let spawn_stall = || {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.initialize("admin").unwrap();
            c.call("stall", &Json::object::<_, String>([]))
        })
    };
    let first = spawn_stall();
    // Wait until the worker is actually executing the first call — only
    // then is the queue guaranteed to have exactly one free slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    while started.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "first stall never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Two contenders race for the single queue slot; the loser is rejected.
    // The worker is pinned, so the rejection is observable via the metric.
    let second = spawn_stall();
    let third = spawn_stall();
    while obs.snapshot().metrics.counter("wire.rejected.busy") == 0 {
        assert!(Instant::now() < deadline, "no server_busy rejection");
        std::thread::sleep(Duration::from_millis(5));
    }
    release.store(true, Ordering::SeqCst);

    // The first call and the queued contender complete; the other contender
    // got server_busy (backpressure sheds load without corrupting in-flight
    // work).
    first.join().unwrap().unwrap().unwrap();
    let outcomes = [second.join().unwrap(), third.join().unwrap()];
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
fn call_deadline_exceeded_for_stuck_tools() {
    let db = demo_db();
    let mut external = Registry::new();
    external.register_tool(FnTool::new(
        "hang",
        "sleeps past the call deadline",
        Signature::open(vec![]),
        |_args: &Args| {
            std::thread::sleep(Duration::from_millis(600));
            Ok(ToolOutput::value(Json::str("late")))
        },
    ));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(db).with_external(external),
        WireConfig {
            call_timeout: Duration::from_millis(100),
            ..WireConfig::default()
        },
        Obs::in_memory(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    let err = client
        .call("hang", &Json::object::<_, String>([]))
        .unwrap_err();
    match err {
        WireError::Rpc(rpc) => assert_eq!(rpc.code, ErrorCode::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
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
        m.counters.len()
            + m.histograms.len()
            + m.labeled_counters.len()
            + m.labeled_histograms.len()
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
    assert_eq!(snap.metrics.counter("tool.calls.unknown"), 1001);
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
