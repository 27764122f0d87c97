//! The demo that `examples/serve.rs` serves, driven over real sockets: a
//! scripted session with a proxy call and its exported trace, live metrics
//! under traffic, and the tracing endpoints of the admin plane.
//!
//! Steps that other tests already assert are not repeated here: a select,
//! a typed policy denial and backpressure (`crates/wire/tests/loopback.rs`),
//! `/healthz`, `/readyz` during drain and `/slow` (`admin.rs`), a client
//! trace id naming every layer (`trace_integrity.rs`), and EXPLAIN ANALYZE
//! times (`crates/minidb/tests/explain_golden.rs`).

mod common;

use bridgescope::prelude::*;
use common::{demo_db, drive};
use obs::{TraceContext, TraceId};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use toolproto::{Args, FnTool, Signature};

const SALES_PROBE: &str = "SELECT region, amount FROM sales WHERE id < 50";

/// Minimal HTTP GET over a plain socket: returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Counter series (`name_total{labels} value` lines) of a Prometheus
/// exposition body, as series → value.
fn counter_series(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .filter(|(series, _)| series.split('{').next().unwrap().ends_with("_total"))
        .filter_map(|(series, value)| Some((series.to_owned(), value.parse().ok()?)))
        .collect()
}

/// An argument-free tool that sleeps for `ms` and answers `"done"`.
fn sleeper(name: &str, ms: u64) -> impl Tool {
    FnTool::new(
        name,
        "sleeps, then answers",
        Signature::new(vec![]),
        move |_: &Args| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(ToolOutput::value(Json::str("done")))
        },
    )
}

fn no_args() -> Json {
    Json::object([] as [(&str, Json); 0])
}

#[test]
fn scripted_session_moves_rows_through_a_proxy_and_exports_a_valid_trace() {
    let path = std::env::temp_dir().join(format!("serve-smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let obs = Obs::jsonl(&path);
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()).with_external(ml_registry()),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The session tightens the operator policy: audit_log disappears from
    // this session's view of the schema.
    client
        .initialize_with(
            "admin",
            &Json::object([("object_blacklist", Json::array([Json::str("audit_log")]))]),
        )
        .unwrap();
    let schema = client.call("get_schema", &Json::Null).unwrap().unwrap();
    let tables = schema.value.get("tables").and_then(Json::as_array).unwrap();
    assert_eq!(tables.len(), 1, "only sales is visible: {tables:?}");

    // All 200 sales rows move tool→tool into the trend analyzer without
    // transiting the client.
    let spec = Json::parse(
        r#"{"target_tool": "trend_analyze", "tool_args": {
            "sales": {"tool": "select",
                      "args": {"sql": "SELECT id, amount FROM sales ORDER BY id"},
                      "transform": "/rows"}}}"#,
    )
    .unwrap();
    client.call("proxy", &spec).unwrap().unwrap();
    client.shutdown().unwrap();
    server.shutdown();

    let written = obs.flush().unwrap().expect("a JSONL path was configured");
    let parsed = obs::parse_jsonl(&std::fs::read_to_string(&written).unwrap()).unwrap();
    std::fs::remove_file(&written).ok();
    obs::validate_tree(&parsed.spans).unwrap();
    for needed in ["wire:session", "wire:call", "tool:select", "proxy:unit"] {
        assert!(
            parsed.spans.iter().any(|s| s.name == needed),
            "the trace has no {needed} span"
        );
    }
}

#[test]
fn thirty_two_sessions_are_all_served_without_shedding() {
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()),
        WireConfig::default(),
        Obs::in_memory(),
    )
    .unwrap();
    let tallies = drive(server.local_addr(), &[("admin", SALES_PROBE); 32], 4);
    server.shutdown();
    for tally in &tallies {
        assert_eq!((tally.ok, tally.busy), (4, 0), "{tally:?}");
        assert!(tally.errors.is_empty(), "{tally:?}");
    }
}

#[test]
fn counters_never_go_backwards_between_scrapes_under_traffic() {
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let admin = AdminServer::bind("127.0.0.1:0", obs.clone(), server.ready_handle()).unwrap();
    let sessions = [("admin", SALES_PROBE); 8];
    let mut scrapes = Vec::new();
    for _ in 0..2 {
        for tally in drive(server.local_addr(), &sessions, 6) {
            assert_eq!((tally.ok, tally.busy), (6, 0), "{tally:?}");
            assert!(tally.errors.is_empty(), "{tally:?}");
        }
        let (status, body) = http_get(admin.local_addr(), "/metrics");
        assert_eq!(status, 200);
        scrapes.push(body);
    }
    server.shutdown();
    admin.shutdown();

    for series in [
        "tool_calls_total{outcome=\"ok\",tool=\"select\"} 96",
        "minidb_wal_bytes_since_checkpoint",
        "wire_queue_depth",
    ] {
        assert!(scrapes[1].contains(series), "/metrics lacks `{series}`");
    }
    let (before, after) = (counter_series(&scrapes[0]), counter_series(&scrapes[1]));
    assert!(!before.is_empty(), "the first scrape has no counters");
    for (series, v1) in &before {
        let v2 = after
            .get(series)
            .unwrap_or_else(|| panic!("{series} vanished"));
        assert!(v2 >= v1, "{series} went backwards: {v1} -> {v2}");
    }
}

#[test]
fn admin_plane_serves_retained_aggregated_and_in_flight_calls() {
    // A 1 ms slow-call threshold: the 5 ms `sleepy` call is retained, and
    // the caches give /statements plan-cache hits to count.
    let obs = Obs::with_flight(
        &ObsConfig::InMemory,
        FlightConfig::with_threshold_ns(1_000_000),
    );
    let mut external = Registry::new();
    external.register_tool(sleeper("sleepy", 5));
    external.register_tool(sleeper("napper", 250));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db())
            .with_external(external)
            .with_gate(GateConfig::default().with_cache()),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let admin = AdminServer::bind("127.0.0.1:0", obs.clone(), server.ready_handle()).unwrap();
    let admin_addr = admin.local_addr();
    let get_json = |path: &str| {
        let (status, body) = http_get(admin_addr, path);
        (status, Json::parse(&body).unwrap_or(Json::Null))
    };
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();

    // /slow/<trace-id>: a slow traced call is retained whole and served
    // back by the id the client chose.
    let ctx = TraceContext::new(
        TraceId::from_u128(0xfeed_face_cafe_f00d_dead_beef_0bad).unwrap(),
        obs::next_span_id(),
    );
    client
        .call_traced("sleepy", &no_args(), &ctx)
        .unwrap()
        .unwrap();
    let path = format!("/slow/{}", ctx.trace);
    let retained = (0..100)
        .find_map(|_| match get_json(&path) {
            (200, call) => Some(call),
            _ => {
                std::thread::sleep(Duration::from_millis(10));
                None
            }
        })
        .unwrap_or_else(|| panic!("{path} never served the call"));
    let spans = retained.get("spans").and_then(Json::as_array).unwrap();
    assert!(
        spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("tool:sleepy")),
        "{spans:?}"
    );

    // /statements: 100 identical selects and one denial, aggregated per
    // (user, normalized statement).
    for tally in drive(server.local_addr(), &[("admin", SALES_PROBE); 4], 25) {
        assert_eq!(tally.ok, 25, "{tally:?}");
    }
    let mut reader = Client::connect(server.local_addr()).unwrap();
    reader.initialize("reader").unwrap();
    let denied = reader
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT note FROM audit_log"))]),
        )
        .unwrap();
    assert!(
        matches!(denied, Err(ToolError::Denied { .. })),
        "{denied:?}"
    );
    let (status, json) = get_json("/statements");
    assert_eq!(status, 200);
    let statements = json.get("statements").and_then(Json::as_array).unwrap();
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let user_is = |e: &Json, user: &str| e.get("user").and_then(Json::as_str) == Some(user);
    let probe = statements
        .iter()
        .find(|e| user_is(e, "admin") && field(e, "calls") >= 100.0)
        .unwrap_or_else(|| panic!("no admin aggregate of 100 calls: {statements:?}"));
    assert!(field(probe, "rows") >= 5_000.0, "{probe:?}");
    assert!(field(probe, "cache_hits") > 0.0, "{probe:?}");
    assert!(field(probe, "total_ns") > 0.0 && field(probe, "mean_ns") > 0.0);
    assert!(
        statements
            .iter()
            .any(|e| user_is(e, "reader") && field(e, "denials") >= 1.0),
        "{statements:?}"
    );
    assert!(http_get(admin_addr, "/metrics")
        .1
        .contains("obs_statements_entries"));

    // /queries: a 250 ms call is listed while it runs.
    let addr = server.local_addr();
    let napper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.initialize("admin").unwrap();
        c.call("napper", &no_args()).unwrap().unwrap();
    });
    let in_flight = (0..200).any(|_| {
        let (status, json) = get_json("/queries");
        assert_eq!(status, 200);
        let listed = json
            .get("queries")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .any(|q| {
                q.get("tool").and_then(Json::as_str) == Some("napper")
                    && q.get("user").and_then(Json::as_str) == Some("admin")
            });
        if !listed {
            std::thread::sleep(Duration::from_millis(5));
        }
        listed
    });
    napper.join().unwrap();
    assert!(in_flight, "the napper call never appeared on /queries");

    client.shutdown().unwrap();
    reader.shutdown().unwrap();
    server.shutdown();
    admin.shutdown();
}
