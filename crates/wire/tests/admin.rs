//! Admin-plane integration tests: the telemetry endpoints against a live
//! wire server, over real sockets.

use minidb::Database;
use obs::{FlightConfig, Obs, ObsConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use toolproto::{Args, FnTool, Json, Registry, Signature, ToolOutput};
use wire::{AdminServer, Client, Tenancy, WireConfig, WireServer};

fn demo_db() -> Database {
    let db = Database::new();
    let mut s = db.session("admin").unwrap();
    s.execute_sql("CREATE TABLE sales (id INTEGER PRIMARY KEY, amount REAL)")
        .unwrap();
    s.execute_sql("INSERT INTO sales VALUES (1, 10.0)").unwrap();
    db
}

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
    let status: u16 = response
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

#[test]
fn metrics_health_and_slow_endpoints() {
    let obs = Obs::with_flight(
        &ObsConfig::InMemory,
        FlightConfig::with_threshold_ns(1_000_000),
    );
    // An external tool slow enough to trip the 1ms flight threshold.
    let mut external = Registry::new();
    external.register_tool(FnTool::new(
        "sleepy",
        "sleeps past the slow threshold",
        Signature::new(vec![]),
        |_: &Args| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(ToolOutput::value(Json::str("done")))
        },
    ));
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()).with_external(external),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let admin = AdminServer::bind("127.0.0.1:0", obs.clone(), server.ready_handle()).unwrap();
    let admin_addr = admin.local_addr();

    let (status, body) = http_get(admin_addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    let (status, body) = http_get(admin_addr, "/readyz");
    assert_eq!(status, 200);
    assert_eq!(body, "ready\n");

    // Drive traffic: one fast SQL call, one slow external call.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.initialize("admin").unwrap();
    client
        .call(
            "select",
            &Json::object([("sql", Json::str("SELECT * FROM sales"))]),
        )
        .unwrap()
        .unwrap();
    client
        .call("sleepy", &Json::object([] as [(&str, Json); 0]))
        .unwrap()
        .unwrap();

    // /metrics: tool-labeled counter, mvcc gauge, latency histogram.
    let (status, text) = http_get(admin_addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("tool_calls_total{outcome=\"ok\",tool=\"select\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE minidb_mvcc_retained_versions gauge"),
        "{text}"
    );
    assert!(text.contains("wire_active_sessions 1"), "{text}");
    assert!(text.contains("# TYPE tool_latency histogram"), "{text}");
    assert!(
        text.contains("tool_latency_bucket{tool=\"sleepy\",le=\"+Inf\"} 1"),
        "{text}"
    );
    assert!(text.contains("process_uptime_seconds"), "{text}");

    // /slow: the sleepy call was captured with its span tree.
    let (status, body) = http_get(admin_addr, "/slow");
    assert_eq!(status, 200);
    let json = Json::parse(&body).unwrap();
    let calls = json.get("slow_calls").and_then(Json::as_array).unwrap();
    assert!(!calls.is_empty(), "{body}");
    let slow = &calls[calls.len() - 1];
    let spans = slow.get("spans").and_then(Json::as_array).unwrap();
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("wire:call") || n.starts_with("tool:")),
        "{names:?}"
    );
    // The wire:call wrapper captures its nested tool:sleepy child.
    assert!(names.contains(&"tool:sleepy"), "{names:?}");

    let (status, _) = http_get(admin_addr, "/nope");
    assert_eq!(status, 404);

    // Shutdown drains: readiness flips before the server object is gone.
    drop(client);
    server.shutdown();
    let (status, body) = http_get(admin_addr, "/readyz");
    assert_eq!(status, 503);
    assert_eq!(body, "draining\n");
    // Liveness is still green — the process is healthy, just not serving.
    let (status, _) = http_get(admin_addr, "/healthz");
    assert_eq!(status, 200);
    admin.shutdown();
}

#[test]
fn queue_depth_and_session_gauges_settle_to_zero() {
    let obs = Obs::in_memory();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Tenancy::new(demo_db()),
        WireConfig::default(),
        obs.clone(),
    )
    .unwrap();
    let admin = AdminServer::bind("127.0.0.1:0", obs.clone(), server.ready_handle()).unwrap();
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.initialize("admin").unwrap();
        client
            .call("select", &Json::object([("sql", Json::str("SELECT 1"))]))
            .unwrap()
            .unwrap();
        let m = obs.snapshot().metrics;
        assert_eq!(m.gauge("wire.active_sessions", &[]), Some(1.0));
        assert_eq!(
            m.labeled_counter("wire.calls", &[("tool", "select"), ("user", "admin")]),
            1
        );
    }
    // The connection thread notices the closed socket and drops the
    // session; poll briefly rather than racing it.
    let mut active = 1.0;
    for _ in 0..100 {
        active = obs
            .snapshot()
            .metrics
            .gauge("wire.active_sessions", &[])
            .unwrap();
        if active == 0.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(active, 0.0);
    assert_eq!(
        obs.snapshot().metrics.gauge("wire.queue_depth", &[]),
        Some(0.0)
    );
    admin.shutdown();
    server.shutdown();
}

/// Two servers bound on one handle register every gauge twice; `/metrics`
/// must still show each series once, since a repeated series is invalid
/// exposition.
#[test]
fn two_servers_on_one_handle_expose_each_gauge_once() {
    let obs = Obs::in_memory();
    let bind = || {
        let tenancy = Tenancy::new(demo_db());
        WireServer::bind("127.0.0.1:0", tenancy, WireConfig::default(), obs.clone()).unwrap()
    };
    let servers = [bind(), bind()];
    let admin = AdminServer::bind("127.0.0.1:0", obs.clone(), servers[0].ready_handle()).unwrap();
    let (_, text) = http_get(admin.local_addr(), "/metrics");
    let gauges: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" gauge"))
        .collect();
    assert!(gauges.contains(&"wire_active_sessions"), "{text}");
    assert!(gauges.iter().any(|g| g.starts_with("minidb_")), "{text}");
    for gauge in gauges {
        let lines = text
            .lines()
            .filter(|l| l.split([' ', '{']).next() == Some(gauge));
        assert_eq!(lines.count(), 1, "{gauge} in:\n{text}");
    }
    admin.shutdown();
    for server in servers {
        server.shutdown();
    }
}
