//! The admin plane: a tiny std-only HTTP/1.1 listener serving live
//! telemetry next to (not on) the wire protocol port.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4) of every
//!   counter, gauge, and histogram in the server's [`Obs`] handle.
//! * `GET /healthz` — liveness: 200 as long as the listener thread runs.
//! * `GET /readyz` — readiness: 200 while serving, 503 the moment graceful
//!   shutdown begins (the flag flips *before* in-flight calls drain, so a
//!   load balancer stops routing while they finish).
//! * `GET /slow` — the flight recorder's captured slow calls as JSON, full
//!   span trees included.
//! * `GET /slow/<trace-id>` — one captured call looked up by its 32-hex
//!   trace id: the whole cross-layer trace, or 404 if not retained.
//! * `GET /statements` — the statement statistics store (pg_stat_statements
//!   style): per-(user, normalized statement) aggregates, sorted by total
//!   time descending.
//! * `GET /queries` — calls in flight right now: trace id, user, tool,
//!   elapsed time, and the SQL statement currently executing (if any).
//!
//! The implementation is deliberately minimal: one accept thread, one
//! short-lived handler per connection, `Connection: close` on every
//! response. Admin traffic is a scrape every few seconds, not a workload —
//! a full HTTP stack would be all liability here. Requests are parsed just
//! enough to route: method + path of the request line; headers and body
//! are read and discarded.

use obs::Obs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;
use toolproto::Json;

/// Accept-loop poll interval while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// Per-request socket deadline; admin requests are single small reads.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Cap on accepted request bytes (request line + headers).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A running admin listener. Join it with [`AdminServer::shutdown`];
/// dropping without shutdown detaches the accept thread (it exits at the
/// next tick after the stop flag flips, which `shutdown` does).
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Bind `addr` and start serving. `ready` is shared with the wire
    /// server: `/readyz` mirrors it live, so flipping it to `false` at the
    /// start of a drain is immediately visible to load balancers.
    pub fn bind(
        addr: impl ToSocketAddrs,
        obs: Obs,
        ready: Arc<AtomicBool>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("wire-admin".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                obs.incr("admin.requests", 1);
                                handle_conn(stream, &obs, &ready);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(ACCEPT_TICK);
                            }
                            Err(_) => thread::sleep(ACCEPT_TICK),
                        }
                    }
                })
                .expect("spawn admin accept loop")
        };
        Ok(AdminServer {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the listener thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Read one request, route it, write one response, close.
fn handle_conn(mut stream: TcpStream, obs: &Obs, ready: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Some((method, path)) = read_request(&mut stream) else {
        return;
    };
    let response = route(&method, &path, obs, ready);
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Read up to the end of the header block and parse the request line into
/// `(method, path)`. `None` on malformed, oversized, or timed-out input.
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        // A well-formed request line is all we need; stop at the blank
        // line that ends the headers.
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let target = parts.next()?;
    // Ignore any query string: `/metrics?format=x` still routes to /metrics.
    let path = target.split('?').next().unwrap_or(target).to_owned();
    Some((method, path))
}

/// Build the full HTTP/1.1 response for one request.
fn route(method: &str, path: &str, obs: &Obs, ready: &AtomicBool) -> String {
    if method != "GET" {
        return respond(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            let body = obs::prom::render(&obs.snapshot().metrics);
            respond(200, "OK", "text/plain; version=0.0.4; charset=utf-8", &body)
        }
        "/healthz" => respond(200, "OK", "text/plain; charset=utf-8", "ok\n"),
        "/readyz" => {
            if ready.load(Ordering::Relaxed) {
                respond(200, "OK", "text/plain; charset=utf-8", "ready\n")
            } else {
                respond(
                    503,
                    "Service Unavailable",
                    "text/plain; charset=utf-8",
                    "draining\n",
                )
            }
        }
        "/slow" => {
            let calls = obs.slow_calls();
            let body = Json::object([
                (
                    "threshold_ns",
                    match obs.flight_threshold_ns() {
                        Some(ns) => Json::num(ns as f64),
                        None => Json::Null,
                    },
                ),
                (
                    "slow_calls",
                    Json::array(calls.iter().map(obs::SlowCall::to_json)),
                ),
            ])
            .to_string();
            respond(200, "OK", "application/json", &body)
        }
        "/statements" => {
            let body = obs
                .statements_json()
                .unwrap_or_else(|| Json::object([("statements", Json::array([]))]))
                .to_string();
            respond(200, "OK", "application/json", &body)
        }
        "/queries" => {
            let body = obs
                .inflight_json()
                .unwrap_or_else(|| Json::object([("queries", Json::array([]))]))
                .to_string();
            respond(200, "OK", "application/json", &body)
        }
        _ => {
            if let Some(hex) = path.strip_prefix("/slow/") {
                return route_slow_by_trace(hex, obs);
            }
            respond(
                404,
                "Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics /healthz /readyz /slow /statements /queries\n",
            )
        }
    }
}

/// `/slow/<trace-id>`: serve one retained call by trace id. The id comes
/// off the wire, so it is parsed with the same strict 32-hex validator the
/// traceparent uses; garbage is a 404, never a panic.
fn route_slow_by_trace(hex: &str, obs: &Obs) -> String {
    let Some(trace) = obs::TraceId::parse_hex(hex) else {
        return respond(
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "trace id must be 32 hex chars\n",
        );
    };
    match obs.slow_call_by_trace(trace) {
        Some(call) => respond(200, "OK", "application/json", &call.to_json().to_string()),
        None => respond(
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "no retained call with that trace id\n",
        ),
    }
}

fn respond(status: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_well_formed() {
        let r = respond(200, "OK", "text/plain", "hi");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("content-length: 2\r\n"));
        assert!(r.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn routing_matrix() {
        let obs = Obs::in_memory();
        obs.incr("x", 1);
        let ready = AtomicBool::new(true);
        assert!(route("GET", "/healthz", &obs, &ready).starts_with("HTTP/1.1 200"));
        assert!(route("GET", "/readyz", &obs, &ready).starts_with("HTTP/1.1 200"));
        ready.store(false, Ordering::Relaxed);
        assert!(route("GET", "/readyz", &obs, &ready).starts_with("HTTP/1.1 503"));
        assert!(route("GET", "/metrics", &obs, &ready).contains("x_total 1"));
        assert!(route("GET", "/slow", &obs, &ready).contains("\"slow_calls\""));
        assert!(route("GET", "/statements", &obs, &ready).contains("\"statements\""));
        assert!(route("GET", "/queries", &obs, &ready).contains("\"in_flight\""));
        assert!(route("GET", "/nope", &obs, &ready).starts_with("HTTP/1.1 404"));
        assert!(route("POST", "/metrics", &obs, &ready).starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn slow_by_trace_validates_and_misses_cleanly() {
        let obs = Obs::in_memory();
        let ready = AtomicBool::new(true);
        // Garbage trace ids are 404s, never panics.
        for bad in ["/slow/", "/slow/xyz", "/slow/123", "/slow/../etc"] {
            assert!(
                route("GET", bad, &obs, &ready).starts_with("HTTP/1.1 404"),
                "{bad}"
            );
        }
        // A well-formed id that was never retained is also a 404.
        let miss = format!("/slow/{:032x}", 0xdeadbeefu64);
        assert!(route("GET", &miss, &obs, &ready).starts_with("HTTP/1.1 404"));
    }
}
