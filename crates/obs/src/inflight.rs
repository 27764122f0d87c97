//! In-flight call registry: what is the server doing *right now*.
//!
//! Metrics and flight captures only describe completed work; a hung or
//! runaway call is invisible in both until it finishes. This registry
//! tracks every live wire call — trace id, user, tool, start time, and the
//! SQL statement it is currently executing — so the admin `/queries`
//! endpoint can answer the operator's first incident question ("who is
//! running what, and for how long") while the call is still in flight.
//!
//! Entries are registered by the wire dispatcher via a RAII guard (dropped
//! on any exit path, so a panicking tool cannot leak an entry) and
//! annotated mid-flight by the SQL layer, which finds its own entry through
//! the ambient trace id.

use crate::trace::TraceId;
use std::collections::BTreeMap;
use std::sync::Mutex;
use toolproto::Json;

/// One live call, as reported by [`InflightRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InflightCall {
    /// Registration token (ordering key; unique within one registry).
    pub token: u64,
    /// Trace the call belongs to.
    pub trace: Option<TraceId>,
    /// Authenticated user running the call.
    pub user: String,
    /// Tool being dispatched.
    pub tool: String,
    /// Start time in nanoseconds since the obs epoch.
    pub start_ns: u64,
    /// The SQL statement currently executing, once known.
    pub statement: Option<String>,
}

/// The registry itself. Concurrency-safe; one lives inside every enabled
/// [`crate::Obs`] handle.
#[derive(Debug, Default)]
pub(crate) struct InflightRegistry {
    inner: Mutex<BTreeMap<u64, InflightCall>>,
}

impl InflightRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        InflightRegistry::default()
    }

    /// Register a call; the caller removes it with [`InflightRegistry::end`]
    /// (normally via the RAII guard in `crate::Obs::begin_call`).
    pub(crate) fn begin(
        &self,
        token: u64,
        trace: Option<TraceId>,
        user: &str,
        tool: &str,
        start_ns: u64,
    ) {
        self.inner.lock().expect("inflight lock").insert(
            token,
            InflightCall {
                token,
                trace,
                user: user.to_owned(),
                tool: tool.to_owned(),
                start_ns,
                statement: None,
            },
        );
    }

    /// Attach the currently executing statement to the live call(s) on
    /// `trace`. Lookup is by trace because the SQL layer knows its ambient
    /// trace id but not the wire dispatcher's registration token.
    pub(crate) fn note_statement(&self, trace: TraceId, statement: &str) {
        let mut inner = self.inner.lock().expect("inflight lock");
        for call in inner.values_mut() {
            if call.trace == Some(trace) {
                call.statement = Some(statement.to_owned());
            }
        }
    }

    /// Remove a finished call.
    pub(crate) fn end(&self, token: u64) {
        self.inner.lock().expect("inflight lock").remove(&token);
    }

    /// Live calls, oldest registration first.
    pub(crate) fn snapshot(&self) -> Vec<InflightCall> {
        self.inner
            .lock()
            .expect("inflight lock")
            .values()
            .cloned()
            .collect()
    }

    /// Number of live calls.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("inflight lock").len()
    }

    /// JSON form served by the admin `/queries` endpoint. `now_ns` (the
    /// obs clock) turns start times into elapsed durations.
    pub(crate) fn to_json(&self, now_ns: u64) -> Json {
        let queries = Json::array(self.snapshot().into_iter().map(|c| {
            Json::object([
                (
                    "trace",
                    c.trace
                        .map(|t| Json::str(t.to_string()))
                        .unwrap_or(Json::Null),
                ),
                ("user", Json::str(c.user)),
                ("tool", Json::str(c.tool)),
                (
                    "elapsed_ns",
                    Json::num(now_ns.saturating_sub(c.start_ns) as f64),
                ),
                (
                    "statement",
                    c.statement.map(Json::str).unwrap_or(Json::Null),
                ),
            ])
        }));
        Json::object([
            ("queries", queries),
            ("in_flight", Json::num(self.len() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_note_end_lifecycle() {
        let reg = InflightRegistry::new();
        let trace = TraceId::from_u128(5).unwrap();
        reg.begin(1, Some(trace), "alice", "select", 100);
        reg.begin(2, None, "bob", "insert", 200);
        assert_eq!(reg.len(), 2);
        reg.note_statement(trace, "SELECT * FROM t");
        let snap = reg.snapshot();
        assert_eq!(snap[0].statement.as_deref(), Some("SELECT * FROM t"));
        assert_eq!(snap[1].statement, None);
        reg.end(1);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.snapshot()[0].user, "bob");
        reg.end(2);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn json_reports_elapsed_and_count() {
        let reg = InflightRegistry::new();
        let trace = TraceId::from_u128(5).unwrap();
        reg.begin(1, Some(trace), "alice", "select", 1_000);
        let json = reg.to_json(5_000);
        assert_eq!(json.get("in_flight").and_then(Json::as_i64), Some(1));
        let rows = json.get("queries").and_then(Json::as_array).unwrap();
        assert_eq!(
            rows[0].get("elapsed_ns").and_then(Json::as_i64),
            Some(4_000)
        );
        assert_eq!(
            rows[0].get("trace").and_then(Json::as_str),
            Some(trace.to_string().as_str())
        );
        assert_eq!(rows[0].get("statement"), Some(&Json::Null));
    }
}
