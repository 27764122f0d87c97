//! Flight recorder: a bounded ring buffer of recently completed
//! interesting span trees, with tail-based retention.
//!
//! Post-mortem traces answer "what happened over the whole run"; the flight
//! recorder answers the live-operations question "what were the worst calls
//! *recently*, and what did they spend their time on". Every finished span
//! is offered to the recorder on its way into the span ring. When a
//! *trigger* span (a `tool:{name}` span or the `wire:call` wrapper) closes
//! and the tail-based retention rule fires — the call was **slow** (over
//! the threshold) or **errored** — the recorder reads the call's subtree
//! from the span ring — children always close before their parents, so it
//! is already there — into a ring of [`SLOW_CALL_CAPACITY`] [`SlowCall`]
//! entries. That ring overwrites its oldest entry when full, so memory
//! stays bounded no matter how long the server runs; the recorder counts
//! its captures and evictions for the owner to export.

use crate::recorder::SpanRing;
use crate::span::SpanRecord;
use crate::trace::TraceId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use toolproto::Json;

/// Span-name prefixes that can trigger a capture: every `tool:{name}` span
/// and the wire dispatch wrapper.
const TRIGGER_PREFIXES: [&str; 2] = ["tool:", "wire:call"];

/// Captured calls a recorder retains; the oldest is evicted first.
pub const SLOW_CALL_CAPACITY: usize = 64;

/// Tuning for the flight recorder ([`crate::Obs::with_flight`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// A trigger span slower than this (in nanoseconds) is captured.
    pub threshold_ns: u64,
}

impl FlightConfig {
    /// Config with a custom slow threshold.
    pub fn with_threshold_ns(threshold_ns: u64) -> Self {
        FlightConfig { threshold_ns }
    }
}

/// Why a call tree was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureReason {
    /// The trigger span exceeded the duration threshold.
    Slow,
    /// The trigger span carried an error.
    Error,
}

impl CaptureReason {
    /// Stable lowercase label used in JSON and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            CaptureReason::Slow => "slow",
            CaptureReason::Error => "error",
        }
    }
}

/// One captured call: the trigger span plus its recorded subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowCall {
    /// Monotonic capture sequence number (1-based) within one recorder.
    pub seq: u64,
    /// Why this call was retained.
    pub reason: CaptureReason,
    /// The trigger span that fired the retention rule.
    pub root: SpanRecord,
    /// The captured tree: the root plus every descendant the span ring
    /// held, sorted by `(start_ns, id)` so parents precede children.
    pub spans: Vec<SpanRecord>,
}

impl SlowCall {
    /// Duration of the captured root span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.root.duration_ns()
    }

    /// The trace id the captured tree belongs to, if recorded with one.
    pub fn trace(&self) -> Option<TraceId> {
        self.root.trace
    }

    /// JSON form served by the admin `/slow` endpoint and appended to
    /// JSONL dumps as a `{"type":"slow_call",…}` event.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("type", Json::str("slow_call")),
            ("seq", Json::num(self.seq as f64)),
            (
                "trace",
                self.trace()
                    .map(|t| Json::str(t.to_string()))
                    .unwrap_or(Json::Null),
            ),
            ("reason", Json::str(self.reason.as_str())),
            ("name", Json::str(self.root.name.clone())),
            ("duration_ns", Json::num(self.duration_ns() as f64)),
            (
                "spans",
                Json::array(self.spans.iter().map(crate::export::span_to_json)),
            ),
        ])
    }
}

/// The recorder itself. Concurrency-safe; one lives inside an enabled
/// [`crate::Obs`] handle when flight recording is configured.
pub(crate) struct FlightRecorder {
    pub(crate) config: FlightConfig,
    /// Captured slow calls, oldest first, at most [`SLOW_CALL_CAPACITY`].
    ring: Mutex<VecDeque<SlowCall>>,
    /// Captures ever made; only advanced under the `ring` lock.
    seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with the given tuning.
    pub(crate) fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            ring: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
        }
    }

    fn retention_reason(&self, span: &SpanRecord) -> Option<CaptureReason> {
        if !TRIGGER_PREFIXES.iter().any(|p| span.name.starts_with(p)) {
            return None;
        }
        if span.duration_ns() >= self.config.threshold_ns {
            Some(CaptureReason::Slow)
        } else if span.error.is_some() {
            Some(CaptureReason::Error)
        } else {
            None
        }
    }

    fn calls(&self) -> std::sync::MutexGuard<'_, VecDeque<SlowCall>> {
        self.ring.lock().expect("flight lock")
    }

    /// Record one finished span into `spans`; tail-based retention decides
    /// whether its subtree is captured from there, and why.
    pub(crate) fn offer(&self, span: SpanRecord, spans: &SpanRing) -> Option<CaptureReason> {
        let Some(reason) = self.retention_reason(&span) else {
            spans.record(span);
            return None;
        };
        let root = span.clone();
        spans.record(span);
        let tree = spans.subtree(&root);
        let mut calls = self.calls();
        if calls.len() == SLOW_CALL_CAPACITY {
            calls.pop_front();
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        calls.push_back(SlowCall {
            seq,
            reason,
            root,
            spans: tree,
        });
        Some(reason)
    }

    /// Captures ever made, and how many of them the ring has evicted.
    pub(crate) fn counts(&self) -> (u64, u64) {
        let calls = self.calls();
        let captured = self.seq.load(Ordering::Relaxed);
        (captured, captured - calls.len() as u64)
    }

    /// Captured calls, oldest first.
    pub(crate) fn slow_calls(&self) -> Vec<SlowCall> {
        self.calls().iter().cloned().collect()
    }

    /// The newest captured call belonging to `trace`, if any is retained.
    pub(crate) fn slow_call_by_trace(&self, trace: TraceId) -> Option<SlowCall> {
        self.calls()
            .iter()
            .rev()
            .find(|call| call.trace() == Some(trace))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SPAN_RING_CAPACITY;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: TraceId::from_u128(u128::from(id) + 1000),
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            error: None,
            attrs: Vec::new(),
        }
    }

    /// A recorder with `threshold_ns` and the span ring it reads.
    fn recorder(threshold_ns: u64) -> (FlightRecorder, SpanRing) {
        let config = FlightConfig::with_threshold_ns(threshold_ns);
        (
            FlightRecorder::new(config),
            SpanRing::new(SPAN_RING_CAPACITY),
        )
    }

    #[test]
    fn captures_trigger_span_with_subtree() {
        let (fr, spans) = recorder(100);
        let trace = TraceId::from_u128(7);
        let span = |id, parent, name, start, end| SpanRecord {
            trace,
            ..rec(id, parent, name, start, end)
        };
        // Children close first, then the slow tool span.
        let offer = |s| fr.offer(s, &spans);
        assert!(offer(span(3, Some(2), "sql:execute", 20, 80)).is_none());
        assert!(offer(span(4, Some(3), "sql:scan", 30, 60)).is_none());
        assert_eq!(
            offer(span(2, Some(1), "tool:select", 10, 200)),
            Some(CaptureReason::Slow)
        );
        let calls = fr.slow_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].root.name, "tool:select");
        assert_eq!(calls[0].reason, CaptureReason::Slow);
        let names: Vec<&str> = calls[0].spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["tool:select", "sql:execute", "sql:scan"]);
        // The capture is the trigger's subtree as the ring holds it.
        assert_eq!(calls[0].spans, spans.subtree(&calls[0].root));
    }

    #[test]
    fn fast_and_untriggered_spans_are_ignored() {
        let (fr, spans) = recorder(100);
        // fast
        let fast = fr.offer(rec(1, None, "tool:select", 0, 50), &spans);
        assert!(fast.is_none());
        // not a trigger
        let other = fr.offer(rec(2, None, "sql:execute", 0, 5000), &spans);
        assert!(other.is_none());
        assert!(fr.slow_calls().is_empty());
    }

    #[test]
    fn errored_calls_are_retained_even_when_fast() {
        let (fr, spans) = recorder(1_000_000);
        let mut errored = rec(1, None, "wire:call", 0, 10);
        errored.error = Some("boom".into());
        assert_eq!(fr.offer(errored, &spans), Some(CaptureReason::Error));
        // An error on a non-trigger span does nothing.
        let mut inner = rec(2, None, "sql:execute", 40, 50);
        inner.error = Some("boom".into());
        assert!(fr.offer(inner, &spans).is_none());
        let reasons: Vec<CaptureReason> = fr.slow_calls().iter().map(|c| c.reason).collect();
        assert_eq!(reasons, [CaptureReason::Error]);
    }

    #[test]
    fn lookup_by_trace_finds_newest_capture() {
        let (fr, spans) = recorder(10);
        fr.offer(rec(1, None, "tool:a", 0, 100), &spans);
        fr.offer(rec(2, None, "tool:b", 200, 300), &spans);
        let trace = TraceId::from_u128(1002).unwrap();
        let hit = fr.slow_call_by_trace(trace).unwrap();
        assert_eq!(hit.root.name, "tool:b");
        assert!(fr
            .slow_call_by_trace(TraceId::from_u128(9).unwrap())
            .is_none());
        assert_eq!(fr.counts(), (2, 0));
    }

    #[test]
    fn ring_wraps_around_keeping_newest() {
        let (fr, spans) = recorder(10);
        let total = SLOW_CALL_CAPACITY as u64 + 7;
        for i in 0..total {
            fr.offer(
                rec(i + 1, None, "tool:slow", i * 1000, i * 1000 + 500),
                &spans,
            );
        }
        let calls = fr.slow_calls();
        assert_eq!(calls.len(), SLOW_CALL_CAPACITY);
        // Seven captures past the capacity evict the oldest seven.
        assert_eq!(fr.counts(), (total, 7));
        assert_eq!(calls[0].seq, 8);
        assert_eq!(calls[SLOW_CALL_CAPACITY - 1].seq, total);
    }

    #[test]
    fn slow_call_json_shape() {
        let (fr, spans) = recorder(1);
        fr.offer(rec(1, None, "wire:call", 0, 100), &spans);
        let json = fr.slow_calls()[0].to_json();
        assert_eq!(json.get("type").and_then(Json::as_str), Some("slow_call"));
        assert_eq!(json.get("name").and_then(Json::as_str), Some("wire:call"));
        assert_eq!(json.get("duration_ns").and_then(Json::as_i64), Some(100));
        assert_eq!(json.get("reason").and_then(Json::as_str), Some("slow"));
        assert_eq!(
            json.get("trace").and_then(Json::as_str),
            Some(TraceId::from_u128(1001).unwrap().to_string().as_str())
        );
    }
}
