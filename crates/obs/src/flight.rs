//! Flight recorder: a bounded ring buffer of recently completed
//! interesting span trees, with tail-based retention.
//!
//! Post-mortem traces answer "what happened over the whole run"; the flight
//! recorder answers the live-operations question "what were the worst calls
//! *recently*, and what did they spend their time on". Every finished span
//! is offered to the recorder. Spans are buffered in a bounded FIFO pool;
//! when a *trigger* span (a `tool:{name}` span or the `wire:call` wrapper)
//! closes and the tail-based retention rule fires — the call was **slow**
//! (over the threshold) or **errored** — the recorder captures it together
//! with every buffered descendant — children always close before their
//! parents, so the full subtree is already in the pool — into a ring of
//! [`SlowCall`] entries. The ring overwrites its oldest entry when full,
//! so memory stays bounded no matter how long the server runs; evictions
//! are reported in the [`OfferOutcome`] so the owner can count them.

use crate::span::SpanRecord;
use crate::trace::TraceId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use toolproto::Json;

/// Span-name prefixes that can trigger a capture: every `tool:{name}` span
/// and the wire dispatch wrapper.
const TRIGGER_PREFIXES: [&str; 2] = ["tool:", "wire:call"];

/// Maximum buffered finished spans awaiting their root's close. Bounds
/// memory; a subtree larger than this is captured truncated.
const PENDING_CAPACITY: usize = 4096;

/// Tuning for a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// A trigger span slower than this (in nanoseconds) is captured.
    pub threshold_ns: u64,
    /// Maximum retained [`SlowCall`] entries; the oldest is evicted first.
    pub ring_capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            threshold_ns: 100_000_000, // 100ms
            ring_capacity: 64,
        }
    }
}

impl FlightConfig {
    /// Config with a custom slow threshold and the default capacities.
    pub fn with_threshold_ns(threshold_ns: u64) -> Self {
        FlightConfig {
            threshold_ns,
            ..FlightConfig::default()
        }
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

/// What one [`FlightRecorder::offer`] call did, so the owning handle can
/// account for captures and losses without re-locking the recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfferOutcome {
    /// `Some` when the span triggered a capture, with the retention reason.
    pub captured: Option<CaptureReason>,
    /// A previously captured call was evicted from the ring to make room.
    pub ring_evicted: bool,
    /// Buffered spans dropped from the pending pool to respect its bound.
    pub pending_dropped: u64,
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
    /// The captured tree: the root plus every buffered descendant, sorted
    /// by `(start_ns, id)` so parents precede children.
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

struct FlightInner {
    /// Finished spans awaiting a potential trigger ancestor, FIFO-bounded.
    pending: VecDeque<SpanRecord>,
    /// Captured slow calls, oldest first, ring-bounded.
    ring: VecDeque<SlowCall>,
}

/// The recorder itself. Concurrency-safe; one lives inside an enabled
/// [`crate::Obs`] handle when flight recording is configured.
pub struct FlightRecorder {
    config: FlightConfig,
    inner: Mutex<FlightInner>,
    seq: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("config", &self.config)
            .field("captured", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with the given tuning.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            inner: Mutex::new(FlightInner {
                pending: VecDeque::new(),
                ring: VecDeque::new(),
            }),
            seq: AtomicU64::new(0),
        }
    }

    /// The configured slow threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.config.threshold_ns
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

    /// Offer one finished span; tail-based retention decides capture. The
    /// returned [`OfferOutcome`] reports the capture (with its reason) and
    /// any data lost to the ring/pending bounds.
    pub fn offer(&self, span: SpanRecord) -> OfferOutcome {
        let captured = self.retention_reason(&span);
        let mut outcome = OfferOutcome {
            captured,
            ..OfferOutcome::default()
        };
        let mut inner = self.inner.lock().expect("flight lock");
        if let Some(reason) = captured {
            let mut spans = collect_subtree(&inner.pending, &span);
            spans.push(span.clone());
            spans.sort_by_key(|s| (s.start_ns, s.id));
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            if inner.ring.len() >= self.config.ring_capacity.max(1) {
                inner.ring.pop_front();
                outcome.ring_evicted = true;
            }
            inner.ring.push_back(SlowCall {
                seq,
                reason,
                root: span.clone(),
                spans,
            });
        }
        inner.pending.push_back(span);
        while inner.pending.len() > PENDING_CAPACITY {
            inner.pending.pop_front();
            outcome.pending_dropped += 1;
        }
        outcome
    }

    /// Captured calls, oldest first.
    pub fn slow_calls(&self) -> Vec<SlowCall> {
        self.inner
            .lock()
            .expect("flight lock")
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// The newest captured call belonging to `trace`, if any is retained.
    pub fn slow_call_by_trace(&self, trace: TraceId) -> Option<SlowCall> {
        self.inner
            .lock()
            .expect("flight lock")
            .ring
            .iter()
            .rev()
            .find(|call| call.trace() == Some(trace))
            .cloned()
    }

    /// Currently retained captures (ring occupancy, for gauges).
    pub fn ring_len(&self) -> usize {
        self.inner.lock().expect("flight lock").ring.len()
    }
}

/// Every pending span that is a descendant of `root` (by walking parent
/// links within the pending pool — ancestors outside the pool terminate the
/// walk without a match).
fn collect_subtree(pending: &VecDeque<SpanRecord>, root: &SpanRecord) -> Vec<SpanRecord> {
    let parent_of: BTreeMap<u64, Option<u64>> = pending.iter().map(|s| (s.id, s.parent)).collect();
    let mut out = Vec::new();
    for span in pending {
        let mut cursor = span.parent;
        let mut hops = 0usize;
        while let Some(pid) = cursor {
            if pid == root.id {
                out.push(span.clone());
                break;
            }
            hops += 1;
            if hops > pending.len() {
                break; // defensive: malformed parent cycle
            }
            cursor = parent_of.get(&pid).copied().flatten();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn captures_trigger_span_with_subtree() {
        let fr = FlightRecorder::new(FlightConfig::with_threshold_ns(100));
        // Children close first, then the slow tool span.
        assert!(fr
            .offer(rec(3, Some(2), "sql:execute", 20, 80))
            .captured
            .is_none());
        assert!(fr
            .offer(rec(4, Some(3), "sql:scan", 30, 60))
            .captured
            .is_none());
        assert_eq!(
            fr.offer(rec(2, Some(1), "tool:select", 10, 200)).captured,
            Some(CaptureReason::Slow)
        );
        let calls = fr.slow_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].root.name, "tool:select");
        assert_eq!(calls[0].reason, CaptureReason::Slow);
        let names: Vec<&str> = calls[0].spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["tool:select", "sql:execute", "sql:scan"]);
    }

    #[test]
    fn fast_and_untriggered_spans_are_ignored() {
        let fr = FlightRecorder::new(FlightConfig::with_threshold_ns(100));
        assert!(fr
            .offer(rec(1, None, "tool:select", 0, 50))
            .captured
            .is_none()); // fast
        assert!(fr
            .offer(rec(2, None, "sql:execute", 0, 5000))
            .captured
            .is_none()); // not a trigger
        assert!(fr.slow_calls().is_empty());
    }

    #[test]
    fn errored_calls_are_retained_even_when_fast() {
        let fr = FlightRecorder::new(FlightConfig::with_threshold_ns(1_000_000));
        let mut errored = rec(1, None, "wire:call", 0, 10);
        errored.error = Some("boom".into());
        assert_eq!(fr.offer(errored).captured, Some(CaptureReason::Error));
        // An error on a non-trigger span does nothing.
        let mut inner = rec(2, None, "sql:execute", 40, 50);
        inner.error = Some("boom".into());
        assert!(fr.offer(inner).captured.is_none());
        let reasons: Vec<CaptureReason> = fr.slow_calls().iter().map(|c| c.reason).collect();
        assert_eq!(reasons, [CaptureReason::Error]);
    }

    #[test]
    fn lookup_by_trace_finds_newest_capture() {
        let fr = FlightRecorder::new(FlightConfig::with_threshold_ns(10));
        fr.offer(rec(1, None, "tool:a", 0, 100));
        fr.offer(rec(2, None, "tool:b", 200, 300));
        let trace = TraceId::from_u128(1002).unwrap();
        let hit = fr.slow_call_by_trace(trace).unwrap();
        assert_eq!(hit.root.name, "tool:b");
        assert!(fr
            .slow_call_by_trace(TraceId::from_u128(9).unwrap())
            .is_none());
        assert_eq!(fr.ring_len(), 2);
    }

    #[test]
    fn ring_wraps_around_keeping_newest() {
        let config = FlightConfig {
            threshold_ns: 10,
            ring_capacity: 3,
        };
        let fr = FlightRecorder::new(config);
        let mut evictions = 0u64;
        for i in 0..10u64 {
            let out = fr.offer(rec(i + 1, None, "tool:slow", i * 1000, i * 1000 + 500));
            evictions += u64::from(out.ring_evicted);
        }
        let calls = fr.slow_calls();
        assert_eq!(calls.len(), 3);
        // 10 captures into a 3-slot ring evict the oldest seven: the
        // survivors are captures 8, 9, 10.
        assert_eq!(evictions, 7);
        assert_eq!(calls[0].seq, 8);
        assert_eq!(calls[2].seq, 10);
    }

    #[test]
    fn pending_pool_is_bounded() {
        let fr = FlightRecorder::new(FlightConfig::with_threshold_ns(1_000_000));
        let mut dropped = 0u64;
        for i in 0..PENDING_CAPACITY as u64 + 96 {
            dropped += fr
                .offer(rec(i + 1, None, "sql:execute", i, i + 1))
                .pending_dropped;
        }
        assert_eq!(fr.inner.lock().unwrap().pending.len(), PENDING_CAPACITY);
        assert_eq!(dropped, 96);
    }

    #[test]
    fn slow_call_json_shape() {
        let fr = FlightRecorder::new(FlightConfig::with_threshold_ns(1));
        fr.offer(rec(1, None, "wire:call", 0, 100));
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
