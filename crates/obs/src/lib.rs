//! Structured observability kernel for the BridgeScope reproduction.
//!
//! Everything that happens between the simulated agent and the database —
//! tool dispatch, privilege checks, SQL execution, transaction control,
//! proxy data movement, executor plan choices — is invisible unless it is
//! recorded somewhere. This crate is that somewhere: a std-only (offline
//! build policy; the sole dependency is `toolproto` for its JSON type)
//! kernel of
//!
//! * hierarchical [spans](span::SpanRecord) with ids, parents, attributes,
//!   and monotonic nanosecond timings,
//! * a [`MetricsRegistry`] of counter, latency
//!   histogram and gauge series, each a `(name, labels)` pair,
//! * one bounded, sharded ring of the most recent finished spans
//!   (`SPAN_RING_CAPACITY` of them), which the snapshot, the flight
//!   recorder and the JSONL flush all read,
//! * a JSONL exporter ([`to_jsonl`]: one event per line, `toolproto::Json`
//!   syntax) with a matching parser ([`parse_jsonl`]), and
//! * a [summary table renderer](summary) for human-readable per-run reports.
//!
//! The entry point is [`Obs`]: a cheap clonable handle that is either
//! enabled (shared sink + metrics) or disabled. Disabled handles make every
//! call a no-op on an `Option` check, so instrumented code paths cost
//! effectively nothing when observability is off.
//!
//! ```
//! let obs = obs::Obs::in_memory();
//! {
//!     let mut task = obs.span("task");
//!     task.attr("id", "t1");
//!     let llm = obs.span("llm:call");
//!     drop(llm);
//!     obs.incr("llm.calls", 1);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.spans[1].parent, Some(snap.spans[0].id));
//! assert_eq!(snap.metrics.counter("llm.calls"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod export;
pub mod flight;
mod inflight;
pub mod metrics;
mod observer;
pub mod prom;
mod recorder;
mod span;
mod stmt;
pub mod summary;
mod trace;

pub use export::{parse_jsonl, to_jsonl};
pub use flight::{FlightConfig, SlowCall};
pub use metrics::{Histogram, MetricsRegistry, Sample};
pub use observer::RegistryObserver;
pub use span::{
    adopt_context, validate_tree, AttrValue, ParentScope, SpanContext, SpanGuard, SpanRecord,
};
pub use stmt::{StatementEntry, StatementOutcome, StatementStats, StatementStore};
pub use trace::{next_span_id, SpanId, TraceContext, TraceId};

use flight::FlightRecorder;
use inflight::InflightRegistry;
use metrics::{LabelSet, MetricsSnapshot};
use recorder::{Cursor, SpanRing, SPAN_RING_CAPACITY};
use span::current_trace;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a server or harness should record observability data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ObsConfig {
    /// Record nothing; instrumentation is a no-op.
    #[default]
    Off,
    /// Record spans and metrics in memory; read them via [`Obs::snapshot`].
    InMemory,
    /// Record in memory and append a JSONL trace to this path on each
    /// [`Obs::flush`] (the first flush truncates the file).
    Jsonl(PathBuf),
}

pub(crate) struct ObsInner {
    epoch: Instant,
    next_id: AtomicU64,
    metrics: MetricsRegistry,
    spans: SpanRing,
    /// The JSONL trace path and what earlier flushes appended to it.
    jsonl: Option<(PathBuf, Mutex<JsonlWritten>)>,
    /// `Arc` so pull-model gauges (ring occupancy) can sample the recorder
    /// without holding the whole handle alive through `self`.
    flight: Option<Arc<FlightRecorder>>,
    statements: Arc<StatementStore>,
    inflight: Arc<InflightRegistry>,
}

/// What earlier flushes appended. The file is `None` until the first flush
/// creates (or truncates) it.
#[derive(Default)]
struct JsonlWritten {
    file: Option<File>,
    spans: Cursor,
    slow_call_seq: u64,
}

/// Distinct `(user, normalized statement)` keys retained by the statement
/// store before LRU eviction kicks in.
const STATEMENT_STORE_CAPACITY: usize = 512;

impl ObsInner {
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn record(&self, span: SpanRecord) {
        if let Some(flight) = &self.flight {
            flight.offer(span, &self.spans);
        } else {
            self.spans.record(span);
        }
    }

    /// The registry's series plus the counters the span ring and the
    /// flight recorder keep themselves: `obs.spans.{recorded,dropped}` and
    /// `obs.slow_calls.captured` / `obs.flight.dropped_total`. Like any
    /// counter, each pair appears once there is something to count.
    fn metrics(&self, recorded: u64, dropped: u64) -> MetricsSnapshot {
        let mut metrics = self.metrics.snapshot();
        let (captured, evicted) = self.flight.as_ref().map_or((0, 0), |f| f.counts());
        // (name, value, the count that makes its pair appear), sorted by name.
        let counts = [
            ("obs.flight.dropped_total", evicted, captured),
            ("obs.slow_calls.captured", captured, captured),
            ("obs.spans.dropped", dropped, recorded),
            ("obs.spans.recorded", recorded, recorded),
        ];
        let counters = &mut metrics.labeled_counters;
        for (name, value, _) in counts.into_iter().filter(|&(_, _, seen)| seen > 0) {
            let sample = Sample {
                name: name.to_owned(),
                labels: LabelSet::new(),
                value,
            };
            counters.insert(counters.partition_point(|c| c.name.as_str() < name), sample);
        }
        metrics
    }
}

/// Everything an enabled [`Obs`] handle has collected so far.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Finished spans sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Counter, histogram and gauge series.
    pub metrics: MetricsSnapshot,
}

/// Handle to one observability domain: a shared span ring, id generator,
/// monotonic epoch, and metrics registry. Clones share state; a disabled
/// handle (the default) records nothing.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A handle that records nothing; every operation is a no-op.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    fn build(config: &ObsConfig, flight: Option<FlightConfig>) -> Self {
        let jsonl = match config {
            ObsConfig::Off => return Obs::disabled(),
            ObsConfig::InMemory => None,
            ObsConfig::Jsonl(path) => Some((path.clone(), Mutex::default())),
        };
        let epoch = Instant::now();
        let metrics = MetricsRegistry::new();
        // Process uptime as a gauge: the epoch Instant is captured by value,
        // so the sampler stays valid for the life of the registry.
        metrics.register_gauge("process.uptime_seconds", &[], move || {
            epoch.elapsed().as_secs_f64()
        });
        let flight = flight.map(|config| Arc::new(FlightRecorder::new(config)));
        if let Some(recorder) = flight.clone() {
            metrics.register_gauge("obs.flight.ring_occupancy", &[], move || {
                let (captured, evicted) = recorder.counts();
                (captured - evicted) as f64
            });
        }
        let statements = Arc::new(StatementStore::new(STATEMENT_STORE_CAPACITY));
        let store = Arc::clone(&statements);
        metrics.register_gauge("obs.statements.entries", &[], move || store.len() as f64);
        let inflight = Arc::new(InflightRegistry::new());
        let live = Arc::clone(&inflight);
        metrics.register_gauge("obs.queries.in_flight", &[], move || live.len() as f64);
        Obs {
            inner: Some(Arc::new(ObsInner {
                epoch,
                next_id: AtomicU64::new(1),
                metrics,
                spans: SpanRing::new(SPAN_RING_CAPACITY),
                jsonl,
                flight,
                statements,
                inflight,
            })),
        }
    }

    /// An enabled handle recording into memory only.
    pub fn in_memory() -> Self {
        Obs::build(&ObsConfig::InMemory, None)
    }

    /// An enabled handle that additionally appends a JSONL trace to `path`
    /// when [`Obs::flush`] is called.
    pub fn jsonl(path: impl Into<PathBuf>) -> Self {
        Obs::build(&ObsConfig::Jsonl(path.into()), None)
    }

    /// Build a handle from a configuration value.
    pub fn from_config(config: &ObsConfig) -> Self {
        Obs::build(config, None)
    }

    /// Build a handle from a configuration value with a slow-call flight
    /// recorder attached (ignored when the config is [`ObsConfig::Off`]).
    pub fn with_flight(config: &ObsConfig, flight: FlightConfig) -> Self {
        Obs::build(config, Some(flight))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`. It becomes a child of the innermost span
    /// currently open on this thread and is recorded when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::disabled(),
            Some(inner) => SpanGuard::open(Arc::clone(inner), name),
        }
    }

    /// Add `by` to the unlabeled counter `name` (no-op when disabled).
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.incr(name, by);
        }
    }

    /// Record a latency observation in the unlabeled histogram `name`.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe_ns(name, ns);
        }
    }

    /// Add `by` to the counter series `name{labels}` (no-op when
    /// disabled). Labels must be low-cardinality; see the metrics docs.
    pub fn incr_with(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.incr_with(name, labels, by);
        }
    }

    /// Record a latency observation in the histogram series
    /// `name{labels}` (no-op when disabled).
    pub fn observe_ns_with(&self, name: &str, labels: &[(&str, &str)], ns: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe_ns_with(name, labels, ns);
        }
    }

    /// Register the gauge series `name{labels}` (no-op when disabled).
    /// Registering the same series again replaces its sampler, so a
    /// surface rebuilt per session (e.g. per-user cache gauges, with the
    /// `Weak`-and-`NaN` idiom for samplers that can outlive their subject)
    /// keeps one series. See [`MetricsRegistry::register_gauge`].
    pub fn register_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        sampler: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        if let Some(inner) = &self.inner {
            inner.metrics.register_gauge(name, labels, sampler);
        }
    }

    fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.as_ref()?.flight.as_deref()
    }

    /// The flight recorder's slow threshold in nanoseconds, if attached.
    pub fn flight_threshold_ns(&self) -> Option<u64> {
        self.flight().map(|flight| flight.config.threshold_ns)
    }

    /// Captured slow calls, oldest first (empty when disabled or no flight
    /// recorder is attached).
    pub fn slow_calls(&self) -> Vec<SlowCall> {
        self.flight()
            .map(FlightRecorder::slow_calls)
            .unwrap_or_default()
    }

    /// The newest captured call for `trace`, if the flight recorder
    /// retained one.
    pub fn slow_call_by_trace(&self, trace: TraceId) -> Option<SlowCall> {
        self.flight()?.slow_call_by_trace(trace)
    }

    /// Record one executed statement into the statement statistics store
    /// (no-op when disabled). `statement` must already be normalized —
    /// callers use the gate's token normalizer, which erases whitespace
    /// and formatting variance so one statement shape is one key.
    pub fn record_statement(
        &self,
        user: &str,
        statement: &str,
        latency_ns: u64,
        rows: u64,
        cache_hit: bool,
        outcome: StatementOutcome,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .statements
                .record(user, statement, latency_ns, rows, cache_hit, outcome);
            let label = match outcome {
                StatementOutcome::Ok => "ok",
                StatementOutcome::Conflict => "conflict",
                StatementOutcome::Denied => "denied",
                StatementOutcome::Error => "error",
            };
            let labels = [("user", user), ("outcome", label)];
            inner.metrics.incr_with("stmt.calls", &labels, 1);
            inner
                .metrics
                .observe_ns_with("stmt.latency", &[("user", user)], latency_ns);
        }
    }

    /// The statement store's JSON form (admin `/statements`); `None` when
    /// disabled.
    pub fn statements_json(&self) -> Option<toolproto::Json> {
        self.inner.as_ref().map(|inner| inner.statements.to_json())
    }

    /// Register a live call in the in-flight registry, picking up the
    /// ambient trace id. The call stays listed (admin `/queries`) until the
    /// returned guard drops — on *any* exit path, so a panicking tool can't
    /// leak an entry. Call after opening the dispatch span so the trace id
    /// is in scope.
    pub fn begin_call(&self, user: &str, tool: &str) -> CallGuard {
        match &self.inner {
            None => CallGuard(None),
            Some(inner) => {
                let token = inner.next_span_id();
                inner
                    .inflight
                    .begin(token, current_trace(), user, tool, inner.now_ns());
                CallGuard(Some((Arc::clone(inner), token)))
            }
        }
    }

    /// Attach the currently executing statement to this thread's live call
    /// (matched through the ambient trace id; no-op when disabled or no
    /// call is registered).
    pub fn note_statement(&self, statement: &str) {
        if let (Some(inner), Some(trace)) = (&self.inner, current_trace()) {
            inner.inflight.note_statement(trace, statement);
        }
    }

    /// The in-flight registry's JSON form (admin `/queries`); `None` when
    /// disabled.
    pub fn inflight_json(&self) -> Option<toolproto::Json> {
        self.inner
            .as_ref()
            .map(|inner| inner.inflight.to_json(inner.now_ns()))
    }

    /// Nanoseconds since this handle was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map(|i| i.now_ns()).unwrap_or(0)
    }

    /// A point-in-time copy of the spans the ring holds and of all metrics
    /// (empty when disabled).
    pub fn snapshot(&self) -> ObsSnapshot {
        match &self.inner {
            None => ObsSnapshot {
                spans: Vec::new(),
                metrics: MetricsSnapshot::default(),
            },
            Some(inner) => {
                let read = inner.spans.read(&mut Cursor::default());
                ObsSnapshot {
                    metrics: inner.metrics(read.recorded, read.dropped),
                    spans: read.spans,
                }
            }
        }
    }

    /// The JSONL output path configured for this handle, if any.
    pub fn jsonl_path(&self) -> Option<&Path> {
        let inner = self.inner.as_ref()?;
        inner.jsonl.as_ref().map(|(path, _)| path.as_path())
    }

    /// Append to the JSONL trace at the configured path, returning the
    /// path written; the handle's first flush truncates the file. A flush
    /// appends the spans no earlier flush wrote, one `metrics` record and
    /// the slow calls captured since (`{"type":"slow_call",…}` records,
    /// which older parsers skip), so each span is serialized once and the
    /// file's last `metrics` record is current. A span the ring evicted
    /// before any flush reached it is counted in `obs.spans.dropped`.
    /// `Ok(None)` when disabled or no path was configured.
    pub fn flush(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(inner) = &self.inner else {
            return Ok(None);
        };
        let Some((path, written)) = &inner.jsonl else {
            return Ok(None);
        };
        // `FlushHandle` flushes from `drop`, which must not panic; a flush
        // that panicked midway leaves at worst some spans to append twice.
        let mut written = written.lock().unwrap_or_else(PoisonError::into_inner);
        let mut cursor = written.spans;
        let read = inner.spans.read(&mut cursor);
        let metrics = inner.metrics(read.recorded, read.dropped);
        let mut out = export::to_jsonl(&ObsSnapshot {
            spans: read.spans,
            metrics,
        });
        let mut slow_call_seq = written.slow_call_seq;
        // Oldest first, so the sequence numbers rise.
        for call in self.slow_calls() {
            if call.seq > slow_call_seq {
                out.push_str(&call.to_json().to_compact());
                out.push('\n');
                slow_call_seq = call.seq;
            }
        }
        let file = match &mut written.file {
            Some(file) => file,
            None => written.file.insert(File::create(path)?),
        };
        file.write_all(out.as_bytes())?;
        (written.spans, written.slow_call_seq) = (cursor, slow_call_seq);
        Ok(Some(path.clone()))
    }

    /// An observer suitable for `toolproto::Registry::set_observer`, or
    /// `None` when disabled (so disabled servers attach no observer at all).
    pub fn registry_observer(&self) -> Option<Arc<RegistryObserver>> {
        let observer = || Arc::new(RegistryObserver::new(self.clone()));
        self.is_enabled().then(observer)
    }

    /// Start a background thread that calls [`Obs::flush`] every
    /// `interval`, so a killed process loses at most one interval of trace
    /// data instead of the whole run. Returns `None` when the handle is
    /// disabled or has no JSONL path. Dropping the handle stops the thread
    /// and performs one final flush.
    pub fn start_flusher(&self, interval: Duration) -> Option<FlushHandle> {
        self.jsonl_path()?;
        let obs = self.clone();
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("obs-flusher".to_owned())
            .spawn(move || {
                // Dropping the sender ends the wait at once, so shutdown is
                // prompt even for long intervals.
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let _ = obs.flush();
                }
            })
            .ok()?;
        Some(FlushHandle {
            obs: self.clone(),
            running: Some((stop, thread)),
        })
    }
}

/// Guard returned by [`Obs::begin_call`]; removes the call from the
/// in-flight registry when dropped.
#[must_use = "the call stays listed as in-flight until the guard drops"]
pub struct CallGuard(Option<(Arc<ObsInner>, u64)>);

impl Drop for CallGuard {
    fn drop(&mut self) {
        if let Some((inner, token)) = self.0.take() {
            inner.inflight.end(token);
        }
    }
}

/// Guard for the periodic JSONL flusher started by [`Obs::start_flusher`].
/// Dropping it stops the background thread and flushes one last time.
#[derive(Debug)]
pub struct FlushHandle {
    obs: Obs,
    running: Option<(Sender<()>, JoinHandle<()>)>,
}

impl FlushHandle {
    /// Stop the flusher thread and write a final flush. Idempotent; also
    /// runs on drop.
    pub fn stop(&mut self) {
        if let Some((stop, thread)) = self.running.take() {
            drop(stop);
            let _ = thread.join();
            let _ = self.obs.flush();
        }
    }
}

impl Drop for FlushHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("jsonl_path", &self.jsonl_path())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        let mut span = obs.span("x");
        span.attr("k", 1i64);
        span.fail("nope");
        assert!(!span.enabled());
        assert_eq!(span.id(), None);
        drop(span);
        obs.incr("c", 1);
        obs.observe_ns("h", 10);
        let snap = obs.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.metrics.labeled_counters.is_empty());
        assert!(obs.flush().unwrap().is_none());
        assert!(obs.registry_observer().is_none());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::in_memory();
        let clone = obs.clone();
        drop(clone.span("a"));
        obs.incr("n", 2);
        let snap = clone.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.metrics.counter("n"), 2);
    }

    #[test]
    fn from_config_matches_variants() {
        assert!(!Obs::from_config(&ObsConfig::Off).is_enabled());
        assert!(Obs::from_config(&ObsConfig::InMemory).is_enabled());
        let obs = Obs::from_config(&ObsConfig::Jsonl(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(obs.jsonl_path(), Some(Path::new("/tmp/t.jsonl")));
    }

    #[test]
    fn flight_recorder_captures_slow_calls() {
        let obs = Obs::with_flight(&ObsConfig::InMemory, FlightConfig::with_threshold_ns(1));
        {
            let _call = obs.span("tool:select");
            let _child = obs.span("sql:execute");
            std::thread::sleep(Duration::from_millis(2));
        }
        let calls = obs.slow_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].root.name, "tool:select");
        assert_eq!(calls[0].spans.len(), 2);
        assert_eq!(obs.snapshot().metrics.counter("obs.slow_calls.captured"), 1);
    }

    #[test]
    fn uptime_gauge_is_registered_and_passthroughs_work() {
        let obs = Obs::in_memory();
        obs.incr_with("tool.calls", &[("tool", "select"), ("outcome", "ok")], 3);
        obs.observe_ns_with("tool.latency", &[("tool", "select")], 1_000);
        obs.register_gauge("queue.depth", &[], || 7.0);
        let snap = obs.snapshot().metrics;
        assert!(snap.gauge("process.uptime_seconds", &[]).is_some());
        assert_eq!(snap.gauge("queue.depth", &[]), Some(7.0));
        assert_eq!(
            snap.labeled_counter("tool.calls", &[("outcome", "ok"), ("tool", "select")]),
            3
        );
    }

    #[test]
    fn flusher_writes_periodically_and_on_drop() {
        let dir = std::env::temp_dir().join(format!("obs-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let obs = Obs::jsonl(&path);
        drop(obs.span("tool:x"));
        let handle = obs.start_flusher(Duration::from_millis(10)).unwrap();
        for _ in 0..100 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(path.exists(), "periodic flush never wrote the trace");
        drop(obs.span("tool:y"));
        drop(handle); // final flush must include the second span
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("tool:y"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_handle_telemetry_is_inert() {
        let obs = Obs::disabled();
        obs.incr_with("c", &[("a", "b")], 1);
        obs.observe_ns_with("h", &[], 5);
        obs.register_gauge("g", &[], || 1.0);
        assert!(obs.snapshot().metrics.gauges.is_empty());
        assert!(obs.flight_threshold_ns().is_none());
        assert!(obs.slow_calls().is_empty());
        assert!(obs.start_flusher(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn span_ids_are_unique_and_parents_nest() {
        let obs = Obs::in_memory();
        {
            let _root = obs.span("root");
            let _mid = obs.span("mid");
            drop(obs.span("leaf"));
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 3);
        validate_tree(&snap.spans).unwrap();
    }

    #[test]
    fn children_inherit_trace_and_roots_get_fresh_ones() {
        let obs = Obs::in_memory();
        {
            let _root = obs.span("root");
            drop(obs.span("child"));
        }
        drop(obs.span("other_root"));
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let root_trace = snap.spans[0].trace.expect("root has a trace");
        assert_eq!(snap.spans[1].trace, Some(root_trace));
        assert_ne!(snap.spans[2].trace, Some(root_trace));
        validate_tree(&snap.spans).unwrap();
    }

    #[test]
    fn adopted_context_joins_the_same_trace() {
        let obs = Obs::in_memory();
        let ctx = {
            let root = obs.span("wire:call");
            root.context()
        };
        // Simulate a worker thread picking the context up.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _scope = adopt_context(ctx);
                drop(obs.span("tool:select"));
            });
        });
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[1].trace, snap.spans[0].trace);
        assert_eq!(snap.spans[1].parent, Some(snap.spans[0].id));
    }

    #[test]
    fn inflight_registry_tracks_live_calls() {
        let obs = Obs::in_memory();
        let span = obs.span("wire:call");
        let guard = obs.begin_call("alice", "select");
        obs.note_statement("SELECT 1");
        let inner = obs.inner.as_ref().unwrap();
        let live = inner.inflight.snapshot();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].user, "alice");
        assert_eq!(live[0].trace, span.trace());
        assert_eq!(live[0].statement.as_deref(), Some("SELECT 1"));
        let json = obs.inflight_json().unwrap();
        assert_eq!(
            json.get("in_flight").and_then(toolproto::Json::as_i64),
            Some(1)
        );
        drop(guard);
        assert_eq!(inner.inflight.len(), 0);
        assert_eq!(
            obs.snapshot().metrics.gauge("obs.queries.in_flight", &[]),
            Some(0.0)
        );
    }

    #[test]
    fn statement_store_rides_the_handle() {
        let obs = Obs::in_memory();
        obs.record_statement("alice", "select $n", 500, 3, true, StatementOutcome::Ok);
        obs.record_statement(
            "alice",
            "select $n",
            700,
            4,
            false,
            StatementOutcome::Conflict,
        );
        let snap = obs.inner.as_ref().unwrap().statements.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].stats.calls, 2);
        assert_eq!(snap[0].stats.conflicts, 1);
        let metrics = obs.snapshot().metrics;
        assert_eq!(
            metrics.labeled_counter("stmt.calls", &[("outcome", "ok"), ("user", "alice")]),
            1
        );
        assert_eq!(metrics.gauge("obs.statements.entries", &[]), Some(1.0));
        assert!(obs.statements_json().is_some());
        // Disabled handles stay inert.
        let off = Obs::disabled();
        off.record_statement("u", "s", 1, 0, false, StatementOutcome::Ok);
        assert!(off.statements_json().is_none());
        assert!(off.inflight_json().is_none());
        let g = off.begin_call("u", "t");
        drop(g);
    }

    #[test]
    fn flight_dropped_counter_and_occupancy_gauge_are_wired() {
        let never_slow = FlightConfig::with_threshold_ns(u64::MAX);
        let obs = Obs::with_flight(&ObsConfig::InMemory, never_slow);
        // Errored trigger spans are captured whatever their duration.
        let (capacity, overflow) = (flight::SLOW_CALL_CAPACITY as u64, 3);
        for _ in 0..capacity + overflow {
            obs.span("tool:failing").fail("boom");
        }
        let metrics = obs.snapshot().metrics;
        let occupancy = metrics.gauge("obs.flight.ring_occupancy", &[]);
        assert_eq!(
            metrics.counter("obs.slow_calls.captured"),
            capacity + overflow
        );
        assert_eq!(metrics.counter("obs.flight.dropped_total"), overflow);
        assert_eq!(occupancy, Some(capacity as f64));
    }

    #[test]
    fn span_counts_are_counters_that_match_the_ring() {
        let obs = Obs::in_memory();
        for _ in 0..5 {
            drop(obs.span("x"));
        }
        let snap = obs.snapshot();
        assert_eq!(snap.metrics.counter("obs.spans.recorded"), 5);
        assert_eq!(snap.metrics.counter("obs.spans.dropped"), 0);
        assert_eq!(snap.spans.len(), 5);
        let counters = &snap.metrics.labeled_counters;
        assert!(counters.windows(2).all(|w| w[0].name <= w[1].name));
        let text = prom::render(&snap.metrics);
        assert!(text.contains("obs_spans_recorded_total 5"), "{text}");
    }
}
