//! Hierarchical spans: records, attribute values, guards, and the
//! thread-local parent stack that links child spans to their parents.
//!
//! A span is opened with [`crate::Obs::span`], annotated through the returned
//! [`SpanGuard`], and recorded into the sink when the guard drops. Parentage
//! is implicit: while a guard is alive on a thread, spans opened on that same
//! thread become its children. Work that hops threads (the proxy's scoped
//! producer workers) carries parentage across explicitly with
//! [`adopt_context`].

use crate::trace::TraceId;
use crate::ObsInner;
use std::cell::RefCell;
use std::sync::Arc;

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute (tool names, SQL snippets, outcome labels).
    Str(String),
    /// An integer attribute (byte counts, row counts, depths).
    Int(i64),
    /// A floating-point attribute.
    Float(f64),
    /// A boolean attribute (ok/error flags).
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A finished span as stored in the sink and serialized to JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within one [`crate::Obs`] handle (starts at 1).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `task`, `llm:call`, `tool:select`, `sql:execute`.
    pub name: String,
    /// Trace this span belongs to. Spans recorded by this crate always
    /// carry one (inherited from the enclosing span, or fresh for roots);
    /// `None` survives only for records parsed from pre-trace JSONL.
    pub trace: Option<TraceId>,
    /// Start time in nanoseconds since the handle's epoch (monotonic clock).
    pub start_ns: u64,
    /// End time in nanoseconds since the handle's epoch; `>= start_ns`.
    pub end_ns: u64,
    /// Error message when the spanned operation failed.
    pub error: Option<String>,
    /// Attributes in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up an attribute by key (first match wins).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

thread_local! {
    /// Stack of open span ids and adopted parents on this thread; the top is
    /// the current parent (`None`: an adopted context with no parent, so new
    /// spans are roots whatever is open beneath it).
    static PARENT_STACK: RefCell<Vec<Option<u64>>> = const { RefCell::new(Vec::new()) };
    /// Stack of trace ids mirroring [`PARENT_STACK`]; the top is the trace
    /// new spans join (`None`: each starts a fresh one).
    static TRACE_STACK: RefCell<Vec<Option<TraceId>>> = const { RefCell::new(Vec::new()) };
}

/// The id of the innermost open span on this thread, if any.
pub(crate) fn current_parent() -> Option<u64> {
    PARENT_STACK
        .try_with(|s| s.borrow().last().copied())
        .ok()
        .flatten()
        .flatten()
}

/// The trace id new spans on this thread would join, if any.
pub(crate) fn current_trace() -> Option<TraceId> {
    TRACE_STACK
        .try_with(|s| s.borrow().last().copied())
        .ok()
        .flatten()
        .flatten()
}

fn push_parent(id: Option<u64>) {
    let _ = PARENT_STACK.try_with(|s| s.borrow_mut().push(id));
}

fn pop_parent(id: Option<u64>) {
    let _ = PARENT_STACK.try_with(|s| {
        let mut stack = s.borrow_mut();
        // Guards usually drop in LIFO order, but cross-thread storage (the
        // registry observer's open-call stack) can reorder drops; remove the
        // matching entry wherever it sits.
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            stack.remove(pos);
        }
    });
}

fn push_trace(trace: Option<TraceId>) {
    let _ = TRACE_STACK.try_with(|s| s.borrow_mut().push(trace));
}

fn pop_trace(trace: Option<TraceId>) {
    let _ = TRACE_STACK.try_with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&x| x == trace) {
            stack.remove(pos);
        }
    });
}

/// Span linkage that can be captured on one thread and adopted on another:
/// the current trace id plus the innermost open span id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace id spans opened under this context join (fresh root if `None`).
    pub trace: Option<TraceId>,
    /// Span id spans opened under this context become children of.
    pub parent: Option<u64>,
}

/// Adopt a [`SpanContext`] on the current thread: while the returned scope
/// is alive, spans opened here join `ctx.trace` and become children of
/// `ctx.parent`, whatever spans the thread has open — a context with no
/// parent makes them roots, one with no trace starts fresh traces. This is
/// how one trace id survives thread hops (proxy producers) and process hops
/// (the wire's `traceparent`).
#[must_use = "context adoption lasts only while the scope is alive"]
pub fn adopt_context(ctx: SpanContext) -> ParentScope {
    push_trace(ctx.trace);
    push_parent(ctx.parent);
    ParentScope {
        parent: ctx.parent,
        trace: ctx.trace,
    }
}

/// Guard returned by [`adopt_context`]; restores the thread's
/// parent and trace stacks on drop.
#[derive(Debug)]
pub struct ParentScope {
    parent: Option<u64>,
    trace: Option<TraceId>,
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        pop_parent(self.parent);
        pop_trace(self.trace);
    }
}

pub(crate) struct OpenSpan {
    pub(crate) inner: Arc<ObsInner>,
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) trace: TraceId,
    pub(crate) name: String,
    pub(crate) start_ns: u64,
    pub(crate) error: Option<String>,
    pub(crate) attrs: Vec<(String, AttrValue)>,
}

/// An open span. Annotate it with [`SpanGuard::attr`] / [`SpanGuard::fail`];
/// dropping the guard closes the span and records it. When the owning
/// [`crate::Obs`] handle is disabled every method is a no-op.
#[must_use = "a span is recorded when its guard drops"]
pub struct SpanGuard(pub(crate) Option<OpenSpan>);

impl SpanGuard {
    /// A guard that records nothing (disabled observability).
    pub(crate) fn disabled() -> Self {
        SpanGuard(None)
    }

    pub(crate) fn open(inner: Arc<ObsInner>, name: &str) -> Self {
        let id = inner.next_span_id();
        let parent = current_parent();
        // Join the ambient trace, or start a new one when this is a root.
        let trace = current_trace().unwrap_or_else(crate::trace::next_trace_id);
        let start_ns = inner.now_ns();
        push_parent(Some(id));
        push_trace(Some(trace));
        SpanGuard(Some(OpenSpan {
            inner,
            id,
            parent,
            trace,
            name: name.to_owned(),
            start_ns,
            error: None,
            attrs: Vec::new(),
        }))
    }

    /// Whether this guard records anything. Use to skip attribute
    /// computations (byte sizes, plan walks) when observability is off.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// This span's id, when enabled.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }

    /// The trace this span belongs to, when enabled.
    pub fn trace(&self) -> Option<TraceId> {
        self.0.as_ref().map(|s| s.trace)
    }

    /// This span's linkage as a [`SpanContext`], for adoption on another
    /// thread (or injection into a wire request).
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace: self.trace(),
            parent: self.id(),
        }
    }

    /// Attach an attribute (appended; duplicate keys are kept in order).
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(open) = self.0.as_mut() {
            open.attrs.push((key.to_owned(), value.into()));
        }
    }

    /// Mark the span as failed with an error message.
    pub fn fail(&mut self, message: impl Into<String>) {
        if let Some(open) = self.0.as_mut() {
            open.error = Some(message.into());
        }
    }

    /// Nanoseconds elapsed since the span opened (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map(|s| s.inner.now_ns().saturating_sub(s.start_ns))
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            pop_parent(Some(open.id));
            pop_trace(Some(open.trace));
            let end_ns = open.inner.now_ns().max(open.start_ns);
            let record = SpanRecord {
                id: open.id,
                parent: open.parent,
                trace: Some(open.trace),
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                error: open.error,
                attrs: open.attrs,
            };
            open.inner.record(record);
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("SpanGuard(disabled)"),
            Some(open) => f
                .debug_struct("SpanGuard")
                .field("id", &open.id)
                .field("name", &open.name)
                .finish(),
        }
    }
}

/// Check structural integrity of a span set: ids unique, parents exist, no
/// parent cycles, durations non-negative, and every child's interval nested
/// inside its parent's (children close before their parents).
///
/// Returns a description of the first violation found.
pub fn validate_tree(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    for span in spans {
        if by_id.insert(span.id, span).is_some() {
            return Err(format!("duplicate span id {}", span.id));
        }
    }
    for span in spans {
        if span.end_ns < span.start_ns {
            return Err(format!(
                "span {} ({}) ends before it starts",
                span.id, span.name
            ));
        }
        if let Some(pid) = span.parent {
            let parent = by_id
                .get(&pid)
                .ok_or_else(|| format!("span {} has unknown parent {pid}", span.id))?;
            if let (Some(child_trace), Some(parent_trace)) = (span.trace, parent.trace) {
                if child_trace != parent_trace {
                    return Err(format!(
                        "span {} ({}) trace {child_trace} differs from parent {} trace {parent_trace}",
                        span.id, span.name, parent.id
                    ));
                }
            }
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                    span.id,
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    parent.id,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                ));
            }
        }
        // Walk the parent chain; more hops than spans means a cycle.
        let mut hops = 0usize;
        let mut cursor = span.parent;
        while let Some(pid) = cursor {
            hops += 1;
            if hops > spans.len() {
                return Err(format!("parent cycle reached from span {}", span.id));
            }
            cursor = by_id.get(&pid).and_then(|p| p.parent);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: TraceId::from_u128(7),
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            error: None,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn validate_accepts_nested_tree() {
        let spans = vec![
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 50),
            rec(3, Some(2), 20, 30),
        ];
        assert!(validate_tree(&spans).is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let spans = vec![rec(1, None, 0, 10), rec(1, None, 0, 10)];
        assert!(validate_tree(&spans).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_missing_parent() {
        let spans = vec![rec(2, Some(9), 0, 10)];
        assert!(validate_tree(&spans)
            .unwrap_err()
            .contains("unknown parent"));
    }

    #[test]
    fn validate_rejects_child_escaping_parent() {
        let spans = vec![rec(1, None, 10, 20), rec(2, Some(1), 5, 30)];
        assert!(validate_tree(&spans).unwrap_err().contains("escapes"));
    }

    #[test]
    fn validate_rejects_negative_duration() {
        let spans = vec![rec(1, None, 20, 10)];
        assert!(validate_tree(&spans).unwrap_err().contains("ends before"));
    }

    #[test]
    fn validate_rejects_trace_mismatch() {
        let mut spans = vec![rec(1, None, 0, 100), rec(2, Some(1), 10, 50)];
        spans[1].trace = TraceId::from_u128(8);
        assert!(validate_tree(&spans)
            .unwrap_err()
            .contains("differs from parent"));
    }

    #[test]
    fn adopt_context_carries_trace_onto_scope() {
        let trace = TraceId::from_u128(42).unwrap();
        assert_eq!(current_trace(), None);
        {
            let _scope = adopt_context(SpanContext {
                trace: Some(trace),
                parent: Some(9),
            });
            assert_eq!(current_trace(), Some(trace));
            assert_eq!(current_parent(), Some(9));
        }
        assert_eq!(current_trace(), None);
        assert_eq!(current_parent(), None);
    }

    #[test]
    fn a_parentless_context_masks_what_the_thread_has_open() {
        let (outer, adopted) = (TraceId::from_u128(1), TraceId::from_u128(2));
        let _open = adopt_context(SpanContext {
            trace: outer,
            parent: Some(5),
        });
        {
            let _root = adopt_context(SpanContext {
                trace: adopted,
                parent: None,
            });
            assert_eq!((current_trace(), current_parent()), (adopted, None));
            let _fresh = adopt_context(SpanContext::default());
            assert_eq!((current_trace(), current_parent()), (None, None));
        }
        assert_eq!((current_trace(), current_parent()), (outer, Some(5)));
    }

    #[test]
    fn attr_lookup_finds_first_match() {
        let mut span = rec(1, None, 0, 1);
        span.attrs.push(("k".into(), AttrValue::Int(1)));
        span.attrs.push(("k".into(), AttrValue::Int(2)));
        assert_eq!(span.attr("k"), Some(&AttrValue::Int(1)));
        assert_eq!(span.attr("missing"), None);
    }
}
