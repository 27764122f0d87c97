//! Bridge between `toolproto`'s dispatch hook and the span/metrics kernel.
//!
//! [`RegistryObserver`] implements `toolproto::CallObserver`: every tool
//! call dispatched through an observed `Registry` becomes a `tool:{name}`
//! span (rows, outcome, ok/error) nested under whatever span is open on
//! the calling thread, and bumps per-tool call, error, denial, and latency
//! metrics.

use crate::span::SpanGuard;
use crate::Obs;
use std::cell::RefCell;
use toolproto::{CallObserver, ToolError, ToolResult};

thread_local! {
    /// Spans for calls that have begun but not yet ended on this thread.
    /// A stack suffices because dispatch is synchronous and re-entrant
    /// (a proxy call runs nested producer calls on worker threads or
    /// inline on the same thread).
    static OPEN_CALLS: RefCell<Vec<SpanGuard>> = const { RefCell::new(Vec::new()) };
}

/// Observer that records each registry dispatch as a span plus metrics.
///
/// Series: counter `tool.calls{tool,outcome}`, histogram
/// `tool.latency{tool}`, counter `tool.denied{code}` and the unlabeled
/// `tool.errors`. `tool` is a registered tool's name, or `unknown` for a
/// call that named no registered tool.
#[derive(Debug)]
pub struct RegistryObserver {
    obs: Obs,
}

impl RegistryObserver {
    /// Observer recording into `obs`.
    pub fn new(obs: Obs) -> Self {
        RegistryObserver { obs }
    }
}

/// Classify a tool result into the low-cardinality `outcome` label:
/// `ok`, `denied`, `conflict` (MVCC serialization conflict — the retry
/// storm signal), or `tool-error` for everything else.
pub(crate) fn outcome_of(result: &ToolResult) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(ToolError::Denied { .. }) => "denied",
        // minidb's SerializationConflict keeps this stable message prefix
        // through `db_error_to_tool`, so string matching here is reliable.
        Err(ToolError::Execution(msg)) if msg.contains("serialization conflict") => "conflict",
        Err(_) => "tool-error",
    }
}

impl CallObserver for RegistryObserver {
    fn begin(&self, tool: &str) -> u64 {
        let mut span = self.obs.span(&format!("tool:{tool}"));
        span.attr("tool", tool);
        let token = span.id().unwrap_or(0);
        let _ = OPEN_CALLS.try_with(|calls| calls.borrow_mut().push(span));
        token
    }

    fn end(&self, token: u64, tool: &str, result: &ToolResult) {
        let span = OPEN_CALLS
            .try_with(|calls| {
                let mut calls = calls.borrow_mut();
                calls
                    .iter()
                    .rposition(|s| s.id() == Some(token))
                    .map(|pos| calls.remove(pos))
            })
            .ok()
            .flatten();
        let Some(mut span) = span else {
            return;
        };

        // Series are named after tools of the surface only. A name the
        // registry does not know is client-controlled text: it stays on the
        // span (spans are capacity-bounded) and is counted under `unknown`,
        // so a peer cannot grow the metrics registry.
        let tool = match result {
            Err(ToolError::UnknownTool(_)) => "unknown",
            _ => tool,
        };
        let outcome = outcome_of(result);
        self.obs
            .incr_with("tool.calls", &[("tool", tool), ("outcome", outcome)], 1);
        span.attr("outcome", outcome);
        match result {
            Ok(out) => {
                span.attr("ok", true);
                if let Some(rows) = out.rows {
                    span.attr("rows", rows);
                }
            }
            Err(err) => {
                span.attr("ok", false);
                span.fail(err.to_string());
                self.obs.incr("tool.errors", 1);
                if let ToolError::Denied { code, context, .. } = err {
                    self.obs
                        .incr_with("tool.denied", &[("code", code.as_str())], 1);
                    for (key, value) in context.fields() {
                        span.attr(&format!("denial.{key}"), value);
                    }
                }
            }
        }
        self.obs
            .observe_ns_with("tool.latency", &[("tool", tool)], span.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_tree;
    use std::sync::Arc;
    use toolproto::{ArgSpec, ArgType, Args, FnTool, Json, Registry, Signature, ToolOutput};

    fn observed_registry(obs: &Obs) -> Registry {
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "echo",
            "echo",
            Signature::new(vec![ArgSpec::required("x", ArgType::Integer, "v")]),
            |args: &Args| Ok(ToolOutput::with_rows(args["x"].clone(), 3)),
        ));
        reg.register_tool(FnTool::new(
            "deny",
            "always denied",
            Signature::new(vec![]),
            |_: &Args| {
                Err(ToolError::denied_with(
                    "policy",
                    "object off-limits",
                    toolproto::DenialContext::default().with_object("secrets"),
                ))
            },
        ));
        reg.set_observer(obs.registry_observer().expect("enabled"));
        reg
    }

    #[test]
    fn calls_become_spans_and_metrics() {
        let obs = Obs::in_memory();
        let reg = observed_registry(&obs);
        reg.call("echo", &Json::object([("x", Json::num(1.0))]))
            .unwrap();
        reg.call("deny", &Json::object([] as [(&str, Json); 0]))
            .unwrap_err();
        reg.call("missing", &Json::Null).unwrap_err();

        let snap = obs.snapshot();
        validate_tree(&snap.spans).unwrap();
        assert_eq!(snap.spans.len(), 3);

        let echo = snap.spans.iter().find(|s| s.name == "tool:echo").unwrap();
        assert_eq!(echo.attr("rows"), Some(&crate::AttrValue::Int(3)));
        assert!(echo.error.is_none());

        let deny = snap.spans.iter().find(|s| s.name == "tool:deny").unwrap();
        assert_eq!(
            deny.attr("denial.object"),
            Some(&crate::AttrValue::Str("secrets".into()))
        );
        assert!(deny.error.as_deref().unwrap().contains("policy"));

        let m = &snap.metrics;
        assert_eq!(m.counter("tool.calls"), 3);
        assert_eq!(
            m.labeled_counter("tool.calls", &[("tool", "echo"), ("outcome", "ok")]),
            1
        );
        assert_eq!(m.counter("tool.errors"), 2);
        assert_eq!(m.counter("tool.denied"), 1);
        assert_eq!(m.labeled_counter("tool.denied", &[("code", "policy")]), 1);
        let latency = m.histogram("tool.latency", &[("tool", "echo")]);
        assert_eq!(latency.map(|h| h.count), Some(1));
    }

    #[test]
    fn unregistered_tool_names_do_not_mint_series() {
        let obs = Obs::in_memory();
        let reg = observed_registry(&obs);
        let series = |obs: &Obs| {
            let m = obs.snapshot().metrics;
            m.labeled_counters.len() + m.labeled_histograms.len()
        };
        reg.call("bogus-0", &Json::Null).unwrap_err();
        let before = series(&obs);
        for i in 1..1000 {
            reg.call(&format!("bogus-{i}"), &Json::Null).unwrap_err();
        }
        assert_eq!(series(&obs), before);
        let snap = obs.snapshot();
        assert_eq!(snap.metrics.counter("tool.errors"), 1000);
        assert_eq!(
            snap.metrics.labeled_counter(
                "tool.calls",
                &[("tool", "unknown"), ("outcome", "tool-error")]
            ),
            1000
        );
        // The raw name is still on the call's span.
        assert!(snap.spans.iter().any(|s| s.name == "tool:bogus-7"));
    }

    #[test]
    fn outcome_labels_classify_results() {
        let obs = Obs::in_memory();
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "ok",
            "succeeds",
            Signature::new(vec![]),
            |_: &Args| Ok(ToolOutput::value(Json::Null)),
        ));
        reg.register_tool(FnTool::new(
            "conflict",
            "mvcc conflict",
            Signature::new(vec![]),
            |_: &Args| {
                Err(ToolError::Execution(
                    "serialization conflict: concurrent write to users".into(),
                ))
            },
        ));
        reg.register_tool(FnTool::new(
            "boom",
            "plain failure",
            Signature::new(vec![]),
            |_: &Args| Err(ToolError::Execution("table missing".into())),
        ));
        reg.register_tool(FnTool::new(
            "deny",
            "denied",
            Signature::new(vec![]),
            |_: &Args| Err(ToolError::denied("policy", "no")),
        ));
        reg.set_observer(obs.registry_observer().expect("enabled"));
        let empty = Json::object([] as [(&str, Json); 0]);
        reg.call("ok", &empty).unwrap();
        reg.call("ok", &empty).unwrap();
        reg.call("conflict", &empty).unwrap_err();
        reg.call("boom", &empty).unwrap_err();
        reg.call("deny", &empty).unwrap_err();

        let snap = obs.snapshot();
        let m = &snap.metrics;
        assert_eq!(
            m.labeled_counter("tool.calls", &[("tool", "ok"), ("outcome", "ok")]),
            2
        );
        assert_eq!(
            m.labeled_counter(
                "tool.calls",
                &[("tool", "conflict"), ("outcome", "conflict")]
            ),
            1
        );
        assert_eq!(
            m.labeled_counter("tool.calls", &[("tool", "boom"), ("outcome", "tool-error")]),
            1
        );
        assert_eq!(
            m.labeled_counter("tool.calls", &[("tool", "deny"), ("outcome", "denied")]),
            1
        );
        let lat = m
            .histogram("tool.latency", &[("tool", "ok")])
            .expect("labeled latency series");
        assert_eq!(lat.count, 2);

        let conflict_span = snap
            .spans
            .iter()
            .find(|s| s.name == "tool:conflict")
            .unwrap();
        assert_eq!(
            conflict_span.attr("outcome"),
            Some(&crate::AttrValue::Str("conflict".into()))
        );
    }

    #[test]
    fn call_spans_nest_under_open_span() {
        let obs = Obs::in_memory();
        let reg = observed_registry(&obs);
        let root_id = {
            let root = obs.span("llm:call");
            reg.call("echo", &Json::object([("x", Json::num(1.0))]))
                .unwrap();
            root.id().unwrap()
        };
        let snap = obs.snapshot();
        let call = snap.spans.iter().find(|s| s.name == "tool:echo").unwrap();
        assert_eq!(call.parent, Some(root_id));
    }

    #[test]
    fn observer_works_across_threads() {
        let obs = Obs::in_memory();
        let reg = Arc::new(observed_registry(&obs));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..25 {
                        reg.call("echo", &Json::object([("x", Json::num(1.0))]))
                            .unwrap();
                    }
                });
            }
        });
        let snap = obs.snapshot();
        assert_eq!(
            snap.metrics
                .labeled_counter("tool.calls", &[("tool", "echo"), ("outcome", "ok")]),
            100
        );
        assert_eq!(snap.spans.len(), 100);
        validate_tree(&snap.spans).unwrap();
    }
}
