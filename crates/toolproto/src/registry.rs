//! Tool registries: the session-visible tool surface.
//!
//! A [`Registry`] is what an agent "sees": the set of tools it may call.
//! BridgeScope's action-level modularization (§2.3 of the paper) works by
//! assembling a *different registry per user* — read-only users simply never
//! receive the `insert`/`update`/`delete` tools. The registry also renders
//! the tool prompt that enters the LLM context, so registry contents directly
//! shape token accounting.

use crate::json::Json;
use crate::tool::{Args, Risk, Tool, ToolError, ToolResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hook invoked around every dispatched tool call, used by the `obs` crate
/// to wrap invocations in spans and bump per-tool metrics without making
/// `toolproto` depend on the observability kernel.
///
/// `begin` runs before tool lookup/validation (so unknown-tool and bad-args
/// failures are observed too) and returns an opaque token that is handed
/// back to `end` together with the result. The registry never sizes a
/// payload: bytes are counted where they cross a boundary (the proxy's
/// hand-offs, the wire's frames), not on every dispatch.
pub trait CallObserver: Send + Sync {
    /// A call named `tool` is starting.
    fn begin(&self, tool: &str) -> u64;

    /// The call identified by `token` finished with `result`.
    fn end(&self, token: u64, tool: &str, result: &ToolResult);
}

/// A named collection of tools. Cheap to clone (tools are `Arc`ed); clones
/// share the attached [`CallObserver`], if any.
///
/// Enumeration order ([`Registry::iter`], [`Registry::names`],
/// [`Registry::render_prompt`]) is **stable insertion order**: tools appear
/// exactly in the order they were registered, and re-registering a name
/// keeps its original position. Servers rely on this to make `tools/list`
/// responses and rendered prompts byte-stable across runs.
#[derive(Clone, Default)]
pub struct Registry {
    /// Registration order; parallel key list for `tools`.
    order: Vec<String>,
    tools: BTreeMap<String, Arc<dyn Tool>>,
    observer: Option<Arc<dyn CallObserver>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a tool. Replaces any existing tool with the same name
    /// (keeping its original position in enumeration order).
    pub fn register(&mut self, tool: Arc<dyn Tool>) {
        let name = tool.name().to_owned();
        if self.tools.insert(name.clone(), tool).is_none() {
            self.order.push(name);
        }
    }

    /// Register a concrete tool value.
    pub fn register_tool<T: Tool + 'static>(&mut self, tool: T) {
        self.register(Arc::new(tool));
    }

    /// Remove a tool by name; returns whether it was present.
    pub fn unregister(&mut self, name: &str) -> bool {
        if self.tools.remove(name).is_some() {
            self.order.retain(|n| n != name);
            true
        } else {
            false
        }
    }

    /// Look up a tool.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Tool>> {
        self.tools.get(name)
    }

    /// Whether a tool with this name is exposed.
    pub fn contains(&self, name: &str) -> bool {
        self.tools.contains_key(name)
    }

    /// Number of exposed tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Names of all exposed tools, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.order.iter().map(String::as_str).collect()
    }

    /// Iterate over tools in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Tool>> {
        self.order
            .iter()
            .map(|name| self.tools.get(name).expect("order tracks tools"))
    }

    /// Merge another registry into this one (other wins on name clashes).
    pub fn extend(&mut self, other: &Registry) {
        for tool in other.iter() {
            self.register(Arc::clone(tool));
        }
    }

    /// A copy of this registry without tools whose names are in `blocked`
    /// and without tools above the `max_risk` threshold. This implements the
    /// user-side white/black-list filtering of the paper's §2.3. The
    /// attached observer (if any) carries over to the filtered copy.
    pub fn filtered(&self, blocked: &[String], max_risk: Risk) -> Registry {
        let mut out = Registry::new();
        for tool in self.iter() {
            if tool.risk() <= max_risk && !blocked.iter().any(|b| b == tool.name()) {
                out.register(Arc::clone(tool));
            }
        }
        out.observer = self.observer.clone();
        out
    }

    /// Attach an observer notified around every `call`/`call_owned`.
    pub fn set_observer(&mut self, observer: Arc<dyn CallObserver>) {
        self.observer = Some(observer);
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn CallObserver>> {
        self.observer.as_ref()
    }

    fn dispatch(&self, name: &str, payload: Json) -> ToolResult {
        let tool = self
            .get(name)
            .ok_or_else(|| ToolError::UnknownTool(name.to_owned()))?;
        let args: Args = tool.signature().validate_owned(payload)?;
        tool.invoke(&args)
    }

    /// Validate arguments against the named tool's signature and invoke it.
    pub fn call(&self, name: &str, payload: &Json) -> ToolResult {
        self.call_owned(name, payload.clone())
    }

    /// [`Registry::call`] by value: the payload's values move into the
    /// validated arguments. Callers that built the payload for this call
    /// (the wire server, the proxy handing a producer's rows to the
    /// consumer) use this; a large argument is then never copied.
    pub fn call_owned(&self, name: &str, payload: Json) -> ToolResult {
        let Some(observer) = &self.observer else {
            return self.dispatch(name, payload);
        };
        let token = observer.begin(name);
        let result = self.dispatch(name, payload);
        observer.end(token, name, &result);
        result
    }

    /// Render the tool prompt: one block per tool with name, signature, and
    /// description. This text is injected into the simulated LLM context.
    pub fn render_prompt(&self) -> String {
        let mut out = String::new();
        for tool in self.iter() {
            out.push_str("- ");
            out.push_str(tool.name());
            out.push_str(tool.signature().render().as_str());
            out.push_str(": ");
            out.push_str(tool.description());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("tools", &self.names())
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ArgSpec, ArgType, Signature};
    use crate::tool::{FnTool, ToolOutput};

    fn make(name: &str, risk: Risk) -> Arc<dyn Tool> {
        Arc::new(
            FnTool::new(
                name,
                format!("tool {name}"),
                Signature::new(vec![ArgSpec::optional(
                    "x",
                    ArgType::Integer,
                    "value",
                    Json::num(0.0),
                )]),
                move |args: &Args| Ok(ToolOutput::value(args["x"].clone())),
            )
            .with_risk(risk),
        )
    }

    #[test]
    fn register_lookup_call() {
        let mut reg = Registry::new();
        reg.register(make("select", Risk::Safe));
        assert!(reg.contains("select"));
        let out = reg
            .call("select", &Json::object([("x", Json::num(7.0))]))
            .unwrap();
        assert_eq!(out.value.as_i64(), Some(7));
    }

    #[test]
    fn unknown_tool_error() {
        let reg = Registry::new();
        let err = reg.call("nope", &Json::Null).unwrap_err();
        assert_eq!(err, ToolError::UnknownTool("nope".into()));
    }

    #[test]
    fn invalid_args_rejected_before_invoke() {
        let mut reg = Registry::new();
        reg.register(make("t", Risk::Safe));
        let err = reg
            .call("t", &Json::object([("x", Json::str("not a number"))]))
            .unwrap_err();
        assert!(matches!(err, ToolError::InvalidArgs(_)));
    }

    #[test]
    fn filtered_by_risk_and_blocklist() {
        let mut reg = Registry::new();
        reg.register(make("select", Risk::Safe));
        reg.register(make("insert", Risk::Mutating));
        reg.register(make("drop", Risk::Destructive));
        let ro = reg.filtered(&[], Risk::Safe);
        assert_eq!(ro.names(), vec!["select"]);
        let no_drop = reg.filtered(&["drop".to_string()], Risk::Destructive);
        assert_eq!(no_drop.names(), vec!["select", "insert"]);
    }

    #[test]
    fn prompt_lists_all_tools() {
        let mut reg = Registry::new();
        reg.register(make("b_tool", Risk::Safe));
        reg.register(make("a_tool", Risk::Safe));
        let prompt = reg.render_prompt();
        let a = prompt.find("a_tool").unwrap();
        let b = prompt.find("b_tool").unwrap();
        assert!(b < a, "prompt follows registration order");
        assert!(prompt.contains("(x?: integer)"));
    }

    #[test]
    fn enumeration_is_stable_insertion_order() {
        // Regression test for the wire layer: `tools/list` responses and
        // rendered prompts must be byte-stable across identically built
        // registries, and follow registration order (not name order).
        let build = || {
            let mut reg = Registry::new();
            reg.register(make("zeta", Risk::Safe));
            reg.register(make("alpha", Risk::Safe));
            reg.register(make("mid", Risk::Mutating));
            reg
        };
        let mut reg = build();
        assert_eq!(reg.names(), vec!["zeta", "alpha", "mid"]);
        assert_eq!(reg.render_prompt(), build().render_prompt());

        // Replacement keeps the original slot; unregister frees it.
        reg.register(make("alpha", Risk::Mutating));
        assert_eq!(reg.names(), vec!["zeta", "alpha", "mid"]);
        assert_eq!(reg.get("alpha").unwrap().risk(), Risk::Mutating);
        assert!(reg.unregister("zeta"));
        reg.register(make("zeta", Risk::Safe));
        assert_eq!(reg.names(), vec!["alpha", "mid", "zeta"]);

        // Filtering and merging preserve relative order.
        let unblocked = reg.filtered(&["mid".to_string()], Risk::Destructive);
        assert_eq!(unblocked.names(), vec!["alpha", "zeta"]);
        let mut merged = Registry::new();
        merged.register(make("first", Risk::Safe));
        merged.extend(&reg);
        assert_eq!(merged.names(), vec!["first", "alpha", "mid", "zeta"]);
        let iterated: Vec<&str> = merged.iter().map(|t| t.name()).collect();
        assert_eq!(iterated, merged.names());
    }

    #[test]
    fn observer_sees_success_error_and_unknown_calls() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Counting {
            next: AtomicU64,
            begun: AtomicU64,
            ok: AtomicU64,
            err: AtomicU64,
        }
        impl CallObserver for Counting {
            fn begin(&self, _tool: &str) -> u64 {
                self.begun.fetch_add(1, Ordering::Relaxed);
                self.next.fetch_add(1, Ordering::Relaxed)
            }
            fn end(&self, _token: u64, _tool: &str, result: &ToolResult) {
                match result {
                    Ok(_) => self.ok.fetch_add(1, Ordering::Relaxed),
                    Err(_) => self.err.fetch_add(1, Ordering::Relaxed),
                };
            }
        }

        let counting = Arc::new(Counting::default());
        let mut reg = Registry::new();
        reg.register(make("select", Risk::Safe));
        reg.set_observer(Arc::clone(&counting) as Arc<dyn CallObserver>);
        assert!(reg.observer().is_some());

        let payload = Json::object([("x", Json::num(7.0))]);
        reg.call("select", &payload).unwrap();
        reg.call("nope", &Json::Null).unwrap_err();
        reg.call_owned("select", payload).unwrap();

        assert_eq!(counting.begun.load(Ordering::Relaxed), 3);
        assert_eq!(counting.ok.load(Ordering::Relaxed), 2);
        assert_eq!(counting.err.load(Ordering::Relaxed), 1);

        // The observer survives filtering.
        assert!(reg.filtered(&[], Risk::Safe).observer().is_some());
    }

    #[test]
    fn extend_merges() {
        let mut a = Registry::new();
        a.register(make("one", Risk::Safe));
        let mut b = Registry::new();
        b.register(make("two", Risk::Safe));
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }
}
