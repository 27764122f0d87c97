//! Retrieval cache: a transparent [`Tool`] wrapper for read-only context
//! tools (`get_schema`, `get_object`, `get_value`).
//!
//! The wrapper memoizes **successful** outputs keyed on the validated
//! argument map, stamped with the database generation read *before* the
//! wrapped tool runs (so a hit proves no commit has intervened since before
//! the cached execution — conservative, never stale). Errors and denials
//! are never cached: they must re-evaluate against live privileges and
//! policy, which also keeps a cached and an uncached surface byte-identical
//! in their denial behaviour.
//!
//! Each wrapped server owns its caches, so entries are naturally scoped to
//! one user under one negotiated policy — a restricted session can never be
//! served bytes computed for a wider one.

use crate::cache::GenCache;
use obs::Obs;
use std::sync::Arc;
use toolproto::{Args, Risk, Signature, Tool, ToolOutput, ToolResult};

/// A closure producing the current database generation (minidb's committed
/// version timestamp). Kept abstract so this crate needs no engine
/// dependency.
pub type GenerationSource = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Deterministic cache key for a validated argument map: the compact JSON
/// rendering of its (already sorted) entries.
pub(crate) fn args_key(args: &Args) -> String {
    let mut key = String::from("{");
    for (i, (name, value)) in args.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(name);
        key.push(':');
        key.push_str(&value.to_compact());
    }
    key.push('}');
    key
}

/// A caching wrapper around a read-only tool. Fully transparent: name,
/// description, signature, and risk delegate to the inner tool, so agents
/// and prompts cannot tell a cached surface from a plain one.
pub struct CachedTool {
    inner: Arc<dyn Tool>,
    cache: Arc<GenCache<ToolOutput>>,
    generation: GenerationSource,
    obs: Obs,
}

impl CachedTool {
    /// Wrap `inner` with a cache of `capacity` entries invalidated through
    /// `generation`.
    pub fn new(
        inner: Arc<dyn Tool>,
        capacity: usize,
        generation: GenerationSource,
        obs: Obs,
    ) -> Self {
        CachedTool {
            inner,
            cache: Arc::new(GenCache::new(capacity)),
            generation,
            obs,
        }
    }

    /// The underlying cache, for stats and gauge registration.
    pub fn cache(&self) -> &Arc<GenCache<ToolOutput>> {
        &self.cache
    }
}

impl Tool for CachedTool {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn signature(&self) -> &Signature {
        self.inner.signature()
    }

    fn risk(&self) -> Risk {
        self.inner.risk()
    }

    fn invoke(&self, args: &Args) -> ToolResult {
        // The gate's own span: under the enclosing `tool:{name}` span, so a
        // cross-layer trace shows whether the gate short-circuited the call.
        let mut span = self.obs.span("gate:cache");
        if span.enabled() {
            span.attr("tool", self.inner.name());
        }
        let key = args_key(args);
        // Read the generation *before* invoking: the wrapped call executes
        // against a snapshot at least this new, so an entry stamped here is
        // returned only while no later commit exists.
        let generation = (self.generation)();
        if let Some(out) = self.cache.get(&key, generation) {
            span.attr("hit", true);
            self.obs.incr_with(
                "gate.cache",
                &[("tool", self.inner.name()), ("hit", "true")],
                1,
            );
            return Ok(out);
        }
        span.attr("hit", false);
        let result = self.inner.invoke(args);
        self.obs.incr_with(
            "gate.cache",
            &[("tool", self.inner.name()), ("hit", "false")],
            1,
        );
        if let Ok(out) = &result {
            self.cache.put(key, out.clone(), generation);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use toolproto::{ArgSpec, ArgType, FnTool, Json, Registry, ToolError};

    fn counting_tool(calls: Arc<AtomicU64>) -> FnTool<impl Fn(&Args) -> ToolResult> {
        FnTool::new(
            "probe",
            "returns its argument and counts invocations",
            Signature::new(vec![ArgSpec::required("x", ArgType::String, "echoed")]),
            move |args: &Args| {
                calls.fetch_add(1, Ordering::Relaxed);
                if args["x"].as_str() == Some("boom") {
                    return Err(ToolError::Execution("boom".into()));
                }
                Ok(ToolOutput::value(args["x"].clone()))
            },
        )
    }

    fn registry_with(generation: Arc<AtomicU64>, calls: Arc<AtomicU64>) -> Registry {
        let gen_source: GenerationSource = Arc::new(move || generation.load(Ordering::Relaxed));
        let mut reg = Registry::new();
        reg.register_tool(CachedTool::new(
            Arc::new(counting_tool(calls)),
            8,
            gen_source,
            Obs::disabled(),
        ));
        reg
    }

    fn payload(x: &str) -> Json {
        Json::object([("x", Json::str(x))])
    }

    #[test]
    fn repeated_calls_hit_until_generation_bumps() {
        let generation = Arc::new(AtomicU64::new(1));
        let calls = Arc::new(AtomicU64::new(0));
        let reg = registry_with(Arc::clone(&generation), Arc::clone(&calls));
        let a = reg.call("probe", &payload("v")).unwrap();
        let b = reg.call("probe", &payload("v")).unwrap();
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "second call was a hit");
        generation.fetch_add(1, Ordering::Relaxed);
        reg.call("probe", &payload("v")).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2, "bump forces re-execution");
    }

    #[test]
    fn distinct_args_are_distinct_entries() {
        let generation = Arc::new(AtomicU64::new(1));
        let calls = Arc::new(AtomicU64::new(0));
        let reg = registry_with(generation, Arc::clone(&calls));
        reg.call("probe", &payload("a")).unwrap();
        reg.call("probe", &payload("b")).unwrap();
        reg.call("probe", &payload("a")).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn errors_are_never_cached() {
        let generation = Arc::new(AtomicU64::new(1));
        let calls = Arc::new(AtomicU64::new(0));
        let reg = registry_with(generation, Arc::clone(&calls));
        reg.call("probe", &payload("boom")).unwrap_err();
        reg.call("probe", &payload("boom")).unwrap_err();
        assert_eq!(calls.load(Ordering::Relaxed), 2, "errors re-execute");
    }

    #[test]
    fn wrapper_is_transparent() {
        let generation = Arc::new(AtomicU64::new(1));
        let calls = Arc::new(AtomicU64::new(0));
        let plain = counting_tool(calls);
        let gen_source: GenerationSource = Arc::new(move || generation.load(Ordering::Relaxed));
        let wrapped = CachedTool::new(
            Arc::new(counting_tool(Arc::new(AtomicU64::new(0)))),
            8,
            gen_source,
            Obs::disabled(),
        );
        assert_eq!(wrapped.name(), plain.name());
        assert_eq!(wrapped.description(), plain.description());
        assert_eq!(wrapped.risk(), plain.risk());
    }
}
