//! F4 — the proxy mechanism for inter-tool data transmission.
//!
//! A proxy unit is the paper's ⟨p, c, f⟩ triple: data producers `p`, a
//! consumer tool `c`, and an adaptation function `f`. Units nest — a unit can
//! act as a producer for a higher-level unit — and the proxy executes the
//! hierarchy bottom-up, forwarding data *directly between tools* so bulk
//! results never enter the LLM context. Sibling producers run in parallel
//! (std scoped threads), reproducing the paper's §2.5 efficiency claim.
//!
//! ## Wire format of the `proxy` tool
//!
//! ```json
//! {
//!   "target_tool": "train_linear_regression",
//!   "tool_args": {
//!     "data":   {"tool": "select", "args": {"sql": "…"}, "transform": "/rows"},
//!     "extra":  {"unit": { …nested unit… }, "transform": "identity"},
//!     "both":   {"producers": [ {…}, {…} ], "transform": "identity"},
//!     "target": {"value": "median_house_value"}
//!   }
//! }
//! ```
//!
//! Transforms `f`: `"identity"` passes the producer output through; a string
//! starting with `/` is applied as an RFC-6901 JSON pointer (e.g. `"/rows"`
//! unwraps a query result to its row array).

use obs::{Obs, SpanGuard};
use std::sync::Arc;
use toolproto::{Args, FnTool, Json, Registry, Risk, Signature, Tool, ToolError, ToolOutput};

/// Maximum nesting depth of proxy units (a safety valve; the NL2ML
/// benchmark's hardest tasks use 3).
pub const MAX_PROXY_DEPTH: usize = 16;

/// The adaptation function `f` of a proxy unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transform {
    /// Pass the producer output through unchanged.
    Identity,
    /// Apply an RFC-6901 JSON pointer to the producer output.
    Pointer(String),
}

impl Transform {
    fn parse(spec: Option<&Json>) -> Result<Transform, ToolError> {
        match spec {
            None => Ok(Transform::Identity),
            Some(Json::Str(s)) if s == "identity" => Ok(Transform::Identity),
            Some(Json::Str(s)) if s.starts_with('/') => Ok(Transform::Pointer(s.clone())),
            Some(other) => Err(ToolError::Execution(format!(
                "unknown transform {other}; use \"identity\" or a JSON pointer"
            ))),
        }
    }

    /// Adapt a producer's output, by value: a pointer transform moves the
    /// addressed sub-document (typically the row array) out of the output
    /// and drops the rest; nothing is copied.
    fn apply(&self, value: Json) -> Result<Json, ToolError> {
        match self {
            Transform::Identity => Ok(value),
            Transform::Pointer(p) => value.take_pointer(p).ok_or_else(|| {
                ToolError::Execution(format!("transform pointer '{p}' did not match the output"))
            }),
        }
    }
}

/// A data producer: a direct tool call or a nested unit.
#[derive(Debug, Clone)]
pub enum Source {
    /// Invoke a tool with literal arguments.
    Tool {
        /// Tool name.
        name: String,
        /// Arguments passed verbatim.
        args: Json,
    },
    /// Execute a nested proxy unit.
    Unit(Box<ProxyUnit>),
}

/// A producer plus its adaptation function.
#[derive(Debug, Clone)]
pub struct Producer {
    /// Where the data comes from.
    pub source: Source,
    /// How it is adapted for the consumer.
    pub transform: Transform,
}

/// How one consumer argument is filled.
#[derive(Debug, Clone)]
pub enum ArgBinding {
    /// A literal value.
    Value(Json),
    /// A single producer.
    One(Producer),
    /// Several producers; the argument receives the array of their outputs.
    Many(Vec<Producer>),
}

/// A parsed proxy unit ⟨p, c, f⟩.
#[derive(Debug, Clone)]
pub struct ProxyUnit {
    /// The consumer tool `c`.
    pub target_tool: String,
    /// Argument bindings (producers `p` with transforms `f`, plus literals).
    pub args: Vec<(String, ArgBinding)>,
}

impl ProxyUnit {
    /// Parse a unit from its wire JSON.
    pub fn parse(value: &Json) -> Result<ProxyUnit, ToolError> {
        Self::parse_members(value.get("target_tool"), value.get("tool_args"))
    }

    /// Parse a unit from its two members, wherever they are held: an object
    /// ([`ProxyUnit::parse`]) or the `proxy` tool's validated arguments.
    fn parse_members(
        target_tool: Option<&Json>,
        tool_args: Option<&Json>,
    ) -> Result<ProxyUnit, ToolError> {
        let target_tool = target_tool
            .and_then(Json::as_str)
            .ok_or_else(|| ToolError::Execution("proxy unit needs 'target_tool'".into()))?
            .to_owned();
        let mut args = Vec::new();
        if let Some(map) = tool_args.and_then(Json::as_object) {
            for (name, spec) in map {
                args.push((name.clone(), Self::parse_binding(spec)?));
            }
        }
        Ok(ProxyUnit { target_tool, args })
    }

    fn parse_binding(spec: &Json) -> Result<ArgBinding, ToolError> {
        let obj = spec.as_object().ok_or_else(|| {
            ToolError::Execution(format!(
                "argument spec must be an object with 'value', 'tool', 'unit', or 'producers'; got {spec}"
            ))
        })?;
        if let Some(v) = obj.get("value") {
            return Ok(ArgBinding::Value(v.clone()));
        }
        if obj.contains_key("producers") {
            let list = obj["producers"]
                .as_array()
                .ok_or_else(|| ToolError::Execution("'producers' must be an array".into()))?;
            let producers = list
                .iter()
                .map(Self::parse_producer)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(ArgBinding::Many(producers));
        }
        Ok(ArgBinding::One(Self::parse_producer(spec)?))
    }

    fn parse_producer(spec: &Json) -> Result<Producer, ToolError> {
        let transform = Transform::parse(spec.get("transform"))?;
        if let Some(name) = spec.get("tool").and_then(Json::as_str) {
            return Ok(Producer {
                source: Source::Tool {
                    name: name.to_owned(),
                    args: spec.get("args").cloned().unwrap_or(Json::Null),
                },
                transform,
            });
        }
        if let Some(unit) = spec.get("unit") {
            return Ok(Producer {
                source: Source::Unit(Box::new(ProxyUnit::parse(unit)?)),
                transform,
            });
        }
        Err(ToolError::Execution(
            "producer needs 'tool' or 'unit'".into(),
        ))
    }

    /// Count the nesting depth of this unit.
    pub fn depth(&self) -> usize {
        1 + self
            .args
            .iter()
            .map(|(_, b)| match b {
                ArgBinding::Value(_) => 0,
                ArgBinding::One(p) => producer_depth(p),
                ArgBinding::Many(ps) => ps.iter().map(producer_depth).max().unwrap_or(0),
            })
            .max()
            .unwrap_or(0)
    }
}

fn producer_depth(p: &Producer) -> usize {
    match &p.source {
        Source::Tool { .. } => 0,
        Source::Unit(u) => u.depth(),
    }
}

/// Rows represented by one producer output, for proxy data-volume
/// accounting: a bare array counts its elements, a query result counts its
/// `rows` array, anything else counts 0 (scalars move, but are not rows).
fn json_row_count(value: &Json) -> usize {
    if let Some(items) = value.as_array() {
        return items.len();
    }
    value
        .get("rows")
        .and_then(Json::as_array)
        .map(<[Json]>::len)
        .unwrap_or(0)
}

/// Execute a proxy unit bottom-up against a registry. Sibling producers run
/// in parallel threads.
pub fn execute_unit(
    registry: &Registry,
    unit: &ProxyUnit,
    depth: usize,
) -> Result<Json, ToolError> {
    execute_unit_observed(registry, unit, depth, &Obs::disabled())
}

/// [`execute_unit`] recording into `obs`: each unit becomes a `proxy:unit`
/// span (consumer, depth, producer count, rows/bytes moved tool→tool), and
/// the `proxy.units` / `proxy.rows_moved` / `proxy.bytes_moved` counters
/// quantify the data that never transits the LLM. Producer spans opened on
/// worker threads are re-parented under this unit's span.
pub fn execute_unit_observed(
    registry: &Registry,
    unit: &ProxyUnit,
    depth: usize,
    obs: &Obs,
) -> Result<Json, ToolError> {
    let mut span = obs.span("proxy:unit");
    if span.enabled() {
        span.attr("target_tool", unit.target_tool.as_str());
        span.attr("depth", depth);
        obs.incr("proxy.units", 1);
    }
    let result = unit_body(registry, unit, depth, obs, &mut span);
    if let Err(e) = &result {
        span.fail(e.to_string());
    }
    result
}

fn unit_body(
    registry: &Registry,
    unit: &ProxyUnit,
    depth: usize,
    obs: &Obs,
    span: &mut SpanGuard,
) -> Result<Json, ToolError> {
    if depth > MAX_PROXY_DEPTH {
        return Err(ToolError::Execution(format!(
            "proxy unit nesting exceeds {MAX_PROXY_DEPTH}"
        )));
    }
    // Gather producer jobs across all arguments so siblings parallelize.
    // A slot only records how many jobs it owns: jobs are pushed in slot
    // order, so the outputs come back in that order too.
    enum Slot {
        Literal(Json),
        One,
        Many(usize),
    }
    let mut jobs: Vec<&Producer> = Vec::new();
    let mut slots: Vec<(String, Slot)> = Vec::new();
    for (name, binding) in &unit.args {
        let slot = match binding {
            ArgBinding::Value(v) => Slot::Literal(v.clone()),
            ArgBinding::One(p) => {
                jobs.push(p);
                Slot::One
            }
            ArgBinding::Many(ps) => {
                jobs.extend(ps);
                Slot::Many(ps.len())
            }
        };
        slots.push((name.clone(), slot));
    }
    if span.enabled() {
        span.attr("producers", jobs.len() as u64);
    }
    // Run all producers, in parallel when there are several. Worker threads
    // have no thread-local parent span or call deadline, so they adopt this
    // unit's span context, keeping the exported tree (and its trace id)
    // connected across threads, and the call's deadline.
    let ctx = span.context();
    let deadline = minidb::deadline::current();
    let results: Vec<Result<Json, ToolError>> = if jobs.len() <= 1 {
        jobs.iter()
            .map(|p| run_producer(registry, p, depth, obs))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|p| {
                    scope.spawn(move || {
                        let _scope = obs::adopt_context(ctx);
                        let _deadline = minidb::deadline::scope(deadline);
                        run_producer(registry, p, depth, obs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ToolError::Execution("producer thread panicked".into()))
                    })
                })
                .collect()
        })
    };
    let mut outputs = Vec::with_capacity(results.len());
    for r in results {
        outputs.push(r?);
    }
    // Account for the data moving tool→tool without transiting the LLM —
    // the paper's F4 claim, here as a measured number. The bytes are
    // counted (`Json::compact_len`), never serialised.
    if span.enabled() {
        let bytes: usize = outputs.iter().map(Json::compact_len).sum();
        let rows: usize = outputs.iter().map(json_row_count).sum();
        span.attr("bytes_in", bytes as u64);
        span.attr("rows_in", rows as u64);
        obs.incr("proxy.bytes_moved", bytes as u64);
        obs.incr("proxy.rows_moved", rows as u64);
    }
    // Assemble the consumer's arguments. Jobs were numbered in slot order,
    // so draining the outputs front to back hands each one to its slot by
    // value: every producer output is delivered exactly once, uncopied.
    let mut outputs = outputs.into_iter();
    let mut next_output = || outputs.next().expect("one output per producer job");
    let mut arg_pairs: Vec<(String, Json)> = Vec::with_capacity(slots.len());
    for (name, slot) in slots {
        let value = match slot {
            Slot::Literal(v) => v,
            Slot::One => next_output(),
            Slot::Many(n) => Json::array((0..n).map(|_| next_output())),
        };
        arg_pairs.push((name, value));
    }
    // Invoke the consumer; its output propagates upward.
    let out = registry.call_owned(&unit.target_tool, Json::object(arg_pairs))?;
    if span.enabled() {
        span.attr("rows_out", json_row_count(&out.value) as u64);
    }
    Ok(out.value)
}

fn run_producer(
    registry: &Registry,
    p: &Producer,
    depth: usize,
    obs: &Obs,
) -> Result<Json, ToolError> {
    let raw = match &p.source {
        Source::Tool { name, args } => registry.call(name, args)?.value,
        Source::Unit(unit) => execute_unit_observed(registry, unit, depth + 1, obs)?,
    };
    p.transform.apply(raw)
}

/// Build the `proxy` tool over a snapshot of the tool surface. The snapshot
/// should contain every tool proxy units may reference (database tools plus
/// any domain-specific MCP tools) — but not the proxy itself; nesting is
/// expressed with `unit`, not recursive proxy calls.
pub fn proxy_tool(surface: Registry) -> impl Tool {
    proxy_tool_observed(surface, Obs::disabled())
}

/// [`proxy_tool`] with an observability handle: every executed unit is
/// recorded as a `proxy:unit` span with rows/bytes-moved accounting.
pub fn proxy_tool_observed(surface: Registry, obs: Obs) -> impl Tool {
    let surface = Arc::new(surface);
    FnTool::new(
        "proxy",
        "Route data between tools without it passing through you. 'target_tool' is the \
         consumer; 'tool_args' maps each argument to {\"value\": …}, {\"tool\": …, \"args\": …, \
         \"transform\": f}, {\"unit\": …} for nesting, or {\"producers\": […]}. Transforms: \
         \"identity\" or a JSON pointer like \"/rows\". Always use this for bulk data flows.",
        Signature::open(vec![]),
        move |args: &Args| {
            let unit = ProxyUnit::parse_members(args.get("target_tool"), args.get("tool_args"))?;
            let value = execute_unit_observed(&surface, &unit, 1, &obs)?;
            Ok(ToolOutput::value(value))
        },
    )
    .with_risk(Risk::Safe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use toolproto::{ArgSpec, ArgType, FnTool, Signature};

    fn test_registry() -> Registry {
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "numbers",
            "produce rows",
            Signature::new(vec![ArgSpec::required("n", ArgType::Integer, "count")]),
            |args: &Args| {
                let n = args["n"].as_i64().unwrap();
                let rows: Vec<Json> = (0..n).map(|i| Json::num(i as f64)).collect();
                Ok(ToolOutput::value(Json::object([(
                    "rows",
                    Json::array(rows),
                )])))
            },
        ));
        reg.register_tool(FnTool::new(
            "sum",
            "sum an array",
            Signature::open(vec![]),
            |args: &Args| {
                let data = args
                    .get("data")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ToolError::Execution("need data array".into()))?;
                let total: f64 = data.iter().filter_map(Json::as_f64).sum();
                Ok(ToolOutput::value(Json::object([(
                    "total",
                    Json::num(total),
                )])))
            },
        ));
        reg.register_tool(FnTool::new(
            "pair_sum",
            "sum two scalars",
            Signature::open(vec![]),
            |args: &Args| {
                let a = args
                    .get("a")
                    .and_then(|v| v.get("total"))
                    .and_then(Json::as_f64);
                let b = args
                    .get("b")
                    .and_then(|v| v.get("total"))
                    .and_then(Json::as_f64);
                match (a, b) {
                    (Some(a), Some(b)) => Ok(ToolOutput::value(Json::object([(
                        "total",
                        Json::num(a + b),
                    )]))),
                    _ => Err(ToolError::Execution("need a.total and b.total".into())),
                }
            },
        ));
        reg
    }

    #[test]
    fn single_level_unit() {
        let reg = test_registry();
        let spec = Json::parse(
            r#"{"target_tool": "sum",
                "tool_args": {"data": {"tool": "numbers", "args": {"n": 5}, "transform": "/rows"}}}"#,
        )
        .unwrap();
        let unit = ProxyUnit::parse(&spec).unwrap();
        assert_eq!(unit.depth(), 1);
        let out = execute_unit(&reg, &unit, 1).unwrap();
        assert_eq!(out.get("total").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn nested_units_propagate_bottom_up() {
        let reg = test_registry();
        // pair_sum(a = sum(numbers(3)), b = sum(numbers(4)))
        let spec = Json::parse(
            r#"{"target_tool": "pair_sum", "tool_args": {
                "a": {"unit": {"target_tool": "sum", "tool_args": {
                      "data": {"tool": "numbers", "args": {"n": 3}, "transform": "/rows"}}}},
                "b": {"unit": {"target_tool": "sum", "tool_args": {
                      "data": {"tool": "numbers", "args": {"n": 4}, "transform": "/rows"}}}}
            }}"#,
        )
        .unwrap();
        let unit = ProxyUnit::parse(&spec).unwrap();
        assert_eq!(unit.depth(), 2);
        let out = execute_unit(&reg, &unit, 1).unwrap();
        // 0+1+2 = 3, 0+1+2+3 = 6.
        assert_eq!(out.get("total").and_then(Json::as_f64), Some(9.0));
    }

    #[test]
    fn producers_list_collects_outputs() {
        let reg = test_registry();
        let spec = Json::parse(
            r#"{"target_tool": "sum", "tool_args": {
                "data": {"producers": [
                    {"tool": "numbers", "args": {"n": 2}, "transform": "/rows/1"},
                    {"tool": "numbers", "args": {"n": 3}, "transform": "/rows/2"}
                ]}}}"#,
        )
        .unwrap();
        let unit = ProxyUnit::parse(&spec).unwrap();
        let out = execute_unit(&reg, &unit, 1).unwrap();
        // rows/1 of n=2 is 1; rows/2 of n=3 is 2 → sum 3.
        assert_eq!(out.get("total").and_then(Json::as_f64), Some(3.0));
    }

    /// Outputs are handed to the consumer by value, in slot order. A unit
    /// that mixes a literal, a single producer, a `producers` list and a
    /// nested unit must still give every argument exactly its own
    /// producers' outputs, each once.
    #[test]
    fn every_producer_output_reaches_its_own_slot_exactly_once() {
        let mut reg = test_registry();
        reg.register_tool(FnTool::new(
            "echo_args",
            "returns its arguments",
            Signature::open(vec![]),
            |args: &Args| Ok(ToolOutput::value(Json::Object(args.clone()))),
        ));
        let spec = Json::parse(
            r#"{"target_tool": "echo_args", "tool_args": {
                "a_many": {"producers": [
                    {"tool": "numbers", "args": {"n": 1}, "transform": "/rows"},
                    {"tool": "numbers", "args": {"n": 2}, "transform": "/rows"},
                    {"unit": {"target_tool": "sum", "tool_args": {
                        "data": {"tool": "numbers", "args": {"n": 5}, "transform": "/rows"}}}}
                ]},
                "b_literal": {"value": {"rows": "not a producer"}},
                "c_one": {"tool": "numbers", "args": {"n": 3}},
                "d_nested": {"unit": {"target_tool": "echo_args", "tool_args": {
                    "inner": {"producers": [
                        {"tool": "numbers", "args": {"n": 4}, "transform": "/rows/3"},
                        {"tool": "numbers", "args": {"n": 2}, "transform": "/rows/0"}
                    ]}}}, "transform": "/inner"},
                "e_many": {"producers": [
                    {"tool": "numbers", "args": {"n": 6}, "transform": "/rows/5"}
                ]}
            }}"#,
        )
        .unwrap();
        let unit = ProxyUnit::parse(&spec).unwrap();
        let obs = Obs::in_memory();
        let out = execute_unit_observed(&reg, &unit, 1, &obs).unwrap();
        let expected = Json::parse(
            r#"{"a_many": [[0], [0, 1], {"total": 10}],
                "b_literal": {"rows": "not a producer"},
                "c_one": {"rows": [0, 1, 2]},
                "d_nested": [3, 0],
                "e_many": [5]}"#,
        )
        .unwrap();
        assert_eq!(out, expected);
        // Rows moved: 1 + 2 (a_many arrays) + 3 (c_one) + 2 (d_nested, an
        // array of two) into the outer unit, 5 into `sum`; scalars count 0.
        assert_eq!(obs.snapshot().metrics.counter("proxy.rows_moved"), 13);
    }

    #[test]
    fn parallel_producers_actually_overlap() {
        static CONCURRENT: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "slow",
            "sleep then emit",
            Signature::open(vec![]),
            |_: &Args| {
                let now = CONCURRENT.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                CONCURRENT.fetch_sub(1, Ordering::SeqCst);
                Ok(ToolOutput::value(Json::object([("total", Json::num(1.0))])))
            },
        ));
        reg.register_tool(FnTool::new(
            "pair_sum",
            "sum",
            Signature::open(vec![]),
            |args: &Args| {
                let a = args["a"].get("total").and_then(Json::as_f64).unwrap();
                let b = args["b"].get("total").and_then(Json::as_f64).unwrap();
                Ok(ToolOutput::value(Json::object([(
                    "total",
                    Json::num(a + b),
                )])))
            },
        ));
        let spec = Json::parse(
            r#"{"target_tool": "pair_sum", "tool_args": {
                "a": {"tool": "slow"}, "b": {"tool": "slow"}}}"#,
        )
        .unwrap();
        let unit = ProxyUnit::parse(&spec).unwrap();
        let out = execute_unit(&reg, &unit, 1).unwrap();
        assert_eq!(out.get("total").and_then(Json::as_f64), Some(2.0));
        assert!(
            PEAK.load(Ordering::SeqCst) >= 2,
            "sibling producers should run concurrently"
        );
    }

    #[test]
    fn proxy_tool_end_to_end() {
        let surface = test_registry();
        let mut reg = Registry::new();
        reg.register_tool(proxy_tool(surface));
        let out = reg
            .call(
                "proxy",
                &Json::parse(
                    r#"{"target_tool": "sum",
                        "tool_args": {"data": {"tool": "numbers", "args": {"n": 4}, "transform": "/rows"}}}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.value.get("total").and_then(Json::as_f64), Some(6.0));
    }

    #[test]
    fn errors_propagate() {
        let reg = test_registry();
        // Unknown consumer.
        let unit =
            ProxyUnit::parse(&Json::parse(r#"{"target_tool": "nope", "tool_args": {}}"#).unwrap())
                .unwrap();
        assert!(matches!(
            execute_unit(&reg, &unit, 1),
            Err(ToolError::UnknownTool(_))
        ));
        // Bad transform pointer.
        let unit = ProxyUnit::parse(
            &Json::parse(
                r#"{"target_tool": "sum", "tool_args": {
                    "data": {"tool": "numbers", "args": {"n": 2}, "transform": "/missing"}}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(execute_unit(&reg, &unit, 1).is_err());
        // Malformed unit specs.
        assert!(ProxyUnit::parse(&Json::parse(r#"{"tool_args": {}}"#).unwrap()).is_err());
        assert!(ProxyUnit::parse(
            &Json::parse(r#"{"target_tool": "sum", "tool_args": {"x": {"bogus": 1}}}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn observed_unit_records_span_tree_and_data_volume() {
        let reg = test_registry();
        let obs = Obs::in_memory();
        // pair_sum(a = sum(numbers(3)), b = sum(numbers(4))) — nested units
        // run as parallel sibling producers on worker threads.
        let spec = Json::parse(
            r#"{"target_tool": "pair_sum", "tool_args": {
                "a": {"unit": {"target_tool": "sum", "tool_args": {
                      "data": {"tool": "numbers", "args": {"n": 3}, "transform": "/rows"}}}},
                "b": {"unit": {"target_tool": "sum", "tool_args": {
                      "data": {"tool": "numbers", "args": {"n": 4}, "transform": "/rows"}}}}
            }}"#,
        )
        .unwrap();
        let unit = ProxyUnit::parse(&spec).unwrap();
        let out = execute_unit_observed(&reg, &unit, 1, &obs).unwrap();
        assert_eq!(out.get("total").and_then(Json::as_f64), Some(9.0));

        let snap = obs.snapshot();
        obs::validate_tree(&snap.spans).unwrap();
        assert_eq!(snap.metrics.counter("proxy.units"), 3);
        // Inner units each feed /rows arrays (3 and 4 rows); the outer unit
        // moves two scalar objects (0 rows, but nonzero bytes).
        assert_eq!(snap.metrics.counter("proxy.rows_moved"), 7);
        // `[0,1,2]` + `[0,1,2,3]` + `{"total":3}` + `{"total":6}`: the
        // bytes are counted, not serialised, and the count is the same.
        assert_eq!(snap.metrics.counter("proxy.bytes_moved"), 38);
        let units: Vec<_> = snap
            .spans
            .iter()
            .filter(|sp| sp.name == "proxy:unit")
            .collect();
        assert_eq!(units.len(), 3);
        let root = units
            .iter()
            .find(|sp| sp.attr("target_tool") == Some(&obs::AttrValue::from("pair_sum")))
            .expect("root unit span");
        assert!(root.parent.is_none());
        // Both inner unit spans, opened on worker threads, adopted the root
        // unit span as parent.
        for inner in units.iter().filter(|sp| sp.id != root.id) {
            assert_eq!(inner.parent, Some(root.id));
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let reg = test_registry();
        // Build a unit nested beyond the limit.
        let mut spec = r#"{"target_tool": "sum", "tool_args": {"data": {"tool": "numbers", "args": {"n": 1}, "transform": "/rows"}}}"#.to_string();
        for _ in 0..MAX_PROXY_DEPTH + 1 {
            spec = format!(
                r#"{{"target_tool": "sum", "tool_args": {{"data": {{"unit": {spec}, "transform": "identity"}}}}}}"#
            );
        }
        let unit = ProxyUnit::parse(&Json::parse(&spec).unwrap()).unwrap();
        let err = execute_unit(&reg, &unit, 1).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}
