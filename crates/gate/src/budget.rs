//! Cost budgets: per-session and per-user resource accounting enforced at
//! the tool gate.
//!
//! Four resources are metered per tool call: **calls** (one per
//! invocation), **rows** (the `ToolOutput::rows` bookkeeping the engine
//! already reports), **bytes** (size of the output's compact rendering,
//! counted by `Json::compact_len` without rendering it — the volume that
//! would transit an LLM context or the wire), and **wall_ns** (time
//! spent inside the tool). A call is admitted only while *every* metered
//! resource is under its limit; the first exhausted resource denies the
//! call with `ToolError::Denied { code: "budget", .. }`, mirroring the
//! privilege-denial contract so agents reuse their existing retry/abandon
//! logic unchanged. The denial message is machine-readable and stable:
//!
//! ```text
//! budget exhausted: <resource> limit for this <scope> reached (<used>/<limit>)
//! ```
//!
//! where `<resource>` is one of `calls|rows|bytes|wall_ns` and `<scope>` is
//! `session` or `user`. Checks run *before* the call (an admitted call may
//! overrun by its own cost — bounded overshoot, never partial execution),
//! and charging happens after, whether the call succeeded or failed: failed
//! work still consumed the server.

use obs::Obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use toolproto::{Args, DenialContext, Risk, Signature, Tool, ToolError, ToolResult};

/// Limits for one budget scope. `None` means unmetered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetLimits {
    /// Maximum tool invocations.
    pub(crate) max_calls: Option<u64>,
    /// Maximum summed `ToolOutput::rows`.
    pub(crate) max_rows: Option<u64>,
    /// Maximum summed compact-rendered output bytes.
    pub(crate) max_bytes: Option<u64>,
    /// Maximum summed wall time inside tools, in nanoseconds.
    pub(crate) max_wall_ns: Option<u64>,
}

impl BudgetLimits {
    /// No limits at all (every check admits).
    pub fn unlimited() -> Self {
        BudgetLimits::default()
    }

    /// Builder: cap tool invocations.
    pub fn with_calls(mut self, max: u64) -> Self {
        self.max_calls = Some(max);
        self
    }

    /// Builder: cap summed row counts.
    pub fn with_rows(mut self, max: u64) -> Self {
        self.max_rows = Some(max);
        self
    }

    /// Builder: cap summed output bytes.
    pub fn with_bytes(mut self, max: u64) -> Self {
        self.max_bytes = Some(max);
        self
    }

    /// Builder: cap summed in-tool wall time.
    pub fn with_wall_ns(mut self, max: u64) -> Self {
        self.max_wall_ns = Some(max);
        self
    }
}

/// Usage accumulated against one meter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Tool invocations charged.
    pub calls: u64,
    /// Rows charged.
    pub rows: u64,
    /// Bytes charged.
    pub bytes: u64,
    /// Wall nanoseconds charged.
    pub wall_ns: u64,
}

/// A budget check failure: which resource ran out, where, and the exact
/// numbers. Convertible into the typed denial agents react to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    /// `"calls"`, `"rows"`, `"bytes"`, or `"wall_ns"`.
    pub(crate) resource: &'static str,
    /// `"session"` or `"user"`.
    pub scope: &'static str,
    /// Usage at check time.
    pub used: u64,
    /// The configured limit.
    pub limit: u64,
}

impl BudgetBreach {
    /// The stable machine-readable denial message (see module docs).
    pub(crate) fn denial_message(&self) -> String {
        format!(
            "budget exhausted: {} limit for this {} reached ({}/{})",
            self.resource, self.scope, self.used, self.limit
        )
    }

    /// The full typed denial for tool band transport: code `"budget"`, the
    /// stable message, and the denied tool in the context.
    pub(crate) fn into_denial(self, tool: &str) -> ToolError {
        ToolError::denied_with(
            "budget",
            self.denial_message(),
            DenialContext::default().with_tool(tool),
        )
    }
}

/// Thread-safe usage accumulator for one scope (one session, or one user
/// shared across that user's sessions).
#[derive(Debug)]
pub struct BudgetMeter {
    scope: &'static str,
    limits: BudgetLimits,
    calls: AtomicU64,
    rows: AtomicU64,
    bytes: AtomicU64,
    wall_ns: AtomicU64,
}

impl BudgetMeter {
    /// A meter for one session.
    pub fn session(limits: BudgetLimits) -> Self {
        Self::new("session", limits)
    }

    /// A meter for one user (shared across sessions via [`BudgetLedger`]).
    pub fn user(limits: BudgetLimits) -> Self {
        Self::new("user", limits)
    }

    fn new(scope: &'static str, limits: BudgetLimits) -> Self {
        BudgetMeter {
            scope,
            limits,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        }
    }

    /// Admit or deny the next call: the first resource at or over its limit
    /// loses. Resources are checked in a fixed order (calls, rows, bytes,
    /// wall_ns) so the denial is deterministic for a given usage state.
    pub fn admit(&self) -> Result<(), BudgetBreach> {
        let checks: [(&'static str, &AtomicU64, Option<u64>); 4] = [
            ("calls", &self.calls, self.limits.max_calls),
            ("rows", &self.rows, self.limits.max_rows),
            ("bytes", &self.bytes, self.limits.max_bytes),
            ("wall_ns", &self.wall_ns, self.limits.max_wall_ns),
        ];
        for (resource, counter, limit) in checks {
            if let Some(limit) = limit {
                let used = counter.load(Ordering::Relaxed);
                if used >= limit {
                    return Err(BudgetBreach {
                        resource,
                        scope: self.scope,
                        used,
                        limit,
                    });
                }
            }
        }
        Ok(())
    }

    /// Charge one completed call.
    pub fn charge(&self, rows: u64, bytes: u64, wall_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// Current accumulated usage.
    pub fn usage(&self) -> BudgetUsage {
        BudgetUsage {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
        }
    }

    /// The limits this meter enforces.
    pub fn limits(&self) -> &BudgetLimits {
        &self.limits
    }
}

/// Per-user meters with one shared limit set: every session a user opens
/// draws down the same account. Individual users can be given their own
/// limit set with [`BudgetLedger::with_user_limit`] — how an operator caps
/// a known-runaway tenant without throttling everyone else.
#[derive(Debug)]
pub struct BudgetLedger {
    limits: BudgetLimits,
    overrides: HashMap<String, BudgetLimits>,
    meters: Mutex<HashMap<String, Arc<BudgetMeter>>>,
}

impl BudgetLedger {
    /// A ledger applying `limits` to every user.
    pub fn new(limits: BudgetLimits) -> Self {
        BudgetLedger {
            limits,
            overrides: HashMap::new(),
            meters: Mutex::new(HashMap::new()),
        }
    }

    /// Builder: meter `user` with `limits` instead of the ledger default.
    /// Applies to meters created afterwards, so configure overrides before
    /// serving traffic.
    pub fn with_user_limit(mut self, user: impl Into<String>, limits: BudgetLimits) -> Self {
        self.overrides.insert(user.into(), limits);
        self
    }

    /// The (lazily created) meter for `user`.
    pub fn meter_for(&self, user: &str) -> Arc<BudgetMeter> {
        let mut meters = self.meters.lock().expect("ledger lock");
        Arc::clone(meters.entry(user.to_owned()).or_insert_with(|| {
            let limits = self.overrides.get(user).unwrap_or(&self.limits).clone();
            Arc::new(BudgetMeter::user(limits))
        }))
    }
}

/// A metering wrapper around any tool: checks every attached meter before
/// the call, charges them all after. Transparent like the retrieval cache —
/// name, description, signature, and risk delegate to the inner tool.
pub struct MeteredTool {
    inner: Arc<dyn Tool>,
    meters: Vec<Arc<BudgetMeter>>,
    user: String,
    obs: Obs,
}

impl MeteredTool {
    /// Wrap `inner`, charging `meters` (session first, then user, by
    /// convention) on behalf of `user`.
    pub fn new(inner: Arc<dyn Tool>, meters: Vec<Arc<BudgetMeter>>, user: &str, obs: Obs) -> Self {
        MeteredTool {
            inner,
            meters,
            user: user.to_owned(),
            obs,
        }
    }
}

impl Tool for MeteredTool {
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
        for meter in &self.meters {
            if let Err(breach) = meter.admit() {
                self.obs.incr_with(
                    "gate.budget",
                    &[("user", &self.user), ("resource", breach.resource)],
                    1,
                );
                self.obs.incr_with("denials", &[("gate", "budget")], 1);
                if self.obs.is_enabled() {
                    let mut span = self.obs.span("denial:budget");
                    span.attr("user", self.user.as_str());
                    span.attr("tool", self.inner.name());
                    span.attr("resource", breach.resource);
                    span.attr("scope", breach.scope);
                }
                return Err(breach.into_denial(self.inner.name()));
            }
        }
        let start = Instant::now();
        let result = self.inner.invoke(args);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (rows, bytes) = match &result {
            Ok(out) => (out.rows.unwrap_or(0) as u64, out.value.compact_len() as u64),
            Err(_) => (0, 0),
        };
        for meter in &self.meters {
            meter.charge(rows, bytes, wall_ns);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toolproto::{ArgSpec, ArgType, FnTool, Json, Registry, ToolOutput};

    fn echo_tool() -> FnTool<impl Fn(&Args) -> ToolResult> {
        FnTool::new(
            "echo",
            "echoes",
            Signature::new(vec![ArgSpec::required("x", ArgType::String, "echoed")]),
            |args: &Args| Ok(ToolOutput::with_rows(args["x"].clone(), 3)),
        )
    }

    fn metered_registry(meters: Vec<Arc<BudgetMeter>>) -> Registry {
        let mut reg = Registry::new();
        reg.register_tool(MeteredTool::new(
            Arc::new(echo_tool()),
            meters,
            "tester",
            Obs::disabled(),
        ));
        reg
    }

    fn payload() -> Json {
        Json::object([("x", Json::str("v"))])
    }

    #[test]
    fn calls_budget_denies_with_stable_code_and_message() {
        let meter = Arc::new(BudgetMeter::session(BudgetLimits::default().with_calls(2)));
        let reg = metered_registry(vec![Arc::clone(&meter)]);
        reg.call("echo", &payload()).unwrap();
        reg.call("echo", &payload()).unwrap();
        let err = reg.call("echo", &payload()).unwrap_err();
        match &err {
            ToolError::Denied { code, message, .. } => {
                assert_eq!(code, "budget");
                assert_eq!(
                    message,
                    "budget exhausted: calls limit for this session reached (2/2)"
                );
            }
            other => panic!("expected budget denial, got {other:?}"),
        }
        assert_eq!(
            err.denial_context().and_then(|c| c.tool.as_deref()),
            Some("echo")
        );
        assert_eq!(meter.usage().calls, 2, "denied calls are not charged");
    }

    #[test]
    fn rows_and_bytes_accumulate() {
        let meter = Arc::new(BudgetMeter::session(BudgetLimits::unlimited()));
        let reg = metered_registry(vec![Arc::clone(&meter)]);
        reg.call("echo", &payload()).unwrap();
        let usage = meter.usage();
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.rows, 3);
        assert_eq!(usage.bytes, "\"v\"".len() as u64);
    }

    #[test]
    fn rows_budget_denies_after_overrun() {
        let meter = Arc::new(BudgetMeter::session(BudgetLimits::default().with_rows(3)));
        let reg = metered_registry(vec![Arc::clone(&meter)]);
        reg.call("echo", &payload()).unwrap(); // usage hits the limit
        let err = reg.call("echo", &payload()).unwrap_err();
        assert!(matches!(err, ToolError::Denied { ref code, .. } if code == "budget"));
        assert!(err.to_string().contains("rows limit for this session"));
    }

    fn denial_message(err: &ToolError) -> &str {
        match err {
            ToolError::Denied { code, message, .. } if code == "budget" => message,
            other => panic!("expected budget denial, got {other:?}"),
        }
    }

    #[test]
    fn bytes_budget_denies_once_the_payload_fills_it() {
        // The echo reply `"v"` is 3 bytes: the first call fills the budget.
        let reg = metered_registry(vec![Arc::new(BudgetMeter::session(
            BudgetLimits::default().with_bytes(3),
        ))]);
        reg.call("echo", &payload()).unwrap();
        let err = reg.call("echo", &payload()).unwrap_err();
        assert_eq!(
            denial_message(&err),
            "budget exhausted: bytes limit for this session reached (3/3)"
        );
    }

    #[test]
    fn zero_wall_time_budget_denies_the_first_call() {
        let reg = metered_registry(vec![Arc::new(BudgetMeter::session(
            BudgetLimits::default().with_wall_ns(0),
        ))]);
        let err = reg.call("echo", &payload()).unwrap_err();
        assert_eq!(
            denial_message(&err),
            "budget exhausted: wall_ns limit for this session reached (0/0)"
        );
    }

    #[test]
    fn user_ledger_is_shared_across_sessions() {
        let ledger = BudgetLedger::new(BudgetLimits::default().with_calls(3));
        let a = metered_registry(vec![ledger.meter_for("alice")]);
        let b = metered_registry(vec![ledger.meter_for("alice")]);
        a.call("echo", &payload()).unwrap();
        b.call("echo", &payload()).unwrap();
        a.call("echo", &payload()).unwrap();
        let err = b.call("echo", &payload()).unwrap_err();
        assert!(err.to_string().contains("for this user"));
        assert_eq!(ledger.meter_for("alice").usage().calls, 3);
        assert_eq!(ledger.meter_for("bob").usage().calls, 0);
    }

    #[test]
    fn user_limit_override_caps_one_tenant_only() {
        let ledger = BudgetLedger::new(BudgetLimits::unlimited())
            .with_user_limit("hog", BudgetLimits::default().with_calls(1));
        let hog = metered_registry(vec![ledger.meter_for("hog")]);
        let alice = metered_registry(vec![ledger.meter_for("alice")]);
        hog.call("echo", &payload()).unwrap();
        let err = hog.call("echo", &payload()).unwrap_err();
        assert!(err.to_string().contains("calls limit for this user"));
        for _ in 0..5 {
            alice.call("echo", &payload()).unwrap();
        }
        assert_eq!(ledger.meter_for("alice").usage().calls, 5);
    }

    #[test]
    fn session_meter_checked_before_user_meter() {
        let session = Arc::new(BudgetMeter::session(BudgetLimits::default().with_calls(0)));
        let ledger = BudgetLedger::new(BudgetLimits::default().with_calls(0));
        let reg = metered_registry(vec![session, ledger.meter_for("alice")]);
        let err = reg.call("echo", &payload()).unwrap_err();
        assert!(err.to_string().contains("for this session"));
    }
}
