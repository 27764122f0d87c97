//! The concurrent wire server: sessions, the bounded worker pool, and
//! graceful shutdown.
//!
//! Every accepted connection gets a dedicated reader thread and — after a
//! successful `initialize` — its own session: a per-user
//! [`BridgeScopeServer`] surface built over the shared [`minidb::Database`].
//! Privilege-gated tool visibility is therefore enforced *server-side per
//! session*: a read-only user's session never lists `insert`, no matter
//! what the client sends.
//!
//! Tool execution is decoupled from socket I/O by a fixed pool of worker
//! threads fed through a bounded queue. When the queue is full the server
//! answers `server_busy` immediately instead of accepting unbounded work —
//! backpressure is a protocol feature, not an accident of TCP buffers.

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::rpc::{
    parse_request, response_err, response_err_traced, response_ok_traced, risk_from_str,
    risk_to_str, take_string, tool_error_to_rpc, tool_output_into_json, ErrorCode, Request,
    RpcError, PROTOCOL,
};
use bridgescope_core::{BridgeScopeServer, SecurityPolicy};
use gate::{GateConfig, SubmitError, WeightedQueues};
use minidb::Database;
use obs::Obs;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use toolproto::{Json, Registry, ToolResult};

/// Tunable limits for a [`WireServer`]. Defaults are production-shaped but
/// small; tests shrink them to provoke each failure mode deterministically.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Worker threads executing tool calls.
    pub workers: usize,
    /// Bounded job-queue depth *per tenant*; a tenant whose queue is full
    /// is shed with `server_busy` while other tenants keep queuing.
    pub queue_depth: usize,
    /// Weighted round-robin shares for named tenants; everyone else gets
    /// weight 1. A tenant with weight *w* is served up to *w* consecutive
    /// jobs each time the dequeue rotation reaches it.
    pub tenant_weights: Vec<(String, u32)>,
    /// Maximum accepted frame size in bytes.
    pub max_frame_bytes: usize,
    /// Per-frame read deadline (also the idle timeout between requests).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// How long a connection waits for a queued tool call to finish.
    pub call_timeout: Duration,
    /// Requests a session may issue after `initialize` (`tools/list` and
    /// `tools/call` count; `ping`/`shutdown` do not). `None` = unlimited.
    pub max_requests_per_session: Option<u64>,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            workers: 4,
            queue_depth: 64,
            tenant_weights: Vec::new(),
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            call_timeout: Duration::from_secs(30),
            max_requests_per_session: None,
        }
    }
}

/// What the server serves: one shared database, a shared external-tool
/// registry, and the operator's base security policy. `initialize` builds a
/// per-user surface from these; a client-requested policy can only tighten
/// the base one (see [`SecurityPolicy::restricted_by`]).
pub struct Tenancy {
    db: Database,
    external: Registry,
    base_policy: SecurityPolicy,
    gate: GateConfig,
}

impl Tenancy {
    /// Serve `db` with a permissive base policy, no external tools, and a
    /// transparent gate (no caches or budgets).
    pub fn new(db: Database) -> Self {
        Tenancy {
            db,
            external: Registry::new(),
            base_policy: SecurityPolicy::permissive(),
            gate: GateConfig::default(),
        }
    }

    /// The shared database behind this tenancy (e.g. for flushing or
    /// checkpointing a durable engine around server lifecycle events).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Builder: external (ML/MCP) tools exposed to every session.
    pub fn with_external(mut self, external: Registry) -> Self {
        self.external = external;
        self
    }

    /// Builder: the operator-side base policy every session inherits.
    pub fn with_base_policy(mut self, policy: SecurityPolicy) -> Self {
        self.base_policy = policy;
        self
    }

    /// Builder: the gate policy (caches, budgets) every session is built
    /// behind. Attach a shared [`gate::BudgetLedger`] here to meter each
    /// user across all of their sessions.
    pub fn with_gate(mut self, gate: GateConfig) -> Self {
        self.gate = gate;
        self
    }

    /// Build the tool surface for one authenticated session.
    fn surface(
        &self,
        user: &str,
        requested: &SecurityPolicy,
        obs: Obs,
    ) -> Result<BridgeScopeServer, RpcError> {
        let effective = self.base_policy.restricted_by(requested);
        BridgeScopeServer::build_gated(
            self.db.clone(),
            user,
            effective,
            &self.external,
            obs,
            &self.gate,
        )
        .map_err(|e| RpcError::new(ErrorCode::AuthFailed, format!("cannot open session: {e}")))
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Live wire-layer occupancy counters, read by registered admin gauges
/// (`wire.active_sessions`, `wire.queue_depth`).
#[derive(Debug, Default)]
struct WireStats {
    /// Sessions that have initialized and not yet disconnected.
    active_sessions: AtomicU64,
    /// Jobs submitted to the worker pool and not yet started.
    queue_depth: AtomicU64,
}

/// Decrements the active-session count when a session ends, however the
/// connection terminates (clean shutdown, timeout, or dropped socket).
struct ActiveSessionGuard(Arc<WireStats>);

impl Drop for ActiveSessionGuard {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Fixed worker pool over per-tenant bounded queues with weighted
/// round-robin dequeue ([`gate::WeightedQueues`]). `submit` never blocks: a
/// tenant whose queue is full is shed, which the caller turns into
/// `server_busy` — without touching any other tenant's backlog.
struct Pool {
    queues: Arc<WeightedQueues<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<WireStats>,
    obs: Obs,
}

impl Pool {
    fn new(
        workers: usize,
        queue_depth: usize,
        tenant_weights: &[(String, u32)],
        stats: Arc<WireStats>,
        obs: Obs,
    ) -> Pool {
        let queues = Arc::new(WeightedQueues::<Job>::new(
            queue_depth.max(1),
            1,
            tenant_weights.iter().cloned(),
        ));
        let handles = (0..workers.max(1))
            .map(|i| {
                let queues = Arc::clone(&queues);
                thread::Builder::new()
                    .name(format!("wire-worker-{i}"))
                    .spawn(move || {
                        // `pop` blocks while open and returns `None` only
                        // once closed and drained.
                        while let Some(job) = queues.pop() {
                            job();
                        }
                    })
                    .expect("spawn wire worker")
            })
            .collect();
        Pool {
            queues,
            workers: Mutex::new(handles),
            stats,
            obs,
        }
    }

    fn submit(&self, user: &str, job: Job) -> Result<(), ErrorCode> {
        // Count the job as queued from acceptance until a worker picks it
        // up, so the gauge reflects real backlog.
        let stats = Arc::clone(&self.stats);
        stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        let counted: Job = Box::new({
            let stats = Arc::clone(&stats);
            move || {
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                job();
            }
        });
        match self.queues.submit(user, counted) {
            Ok(()) => {
                self.obs.incr_with("gate.admitted", &[("user", user)], 1);
                Ok(())
            }
            Err(SubmitError::Shed) => {
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.obs.incr_with("gate.shed", &[("user", user)], 1);
                Err(ErrorCode::ServerBusy)
            }
            Err(SubmitError::Closed) => {
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(ErrorCode::ShuttingDown)
            }
        }
    }

    /// Close the queues and join workers; queued jobs drain first.
    fn shutdown(&self) {
        self.queues.close();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// One authenticated session: the per-user tool surface plus the
/// `wire:session` span that parents everything the session does.
struct Session {
    registry: Arc<Registry>,
    span: obs::SpanGuard,
    used: u64,
    user: String,
    /// Keeps `wire.active_sessions` honest; `None` on the stdio transport.
    _active: Option<ActiveSessionGuard>,
}

/// The effective trace placement of one request, computed *before* the
/// executor runs so ok responses, typed errors, and the span tree all file
/// under the same trace.
///
/// A valid client `traceparent` is adopted: the `wire:call` span becomes a
/// local root of the *client's* trace, with the remote parent span id kept
/// as an attribute (a foreign span id must not become a local `parent`
/// edge — `validate_tree` requires parents to exist in the local tree).
/// Absent or malformed input falls back to the server's own context: the
/// call nests under the `wire:session` span and joins its trace.
#[derive(Debug, Clone, Copy)]
struct CallTrace {
    ctx: obs::SpanContext,
    remote_parent: Option<obs::SpanId>,
}

impl CallTrace {
    /// No trace at all (pre-initialize requests with no client context).
    fn none() -> CallTrace {
        CallTrace {
            ctx: obs::SpanContext::default(),
            remote_parent: None,
        }
    }

    /// The `traceparent` to echo on the response, naming the effective
    /// trace and its wire-level parent span.
    fn echo(&self) -> Option<String> {
        let trace = self.ctx.trace?;
        let parent = self
            .remote_parent
            .or_else(|| self.ctx.parent.and_then(obs::SpanId::from_u64))?;
        Some(obs::TraceContext::new(trace, parent).to_traceparent())
    }
}

/// Runs tool calls for a session: TCP connections enqueue onto the shared
/// pool (keyed by the session's user for tenant-fair admission); the stdio
/// transport executes inline.
trait CallExecutor {
    fn execute(
        &self,
        registry: Arc<Registry>,
        user: &str,
        tool: String,
        payload: Json,
        trace: CallTrace,
        obs: &Obs,
    ) -> Result<ToolResult, RpcError>;
}

/// Wrap one registry call in a `wire:call` span placed per [`CallTrace`].
/// Everything the call does downstream — gate checks, tool dispatch, SQL
/// execution — runs on this thread under the span's trace, so one trace id
/// names the full path. The call is also registered in the in-flight
/// registry for the admin `/queries` endpoint.
fn traced_call(
    registry: &Registry,
    user: &str,
    tool: &str,
    payload: Json,
    trace: CallTrace,
    obs: &Obs,
) -> ToolResult {
    let _scope = obs::adopt_context(trace.ctx);
    let mut span = obs.span("wire:call");
    span.attr("tool", tool);
    span.attr("user", user);
    if let Some(remote) = trace.remote_parent {
        span.attr("trace.remote_parent", remote.to_string());
    }
    let _inflight = obs.begin_call(user, tool);
    let started = obs.now_ns();
    let result = registry.call_owned(tool, payload);
    obs.observe_ns("wire.call.latency", obs.now_ns().saturating_sub(started));
    if let Err(e) = &result {
        span.fail(e.to_string());
    }
    result
}

struct PooledExecutor {
    pool: Arc<Pool>,
    call_timeout: Duration,
}

impl CallExecutor for PooledExecutor {
    fn execute(
        &self,
        registry: Arc<Registry>,
        user: &str,
        tool: String,
        payload: Json,
        trace: CallTrace,
        obs: &Obs,
    ) -> Result<ToolResult, RpcError> {
        let (done_tx, done_rx) = mpsc::sync_channel::<ToolResult>(1);
        let obs_job = obs.clone();
        let job_user = user.to_owned();
        let job: Job = Box::new(move || {
            let result = traced_call(&registry, &job_user, &tool, payload, trace, &obs_job);
            let _ = done_tx.send(result);
        });
        self.pool.submit(user, job).map_err(|code| {
            obs.incr("wire.rejected.busy", 1);
            RpcError::new(code, "worker queue is full; retry later")
        })?;
        match done_rx.recv_timeout(self.call_timeout) {
            Ok(result) => Ok(result),
            Err(RecvTimeoutError::Timeout) => {
                obs.incr("wire.rejected.timeout", 1);
                Err(RpcError::new(
                    ErrorCode::DeadlineExceeded,
                    format!(
                        "tool call exceeded the {}ms deadline",
                        self.call_timeout.as_millis()
                    ),
                ))
            }
            Err(RecvTimeoutError::Disconnected) => Err(RpcError::new(
                ErrorCode::ShuttingDown,
                "server stopped before the call finished",
            )),
        }
    }
}

struct InlineExecutor;

impl CallExecutor for InlineExecutor {
    fn execute(
        &self,
        registry: Arc<Registry>,
        user: &str,
        tool: String,
        payload: Json,
        trace: CallTrace,
        obs: &Obs,
    ) -> Result<ToolResult, RpcError> {
        Ok(traced_call(&registry, user, &tool, payload, trace, obs))
    }
}

/// Per-connection protocol state machine, shared by TCP and stdio.
struct SessionCtx<'a> {
    tenancy: &'a Tenancy,
    config: &'a WireConfig,
    obs: &'a Obs,
    session: Option<Session>,
    /// Occupancy counters of the owning TCP server; `None` on stdio.
    stats: Option<Arc<WireStats>>,
}

/// Outcome of dispatching one request: the response frame, and whether the
/// connection should close afterwards.
struct Dispatch {
    frame: String,
    close: bool,
}

impl<'a> SessionCtx<'a> {
    fn new(tenancy: &'a Tenancy, config: &'a WireConfig, obs: &'a Obs) -> Self {
        SessionCtx {
            tenancy,
            config,
            obs,
            session: None,
            stats: None,
        }
    }

    fn with_stats(mut self, stats: Arc<WireStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    fn dispatch(&mut self, req: Request, exec: &dyn CallExecutor) -> Dispatch {
        self.obs.incr("wire.requests", 1);
        // One series per protocol method; anything else a peer sends shares
        // `other`, so method strings cannot grow the metrics registry.
        self.obs.incr(
            match req.method.as_str() {
                "ping" => "wire.requests.ping",
                "initialize" => "wire.requests.initialize",
                "shutdown" => "wire.requests.shutdown",
                "tools/list" => "wire.requests.tools_list",
                "tools/call" => "wire.requests.tools_call",
                _ => "wire.requests.other",
            },
            1,
        );
        let close = req.method == "shutdown";
        // Resolve the trace before executing anything so success, typed
        // errors, and the span tree all carry the same effective context.
        let trace = self.effective_trace(req.traceparent.as_deref());
        let echo = trace.echo();
        let outcome = match req.method.as_str() {
            "ping" => Ok(Json::str("pong")),
            "initialize" => self.initialize(&req.params),
            "shutdown" => Ok(Json::object([("status", Json::str("bye"))])),
            "tools/list" => self.charged(|ctx| ctx.tools_list()),
            "tools/call" => self.charged(|ctx| ctx.tools_call(req.params, trace, exec)),
            other => Err(RpcError::new(
                ErrorCode::MethodNotFound,
                format!("unknown method '{other}'"),
            )),
        };
        let frame = match outcome {
            Ok(result) => response_ok_traced(&req.id, result, echo.as_deref()),
            Err(err) => {
                self.obs
                    .incr_with("wire.errors", &[("code", err.code.name())], 1);
                response_err_traced(&req.id, &err, echo.as_deref())
            }
        };
        Dispatch { frame, close }
    }

    /// Compute the effective [`CallTrace`] for a request: a valid client
    /// `traceparent` wins; otherwise the session's own span context (so
    /// unattributed calls still trace under their session); otherwise
    /// nothing (pre-initialize traffic with no client context).
    fn effective_trace(&self, traceparent: Option<&str>) -> CallTrace {
        if let Some(ctx) = traceparent.and_then(obs::TraceContext::parse) {
            return CallTrace {
                ctx: obs::SpanContext {
                    trace: Some(ctx.trace),
                    parent: None,
                },
                remote_parent: Some(ctx.parent),
            };
        }
        match &self.session {
            Some(session) => CallTrace {
                ctx: session.span.context(),
                remote_parent: None,
            },
            None => CallTrace::none(),
        }
    }

    /// Run a session-scoped method, enforcing initialization and the
    /// per-session request budget.
    fn charged(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Json, RpcError>,
    ) -> Result<Json, RpcError> {
        let Some(session) = self.session.as_mut() else {
            return Err(RpcError::new(
                ErrorCode::NotInitialized,
                "call 'initialize' first",
            ));
        };
        if let Some(cap) = self.config.max_requests_per_session {
            if session.used >= cap {
                return Err(RpcError::new(
                    ErrorCode::SessionLimit,
                    format!("session exhausted its budget of {cap} requests"),
                ));
            }
        }
        session.used += 1;
        body(self)
    }

    fn initialize(&mut self, params: &Json) -> Result<Json, RpcError> {
        if self.session.is_some() {
            return Err(RpcError::new(
                ErrorCode::InvalidRequest,
                "session already initialized",
            ));
        }
        let user = params
            .get("user")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                RpcError::new(ErrorCode::InvalidParams, "initialize needs a string 'user'")
            })?
            .to_owned();
        if let Some(proto) = params.get("protocol").and_then(Json::as_str) {
            if proto != PROTOCOL {
                return Err(RpcError::new(
                    ErrorCode::InvalidParams,
                    format!("unsupported protocol '{proto}' (server speaks {PROTOCOL})"),
                ));
            }
        }
        let requested = decode_requested_policy(params)?;
        let server = self.tenancy.surface(&user, &requested, self.obs.clone())?;
        let mut span = self.obs.span("wire:session");
        span.attr("user", user.as_str());
        self.obs.incr("wire.sessions", 1);
        let tools = Json::array(server.registry.names().into_iter().map(Json::str));
        let prompt = server.prompt;
        let active = self.stats.as_ref().map(|stats| {
            stats.active_sessions.fetch_add(1, Ordering::Relaxed);
            ActiveSessionGuard(Arc::clone(stats))
        });
        self.session = Some(Session {
            registry: Arc::new(server.registry),
            span,
            used: 0,
            user: user.clone(),
            _active: active,
        });
        Ok(Json::object([
            ("protocol", Json::str(PROTOCOL)),
            ("user", Json::str(user)),
            ("tools", tools),
            ("prompt", Json::str(prompt)),
        ]))
    }

    fn tools_list(&mut self) -> Result<Json, RpcError> {
        let session = self.session.as_ref().expect("charged() checked");
        let tools = session
            .registry
            .iter()
            .map(|tool| {
                let sig = tool.signature();
                let args = Json::array(sig.args.iter().map(|a| {
                    let mut pairs = vec![
                        ("name", Json::str(a.name.clone())),
                        ("type", Json::str(a.ty.to_string())),
                        ("description", Json::str(a.description.clone())),
                        ("required", Json::Bool(a.required)),
                    ];
                    if let Some(default) = &a.default {
                        pairs.push(("default", default.clone()));
                    }
                    Json::object(pairs)
                }));
                Json::object([
                    ("name", Json::str(tool.name())),
                    ("description", Json::str(tool.description())),
                    (
                        "signature",
                        Json::object([
                            ("args", args),
                            ("allow_extra", Json::Bool(sig.allow_extra)),
                        ]),
                    ),
                    ("risk", Json::str(risk_to_str(tool.risk()))),
                ])
            })
            .collect::<Vec<_>>();
        Ok(Json::object([("tools", Json::array(tools))]))
    }

    fn tools_call(
        &mut self,
        params: Json,
        trace: CallTrace,
        exec: &dyn CallExecutor,
    ) -> Result<Json, RpcError> {
        let session = self.session.as_ref().expect("charged() checked");
        // The name and the arguments move out of the request; the output
        // moves into the reply. Nothing a call carries is copied here.
        let mut members = match params {
            Json::Object(members) => members,
            _ => BTreeMap::new(),
        };
        let name = take_string(&mut members, "name").ok_or_else(|| {
            RpcError::new(ErrorCode::InvalidParams, "tools/call needs a string 'name'")
        })?;
        let payload = members.remove("arguments").unwrap_or(Json::Null);
        // Per-tenant traffic series. `user` is operator-controlled (session
        // auth) and a name this session does not expose counts as
        // `unknown`, so cardinality stays bounded by the user catalog times
        // the tool surface whatever a peer sends.
        let tool_label = if session.registry.contains(&name) {
            name.as_str()
        } else {
            "unknown"
        };
        self.obs.incr_with(
            "wire.calls",
            &[("user", session.user.as_str()), ("tool", tool_label)],
            1,
        );
        let result = exec.execute(
            Arc::clone(&session.registry),
            &session.user,
            name,
            payload,
            trace,
            self.obs,
        )?;
        match result {
            Ok(output) => Ok(tool_output_into_json(output)),
            Err(tool_err) => Err(tool_error_to_rpc(&tool_err)),
        }
    }
}

/// Decode the optional `policy` member of `initialize` params into a
/// requested [`SecurityPolicy`]. Unspecified dials are left maximally
/// permissive so [`SecurityPolicy::restricted_by`] treats them as "no
/// request" rather than an accidental tightening.
fn decode_requested_policy(params: &Json) -> Result<SecurityPolicy, RpcError> {
    let mut policy = SecurityPolicy {
        schema_threshold: usize::MAX,
        exemplar_k: usize::MAX,
        ..SecurityPolicy::permissive()
    };
    let Some(spec) = params.get("policy") else {
        return Ok(policy);
    };
    let spec = spec
        .as_object()
        .ok_or_else(|| RpcError::new(ErrorCode::InvalidParams, "'policy' must be an object"))?;
    let strings = |value: &Json, what: &str| -> Result<Vec<String>, RpcError> {
        value
            .as_array()
            .and_then(|items| {
                items
                    .iter()
                    .map(|v| v.as_str().map(str::to_owned))
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| {
                RpcError::new(
                    ErrorCode::InvalidParams,
                    format!("'policy.{what}' must be an array of strings"),
                )
            })
    };
    for (key, value) in spec {
        match key.as_str() {
            "blocked_tools" => {
                policy = policy.with_blocked_tools(strings(value, "blocked_tools")?);
            }
            "object_blacklist" => {
                policy = policy.with_blacklist(strings(value, "object_blacklist")?);
            }
            "object_whitelist" => {
                policy = policy.with_whitelist(strings(value, "object_whitelist")?);
            }
            "max_risk" => {
                let risk = value.as_str().and_then(risk_from_str).ok_or_else(|| {
                    RpcError::new(
                        ErrorCode::InvalidParams,
                        "'policy.max_risk' must be one of safe|mutating|destructive",
                    )
                })?;
                policy = policy.with_max_risk(risk);
            }
            other => {
                return Err(RpcError::new(
                    ErrorCode::InvalidParams,
                    format!("unknown policy field '{other}'"),
                ));
            }
        }
    }
    Ok(policy)
}

/// Socket read-timeout tick: how often a blocked read re-checks the stop
/// flag and the frame deadline.
const SOCKET_TICK: Duration = Duration::from_millis(50);
/// Accept-loop poll interval while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// A running TCP wire server. Dropping it without calling
/// [`WireServer::shutdown`] aborts ungracefully (threads are detached).
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Readiness for the admin `/readyz` endpoint: `true` while serving,
    /// flipped `false` at the very start of [`WireServer::shutdown`] —
    /// before the worker pool drains — so load balancers stop routing
    /// while in-flight calls finish.
    ready: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pool: Arc<Pool>,
    obs: Obs,
    /// Handle to the tenancy's database so graceful shutdown can flush and
    /// checkpoint a durable engine.
    db: Database,
}

impl WireServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections.
    pub fn bind(
        addr: impl ToSocketAddrs,
        tenancy: Tenancy,
        config: WireConfig,
        obs: Obs,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let db = tenancy.database().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicBool::new(true));
        let stats = Arc::new(WireStats::default());
        let pool = Arc::new(Pool::new(
            config.workers,
            config.queue_depth,
            &config.tenant_weights,
            Arc::clone(&stats),
            obs.clone(),
        ));
        // Live gauges: database internals plus wire-layer occupancy, shared
        // by every session. A second server on the same handle replaces
        // these series rather than duplicating them.
        db.register_gauges(&obs);
        {
            let stats = Arc::clone(&stats);
            obs.register_gauge("wire.active_sessions", &[], move || {
                stats.active_sessions.load(Ordering::Relaxed) as f64
            });
        }
        {
            let stats = Arc::clone(&stats);
            obs.register_gauge("wire.queue_depth", &[], move || {
                stats.queue_depth.load(Ordering::Relaxed) as f64
            });
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            let obs = obs.clone();
            let tenancy = Arc::new(tenancy);
            let config = Arc::new(config);
            thread::Builder::new()
                .name("wire-accept".into())
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                obs.incr("wire.connections", 1);
                                let stop = Arc::clone(&stop);
                                let pool = Arc::clone(&pool);
                                let obs = obs.clone();
                                let tenancy = Arc::clone(&tenancy);
                                let config = Arc::clone(&config);
                                let stats = Arc::clone(&stats);
                                let handle = thread::Builder::new()
                                    .name("wire-conn".into())
                                    .spawn(move || {
                                        handle_conn(
                                            stream, &tenancy, &config, &pool, &obs, &stop, stats,
                                        );
                                    })
                                    .expect("spawn wire connection");
                                conns.push(handle);
                                conns.retain(|h| !h.is_finished());
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(ACCEPT_TICK);
                            }
                            Err(_) => thread::sleep(ACCEPT_TICK),
                        }
                    }
                    // Drain: connection threads observe the stop flag at
                    // their next socket tick and run down.
                    for h in conns {
                        let _ = h.join();
                    }
                })
                .expect("spawn wire accept loop")
        };
        Ok(WireServer {
            addr: local,
            stop,
            ready,
            accept: Some(accept),
            pool,
            obs,
            db,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The observability handle every session records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The readiness flag mirrored by an [`crate::AdminServer`]'s `/readyz`
    /// endpoint: `true` while serving, `false` once a drain begins.
    pub fn ready_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.ready)
    }

    /// Stop accepting, let live connections notice the stop flag, finish
    /// in-flight tool calls, and join every thread. With a durable engine,
    /// the drain point then flushes the WAL and compacts a snapshot, so the
    /// next open recovers instantly without replaying the whole log.
    /// Finally the telemetry handle is flushed, writing the JSONL trace
    /// (including captured slow calls) if one is configured.
    pub fn shutdown(mut self) {
        // Readiness drops first: `/readyz` must report 503 for the whole
        // drain window, not just after it.
        self.ready.store(false, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.pool.shutdown();
        if self.db.is_durable() {
            if let Err(e) = self.db.flush_wal().and_then(|()| self.db.checkpoint()) {
                // Committed data is already on disk via commit-time writes;
                // a failed compaction only costs replay time on reopen.
                self.obs.incr("wire.shutdown.checkpoint_errors", 1);
                let mut span = self.obs.span("wire:shutdown-checkpoint-failed");
                span.attr("error", e.to_string());
            }
        }
        let _ = self.obs.flush();
    }
}

fn handle_conn(
    stream: TcpStream,
    tenancy: &Tenancy,
    config: &WireConfig,
    pool: &Arc<Pool>,
    obs: &Obs,
    stop: &AtomicBool,
    stats: Arc<WireStats>,
) {
    let _ = stream.set_read_timeout(Some(SOCKET_TICK));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    // Responses are single small frames on a request/response protocol;
    // Nagle buys nothing here and costs a delayed-ACK round trip.
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(read_half, config.max_frame_bytes);
    let mut writer = stream;
    let mut ctx = SessionCtx::new(tenancy, config, obs).with_stats(stats);
    let exec = PooledExecutor {
        pool: Arc::clone(pool),
        call_timeout: config.call_timeout,
    };
    loop {
        let frame = match reader.read_frame(Some(config.read_timeout), Some(stop)) {
            Ok(frame) => frame,
            Err(FrameError::Closed) | Err(FrameError::TruncatedEof) | Err(FrameError::Io(_)) => {
                break;
            }
            Err(FrameError::TooLarge { limit }) => {
                obs.incr("wire.rejected.oversize", 1);
                let err = RpcError::new(
                    ErrorCode::FrameTooLarge,
                    format!("frame exceeds the {limit}-byte limit"),
                );
                let _ = write_frame(&mut writer, response_err(&Json::Null, &err));
                break;
            }
            Err(FrameError::Timeout { deadline }) => {
                // An idle peer just gets disconnected; a peer that dribbled
                // a partial frame gets told why.
                if reader.pending_bytes() > 0 {
                    obs.incr("wire.rejected.timeout", 1);
                    let err = RpcError::new(
                        ErrorCode::DeadlineExceeded,
                        format!("no complete frame within {}ms", deadline.as_millis()),
                    );
                    let _ = write_frame(&mut writer, response_err(&Json::Null, &err));
                }
                break;
            }
            Err(FrameError::InvalidUtf8) => {
                let err = RpcError::new(ErrorCode::ParseError, "frame is not valid UTF-8");
                let _ = write_frame(&mut writer, response_err(&Json::Null, &err));
                break;
            }
        };
        if stop.load(Ordering::Relaxed) {
            let err = RpcError::new(ErrorCode::ShuttingDown, "server is draining");
            let _ = write_frame(&mut writer, response_err(&Json::Null, &err));
            break;
        }
        let dispatch = match parse_request(&frame) {
            Ok(req) => ctx.dispatch(req, &exec),
            Err(err) => Dispatch {
                frame: response_err(&Json::Null, &err),
                close: false,
            },
        };
        if write_frame(&mut writer, dispatch.frame).is_err() || dispatch.close {
            break;
        }
    }
    // Dropping `ctx` closes the session's `wire:session` span, if any.
}

/// Serve exactly one session over arbitrary byte streams — the stdio
/// transport. Calls execute inline (no pool): stdio has a single client,
/// so concurrency buys nothing. Returns when the peer sends `shutdown` or
/// closes its end.
pub fn serve_stream<R: Read, W: Write>(
    tenancy: &Tenancy,
    config: &WireConfig,
    obs: &Obs,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    let mut reader = FrameReader::new(input, config.max_frame_bytes);
    let mut ctx = SessionCtx::new(tenancy, config, obs);
    loop {
        let frame = match reader.read_frame(None, None) {
            Ok(frame) => frame,
            Err(FrameError::Closed) | Err(FrameError::TruncatedEof) => break,
            Err(FrameError::TooLarge { limit }) => {
                let err = RpcError::new(
                    ErrorCode::FrameTooLarge,
                    format!("frame exceeds the {limit}-byte limit"),
                );
                write_frame(&mut output, response_err(&Json::Null, &err))?;
                break;
            }
            Err(FrameError::InvalidUtf8) => {
                let err = RpcError::new(ErrorCode::ParseError, "frame is not valid UTF-8");
                write_frame(&mut output, response_err(&Json::Null, &err))?;
                break;
            }
            Err(FrameError::Timeout { .. }) => break,
            Err(FrameError::Io(e)) => {
                return Err(std::io::Error::other(e));
            }
        };
        let dispatch = match parse_request(&frame) {
            Ok(req) => ctx.dispatch(req, &InlineExecutor),
            Err(err) => Dispatch {
                frame: response_err(&Json::Null, &err),
                close: false,
            },
        };
        write_frame(&mut output, dispatch.frame)?;
        if dispatch.close {
            break;
        }
    }
    Ok(())
}

/// Serve one session on this process's stdin/stdout (the MCP-style stdio
/// transport: the parent process owns the pipes).
pub fn serve_stdio(tenancy: &Tenancy, config: &WireConfig, obs: &Obs) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_stream(tenancy, config, obs, stdin.lock(), stdout.lock())
}
