//! The concurrent wire server: sessions, admission, call deadlines, and
//! graceful shutdown.
//!
//! Every accepted connection gets a dedicated thread and — after a
//! successful `initialize` — its own session: a per-user
//! [`BridgeScopeServer`] surface built over the shared [`minidb::Database`].
//! Privilege-gated tool visibility is therefore enforced *server-side per
//! session*: a read-only user's session never lists `insert`, no matter
//! what the client sends.
//!
//! A tool call runs on its connection's thread while it holds one of a
//! fixed number of admission tickets ([`gate::Admission`]). A call that
//! finds none free waits in its tenant's bounded queue; a tenant whose
//! queue is full is answered `server_busy` immediately instead of accepting
//! unbounded work — backpressure is a protocol feature, not an accident of
//! TCP buffers. The call's deadline stops the engine work it started
//! ([`minidb::deadline`]), and a panicking tool ends only its own session.

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::rpc::{
    parse_request, response_err, response_err_traced, response_ok_traced, risk_from_str,
    risk_to_str, take_string, tool_error_to_rpc, tool_output_into_json, ErrorCode, Request,
    RpcError, PROTOCOL,
};
use bridgescope_core::{BridgeScopeServer, SecurityPolicy};
use gate::{Admission, GateConfig, SubmitError, Ticket};
use minidb::Database;
use obs::Obs;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use toolproto::{Json, Registry, ToolError, ToolResult};

/// Tunable limits for a [`WireServer`]. Defaults are production-shaped but
/// small; tests shrink them to provoke each failure mode deterministically.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Tool calls that may execute at once (TCP). Each runs on its own
    /// connection's thread while it holds one of this many admission
    /// tickets.
    pub workers: usize,
    /// Calls each tenant may have waiting for a ticket; the next one is
    /// shed with `server_busy` while other tenants keep waiting.
    pub queue_depth: usize,
    /// Weighted round-robin shares for named tenants; everyone else gets
    /// weight 1. As tickets free up, a tenant with weight *w* is granted up
    /// to *w* consecutive tickets each time the rotation reaches it.
    pub tenant_weights: Vec<(String, u32)>,
    /// Maximum accepted frame size in bytes.
    pub max_frame_bytes: usize,
    /// Per-frame read deadline (also the idle timeout between requests).
    pub read_timeout: Duration,
    /// Deadline on the engine work of one tool call, counted from when it
    /// starts to run: the executor stops a statement still running past it
    /// and the call is answered `deadline_exceeded`. A commit that has
    /// started finishes, and a tool that never reaches the engine runs to
    /// completion and returns its real result.
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

/// What the TCP server's connections share beyond the tenancy, read by
/// registered admin gauges (`wire.queue_depth`, `wire.active_sessions`).
struct Occupancy {
    /// The tickets every tool call holds while it runs.
    admission: Admission,
    /// Sessions that have initialized and not yet disconnected.
    active_sessions: AtomicU64,
}

/// Decrements the active-session count when a session ends, however the
/// connection terminates (clean shutdown, timeout, or dropped socket).
struct ActiveSessionGuard(Arc<Occupancy>);

impl Drop for ActiveSessionGuard {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One authenticated session: the per-user tool surface plus the
/// `wire:session` span that parents everything the session does.
struct Session {
    registry: Registry,
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

/// Take an admission ticket for one of `user`'s calls, counting the
/// outcome.
fn admit<'a>(admission: &'a Admission, user: &str, obs: &Obs) -> Result<Ticket<'a>, RpcError> {
    match admission.admit(user) {
        Ok(ticket) => {
            obs.incr_with("gate.admitted", &[("user", user)], 1);
            Ok(ticket)
        }
        Err(SubmitError::Shed) => {
            obs.incr_with("gate.shed", &[("user", user)], 1);
            obs.incr("wire.rejected.busy", 1);
            Err(RpcError::new(
                ErrorCode::ServerBusy,
                "admission queue is full; retry later",
            ))
        }
        Err(SubmitError::Closed) => Err(RpcError::new(
            ErrorCode::ShuttingDown,
            "server stopped before the call started",
        )),
    }
}

/// Per-connection protocol state machine, shared by TCP and stdio.
struct SessionCtx<'a> {
    tenancy: &'a Tenancy,
    config: &'a WireConfig,
    obs: &'a Obs,
    session: Option<Session>,
    /// Admission and session counts of the owning TCP server; `None` on
    /// stdio, whose one client needs no admission.
    occupancy: Option<Arc<Occupancy>>,
    /// Set when a call panicked: the session is gone and the connection
    /// closes after the reply.
    ended: bool,
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
            occupancy: None,
            ended: false,
        }
    }

    fn with_occupancy(mut self, occupancy: Arc<Occupancy>) -> Self {
        self.occupancy = Some(occupancy);
        self
    }

    fn dispatch(&mut self, req: Request) -> Dispatch {
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
            "tools/call" => self.charged(|ctx| ctx.tools_call(req.params, trace)),
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
        Dispatch {
            frame,
            close: close || self.ended,
        }
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
        let active = self.occupancy.as_ref().map(|occupancy| {
            occupancy.active_sessions.fetch_add(1, Ordering::Relaxed);
            ActiveSessionGuard(Arc::clone(occupancy))
        });
        self.session = Some(Session {
            registry: server.registry,
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

    /// Run one registry call in a `wire:call` span placed per [`CallTrace`].
    /// Everything the call does downstream — gate checks, tool dispatch,
    /// SQL execution — runs on this thread under the span's trace, so one
    /// trace id names the full path, and under a deadline
    /// [`WireConfig::call_timeout`] from now, which the engine checks as it
    /// works. The call is also registered in the in-flight registry for the
    /// admin `/queries` endpoint. `admission_wait` is how long the call
    /// waited for its ticket, if it had to.
    ///
    /// A panic inside the tool is contained here and comes back as `Err`: a
    /// typed `internal:` execution error, after which the caller ends the
    /// session.
    fn traced_call(
        &self,
        session: &Session,
        tool: &str,
        payload: Json,
        trace: CallTrace,
        admission_wait: Option<Duration>,
    ) -> Result<ToolResult, ToolError> {
        let (obs, user) = (self.obs, session.user.as_str());
        let _scope = obs::adopt_context(trace.ctx);
        let mut span = obs.span("wire:call");
        span.attr("tool", tool);
        span.attr("user", user);
        if let Some(remote) = trace.remote_parent {
            span.attr("trace.remote_parent", remote.to_string());
        }
        if let Some(waited) = admission_wait {
            let ns = waited.as_nanos() as u64;
            span.attr("admission.wait_ns", ns);
            obs.observe_ns("wire.admission.wait", ns);
        }
        let _inflight = obs.begin_call(user, tool);
        let started = obs.now_ns();
        let outcome = {
            let _deadline =
                minidb::deadline::scope(Instant::now().checked_add(self.config.call_timeout));
            panic::catch_unwind(AssertUnwindSafe(|| {
                session.registry.call_owned(tool, payload)
            }))
        };
        obs.observe_ns("wire.call.latency", obs.now_ns().saturating_sub(started));
        let outcome = outcome.map_err(|payload| {
            let what = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            ToolError::Execution(format!("internal: tool '{tool}' panicked: {what}"))
        });
        if let Ok(Err(e)) | Err(e) = &outcome {
            span.fail(e.to_string());
        }
        outcome
    }

    fn tools_call(&mut self, params: Json, trace: CallTrace) -> Result<Json, RpcError> {
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
        // Only TCP takes a ticket; it is released when this call returns,
        // before the reply is written.
        let ticket = match &self.occupancy {
            Some(occupancy) => Some(admit(&occupancy.admission, &session.user, self.obs)?),
            None => None,
        };
        let waited = ticket.as_ref().and_then(Ticket::waited);
        let outcome = self.traced_call(session, &name, payload, trace, waited);
        drop(ticket);
        match outcome {
            Ok(Ok(output)) => Ok(tool_output_into_json(output)),
            // The engine stopped the call at its deadline (minidb's stable
            // "deadline exceeded" prefix).
            Ok(Err(ToolError::Execution(message))) if message.starts_with("deadline exceeded") => {
                self.obs.incr("wire.rejected.timeout", 1);
                Err(RpcError::new(
                    ErrorCode::DeadlineExceeded,
                    format!(
                        "tool call exceeded the {}ms deadline and was stopped",
                        self.config.call_timeout.as_millis()
                    ),
                ))
            }
            Ok(Err(tool_err)) => Err(tool_error_to_rpc(&tool_err)),
            Err(panicked) => {
                // Whatever the tool left half done dies with the session:
                // dropping it rolls back an open transaction.
                self.session = None;
                self.ended = true;
                Err(tool_error_to_rpc(&panicked))
            }
        }
    }
}

/// Decode the optional `policy` member of `initialize` params into a
/// requested [`SecurityPolicy`]. Unspecified dials are left maximally
/// permissive so [`SecurityPolicy::restricted_by`] treats them as "no
/// request" rather than an accidental tightening.
fn decode_requested_policy(params: &Json) -> Result<SecurityPolicy, RpcError> {
    let mut policy = SecurityPolicy::permissive().with_schema_threshold(usize::MAX);
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
            "column_blacklist" => {
                let pairs = value
                    .as_array()
                    .and_then(|items| {
                        items
                            .iter()
                            .map(|pair| match pair.as_array()? {
                                [table, column] => {
                                    Some((table.as_str()?.to_owned(), column.as_str()?.to_owned()))
                                }
                                _ => None,
                            })
                            .collect::<Option<Vec<_>>>()
                    })
                    .ok_or_else(|| {
                        RpcError::new(
                            ErrorCode::InvalidParams,
                            "'policy.column_blacklist' must be an array of [table, column] pairs",
                        )
                    })?;
                policy = policy.with_column_blacklist(pairs);
            }
            "schema_threshold" => {
                let n = value
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| {
                        RpcError::new(
                            ErrorCode::InvalidParams,
                            "'policy.schema_threshold' must be a non-negative integer",
                        )
                    })?;
                policy = policy.with_schema_threshold(n);
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
/// Socket write timeout: a peer that stops reading is dropped after this.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Accept-loop poll interval while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// A running TCP wire server. Dropping it without calling
/// [`WireServer::shutdown`] aborts ungracefully (threads are detached).
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Readiness for the admin `/readyz` endpoint: `true` while serving,
    /// flipped `false` at the very start of [`WireServer::shutdown`] —
    /// before in-flight calls drain — so load balancers stop routing
    /// while they finish.
    ready: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    occupancy: Arc<Occupancy>,
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
        let occupancy = Arc::new(Occupancy {
            admission: Admission::new(
                config.workers,
                config.queue_depth,
                config.tenant_weights.iter().cloned(),
            ),
            active_sessions: AtomicU64::new(0),
        });
        // Live gauges: database internals plus wire-layer occupancy, shared
        // by every session. A second server on the same handle replaces
        // these series rather than duplicating them.
        db.register_gauges(&obs);
        {
            let occupancy = Arc::clone(&occupancy);
            obs.register_gauge("wire.active_sessions", &[], move || {
                occupancy.active_sessions.load(Ordering::Relaxed) as f64
            });
        }
        {
            let occupancy = Arc::clone(&occupancy);
            obs.register_gauge("wire.queue_depth", &[], move || {
                occupancy.admission.waiting() as f64
            });
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let occupancy = Arc::clone(&occupancy);
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
                                let conn_obs = obs.clone();
                                let tenancy = Arc::clone(&tenancy);
                                let config = Arc::clone(&config);
                                let occupancy = Arc::clone(&occupancy);
                                let spawned = thread::Builder::new()
                                    .name("wire-conn".into())
                                    .spawn(move || {
                                        handle_conn(
                                            stream, &tenancy, &config, &conn_obs, &stop, occupancy,
                                        );
                                    });
                                match spawned {
                                    Ok(handle) => conns.push(handle),
                                    // No thread for this connection (the
                                    // process is at its thread limit): the
                                    // unstarted closure drops its stream,
                                    // closing just this connection, and the
                                    // loop keeps accepting.
                                    Err(_) => obs.incr("wire.rejected.busy", 1),
                                }
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
                })?
        };
        Ok(WireServer {
            addr: local,
            stop,
            ready,
            accept: Some(accept),
            occupancy,
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

    /// Stop accepting, answer calls still waiting for a ticket
    /// `shutting_down`, let live connections notice the stop flag, finish
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
        self.occupancy.admission.close();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
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
    obs: &Obs,
    stop: &AtomicBool,
    occupancy: Arc<Occupancy>,
) {
    let _ = stream.set_read_timeout(Some(SOCKET_TICK));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Responses are single small frames on a request/response protocol;
    // Nagle buys nothing here and costs a delayed-ACK round trip.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let ctx = SessionCtx::new(tenancy, config, obs).with_occupancy(occupancy);
    let reader = FrameReader::new(read_half, config.max_frame_bytes);
    // A socket error just ends the connection.
    let _ = serve_frames(ctx, reader, stream, Some(config.read_timeout), Some(stop));
}

/// The connection loop TCP and stdio share: read a frame, dispatch it,
/// write the reply, until the peer leaves, a reply closes the connection,
/// or `stop` is raised. A frame the reader rejects is answered with a typed
/// error and ends the connection; an idle peer is just disconnected.
/// `wire.bytes{dir}` counts every frame read and written, delimiter
/// included, from lengths the loop already holds.
///
/// `deadline` bounds the wait for each frame and `stop` is polled between
/// socket ticks; a blocking stream (stdio) passes `None` for both. Dropping
/// `ctx` on return closes the session's `wire:session` span, if any.
fn serve_frames<R: Read, W: Write>(
    mut ctx: SessionCtx<'_>,
    mut reader: FrameReader<R>,
    mut writer: W,
    deadline: Option<Duration>,
    stop: Option<&AtomicBool>,
) -> std::io::Result<()> {
    let obs = ctx.obs;
    let mut send = |frame: String| -> std::io::Result<()> {
        let bytes = write_frame(&mut writer, frame)?;
        obs.incr_with("wire.bytes", &[("dir", "out")], bytes as u64);
        Ok(())
    };
    loop {
        let frame = match reader.read_frame(deadline, stop) {
            Ok(frame) => frame,
            Err(err) => {
                let (code, rejected) = match &err {
                    FrameError::Closed | FrameError::TruncatedEof => return Ok(()),
                    FrameError::Io(e) => return Err(std::io::Error::other(e.clone())),
                    FrameError::Timeout { .. } if reader.pending_bytes() == 0 => return Ok(()),
                    FrameError::Timeout { .. } => {
                        (ErrorCode::DeadlineExceeded, Some("wire.rejected.timeout"))
                    }
                    FrameError::TooLarge { .. } => {
                        (ErrorCode::FrameTooLarge, Some("wire.rejected.oversize"))
                    }
                    FrameError::InvalidUtf8 => (ErrorCode::ParseError, None),
                };
                if let Some(counter) = rejected {
                    obs.incr(counter, 1);
                }
                return send(response_err(
                    &Json::Null,
                    &RpcError::new(code, err.to_string()),
                ));
            }
        };
        obs.incr_with(
            "wire.bytes",
            &[("dir", "in")],
            reader.last_frame_len() as u64,
        );
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            let err = RpcError::new(ErrorCode::ShuttingDown, "server is draining");
            return send(response_err(&Json::Null, &err));
        }
        let dispatch = match parse_request(&frame) {
            Ok(req) => ctx.dispatch(req),
            Err(err) => Dispatch {
                frame: response_err(&Json::Null, &err),
                close: false,
            },
        };
        send(dispatch.frame)?;
        if dispatch.close {
            return Ok(());
        }
    }
}

/// Serve exactly one session over arbitrary byte streams — the stdio
/// transport. Calls take no admission ticket: stdio has a single client.
/// Returns when the peer sends `shutdown` or closes its end.
pub fn serve_stream<R: Read, W: Write>(
    tenancy: &Tenancy,
    config: &WireConfig,
    obs: &Obs,
    input: R,
    output: W,
) -> std::io::Result<()> {
    let ctx = SessionCtx::new(tenancy, config, obs);
    let reader = FrameReader::new(input, config.max_frame_bytes);
    serve_frames(ctx, reader, output, None, None)
}

/// Serve one session on this process's stdin/stdout (the MCP-style stdio
/// transport: the parent process owns the pipes).
pub fn serve_stdio(tenancy: &Tenancy, config: &WireConfig, obs: &Obs) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_stream(tenancy, config, obs, stdin.lock(), stdout.lock())
}
