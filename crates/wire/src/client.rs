//! Blocking wire client, plus a *mirror registry* that re-materializes the
//! remote tool surface as local [`Tool`] implementations.
//!
//! The mirror is what makes the wire layer transparent to agents: a
//! `tools/list` response carries enough structure (name, description,
//! typed signature, risk) to rebuild each tool locally, so
//! [`Registry::render_prompt`] over the mirror is byte-identical to the
//! prompt an in-process [`bridgescope_core::BridgeScopeServer`] would
//! produce — and every invocation forwards over the socket, with tool
//! errors (including denial codes and [`toolproto::DenialContext`])
//! reconstructed exactly.

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::rpc::{
    request_frame_traced, risk_from_str, rpc_to_tool_error, take_string,
    tool_output_from_json_owned, RpcError, PROTOCOL,
};
use obs::TraceContext;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use toolproto::{
    ArgSpec, ArgType, Args, Json, Registry, Risk, Signature, Tool, ToolError, ToolResult,
};

/// Why a client operation failed at the transport or protocol level.
/// Tool-level failures are *not* errors here — they come back as
/// `Ok(Err(ToolError))` from [`Client::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Socket-level failure.
    Io(String),
    /// Framing failure (oversize, timeout, close).
    Frame(FrameError),
    /// The peer violated the protocol (bad JSON-RPC envelope, id mismatch).
    Protocol(String),
    /// The server answered with a non-tool-band JSON-RPC error.
    Rpc(RpcError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "I/O: {e}"),
            WireError::Frame(e) => write!(f, "framing: {e}"),
            WireError::Protocol(e) => write!(f, "protocol: {e}"),
            WireError::Rpc(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

/// One tool as advertised by `tools/list`.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolEntry {
    /// Tool name.
    pub name: String,
    /// LLM-facing description.
    pub description: String,
    /// Rebuilt argument signature.
    pub signature: Signature,
    /// Risk class.
    pub risk: Risk,
}

/// How long a client waits for each response: past the server's call timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A blocking JSON-RPC client for one wire session.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    last_traceparent: Option<String>,
}

impl Client {
    /// Connect to a [`crate::WireServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        Client::over(stream)
    }

    /// Build a client over an already-connected stream.
    pub fn over(stream: TcpStream) -> Result<Client, WireError> {
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        stream.set_nodelay(true)?;
        let reader = FrameReader::new(stream.try_clone()?, crate::frame::DEFAULT_MAX_FRAME_BYTES);
        Ok(Client {
            reader,
            writer: stream,
            next_id: 1,
            last_traceparent: None,
        })
    }

    /// Issue one request and wait for the matching response. Returns the
    /// `result` value, or the server's error object.
    pub fn request(&mut self, method: &str, params: &Json) -> Result<Json, WireError> {
        self.request_traced(method, params, None)
    }

    /// Like [`Client::request`], carrying an optional `traceparent`. The
    /// traceparent the server echoes (the *effective* one — the server may
    /// substitute its own context for a malformed value) is retained and
    /// readable via [`Client::last_traceparent`].
    pub(crate) fn request_traced(
        &mut self,
        method: &str,
        params: &Json,
        traceparent: Option<&str>,
    ) -> Result<Json, WireError> {
        let id = Json::num(self.next_id as f64);
        self.next_id += 1;
        let frame = request_frame_traced(&id, method, params, traceparent);
        write_frame(&mut self.writer, frame)?;
        let reply = self.reader.read_frame(Some(RESPONSE_TIMEOUT), None)?;
        let doc = Json::parse(&reply)
            .map_err(|e| WireError::Protocol(format!("unparseable response: {e}")))?;
        // The reply is taken apart by value: `result` (possibly thousands
        // of rows) moves out of the parsed document.
        let Json::Object(mut members) = doc else {
            return Err(WireError::Protocol("response is not an object".into()));
        };
        self.last_traceparent = take_string(&mut members, "traceparent");
        let reply_id = members.remove("id").unwrap_or(Json::Null);
        if reply_id != id && !reply_id.is_null() {
            return Err(WireError::Protocol(format!(
                "response id mismatch (sent {id}, got {reply_id})"
            )));
        }
        if let Some(error) = members.get("error") {
            let rpc = RpcError::from_json(error).map_err(WireError::Protocol)?;
            return Err(WireError::Rpc(rpc));
        }
        members
            .remove("result")
            .ok_or_else(|| WireError::Protocol("response has neither result nor error".into()))
    }

    /// Open a session as `user` with no requested policy restrictions.
    pub fn initialize(&mut self, user: &str) -> Result<Json, WireError> {
        self.initialize_with(user, &Json::Null)
    }

    /// Open a session as `user`, optionally requesting additional policy
    /// restrictions: an object with any of `blocked_tools`,
    /// `object_blacklist`, `object_whitelist` (arrays of names),
    /// `column_blacklist` (an array of `[table, column]` pairs), `max_risk`
    /// (`safe|mutating|destructive`), and `schema_threshold` (a
    /// non-negative integer). The server merges it with its base policy,
    /// tightening only, and answers any other key or a malformed value with
    /// `InvalidParams`.
    pub fn initialize_with(&mut self, user: &str, policy: &Json) -> Result<Json, WireError> {
        let mut pairs = vec![("protocol", Json::str(PROTOCOL)), ("user", Json::str(user))];
        if !policy.is_null() {
            pairs.push(("policy", policy.clone()));
        }
        self.request("initialize", &Json::object(pairs))
    }

    /// Fetch the session's tool surface, signatures rebuilt.
    pub fn tools_list(&mut self) -> Result<Vec<ToolEntry>, WireError> {
        let result = self.request("tools/list", &Json::Null)?;
        let tools = result
            .get("tools")
            .and_then(Json::as_array)
            .ok_or_else(|| WireError::Protocol("tools/list result missing 'tools'".into()))?;
        tools.iter().map(decode_tool_entry).collect()
    }

    /// Invoke a remote tool. Transport/protocol failures are the outer
    /// error; tool-level outcomes (success *or* denial/validation/execution
    /// failure) land in the inner [`ToolResult`], structurally identical to
    /// an in-process invocation.
    pub fn call(&mut self, name: &str, arguments: &Json) -> Result<ToolResult, WireError> {
        // No traceparent: the server nests the call under its own
        // wire:session span, so a whole session reads as one trace.
        self.call_inner(name, arguments, None)
    }

    /// Invoke a remote tool under an explicit trace context — the caller's
    /// own span context serialized as a traceparent, so the remote spans
    /// join a trace that started on this side of the wire.
    pub fn call_traced(
        &mut self,
        name: &str,
        arguments: &Json,
        ctx: &TraceContext,
    ) -> Result<ToolResult, WireError> {
        self.call_inner(name, arguments, Some(&ctx.to_traceparent()))
    }

    fn call_inner(
        &mut self,
        name: &str,
        arguments: &Json,
        traceparent: Option<&str>,
    ) -> Result<ToolResult, WireError> {
        let params = Json::object([("name", Json::str(name)), ("arguments", arguments.clone())]);
        match self.request_traced("tools/call", &params, traceparent) {
            Ok(result) => {
                let output = tool_output_from_json_owned(result).map_err(WireError::Protocol)?;
                Ok(Ok(output))
            }
            Err(WireError::Rpc(rpc)) => match rpc_to_tool_error(&rpc) {
                Some(tool_err) => Ok(Err(tool_err)),
                None => Err(WireError::Rpc(rpc)),
            },
            Err(other) => Err(other),
        }
    }

    /// The `traceparent` echoed on the most recent response, if any — the
    /// effective trace the server filed that request under.
    pub fn last_traceparent(&self) -> Option<&str> {
        self.last_traceparent.as_deref()
    }

    /// End the session; the server closes the connection afterwards.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.request("shutdown", &Json::Null).map(|_| ())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), WireError> {
        let result = self.request("ping", &Json::Null)?;
        if result.as_str() == Some("pong") {
            Ok(())
        } else {
            Err(WireError::Protocol("ping did not pong".into()))
        }
    }
}

fn decode_tool_entry(value: &Json) -> Result<ToolEntry, WireError> {
    let get_str = |key: &str| -> Result<String, WireError> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| WireError::Protocol(format!("tool entry missing string '{key}'")))
    };
    let name = get_str("name")?;
    let description = get_str("description")?;
    let risk = risk_from_str(&get_str("risk")?)
        .ok_or_else(|| WireError::Protocol(format!("tool '{name}' has an unknown risk class")))?;
    let sig = value
        .get("signature")
        .ok_or_else(|| WireError::Protocol(format!("tool '{name}' missing signature")))?;
    let allow_extra = sig
        .get("allow_extra")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let args = sig
        .get("args")
        .and_then(Json::as_array)
        .ok_or_else(|| WireError::Protocol(format!("tool '{name}' signature missing args")))?
        .iter()
        .map(|arg| {
            let field = |key: &str| arg.get(key).and_then(Json::as_str);
            let arg_name = field("name")
                .ok_or_else(|| WireError::Protocol(format!("arg of '{name}' missing name")))?;
            let ty_text = field("type").ok_or_else(|| {
                WireError::Protocol(format!("arg '{arg_name}' of '{name}' missing type"))
            })?;
            let ty = ArgType::parse(ty_text).ok_or_else(|| {
                WireError::Protocol(format!(
                    "arg '{arg_name}' of '{name}' has unknown type '{ty_text}'"
                ))
            })?;
            Ok(ArgSpec {
                name: arg_name.to_owned(),
                ty,
                description: field("description").unwrap_or_default().to_owned(),
                required: arg.get("required").and_then(Json::as_bool).unwrap_or(true),
                default: arg.get("default").cloned(),
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(ToolEntry {
        name,
        description,
        signature: Signature { args, allow_extra },
        risk,
    })
}

/// A local [`Tool`] that forwards invocations to a remote session. The
/// shared client is mutex-guarded: the underlying protocol is
/// request/response, so calls serialize per session (matching the agent
/// loop, which issues one tool call at a time).
struct MirrorTool {
    entry: ToolEntry,
    client: Arc<Mutex<Client>>,
}

impl Tool for MirrorTool {
    fn name(&self) -> &str {
        &self.entry.name
    }

    fn description(&self) -> &str {
        &self.entry.description
    }

    fn signature(&self) -> &Signature {
        &self.entry.signature
    }

    fn risk(&self) -> Risk {
        self.entry.risk
    }

    fn invoke(&self, args: &Args) -> ToolResult {
        let payload = Json::Object(args.clone());
        let mut client = self
            .client
            .lock()
            .map_err(|_| ToolError::Execution("wire client poisoned".into()))?;
        match client.call(&self.entry.name, &payload) {
            Ok(result) => result,
            // Transport failures surface as execution errors: retryable
            // from the agent's point of view, like any runtime fault.
            Err(e) => Err(ToolError::Execution(format!("wire transport: {e}"))),
        }
    }
}

/// Build a local [`Registry`] mirroring the remote session's surface.
/// `registry.render_prompt()` on the result equals the server-side prompt
/// byte for byte, and every call round-trips over the wire.
pub fn mirror_registry(client: Arc<Mutex<Client>>) -> Result<Registry, WireError> {
    let entries = client
        .lock()
        .map_err(|_| WireError::Protocol("wire client poisoned".into()))?
        .tools_list()?;
    let mut registry = Registry::new();
    for entry in entries {
        registry.register(Arc::new(MirrorTool {
            entry,
            client: Arc::clone(&client),
        }));
    }
    Ok(registry)
}
