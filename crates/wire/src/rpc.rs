//! JSON-RPC 2.0 message model with MCP-flavored methods and a lossless
//! encoding of [`ToolError`] so denial semantics survive the wire.
//!
//! The protocol is deliberately tiny: four methods (`initialize`,
//! `tools/list`, `tools/call`, `shutdown`) plus `ping`, request/response
//! only (no server-initiated notifications), and typed error codes in the
//! JSON-RPC server-error range. Everything round-trips through
//! [`toolproto::Json`], so the same hardened parser that guards tool
//! arguments guards the protocol envelope.

use std::collections::BTreeMap;
use toolproto::{ArgError, DenialContext, Json, Risk, ToolError, ToolOutput};

/// Protocol identifier negotiated during `initialize`.
pub const PROTOCOL: &str = "bridgescope-wire/1";

/// Typed wire error codes. Standard JSON-RPC codes where they exist;
/// everything BridgeScope-specific lives in the reserved server range
/// (-32000..-32099). Tool-level failures get their own band so clients can
/// reconstruct the exact [`ToolError`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not parseable JSON (-32700).
    ParseError,
    /// The frame parsed but is not a valid JSON-RPC request (-32600).
    InvalidRequest,
    /// Unknown method (-32601).
    MethodNotFound,
    /// Malformed `params` for a known method (-32602).
    InvalidParams,
    /// The tenant's admission queue is full — back off and retry (-32000).
    ServerBusy,
    /// The frame exceeded the server's size limit (-32001).
    FrameTooLarge,
    /// A read/write/call deadline elapsed (-32002).
    DeadlineExceeded,
    /// The session exhausted its per-session request budget (-32003).
    SessionLimit,
    /// A method other than `initialize`/`ping` arrived first (-32004).
    NotInitialized,
    /// `initialize` named a user the database does not know (-32005).
    AuthFailed,
    /// The server is draining and accepts no new work (-32006).
    ShuttingDown,
    /// Tool invocation denied by a security gate (-32010).
    ToolDenied,
    /// Tool not registered / not exposed to this session (-32011).
    ToolUnknown,
    /// Tool arguments failed signature validation (-32012).
    ToolInvalidArgs,
    /// The tool ran and failed (-32013).
    ToolExecution,
}

impl ErrorCode {
    /// Numeric JSON-RPC code.
    pub fn code(self) -> i64 {
        match self {
            ErrorCode::ParseError => -32700,
            ErrorCode::InvalidRequest => -32600,
            ErrorCode::MethodNotFound => -32601,
            ErrorCode::InvalidParams => -32602,
            ErrorCode::ServerBusy => -32000,
            ErrorCode::FrameTooLarge => -32001,
            ErrorCode::DeadlineExceeded => -32002,
            ErrorCode::SessionLimit => -32003,
            ErrorCode::NotInitialized => -32004,
            ErrorCode::AuthFailed => -32005,
            ErrorCode::ShuttingDown => -32006,
            ErrorCode::ToolDenied => -32010,
            ErrorCode::ToolUnknown => -32011,
            ErrorCode::ToolInvalidArgs => -32012,
            ErrorCode::ToolExecution => -32013,
        }
    }

    /// Stable machine-readable name, also used as metric label.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::MethodNotFound => "method_not_found",
            ErrorCode::InvalidParams => "invalid_params",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::SessionLimit => "session_limit",
            ErrorCode::NotInitialized => "not_initialized",
            ErrorCode::AuthFailed => "auth_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ToolDenied => "tool_denied",
            ErrorCode::ToolUnknown => "tool_unknown",
            ErrorCode::ToolInvalidArgs => "tool_invalid_args",
            ErrorCode::ToolExecution => "tool_execution",
        }
    }

    /// Reverse lookup from the numeric code.
    pub fn from_code(code: i64) -> Option<ErrorCode> {
        const ALL: [ErrorCode; 15] = [
            ErrorCode::ParseError,
            ErrorCode::InvalidRequest,
            ErrorCode::MethodNotFound,
            ErrorCode::InvalidParams,
            ErrorCode::ServerBusy,
            ErrorCode::FrameTooLarge,
            ErrorCode::DeadlineExceeded,
            ErrorCode::SessionLimit,
            ErrorCode::NotInitialized,
            ErrorCode::AuthFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::ToolDenied,
            ErrorCode::ToolUnknown,
            ErrorCode::ToolInvalidArgs,
            ErrorCode::ToolExecution,
        ];
        ALL.into_iter().find(|c| c.code() == code)
    }
}

/// A JSON-RPC error object.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcError {
    /// Typed code.
    pub code: ErrorCode,
    /// Human/LLM-facing message.
    pub message: String,
    /// Structured payload (denial context, arg-error details, …).
    pub data: Json,
}

impl RpcError {
    /// An error with no structured data.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        RpcError {
            code,
            message: message.into(),
            data: Json::Null,
        }
    }

    /// Attach structured data.
    pub fn with_data(mut self, data: Json) -> Self {
        self.data = data;
        self
    }

    /// Encode as the JSON-RPC `error` member.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::num(self.code.code() as f64)),
            ("message", Json::str(self.message.clone())),
        ];
        if !self.data.is_null() {
            pairs.push(("data", self.data.clone()));
        }
        Json::object(pairs)
    }

    /// Decode the JSON-RPC `error` member. Unknown codes are reported as
    /// protocol violations rather than silently coerced.
    pub fn from_json(value: &Json) -> Result<RpcError, String> {
        let raw = value
            .get("code")
            .and_then(Json::as_i64)
            .ok_or("error object missing integer 'code'")?;
        let code = ErrorCode::from_code(raw).ok_or_else(|| format!("unknown error code {raw}"))?;
        let message = value
            .get("message")
            .and_then(Json::as_str)
            .ok_or("error object missing 'message'")?
            .to_owned();
        let data = value.get("data").cloned().unwrap_or(Json::Null);
        Ok(RpcError {
            code,
            message,
            data,
        })
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}): {}",
            self.code.name(),
            self.code.code(),
            self.message
        )
    }
}

/// A parsed JSON-RPC request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request id (echoed in the response). `Json::Null` for notifications.
    pub id: Json,
    /// Method name.
    pub method: String,
    /// Parameters (object, or `Json::Null` when absent).
    pub params: Json,
    /// Raw `traceparent` member, when the client supplied a string one.
    /// Carried verbatim: the server validates it (`obs::TraceContext::parse`)
    /// and falls back to a fresh root when malformed, so a hostile value
    /// can never fail a request — only lose its own trace continuity.
    pub traceparent: Option<String>,
}

/// Move the string member `key` out of a parsed object: `None` when it is
/// absent or not a string. How requests and replies are taken apart without
/// copying what they carry.
pub(crate) fn take_string(members: &mut BTreeMap<String, Json>, key: &str) -> Option<String> {
    match members.remove(key) {
        Some(Json::Str(text)) => Some(text),
        _ => None,
    }
}

/// Parse a frame into a [`Request`]. The `jsonrpc: "2.0"` member is
/// required; `id` may be a string or number (null is tolerated and treated
/// as a request, not a notification — this server always answers).
pub fn parse_request(frame: &str) -> Result<Request, RpcError> {
    let doc = Json::parse(frame)
        .map_err(|e| RpcError::new(ErrorCode::ParseError, format!("invalid JSON: {e}")))?;
    // The members move out of the parsed document: `params` (the SQL text,
    // a proxy unit) is never copied.
    let Json::Object(mut obj) = doc else {
        return Err(RpcError::new(
            ErrorCode::InvalidRequest,
            "request must be an object",
        ));
    };
    if obj.get("jsonrpc").and_then(Json::as_str) != Some("2.0") {
        return Err(RpcError::new(
            ErrorCode::InvalidRequest,
            "missing or unsupported 'jsonrpc' version (want \"2.0\")",
        ));
    }
    let method = take_string(&mut obj, "method")
        .ok_or_else(|| RpcError::new(ErrorCode::InvalidRequest, "missing string 'method'"))?;
    let id = obj.remove("id").unwrap_or(Json::Null);
    match id {
        Json::Null | Json::Str(_) | Json::Number(_) => {}
        _ => {
            return Err(RpcError::new(
                ErrorCode::InvalidRequest,
                "'id' must be a string, number, or null",
            ))
        }
    }
    let params = obj.remove("params").unwrap_or(Json::Null);
    // A non-string traceparent is treated as absent, not an error: trace
    // continuity is best-effort metadata, never a reason to refuse work.
    let traceparent = take_string(&mut obj, "traceparent");
    Ok(Request {
        id,
        method,
        params,
        traceparent,
    })
}

/// Encode a request frame.
pub fn request_frame(id: &Json, method: &str, params: &Json) -> String {
    request_frame_traced(id, method, params, None)
}

/// Encode a request frame carrying an optional `traceparent`.
pub fn request_frame_traced(
    id: &Json,
    method: &str,
    params: &Json,
    traceparent: Option<&str>,
) -> String {
    let mut pairs = vec![
        ("jsonrpc", Json::str("2.0")),
        ("id", id.clone()),
        ("method", Json::str(method)),
    ];
    if let Some(tp) = traceparent {
        pairs.push(("traceparent", Json::str(tp)));
    }
    if !params.is_null() {
        pairs.push(("params", params.clone()));
    }
    Json::object(pairs).to_compact()
}

/// Encode a success response frame.
pub fn response_ok(id: &Json, result: Json) -> String {
    response_ok_traced(id, result, None)
}

/// Encode a success response frame echoing the effective `traceparent`.
pub fn response_ok_traced(id: &Json, result: Json, traceparent: Option<&str>) -> String {
    let mut pairs = vec![("jsonrpc", Json::str("2.0")), ("id", id.clone())];
    if let Some(tp) = traceparent {
        pairs.push(("traceparent", Json::str(tp)));
    }
    pairs.push(("result", result));
    Json::object(pairs).to_compact()
}

/// Encode an error response frame.
pub fn response_err(id: &Json, error: &RpcError) -> String {
    response_err_traced(id, error, None)
}

/// Encode an error response frame echoing the effective `traceparent`, so
/// failed and denied calls stay attributable to their trace too.
pub fn response_err_traced(id: &Json, error: &RpcError, traceparent: Option<&str>) -> String {
    let mut pairs = vec![("jsonrpc", Json::str("2.0")), ("id", id.clone())];
    if let Some(tp) = traceparent {
        pairs.push(("traceparent", Json::str(tp)));
    }
    pairs.push(("error", error.to_json()));
    Json::object(pairs).to_compact()
}

/// Render a [`Risk`] for the wire.
pub fn risk_to_str(risk: Risk) -> &'static str {
    match risk {
        Risk::Safe => "safe",
        Risk::Mutating => "mutating",
        Risk::Destructive => "destructive",
    }
}

/// Parse a wire risk string.
pub fn risk_from_str(text: &str) -> Option<Risk> {
    match text {
        "safe" => Some(Risk::Safe),
        "mutating" => Some(Risk::Mutating),
        "destructive" => Some(Risk::Destructive),
        _ => None,
    }
}

fn denial_context_to_json(ctx: &DenialContext) -> Json {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if let Some(v) = &ctx.object {
        pairs.push(("object", Json::str(v.clone())));
    }
    if let Some(v) = &ctx.action {
        pairs.push(("action", Json::str(v.clone())));
    }
    if let Some(v) = &ctx.sql {
        pairs.push(("sql", Json::str(v.clone())));
    }
    if let Some(v) = &ctx.tool {
        pairs.push(("tool", Json::str(v.clone())));
    }
    Json::object(pairs)
}

fn denial_context_from_json(value: &Json) -> DenialContext {
    let field = |k: &str| value.get(k).and_then(Json::as_str).map(str::to_owned);
    DenialContext {
        object: field("object"),
        action: field("action"),
        sql: field("sql"),
        tool: field("tool"),
    }
}

/// Map a JSON type name (from `Json::type_name`) back to the identical
/// `&'static str`. `ArgError::WrongType.found` holds a static name, so the
/// decode side must intern onto the same set for structural equality.
fn static_type_name(name: &str) -> &'static str {
    match name {
        "null" => "null",
        "boolean" => "boolean",
        "number" => "number",
        "string" => "string",
        "array" => "array",
        "object" => "object",
        _ => "unknown",
    }
}

fn arg_error_to_json(err: &ArgError) -> Json {
    match err {
        ArgError::Missing(name) => Json::object([
            ("kind", Json::str("missing")),
            ("name", Json::str(name.clone())),
        ]),
        ArgError::WrongType {
            name,
            expected,
            found,
        } => Json::object([
            ("kind", Json::str("wrong_type")),
            ("name", Json::str(name.clone())),
            ("expected", Json::str(expected.clone())),
            ("found", Json::str(*found)),
        ]),
        ArgError::Unknown(name) => Json::object([
            ("kind", Json::str("unknown")),
            ("name", Json::str(name.clone())),
        ]),
        ArgError::NotAnObject => Json::object([("kind", Json::str("not_an_object"))]),
    }
}

fn arg_error_from_json(value: &Json) -> Option<ArgError> {
    let name = || value.get("name").and_then(Json::as_str).map(str::to_owned);
    match value.get("kind").and_then(Json::as_str)? {
        "missing" => Some(ArgError::Missing(name()?)),
        "wrong_type" => Some(ArgError::WrongType {
            name: name()?,
            expected: value.get("expected").and_then(Json::as_str)?.to_owned(),
            found: static_type_name(value.get("found").and_then(Json::as_str)?),
        }),
        "unknown" => Some(ArgError::Unknown(name()?)),
        "not_an_object" => Some(ArgError::NotAnObject),
        _ => None,
    }
}

/// Encode a [`ToolError`] as a typed [`RpcError`] so the client can rebuild
/// the exact variant. Denials carry their code and full [`DenialContext`]
/// in `data`; this is what makes wire denial outcomes indistinguishable
/// from in-process ones.
pub fn tool_error_to_rpc(err: &ToolError) -> RpcError {
    match err {
        ToolError::InvalidArgs(arg) => RpcError::new(ErrorCode::ToolInvalidArgs, arg.to_string())
            .with_data(arg_error_to_json(arg)),
        ToolError::UnknownTool(name) => {
            RpcError::new(ErrorCode::ToolUnknown, format!("unknown tool '{name}'"))
                .with_data(Json::object([("tool", Json::str(name.clone()))]))
        }
        ToolError::Denied {
            code,
            message,
            context,
        } => RpcError::new(ErrorCode::ToolDenied, message.clone()).with_data(Json::object([
            ("denial_code", Json::str(code.clone())),
            ("context", denial_context_to_json(context)),
        ])),
        ToolError::Execution(message) => RpcError::new(ErrorCode::ToolExecution, message.clone()),
    }
}

/// Decode a tool-band [`RpcError`] back into the exact [`ToolError`].
/// Returns `None` for codes outside the tool band (those are transport or
/// protocol failures the caller must surface differently).
pub fn rpc_to_tool_error(err: &RpcError) -> Option<ToolError> {
    match err.code {
        ErrorCode::ToolInvalidArgs => arg_error_from_json(&err.data).map(ToolError::InvalidArgs),
        ErrorCode::ToolUnknown => Some(ToolError::UnknownTool(
            err.data
                .get("tool")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        )),
        ErrorCode::ToolDenied => Some(ToolError::Denied {
            code: err
                .data
                .get("denial_code")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            message: err.message.clone(),
            context: Box::new(
                err.data
                    .get("context")
                    .map(denial_context_from_json)
                    .unwrap_or_default(),
            ),
        }),
        ErrorCode::ToolExecution => Some(ToolError::Execution(err.message.clone())),
        _ => None,
    }
}

/// Encode a [`ToolOutput`] as a `tools/call` result.
pub fn tool_output_to_json(out: &ToolOutput) -> Json {
    tool_output_into_json(out.clone())
}

/// [`tool_output_to_json`] by value: the output's value moves into the
/// result object. The server uses this, so a reply is built without copying
/// the rows it carries.
pub fn tool_output_into_json(out: ToolOutput) -> Json {
    let mut pairs = vec![("value", out.value)];
    if let Some(rows) = out.rows {
        pairs.push(("rows", Json::num(rows as f64)));
    }
    Json::object(pairs)
}

/// Decode a `tools/call` result back into a [`ToolOutput`].
pub fn tool_output_from_json(value: &Json) -> Result<ToolOutput, String> {
    tool_output_from_json_owned(value.clone())
}

/// [`tool_output_from_json`] by value: `value` moves out of the result
/// object. The client uses this on the reply it has just parsed.
pub fn tool_output_from_json_owned(result: Json) -> Result<ToolOutput, String> {
    let rows = result
        .get("rows")
        .and_then(Json::as_i64)
        .map(|n| n.max(0) as usize);
    let value = result
        .take_pointer("/value")
        .ok_or("tools/call result missing 'value'")?;
    Ok(ToolOutput { value, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::ParseError,
            ErrorCode::InvalidRequest,
            ErrorCode::MethodNotFound,
            ErrorCode::InvalidParams,
            ErrorCode::ServerBusy,
            ErrorCode::FrameTooLarge,
            ErrorCode::DeadlineExceeded,
            ErrorCode::SessionLimit,
            ErrorCode::NotInitialized,
            ErrorCode::AuthFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::ToolDenied,
            ErrorCode::ToolUnknown,
            ErrorCode::ToolInvalidArgs,
            ErrorCode::ToolExecution,
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
            assert!(!code.name().is_empty());
        }
        assert_eq!(ErrorCode::from_code(-1), None);
    }

    #[test]
    fn parse_request_validates_envelope() {
        let req = parse_request(r#"{"jsonrpc":"2.0","id":1,"method":"ping"}"#).unwrap();
        assert_eq!(req.method, "ping");
        assert_eq!(req.id.as_i64(), Some(1));
        assert!(req.params.is_null());

        let bad = parse_request("not json").unwrap_err();
        assert_eq!(bad.code, ErrorCode::ParseError);
        let bad = parse_request("[1,2,3]").unwrap_err();
        assert_eq!(bad.code, ErrorCode::InvalidRequest);
        let bad = parse_request(r#"{"jsonrpc":"1.0","id":1,"method":"ping"}"#).unwrap_err();
        assert_eq!(bad.code, ErrorCode::InvalidRequest);
        let bad = parse_request(r#"{"jsonrpc":"2.0","id":[],"method":"ping"}"#).unwrap_err();
        assert_eq!(bad.code, ErrorCode::InvalidRequest);
        let bad = parse_request(r#"{"jsonrpc":"2.0","id":1}"#).unwrap_err();
        assert_eq!(bad.code, ErrorCode::InvalidRequest);
    }

    /// The largest frame a default server accepts, all of it one string: it
    /// is parsed on the connection thread before admission, budgets or the
    /// call timeout apply, so its cost must stay proportional to its size.
    /// (The character-at-a-time parser needed about 24 s for this frame in
    /// a release build.)
    #[test]
    fn a_maximal_single_string_frame_parses_within_two_seconds() {
        let head = r#"{"jsonrpc":"2.0","id":1,"method":"tools/call","params":{"name":"select","arguments":{"sql":""#;
        let tail = r#""}}}"#;
        let filler = crate::frame::DEFAULT_MAX_FRAME_BYTES - head.len() - tail.len();
        let frame = format!("{head}{}{tail}", "é".repeat(filler / 2));
        assert!(frame.len() >= crate::frame::DEFAULT_MAX_FRAME_BYTES - 1);
        let start = std::time::Instant::now();
        let req = parse_request(&frame).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(
            req.params
                .pointer("/arguments/sql")
                .and_then(Json::as_str)
                .map(str::len),
            Some(filler / 2 * 2)
        );
    }

    #[test]
    fn parse_request_moves_members_out_and_ignores_a_non_string_traceparent() {
        let req = parse_request(
            r#"{"jsonrpc":"2.0","id":"a","method":"tools/call","traceparent":7,"params":{"name":"t"}}"#,
        )
        .unwrap();
        assert_eq!(req.id, Json::str("a"));
        assert_eq!(req.traceparent, None);
        assert_eq!(req.params, Json::object([("name", Json::str("t"))]));
        let bad = parse_request(r#"{"jsonrpc":"2.0","id":1,"method":7}"#).unwrap_err();
        assert_eq!(bad.code, ErrorCode::InvalidRequest);
    }

    #[test]
    fn request_and_responses_round_trip_through_parse() {
        let frame = request_frame(
            &Json::num(7.0),
            "tools/call",
            &Json::object([("name", Json::str("select"))]),
        );
        let req = parse_request(&frame).unwrap();
        assert_eq!(req.method, "tools/call");
        assert_eq!(
            req.params.get("name").and_then(Json::as_str),
            Some("select")
        );

        let ok = response_ok(&req.id, Json::str("fine"));
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("result").and_then(Json::as_str), Some("fine"));
        assert_eq!(doc.get("id").and_then(Json::as_i64), Some(7));

        let err = response_err(&req.id, &RpcError::new(ErrorCode::ServerBusy, "queue full"));
        let doc = Json::parse(&err).unwrap();
        let decoded = RpcError::from_json(doc.get("error").unwrap()).unwrap();
        assert_eq!(decoded.code, ErrorCode::ServerBusy);
        assert_eq!(decoded.message, "queue full");
    }

    #[test]
    fn tool_errors_round_trip_structurally() {
        let cases = vec![
            ToolError::InvalidArgs(ArgError::Missing("sql".into())),
            ToolError::InvalidArgs(ArgError::WrongType {
                name: "limit".into(),
                expected: "integer".into(),
                found: "string",
            }),
            ToolError::InvalidArgs(ArgError::Unknown("bogus".into())),
            ToolError::InvalidArgs(ArgError::NotAnObject),
            ToolError::UnknownTool("drop".into()),
            ToolError::denied_with(
                "privilege",
                "no INSERT on sales",
                DenialContext::default()
                    .with_object("sales")
                    .with_action("INSERT")
                    .with_sql("INSERT INTO sales VALUES (1)")
                    .with_tool("insert"),
            ),
            ToolError::denied("policy", "tool blocked by session policy"),
            ToolError::Execution("SQL error: no such table".into()),
        ];
        for original in cases {
            let rpc = tool_error_to_rpc(&original);
            // Serialize through an actual frame to prove wire fidelity.
            let frame = response_err(&Json::num(1.0), &rpc);
            let doc = Json::parse(&frame).unwrap();
            let decoded_rpc = RpcError::from_json(doc.get("error").unwrap()).unwrap();
            let decoded = rpc_to_tool_error(&decoded_rpc).unwrap();
            assert_eq!(decoded, original);
        }
    }

    #[test]
    fn transport_errors_do_not_decode_as_tool_errors() {
        let rpc = RpcError::new(ErrorCode::ServerBusy, "queue full");
        assert_eq!(rpc_to_tool_error(&rpc), None);
    }

    #[test]
    fn tool_output_round_trips() {
        let out = ToolOutput::with_rows(Json::array([Json::num(1.0), Json::num(2.0)]), 2);
        let json = tool_output_to_json(&out);
        let back = tool_output_from_json(&json).unwrap();
        assert_eq!(back, out);

        let plain = ToolOutput::value(Json::str("ok"));
        let back = tool_output_from_json(&tool_output_to_json(&plain)).unwrap();
        assert_eq!(back.rows, None);

        // The by-value forms are the same conversions.
        assert_eq!(tool_output_into_json(out.clone()), json);
        assert_eq!(tool_output_from_json_owned(json).unwrap(), out);
        assert!(tool_output_from_json_owned(Json::str("no value member")).is_err());
    }

    #[test]
    fn risk_strings_round_trip() {
        for risk in [Risk::Safe, Risk::Mutating, Risk::Destructive] {
            assert_eq!(risk_from_str(risk_to_str(risk)), Some(risk));
        }
        assert_eq!(risk_from_str("catastrophic"), None);
    }
}
