//! The calls a workload sends and the oracle each reply is held against.
//!
//! Expected outcomes are computed during set-up, in process, on a fork of
//! the data the server serves; the measured loop only compares a digest.

use toolproto::{Json, ToolError, ToolResult};

/// What a call is, for the call-mix shares and for choosing which samples
/// feed which metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `select` that must succeed.
    Select,
    /// `get_schema` / `get_object` / `get_value`.
    Context,
    /// `select` on an object the user holds no grant on.
    Denied,
    /// `begin`.
    Begin,
    /// `insert` / `update` / `delete` inside a transaction.
    Dml,
    /// `commit`.
    Commit,
    /// `proxy` unit.
    Proxy,
}

impl Kind {
    /// Every kind, in the order the shares are printed.
    pub const ALL: [Kind; 7] = [
        Kind::Select,
        Kind::Context,
        Kind::Denied,
        Kind::Begin,
        Kind::Dml,
        Kind::Commit,
        Kind::Proxy,
    ];

    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Select => "select",
            Kind::Context => "context",
            Kind::Denied => "denied",
            Kind::Begin => "begin",
            Kind::Dml => "dml",
            Kind::Commit => "commit",
            Kind::Proxy => "proxy",
        }
    }

    /// Classify a tool name (denials are marked by the oracle, not here).
    pub fn of_tool(tool: &str) -> Kind {
        match tool {
            "select" => Kind::Select,
            "begin" => Kind::Begin,
            "commit" => Kind::Commit,
            "insert" | "update" | "delete" => Kind::Dml,
            "proxy" => Kind::Proxy,
            _ => Kind::Context,
        }
    }
}

/// The outcome the oracle demands of one call.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Success with exactly this output digest (see [`digest`]).
    Value(u64),
    /// Success; the content is verified elsewhere (`begin`/`commit`, whose
    /// effect the reopen check covers).
    Ok,
    /// A typed privilege denial.
    Denied,
}

/// One tool call with its oracle.
#[derive(Debug, Clone)]
pub struct Call {
    /// Tool name.
    pub tool: String,
    /// Arguments object.
    pub args: Json,
    /// Classification.
    pub kind: Kind,
    /// Required outcome.
    pub expect: Expect,
    /// Rows this call delivers to the client or to a consumer tool.
    pub rows: usize,
}

impl Call {
    /// The SQL text of a SQL-carrying call.
    pub fn sql(&self) -> Option<&str> {
        self.args.get("sql").and_then(Json::as_str)
    }

    /// Whether `result` is the outcome the oracle demands.
    pub fn accepts(&self, result: &ToolResult) -> bool {
        match (&self.expect, result) {
            (Expect::Value(want), Ok(out)) => digest(&out.value) == *want,
            (Expect::Ok, Ok(_)) => true,
            (Expect::Denied, Err(ToolError::Denied { code, .. })) => code == "privilege",
            _ => false,
        }
    }
}

/// Build a call whose oracle is `result`, the outcome of running it in
/// process. Errors other than a privilege denial have no place in a
/// workload ("no operation fails"), so they yield `None`.
pub fn call_from_oracle(tool: &str, args: Json, result: &ToolResult) -> Option<Call> {
    let (kind, expect, rows) = match result {
        Ok(out) => (
            Kind::of_tool(tool),
            Expect::Value(digest(&out.value)),
            moved_rows(tool, out),
        ),
        Err(ToolError::Denied { code, .. }) if code == "privilege" => {
            (Kind::Denied, Expect::Denied, 0)
        }
        Err(_) => return None,
    };
    Some(Call {
        tool: tool.to_owned(),
        args,
        kind,
        expect,
        rows,
    })
}

/// Rows a successful call moves: a `select`'s result rows to the client, a
/// proxy unit's training rows to the consumer tool (which reports them as
/// `n_rows`), nothing for the rest.
fn moved_rows(tool: &str, out: &toolproto::ToolOutput) -> usize {
    match tool {
        "select" => out.rows.unwrap_or(0),
        "proxy" => out
            .value
            .get("n_rows")
            .and_then(Json::as_i64)
            .map_or(0, |n| n.max(0) as usize),
        _ => 0,
    }
}

/// Order-sensitive FNV-1a digest of a JSON tree, walked without
/// serialising it (a 20k-row result is checked in a fraction of the time
/// its round trip takes). `model_ref` members are skipped: they are
/// per-process handles, not content.
pub fn digest(value: &Json) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    walk(value, &mut h);
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn walk(value: &Json, h: &mut Fnv) {
    match value {
        Json::Null => h.bytes(b"n"),
        Json::Bool(b) => h.bytes(if *b { b"t" } else { b"f" }),
        Json::Number(n) => {
            h.bytes(b"#");
            h.bytes(&n.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            h.bytes(b"s");
            h.bytes(s.as_bytes());
            h.bytes(&[0]);
        }
        Json::Array(items) => {
            h.bytes(b"[");
            for item in items {
                walk(item, h);
            }
            h.bytes(b"]");
        }
        Json::Object(map) => {
            h.bytes(b"{");
            for (key, item) in map {
                if key == "model_ref" {
                    continue;
                }
                h.bytes(key.as_bytes());
                h.bytes(&[0]);
                walk(item, h);
            }
            h.bytes(b"}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toolproto::ToolOutput;

    fn rows(v: &str) -> Json {
        Json::parse(v).unwrap()
    }

    #[test]
    fn digest_sees_values_order_and_structure() {
        let a = rows(r#"{"columns":["x"],"rows":[[1],[2]]}"#);
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(
            digest(&a),
            digest(&rows(r#"{"columns":["x"],"rows":[[2],[1]]}"#))
        );
        assert_ne!(
            digest(&a),
            digest(&rows(r#"{"columns":["x"],"rows":[[1,2]]}"#))
        );
        assert_ne!(
            digest(&rows(r#"["ab","c"]"#)),
            digest(&rows(r#"["a","bc"]"#))
        );
        // Survives the wire's text round trip.
        assert_eq!(digest(&a), digest(&Json::parse(&a.to_compact()).unwrap()));
    }

    #[test]
    fn digest_ignores_model_handles_only() {
        let a = rows(r#"{"model_ref":"m1","train_rmse":2.5}"#);
        let b = rows(r#"{"model_ref":"m9","train_rmse":2.5}"#);
        let c = rows(r#"{"model_ref":"m1","train_rmse":2.6}"#);
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn oracle_accepts_only_the_recorded_outcome() {
        let good: ToolResult = Ok(ToolOutput::with_rows(rows(r#"{"rows":[[1]]}"#), 1));
        let call = call_from_oracle("select", Json::Null, &good).unwrap();
        assert_eq!((call.kind, call.rows), (Kind::Select, 1));
        assert!(call.accepts(&good));
        assert!(!call.accepts(&Ok(ToolOutput::with_rows(rows(r#"{"rows":[[2]]}"#), 1))));
        assert!(!call.accepts(&Err(ToolError::Execution("boom".into()))));

        let denied: ToolResult = Err(ToolError::denied("privilege", "no"));
        let call = call_from_oracle("select", Json::Null, &denied).unwrap();
        assert_eq!(call.kind, Kind::Denied);
        assert!(call.accepts(&denied));
        // An allowed call that was denied, a denial that was not, and a
        // denial by the wrong gate all count as failures.
        assert!(!call.accepts(&good));
        assert!(!call.accepts(&Err(ToolError::denied("policy", "no"))));
        assert!(
            call_from_oracle("select", Json::Null, &Err(ToolError::Execution("x".into())))
                .is_none()
        );
    }
}
