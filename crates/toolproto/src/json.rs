//! A self-contained JSON value type with a strict parser and compact writer.
//!
//! The tool protocol exchanges arguments and results as JSON documents, the
//! same way MCP does on the wire. Keeping the implementation local (rather
//! than pulling in `serde_json`) keeps the substrate dependency-free and lets
//! the proxy layer address sub-documents through [`Json::pointer`] without any
//! intermediate deserialization.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
///
/// Numbers are stored as `f64`, mirroring the JSON data model. Object keys
/// are kept in a [`BTreeMap`] so serialization is deterministic — important
/// because token accounting in `llmsim` measures serialized payloads and must
/// be reproducible across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn array<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Number(n.into())
    }

    /// `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Borrow as a bool, if the value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as a number, if the value is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Borrow as an integer if the value is a number with no fractional part.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && n.is_finite() => Some(*n as i64),
            _ => None,
        }
    }

    /// Borrow as a string slice, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an array slice, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as an object map, if the value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Look up a key on an object. Returns `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Index into an array. Returns `None` for non-arrays or out of range.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        self.as_array().and_then(|a| a.get(idx))
    }

    /// Resolve an RFC-6901-style JSON pointer (`/a/b/0`).
    ///
    /// An empty pointer resolves to `self`. Used by proxy transforms to pluck
    /// sub-documents out of producer outputs.
    pub fn pointer(&self, pointer: &str) -> Option<&Json> {
        let mut cur = self;
        for token in pointer_tokens(pointer)? {
            cur = match cur {
                Json::Object(map) => map.get(token.as_ref())?,
                Json::Array(items) => items.get(token.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// [`Json::pointer`] by value: moves the addressed sub-document out and
    /// drops the rest, so a proxy transform hands a producer's rows to the
    /// consumer without copying them.
    pub fn take_pointer(self, pointer: &str) -> Option<Json> {
        let mut cur = self;
        for token in pointer_tokens(pointer)? {
            cur = match cur {
                Json::Object(mut map) => map.remove(token.as_ref())?,
                Json::Array(mut items) => {
                    let idx = token.parse::<usize>().ok()?;
                    if idx >= items.len() {
                        return None;
                    }
                    items.swap_remove(idx)
                }
                _ => return None,
            };
        }
        Some(cur)
    }

    /// A short name of the value's JSON type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Number(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Serialize to compact JSON text.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out).expect("writing to a String cannot fail");
        out
    }

    /// `self.to_compact().len()` without building the text: the one compact
    /// writer ([`Json::to_compact`] and `Display` are the same function over
    /// other sinks) over a sink that only counts, so the two cannot
    /// disagree. Byte accounting (observer spans, `proxy.bytes_moved`, gate
    /// budgets) uses this.
    pub fn compact_len(&self) -> usize {
        let mut count = ByteCount(0);
        write_value(self, &mut count).expect("counting cannot fail");
        count.0
    }

    /// Serialize with two-space indentation, for human-facing output.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out).expect("writing to a String cannot fail");
        out
    }

    /// Parse JSON text. Strict: rejects trailing garbage, unterminated
    /// strings, malformed numbers, and nesting deeper than [`MAX_DEPTH`]
    /// (so hostile wire frames produce a parse error, not a stack overflow).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(p.pos, "trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Number(n)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Number(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Number(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Error produced by [`Json::parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Split a JSON pointer into its unescaped reference tokens. `None` when
/// the pointer is non-empty and does not start with `/`.
fn pointer_tokens(pointer: &str) -> Option<impl Iterator<Item = Cow<'_, str>>> {
    let mut parts = pointer.split('/');
    // What precedes the first `/` must be empty: `""` has no tokens, `"/a"`
    // has one.
    if parts.next() != Some("") {
        return None;
    }
    Some(parts.map(|raw| {
        if raw.contains('~') {
            Cow::Owned(raw.replace("~1", "/").replace("~0", "~"))
        } else {
            Cow::Borrowed(raw)
        }
    }))
}

/// A sink that counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

fn write_value<W: fmt::Write>(v: &Json, out: &mut W) -> fmt::Result {
    match v {
        Json::Null => out.write_str("null"),
        Json::Bool(true) => out.write_str("true"),
        Json::Bool(false) => out.write_str("false"),
        Json::Number(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(item, out)?;
            }
            out.write_char(']')
        }
        Json::Object(map) => {
            out.write_char('{')?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_string(k, out)?;
                out.write_char(':')?;
                write_value(val, out)?;
            }
            out.write_char('}')
        }
    }
}

fn write_pretty<W: fmt::Write>(v: &Json, depth: usize, out: &mut W) -> fmt::Result {
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.write_str("[\n")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_str(",\n")?;
                }
                indent(depth + 1, out)?;
                write_pretty(item, depth + 1, out)?;
            }
            out.write_char('\n')?;
            indent(depth, out)?;
            out.write_char(']')
        }
        Json::Object(map) if !map.is_empty() => {
            out.write_str("{\n")?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_str(",\n")?;
                }
                indent(depth + 1, out)?;
                write_string(k, out)?;
                out.write_str(": ")?;
                write_pretty(val, depth + 1, out)?;
            }
            out.write_char('\n')?;
            indent(depth, out)?;
            out.write_char('}')
        }
        other => write_value(other, out),
    }
}

fn indent<W: fmt::Write>(depth: usize, out: &mut W) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_number<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serialize as null like most tolerant writers.
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Write `s` quoted and escaped. Every byte that needs an escape is ASCII,
/// so the runs between them are copied whole and always split on character
/// boundaries.
fn write_string<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut clean_from = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[clean_from..i])?;
        clean_from = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[clean_from..])?;
    out.write_char('"')
}

/// Maximum container nesting depth [`Json::parse`] accepts. Each `[` or `{`
/// costs one stack frame in the recursive-descent parser; the cap keeps the
/// worst-case frame count bounded on untrusted input (wire frames) while
/// leaving far more headroom than any tool payload legitimately uses.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input, and the same input as bytes: the scanner looks at bytes,
    /// and string runs are sliced out of `text` (already valid UTF-8, so
    /// nothing is re-validated).
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                format!("expected '{}'", b as char),
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(JsonError::new(
                self.pos,
                format!("unexpected character '{}'", b as char),
            )),
            None => Err(JsonError::new(self.pos, "unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(JsonError::new(self.pos, format!("expected '{kw}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(JsonError::new(self.pos, "expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::new(self.pos, "expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::new(self.pos, "expected digit in exponent"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError::new(start, "invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole. Both are
            // ASCII, so the run starts and ends on character boundaries.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| JsonError::new(self.bytes.len(), "unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = self
                .peek()
                .ok_or_else(|| JsonError::new(self.pos, "unterminated string"))?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => out.push(self.parse_unicode_escape()?),
                _ => return Err(JsonError::new(self.pos - 1, "invalid escape")),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed, reading
    /// the low half too when `XXXX` is a high surrogate.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let cp = self.parse_hex4()?;
        let cp = if (0xD800..0xDC00).contains(&cp) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(JsonError::new(self.pos, "lone high surrogate"));
            }
            self.pos += 2;
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(JsonError::new(self.pos, "invalid low surrogate"));
            }
            0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
        } else {
            cp
        };
        char::from_u32(cp).ok_or_else(|| JsonError::new(self.pos, "invalid code point"))
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new(self.pos, "truncated \\u escape"))?;
        let mut cp = 0;
        for &b in digits {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::new(self.pos, "invalid \\u escape"))?;
            cp = cp * 16 + digit;
        }
        self.pos += 4;
        Ok(cp)
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Json {
        let v = Json::parse(text).expect("parse");
        let again = Json::parse(&v.to_compact()).expect("reparse");
        assert_eq!(v, again, "compact round trip changed value");
        let pretty = Json::parse(&v.to_pretty()).expect("reparse pretty");
        assert_eq!(v, pretty, "pretty round trip changed value");
        v
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(roundtrip("null"), Json::Null);
        assert_eq!(roundtrip("true"), Json::Bool(true));
        assert_eq!(roundtrip("false"), Json::Bool(false));
        assert_eq!(roundtrip("42"), Json::Number(42.0));
        assert_eq!(roundtrip("-3.5"), Json::Number(-3.5));
        assert_eq!(roundtrip("1e3"), Json::Number(1000.0));
        assert_eq!(roundtrip("\"hi\""), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = roundtrip(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#);
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(|a| a.at(0)).and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("line\nquote\"back\\slash\ttab\u{1}".into());
        let text = v.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "nul", "{", "[1,", "\"abc", "{\"a\":}", "1 2", "01x", "--2",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn lone_high_surrogate_rejected() {
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn unicode_escape_digits_must_be_hex() {
        assert_eq!(
            Json::parse(r#""\u00e9\uD83D\uDE00""#).unwrap(),
            Json::str("é😀")
        );
        for bad in [
            r#""\u+041""#,
            r#""\u00g0""#,
            r#""\u12""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn pointer_resolution() {
        let v = Json::parse(r#"{"rows": [{"x": 1}, {"x": 2}], "a/b": 3}"#).unwrap();
        assert_eq!(v.pointer("/rows/1/x").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.pointer("/a~1b").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.pointer(""), Some(&v));
        assert_eq!(v.pointer("/missing"), None);
        assert_eq!(v.pointer("bad"), None);
    }

    #[test]
    fn take_pointer_moves_the_addressed_value_out() {
        let v = Json::parse(r#"{"rows": [{"x": 1}, {"x": 2}], "a/b": 3, "m~n": 4}"#).unwrap();
        for p in [
            "",
            "/rows",
            "/rows/1/x",
            "/a~1b",
            "/m~0n",
            "/missing",
            "bad",
            "/rows/2",
            "/rows/x",
        ] {
            assert_eq!(v.clone().take_pointer(p), v.pointer(p).cloned(), "{p:?}");
        }
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::Number(5.0).to_compact(), "5");
        assert_eq!(Json::Number(5.5).to_compact(), "5.5");
        assert_eq!(Json::Number(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn object_builder_and_accessors() {
        let v = Json::object([("k", Json::num(1.0)), ("s", Json::str("v"))]);
        assert_eq!(v.get("k").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(v.type_name(), "object");
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn nesting_below_the_cap_parses() {
        let text = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&text).is_ok());
        let objs = "{\"k\":".repeat(MAX_DEPTH);
        let text = format!("{objs}0{}", "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error_not_a_crash() {
        // Far past the cap: without the limit this would overflow the stack.
        for open in ["[", "{\"k\":"] {
            let text = open.repeat(100_000);
            let err = Json::parse(&text).expect_err("deep nesting rejected");
            assert!(err.message.contains("nesting"), "got: {err}");
        }
    }

    #[test]
    fn deterministic_object_order() {
        let a = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = Json::parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(a.to_compact(), b.to_compact());
    }

    /// The writer as it was before the run-copying one, kept as the
    /// reference the new writer must match byte for byte: token accounting,
    /// `gate_differential` and `proxy.bytes_moved` all count these bytes.
    mod reference {
        use super::Json;

        pub fn to_compact(v: &Json) -> String {
            let mut out = String::new();
            write_value(v, &mut out);
            out
        }

        fn write_value(v: &Json, out: &mut String) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Number(n) => write_number(*n, out),
                Json::Str(s) => write_string(s, out),
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_value(item, out);
                    }
                    out.push(']');
                }
                Json::Object(map) => {
                    out.push('{');
                    for (i, (k, val)) in map.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_string(k, out);
                        out.push(':');
                        write_value(val, out);
                    }
                    out.push('}');
                }
            }
        }

        fn write_number(n: f64, out: &mut String) {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }

        fn write_string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    mod props {
        use super::{reference, Json};
        use proptest::prelude::*;

        /// Text that exercises every branch of the string kernel: quotes,
        /// backslashes, every control character, DEL, and 1- to 4-byte
        /// characters, non-BMP included.
        fn text() -> impl Strategy<Value = String> {
            let ch = prop_oneof![
                (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control character")),
                Just('"'),
                Just('\\'),
                Just('/'),
                Just('~'),
                Just('\u{7f}'),
                (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ASCII")),
                (0x80u32..0x800).prop_map(|c| char::from_u32(c).expect("two bytes")),
                (0x800u32..0xD800).prop_map(|c| char::from_u32(c).expect("three bytes")),
                (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("four bytes")),
            ];
            prop::collection::vec(ch, 0..40).prop_map(|cs| cs.into_iter().collect())
        }

        fn number() -> impl Strategy<Value = f64> {
            prop_oneof![
                any::<i32>().prop_map(f64::from),
                any::<f64>(),
                -1.0e18f64..1.0e18,
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(-0.0),
                Just(9.0e15),
                Just(1.0e300),
                Just(5.0e-324),
            ]
        }

        fn json() -> impl Strategy<Value = Json> {
            let leaf = prop_oneof![
                Just(Json::Null),
                any::<bool>().prop_map(Json::Bool),
                number().prop_map(Json::Number),
                text().prop_map(Json::Str),
            ];
            leaf.prop_recursive(3, 32, 6, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
                    prop::collection::btree_map(text(), inner, 0..6).prop_map(Json::Object),
                ]
            })
        }

        /// `v` with every non-finite number replaced by what it serialises
        /// to, so values can be compared with `==` (NaN is not equal to
        /// itself).
        fn finite(v: Json) -> Json {
            match v {
                Json::Number(n) if !n.is_finite() => Json::Null,
                Json::Array(items) => Json::Array(items.into_iter().map(finite).collect()),
                Json::Object(map) => {
                    Json::Object(map.into_iter().map(|(k, v)| (k, finite(v))).collect())
                }
                other => other,
            }
        }

        /// Every pointer into `v`, as (pointer, depth-first) pairs, plus
        /// ones that miss: a key that is absent and an index past the end.
        fn pointers(v: &Json, prefix: &str, out: &mut Vec<String>) {
            out.push(prefix.to_owned());
            out.push(format!("{prefix}/no~0such~1key"));
            match v {
                Json::Object(map) => {
                    for (k, child) in map {
                        let token = k.replace('~', "~0").replace('/', "~1");
                        pointers(child, &format!("{prefix}/{token}"), out);
                    }
                }
                Json::Array(items) => {
                    out.push(format!("{prefix}/{}", items.len()));
                    for (i, child) in items.iter().enumerate() {
                        pointers(child, &format!("{prefix}/{i}"), out);
                    }
                }
                _ => {}
            }
        }

        proptest! {
            #[test]
            fn writer_matches_the_reference_byte_for_byte(v in json()) {
                prop_assert_eq!(v.to_compact(), reference::to_compact(&v));
                prop_assert_eq!(v.to_string(), reference::to_compact(&v));
            }

            #[test]
            fn compact_len_is_the_length_of_the_compact_text(v in json()) {
                prop_assert_eq!(v.compact_len(), v.to_compact().len());
            }

            #[test]
            fn compact_and_pretty_text_parse_back_to_the_value(v in json()) {
                let v = finite(v);
                prop_assert_eq!(&Json::parse(&v.to_compact()).expect("compact parses"), &v);
                prop_assert_eq!(&Json::parse(&v.to_pretty()).expect("pretty parses"), &v);
            }

            #[test]
            fn unicode_escapes_and_surrogate_pairs_decode(s in text()) {
                // Every UTF-16 unit as a \uXXXX escape: non-BMP characters
                // become surrogate pairs.
                let mut escaped = String::from("\"");
                for unit in s.encode_utf16() {
                    escaped.push_str(&format!("\\u{unit:04X}"));
                }
                escaped.push('"');
                prop_assert_eq!(Json::parse(&escaped).expect("escapes parse"), Json::Str(s));
            }

            #[test]
            fn take_pointer_is_pointer_then_clone(v in json()) {
                let v = finite(v);
                let mut all = Vec::new();
                pointers(&v, "", &mut all);
                all.push("no-leading-slash".to_owned());
                for p in all {
                    prop_assert_eq!(v.clone().take_pointer(&p), v.pointer(&p).cloned(), "{:?}", p);
                }
            }
        }
    }

    mod linear_time {
        use super::Json;
        use std::time::{Duration, Instant};

        /// A quoted string of `len` bytes mixing ASCII, an escape and a
        /// multi-byte character.
        fn string_document(len: usize) -> String {
            let mut text = String::with_capacity(len + 2);
            text.push('"');
            while text.len() < len {
                text.push_str("schema text \\n é ");
            }
            text.push('"');
            text
        }

        /// Fastest of three parses, so a descheduled run does not count.
        fn parse_time(text: &str) -> Duration {
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let parsed = Json::parse(std::hint::black_box(text)).expect("valid");
                    std::hint::black_box(parsed);
                    start.elapsed()
                })
                .min()
                .expect("three runs")
        }

        /// One string as long as the wire's default frame limit: the parser
        /// that re-validated the rest of the input per character needed
        /// about 24 s for this in a release build.
        #[test]
        fn a_one_mebibyte_string_parses_within_two_seconds() {
            let text = string_document(1 << 20);
            assert!(parse_time(&text) < Duration::from_secs(2));
        }

        #[test]
        fn four_times_the_string_costs_less_than_eight_times_the_time() {
            let small = parse_time(&string_document(1 << 20));
            let large = parse_time(&string_document(4 << 20));
            assert!(
                large < small * 8,
                "1 MiB took {small:?}, 4 MiB took {large:?}"
            );
        }

        #[test]
        fn writing_and_counting_a_long_string_is_linear_too() {
            let value = Json::parse(&string_document(4 << 20)).expect("valid");
            let start = Instant::now();
            let text = value.to_compact();
            assert_eq!(value.compact_len(), text.len());
            assert!(start.elapsed() < Duration::from_secs(2));
        }
    }
}
