//! Trace identity: 128-bit trace ids, 64-bit span ids, and the
//! W3C-traceparent-style context that carries them across the wire.
//!
//! A **trace** names one logical request end to end — from the client's
//! `tools/call` frame through the wire dispatch, the gate, the tool, and
//! every SQL span it executes — across process and thread boundaries. A
//! **span id** names one node inside that trace. Ids come from a
//! per-process generator, collision-resistant because it is seeded from
//! the wall clock and process id at first use.
//!
//! The wire form is the W3C `traceparent` header layout,
//! `00-{trace:032x}-{parent:016x}-01`, chosen so the field is immediately
//! recognizable to anyone who has operated an OpenTelemetry system.
//! Parsing is strict ([`TraceContext::parse`]): anything malformed —
//! wrong field widths, non-hex bytes, the forbidden all-zero ids — yields
//! `None`, and callers fall back to a fresh root rather than trusting
//! attacker-controlled input.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A 128-bit trace identifier. All-zero is invalid (per W3C trace-context)
/// and never produced by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u128);

impl TraceId {
    /// Wrap a raw value. Returns `None` for the invalid all-zero id.
    pub fn from_u128(v: u128) -> Option<TraceId> {
        if v == 0 {
            None
        } else {
            Some(TraceId(v))
        }
    }

    /// The raw 128-bit value.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// Parse exactly 32 lowercase-or-uppercase hex chars; rejects the
    /// all-zero id.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16)
            .ok()
            .and_then(TraceId::from_u128)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 64-bit span identifier as carried in a [`TraceContext`]. All-zero is
/// invalid. (Locally recorded spans keep their plain `u64` ids; this
/// newtype types the *wire* form, where validation matters.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// Wrap a raw value. Returns `None` for the invalid all-zero id.
    pub fn from_u64(v: u64) -> Option<SpanId> {
        if v == 0 {
            None
        } else {
            Some(SpanId(v))
        }
    }

    /// Parse exactly 16 hex chars; rejects the all-zero id.
    pub fn parse_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().and_then(SpanId::from_u64)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A trace context as carried on the wire: the trace id plus the sender's
/// span id (the remote parent of whatever the receiver opens next).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace this request belongs to.
    pub trace: TraceId,
    /// The sender-side span that caused this request.
    pub parent: SpanId,
}

impl TraceContext {
    /// A context with the given ids.
    pub fn new(trace: TraceId, parent: SpanId) -> TraceContext {
        TraceContext { trace, parent }
    }

    /// Render as a W3C-style traceparent: `00-{trace}-{parent}-01`.
    pub fn to_traceparent(&self) -> String {
        format!("00-{}-{}-01", self.trace, self.parent)
    }

    /// Strictly parse a traceparent. Accepts only version `00`, a 32-hex
    /// non-zero trace id, a 16-hex non-zero parent id, and 2-hex flags.
    /// Anything else — wrong widths, separators, non-hex, all-zero ids —
    /// returns `None`; the input is untrusted, so the caller falls back to
    /// a fresh root instead of guessing.
    pub fn parse(s: &str) -> Option<TraceContext> {
        let mut parts = s.split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let parent = parts.next()?;
        let flags = parts.next()?;
        if parts.next().is_some() || version != "00" {
            return None;
        }
        if flags.len() != 2 || !flags.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(TraceContext {
            trace: TraceId::parse_hex(trace)?,
            parent: SpanId::parse_hex(parent)?,
        })
    }
}

impl std::fmt::Display for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_traceparent())
    }
}

/// Per-process id generator state: a counter advanced by a large odd
/// constant and scrambled through splitmix64, so ids are unique within a
/// process and well-distributed.
static ID_STATE: OnceLock<AtomicU64> = OnceLock::new();

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn next_raw() -> u64 {
    ID_STATE
        .get_or_init(|| {
            // Seeded at first use: wall clock nanos mixed with the pid.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            AtomicU64::new(splitmix64(
                nanos ^ u64::from(std::process::id()).rotate_left(32),
            ))
        })
        .fetch_add(GOLDEN_GAMMA, Ordering::Relaxed)
}

/// Draw the next trace id from the per-process generator (never all-zero).
pub(crate) fn next_trace_id() -> TraceId {
    let n = next_raw();
    let hi = splitmix64(n);
    let lo = splitmix64(n ^ 0x5851_f42d_4c95_7f2d);
    let v = (u128::from(hi) << 64) | u128::from(lo);
    TraceId(if v == 0 { 1 } else { v })
}

/// Draw the next synthetic span id (for wire clients that have no local
/// span tree but must name a remote parent; never all-zero).
pub fn next_span_id() -> SpanId {
    let v = splitmix64(next_raw() ^ 0x2545_f491_4f6c_dd1d);
    SpanId(if v == 0 { 1 } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext::new(next_trace_id(), next_span_id());
        let text = ctx.to_traceparent();
        assert_eq!(text.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        let back = TraceContext::parse(&text).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn parse_rejects_malformed_inputs() {
        for bad in [
            "",
            "00",
            "00-abc-def-01",
            // all-zero trace id
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            // all-zero parent id
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
            // non-hex trace id
            "00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",
            // wrong version
            "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
            // truncated / extended
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
            // bad flags
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-013",
        ] {
            assert!(TraceContext::parse(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn parse_accepts_w3c_example() {
        let ctx =
            TraceContext::parse("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01").unwrap();
        assert_eq!(ctx.trace.to_string(), "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(ctx.parent.to_string(), "00f067aa0ba902b7");
    }

    #[test]
    fn generated_ids_are_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_ne!(next_span_id(), next_span_id());
    }

    #[test]
    fn zero_ids_are_rejected() {
        assert!(TraceId::from_u128(0).is_none());
        assert!(SpanId::from_u64(0).is_none());
        assert!(TraceId::parse_hex("0".repeat(32).as_str()).is_none());
    }
}
