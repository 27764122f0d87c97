//! Prometheus text exposition format (version 0.0.4) for a
//! [`MetricsSnapshot`].
//!
//! The admin plane's `GET /metrics` endpoint serves this. Mapping rules:
//!
//! * Metric names are sanitized (`.` and any other non-`[a-zA-Z0-9_:]`
//!   byte become `_`); a leading digit gets a `_` prefix.
//! * Counters get a `_total` suffix, per Prometheus naming conventions.
//!   Every series of a name sits under one `# TYPE` header.
//! * Gauges expose their sampled value verbatim.
//! * Histograms expose **cumulative** `_bucket{le="…"}` series (our
//!   internal buckets are disjoint counts), bounds converted from
//!   nanoseconds to seconds, plus `_sum` (seconds) and `_count`.
//! * Label values are escaped: `\` → `\\`, `"` → `\"`, newline → `\n`.
//!
//! Output is deterministic: series are emitted in sorted `(name, labels)`
//! order, so two snapshots of the same state render byte-identically — the
//! golden test in `crates/obs/tests/telemetry.rs` relies on this.

use crate::metrics::{LabelSet, MetricsSnapshot, Sample, LATENCY_BOUNDS_NS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize a metric name into the Prometheus charset `[a-zA-Z0-9_:]`.
pub(crate) fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render a label set as `{k="v",…}`, empty string for no labels. Extra
/// labels (e.g. `le`) are appended after the set's own, in given order.
fn render_labels(labels: &LabelSet, extra: &[(&str, String)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Format an `f64` the way Prometheus clients expect: integral values
/// without a fractional part, everything else via the shortest `{}` float.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A bucket bound in seconds, rendered without trailing float noise
/// (1_000ns → `0.000001`).
fn fmt_le(bound_ns: u64) -> String {
    let secs = bound_ns as f64 / 1e9;
    // Up to 9 decimal places covers every nanosecond bound exactly.
    let s = format!("{secs:.9}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_owned()
}

/// Series grouped under their sanitized name: one `# TYPE` header each.
/// Within a family, series keep the snapshot's `(name, labels)` order.
fn families<V>(series: &[Sample<V>]) -> BTreeMap<String, Vec<&Sample<V>>> {
    let mut out: BTreeMap<String, Vec<&Sample<V>>> = BTreeMap::new();
    for s in series {
        out.entry(sanitize_name(&s.name)).or_default().push(s);
    }
    out
}

/// Render the whole snapshot in Prometheus text exposition format.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, series) in families(&snapshot.labeled_counters) {
        let _ = writeln!(out, "# TYPE {name}_total counter");
        for s in series {
            let _ = writeln!(
                out,
                "{name}_total{} {}",
                render_labels(&s.labels, &[]),
                s.value
            );
        }
    }
    for (name, series) in families(&snapshot.gauges) {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for s in series {
            let _ = writeln!(
                out,
                "{name}{} {}",
                render_labels(&s.labels, &[]),
                fmt_value(s.value)
            );
        }
    }
    // Histograms: cumulative buckets in seconds.
    for (name, series) in families(&snapshot.labeled_histograms) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for s in series {
            let (labels, hist) = (&s.labels, &s.value);
            let mut cumulative = 0u64;
            for (idx, &bound) in LATENCY_BOUNDS_NS.iter().enumerate() {
                cumulative += hist.buckets.get(idx).copied().unwrap_or(0);
                let le = render_labels(labels, &[("le", fmt_le(bound))]);
                let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
            }
            let inf = render_labels(labels, &[("le", "+Inf".to_owned())]);
            let _ = writeln!(out, "{name}_bucket{inf} {}", hist.count);
            let plain = render_labels(labels, &[]);
            let _ = writeln!(out, "{name}_sum{plain} {}", hist.sum_ns as f64 / 1e9);
            let _ = writeln!(out, "{name}_count{plain} {}", hist.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn sanitize_rules() {
        assert_eq!(sanitize_name("tool.calls"), "tool_calls");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn escaping_rules() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn le_bounds_render_in_seconds() {
        assert_eq!(fmt_le(1_000), "0.000001");
        assert_eq!(fmt_le(1_000_000_000), "1");
        assert_eq!(fmt_le(500_000_000), "0.5");
    }

    #[test]
    fn every_series_of_a_name_shares_one_header() {
        let m = MetricsRegistry::new();
        m.incr_with("wire.errors", &[("code", "parse_error")], 4);
        m.incr_with("wire.errors", &[("code", "server_busy")], 3);
        let text = render(&m.snapshot());
        let headers = text.matches("# TYPE wire_errors_total counter").count();
        assert_eq!(headers, 1, "{text}");
        assert!(
            text.contains("wire_errors_total{code=\"parse_error\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("wire_errors_total{code=\"server_busy\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let m = MetricsRegistry::new();
        m.observe_ns("lat", 500); // first bucket
        m.observe_ns("lat", 2_000); // the 2048ns bucket
        m.observe_ns("lat", 20_000_000_000); // overflow
        let text = render(&m.snapshot());
        assert!(text.contains("lat_bucket{le=\"0.000000512\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"0.000002048\"} 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"17.179869184\"} 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_count 3"), "{text}");
    }
}
