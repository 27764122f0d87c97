//! Human-readable per-run summary tables.
//!
//! Renders an [`crate::ObsSnapshot`] as aligned plain-text tables: counters,
//! latency histograms (count/mean/p50/p99), and spans aggregated by name.
//! Used by examples and benchkit reports; the JSONL export is the machine
//! format, this is the terminal format.

use crate::metrics::{HistogramSnapshot, LabelSet};
use crate::ObsSnapshot;

/// Format nanoseconds with an adaptive unit (ns / µs / ms / s).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// A series as one token: `name{k=v,…}`, or just `name` when unlabeled.
pub(crate) fn series_name(name: &str, labels: &LabelSet) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

/// Render the full snapshot as aligned text tables. Sections with no data
/// are omitted; an entirely empty snapshot renders a single note line.
pub fn render(snapshot: &ObsSnapshot) -> String {
    let mut out = String::new();
    let metrics = &snapshot.metrics;

    if !metrics.labeled_counters.is_empty() {
        out.push_str("== counters ==\n");
        let rows: Vec<(String, u64)> = metrics
            .labeled_counters
            .iter()
            .map(|c| (series_name(&c.name, &c.labels), c.value))
            .collect();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in rows {
            out.push_str(&format!("  {name:<width$}  {value:>10}\n"));
        }
    }

    if !metrics.labeled_histograms.is_empty() {
        out.push_str("== latency ==\n");
        let rows: Vec<(String, &HistogramSnapshot)> = metrics
            .labeled_histograms
            .iter()
            .map(|h| (series_name(&h.name, &h.labels), &h.value))
            .collect();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(4);
        out.push_str(&format!(
            "  {:<width$}  {:>8}  {:>10}  {:>10}  {:>10}\n",
            "name", "count", "mean", "p50", "p99"
        ));
        for (name, h) in rows {
            out.push_str(&format!(
                "  {:<width$}  {:>8}  {:>10}  {:>10}  {:>10}\n",
                name,
                h.count,
                fmt_ns(h.mean_ns()),
                fmt_ns(h.quantile_ns(0.5)),
                fmt_ns(h.quantile_ns(0.99)),
            ));
        }
    }

    if !snapshot.spans.is_empty() {
        use std::collections::BTreeMap;
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for span in &snapshot.spans {
            let entry = by_name.entry(span.name.as_str()).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += span.duration_ns();
            if span.error.is_some() {
                entry.2 += 1;
            }
        }
        out.push_str("== spans ==\n");
        let width = by_name.keys().map(|n| n.len()).max().unwrap_or(0).max(4);
        out.push_str(&format!(
            "  {:<width$}  {:>8}  {:>10}  {:>10}  {:>7}\n",
            "name", "count", "total", "mean", "errors"
        ));
        for (name, (count, total_ns, errors)) in &by_name {
            out.push_str(&format!(
                "  {:<width$}  {:>8}  {:>10}  {:>10}  {:>7}\n",
                name,
                count,
                fmt_ns(*total_ns),
                fmt_ns(total_ns / count.max(&1)),
                errors,
            ));
        }
    }

    if out.is_empty() {
        out.push_str("(no observability data recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn render_includes_all_sections() {
        let obs = Obs::in_memory();
        {
            let mut span = obs.span("tool:select");
            span.fail("boom");
        }
        obs.incr("sql.errors", 3);
        obs.incr_with("tool.calls", &[("tool", "select"), ("outcome", "ok")], 2);
        obs.observe_ns_with("tool.latency", &[("tool", "select")], 2_000_000);
        let text = render(&obs.snapshot());
        assert!(text.contains("== counters =="));
        assert!(text.contains("sql.errors "), "{text}");
        assert!(
            text.contains("tool.calls{outcome=ok,tool=select}"),
            "{text}"
        );
        assert!(text.contains("== latency =="));
        assert!(text.contains("tool.latency{tool=select}"), "{text}");
        assert!(text.contains("== spans =="));
        assert!(text.contains("tool:select"));
    }

    #[test]
    fn render_empty_snapshot_notes_absence() {
        let text = render(&Obs::in_memory().snapshot());
        assert!(text.contains("no observability data"));
    }
}
