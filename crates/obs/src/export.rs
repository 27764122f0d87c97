//! JSONL trace export and re-import.
//!
//! One event per line, serialized with `toolproto::Json` (deterministic
//! key ordering, no external dependencies): every span becomes a
//! `{"type":"span",...}` line, followed by a single `{"type":"metrics",...}`
//! line carrying every counter, histogram and gauge series with its labels.
//! Attributes are encoded as
//! an array of `[key, value]` pairs to preserve insertion order and
//! duplicate keys. Lines with an unknown `type` are skipped on import, so
//! the format can grow without breaking old readers.
//!
//! One caveat: JSON numbers erase the `Int`/`Float` distinction, so a float
//! attribute with an integral value (e.g. `2.0`) re-imports as `Int(2)`.
//! The instrumentation in this workspace only emits `Int`, `Str`, and
//! `Bool` attributes, which all round-trip exactly.

use crate::metrics::{HistogramSnapshot, LabelSet, MetricsSnapshot, Sample};
use crate::span::{AttrValue, SpanRecord};
use crate::trace::TraceId;
use crate::ObsSnapshot;
use toolproto::Json;

fn attr_to_json(value: &AttrValue) -> Json {
    match value {
        AttrValue::Str(s) => Json::str(s.clone()),
        AttrValue::Int(i) => Json::num(*i as f64),
        AttrValue::Float(x) => Json::num(*x),
        AttrValue::Bool(b) => Json::Bool(*b),
    }
}

fn attr_from_json(value: &Json) -> Result<AttrValue, String> {
    match value {
        Json::Str(s) => Ok(AttrValue::Str(s.clone())),
        Json::Bool(b) => Ok(AttrValue::Bool(*b)),
        Json::Number(_) => match value.as_i64() {
            Some(i) => Ok(AttrValue::Int(i)),
            None => Ok(AttrValue::Float(value.as_f64().expect("number"))),
        },
        other => Err(format!(
            "unsupported attribute value: {}",
            other.type_name()
        )),
    }
}

/// Serialize one span to its JSONL object.
pub(crate) fn span_to_json(span: &SpanRecord) -> Json {
    let attrs = Json::array(
        span.attrs
            .iter()
            .map(|(k, v)| Json::array([Json::str(k.clone()), attr_to_json(v)])),
    );
    Json::object([
        ("type", Json::str("span")),
        ("id", Json::num(span.id as f64)),
        (
            "parent",
            span.parent
                .map(|p| Json::num(p as f64))
                .unwrap_or(Json::Null),
        ),
        // 128-bit trace ids exceed JSON-number precision; encode as 32-hex.
        (
            "trace",
            span.trace
                .map(|t| Json::str(t.to_string()))
                .unwrap_or(Json::Null),
        ),
        ("name", Json::str(span.name.clone())),
        ("start_ns", Json::num(span.start_ns as f64)),
        ("end_ns", Json::num(span.end_ns as f64)),
        (
            "error",
            span.error.clone().map(Json::str).unwrap_or(Json::Null),
        ),
        ("attrs", attrs),
    ])
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_i64)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("span line missing numeric field `{key}`"))
}

/// Parse one span object back into a [`SpanRecord`].
pub(crate) fn span_from_json(obj: &Json) -> Result<SpanRecord, String> {
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or("span line missing `name`")?
        .to_owned();
    let parent = match obj.get("parent") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or("span `parent` is not an id")?,
        ),
    };
    // Absent/null trace is legal: pre-trace JSONL lines parse to `None`.
    let trace = match obj.get("trace") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .and_then(TraceId::parse_hex)
                .ok_or("span `trace` is not a 32-hex trace id")?,
        ),
    };
    let error = match obj.get("error") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_str().ok_or("span `error` is not a string")?.to_owned()),
    };
    let mut attrs = Vec::new();
    if let Some(pairs) = obj.get("attrs").and_then(Json::as_array) {
        for pair in pairs {
            let key = pair
                .at(0)
                .and_then(Json::as_str)
                .ok_or("attr pair missing key")?;
            let value = attr_from_json(pair.at(1).ok_or("attr pair missing value")?)?;
            attrs.push((key.to_owned(), value));
        }
    }
    Ok(SpanRecord {
        id: req_u64(obj, "id")?,
        parent,
        trace,
        name,
        start_ns: req_u64(obj, "start_ns")?,
        end_ns: req_u64(obj, "end_ns")?,
        error,
        attrs,
    })
}

fn sample_to_json<V>(sample: &Sample<V>, value: Json) -> Json {
    Json::object([
        ("name", Json::str(sample.name.clone())),
        (
            "labels",
            Json::object(
                sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
            ),
        ),
        ("value", value),
    ])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::object([
        ("count", Json::num(h.count as f64)),
        ("sum_ns", Json::num(h.sum_ns as f64)),
        (
            "buckets",
            Json::array(h.buckets.iter().map(|&b| Json::num(b as f64))),
        ),
    ])
}

fn count_from_json(v: &Json) -> Option<u64> {
    v.as_i64().and_then(|i| u64::try_from(i).ok())
}

fn histogram_from_json(v: &Json) -> Option<HistogramSnapshot> {
    Some(HistogramSnapshot {
        count: count_from_json(v.get("count")?)?,
        sum_ns: count_from_json(v.get("sum_ns")?)?,
        buckets: v
            .get("buckets")?
            .as_array()?
            .iter()
            .map(count_from_json)
            .collect::<Option<Vec<u64>>>()?,
    })
}

/// Serialize a metrics snapshot to its JSONL object: one
/// `{"name","labels","value"}` object per series, in an array per kind.
pub(crate) fn metrics_to_json(metrics: &MetricsSnapshot) -> Json {
    let counters = metrics
        .labeled_counters
        .iter()
        .map(|c| sample_to_json(c, Json::num(c.value as f64)));
    let histograms = metrics
        .labeled_histograms
        .iter()
        .map(|h| sample_to_json(h, histogram_to_json(&h.value)));
    let gauges = metrics
        .gauges
        .iter()
        .map(|g| sample_to_json(g, Json::num(g.value)));
    Json::object([
        ("type", Json::str("metrics")),
        ("counters", Json::array(counters)),
        ("histograms", Json::array(histograms)),
        ("gauges", Json::array(gauges)),
    ])
}

fn sample_from_json<V>(item: &Json, value: impl Fn(&Json) -> Option<V>) -> Option<Sample<V>> {
    let labels = item.get("labels")?.as_object()?.iter();
    Some(Sample {
        name: item.get("name")?.as_str()?.to_owned(),
        labels: labels
            .map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
            .collect::<Option<LabelSet>>()?,
        value: value(item.get("value")?)?,
    })
}

/// Parse the series array `obj[kind]` (absent means empty).
fn samples_from_json<V>(
    obj: &Json,
    kind: &str,
    value: impl Fn(&Json) -> Option<V>,
) -> Result<Vec<Sample<V>>, String> {
    let items = obj.get(kind).and_then(Json::as_array).unwrap_or_default();
    items
        .iter()
        .map(|item| {
            sample_from_json(item, &value)
                .ok_or_else(|| format!("malformed {kind} series: {}", item.to_compact()))
        })
        .collect()
}

/// Parse a metrics object back into a [`MetricsSnapshot`].
pub(crate) fn metrics_from_json(obj: &Json) -> Result<MetricsSnapshot, String> {
    Ok(MetricsSnapshot {
        labeled_counters: samples_from_json(obj, "counters", count_from_json)?,
        labeled_histograms: samples_from_json(obj, "histograms", histogram_from_json)?,
        gauges: samples_from_json(obj, "gauges", Json::as_f64)?,
    })
}

/// Serialize a full snapshot as JSONL: one compact JSON object per line,
/// spans first (already sorted), metrics last.
pub fn to_jsonl(snapshot: &ObsSnapshot) -> String {
    let mut out = String::new();
    for span in &snapshot.spans {
        out.push_str(&span_to_json(span).to_compact());
        out.push('\n');
    }
    out.push_str(&metrics_to_json(&snapshot.metrics).to_compact());
    out.push('\n');
    out
}

/// Parse a JSONL trace back into a snapshot. Blank lines and objects with
/// an unrecognized `type` are skipped; a malformed line is an error.
pub fn parse_jsonl(text: &str) -> Result<ObsSnapshot, String> {
    let mut spans = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match obj.get("type").and_then(Json::as_str) {
            Some("span") => {
                spans.push(span_from_json(&obj).map_err(|e| format!("line {}: {e}", lineno + 1))?)
            }
            Some("metrics") => {
                metrics =
                    metrics_from_json(&obj).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            }
            _ => {} // forward-compatible: ignore unknown event types
        }
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Ok(ObsSnapshot { spans, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> SpanRecord {
        SpanRecord {
            id: 7,
            parent: Some(3),
            trace: TraceId::from_u128(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736),
            name: "tool:select".into(),
            start_ns: 1000,
            end_ns: 2500,
            error: Some("denied (privilege): no".into()),
            attrs: vec![
                ("tool".into(), AttrValue::Str("select".into())),
                ("rows".into(), AttrValue::Int(42)),
                ("ok".into(), AttrValue::Bool(false)),
                ("ratio".into(), AttrValue::Float(0.5)),
                ("tool".into(), AttrValue::Str("dup-key".into())),
            ],
        }
    }

    #[test]
    fn span_round_trips_exactly() {
        let span = sample_span();
        let json = span_to_json(&span);
        assert_eq!(
            json.get("trace").and_then(Json::as_str),
            Some("4bf92f3577b34da6a3ce929d0e0e4736")
        );
        let back = span_from_json(&json).unwrap();
        assert_eq!(back, span);
    }

    #[test]
    fn pre_trace_span_lines_still_parse() {
        let line = "{\"type\":\"span\",\"id\":1,\"name\":\"x\",\"start_ns\":0,\"end_ns\":5}";
        let span = span_from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(span.trace, None);
        let bad = "{\"type\":\"span\",\"id\":1,\"trace\":\"zz\",\"name\":\"x\",\"start_ns\":0,\"end_ns\":5}";
        assert!(span_from_json(&Json::parse(bad).unwrap()).is_err());
    }

    fn sample<V>(name: &str, labels: &[(&str, &str)], value: V) -> Sample<V> {
        Sample {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            value,
        }
    }

    #[test]
    fn metrics_round_trip_exactly() {
        let histogram = HistogramSnapshot {
            count: 2,
            sum_ns: 3000,
            buckets: vec![2, 0, 0],
        };
        let metrics = MetricsSnapshot {
            labeled_counters: vec![
                sample("tool.calls", &[("outcome", "ok"), ("tool", "select")], 9),
                sample("wire.sessions", &[], 2),
            ],
            labeled_histograms: vec![sample("tool.latency", &[("tool", "select")], histogram)],
            gauges: vec![sample("gate.plan_cache.hit_rate", &[("user", "a")], 0.25)],
        };
        let back = metrics_from_json(&metrics_to_json(&metrics)).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn jsonl_skips_unknown_types_and_blank_lines() {
        let span = sample_span();
        let mut text = to_jsonl(&ObsSnapshot {
            spans: vec![SpanRecord {
                parent: None,
                ..span.clone()
            }],
            metrics: MetricsSnapshot::default(),
        });
        text.push_str("\n{\"type\":\"future-event\",\"x\":1}\n");
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].name, "tool:select");
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = parse_jsonl("{\"type\":\"span\"").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_jsonl("{\"type\":\"span\",\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("id"), "{err}");
    }
}
