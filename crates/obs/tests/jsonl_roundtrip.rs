//! JSONL round-trip: export a recorded snapshot, re-parse it with the same
//! JSON kit, rebuild the span tree, and compare against the in-memory sink.

use obs::{parse_jsonl, to_jsonl, validate_tree, AttrValue, FlightConfig, Obs, ObsConfig};
use std::path::PathBuf;
use toolproto::Json;

fn record_a_run(obs: &Obs) {
    let mut task = obs.span("task");
    task.attr("task", "t1");
    {
        let mut llm = obs.span("llm:call");
        llm.attr("tool", "select");
        {
            let mut tool = obs.span("tool:select");
            tool.attr("rows", 42u64);
            tool.attr("ok", true);
            {
                let mut sql = obs.span("sql:execute");
                sql.attr("action", "SELECT");
                sql.attr("plan.seq_scans", 1u64);
                sql.fail("simulated failure");
            }
        }
    }
    obs.incr("wire.sessions", 1);
    obs.incr_with("tool.calls", &[("tool", "select"), ("outcome", "ok")], 2);
    obs.incr_with(
        "tool.calls",
        &[("tool", "select"), ("outcome", "denied")],
        1,
    );
    obs.observe_ns_with("tool.latency", &[("tool", "select")], 1_500);
    obs.observe_ns_with("tool.latency", &[("tool", "select")], 900_000);
    obs.observe_ns("sql.latency", 40_000);
}

#[test]
fn export_and_reparse_reproduces_the_snapshot_exactly() {
    let obs = Obs::in_memory();
    record_a_run(&obs);
    let jsonl = to_jsonl(&obs.snapshot());
    let original = obs.snapshot();
    validate_tree(&original.spans).unwrap();
    // One line per span plus one metrics line, each a standalone JSON object.
    assert_eq!(jsonl.trim().lines().count(), original.spans.len() + 1);
    for line in jsonl.trim().lines() {
        toolproto::Json::parse(line).expect("each line parses standalone");
    }

    let rebuilt = parse_jsonl(&jsonl).expect("exported trace re-parses");
    validate_tree(&rebuilt.spans).unwrap();
    assert_eq!(rebuilt.spans, original.spans);
    // Every counter and histogram series round-trips with its labels,
    // histograms bucket for bucket. Gauges travel too, but one like the
    // uptime moves between the export and the snapshot.
    let (back, metrics) = (&rebuilt.metrics, &original.metrics);
    assert_eq!(back.labeled_counters, metrics.labeled_counters);
    assert_eq!(back.labeled_histograms, metrics.labeled_histograms);
    assert_eq!(back.gauges.len(), metrics.gauges.len());
    let denied = [("outcome", "denied"), ("tool", "select")];
    assert_eq!(back.labeled_counter("tool.calls", &denied), 1);
}

#[test]
fn error_and_attr_payloads_survive_the_trip() {
    let obs = Obs::in_memory();
    record_a_run(&obs);
    let rebuilt = parse_jsonl(&to_jsonl(&obs.snapshot())).unwrap();

    let sql = rebuilt
        .spans
        .iter()
        .find(|sp| sp.name == "sql:execute")
        .unwrap();
    assert_eq!(sql.error.as_deref(), Some("simulated failure"));
    assert_eq!(sql.attr("action"), Some(&AttrValue::Str("SELECT".into())));
    assert_eq!(sql.attr("plan.seq_scans"), Some(&AttrValue::Int(1)));
    let tool = rebuilt
        .spans
        .iter()
        .find(|sp| sp.name == "tool:select")
        .unwrap();
    assert_eq!(tool.attr("ok"), Some(&AttrValue::Bool(true)));
}

#[test]
fn flush_writes_a_parseable_file() {
    let path = std::env::temp_dir().join(format!("obs-roundtrip-{}.jsonl", std::process::id()));
    let obs = Obs::jsonl(&path);
    record_a_run(&obs);
    let written = obs.flush().expect("flush succeeds").expect("path armed");
    assert_eq!(written, path);

    let text = std::fs::read_to_string(&path).unwrap();
    let rebuilt = parse_jsonl(&text).expect("file re-parses");
    validate_tree(&rebuilt.spans).unwrap();
    assert_eq!(rebuilt.spans.len(), obs.snapshot().spans.len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn parser_skips_blank_and_unknown_lines_but_rejects_garbage() {
    let obs = Obs::in_memory();
    record_a_run(&obs);
    let mut jsonl = to_jsonl(&obs.snapshot());
    jsonl.push_str("\n\n{\"type\":\"future-extension\",\"x\":1}\n");
    let rebuilt = parse_jsonl(&jsonl).expect("unknown record types are skipped");
    assert_eq!(rebuilt.spans.len(), obs.snapshot().spans.len());

    let err = parse_jsonl("this is not json\n").unwrap_err();
    assert!(err.contains("line 1"), "error names the line: {err}");
}

fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("obs-{tag}-{}.jsonl", std::process::id()))
}

/// The `type` of every line of `text`.
fn record_types(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| {
            let obj = Json::parse(line).expect("each line parses standalone");
            obj.get("type").and_then(Json::as_str).unwrap().to_owned()
        })
        .collect()
}

#[test]
fn flushes_over_growing_traffic_append_each_span_once() {
    let path = trace_path("append");
    let never_slow = FlightConfig::with_threshold_ns(u64::MAX);
    let obs = Obs::with_flight(&ObsConfig::Jsonl(path.clone()), never_slow);
    for round in 1..=5 {
        for _ in 0..round {
            record_a_run(&obs);
        }
        // An errored tool call is captured, and appended once.
        obs.span("tool:failing").fail("boom");
        obs.flush().unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let snap = obs.snapshot();
    let types = record_types(&text);
    let count = |kind: &str| types.iter().filter(|t| *t == kind).count();
    assert_eq!(count("span"), snap.spans.len());
    assert_eq!(count("metrics"), 5, "one trailing metrics record per flush");
    assert_eq!(count("slow_call"), obs.slow_calls().len());
    assert_eq!(obs.slow_calls().len(), 5);

    let rebuilt = parse_jsonl(&text).expect("the appended file re-parses");
    validate_tree(&rebuilt.spans).unwrap();
    assert_eq!(rebuilt.spans, snap.spans, "each span exactly once");
    // The parser keeps the last metrics record, which is current.
    assert_eq!(
        rebuilt.metrics.labeled_counters,
        snap.metrics.labeled_counters
    );
    let recorded = rebuilt.metrics.counter("obs.spans.recorded");
    assert_eq!(recorded, snap.spans.len() as u64);
    assert_eq!(rebuilt.metrics.counter("obs.spans.dropped"), 0);
}

#[test]
fn a_flush_with_no_new_spans_appends_only_a_metrics_record() {
    let path = trace_path("idle");
    let obs = Obs::jsonl(&path);
    record_a_run(&obs);
    obs.flush().unwrap();
    let first = std::fs::read_to_string(&path).unwrap();
    obs.incr("wire.sessions", 1);
    obs.flush().unwrap();
    let second = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let appended = second
        .strip_prefix(first.as_str())
        .expect("the file only grew");
    assert_eq!(record_types(appended), ["metrics"]);
    let rebuilt = parse_jsonl(&second).unwrap();
    assert_eq!(rebuilt.metrics.counter("wire.sessions"), 2);
    assert_eq!(rebuilt.spans, obs.snapshot().spans);
}

#[test]
fn the_first_flush_truncates_a_preexisting_file() {
    let path = trace_path("stale");
    std::fs::write(&path, "{\"type\":\"span\",\"stale\":true}\n").unwrap();
    let obs = Obs::jsonl(&path);
    record_a_run(&obs);
    obs.flush().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!text.contains("stale"), "{text}");
    assert_eq!(parse_jsonl(&text).unwrap().spans, obs.snapshot().spans);
}
