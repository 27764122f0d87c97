//! JSONL round-trip: export a recorded snapshot, re-parse it with the same
//! JSON kit, rebuild the span tree, and compare against the in-memory sink.

use obs::{parse_jsonl, to_jsonl, validate_tree, AttrValue, Obs};

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
    let jsonl = obs.export_jsonl();
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
