//! The commands: run one workload (end to end or traced), run them all in
//! a process each and write the results file, compare two results files,
//! and print `BENCHMARK.json`.

use crate::bench::{self, Bench, Run, WireBench};
use crate::check::Kind;
use crate::ladder::{self, Ladder, RUNGS};
use crate::metrics::{
    assert_complete, Better, Measured, MetricDef, Metrics, END_TO_END, PER_LAYER,
};
use crate::paper::{self, PaperEval};
use crate::workloads::{self, Spec, WIRE};
use crate::{probes, stats, sys, Options, RUN_SECONDS};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use toolproto::Json;

/// What the traced run of `paper_eval` replays down the ladder: the calls
/// its Claude-4 administrator makes on the read tasks.
const PAPER_LADDER: Spec = Spec {
    name: "paper_eval",
    why: paper::WHY,
    rate: [1100, 1100],
    // A repetition of `paper_eval` is a fixed three seconds or so.
    reps: 3,
    call_sessions: &[0],
    txn_kinds: &[Kind::Commit],
    ladder_calls: 500,
    build: |seed, _, _| workloads::agent_fixture(seed, None, true),
};

/// Every workload name with its rationale, in report order.
pub fn workload_list() -> Vec<(&'static str, &'static str)> {
    let mut list: Vec<_> = WIRE.iter().map(|s| (s.name, s.why)).collect();
    list.push((PAPER_LADDER.name, PAPER_LADDER.why));
    list
}

fn spec_of(name: &str) -> Result<&'static Spec, String> {
    if name == PAPER_LADDER.name {
        return Ok(&PAPER_LADDER);
    }
    workloads::wire_spec(name).ok_or_else(|| {
        let names: Vec<_> = workload_list().iter().map(|w| w.0).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

// ---------------------------------------------------------------------------
// run: one workload, one process
// ---------------------------------------------------------------------------

fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::object(pairs)
}

fn metrics_json(table: &[MetricDef], metrics: &Metrics, with_reps: bool) -> Json {
    Json::object(table.iter().map(|d| {
        let m = &metrics[d.name];
        let mut pairs = vec![("value", Json::num(m.value)), ("unit", Json::str(d.unit))];
        if with_reps {
            pairs.push(("reps", Json::array(m.reps.iter().map(|v| Json::num(*v)))));
        }
        (d.name, Json::object(pairs))
    }))
}

fn print_metrics(table: &[MetricDef], metrics: &Metrics) {
    for d in table {
        let m = &metrics[d.name];
        let spread = if m.reps.len() > 1 {
            format!(
                "  (spread {:.1}% over {} repetitions)",
                stats::spread(&m.reps) * 100.0,
                m.reps.len()
            )
        } else {
            String::new()
        };
        println!("{:<42} {:>16.4} {}{spread}", d.name, m.value, d.unit);
    }
}

/// The outcome of `run`, for the last line and for the results file.
struct Outcome {
    metrics: Metrics,
    table: &'static [MetricDef],
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    /// Free-form facts for the results file.
    notes: Vec<(&'static str, Json)>,
}

fn end_to_end(spec: &'static Spec, o: &Options) -> Outcome {
    let paper = spec.name == PAPER_LADDER.name;
    let run: Run = if paper {
        bench::run(
            &|| Box::new(PaperEval::set_up(o.seed)) as Box<dyn Bench>,
            o.seconds,
            spec.reps,
        )
    } else {
        bench::run(
            &|| Box::new(WireBench::set_up(spec, o.seed, &o.out)) as Box<dyn Bench>,
            o.seconds,
            spec.reps,
        )
    };
    let (metrics, call, txn) = run.end_to_end(spec);
    let (attempted, failed) = run.attempted_failed();
    let mix = run.mix();
    println!(
        "samples: {} calls (tail p{}), {} transactions (tail p{}); {} repetitions",
        call.samples,
        call.tail_pct,
        txn.samples,
        txn.tail_pct,
        run.reps.len()
    );
    let shares: Vec<String> = mix
        .iter()
        .filter(|(_, share)| *share > 0.0)
        .map(|(kind, share)| format!("{} {:.1}%", kind.label(), share * 100.0))
        .collect();
    println!("call mix: {}", shares.join(", "));
    let overruns: Vec<u64> = run
        .reps
        .iter()
        .flat_map(|r| r.overruns.iter().copied())
        .collect();
    if !overruns.is_empty() {
        println!(
            "think pauses overran by {:.1} us on average",
            overruns.iter().sum::<u64>() as f64 / overruns.len() as f64 / 1e3
        );
    }
    let notes = vec![
        ("call_samples", Json::num(call.samples as f64)),
        ("call_tail_percentile", Json::num(call.tail_pct)),
        ("txn_samples", Json::num(txn.samples as f64)),
        ("txn_tail_percentile", Json::num(txn.tail_pct)),
        ("repetitions", Json::num(run.reps.len() as f64)),
        (
            "call_mix",
            Json::object(mix.iter().map(|(k, share)| (k.label(), Json::num(*share)))),
        ),
    ];
    Outcome {
        metrics,
        table: &END_TO_END,
        attempted,
        failed: failed + run.errors.len(),
        errors: run.errors,
        notes,
    }
}

/// Counts of the stack as shipped under the workload's own two-session
/// load: a set-up (with its warm-up) and one repetition, then the server's
/// telemetry snapshot.
struct Shipped {
    retrieval_hit_rate: f64,
    plan_hit_rate: f64,
    shed_calls: u64,
    spans_per_call: f64,
    errors: Vec<String>,
}

fn shipped_counts(spec: &'static Spec, o: &Options) -> Shipped {
    let mut bench = WireBench::set_up(spec, o.seed, &o.out);
    let rep = bench.rep(o.seconds / spec.reps as f64);
    let failed = rep.sessions.iter().flatten().filter(|s| !s.ok).count();
    let snap = bench.obs().snapshot();
    let mut errors = Box::new(bench).finish();
    if failed > 0 {
        errors.push(format!("{failed} calls of the untraced run failed"));
    }
    let (mut hits, mut misses, mut plan_hits, mut plan_misses) = (0u64, 0u64, 0u64, 0u64);
    for c in snap
        .metrics
        .labeled_counters
        .iter()
        .filter(|c| c.name == "gate.cache")
    {
        let label = |key: &str| c.labels.iter().find(|l| l.0 == key).map(|l| l.1.as_str());
        let slot = match (label("tool"), label("hit")) {
            (Some("plan"), Some("true")) => &mut plan_hits,
            (Some("plan"), _) => &mut plan_misses,
            (_, Some("true")) => &mut hits,
            _ => &mut misses,
        };
        *slot += c.value;
    }
    let rate = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    let calls = snap.metrics.counter("wire.requests.tools_call");
    Shipped {
        retrieval_hit_rate: rate(hits, misses),
        plan_hit_rate: rate(plan_hits, plan_misses),
        shed_calls: snap.metrics.counter("wire.rejected.busy"),
        spans_per_call: snap.spans.len() as f64 / calls.max(1) as f64,
        errors,
    }
}

fn write_trace(path: &Path, ladder: &Ladder) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in ladder.spans() {
        let (rung, layer) = RUNGS[span.rung];
        let parent = match span.rung {
            0 => Json::Null,
            r => Json::str(RUNGS[r - 1].1),
        };
        let line = obj([
            ("call_id", Json::num(span.call_id as f64)),
            ("rung", Json::str(rung)),
            ("layer", Json::str(layer)),
            ("start_ns", Json::num(span.start_ns as f64)),
            ("end_ns", Json::num(span.end_ns as f64)),
            ("parent", parent),
        ]);
        writeln!(file, "{}", line.to_compact())?;
    }
    file.flush()
}

fn traced(spec: &'static Spec, o: &Options) -> Outcome {
    let shipped = shipped_counts(spec, o);
    let fixture = (spec.build)(o.seed, &o.out, &crate::fixture::Served::shipped_obs());
    let load_rows_per_s = fixture.load_rows_per_s;
    let ladder = ladder::climb(fixture, spec.ladder_calls);
    let proxy = probes::proxy(o.seed);
    let engine = probes::engine(o.seed, &o.out);
    let mut paper = PaperEval::set_up(o.seed);
    paper.reports();
    let sections = paper.sections;
    let mut errors = shipped.errors;
    errors.extend(Box::new(paper).finish());
    // The bulk-load rate is that of the analytic_scan fact table; its own
    // set-up measured it, the other workloads build the table to get it.
    let load_rows_per_s = load_rows_per_s.unwrap_or_else(|| workloads::star_load_rate(o.seed));

    let all = |_: Kind| true;
    let us = |ns: f64| ns / 1e3;
    let r: Vec<f64> = (0..5).map(|i| ladder.mean_ns(i, all)).collect();
    let d = &engine.durable;
    let txns = d.txns as f64;
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64| {
        m.insert(name, Measured::once(value));
    };
    let rung_names = [
        "ladder.r0_us",
        "ladder.r1_us",
        "ladder.r2_us",
        "ladder.r3_us",
        "ladder.r4_us",
    ];
    for (name, ns) in rung_names.into_iter().zip(&r) {
        put(name, us(*ns));
    }
    put("wire.socket_pool_us", us(r[0] - r[1]));
    put("wire.codec_us", us(r[1] - r[2]));
    put("wire.decode_us", us(ladder.decode_ns));
    put("wire.encode_us", us(ladder.encode_ns));
    put("wire.encode_us_per_krow", us(ladder.encode_ns_per_krow));
    put(
        "wire.client_parse_us_per_krow",
        us(ladder.client_parse_ns_per_krow),
    );
    put("wire.shed_calls", shipped.shed_calls as f64);
    put("gate.retrieval_hit_rate", shipped.retrieval_hit_rate);
    put("gate.plan_hit_rate", shipped.plan_hit_rate);
    put("gate.net_us", us(r[2] - r[3]));
    put("core.dispatch_us", us(ladder.dispatch_ns()));
    put("core.context_us", us(ladder.context_ns));
    put("core.denied_us", us(ladder.denied_ns));
    put("core.proxy_rows_per_s", proxy.rows_per_s);
    put("core.proxy_bytes_moved", proxy.bytes_moved as f64);
    put("sqlkit.parse_us", us(ladder.parse_ns));
    put("sqlkit.analyze_us", us(ladder.analyze_ns));
    put("minidb.planner.plan_us", us(ladder.plan_ns));
    put("minidb.exec.run_us", us(ladder.exec_ns()));
    put(
        "minidb.exec.rows_scanned_per_row_out",
        ladder.rows_scanned_per_row_out,
    );
    put("minidb.exec.reference_ratio", ladder.reference_ratio);
    put("minidb.txn.commit_us", engine.volatile.commit_us);
    put("minidb.txn.conflicts", engine.conflicts as f64);
    put(
        "minidb.txn.retained_versions_max",
        engine.volatile.retained_versions_max as f64,
    );
    put("minidb.storage.durable_commit_us", d.commit_us);
    put(
        "minidb.storage.fsync_wait_us",
        d.commit_us - engine.no_fsync.commit_us,
    );
    put(
        "minidb.storage.wal_bytes_per_txn",
        engine.wal_bytes as f64 / txns,
    );
    put(
        "minidb.storage.disk_bytes_per_txn",
        (engine.wal_bytes + d.snapshot_bytes) as f64 / txns,
    );
    put("minidb.storage.fsyncs_per_txn", engine.fsyncs as f64 / txns);
    put("minidb.storage.checkpoints", d.checkpoints as f64);
    put(
        "minidb.storage.checkpoint_commit_us",
        d.checkpoint_commit_us,
    );
    put("minidb.storage.recover_ms", engine.recover_ms);
    put("minidb.storage.load_rows_per_s", load_rows_per_s);
    put(
        "obs.overhead_frac",
        1.0 - ladder.obs_off_r0_ns / r[0].max(1.0),
    );
    put("obs.spans_per_call", shipped.spans_per_call);
    put("mltools.consume_us", proxy.consume_us);
    put("benchkit.fig5_s", sections.fig5_s);
    put("benchkit.fig6_s", sections.fig6_s);
    put("benchkit.table2_s", sections.table2_s);
    put(
        "trace.overhead_frac",
        r[0] / ladder.untraced_r0_ns.max(1.0) - 1.0,
    );
    put("bench.sleep_overrun_us", probes::sleep_overrun_us());

    println!(
        "layer ladder over {} calls ({:.0}% reach the engine):",
        ladder.calls,
        ladder.engine_share() * 100.0
    );
    println!("{:<20} {:>12} {:>10}", "layer", "self us/call", "share");
    for (layer, ns) in ladder.self_times_ns() {
        println!(
            "{layer:<20} {:>12.2} {:>9.1}%",
            us(ns),
            ns / r[0].max(1.0) * 100.0
        );
    }
    println!("{:<20} {:>12.2} {:>9.1}%", "R0 round trip", us(r[0]), 100.0);
    println!("durability: {}", engine.durability);
    let trace_path = o.out.join(format!("trace-{}.jsonl", spec.name));
    match write_trace(&trace_path, &ladder) {
        Ok(()) => println!("spans: {}", trace_path.display()),
        Err(e) => errors.push(format!("cannot write {}: {e}", trace_path.display())),
    }
    let monotone = r[0] >= r[1] && r[1] >= r[2] && ladder.dispatch_ns() >= 0.0;
    let notes = vec![
        ("ladder_calls", Json::num(ladder.calls as f64)),
        ("durability", Json::str(engine.durability.clone())),
        (
            "rungs_monotone",
            Json::Bool(monotone && ladder.dispatch_ns() >= 0.0),
        ),
        (
            "self_time_us",
            Json::object(
                ladder
                    .self_times_ns()
                    .into_iter()
                    .map(|(layer, ns)| (layer, Json::num(us(ns)))),
            ),
        ),
    ];
    Outcome {
        metrics: m,
        table: &PER_LAYER,
        attempted: ladder.calls * RUNGS.len(),
        failed: ladder.failed + errors.len(),
        errors,
        notes,
    }
}

/// `run`: one workload in this process. Prints every metric by name with
/// its unit, then the result object as the last line. `Ok(false)` when an
/// output was wrong.
pub fn run_one(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("run needs --workload")?;
    let spec = spec_of(name)?;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    println!(
        "workload {name}, seed {}, {} s, {} run on {} cores",
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "end-to-end" },
        sys::nproc()
    );
    let outcome = if o.trace {
        traced(spec, o)
    } else {
        end_to_end(spec, o)
    };
    assert_complete(outcome.table, &outcome.metrics);
    print_metrics(outcome.table, &outcome.metrics);
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    let correct = outcome.failed == 0;
    println!(
        "failed_frac {} ({} of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    if let Some(path) = &o.detail {
        let mut pairs = vec![
            ("workload", Json::str(name)),
            ("why", Json::str(spec.why)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(outcome.attempted as f64)),
            ("failed", Json::num(outcome.failed as f64)),
            (
                "errors",
                Json::array(outcome.errors.iter().map(|e| Json::str(e.as_str()))),
            ),
            (
                "metrics",
                metrics_json(outcome.table, &outcome.metrics, true),
            ),
        ];
        pairs.extend(outcome.notes.iter().cloned());
        std::fs::write(path, Json::object(pairs).to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The driver's contract: exactly these keys, as the last line.
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(outcome.attempted.max(1) as f64)),
            ("failed", Json::num(outcome.failed as f64)),
            (
                "metrics",
                metrics_json(outcome.table, &outcome.metrics, false)
            ),
        ])
        .to_compact()
    );
    Ok(correct)
}

// ---------------------------------------------------------------------------
// all: every workload in its own process, one results file
// ---------------------------------------------------------------------------

/// Several runs of one workload as one report: the first run's, with each
/// metric's value replaced by the median across the runs and its `reps` by
/// the runs' values, so that `compare` judges the set by how far its own
/// runs lie apart. One run is reported as it is (its `reps` are its
/// repetitions).
fn across_runs(mut reports: Vec<Json>) -> Json {
    if reports.len() == 1 {
        return reports.remove(0);
    }
    let values = |name: &str| -> Vec<f64> {
        reports
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect()
    };
    let names: Vec<String> = reports[0]
        .get("metrics")
        .and_then(Json::as_object)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default();
    let merged: Vec<(String, Json)> = names
        .into_iter()
        .map(|name| {
            let runs = values(&name);
            let unit = reports[0]
                .get("metrics")
                .and_then(|m| m.get(&name)?.get("unit").cloned());
            let metric = obj([
                ("value", Json::num(stats::median(&runs))),
                ("unit", unit.unwrap_or(Json::Null)),
                ("reps", Json::array(runs.into_iter().map(Json::num))),
            ]);
            (name, metric)
        })
        .collect();
    let correct = reports
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let Json::Object(mut first) = reports.remove(0) else {
        return Json::Null;
    };
    first.insert("metrics".into(), Json::object(merged));
    first.insert("correct".into(), Json::Bool(correct));
    Json::Object(first)
}

/// `all`: run every workload (end to end, then traced when asked), each run
/// a child process, `--runs` runs each, and gather their reports into one
/// results file.
pub fn run_all(o: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let modes: &[bool] = if o.trace { &[false, true] } else { &[false] };
    for (name, _) in workload_list() {
        let mut entry: Vec<(&str, Json)> = Vec::new();
        for &trace in modes {
            let mut reports = Vec::new();
            for run in 0..o.runs {
                let detail = o
                    .out
                    .join(format!("detail-{name}-{}-{run}.json", u8::from(trace)));
                let status = std::process::Command::new(&exe)
                    .args(["run", "--workload", name])
                    .args(["--seed", &o.seed.to_string()])
                    .args(["--seconds", &o.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&o.out)
                    .arg("--detail")
                    .arg(&detail)
                    .status()
                    .map_err(|e| format!("cannot start {name}: {e}"))?;
                all_correct &= status.success();
                let text = std::fs::read_to_string(&detail)
                    .map_err(|e| format!("{name} left no report ({}): {e}", detail.display()))?;
                reports.push(Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))?);
                let _ = std::fs::remove_file(&detail);
                println!();
            }
            let section = if trace { "per_layer" } else { "end_to_end" };
            entry.push((section, across_runs(reports)));
        }
        workloads.push((name, Json::object(entry)));
    }
    let results = obj([
        (
            "meta",
            obj([
                ("seed", Json::num(o.seed as f64)),
                ("seconds", Json::num(o.seconds)),
                ("runs_per_workload", Json::num(o.runs as f64)),
                ("git_commit", Json::str(sys::git_commit())),
                ("nproc", Json::num(sys::nproc() as f64)),
                ("rustc", Json::str(sys::rustc_version())),
                ("filesystem", Json::str(sys::filesystem_of(&o.out))),
                (
                    "fsync_policy",
                    Json::str("durable_write: Commit { group_window_ms: 0 }, snapshot_every 256"),
                ),
                (
                    "client",
                    Json::str("closed loop, one process, 2 threads / 2 connections"),
                ),
            ]),
        ),
        ("workloads", Json::object(workloads)),
    ]);
    let path = match o.files.first() {
        Some(file) => Path::new(file).to_path_buf(),
        None => o.out.join("results.json"),
    };
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse than the base by more than the bound.
    Worse,
    /// Either set's own spread exceeds the bound, so the sets cannot tell.
    Unresolved,
}

/// Judge `new` against `base`. `delta` is the relative change in the
/// direction that is worse (positive = worse). A set whose repetitions
/// spread wider than the bound cannot resolve a difference of that size,
/// unless every repetition of one side beats every repetition of the other.
pub fn verdict(
    better: Better,
    bound: f64,
    base: (f64, &[f64]),
    new: (f64, &[f64]),
) -> (f64, Verdict) {
    let ratio = new.0 / base.0;
    let delta = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let noisy = stats::spread(base.1).max(stats::spread(new.1)) > bound;
    let worse_than = |a: f64, b: f64| match better {
        Better::Lower => a > b,
        Better::Higher => a < b,
    };
    let separated = |losers: &[f64], winners: &[f64]| {
        !losers.is_empty()
            && !winners.is_empty()
            && losers
                .iter()
                .all(|l| winners.iter().all(|w| worse_than(*l, *w)))
    };
    let v = if noisy {
        if separated(new.1, base.1) && delta > bound {
            Verdict::Worse
        } else if separated(base.1, new.1) && -delta > bound {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if delta > bound {
        Verdict::Worse
    } else if -delta > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (ratio, v)
}

fn metric_of(report: &Json, name: &str) -> Option<(f64, Vec<f64>)> {
    let m = report.get("metrics")?.get(name)?;
    let reps = m
        .get("reps")
        .and_then(Json::as_array)
        .map(|r| r.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, reps))
}

/// `compare BASE NEW`: one row per (workload, metric) with base, new,
/// ratio and verdict. `Ok(false)` when any end-to-end row is `worse`.
pub fn compare(o: &Options) -> Result<bool, String> {
    let [base, new] = o.files.as_slice() else {
        return Err("compare needs two results files".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base)?, load(new)?);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<14} {:<38} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for (workload, _) in workload_list() {
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let side = |doc: &Json| doc.get("workloads")?.get(workload)?.get(section).cloned();
            let (Some(b), Some(n)) = (side(&base), side(&new)) else {
                continue;
            };
            for d in table {
                let (Some(bm), Some(nm)) = (metric_of(&b, d.name), metric_of(&n, d.name)) else {
                    continue;
                };
                // Per-layer metrics have no bound: they are shown, with
                // their ratio, to say where an end-to-end change sits.
                let (ratio, word) = if section == "end_to_end" {
                    let (ratio, v) = verdict(d.better, d.bound, (bm.0, &bm.1), (nm.0, &nm.1));
                    let word = match v {
                        Verdict::Better => "better",
                        Verdict::Same => "same",
                        Verdict::Worse => "worse",
                        Verdict::Unresolved => "unresolved",
                    };
                    *counts.entry(word).or_default() += 1;
                    (ratio, word)
                } else {
                    (nm.0 / bm.0, if nm.0 == bm.0 { "exact" } else { "-" })
                };
                println!(
                    "{workload:<14} {:<38} {:>14.4} {:>14.4} {ratio:>7.3}  {word}",
                    d.name, bm.0, nm.0
                );
            }
        }
    }
    let count = |w: &str| counts.get(w).copied().unwrap_or(0);
    println!(
        "end-to-end rows: {} better, {} same, {} worse, {} unresolved",
        count("better"),
        count("same"),
        count("worse"),
        count("unresolved")
    );
    Ok(count("worse") == 0)
}

// ---------------------------------------------------------------------------
// manifest
// ---------------------------------------------------------------------------

/// `BENCHMARK.json`, from the tables in `metrics.rs` and `workloads.rs`.
pub fn manifest() -> String {
    let metric = |d: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.word())),
        ];
        if bounded {
            pairs.push(("bound", Json::num(d.bound)));
        }
        Json::object(pairs)
    };
    obj([
        (
            "command",
            Json::array([Json::str("bash"), Json::str("e2ebench/run.sh")]),
        ),
        ("paths", Json::array([Json::str("e2ebench")])),
        ("run_seconds", Json::num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::array(
                workload_list()
                    .into_iter()
                    .map(|(name, why)| obj([("name", Json::str(name)), ("why", Json::str(why))])),
            ),
        ),
        (
            "end_to_end",
            Json::array(END_TO_END.iter().map(|d| metric(d, true))),
        ),
        (
            "per_layer",
            Json::array(PER_LAYER.iter().map(|d| metric(d, false))),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let v = |better, new: f64, base_reps: &[f64], new_reps: &[f64]| {
            verdict(better, 0.10, (100.0, base_reps), (new, new_reps)).1
        };
        assert_eq!(v(Better::Lower, 105.0, &tight, &tight), Verdict::Same);
        assert_eq!(v(Better::Lower, 115.0, &tight, &tight), Verdict::Worse);
        assert_eq!(v(Better::Lower, 85.0, &tight, &tight), Verdict::Better);
        assert_eq!(v(Better::Higher, 85.0, &tight, &tight), Verdict::Worse);
        assert_eq!(v(Better::Higher, 115.0, &tight, &tight), Verdict::Better);
        // One-shot metrics have no repetitions and no spread of their own.
        assert_eq!(v(Better::Lower, 105.0, &[], &[]), Verdict::Same);
        // A set that spreads wider than the bound resolves nothing ...
        let wide = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(v(Better::Lower, 105.0, &wide, &tight), Verdict::Unresolved);
        assert_eq!(v(Better::Lower, 115.0, &tight, &wide), Verdict::Unresolved);
        // ... unless every repetition of one side beats every one of the other.
        let far = [300.0, 340.0, 270.0, 320.0, 285.0];
        assert_eq!(v(Better::Lower, 300.0, &wide, &far), Verdict::Worse);
    }

    #[test]
    fn manifest_meets_the_drivers_limits_and_matches_the_committed_file() {
        let text = manifest();
        let doc = Json::parse(&text).unwrap();
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for item in doc.get(section).unwrap().as_array().unwrap() {
                let name = item.get("name").unwrap().as_str().unwrap();
                assert!(name_ok(name), "{name}");
                assert!(names.insert(name.to_owned()), "{name} is used twice");
                if let Some(why) = item.get("why").and_then(Json::as_str) {
                    assert!(
                        why.len() <= 200 && !why.contains('\n'),
                        "{name}: {}",
                        why.len()
                    );
                }
                if let Some(unit) = item.get("unit").and_then(Json::as_str) {
                    assert!(unit.len() <= 16, "{unit}");
                }
            }
        }
        assert_eq!(doc.get("workloads").unwrap().as_array().unwrap().len(), 6);
        assert!(def(&END_TO_END, "setup_s").is_some_and(|d| d.unit == "s"
            && d.better == Better::Lower
            && END_TO_END
                .iter()
                .all(|o| o.bound <= d.bound && o.bound <= 0.25)));
        assert!(text.len() < 64 * 1024);
        // The committed file is this text.
        let committed = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed.trim_end(),
            text.trim_end(),
            "regenerate with `e2ebench manifest`"
        );
    }
}
