//! The layer ladder: one call list replayed single-session at successive
//! depths of the stack, each through a public entry point. A layer's self
//! time is the per-call difference between adjacent rungs.
//!
//! ```text
//! R0  wire::Client -> WireServer over loopback          } wire.socket_pool = R0 - R1
//! R1  wire::serve_stream over in-memory frames          } wire.codec       = R1 - R2
//! R2  BridgeScopeServer::build_gated(cache).registry    } gate.net         = R2 - R3
//! R3  BridgeScopeServer::build_gated(default).registry  } core.dispatch    = R3 - R4 (SQL calls)
//! R4  Session::execute_sql                              } minidb.exec      = R4 - leaves
//!     leaves: sqlkit::parse_statement, sqlkit::analyze, planner::plan_select
//! ```
//!
//! Every rung replays one untimed warm-up pass first, in the session it
//! then times, so gate caches are in the state they have under load.

use crate::check::{Call, Expect, Kind};
use crate::fixture::{shipped_tenancy, Fixture, Script, Served};
use crate::load::measure;
use bridgescope_core::bridge::result_to_output;
use bridgescope_core::{BridgeScopeServer, SecurityPolicy};
use gate::GateConfig;
use minidb::{Database, ExecOptions};
use sqlkit::ast::Statement;
use std::io::{Read, Write};
use std::time::Instant;
use toolproto::{Json, ToolResult};
use wire::rpc;
use wire::WireConfig;

/// Timed passes per rung, after the warm-up pass.
const TIMED_PASSES: usize = 2;

/// The rungs, outermost first, with the layer each span is attributed to.
pub const RUNGS: [(&str, &str); 5] = [
    ("R0", "wire.socket_pool"),
    ("R1", "wire.codec"),
    ("R2", "gate"),
    ("R3", "core"),
    ("R4", "minidb"),
];

/// One span of the traced run.
pub struct Span {
    /// The call, numbered across the timed passes.
    pub call_id: usize,
    /// Rung index into [`RUNGS`].
    pub rung: usize,
    /// Nanoseconds since the traced run started.
    pub start_ns: u64,
    /// Nanoseconds since the traced run started.
    pub end_ns: u64,
}

/// One segment of the call list: a user and its calls for every pass.
struct Segment {
    user: &'static str,
    /// `[pass][call]`; pass 0 is the warm-up.
    passes: Vec<Vec<Call>>,
}

/// One call timed at one rung.
#[derive(Clone, Copy)]
struct Timed {
    /// Position of the call in its pass (all segments, in order).
    index: usize,
    kind: Kind,
    /// Nanoseconds since the traced run started.
    start_ns: u64,
    end_ns: u64,
}

impl Timed {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-call timings of one rung: `[timed pass][call]`.
type Timings = Vec<Vec<Timed>>;

/// What the ladder measured.
pub struct Ladder {
    /// Timings per rung (R0..R4), timed pass and call; R4 holds only the
    /// calls that reach the engine.
    rungs: Vec<Timings>,
    /// Leaf means over the SQL calls, ns.
    pub parse_ns: f64,
    /// See `parse_ns`.
    pub analyze_ns: f64,
    /// Mean over `select`s.
    pub plan_ns: f64,
    /// Wire codec leaves, mean ns per call, and per-1000-rows costs.
    pub decode_ns: f64,
    /// `tool_output_to_json` + `response_ok`.
    pub encode_ns: f64,
    /// Encode time per thousand result rows, ns.
    pub encode_ns_per_krow: f64,
    /// Client-side parse time per thousand result rows, ns.
    pub client_parse_ns_per_krow: f64,
    /// R3 mean over the context calls (list and probes), ns.
    pub context_ns: f64,
    /// R3 mean over the denied calls (list and probes), ns.
    pub denied_ns: f64,
    /// Mean R0 round trip of a pass that records no spans, ns.
    pub untraced_r0_ns: f64,
    /// Mean R0 round trip against a server with telemetry disabled, ns.
    pub obs_off_r0_ns: f64,
    /// Scan-leaf rows over root rows across the distinct `select`s.
    pub rows_scanned_per_row_out: f64,
    /// Reference-executor time over planned time across the `select`s.
    pub reference_ratio: f64,
    /// Calls in one pass.
    pub calls: usize,
    /// Replies that did not match the oracle, all rungs.
    pub failed: usize,
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for v in values {
        sum += u128::from(v);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn engine_kind(kind: Kind) -> bool {
    matches!(kind, Kind::Select | Kind::Dml | Kind::Begin | Kind::Commit)
}

impl Ladder {
    /// Mean duration at `rung` over the calls `keep` selects, ns.
    pub fn mean_ns(&self, rung: usize, keep: impl Fn(Kind) -> bool) -> f64 {
        mean(
            self.rungs[rung]
                .iter()
                .flatten()
                .filter(|t| keep(t.kind))
                .map(Timed::ns),
        )
    }

    /// Share of the list's calls that reach the engine.
    pub fn engine_share(&self) -> f64 {
        let all = self.rungs[0].iter().flatten().count();
        let engine = self.rungs[0]
            .iter()
            .flatten()
            .filter(|t| engine_kind(t.kind))
            .count();
        engine as f64 / all.max(1) as f64
    }

    /// R3 minus R4 over the calls that reach the engine, ns.
    pub fn dispatch_ns(&self) -> f64 {
        self.mean_ns(3, engine_kind) - self.mean_ns(4, |_| true)
    }

    /// R4 minus the leaves, ns per engine call.
    pub fn exec_ns(&self) -> f64 {
        self.mean_ns(4, |_| true) - self.parse_ns - self.analyze_ns - self.plan_ns
    }

    /// Self time per call of the list, by layer, in ladder order; sums to
    /// the R0 mean.
    pub fn self_times_ns(&self) -> Vec<(&'static str, f64)> {
        let all = |rung| self.mean_ns(rung, |_| true);
        let share = self.engine_share();
        let r4 = all(4) * share;
        vec![
            ("wire.socket_pool", all(0) - all(1)),
            ("wire.codec", all(1) - all(2)),
            ("gate", all(2) - all(3)),
            ("core", all(3) - r4),
            ("sqlkit.parse", self.parse_ns * share),
            ("sqlkit.analyze", self.analyze_ns * share),
            ("minidb.planner", self.plan_ns * share),
            ("minidb.exec", self.exec_ns() * share),
        ]
    }

    /// Every span of the timed passes; rung k+1 is the child of rung k for
    /// the same call.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = Vec::new();
        for (rung, timings) in self.rungs.iter().enumerate() {
            for (pass, calls) in timings.iter().enumerate() {
                spans.extend(calls.iter().map(|t| Span {
                    call_id: pass * self.calls + t.index,
                    rung,
                    start_ns: t.start_ns,
                    end_ns: t.end_ns,
                }));
            }
        }
        spans
    }
}

/// Feeds `serve_stream` one frame per read and notes when each is asked
/// for: frame k is handed over when the reply to frame k-1 is complete.
struct Feed<'a> {
    frames: &'a [Vec<u8>],
    index: usize,
    offset: usize,
    epoch: Instant,
    handed_ns: Vec<u64>,
}

impl Read for Feed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.offset == 0 {
            self.handed_ns.push(self.epoch.elapsed().as_nanos() as u64);
        }
        let Some(frame) = self.frames.get(self.index) else {
            return Ok(0);
        };
        let n = buf.len().min(frame.len() - self.offset);
        buf[..n].copy_from_slice(&frame[self.offset..self.offset + n]);
        self.offset += n;
        if self.offset == frame.len() {
            self.index += 1;
            self.offset = 0;
        }
        Ok(n)
    }
}

/// Receives reply frames and decodes each the way `wire::Client` does, so
/// R0 and R1 differ by the socket and the pool only.
#[derive(Default)]
struct Sink {
    pending: Vec<u8>,
    replies: Vec<Option<ToolResult>>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let text = String::from_utf8_lossy(&self.pending);
        self.replies.push(decode_reply(text.trim_end()));
        self.pending.clear();
        Ok(())
    }
}

/// A `tools/call` reply frame as the client reads it: `None` for anything
/// but a tool outcome.
fn decode_reply(frame: &str) -> Option<ToolResult> {
    let doc = Json::parse(frame).ok()?;
    if let Some(error) = doc.get("error") {
        let rpc_error = rpc::RpcError::from_json(error).ok()?;
        return rpc::rpc_to_tool_error(&rpc_error).map(Err);
    }
    rpc::tool_output_from_json(doc.get("result")?).ok().map(Ok)
}

fn call_frame(id: usize, call: &Call) -> String {
    let params = Json::object([
        ("name", Json::str(call.tool.as_str())),
        ("arguments", call.args.clone()),
    ]);
    rpc::request_frame(&Json::num(id as f64), "tools/call", &params)
}

struct Runner<'a> {
    db: &'a Database,
    segments: &'a [Segment],
    epoch: Instant,
    failed: usize,
}

impl Runner<'_> {
    /// The registry a session of `user` gets behind `gate`.
    fn surface(&self, user: &str, gate: &GateConfig, obs: &obs::Obs) -> BridgeScopeServer {
        BridgeScopeServer::build_gated(
            self.db,
            user,
            SecurityPolicy::default(),
            &mltools::ml_registry(),
            obs.clone(),
            gate,
        )
        .expect("session user exists")
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drop the warm-up pass.
    fn timed(mut passes: Timings) -> Timings {
        passes.remove(0);
        passes
    }

    /// R0: a real client session per segment against a bound server. The
    /// segments' last pass is replayed with no per-call bookkeeping and
    /// only its mean round trip is returned: the difference from the timed
    /// passes is what recording spans costs the traced run.
    fn r0(&mut self, obs: obs::Obs) -> (Timings, f64) {
        let served = Served::start(self.db, obs);
        let mut clients: Vec<wire::Client> = self
            .segments
            .iter()
            .map(|s| served.connect(s.user))
            .collect();
        let recorded = self.segments[0].passes.len() - 1;
        let mut out = vec![Vec::new(); recorded];
        for (pass, timings) in out.iter_mut().enumerate() {
            for (segment, client) in self.segments.iter().zip(&mut clients) {
                for call in &segment.passes[pass] {
                    let start_ns = self.now();
                    let sample = measure(call, |c| client.call(&c.tool, &c.args).ok());
                    let index = timings.len();
                    timings.push(Timed {
                        index,
                        kind: call.kind,
                        start_ns,
                        end_ns: start_ns + sample.ns,
                    });
                    self.failed += usize::from(!sample.ok);
                }
            }
        }
        let (mut calls, started) = (0usize, Instant::now());
        for (segment, client) in self.segments.iter().zip(&mut clients) {
            for call in &segment.passes[recorded] {
                let _ = std::hint::black_box(client.call(&call.tool, &call.args));
                calls += 1;
            }
        }
        let untraced = started.elapsed().as_nanos() as f64 / calls.max(1) as f64;
        for client in &mut clients {
            let _ = client.shutdown();
        }
        drop(clients);
        served.shutdown();
        (Self::timed(out), untraced)
    }

    /// R1: the whole session of a segment as one in-memory byte stream.
    fn r1(&mut self, obs: &obs::Obs) -> Timings {
        let tenancy = shipped_tenancy(self.db);
        let passes = self.segments[0].passes.len();
        let mut out = vec![Vec::new(); passes];
        for segment in self.segments {
            let init = Json::object([
                ("protocol", Json::str(wire::PROTOCOL)),
                ("user", Json::str(segment.user)),
            ]);
            let mut frames = vec![rpc::request_frame(&Json::num(0.0), "initialize", &init)];
            let calls: Vec<(usize, &Call)> = segment
                .passes
                .iter()
                .enumerate()
                .flat_map(|(p, calls)| calls.iter().map(move |c| (p, c)))
                .collect();
            frames.extend(
                calls
                    .iter()
                    .enumerate()
                    .map(|(i, (_, c))| call_frame(i + 1, c)),
            );
            let frames: Vec<Vec<u8>> = frames
                .into_iter()
                .map(|f| (f + "\n").into_bytes())
                .collect();
            let mut feed = Feed {
                frames: &frames,
                index: 0,
                offset: 0,
                epoch: self.epoch,
                handed_ns: Vec::with_capacity(frames.len() + 1),
            };
            let mut sink = Sink::default();
            wire::serve_stream(&tenancy, &WireConfig::default(), obs, &mut feed, &mut sink)
                .expect("in-memory stream cannot fail");
            // handed_ns[0] is `initialize`; call i runs from handed_ns[i+1]
            // to handed_ns[i+2] (the last read, at end of input, closes it).
            assert_eq!(feed.handed_ns.len(), frames.len() + 1);
            assert_eq!(sink.replies.len(), frames.len());
            for (i, (pass, call)) in calls.iter().enumerate() {
                let reply = &sink.replies[i + 1];
                self.failed += usize::from(!reply.as_ref().is_some_and(|r| call.accepts(r)));
                let index = out[*pass].len();
                out[*pass].push(Timed {
                    index,
                    kind: call.kind,
                    start_ns: feed.handed_ns[i + 1],
                    end_ns: feed.handed_ns[i + 2],
                });
            }
        }
        Self::timed(out)
    }

    /// R2 / R3: the session's registry, behind `gate`. Also returns the
    /// last pass's outcomes (for the codec leaves).
    fn registry(
        &mut self,
        gate: &GateConfig,
        obs: &obs::Obs,
    ) -> (Timings, Vec<(Call, ToolResult)>) {
        let passes = self.segments[0].passes.len();
        let mut out = vec![Vec::new(); passes];
        let mut outcomes = Vec::new();
        for segment in self.segments {
            let server = self.surface(segment.user, gate, obs);
            for (pass, calls) in segment.passes.iter().enumerate() {
                for call in calls {
                    let start_ns = self.now();
                    let result = server.registry.call(&call.tool, &call.args);
                    let index = out[pass].len();
                    out[pass].push(Timed {
                        index,
                        kind: call.kind,
                        start_ns,
                        end_ns: self.now(),
                    });
                    self.failed += usize::from(!call.accepts(&result));
                    if pass + 1 == passes {
                        outcomes.push((call.clone(), result));
                    }
                }
            }
        }
        (Self::timed(out), outcomes)
    }

    /// Time `calls` once through a fresh ungated registry of `user`.
    fn probe_r3(&mut self, user: &str, calls: &[Call], obs: &obs::Obs) -> Vec<(Kind, u64)> {
        let server = self.surface(user, &GateConfig::default(), obs);
        let mut out = Vec::new();
        // Once to warm, then timed.
        for timed in [false, true, true, true] {
            for call in calls {
                let t = Instant::now();
                let result = server.registry.call(&call.tool, &call.args);
                let ns = t.elapsed().as_nanos() as u64;
                self.failed += usize::from(!call.accepts(&result));
                if timed {
                    out.push((call.kind, ns));
                }
            }
        }
        out
    }

    /// R4: the statements of the calls that reach the engine, on one
    /// engine session per segment.
    fn r4(&mut self) -> Timings {
        let passes = self.segments[0].passes.len();
        let mut out = vec![Vec::new(); passes];
        // Where each segment's calls start within a pass of all segments.
        let mut offsets = vec![0usize; passes];
        for segment in self.segments {
            let mut session = self.db.session(segment.user).expect("session user exists");
            for (pass, calls) in segment.passes.iter().enumerate() {
                let offset = offsets[pass];
                offsets[pass] += calls.len();
                let engine_calls = calls
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| engine_kind(c.kind));
                for (position, call) in engine_calls {
                    let sql = match call.kind {
                        Kind::Begin => "BEGIN",
                        Kind::Commit => "COMMIT",
                        _ => call.sql().expect("SQL call"),
                    };
                    let start_ns = self.now();
                    let result = session.execute_sql(sql);
                    out[pass].push(Timed {
                        index: offset + position,
                        kind: call.kind,
                        start_ns,
                        end_ns: self.now(),
                    });
                    let ok = match (&call.expect, result) {
                        (Expect::Value(_), Ok(r)) => call.accepts(&Ok(result_to_output(r))),
                        (Expect::Ok, Ok(_)) => true,
                        _ => false,
                    };
                    self.failed += usize::from(!ok);
                }
            }
        }
        Self::timed(out)
    }
}

/// Mean of `f` over `inputs`, repeated `passes` times after one warm-up
/// pass, ns. `f` returns false for inputs it does not apply to.
fn leaf<T>(inputs: &[T], mut f: impl FnMut(&T) -> bool) -> f64 {
    let (mut total, mut n) = (0u128, 0u64);
    for pass in 0..=TIMED_PASSES {
        for input in inputs {
            let t = Instant::now();
            let counted = f(input);
            let ns = t.elapsed().as_nanos();
            if pass > 0 && counted {
                total += ns;
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Scan-leaf and root row counts of `sql` from `EXPLAIN ANALYZE`.
fn scanned_and_returned(session: &mut minidb::Session, sql: &str) -> Option<(u64, u64)> {
    let minidb::QueryResult::Rows { rows, .. } = session
        .execute_sql(&format!("EXPLAIN ANALYZE {sql}"))
        .ok()?
    else {
        return None;
    };
    let actual = |line: &str| -> Option<u64> {
        let tail = &line[line.rfind("rows=")? + 5..];
        tail.trim_end_matches(')').parse().ok()
    };
    let lines: Vec<String> = rows
        .iter()
        .filter_map(|r| r.first().and_then(|v| v.as_str()).map(str::to_owned))
        .collect();
    let returned = actual(lines.first()?)?;
    let scanned = lines
        .iter()
        .filter(|l| l.contains("Scan on "))
        .filter_map(|l| actual(l))
        .sum();
    Some((scanned, returned))
}

/// The calls of each session for `passes` passes of `per_segment` calls: a
/// replayed list is the same in every pass, a writer moves on to new keys
/// (and finishes the transaction a pass ends in).
fn segments(fixture: &mut Fixture, per_segment: usize, passes: usize) -> Vec<Segment> {
    fixture
        .sessions
        .iter_mut()
        .map(|s| Segment {
            user: s.user,
            passes: (0..passes)
                .map(|_| {
                    s.script.restart();
                    let mut pass = Vec::with_capacity(per_segment + 8);
                    while pass.len() < per_segment
                        || matches!(&s.script, Script::Writer(w) if !w.between_transactions())
                    {
                        pass.push(s.script.next_call().into_owned());
                    }
                    pass
                })
                .collect(),
        })
        .collect()
}

/// Replay `fixture`'s sessions, `calls` calls in all, down the ladder.
pub fn climb(mut fixture: Fixture, calls: usize) -> Ladder {
    let epoch = Instant::now();
    let per_segment = calls.div_ceil(fixture.sessions.len());
    let db = fixture.db.clone();
    let probes = std::mem::take(&mut fixture.probes);
    let shipped = Served::shipped_obs;
    let mut failed = 0;
    // Every rung replays freshly drawn passes: warm-up, the timed ones,
    // and for R0 one more that is replayed without bookkeeping.
    let mut rung = |extra: usize, f: &mut dyn FnMut(&mut Runner<'_>)| {
        let segments = segments(&mut fixture, per_segment, 1 + TIMED_PASSES + extra);
        let mut runner = Runner {
            db: &db,
            segments: &segments,
            epoch,
            failed: 0,
        };
        f(&mut runner);
        failed += runner.failed;
    };

    let (mut r0, mut untraced_r0_ns) = (Vec::new(), 0.0);
    rung(1, &mut |r| (r0, untraced_r0_ns) = r.r0(shipped()));
    let mut obs_off: Timings = Vec::new();
    rung(1, &mut |r| obs_off = r.r0(obs::Obs::disabled()).0);
    let mut r1 = Vec::new();
    rung(0, &mut |r| r1 = r.r1(&shipped()));
    let (mut r2, mut r3, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    rung(0, &mut |r| {
        r2 = r
            .registry(&GateConfig::default().with_cache(), &shipped())
            .0
    });
    rung(0, &mut |r| {
        (r3, outcomes) = r.registry(&GateConfig::default(), &shipped())
    });
    let mut r4 = Vec::new();
    rung(0, &mut |r| r4 = r.r4());

    // Context and denied calls through the ungated registry: the list's
    // own, plus the fixture's probes where the list has none.
    let mut classes: Vec<(Kind, u64)> = r3.iter().flatten().map(|t| (t.kind, t.ns())).collect();
    if !probes.is_empty() {
        rung(0, &mut |r| {
            classes.extend(r.probe_r3(crate::workloads::USERS[1], &probes, &shipped()))
        });
    }
    let class_mean = |kind: Kind| mean(classes.iter().filter(|c| c.0 == kind).map(|c| c.1));

    // Leaves, on the statements and outcomes of the last R3 pass.
    let sql_calls: Vec<&Call> = outcomes
        .iter()
        .map(|(c, _)| c)
        .filter(|c| matches!(c.kind, Kind::Select | Kind::Dml))
        .collect();
    let statements: Vec<(&str, Statement)> = sql_calls
        .iter()
        .filter_map(|c| {
            let sql = c.sql()?;
            Some((sql, sqlkit::parse_statement(sql).ok()?))
        })
        .collect();
    let parse_ns = leaf(&statements, |(sql, _)| {
        std::hint::black_box(sqlkit::parse_statement(std::hint::black_box(sql))).is_ok()
    });
    let analyze_ns = leaf(&statements, |(_, stmt)| {
        std::hint::black_box(sqlkit::analyze(std::hint::black_box(stmt)));
        true
    });
    let options = ExecOptions::default();
    let plan_ns = leaf(&statements, |(_, stmt)| match stmt {
        // Statements with subqueries are planned only after the executor
        // has resolved them; they are left out of this mean.
        Statement::Select(sel) => db
            .with_state(|state| minidb::planner::plan_select(state, sel, &options))
            .is_ok(),
        _ => false,
    });

    let frames: Vec<String> = outcomes
        .iter()
        .enumerate()
        .map(|(i, (c, _))| call_frame(i, c))
        .collect();
    let decode_ns = leaf(&frames, |f| {
        std::hint::black_box(rpc::parse_request(std::hint::black_box(f))).is_ok()
    });
    let outputs: Vec<&toolproto::ToolOutput> = outcomes
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .collect();
    let id = Json::num(1.0);
    let encode =
        |out: &&toolproto::ToolOutput| rpc::response_ok(&id, rpc::tool_output_to_json(out));
    let encode_ns = leaf(&outputs, |out| {
        std::hint::black_box(encode(out));
        true
    });
    let with_rows: Vec<&toolproto::ToolOutput> = outputs
        .iter()
        .copied()
        .filter(|o| o.rows.unwrap_or(0) > 0)
        .collect();
    let krows = with_rows
        .iter()
        .map(|o| o.rows.unwrap_or(0) as f64)
        .sum::<f64>()
        / 1000.0;
    let per_krow = |mean_ns: f64| {
        if krows == 0.0 {
            0.0
        } else {
            mean_ns * with_rows.len() as f64 / krows
        }
    };
    let encode_rows_ns = leaf(&with_rows, |out| {
        std::hint::black_box(encode(out));
        true
    });
    let replies: Vec<String> = with_rows.iter().map(encode).collect();
    let parse_rows_ns = leaf(&replies, |f| {
        std::hint::black_box(decode_reply(std::hint::black_box(f))).is_some()
    });

    // Executor counts and the reference ratio, over the distinct selects.
    let mut selects: Vec<&str> = sql_calls
        .iter()
        .filter(|c| c.kind == Kind::Select)
        .filter_map(|c| c.sql())
        .collect();
    selects.sort_unstable();
    selects.dedup();
    let mut session = db.session("admin").expect("admin exists");
    let (mut scanned, mut returned) = (0u64, 0u64);
    for sql in &selects {
        if let Some((s, r)) = scanned_and_returned(&mut session, sql) {
            scanned += s;
            returned += r;
        }
    }
    let time_all = |options: &dyn Fn(&str) -> ExecOptions| -> f64 {
        let t = Instant::now();
        for sql in &selects {
            let _ = std::hint::black_box(session.query_with_options(sql, &options(sql)));
        }
        t.elapsed().as_nanos() as f64
    };
    time_all(&|_| ExecOptions::default());
    let planned = time_all(&|_| ExecOptions::default());
    let reference = time_all(&crate::workloads::reference_options);

    Ladder {
        calls: r0.first().map_or(0, Vec::len),
        rungs: vec![r0, r1, r2, r3, r4],
        parse_ns,
        analyze_ns,
        plan_ns,
        decode_ns,
        encode_ns,
        encode_ns_per_krow: per_krow(encode_rows_ns),
        client_parse_ns_per_krow: per_krow(parse_rows_ns),
        context_ns: class_mean(Kind::Context),
        denied_ns: class_mean(Kind::Denied),
        untraced_r0_ns,
        obs_off_r0_ns: mean(obs_off.iter().flatten().map(Timed::ns)),
        rows_scanned_per_row_out: scanned as f64 / returned.max(1) as f64,
        reference_ratio: reference / planned.max(1.0),
        failed,
    }
}
