//! The simulated ReAct agent loop.
//!
//! This is a *behavioural model*, not a language model: given a task spec,
//! a tool registry, and a behaviour profile, it plays out the interaction a
//! ReAct agent would have — reasoning text, tool calls, tool results, retries
//! — against real tools over a real database engine. Token costs come from
//! the actual transcript; failures come from actual tool errors and actual
//! context-window overflow. The profile parameters only decide *which
//! plausible behaviour* occurs (hallucinate schema, miss a privilege
//! annotation, skip the transaction), mirroring the failure modes the paper
//! attributes to GPT-4o and Claude-4.

use crate::profile::LlmProfile;
use crate::task::{DataSource, SqlStep, TaskKind, TaskSpec};
use crate::tokens::{estimate, ContextWindow};
use crate::trace::{EventKind, Outcome, TaskTrace, TraceEvent};
use obs::Obs;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use toolproto::{Json, Registry, ToolError};

/// A simulated ReAct agent: a behaviour profile plus a system prompt.
pub struct ReactAgent {
    profile: LlmProfile,
    system_prompt: String,
    obs: Obs,
}

impl ReactAgent {
    /// Create an agent. `system_prompt` is the toolkit's guidance text; the
    /// registry's tool prompt is appended automatically at run time.
    pub fn new(profile: LlmProfile, system_prompt: impl Into<String>) -> Self {
        ReactAgent {
            profile,
            system_prompt: system_prompt.into(),
            obs: Obs::disabled(),
        }
    }

    /// Record runs into `obs`: each run becomes a `task` root span, each
    /// reasoning+action step an `llm:call` span, with `llm.*` counters
    /// (calls, tool calls, rows via context, tokens) on the side.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The agent's profile.
    pub fn profile(&self) -> &LlmProfile {
        &self.profile
    }

    /// Run one task against a tool registry. `seed` makes the run
    /// reproducible; benchmarks derive it from the task id.
    pub fn run(&self, registry: &Registry, task: &TaskSpec, seed: u64) -> TaskTrace {
        let mut task_span = self.obs.span("task");
        if task_span.enabled() {
            task_span.attr("task", task.id.as_str());
        }
        let mut runner = Runner {
            profile: &self.profile,
            registry,
            task,
            rng: SmallRng::seed_from_u64(seed),
            window: ContextWindow::new(self.profile.context_window),
            trace: TaskTrace::new(task.id.clone()),
            surface: Surface::inspect(registry),
            obs: self.obs.clone(),
        };
        let system = format!(
            "{}\nTools:\n{}",
            self.system_prompt,
            registry.render_prompt()
        );
        runner.window.push(estimate(&system) + estimate(&task.nl));

        let outcome = match task.kind {
            TaskKind::Pipeline => runner.run_pipeline(),
            _ => runner.run_sql_task(),
        };
        runner.trace.outcome = outcome;
        if task_span.enabled() {
            task_span.attr("llm_calls", runner.trace.llm_calls as u64);
            task_span.attr("tool_calls", runner.trace.tool_calls as u64);
            task_span.attr("outcome", format!("{:?}", runner.trace.outcome));
            if let Outcome::Failed(reason) = &runner.trace.outcome {
                task_span.fail(reason.clone());
            }
        }
        runner.trace
    }
}

/// What the tool surface offers (derived by introspecting the registry, the
/// way a real LLM reads its tool list).
#[derive(Debug, Clone)]
struct Surface {
    get_schema: bool,
    get_object: bool,
    get_value: bool,
    execute_sql: bool,
    proxy: bool,
    begin: bool,
    /// Names of per-action SQL tools present (select/insert/…).
    action_tools: BTreeSet<String>,
}

impl Surface {
    fn inspect(reg: &Registry) -> Self {
        let mut action_tools = BTreeSet::new();
        for a in [
            "select", "insert", "update", "delete", "create", "drop", "alter",
        ] {
            if reg.contains(a) {
                action_tools.insert(a.to_owned());
            }
        }
        Surface {
            get_schema: reg.contains("get_schema"),
            get_object: reg.contains("get_object"),
            get_value: reg.contains("get_value"),
            execute_sql: reg.contains("execute_sql"),
            proxy: reg.contains("proxy"),
            begin: reg.contains("begin"),
            action_tools,
        }
    }

    /// Whether SQL execution is action-modularized (BridgeScope style).
    fn modular(&self) -> bool {
        !self.action_tools.is_empty()
    }

    /// The tool to run a statement of `action` through, if any. The flag is
    /// `true` when the tool is action-specific (modular).
    fn sql_tool(&self, action: &str) -> Option<(String, bool)> {
        if self.action_tools.contains(action) {
            Some((action.to_owned(), true))
        } else if self.execute_sql {
            Some(("execute_sql".to_owned(), false))
        } else {
            None
        }
    }
}

/// Privilege knowledge extracted from a `get_schema` result.
#[derive(Debug, Clone, Default)]
struct SchemaKnowledge {
    /// Visible tables → privilege annotations (None when the toolkit emits
    /// no annotations, i.e. PG-MCP).
    tables: BTreeMap<String, Option<BTreeSet<String>>>,
    retrieved: bool,
}

impl SchemaKnowledge {
    fn from_result(value: &Json) -> Self {
        let mut tables = BTreeMap::new();
        if let Some(items) = value.get("tables").and_then(Json::as_array) {
            for t in items {
                let Some(name) = t.get("name").and_then(Json::as_str) else {
                    continue;
                };
                let privileges = t.get("privileges").and_then(Json::as_array).map(|ps| {
                    ps.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_owned)
                        .collect::<BTreeSet<_>>()
                });
                tables.insert(name.to_owned(), privileges);
            }
        }
        SchemaKnowledge {
            tables,
            retrieved: true,
        }
    }

    /// Check a required ⟨action, table⟩ against what the schema revealed.
    /// `None` = unknown (no annotations), `Some(false)` = known infeasible.
    fn allows(&self, action: &str, table: &str) -> Option<bool> {
        if !self.retrieved {
            return None;
        }
        match self.tables.get(table) {
            None => Some(false), // object hidden or missing → infeasible
            Some(None) => None,  // visible, no annotation → unknown
            Some(Some(privs)) => Some(privs.contains(action)),
        }
    }
}

struct Runner<'a> {
    profile: &'a LlmProfile,
    registry: &'a Registry,
    task: &'a TaskSpec,
    rng: SmallRng,
    /// The transcript so far, kept as its token count: every LLM call
    /// re-reads all of it as prompt.
    window: ContextWindow,
    trace: TaskTrace,
    surface: Surface,
    obs: Obs,
}

impl<'a> Runner<'a> {
    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }

    /// Scale reasoning text by the profile's verbosity (Claude writes more).
    fn reason_text(&self, base: &str) -> String {
        let extra = ((self.profile.verbosity - 1.0) * base.len() as f64) as usize;
        if extra == 0 {
            return base.to_owned();
        }
        let filler = " Considering the available tools and the database state, \
                       this is the appropriate next step given the task requirements.";
        let mut out = base.to_owned();
        while out.len() < base.len() + extra {
            out.push_str(filler);
        }
        out
    }

    /// Bill one LLM call that emits `reasoning` and an action described by
    /// `kind` (a tool call or final answer). Returns `false` on context
    /// overflow.
    fn llm_call(&mut self, reasoning: &str, kind: EventKind) -> bool {
        // Prompt: the whole transcript so far.
        let prompt = self.window.used();
        self.trace.prompt_tokens += prompt;
        let action = kind.to_string();
        let content = format!("{}\n{action}", self.reason_text(reasoning));
        let tokens = estimate(&content);
        self.trace.completion_tokens += tokens;
        self.trace.llm_calls += 1;
        if self.obs.is_enabled() {
            self.obs.incr("llm.calls", 1);
            self.obs.incr("llm.prompt_tokens", prompt as u64);
            self.obs.incr("llm.completion_tokens", tokens as u64);
        }
        self.trace.events.push(TraceEvent {
            call: self.trace.llm_calls,
            kind,
            tokens,
        });
        self.window.push(tokens)
    }

    /// Invoke a tool and append its result to the transcript. Returns the
    /// result plus `false` if the transcript overflowed.
    fn invoke(&mut self, tool: &str, args: &Json) -> (Result<Json, ToolError>, bool) {
        self.trace.tool_calls += 1;
        if self.obs.is_enabled() {
            self.obs.incr("llm.tool_calls", 1);
        }
        match self.registry.call(tool, args) {
            Ok(out) => {
                if let Some(rows) = out.rows {
                    self.trace.rows_via_llm += rows;
                    if self.obs.is_enabled() {
                        self.obs.incr("llm.rows_via_context", rows as u64);
                    }
                }
                let rendered = out.value.to_compact();
                let tokens = estimate(&rendered);
                let ok = self.window.push(tokens);
                self.trace.events.push(TraceEvent {
                    call: self.trace.llm_calls,
                    kind: EventKind::ToolResult {
                        tool: tool.to_owned(),
                    },
                    tokens,
                });
                (Ok(out.value), ok)
            }
            Err(e) => {
                let tokens = estimate(&format!("{{\"error\": \"{e}\"}}"));
                let ok = self.window.push(tokens);
                self.trace.events.push(TraceEvent {
                    call: self.trace.llm_calls,
                    kind: EventKind::Error {
                        tool: tool.to_owned(),
                        message: e.to_string(),
                    },
                    tokens,
                });
                (Err(e), ok)
            }
        }
    }

    /// One LLM call that invokes a tool: bill the call, run the tool, append
    /// the result. The `Option` is `None` on context overflow.
    fn step(&mut self, reasoning: &str, tool: &str, args: Json) -> Option<Result<Json, ToolError>> {
        let mut span = self.obs.span("llm:call");
        let kind = EventKind::ToolCall {
            tool: tool.to_owned(),
            args: args.to_compact(),
        };
        if span.enabled() {
            span.attr("tool", tool);
        }
        if !self.llm_call(reasoning, kind) {
            return None;
        }
        let (result, ok) = self.invoke(tool, &args);
        if span.enabled() {
            span.attr("ok", result.is_ok());
        }
        if !ok {
            return None;
        }
        Some(result)
    }

    /// Final LLM call ending the run.
    fn finalize(&mut self, reasoning: &str, answer: &str) -> bool {
        let mut span = self.obs.span("llm:call");
        if span.enabled() {
            span.attr("final", true);
        }
        self.llm_call(
            reasoning,
            EventKind::Final {
                answer: answer.to_owned(),
            },
        )
    }

    // ------------------------------------------------------------------
    // SQL (BIRD-Ext style) tasks
    // ------------------------------------------------------------------

    fn run_sql_task(&mut self) -> Outcome {
        // Step 0: feasibility from the tool list alone. With an
        // action-modularized surface, a missing action tool tells the LLM
        // immediately that the task cannot be done.
        let required = self.task.required_actions();
        if self.surface.modular() && !self.surface.execute_sql {
            let missing: Vec<&(String, String)> = required
                .iter()
                .filter(|(a, _)| !self.surface.action_tools.contains(a))
                .collect();
            if !missing.is_empty() && self.chance(self.profile.privilege_awareness) {
                let (a, _) = missing[0];
                self.finalize(
                    &format!("The exposed tools do not include '{a}', so I am not authorized to perform this operation."),
                    "task aborted: required operation is not available to this user",
                );
                return Outcome::Aborted {
                    reason: format!("missing '{a}' tool"),
                    before_execution: true,
                };
            }
        }

        // Step 1: context retrieval.
        let mut schema = SchemaKnowledge::default();
        let mut grounded_lookups: BTreeSet<String> = BTreeSet::new();
        let mut explored_via_probes = false;
        if self.surface.get_schema {
            let result = match self.step(
                "I need the database schema before writing SQL.",
                "get_schema",
                Json::object::<_, String>([]),
            ) {
                None => return Outcome::ContextOverflow,
                Some(Ok(v)) => v,
                Some(Err(e)) => {
                    self.finalize("Schema retrieval failed.", &format!("abort: {e}"));
                    return Outcome::Failed(format!("get_schema failed: {e}"));
                }
            };
            schema = SchemaKnowledge::from_result(&result);
            // Hierarchical mode: entries without columns need get_object for
            // the tables the task touches.
            let needs_detail: Vec<String> =
                if result.get("detail").and_then(Json::as_str) == Some("names_only") {
                    let mut tables: Vec<String> = required
                        .iter()
                        .map(|(_, t)| t.clone())
                        .filter(|t| schema.tables.contains_key(t))
                        .collect();
                    tables.dedup();
                    tables
                } else {
                    Vec::new()
                };
            if self.surface.get_object {
                for t in needs_detail {
                    if self
                        .step(
                            &format!("I need the detailed definition of '{t}'."),
                            "get_object",
                            Json::object([("name", Json::str(t.clone()))]),
                        )
                        .is_none()
                    {
                        return Outcome::ContextOverflow;
                    }
                }
            }
            // Ground text predicates via exemplar retrieval.
            if self.surface.get_value {
                for step in &self.task.steps {
                    if let Some(lookup) = &step.lookup {
                        if !schema.tables.contains_key(&lookup.table) {
                            continue; // table not visible; feasibility handles it
                        }
                        match self.step(
                            &format!(
                                "The predicate on '{}' needs grounding against stored values.",
                                lookup.column
                            ),
                            "get_value",
                            Json::object([
                                ("table", Json::str(lookup.table.clone())),
                                ("column", Json::str(lookup.column.clone())),
                                ("key", Json::str(lookup.key.clone())),
                                ("k", Json::num(5.0)),
                            ]),
                        ) {
                            None => return Outcome::ContextOverflow,
                            Some(Ok(_)) => {
                                grounded_lookups
                                    .insert(format!("{}.{}", lookup.table, lookup.column));
                            }
                            Some(Err(_)) => {}
                        }
                    }
                }
            }
            // Explore-before-generate: cautious profiles re-issue the
            // *identical* context probes before committing to SQL. The
            // repeats change nothing semantically (same args, same
            // results), which is exactly what makes them retrieval-cache
            // hits when the gate's caches are on.
            for round in 0..self.profile.exploration_rounds {
                if self
                    .step(
                        &format!(
                            "Re-checking the schema before generating SQL (exploration round {}).",
                            round + 1
                        ),
                        "get_schema",
                        Json::object::<_, String>([]),
                    )
                    .is_none()
                {
                    return Outcome::ContextOverflow;
                }
                if self.surface.get_value {
                    for step in &self.task.steps {
                        if let Some(lookup) = &step.lookup {
                            if !schema.tables.contains_key(&lookup.table) {
                                continue;
                            }
                            if self
                                .step(
                                    &format!(
                                        "Re-confirming the stored values for '{}'.",
                                        lookup.column
                                    ),
                                    "get_value",
                                    Json::object([
                                        ("table", Json::str(lookup.table.clone())),
                                        ("column", Json::str(lookup.column.clone())),
                                        ("key", Json::str(lookup.key.clone())),
                                        ("k", Json::num(5.0)),
                                    ]),
                                )
                                .is_none()
                            {
                                return Outcome::ContextOverflow;
                            }
                        }
                    }
                }
            }
        } else if self.surface.execute_sql {
            // PG-MCP⁻: no retrieval tools. The agent first reaches for the
            // information schema (which a slim engine does not expose), then
            // explores by probing tables through execute_sql, guessing names
            // (and sometimes guessing wrong).
            if self
                .step(
                    "With no schema tool I will query the catalog for table definitions.",
                    "execute_sql",
                    Json::object([(
                        "sql",
                        Json::str("SELECT table_name FROM information_schema_tables"),
                    )]),
                )
                .is_none()
            {
                return Outcome::ContextOverflow;
            }
            let mut tables: Vec<String> = required.iter().map(|(_, t)| t.clone()).collect();
            tables.sort();
            tables.dedup();
            for t in &tables {
                if self.chance(self.profile.schema_hallucination_rate) {
                    // A wrong guess at the table name costs a call.
                    if self
                        .step(
                            "I will inspect the table to learn its columns.",
                            "execute_sql",
                            Json::object([(
                                "sql",
                                Json::str(format!("SELECT * FROM {t}_records LIMIT 3")),
                            )]),
                        )
                        .is_none()
                    {
                        return Outcome::ContextOverflow;
                    }
                }
                match self.step(
                    "Retrying the inspection with the corrected table name.",
                    "execute_sql",
                    Json::object([("sql", Json::str(format!("SELECT * FROM {t} LIMIT 3")))]),
                ) {
                    None => return Outcome::ContextOverflow,
                    Some(Ok(_)) => {}
                    Some(Err(ToolError::Denied { .. })) | Some(Err(ToolError::Execution(_))) => {
                        // Either privilege or missing table surfaced during
                        // probing; the execution loop will handle it.
                    }
                    Some(Err(_)) => {}
                }
            }
            explored_via_probes = true;
        }

        // Step 2: feasibility from privilege annotations (only informative
        // when the toolkit annotates, i.e. BridgeScope).
        let infeasible = required
            .iter()
            .find(|(a, t)| schema.allows(a, t) == Some(false));
        if let Some((a, t)) = infeasible {
            if self.chance(self.profile.privilege_awareness) {
                self.finalize(
                    &format!("The schema shows I lack the {a} privilege on '{t}' (or it is not accessible)."),
                    "task aborted: insufficient privileges",
                );
                return Outcome::Aborted {
                    reason: format!("no {a} on {t}"),
                    before_execution: true,
                };
            }
        }

        // Step 2b: occasional spurious abort of a feasible task.
        if infeasible.is_none() && self.chance(self.profile.spurious_abort_rate) {
            self.finalize(
                "On reflection the request appears out of scope for this database.",
                "task aborted",
            );
            return Outcome::Aborted {
                reason: "spurious".into(),
                before_execution: true,
            };
        }

        // Step 3: transaction initiation for write tasks.
        let mut in_txn = false;
        if self.task.kind == TaskKind::Write {
            let p = if self.surface.begin {
                self.profile.txn_awareness_explicit
            } else {
                self.profile.txn_awareness_generic
            };
            if self.chance(p) {
                let result = if self.surface.begin {
                    self.step(
                        "This modifies the database, so I will wrap it in a transaction.",
                        "begin",
                        Json::object::<_, String>([]),
                    )
                } else {
                    self.step(
                        "This modifies the database, so I will start a transaction.",
                        "execute_sql",
                        Json::object([("sql", Json::str("BEGIN"))]),
                    )
                };
                match result {
                    None => return Outcome::ContextOverflow,
                    Some(Ok(_)) => {
                        in_txn = true;
                        self.trace.began_transaction = true;
                    }
                    Some(Err(_)) => {}
                }
            }
        }

        // Step 4: execute the SQL steps.
        let residual_halluc = if schema.retrieved {
            0.0
        } else if explored_via_probes {
            self.profile.schema_hallucination_rate * 0.3
        } else {
            self.profile.schema_hallucination_rate
        };
        let mut last_answer: Option<Json> = None;
        let mut executed_any = false;
        for step in &self.task.steps {
            match self.execute_step(
                step,
                residual_halluc,
                &grounded_lookups,
                in_txn,
                &mut executed_any,
            ) {
                StepEnd::Ok(answer) => last_answer = Some(answer),
                StepEnd::Overflow => return Outcome::ContextOverflow,
                StepEnd::Abort(outcome) => {
                    if in_txn {
                        let _ = self.rollback_txn();
                    }
                    return outcome;
                }
            }
        }

        // Step 4b: without a transaction's commit acknowledgement, agents
        // commonly re-read the data to verify their writes landed.
        if self.task.kind == TaskKind::Write
            && !in_txn
            && self.chance(self.profile.verify_unprotected_writes)
        {
            let mut verify_tables: Vec<&str> = self
                .task
                .steps
                .iter()
                .filter(|s| s.action != "select")
                .flat_map(|s| s.tables.iter().map(String::as_str))
                .collect();
            verify_tables.dedup();
            for t in verify_tables.into_iter().take(2) {
                let tool = if self.surface.action_tools.contains("select") {
                    "select"
                } else {
                    "execute_sql"
                };
                if self
                    .step(
                        &format!("Verifying the modification landed in '{t}'."),
                        tool,
                        Json::object([("sql", Json::str(format!("SELECT COUNT(*) FROM {t}")))]),
                    )
                    .is_none()
                {
                    return Outcome::ContextOverflow;
                }
            }
        }

        // Step 5: commit.
        if in_txn {
            let result = if self.surface.begin {
                self.step(
                    "All statements succeeded; committing the transaction.",
                    "commit",
                    Json::object::<_, String>([]),
                )
            } else {
                self.step(
                    "All statements succeeded; committing.",
                    "execute_sql",
                    Json::object([("sql", Json::str("COMMIT"))]),
                )
            };
            match result {
                None => return Outcome::ContextOverflow,
                Some(Ok(_)) => self.trace.committed = true,
                Some(Err(e)) => {
                    self.finalize("Commit failed.", &format!("abort: {e}"));
                    return Outcome::Failed(format!("commit failed: {e}"));
                }
            }
        }

        // Step 6: final answer.
        if !self.finalize(
            "The task is complete; summarizing the result for the user.",
            "task completed",
        ) {
            return Outcome::ContextOverflow;
        }
        self.trace.answer = last_answer;
        Outcome::Completed
    }

    fn rollback_txn(&mut self) -> Option<()> {
        let result = if self.surface.begin {
            self.step(
                "Rolling back the transaction after the failure.",
                "rollback",
                Json::object::<_, String>([]),
            )
        } else {
            self.step(
                "Rolling back after the failure.",
                "execute_sql",
                Json::object([("sql", Json::str("ROLLBACK"))]),
            )
        };
        result.map(|_| ())
    }

    fn execute_step(
        &mut self,
        step: &SqlStep,
        residual_halluc: f64,
        grounded: &BTreeSet<String>,
        _in_txn: bool,
        executed_any: &mut bool,
    ) -> StepEnd {
        let Some((tool, modular_tool)) = self.surface.sql_tool(&step.action) else {
            self.finalize(
                &format!("No tool can execute a {} statement.", step.action),
                "task aborted: operation unavailable",
            );
            return StepEnd::Abort(Outcome::Aborted {
                reason: format!("no tool for {}", step.action),
                before_execution: !*executed_any,
            });
        };
        // Decide the "intended" final SQL: correct, or a plausible miss.
        let lookup_key = step
            .lookup
            .as_ref()
            .map(|l| format!("{}.{}", l.table, l.column));
        let predicate_at_risk = match (&step.lookup, &step.predicate_wrong, &lookup_key) {
            (Some(_), Some(_), Some(k)) if !grounded.contains(k) => {
                self.chance(self.profile.predicate_error_rate)
            }
            _ => false,
        };
        let semantically_wrong = step.wrong.is_some() && !self.chance(self.profile.sql_accuracy);
        let intended: String = if semantically_wrong {
            step.wrong.clone().expect("checked")
        } else {
            step.gold.clone()
        };
        // First attempt may hallucinate schema details.
        let mut current: String = if step.schema_corrupted.is_some() && self.chance(residual_halluc)
        {
            step.schema_corrupted.clone().expect("checked")
        } else if predicate_at_risk {
            step.predicate_wrong.clone().expect("checked")
        } else {
            intended.clone()
        };
        let mut attempts = 0usize;
        let mut denial_retries = 0usize;
        loop {
            attempts += 1;
            let _ = modular_tool; // all SQL tools share the same argument shape
            let args = Json::object([("sql", Json::str(current.clone()))]);
            let result = self.step(
                &format!("Executing the {} statement for this step.", step.action),
                &tool,
                args,
            );
            *executed_any = true;
            match result {
                None => return StepEnd::Overflow,
                Some(Ok(value)) => {
                    // Suspicious empty result from an ungrounded predicate?
                    let empty = value
                        .get("rows")
                        .and_then(Json::as_array)
                        .is_some_and(|r| r.is_empty())
                        || value.get("affected").and_then(Json::as_i64) == Some(0);
                    if current != intended
                        && empty
                        && attempts <= self.profile.max_retries
                        && self.chance(self.profile.empty_result_suspicion)
                    {
                        current = intended.clone();
                        continue;
                    }
                    return StepEnd::Ok(value);
                }
                Some(Err(ToolError::Denied { message, .. })) => {
                    if denial_retries < 1 && self.chance(self.profile.retry_on_denial) {
                        denial_retries += 1;
                        // Try once more (e.g. re-phrase / re-target), which
                        // burns a call but cannot succeed.
                        continue;
                    }
                    self.finalize(
                        "The database denied the operation; I lack the required privilege.",
                        "task aborted: permission denied",
                    );
                    return StepEnd::Abort(Outcome::Aborted {
                        reason: format!("denied: {message}"),
                        before_execution: false,
                    });
                }
                Some(Err(e)) => {
                    let retryable = matches!(e, ToolError::Execution(_));
                    if retryable && attempts <= self.profile.max_retries {
                        // The error message reveals the mistake; fall back to
                        // the intended SQL (or gold if the intended one just
                        // failed).
                        if current == intended && intended != step.gold {
                            current = step.gold.clone();
                        } else if current != intended {
                            current = intended.clone();
                        } else {
                            self.finalize(
                                "The statement keeps failing; giving up.",
                                &format!("task failed: {e}"),
                            );
                            return StepEnd::Abort(Outcome::Failed(e.to_string()));
                        }
                        continue;
                    }
                    self.finalize(
                        "The statement failed and retries are exhausted.",
                        &format!("task failed: {e}"),
                    );
                    return StepEnd::Abort(Outcome::Failed(e.to_string()));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pipeline (NL2ML style) tasks
    // ------------------------------------------------------------------

    fn run_pipeline(&mut self) -> Outcome {
        // Context retrieval (schema of the source table).
        if self.surface.get_schema {
            match self.step(
                "I need the table schema to write the extraction query.",
                "get_schema",
                Json::object::<_, String>([]),
            ) {
                None => return Outcome::ContextOverflow,
                Some(Ok(_)) => {}
                Some(Err(e)) => {
                    self.finalize("Schema retrieval failed.", &format!("abort: {e}"));
                    return Outcome::Failed(format!("get_schema failed: {e}"));
                }
            }
        } else if self.surface.execute_sql {
            // Probe the source table.
            if let Some(sql) = self.first_pipeline_sql() {
                let probe = format!("{} LIMIT 3", sql.trim_end_matches(';'));
                if self
                    .step(
                        "Probing the table to learn its columns.",
                        "execute_sql",
                        Json::object([("sql", Json::str(probe))]),
                    )
                    .is_none()
                {
                    return Outcome::ContextOverflow;
                }
            }
        }

        if self.surface.proxy && self.chance(self.profile.proxy_abstraction) {
            // Compose the whole pipeline as one nested proxy unit.
            let args = self.build_proxy_args();
            let result = self.step(
                "I will delegate data routing to the proxy: the query results flow \
                 directly into the downstream tools without passing through me.",
                "proxy",
                args,
            );
            match result {
                None => return Outcome::ContextOverflow,
                Some(Ok(value)) => {
                    if !self.finalize(
                        "The proxy returned the final result; reporting it.",
                        "task completed",
                    ) {
                        return Outcome::ContextOverflow;
                    }
                    self.trace.answer = Some(value);
                    return Outcome::Completed;
                }
                Some(Err(e)) => {
                    self.finalize("The proxy failed.", &format!("task failed: {e}"));
                    return Outcome::Failed(format!("proxy failed: {e}"));
                }
            }
        }

        // No proxy: route every intermediate dataset through the LLM.
        let mut stage_outputs: Vec<Json> = Vec::new();
        for stage in &self.task.pipeline {
            // Materialize data arguments.
            let mut args_map: Vec<(String, Json)> = Vec::new();
            for (arg, source) in &stage.data_args {
                let data = match source {
                    DataSource::Sql(sql) => {
                        let sql_tool = if self.surface.action_tools.contains("select") {
                            "select"
                        } else {
                            "execute_sql"
                        };
                        let result = self.step(
                            "Extracting the data with a query.",
                            sql_tool,
                            Json::object([("sql", Json::str(sql.clone()))]),
                        );
                        match result {
                            None => return Outcome::ContextOverflow,
                            // The LLM reformats the result for the consumer:
                            // verbose object-rows become positional arrays
                            // (this re-emission is part of the transmission
                            // cost, billed when the next call's args are
                            // rendered).
                            Some(Ok(v)) => rows_as_arrays(&v),
                            Some(Err(e)) => {
                                self.finalize("Extraction failed.", &format!("task failed: {e}"));
                                return Outcome::Failed(format!("extraction failed: {e}"));
                            }
                        }
                    }
                    DataSource::Stage(i) => match stage_outputs.get(*i) {
                        Some(v) => v.clone(),
                        None => {
                            return Outcome::Failed(format!(
                                "pipeline stage {i} output unavailable"
                            ))
                        }
                    },
                };
                args_map.push((arg.clone(), data));
            }
            for (k, v) in &stage.static_args {
                args_map.push((k.clone(), v.clone()));
            }
            // The LLM re-emits the data as tool arguments: that is the
            // transmission bottleneck the paper describes, and it is billed
            // as completion tokens here.
            let args = Json::object(args_map);
            let result = self.step(
                "Passing the data to the next tool in the pipeline.",
                &stage.tool,
                args,
            );
            match result {
                None => return Outcome::ContextOverflow,
                Some(Ok(v)) => stage_outputs.push(v),
                Some(Err(e)) => {
                    self.finalize("A pipeline stage failed.", &format!("task failed: {e}"));
                    return Outcome::Failed(format!("stage {} failed: {e}", stage.tool));
                }
            }
        }
        if !self.finalize(
            "The pipeline finished; reporting the final result.",
            "task completed",
        ) {
            return Outcome::ContextOverflow;
        }
        self.trace.answer = stage_outputs.last().cloned();
        Outcome::Completed
    }

    fn first_pipeline_sql(&self) -> Option<String> {
        for stage in &self.task.pipeline {
            for (_, src) in &stage.data_args {
                if let DataSource::Sql(sql) = src {
                    return Some(sql.clone());
                }
            }
        }
        None
    }

    /// Render the pipeline as the proxy tool's `⟨producers, consumer, f⟩`
    /// argument structure, folding stages into nested units.
    fn build_proxy_args(&self) -> Json {
        let last = self.task.pipeline.len() - 1;
        self.unit_for_stage(last)
    }

    fn unit_for_stage(&self, idx: usize) -> Json {
        let stage = &self.task.pipeline[idx];
        let mut tool_args: Vec<(String, Json)> = Vec::new();
        for (arg, source) in &stage.data_args {
            let producer = match source {
                DataSource::Sql(sql) => Json::object([
                    (
                        "tool",
                        Json::str(if self.surface.action_tools.contains("select") {
                            "select"
                        } else {
                            "execute_sql"
                        }),
                    ),
                    ("args", Json::object([("sql", Json::str(sql.clone()))])),
                    // Query tools wrap rows in {"rows": …}; the adaptation
                    // function unwraps them for the consumer.
                    ("transform", Json::str("/rows")),
                ]),
                DataSource::Stage(i) => Json::object([
                    ("unit", self.unit_for_stage(*i)),
                    ("transform", Json::str("identity")),
                ]),
            };
            tool_args.push((arg.clone(), producer));
        }
        for (k, v) in &stage.static_args {
            tool_args.push((k.clone(), Json::object([("value", v.clone())])));
        }
        Json::object([
            ("target_tool", Json::str(stage.tool.clone())),
            ("tool_args", Json::object(tool_args)),
        ])
    }
}

enum StepEnd {
    Ok(Json),
    Overflow,
    Abort(Outcome),
}

/// Normalize a query result to an array of positional rows. Object rows
/// (the verbose shape some servers emit) are converted using the result's
/// `columns` order — the data-reformatting work an LLM router performs.
fn rows_as_arrays(result: &Json) -> Json {
    let rows = match result.get("rows") {
        Some(r) => r,
        None => return result.clone(),
    };
    let Some(items) = rows.as_array() else {
        return rows.clone();
    };
    let columns: Vec<&str> = result
        .get("columns")
        .and_then(Json::as_array)
        .map(|cs| cs.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    if columns.is_empty() || !items.iter().any(|r| r.as_object().is_some()) {
        return rows.clone();
    }
    Json::array(items.iter().map(|row| {
        match row.as_object() {
            Some(obj) => Json::array(
                columns
                    .iter()
                    .map(|c| obj.get(*c).cloned().unwrap_or(Json::Null)),
            ),
            None => row.clone(),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ValueLookup;

    use toolproto::{ArgSpec, ArgType, FnTool, Signature, ToolOutput};

    /// A fake toolkit whose tools return canned values — enough to exercise
    /// the loop mechanics without a database.
    fn fake_registry(with_schema_tool: bool, deny_writes: bool) -> Registry {
        let mut reg = Registry::new();
        if with_schema_tool {
            reg.register_tool(FnTool::new(
                "get_schema",
                "schema",
                Signature::new(vec![]),
                |_: &toolproto::Args| {
                    Ok(ToolOutput::value(
                        Json::parse(
                            r#"{"tables": [{"name": "sales", "columns": [{"name": "id"}],
                                "privileges": ["select", "insert"]}]}"#,
                        )
                        .unwrap(),
                    ))
                },
            ));
        }
        let sql_sig = || Signature::new(vec![ArgSpec::required("sql", ArgType::String, "sql")]);
        reg.register_tool(FnTool::new(
            "select",
            "run a SELECT",
            sql_sig(),
            |_: &toolproto::Args| {
                Ok(ToolOutput::with_rows(
                    Json::parse(r#"{"rows": [[1, "a"]]}"#).unwrap(),
                    1,
                ))
            },
        ));
        if !deny_writes {
            reg.register_tool(FnTool::new(
                "insert",
                "run an INSERT",
                sql_sig(),
                |_: &toolproto::Args| {
                    Ok(ToolOutput::value(
                        Json::parse(r#"{"affected": 1}"#).unwrap(),
                    ))
                },
            ));
            for name in ["begin", "commit", "rollback"] {
                reg.register_tool(FnTool::new(
                    name,
                    "txn",
                    Signature::new(vec![]),
                    |_: &toolproto::Args| {
                        Ok(ToolOutput::value(Json::object([(
                            "status",
                            Json::str("ok"),
                        )])))
                    },
                ));
            }
        }
        reg
    }

    fn read_task() -> TaskSpec {
        TaskSpec::read(
            "r1",
            "How many sales are there?",
            SqlStep::simple("select", vec!["sales".into()], "SELECT COUNT(*) FROM sales"),
        )
    }

    fn strict_profile() -> LlmProfile {
        // Deterministic profile: no hallucination, full awareness.
        LlmProfile {
            schema_hallucination_rate: 0.0,
            predicate_error_rate: 0.0,
            privilege_awareness: 1.0,
            spurious_abort_rate: 0.0,
            sql_accuracy: 1.0,
            txn_awareness_explicit: 1.0,
            ..LlmProfile::gpt4o()
        }
    }

    #[test]
    fn read_task_is_three_calls() {
        let reg = fake_registry(true, false);
        let agent = ReactAgent::new(strict_profile(), "You are a data agent.");
        let trace = agent.run(&reg, &read_task(), 7);
        assert_eq!(trace.outcome, Outcome::Completed);
        // get_schema + select + final = 3 calls.
        assert_eq!(trace.llm_calls, 3);
        assert!(trace.total_tokens() > 0);
        assert!(trace.answer.is_some());
    }

    #[test]
    fn observed_run_matches_trace_counters_and_nests_spans() {
        let reg = fake_registry(true, false);
        let obs = obs::Obs::in_memory();
        let agent = ReactAgent::new(strict_profile(), "agent").with_obs(obs.clone());
        let trace = agent.run(&reg, &read_task(), 7);
        assert_eq!(trace.outcome, Outcome::Completed);

        let snap = obs.snapshot();
        obs::validate_tree(&snap.spans).unwrap();
        // The metrics registry and the independently-maintained TaskTrace
        // must agree call for call.
        assert_eq!(snap.metrics.counter("llm.calls"), trace.llm_calls as u64);
        assert_eq!(
            snap.metrics.counter("llm.tool_calls"),
            trace.tool_calls as u64
        );
        assert_eq!(
            snap.metrics.counter("llm.rows_via_context"),
            trace.rows_via_llm as u64
        );
        assert_eq!(
            snap.metrics.counter("llm.prompt_tokens"),
            trace.prompt_tokens as u64
        );
        assert_eq!(
            snap.metrics.counter("llm.completion_tokens"),
            trace.completion_tokens as u64
        );
        // One root task span; every llm:call nests under it.
        let task = snap
            .spans
            .iter()
            .find(|sp| sp.name == "task")
            .expect("task span");
        assert!(task.parent.is_none());
        let calls: Vec<_> = snap
            .spans
            .iter()
            .filter(|sp| sp.name == "llm:call")
            .collect();
        assert_eq!(calls.len(), trace.llm_calls);
        assert!(calls.iter().all(|sp| sp.parent == Some(task.id)));
    }

    #[test]
    fn write_task_uses_transaction_with_explicit_tools() {
        let reg = fake_registry(true, false);
        let agent = ReactAgent::new(strict_profile(), "agent");
        let task = TaskSpec::write(
            "w1",
            "Insert a sale",
            vec![SqlStep::simple(
                "insert",
                vec!["sales".into()],
                "INSERT INTO sales VALUES (1)",
            )],
        );
        let trace = agent.run(&reg, &task, 7);
        assert_eq!(trace.outcome, Outcome::Completed);
        assert!(trace.began_transaction);
        assert!(trace.committed);
        // schema + begin + insert + commit + final = 5.
        assert_eq!(trace.llm_calls, 5);
    }

    #[test]
    fn missing_action_tool_aborts_immediately() {
        let reg = fake_registry(true, true); // no insert tool
        let agent = ReactAgent::new(strict_profile(), "agent");
        let task = TaskSpec::write(
            "w2",
            "Insert a sale",
            vec![SqlStep::simple(
                "insert",
                vec!["sales".into()],
                "INSERT INTO sales VALUES (1)",
            )],
        );
        let trace = agent.run(&reg, &task, 7);
        match &trace.outcome {
            Outcome::Aborted {
                before_execution, ..
            } => assert!(before_execution),
            other => panic!("{other:?}"),
        }
        assert_eq!(trace.llm_calls, 1, "tool-list check needs a single call");
    }

    #[test]
    fn hidden_table_aborts_after_schema() {
        let reg = fake_registry(true, false);
        let agent = ReactAgent::new(strict_profile(), "agent");
        let task = TaskSpec::read(
            "r2",
            "Read the secret table",
            SqlStep::simple("select", vec!["secrets".into()], "SELECT * FROM secrets"),
        );
        let trace = agent.run(&reg, &task, 7);
        assert!(trace.outcome.is_aborted());
        assert_eq!(trace.llm_calls, 2, "get_schema + abort");
    }

    #[test]
    fn denial_surfaces_as_abort_after_execution() {
        // Surface without schema annotations (PG-MCP style): deny at exec.
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "get_schema",
            "schema (no annotations)",
            Signature::new(vec![]),
            |_: &toolproto::Args| {
                Ok(ToolOutput::value(
                    Json::parse(r#"{"tables": [{"name": "sales", "columns": []}]}"#).unwrap(),
                ))
            },
        ));
        reg.register_tool(FnTool::new(
            "execute_sql",
            "run sql",
            Signature::new(vec![ArgSpec::required("sql", ArgType::String, "sql")]),
            |_: &toolproto::Args| Err(ToolError::denied("privilege", "permission denied")),
        ));
        let mut profile = strict_profile();
        profile.retry_on_denial = 0.0;
        let agent = ReactAgent::new(profile, "agent");
        let task = TaskSpec::write(
            "w3",
            "Insert a sale",
            vec![SqlStep::simple(
                "insert",
                vec!["sales".into()],
                "INSERT INTO sales VALUES (1)",
            )],
        );
        let trace = agent.run(&reg, &task, 9);
        match &trace.outcome {
            Outcome::Aborted {
                before_execution, ..
            } => assert!(!before_execution, "PG-MCP learns only at execution"),
            other => panic!("{other:?}"),
        }
        assert!(trace.llm_calls >= 3, "schema + attempt + abort at least");
    }

    #[test]
    fn context_overflow_fails_the_task() {
        // A tool whose result is enormous relative to a tiny window.
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "select",
            "big data",
            Signature::new(vec![ArgSpec::required("sql", ArgType::String, "sql")]),
            |_: &toolproto::Args| {
                let big: Vec<Json> = (0..20_000).map(|i| Json::num(i as f64)).collect();
                Ok(ToolOutput::with_rows(
                    Json::object([("rows", Json::array(big))]),
                    20_000,
                ))
            },
        ));
        reg.register_tool(FnTool::new(
            "train",
            "consume data",
            Signature::open(vec![]),
            |_: &toolproto::Args| Ok(ToolOutput::value(Json::object([("rmse", Json::num(1.0))]))),
        ));
        let mut profile = strict_profile();
        profile.context_window = 2_000;
        let agent = ReactAgent::new(profile, "agent");
        let task = TaskSpec::pipeline(
            "p1",
            "Train on the data",
            vec![crate::task::PipelineStage {
                tool: "train".into(),
                data_args: vec![("data".into(), DataSource::Sql("SELECT * FROM house".into()))],
                static_args: vec![],
            }],
        );
        let trace = agent.run(&reg, &task, 11);
        assert_eq!(trace.outcome, Outcome::ContextOverflow);
    }

    #[test]
    fn proxy_pipeline_is_three_calls() {
        let mut reg = fake_registry(true, false);
        reg.register_tool(FnTool::new(
            "proxy",
            "route data between tools",
            Signature::open(vec![]),
            |_: &toolproto::Args| Ok(ToolOutput::value(Json::object([("rmse", Json::num(0.5))]))),
        ));
        let agent = ReactAgent::new(strict_profile(), "agent");
        let task = TaskSpec::pipeline(
            "p2",
            "Train on the data",
            vec![crate::task::PipelineStage {
                tool: "train".into(),
                data_args: vec![("data".into(), DataSource::Sql("SELECT * FROM house".into()))],
                static_args: vec![("target".into(), Json::str("price"))],
            }],
        );
        let trace = agent.run(&reg, &task, 11);
        assert_eq!(trace.outcome, Outcome::Completed);
        assert_eq!(trace.llm_calls, 3, "schema + proxy + final");
        assert_eq!(
            trace.answer.unwrap().get("rmse").and_then(Json::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn grounding_with_get_value_adds_a_call() {
        let mut reg = fake_registry(true, false);
        reg.register_tool(FnTool::new(
            "get_value",
            "exemplars",
            Signature::open(vec![]),
            |_: &toolproto::Args| {
                Ok(ToolOutput::value(Json::object([(
                    "values",
                    Json::array([Json::str("women's wear")]),
                )])))
            },
        ));
        let agent = ReactAgent::new(strict_profile(), "agent");
        let mut step = SqlStep::simple(
            "select",
            vec!["sales".into()],
            "SELECT * FROM sales WHERE category = 'women''s wear'",
        );
        step.lookup = Some(ValueLookup {
            table: "sales".into(),
            column: "category".into(),
            key: "women".into(),
            actual: "women's wear".into(),
        });
        step.predicate_wrong = Some("SELECT * FROM sales WHERE category = 'women'".into());
        let task = TaskSpec::read("r3", "sales for women", step);
        let trace = agent.run(&reg, &task, 3);
        assert_eq!(trace.outcome, Outcome::Completed);
        assert_eq!(trace.llm_calls, 4, "schema + get_value + select + final");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let reg = fake_registry(true, false);
        let agent = ReactAgent::new(LlmProfile::gpt4o(), "agent");
        let a = agent.run(&reg, &read_task(), 42);
        let b = agent.run(&reg, &read_task(), 42);
        assert_eq!(a.llm_calls, b.llm_calls);
        assert_eq!(a.total_tokens(), b.total_tokens());
    }

    #[test]
    fn object_rows_are_positionalized_with_column_order() {
        let result = Json::parse(
            r#"{"columns": ["b", "a"],
                "rows": [{"a": 1, "b": 2}, {"a": 3, "b": 4, "extra": 9}]}"#,
        )
        .unwrap();
        let arrays = rows_as_arrays(&result);
        // Column order ("b" then "a") wins over key order.
        assert_eq!(arrays, Json::parse("[[2, 1], [4, 3]]").unwrap());
        // Array rows pass through untouched.
        let result = Json::parse(r#"{"columns": ["a"], "rows": [[1], [2]]}"#).unwrap();
        assert_eq!(rows_as_arrays(&result), Json::parse("[[1], [2]]").unwrap());
        // Missing keys become null.
        let result = Json::parse(r#"{"columns": ["a", "b"], "rows": [{"a": 1}]}"#).unwrap();
        assert_eq!(rows_as_arrays(&result), Json::parse("[[1, null]]").unwrap());
        // No rows field → unchanged.
        let scalar = Json::num(4.0);
        assert_eq!(rows_as_arrays(&scalar), scalar);
    }

    #[test]
    fn unprotected_writes_trigger_verification_reads() {
        // PG-MCP-style surface: execute_sql only, transactions never used.
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "execute_sql",
            "run sql",
            Signature::new(vec![ArgSpec::required("sql", ArgType::String, "sql")]),
            |args: &toolproto::Args| {
                let sql = args["sql"].as_str().unwrap_or_default();
                if sql.starts_with("SELECT") {
                    Ok(ToolOutput::value(
                        Json::parse(r#"{"columns": ["x"], "rows": [[1]]}"#).unwrap(),
                    ))
                } else {
                    Ok(ToolOutput::value(
                        Json::parse(r#"{"affected": 1}"#).unwrap(),
                    ))
                }
            },
        ));
        let profile = LlmProfile {
            txn_awareness_generic: 0.0,
            verify_unprotected_writes: 1.0,
            schema_hallucination_rate: 0.0,
            ..strict_profile()
        };
        let agent = ReactAgent::new(profile, "agent");
        let task = TaskSpec::write(
            "w-verify",
            "Insert a sale",
            vec![SqlStep::simple(
                "insert",
                vec!["sales".into()],
                "INSERT INTO sales VALUES (1)",
            )],
        );
        let trace = agent.run(&reg, &task, 5);
        assert_eq!(trace.outcome, Outcome::Completed);
        assert!(!trace.began_transaction);
        // info-schema probe + table probe + insert + verification select +
        // final = 5 calls.
        assert_eq!(trace.llm_calls, 5, "{}", trace.render());
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind.to_string().contains("SELECT COUNT(*) FROM sales")));
    }

    #[test]
    fn pg_mcp_minus_explores_via_information_schema_first() {
        let mut reg = Registry::new();
        reg.register_tool(FnTool::new(
            "execute_sql",
            "run sql",
            Signature::new(vec![ArgSpec::required("sql", ArgType::String, "sql")]),
            |args: &toolproto::Args| {
                let sql = args["sql"].as_str().unwrap_or_default();
                if sql.contains("information_schema") {
                    Err(ToolError::Execution("relation does not exist".into()))
                } else {
                    Ok(ToolOutput::value(
                        Json::parse(r#"{"columns": ["x"], "rows": [[1]]}"#).unwrap(),
                    ))
                }
            },
        ));
        let agent = ReactAgent::new(strict_profile(), "agent");
        let trace = agent.run(&reg, &read_task(), 5);
        assert_eq!(trace.outcome, Outcome::Completed);
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind.to_string().contains("information_schema")));
        // catalog probe + table probe + sql + final = 4 calls (no wrong
        // guesses with hallucination disabled).
        assert_eq!(trace.llm_calls, 4, "{}", trace.render());
    }

    #[test]
    fn trace_render_is_readable() {
        let reg = fake_registry(true, false);
        let agent = ReactAgent::new(strict_profile(), "agent");
        let trace = agent.run(&reg, &read_task(), 7);
        let text = trace.render();
        assert!(text.contains("task r1"));
        assert!(text.contains("call  1"));
        assert!(text.contains("get_schema"));
    }

    #[test]
    fn verbosity_increases_tokens() {
        let reg = fake_registry(true, false);
        let terse = ReactAgent::new(strict_profile(), "agent");
        let verbose = ReactAgent::new(
            LlmProfile {
                verbosity: 2.0,
                ..strict_profile()
            },
            "agent",
        );
        let a = terse.run(&reg, &read_task(), 42);
        let b = verbose.run(&reg, &read_task(), 42);
        assert!(b.completion_tokens > a.completion_tokens);
    }
}
