//! Execution traces and the metrics the paper's tables are built from.

use toolproto::Json;

/// How a task run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The task ran to completion and produced an answer.
    Completed,
    /// The agent concluded the task is infeasible and stopped.
    Aborted {
        /// Why the agent aborted (surfaced in reports).
        reason: String,
        /// Whether any SQL execution was attempted before aborting — the
        /// paper's "early identification" criterion.
        before_execution: bool,
    },
    /// The run failed (unrecoverable error, retry budget exhausted).
    Failed(String),
    /// The transcript outgrew the model's context window.
    ContextOverflow,
}

impl Outcome {
    /// Whether the run completed successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed)
    }

    /// Whether the run ended with a deliberate abort.
    pub fn is_aborted(&self) -> bool {
        matches!(self, Outcome::Aborted { .. })
    }
}

/// What one logged step of a run was, with its payload. The [`Display`]
/// rendering reproduces the legacy free-text format (`call tool({args})`,
/// `result:tool`, `final: answer`), so step logs read as before while code
/// can match on the variant instead of parsing strings.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A free-form LLM action that is neither a tool call nor the final
    /// answer (not emitted by the simulator; available to external trace
    /// builders).
    LlmCall {
        /// The rendered action text.
        action: String,
    },
    /// An LLM call that invoked a tool.
    ToolCall {
        /// The tool invoked.
        tool: String,
        /// The compact-JSON rendering of the arguments.
        args: String,
    },
    /// A successful tool result appended to the transcript.
    ToolResult {
        /// The tool that produced the result.
        tool: String,
    },
    /// A tool invocation that returned an error.
    Error {
        /// The tool that failed.
        tool: String,
        /// The error message the agent saw.
        message: String,
    },
    /// The final LLM call ending the run.
    Final {
        /// The final answer text.
        answer: String,
    },
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::LlmCall { action } => write!(f, "{action}"),
            EventKind::ToolCall { tool, args } => write!(f, "call {tool}({args})"),
            EventKind::ToolResult { tool } => write!(f, "result:{tool}"),
            EventKind::Error { tool, message } => write!(f, "error:{tool}: {message}"),
            EventKind::Final { answer } => write!(f, "final: {answer}"),
        }
    }
}

/// One logged step of a run (for debugging and the example binaries).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// LLM call ordinal the event belongs to.
    pub call: usize,
    /// What happened, with its payload.
    pub kind: EventKind,
    /// Tokens this event appended to the transcript.
    pub tokens: usize,
}

/// Metrics of one task run.
#[derive(Debug, Clone)]
pub struct TaskTrace {
    /// Task id the trace belongs to.
    pub task_id: String,
    /// Number of LLM calls (each reasoning+action step).
    pub llm_calls: usize,
    /// Total prompt tokens billed (transcript re-read on every call).
    pub prompt_tokens: usize,
    /// Total completion tokens billed.
    pub completion_tokens: usize,
    /// Number of tool invocations.
    pub tool_calls: usize,
    /// Rows of bulk data that transited the LLM transcript.
    pub rows_via_llm: usize,
    /// Whether a transaction was explicitly initiated.
    pub began_transaction: bool,
    /// Whether the transaction was committed (vs rolled back / never begun).
    pub committed: bool,
    /// Terminal state.
    pub outcome: Outcome,
    /// The final answer payload (query rows, DML status, or model metrics).
    pub answer: Option<Json>,
    /// Step-by-step log.
    pub events: Vec<TraceEvent>,
}

impl TaskTrace {
    /// Fresh empty trace for a task.
    pub fn new(task_id: impl Into<String>) -> Self {
        TaskTrace {
            task_id: task_id.into(),
            llm_calls: 0,
            prompt_tokens: 0,
            completion_tokens: 0,
            tool_calls: 0,
            rows_via_llm: 0,
            began_transaction: false,
            committed: false,
            outcome: Outcome::Failed("not started".into()),
            answer: None,
            events: Vec::new(),
        }
    }

    /// Total billed tokens (prompt + completion), the unit of the paper's
    /// Table 1 and Table 2.
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.completion_tokens
    }

    /// Render the trace as a compact human-readable step log — what the
    /// example binaries print to show an agent run.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "task {} — {} LLM calls, {} tool calls, {} tokens, outcome {:?}",
            self.task_id,
            self.llm_calls,
            self.tool_calls,
            self.total_tokens(),
            self.outcome
        );
        for event in &self.events {
            // Clip to the width the old free-text log used.
            let what: String = event.kind.to_string().chars().take(100).collect();
            let _ = writeln!(
                out,
                "  call {:>2} | {:<62} | +{} tok",
                event.call, what, event.tokens
            );
        }
        out
    }
}

/// Aggregate over many runs: the numbers each figure/table reports.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Completed runs.
    pub completed: usize,
    /// Runs aborted before any SQL execution.
    pub(crate) aborted_early: usize,
    /// Sum of LLM calls.
    pub llm_calls: usize,
    /// Sum of total tokens.
    pub tokens: usize,
    /// Runs that initiated a transaction.
    pub began_txn: usize,
    /// Runs that needed a transaction (write tasks).
    pub(crate) needed_txn: usize,
    /// Runs judged correct by the benchmark's evaluator.
    pub correct: usize,
}

impl Aggregate {
    /// Fold one trace into the aggregate. `needed_txn` marks write tasks;
    /// `correct` is the evaluator's verdict (pass `false` when not judged).
    pub fn add(&mut self, trace: &TaskTrace, needed_txn: bool, correct: bool) {
        self.runs += 1;
        if trace.outcome.is_completed() {
            self.completed += 1;
        }
        if let Outcome::Aborted {
            before_execution: true,
            ..
        } = trace.outcome
        {
            self.aborted_early += 1;
        }
        self.llm_calls += trace.llm_calls;
        self.tokens += trace.total_tokens();
        if trace.began_transaction {
            self.began_txn += 1;
        }
        if needed_txn {
            self.needed_txn += 1;
        }
        if correct {
            self.correct += 1;
        }
    }

    /// Mean LLM calls per run.
    pub fn avg_llm_calls(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.llm_calls as f64 / self.runs as f64
        }
    }

    /// Mean total tokens per run.
    pub fn avg_tokens(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.tokens as f64 / self.runs as f64
        }
    }

    /// Fraction of runs completed.
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.completed as f64 / self.runs as f64
        }
    }

    /// Fraction of transaction-needing runs that initiated one.
    pub fn txn_initiation_rate(&self) -> f64 {
        if self.needed_txn == 0 {
            0.0
        } else {
            self.began_txn as f64 / self.needed_txn as f64
        }
    }

    /// Fraction of runs judged correct.
    pub fn accuracy(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.correct as f64 / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_math() {
        let mut agg = Aggregate::default();
        let mut t1 = TaskTrace::new("a");
        t1.llm_calls = 3;
        t1.prompt_tokens = 900;
        t1.completion_tokens = 100;
        t1.outcome = Outcome::Completed;
        t1.began_transaction = true;
        agg.add(&t1, true, true);

        let mut t2 = TaskTrace::new("b");
        t2.llm_calls = 5;
        t2.prompt_tokens = 1800;
        t2.completion_tokens = 200;
        t2.outcome = Outcome::Aborted {
            reason: "no privilege".into(),
            before_execution: true,
        };
        agg.add(&t2, true, false);

        assert_eq!(agg.runs, 2);
        assert_eq!(agg.avg_llm_calls(), 4.0);
        assert_eq!(agg.avg_tokens(), 1500.0);
        assert_eq!(agg.completion_rate(), 0.5);
        assert_eq!(agg.txn_initiation_rate(), 0.5);
        assert_eq!(agg.accuracy(), 0.5);
        assert_eq!(agg.aborted_early, 1);
    }

    #[test]
    fn empty_aggregate_divides_safely() {
        let agg = Aggregate::default();
        assert_eq!(agg.avg_llm_calls(), 0.0);
        assert_eq!(agg.txn_initiation_rate(), 0.0);
    }

    #[test]
    fn event_kind_display_matches_legacy_format() {
        let cases = [
            (
                EventKind::ToolCall {
                    tool: "select".into(),
                    args: r#"{"sql":"SELECT 1"}"#.into(),
                },
                r#"call select({"sql":"SELECT 1"})"#,
            ),
            (
                EventKind::ToolResult {
                    tool: "get_schema".into(),
                },
                "result:get_schema",
            ),
            (
                EventKind::Final {
                    answer: "42".into(),
                },
                "final: 42",
            ),
            (
                EventKind::Error {
                    tool: "insert".into(),
                    message: "permission denied".into(),
                },
                "error:insert: permission denied",
            ),
            (
                EventKind::LlmCall {
                    action: "thinking".into(),
                },
                "thinking",
            ),
        ];
        for (kind, expected) in cases {
            assert_eq!(kind.to_string(), expected);
        }
    }

    #[test]
    fn outcome_helpers() {
        assert!(Outcome::Completed.is_completed());
        assert!(Outcome::Aborted {
            reason: "x".into(),
            before_execution: false
        }
        .is_aborted());
        assert!(!Outcome::ContextOverflow.is_completed());
    }
}
