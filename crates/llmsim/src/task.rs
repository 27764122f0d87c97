//! Task specifications consumed by the simulated agent.
//!
//! A [`TaskSpec`] is the structured counterpart of a benchmark's natural-
//! language task: the NL string is carried verbatim (it is token freight and
//! part of every prompt), while the structured fields tell the *simulated*
//! LLM what a competent model would conclude from it — which tables are
//! involved, what SQL solves it, and which plausible mistakes exist. The
//! mistake variants (`schema_corrupted`, `predicate_wrong`, `wrong`) are what
//! the behaviour model samples from; they execute against the real engine so
//! errors and wrong results arise mechanically.

use toolproto::Json;

/// What class of task this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Query-only.
    Read,
    /// Mutates the database (should run in a transaction).
    Write,
    /// Data-intensive pipeline routing bulk data into downstream tools
    /// (the NL2ML benchmark).
    Pipeline,
}

/// A predicate that needs grounding against actual column contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueLookup {
    /// Table holding the column.
    pub table: String,
    /// Column to inspect.
    pub column: String,
    /// The task's natural-language key (e.g. "women").
    pub key: String,
    /// The value actually stored (e.g. "women's wear").
    pub actual: String,
}

/// One SQL step of a task, with its plausible failure variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlStep {
    /// The action tool this step maps to (`select`, `insert`, …).
    pub action: String,
    /// Tables the step touches.
    pub tables: Vec<String>,
    /// The correct SQL.
    pub gold: String,
    /// A variant with hallucinated schema details (errors at parse/plan
    /// time); used when the agent writes SQL blind.
    pub schema_corrupted: Option<String>,
    /// A variant with an ungrounded text predicate (executes but returns
    /// empty/wrong rows); used when no exemplar tool exists.
    pub predicate_wrong: Option<String>,
    /// A plausible-but-semantically-wrong variant (executes fine, wrong
    /// answer); models the baseline NL2SQL accuracy ceiling.
    pub wrong: Option<String>,
    /// Predicate grounding requirement, if any.
    pub lookup: Option<ValueLookup>,
}

impl SqlStep {
    /// A step with only gold SQL (no failure variants).
    pub fn simple(action: impl Into<String>, tables: Vec<String>, gold: impl Into<String>) -> Self {
        SqlStep {
            action: action.into(),
            tables,
            gold: gold.into(),
            schema_corrupted: None,
            predicate_wrong: None,
            wrong: None,
            lookup: None,
        }
    }
}

/// Where a pipeline stage's bulk data argument comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DataSource {
    /// A SELECT against the database.
    Sql(String),
    /// The output of an earlier pipeline stage (by index).
    Stage(usize),
}

/// One stage of a data pipeline (NL2ML): a consumer tool plus its arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStage {
    /// Consumer tool name (e.g. `train_linear_regression`).
    pub tool: String,
    /// Bulk-data arguments: `(arg name, source)`.
    pub data_args: Vec<(String, DataSource)>,
    /// Scalar/static arguments passed verbatim.
    pub static_args: Vec<(String, Json)>,
}

/// A full benchmark task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Stable identifier (used for seeding and reporting).
    pub id: String,
    /// The natural-language task text.
    pub nl: String,
    /// Task class.
    pub kind: TaskKind,
    /// SQL steps (Read/Write tasks).
    pub steps: Vec<SqlStep>,
    /// Pipeline stages (Pipeline tasks). The last stage's output is the
    /// task's answer.
    pub pipeline: Vec<PipelineStage>,
}

impl TaskSpec {
    /// A read task over one gold query.
    pub fn read(id: impl Into<String>, nl: impl Into<String>, step: SqlStep) -> Self {
        TaskSpec {
            id: id.into(),
            nl: nl.into(),
            kind: TaskKind::Read,
            steps: vec![step],
            pipeline: Vec::new(),
        }
    }

    /// A write task over the given steps.
    pub fn write(id: impl Into<String>, nl: impl Into<String>, steps: Vec<SqlStep>) -> Self {
        TaskSpec {
            id: id.into(),
            nl: nl.into(),
            kind: TaskKind::Write,
            steps,
            pipeline: Vec::new(),
        }
    }

    /// A pipeline task.
    pub fn pipeline(
        id: impl Into<String>,
        nl: impl Into<String>,
        stages: Vec<PipelineStage>,
    ) -> Self {
        TaskSpec {
            id: id.into(),
            nl: nl.into(),
            kind: TaskKind::Pipeline,
            steps: Vec::new(),
            pipeline: stages,
        }
    }

    /// Every ⟨action, table⟩ requirement of the task (pipelines require
    /// `select` on their SQL sources' tables, which the caller encodes in
    /// `steps` when privilege checks matter).
    pub(crate) fn required_actions(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for step in &self.steps {
            for t in &step.tables {
                out.push((step.action.clone(), t.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_requirements() {
        let t = TaskSpec::write(
            "w1",
            "insert the daily sales",
            vec![
                SqlStep::simple(
                    "insert",
                    vec!["sales".into()],
                    "INSERT INTO sales VALUES (1)",
                ),
                SqlStep::simple(
                    "insert",
                    vec!["refunds".into()],
                    "INSERT INTO refunds VALUES (1)",
                ),
            ],
        );
        assert_eq!(t.kind, TaskKind::Write);
        assert_eq!(
            t.required_actions(),
            vec![
                ("insert".to_string(), "sales".to_string()),
                ("insert".to_string(), "refunds".to_string())
            ]
        );
    }

    #[test]
    fn pipeline_builder() {
        let t = TaskSpec::pipeline(
            "p1",
            "train a model",
            vec![PipelineStage {
                tool: "train".into(),
                data_args: vec![("data".into(), DataSource::Sql("SELECT * FROM house".into()))],
                static_args: vec![("target".into(), Json::str("price"))],
            }],
        );
        assert_eq!(t.kind, TaskKind::Pipeline);
        assert!(t.steps.is_empty());
        assert_eq!(t.pipeline.len(), 1);
    }
}
