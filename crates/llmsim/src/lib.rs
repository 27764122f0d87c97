//! # llmsim — a deterministic behavioural simulator of ReAct LLM agents
//!
//! The paper evaluates BridgeScope with GPT-4o and Claude-4 agents. This
//! crate replaces the language models with a *behavioural model* whose
//! parameters ([`LlmProfile`]) encode the failure modes the paper
//! describes — schema hallucination without retrieval tools, ungrounded
//! predicates without exemplars, privilege blindness, transaction
//! forgetfulness with generic tools, and context-window exhaustion under
//! bulk data transfer. Everything else is mechanical:
//!
//! * the agent ([`ReactAgent`]) runs a real ReAct loop against real
//!   tools over the real `minidb` engine;
//! * token costs ([`tokens`]) are measured from the actual transcript,
//!   billed API-style (full transcript re-read as prompt on every call);
//! * failures arise from actual tool errors and actual window overflow.
//!
//! The metrics the paper reports — #LLM calls, token usage, completion rate,
//! transaction-initiation ratio — are all *measured* from the resulting
//! [`TaskTrace`]s.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod profile;
mod react;
mod task;
pub mod tokens;
mod trace;

pub use profile::LlmProfile;
pub use react::ReactAgent;
pub use task::{DataSource, PipelineStage, SqlStep, TaskKind, TaskSpec, ValueLookup};
pub use trace::{Aggregate, EventKind, Outcome, TaskTrace, TraceEvent};
