//! # bridgescope — umbrella crate for the BridgeScope reproduction
//!
//! Reproduction of *"BridgeScope: A Universal Toolkit for Bridging Large
//! Language Models and Databases"* (CIDR 2026). This crate re-exports the
//! workspace's layers and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! Layers, bottom-up:
//!
//! * [`toolproto`] — in-process MCP-like tool protocol (JSON, signatures,
//!   registries);
//! * [`sqlkit`] — SQL lexer/parser/analyzer/formatter;
//! * [`minidb`] — in-memory relational engine with ACID transactions and a
//!   PostgreSQL-style privilege catalog;
//! * [`obs`] — std-only observability kernel (hierarchical spans, metrics
//!   registry, JSONL trace export) threaded through every layer above it;
//! * [`llmsim`] — deterministic behavioural simulator of ReAct LLM agents;
//! * [`core`] — **the paper's contribution**: fine-grained
//!   context/SQL/transaction tools, privilege-aware exposure, object-level
//!   verification, and the proxy mechanism;
//! * [`gate`] — the agent-traffic gate between sessions and the tool
//!   registry: retrieval + prepared-plan caches, per-session/per-user cost
//!   budgets, and weighted admission control for multi-tenant serving;
//! * [`mltools`] — data-processing and ML tool servers (NL2ML's ecosystem);
//! * [`benchkit`] — the BIRD-Ext and NL2ML benchmarks plus the evaluation
//!   harness regenerating every table and figure;
//! * [`wire`] — concurrent MCP-style JSON-RPC serving layer exposing a
//!   per-user tool surface over TCP and stdio, with a blocking client and
//!   a mirror registry for remote agents.
//!
//! Start with [`prelude`] and the `quickstart` example.

#![warn(missing_docs)]

pub use benchkit;
pub use bridgescope_core as core;
pub use gate;
pub use llmsim;
pub use minidb;
pub use mltools;
pub use obs;
pub use sqlkit;
pub use toolproto;
pub use wire;

/// The types most programs need, in one import.
pub mod prelude {
    pub use bridgescope_core::DatabaseHandle;
    pub use bridgescope_core::{
        pg_mcp, pg_mcp_minus, BridgeScopeServer, SecurityPolicy, BRIDGESCOPE_PROMPT,
    };
    pub use gate::{BudgetLedger, BudgetLimits, GateConfig};
    pub use llmsim::{LlmProfile, ReactAgent, TaskSpec};
    pub use minidb::{
        Database, DbError, DurabilityConfig, FsyncPolicy, QueryResult, RecoveryReport, Session,
        VacuumHandle, VacuumReport, Value,
    };
    pub use mltools::ml_registry;
    pub use obs::{FlightConfig, Obs, ObsConfig, ObsSnapshot};
    pub use sqlkit::{parse_statement, Action};
    pub use toolproto::{Json, Registry, Risk, Tool, ToolError, ToolOutput};
    pub use wire::{AdminServer, Client, Tenancy, WireConfig, WireServer};
}
