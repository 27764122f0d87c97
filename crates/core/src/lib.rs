//! # bridgescope-core — the BridgeScope toolkit
//!
//! Rust reproduction of the paper's primary contribution: a universal
//! database toolkit for LLM agents, organized around four functionalities:
//!
//! * **F1 — context retrieval** (`context_tools`): adaptive `get_schema`,
//!   per-object `get_object`, and semantic column exemplars via `get_value`;
//!   outputs filtered to user-permitted objects and annotated with
//!   privileges.
//! * **F2 — SQL execution** (`sql_tools`): one tool per SQL action,
//!   exposed per user privileges ∧ user-side policy, with object-level
//!   verification (static analysis of every referenced object) before the
//!   engine is touched.
//! * **F3 — transaction management** (`txn_tools`): explicit `begin` /
//!   `commit` / `rollback` tools over a shared session.
//! * **F4 — data transmission** ([`proxy`]): nestable proxy units
//!   ⟨producers, consumer, transform⟩ executed bottom-up with parallel
//!   sibling producers, so bulk data never transits the LLM.
//!
//! [`BridgeScopeServer::build`] assembles the per-user surface;
//! `baseline` provides the PG-MCP / PG-MCP⁻ comparison toolkits;
//! `prompt` carries the crafted system prompt of §2.6.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod baseline;
pub mod bridge;
mod config;
mod context_tools;
mod multi;
mod prompt;
pub mod proxy;
mod server;
mod similarity;
mod sql_tools;
mod txn_tools;

pub use baseline::{pg_mcp, pg_mcp_minus, BaselineServer};
pub use bridge::DatabaseHandle;
pub use config::{DurabilityConfig, FsyncPolicy, SecurityPolicy};
pub use multi::{MultiSourceServer, SourceSpec};
pub use obs::{Obs, ObsConfig, ObsSnapshot};
pub use prompt::BRIDGESCOPE_PROMPT;
pub use proxy::{execute_unit, execute_unit_observed, ProxyUnit, Transform};
pub use server::BridgeScopeServer;
