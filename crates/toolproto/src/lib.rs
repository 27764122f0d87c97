//! # toolproto — an in-process MCP-like tool protocol
//!
//! This crate is the substrate BridgeScope's toolkit is built on: a minimal,
//! dependency-light model of the Model Context Protocol's tool abstraction.
//! It provides:
//!
//! * [`Json`] — a self-contained JSON value with strict parser, compact
//!   and pretty writers, and RFC-6901 pointers (used by proxy transforms);
//! * `schema` — JSON-schema-flavoured argument signatures with validation
//!   and prompt rendering;
//! * [`Tool`] — the callable tool trait with a typed error model that
//!   distinguishes *denied* (security gate) from *failed* (execution error);
//! * [`Registry`] — the session-visible tool surface, with
//!   risk/blocklist filtering used to implement user-side security policies.
//!
//! Everything is synchronous and in-process: the paper's claims concern the
//! *shape* of the tool surface, not network transport.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod json;
mod registry;
mod schema;
mod tool;

pub use json::{Json, JsonError, MAX_DEPTH};
pub use registry::{CallObserver, Registry};
pub use schema::{ArgError, ArgSpec, ArgType, Signature};
pub use tool::{Args, DenialContext, FnTool, Risk, Tool, ToolError, ToolOutput, ToolResult};
