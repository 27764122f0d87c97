//! `wire` — a concurrent, MCP-style JSON-RPC serving layer for the
//! BridgeScope tool surface.
//!
//! BridgeScope's contribution (paper §2) is a *per-user, privilege-gated*
//! tool surface over a database. In-process that surface is a
//! [`toolproto::Registry`]; this crate puts it on the network without
//! weakening any of its guarantees:
//!
//! * **Protocol** — JSON-RPC 2.0 with MCP-flavored methods
//!   (`initialize`, `tools/list`, `tools/call`, `shutdown`, `ping`) over
//!   newline-delimited frames, on TCP or stdio. See [`rpc`].
//! * **Sessions** — each connection authenticates as a database user
//!   during `initialize` and gets its own
//!   [`bridgescope_core::BridgeScopeServer`] surface over the shared
//!   [`minidb::Database`]. Privilege gating and policy denials are
//!   enforced server-side per session; a client-requested policy can only
//!   tighten the operator's base policy
//!   ([`bridgescope_core::SecurityPolicy::restricted_by`]).
//! * **Concurrency & backpressure** — each call runs on its connection's
//!   thread while it holds one of a fixed number of admission tickets
//!   ([`gate::Admission`]); a tenant whose waiting queue is full is answered
//!   `server_busy` instead of accepting unbounded work. See
//!   [`WireConfig`].
//! * **Limits** — max frame size, per-frame read deadlines, call deadlines
//!   that stop the engine work they bound, and per-session request budgets,
//!   each with a typed error code. Malformed input never panics the server,
//!   and a panicking tool ends only its own session. See `frame`.
//! * **Observability** — every session is a `wire:session` span, every
//!   dispatch a `wire:call` span parenting the usual `tool:{name}` spans,
//!   plus `wire.*` counters and a call-latency histogram, all through the
//!   shared [`obs`] handle.
//! * **Client** — a blocking [`Client`] and [`mirror_registry`], which
//!   rebuilds the remote surface as local [`toolproto::Tool`]s so an agent
//!   can drive a remote database with a byte-identical tool prompt and
//!   structurally identical errors (denial contexts included).
//!
//! ```no_run
//! use std::sync::{Arc, Mutex};
//!
//! let db = minidb::Database::new();
//! let server = wire::WireServer::bind(
//!     "127.0.0.1:0",
//!     wire::Tenancy::new(db),
//!     wire::WireConfig::default(),
//!     obs::Obs::in_memory(),
//! )
//! .unwrap();
//!
//! let mut client = wire::Client::connect(server.local_addr()).unwrap();
//! client.initialize("admin").unwrap();
//! let registry = wire::mirror_registry(Arc::new(Mutex::new(client))).unwrap();
//! let out = registry
//!     .call("select", &toolproto::Json::object([
//!         ("sql", toolproto::Json::str("SELECT 1")),
//!     ]))
//!     .unwrap();
//! println!("{}", out.value);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod admin;
mod client;
mod frame;
pub mod rpc;
mod server;

pub use admin::AdminServer;
pub use client::{mirror_registry, Client, ToolEntry, WireError};
pub use frame::FrameError;
pub use rpc::{ErrorCode, RpcError, PROTOCOL};
pub use server::{serve_stdio, serve_stream, Tenancy, WireConfig, WireServer};
