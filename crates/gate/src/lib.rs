//! Agent-traffic gate: the moderation layer between the wire session layer
//! and the `toolproto` registry.
//!
//! Agent sessions hammer the same F1 context tools (schema, `get_value`)
//! repeatedly and can run away during exploration. This crate decides
//! *whether* and *how cheaply* a tool call runs, with three cooperating
//! parts:
//!
//! * **Retrieval + plan caches** (`cache`, `retrieval`, `plan`) —
//!   generation-tagged LRU memoization of read-only context tools and of
//!   parse/analysis work, invalidated precisely by minidb's committed-
//!   version timestamp (every committed DML/DDL/privilege change bumps it).
//! * **Cost budgets** (`budget`) — per-session and per-user accounting of
//!   calls, rows scanned, bytes moved, and wall time, enforced at the tool
//!   gate with a typed `ToolError::Denied { code: "budget", .. }` that
//!   mirrors the privilege-denial contract.
//! * **Admission control** (`admission`) — a fixed set of execution
//!   tickets for wire tool calls, with per-tenant bounded waiting queues
//!   granted by weighted round-robin, so a runaway tenant sheds against its
//!   own queue instead of starving everyone.
//!
//! Everything emits labeled telemetry through the obs plane:
//! `gate.cache{tool,hit}`, `gate.budget{user,resource}`, and
//! `gate.admitted`/`gate.shed{user}`.
//!
//! The crate depends only on `toolproto`, `obs`, and `sqlkit` — the
//! database generation arrives as a closure ([`GenerationSource`]), so the
//! gate itself never links the engine.

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod admission;
mod budget;
mod cache;
mod plan;
mod retrieval;

pub use admission::{Admission, SubmitError, Ticket};
pub use budget::{BudgetBreach, BudgetLedger, BudgetLimits, BudgetMeter, BudgetUsage, MeteredTool};
pub use cache::{CacheStats, GenCache};
pub use plan::{normalize_sql, PlanCache, PreparedPlan};
pub use retrieval::{CachedTool, GenerationSource};

use std::sync::Arc;

/// Maximum cached outputs per context tool (per session surface).
pub const CONTEXT_CACHE_CAPACITY: usize = 256;

/// Maximum cached prepared plans (per session surface).
pub const PLAN_CACHE_CAPACITY: usize = 128;

/// Gate policy for one served surface. The default is fully transparent:
/// no caches, no budgets — byte-identical behaviour to an ungated build.
#[derive(Clone, Default)]
pub struct GateConfig {
    /// Enable the retrieval and plan caches.
    pub cache: bool,
    /// Budget applied to each session individually.
    pub session_budget: Option<BudgetLimits>,
    /// Shared per-user ledger: every session of a user draws down one
    /// account. Create once per served database and clone the `Arc` into
    /// each surface build.
    pub user_ledger: Option<Arc<BudgetLedger>>,
}

impl GateConfig {
    /// Builder: enable the caches.
    pub fn with_cache(mut self) -> Self {
        self.cache = true;
        self
    }

    /// Builder: set the per-session budget.
    pub fn with_session_budget(mut self, limits: BudgetLimits) -> Self {
        self.session_budget = Some(limits);
        self
    }

    /// Builder: attach a shared per-user ledger.
    pub fn with_user_ledger(mut self, ledger: Arc<BudgetLedger>) -> Self {
        self.user_ledger = Some(ledger);
        self
    }
}
