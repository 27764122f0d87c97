//! Agent-traffic gate: the moderation layer between the wire session layer
//! and the `toolproto` registry.
//!
//! Agent sessions hammer the same F1 context tools (schema, `get_value`)
//! repeatedly and can run away during exploration. This crate decides
//! *whether* and *how cheaply* a tool call runs, with three cooperating
//! parts:
//!
//! * **Retrieval + plan caches** ([`cache`], [`retrieval`], [`plan`]) —
//!   generation-tagged LRU memoization of read-only context tools and of
//!   parse/analysis work, invalidated precisely by minidb's committed-
//!   version timestamp (every committed DML/DDL/privilege change bumps it).
//! * **Cost budgets** ([`budget`]) — per-session and per-user accounting of
//!   calls, rows scanned, bytes moved, and wall time, enforced at the tool
//!   gate with a typed `ToolError::Denied { code: "budget", .. }` that
//!   mirrors the privilege-denial contract.
//! * **Admission control** ([`admission`]) — a fixed set of execution
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

pub mod admission;
pub mod budget;
pub mod cache;
pub mod plan;
pub mod retrieval;

pub use admission::{Admission, SubmitError, Ticket, WeightedQueues};
pub use budget::{BudgetBreach, BudgetLedger, BudgetLimits, BudgetMeter, BudgetUsage, MeteredTool};
pub use cache::{CacheStats, GenCache};
pub use plan::{normalize_sql, PlanCache, PreparedPlan};
pub use retrieval::{args_key, CachedTool, GenerationSource};

use std::sync::Arc;

/// Capacity knobs for the two caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached outputs per context tool (per session surface).
    pub context_capacity: usize,
    /// Maximum cached prepared plans (per session surface).
    pub plan_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            context_capacity: 256,
            plan_capacity: 128,
        }
    }
}

/// Gate policy for one served surface. The default is fully transparent:
/// no caches, no budgets — byte-identical behaviour to an ungated build.
#[derive(Clone, Default)]
pub struct GateConfig {
    /// Enable the retrieval and plan caches.
    pub cache: Option<CacheConfig>,
    /// Budget applied to each session individually.
    pub session_budget: Option<BudgetLimits>,
    /// Shared per-user ledger: every session of a user draws down one
    /// account. Create once per served database and clone the `Arc` into
    /// each surface build.
    pub user_ledger: Option<Arc<BudgetLedger>>,
}

impl GateConfig {
    /// True when the config changes nothing (no wrapping needed).
    pub fn is_transparent(&self) -> bool {
        self.cache.is_none() && self.session_budget.is_none() && self.user_ledger.is_none()
    }

    /// Builder: enable caches with default capacities.
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(CacheConfig::default());
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
