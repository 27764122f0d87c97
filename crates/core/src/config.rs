//! User-side security policy configuration.
//!
//! The paper's §2.2–2.3 give users two dials *on top of* database privileges:
//! object-level white/black lists (hide sensitive tables from the LLM even
//! when the user could read them) and tool-level restrictions (e.g. block the
//! `drop` tool outright). [`SecurityPolicy`] carries both, plus the adaptive
//! schema-retrieval threshold *n*.

use std::collections::BTreeSet;
use toolproto::Risk;

// Deployment configuration rides next to the security policy: operators who
// configure what the LLM may see also configure where committed state lives.
pub use minidb::{DurabilityConfig, FsyncPolicy};

/// A user-side security policy applied by every BridgeScope tool.
#[derive(Debug, Clone)]
pub struct SecurityPolicy {
    /// When set, only these objects are visible/operable (whitelist).
    pub object_whitelist: Option<BTreeSet<String>>,
    /// Objects never visible/operable (blacklist; wins over the whitelist).
    pub object_blacklist: BTreeSet<String>,
    /// Columns never visible/operable, as `(table, column)` pairs — the
    /// paper's "more granular privileges (e.g., on specific columns)"
    /// articulated user-side: schema outputs omit them, exemplar retrieval
    /// refuses them, and the verification gate rejects statements that may
    /// touch them (including via `SELECT *`).
    pub column_blacklist: BTreeSet<(String, String)>,
    /// Tool names never exposed (e.g. `drop`).
    pub tool_blacklist: BTreeSet<String>,
    /// Maximum risk class of exposed tools.
    pub max_risk: Risk,
    /// Adaptive schema retrieval: at most this many objects are returned in
    /// full; beyond it `get_schema` returns names only (paper §2.2).
    pub schema_threshold: usize,
}

impl Default for SecurityPolicy {
    fn default() -> Self {
        SecurityPolicy {
            object_whitelist: None,
            object_blacklist: BTreeSet::new(),
            column_blacklist: BTreeSet::new(),
            tool_blacklist: BTreeSet::new(),
            max_risk: Risk::Destructive,
            schema_threshold: 64,
        }
    }
}

impl SecurityPolicy {
    /// Policy permitting everything (database privileges still apply).
    pub fn permissive() -> Self {
        SecurityPolicy::default()
    }

    /// Builder: set an object whitelist.
    pub fn with_whitelist<I, S>(mut self, objects: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.object_whitelist = Some(objects.into_iter().map(Into::into).collect());
        self
    }

    /// Builder: add objects to the blacklist.
    pub fn with_blacklist<I, S>(mut self, objects: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.object_blacklist
            .extend(objects.into_iter().map(Into::into));
        self
    }

    /// Builder: blacklist `(table, column)` pairs.
    pub fn with_column_blacklist<I, T, C>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = (T, C)>,
        T: Into<String>,
        C: Into<String>,
    {
        self.column_blacklist
            .extend(columns.into_iter().map(|(t, c)| (t.into(), c.into())));
        self
    }

    /// Builder: block tools by name.
    pub fn with_blocked_tools<I, S>(mut self, tools: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.tool_blacklist
            .extend(tools.into_iter().map(Into::into));
        self
    }

    /// Builder: cap the risk class of exposed tools.
    pub fn with_max_risk(mut self, risk: Risk) -> Self {
        self.max_risk = risk;
        self
    }

    /// Builder: set the adaptive schema threshold *n*.
    pub fn with_schema_threshold(mut self, n: usize) -> Self {
        self.schema_threshold = n;
        self
    }

    /// Whether an object may be shown to / operated on by the LLM.
    pub fn object_allowed(&self, name: &str) -> bool {
        if self.object_blacklist.contains(name) {
            return false;
        }
        match &self.object_whitelist {
            Some(list) => list.contains(name),
            None => true,
        }
    }

    /// Whether a column of an (allowed) object may be shown/operated on.
    pub fn column_allowed(&self, table: &str, column: &str) -> bool {
        !self
            .column_blacklist
            .contains(&(table.to_owned(), column.to_owned()))
    }

    /// Whether any column of `table` is restricted.
    pub fn has_column_restrictions(&self, table: &str) -> bool {
        self.column_blacklist.iter().any(|(t, _)| t == table)
    }

    /// Whether a tool may be exposed to the LLM.
    pub fn tool_allowed(&self, name: &str, risk: Risk) -> bool {
        risk <= self.max_risk && !self.tool_blacklist.contains(name)
    }

    /// The pointwise-strictest combination of this policy and `requested`:
    /// blacklists union, whitelists intersect, and the risk cap and schema
    /// threshold each take the smaller value. The wire
    /// layer uses this during `initialize` negotiation so a remote client
    /// can only *tighten* the server's base policy, never loosen it.
    pub fn restricted_by(&self, requested: &SecurityPolicy) -> SecurityPolicy {
        let object_whitelist = match (&self.object_whitelist, &requested.object_whitelist) {
            (None, None) => None,
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (Some(a), Some(b)) => Some(a.intersection(b).cloned().collect()),
        };
        SecurityPolicy {
            object_whitelist,
            object_blacklist: self
                .object_blacklist
                .union(&requested.object_blacklist)
                .cloned()
                .collect(),
            column_blacklist: self
                .column_blacklist
                .union(&requested.column_blacklist)
                .cloned()
                .collect(),
            tool_blacklist: self
                .tool_blacklist
                .union(&requested.tool_blacklist)
                .cloned()
                .collect(),
            max_risk: self.max_risk.min(requested.max_risk),
            schema_threshold: self.schema_threshold.min(requested.schema_threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_everything() {
        let p = SecurityPolicy::default();
        assert!(p.object_allowed("anything"));
        assert!(p.tool_allowed("drop", Risk::Destructive));
    }

    #[test]
    fn blacklist_wins_over_whitelist() {
        let p = SecurityPolicy::default()
            .with_whitelist(["a", "b"])
            .with_blacklist(["b"]);
        assert!(p.object_allowed("a"));
        assert!(!p.object_allowed("b"));
        assert!(!p.object_allowed("c"), "not whitelisted");
    }

    #[test]
    fn restricted_by_only_tightens() {
        let base = SecurityPolicy::default()
            .with_blacklist(["audit_log"])
            .with_max_risk(Risk::Mutating);
        let requested = SecurityPolicy::default()
            .with_whitelist(["sales", "audit_log"])
            .with_blocked_tools(["delete"])
            .with_max_risk(Risk::Destructive);
        let merged = base.restricted_by(&requested);
        assert!(!merged.object_allowed("audit_log"), "base blacklist holds");
        assert!(merged.object_allowed("sales"));
        assert!(!merged.object_allowed("other"), "requested whitelist holds");
        assert!(!merged.tool_allowed("delete", Risk::Mutating));
        assert_eq!(merged.max_risk, Risk::Mutating, "risk cannot be raised");

        // Whitelists intersect when both sides set one.
        let a = SecurityPolicy::default().with_whitelist(["x", "y"]);
        let b = SecurityPolicy::default().with_whitelist(["y", "z"]);
        let both = a.restricted_by(&b);
        assert!(both.object_allowed("y"));
        assert!(!both.object_allowed("x"));
        assert!(!both.object_allowed("z"));
    }

    #[test]
    fn tool_restrictions() {
        let p = SecurityPolicy::default()
            .with_blocked_tools(["drop"])
            .with_max_risk(Risk::Mutating);
        assert!(!p.tool_allowed("drop", Risk::Destructive));
        assert!(!p.tool_allowed("create", Risk::Destructive), "risk cap");
        assert!(p.tool_allowed("insert", Risk::Mutating));
        assert!(p.tool_allowed("select", Risk::Safe));
    }
}
