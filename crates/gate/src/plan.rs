//! Prepared-plan cache: memoized parse + static analysis keyed on
//! normalized SQL text.
//!
//! "Plan" here is everything the tool gate computes *before* the engine
//! sees a statement: the parsed AST, the access profile (objects read and
//! written, required privileges), and the column usage map. These are pure
//! functions of the SQL text, but re-deriving them on every call is the
//! second-hottest cost on the agent path after context retrieval — agents
//! retry the same statement verbatim, and explore-then-generate loops remix
//! whitespace and keyword casing around identical plans.
//!
//! Entries are stamped with the database generation like every gate cache:
//! invalidation on committed DDL/DML keeps the cache honest if plans ever
//! grow schema-dependent parts (access-path choice, resolved column sets),
//! and bounds how long a dead statement's plan lingers. Security checks are
//! **not** cached — callers re-verify the cached profile against live
//! privileges and policy on every call, so a cached plan can never widen
//! access.
//!
//! Parse errors are never cached: failing again is as cheap as a lookup,
//! and the error text stays byte-identical with the uncached path.

use crate::cache::{CacheStats, GenCache};
use sqlkit::ast::Statement;
use sqlkit::{analyze, column_usage, parse_statement, AccessProfile, ColumnUsage, ParseError};
use std::sync::Arc;

/// Everything derivable from SQL text alone, computed once per normalized
/// statement per generation.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedPlan {
    /// The parsed statement.
    pub stmt: Statement,
    /// Objects read/written and the privileges execution requires.
    pub profile: AccessProfile,
    /// Column-level usage for column-policy checks.
    pub usage: ColumnUsage,
}

impl PreparedPlan {
    /// Parse and analyze `sql` from scratch.
    pub fn prepare(sql: &str) -> Result<PreparedPlan, ParseError> {
        let stmt = parse_statement(sql)?;
        let profile = analyze(&stmt);
        let usage = column_usage(&stmt);
        Ok(PreparedPlan {
            stmt,
            profile,
            usage,
        })
    }
}

/// Normalize SQL for cache keying: lex to tokens and re-render with
/// canonical single-space separation, erasing whitespace and formatting
/// variance. Token *text* is preserved byte-for-byte — this engine resolves
/// identifiers case-sensitively (`SALES` is not `sales`), so merging case
/// would alias distinct statements; two texts normalize equal only when
/// their token streams are identical and the parser provably treats them
/// the same. Unlexable input falls back to whitespace collapsing (such
/// statements fail to parse and are never cached anyway).
pub fn normalize_sql(sql: &str) -> String {
    use sqlkit::token::Token;
    match sqlkit::token::lex(sql) {
        Ok(tokens) => {
            let mut out = String::with_capacity(sql.len());
            for (i, spanned) in tokens.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                // Re-escape quoted forms so the rendering is injective:
                // distinct token streams can never collide on one key.
                match &spanned.token {
                    Token::Ident { text, quoted: true } => {
                        out.push('"');
                        out.push_str(&text.replace('"', "\"\""));
                        out.push('"');
                    }
                    Token::Ident {
                        text,
                        quoted: false,
                    } => out.push_str(text),
                    Token::Number(n) => out.push_str(n),
                    Token::Str(s) => {
                        out.push('\'');
                        out.push_str(&s.replace('\'', "''"));
                        out.push('\'');
                    }
                    Token::Symbol(s) => out.push_str(s),
                    Token::Param(n) => {
                        out.push('$');
                        out.push_str(&n.to_string());
                    }
                }
            }
            out
        }
        Err(_) => sql.split_whitespace().collect::<Vec<_>>().join(" "),
    }
}

/// A bounded, generation-invalidated cache of [`PreparedPlan`]s.
pub struct PlanCache {
    cache: GenCache<Arc<PreparedPlan>>,
}

impl PlanCache {
    /// Create a plan cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            cache: GenCache::new(capacity),
        }
    }

    /// Return the prepared plan for `sql` as of `generation`, computing and
    /// caching it on miss. `key` must be [`normalize_sql`]`(sql)`: the caller
    /// normalizes once and reuses the key for its statement statistics. The
    /// boolean is true on a cache hit.
    pub fn prepare(
        &self,
        key: &str,
        sql: &str,
        generation: u64,
    ) -> Result<(Arc<PreparedPlan>, bool), ParseError> {
        debug_assert_eq!(key, normalize_sql(sql), "plan-cache key of {sql:?}");
        if let Some(plan) = self.cache.get(key, generation) {
            return Ok((plan, true));
        }
        let plan = Arc::new(PreparedPlan::prepare(sql)?);
        self.cache
            .put(key.to_owned(), Arc::clone(&plan), generation);
        Ok((plan, false))
    }

    /// Behaviour counters of the underlying cache.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepare(
        cache: &PlanCache,
        sql: &str,
        generation: u64,
    ) -> Result<(Arc<PreparedPlan>, bool), ParseError> {
        cache.prepare(&normalize_sql(sql), sql, generation)
    }

    #[test]
    fn normalization_merges_whitespace_only() {
        assert_eq!(
            normalize_sql("SELECT  *\n FROM   sales"),
            normalize_sql("SELECT * FROM sales")
        );
        assert_eq!(normalize_sql("  SELECT 1  "), "SELECT 1");
        // Identifier (and keyword) case is token text: preserved, because
        // this engine resolves names case-sensitively.
        assert_ne!(
            normalize_sql("SELECT * FROM sales"),
            normalize_sql("SELECT * FROM SALES")
        );
    }

    #[test]
    fn normalization_preserves_quoted_spans() {
        assert_eq!(
            normalize_sql("SELECT 'It''s  A Test' FROM t"),
            "SELECT 'It''s  A Test' FROM t"
        );
        assert_ne!(
            normalize_sql("SELECT 'ABC'"),
            normalize_sql("SELECT 'abc'"),
            "literal case is data"
        );
        // Injectivity: a literal containing quote-comma-quote must not
        // collide with two adjacent literals.
        assert_ne!(
            normalize_sql("SELECT 'a'',''b'"),
            normalize_sql("SELECT 'a' , 'b'")
        );
    }

    #[test]
    fn equivalent_texts_share_one_plan() {
        let cache = PlanCache::new(8);
        let (a, hit_a) = prepare(&cache, "SELECT * FROM sales", 1).unwrap();
        let (b, hit_b) = prepare(&cache, "SELECT *   FROM\n sales", 1).unwrap();
        assert!(!hit_a);
        assert!(hit_b, "normalized-equal text hits");
        assert_eq!(a.profile, b.profile);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_bump_forces_reprepare() {
        let cache = PlanCache::new(8);
        prepare(&cache, "SELECT * FROM sales", 1).unwrap();
        let (_, hit) = prepare(&cache, "SELECT * FROM sales", 2).unwrap();
        assert!(!hit, "new generation invalidates the plan");
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = PlanCache::new(8);
        prepare(&cache, "SELEC oops", 1).unwrap_err();
        assert!(cache.is_empty());
        prepare(&cache, "SELEC oops", 1).unwrap_err();
    }

    #[test]
    fn profile_matches_direct_analysis() {
        let cache = PlanCache::new(8);
        let (plan, _) =
            prepare(&cache, "SELECT id FROM a WHERE id IN (SELECT id FROM b)", 1).unwrap();
        let direct =
            PreparedPlan::prepare("SELECT id FROM a WHERE id IN (SELECT id FROM b)").unwrap();
        assert_eq!(plan.profile, direct.profile);
        assert_eq!(plan.usage, direct.usage);
        assert!(plan.profile.all_objects().contains("a"));
        assert!(plan.profile.all_objects().contains("b"));
    }
}
