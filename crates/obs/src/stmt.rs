//! pg_stat_statements-style statement statistics store.
//!
//! Aggregates every executed SQL statement per `(user, normalized
//! statement)` key: call count, total/mean/max latency, rows returned,
//! plan-cache hits, and conflict/denial counts. The *caller* supplies the
//! normalized statement text (the gate's token normalizer, so identical
//! statements with different literals collapse to one key) — this crate
//! stays dependency-free and the normalization policy stays in one place.
//!
//! Cardinality is bounded: the store is an LRU over keys with a fixed
//! capacity; inserting past it evicts the least-recently-touched entry and
//! counts the eviction, so a hostile or exploratory workload cannot grow
//! memory without the loss being visible.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use toolproto::Json;

/// How an executed statement ended, for conflict/denial accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementOutcome {
    /// Executed successfully.
    Ok,
    /// Lost a first-writer-wins serialization conflict.
    Conflict,
    /// Denied by a gate (privilege, policy, budget).
    Denied,
    /// Failed for any other reason.
    Error,
}

/// Aggregated statistics for one `(user, statement)` key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatementStats {
    /// Executions recorded.
    pub calls: u64,
    /// Sum of execution latencies in nanoseconds.
    pub total_ns: u64,
    /// Worst single execution latency in nanoseconds.
    pub(crate) max_ns: u64,
    /// Total rows returned.
    pub rows: u64,
    /// Executions that hit the prepared-plan cache.
    pub cache_hits: u64,
    /// Executions lost to serialization conflicts.
    pub conflicts: u64,
    /// Executions denied by a gate.
    pub denials: u64,
    /// Executions failing for other reasons.
    pub errors: u64,
}

impl StatementStats {
    /// Mean latency in nanoseconds (0 when no calls).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// One row of a [`StatementStore`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementEntry {
    /// The user the statement executed as.
    pub user: String,
    /// The token-normalized statement text.
    pub statement: String,
    /// The aggregated statistics.
    pub stats: StatementStats,
}

struct StoreEntry {
    stats: StatementStats,
    /// Logical clock of the last touch, for LRU eviction.
    touched: u64,
}

struct StoreInner {
    entries: HashMap<(String, String), StoreEntry>,
    clock: u64,
}

/// The statistics registry. Concurrency-safe; one lives inside every
/// enabled [`crate::Obs`] handle.
pub struct StatementStore {
    capacity: usize,
    inner: Mutex<StoreInner>,
    evicted: AtomicU64,
}

impl std::fmt::Debug for StatementStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatementStore")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("evicted", &self.evicted_total())
            .finish()
    }
}

impl StatementStore {
    /// A store retaining at most `capacity` distinct `(user, statement)`
    /// keys (minimum 1).
    pub fn new(capacity: usize) -> Self {
        StatementStore {
            capacity: capacity.max(1),
            inner: Mutex::new(StoreInner {
                entries: HashMap::new(),
                clock: 0,
            }),
            evicted: AtomicU64::new(0),
        }
    }

    /// Record one execution of `statement` (already normalized) by `user`.
    pub fn record(
        &self,
        user: &str,
        statement: &str,
        latency_ns: u64,
        rows: u64,
        cache_hit: bool,
        outcome: StatementOutcome,
    ) {
        let mut inner = self.inner.lock().expect("stmt lock");
        inner.clock += 1;
        let clock = inner.clock;
        let key = (user.to_owned(), statement.to_owned());
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            // Evict the least-recently-touched key to admit the new one.
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = inner.entries.entry(key).or_insert(StoreEntry {
            stats: StatementStats::default(),
            touched: clock,
        });
        entry.touched = clock;
        entry.stats.calls += 1;
        entry.stats.total_ns += latency_ns;
        entry.stats.max_ns = entry.stats.max_ns.max(latency_ns);
        entry.stats.rows += rows;
        entry.stats.cache_hits += u64::from(cache_hit);
        match outcome {
            StatementOutcome::Ok => {}
            StatementOutcome::Conflict => entry.stats.conflicts += 1,
            StatementOutcome::Denied => entry.stats.denials += 1,
            StatementOutcome::Error => entry.stats.errors += 1,
        }
    }

    /// Distinct keys currently retained.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("stmt lock").entries.len()
    }

    /// Keys evicted since construction.
    pub(crate) fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// All entries, sorted by total time descending (the pg_stat_statements
    /// reading order: the statements costing the most come first).
    pub fn snapshot(&self) -> Vec<StatementEntry> {
        let inner = self.inner.lock().expect("stmt lock");
        let mut out: Vec<StatementEntry> = inner
            .entries
            .iter()
            .map(|((user, statement), e)| StatementEntry {
                user: user.clone(),
                statement: statement.clone(),
                stats: e.stats.clone(),
            })
            .collect();
        drop(inner);
        out.sort_by(|a, b| {
            b.stats
                .total_ns
                .cmp(&a.stats.total_ns)
                .then_with(|| a.user.cmp(&b.user))
                .then_with(|| a.statement.cmp(&b.statement))
        });
        out
    }

    /// JSON form served by the admin `/statements` endpoint.
    pub fn to_json(&self) -> Json {
        let statements = Json::array(self.snapshot().into_iter().map(|e| {
            Json::object([
                ("user", Json::str(e.user)),
                ("statement", Json::str(e.statement)),
                ("calls", Json::num(e.stats.calls as f64)),
                ("total_ns", Json::num(e.stats.total_ns as f64)),
                ("mean_ns", Json::num(e.stats.mean_ns() as f64)),
                ("max_ns", Json::num(e.stats.max_ns as f64)),
                ("rows", Json::num(e.stats.rows as f64)),
                ("cache_hits", Json::num(e.stats.cache_hits as f64)),
                ("conflicts", Json::num(e.stats.conflicts as f64)),
                ("denials", Json::num(e.stats.denials as f64)),
                ("errors", Json::num(e.stats.errors as f64)),
            ])
        }));
        Json::object([
            ("statements", statements),
            ("entries", Json::num(self.len() as f64)),
            ("capacity", Json::num(self.capacity as f64)),
            ("evicted_total", Json::num(self.evicted_total() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_user_and_statement() {
        let store = StatementStore::new(16);
        store.record("alice", "select $n", 100, 5, false, StatementOutcome::Ok);
        store.record("alice", "select $n", 300, 7, true, StatementOutcome::Ok);
        store.record("bob", "select $n", 50, 1, false, StatementOutcome::Denied);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        // Sorted by total time: alice (400ns) first.
        assert_eq!(snap[0].user, "alice");
        assert_eq!(snap[0].stats.calls, 2);
        assert_eq!(snap[0].stats.total_ns, 400);
        assert_eq!(snap[0].stats.mean_ns(), 200);
        assert_eq!(snap[0].stats.max_ns, 300);
        assert_eq!(snap[0].stats.rows, 12);
        assert_eq!(snap[0].stats.cache_hits, 1);
        assert_eq!(snap[1].user, "bob");
        assert_eq!(snap[1].stats.denials, 1);
    }

    #[test]
    fn lru_eviction_is_counted_and_bounded() {
        let store = StatementStore::new(2);
        store.record("u", "s1", 1, 0, false, StatementOutcome::Ok);
        store.record("u", "s2", 1, 0, false, StatementOutcome::Ok);
        store.record("u", "s1", 1, 0, false, StatementOutcome::Ok); // touch s1
        store.record("u", "s3", 1, 0, false, StatementOutcome::Ok); // evicts s2
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted_total(), 1);
        let keys: Vec<String> = store.snapshot().into_iter().map(|e| e.statement).collect();
        assert!(
            keys.contains(&"s1".to_owned()) && keys.contains(&"s3".to_owned()),
            "{keys:?}"
        );
    }

    #[test]
    fn conflict_and_error_outcomes_are_tracked() {
        let store = StatementStore::new(4);
        store.record("u", "update", 10, 0, false, StatementOutcome::Conflict);
        store.record("u", "update", 10, 0, false, StatementOutcome::Error);
        let snap = store.snapshot();
        assert_eq!(snap[0].stats.conflicts, 1);
        assert_eq!(snap[0].stats.errors, 1);
    }

    #[test]
    fn json_shape_includes_store_counters() {
        let store = StatementStore::new(4);
        store.record("u", "select $n", 100, 2, true, StatementOutcome::Ok);
        let json = store.to_json();
        assert_eq!(json.get("entries").and_then(Json::as_i64), Some(1));
        assert_eq!(json.get("evicted_total").and_then(Json::as_i64), Some(0));
        let rows = json.get("statements").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("user").and_then(Json::as_str), Some("u"));
        assert_eq!(rows[0].get("cache_hits").and_then(Json::as_i64), Some(1));
    }
}
