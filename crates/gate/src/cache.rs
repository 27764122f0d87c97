//! Generation-tagged LRU cache — the core both the retrieval cache and the
//! prepared-plan cache are built on.
//!
//! Every entry is stamped with the database **generation** (minidb's
//! committed-version timestamp) current when the value was computed. A
//! lookup hits only if the caller's current generation equals the stamp;
//! any committed write — DML, DDL, or a privilege change — bumps the
//! generation and thereby invalidates *every* older entry, precisely and
//! without any notification machinery. Stale entries are dropped lazily on
//! the lookup that discovers them.
//!
//! Eviction is least-recently-used over a bounded capacity: each hit bumps
//! a monotonic use tick, and an insert past capacity removes the entry with
//! the smallest tick. Capacity is small (hundreds), so the linear evict
//! scan is cheaper than maintaining an intrusive list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Point-in-time counters of a cache's behaviour, for gauges and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing cacheable.
    pub misses: u64,
    /// Misses caused specifically by a generation mismatch (the entry
    /// existed but a committed write had invalidated it).
    pub(crate) invalidations: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    generation: u64,
    used: u64,
}

struct Inner<V> {
    entries: HashMap<String, Entry<V>>,
    tick: u64,
}

/// A bounded, thread-safe, generation-invalidated LRU map.
pub struct GenCache<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> GenCache<V> {
    /// Create a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        GenCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `key` as of `generation`. Returns the cached value only if
    /// it was stored at exactly this generation; an entry stored at an
    /// older generation is removed on discovery (a committed write made it
    /// unverifiable) and the lookup counts as a miss.
    pub fn get(&self, key: &str, generation: u64) -> Option<V> {
        let mut inner = self.inner.lock().expect("gate cache lock");
        match inner.entries.get(key) {
            Some(e) if e.generation == generation => {
                inner.tick += 1;
                let tick = inner.tick;
                let e = inner.entries.get_mut(key).expect("checked");
                e.used = tick;
                let value = e.value.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(_) => {
                inner.entries.remove(key);
                drop(inner);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `value` under `key`, stamped with `generation`. Evicts the
    /// least-recently-used entry when the cache is full and `key` is new.
    pub fn put(&self, key: String, value: V, generation: u64) {
        let mut inner = self.inner.lock().expect("gate cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.entries.insert(
            key,
            Entry {
                value,
                generation,
                used: tick,
            },
        );
    }

    /// Number of live entries (stale ones included until discovered).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("gate cache lock").entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().expect("gate cache lock").entries.clear();
    }

    /// Current behaviour counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_generation() {
        let c: GenCache<i64> = GenCache::new(4);
        c.put("k".into(), 7, 1);
        assert_eq!(c.get("k", 1), Some(7));
        assert_eq!(c.get("k", 2), None, "newer generation invalidates");
        assert_eq!(c.get("k", 1), None, "stale entry was dropped on discovery");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: GenCache<i64> = GenCache::new(2);
        c.put("a".into(), 1, 0);
        c.put("b".into(), 2, 0);
        assert_eq!(c.get("a", 0), Some(1)); // touch a; b is now LRU
        c.put("c".into(), 3, 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b", 0), None, "b evicted");
        assert_eq!(c.get("a", 0), Some(1));
        assert_eq!(c.get("c", 0), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn overwrite_does_not_evict() {
        let c: GenCache<i64> = GenCache::new(2);
        c.put("a".into(), 1, 0);
        c.put("b".into(), 2, 0);
        c.put("a".into(), 9, 5);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a", 5), Some(9));
        assert_eq!(c.get("b", 0), Some(2));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn hit_rate_reflects_counters() {
        let c: GenCache<i64> = GenCache::new(4);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.put("k".into(), 1, 0);
        c.get("k", 0);
        c.get("missing", 0);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
