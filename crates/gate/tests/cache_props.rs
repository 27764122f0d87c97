//! Property tests of the cache core: LRU eviction bounds and generation
//! invalidation, checked against a naive model.
//!
//! The model replays the same operation sequence over an unbounded map
//! that tracks only `(value, generation)` per key. The real cache must
//! never return a value the model would not return (staleness freedom),
//! must never exceed its capacity, and every hit must be *exactly* the
//! model's value.

use gate::{normalize_sql, GenCache, PlanCache};
use proptest::prelude::*;
use std::collections::HashMap;

/// Regression for the plan-cache stats-stamping satellite: a prepared plan
/// is keyed on `Database::plan_generation()`, which must change when
/// `ANALYZE` refreshes optimizer statistics — even though ANALYZE commits
/// no row writes — so a plan costed against stale statistics cannot be
/// served after the statistics it was costed with are replaced.
#[test]
fn analyze_invalidates_cached_plans() {
    let db = minidb::Database::new();
    let mut s = db.session("admin").unwrap();
    s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER)")
        .unwrap();
    s.execute_sql("INSERT INTO t VALUES (1, 1), (2, 1), (3, 2)")
        .unwrap();

    let cache = PlanCache::new(8);
    let sql = "SELECT * FROM t WHERE grp = 1";
    let key = normalize_sql(sql);
    let before = db.plan_generation();
    let (_, hit) = cache.prepare(&key, sql, before).unwrap();
    assert!(!hit);
    let (_, hit) = cache.prepare(&key, sql, db.plan_generation()).unwrap();
    assert!(hit, "stable generation keeps the plan cached");

    // ANALYZE bumps the stats epoch; the combined plan generation moves
    // even though the committed rows are untouched.
    s.execute_sql("ANALYZE t").unwrap();
    let after = db.plan_generation();
    assert!(
        after > before,
        "ANALYZE must advance plan_generation ({before} -> {after})"
    );
    let (_, hit) = cache.prepare(&key, sql, after).unwrap();
    assert!(!hit, "plans cached before ANALYZE must not be served after");

    // The stats component alone moved: committed data generation may also
    // have advanced (the ANALYZE itself commits), but the stats epoch is
    // what distinguishes this from a plain write.
    assert!(db.stats_generation() > 0, "stats epoch records the ANALYZE");
}

/// One step of a cache workload.
#[derive(Debug, Clone)]
enum Op {
    /// Store `value` under key index `k` at the current generation.
    Put { k: u8, value: u64 },
    /// Look up key index `k` at the current generation.
    Get { k: u8 },
    /// Commit a write: bump the generation.
    Bump,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, any::<u64>()).prop_map(|(k, value)| Op::Put { k, value }),
        (0u8..12).prop_map(|k| Op::Get { k }),
        Just(Op::Bump),
    ]
}

proptest! {
    #[test]
    fn cache_agrees_with_model_and_respects_capacity(
        capacity in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let cache: GenCache<u64> = GenCache::new(capacity);
        let mut model: HashMap<u8, (u64, u64)> = HashMap::new();
        let mut generation: u64 = 0;

        for op in ops {
            match op {
                Op::Put { k, value } => {
                    cache.put(format!("k{k}"), value, generation);
                    model.insert(k, (value, generation));
                }
                Op::Get { k } => {
                    let got = cache.get(&format!("k{k}"), generation);
                    match got {
                        Some(v) => {
                            // A hit must be the model's value, stored at
                            // the current generation — never stale.
                            let (mv, mg) = model[&k];
                            prop_assert_eq!(v, mv, "hit returned a wrong value");
                            prop_assert_eq!(mg, generation, "hit across a generation bump");
                        }
                        None => {
                            // Misses are allowed (evicted or invalidated),
                            // but a live same-generation entry may only be
                            // missing due to LRU pressure — impossible when
                            // the key set fits in the cache.
                            if let Some(&(_, mg)) = model.get(&k) {
                                if mg == generation && model.len() <= capacity {
                                    prop_assert!(
                                        false,
                                        "unforced miss: entry fits and is current"
                                    );
                                }
                            }
                        }
                    }
                }
                Op::Bump => generation += 1,
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
        }

        if model.len() <= capacity {
            prop_assert_eq!(cache.stats().evictions, 0,
                "evictions despite the whole key set fitting");
        }
    }

    #[test]
    fn generation_bump_invalidates_everything(
        capacity in 1usize..8,
        keys in proptest::collection::vec(0u8..16, 1..20),
    ) {
        let cache: GenCache<u64> = GenCache::new(capacity);
        for (i, k) in keys.iter().enumerate() {
            cache.put(format!("k{k}"), i as u64, 7);
        }
        // After the bump, no key may hit.
        for k in &keys {
            prop_assert_eq!(cache.get(&format!("k{k}"), 8), None);
        }
        prop_assert_eq!(cache.stats().hits, 0);
    }
}
