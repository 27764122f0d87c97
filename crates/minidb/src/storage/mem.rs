//! Row storage and secondary indexes (ordered and hash).
//!
//! Rows live in a slotted vector with tombstones so a `RowId` stays stable
//! for the lifetime of the row — the transaction undo log addresses rows by
//! id. Indexes come in two physical shapes behind one interface: ordered
//! maps (B-tree) used for uniqueness enforcement, and hash maps used by the
//! executor's equality probes. Both map a key
//! tuple to the set of row ids carrying that key and are maintained by every
//! `insert`/`update`/`delete`/`restore`, which is what makes them
//! transactionally consistent: the undo log replays through those same
//! operations on rollback.

use crate::value::{Key, Row, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Stable identifier of a row within one table.
pub type RowId = usize;

/// Copy-on-write map of table storage, keyed by table name.
///
/// Each table sits behind an `Arc`, so cloning a whole `DbState` — an MVCC
/// snapshot or a transaction's private workspace — costs one pointer bump
/// per table instead of a deep copy. The first mutation of a table inside a
/// clone copies just that table (`Arc::make_mut`); untouched tables stay
/// shared with every snapshot holding them. The API mirrors the
/// `BTreeMap<String, TableData>` it replaced, so the executor and the undo
/// log are oblivious to the sharing.
#[derive(Debug, Clone, Default)]
pub struct DataMap {
    tables: BTreeMap<String, Arc<TableData>>,
}

impl DataMap {
    /// Shared view of one table's storage.
    pub fn get(&self, name: &str) -> Option<&TableData> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Mutable view of one table's storage, unsharing it first if any
    /// snapshot still holds the same version (copy-on-write).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut TableData> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// Register (or replace) a table's storage.
    pub fn insert(&mut self, name: String, data: TableData) {
        self.tables.insert(name, Arc::new(data));
    }

    /// Remove a table's storage, returning it (unshared).
    pub fn remove(&mut self, name: &str) -> Option<TableData> {
        self.tables
            .remove(name)
            .map(|data| Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Iterate over `(name, storage)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TableData)> {
        self.tables.iter().map(|(name, data)| (name, data.as_ref()))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no tables are stored.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl std::ops::Index<&str> for DataMap {
    type Output = TableData;

    fn index(&self, name: &str) -> &TableData {
        self.get(name)
            .unwrap_or_else(|| panic!("no storage for table \"{name}\""))
    }
}

/// Physical representation of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// B-tree keyed by [`Key`]'s total order. Used for constraint indexes.
    Ordered,
    /// Hash table keyed by a hash consistent with [`Key`]'s total order.
    /// Used for equality probes; O(1) point lookups.
    Hash,
}

/// Key wrapper whose equality and hash follow `Key`'s *total order* rather
/// than the derived `PartialEq`. This matters for cross-type numerics: the
/// ordered index finds `Float(1.0)` entries when probed with `Int(1)`
/// (because `total_cmp` treats them as equal), so the hash index must
/// collide and equate them too — numeric values hash through their `f64`
/// image with `-0.0` and NaN canonicalised.
#[derive(Debug, Clone)]
pub struct HashedKey(pub Key);

impl PartialEq for HashedKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for HashedKey {}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 .0 {
            hash_value(v, state);
        }
    }
}

fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => state.write_u8(0),
        Value::Bool(b) => {
            state.write_u8(1);
            state.write_u8(u8::from(*b));
        }
        // One numeric tag for Int and Float: total_cmp compares them through
        // f64, so equal-by-order values must produce equal hashes.
        Value::Int(i) => {
            state.write_u8(2);
            state.write_u64(canonical_f64_bits(*i as f64));
        }
        Value::Float(f) => {
            state.write_u8(2);
            state.write_u64(canonical_f64_bits(*f));
        }
        Value::Text(s) => {
            state.write_u8(3);
            state.write(s.as_bytes());
            state.write_u8(0xff);
        }
    }
}

fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0u64 // collapse -0.0 and +0.0
    } else {
        f.to_bits()
    }
}

/// Canonicalize a key for index storage and probes. SQL equality
/// (`sql_cmp`, via `partial_cmp`) says `-0.0 = 0`, but the total order
/// backing index keys says `-0.0 < 0.0` — left as-is, a stored `-0.0` row
/// would be invisible to an index probe for `0`, and index prefilters must
/// never *under*-include. Collapsing `-0.0` to `0.0` at every IndexData
/// entry point closes the gap for both index kinds. The hash-join operator
/// canonicalizes its build/probe keys the same way.
pub fn canonical_key(mut key: Key) -> Key {
    for v in &mut key.0 {
        if let Value::Float(f) = v {
            if *f == 0.0 {
                *f = 0.0;
            }
        }
    }
    key
}

#[derive(Debug, Clone)]
enum Entries {
    Ordered(BTreeMap<Key, BTreeSet<RowId>>),
    Hash(HashMap<HashedKey, BTreeSet<RowId>>),
}

/// Index payload: a map from key tuple to the set of rows with that key,
/// physically ordered or hashed (see [`IndexKind`]).
#[derive(Debug, Clone)]
pub struct IndexData {
    /// Positions (into the table schema) of the indexed columns.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
    entries: Entries,
}

impl Default for IndexData {
    fn default() -> Self {
        IndexData::new(Vec::new(), false)
    }
}

impl IndexData {
    /// New empty ordered index over the given column positions.
    pub fn new(columns: Vec<usize>, unique: bool) -> Self {
        IndexData::with_kind(columns, unique, IndexKind::Ordered)
    }

    /// New empty index with an explicit physical representation.
    pub fn with_kind(columns: Vec<usize>, unique: bool, kind: IndexKind) -> Self {
        let entries = match kind {
            IndexKind::Ordered => Entries::Ordered(BTreeMap::new()),
            IndexKind::Hash => Entries::Hash(HashMap::new()),
        };
        IndexData {
            columns,
            unique,
            entries,
        }
    }

    /// This index's physical representation.
    pub fn kind(&self) -> IndexKind {
        match &self.entries {
            Entries::Ordered(_) => IndexKind::Ordered,
            Entries::Hash(_) => IndexKind::Hash,
        }
    }

    /// Extract this index's key from a row, canonicalized.
    pub fn key_of(&self, row: &Row) -> Key {
        canonical_key(Key(self.columns.iter().map(|&i| row[i].clone()).collect()))
    }

    /// Whether inserting `key` would violate uniqueness. NULL-containing
    /// keys never conflict (SQL UNIQUE semantics).
    pub fn would_conflict(&self, key: &Key, ignore: Option<RowId>) -> bool {
        if !self.unique || key.0.iter().any(Value::is_null) {
            return false;
        }
        let key = canonical_key(key.clone());
        let set = match &self.entries {
            Entries::Ordered(map) => map.get(&key),
            Entries::Hash(map) => map.get(&HashedKey(key)),
        };
        match set {
            None => false,
            Some(set) => set.iter().any(|&rid| Some(rid) != ignore),
        }
    }

    /// Add a row under its key.
    pub fn insert(&mut self, key: Key, rid: RowId) {
        let key = canonical_key(key);
        match &mut self.entries {
            Entries::Ordered(map) => {
                map.entry(key).or_default().insert(rid);
            }
            Entries::Hash(map) => {
                map.entry(HashedKey(key)).or_default().insert(rid);
            }
        }
    }

    /// Remove a row from its key.
    pub fn remove(&mut self, key: &Key, rid: RowId) {
        let key = canonical_key(key.clone());
        match &mut self.entries {
            Entries::Ordered(map) => {
                if let Some(set) = map.get_mut(&key) {
                    set.remove(&rid);
                    if set.is_empty() {
                        map.remove(&key);
                    }
                }
            }
            Entries::Hash(map) => {
                let hashed = HashedKey(key);
                if let Some(set) = map.get_mut(&hashed) {
                    set.remove(&rid);
                    if set.is_empty() {
                        map.remove(&hashed);
                    }
                }
            }
        }
    }

    /// Row ids exactly matching a key.
    pub fn lookup(&self, key: &Key) -> Vec<RowId> {
        let key = canonical_key(key.clone());
        let set = match &self.entries {
            Entries::Ordered(map) => map.get(&key),
            Entries::Hash(map) => map.get(&HashedKey(key)),
        };
        set.map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.entries {
            Entries::Ordered(map) => map.len(),
            Entries::Hash(map) => map.len(),
        }
    }

    /// All `(key, row ids)` pairs, for consistency checking. Hash indexes
    /// yield them in arbitrary order.
    fn entry_pairs(&self) -> Vec<(Key, Vec<RowId>)> {
        match &self.entries {
            Entries::Ordered(map) => map
                .iter()
                .map(|(k, s)| (k.clone(), s.iter().copied().collect()))
                .collect(),
            Entries::Hash(map) => map
                .iter()
                .map(|(k, s)| (k.0.clone(), s.iter().copied().collect()))
                .collect(),
        }
    }
}

/// Storage of one table: slotted rows plus named indexes.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    live: usize,
    /// Secondary indexes by name.
    pub indexes: BTreeMap<String, IndexData>,
}

impl TableData {
    /// Empty storage.
    pub fn new() -> Self {
        TableData::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a row, maintaining all indexes. The row must already be
    /// validated (types, constraints) by the executor.
    pub fn insert(&mut self, row: Row) -> RowId {
        let rid = match self.free.pop() {
            Some(rid) => {
                self.slots[rid] = Some(row);
                rid
            }
            None => {
                self.slots.push(Some(row));
                self.slots.len() - 1
            }
        };
        self.live += 1;
        let row_ref = self.slots[rid].as_ref().expect("just inserted").clone();
        for idx in self.indexes.values_mut() {
            let key = idx.key_of(&row_ref);
            idx.insert(key, rid);
        }
        rid
    }

    /// Re-insert a row at a specific id (transaction rollback of a delete).
    /// Panics if the slot is occupied — that would mean the undo log and the
    /// storage diverged.
    pub fn restore(&mut self, rid: RowId, row: Row) {
        if rid >= self.slots.len() {
            self.slots.resize(rid + 1, None);
        }
        assert!(
            self.slots[rid].is_none(),
            "restore into occupied slot {rid}"
        );
        // The slot may sit in the free list; drop it from there lazily by
        // filtering on next allocation.
        self.free.retain(|&f| f != rid);
        for idx in self.indexes.values_mut() {
            let key = idx.key_of(&row);
            idx.insert(key, rid);
        }
        self.slots[rid] = Some(row);
        self.live += 1;
    }

    /// Delete a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let row = self.slots.get_mut(rid)?.take()?;
        self.free.push(rid);
        self.live -= 1;
        for idx in self.indexes.values_mut() {
            let key = idx.key_of(&row);
            idx.remove(&key, rid);
        }
        Some(row)
    }

    /// Replace a row in place, maintaining indexes. Returns the old row.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Option<Row> {
        let slot = self.slots.get_mut(rid)?;
        let old = slot.take()?;
        for idx in self.indexes.values_mut() {
            let old_key = idx.key_of(&old);
            idx.remove(&old_key, rid);
            let new_key = idx.key_of(&new_row);
            idx.insert(new_key, rid);
        }
        *slot = Some(new_row);
        Some(old)
    }

    /// Fetch a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid).and_then(Option::as_ref)
    }

    /// Total slot count (live + tombstoned). Persisted by snapshots so a
    /// rebuilt table allocates future row ids exactly like the original.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The free list, in allocation (stack) order. Persisted by snapshots:
    /// `insert` pops from the *end*, so reproducing the order reproduces
    /// the original's row-id allocation sequence after recovery.
    pub fn free_list(&self) -> Vec<RowId> {
        self.free.clone()
    }

    /// Overwrite the slot count and free list after a bulk rebuild from
    /// persisted rows (recovery / ALTER replay). Extends the slot vector so
    /// every free id addresses a real (tombstoned) slot.
    pub fn set_free_list(&mut self, slot_count: usize, free: Vec<RowId>) {
        if slot_count > self.slots.len() {
            self.slots.resize(slot_count, None);
        }
        self.free = free;
    }

    /// Clone out all live rows as `(RowId, Row)` pairs, in id order.
    pub fn rows_snapshot(&self) -> Vec<(RowId, Row)> {
        self.iter().map(|(rid, row)| (rid, row.clone())).collect()
    }

    /// Iterate over `(RowId, &Row)` for live rows, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rid, slot)| slot.as_ref().map(|row| (rid, row)))
    }

    /// Add an index over column positions and build it from existing rows.
    /// Returns `Err` with a conflicting key description if a unique index
    /// finds duplicates.
    pub fn build_index(
        &mut self,
        name: &str,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<(), String> {
        self.build_index_kind(name, columns, unique, IndexKind::Ordered)
    }

    /// [`TableData::build_index`] with an explicit physical representation.
    pub fn build_index_kind(
        &mut self,
        name: &str,
        columns: Vec<usize>,
        unique: bool,
        kind: IndexKind,
    ) -> Result<(), String> {
        let mut idx = IndexData::with_kind(columns, unique, kind);
        for (rid, row) in self.iter() {
            let key = idx.key_of(row);
            if idx.would_conflict(&key, None) {
                return Err(format!(
                    "duplicate key {:?} violates unique index \"{name}\"",
                    key.0.iter().map(Value::render).collect::<Vec<_>>()
                ));
            }
            idx.insert(key, rid);
        }
        self.indexes.insert(name.to_owned(), idx);
        Ok(())
    }

    /// Verify that every index agrees exactly with the live rows: each live
    /// row appears under precisely its key and nothing else is indexed.
    /// Returns a description of the first divergence found. Used by the
    /// rollback machinery (debug builds) and the differential tests.
    pub fn verify_index_consistency(&self) -> Result<(), String> {
        for (name, idx) in &self.indexes {
            let mut expected: BTreeMap<Key, BTreeSet<RowId>> = BTreeMap::new();
            for (rid, row) in self.iter() {
                expected.entry(idx.key_of(row)).or_default().insert(rid);
            }
            let mut actual: BTreeMap<Key, BTreeSet<RowId>> = BTreeMap::new();
            for (key, rids) in idx.entry_pairs() {
                // Fold through the *ordered* key comparison so hash and
                // ordered indexes are checked against the same equivalence.
                actual.entry(key).or_default().extend(rids);
            }
            if expected != actual {
                return Err(format!(
                    "index \"{name}\" diverged from live rows: \
                     {} expected keys vs {} indexed keys",
                    expected.len(),
                    actual.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Text(name.into())]
    }

    #[test]
    fn insert_get_delete() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        let b = t.insert(row(2, "b"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
        let old = t.delete(a).unwrap();
        assert_eq!(old[1], Value::Text("a".into()));
        assert_eq!(t.len(), 1);
        assert!(t.get(a).is_none());
        assert!(t.get(b).is_some());
    }

    #[test]
    fn slot_reuse_keeps_ids_stable() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        t.insert(row(2, "b"));
        t.delete(a);
        let c = t.insert(row(3, "c"));
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn restore_after_delete() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        let old = t.delete(a).unwrap();
        t.restore(a, old);
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn restore_into_live_slot_panics() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        t.restore(a, row(9, "x"));
    }

    #[test]
    fn index_maintenance() {
        let mut t = TableData::new();
        t.build_index("by_id", vec![0], true).unwrap();
        let a = t.insert(row(1, "a"));
        t.insert(row(2, "b"));
        let idx = &t.indexes["by_id"];
        assert_eq!(idx.lookup(&Key(vec![Value::Int(1)])), vec![a]);
        // Update moves the index entry.
        t.update(a, row(5, "a"));
        let idx = &t.indexes["by_id"];
        assert!(idx.lookup(&Key(vec![Value::Int(1)])).is_empty());
        assert_eq!(idx.lookup(&Key(vec![Value::Int(5)])), vec![a]);
        // Delete removes it.
        t.delete(a);
        let idx = &t.indexes["by_id"];
        assert!(idx.lookup(&Key(vec![Value::Int(5)])).is_empty());
    }

    #[test]
    fn unique_conflicts() {
        let mut t = TableData::new();
        t.build_index("u", vec![0], true).unwrap();
        let a = t.insert(row(1, "a"));
        let idx = &t.indexes["u"];
        assert!(idx.would_conflict(&Key(vec![Value::Int(1)]), None));
        assert!(!idx.would_conflict(&Key(vec![Value::Int(1)]), Some(a)));
        assert!(!idx.would_conflict(&Key(vec![Value::Int(2)]), None));
        // NULL keys never conflict.
        assert!(!idx.would_conflict(&Key(vec![Value::Null]), None));
    }

    #[test]
    fn build_unique_index_detects_existing_duplicates() {
        let mut t = TableData::new();
        t.insert(row(1, "a"));
        t.insert(row(1, "b"));
        assert!(t.build_index("u", vec![0], true).is_err());
        assert!(t.build_index("nu", vec![0], false).is_ok());
    }

    #[test]
    fn hash_index_maintenance_matches_ordered() {
        let mut t = TableData::new();
        t.build_index_kind("h", vec![0], false, IndexKind::Hash)
            .unwrap();
        t.build_index_kind("o", vec![0], false, IndexKind::Ordered)
            .unwrap();
        let a = t.insert(row(1, "a"));
        let b = t.insert(row(1, "b"));
        t.insert(row(2, "c"));
        let probe = Key(vec![Value::Int(1)]);
        let mut h = t.indexes["h"].lookup(&probe);
        let mut o = t.indexes["o"].lookup(&probe);
        h.sort_unstable();
        o.sort_unstable();
        assert_eq!(h, o);
        assert_eq!(h, vec![a, b]);
        t.update(a, row(2, "a"));
        t.delete(b);
        assert_eq!(t.indexes["h"].lookup(&probe), Vec::<RowId>::new());
        assert_eq!(t.indexes["h"].lookup(&Key(vec![Value::Int(2)])).len(), 2);
        t.verify_index_consistency().unwrap();
    }

    #[test]
    fn hash_index_probes_across_numeric_types() {
        // total_cmp treats Int(1) and Float(1.0) as equal, so the ordered
        // index finds float rows from an int probe; the hash index must too.
        let mut t = TableData::new();
        t.build_index_kind("h", vec![0], false, IndexKind::Hash)
            .unwrap();
        let a = t.insert(vec![Value::Float(1.0), Value::Text("x".into())]);
        assert_eq!(t.indexes["h"].lookup(&Key(vec![Value::Int(1)])), vec![a]);
        let b = t.insert(vec![Value::Float(-0.0), Value::Text("z".into())]);
        assert_eq!(t.indexes["h"].lookup(&Key(vec![Value::Int(0)])), vec![b]);
    }

    #[test]
    fn consistency_check_catches_divergence() {
        let mut t = TableData::new();
        t.build_index_kind("h", vec![0], false, IndexKind::Hash)
            .unwrap();
        t.insert(row(1, "a"));
        t.verify_index_consistency().unwrap();
        // Sabotage the index directly: the checker must notice.
        t.indexes
            .get_mut("h")
            .unwrap()
            .insert(Key(vec![Value::Int(99)]), 7);
        assert!(t.verify_index_consistency().is_err());
    }
}
