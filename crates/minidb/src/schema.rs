//! Catalog: table schemas, constraints, indexes.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use sqlkit::ast::{self, TypeName};
use std::collections::BTreeMap;

/// One column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// NOT NULL constraint (implied by PRIMARY KEY).
    pub not_null: bool,
    /// Single-column UNIQUE constraint.
    pub unique: bool,
    /// DEFAULT value (already evaluated to a constant).
    pub default: Option<Value>,
}

/// A foreign-key constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Local column names.
    pub columns: Vec<String>,
    /// Referenced table.
    pub foreign_table: String,
    /// Referenced column names.
    pub foreign_columns: Vec<String>,
}

/// A secondary index definition. Data lives in the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Indexed columns, in key order.
    pub columns: Vec<String>,
    /// Whether the index enforces uniqueness.
    pub unique: bool,
}

impl IndexDef {
    /// Physical representation this definition materializes as: unique
    /// (constraint-backing) indexes stay ordered, plain secondary indexes
    /// are hash maps — the executor only ever probes them with equality
    /// keys, and an O(1) probe beats a tree walk. The mapping is a pure
    /// function of the definition so index rebuilds (e.g. after ALTER TABLE
    /// DROP COLUMN) always reproduce the same physical kind.
    pub fn kind(&self) -> crate::storage::IndexKind {
        if self.unique {
            crate::storage::IndexKind::Ordered
        } else {
            crate::storage::IndexKind::Hash
        }
    }
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Primary-key column names (empty if none).
    pub primary_key: Vec<String>,
    /// Multi-column UNIQUE constraints.
    pub(crate) uniques: Vec<Vec<String>>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
    /// CHECK expressions (kept as AST; evaluated against candidate rows).
    pub checks: Vec<ast::Expr>,
    /// Secondary indexes.
    pub indexes: Vec<IndexDef>,
}

impl TableSchema {
    /// Position of a column by name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Resolve a list of column names to positions, erroring on unknowns.
    pub(crate) fn resolve_columns(&self, names: &[String]) -> DbResult<Vec<usize>> {
        names
            .iter()
            .map(|n| {
                self.column_index(n)
                    .ok_or_else(|| DbError::UnknownColumn(format!("{}.{n}", self.name)))
            })
            .collect()
    }
}

/// A view: a named, stored SELECT. Views are privilege-bearing objects like
/// tables (the paper's §2.1 lists them explicitly); querying one requires
/// SELECT on the *view*, and its body runs with definer semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View name (shares the table namespace).
    pub name: String,
    /// The defining query.
    pub query: ast::Select,
    /// Output column names, fixed at creation.
    pub columns: Vec<String>,
}

/// Optimizer statistics for one column, parallel to the schema's column
/// list. Collected by `ANALYZE`, consumed by the cost model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values.
    pub distinct: u64,
    /// Number of NULL values.
    pub(crate) nulls: u64,
}

/// Optimizer statistics for one table: a point-in-time sample taken by
/// `ANALYZE`. Stats are advisory — they steer plan choice but never
/// correctness — and go stale silently until the next `ANALYZE`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Row count at collection time.
    pub row_count: u64,
    /// Per-column statistics, in schema column order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Distinct count of the column at `index`, if collected.
    pub(crate) fn column_distinct(&self, index: usize) -> Option<u64> {
        self.columns.get(index).map(|c| c.distinct)
    }
}

/// The database catalog: name → schema.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableSchema>,
    views: BTreeMap<String, ViewDef>,
    /// `ANALYZE` output per table. Kept separate from [`TableSchema`] so
    /// schema equality (and the WAL schema codec) stay stats-agnostic.
    stats: BTreeMap<String, TableStats>,
    /// Bumped on every stats mutation; combined with the commit timestamp
    /// it forms the plan-cache generation (see `Database::plan_generation`).
    stats_epoch: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Look up a table schema.
    pub fn table(&self, name: &str) -> DbResult<&TableSchema> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Register a new table schema.
    pub(crate) fn add_table(&mut self, schema: TableSchema) -> DbResult<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::AlreadyExists(schema.name));
        }
        self.tables.insert(schema.name.clone(), schema);
        Ok(())
    }

    /// Remove a table schema, returning it. Any collected statistics are
    /// dropped with it — a re-created or rewritten table starts unanalyzed
    /// (stale column counts would mislead the cost model).
    pub(crate) fn remove_table(&mut self, name: &str) -> DbResult<TableSchema> {
        let schema = self
            .tables
            .remove(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        if self.stats.remove(name).is_some() {
            self.stats_epoch += 1;
        }
        Ok(schema)
    }

    /// Optimizer statistics for a table, if `ANALYZE` has run on it.
    pub(crate) fn table_stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(name)
    }

    /// Install (or replace) the statistics of a table, bumping the stats
    /// epoch so plan caches keyed on it re-plan.
    pub(crate) fn set_table_stats(&mut self, name: &str, stats: TableStats) {
        self.stats.insert(name.to_owned(), stats);
        self.stats_epoch += 1;
    }

    /// Remove a table's statistics, returning them (undo of `ANALYZE`).
    pub(crate) fn take_table_stats(&mut self, name: &str) -> Option<TableStats> {
        let old = self.stats.remove(name);
        if old.is_some() {
            self.stats_epoch += 1;
        }
        old
    }

    /// Tables with collected statistics, sorted.
    pub(crate) fn analyzed_tables(&self) -> Vec<&str> {
        self.stats.keys().map(String::as_str).collect()
    }

    /// Monotonic counter of statistics mutations.
    pub(crate) fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Mutable access to a schema (ALTER TABLE, index DDL).
    pub(crate) fn table_mut(&mut self, name: &str) -> DbResult<&mut TableSchema> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Tables holding a foreign key that references `name`.
    pub(crate) fn referencing_tables(&self, name: &str) -> Vec<&TableSchema> {
        self.tables
            .values()
            .filter(|t| t.foreign_keys.iter().any(|fk| fk.foreign_table == name))
            .collect()
    }

    /// Look up a view definition.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(name)
    }

    /// All view names, sorted.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }

    /// Whether any object (table or view) uses the name.
    pub(crate) fn contains_object(&self, name: &str) -> bool {
        self.tables.contains_key(name) || self.views.contains_key(name)
    }

    /// Register a view. The name must be free across tables and views.
    pub(crate) fn add_view(&mut self, view: ViewDef) -> DbResult<()> {
        if self.contains_object(&view.name) {
            return Err(DbError::AlreadyExists(view.name));
        }
        self.views.insert(view.name.clone(), view);
        Ok(())
    }

    /// Remove a view, returning its definition.
    pub(crate) fn remove_view(&mut self, name: &str) -> DbResult<ViewDef> {
        self.views
            .remove(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Rename a table, leaving inbound FK references updated.
    pub(crate) fn rename_table(&mut self, old: &str, new: &str) -> DbResult<()> {
        if self.tables.contains_key(new) {
            return Err(DbError::AlreadyExists(new.to_owned()));
        }
        // Detach stats before `remove_table` drops them: a rename keeps the
        // column layout, so the collected sample stays valid under the new
        // name.
        let stats = self.stats.remove(old);
        let mut schema = self.remove_table(old)?;
        schema.name = new.to_owned();
        self.tables.insert(new.to_owned(), schema);
        if let Some(stats) = stats {
            self.stats.insert(new.to_owned(), stats);
        }
        for t in self.tables.values_mut() {
            for fk in &mut t.foreign_keys {
                if fk.foreign_table == old {
                    fk.foreign_table = new.to_owned();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema(name: &str) -> TableSchema {
        TableSchema {
            name: name.to_owned(),
            columns: vec![
                Column {
                    name: "id".into(),
                    ty: TypeName::Integer,
                    not_null: true,
                    unique: false,
                    default: None,
                },
                Column {
                    name: "v".into(),
                    ty: TypeName::Text,
                    not_null: false,
                    unique: false,
                    default: Some(Value::Text("x".into())),
                },
            ],
            primary_key: vec!["id".into()],
            uniques: vec![],
            foreign_keys: vec![],
            checks: vec![],
            indexes: vec![],
        }
    }

    #[test]
    fn add_lookup_remove() {
        let mut cat = Catalog::new();
        cat.add_table(demo_schema("t")).unwrap();
        assert!(cat.contains("t"));
        assert_eq!(cat.table("t").unwrap().columns.len(), 2);
        assert!(matches!(
            cat.add_table(demo_schema("t")),
            Err(DbError::AlreadyExists(_))
        ));
        cat.remove_table("t").unwrap();
        assert!(matches!(cat.table("t"), Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn column_resolution() {
        let s = demo_schema("t");
        assert_eq!(s.column_index("v"), Some(1));
        assert!(s.column("missing").is_none());
        assert!(s.resolve_columns(&["id".into(), "nope".into()]).is_err());
    }

    #[test]
    fn rename_updates_fks() {
        let mut cat = Catalog::new();
        cat.add_table(demo_schema("parent")).unwrap();
        let mut child = demo_schema("child");
        child.foreign_keys.push(ForeignKey {
            columns: vec!["id".into()],
            foreign_table: "parent".into(),
            foreign_columns: vec!["id".into()],
        });
        cat.add_table(child).unwrap();
        cat.rename_table("parent", "folks").unwrap();
        assert_eq!(
            cat.table("child").unwrap().foreign_keys[0].foreign_table,
            "folks"
        );
        assert_eq!(cat.referencing_tables("folks").len(), 1);
    }
}
