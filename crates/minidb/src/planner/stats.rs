//! ANALYZE: single-pass collection of optimizer statistics.
//!
//! The statistics live in the catalog ([`crate::schema::TableStats`]), are
//! versioned by the catalog's stats epoch (so prepared-plan caches can key
//! on them), travel through the WAL as [`crate::storage::WalRecord::Analyze`]
//! records, and are embedded in snapshots — an analyzed database stays
//! analyzed across checkpoint, crash, and restart.

use crate::schema::{ColumnStats, TableSchema, TableStats};
use crate::storage::TableData;
use crate::value::Key;
use std::collections::BTreeSet;

/// Scan a table once and compute its statistics: live row count plus, per
/// column, the number of distinct non-NULL values and the NULL count.
/// Distinctness uses the total order ([`crate::value::Value::total_cmp`]),
/// the same notion the executor's DISTINCT and GROUP BY use.
pub(crate) fn collect_table_stats(schema: &TableSchema, data: &TableData) -> TableStats {
    let ncols = schema.columns.len();
    let mut sets: Vec<BTreeSet<Key>> = (0..ncols).map(|_| BTreeSet::new()).collect();
    let mut nulls = vec![0u64; ncols];
    let mut rows = 0u64;
    for (_, row) in data.iter() {
        rows += 1;
        for (i, v) in row.iter().enumerate().take(ncols) {
            if v.is_null() {
                nulls[i] += 1;
            } else {
                sets[i].insert(Key(vec![v.clone()]));
            }
        }
    }
    TableStats {
        row_count: rows,
        columns: sets
            .into_iter()
            .zip(nulls)
            .map(|(set, n)| ColumnStats {
                distinct: set.len() as u64,
                nulls: n,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::DbState;
    use crate::txn::UndoOp;

    fn state_with(sqls: &[&str]) -> DbState {
        let mut state = DbState::default();
        let mut undo: Vec<UndoOp> = Vec::new();
        for sql in sqls {
            let stmt = sqlkit::parse_statement(sql).unwrap();
            crate::exec::execute(&mut state, &stmt, &mut undo).unwrap();
        }
        state
    }

    #[test]
    fn counts_rows_distincts_and_nulls() {
        let state = state_with(&[
            "CREATE TABLE t (a INTEGER, b TEXT)",
            "INSERT INTO t VALUES (1, 'x'), (1, 'y'), (2, NULL), (NULL, 'x')",
        ]);
        let stats = collect_table_stats(state.catalog.table("t").unwrap(), &state.data["t"]);
        assert_eq!(stats.row_count, 4);
        assert_eq!(stats.columns[0].distinct, 2);
        assert_eq!(stats.columns[0].nulls, 1);
        assert_eq!(stats.columns[1].distinct, 2);
        assert_eq!(stats.columns[1].nulls, 1);
    }

    #[test]
    fn empty_table_has_zero_stats() {
        let state = state_with(&["CREATE TABLE t (a INTEGER)"]);
        let stats = collect_table_stats(state.catalog.table("t").unwrap(), &state.data["t"]);
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.columns[0].distinct, 0);
        assert_eq!(stats.column_distinct(0), Some(0));
        assert_eq!(stats.column_distinct(7), None);
    }
}
