//! Chunked fan-out: the one place the executor spawns threads.
//!
//! [`chunked`] is the whole mechanism; the operators below are each one
//! sequential kernel from [`super::eval`] run per chunk and merged in chunk
//! order. The worker count is always an explicit argument — callers get it
//! from the one parallel rule, [`crate::planner::workers_for`], applied to a
//! row count they know exactly — so every operator can be driven at any
//! width on any machine.

use super::eval;
use crate::deadline;
use crate::error::DbResult;
use crate::expr::ScopeCol;
use crate::storage::TableData;
use crate::value::{Key, Row};
use sqlkit::ast::Expr;
use std::collections::BTreeMap;

/// Split `items` into `workers` contiguous chunks, run `work` on each chunk
/// on its own scoped thread, and return the per-chunk results in chunk
/// order. With fewer than two workers (or items), `work` runs once on the
/// calling thread.
///
/// Two properties follow for any caller that merges the results in order:
/// output order equals the sequential order, and — since each chunk stops
/// at its own first error and the earliest chunk's error is the one
/// returned — the first error in row order wins, as it would serially.
///
/// Every chunk checks the calling thread's deadline before it starts; the
/// workers get it captured, since a thread-local does not cross threads.
pub(crate) fn chunked<T: Send, R: Send>(
    mut items: Vec<T>,
    workers: usize,
    work: impl Fn(Vec<T>) -> DbResult<R> + Sync,
) -> DbResult<Vec<R>> {
    let at = deadline::current();
    let work = move |part| {
        deadline::check_at(at)?;
        work(part)
    };
    let workers = workers.min(items.len());
    if workers < 2 {
        return Ok(vec![work(items)?]);
    }
    let chunk = items.len().div_ceil(workers);
    let mut parts = Vec::with_capacity(workers);
    while items.len() > chunk {
        let tail = items.split_off(chunk);
        parts.push(std::mem::replace(&mut items, tail));
    }
    parts.push(items);
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| s.spawn(move || work(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk worker panicked"))
            .collect()
    })
}

/// Concatenate per-chunk row runs in chunk order.
fn concat(mut parts: Vec<Vec<Row>>) -> Vec<Row> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    parts.into_iter().flatten().collect()
}

/// Filter a table's live rows with the full predicate: workers take
/// contiguous runs of the row-id-ordered scan and clone only what passes.
pub(super) fn filter_scan(
    data: &TableData,
    cols: &[ScopeCol],
    pred: &Expr,
    workers: usize,
) -> DbResult<Vec<Row>> {
    let refs: Vec<&Row> = data.iter().map(|(_, r)| r).collect();
    chunked(refs, workers, |part| {
        let mut kept = Vec::new();
        for row in part {
            if eval::row_matches(cols, pred, row)? {
                kept.push(row.clone());
            }
        }
        Ok(kept)
    })
    .map(concat)
}

/// Filter already-materialized rows (post-join WHERE, index residual).
pub(super) fn filter_rows(
    rows: Vec<Row>,
    cols: &[ScopeCol],
    pred: &Expr,
    workers: usize,
) -> DbResult<Vec<Row>> {
    chunked(rows, workers, |part| eval::filter_rows(part, cols, pred)).map(concat)
}

/// Group rows by the GROUP BY keys: each worker groups one contiguous
/// chunk, and the per-chunk maps merge in chunk order so rows within a
/// group keep scan order (float aggregate accumulation order — and thus
/// exact results — match the sequential pass).
pub(super) fn group_rows(
    rows: Vec<Row>,
    cols: &[ScopeCol],
    group_by: &[Expr],
    workers: usize,
) -> DbResult<BTreeMap<Key, Vec<Row>>> {
    let mut maps = chunked(rows, workers, |part| eval::group_rows(part, cols, group_by))?;
    let mut groups = maps.remove(0);
    for map in maps {
        for (key, part_rows) in map {
            groups.entry(key).or_default().extend(part_rows);
        }
    }
    Ok(groups)
}

/// Probe a built hash join with contiguous runs of the left rows.
pub(super) fn hash_probe(
    join: &eval::HashJoin<'_>,
    left_rows: &[Row],
    workers: usize,
) -> DbResult<Vec<Row>> {
    chunked(left_rows.iter().collect(), workers, |part| join.probe(part)).map(concat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use crate::value::Value;
    use sqlkit::ast::{JoinKind, Select, Statement};

    const WIDTHS: [usize; 3] = [1, 2, 4];
    /// Input rows: chunks of 8204, 4102 and 2051 at the three widths.
    const N: i64 = 8204;

    fn select(sql: &str) -> Select {
        match sqlkit::parse_statement(sql).unwrap() {
            Statement::Select(sel) => sel,
            _ => panic!("expected SELECT"),
        }
    }

    fn cols(binding: &str) -> Vec<ScopeCol> {
        ["id", "g", "x"]
            .iter()
            .map(|n| ScopeCol {
                binding: Some(binding.to_owned()),
                name: (*n).to_owned(),
            })
            .collect()
    }

    /// `n` rows `(i, i % 7, i / 2.0)`.
    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Float(i as f64 / 2.0),
                ]
            })
            .collect()
    }

    #[test]
    fn chunks_are_contiguous_ordered_and_the_earliest_error_wins() {
        let items: Vec<i64> = (0..N).collect();
        for workers in WIDTHS {
            let parts = chunked(items.clone(), workers, Ok).unwrap();
            assert_eq!(parts.len(), workers);
            assert_eq!(parts.concat(), items);
        }
        // Never more chunks than items, and no thread for an empty input.
        assert_eq!(chunked(vec![7, 8], 4, Ok).unwrap(), [[7], [8]]);
        assert_eq!(chunked(Vec::<i64>::new(), 4, Ok).unwrap(), [[]]);
        // Item 3000 (chunk 1 of 2, chunk 2 of 4) and item 7000 (a later
        // chunk at either width) both fail; the earlier row's error is the
        // one reported.
        for workers in WIDTHS {
            let err = chunked(items.clone(), workers, |part: Vec<i64>| {
                match part.iter().find(|&&i| i == 3000 || i == 7000) {
                    Some(i) => Err(DbError::Execution(format!("bad item {i}"))),
                    None => Ok(part),
                }
            })
            .unwrap_err();
            assert_eq!(err.to_string(), "execution error: bad item 3000");
        }
    }

    #[test]
    fn an_expired_deadline_stops_at_the_first_chunk_start() {
        let _expired = deadline::scope(Some(std::time::Instant::now()));
        let started = std::sync::atomic::AtomicUsize::new(0);
        for workers in WIDTHS {
            let items: Vec<i64> = (0..N).collect();
            let err = chunked(items, workers, |part| {
                started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(part)
            })
            .unwrap_err();
            assert_eq!(err, DbError::DeadlineExceeded, "{workers} workers");
        }
        assert_eq!(started.into_inner(), 0, "no chunk ran its work");
    }

    #[test]
    fn operators_match_their_sequential_kernels_at_every_width() {
        let cols = cols("t");
        let sel = select("SELECT g FROM t WHERE x > 3.0 AND g <> 2 GROUP BY g, id % 2");
        let pred = sel.where_clause.as_ref().unwrap();
        let input = rows(N);
        let mut data = TableData::default();
        for row in &input {
            data.insert(row.clone());
        }
        let kept = eval::filter_rows(input.clone(), &cols, pred).unwrap();
        let groups = eval::group_rows(input.clone(), &cols, &sel.group_by).unwrap();
        // LEFT-join `input` to its first 40 rows on g = g with a residual, so
        // the g = 2 rows (rejected by the residual) null-extend.
        let on = select("SELECT * FROM t WHERE l.g = r.g AND r.g <> 2 AND r.id < 20");
        let on = on.where_clause.as_ref().unwrap();
        let both = [self::cols("l"), self::cols("r")].concat();
        let matches = |combined: &Row| eval::row_matches(&both, on, combined);
        let right = &input[..40];
        let join = eval::HashJoin::build(right, &[1], &[1], Some(3), &matches);
        let joined = join.probe(&input).unwrap();
        assert_eq!(
            joined,
            eval::nl_join_rows(&both, &input, right, 3, JoinKind::Left, Some(on)).unwrap()
        );
        for workers in WIDTHS {
            assert_eq!(filter_scan(&data, &cols, pred, workers).unwrap(), kept);
            assert_eq!(
                filter_rows(input.clone(), &cols, pred, workers).unwrap(),
                kept
            );
            assert_eq!(
                group_rows(input.clone(), &cols, &sel.group_by, workers).unwrap(),
                groups
            );
            assert_eq!(hash_probe(&join, &input, workers).unwrap(), joined);
        }
    }

    #[test]
    fn operator_errors_surface_in_row_order() {
        // Row 3000 divides by zero (chunk 1 of 2, chunk 2 of 4); row 7000 (a
        // later chunk at either width) fails on a type error. Every width
        // must report row 3000's error, as the sequential kernel does.
        let cols = cols("t");
        let sel = select(
            "SELECT g FROM t \
             WHERE CASE WHEN id = 7000 THEN id + 'a' ELSE 10 / (id - 3000) END > 0",
        );
        let pred = sel.where_clause.as_ref().unwrap();
        let input = rows(N);
        let expect = eval::filter_rows(input.clone(), &cols, pred)
            .unwrap_err()
            .to_string();
        assert!(expect.contains("zero"), "{expect}");
        for workers in WIDTHS {
            let got = filter_rows(input.clone(), &cols, pred, workers).unwrap_err();
            assert_eq!(got.to_string(), expect, "{workers} workers");
        }
    }
}
