//! Correctness evaluation: did the agent produce the gold answer / the gold
//! database state?

use minidb::{Database, QueryResult, Value};
use toolproto::Json;

/// Compare a read task's answer (the agent's final query result JSON) with
/// the gold result, as order-insensitive row multisets with float tolerance.
pub(crate) fn read_correct(answer: Option<&Json>, gold: &QueryResult) -> bool {
    let Some(answer) = answer else {
        return false;
    };
    let Some(rows) = answer.get("rows").and_then(Json::as_array) else {
        return false;
    };
    let QueryResult::Rows {
        rows: gold_rows, ..
    } = gold
    else {
        return false;
    };
    if rows.len() != gold_rows.len() {
        return false;
    }
    // Object rows (the verbose toolkit shape) are positionalized using the
    // result's column order.
    let columns: Vec<&str> = answer
        .get("columns")
        .and_then(Json::as_array)
        .map(|cs| cs.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    let mut got: Vec<Vec<String>> = rows
        .iter()
        .map(|r| normalize_json_row(r, &columns))
        .collect();
    let mut want: Vec<Vec<String>> = gold_rows.iter().map(|r| normalize_value_row(r)).collect();
    got.sort();
    want.sort();
    got == want
}

fn normalize_json_row(row: &Json, columns: &[&str]) -> Vec<String> {
    if let Some(obj) = row.as_object() {
        if !columns.is_empty() {
            return columns
                .iter()
                .map(|c| {
                    obj.get(*c)
                        .map_or_else(|| "NULL".into(), normalize_json_cell)
                })
                .collect();
        }
    }
    match row.as_array() {
        Some(cells) => cells.iter().map(normalize_json_cell).collect(),
        None => vec![normalize_json_cell(row)],
    }
}

fn normalize_json_cell(cell: &Json) -> String {
    match cell {
        Json::Number(n) => format_num(*n),
        Json::Null => "NULL".into(),
        Json::Bool(b) => b.to_string(),
        Json::Str(s) => s.clone(),
        other => other.to_compact(),
    }
}

fn normalize_value_row(row: &[Value]) -> Vec<String> {
    row.iter()
        .map(|v| match v {
            Value::Null => "NULL".into(),
            Value::Int(i) => format_num(*i as f64),
            Value::Float(f) => format_num(*f),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        })
        .collect()
}

/// Canonical numeric rendering with tolerance: round to 6 significant-ish
/// decimal places so float noise doesn't flip verdicts.
fn format_num(n: f64) -> String {
    if !n.is_finite() {
        return "NaN".into();
    }
    let rounded = (n * 1e6).round() / 1e6;
    if rounded.fract() == 0.0 && rounded.abs() < 9.0e15 {
        format!("{}", rounded as i64)
    } else {
        format!("{rounded}")
    }
}

/// Compare the contents of `tables` between the agent-run database and the
/// gold database, order-insensitively.
pub(crate) fn write_correct(agent_db: &Database, gold_db: &Database, tables: &[String]) -> bool {
    for table in tables {
        let a = table_contents(agent_db, table);
        let g = table_contents(gold_db, table);
        if a != g {
            return false;
        }
    }
    true
}

fn table_contents(db: &Database, table: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = db.with_state(|state| {
        state
            .data
            .get(table)
            .map(|data| {
                data.iter()
                    .map(|(_, row)| normalize_value_row(row))
                    .collect()
            })
            .unwrap_or_default()
    });
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_db(extra: &[&str]) -> Database {
        let db = Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        s.execute_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        for sql in extra {
            s.execute_sql(sql).unwrap();
        }
        db
    }

    #[test]
    fn read_comparison_order_insensitive() {
        let gold = QueryResult::Rows {
            columns: vec!["v".into()],
            rows: vec![vec![Value::Text("a".into())], vec![Value::Text("b".into())]],
        };
        let answer = Json::parse(r#"{"rows": [["b"], ["a"]]}"#).unwrap();
        assert!(read_correct(Some(&answer), &gold));
        let wrong = Json::parse(r#"{"rows": [["a"], ["c"]]}"#).unwrap();
        assert!(!read_correct(Some(&wrong), &gold));
        assert!(!read_correct(None, &gold));
    }

    #[test]
    fn numeric_tolerance() {
        let gold = QueryResult::Rows {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Float(0.30000000000000004)]],
        };
        let answer = Json::parse(r#"{"rows": [[0.3]]}"#).unwrap();
        assert!(read_correct(Some(&answer), &gold));
        // Int/float unification.
        let gold = QueryResult::Rows {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(5)]],
        };
        let answer = Json::parse(r#"{"rows": [[5.0]]}"#).unwrap();
        assert!(read_correct(Some(&answer), &gold));
    }

    #[test]
    fn row_count_mismatch_fails() {
        let gold = QueryResult::Rows {
            columns: vec!["v".into()],
            rows: vec![vec![Value::Int(1)]],
        };
        let answer = Json::parse(r#"{"rows": [[1], [1]]}"#).unwrap();
        assert!(!read_correct(Some(&answer), &gold));
    }

    #[test]
    fn write_comparison_detects_divergence() {
        let a = mini_db(&["INSERT INTO t VALUES (3, 'c')"]);
        let b = mini_db(&["INSERT INTO t VALUES (3, 'c')"]);
        let c = mini_db(&["INSERT INTO t VALUES (3, 'x')"]);
        let tables = vec!["t".to_string()];
        assert!(write_correct(&a, &b, &tables));
        assert!(!write_correct(&a, &c, &tables));
    }

    #[test]
    fn write_comparison_ignores_row_order() {
        let a = mini_db(&[]);
        let b = mini_db(&[]);
        // Delete and re-insert on one side: same contents, different rowids.
        let mut s = a.session("admin").unwrap();
        s.execute_sql("DELETE FROM t WHERE id = 1").unwrap();
        s.execute_sql("INSERT INTO t VALUES (1, 'a')").unwrap();
        assert!(write_correct(&a, &b, &["t".to_string()]));
    }
}
