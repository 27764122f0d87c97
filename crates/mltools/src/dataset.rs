//! Tabular datasets exchanged between ML tools.
//!
//! Tools accept data as JSON row arrays — exactly the shape the database
//! `select` tool produces — with mixed numeric and categorical (string)
//! cells. [`Dataset::from_rows`] splits off a numeric target column and
//! one-hot encodes categorical features deterministically.

use std::collections::BTreeSet;
use toolproto::Json;

/// One categorical column's encoding: its raw index and the category list
/// (sorted; one one-hot feature per category, in order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TextCol {
    /// Index into the raw rows.
    pub index: usize,
    /// Sorted category values.
    pub categories: Vec<String>,
}

/// The feature-encoding recipe derived at training time. Models carry it so
/// prediction re-encodes new data identically — even when the new data's
/// category domain differs (unseen categories encode to all-zeros).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EncodingSpec {
    /// Raw row width the recipe expects (including the target column).
    pub width: usize,
    /// Categorical columns and their domains.
    pub(crate) text_cols: Vec<TextCol>,
}

/// A fully numeric feature matrix plus target vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, row-major.
    pub x: Vec<Vec<f64>>,
    /// Target values, parallel to `x`.
    pub y: Vec<f64>,
    /// Feature names after encoding (one-hot columns are `col=value`).
    pub feature_names: Vec<String>,
    /// The encoding recipe used.
    pub encoding: EncodingSpec,
}

impl Dataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.feature_names.len()
    }

    /// Build from JSON rows. `target` is a column index into the raw rows;
    /// it must be numeric in every row. String feature columns are one-hot
    /// encoded (categories sorted for determinism); numeric cells pass
    /// through; NULLs become 0.0 (numeric) or their own `col=NULL` category.
    pub fn from_rows(rows: &[Json], target: usize) -> Result<Dataset, String> {
        if rows.is_empty() {
            return Err("dataset is empty".into());
        }
        let width = rows[0]
            .as_array()
            .ok_or_else(|| "rows must be arrays".to_string())?
            .len();
        if target >= width {
            return Err(format!(
                "target index {target} out of range for {width}-column rows"
            ));
        }
        // Determine column kinds and categorical domains.
        let mut is_text = vec![false; width];
        let mut domains: Vec<BTreeSet<String>> = vec![BTreeSet::new(); width];
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| "rows must be arrays".to_string())?;
            if cells.len() != width {
                return Err("ragged rows".into());
            }
            for (i, cell) in cells.iter().enumerate() {
                match cell {
                    Json::Str(s) => {
                        is_text[i] = true;
                        domains[i].insert(s.clone());
                    }
                    Json::Null if is_text[i] => {
                        domains[i].insert("NULL".into());
                    }
                    _ => {}
                }
            }
        }
        if is_text[target] {
            return Err("target column must be numeric".into());
        }
        let spec = EncodingSpec {
            width,
            text_cols: (0..width)
                .filter(|&i| is_text[i] && i != target)
                .map(|i| TextCol {
                    index: i,
                    categories: domains[i].iter().cloned().collect(),
                })
                .collect(),
        };
        Self::encode_with(rows, target, &spec)
    }

    /// Encode rows with a fixed recipe (training-time spec). Categories not
    /// in the spec encode to all-zeros; this keeps prediction-time feature
    /// widths identical to training even on shifted data.
    pub fn encode_with(
        rows: &[Json],
        target: usize,
        spec: &EncodingSpec,
    ) -> Result<Dataset, String> {
        if target >= spec.width {
            return Err(format!(
                "target index {target} out of range for {}-column encoding",
                spec.width
            ));
        }
        let text_of = |i: usize| spec.text_cols.iter().find(|t| t.index == i);
        // Feature names.
        let mut feature_names = Vec::new();
        for i in 0..spec.width {
            if i == target {
                continue;
            }
            match text_of(i) {
                Some(tc) => {
                    for v in &tc.categories {
                        feature_names.push(format!("c{i}={v}"));
                    }
                }
                None => feature_names.push(format!("c{i}")),
            }
        }
        // Encode rows.
        let mut x = Vec::with_capacity(rows.len());
        let mut y = Vec::with_capacity(rows.len());
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| "rows must be arrays".to_string())?;
            if cells.len() != spec.width {
                return Err(format!(
                    "row has {} cells, encoding expects {}",
                    cells.len(),
                    spec.width
                ));
            }
            let ty = cells[target]
                .as_f64()
                .or(if cells[target].is_null() {
                    Some(0.0)
                } else {
                    None
                })
                .ok_or_else(|| "non-numeric target cell".to_string())?;
            y.push(ty);
            let mut feats = Vec::with_capacity(feature_names.len());
            for (i, cell) in cells.iter().enumerate() {
                if i == target {
                    continue;
                }
                match text_of(i) {
                    Some(tc) => {
                        let label = match cell {
                            Json::Str(s) => s.clone(),
                            Json::Null => "NULL".into(),
                            other => other.to_compact(),
                        };
                        for v in &tc.categories {
                            feats.push(if *v == label { 1.0 } else { 0.0 });
                        }
                    }
                    None => feats.push(cell.as_f64().unwrap_or(0.0)),
                }
            }
            x.push(feats);
        }
        Ok(Dataset {
            x,
            y,
            feature_names,
            encoding: spec.clone(),
        })
    }
}

/// Extract the row array from a tool argument that may be either a bare
/// array or a `{"rows": …}` query result.
pub(crate) fn rows_of(value: &Json) -> Result<&[Json], String> {
    if let Some(rows) = value.as_array() {
        return Ok(rows);
    }
    value
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| "expected an array of rows or a {\"rows\": …} object".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Json> {
        vec![
            Json::parse(r#"[1.0, "a", 10]"#).unwrap(),
            Json::parse(r#"[2.0, "b", 20]"#).unwrap(),
            Json::parse(r#"[3.0, "a", 30]"#).unwrap(),
        ]
    }

    #[test]
    fn encodes_one_hot_and_splits_target() {
        let d = Dataset::from_rows(&rows(), 2).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.feature_names, vec!["c0", "c1=a", "c1=b"]);
        assert_eq!(d.x[0], vec![1.0, 1.0, 0.0]);
        assert_eq!(d.x[1], vec![2.0, 0.0, 1.0]);
        assert_eq!(d.y, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Dataset::from_rows(&[], 0).is_err());
        assert!(Dataset::from_rows(&rows(), 9).is_err());
        assert!(Dataset::from_rows(&rows(), 1).is_err(), "text target");
        let ragged = vec![Json::parse("[1, 2]").unwrap(), Json::parse("[1]").unwrap()];
        assert!(Dataset::from_rows(&ragged, 0).is_err());
    }

    #[test]
    fn null_numeric_cells_become_zero() {
        let rows = vec![
            Json::parse("[null, 5]").unwrap(),
            Json::parse("[2, 6]").unwrap(),
        ];
        let d = Dataset::from_rows(&rows, 1).unwrap();
        assert_eq!(d.x[0][0], 0.0);
    }

    #[test]
    fn rows_of_accepts_both_shapes() {
        let bare = Json::parse("[[1], [2]]").unwrap();
        assert_eq!(rows_of(&bare).unwrap().len(), 2);
        let wrapped = Json::parse(r#"{"rows": [[1]]}"#).unwrap();
        assert_eq!(rows_of(&wrapped).unwrap().len(), 1);
        assert!(rows_of(&Json::num(3.0)).is_err());
    }
}
