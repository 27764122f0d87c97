//! Linear regression via ridge-regularized normal equations.

/// A trained linear model: `ŷ = intercept + Σ wᵢ xᵢ`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept term.
    pub(crate) intercept: f64,
}

impl LinearModel {
    /// Predict one row.
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        self.intercept
            + self
                .weights
                .iter()
                .zip(row)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }

    /// Predict a matrix.
    pub fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_row(r)).collect()
    }
}

/// Fit by solving `(XᵀX + λI) w = Xᵀy` with Gaussian elimination. A small
/// ridge term keeps collinear one-hot blocks solvable.
pub fn fit(x: &[Vec<f64>], y: &[f64], ridge: f64) -> Result<LinearModel, String> {
    if x.is_empty() || x.len() != y.len() {
        return Err("empty or mismatched training data".into());
    }
    let n = x.len();
    let d = x[0].len() + 1; // +1 for the intercept column
                            // Build the augmented normal-equation system A|b where A = XᵀX + λI.
    let mut a = vec![vec![0.0f64; d + 1]; d];
    let row_aug = |row: &[f64]| -> Vec<f64> {
        let mut r = Vec::with_capacity(d);
        r.push(1.0);
        r.extend_from_slice(row);
        r
    };
    for (row, &target) in x.iter().zip(y) {
        let r = row_aug(row);
        if r.len() != d {
            return Err("ragged feature rows".into());
        }
        for i in 0..d {
            for j in 0..d {
                a[i][j] += r[i] * r[j];
            }
            a[i][d] += r[i] * target;
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += ridge * n as f64 / d as f64;
    }
    // Gaussian elimination with partial pivoting.
    #[allow(clippy::needless_range_loop)] // row/column index symmetry is clearer
    for col in 0..d {
        let pivot = (col..d)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-12 {
            return Err("singular normal-equation matrix".into());
        }
        a.swap(col, pivot);
        let div = a[col][col];
        for j in col..=d {
            a[col][j] /= div;
        }
        for i in 0..d {
            if i != col {
                let factor = a[i][col];
                if factor != 0.0 {
                    for j in col..=d {
                        a[i][j] -= factor * a[col][j];
                    }
                }
            }
        }
    }
    let solution: Vec<f64> = (0..d).map(|i| a[i][d]).collect();
    Ok(LinearModel {
        intercept: solution[0],
        weights: solution[1..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 3 + 2a - b
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        let m = fit(&x, &y, 1e-9).unwrap();
        assert!((m.intercept - 3.0).abs() < 1e-6, "{}", m.intercept);
        assert!((m.weights[0] - 2.0).abs() < 1e-6);
        assert!((m.weights[1] + 1.0).abs() < 1e-6);
        let preds = m.predict(&x);
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 1e-6);
        }
    }

    #[test]
    fn handles_collinear_one_hot_features() {
        // Two one-hot columns that always sum to 1 (collinear with the
        // intercept) — plain normal equations would be singular.
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let a = f64::from(i % 2 == 0);
                vec![a, 1.0 - a, i as f64]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 5.0 * r[2] + 2.0 * r[0]).collect();
        let m = fit(&x, &y, 1e-6).unwrap();
        let preds = m.predict(&x);
        for (p, t) in preds.iter().zip(&y) {
            assert!((p - t).abs() < 0.1, "{p} vs {t}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(fit(&[], &[], 0.0).is_err());
        assert!(fit(&[vec![1.0]], &[1.0, 2.0], 0.0).is_err());
    }
}
