//! Random-forest regression: CART trees over bootstrap samples with feature
//! bagging.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A regression tree node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TreeNode {
    /// Leaf prediction.
    Leaf(f64),
    /// Internal split: `feature <= threshold` goes left.
    Split {
        /// Feature index.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Left subtree (≤).
        left: Box<TreeNode>,
        /// Right subtree (>).
        right: Box<TreeNode>,
    },
}

impl TreeNode {
    /// Predict one row.
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        match self {
            TreeNode::Leaf(v) => *v,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                    left.predict_row(row)
                } else {
                    right.predict_row(row)
                }
            }
        }
    }
}

/// Hyperparameters for forest training.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub(crate) min_samples_split: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 10,
            max_depth: 8,
            min_samples_split: 4,
            seed: 42,
        }
    }
}

/// A trained forest.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Forest {
    /// The ensemble.
    pub trees: Vec<TreeNode>,
}

impl Forest {
    /// Predict one row (mean over trees).
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict a matrix.
    pub(crate) fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_row(r)).collect()
    }
}

/// Train a forest.
pub(crate) fn fit(x: &[Vec<f64>], y: &[f64], params: ForestParams) -> Result<Forest, String> {
    if x.is_empty() || x.len() != y.len() {
        return Err("empty or mismatched training data".into());
    }
    let n = x.len();
    let d = x[0].len();
    let mut rng = SmallRng::seed_from_u64(params.seed);
    // Feature bag size: d/3, at least 1 (regression heuristic).
    let bag = (d / 3).max(1);
    let mut trees = Vec::with_capacity(params.n_trees);
    for _ in 0..params.n_trees {
        // Bootstrap sample.
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let tree = build_tree(x, y, &indices, 0, bag, &params, &mut rng);
        trees.push(tree);
    }
    Ok(Forest { trees })
}

fn mean(y: &[f64], idx: &[usize]) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
}

fn sse(y: &[f64], idx: &[usize]) -> f64 {
    let m = mean(y, idx);
    idx.iter().map(|&i| (y[i] - m).powi(2)).sum()
}

fn build_tree(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    depth: usize,
    bag: usize,
    params: &ForestParams,
    rng: &mut SmallRng,
) -> TreeNode {
    if depth >= params.max_depth || idx.len() < params.min_samples_split {
        return TreeNode::Leaf(mean(y, idx));
    }
    let d = x[0].len();
    // Sample candidate features without replacement.
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..bag.min(d) {
        let j = rng.gen_range(i..d);
        features.swap(i, j);
    }
    features.truncate(bag.min(d));

    let parent_sse = sse(y, idx);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, total_sse)
    for &f in &features {
        // Candidate thresholds: midpoints of sorted distinct values
        // (subsampled for speed on large nodes).
        let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let step = (vals.len() / 16).max(1);
        for w in vals.windows(2).step_by(step) {
            let threshold = (w[0] + w[1]) / 2.0;
            let (left, right): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| x[i][f] <= threshold);
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let total = sse(y, &left) + sse(y, &right);
            if best.as_ref().is_none_or(|(_, _, b)| total < *b) {
                best = Some((f, threshold, total));
            }
        }
    }
    match best {
        Some((feature, threshold, total)) if total < parent_sse - 1e-12 => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| x[i][feature] <= threshold);
            TreeNode::Split {
                feature,
                threshold,
                left: Box::new(build_tree(x, y, &left_idx, depth + 1, bag, params, rng)),
                right: Box::new(build_tree(x, y, &right_idx, depth + 1, bag, params, rng)),
            }
        }
        _ => TreeNode::Leaf(mean(y, idx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn synthetic(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
            .collect();
        // Non-linear target: step + interaction.
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 5.0 { 50.0 } else { 10.0 } + r[0] * r[1] * 0.5)
            .collect();
        (x, y)
    }

    #[test]
    fn learns_nonlinear_structure() {
        let (x, y) = synthetic(400);
        let forest = fit(&x, &y, ForestParams::default()).unwrap();
        let preds = forest.predict(&x);
        let r2 = metrics::r2(&y, &preds);
        assert!(r2 > 0.85, "forest should fit the step function, r2={r2}");
    }

    #[test]
    fn forest_beats_single_shallow_tree() {
        let (x, y) = synthetic(400);
        let one = fit(
            &x,
            &y,
            ForestParams {
                n_trees: 1,
                max_depth: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let many = fit(
            &x,
            &y,
            ForestParams {
                n_trees: 20,
                max_depth: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let r2_one = metrics::r2(&y, &one.predict(&x));
        let r2_many = metrics::r2(&y, &many.predict(&x));
        assert!(r2_many > r2_one, "{r2_many} vs {r2_one}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = synthetic(100);
        let a = fit(&x, &y, ForestParams::default()).unwrap();
        let b = fit(&x, &y, ForestParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn constant_target_yields_leaves() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 20];
        let forest = fit(&x, &y, ForestParams::default()).unwrap();
        assert!((forest.predict_row(&[3.0]) - 7.0).abs() < 1e-9);
        assert!(forest.trees.iter().all(|t| matches!(t, TreeNode::Leaf(_))));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(fit(&[], &[], ForestParams::default()).is_err());
    }
}
