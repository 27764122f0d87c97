//! The NL2ML benchmark: 30 end-to-end model-training tasks over the housing
//! table, at three complexity levels (paper §3.1):
//!
//! * **Level 1** — basic data querying and model training (one proxy-unit
//!   layer: `select → train`);
//! * **Level 2** — additional data processing (two layers:
//!   `select → normalize → train`);
//! * **Level 3** — further house-price prediction (three layers:
//!   `select → normalize → train → predict`).

use llmsim::{DataSource, PipelineStage, TaskSpec};
use toolproto::Json;

/// Feature subsets the tasks draw from. Each entry: (description, columns);
/// the target `median_house_value` is appended automatically.
const FEATURE_SETS: [(&str, &[&str]); 5] = [
    ("income and age", &["median_income", "housing_median_age"]),
    ("location", &["longitude", "latitude", "median_income"]),
    (
        "household structure",
        &[
            "total_rooms",
            "total_bedrooms",
            "households",
            "median_income",
        ],
    ),
    ("demand", &["population", "households", "median_income"]),
    (
        "location and proximity",
        &["latitude", "median_income", "ocean_proximity"],
    ),
];

fn select_sql(features: &[&str]) -> String {
    format!(
        "SELECT {}, median_house_value FROM house",
        features.join(", ")
    )
}

fn trainer(i: usize) -> (&'static str, Vec<(String, Json)>) {
    if i.is_multiple_of(2) {
        ("train_linear_regression", vec![])
    } else {
        (
            "train_random_forest",
            vec![
                ("n_trees".to_string(), Json::num(8.0)),
                ("max_depth".to_string(), Json::num(6.0)),
            ],
        )
    }
}

fn norm_tool(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "normalize_zscore"
    } else {
        "normalize_minmax"
    }
}

/// Generate the 30 NL2ML tasks (10 per level).
pub(crate) fn tasks() -> Vec<TaskSpec> {
    let mut out = Vec::with_capacity(30);
    // Level 1: select → train.
    for i in 0..10 {
        let (desc, features) = FEATURE_SETS[i % FEATURE_SETS.len()];
        let target = features.len(); // target appended last
        let (tool, mut static_args) = trainer(i);
        static_args.push(("target".into(), Json::num(target as f64)));
        let model_name = if tool.contains("linear") {
            "linear regression"
        } else {
            "random forest"
        };
        out.push(TaskSpec::pipeline(
            format!("nl2ml-l1-{i:02}"),
            format!(
                "Train a {model_name} model that predicts median house value from the {desc} \
                 columns of the house table, and report its training error."
            ),
            vec![PipelineStage {
                tool: tool.into(),
                data_args: vec![("data".into(), DataSource::Sql(select_sql(features)))],
                static_args,
            }],
        ));
    }
    // Level 2: select → normalize → train.
    for i in 0..10 {
        let (desc, features) = FEATURE_SETS[(i + 2) % FEATURE_SETS.len()];
        let target = features.len();
        let (tool, mut static_args) = trainer(i + 1);
        static_args.push(("target".into(), Json::num(target as f64)));
        let norm = norm_tool(i);
        out.push(TaskSpec::pipeline(
            format!("nl2ml-l2-{i:02}"),
            format!(
                "Extract the {desc} columns of the house table, apply {} normalization to the \
                 features (leaving the target untouched), then train a model predicting median \
                 house value and report its training error.",
                if norm.contains("zscore") {
                    "z-score"
                } else {
                    "min-max"
                }
            ),
            vec![
                PipelineStage {
                    tool: norm.into(),
                    data_args: vec![("data".into(), DataSource::Sql(select_sql(features)))],
                    static_args: vec![("exclude".into(), Json::num(target as f64))],
                },
                PipelineStage {
                    tool: tool.into(),
                    data_args: vec![("data".into(), DataSource::Stage(0))],
                    static_args,
                },
            ],
        ));
    }
    // Level 3: three layers of proxy-unit abstraction —
    // predict(train(normalize(select)), normalize(select)): train on the
    // normalized older housing stock, predict the normalized newer slice.
    for i in 0..10 {
        let (desc, features) = FEATURE_SETS[(i + 4) % FEATURE_SETS.len()];
        let target = features.len();
        let (tool, mut trainer_args) = trainer(i);
        trainer_args.push(("target".into(), Json::num(target as f64)));
        let norm = norm_tool(i + 1);
        let train_sql = format!(
            "{} WHERE housing_median_age > {}",
            select_sql(features),
            10 + i
        );
        let eval_sql = format!(
            "{} WHERE housing_median_age <= {}",
            select_sql(features),
            10 + i
        );
        out.push(TaskSpec::pipeline(
            format!("nl2ml-l3-{i:02}"),
            format!(
                "Using the {desc} columns of the house table: normalize the features, train a \
                 model predicting median house value on the older housing stock, then predict \
                 prices for the (likewise normalized) newer housing stock and report the \
                 prediction error."
            ),
            vec![
                PipelineStage {
                    tool: norm.into(),
                    data_args: vec![("data".into(), DataSource::Sql(train_sql))],
                    static_args: vec![("exclude".into(), Json::num(target as f64))],
                },
                PipelineStage {
                    tool: tool.into(),
                    data_args: vec![("data".into(), DataSource::Stage(0))],
                    static_args: trainer_args,
                },
                PipelineStage {
                    tool: norm.into(),
                    data_args: vec![("data".into(), DataSource::Sql(eval_sql))],
                    static_args: vec![("exclude".into(), Json::num(target as f64))],
                },
                PipelineStage {
                    tool: "predict".into(),
                    data_args: vec![
                        ("model".into(), DataSource::Stage(1)),
                        ("data".into(), DataSource::Stage(2)),
                    ],
                    static_args: vec![("target".into(), Json::num(target as f64))],
                },
            ],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::TaskKind;

    /// The proxy-unit nesting level of a task (1–3), from its id.
    fn level_of(task: &TaskSpec) -> usize {
        if task.id.contains("-l1-") {
            1
        } else if task.id.contains("-l2-") {
            2
        } else {
            3
        }
    }

    /// The proxy-unit nesting depth a task's pipeline folds into: the last
    /// stage's chain of nested producers. Level 3's two stages fold into a
    /// depth-3 unit (predict ← train ← select).
    fn proxy_depth(task: &TaskSpec) -> usize {
        fn stage_depth(task: &TaskSpec, idx: usize) -> usize {
            1 + task.pipeline[idx]
                .data_args
                .iter()
                .map(|(_, src)| match src {
                    DataSource::Sql(_) => 0,
                    DataSource::Stage(i) => stage_depth(task, *i),
                })
                .max()
                .unwrap_or(0)
        }
        if task.pipeline.is_empty() {
            0
        } else {
            stage_depth(task, task.pipeline.len() - 1)
        }
    }

    #[test]
    fn thirty_tasks_ten_per_level() {
        let all = tasks();
        assert_eq!(all.len(), 30);
        for l in 1..=3 {
            assert_eq!(all.iter().filter(|t| level_of(t) == l).count(), 10);
        }
        assert!(all.iter().all(|t| t.kind == TaskKind::Pipeline));
    }

    #[test]
    fn proxy_depths_match_levels() {
        // The paper's levels are layers of proxy-unit abstraction; the
        // folded nesting depth must equal the level.
        for t in tasks() {
            assert_eq!(proxy_depth(&t), level_of(&t), "{}", t.id);
        }
    }

    #[test]
    fn level3_predict_consumes_model_and_fresh_data() {
        let all = tasks();
        let t = all.iter().find(|t| level_of(t) == 3).unwrap();
        let predict = t.pipeline.last().unwrap();
        assert_eq!(predict.tool, "predict");
        assert!(predict
            .data_args
            .iter()
            .any(|(n, s)| n == "model" && matches!(s, DataSource::Stage(1))));
        assert!(predict
            .data_args
            .iter()
            .any(|(n, s)| n == "data" && matches!(s, DataSource::Stage(2))));
    }

    #[test]
    fn ids_are_unique() {
        let all = tasks();
        let mut ids: Vec<&str> = all.iter().map(|t| t.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 30);
    }
}
