//! `toolproto` wrappers: the domain-specific MCP-style tool server the NL2ML
//! benchmark plugs into agents (paper §3.4 equips agents with "extra tools
//! for data processing and machine learning model training and inference").
//!
//! Data flows between these tools as JSON row arrays — the same shape the
//! database `select` tool emits — so they compose with BridgeScope proxy
//! units out of the box.

use crate::dataset::{rows_of, Dataset, EncodingSpec, TextCol};
use crate::forest::{self, Forest, ForestParams, TreeNode};
use crate::linreg::{self, LinearModel};
use crate::metrics;
use crate::transform::{normalize_rows, train_test_split, NormKind};
use crate::trend;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use toolproto::{ArgSpec, ArgType, Args, FnTool, Json, Registry, Signature, ToolError, ToolOutput};

fn exec_err(e: impl std::fmt::Display) -> ToolError {
    ToolError::Execution(e.to_string())
}

/// Server-side store of trained models. Training tools return a compact
/// `model_ref` handle instead of dumping serialized trees into the caller's
/// context — the artifact pattern real MCP ML servers use. `predict`
/// resolves handles from the same store; full model JSON is still available
/// via `return_model: true` (and inline models are always accepted), so
/// models can also flow by value through proxy units when needed.
#[derive(Default)]
struct ModelStore {
    models: Mutex<BTreeMap<String, Json>>,
}

impl ModelStore {
    fn put(&self, model: Json) -> String {
        let mut models = self.models.lock().unwrap_or_else(PoisonError::into_inner);
        let id = format!("model-{}", models.len() + 1);
        models.insert(id.clone(), model);
        id
    }

    fn get(&self, id: &str) -> Option<Json> {
        let models = self.models.lock().unwrap_or_else(PoisonError::into_inner);
        models.get(id).cloned()
    }
}

// ---------------------------------------------------------------------------
// Model (de)serialization
// ---------------------------------------------------------------------------

fn encoding_to_json(spec: &EncodingSpec) -> Json {
    Json::object([
        ("width", Json::num(spec.width as f64)),
        (
            "text_cols",
            Json::array(spec.text_cols.iter().map(|tc| {
                Json::object([
                    ("index", Json::num(tc.index as f64)),
                    (
                        "categories",
                        Json::array(tc.categories.iter().map(|c| Json::str(c.clone()))),
                    ),
                ])
            })),
        ),
    ])
}

fn encoding_from_json(value: &Json) -> Option<EncodingSpec> {
    let enc = value.get("encoding")?;
    let width = enc.get("width")?.as_i64()? as usize;
    let mut text_cols = Vec::new();
    for tc in enc.get("text_cols")?.as_array()? {
        text_cols.push(TextCol {
            index: tc.get("index")?.as_i64()? as usize,
            categories: tc
                .get("categories")?
                .as_array()?
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect(),
        });
    }
    Some(EncodingSpec { width, text_cols })
}

fn linear_to_json(m: &LinearModel, ds: &Dataset) -> Json {
    Json::object([
        ("type", Json::str("linear_regression")),
        ("intercept", Json::num(m.intercept)),
        (
            "weights",
            Json::array(m.weights.iter().map(|w| Json::num(*w))),
        ),
        (
            "features",
            Json::array(ds.feature_names.iter().map(|f| Json::str(f.clone()))),
        ),
        ("encoding", encoding_to_json(&ds.encoding)),
    ])
}

fn tree_to_json(node: &TreeNode) -> Json {
    match node {
        TreeNode::Leaf(v) => Json::object([("leaf", Json::num(*v))]),
        TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        } => Json::object([
            ("feature", Json::num(*feature as f64)),
            ("threshold", Json::num(*threshold)),
            ("left", tree_to_json(left)),
            ("right", tree_to_json(right)),
        ]),
    }
}

fn tree_from_json(value: &Json) -> Result<TreeNode, ToolError> {
    if let Some(v) = value.get("leaf").and_then(Json::as_f64) {
        return Ok(TreeNode::Leaf(v));
    }
    let feature = value
        .get("feature")
        .and_then(Json::as_i64)
        .ok_or_else(|| exec_err("tree node needs 'leaf' or 'feature'"))? as usize;
    let threshold = value
        .get("threshold")
        .and_then(Json::as_f64)
        .ok_or_else(|| exec_err("tree split needs 'threshold'"))?;
    let left = tree_from_json(
        value
            .get("left")
            .ok_or_else(|| exec_err("tree split needs 'left'"))?,
    )?;
    let right = tree_from_json(
        value
            .get("right")
            .ok_or_else(|| exec_err("tree split needs 'right'"))?,
    )?;
    Ok(TreeNode::Split {
        feature,
        threshold,
        left: Box::new(left),
        right: Box::new(right),
    })
}

fn forest_to_json(f: &Forest, ds: &Dataset) -> Json {
    Json::object([
        ("type", Json::str("random_forest")),
        ("trees", Json::array(f.trees.iter().map(tree_to_json))),
        (
            "features",
            Json::array(ds.feature_names.iter().map(|f| Json::str(f.clone()))),
        ),
        ("encoding", encoding_to_json(&ds.encoding)),
    ])
}

/// A deserialized model of either kind.
enum Model {
    Linear(LinearModel),
    Forest(Forest),
}

impl Model {
    fn from_json(value: &Json) -> Result<(Model, usize), ToolError> {
        let n_features = value
            .get("features")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        match value.get("type").and_then(Json::as_str) {
            Some("linear_regression") => {
                let intercept = value
                    .get("intercept")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| exec_err("model needs 'intercept'"))?;
                let weights = value
                    .get("weights")
                    .and_then(Json::as_array)
                    .ok_or_else(|| exec_err("model needs 'weights'"))?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                Ok((
                    Model::Linear(LinearModel { intercept, weights }),
                    n_features,
                ))
            }
            Some("random_forest") => {
                let trees = value
                    .get("trees")
                    .and_then(Json::as_array)
                    .ok_or_else(|| exec_err("model needs 'trees'"))?
                    .iter()
                    .map(tree_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((Model::Forest(Forest { trees }), n_features))
            }
            other => Err(exec_err(format!("unknown model type {other:?}"))),
        }
    }

    fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        match self {
            Model::Linear(m) => m.predict(x),
            Model::Forest(f) => f.predict(x),
        }
    }
}

// ---------------------------------------------------------------------------
// Tool construction
// ---------------------------------------------------------------------------

fn data_arg() -> ArgSpec {
    ArgSpec::required(
        "data",
        ArgType::Any,
        "rows as an array of arrays, or a {\"rows\": …} query result",
    )
}

fn wrap_rows(rows: Vec<Json>) -> ToolOutput {
    let n = rows.len();
    ToolOutput::with_rows(Json::object([("rows", Json::Array(rows))]), n)
}

/// Build the full ML/data-processing tool registry. Each registry instance
/// has its own model store.
pub fn ml_registry() -> Registry {
    let store = Arc::new(ModelStore::default());
    let mut reg = Registry::new();

    reg.register_tool(FnTool::new(
        "normalize_zscore",
        "Z-score normalize the numeric columns of a dataset (optionally excluding the target \
         column). Returns the transformed rows.",
        Signature::new(vec![
            data_arg(),
            ArgSpec::optional(
                "exclude",
                ArgType::Integer,
                "column index to leave untouched (e.g. the target)",
                Json::Null,
            ),
        ]),
        |args: &Args| {
            let rows = rows_of(&args["data"]).map_err(exec_err)?;
            let exclude = args
                .get("exclude")
                .and_then(Json::as_i64)
                .map(|i| i as usize);
            let out = normalize_rows(rows, NormKind::ZScore, exclude).map_err(exec_err)?;
            Ok(wrap_rows(out))
        },
    ));

    reg.register_tool(FnTool::new(
        "normalize_minmax",
        "Min-max normalize the numeric columns of a dataset into [0, 1]. Returns the \
         transformed rows.",
        Signature::new(vec![
            data_arg(),
            ArgSpec::optional(
                "exclude",
                ArgType::Integer,
                "column index to leave untouched",
                Json::Null,
            ),
        ]),
        |args: &Args| {
            let rows = rows_of(&args["data"]).map_err(exec_err)?;
            let exclude = args
                .get("exclude")
                .and_then(Json::as_i64)
                .map(|i| i as usize);
            let out = normalize_rows(rows, NormKind::MinMax, exclude).map_err(exec_err)?;
            Ok(wrap_rows(out))
        },
    ));

    reg.register_tool(FnTool::new(
        "train_test_split",
        "Split a dataset into train and test partitions. Returns {\"train\": …, \"test\": …}.",
        Signature::new(vec![
            data_arg(),
            ArgSpec::optional(
                "test_ratio",
                ArgType::Number,
                "test fraction",
                Json::num(0.2),
            ),
            ArgSpec::optional("seed", ArgType::Integer, "shuffle seed", Json::num(42.0)),
        ]),
        |args: &Args| {
            let rows = rows_of(&args["data"]).map_err(exec_err)?;
            let ratio = args["test_ratio"].as_f64().unwrap_or(0.2);
            let seed = args["seed"].as_i64().unwrap_or(42) as u64;
            let (train, test) = train_test_split(rows, ratio, seed).map_err(exec_err)?;
            let n = train.len() + test.len();
            Ok(ToolOutput::with_rows(
                Json::object([
                    ("train", Json::object([("rows", Json::Array(train))])),
                    ("test", Json::object([("rows", Json::Array(test))])),
                ]),
                n,
            ))
        },
    ));

    let train_store = Arc::clone(&store);
    reg.register_tool(FnTool::new(
        "train_linear_regression",
        "Train a linear regression model predicting the column at index 'target'. Returns a \
         model_ref handle plus training RMSE and R² (pass return_model: true for the full \
         serialized model).",
        Signature::new(vec![
            data_arg(),
            ArgSpec::required("target", ArgType::Integer, "target column index"),
            ArgSpec::optional(
                "return_model",
                ArgType::Bool,
                "include the serialized model in the output",
                Json::Bool(false),
            ),
        ]),
        move |args: &Args| {
            let rows = rows_of(&args["data"]).map_err(exec_err)?;
            let target = args["target"]
                .as_i64()
                .ok_or_else(|| exec_err("bad target"))? as usize;
            let ds = Dataset::from_rows(rows, target).map_err(exec_err)?;
            let model = linreg::fit(&ds.x, &ds.y, 1e-6).map_err(exec_err)?;
            let preds = model.predict(&ds.x);
            let serialized = linear_to_json(&model, &ds);
            let mut fields: Vec<(String, Json)> = vec![
                (
                    "model_ref".into(),
                    Json::str(train_store.put(serialized.clone())),
                ),
                ("model_type".into(), Json::str("linear_regression")),
                ("train_rmse".into(), Json::num(metrics::rmse(&ds.y, &preds))),
                ("train_r2".into(), Json::num(metrics::r2(&ds.y, &preds))),
                ("n_rows".into(), Json::num(ds.len() as f64)),
            ];
            if args.get("return_model").and_then(Json::as_bool) == Some(true) {
                fields.push(("model".into(), serialized));
            }
            // A model summary, not data: explicitly zero bulk rows back
            // through the caller's context.
            Ok(ToolOutput::with_rows(Json::object(fields), 0))
        },
    ));

    let train_store = Arc::clone(&store);
    reg.register_tool(FnTool::new(
        "train_random_forest",
        "Train a random-forest regressor predicting the column at index 'target'. Returns a \
         model_ref handle plus training RMSE and R² (pass return_model: true for the full \
         serialized model).",
        Signature::new(vec![
            data_arg(),
            ArgSpec::required("target", ArgType::Integer, "target column index"),
            ArgSpec::optional(
                "n_trees",
                ArgType::Integer,
                "ensemble size",
                Json::num(10.0),
            ),
            ArgSpec::optional(
                "max_depth",
                ArgType::Integer,
                "tree depth cap",
                Json::num(8.0),
            ),
            ArgSpec::optional("seed", ArgType::Integer, "bootstrap seed", Json::num(42.0)),
            ArgSpec::optional(
                "return_model",
                ArgType::Bool,
                "include the serialized model in the output",
                Json::Bool(false),
            ),
        ]),
        move |args: &Args| {
            let rows = rows_of(&args["data"]).map_err(exec_err)?;
            let target = args["target"]
                .as_i64()
                .ok_or_else(|| exec_err("bad target"))? as usize;
            let ds = Dataset::from_rows(rows, target).map_err(exec_err)?;
            let params = ForestParams {
                n_trees: args["n_trees"].as_i64().unwrap_or(10) as usize,
                max_depth: args["max_depth"].as_i64().unwrap_or(8) as usize,
                seed: args["seed"].as_i64().unwrap_or(42) as u64,
                ..ForestParams::default()
            };
            let model = forest::fit(&ds.x, &ds.y, params).map_err(exec_err)?;
            let preds = model.predict(&ds.x);
            let serialized = forest_to_json(&model, &ds);
            let mut fields: Vec<(String, Json)> = vec![
                (
                    "model_ref".into(),
                    Json::str(train_store.put(serialized.clone())),
                ),
                ("model_type".into(), Json::str("random_forest")),
                ("train_rmse".into(), Json::num(metrics::rmse(&ds.y, &preds))),
                ("train_r2".into(), Json::num(metrics::r2(&ds.y, &preds))),
                ("n_rows".into(), Json::num(ds.len() as f64)),
            ];
            if args.get("return_model").and_then(Json::as_bool) == Some(true) {
                fields.push(("model".into(), serialized));
            }
            // A model summary, not data: explicitly zero bulk rows back
            // through the caller's context.
            Ok(ToolOutput::with_rows(Json::object(fields), 0))
        },
    ));

    let predict_store = Arc::clone(&store);
    reg.register_tool(FnTool::new(
        "predict",
        "Run a trained model over a dataset. 'model' may be a train_* output (its model_ref is \
         resolved), a model_ref string, or an inline serialized model. With 'target', that \
         column is ground truth (excluded from features) and RMSE/R² are reported. Returns the \
         metrics plus a preview of the predictions.",
        Signature::new(vec![
            ArgSpec::required("model", ArgType::Any, "model_ref, train output, or model"),
            data_arg(),
            ArgSpec::optional(
                "target",
                ArgType::Integer,
                "ground-truth column",
                Json::Null,
            ),
        ]),
        move |args: &Args| {
            // Resolve the model: ref string, train output (model_ref or
            // inline model), or the serialized model itself.
            let resolve_ref = |id: &str| -> Result<Json, ToolError> {
                predict_store
                    .get(id)
                    .ok_or_else(|| exec_err(format!("unknown model_ref '{id}'")))
            };
            let owned_model: Json = match &args["model"] {
                Json::Str(id) => resolve_ref(id)?,
                obj => {
                    if let Some(inline) = obj.get("model") {
                        inline.clone()
                    } else if let Some(id) = obj.get("model_ref").and_then(Json::as_str) {
                        resolve_ref(id)?
                    } else {
                        obj.clone()
                    }
                }
            };
            let (model, n_features) = Model::from_json(&owned_model)?;
            let rows = rows_of(&args["data"]).map_err(exec_err)?;
            let target = args
                .get("target")
                .and_then(Json::as_i64)
                .map(|i| i as usize);
            let spec = encoding_from_json(&owned_model);
            let (x, truth): (Vec<Vec<f64>>, Option<Vec<f64>>) = match target {
                Some(t) => {
                    // Re-encode with the model's training-time recipe when
                    // available, so categorical domains line up.
                    let ds = match &spec {
                        Some(spec) => Dataset::encode_with(rows, t, spec).map_err(exec_err)?,
                        None => Dataset::from_rows(rows, t).map_err(exec_err)?,
                    };
                    if n_features != 0 && ds.width() != n_features {
                        return Err(exec_err(format!(
                            "model expects {n_features} features, data encodes to {}",
                            ds.width()
                        )));
                    }
                    (ds.x, Some(ds.y))
                }
                None => {
                    let mut x = Vec::with_capacity(rows.len());
                    for row in rows {
                        let cells = row
                            .as_array()
                            .ok_or_else(|| exec_err("rows must be arrays"))?;
                        x.push(cells.iter().map(|c| c.as_f64().unwrap_or(0.0)).collect());
                    }
                    (x, None)
                }
            };
            let preds = model.predict(&x);
            let mut fields: Vec<(String, Json)> = vec![
                (
                    // Preview only: full prediction vectors belong in
                    // tool-to-tool flows, not the caller's context.
                    "predictions".into(),
                    Json::array(preds.iter().take(20).map(|p| Json::num(*p))),
                ),
                ("n_rows".into(), Json::num(preds.len() as f64)),
            ];
            if let Some(truth) = truth {
                fields.push(("rmse".into(), Json::num(metrics::rmse(&truth, &preds))));
                fields.push(("r2".into(), Json::num(metrics::r2(&truth, &preds))));
            }
            // Only the preview rows transit the caller's context.
            Ok(ToolOutput::with_rows(
                Json::object(fields),
                preds.len().min(20),
            ))
        },
    ));

    reg.register_tool(FnTool::new(
        "trend_analyze",
        "Detect the trend (rising/falling/flat) of a sales series, optionally net of a refunds \
         series. Input rows may be [value] or [label, value]; the last numeric cell of each \
         row is used.",
        Signature::new(vec![
            ArgSpec::required("sales", ArgType::Any, "sales rows"),
            ArgSpec::optional("refunds", ArgType::Any, "refunds rows", Json::Null),
            ArgSpec::optional(
                "window",
                ArgType::Integer,
                "smoothing window",
                Json::num(5.0),
            ),
        ]),
        |args: &Args| {
            let sales = series_of(&args["sales"]).map_err(exec_err)?;
            let refunds = match args.get("refunds") {
                None | Some(Json::Null) => None,
                Some(v) => Some(series_of(v).map_err(exec_err)?),
            };
            let window = args["window"].as_i64().unwrap_or(5).max(1) as usize;
            let (verdict, slope) = trend::analyze(&sales, refunds.as_deref(), window);
            // A verdict, not data: zero bulk rows back through context.
            Ok(ToolOutput::with_rows(
                Json::object([
                    ("trend", Json::str(verdict.label())),
                    ("slope", Json::num(slope)),
                    ("n_points", Json::num(sales.len() as f64)),
                ]),
                0,
            ))
        },
    ));

    reg
}

/// Extract a numeric series: rows may be bare numbers or arrays whose last
/// numeric cell is the value.
fn series_of(value: &Json) -> Result<Vec<f64>, String> {
    let rows = rows_of(value)?;
    rows.iter()
        .map(|row| {
            if let Some(v) = row.as_f64() {
                return Ok(v);
            }
            row.as_array()
                .and_then(|cells| cells.iter().rev().find_map(Json::as_f64))
                .ok_or_else(|| "row has no numeric cell".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_rows(n: usize) -> Json {
        // y = 10 + 3a - 2b, target at index 2.
        let rows: Vec<Json> = (0..n)
            .map(|i| {
                let a = i as f64;
                let b = (i % 5) as f64;
                Json::array([
                    Json::num(a),
                    Json::num(b),
                    Json::num(10.0 + 3.0 * a - 2.0 * b),
                ])
            })
            .collect();
        Json::Array(rows)
    }

    #[test]
    fn train_and_predict_linear() {
        let reg = ml_registry();
        let trained = reg
            .call(
                "train_linear_regression",
                &Json::object([("data", linear_rows(60)), ("target", Json::num(2.0))]),
            )
            .unwrap();
        let rmse = trained
            .value
            .get("train_rmse")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(rmse < 1e-3, "exact relation should fit, rmse={rmse}");
        // Predict on fresh data with ground truth.
        let out = reg
            .call(
                "predict",
                &Json::object([
                    ("model", trained.value.clone()),
                    ("data", linear_rows(20)),
                    ("target", Json::num(2.0)),
                ]),
            )
            .unwrap();
        assert!(out.value.get("rmse").and_then(Json::as_f64).unwrap() < 1e-3);
        assert_eq!(out.value.get("n_rows").and_then(Json::as_i64), Some(20));
    }

    #[test]
    fn forest_trains_on_categorical_data() {
        let reg = ml_registry();
        let rows: Vec<Json> = (0..120)
            .map(|i| {
                let cat = if i % 2 == 0 { "coastal" } else { "inland" };
                let base = if i % 2 == 0 { 400.0 } else { 150.0 };
                Json::array([
                    Json::num((i % 10) as f64),
                    Json::str(cat),
                    Json::num(base + (i % 10) as f64 * 5.0),
                ])
            })
            .collect();
        let out = reg
            .call(
                "train_random_forest",
                &Json::object([
                    ("data", Json::Array(rows)),
                    ("target", Json::num(2.0)),
                    ("n_trees", Json::num(12.0)),
                ]),
            )
            .unwrap();
        let r2 = out.value.get("train_r2").and_then(Json::as_f64).unwrap();
        assert!(r2 > 0.9, "forest should separate the categories, r2={r2}");
    }

    #[test]
    fn normalization_tools_chain() {
        let reg = ml_registry();
        let out = reg
            .call(
                "normalize_zscore",
                &Json::object([("data", linear_rows(10)), ("exclude", Json::num(2.0))]),
            )
            .unwrap();
        assert!(out.value.get("rows").is_some());
        // Chain into a split, query-result shape in.
        let out = reg
            .call(
                "train_test_split",
                &Json::object([("data", out.value), ("test_ratio", Json::num(0.3))]),
            )
            .unwrap();
        let train = out
            .value
            .pointer("/train/rows")
            .and_then(Json::as_array)
            .unwrap();
        let test = out
            .value
            .pointer("/test/rows")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(train.len() + test.len(), 10);
        assert_eq!(test.len(), 3);
    }

    #[test]
    fn trend_tool_detects_direction() {
        let reg = ml_registry();
        let sales: Vec<Json> = (0..20)
            .map(|i| {
                Json::array([
                    Json::str(format!("2026-01-{:02}", i + 1)),
                    Json::num(100.0 + 10.0 * i as f64),
                ])
            })
            .collect();
        let out = reg
            .call(
                "trend_analyze",
                &Json::object([("sales", Json::Array(sales))]),
            )
            .unwrap();
        assert_eq!(
            out.value.get("trend").and_then(Json::as_str),
            Some("rising")
        );
    }

    #[test]
    fn predict_rejects_feature_mismatch() {
        let reg = ml_registry();
        let trained = reg
            .call(
                "train_linear_regression",
                &Json::object([("data", linear_rows(30)), ("target", Json::num(2.0))]),
            )
            .unwrap();
        // Data with an extra column.
        let bad: Vec<Json> = (0..5)
            .map(|i| {
                Json::array([
                    Json::num(i as f64),
                    Json::num(0.0),
                    Json::num(0.0),
                    Json::num(0.0),
                ])
            })
            .collect();
        let err = reg
            .call(
                "predict",
                &Json::object([
                    ("model", trained.value),
                    ("data", Json::Array(bad)),
                    ("target", Json::num(3.0)),
                ]),
            )
            .unwrap_err();
        // The model's encoding recipe rejects rows of the wrong width
        // (either the width itself or the now-out-of-range target index).
        let msg = err.to_string();
        assert!(
            msg.contains("encoding expects") || msg.contains("out of range"),
            "{err}"
        );
    }

    #[test]
    fn predict_reencodes_shifted_categorical_domains() {
        // Train on data whose categorical domain is a *superset* of the
        // eval data's; widths must still line up via the stored recipe.
        let reg = ml_registry();
        let train: Vec<Json> = (0..60)
            .map(|i| {
                let cat = ["a", "b", "c"][i % 3];
                Json::array([
                    Json::num((i % 7) as f64),
                    Json::str(cat),
                    Json::num(i as f64),
                ])
            })
            .collect();
        let eval_rows: Vec<Json> = (0..10)
            .map(|i| Json::array([Json::num(1.0), Json::str("a"), Json::num(i as f64)]))
            .collect();
        let trained = reg
            .call(
                "train_linear_regression",
                &Json::object([("data", Json::Array(train)), ("target", Json::num(2.0))]),
            )
            .unwrap();
        let out = reg
            .call(
                "predict",
                &Json::object([
                    ("model", trained.value),
                    ("data", Json::Array(eval_rows)),
                    ("target", Json::num(2.0)),
                ]),
            )
            .unwrap();
        assert_eq!(out.value.get("n_rows").and_then(Json::as_i64), Some(10));
        assert!(out
            .value
            .get("rmse")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
    }

    #[test]
    fn predict_accepts_bare_model_ref_string() {
        let reg = ml_registry();
        let trained = reg
            .call(
                "train_linear_regression",
                &Json::object([("data", linear_rows(30)), ("target", Json::num(2.0))]),
            )
            .unwrap();
        let model_ref = trained.value.get("model_ref").unwrap().clone();
        assert!(trained.value.get("model").is_none(), "handle by default");
        let out = reg
            .call(
                "predict",
                &Json::object([
                    ("model", model_ref),
                    ("data", linear_rows(5)),
                    ("target", Json::num(2.0)),
                ]),
            )
            .unwrap();
        assert!(out.value.get("rmse").and_then(Json::as_f64).unwrap() < 1e-3);
        // Unknown handles error cleanly.
        let err = reg
            .call(
                "predict",
                &Json::object([("model", Json::str("model-999")), ("data", linear_rows(5))]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("model_ref"), "{err}");
    }

    #[test]
    fn predictions_are_previewed_not_dumped() {
        let reg = ml_registry();
        let trained = reg
            .call(
                "train_linear_regression",
                &Json::object([("data", linear_rows(60)), ("target", Json::num(2.0))]),
            )
            .unwrap();
        let out = reg
            .call(
                "predict",
                &Json::object([
                    ("model", trained.value),
                    ("data", linear_rows(50)),
                    ("target", Json::num(2.0)),
                ]),
            )
            .unwrap();
        assert_eq!(out.value.get("n_rows").and_then(Json::as_i64), Some(50));
        assert_eq!(
            out.value
                .get("predictions")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            20
        );
    }

    #[test]
    fn model_roundtrips_through_json() {
        let reg = ml_registry();
        let trained = reg
            .call(
                "train_random_forest",
                &Json::object([
                    ("data", linear_rows(50)),
                    ("target", Json::num(2.0)),
                    ("return_model", Json::Bool(true)),
                ]),
            )
            .unwrap();
        let model_json = trained.value.get("model").unwrap();
        let reparsed = Json::parse(&model_json.to_compact()).unwrap();
        let (model, _) = Model::from_json(&reparsed).unwrap();
        let preds = model.predict(&[vec![1.0, 1.0]]);
        assert_eq!(preds.len(), 1);
        assert!(preds[0].is_finite());
    }
}
