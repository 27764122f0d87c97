//! # mltools — data-processing and ML tool servers for NL2ML
//!
//! The paper's NL2ML benchmark equips agents with "extra tools for data
//! processing (e.g. Z-score normalization) and machine learning models (e.g.
//! linear regression and random forest) training and inference" (§3.4). This
//! crate implements those tools for real:
//!
//! * [`transform`] — z-score / min-max normalization, train-test splits;
//! * [`linreg`] — ridge-regularized linear regression (normal equations);
//! * `forest` — CART random-forest regression with bootstrap + feature
//!   bagging;
//! * [`metrics`] — RMSE / MAE / R²;
//! * `trend` — moving-average + OLS-slope trend detection (the chain-store
//!   scenario's `trend_analyze`);
//! * [`ml_registry`] — everything wrapped as `toolproto` tools whose
//!   wire format matches the database `select` output, so they compose with
//!   BridgeScope proxy units directly.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod dataset;
mod forest;
pub mod linreg;
pub mod metrics;
mod tools;
pub mod transform;
mod trend;

pub use dataset::{Dataset, EncodingSpec};
pub use tools::ml_registry;
pub use transform::NormKind;
