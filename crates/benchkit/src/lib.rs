//! # benchkit — benchmarks and evaluation harness
//!
//! Implements the paper's two novel benchmarks and the machinery that
//! regenerates every table and figure of §3:
//!
//! * [`bird`] — **BIRD-Ext**: four BIRD-like database domains plus 300 tasks
//!   (150 read, 50 insert / 50 update / 50 delete) with gold SQL and the
//!   plausible-mistake variants the agent simulator samples;
//! * [`housing`] — the California-Housing-style `house` table (10 columns ×
//!   20,000 rows in the paper's configuration);
//! * [`nl2ml`] — **NL2ML**: 30 model-training tasks at three proxy-depth
//!   levels;
//! * [`roles`] — the Administrator / Normal / Irrelevant users of §3.3;
//! * [`harness`] — runs (toolkit × agent × role × tasks) cells and
//!   aggregates #LLM calls, tokens, completion, accuracy, and
//!   transaction-initiation metrics;
//! * [`eval`] — result-set and database-state correctness checks;
//! * [`report`] — one orchestrator per published figure/table, with text
//!   renderings (Figure 5, Figure 6, Table 1, Table 2) and unit tests that
//!   hold each to its published shape;
//! * [`crashlab`] — crash-recovery differential harness: replays BIRD-Ext
//!   write-task gold SQL against a durable engine, kills it at injected
//!   points, and asserts WAL recovery matches a volatile reference.

#![warn(missing_docs)]

pub mod bird;
pub mod crashlab;
pub mod eval;
pub mod harness;
pub mod housing;
pub mod nl2ml;
pub mod report;
pub mod roles;

pub use bird::{generate as generate_bird_ext, BirdExt, BirdTask};
pub use crashlab::{
    interleaved_commits, run as run_crashlab, CrashLabConfig, CrashLabReport, CrashPoint,
    InterleavedReport, InterleavedStage,
};
pub use harness::{
    build_toolkit_observed, run_bird_cell, run_nl2ml, run_nl2ml_observed, BirdCell, CellOutcome,
    Nl2mlConfig, TaskClass, Toolkit,
};
pub use report::{fig5, privilege_experiment, table2, Fig5Report, PrivilegeReport, Table2Report};
pub use roles::Role;
