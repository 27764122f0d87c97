//! # sqlkit — SQL front-end for the BridgeScope reproduction
//!
//! A self-contained SQL dialect front-end:
//!
//! * [`token`] — tokenizer with byte-offset diagnostics;
//! * [`ast`] — statements, expressions, and the [`ast::Action`] enum that is
//!   the unit of both privilege checking and BridgeScope's action-level tool
//!   modularization;
//! * `parser` — recursive-descent parser for single-block SELECT (joins,
//!   aggregation, uncorrelated subqueries), INSERT/UPDATE/DELETE,
//!   CREATE/DROP/ALTER TABLE, CREATE INDEX, BEGIN/COMMIT/ROLLBACK, and
//!   GRANT/REVOKE;
//! * [`analyze`] — computes which ⟨action, object⟩ pairs a statement needs,
//!   used by BridgeScope's object-level verification gate;
//! * `format` — canonical SQL rendering ([`format_statement`],
//!   [`format_select`], [`format_expr`]) that round-trips through the parser.
//!
//! Out of scope (documented in DESIGN.md): correlated subqueries, window
//! functions, set operations, multi-statement CTEs.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod analyze;
pub mod ast;
mod format;
mod parser;
pub mod token;

pub use analyze::{analyze, column_usage, AccessProfile, ColumnUsage};
pub use ast::{Action, Expr, Literal, Select, Statement};
pub use format::{format_expr, format_select, format_statement, truncate_sql};
pub use parser::{parse_statement, ParseError};
