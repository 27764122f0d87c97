//! # minidb — an in-memory relational engine with privileges and ACID
//! transactions
//!
//! The database substrate for the BridgeScope reproduction (the paper runs on
//! PostgreSQL; see DESIGN.md for the substitution argument). Features:
//!
//! * typed storage ([`Value`]) with SQL three-valued comparison
//!   semantics;
//! * a catalog (`schema`) with primary keys, unique constraints, foreign
//!   keys, CHECK constraints, and secondary indexes;
//! * an executor (`exec`) covering single-block SELECT (inner/left/cross
//!   joins, aggregation with DISTINCT, uncorrelated subqueries, ORDER BY /
//!   LIMIT / OFFSET / DISTINCT) and fully validated DML/DDL;
//! * undo-log transactions (`txn`) with statement-level atomicity and
//!   PostgreSQL-style aborted-transaction behaviour;
//! * a PostgreSQL-style privilege catalog (`privilege`) checked by the
//!   engine on every statement;
//! * a concurrency-safe facade ([`Database`] / [`Session`]);
//! * cooperative call deadlines ([`deadline`]) the executor checks as it
//!   dispatches work.
//!
//! Concurrency model: **MVCC snapshot isolation** (`mvcc`). Every
//! committed state is an immutable version; readers clone an `Arc` to the
//! latest version and never take a lock or block a writer. Transactions
//! execute on a private copy-on-write workspace and commit optimistically:
//! first writer wins, the loser's transaction rolls back with a typed
//! [`DbError::SerializationConflict`] that callers retry. Commit order and
//! timestamps are assigned under a single commit lock at the WAL group
//! append, so durability order and version order agree by construction.
//! Autocommit statements retry conflicts internally; see DESIGN.md §10.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod db;
pub mod deadline;
mod error;
mod exec;
mod expr;
mod mvcc;
mod plan;
pub mod planner;
mod privilege;
mod schema;
pub mod storage;
pub mod sync;
mod txn;
mod value;

pub use db::{Database, Session, VacuumHandle, VacuumReport};
pub use error::{DbError, DbResult};
pub use exec::{DbState, QueryResult};
pub use mvcc::CommittedVersion;
pub use plan::ExecOptions;
pub use planner::physical::PhysPlan;
pub use privilege::{PrivilegeCatalog, UserPrivileges};
pub use schema::{
    Catalog, Column, ColumnStats, ForeignKey, IndexDef, TableSchema, TableStats, ViewDef,
};
pub use storage::{DurabilityConfig, FsyncPolicy, RecoveryReport};
pub use value::Value;
