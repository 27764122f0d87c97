//! Engine error model.
//!
//! Error variants are deliberately granular: the simulated agent reacts
//! differently to a privilege rejection (abort) than to a constraint or
//! unknown-column error (retry with corrected SQL), so the error *kind* must
//! survive all the way into the agent transcript.

use sqlkit::ast::Action;
use sqlkit::parser::ParseError;
use std::fmt;

/// Any error produced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// SQL failed to parse.
    Parse(ParseError),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not exist.
    UnknownColumn(String),
    /// An unqualified column name matched several tables.
    AmbiguousColumn(String),
    /// Object already exists (CREATE without IF NOT EXISTS).
    AlreadyExists(String),
    /// The user lacks a privilege.
    PrivilegeDenied {
        /// Acting user.
        user: String,
        /// Required action.
        action: Action,
        /// Target object.
        object: String,
    },
    /// A constraint rejected the operation.
    ConstraintViolation(String),
    /// Type error during evaluation or storage.
    TypeError(String),
    /// Transaction-state misuse (nested BEGIN, COMMIT without BEGIN…).
    TransactionState(String),
    /// Unknown user.
    UnknownUser(String),
    /// Anything else that surfaced during execution.
    Execution(String),
    /// The storage engine failed to persist or recover state (I/O error,
    /// corrupt WAL/snapshot). Not retryable: the commit did not happen.
    Storage(String),
    /// Optimistic-concurrency failure under snapshot isolation: between this
    /// transaction's snapshot and its commit, another transaction committed
    /// a conflicting write (first writer wins). The losing transaction was
    /// rolled back; re-running it against the new state can succeed.
    SerializationConflict {
        /// Table whose clock detected the conflict (`<catalog>` for schema
        /// races).
        table: String,
        /// What conflicted, for diagnostics.
        detail: String,
    },
    /// The call's deadline (see [`crate::deadline`]) passed while the
    /// statement ran; the executor stopped it. Like any statement error it
    /// publishes nothing.
    DeadlineExceeded,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::UnknownTable(t) => write!(f, "relation \"{t}\" does not exist"),
            DbError::UnknownColumn(c) => write!(f, "column \"{c}\" does not exist"),
            DbError::AmbiguousColumn(c) => write!(f, "column reference \"{c}\" is ambiguous"),
            DbError::AlreadyExists(o) => write!(f, "relation \"{o}\" already exists"),
            DbError::PrivilegeDenied {
                user,
                action,
                object,
            } => write!(
                f,
                "permission denied: user \"{user}\" lacks {action} on \"{object}\""
            ),
            DbError::ConstraintViolation(m) => write!(f, "constraint violation: {m}"),
            DbError::TypeError(m) => write!(f, "type error: {m}"),
            DbError::TransactionState(m) => write!(f, "transaction error: {m}"),
            DbError::UnknownUser(u) => write!(f, "user \"{u}\" does not exist"),
            DbError::Execution(m) => write!(f, "execution error: {m}"),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::SerializationConflict { table, detail } => write!(
                f,
                "serialization conflict: {detail} on \"{table}\"; retry the transaction"
            ),
            DbError::DeadlineExceeded => write!(
                f,
                "deadline exceeded: the call's deadline passed while the statement ran"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl DbError {
    /// Whether the error indicates an authorization problem (the agent
    /// should abort rather than retry).
    pub fn is_privilege(&self) -> bool {
        matches!(self, DbError::PrivilegeDenied { .. })
    }

    /// Whether retrying could plausibly succeed — corrected SQL for the
    /// analysis errors, or simply re-running the same transaction for a
    /// serialization conflict.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::Parse(_)
                | DbError::UnknownTable(_)
                | DbError::UnknownColumn(_)
                | DbError::AmbiguousColumn(_)
                | DbError::TypeError(_)
                | DbError::SerializationConflict { .. }
        )
    }

    /// Whether this is an MVCC first-writer-wins conflict (the transaction
    /// was rolled back and can be retried verbatim).
    pub fn is_serialization_conflict(&self) -> bool {
        matches!(self, DbError::SerializationConflict { .. })
    }
}

/// Result alias for engine operations.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let e = DbError::PrivilegeDenied {
            user: "n".into(),
            action: Action::Insert,
            object: "t".into(),
        };
        assert!(e.is_privilege());
        assert!(!e.is_retryable());
        assert!(DbError::UnknownColumn("c".into()).is_retryable());
        assert!(!DbError::ConstraintViolation("x".into()).is_retryable());
    }

    #[test]
    fn display_mentions_details() {
        let e = DbError::PrivilegeDenied {
            user: "alice".into(),
            action: Action::Delete,
            object: "sales".into(),
        };
        let text = e.to_string();
        assert!(text.contains("alice") && text.contains("DELETE") && text.contains("sales"));
    }
}
