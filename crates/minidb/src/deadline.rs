//! Cooperative deadlines on engine work.
//!
//! A caller that bounds how long a statement may run (the wire server's
//! `call_timeout`) opens a [`scope`] around the call; the executor then
//! checks the deadline where work is dispatched — every plan operator, every
//! chunk start of a parallel fan-out, and every 1 024 rows of the streaming
//! pipeline and of the nested-loop join — and stops with
//! [`DbError::DeadlineExceeded`] once it has passed. The error is an
//! ordinary statement error: inside a transaction it leaves the session
//! exactly as any other failed statement does.
//!
//! The deadline lives in a thread-local, like the span context
//! (`obs::adopt_context`): code that hands engine work to another thread
//! captures [`current`] and re-opens a [`scope`] there. Work that must
//! finish once started — DDL, COMMIT and the WAL path — never checks it.

use crate::error::{DbError, DbResult};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Restores the enclosing deadline when dropped.
#[must_use = "the deadline applies only while the scope is alive"]
pub struct DeadlineScope {
    prev: Option<Instant>,
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.prev));
    }
}

/// Run this thread's engine work under `deadline` until the returned guard
/// drops. A nested scope can only tighten an enclosing deadline; `None`
/// keeps the enclosing one.
pub fn scope(deadline: Option<Instant>) -> DeadlineScope {
    let prev = current();
    let next = match (prev, deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    DEADLINE.with(|d| d.set(next));
    DeadlineScope { prev }
}

/// Lift the deadline for work that must run to completion once started.
pub(crate) fn suspend() -> DeadlineScope {
    DeadlineScope {
        prev: DEADLINE.with(|d| d.replace(None)),
    }
}

/// The deadline engine work on this thread runs under, if any.
pub fn current() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// Fail once this thread's deadline has passed. Reads the clock only when
/// a deadline is set.
pub(crate) fn check() -> DbResult<()> {
    check_at(current())
}

/// Fail once `deadline` has passed (for threads that captured it).
pub(crate) fn check_at(deadline: Option<Instant>) -> DbResult<()> {
    match deadline {
        Some(at) if Instant::now() >= at => Err(DbError::DeadlineExceeded),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scopes_nest_tighten_and_restore() {
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() + Duration::from_secs(60);
        assert_eq!(current(), None);
        {
            let _outer = scope(Some(near));
            {
                let _inner = scope(Some(far));
                assert_eq!(current(), Some(near), "a nested scope never loosens");
                let _none = scope(None);
                assert_eq!(current(), Some(near));
                let _lifted = suspend();
                assert_eq!(current(), None);
            }
            assert_eq!(current(), Some(near));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn ddl_and_commit_finish_under_an_expired_deadline() {
        let db = crate::Database::new();
        let mut s = db.session("admin").unwrap();
        s.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        s.execute_sql("BEGIN").unwrap();
        s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        let expired = scope(Some(Instant::now()));
        let stopped = s.execute_sql("SELECT * FROM t").unwrap_err();
        assert_eq!(stopped, DbError::DeadlineExceeded);
        // CREATE VIEW runs its defining query, and still finishes.
        s.execute_sql("CREATE VIEW v AS SELECT id FROM t").unwrap();
        s.execute_sql("COMMIT").unwrap();
        drop(expired);
        assert_eq!(db.table_rows("t").unwrap(), 1);
        assert!(db.snapshot().state.catalog.view("v").is_some());
    }

    #[test]
    fn check_fails_only_past_the_deadline() {
        assert!(check().is_ok());
        let _live = scope(Some(Instant::now() + Duration::from_secs(60)));
        assert!(check().is_ok());
        let _expired = scope(Some(Instant::now()));
        let err = check().unwrap_err();
        assert!(err.to_string().starts_with("deadline exceeded"), "{err}");
    }
}
