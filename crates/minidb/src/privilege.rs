//! PostgreSQL-style privilege catalog.
//!
//! Privileges form the set `P_u ⊆ A × O` of the paper's §2.3: per-user
//! grants of an [`Action`] on an object. BridgeScope reads this catalog when
//! it builds a surface, to decide which SQL tools a user's agent even *sees*
//! (action-level modularization), and on every tool call, to verify each
//! object the statement touches (object-level verification). The engine
//! checks the statement again before running it, like a real database
//! would; on the tool path both checks read the one committed version
//! pinned for the call, so their verdicts agree.

use crate::error::{DbError, DbResult};
use sqlkit::ast::Action;
use std::collections::{BTreeMap, BTreeSet};

/// Privileges of one user.
#[derive(Debug, Clone, Default)]
pub struct UserPrivileges {
    /// Superusers bypass all checks (the `postgres` role).
    pub superuser: bool,
    grants: BTreeSet<(Action, String)>,
}

impl UserPrivileges {
    /// Whether the user holds `action` on `object`.
    pub fn has(&self, action: Action, object: &str) -> bool {
        self.superuser || self.grants.contains(&(action, object.to_owned()))
    }

    /// Actions the user holds on a specific object.
    pub fn actions_on(&self, object: &str) -> BTreeSet<Action> {
        if self.superuser {
            return Action::DATA_ACTIONS.into_iter().collect();
        }
        self.grants
            .iter()
            .filter(|(_, o)| o == object)
            .map(|(a, _)| *a)
            .collect()
    }

    /// Every action the user holds on at least one object. Superusers hold
    /// everything (the caller supplies the object universe when it matters).
    pub fn held_actions(&self) -> BTreeSet<Action> {
        if self.superuser {
            return Action::DATA_ACTIONS.into_iter().collect();
        }
        self.grants.iter().map(|(a, _)| *a).collect()
    }

    /// Every explicit grant, in deterministic order (used for persistence
    /// and state fingerprints; superuser status is separate).
    pub(crate) fn grant_list(&self) -> Vec<(Action, String)> {
        self.grants.iter().cloned().collect()
    }
}

/// All users and their privileges.
#[derive(Debug, Clone, Default)]
pub struct PrivilegeCatalog {
    users: BTreeMap<String, UserPrivileges>,
}

impl PrivilegeCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        PrivilegeCatalog::default()
    }

    /// Create a user. Errors if it already exists.
    pub fn create_user(&mut self, name: &str, superuser: bool) -> DbResult<()> {
        if self.users.contains_key(name) {
            return Err(DbError::AlreadyExists(format!("user {name}")));
        }
        self.users.insert(
            name.to_owned(),
            UserPrivileges {
                superuser,
                grants: BTreeSet::new(),
            },
        );
        Ok(())
    }

    /// Whether a user exists.
    pub fn contains(&self, name: &str) -> bool {
        self.users.contains_key(name)
    }

    /// Look up a user.
    pub fn user(&self, name: &str) -> DbResult<&UserPrivileges> {
        self.users
            .get(name)
            .ok_or_else(|| DbError::UnknownUser(name.to_owned()))
    }

    /// Grant `action` on `object` to `user`.
    pub fn grant(&mut self, user: &str, action: Action, object: &str) -> DbResult<()> {
        let u = self
            .users
            .get_mut(user)
            .ok_or_else(|| DbError::UnknownUser(user.to_owned()))?;
        u.grants.insert((action, object.to_owned()));
        Ok(())
    }

    /// Grant every data action on `object` to `user`.
    pub fn grant_all(&mut self, user: &str, object: &str) -> DbResult<()> {
        for action in Action::DATA_ACTIONS {
            self.grant(user, action, object)?;
        }
        Ok(())
    }

    /// Revoke `action` on `object` from `user`.
    pub fn revoke(&mut self, user: &str, action: Action, object: &str) -> DbResult<()> {
        let u = self
            .users
            .get_mut(user)
            .ok_or_else(|| DbError::UnknownUser(user.to_owned()))?;
        u.grants.remove(&(action, object.to_owned()));
        Ok(())
    }

    /// Revoke every data action on `object` from `user`.
    pub(crate) fn revoke_all(&mut self, user: &str, object: &str) -> DbResult<()> {
        for action in Action::DATA_ACTIONS {
            self.revoke(user, action, object)?;
        }
        Ok(())
    }

    /// Check a required privilege, returning the paper-style denial error.
    pub fn check(&self, user: &str, action: Action, object: &str) -> DbResult<()> {
        let u = self.user(user)?;
        if u.has(action, object) {
            Ok(())
        } else {
            Err(DbError::PrivilegeDenied {
                user: user.to_owned(),
                action,
                object: object.to_owned(),
            })
        }
    }

    /// All user names.
    pub(crate) fn user_names(&self) -> Vec<&str> {
        self.users.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_check_revoke() {
        let mut cat = PrivilegeCatalog::new();
        cat.create_user("alice", false).unwrap();
        assert!(cat.check("alice", Action::Select, "t").is_err());
        cat.grant("alice", Action::Select, "t").unwrap();
        assert!(cat.check("alice", Action::Select, "t").is_ok());
        assert!(cat.check("alice", Action::Insert, "t").is_err());
        cat.revoke("alice", Action::Select, "t").unwrap();
        assert!(cat.check("alice", Action::Select, "t").is_err());
    }

    #[test]
    fn superuser_bypasses() {
        let mut cat = PrivilegeCatalog::new();
        cat.create_user("root", true).unwrap();
        assert!(cat.check("root", Action::Drop, "anything").is_ok());
        assert_eq!(
            cat.user("root").unwrap().held_actions().len(),
            Action::DATA_ACTIONS.len()
        );
    }

    #[test]
    fn unknown_user_errors() {
        let cat = PrivilegeCatalog::new();
        assert!(matches!(
            cat.check("ghost", Action::Select, "t"),
            Err(DbError::UnknownUser(_))
        ));
    }

    #[test]
    fn introspection_helpers() {
        let mut cat = PrivilegeCatalog::new();
        cat.create_user("n", false).unwrap();
        cat.grant_all("n", "a").unwrap();
        cat.grant("n", Action::Select, "b").unwrap();
        let u = cat.user("n").unwrap();
        assert_eq!(u.actions_on("a").len(), Action::DATA_ACTIONS.len());
        assert_eq!(u.actions_on("b"), [Action::Select].into_iter().collect());
        assert!(u.held_actions().contains(&Action::Delete));
    }

    #[test]
    fn duplicate_user_rejected() {
        let mut cat = PrivilegeCatalog::new();
        cat.create_user("x", false).unwrap();
        assert!(cat.create_user("x", false).is_err());
    }
}
