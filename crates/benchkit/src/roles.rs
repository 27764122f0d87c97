//! The three production roles of the paper's §3.3.

use minidb::Database;
use sqlkit::ast::Action;

/// The simulated user roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Full data query and manipulation privileges on every task table.
    Administrator,
    /// Read-only (SELECT) privileges on every task table.
    Normal,
    /// Privileges limited to task-unrelated tables (`employee_salaries`).
    Irrelevant,
}

impl Role {
    /// All roles, in the paper's order.
    pub const ALL: [Role; 3] = [Role::Administrator, Role::Normal, Role::Irrelevant];

    /// The database user name of the role.
    pub fn user(&self) -> &'static str {
        match self {
            Role::Administrator => "alice_admin",
            Role::Normal => "norman",
            Role::Irrelevant => "ivy",
        }
    }

    /// One-letter tag used in the paper's figure labels.
    pub fn tag(&self) -> &'static str {
        match self {
            Role::Administrator => "A",
            Role::Normal => "N",
            Role::Irrelevant => "I",
        }
    }

    /// Whether this role can feasibly run tasks of the given class.
    pub fn feasible(&self, write: bool) -> bool {
        match self {
            Role::Administrator => true,
            Role::Normal => !write,
            Role::Irrelevant => false,
        }
    }
}

/// Create the three role users on a database and install their grants.
/// `task_tables` are the tables benchmark tasks operate on; the irrelevant
/// role is granted everything on the unrelated `employee_salaries` instead.
pub fn install_roles(db: &Database, task_tables: &[String]) {
    for role in Role::ALL {
        // Users may already exist on a forked template; ignore duplicates.
        let _ = db.create_user(role.user(), false);
    }
    for table in task_tables {
        db.grant_all(Role::Administrator.user(), table)
            .expect("admin grants");
        db.grant(Role::Normal.user(), Action::Select, table)
            .expect("normal grants");
    }
    if db.table_names().contains(&"employee_salaries".to_string()) {
        db.grant_all(Role::Irrelevant.user(), "employee_salaries")
            .expect("irrelevant grants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bird;

    #[test]
    fn roles_have_expected_feasibility() {
        assert!(Role::Administrator.feasible(true));
        assert!(Role::Normal.feasible(false));
        assert!(!Role::Normal.feasible(true));
        assert!(!Role::Irrelevant.feasible(false));
    }

    #[test]
    fn grants_installed_per_role() {
        let db = bird::build_database(3);
        let tables: Vec<String> = db
            .table_names()
            .into_iter()
            .filter(|t| t != "employee_salaries")
            .collect();
        install_roles(&db, &tables);

        let version = db.snapshot();
        let admin = version.privileges.user("alice_admin").unwrap();
        assert!(admin.has(Action::Delete, "brand_a_sales"));
        assert!(!admin.has(Action::Select, "employee_salaries"));

        let normal = version.privileges.user("norman").unwrap();
        assert!(normal.has(Action::Select, "schools"));
        assert!(!normal.has(Action::Insert, "schools"));

        let ivy = version.privileges.user("ivy").unwrap();
        assert!(ivy.has(Action::Select, "employee_salaries"));
        assert!(!ivy.has(Action::Select, "schools"));
    }

    #[test]
    fn install_is_idempotent() {
        let db = bird::build_database(3);
        let tables = vec!["schools".to_string()];
        install_roles(&db, &tables);
        install_roles(&db, &tables);
        let version = db.snapshot();
        let normal = version.privileges.user("norman").unwrap();
        assert!(normal.has(Action::Select, "schools"));
    }
}
