//! SQL abstract syntax tree.
//!
//! The AST covers the dialect subset the benchmarks exercise: full
//! single-block `SELECT` (joins, aggregation, uncorrelated subqueries,
//! ordering, limits), the four DML actions, table DDL with constraints,
//! index DDL, transaction control, and `GRANT`/`REVOKE`. Correlated
//! subqueries and window functions are out of scope (documented in
//! DESIGN.md).

use std::fmt;

/// The privilege-relevant action a statement performs. This is the `a` in
/// the paper's privilege set `P_u ⊆ A × O` and the unit of BridgeScope's
/// action-level tool modularization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Read rows.
    Select,
    /// Add rows.
    Insert,
    /// Modify rows.
    Update,
    /// Remove rows.
    Delete,
    /// Create objects (tables, indexes).
    Create,
    /// Drop objects.
    Drop,
    /// Alter object structure.
    Alter,
    /// Grant or revoke privileges.
    GrantRevoke,
    /// Transaction control (BEGIN/COMMIT/ROLLBACK).
    Transaction,
}

impl Action {
    /// All data-plane actions, i.e. those with per-object privileges.
    pub const DATA_ACTIONS: [Action; 7] = [
        Action::Select,
        Action::Insert,
        Action::Update,
        Action::Delete,
        Action::Create,
        Action::Drop,
        Action::Alter,
    ];

    /// Lower-case keyword for the action, used as the tool name.
    pub fn keyword(&self) -> &'static str {
        match self {
            Action::Select => "select",
            Action::Insert => "insert",
            Action::Update => "update",
            Action::Delete => "delete",
            Action::Create => "create",
            Action::Drop => "drop",
            Action::Alter => "alter",
            Action::GrantRevoke => "grant",
            Action::Transaction => "transaction",
        }
    }

    /// Whether the action can change database state.
    pub fn is_write(&self) -> bool {
        !matches!(self, Action::Select | Action::Transaction)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.keyword().to_uppercase())
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// Boolean TRUE/FALSE.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal.
    Str(String),
}

/// Reference to a column, optionally qualified by table name or alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Qualifier (table name or alias), if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

/// Binary operators, in one enum so precedence lives in the parser only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `OR`
    Or,
    /// `AND`
    And,
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||` string concatenation
    Concat,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub(crate) fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Literal),
    /// A column reference.
    Column(ColumnRef),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call (scalar or aggregate; resolved at execution).
    Function {
        /// Function name, lower-cased.
        name: String,
        /// Arguments; empty for `count(*)` with `star = true`.
        args: Vec<Expr>,
        /// `true` for `f(DISTINCT x)`.
        distinct: bool,
        /// `true` for `count(*)`.
        star: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Whether the test is negated (`IS NOT NULL`).
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)` — uncorrelated.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// Subquery producing the candidate set (first column used).
        subquery: Box<Select>,
        /// Negation flag.
        negated: bool,
    },
    /// Scalar subquery `(SELECT …)` — uncorrelated, first row/column.
    ScalarSubquery(Box<Select>),
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `CASE WHEN … THEN … [ELSE …] END` (searched form).
    Case {
        /// WHEN/THEN arms.
        branches: Vec<(Expr, Expr)>,
        /// ELSE arm.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type name (normalized).
        ty: TypeName,
    },
}

impl Expr {
    /// Shorthand for a column reference without qualifier.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef {
            table: None,
            column: name.into(),
        })
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Shorthand for a string literal.
    pub fn string(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// Shorthand for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }
}

/// Normalized SQL type name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeName {
    /// 64-bit integer (`INT`, `INTEGER`, `BIGINT`, `SMALLINT`).
    Integer,
    /// 64-bit float (`REAL`, `FLOAT`, `DOUBLE [PRECISION]`, `NUMERIC`, `DECIMAL`).
    Float,
    /// UTF-8 text (`TEXT`, `VARCHAR[(n)]`, `CHAR[(n)]`, `DATE`, `TIMESTAMP`).
    /// Dates are stored as ISO-8601 text; their ordering matches string order.
    Text,
    /// Boolean (`BOOLEAN`, `BOOL`).
    Boolean,
}

impl TypeName {
    /// Canonical SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            TypeName::Integer => "INTEGER",
            TypeName::Float => "REAL",
            TypeName::Text => "TEXT",
            TypeName::Boolean => "BOOLEAN",
        }
    }
}

/// One item of a SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression, optionally aliased.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias` if written.
        alias: Option<String>,
    },
}

/// A table in FROM, optionally aliased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Alias (`FROM t AS x` or `FROM t x`).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is addressed by inside the query.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join kinds supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
    /// CROSS JOIN.
    Cross,
}

/// One join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join kind.
    pub kind: JoinKind,
    /// The joined table.
    pub table: TableRef,
    /// `ON` condition (absent for CROSS).
    pub on: Option<Expr>,
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderDir {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: Expr,
    /// Direction.
    pub dir: OrderDir,
}

/// A single-block SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM table (absent for `SELECT 1`-style queries).
    pub from: Option<TableRef>,
    /// Joins applied left to right.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

impl Select {
    /// An empty SELECT skeleton; builders fill in fields.
    pub fn new() -> Self {
        Select {
            distinct: false,
            items: Vec::new(),
            from: None,
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

impl Default for Select {
    fn default() -> Self {
        Select::new()
    }
}

/// INSERT statement. Either explicit VALUES rows or `INSERT … SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Column list; empty means "all columns in declaration order".
    pub columns: Vec<String>,
    /// Data source.
    pub source: InsertSource,
}

/// The data source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …`.
    Select(Box<Select>),
}

/// UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET col = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// WHERE predicate; `None` updates every row.
    pub where_clause: Option<Expr>,
}

/// DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// WHERE predicate; `None` deletes every row.
    pub where_clause: Option<Expr>,
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: TypeName,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// Single-column PRIMARY KEY marker.
    pub primary_key: bool,
    /// UNIQUE constraint.
    pub unique: bool,
    /// DEFAULT expression.
    pub default: Option<Expr>,
    /// Inline `REFERENCES table(col)`.
    pub references: Option<(String, String)>,
    /// Inline `CHECK (expr)` constraint.
    pub check: Option<Expr>,
}

impl ColumnDef {
    /// A plain nullable column of the given type.
    pub fn new(name: impl Into<String>, ty: TypeName) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            not_null: false,
            primary_key: false,
            unique: false,
            default: None,
            references: None,
            check: None,
        }
    }
}

/// Table-level constraint in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    /// `PRIMARY KEY (a, b)`.
    PrimaryKey(Vec<String>),
    /// `UNIQUE (a, b)`.
    Unique(Vec<String>),
    /// `FOREIGN KEY (a) REFERENCES t (b)`.
    ForeignKey {
        /// Local columns.
        columns: Vec<String>,
        /// Referenced table.
        foreign_table: String,
        /// Referenced columns.
        foreign_columns: Vec<String>,
    },
    /// `CHECK (expr)`.
    Check(Expr),
}

/// CREATE TABLE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// `IF NOT EXISTS` flag.
    pub if_not_exists: bool,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table-level constraints.
    pub constraints: Vec<TableConstraint>,
}

/// CREATE VIEW statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateView {
    /// View name.
    pub name: String,
    /// The defining query.
    pub query: Select,
}

/// DROP TABLE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DropTable {
    /// Table names.
    pub names: Vec<String>,
    /// `IF EXISTS` flag.
    pub if_exists: bool,
}

/// CREATE INDEX statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed columns, in order.
    pub columns: Vec<String>,
    /// UNIQUE index?
    pub unique: bool,
}

/// ALTER TABLE statement (column add/drop/rename only).
#[derive(Debug, Clone, PartialEq)]
pub enum AlterTable {
    /// `ALTER TABLE t ADD COLUMN c type`.
    AddColumn {
        /// Table.
        table: String,
        /// New column.
        column: ColumnDef,
    },
    /// `ALTER TABLE t DROP COLUMN c`.
    DropColumn {
        /// Table.
        table: String,
        /// Dropped column.
        column: String,
    },
    /// `ALTER TABLE t RENAME TO u`.
    RenameTable {
        /// Table.
        table: String,
        /// New name.
        new_name: String,
    },
}

impl AlterTable {
    /// The table the statement alters.
    pub fn table(&self) -> &str {
        match self {
            AlterTable::AddColumn { table, .. }
            | AlterTable::DropColumn { table, .. }
            | AlterTable::RenameTable { table, .. } => table,
        }
    }
}

/// GRANT / REVOKE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantRevoke {
    /// `true` for GRANT, `false` for REVOKE.
    pub grant: bool,
    /// Actions granted; `None` means `ALL PRIVILEGES`.
    pub actions: Option<Vec<Action>>,
    /// Object names (`ON t1, t2`).
    pub objects: Vec<String>,
    /// Grantee user name.
    pub user: String,
}

/// Any parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(Select),
    /// INSERT.
    Insert(Insert),
    /// UPDATE.
    Update(Update),
    /// DELETE.
    Delete(Delete),
    /// CREATE TABLE.
    CreateTable(CreateTable),
    /// CREATE VIEW.
    CreateView(CreateView),
    /// DROP VIEW.
    DropView {
        /// View name.
        name: String,
        /// IF EXISTS flag.
        if_exists: bool,
    },
    /// DROP TABLE.
    DropTable(DropTable),
    /// CREATE INDEX.
    CreateIndex(CreateIndex),
    /// ALTER TABLE.
    AlterTable(AlterTable),
    /// BEGIN \[TRANSACTION\].
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// SAVEPOINT name.
    Savepoint(String),
    /// ROLLBACK TO \[SAVEPOINT\] name.
    RollbackTo(String),
    /// RELEASE \[SAVEPOINT\] name.
    Release(String),
    /// GRANT / REVOKE.
    GrantRevoke(GrantRevoke),
    /// EXPLAIN wrapping another statement: describe the plan, don't run it.
    Explain {
        /// The statement being explained.
        stmt: Box<Statement>,
        /// `EXPLAIN ANALYZE`: execute the statement and report real
        /// per-operator row counts alongside the estimates.
        analyze: bool,
    },
    /// ANALYZE \[table\]: collect optimizer statistics (row counts and
    /// per-column distinct counts) for one table, or for every table when
    /// no name is given.
    Analyze {
        /// The table to analyze; `None` analyzes the whole database.
        table: Option<String>,
    },
}

impl Statement {
    /// The primary action the statement performs (drives privilege checks
    /// and tool routing).
    pub fn action(&self) -> Action {
        match self {
            Statement::Select(_) => Action::Select,
            Statement::Insert(_) => Action::Insert,
            Statement::Update(_) => Action::Update,
            Statement::Delete(_) => Action::Delete,
            Statement::CreateTable(_) | Statement::CreateView(_) | Statement::CreateIndex(_) => {
                Action::Create
            }
            Statement::DropTable(_) | Statement::DropView { .. } => Action::Drop,
            Statement::AlterTable(_) => Action::Alter,
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Savepoint(_)
            | Statement::RollbackTo(_)
            | Statement::Release(_) => Action::Transaction,
            Statement::GrantRevoke(_) => Action::GrantRevoke,
            // EXPLAIN needs the privileges of the statement it explains.
            Statement::Explain { stmt, .. } => stmt.action(),
            // ANALYZE rewrites catalog statistics: a schema-level write.
            Statement::Analyze { .. } => Action::Alter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_keywords() {
        assert_eq!(Action::Select.keyword(), "select");
        assert_eq!(Action::Drop.keyword(), "drop");
        assert!(!Action::Select.is_write());
        assert!(Action::Insert.is_write());
        assert!(!Action::Transaction.is_write());
    }

    #[test]
    fn statement_actions() {
        assert_eq!(Statement::Begin.action(), Action::Transaction);
        let sel = Statement::Select(Select::new());
        assert_eq!(sel.action(), Action::Select);
    }

    #[test]
    fn table_ref_binding_prefers_alias() {
        let t = TableRef {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding(), "o");
        let t = TableRef {
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(t.binding(), "orders");
    }

    #[test]
    fn expr_builders() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::int(5));
        match e {
            Expr::Binary {
                op: BinaryOp::Gt, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
