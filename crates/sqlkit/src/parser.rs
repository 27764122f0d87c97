//! Recursive-descent SQL parser.
//!
//! Expression parsing uses precedence climbing. Error messages carry the
//! byte offset of the offending token so the agent transcript can show
//! database-grade diagnostics.

use crate::ast::*;
use crate::token::{lex, LexError, Spanned, Token};
use std::fmt;

/// Parse error: lexical or syntactic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem (input length for unexpected EOF).
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            offset: e.offset,
            message: e.message,
        }
    }
}

/// Parse a single SQL statement. Trailing semicolon is allowed.
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let mut statements = parse_statements(sql)?;
    match statements.len() {
        1 => Ok(statements.remove(0)),
        0 => Err(ParseError {
            offset: 0,
            message: "empty statement".into(),
        }),
        _ => Err(ParseError {
            offset: 0,
            message: "expected a single statement".into(),
        }),
    }
}

/// Parse a semicolon-separated script into statements.
pub(crate) fn parse_statements(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let tokens = lex(sql)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        end: sql.len(),
    };
    let mut out = Vec::new();
    loop {
        while parser.eat_symbol(";") {}
        if parser.at_end() {
            break;
        }
        out.push(parser.statement()?);
        if !parser.eat_symbol(";") && !parser.at_end() {
            return Err(parser.error_here("expected ';' between statements"));
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    end: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|s| &s.token)
    }

    fn offset_here(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.end, |s| s.offset)
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset_here(),
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Check whether the current token is the given (unquoted) keyword.
    fn is_keyword(&self, kw: &str) -> bool {
        matches!(
            self.peek(),
            Some(Token::Ident { text, quoted: false }) if text.eq_ignore_ascii_case(kw)
        )
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {}", kw.to_uppercase())))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected '{sym}'")))
        }
    }

    /// Consume an identifier (keyword-like words allowed where unambiguous).
    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident { text, .. }) => {
                let name = text.clone();
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.error_here("expected identifier")),
        }
    }

    /// True when the token *after* the current one begins a statement —
    /// used to disambiguate the `ANALYZE` execution flag of `EXPLAIN`.
    fn next_starts_statement(&self) -> bool {
        const STARTERS: [&str; 17] = [
            "explain",
            "analyze",
            "select",
            "insert",
            "update",
            "delete",
            "create",
            "drop",
            "alter",
            "begin",
            "start",
            "commit",
            "rollback",
            "savepoint",
            "release",
            "grant",
            "revoke",
        ];
        match self.peek_at(1) {
            Some(Token::Ident { text, .. }) => {
                STARTERS.iter().any(|k| text.eq_ignore_ascii_case(k))
            }
            _ => false,
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("explain") {
            // `EXPLAIN ANALYZE <stmt>` vs `EXPLAIN ANALYZE [t]` (explaining
            // the ANALYZE statement itself): ANALYZE is an execution flag
            // only when a statement keyword follows it.
            let analyze = self.is_keyword("analyze") && self.next_starts_statement();
            if analyze {
                self.pos += 1;
            }
            let inner = self.statement()?;
            return Ok(Statement::Explain {
                stmt: Box::new(inner),
                analyze,
            });
        }
        if self.eat_keyword("analyze") {
            let table = if matches!(self.peek(), Some(Token::Ident { .. })) {
                Some(self.identifier()?)
            } else {
                None
            };
            return Ok(Statement::Analyze { table });
        }
        if self.is_keyword("select") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.is_keyword("insert") {
            return self.insert();
        }
        if self.is_keyword("update") {
            return self.update();
        }
        if self.is_keyword("delete") {
            return self.delete();
        }
        if self.is_keyword("create") {
            return self.create();
        }
        if self.is_keyword("drop") {
            return self.drop_table();
        }
        if self.is_keyword("alter") {
            return self.alter_table();
        }
        if self.eat_keyword("begin") || self.is_keyword("start") {
            if self.is_keyword("start") {
                self.pos += 1;
                self.expect_keyword("transaction")?;
            } else {
                // Optional TRANSACTION/WORK after BEGIN.
                let _ = self.eat_keyword("transaction") || self.eat_keyword("work");
            }
            return Ok(Statement::Begin);
        }
        if self.eat_keyword("commit") {
            let _ = self.eat_keyword("transaction") || self.eat_keyword("work");
            return Ok(Statement::Commit);
        }
        if self.eat_keyword("rollback") {
            let _ = self.eat_keyword("transaction") || self.eat_keyword("work");
            if self.eat_keyword("to") {
                let _ = self.eat_keyword("savepoint");
                return Ok(Statement::RollbackTo(self.identifier()?));
            }
            return Ok(Statement::Rollback);
        }
        if self.eat_keyword("savepoint") {
            return Ok(Statement::Savepoint(self.identifier()?));
        }
        if self.eat_keyword("release") {
            let _ = self.eat_keyword("savepoint");
            return Ok(Statement::Release(self.identifier()?));
        }
        if self.is_keyword("grant") || self.is_keyword("revoke") {
            return self.grant_revoke();
        }
        Err(self.error_here("expected a statement keyword"))
    }

    // ---------------- SELECT ----------------

    fn select(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword("select")?;
        let mut stmt = Select::new();
        stmt.distinct = self.eat_keyword("distinct");
        if !stmt.distinct {
            let _ = self.eat_keyword("all");
        }
        loop {
            stmt.items.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        if self.eat_keyword("from") {
            stmt.from = Some(self.table_ref()?);
            loop {
                let kind = if self.eat_keyword("cross") {
                    self.expect_keyword("join")?;
                    JoinKind::Cross
                } else if self.eat_keyword("inner") {
                    self.expect_keyword("join")?;
                    JoinKind::Inner
                } else if self.eat_keyword("left") {
                    let _ = self.eat_keyword("outer");
                    self.expect_keyword("join")?;
                    JoinKind::Left
                } else if self.eat_keyword("join") {
                    JoinKind::Inner
                } else if self.eat_symbol(",") {
                    // Comma join = cross join.
                    JoinKind::Cross
                } else {
                    break;
                };
                let table = self.table_ref()?;
                let on = if kind == JoinKind::Cross {
                    None
                } else {
                    self.expect_keyword("on")?;
                    Some(self.expr()?)
                };
                stmt.joins.push(Join { kind, table, on });
            }
        }
        if self.eat_keyword("where") {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_keyword("having") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.expr()?;
                let dir = if self.eat_keyword("desc") {
                    OrderDir::Desc
                } else {
                    let _ = self.eat_keyword("asc");
                    OrderDir::Asc
                };
                stmt.order_by.push(OrderItem { expr, dir });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_keyword("limit") {
            stmt.limit = Some(self.unsigned_integer()?);
            if self.eat_keyword("offset") {
                stmt.offset = Some(self.unsigned_integer()?);
            } else if self.eat_symbol(",") {
                // MySQL style LIMIT offset, count.
                let count = self.unsigned_integer()?;
                stmt.offset = stmt.limit.take();
                stmt.limit = Some(count);
            }
        } else if self.eat_keyword("offset") {
            stmt.offset = Some(self.unsigned_integer()?);
        }
        Ok(stmt)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // t.* — identifier dot star.
        if let Some(Token::Ident { text, .. }) = self.peek() {
            if matches!(self.peek_at(1), Some(Token::Symbol(".")))
                && matches!(self.peek_at(2), Some(Token::Symbol("*")))
            {
                let table = text.clone();
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(table));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("as") || self.can_be_bare_alias() {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// A bare identifier can serve as an alias unless it's a clause keyword.
    fn can_be_bare_alias(&self) -> bool {
        const RESERVED: &[&str] = &[
            "from", "where", "group", "having", "order", "limit", "offset", "join", "inner",
            "left", "right", "cross", "on", "and", "or", "not", "as", "union", "set", "values",
            "when", "then", "else", "end", "asc", "desc", "is", "in", "like", "between",
        ];
        match self.peek() {
            Some(Token::Ident { text, quoted }) => {
                *quoted || !RESERVED.iter().any(|r| text.eq_ignore_ascii_case(r))
            }
            _ => false,
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.identifier()?;
        let alias = if self.eat_keyword("as") || self.can_be_bare_alias() {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn unsigned_integer(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            Some(Token::Number(n)) => {
                let v: u64 = n
                    .parse()
                    .map_err(|_| self.error_here("expected unsigned integer"))?;
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.error_here("expected unsigned integer")),
        }
    }

    // ---------------- DML ----------------

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if self.eat_symbol("(") {
            loop {
                columns.push(self.identifier()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        let source = if self.eat_keyword("values") {
            let mut rows = Vec::new();
            loop {
                self.expect_symbol("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                rows.push(row);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.is_keyword("select") {
            InsertSource::Select(Box::new(self.select()?))
        } else {
            return Err(self.error_here("expected VALUES or SELECT"));
        };
        Ok(Statement::Insert(Insert {
            table,
            columns,
            source,
        }))
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("update")?;
        let table = self.identifier()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_symbol("=")?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let where_clause = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    // ---------------- DDL ----------------

    fn create(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("create")?;
        let unique = self.eat_keyword("unique");
        if self.eat_keyword("index") {
            let name = self.identifier()?;
            self.expect_keyword("on")?;
            let table = self.identifier()?;
            self.expect_symbol("(")?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.identifier()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Statement::CreateIndex(CreateIndex {
                name,
                table,
                columns,
                unique,
            }));
        }
        if unique {
            return Err(self.error_here("expected INDEX after UNIQUE"));
        }
        if self.eat_keyword("view") {
            let name = self.identifier()?;
            self.expect_keyword("as")?;
            let query = self.select()?;
            return Ok(Statement::CreateView(CreateView { name, query }));
        }
        self.expect_keyword("table")?;
        let if_not_exists = if self.eat_keyword("if") {
            self.expect_keyword("not")?;
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.identifier()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.is_keyword("primary")
                || self.is_keyword("unique") && matches!(self.peek_at(1), Some(Token::Symbol("(")))
                || self.is_keyword("foreign")
                || self.is_keyword("check")
                || self.is_keyword("constraint")
            {
                constraints.push(self.table_constraint()?);
            } else {
                columns.push(self.column_def()?);
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            if_not_exists,
            columns,
            constraints,
        }))
    }

    fn column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.identifier()?;
        let ty = self.type_name()?;
        let mut def = ColumnDef::new(name, ty);
        loop {
            if self.eat_keyword("not") {
                self.expect_keyword("null")?;
                def.not_null = true;
            } else if self.eat_keyword("null") {
                def.not_null = false;
            } else if self.eat_keyword("primary") {
                self.expect_keyword("key")?;
                def.primary_key = true;
                def.not_null = true;
            } else if self.eat_keyword("unique") {
                def.unique = true;
            } else if self.eat_keyword("default") {
                def.default = Some(self.primary_expr()?);
            } else if self.eat_keyword("references") {
                let table = self.identifier()?;
                self.expect_symbol("(")?;
                let column = self.identifier()?;
                self.expect_symbol(")")?;
                def.references = Some((table, column));
            } else if self.eat_keyword("check") {
                self.expect_symbol("(")?;
                def.check = Some(self.expr()?);
                self.expect_symbol(")")?;
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn type_name(&mut self) -> Result<TypeName, ParseError> {
        let raw = self.identifier()?.to_ascii_lowercase();
        let ty = match raw.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "serial" => TypeName::Integer,
            "real" | "float" | "double" | "numeric" | "decimal" => {
                let _ = self.eat_keyword("precision");
                self.maybe_type_args()?;
                TypeName::Float
            }
            "text" | "varchar" | "char" | "character" | "date" | "timestamp" | "time" => {
                let _ = self.eat_keyword("varying");
                self.maybe_type_args()?;
                TypeName::Text
            }
            "boolean" | "bool" => TypeName::Boolean,
            other => {
                return Err(self.error_here(format!("unknown type '{other}'")));
            }
        };
        Ok(ty)
    }

    /// Consume optional `(n[, m])` after a type name.
    fn maybe_type_args(&mut self) -> Result<(), ParseError> {
        if self.eat_symbol("(") {
            self.unsigned_integer()?;
            if self.eat_symbol(",") {
                self.unsigned_integer()?;
            }
            self.expect_symbol(")")?;
        }
        Ok(())
    }

    fn table_constraint(&mut self) -> Result<TableConstraint, ParseError> {
        if self.eat_keyword("constraint") {
            // Named constraint — consume the name, then the body.
            let _name = self.identifier()?;
        }
        if self.eat_keyword("primary") {
            self.expect_keyword("key")?;
            return Ok(TableConstraint::PrimaryKey(self.paren_name_list()?));
        }
        if self.eat_keyword("unique") {
            return Ok(TableConstraint::Unique(self.paren_name_list()?));
        }
        if self.eat_keyword("foreign") {
            self.expect_keyword("key")?;
            let columns = self.paren_name_list()?;
            self.expect_keyword("references")?;
            let foreign_table = self.identifier()?;
            let foreign_columns = self.paren_name_list()?;
            return Ok(TableConstraint::ForeignKey {
                columns,
                foreign_table,
                foreign_columns,
            });
        }
        if self.eat_keyword("check") {
            self.expect_symbol("(")?;
            let expr = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(TableConstraint::Check(expr));
        }
        Err(self.error_here("expected table constraint"))
    }

    fn paren_name_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_symbol("(")?;
        let mut names = Vec::new();
        loop {
            names.push(self.identifier()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(names)
    }

    fn drop_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("drop")?;
        if self.eat_keyword("view") {
            let if_exists = if self.eat_keyword("if") {
                self.expect_keyword("exists")?;
                true
            } else {
                false
            };
            let name = self.identifier()?;
            return Ok(Statement::DropView { name, if_exists });
        }
        self.expect_keyword("table")?;
        let if_exists = if self.eat_keyword("if") {
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let mut names = Vec::new();
        loop {
            names.push(self.identifier()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::DropTable(DropTable { names, if_exists }))
    }

    fn alter_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("alter")?;
        self.expect_keyword("table")?;
        let table = self.identifier()?;
        if self.eat_keyword("add") {
            let _ = self.eat_keyword("column");
            let column = self.column_def()?;
            return Ok(Statement::AlterTable(AlterTable::AddColumn {
                table,
                column,
            }));
        }
        if self.eat_keyword("drop") {
            let _ = self.eat_keyword("column");
            let column = self.identifier()?;
            return Ok(Statement::AlterTable(AlterTable::DropColumn {
                table,
                column,
            }));
        }
        if self.eat_keyword("rename") {
            self.expect_keyword("to")?;
            let new_name = self.identifier()?;
            return Ok(Statement::AlterTable(AlterTable::RenameTable {
                table,
                new_name,
            }));
        }
        Err(self.error_here("expected ADD, DROP, or RENAME"))
    }

    fn grant_revoke(&mut self) -> Result<Statement, ParseError> {
        let grant = self.eat_keyword("grant");
        if !grant {
            self.expect_keyword("revoke")?;
        }
        let actions = if self.eat_keyword("all") {
            let _ = self.eat_keyword("privileges");
            None
        } else {
            let mut list = Vec::new();
            loop {
                let word = self.identifier()?.to_ascii_lowercase();
                let action = match word.as_str() {
                    "select" => Action::Select,
                    "insert" => Action::Insert,
                    "update" => Action::Update,
                    "delete" => Action::Delete,
                    "create" => Action::Create,
                    "drop" => Action::Drop,
                    "alter" => Action::Alter,
                    other => {
                        return Err(self.error_here(format!("unknown privilege '{other}'")));
                    }
                };
                list.push(action);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            Some(list)
        };
        self.expect_keyword("on")?;
        let _ = self.eat_keyword("table");
        let mut objects = Vec::new();
        loop {
            objects.push(self.identifier()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        if grant {
            self.expect_keyword("to")?;
        } else {
            self.expect_keyword("from")?;
        }
        let user = self.identifier()?;
        Ok(Statement::GrantRevoke(GrantRevoke {
            grant,
            actions,
            objects,
            user,
        }))
    }

    // ---------------- Expressions ----------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("and") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_keyword("not");
        if self.eat_keyword("in") {
            self.expect_symbol("(")?;
            if self.is_keyword("select") {
                let subquery = self.select()?;
                self.expect_symbol(")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(subquery),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("between") {
            let low = self.additive()?;
            self.expect_keyword("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.error_here("expected IN, BETWEEN, or LIKE after NOT"));
        }
        let op = if self.eat_symbol("=") {
            Some(BinaryOp::Eq)
        } else if self.eat_symbol("<>") || self.eat_symbol("!=") {
            Some(BinaryOp::NotEq)
        } else if self.eat_symbol("<=") {
            Some(BinaryOp::LtEq)
        } else if self.eat_symbol(">=") {
            Some(BinaryOp::GtEq)
        } else if self.eat_symbol("<") {
            Some(BinaryOp::Lt)
        } else if self.eat_symbol(">") {
            Some(BinaryOp::Gt)
        } else {
            None
        };
        match op {
            Some(op) => {
                let right = self.additive()?;
                Ok(Expr::binary(left, op, right))
            }
            None => Ok(left),
        }
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_symbol("+") {
                BinaryOp::Add
            } else if self.eat_symbol("-") {
                BinaryOp::Sub
            } else if self.eat_symbol("||") {
                BinaryOp::Concat
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_symbol("*") {
                BinaryOp::Mul
            } else if self.eat_symbol("/") {
                BinaryOp::Div
            } else if self.eat_symbol("%") {
                BinaryOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_symbol("-") {
            let inner = self.unary()?;
            // Constant-fold negated numeric literals, as engines do; this
            // also makes format→parse a structural identity for "-1".
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                inner => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                },
            });
        }
        if self.eat_symbol("+") {
            return self.unary();
        }
        self.postfix()
    }

    /// Primary expression plus `::type` cast suffixes.
    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.primary_expr()?;
        while self.eat_symbol("::") {
            let ty = self.type_name()?;
            expr = Expr::Cast {
                expr: Box::new(expr),
                ty,
            };
        }
        Ok(expr)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        // Parenthesized: scalar subquery or grouped expression.
        if self.eat_symbol("(") {
            if self.is_keyword("select") {
                let sub = self.select()?;
                self.expect_symbol(")")?;
                return Ok(Expr::ScalarSubquery(Box::new(sub)));
            }
            let inner = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        // CASE.
        if self.eat_keyword("case") {
            let mut branches = Vec::new();
            while self.eat_keyword("when") {
                let cond = self.expr()?;
                self.expect_keyword("then")?;
                let value = self.expr()?;
                branches.push((cond, value));
            }
            if branches.is_empty() {
                return Err(self.error_here("CASE requires at least one WHEN"));
            }
            let else_expr = if self.eat_keyword("else") {
                Some(Box::new(self.expr()?))
            } else {
                None
            };
            self.expect_keyword("end")?;
            return Ok(Expr::Case {
                branches,
                else_expr,
            });
        }
        // CAST(expr AS type).
        if self.is_keyword("cast") && matches!(self.peek_at(1), Some(Token::Symbol("("))) {
            self.pos += 2;
            let expr = self.expr()?;
            self.expect_keyword("as")?;
            let ty = self.type_name()?;
            self.expect_symbol(")")?;
            return Ok(Expr::Cast {
                expr: Box::new(expr),
                ty,
            });
        }
        match self.advance() {
            Some(Token::Number(n)) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    let v: f64 = n.parse().map_err(|_| ParseError {
                        offset: self.offset_here(),
                        message: "invalid number".into(),
                    })?;
                    Ok(Expr::Literal(Literal::Float(v)))
                } else {
                    match n.parse::<i64>() {
                        Ok(v) => Ok(Expr::Literal(Literal::Int(v))),
                        // Overflowing integers fall back to float, as in
                        // most engines' lexers.
                        Err(_) => {
                            let v: f64 = n.parse().map_err(|_| ParseError {
                                offset: self.offset_here(),
                                message: "invalid number".into(),
                            })?;
                            Ok(Expr::Literal(Literal::Float(v)))
                        }
                    }
                }
            }
            Some(Token::Str(s)) => Ok(Expr::Literal(Literal::Str(s))),
            Some(Token::Ident { text, quoted }) => {
                // Keyword literals.
                if !quoted {
                    const RESERVED_IN_EXPR: &[&str] = &[
                        "from", "where", "group", "having", "order", "limit", "offset", "join",
                        "inner", "left", "cross", "on", "select", "set", "values", "when", "then",
                        "else", "end", "as", "union",
                    ];
                    if RESERVED_IN_EXPR
                        .iter()
                        .any(|r| text.eq_ignore_ascii_case(r))
                    {
                        return Err(ParseError {
                            offset: self.offset_here(),
                            message: format!(
                                "reserved keyword '{}' cannot be used as an identifier",
                                text.to_uppercase()
                            ),
                        });
                    }
                    if text.eq_ignore_ascii_case("null") {
                        return Ok(Expr::Literal(Literal::Null));
                    }
                    if text.eq_ignore_ascii_case("true") {
                        return Ok(Expr::Literal(Literal::Bool(true)));
                    }
                    if text.eq_ignore_ascii_case("false") {
                        return Ok(Expr::Literal(Literal::Bool(false)));
                    }
                }
                // Function call.
                if matches!(self.peek(), Some(Token::Symbol("("))) {
                    self.pos += 1;
                    let name = text.to_ascii_lowercase();
                    if self.eat_symbol("*") {
                        self.expect_symbol(")")?;
                        return Ok(Expr::Function {
                            name,
                            args: Vec::new(),
                            distinct: false,
                            star: true,
                        });
                    }
                    let distinct = self.eat_keyword("distinct");
                    let mut args = Vec::new();
                    if !self.eat_symbol(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                        self.expect_symbol(")")?;
                    }
                    return Ok(Expr::Function {
                        name,
                        args,
                        distinct,
                        star: false,
                    });
                }
                // Qualified column t.c.
                if matches!(self.peek(), Some(Token::Symbol("."))) {
                    self.pos += 1;
                    let column = self.identifier()?;
                    return Ok(Expr::Column(ColumnRef {
                        table: Some(text),
                        column,
                    }));
                }
                Ok(Expr::Column(ColumnRef {
                    table: None,
                    column: text,
                }))
            }
            Some(Token::Param(_)) => Err(ParseError {
                offset: self.offset_here(),
                message: "positional parameters are not supported in direct execution".into(),
            }),
            Some(tok) => Err(ParseError {
                offset: self.offset_here(),
                message: format!("unexpected token '{tok}' in expression"),
            }),
            None => Err(ParseError {
                offset: self.end,
                message: "unexpected end of statement".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_select() {
        let s = sel("SELECT 1");
        assert_eq!(s.items.len(), 1);
        assert!(s.from.is_none());
    }

    #[test]
    fn parses_full_select() {
        let s = sel(
            "SELECT d.name, COUNT(*) AS n FROM emp e JOIN dept d ON e.dept_id = d.id \
             WHERE e.salary > 1000 AND d.region = 'west' GROUP BY d.name \
             HAVING COUNT(*) >= 2 ORDER BY n DESC, d.name LIMIT 10 OFFSET 5",
        );
        assert!(s.from.is_some());
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn parses_joins() {
        let s = sel("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x CROSS JOIN c");
        assert_eq!(s.joins[0].kind, JoinKind::Left);
        assert_eq!(s.joins[1].kind, JoinKind::Cross);
        assert!(s.joins[1].on.is_none());
    }

    #[test]
    fn comma_join_is_cross() {
        let s = sel("SELECT * FROM a, b WHERE a.x = b.x");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Cross);
    }

    #[test]
    fn parses_subqueries() {
        let s =
            sel("SELECT * FROM t WHERE id IN (SELECT id FROM u) AND x > (SELECT AVG(x) FROM t)");
        let w = s.where_clause.unwrap();
        let text = format!("{w:?}");
        assert!(text.contains("InSubquery"));
        assert!(text.contains("ScalarSubquery"));
    }

    #[test]
    fn parses_predicates() {
        let s = sel(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b NOT LIKE 'x%' AND c IS NOT NULL \
             AND d IN (1, 2, 3) AND NOT e",
        );
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_case_cast() {
        let s = sel(
            "SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END, CAST(y AS REAL), z::integer FROM t",
        );
        assert_eq!(s.items.len(), 3);
    }

    #[test]
    fn parses_insert_values() {
        let st = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match st {
            Statement::Insert(ins) => {
                assert_eq!(ins.table, "t");
                assert_eq!(ins.columns, vec!["a", "b"]);
                match ins.source {
                    InsertSource::Values(rows) => assert_eq!(rows.len(), 2),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_select() {
        let st = parse_statement("INSERT INTO t SELECT * FROM u WHERE x > 1").unwrap();
        assert!(matches!(
            st,
            Statement::Insert(Insert {
                source: InsertSource::Select(_),
                ..
            })
        ));
    }

    #[test]
    fn parses_update_delete() {
        let st = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        match st {
            Statement::Update(u) => {
                assert_eq!(u.assignments.len(), 2);
                assert!(u.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        let st = parse_statement("DELETE FROM t WHERE id = 3").unwrap();
        assert!(matches!(st, Statement::Delete(_)));
    }

    #[test]
    fn parses_create_table() {
        let st = parse_statement(
            "CREATE TABLE IF NOT EXISTS sales (\
               id INTEGER PRIMARY KEY, \
               store TEXT NOT NULL REFERENCES stores(name), \
               amount REAL DEFAULT 0, \
               day DATE, \
               ok BOOLEAN, \
               UNIQUE (store, day), \
               FOREIGN KEY (store) REFERENCES stores (name), \
               CHECK (amount >= 0))",
        )
        .unwrap();
        match st {
            Statement::CreateTable(ct) => {
                assert!(ct.if_not_exists);
                assert_eq!(ct.columns.len(), 5);
                assert_eq!(ct.constraints.len(), 3);
                assert!(ct.columns[0].primary_key);
                assert!(ct.columns[1].not_null);
                assert_eq!(
                    ct.columns[1].references,
                    Some(("stores".into(), "name".into()))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ddl_misc() {
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS a, b").unwrap(),
            Statement::DropTable(DropTable {
                if_exists: true,
                ..
            })
        ));
        assert!(matches!(
            parse_statement("CREATE UNIQUE INDEX ix ON t (a, b)").unwrap(),
            Statement::CreateIndex(CreateIndex { unique: true, .. })
        ));
        assert!(matches!(
            parse_statement("ALTER TABLE t ADD COLUMN c INTEGER").unwrap(),
            Statement::AlterTable(AlterTable::AddColumn { .. })
        ));
        assert!(matches!(
            parse_statement("ALTER TABLE t RENAME TO u").unwrap(),
            Statement::AlterTable(AlterTable::RenameTable { .. })
        ));
    }

    #[test]
    fn parses_transactions() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(
            parse_statement("BEGIN TRANSACTION").unwrap(),
            Statement::Begin
        );
        assert_eq!(
            parse_statement("START TRANSACTION").unwrap(),
            Statement::Begin
        );
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(
            parse_statement("ROLLBACK WORK").unwrap(),
            Statement::Rollback
        );
    }

    #[test]
    fn parses_grant_revoke() {
        let st = parse_statement("GRANT SELECT, INSERT ON t1, t2 TO alice").unwrap();
        match st {
            Statement::GrantRevoke(g) => {
                assert!(g.grant);
                assert_eq!(g.actions, Some(vec![Action::Select, Action::Insert]));
                assert_eq!(g.objects, vec!["t1", "t2"]);
                assert_eq!(g.user, "alice");
            }
            other => panic!("{other:?}"),
        }
        let st = parse_statement("REVOKE ALL PRIVILEGES ON t FROM bob").unwrap();
        match st {
            Statement::GrantRevoke(g) => {
                assert!(!g.grant);
                assert_eq!(g.actions, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_scripts() {
        let stmts = parse_statements("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn operator_precedence() {
        let s = sel("SELECT 1 + 2 * 3");
        match &s.items[0] {
            SelectItem::Expr {
                expr:
                    Expr::Binary {
                        op: BinaryOp::Add,
                        right,
                        ..
                    },
                ..
            } => {
                assert!(matches!(
                    **right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = sel("SELECT * FROM t WHERE a OR b AND c");
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => {
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_sql() {
        for bad in [
            "",
            "SELEC 1",
            "SELECT FROM t",
            "INSERT t VALUES (1)",
            "UPDATE t SET",
            "DELETE t",
            "CREATE TABLE t",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t GROUP",
            "GRANT SUPERPOWERS ON t TO x",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn mysql_limit_offset_form() {
        let s = sel("SELECT * FROM t LIMIT 5, 10");
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn distinct_and_aggregates() {
        let s = sel("SELECT DISTINCT city, COUNT(DISTINCT name) FROM t");
        assert!(s.distinct);
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(distinct),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let s = sel("SELECT COUNT(*) FROM t");
        match &s.items[0] {
            SelectItem::Expr {
                expr: Expr::Function { star, name, .. },
                ..
            } => {
                assert!(*star);
                assert_eq!(name, "count");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_alias_not_confused_with_keywords() {
        let s = sel("SELECT amount total FROM sales WHERE x = 1");
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            other => panic!("{other:?}"),
        }
    }
}
