//! Scalar expression evaluation with SQL three-valued logic.
//!
//! Evaluation happens against a [`Scope`]: a flat list of columns (each
//! optionally qualified by the table binding it came from) plus the current
//! row's values. Subqueries must be resolved to constants *before* row-wise
//! evaluation (see `exec::eval::resolve_select`); encountering one here is an
//! internal error.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use sqlkit::ast::{BinaryOp, ColumnRef, Expr, Literal, Select, SelectItem, UnaryOp};

/// One column visible to expression evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScopeCol {
    /// Table binding (alias or table name) the column belongs to, when it
    /// comes from a FROM item; `None` for computed columns.
    pub binding: Option<String>,
    /// Column name.
    pub name: String,
}

/// An evaluation scope: column metadata + current row values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scope<'a> {
    /// Column descriptors, parallel to `values`.
    pub columns: &'a [ScopeCol],
    /// Current row.
    pub values: &'a [Value],
}

impl<'a> Scope<'a> {
    /// Resolve a column reference to its position.
    pub(crate) fn resolve(&self, col: &ColumnRef) -> DbResult<usize> {
        match &col.table {
            Some(t) => self
                .columns
                .iter()
                .position(|c| c.binding.as_deref() == Some(t.as_str()) && c.name == col.column)
                .ok_or_else(|| DbError::UnknownColumn(format!("{t}.{}", col.column))),
            None => {
                let mut hits = self
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.name == col.column);
                match (hits.next(), hits.next()) {
                    (Some((i, _)), None) => Ok(i),
                    (Some(_), Some(_)) => Err(DbError::AmbiguousColumn(col.column.clone())),
                    (None, _) => Err(DbError::UnknownColumn(col.column.clone())),
                }
            }
        }
    }
}

/// Convert a literal to a runtime value.
pub(crate) fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Text(s.clone()),
    }
}

/// Evaluate an expression against a scope.
pub(crate) fn eval(expr: &Expr, scope: &Scope<'_>) -> DbResult<Value> {
    match expr {
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::Column(col) => {
            let i = scope.resolve(col)?;
            Ok(scope.values[i].clone())
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, scope)?;
            match op {
                UnaryOp::Not => Ok(match truth(&v) {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                }),
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(DbError::TypeError(format!(
                        "cannot negate {}",
                        other.render()
                    ))),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, scope),
        Expr::Function { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, scope)?);
            }
            scalar_function(name, &vals)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, scope)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let v = eval(item, scope)?;
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, scope)?;
            let lo = eval(low, scope)?;
            let hi = eval(high, scope)?;
            let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
            Ok(match and3(ge, le) {
                Some(b) => Value::Bool(b != *negated),
                None => Value::Null,
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, scope)?;
            let p = eval(pattern, scope)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(pat)) => {
                    Ok(Value::Bool(like_match(&s, &pat) != *negated))
                }
                (a, b) => Err(DbError::TypeError(format!(
                    "LIKE requires text operands, got {} and {}",
                    a.render(),
                    b.render()
                ))),
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, value) in branches {
                if truth(&eval(cond, scope)?) == Some(true) {
                    return eval(value, scope);
                }
            }
            match else_expr {
                Some(e) => eval(e, scope),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval(expr, scope)?;
            v.cast_to(*ty).map_err(DbError::TypeError)
        }
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => Err(DbError::Execution(
            "internal: subquery not resolved before evaluation".into(),
        )),
    }
}

/// Split an expression into its top-level AND conjuncts. A non-AND
/// expression is its own single conjunct. Used by predicate analysis to
/// find index-probe and equi-join opportunities.
pub(crate) fn conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                stack.push(right);
                stack.push(left);
            }
            other => out.push(other),
        }
    }
    out
}

/// Resolve a column reference against a column list without erroring:
/// `None` when the name is unknown *or ambiguous*. Planning uses this to
/// decide whether a hash join applies; an ambiguous reference simply falls
/// back to the evaluating path, which reports the proper error.
pub(crate) fn try_resolve(columns: &[ScopeCol], col: &ColumnRef) -> Option<usize> {
    match &col.table {
        Some(t) => columns
            .iter()
            .position(|c| c.binding.as_deref() == Some(t.as_str()) && c.name == col.column),
        None => {
            let mut hits = columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.name == col.column);
            match (hits.next(), hits.next()) {
                (Some((i, _)), None) => Some(i),
                _ => None,
            }
        }
    }
}

/// SQL truthiness: NULL is unknown.
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Text(_) => Some(false),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn eval_binary(left: &Expr, op: BinaryOp, right: &Expr, scope: &Scope<'_>) -> DbResult<Value> {
    // Short-circuit logical operators with 3VL.
    if op == BinaryOp::And {
        let l = truth(&eval(left, scope)?);
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truth(&eval(right, scope)?);
        return Ok(match and3(l, r) {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        });
    }
    if op == BinaryOp::Or {
        let l = truth(&eval(left, scope)?);
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truth(&eval(right, scope)?);
        return Ok(match or3(l, r) {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        });
    }
    let l = eval(left, scope)?;
    let r = eval(right, scope)?;
    match op {
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let cmp = l.sql_cmp(&r);
            Ok(match cmp {
                None => Value::Null,
                Some(o) => {
                    let b = match op {
                        BinaryOp::Eq => o == std::cmp::Ordering::Equal,
                        BinaryOp::NotEq => o != std::cmp::Ordering::Equal,
                        BinaryOp::Lt => o == std::cmp::Ordering::Less,
                        BinaryOp::LtEq => o != std::cmp::Ordering::Greater,
                        BinaryOp::Gt => o == std::cmp::Ordering::Greater,
                        BinaryOp::GtEq => o != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    Value::Bool(b)
                }
            })
        }
        BinaryOp::Concat => match (&l, &r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => Ok(Value::Text(format!("{}{}", a.render(), b.render()))),
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arithmetic(op, &l, &r)
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> DbResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic stays integral (except division by zero errors and
    // `/` keeps integer semantics like PostgreSQL).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            BinaryOp::Div => {
                if *b == 0 {
                    Err(DbError::Execution("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    Err(DbError::Execution("division by zero".into()))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!(),
        };
    }
    let a = l
        .as_f64()
        .ok_or_else(|| DbError::TypeError(format!("non-numeric operand {}", l.render())))?;
    let b = r
        .as_f64()
        .ok_or_else(|| DbError::TypeError(format!("non-numeric operand {}", r.render())))?;
    let v = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(DbError::Execution("division by zero".into()));
            }
            a / b
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(DbError::Execution("division by zero".into()));
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(v))
}

/// SQL LIKE with `%` (any run) and `_` (any char), case-sensitive.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer algorithm with backtracking on the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            pi = sp + 1;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Built-in scalar functions (public so the aggregate evaluator can apply
/// them to already-computed aggregate results, e.g. `ROUND(SUM(x), 2)`).
pub(crate) fn scalar_function(name: &str, args: &[Value]) -> DbResult<Value> {
    let arity = |n: usize| -> DbResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(DbError::TypeError(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                v => Err(DbError::TypeError(format!("abs() on {}", v.render()))),
            }
        }
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(DbError::TypeError(
                    "round() expects 1 or 2 arguments".into(),
                ));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let x = args[0]
                .as_f64()
                .ok_or_else(|| DbError::TypeError("round() on non-number".into()))?;
            let digits = if args.len() == 2 {
                args[1]
                    .as_i64()
                    .ok_or_else(|| DbError::TypeError("round() digits must be integer".into()))?
            } else {
                0
            };
            let factor = 10f64.powi(digits as i32);
            Ok(Value::Float((x * factor).round() / factor))
        }
        "ceil" | "ceiling" => {
            arity(1)?;
            num_unary(name, &args[0], f64::ceil)
        }
        "floor" => {
            arity(1)?;
            num_unary(name, &args[0], f64::floor)
        }
        "sqrt" => {
            arity(1)?;
            num_unary(name, &args[0], f64::sqrt)
        }
        "power" | "pow" => {
            arity(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let a = args[0]
                .as_f64()
                .ok_or_else(|| DbError::TypeError("power() on non-number".into()))?;
            let b = args[1]
                .as_f64()
                .ok_or_else(|| DbError::TypeError("power() on non-number".into()))?;
            Ok(Value::Float(a.powf(b)))
        }
        "upper" => {
            arity(1)?;
            text_unary(name, &args[0], |s| s.to_uppercase())
        }
        "lower" => {
            arity(1)?;
            text_unary(name, &args[0], |s| s.to_lowercase())
        }
        "trim" => {
            arity(1)?;
            text_unary(name, &args[0], |s| s.trim().to_owned())
        }
        "ltrim" => {
            arity(1)?;
            text_unary(name, &args[0], |s| s.trim_start().to_owned())
        }
        "rtrim" => {
            arity(1)?;
            text_unary(name, &args[0], |s| s.trim_end().to_owned())
        }
        "length" | "char_length" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                v => Err(DbError::TypeError(format!("length() on {}", v.render()))),
            }
        }
        "substr" | "substring" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(DbError::TypeError(
                    "substr() expects 2 or 3 arguments".into(),
                ));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_str()
                .ok_or_else(|| DbError::TypeError("substr() on non-text".into()))?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| DbError::TypeError("substr() start must be integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // 1-based start, clamped.
            let begin = (start.max(1) as usize - 1).min(chars.len());
            let end = if args.len() == 3 {
                let len = args[2]
                    .as_i64()
                    .ok_or_else(|| DbError::TypeError("substr() length must be integer".into()))?
                    .max(0) as usize;
                (begin + len).min(chars.len())
            } else {
                chars.len()
            };
            Ok(Value::Text(chars[begin..end].iter().collect()))
        }
        "replace" => {
            arity(3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let (s, from, to) = (
                args[0]
                    .as_str()
                    .ok_or_else(|| DbError::TypeError("replace() on non-text".into()))?,
                args[1]
                    .as_str()
                    .ok_or_else(|| DbError::TypeError("replace() on non-text".into()))?,
                args[2]
                    .as_str()
                    .ok_or_else(|| DbError::TypeError("replace() on non-text".into()))?,
            );
            Ok(Value::Text(s.replace(from, to)))
        }
        "coalesce" => {
            for v in args {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        "nullif" => {
            arity(2)?;
            match args[0].sql_eq(&args[1]) {
                Some(true) => Ok(Value::Null),
                _ => Ok(args[0].clone()),
            }
        }
        "ifnull" => {
            arity(2)?;
            if args[0].is_null() {
                Ok(args[1].clone())
            } else {
                Ok(args[0].clone())
            }
        }
        "sign" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => {
                    let f = v
                        .as_f64()
                        .ok_or_else(|| DbError::TypeError("sign() on non-number".into()))?;
                    Ok(Value::Int(if f > 0.0 {
                        1
                    } else if f < 0.0 {
                        -1
                    } else {
                        0
                    }))
                }
            }
        }
        other => Err(DbError::Execution(format!("unknown function '{other}'"))),
    }
}

fn num_unary(name: &str, v: &Value, f: impl Fn(f64) -> f64) -> DbResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        v => {
            let x = v
                .as_f64()
                .ok_or_else(|| DbError::TypeError(format!("{name}() on non-number")))?;
            Ok(Value::Float(f(x)))
        }
    }
}

fn text_unary(name: &str, v: &Value, f: impl Fn(&str) -> String) -> DbResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Text(s) => Ok(Value::Text(f(s))),
        v => Err(DbError::TypeError(format!("{name}() on {}", v.render()))),
    }
}

/// Names the executor treats as aggregate functions.
pub(crate) fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}

/// Whether a SELECT block aggregates: GROUP BY, or an aggregate call in its
/// items, HAVING or ORDER BY.
pub(crate) fn select_aggregates(sel: &Select) -> bool {
    !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)))
        || sel.having.as_ref().is_some_and(contains_aggregate)
        || sel.order_by.iter().any(|o| contains_aggregate(&o.expr))
}

/// Whether an expression contains an aggregate call.
pub(crate) fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Function { name, args, .. } => {
            is_aggregate_name(name) || args.iter().any(contains_aggregate)
        }
        Expr::Literal(_) | Expr::Column(_) => false,
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::InSubquery { expr, .. } => contains_aggregate(expr),
        Expr::ScalarSubquery(_) => false,
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .any(|(c, v)| contains_aggregate(c) || contains_aggregate(v))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        Expr::Cast { expr, .. } => contains_aggregate(expr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_statement;
    use sqlkit::Statement;

    fn eval_const(sql_expr: &str) -> DbResult<Value> {
        let stmt = parse_statement(&format!("SELECT {sql_expr}")).unwrap();
        let expr = match stmt {
            Statement::Select(s) => match s.items.into_iter().next().unwrap() {
                sqlkit::ast::SelectItem::Expr { expr, .. } => expr,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        let scope = Scope {
            columns: &[],
            values: &[],
        };
        eval(&expr, &scope)
    }

    #[test]
    fn arithmetic_and_types() {
        assert_eq!(eval_const("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_const("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_const("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval_const("7 % 4").unwrap(), Value::Int(3));
        assert_eq!(eval_const("-5").unwrap(), Value::Int(-5));
        assert!(eval_const("1 / 0").is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_const("1 + NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_const("FALSE AND NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("TRUE AND NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("TRUE OR NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("FALSE OR NULL").unwrap(), Value::Null);
        assert_eq!(eval_const("NOT NULL").unwrap(), Value::Null);
    }

    #[test]
    fn in_list_with_nulls() {
        assert_eq!(eval_const("1 IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("3 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_const("3 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_const("1 NOT IN (1, 2)").unwrap(), Value::Bool(false));
    }

    #[test]
    fn between_and_like() {
        assert_eq!(eval_const("5 BETWEEN 1 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(
            eval_const("5 NOT BETWEEN 1 AND 4").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_const("'women''s wear' LIKE 'women%'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_const("'abc' LIKE 'a_c'").unwrap(), Value::Bool(true));
        assert_eq!(eval_const("'abc' LIKE 'a_d'").unwrap(), Value::Bool(false));
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("aXbXc", "a%b%c"));
        assert!(!like_match("abc", "b%"));
        assert!(like_match("hello world", "%o w%"));
    }

    #[test]
    fn case_expr() {
        assert_eq!(
            eval_const("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END").unwrap(),
            Value::Text("b".into())
        );
        assert_eq!(
            eval_const("CASE WHEN FALSE THEN 1 END").unwrap(),
            Value::Null
        );
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_const("ABS(-3)").unwrap(), Value::Int(3));
        assert_eq!(eval_const("ROUND(2.567, 2)").unwrap(), Value::Float(2.57));
        assert_eq!(eval_const("UPPER('ab')").unwrap(), Value::Text("AB".into()));
        assert_eq!(eval_const("LENGTH('héllo')").unwrap(), Value::Int(5));
        assert_eq!(
            eval_const("SUBSTR('hello', 2, 3)").unwrap(),
            Value::Text("ell".into())
        );
        assert_eq!(
            eval_const("COALESCE(NULL, NULL, 3)").unwrap(),
            Value::Int(3)
        );
        assert_eq!(eval_const("NULLIF(2, 2)").unwrap(), Value::Null);
        assert_eq!(eval_const("IFNULL(NULL, 9)").unwrap(), Value::Int(9));
        assert_eq!(
            eval_const("REPLACE('aXa', 'X', 'b')").unwrap(),
            Value::Text("aba".into())
        );
        assert_eq!(eval_const("SIGN(-2.5)").unwrap(), Value::Int(-1));
        assert_eq!(
            eval_const("'a' || 'b' || 'c'").unwrap(),
            Value::Text("abc".into())
        );
        assert!(eval_const("FROBNICATE(1)").is_err());
    }

    #[test]
    fn cast_in_expr() {
        assert_eq!(
            eval_const("CAST('12' AS INTEGER) + 1").unwrap(),
            Value::Int(13)
        );
        assert_eq!(eval_const("CAST(1 AS BOOLEAN)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn scope_resolution() {
        let cols = vec![
            ScopeCol {
                binding: Some("a".into()),
                name: "x".into(),
            },
            ScopeCol {
                binding: Some("b".into()),
                name: "x".into(),
            },
            ScopeCol {
                binding: Some("b".into()),
                name: "y".into(),
            },
        ];
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let scope = Scope {
            columns: &cols,
            values: &vals,
        };
        let qualified = ColumnRef {
            table: Some("b".into()),
            column: "x".into(),
        };
        assert_eq!(scope.resolve(&qualified).unwrap(), 1);
        let ambiguous = ColumnRef {
            table: None,
            column: "x".into(),
        };
        assert!(matches!(
            scope.resolve(&ambiguous),
            Err(DbError::AmbiguousColumn(_))
        ));
        let unique = ColumnRef {
            table: None,
            column: "y".into(),
        };
        assert_eq!(scope.resolve(&unique).unwrap(), 2);
        let missing = ColumnRef {
            table: None,
            column: "z".into(),
        };
        assert!(matches!(
            scope.resolve(&missing),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn aggregate_detection() {
        let stmt = parse_statement("SELECT COUNT(*) + 1").unwrap();
        if let Statement::Select(s) = stmt {
            if let sqlkit::ast::SelectItem::Expr { expr, .. } = &s.items[0] {
                assert!(contains_aggregate(expr));
                return;
            }
        }
        panic!("bad shape");
    }
}
