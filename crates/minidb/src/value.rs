//! Runtime values and SQL comparison semantics.

use sqlkit::ast::TypeName;
use std::cmp::Ordering;
use std::fmt;

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text. Dates/timestamps are ISO-8601 text, whose lexicographic
    /// order matches chronological order.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's runtime type, or `None` for NULL.
    pub fn type_name(&self) -> Option<TypeName> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(TypeName::Integer),
            Value::Float(_) => Some(TypeName::Float),
            Value::Text(_) => Some(TypeName::Text),
            Value::Bool(_) => Some(TypeName::Boolean),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats with zero fraction narrow).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL equality: NULL compares as unknown (`None`).
    pub(crate) fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison with NULL → unknown and numeric cross-type coercion.
    /// Mixed non-numeric types compare as unknown rather than erroring —
    /// matching the lenient behaviour of engines like SQLite that BIRD-style
    /// workloads rely on.
    pub(crate) fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order used for ORDER BY, DISTINCT, GROUP BY keys, and index
    /// keys: NULLs first, then bools, ints/floats (numeric order), then
    /// text. NaN sorts after all other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => {
                let x = a.as_f64().expect("numeric rank");
                let y = b.as_f64().expect("numeric rank");
                x.total_cmp(&y)
            }
        }
    }

    /// Render the value the way a query result cell would show it.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_owned(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() && f.abs() < 9.0e15 {
                    format!("{:.1}", f)
                } else {
                    format!("{f}")
                }
            }
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// Coerce this value for storage into a column of type `ty`.
    ///
    /// Integers widen into float columns, and integral floats narrow into
    /// integer columns; anything else must match exactly. NULL always
    /// coerces (NOT NULL is enforced separately by the constraint layer).
    pub(crate) fn coerce_to(&self, ty: TypeName) -> Result<Value, String> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(_), TypeName::Integer) => Ok(self.clone()),
            (Value::Int(i), TypeName::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(_), TypeName::Float) => Ok(self.clone()),
            (Value::Float(f), TypeName::Integer) if f.fract() == 0.0 && f.is_finite() => {
                Ok(Value::Int(*f as i64))
            }
            (Value::Text(_), TypeName::Text) => Ok(self.clone()),
            (Value::Bool(_), TypeName::Boolean) => Ok(self.clone()),
            (v, ty) => Err(format!(
                "cannot store {} value into {} column",
                v.type_name().map_or("null", |t| t.sql()),
                ty.sql()
            )),
        }
    }

    /// SQL CAST semantics (more permissive than storage coercion).
    pub(crate) fn cast_to(&self, ty: TypeName) -> Result<Value, String> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v, TypeName::Text) => Ok(Value::Text(v.render())),
            (Value::Text(s), TypeName::Integer) => s
                .trim()
                .parse::<i64>()
                .or_else(|_| s.trim().parse::<f64>().map(|f| f as i64))
                .map(Value::Int)
                .map_err(|_| format!("cannot cast '{s}' to INTEGER")),
            (Value::Text(s), TypeName::Float) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| format!("cannot cast '{s}' to REAL")),
            (Value::Text(s), TypeName::Boolean) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "yes" => Ok(Value::Bool(true)),
                "false" | "f" | "0" | "no" => Ok(Value::Bool(false)),
                _ => Err(format!("cannot cast '{s}' to BOOLEAN")),
            },
            (Value::Int(i), TypeName::Integer) => Ok(Value::Int(*i)),
            (Value::Int(i), TypeName::Float) => Ok(Value::Float(*i as f64)),
            (Value::Int(i), TypeName::Boolean) => Ok(Value::Bool(*i != 0)),
            (Value::Float(f), TypeName::Float) => Ok(Value::Float(*f)),
            (Value::Float(f), TypeName::Integer) => Ok(Value::Int(*f as i64)),
            (Value::Float(f), TypeName::Boolean) => Ok(Value::Bool(*f != 0.0)),
            (Value::Bool(b), TypeName::Integer) => Ok(Value::Int(i64::from(*b))),
            (Value::Bool(b), TypeName::Float) => Ok(Value::Float(f64::from(u8::from(*b)))),
            (Value::Bool(b), TypeName::Boolean) => Ok(Value::Bool(*b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A stored row.
pub(crate) type Row = Vec<Value>;

/// Wrapper giving rows of values a total order, for use as index and
/// grouping keys.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Key(pub Vec<Value>);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        let mut it_a = self.0.iter();
        let mut it_b = other.0.iter();
        loop {
            match (it_a.next(), it_b.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(a), Some(b)) => match a.total_cmp(b) {
                    Ordering::Equal => continue,
                    other => return other,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mixed_type_compare_is_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Text("1".into())), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [
            Value::Text("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::Text("a".into()));
    }

    #[test]
    fn nan_has_a_stable_position() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(1.0);
        assert_eq!(a.total_cmp(&b), Ordering::Greater);
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn storage_coercion() {
        assert_eq!(
            Value::Int(3).coerce_to(TypeName::Float),
            Ok(Value::Float(3.0))
        );
        assert_eq!(
            Value::Float(3.0).coerce_to(TypeName::Integer),
            Ok(Value::Int(3))
        );
        assert!(Value::Float(3.5).coerce_to(TypeName::Integer).is_err());
        assert!(Value::Text("x".into())
            .coerce_to(TypeName::Integer)
            .is_err());
        assert_eq!(Value::Null.coerce_to(TypeName::Boolean), Ok(Value::Null));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Text("42".into()).cast_to(TypeName::Integer),
            Ok(Value::Int(42))
        );
        assert_eq!(
            Value::Text(" 2.5 ".into()).cast_to(TypeName::Float),
            Ok(Value::Float(2.5))
        );
        assert_eq!(
            Value::Float(2.9).cast_to(TypeName::Integer),
            Ok(Value::Int(2))
        );
        assert_eq!(
            Value::Int(0).cast_to(TypeName::Boolean),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            Value::Bool(true).cast_to(TypeName::Text),
            Ok(Value::Text("true".into()))
        );
        assert!(Value::Text("abc".into())
            .cast_to(TypeName::Integer)
            .is_err());
    }

    #[test]
    fn key_ordering() {
        let a = Key(vec![Value::Int(1), Value::Text("a".into())]);
        let b = Key(vec![Value::Int(1), Value::Text("b".into())]);
        let c = Key(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a, "prefix sorts first");
    }

    #[test]
    fn render_values() {
        assert_eq!(Value::Float(3.0).render(), "3.0");
        assert_eq!(Value::Float(3.25).render(), "3.25");
        assert_eq!(Value::Int(3).render(), "3");
        assert_eq!(Value::Null.render(), "NULL");
    }
}
