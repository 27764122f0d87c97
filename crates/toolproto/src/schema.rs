//! JSON-schema-flavoured argument specifications for tools.
//!
//! Tool descriptors carry a typed signature so that (a) the simulated agent
//! can render an accurate tool prompt — the paper's token accounting includes
//! tool descriptions — and (b) invocations can be validated before execution,
//! which is the first line of BridgeScope's rule-based checks.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// The JSON type expected for one argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgType {
    /// Any JSON value is accepted.
    Any,
    /// A string.
    String,
    /// A number (integer or float).
    Number,
    /// An integer-valued number.
    Integer,
    /// A boolean.
    Bool,
    /// An array whose elements all match the inner type.
    Array(Box<ArgType>),
    /// An arbitrary JSON object.
    Object,
    /// A string restricted to one of the listed values.
    Enum(Vec<String>),
}

impl ArgType {
    /// Check a value against this type.
    pub fn check(&self, value: &Json) -> bool {
        match self {
            ArgType::Any => true,
            ArgType::String => matches!(value, Json::Str(_)),
            ArgType::Number => matches!(value, Json::Number(_)),
            ArgType::Integer => value.as_i64().is_some(),
            ArgType::Bool => matches!(value, Json::Bool(_)),
            ArgType::Array(inner) => value
                .as_array()
                .is_some_and(|items| items.iter().all(|v| inner.check(v))),
            ArgType::Object => matches!(value, Json::Object(_)),
            ArgType::Enum(options) => value
                .as_str()
                .is_some_and(|s| options.iter().any(|o| o == s)),
        }
    }
}

impl fmt::Display for ArgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgType::Any => write!(f, "any"),
            ArgType::String => write!(f, "string"),
            ArgType::Number => write!(f, "number"),
            ArgType::Integer => write!(f, "integer"),
            ArgType::Bool => write!(f, "boolean"),
            ArgType::Array(inner) => write!(f, "array<{inner}>"),
            ArgType::Object => write!(f, "object"),
            ArgType::Enum(options) => write!(f, "enum[{}]", options.join("|")),
        }
    }
}

impl ArgType {
    /// Parse the rendered form back into a type (inverse of `Display`).
    /// Wire clients use this to rebuild signatures from `tools/list`
    /// responses so locally mirrored tools validate exactly like the
    /// server-side originals. Returns `None` for unrecognized text.
    pub fn parse(text: &str) -> Option<ArgType> {
        match text {
            "any" => Some(ArgType::Any),
            "string" => Some(ArgType::String),
            "number" => Some(ArgType::Number),
            "integer" => Some(ArgType::Integer),
            "boolean" => Some(ArgType::Bool),
            "object" => Some(ArgType::Object),
            _ => {
                if let Some(inner) = text
                    .strip_prefix("array<")
                    .and_then(|t| t.strip_suffix('>'))
                {
                    return ArgType::parse(inner).map(|t| ArgType::Array(Box::new(t)));
                }
                if let Some(body) = text.strip_prefix("enum[").and_then(|t| t.strip_suffix(']')) {
                    let options: Vec<String> = if body.is_empty() {
                        Vec::new()
                    } else {
                        body.split('|').map(str::to_owned).collect()
                    };
                    return Some(ArgType::Enum(options));
                }
                None
            }
        }
    }
}

/// One named argument in a tool signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgSpec {
    /// Argument name as it appears in the invocation object.
    pub name: String,
    /// Expected type.
    pub ty: ArgType,
    /// Human/LLM-facing description.
    pub description: String,
    /// Whether the argument must be present.
    pub required: bool,
    /// Default applied when an optional argument is absent.
    pub default: Option<Json>,
}

impl ArgSpec {
    /// A required argument.
    pub fn required(name: impl Into<String>, ty: ArgType, description: impl Into<String>) -> Self {
        ArgSpec {
            name: name.into(),
            ty,
            description: description.into(),
            required: true,
            default: None,
        }
    }

    /// An optional argument with a default.
    pub fn optional(
        name: impl Into<String>,
        ty: ArgType,
        description: impl Into<String>,
        default: Json,
    ) -> Self {
        ArgSpec {
            name: name.into(),
            ty,
            description: description.into(),
            required: false,
            default: Some(default),
        }
    }
}

/// The full argument signature of a tool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Signature {
    /// Declared arguments, in declaration order.
    pub args: Vec<ArgSpec>,
    /// When true, arguments not listed in `args` are passed through instead
    /// of rejected. The proxy tool needs this: its `tool_args` payload is an
    /// open-ended mapping.
    pub allow_extra: bool,
}

/// A violation found while validating an invocation against a [`Signature`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A required argument was not provided.
    Missing(String),
    /// An argument had the wrong JSON type.
    WrongType {
        /// Argument name.
        name: String,
        /// Expected type (rendered).
        expected: String,
        /// Actual JSON type found.
        found: &'static str,
    },
    /// An argument not declared in the signature was provided.
    Unknown(String),
    /// The invocation payload was not a JSON object.
    NotAnObject,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing(name) => write!(f, "missing required argument '{name}'"),
            ArgError::WrongType {
                name,
                expected,
                found,
            } => write!(f, "argument '{name}' expects {expected}, got {found}"),
            ArgError::Unknown(name) => write!(f, "unknown argument '{name}'"),
            ArgError::NotAnObject => write!(f, "tool arguments must be a JSON object"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Signature {
    /// A signature with the given arguments and no extras allowed.
    pub fn new(args: Vec<ArgSpec>) -> Self {
        Signature {
            args,
            allow_extra: false,
        }
    }

    /// A signature that additionally tolerates undeclared arguments.
    pub fn open(args: Vec<ArgSpec>) -> Self {
        Signature {
            args,
            allow_extra: true,
        }
    }

    /// Validate an invocation payload and normalize it: defaults are filled
    /// in for absent optional arguments. Returns the normalized object.
    pub fn validate(&self, payload: &Json) -> Result<BTreeMap<String, Json>, ArgError> {
        self.validate_owned(payload.clone())
    }

    /// [`Signature::validate`] by value: the argument values move from the
    /// payload into the normalized object instead of being cloned.
    pub fn validate_owned(&self, payload: Json) -> Result<BTreeMap<String, Json>, ArgError> {
        let mut given = match payload {
            Json::Object(map) => map,
            Json::Null => BTreeMap::new(),
            _ => return Err(ArgError::NotAnObject),
        };
        let mut normalized = BTreeMap::new();
        for spec in &self.args {
            match given.remove(&spec.name) {
                Some(value) => {
                    if !spec.ty.check(&value) {
                        return Err(ArgError::WrongType {
                            name: spec.name.clone(),
                            expected: spec.ty.to_string(),
                            found: value.type_name(),
                        });
                    }
                    normalized.insert(spec.name.clone(), value);
                }
                None if spec.required => return Err(ArgError::Missing(spec.name.clone())),
                None => {
                    if let Some(default) = &spec.default {
                        normalized.insert(spec.name.clone(), default.clone());
                    }
                }
            }
        }
        // Whatever is left in `given` is undeclared.
        if self.allow_extra {
            normalized.append(&mut given);
        } else if let Some(key) = given.into_keys().next() {
            return Err(ArgError::Unknown(key));
        }
        Ok(normalized)
    }

    /// Render the signature as a one-line human/LLM-readable spec. This text
    /// is part of the tool prompt and therefore of token accounting.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .args
            .iter()
            .map(|a| {
                if a.required {
                    format!("{}: {}", a.name, a.ty)
                } else {
                    format!("{}?: {}", a.name, a.ty)
                }
            })
            .collect();
        format!("({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        Signature::new(vec![
            ArgSpec::required("sql", ArgType::String, "statement"),
            ArgSpec::optional("limit", ArgType::Integer, "row cap", Json::num(100.0)),
        ])
    }

    #[test]
    fn validates_and_fills_defaults() {
        let args = sig()
            .validate(&Json::object([("sql", Json::str("SELECT 1"))]))
            .unwrap();
        assert_eq!(args["sql"].as_str(), Some("SELECT 1"));
        assert_eq!(args["limit"].as_i64(), Some(100));
    }

    #[test]
    fn rejects_missing_required() {
        assert_eq!(
            sig().validate(&Json::object::<_, String>([])),
            Err(ArgError::Missing("sql".into()))
        );
    }

    #[test]
    fn rejects_wrong_type() {
        let err = sig()
            .validate(&Json::object([("sql", Json::num(3.0))]))
            .unwrap_err();
        assert!(matches!(err, ArgError::WrongType { .. }));
    }

    #[test]
    fn rejects_unknown_unless_open() {
        let payload = Json::object([("sql", Json::str("x")), ("bogus", Json::Null)]);
        assert_eq!(
            sig().validate(&payload),
            Err(ArgError::Unknown("bogus".into()))
        );
        let open = Signature::open(sig().args);
        let args = open.validate(&payload).unwrap();
        assert!(args.contains_key("bogus"));
    }

    #[test]
    fn null_payload_is_empty_object() {
        let sig = Signature::new(vec![ArgSpec::optional(
            "k",
            ArgType::Integer,
            "top-k",
            Json::num(5.0),
        )]);
        let args = sig.validate(&Json::Null).unwrap();
        assert_eq!(args["k"].as_i64(), Some(5));
    }

    #[test]
    fn non_object_payload_rejected() {
        assert_eq!(
            sig().validate(&Json::Array(vec![])),
            Err(ArgError::NotAnObject)
        );
    }

    #[test]
    fn arg_types_check() {
        assert!(ArgType::Any.check(&Json::Null));
        assert!(ArgType::Integer.check(&Json::num(4.0)));
        assert!(!ArgType::Integer.check(&Json::num(4.5)));
        assert!(ArgType::Array(Box::new(ArgType::Number)).check(&Json::from(vec![1i64, 2])));
        assert!(!ArgType::Array(Box::new(ArgType::Number)).check(&Json::array([Json::str("x")])));
        let e = ArgType::Enum(vec!["read".into(), "write".into()]);
        assert!(e.check(&Json::str("read")));
        assert!(!e.check(&Json::str("admin")));
    }

    #[test]
    fn renders_signature() {
        assert_eq!(sig().render(), "(sql: string, limit?: integer)");
    }

    #[test]
    fn arg_type_parse_inverts_display() {
        let types = [
            ArgType::Any,
            ArgType::String,
            ArgType::Number,
            ArgType::Integer,
            ArgType::Bool,
            ArgType::Object,
            ArgType::Array(Box::new(ArgType::Array(Box::new(ArgType::Integer)))),
            ArgType::Enum(vec!["read".into(), "write".into()]),
        ];
        for ty in types {
            assert_eq!(ArgType::parse(&ty.to_string()), Some(ty));
        }
        assert_eq!(ArgType::parse("array<"), None);
        assert_eq!(ArgType::parse("gibberish"), None);
    }
}
