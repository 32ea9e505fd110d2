//! Typed values and value types.
//!
//! The paper's KER model provides the basic domains `integer`, `real`,
//! `string`, and `date` (Appendix A). `Value` is the dynamic value type
//! flowing through the engine; `ValueType` is its static tag.

use crate::date::Date;
use crate::error::{Result, StorageError};
use std::cmp::Ordering;
use std::fmt;

/// The static type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (`integer`).
    Int,
    /// 64-bit float (`real`).
    Real,
    /// UTF-8 string (`string` / `char[n]`).
    Str,
    /// Calendar date (`date`).
    Date,
}

impl ValueType {
    /// The KER basic-domain keyword for this type.
    pub fn keyword(&self) -> &'static str {
        match self {
            ValueType::Int => "integer",
            ValueType::Real => "real",
            ValueType::Str => "string",
            ValueType::Date => "date",
        }
    }

    /// Parse a KER basic-domain keyword.
    pub fn from_keyword(kw: &str) -> Option<ValueType> {
        match kw.to_ascii_lowercase().as_str() {
            "integer" | "int" => Some(ValueType::Int),
            "real" | "float" => Some(ValueType::Real),
            "string" | "char" | "text" => Some(ValueType::Str),
            "date" => Some(ValueType::Date),
            _ => None,
        }
    }

    /// Whether two types can be compared directly (Int and Real coerce).
    pub fn comparable_with(&self, other: &ValueType) -> bool {
        self == other
            || matches!(
                (self, other),
                (ValueType::Int, ValueType::Real) | (ValueType::Real, ValueType::Int)
            )
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A dynamically typed value stored in a relation.
///
/// `Null` represents a missing value; it never satisfies a comparison
/// predicate and sorts before every non-null value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// `integer` value.
    Int(i64),
    /// `real` value.
    Real(f64),
    /// `string` value.
    Str(String),
    /// `date` value.
    Date(Date),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The static type of this value, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Real(_) => Some(ValueType::Real),
            Value::Str(_) => Some(ValueType::Str),
            Value::Date(_) => Some(ValueType::Date),
        }
    }

    /// Whether this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, coercing `Int` to `Real`.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The date payload, if this is a `Date`.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Compare two values of compatible types.
    ///
    /// `Int` and `Real` are mutually comparable; any other cross-type
    /// comparison (or a comparison involving `Null`) is an error. Use
    /// [`Value::total_cmp`] when an arbitrary but total order is needed
    /// (e.g. sorting heterogeneous columns).
    pub fn compare(&self, other: &Value) -> Result<Ordering> {
        let incomparable = || StorageError::Incomparable {
            left: format!("{self}"),
            right: format!("{other}"),
        };
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Real(a), Value::Real(b)) => Ok(a.total_cmp(b)),
            (Value::Int(a), Value::Real(b)) => Ok((*a as f64).total_cmp(b)),
            (Value::Real(a), Value::Int(b)) => Ok(a.total_cmp(&(*b as f64))),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Ok(a.cmp(b)),
            _ => Err(incomparable()),
        }
    }

    /// A total order over all values, for sorting and keying.
    ///
    /// `Null` sorts first, then values are grouped by type tag
    /// (Int/Real merged on the number line), then compared within type.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Real(_) => 1,
                Value::Str(_) => 2,
                Value::Date(_) => 3,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => self.compare(other).unwrap_or(Ordering::Equal),
            o => o,
        }
    }

    /// Whether two values are equal under [`Value::compare`] semantics.
    pub fn sem_eq(&self, other: &Value) -> bool {
        self.compare(other).map(Ordering::is_eq).unwrap_or(false)
    }

    /// Parse a literal string as a value of the given type.
    pub fn parse_as(text: &str, ty: ValueType) -> Result<Value> {
        let err = || StorageError::ParseValue {
            text: text.to_string(),
            ty: ty.keyword().to_string(),
        };
        match ty {
            ValueType::Int => text
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| err()),
            ValueType::Real => text
                .trim()
                .parse::<f64>()
                .map(Value::Real)
                .map_err(|_| err()),
            ValueType::Str => Ok(Value::Str(text.to_string())),
            ValueType::Date => text.trim().parse::<Date>().map(Value::Date),
        }
    }

    /// Render the value as a bare literal (no quotes on strings).
    pub fn render_bare(&self) -> String {
        let mut out = String::new();
        self.write_bare(&mut out);
        out
    }

    /// Append the text of [`Value::render_bare`] to `out`, without
    /// building a `String` of its own.
    pub fn write_bare(&self, out: &mut String) {
        use std::fmt::Write;
        // Writing into a `String` cannot fail.
        let _ = match self {
            Value::Null => out.write_str("NULL"),
            Value::Int(v) => write!(out, "{v}"),
            Value::Real(v) => write_real(out, *v),
            Value::Str(s) => out.write_str(s),
            Value::Date(d) => write!(out, "{d}"),
        };
    }

    /// Whether two values have the same representation: the same
    /// variant and payload, with reals compared by bit pattern. Unlike
    /// `==`, this tells `-0.0` from `0.0`, which render differently.
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

fn write_real(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v}")
    }
}

impl fmt::Display for Value {
    /// Display as a source-level literal: strings are double-quoted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write_real(f, *v),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

/// A key wrapper giving [`Value`] `Eq + Ord + Hash` via the total order,
/// usable in `BTreeMap`/`HashMap` keys (e.g. primary-key indexes).
///
/// Equality follows `total_cmp`, so `Int(3)` and `Real(3.0)` are the same
/// key.
#[derive(Debug, Clone)]
pub struct ValueKey(pub Value);

impl PartialEq for ValueKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for ValueKey {}

impl PartialOrd for ValueKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for ValueKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        ValueRef(&self.0).hash(state);
    }
}

/// A borrowed [`ValueKey`]: orders, compares and hashes a `&Value`
/// under the total order without copying it (grouping keys,
/// `DISTINCT`, answer summaries, key lookups).
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'a>(pub &'a Value);

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(other.0) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(other.0)
    }
}

impl std::hash::Hash for ValueRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self.0 {
            Value::Null => 0u8.hash(state),
            // Int and Real hash identically when numerically equal so that
            // hashing is consistent with total_cmp equality.
            Value::Int(v) => {
                1u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Real(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.days_from_epoch().hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_compares_reals_by_bits() {
        assert!(Value::Real(-0.0) == Value::Real(0.0));
        assert!(!Value::Real(-0.0).identical(&Value::Real(0.0)));
        assert!(Value::Real(f64::NAN).identical(&Value::Real(f64::NAN)));
        assert!(!Value::Int(3).identical(&Value::Real(3.0)));
        assert!(Value::str("a").identical(&Value::str("a")));
        let mut out = String::new();
        for v in [
            Value::Null,
            Value::Int(-4),
            Value::Real(-0.0),
            Value::Real(2.5),
        ] {
            v.write_bare(&mut out);
            assert_eq!(out, v.render_bare());
            out.clear();
        }
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(3).compare(&Value::Real(3.0)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Real(2.5).compare(&Value::Int(3)).unwrap(),
            Ordering::Less
        );
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        // The paper's rules order ship ids lexicographically, e.g.
        // SSN623 <= Id <= SSN635.
        let a = Value::str("SSN623");
        let b = Value::str("SSN635");
        assert_eq!(a.compare(&b).unwrap(), Ordering::Less);
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Int(1).compare(&Value::str("x")).is_err());
        assert!(Value::Null.compare(&Value::Int(1)).is_err());
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = [
            Value::str("a"),
            Value::Int(5),
            Value::Null,
            Value::Date(Date::new(1981, 1, 1).unwrap()),
            Value::Real(1.5),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Real(1.5));
        assert_eq!(vs[2], Value::Int(5));
        assert_eq!(vs[3], Value::str("a"));
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            Value::parse_as("42", ValueType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::parse_as("4.5", ValueType::Real).unwrap(),
            Value::Real(4.5)
        );
        assert_eq!(
            Value::parse_as("hello", ValueType::Str).unwrap(),
            Value::str("hello")
        );
        assert!(Value::parse_as("abc", ValueType::Int).is_err());
    }

    #[test]
    fn display_literals() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("SSBN").to_string(), "\"SSBN\"");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn value_key_hash_consistent_with_eq() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(ValueKey(Value::Int(3)), "three");
        // Numerically equal Real must find the Int entry.
        assert_eq!(m.get(&ValueKey(Value::Real(3.0))), Some(&"three"));
    }
}
