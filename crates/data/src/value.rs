//! Cell values stored by the column-store tables.
//!
//! All estimators in this workspace operate on *dictionary-encoded* columns:
//! every column keeps a sorted list of its distinct [`Value`]s and stores one
//! `u32` value id per row. Range predicates on the original domain therefore
//! become contiguous id ranges, which is exactly the representation Naru, UAE
//! and Duet all work with (they "discretize" columns the same way).

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
///
/// Ordering is total: `Null < Int(_) < Text(_)`, integers by numeric value,
/// text lexicographically. This matches the order used when building column
/// dictionaries, so value-id order always agrees with `Value` order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// 64-bit integer (also used for dates encoded as days since epoch).
    Int(i64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Rank of the variant, used for cross-variant ordering.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Text(_) => 2,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// Parse a CSV field into a [`Value`]: empty string becomes `Null`, a value
/// that parses as `i64` becomes `Int`, anything else `Text`.
pub fn parse_value(field: &str) -> Value {
    if field.is_empty() {
        Value::Null
    } else if let Ok(i) = field.parse::<i64>() {
        Value::Int(i)
    } else {
        Value::Text(field.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        assert!(Value::Null < Value::Int(-100));
        assert!(Value::Int(5) < Value::Int(6));
        assert!(Value::Int(1000) < Value::text("a"));
        assert!(Value::text("a") < Value::text("b"));
        assert_eq!(Value::Int(3).cmp(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn parse_value_detects_types() {
        assert_eq!(parse_value(""), Value::Null);
        assert_eq!(parse_value("42"), Value::Int(42));
        assert_eq!(parse_value("-7"), Value::Int(-7));
        assert_eq!(parse_value("hello"), Value::text("hello"));
        assert_eq!(parse_value("4.5"), Value::text("4.5"));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for v in [Value::Null, Value::Int(12), Value::text("abc")] {
            assert_eq!(parse_value(&v.to_string()), v);
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from("x".to_string()), Value::text("x"));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }
}
