//! [`Value`] — the dynamically-typed scalar flowing through TweeQL
//! expressions, with the coercion and comparison rules the engine uses.

use crate::error::ModelError;
use crate::text::Text;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A runtime scalar value.
///
/// TweeQL is dynamically typed at the tuple level (tweets are messy);
/// `Value` carries the small closed set of types the language exposes.
/// Strings are [`Text`] handles, the type the tweet holds them in, so
/// the hot decode path — every tweet becomes a record carrying text,
/// screen name, location, and language — bumps a refcount instead of
/// copying, and records can cross worker-thread boundaries without
/// reallocation. A string value keeps the chunk it was cut from alive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL — absent / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (shared).
    Str(Text),
    /// Stream timestamp.
    Time(Timestamp),
    /// Homogeneous-ish list (used by e.g. named-entity UDFs).
    List(Vec<Value>),
}

impl Value {
    /// SQL three-valued truthiness: `Null` is "unknown" (treated false by
    /// filters), non-zero numbers are true, strings are true when
    /// non-empty.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Time(_) => true,
            Value::List(l) => !l.is_empty(),
        }
    }

    /// True when `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to `i64` (floats truncate, bools are 0/1, numeric strings
    /// parse).
    pub fn as_int(&self) -> Result<i64, ModelError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            Value::Bool(b) => Ok(*b as i64),
            Value::Str(s) => s.trim().parse().map_err(|_| ModelError::TypeMismatch {
                expected: "Int",
                found: format!("{self:?}"),
            }),
            _ => Err(ModelError::TypeMismatch {
                expected: "Int",
                found: format!("{self:?}"),
            }),
        }
    }

    /// Coerce to `f64`.
    pub fn as_float(&self) -> Result<f64, ModelError> {
        ValueRef::from(self)
            .as_float()
            .ok_or_else(|| ModelError::TypeMismatch {
                expected: "Float",
                found: format!("{self:?}"),
            })
    }

    /// Coerce to string (identity for `Str`, display rendering otherwise).
    pub fn as_str(&self) -> Result<&str, ModelError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(ModelError::TypeMismatch {
                expected: "Str",
                found: format!("{self:?}"),
            }),
        }
    }

    /// Coerce to a timestamp.
    pub fn as_time(&self) -> Result<Timestamp, ModelError> {
        match self {
            Value::Time(t) => Ok(*t),
            Value::Int(i) => Ok(Timestamp::from_millis(*i)),
            _ => Err(ModelError::TypeMismatch {
                expected: "Time",
                found: format!("{self:?}"),
            }),
        }
    }

    /// Numeric addition (Int+Int stays Int; anything involving Float is
    /// Float; Null propagates). String `+` concatenates.
    pub fn add(&self, other: &Value) -> Result<Value, ModelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}").into())),
            (a, b) => Ok(Value::Float(a.as_float()? + b.as_float()?)),
        }
    }

    /// Numeric subtraction with the same promotion rules as [`Value::add`].
    pub fn sub(&self, other: &Value) -> Result<Value, ModelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            (a, b) => Ok(Value::Float(a.as_float()? - b.as_float()?)),
        }
    }

    /// Numeric multiplication with the same promotion rules as [`Value::add`].
    pub fn mul(&self, other: &Value) -> Result<Value, ModelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            (a, b) => Ok(Value::Float(a.as_float()? * b.as_float()?)),
        }
    }

    /// Division: always floating point (SQL-style `/` on ints in TweeQL
    /// keeps fractional sentiment averages meaningful). Division by zero
    /// yields `Null` rather than an error, matching stream-processing
    /// practice of not killing a long-running query on one bad tuple.
    pub fn div(&self, other: &Value) -> Result<Value, ModelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => {
                let d = b.as_float()?;
                if d == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(a.as_float()? / d))
                }
            }
        }
    }

    /// Modulo on integers; `Null` on zero divisor. Wraps like `+`, `-`
    /// and `*`: `i64::MIN % -1` is 0, never a panic.
    pub fn rem(&self, other: &Value) -> Result<Value, ModelError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => {
                let d = b.as_int()?;
                if d == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a.as_int()?.wrapping_rem_euclid(d)))
                }
            }
        }
    }

    /// Unary numeric negation; `-i64::MIN` wraps to itself.
    pub fn neg(&self) -> Result<Value, ModelError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            _ => Err(ModelError::Arithmetic(format!("cannot negate {self:?}"))),
        }
    }

    /// SQL comparison: `None` when either side is `Null` (unknown),
    /// numeric promotion between Int/Float, lexicographic for strings.
    /// Cross-type non-numeric comparisons are unknown.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        ValueRef::from(self).compare(ValueRef::from(other))
    }

    /// Data-type tag for planning/diagnostics.
    pub fn data_type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Time(_) => "time",
            Value::List(_) => "list",
        }
    }
}

/// Structural equality used by GROUP BY keys and tests: Null == Null,
/// Int/Float compare numerically, NaN equals NaN (so grouping is total).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        ValueRef::from(self) == ValueRef::from(other)
    }
}

impl Eq for Value {}

/// Hash consistent with the grouping equality above (floats that equal
/// an integer hash like that integer; NaN hashes to a fixed bucket).
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        ValueRef::from(self).hash(state)
    }
}

/// A [`Value`] borrowed from wherever it lives — a record slot, a
/// tweet's own fields — without a refcount bump or an allocation.
///
/// It *is* the grouping equality, hash, comparison and float coercion
/// of `Value` (whose impls go through it), so a table keyed by `Value`s
/// can be probed with a view and the two can never disagree.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// Stream timestamp.
    Time(Timestamp),
    /// List.
    List(&'a [Value]),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Time(t) => ValueRef::Time(*t),
            Value::List(l) => ValueRef::List(l),
        }
    }
}

impl ValueRef<'_> {
    /// The value, owned: a string is copied into a chunk of its own, a
    /// list cloned.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.into()),
            ValueRef::Time(t) => Value::Time(t),
            ValueRef::List(l) => Value::List(l.to_vec()),
        }
    }

    /// True when `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// [`Value::as_float`], `None` where that is an error.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ValueRef::Float(f) => Some(*f),
            ValueRef::Int(i) => Some(*i as f64),
            ValueRef::Bool(b) => Some(*b as i64 as f64),
            ValueRef::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// [`Value::compare`].
    pub fn compare(self, other: ValueRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValueRef::Null, _) | (_, ValueRef::Null) => None,
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a.cmp(&b)),
            (ValueRef::Bool(a), ValueRef::Bool(b)) => Some(a.cmp(&b)),
            (ValueRef::Str(a), ValueRef::Str(b)) => Some(a.cmp(b)),
            (ValueRef::Time(a), ValueRef::Time(b)) => Some(a.cmp(&b)),
            (a, b) => a.as_float()?.partial_cmp(&b.as_float()?),
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (ValueRef::Int(a), ValueRef::Float(b)) | (ValueRef::Float(b), ValueRef::Int(a)) => {
                a as f64 == b
            }
            (ValueRef::Str(a), ValueRef::Str(b)) => a == b,
            (ValueRef::Time(a), ValueRef::Time(b)) => a == b,
            (ValueRef::List(a), ValueRef::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ValueRef<'_> {}

impl std::hash::Hash for ValueRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            ValueRef::Null => state.write_u8(0),
            ValueRef::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            ValueRef::Int(i) => {
                state.write_u8(2);
                // Hash ints through the float path when exactly
                // representable so Int(1) and Float(1.0) group together.
                canonical_float_hash(*i as f64, state);
            }
            ValueRef::Float(f) => {
                state.write_u8(2);
                canonical_float_hash(*f, state);
            }
            ValueRef::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            ValueRef::Time(t) => {
                state.write_u8(4);
                t.hash(state);
            }
            ValueRef::List(l) => {
                state.write_u8(5);
                for v in *l {
                    v.hash(state);
                }
            }
        }
    }
}

fn canonical_float_hash<H: std::hash::Hasher>(f: f64, state: &mut H) {
    if f.is_nan() {
        state.write_u64(u64::MAX);
    } else if f == 0.0 {
        // +0.0 and -0.0 are equal; hash identically.
        state.write_u64(0);
    } else {
        state.write_u64(f.to_bits());
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}
impl From<Text> for Value {
    fn from(s: Text) -> Self {
        Value::Str(s)
    }
}
impl From<&Text> for Value {
    fn from(s: &Text) -> Self {
        Value::Str(s.clone())
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Time(t)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Int(3).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
        assert!(!Value::List(vec![]).is_truthy());
    }

    #[test]
    fn numeric_promotion_in_add() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(
            Value::Str("a".into()).add(&Value::Str("b".into())).unwrap(),
            Value::Str("ab".into())
        );
    }

    #[test]
    fn division_by_zero_is_null_not_error() {
        assert_eq!(Value::Int(1).div(&Value::Int(0)).unwrap(), Value::Null);
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(Value::Int(1).rem(&Value::Int(0)).unwrap(), Value::Null);
        assert_eq!(Value::Int(7).rem(&Value::Int(3)).unwrap(), Value::Int(1));
    }

    #[test]
    fn integer_overflow_wraps_instead_of_panicking() {
        let min = Value::Int(i64::MIN);
        assert_eq!(min.rem(&Value::Int(-1)).unwrap(), Value::Int(0));
        assert_eq!(min.neg().unwrap(), min);
        assert_eq!(min.sub(&Value::Int(1)).unwrap(), Value::Int(i64::MAX));
        assert_eq!(
            Value::Int(i64::MAX).mul(&Value::Int(2)).unwrap(),
            Value::Int(-2)
        );
    }

    #[test]
    fn comparison_with_null_is_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Float(1.5).compare(&Value::Int(1)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Str("a".into()).compare(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn string_number_cross_compare_is_numeric_when_parsable() {
        assert_eq!(
            Value::Str("2".into()).compare(&Value::Int(10)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("abc".into()).compare(&Value::Int(10)), None);
    }

    #[test]
    fn int_float_group_equivalence() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        let mut m: HashMap<Value, i32> = HashMap::new();
        m.insert(Value::Int(1), 10);
        *m.entry(Value::Float(1.0)).or_insert(0) += 5;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&Value::Int(1)], 15);
    }

    #[test]
    fn nan_and_zero_hash_consistency() {
        let mut m: HashMap<Value, i32> = HashMap::new();
        m.insert(Value::Float(f64::NAN), 1);
        m.insert(Value::Float(f64::NAN), 2);
        assert_eq!(m.len(), 1);
        m.insert(Value::Float(0.0), 3);
        m.insert(Value::Float(-0.0), 4);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Str(" 42 ".into()).as_int().unwrap(), 42);
        assert_eq!(Value::Float(3.9).as_int().unwrap(), 3);
        assert_eq!(Value::Bool(true).as_float().unwrap(), 1.0);
        assert!(Value::Str("nope".into()).as_int().is_err());
        assert!(Value::List(vec![]).as_float().is_err());
        assert_eq!(
            Value::Int(1500).as_time().unwrap(),
            Timestamp::from_millis(1500)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("x".into())]).to_string(),
            "[1, x]"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(2i64)), Value::Int(2));
    }

    #[test]
    fn neg() {
        assert_eq!(Value::Int(3).neg().unwrap(), Value::Int(-3));
        assert_eq!(Value::Float(1.5).neg().unwrap(), Value::Float(-1.5));
        assert_eq!(Value::Null.neg().unwrap(), Value::Null);
        assert!(Value::Str("x".into()).neg().is_err());
    }
}
