//! Built-in scalar functions.
//!
//! The string/number/time vocabulary TweeQL queries use, including the
//! unstructured-text helpers the paper motivates: `regex_extract`,
//! `hashtags`, `urls`, `mentions`.

use super::value_as_str;
use crate::error::QueryError;
use crate::udf::{Registry, ScalarUdf};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tweeql_model::{Timestamp, Value};
use tweeql_text::fold::SmallBuf;
use tweeql_text::Regex;

/// A builtin backed by a plain function pointer.
struct FnUdf {
    name: &'static str,
    arity: (usize, usize), // min, max (usize::MAX = variadic)
    f: fn(&[Value]) -> Result<Value, QueryError>,
}

impl ScalarUdf for FnUdf {
    fn name(&self) -> &str {
        self.name
    }

    fn call(&self, args: &[Value]) -> Result<Value, QueryError> {
        if args.len() < self.arity.0 || args.len() > self.arity.1 {
            return Err(QueryError::BadArguments {
                function: self.name.to_string(),
                message: format!(
                    "expected {}..{} arguments, got {}",
                    self.arity.0,
                    if self.arity.1 == usize::MAX {
                        "∞".to_string()
                    } else {
                        self.arity.1.to_string()
                    },
                    args.len()
                ),
            });
        }
        (self.f)(args)
    }
}

fn err(function: &str, message: impl Into<String>) -> QueryError {
    QueryError::BadArguments {
        function: function.to_string(),
        message: message.into(),
    }
}

fn null_prop(args: &[Value]) -> bool {
    args.iter().any(|a| a.is_null())
}

// ---- numeric ----

fn f_floor(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Float(args[0].as_float()?.floor()))
}

fn f_ceil(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Float(args[0].as_float()?.ceil()))
}

fn f_round(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let x = args[0].as_float()?;
    let digits = if args.len() > 1 { args[1].as_int()? } else { 0 };
    let m = 10f64.powi(digits as i32);
    Ok(Value::Float((x * m).round() / m))
}

fn f_abs(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    match &args[0] {
        Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
        other => Ok(Value::Float(other.as_float()?.abs())),
    }
}

fn f_sqrt(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let x = args[0].as_float()?;
    if x < 0.0 {
        Ok(Value::Null)
    } else {
        Ok(Value::Float(x.sqrt()))
    }
}

// ---- strings ----

fn f_lower(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Str(args[0].to_string().to_lowercase().into()))
}

fn f_upper(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Str(args[0].to_string().to_uppercase().into()))
}

fn f_length(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    match &args[0] {
        Value::List(l) => Ok(Value::Int(l.len() as i64)),
        other => Ok(Value::Int(other.to_string().chars().count() as i64)),
    }
}

fn f_trim(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Str(args[0].to_string().trim().into()))
}

/// `substr(s, start_1_based, len?)` — char-based, SQL-style.
fn f_substr(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let s = args[0].to_string();
    let start = args[1].as_int()?.max(1) as usize - 1;
    let chars: Vec<char> = s.chars().collect();
    let len = if args.len() > 2 {
        args[2].as_int()?.max(0) as usize
    } else {
        chars.len().saturating_sub(start)
    };
    Ok(Value::Str(
        chars
            .iter()
            .skip(start)
            .take(len)
            .collect::<String>()
            .into(),
    ))
}

fn f_concat(args: &[Value]) -> Result<Value, QueryError> {
    let mut s = String::new();
    for a in args {
        if !a.is_null() {
            s.push_str(&a.to_string());
        }
    }
    Ok(Value::Str(s.into()))
}

fn f_replace(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Str(
        args[0]
            .to_string()
            .replace(&args[1].to_string(), &args[2].to_string())
            .into(),
    ))
}

// ---- control ----

fn f_coalesce(args: &[Value]) -> Result<Value, QueryError> {
    for a in args {
        if !a.is_null() {
            return Ok(a.clone());
        }
    }
    Ok(Value::Null)
}

/// `if(cond, then, else)`.
fn f_if(args: &[Value]) -> Result<Value, QueryError> {
    Ok(if args[0].is_truthy() {
        args[1].clone()
    } else {
        args[2].clone()
    })
}

// ---- casts ----

fn f_toint(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(args[0].as_int().map(Value::Int).unwrap_or(Value::Null))
}

fn f_tofloat(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(args[0].as_float().map(Value::Float).unwrap_or(Value::Null))
}

fn f_tostring(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    Ok(Value::Str(args[0].to_string().into()))
}

// ---- tweet text helpers ----

fn f_hashtags(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let e = tweeql_model::Entities::parse(&args[0].to_string());
    Ok(Value::List(
        e.hashtags
            .into_iter()
            .map(|h| Value::Str(h.tag.into()))
            .collect(),
    ))
}

fn f_urls(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let e = tweeql_model::Entities::parse(&args[0].to_string());
    Ok(Value::List(
        e.urls
            .into_iter()
            .map(|u| Value::Str(u.url.into()))
            .collect(),
    ))
}

fn f_mentions(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let e = tweeql_model::Entities::parse(&args[0].to_string());
    Ok(Value::List(
        e.mentions
            .into_iter()
            .map(|m| Value::Str(m.screen_name.into()))
            .collect(),
    ))
}

/// `first(list)` — first element or NULL.
fn f_first(args: &[Value]) -> Result<Value, QueryError> {
    match &args[0] {
        Value::List(l) => Ok(l.first().cloned().unwrap_or(Value::Null)),
        Value::Null => Ok(Value::Null),
        other => Err(err(
            "first",
            format!("expected list, got {}", other.data_type_name()),
        )),
    }
}

// ---- geo ----

/// `distance_km(lat1, lon1, lat2, lon2)` — great-circle distance.
fn f_distance_km(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let p1 = tweeql_geo::GeoPoint::new(args[0].as_float()?, args[1].as_float()?);
    let p2 = tweeql_geo::GeoPoint::new(args[2].as_float()?, args[3].as_float()?);
    Ok(Value::Float(p1.haversine_km(&p2)))
}

// ---- time ----

fn f_minute_of(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let t: Timestamp = args[0].as_time()?;
    Ok(Value::Int(t.millis() / 60_000))
}

fn f_second_of(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let t: Timestamp = args[0].as_time()?;
    Ok(Value::Int(t.millis() / 1000))
}

fn f_hour_of(args: &[Value]) -> Result<Value, QueryError> {
    if null_prop(args) {
        return Ok(Value::Null);
    }
    let t: Timestamp = args[0].as_time()?;
    Ok(Value::Int(t.millis() / 3_600_000))
}

// ---- regex_extract with a compiled-pattern cache ----

/// `regex_extract(text, pattern, group)`: text of capture `group` in the
/// leftmost match, or NULL. Patterns are compiled once per UDF instance.
#[derive(Default)]
pub struct RegexExtractUdf {
    /// The first pattern called with, compiled. A query's pattern is a
    /// literal, so every later call reads it here without a lock.
    first: OnceLock<(String, Regex)>,
    /// Any other pattern: one that changes from row to row.
    others: Mutex<HashMap<String, Regex>>,
}

impl ScalarUdf for RegexExtractUdf {
    fn name(&self) -> &str {
        "regex_extract"
    }

    fn call(&self, args: &[Value]) -> Result<Value, QueryError> {
        if args.len() != 3 {
            return Err(err("regex_extract", "expected (text, pattern, group)"));
        }
        if null_prop(args) {
            return Ok(Value::Null);
        }
        let (mut tbuf, mut pbuf) = (SmallBuf::new(), SmallBuf::new());
        let text = value_as_str(&args[0], &mut tbuf);
        let pattern = value_as_str(&args[1], &mut pbuf);
        let group = args[2].as_int()? as usize;
        let compile = |p: &str| Regex::new(p).map_err(|e| err("regex_extract", e.to_string()));
        // A match in a string value is cut from it: no copy.
        let extract = |regex: &Regex| match (regex.extract_span(text, group), &args[0]) {
            (None, _) => Value::Null,
            (Some((s, e)), Value::Str(t)) => Value::Str(t.slice(s..e)),
            (Some((s, e)), _) => Value::Str(text[s..e].into()),
        };
        let first = match self.first.get() {
            Some(first) => first,
            None => {
                let regex = compile(pattern)?;
                self.first.get_or_init(|| (pattern.to_string(), regex))
            }
        };
        if first.0 == pattern {
            return Ok(extract(&first.1));
        }
        let mut others = self.others.lock();
        if !others.contains_key(pattern) {
            others.insert(pattern.to_string(), compile(pattern)?);
        }
        Ok(extract(&others[pattern]))
    }
}

/// `(name, (min_arity, max_arity), implementation)` of one builtin.
type BuiltinSpec = (
    &'static str,
    (usize, usize),
    fn(&[Value]) -> Result<Value, QueryError>,
);

/// Register every builtin into `registry`.
pub fn register_builtins(registry: &mut Registry) {
    let fns: &[BuiltinSpec] = &[
        ("floor", (1, 1), f_floor),
        ("ceil", (1, 1), f_ceil),
        ("round", (1, 2), f_round),
        ("abs", (1, 1), f_abs),
        ("sqrt", (1, 1), f_sqrt),
        ("lower", (1, 1), f_lower),
        ("upper", (1, 1), f_upper),
        ("length", (1, 1), f_length),
        ("trim", (1, 1), f_trim),
        ("substr", (2, 3), f_substr),
        ("concat", (0, usize::MAX), f_concat),
        ("replace", (3, 3), f_replace),
        ("coalesce", (0, usize::MAX), f_coalesce),
        ("if", (3, 3), f_if),
        ("toint", (1, 1), f_toint),
        ("tofloat", (1, 1), f_tofloat),
        ("tostring", (1, 1), f_tostring),
        ("hashtags", (1, 1), f_hashtags),
        ("urls", (1, 1), f_urls),
        ("mentions", (1, 1), f_mentions),
        ("first", (1, 1), f_first),
        ("distance_km", (4, 4), f_distance_km),
        ("minute_of", (1, 1), f_minute_of),
        ("second_of", (1, 1), f_second_of),
        ("hour_of", (1, 1), f_hour_of),
    ];
    for (name, arity, f) in fns {
        registry.register_scalar(Arc::new(FnUdf {
            name,
            arity: *arity,
            f: *f,
        }));
    }
    registry.register_scalar(Arc::new(RegexExtractUdf::default()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        let mut r = Registry::empty();
        register_builtins(&mut r);
        r
    }

    fn call(name: &str, args: &[Value]) -> Value {
        reg().scalar(name).unwrap().call(args).unwrap()
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(call("floor", &[Value::Float(40.7)]), Value::Float(40.0));
        assert_eq!(call("floor", &[Value::Float(-33.9)]), Value::Float(-34.0));
        assert_eq!(call("ceil", &[Value::Float(1.1)]), Value::Float(2.0));
        assert_eq!(
            call("round", &[Value::Float(2.567), Value::Int(1)]),
            Value::Float(2.6)
        );
        assert_eq!(call("abs", &[Value::Int(-5)]), Value::Int(5));
        assert_eq!(call("sqrt", &[Value::Int(9)]), Value::Float(3.0));
        assert_eq!(call("sqrt", &[Value::Int(-1)]), Value::Null);
    }

    #[test]
    fn string_builtins() {
        assert_eq!(call("lower", &[Value::from("ABC")]), Value::from("abc"));
        assert_eq!(call("upper", &[Value::from("abc")]), Value::from("ABC"));
        assert_eq!(call("length", &[Value::from("héllo")]), Value::Int(5));
        assert_eq!(call("trim", &[Value::from("  x ")]), Value::from("x"));
        assert_eq!(
            call(
                "substr",
                &[Value::from("tweeql"), Value::Int(2), Value::Int(3)]
            ),
            Value::from("wee")
        );
        assert_eq!(
            call("substr", &[Value::from("tweeql"), Value::Int(3)]),
            Value::from("eeql")
        );
        assert_eq!(
            call("concat", &[Value::from("a"), Value::Null, Value::Int(7)]),
            Value::from("a7")
        );
        assert_eq!(
            call(
                "replace",
                &[Value::from("a-b-c"), Value::from("-"), Value::from("+")]
            ),
            Value::from("a+b+c")
        );
    }

    #[test]
    fn control_builtins() {
        assert_eq!(
            call("coalesce", &[Value::Null, Value::Null, Value::Int(3)]),
            Value::Int(3)
        );
        assert_eq!(call("coalesce", &[Value::Null]), Value::Null);
        assert_eq!(
            call(
                "if",
                &[Value::Bool(true), Value::from("y"), Value::from("n")]
            ),
            Value::from("y")
        );
        assert_eq!(
            call("if", &[Value::Null, Value::from("y"), Value::from("n")]),
            Value::from("n")
        );
    }

    #[test]
    fn casts() {
        assert_eq!(call("toint", &[Value::from("42")]), Value::Int(42));
        assert_eq!(call("toint", &[Value::from("x")]), Value::Null);
        assert_eq!(call("tofloat", &[Value::Int(2)]), Value::Float(2.0));
        assert_eq!(call("tostring", &[Value::Int(2)]), Value::from("2"));
    }

    #[test]
    fn tweet_text_helpers() {
        let text = Value::from("go #mcfc beat @lfc http://t.co/x");
        assert_eq!(
            call("hashtags", std::slice::from_ref(&text)),
            Value::List(vec![Value::from("mcfc")])
        );
        assert_eq!(
            call("urls", std::slice::from_ref(&text)),
            Value::List(vec![Value::from("http://t.co/x")])
        );
        assert_eq!(
            call("mentions", std::slice::from_ref(&text)),
            Value::List(vec![Value::from("lfc")])
        );
        assert_eq!(
            call("first", &[call("hashtags", &[text])]),
            Value::from("mcfc")
        );
        assert_eq!(call("first", &[Value::List(vec![])]), Value::Null);
    }

    #[test]
    fn distance_km_builtin() {
        let d = call(
            "distance_km",
            &[
                Value::Float(40.7128),
                Value::Float(-74.0060),
                Value::Float(42.3601),
                Value::Float(-71.0589),
            ],
        );
        match d {
            Value::Float(km) => assert!((km - 306.0).abs() < 10.0, "km = {km}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            call(
                "distance_km",
                &[
                    Value::Null,
                    Value::Float(0.0),
                    Value::Float(0.0),
                    Value::Float(0.0)
                ]
            ),
            Value::Null
        );
    }

    #[test]
    fn time_builtins() {
        let t = Value::Time(Timestamp::from_secs(3671));
        assert_eq!(
            call("second_of", std::slice::from_ref(&t)),
            Value::Int(3671)
        );
        assert_eq!(call("minute_of", std::slice::from_ref(&t)), Value::Int(61));
        assert_eq!(call("hour_of", &[t]), Value::Int(1));
    }

    #[test]
    fn regex_extract_caches_and_extracts() {
        let r = reg();
        let udf = r.scalar("regex_extract").unwrap();
        let args = [
            Value::from("score 3-0 now"),
            Value::from(r"(\d+)-(\d+)"),
            Value::Int(1),
        ];
        assert_eq!(udf.call(&args).unwrap(), Value::from("3"));
        let args2 = [
            Value::from("nothing here"),
            Value::from(r"(\d+)-(\d+)"),
            Value::Int(1),
        ];
        assert_eq!(udf.call(&args2).unwrap(), Value::Null);
        // Bad pattern errors, not panics.
        let bad = [Value::from("x"), Value::from("("), Value::Int(0)];
        assert!(udf.call(&bad).is_err());
        // A second pattern goes through the map; the first still holds.
        let words = [
            Value::from("obama wins"),
            Value::from("[a-z]+"),
            Value::Int(0),
        ];
        assert_eq!(udf.call(&words).unwrap(), Value::from("obama"));
        assert_eq!(udf.call(&args).unwrap(), Value::from("3"));
        // A match is cut from the string it lies in; a non-string is
        // rendered first.
        let Value::Str(text) = &args[0] else {
            unreachable!()
        };
        let Value::Str(m) = udf.call(&args).unwrap() else {
            unreachable!()
        };
        assert_eq!(m.chunk_addr(), text.chunk_addr());
        let number = [Value::Int(2011), Value::from("1+"), Value::Int(0)];
        assert_eq!(udf.call(&number).unwrap(), Value::from("11"));
    }

    #[test]
    fn arity_enforced() {
        let r = reg();
        assert!(r.scalar("floor").unwrap().call(&[]).is_err());
        assert!(r
            .scalar("substr")
            .unwrap()
            .call(&[Value::from("x")])
            .is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(call("floor", &[Value::Null]), Value::Null);
        assert_eq!(call("lower", &[Value::Null]), Value::Null);
        assert_eq!(call("hashtags", &[Value::Null]), Value::Null);
    }
}
