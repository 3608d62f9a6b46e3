//! Compiled expressions and their evaluation over [`Record`]s.
//!
//! The planner compiles AST [`Expr`]s against a concrete input schema:
//! column names become positional indexes, regex patterns and
//! `contains` needles are pre-compiled, scalar UDFs are resolved to
//! `Arc`s, and stateful UDFs get per-query instances in an [`EvalCtx`].
//! Async UDFs never appear here — the planner hoists them into
//! dedicated operators first (see [`crate::plan`]).

pub mod compile;
pub mod functions;
pub mod vm;

pub use compile::ExprProgram;
pub use vm::BatchVm;

use crate::ast::{BinOp, Expr, ExprKind};
use crate::error::QueryError;
use crate::udf::{Registry, ScalarUdf, StatefulUdf};
use std::sync::Arc;
use tweeql_geo::BoundingBox;
use tweeql_model::{Record, Schema, Value};
use tweeql_text::ac::AhoCorasick;
use tweeql_text::fold::{contains_fold_both, contains_folded, fold_needle, SmallBuf};
use tweeql_text::Regex;

/// Render a non-string operand into `buf` for substring matching;
/// strings borrow directly and pay nothing.
fn value_as_str<'a>(v: &'a Value, buf: &'a mut SmallBuf) -> &'a str {
    match v {
        Value::Str(s) => s,
        other => {
            use std::fmt::Write;
            buf.clear();
            let _ = write!(buf, "{other}");
            buf.as_str()
        }
    }
}

/// `l op r`: arithmetic, or a SQL comparison (NULL when either side is
/// NULL or the two do not compare). The interpreter, the VM and
/// constant folding all evaluate through it.
#[inline]
pub(crate) fn binary_value(op: BinOp, l: &Value, r: &Value) -> Result<Value, QueryError> {
    Ok(match op {
        BinOp::Add => l.add(r)?,
        BinOp::Sub => l.sub(r)?,
        BinOp::Mul => l.mul(r)?,
        BinOp::Div => l.div(r)?,
        BinOp::Mod => l.rem(r)?,
        cmp => match l.compare(r) {
            None => Value::Null,
            Some(ord) => Value::Bool(match cmp {
                BinOp::Eq => ord.is_eq(),
                BinOp::Ne => ord.is_ne(),
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }),
        },
    })
}

/// Per-query mutable evaluation context: instances of stateful UDFs.
#[derive(Default)]
pub struct EvalCtx {
    stateful: Vec<Box<dyn StatefulUdf>>,
}

impl std::fmt::Debug for EvalCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EvalCtx({} stateful udfs)", self.stateful.len())
    }
}

/// A compiled expression.
///
/// `Debug` renders only the node kind — compiled regexes and UDF handles
/// have no useful debug form. `Clone` is cheap-ish (UDF handles are
/// `Arc`s; automata/regexes clone their tables).
#[derive(Clone)]
pub enum CExpr {
    /// Positional column read.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Scalar UDF/builtin call.
    Scalar {
        /// Resolved function.
        udf: Arc<dyn ScalarUdf>,
        /// Compiled argument expressions.
        args: Vec<CExpr>,
    },
    /// Stateful UDF call; index into [`EvalCtx`].
    Stateful {
        /// Slot in the context.
        slot: usize,
        /// Compiled argument expressions.
        args: Vec<CExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<CExpr>,
        /// Right operand.
        right: Box<CExpr>,
    },
    /// AND chain, operands in written order.
    And(Vec<CExpr>),
    /// OR chain, operands in written order.
    Or(Vec<CExpr>),
    /// Logical NOT.
    Not(Box<CExpr>),
    /// Numeric negation.
    Neg(Box<CExpr>),
    /// `contains` with a pre-lowered literal needle (fast path).
    ContainsLiteral {
        /// Haystack.
        expr: Box<CExpr>,
        /// Lowercased needle.
        needle: String,
        /// Single-needle automaton (shared scan machinery with the
        /// engine's multi-keyword path).
        ac: AhoCorasick,
    },
    /// `contains` with a dynamic needle.
    ContainsDynamic {
        /// Haystack.
        expr: Box<CExpr>,
        /// Needle expression.
        pattern: Box<CExpr>,
    },
    /// `matches` with a pre-compiled regex.
    Matches {
        /// Subject.
        expr: Box<CExpr>,
        /// Compiled pattern.
        regex: Regex,
    },
    /// Coordinates-in-box test against the record's lat/lon columns.
    InBoundingBox {
        /// Index of the `lat` column.
        lat_idx: usize,
        /// Index of the `lon` column.
        lon_idx: usize,
        /// The box.
        bbox: BoundingBox,
    },
    /// Membership in a literal list.
    InList {
        /// Tested expression.
        expr: Box<CExpr>,
        /// Candidates.
        list: Vec<Value>,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<CExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
}

impl CExpr {
    /// Evaluate against one record.
    pub fn eval(&self, rec: &Record, ctx: &mut EvalCtx) -> Result<Value, QueryError> {
        match self {
            CExpr::Column(idx) => Ok(rec.value(*idx).clone()),
            CExpr::Literal(v) => Ok(v.clone()),
            CExpr::Scalar { udf, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(a.eval(rec, ctx)?);
                }
                udf.call(&argv)
            }
            CExpr::Stateful { slot, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(a.eval(rec, ctx)?);
                }
                let ts = rec.timestamp();
                ctx.stateful[*slot].call(&argv, ts)
            }
            CExpr::Binary { op, left, right } => {
                let l = left.eval(rec, ctx)?;
                binary_value(*op, &l, &right.eval(rec, ctx)?)
            }
            CExpr::And(items) => eval_chain(items, false, rec, ctx),
            CExpr::Or(items) => eval_chain(items, true, rec, ctx),
            CExpr::Not(e) => {
                let v = e.eval(rec, ctx)?;
                if v.is_null() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(!v.is_truthy()))
                }
            }
            CExpr::Neg(e) => Ok(e.eval(rec, ctx)?.neg()?),
            CExpr::ContainsLiteral { expr, needle, .. } => {
                let v = expr.eval(rec, ctx)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(contains_folded(&s, needle))),
                    other => {
                        let mut buf = SmallBuf::new();
                        Ok(Value::Bool(contains_folded(
                            value_as_str(&other, &mut buf),
                            needle,
                        )))
                    }
                }
            }
            CExpr::ContainsDynamic { expr, pattern } => {
                let hay = expr.eval(rec, ctx)?;
                let needle = pattern.eval(rec, ctx)?;
                if hay.is_null() || needle.is_null() {
                    return Ok(Value::Null);
                }
                let (mut hbuf, mut nbuf) = (SmallBuf::new(), SmallBuf::new());
                Ok(Value::Bool(contains_fold_both(
                    value_as_str(&hay, &mut hbuf),
                    value_as_str(&needle, &mut nbuf),
                )))
            }
            CExpr::Matches { expr, regex } => {
                let v = expr.eval(rec, ctx)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    other => Ok(Value::Bool(regex.is_match(&other.to_string()))),
                }
            }
            CExpr::InBoundingBox {
                lat_idx,
                lon_idx,
                bbox,
            } => {
                let (lat, lon) = (rec.value(*lat_idx), rec.value(*lon_idx));
                match (lat.as_float().ok(), lon.as_float().ok()) {
                    (Some(la), Some(lo)) => Ok(Value::Bool(
                        bbox.contains(&tweeql_geo::GeoPoint::new(la, lo)),
                    )),
                    _ => Ok(Value::Bool(false)),
                }
            }
            CExpr::InList { expr, list } => {
                let v = expr.eval(rec, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.iter().any(|c| c == &v)))
            }
            CExpr::IsNull { expr, negated } => {
                let v = expr.eval(rec, ctx)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate as a filter predicate (SQL semantics: NULL → false).
    pub fn eval_predicate(&self, rec: &Record, ctx: &mut EvalCtx) -> Result<bool, QueryError> {
        Ok(self.eval(rec, ctx)?.is_truthy())
    }
}

/// An AND or OR chain under SQL three-valued logic, left to right: the
/// first non-NULL operand whose truth is `or` settles the chain, and no
/// operand after it runs.
fn eval_chain(
    items: &[CExpr],
    or: bool,
    rec: &Record,
    ctx: &mut EvalCtx,
) -> Result<Value, QueryError> {
    let mut null = false;
    for e in items {
        let v = e.eval(rec, ctx)?;
        if !v.is_null() && v.is_truthy() == or {
            return Ok(Value::Bool(or));
        }
        null |= v.is_null();
    }
    Ok(if null { Value::Null } else { Value::Bool(!or) })
}

/// Compile `expr` against `schema`, resolving functions in `registry`;
/// stateful UDF instances it creates are appended to `ctx` (one context
/// serves every expression an operator owns).
pub fn compile_into(
    expr: &Expr,
    schema: &Schema,
    registry: &Registry,
    ctx: &mut EvalCtx,
) -> Result<CExpr, QueryError> {
    Ok(match &expr.kind {
        ExprKind::Column { name, .. } => {
            let idx = schema
                .index_of(name)
                .ok_or_else(|| QueryError::UnknownColumn(name.clone()))?;
            CExpr::Column(idx)
        }
        ExprKind::Literal(v) => CExpr::Literal(v.clone()),
        ExprKind::Call { name, args } => {
            let cargs = compile_all(args, schema, registry, ctx)?;
            if let Some(udf) = registry.scalar(name) {
                CExpr::Scalar { udf, args: cargs }
            } else if let Some(factory) = registry.stateful(name) {
                let slot = ctx.stateful.len();
                ctx.stateful.push(factory());
                CExpr::Stateful { slot, args: cargs }
            } else if registry.async_udf(name).is_some() {
                return Err(QueryError::Plan(format!(
                    "async UDF {name}() must be hoisted by the planner before compilation"
                )));
            } else {
                return Err(QueryError::UnknownFunction(name.clone()));
            }
        }
        ExprKind::Binary { op, left, right } => CExpr::Binary {
            op: *op,
            left: Box::new(compile_into(left, schema, registry, ctx)?),
            right: Box::new(compile_into(right, schema, registry, ctx)?),
        },
        ExprKind::And(items) => CExpr::And(compile_all(items, schema, registry, ctx)?),
        ExprKind::Or(items) => CExpr::Or(compile_all(items, schema, registry, ctx)?),
        ExprKind::Not(e) => CExpr::Not(Box::new(compile_into(e, schema, registry, ctx)?)),
        ExprKind::Neg(e) => CExpr::Neg(Box::new(compile_into(e, schema, registry, ctx)?)),
        ExprKind::Contains { expr, pattern } => {
            let ce = Box::new(compile_into(expr, schema, registry, ctx)?);
            match &pattern.kind {
                ExprKind::Literal(Value::Str(s)) => {
                    let needle = fold_needle(s);
                    CExpr::ContainsLiteral {
                        expr: ce,
                        ac: AhoCorasick::new([needle.as_str()]),
                        needle,
                    }
                }
                _ => CExpr::ContainsDynamic {
                    expr: ce,
                    pattern: Box::new(compile_into(pattern, schema, registry, ctx)?),
                },
            }
        }
        ExprKind::Matches { expr, pattern } => CExpr::Matches {
            expr: Box::new(compile_into(expr, schema, registry, ctx)?),
            regex: Regex::new(pattern).map_err(|e| QueryError::Plan(format!("bad regex: {e}")))?,
        },
        ExprKind::InBoundingBox { bbox, .. } => {
            let lat_idx = schema
                .index_of("lat")
                .ok_or_else(|| QueryError::UnknownColumn("lat".into()))?;
            let lon_idx = schema
                .index_of("lon")
                .ok_or_else(|| QueryError::UnknownColumn("lon".into()))?;
            CExpr::InBoundingBox {
                lat_idx,
                lon_idx,
                bbox: *bbox,
            }
        }
        ExprKind::InList { expr, list } => CExpr::InList {
            expr: Box::new(compile_into(expr, schema, registry, ctx)?),
            list: list.clone(),
        },
        ExprKind::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(compile_into(expr, schema, registry, ctx)?),
            negated: *negated,
        },
    })
}

fn compile_all(
    exprs: &[Expr],
    schema: &Schema,
    registry: &Registry,
    ctx: &mut EvalCtx,
) -> Result<Vec<CExpr>, QueryError> {
    exprs
        .iter()
        .map(|e| compile_into(e, schema, registry, ctx))
        .collect()
}

impl std::fmt::Debug for CExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            CExpr::Column(i) => return write!(f, "Column({i})"),
            CExpr::Literal(v) => return write!(f, "Literal({v:?})"),
            CExpr::Scalar { udf, .. } => return write!(f, "Scalar({})", udf.name()),
            CExpr::Stateful { slot, .. } => return write!(f, "Stateful(slot {slot})"),
            CExpr::Binary { op, .. } => return write!(f, "Binary({op:?})"),
            CExpr::And(_) => "And",
            CExpr::Or(_) => "Or",
            CExpr::Not(_) => "Not",
            CExpr::Neg(_) => "Neg",
            CExpr::ContainsLiteral { .. } => "ContainsLiteral",
            CExpr::ContainsDynamic { .. } => "ContainsDynamic",
            CExpr::Matches { .. } => "Matches",
            CExpr::InBoundingBox { .. } => "InBoundingBox",
            CExpr::InList { .. } => "InList",
            CExpr::IsNull { .. } => "IsNull",
        };
        f.write_str(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::udf::ServiceConfig;
    use std::sync::Arc as StdArc;
    use tweeql_model::{DataType, Timestamp, VirtualClock};

    fn registry() -> Registry {
        Registry::standard(&ServiceConfig::default(), VirtualClock::new())
    }

    fn schema() -> tweeql_model::SchemaRef {
        Schema::shared(&[
            ("text", DataType::Str),
            ("followers", DataType::Int),
            ("lat", DataType::Float),
            ("lon", DataType::Float),
            ("lang", DataType::Str),
        ])
    }

    fn rec(text: &str, followers: i64, lat: Option<f64>, lon: Option<f64>) -> Record {
        Record::new(
            schema(),
            vec![
                Value::Str(text.into()),
                Value::Int(followers),
                lat.map(Value::Float).unwrap_or(Value::Null),
                lon.map(Value::Float).unwrap_or(Value::Null),
                Value::Str("en".into()),
            ],
            Timestamp::ZERO,
        )
        .unwrap()
    }

    fn eval(expr_src: &str, record: &Record) -> Value {
        let ast = parse_expr(expr_src).unwrap();
        let mut ctx = EvalCtx::default();
        let c = compile_into(&ast, &schema(), &registry(), &mut ctx).unwrap();
        c.eval(record, &mut ctx).unwrap()
    }

    #[test]
    fn column_and_arithmetic() {
        let r = rec("hi", 100, None, None);
        assert_eq!(eval("followers + 1", &r), Value::Int(101));
        assert_eq!(eval("followers / 8", &r), Value::Float(12.5));
        assert_eq!(eval("-followers", &r), Value::Int(-100));
        assert_eq!(eval("followers % 30", &r), Value::Int(10));
    }

    #[test]
    fn contains_fast_path_case_insensitive() {
        let r = rec("Barack OBAMA speaks", 1, None, None);
        assert_eq!(eval("text contains 'obama'", &r), Value::Bool(true));
        assert_eq!(eval("text contains 'romney'", &r), Value::Bool(false));
        assert_eq!(eval("text contains ''", &r), Value::Bool(true));
    }

    #[test]
    fn contains_dynamic_needle() {
        let r = rec("hello lang en inside", 1, None, None);
        assert_eq!(eval("text contains lang", &r), Value::Bool(true));
    }

    #[test]
    fn matches_regex() {
        let r = rec("final score 3-0 tonight", 1, None, None);
        assert_eq!(eval(r"text matches '\d+-\d+'", &r), Value::Bool(true));
        assert_eq!(eval(r"text matches '^\d'", &r), Value::Bool(false));
    }

    #[test]
    fn bad_regex_fails_at_compile() {
        let ast = parse_expr("text matches '('").unwrap();
        assert!(compile_into(&ast, &schema(), &registry(), &mut EvalCtx::default()).is_err());
    }

    #[test]
    fn bounding_box_uses_lat_lon_columns() {
        let in_nyc = rec("x", 1, Some(40.78), Some(-73.97));
        let in_boston = rec("x", 1, Some(42.36), Some(-71.06));
        let nowhere = rec("x", 1, None, None);
        let e = "location in [bounding box for NYC]";
        assert_eq!(eval(e, &in_nyc), Value::Bool(true));
        assert_eq!(eval(e, &in_boston), Value::Bool(false));
        assert_eq!(eval(e, &nowhere), Value::Bool(false));
    }

    #[test]
    fn three_valued_logic() {
        let r = rec("x", 1, None, None);
        // lat is NULL: comparisons yield NULL, AND(false, NULL)=false,
        // OR(true, NULL)=true.
        assert_eq!(eval("lat > 10", &r), Value::Null);
        assert_eq!(eval("lat > 10 and followers > 100", &r), Value::Bool(false));
        assert_eq!(eval("lat > 10 and followers > 0", &r), Value::Null);
        assert_eq!(eval("lat > 10 or followers > 0", &r), Value::Bool(true));
        assert_eq!(eval("not (lat > 10)", &r), Value::Null);
        assert_eq!(eval("lat is null", &r), Value::Bool(true));
        assert_eq!(eval("lat is not null", &r), Value::Bool(false));
    }

    #[test]
    fn in_list() {
        let r = rec("x", 1, None, None);
        assert_eq!(eval("lang in ('en', 'ja')", &r), Value::Bool(true));
        assert_eq!(eval("lang in ('fr')", &r), Value::Bool(false));
        assert_eq!(eval("lang not in ('fr')", &r), Value::Bool(true));
        assert_eq!(eval("lat in (1, 2)", &r), Value::Null);
    }

    #[test]
    fn scalar_udf_calls() {
        let r = rec("what a great goal", 1, None, None);
        assert_eq!(eval("sentiment(text)", &r), Value::Float(1.0));
        assert_eq!(eval("floor(3.7)", &r), Value::Float(3.0));
        assert_eq!(eval("upper(lang)", &r), Value::Str("EN".into()));
    }

    #[test]
    fn unknown_column_and_function_fail_compile() {
        let reg = registry();
        let ast = parse_expr("missing_col + 1").unwrap();
        assert!(matches!(
            compile_into(&ast, &schema(), &reg, &mut EvalCtx::default()),
            Err(QueryError::UnknownColumn(_))
        ));
        let ast = parse_expr("frobnicate(text)").unwrap();
        assert!(matches!(
            compile_into(&ast, &schema(), &reg, &mut EvalCtx::default()),
            Err(QueryError::UnknownFunction(_))
        ));
    }

    #[test]
    fn async_udf_rejected_in_direct_compile() {
        let reg = registry();
        let ast = parse_expr("latitude(text)").unwrap();
        match compile_into(&ast, &schema(), &reg, &mut EvalCtx::default()) {
            Err(QueryError::Plan(m)) => assert!(m.contains("hoisted")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stateful_udf_keeps_state_per_compile() {
        struct Counter(i64);
        impl StatefulUdf for Counter {
            fn call(&mut self, _: &[Value], _: Timestamp) -> Result<Value, QueryError> {
                self.0 += 1;
                Ok(Value::Int(self.0))
            }
        }
        let mut reg = Registry::empty();
        reg.register_stateful("counter", StdArc::new(|| Box::new(Counter(0))));
        let ast = parse_expr("counter()").unwrap();
        let mut ctx = EvalCtx::default();
        let c = compile_into(&ast, &schema(), &reg, &mut ctx).unwrap();
        let r = rec("x", 1, None, None);
        assert_eq!(c.eval(&r, &mut ctx).unwrap(), Value::Int(1));
        assert_eq!(c.eval(&r, &mut ctx).unwrap(), Value::Int(2));
        assert_eq!(c.eval(&r, &mut ctx).unwrap(), Value::Int(3));
    }

    #[test]
    fn predicate_null_is_false() {
        let r = rec("x", 1, None, None);
        let ast = parse_expr("lat > 10").unwrap();
        let mut ctx = EvalCtx::default();
        let c = compile_into(&ast, &schema(), &registry(), &mut ctx).unwrap();
        assert!(!c.eval_predicate(&r, &mut ctx).unwrap());
    }
}
