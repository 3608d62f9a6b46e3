//! Expression type inference against a stream schema and the
//! [`sigs`](super::sigs) table.
//!
//! Inference is total: every expression gets a [`DataType`] even after
//! an error (unknowns become `ANY`), so one bad node produces one
//! diagnostic instead of a cascade.

use crate::ast::{AggFunc, Expr, ExprKind, Span};
use crate::check::diag::Diagnostic;
use crate::check::sigs;
use crate::udf::Registry;
use tweeql_model::{DataType, Value};

/// Name resolution environment for one statement.
pub(crate) struct TypeEnv {
    /// `(name, type)` of every column in scope (join output included).
    pub columns: Vec<(String, DataType)>,
    /// SELECT aliases with their inferred types (visible to GROUP BY
    /// and HAVING only, shadowing columns — mirroring the planner).
    pub aliases: Vec<(String, DataType)>,
    /// Valid column qualifiers (the FROM and JOIN stream names).
    pub streams: Vec<String>,
}

impl TypeEnv {
    fn column(&self, name: &str) -> Option<DataType> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
    }

    fn alias(&self, name: &str) -> Option<DataType> {
        self.aliases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
    }

    fn column_help(&self) -> String {
        let names: Vec<&str> = self
            .columns
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !n.starts_with("__"))
            .collect();
        format!("available columns: {}", names.join(", "))
    }
}

/// What the surrounding clause permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Aggregate calls are allowed (SELECT list, HAVING).
    Aggregating,
    /// Aggregate calls are an error here (WHERE).
    Scalar,
}

/// Everything inference needs besides the expression.
pub(crate) struct InferCtx<'a> {
    pub env: &'a TypeEnv,
    pub registry: &'a Registry,
    /// Clause name for messages ("WHERE", "SELECT", …).
    pub clause: &'static str,
    /// Whether SELECT aliases resolve (GROUP BY / HAVING only).
    pub use_aliases: bool,
}

fn numeric(t: DataType) -> bool {
    matches!(t, DataType::Int | DataType::Float | DataType::Any)
}

fn boolish(t: DataType) -> bool {
    matches!(t, DataType::Bool | DataType::Any)
}

/// Can `a` and `b` be compared with `=`/`<`/… without a type error?
fn comparable(a: DataType, b: DataType) -> bool {
    a == DataType::Any || b == DataType::Any || a == b || (numeric(a) && numeric(b))
}

/// Is an argument of type `arg` acceptable for a declared `param` type?
fn arg_ok(arg: DataType, param: DataType) -> bool {
    param == DataType::Any
        || arg == DataType::Any
        || arg == param
        || (numeric(param) && numeric(arg))
}

/// Declared type of a literal value.
pub(crate) fn value_type(v: &Value) -> DataType {
    match v {
        Value::Null => DataType::Any,
        Value::Bool(_) => DataType::Bool,
        Value::Int(_) => DataType::Int,
        Value::Float(_) => DataType::Float,
        Value::Str(_) => DataType::Str,
        Value::Time(_) => DataType::Time,
        Value::List(_) => DataType::List,
    }
}

/// Is `name` an aggregate function (including `topk`)?
pub fn is_aggregate_name(name: &str) -> bool {
    name == "topk" || AggFunc::from_name(name).is_some()
}

/// Does the expression tree contain an aggregate call?
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        if let ExprKind::Call { name, .. } = &n.kind {
            if is_aggregate_name(name) {
                found = true;
            }
        }
    });
    found
}

/// Infer the type of `e`, appending diagnostics for anything wrong.
/// `in_agg` carries the enclosing aggregate's name when inside one.
pub(crate) fn infer(
    e: &Expr,
    cx: &InferCtx<'_>,
    diags: &mut Vec<Diagnostic>,
    mode: Mode,
    in_agg: Option<&str>,
) -> DataType {
    match &e.kind {
        ExprKind::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                if !cx.env.streams.iter().any(|s| s == q) {
                    diags.push(
                        Diagnostic::error("E002", e.span, format!("unknown stream qualifier: {q}"))
                            .with_help(format!("streams in scope: {}", cx.env.streams.join(", "))),
                    );
                    return DataType::Any;
                }
            }
            let resolved = if cx.use_aliases {
                cx.env.alias(name).or_else(|| cx.env.column(name))
            } else {
                cx.env.column(name)
            };
            match resolved {
                Some(t) => t,
                None => {
                    diags.push(
                        Diagnostic::error("E002", e.span, format!("unknown column: {name}"))
                            .with_help(cx.env.column_help()),
                    );
                    DataType::Any
                }
            }
        }
        ExprKind::Literal(v) => value_type(v),
        ExprKind::Call { name, args } => {
            if is_aggregate_name(name) {
                infer_aggregate(name, args, e.span, cx, diags, in_agg, mode)
            } else {
                infer_call(name, args, e.span, cx, diags, mode, in_agg)
            }
        }
        ExprKind::Binary { op, left, right } => {
            let lt = infer(left, cx, diags, mode, in_agg);
            let rt = infer(right, cx, diags, mode, in_agg);
            if op.is_comparison() {
                if !comparable(lt, rt) {
                    diags.push(
                        Diagnostic::error("E005", e.span, format!("cannot compare {lt} with {rt}"))
                            .with_help(
                                "cast one side (toint(), tofloat(), tostring()) so both \
                             operands share a type",
                            ),
                    );
                }
                DataType::Bool
            } else {
                if !numeric(lt) || !numeric(rt) {
                    diags.push(Diagnostic::error(
                        "E005",
                        e.span,
                        format!(
                            "operator {} needs numeric operands, got {lt} and {rt}",
                            op.symbol()
                        ),
                    ));
                    return DataType::Float;
                }
                match op {
                    crate::ast::BinOp::Div => DataType::Float,
                    _ if lt == DataType::Float || rt == DataType::Float => DataType::Float,
                    _ if lt == DataType::Any || rt == DataType::Any => DataType::Any,
                    _ => DataType::Int,
                }
            }
        }
        ExprKind::And(items) | ExprKind::Or(items) => {
            for item in items {
                let t = infer(item, cx, diags, mode, in_agg);
                if !boolish(t) {
                    let op = e.chain_word();
                    diags.push(Diagnostic::error(
                        "E005",
                        item.span,
                        format!("operator {op} needs boolean operands, got {t}"),
                    ));
                }
            }
            DataType::Bool
        }
        ExprKind::Not(inner) => {
            let t = infer(inner, cx, diags, mode, in_agg);
            if !boolish(t) {
                diags.push(Diagnostic::error(
                    "E005",
                    inner.span,
                    format!("NOT needs a boolean operand, got {t}"),
                ));
            }
            DataType::Bool
        }
        ExprKind::Neg(inner) => {
            let t = infer(inner, cx, diags, mode, in_agg);
            if !numeric(t) {
                diags.push(Diagnostic::error(
                    "E005",
                    inner.span,
                    format!("unary minus needs a numeric operand, got {t}"),
                ));
                return DataType::Float;
            }
            t
        }
        ExprKind::Contains { expr, pattern } => {
            let te = infer(expr, cx, diags, mode, in_agg);
            if !matches!(te, DataType::Str | DataType::Any | DataType::List) {
                diags.push(Diagnostic::error(
                    "E005",
                    expr.span,
                    format!("CONTAINS needs text to search, got {te}"),
                ));
            }
            let tp = infer(pattern, cx, diags, mode, in_agg);
            if !matches!(tp, DataType::Str | DataType::Any) {
                diags.push(Diagnostic::error(
                    "E005",
                    pattern.span,
                    format!("CONTAINS needs a text pattern, got {tp}"),
                ));
            }
            DataType::Bool
        }
        ExprKind::Matches { expr, pattern } => {
            let te = infer(expr, cx, diags, mode, in_agg);
            if !matches!(te, DataType::Str | DataType::Any) {
                diags.push(Diagnostic::error(
                    "E005",
                    expr.span,
                    format!("MATCHES needs text to search, got {te}"),
                ));
            }
            if let Err(err) = tweeql_text::Regex::new(pattern) {
                diags.push(
                    Diagnostic::error("E010", e.span, format!("invalid regular expression: {err}"))
                        .with_help("the pattern is compiled once at plan time; fix it here"),
                );
            }
            DataType::Bool
        }
        ExprKind::InBoundingBox { .. } => DataType::Bool,
        ExprKind::InList { expr, list } => {
            let t = infer(expr, cx, diags, mode, in_agg);
            for v in list {
                let vt = value_type(v);
                if !comparable(t, vt) {
                    diags.push(Diagnostic::error(
                        "E005",
                        e.span,
                        format!("IN list value {v} ({vt}) is not comparable with {t}"),
                    ));
                    break;
                }
            }
            DataType::Bool
        }
        ExprKind::IsNull { expr, .. } => {
            infer(expr, cx, diags, mode, in_agg);
            DataType::Bool
        }
    }
}

/// Infer a scalar (non-aggregate) call.
fn infer_call(
    name: &str,
    args: &[Expr],
    span: Span,
    cx: &InferCtx<'_>,
    diags: &mut Vec<Diagnostic>,
    mode: Mode,
    in_agg: Option<&str>,
) -> DataType {
    let arg_types: Vec<DataType> = args
        .iter()
        .map(|a| infer(a, cx, diags, mode, in_agg))
        .collect();
    let sig = sigs::lookup(name);
    if sig.is_none() && !cx.registry.knows(name) {
        diags.push(
            Diagnostic::error("E003", span, format!("unknown function: {name}()"))
                .with_help("no builtin, UDF, or aggregate with this name is registered"),
        );
        return DataType::Any;
    }
    let Some(sig) = sig else {
        // Registered at runtime but untabled (custom UDF): arity and
        // types are unknown to the analyzer.
        return DataType::Any;
    };
    if args.len() < sig.min_args || args.len() > sig.max_args {
        diags.push(Diagnostic::error(
            "E004",
            span,
            format!("{name}() expects {}, got {}", sig.arity_str(), args.len()),
        ));
        return sig.ret;
    }
    for (i, at) in arg_types.iter().enumerate() {
        let pt = sig.param(i);
        if !arg_ok(*at, pt) {
            diags.push(Diagnostic::error(
                "E005",
                args[i].span,
                format!("argument {} of {name}() expects {pt}, got {at}", i + 1),
            ));
        }
    }
    sig.ret
}

/// Infer an aggregate call (`count`, `sum`, …, `topk`).
fn infer_aggregate(
    name: &str,
    args: &[Expr],
    span: Span,
    cx: &InferCtx<'_>,
    diags: &mut Vec<Diagnostic>,
    in_agg: Option<&str>,
    mode: Mode,
) -> DataType {
    if let Some(outer) = in_agg {
        diags.push(
            Diagnostic::error(
                "E006",
                span,
                format!("aggregate {name}() cannot be nested inside {outer}()"),
            )
            .with_help("compute the inner aggregate in a separate query"),
        );
    } else if mode == Mode::Scalar {
        diags.push(
            Diagnostic::error(
                "E006",
                span,
                format!("aggregate {name}() is not allowed in {}", cx.clause),
            )
            .with_help("aggregates filter via HAVING, not WHERE"),
        );
    }

    // Arity per aggregate.
    let ok_arity = match name {
        "count" => args.len() <= 1,
        "topk" => args.len() == 2,
        _ => args.len() == 1,
    };
    if !ok_arity {
        let want = match name {
            "count" => "0..1 arguments".to_string(),
            "topk" => "2 arguments (expr, k)".to_string(),
            _ => "1 argument".to_string(),
        };
        diags.push(Diagnostic::error(
            "E004",
            span,
            format!("{name}() expects {want}, got {}", args.len()),
        ));
    }

    // topk's k must be a positive integer literal (the planner bakes it
    // into the SpaceSaving sketch size).
    if name == "topk" {
        let k_ok = matches!(
            args.get(1).map(|a| &a.kind),
            Some(ExprKind::Literal(v)) if v.as_int().is_ok_and(|k| k > 0)
        );
        if args.len() == 2 && !k_ok {
            diags.push(Diagnostic::error(
                "E005",
                args[1].span,
                "topk() requires a positive integer literal k",
            ));
        }
    }

    let arg_t = args
        .first()
        .map(|a| infer(a, cx, diags, Mode::Aggregating, Some(name)));

    let func = if name == "topk" {
        AggFunc::TopK(1)
    } else {
        AggFunc::from_name(name).expect("aggregate name")
    };
    match func {
        AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
        AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev => {
            if let Some(t) = arg_t {
                if !numeric(t) {
                    diags.push(
                        Diagnostic::error(
                            "E006",
                            span,
                            format!("aggregate {name}() needs a numeric input, got {t}"),
                        )
                        .with_help("count()/count(distinct …) count non-numeric values"),
                    );
                }
            }
            if func == AggFunc::Sum && arg_t == Some(DataType::Int) {
                DataType::Int
            } else {
                DataType::Float
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let t = arg_t.unwrap_or(DataType::Any);
            if t == DataType::List {
                diags.push(Diagnostic::error(
                    "E006",
                    span,
                    format!("aggregate {name}() cannot order LIST values"),
                ));
            }
            t
        }
        AggFunc::TopK(_) => DataType::List,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::{record::twitter_schema, VirtualClock};

    fn env() -> TypeEnv {
        TypeEnv {
            columns: twitter_schema()
                .fields()
                .iter()
                .map(|f| (f.name.clone(), f.data_type))
                .collect(),
            aliases: vec![("score".into(), DataType::Float)],
            streams: vec!["twitter".into()],
        }
    }

    fn infer_str(src: &str, mode: Mode) -> (DataType, Vec<Diagnostic>) {
        let e = parse_expr(src).unwrap();
        let env = env();
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        let cx = InferCtx {
            env: &env,
            registry: &reg,
            clause: "WHERE",
            use_aliases: false,
        };
        let mut diags = Vec::new();
        let t = infer(&e, &cx, &mut diags, mode, None);
        (t, diags)
    }

    #[test]
    fn schema_columns_have_real_types() {
        assert_eq!(infer_str("text", Mode::Scalar).0, DataType::Str);
        assert_eq!(infer_str("followers", Mode::Scalar).0, DataType::Int);
        assert_eq!(infer_str("lat", Mode::Scalar).0, DataType::Float);
        assert_eq!(infer_str("created_at", Mode::Scalar).0, DataType::Time);
    }

    #[test]
    fn comparisons_type_check() {
        let (t, d) = infer_str("followers > 10", Mode::Scalar);
        assert_eq!(t, DataType::Bool);
        assert!(d.is_empty(), "{d:?}");
        let (_, d) = infer_str("text > 5", Mode::Scalar);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "E005");
        assert!(d[0].message.contains("STRING"), "{}", d[0].message);
    }

    #[test]
    fn call_types_flow_through() {
        let (t, d) = infer_str("floor(latitude(loc))", Mode::Scalar);
        assert_eq!(t, DataType::Float);
        assert!(d.is_empty(), "{d:?}");
        // floor(text) is a type error.
        let (_, d) = infer_str("floor(text)", Mode::Scalar);
        assert_eq!(d[0].code, "E005");
    }

    #[test]
    fn arity_and_unknown_function() {
        let (_, d) = infer_str("floor(1, 2)", Mode::Scalar);
        assert_eq!(d[0].code, "E004");
        let (_, d) = infer_str("no_such_fn(text)", Mode::Scalar);
        assert_eq!(d[0].code, "E003");
    }

    #[test]
    fn aggregates_forbidden_in_scalar_mode() {
        let (_, d) = infer_str("count(*) > 5", Mode::Scalar);
        assert_eq!(d[0].code, "E006");
        let (_, d) = infer_str("count(*) > 5", Mode::Aggregating);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn nested_aggregates_rejected() {
        let (_, d) = infer_str("avg(sum(followers))", Mode::Aggregating);
        assert_eq!(d[0].code, "E006");
        assert!(d[0].message.contains("nested"), "{}", d[0].message);
    }

    #[test]
    fn aggregate_input_types() {
        let (_, d) = infer_str("avg(text)", Mode::Aggregating);
        assert_eq!(d[0].code, "E006");
        let (t, d) = infer_str("sum(followers)", Mode::Aggregating);
        assert_eq!(t, DataType::Int);
        assert!(d.is_empty(), "{d:?}");
        let (t, _) = infer_str("topk(urls(text), 3)", Mode::Aggregating);
        assert_eq!(t, DataType::List);
    }

    #[test]
    fn bad_regex_is_e010() {
        let (_, d) = infer_str("text matches '('", Mode::Scalar);
        assert_eq!(d[0].code, "E010");
    }

    #[test]
    fn contains_aggregate_walks() {
        assert!(contains_aggregate(&parse_expr("1 + count(*)").unwrap()));
        assert!(contains_aggregate(&parse_expr("topk(text, 3)").unwrap()));
        assert!(!contains_aggregate(&parse_expr("floor(lat)").unwrap()));
    }
}
