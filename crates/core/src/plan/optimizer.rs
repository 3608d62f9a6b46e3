//! Expression-level rewrites: constant folding, trivial-conjunct
//! elimination, and a cost heuristic for ordering local predicates.

use crate::ast::{BinOp, Expr, ExprKind};
use tweeql_model::Value;

/// Fold constant subexpressions (`1 + 2` → `3`, `NOT false` → `true`,
/// `x AND true` → `x`). Folded nodes keep the span of the expression
/// they replaced so diagnostics still point at the source.
pub fn fold_constants(expr: &Expr) -> Expr {
    let span = expr.span;
    match &expr.kind {
        ExprKind::Binary { op, left, right } => {
            let l = fold_constants(left);
            let r = fold_constants(right);
            // Logical identity simplifications.
            match op {
                BinOp::And => {
                    if let ExprKind::Literal(v) = &l.kind {
                        if !v.is_null() {
                            return if v.is_truthy() {
                                r
                            } else {
                                Expr::lit(false).with_span(span)
                            };
                        }
                    }
                    if let ExprKind::Literal(v) = &r.kind {
                        if !v.is_null() {
                            return if v.is_truthy() {
                                l
                            } else {
                                Expr::lit(false).with_span(span)
                            };
                        }
                    }
                }
                BinOp::Or => {
                    if let ExprKind::Literal(v) = &l.kind {
                        if !v.is_null() {
                            return if v.is_truthy() {
                                Expr::lit(true).with_span(span)
                            } else {
                                r
                            };
                        }
                    }
                    if let ExprKind::Literal(v) = &r.kind {
                        if !v.is_null() {
                            return if v.is_truthy() {
                                Expr::lit(true).with_span(span)
                            } else {
                                l
                            };
                        }
                    }
                }
                _ => {}
            }
            // Pure arithmetic/comparison on literals.
            if let (ExprKind::Literal(a), ExprKind::Literal(b)) = (&l.kind, &r.kind) {
                let folded = match op {
                    BinOp::Add => a.add(b).ok(),
                    BinOp::Sub => a.sub(b).ok(),
                    BinOp::Mul => a.mul(b).ok(),
                    BinOp::Div => a.div(b).ok(),
                    BinOp::Mod => a.rem(b).ok(),
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        match a.compare(b) {
                            None => Some(Value::Null),
                            Some(ord) => Some(Value::Bool(match op {
                                BinOp::Eq => ord.is_eq(),
                                BinOp::Ne => ord.is_ne(),
                                BinOp::Lt => ord.is_lt(),
                                BinOp::Le => ord.is_le(),
                                BinOp::Gt => ord.is_gt(),
                                BinOp::Ge => ord.is_ge(),
                                _ => unreachable!(),
                            })),
                        }
                    }
                    BinOp::And | BinOp::Or => None,
                };
                if let Some(v) = folded {
                    return Expr::new(ExprKind::Literal(v), span);
                }
            }
            Expr::new(
                ExprKind::Binary {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                },
                span,
            )
        }
        ExprKind::Not(e) => {
            let inner = fold_constants(e);
            if let ExprKind::Literal(v) = &inner.kind {
                if v.is_null() {
                    return Expr::new(ExprKind::Literal(Value::Null), span);
                }
                return Expr::lit(!v.is_truthy()).with_span(span);
            }
            Expr::new(ExprKind::Not(Box::new(inner)), span)
        }
        ExprKind::Neg(e) => {
            let inner = fold_constants(e);
            if let ExprKind::Literal(v) = &inner.kind {
                if let Ok(n) = v.neg() {
                    return Expr::new(ExprKind::Literal(n), span);
                }
            }
            Expr::new(ExprKind::Neg(Box::new(inner)), span)
        }
        ExprKind::Call { name, args } => Expr::new(
            ExprKind::Call {
                name: name.clone(),
                args: args.iter().map(fold_constants).collect(),
            },
            span,
        ),
        ExprKind::Contains { expr, pattern } => Expr::new(
            ExprKind::Contains {
                expr: Box::new(fold_constants(expr)),
                pattern: Box::new(fold_constants(pattern)),
            },
            span,
        ),
        ExprKind::Matches { expr, pattern } => Expr::new(
            ExprKind::Matches {
                expr: Box::new(fold_constants(expr)),
                pattern: pattern.clone(),
            },
            span,
        ),
        ExprKind::InList { expr, list } => Expr::new(
            ExprKind::InList {
                expr: Box::new(fold_constants(expr)),
                list: list.clone(),
            },
            span,
        ),
        ExprKind::IsNull { expr, negated } => Expr::new(
            ExprKind::IsNull {
                expr: Box::new(fold_constants(expr)),
                negated: *negated,
            },
            span,
        ),
        _ => expr.clone(),
    }
}

/// Heuristic evaluation cost of a predicate (the plan order the fused
/// scan's conjunct re-ranker starts from): lower runs first.
pub fn predicate_cost(expr: &Expr) -> u32 {
    match &expr.kind {
        ExprKind::Literal(_) => 0,
        ExprKind::Column { .. } => 1,
        ExprKind::IsNull { .. } | ExprKind::InBoundingBox { .. } => 2,
        ExprKind::Binary { op, left, right } => match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                3 + predicate_cost(left) + predicate_cost(right)
            }
            _ => 2 + predicate_cost(left) + predicate_cost(right),
        },
        ExprKind::InList { .. } => 4,
        ExprKind::Not(e) | ExprKind::Neg(e) => 1 + predicate_cost(e),
        ExprKind::Contains { pattern, .. } => {
            if matches!(pattern.kind, ExprKind::Literal(_)) {
                6
            } else {
                10
            }
        }
        ExprKind::Matches { .. } => 20,
        ExprKind::Call { args, .. } => 30 + args.iter().map(predicate_cost).sum::<u32>(),
    }
}

/// Order conjuncts cheapest-first (stable for equal costs).
pub fn order_conjuncts(conjuncts: Vec<Expr>) -> Vec<Expr> {
    let mut indexed: Vec<(u32, usize, Expr)> = conjuncts
        .into_iter()
        .enumerate()
        .map(|(i, e)| (predicate_cost(&e), i, e))
        .collect();
    indexed.sort_by_key(|(c, i, _)| (*c, *i));
    indexed.into_iter().map(|(_, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn fold(src: &str) -> Expr {
        fold_constants(&parse_expr(src).unwrap())
    }

    #[test]
    fn arithmetic_folds() {
        assert_eq!(fold("1 + 2 * 3"), Expr::lit(7i64));
        assert_eq!(fold("10 / 4"), Expr::lit(2.5));
        assert_eq!(fold("2 < 3"), Expr::lit(true));
        assert_eq!(fold("-(3)"), Expr::lit(-3i64));
    }

    #[test]
    fn logical_identities() {
        assert_eq!(fold("x and true"), Expr::col("x"));
        assert_eq!(fold("x and false"), Expr::lit(false));
        assert_eq!(fold("x or true"), Expr::lit(true));
        assert_eq!(fold("x or false"), Expr::col("x"));
        assert_eq!(fold("not false"), Expr::lit(true));
    }

    #[test]
    fn folding_is_recursive_through_calls() {
        let e = fold("floor(1 + 1)");
        assert_eq!(e, Expr::call("floor", vec![Expr::lit(2i64)]));
    }

    #[test]
    fn non_constant_left_alone() {
        let e = fold("x + 1");
        assert!(matches!(e.kind, ExprKind::Binary { .. }));
    }

    #[test]
    fn folding_preserves_spans() {
        let src = "1 + 2 * 3";
        let e = fold(src);
        assert!(matches!(e.kind, ExprKind::Literal(_)));
        assert_eq!(&src[e.span.start..e.span.end], src);
    }

    #[test]
    fn costs_rank_sensibly() {
        let cheap = predicate_cost(&parse_expr("followers > 10").unwrap());
        let mid = predicate_cost(&parse_expr("text contains 'x'").unwrap());
        let regex = predicate_cost(&parse_expr("text matches 'x+'").unwrap());
        let udf = predicate_cost(&parse_expr("sentiment(text) > 0").unwrap());
        assert!(cheap < mid);
        assert!(mid < regex);
        assert!(regex < udf);
    }

    #[test]
    fn ordering_is_stable_cheapest_first() {
        let conjuncts = vec![
            parse_expr("text matches 'a+'").unwrap(),
            parse_expr("followers > 5").unwrap(),
            parse_expr("text contains 'b'").unwrap(),
        ];
        let ordered = order_conjuncts(conjuncts);
        assert!(matches!(ordered[0].kind, ExprKind::Binary { .. }));
        assert!(matches!(ordered[1].kind, ExprKind::Contains { .. }));
        assert!(matches!(ordered[2].kind, ExprKind::Matches { .. }));
    }
}
