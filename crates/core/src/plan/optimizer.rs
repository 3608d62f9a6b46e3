//! Expression-level rewrites: constant folding, trivial-conjunct
//! elimination, and a cost heuristic for ordering local predicates
//! (the `order-conjuncts` rule applies it).

use crate::ast::{Expr, ExprKind, Span};
use crate::expr::binary_value;
use tweeql_model::Value;

/// Fold constant subexpressions (`1 + 2` → `3`, `NOT false` → `true`,
/// `x AND true` → `x`), children first. Folded nodes keep the span of
/// the expression they replaced so diagnostics still point at the
/// source.
pub fn fold_constants(expr: &Expr) -> Expr {
    fold(expr.clone())
}

fn fold(expr: Expr) -> Expr {
    let e = expr.map_children(fold);
    let span = e.span;
    match e.kind {
        ExprKind::Binary { op, left, right } => {
            if let (ExprKind::Literal(a), ExprKind::Literal(b)) = (&left.kind, &right.kind) {
                if let Ok(v) = binary_value(op, a, b) {
                    return Expr::new(ExprKind::Literal(v), span);
                }
            }
            Expr::new(ExprKind::Binary { op, left, right }, span)
        }
        ExprKind::And(items) => fold_chain(items, false, span),
        ExprKind::Or(items) => fold_chain(items, true, span),
        ExprKind::Not(inner) => match &inner.kind {
            ExprKind::Literal(v) => {
                let not = if v.is_null() {
                    Value::Null
                } else {
                    Value::Bool(!v.is_truthy())
                };
                Expr::new(ExprKind::Literal(not), span)
            }
            _ => Expr::new(ExprKind::Not(inner), span),
        },
        ExprKind::Neg(inner) => match &inner.kind {
            ExprKind::Literal(v) => match v.neg() {
                Ok(n) => Expr::new(ExprKind::Literal(n), span),
                Err(_) => Expr::new(ExprKind::Neg(inner), span),
            },
            _ => Expr::new(ExprKind::Neg(inner), span),
        },
        kind => Expr::new(kind, span),
    }
}

/// Fold an AND or OR chain whose operands are already folded, by the
/// logical identities: a non-NULL literal whose truth is `or` settles
/// the chain, and one of the other truth drops out. A settling literal
/// drops every operand after it, and the ones before it only when none
/// of them calls a function: the chain runs left to right, so a call
/// ahead of the literal still runs, and may fail or count its rows. An
/// operand returned whole keeps its own span; anything new gets the
/// chain's.
fn fold_chain(mut items: Vec<Expr>, or: bool, span: Span) -> Expr {
    let truth = |e: &Expr| match &e.kind {
        ExprKind::Literal(v) if !v.is_null() => Some(v.is_truthy()),
        _ => None,
    };
    if let Some(settles) = items.iter().position(|e| truth(e) == Some(or)) {
        items.truncate(settles + 1);
        if !items.iter().any(has_call) {
            return Expr::lit(or).with_span(span);
        }
    }
    if items.iter().all(|e| truth(e).is_some()) {
        return items.into_iter().last().expect("a chain has operands");
    }
    let mut kept: Vec<Expr> = items
        .into_iter()
        .filter(|e| truth(e) != Some(!or))
        .collect();
    match kept.len() {
        1 => kept.pop().expect("one operand"),
        _ if or => Expr::new(ExprKind::Or(kept), span),
        _ => Expr::new(ExprKind::And(kept), span),
    }
}

/// Does `e` call a function anywhere?
pub(crate) fn has_call(e: &Expr) -> bool {
    e.any(|n| matches!(n.kind, ExprKind::Call { .. }))
}

/// Heuristic evaluation cost of a predicate (the plan order the fused
/// scan's conjunct re-ranker starts from): lower runs first.
pub fn predicate_cost(expr: &Expr) -> u32 {
    match &expr.kind {
        ExprKind::Literal(_) => 0,
        ExprKind::Column { .. } => 1,
        ExprKind::IsNull { .. } | ExprKind::InBoundingBox { .. } => 2,
        ExprKind::Binary { op, left, right } => {
            let own = if op.is_comparison() { 3 } else { 2 };
            own + predicate_cost(left) + predicate_cost(right)
        }
        // 2 an operator, as `((a OR b) OR c)` has two.
        ExprKind::And(items) | ExprKind::Or(items) => {
            items.iter().map(predicate_cost).sum::<u32>() + 2 * (items.len() as u32 - 1)
        }
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
        let xy = Expr::and_all(vec![Expr::col("x"), Expr::col("y")]);
        assert_eq!(fold("x and true and y and true"), xy);
        assert_eq!(fold("x and null and false and y"), Expr::lit(false));
        assert_eq!(fold("true or false or true"), Expr::lit(true));
        // A settling literal keeps a call written before it.
        let call = || parse_expr("f(x) > 0").unwrap();
        let or = |items| Expr::dummy(ExprKind::Or(items));
        let and = |items| Expr::dummy(ExprKind::And(items));
        assert_eq!(fold("f(x) > 0 or true"), or(vec![call(), Expr::lit(true)]));
        assert_eq!(
            fold("f(x) > 0 and true and false and g(y)"),
            and(vec![call(), Expr::lit(false)])
        );
        assert_eq!(
            fold("x or f(x) > 0 or false or true"),
            or(vec![Expr::col("x"), call(), Expr::lit(true)])
        );
        // A call after the literal drops.
        assert_eq!(fold("x or true or f(x) > 0"), Expr::lit(true));
        assert_eq!(fold("false and f(x) > 0"), Expr::lit(false));
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
        // The order-conjuncts rule's static pass: a stable sort on cost.
        let mut conjuncts = [
            parse_expr("text matches 'a+'").unwrap(),
            parse_expr("followers > 5").unwrap(),
            parse_expr("text contains 'b'").unwrap(),
            parse_expr("followers > 7").unwrap(),
        ];
        conjuncts.sort_by_key(predicate_cost);
        assert_eq!(conjuncts[0], parse_expr("followers > 5").unwrap());
        assert_eq!(conjuncts[1], parse_expr("followers > 7").unwrap());
        assert!(matches!(conjuncts[2].kind, ExprKind::Contains { .. }));
        assert!(matches!(conjuncts[3].kind, ExprKind::Matches { .. }));
    }
}
