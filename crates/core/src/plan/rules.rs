//! Rewrite rules over the [`LogicalPlan`] IR.
//!
//! Each rule is a classic static analysis expressed as a plan-to-plan
//! transform: constant folding (abstract interpretation under SQL's
//! three-valued logic), multi-keyword `contains` fusion, connection
//! filter pushdown, and cost-based conjunct ordering seeded from
//! measured selectivities. [`rewrite`] runs the [`PlanVerifier`]
//! after *every* rule application: a rule that breaks type, schema, or
//! window semantics is rejected with rule-name attribution — debug
//! builds panic, release builds fall back to the unoptimized plan and
//! surface a notice.

use super::contains_chain;
use super::logical::LogicalPlan;
use super::optimizer;
use super::verify::PlanVerifier;
use crate::ast::{Expr, ExprKind};
use crate::udf::Registry;
use std::collections::HashSet;

/// Shared context rules may consult.
pub(crate) struct RuleCtx<'a> {
    /// UDF registry (the verifier re-typechecks against it).
    pub registry: &'a Registry,
    /// `(candidate description, measured selectivity)` pairs from a
    /// previous run's pushdown probe — seeds conjunct ordering.
    pub hints: &'a [(String, f64)],
}

/// One rewrite rule. `apply` returns the transformed plan plus a short
/// attribution note, or `None` when the rule has nothing to do.
pub(crate) struct Rule {
    pub name: &'static str,
    pub apply: fn(&LogicalPlan, &RuleCtx<'_>) -> Option<(LogicalPlan, String)>,
}

/// The standard rule set, in application order. Fusion runs before
/// pushdown so track candidates are extracted from the canonical
/// (deduplicated) keyword chains.
pub(crate) fn standard_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "fold-constants",
            apply: fold_constants_rule,
        },
        Rule {
            name: "fuse-multicontains",
            apply: fuse_multicontains_rule,
        },
        Rule {
            name: "pushdown-filter",
            apply: pushdown_filter_rule,
        },
        Rule {
            name: "order-conjuncts",
            apply: order_conjuncts_rule,
        },
    ]
}

/// Result of a verified rewrite pass.
pub(crate) struct RewriteOutcome {
    pub plan: LogicalPlan,
    /// One `rule <name>: <note>` line per applied rule, for EXPLAIN.
    pub attributions: Vec<String>,
    /// Verifier-rejection notices (empty on a clean pass).
    pub notices: Vec<String>,
}

/// Apply `rules` in order, verifying the plan after each application.
///
/// On a verifier violation: panic when `strict` (debug builds), else
/// discard all rewrites, keep the original plan, and report the
/// rejection as a notice.
pub(crate) fn rewrite(
    plan: LogicalPlan,
    rules: &[Rule],
    ctx: &RuleCtx<'_>,
    strict: bool,
) -> RewriteOutcome {
    let original = plan.clone();
    let verifier = PlanVerifier::capture(&plan, ctx.registry);
    let mut cur = plan;
    let mut attributions = Vec::new();
    for rule in rules {
        let Some((next, note)) = (rule.apply)(&cur, ctx) else {
            continue;
        };
        match verifier.verify(&next, ctx.registry) {
            Ok(()) => {
                attributions.push(format!("rule {}: {}", rule.name, note));
                cur = next;
            }
            Err(msg) => {
                let msg = format!(
                    "optimizer rule {} rejected by plan verifier: {msg}",
                    rule.name
                );
                if strict {
                    panic!("{msg}");
                }
                return RewriteOutcome {
                    plan: original,
                    attributions: Vec::new(),
                    notices: vec![format!("{msg}; falling back to the unoptimized plan")],
                };
            }
        }
    }
    RewriteOutcome {
        plan: cur,
        attributions,
        notices: Vec::new(),
    }
}

// ---- fold-constants -----------------------------------------------------

/// Constant folding as abstract interpretation: evaluate every
/// constant subexpression, drop always-true WHERE conjuncts, and
/// collapse the whole filter when a conjunct is always false. Under
/// 3VL a conjunct folding to `NULL` also rejects every row (`WHERE`
/// keeps only *true* rows), so it collapses the filter too. As in a
/// chain ([`optimizer::fold_constants`]), a conjunct that calls a
/// function ahead of that one still runs: the filter then ends at the
/// constant instead.
pub(super) fn fold_constants_rule(
    p: &LogicalPlan,
    _ctx: &RuleCtx<'_>,
) -> Option<(LogicalPlan, String)> {
    let mut q = p.clone();
    let mut changed = false;
    let mut dropped = 0usize;
    let mut collapsed = false;

    let mut kept = Vec::with_capacity(q.filter.len());
    for c in &q.filter {
        let folded = optimizer::fold_constants(c);
        if folded != *c {
            changed = true;
        }
        if let ExprKind::Literal(v) = &folded.kind {
            changed = true;
            if !v.is_null() && v.is_truthy() {
                dropped += 1;
                continue;
            }
            if kept.iter().any(optimizer::has_call) {
                kept.push(folded);
            } else {
                collapsed = true;
                kept = vec![Expr::lit(false)];
            }
            break;
        }
        kept.push(folded);
    }
    q.filter = kept;

    for s in &mut q.select {
        let folded = optimizer::fold_constants(&s.expr);
        if folded != s.expr {
            changed = true;
            s.expr = folded;
        }
    }
    if let Some(h) = &q.having {
        let folded = optimizer::fold_constants(h);
        if folded != *h {
            changed = true;
            q.having = Some(folded);
        }
    }

    if !changed {
        return None;
    }
    let note = if collapsed {
        "collapsed WHERE to constant false (statically matches nothing)".to_string()
    } else if dropped > 0 {
        format!("eliminated {dropped} always-true conjunct(s)")
    } else {
        "folded constant subexpressions".to_string()
    };
    Some((q, note))
}

// ---- fuse-multicontains -------------------------------------------------

/// Promote OR-chains of `contains` literals on one column to a
/// canonical, deduplicated form — the shape the compiled pipeline
/// lowers to a single multi-pattern matcher and the pushdown rule
/// turns into one multi-keyword `track` filter.
pub(super) fn fuse_multicontains_rule(
    p: &LogicalPlan,
    _ctx: &RuleCtx<'_>,
) -> Option<(LogicalPlan, String)> {
    let mut q = p.clone();
    let mut fused = Vec::new();
    for c in &mut q.filter {
        let Some((col, mut needles)) = contains_chain(c).filter(|(_, k)| k.len() > 1) else {
            continue;
        };
        let mut seen = HashSet::new();
        needles.retain(|n| seen.insert(n.clone()));
        fused.push(format!("{} needles on {col}", needles.len()));
        let items = needles
            .iter()
            .map(|n| Expr::contains(Expr::col(&col), Expr::lit(n.as_str())));
        *c = Expr::chain(ExprKind::Or, items.collect()).with_span(c.span);
    }
    if fused.is_empty() {
        return None;
    }
    Some((q, fused.join("; ")))
}

// ---- pushdown-filter ----------------------------------------------------

/// Extract server-side connection-filter candidates (`track` /
/// `locations` / `follow`) from the WHERE conjuncts — the engine
/// probes their selectivities and pushes the rarest one into the
/// firehose connection (the API accepts exactly one filter type).
/// Joins get none: their WHERE holds only after the join, and a
/// connection filter — or the standing-query host's prefilter, built
/// from these candidates — would drop rows the other side still needs.
/// Nor does a conjunct written after a stateful call: the call must
/// see every row the conjuncts before it pass.
fn pushdown_filter_rule(p: &LogicalPlan, ctx: &RuleCtx<'_>) -> Option<(LogicalPlan, String)> {
    if p.join.is_some() || !p.stream.eq_ignore_ascii_case("twitter") || p.filter.is_empty() {
        return None;
    }
    let fence = p.stateful_fence(ctx.registry);
    let mut cands = Vec::new();
    for c in &p.filter[..fence] {
        for cand in super::extract_api_candidates(std::slice::from_ref(c)) {
            cands.push((c.clone(), cand));
        }
    }
    if cands.is_empty() {
        return None;
    }
    let note = format!(
        "{} connection-filter candidate(s): {}",
        cands.len(),
        cands
            .iter()
            .map(|(_, c)| c.description.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut q = p.clone();
    q.candidates = cands;
    Some((q, note))
}

// ---- order-conjuncts ----------------------------------------------------

/// Cost-based conjunct ordering. The static cost model ranks cheap
/// predicates first; when a previous run probed this query's pushdown
/// candidates, their measured selectivities scale the score so a rare
/// predicate overtakes a cheap-but-unselective one. Only the conjuncts
/// written before the first stateful call move; it and the rest keep
/// their written order behind them.
fn order_conjuncts_rule(p: &LogicalPlan, ctx: &RuleCtx<'_>) -> Option<(LogicalPlan, String)> {
    let fence = p.stateful_fence(ctx.registry);
    if fence < 2 {
        return None;
    }
    let hint = |c: &Expr| -> Option<f64> {
        let (_, cand) = p.candidates.iter().find(|(e, _)| e == c)?;
        ctx.hints
            .iter()
            .find(|(d, _)| *d == cand.description)
            .map(|(_, s)| s.clamp(0.0, 1.0))
    };
    let mut seeded = false;
    let mut scored: Vec<(f64, usize, Expr)> = p.filter[..fence]
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut score = f64::from(optimizer::predicate_cost(c));
            if let Some(s) = hint(c) {
                seeded = true;
                score *= s;
            }
            (score, i, c.clone())
        })
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let ordered: Vec<Expr> = scored
        .into_iter()
        .map(|(_, _, c)| c)
        .chain(p.filter[fence..].iter().cloned())
        .collect();
    if ordered == p.filter && !seeded {
        return None;
    }
    let note = format!(
        "{} conjuncts cost-ordered{}",
        ordered.len(),
        if seeded {
            ", seeded from measured selectivities"
        } else {
            ""
        }
    );
    let mut q = p.clone();
    q.filter = ordered;
    Some((q, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse;
    use crate::plan::logical::render_expr;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::{Value, VirtualClock};

    fn registry() -> Registry {
        Registry::standard(&ServiceConfig::default(), VirtualClock::new())
    }

    fn logical(sql: &str) -> LogicalPlan {
        LogicalPlan::build(&parse(sql).unwrap(), &Catalog::with_twitter()).unwrap()
    }

    fn apply_all(sql: &str, hints: &[(String, f64)]) -> RewriteOutcome {
        let registry = registry();
        let ctx = RuleCtx {
            registry: &registry,
            hints,
        };
        rewrite(logical(sql), &standard_rules(), &ctx, true)
    }

    #[test]
    fn fold_eliminates_always_true_conjunct() {
        let out = apply_all(
            "SELECT text FROM twitter WHERE 1 = 1 AND text contains 'kw'",
            &[],
        );
        assert_eq!(out.plan.filter.len(), 1);
        assert!(out
            .attributions
            .iter()
            .any(|a| a.contains("rule fold-constants") && a.contains("always-true")));
    }

    #[test]
    fn fold_collapses_always_false_filter() {
        let out = apply_all(
            "SELECT text FROM twitter WHERE 1 > 2 AND text contains 'kw'",
            &[],
        );
        assert_eq!(out.plan.filter, vec![Expr::lit(false)]);
        assert!(out
            .attributions
            .iter()
            .any(|a| a.contains("matches nothing")));
    }

    #[test]
    fn fuse_dedups_and_canonicalizes_contains_chain() {
        let out = apply_all(
            "SELECT text FROM twitter WHERE \
             text contains 'a' OR text contains 'b' OR text contains 'a'",
            &[],
        );
        let (col, needles) = contains_chain(&out.plan.filter[0]).unwrap();
        assert_eq!(col, "text");
        assert_eq!(needles, vec!["a", "b"]);
        assert!(out
            .attributions
            .iter()
            .any(|a| a.contains("rule fuse-multicontains: 2 needles on text")));
        // Pushdown (which runs after fusion) sees the deduplicated chain.
        assert_eq!(out.plan.candidates.len(), 1);
        assert!(out.plan.candidates[0].1.description.contains("a, b"));
    }

    #[test]
    fn order_prefers_static_cost_without_hints() {
        let out = apply_all(
            "SELECT text FROM twitter WHERE text contains 'hot' AND followers > 1000",
            &[],
        );
        // Comparison (cost 4) beats contains-literal (cost 6).
        assert_eq!(render_expr(&out.plan.filter[0]), "(followers > 1000)");
        // ... which beats a regex (cost 20), whatever the written order.
        let out = apply_all(
            "SELECT text FROM twitter WHERE text matches 'a+' AND followers > 5 \
             AND text contains 'b'",
            &[],
        );
        let order: Vec<String> = out.plan.filter.iter().map(render_expr).collect();
        assert_eq!(
            order,
            ["(followers > 5)", "text contains 'b'", "text matches 'a+'"]
        );
    }

    /// Conjuncts written before a stateful call are ordered and pushed
    /// down as usual; the call and everything after it keep their
    /// written order and stay out of the connection.
    #[test]
    fn stateful_conjunct_fences_ordering_and_pushdown() {
        struct Counter;
        impl crate::udf::StatefulUdf for Counter {
            fn call(
                &mut self,
                _: &[Value],
                _: tweeql_model::Timestamp,
            ) -> Result<Value, crate::error::QueryError> {
                Ok(Value::Int(0))
            }
        }
        let mut registry = registry();
        registry.register_stateful("counter", std::sync::Arc::new(|| Box::new(Counter)));
        let ctx = RuleCtx {
            registry: &registry,
            hints: &[],
        };
        let written = logical(
            "SELECT text FROM twitter WHERE text matches 'a+' AND text contains 'obama' \
             AND followers > 5 AND counter(followers) % 3 = 0 AND text contains 'kw' \
             AND lang = 'en'",
        );
        let out = rewrite(written.clone(), &standard_rules(), &ctx, true);
        let order: Vec<String> = out.plan.filter[..3].iter().map(render_expr).collect();
        assert_eq!(
            order,
            [
                "(followers > 5)",
                "text contains 'obama'",
                "text matches 'a+'"
            ]
        );
        assert_eq!(out.plan.filter[3..], written.filter[3..]);
        let cands: Vec<&str> = out
            .plan
            .candidates
            .iter()
            .map(|(_, c)| c.description.as_str())
            .collect();
        assert_eq!(cands, ["track(obama)"]);
    }

    #[test]
    fn order_seeds_from_measured_selectivities() {
        let hints = vec![("track(hot)".to_string(), 0.01)];
        let out = apply_all(
            "SELECT text FROM twitter WHERE text contains 'hot' AND followers > 1000",
            &hints,
        );
        // A 1% selective keyword overtakes the cheap comparison.
        assert_eq!(
            render_expr(&out.plan.filter[0]),
            "text contains 'hot'",
            "attributions: {:?}",
            out.attributions
        );
        assert!(out
            .attributions
            .iter()
            .any(|a| a.contains("seeded from measured selectivities")));
    }

    /// A deliberately broken rule: renames the first output column —
    /// the verifier must reject it by name.
    fn broken_rules() -> Vec<Rule> {
        vec![Rule {
            name: "break-output-names",
            apply: |p, _| {
                let mut q = p.clone();
                q.select[0].alias = Some("renamed".into());
                Some((q, "rename an output".into()))
            },
        }]
    }

    #[test]
    fn broken_rule_rejected_with_attribution_and_fallback() {
        let registry = registry();
        let ctx = RuleCtx {
            registry: &registry,
            hints: &[],
        };
        let plan = logical("SELECT text FROM twitter WHERE followers > 10");
        let out = rewrite(plan, &broken_rules(), &ctx, false);
        // Release-mode semantics: unoptimized plan + notice.
        assert_eq!(
            out.plan.output_names(),
            ["text"],
            "fallback keeps the original plan"
        );
        assert!(out.attributions.is_empty());
        assert_eq!(out.notices.len(), 1);
        assert!(
            out.notices[0].contains("rule break-output-names"),
            "{}",
            out.notices[0]
        );
        assert!(
            out.notices[0].contains("falling back"),
            "{}",
            out.notices[0]
        );
    }

    #[test]
    #[should_panic(expected = "break-output-names")]
    fn broken_rule_panics_in_strict_mode() {
        let registry = registry();
        let ctx = RuleCtx {
            registry: &registry,
            hints: &[],
        };
        let plan = logical("SELECT text FROM twitter WHERE followers > 10");
        let _ = rewrite(plan, &broken_rules(), &ctx, true);
    }

    #[test]
    fn standard_rules_pass_verification_on_representative_queries() {
        for sql in [
            "SELECT text FROM twitter",
            "SELECT * FROM twitter WHERE 1 = 1",
            "SELECT sentiment(text), latitude(loc) FROM twitter WHERE text contains 'obama'",
            "SELECT lang, count(*) AS n FROM twitter GROUP BY lang \
             HAVING count(*) > 3 WINDOW 2 minutes",
            "SELECT text FROM twitter WHERE \
             (text contains 'a' OR text contains 'b') AND followers > 5 LIMIT 10",
            "SELECT text FROM twitter JOIN twitter ON user_id = retweet_of WINDOW 1 minutes",
        ] {
            // strict = true: any verifier rejection panics the test.
            let out = apply_all(sql, &[]);
            assert!(out.notices.is_empty(), "{sql}: {:?}", out.notices);
        }
    }
}
