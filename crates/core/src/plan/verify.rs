//! The plan verifier: a safety net that re-checks every rewritten
//! plan against the original's observable contract.
//!
//! After each rule application the verifier (a) re-runs the
//! [`crate::check`] typechecker's inference over every plan
//! expression, and (b) checks plan invariants no rewrite may break:
//! output names and arity, grouping keys, window/watermark semantics,
//! LIMIT, join shape, liveness coverage of every referenced column,
//! pushdown-candidate consistency, and that no WHERE conjunct moves
//! across a stateful call or is reordered behind one (the call's
//! results depend on the rows it sees).
//! Violations are surfaced by
//! [`super::rules::rewrite`] with rule-name attribution.

use super::logical::{render_expr, LogicalPlan};
use super::rules::{fold_constants_rule, fuse_multicontains_rule, RuleCtx};
use crate::ast::{Expr, WindowSpec};
use crate::check::typecheck::{infer, InferCtx, Mode, TypeEnv};
use crate::udf::Registry;
use std::collections::HashSet;
use tweeql_model::DataType;

/// The pre-rewrite contract a rule's output is held to.
pub(crate) struct PlanVerifier {
    output_names: Vec<String>,
    group_by: Vec<String>,
    window: Option<WindowSpec>,
    limit: Option<u64>,
    has_having: bool,
    has_join: bool,
    stream: String,
    schema_names: Vec<String>,
    /// The WHERE conjuncts from the first stateful call onward, as the
    /// in-place rules leave them (see [`stateful_tail`]).
    stateful_tail: Vec<Expr>,
    /// Type issues already present before any rewrite. The planner can
    /// be handed an unchecked statement (tests, tooling), so the
    /// verifier only rejects issues a rule *introduces*, never ones the
    /// original plan carried in.
    baseline_issues: HashSet<String>,
}

impl PlanVerifier {
    /// Capture the contract from the plan as built (pre-rewrite).
    pub fn capture(p: &LogicalPlan, registry: &Registry) -> PlanVerifier {
        PlanVerifier {
            output_names: p.output_names(),
            group_by: p.group_by.clone(),
            window: p.window.clone(),
            limit: p.limit,
            has_having: p.having.is_some(),
            has_join: p.join.is_some(),
            stream: p.stream.clone(),
            schema_names: p.schema.names().iter().map(|n| n.to_string()).collect(),
            stateful_tail: stateful_tail(p, registry),
            baseline_issues: type_issues(p, registry)
                .into_iter()
                .map(|(key, _)| key)
                .collect(),
        }
    }

    /// Check `p` against the captured contract. `Err` carries a
    /// human-readable violation description.
    pub fn verify(&self, p: &LogicalPlan, registry: &Registry) -> Result<(), String> {
        // ---- structural invariants --------------------------------------
        if p.select.len() != self.output_names.len() {
            return Err(format!(
                "select arity changed: {} -> {}",
                self.output_names.len(),
                p.select.len()
            ));
        }
        let names = p.output_names();
        if names != self.output_names {
            return Err(format!(
                "output names changed: {:?} -> {names:?}",
                self.output_names
            ));
        }
        if p.group_by != self.group_by {
            return Err("grouping keys changed".into());
        }
        if p.window != self.window {
            return Err("window/watermark semantics changed".into());
        }
        if p.limit != self.limit {
            return Err("LIMIT changed".into());
        }
        if p.having.is_some() != self.has_having {
            return Err("HAVING clause appeared or disappeared".into());
        }
        if p.join.is_some() != self.has_join {
            return Err("join shape changed".into());
        }
        if !p.stream.eq_ignore_ascii_case(&self.stream) {
            return Err("source stream changed".into());
        }
        let schema_names: Vec<String> = p.schema.names().iter().map(|n| n.to_string()).collect();
        if schema_names != self.schema_names {
            return Err("scan schema changed".into());
        }

        // ---- type invariants: re-run the checker's inference ------------
        for (key, detail) in type_issues(p, registry) {
            if !self.baseline_issues.contains(&key) {
                return Err(detail);
            }
        }

        // ---- liveness invariant -----------------------------------------
        if let Some(live) = &p.live {
            if self.has_join {
                return Err("projection pruning is not valid for join plans".into());
            }
            if live.len() != p.schema.len() {
                return Err(format!(
                    "live-column mask width {} does not match schema width {}",
                    live.len(),
                    p.schema.len()
                ));
            }
            let required = p
                .live_columns()
                .unwrap_or_else(|| vec![true; p.schema.len()]);
            for (i, (req, l)) in required.iter().zip(live).enumerate() {
                if *req && !*l {
                    let name = p.schema.field(i).map(|f| f.name.as_str()).unwrap_or("?");
                    return Err(format!(
                        "column `{name}` is read by the plan but pruned from decode"
                    ));
                }
            }
        }

        // ---- stateful order: nothing moves across or after the call ---
        if stateful_tail(p, registry) != self.stateful_tail {
            return Err("a WHERE conjunct moved across a stateful call or behind it".into());
        }
        let fence = p.stateful_fence(registry);

        // ---- pushdown-candidate consistency -----------------------------
        for (e, c) in &p.candidates {
            match p.filter.iter().position(|f| f == e) {
                None => {
                    return Err(format!(
                        "pushdown candidate {} no longer matches any WHERE conjunct",
                        c.description
                    ))
                }
                Some(i) if i >= fence => {
                    return Err(format!(
                        "pushdown candidate {} comes from a conjunct after a stateful call",
                        c.description
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// The WHERE conjuncts from the first stateful call onward (none when
/// no conjunct calls one), in the form the in-place rules leave them:
/// constants folded, `contains` chains fused. Those rules rewrite a
/// conjunct where it stands; any other change to this tail moves a
/// conjunct ahead of the call, or reorders the rows a later one sees.
fn stateful_tail(p: &LogicalPlan, registry: &Registry) -> Vec<Expr> {
    if p.stateful_fence(registry) == p.filter.len() {
        return Vec::new();
    }
    let ctx = RuleCtx {
        registry,
        hints: &[],
    };
    let q = fold_constants_rule(p, &ctx).map_or_else(|| p.clone(), |(q, _)| q);
    let mut q = fuse_multicontains_rule(&q, &ctx).map_or(q, |(fused, _)| fused);
    let fence = q.stateful_fence(registry);
    q.filter.split_off(fence)
}

/// Re-run the checker's type inference over every plan expression.
/// Returns `(stable key, human-readable detail)` pairs: the key is
/// render-independent so baseline comparison survives rewrites that
/// reshape an expression without changing its (pre-existing) problem.
fn type_issues(p: &LogicalPlan, registry: &Registry) -> Vec<(String, String)> {
    let mut env = TypeEnv {
        columns: p
            .schema
            .fields()
            .iter()
            .map(|f| (f.name.clone(), f.data_type))
            .collect(),
        aliases: Vec::new(),
        streams: {
            let mut s = vec![p.stream.to_lowercase()];
            if let Some(jc) = &p.join {
                s.push(jc.stream.to_lowercase());
            }
            s
        },
    };
    let mut issues = Vec::new();
    let mut diags = Vec::new();
    let mut alias_types = Vec::new();
    for s in &p.select {
        let cx = InferCtx {
            env: &env,
            registry,
            clause: "SELECT",
            use_aliases: false,
        };
        let t = infer(&s.expr, &cx, &mut diags, Mode::Aggregating, None);
        if let Some(a) = &s.alias {
            alias_types.push((a.clone(), t));
        }
    }
    env.aliases = alias_types;
    for c in &p.filter {
        let cx = InferCtx {
            env: &env,
            registry,
            clause: "WHERE",
            use_aliases: false,
        };
        let t = infer(c, &cx, &mut diags, Mode::Scalar, None);
        if !matches!(t, DataType::Bool | DataType::Any) {
            issues.push((
                format!("non-boolean WHERE conjunct of type {t}"),
                format!(
                    "WHERE conjunct `{}` has non-boolean type {t}",
                    render_expr(c)
                ),
            ));
        }
    }
    if let Some(h) = &p.having {
        let cx = InferCtx {
            env: &env,
            registry,
            clause: "HAVING",
            use_aliases: true,
        };
        infer(h, &cx, &mut diags, Mode::Aggregating, None);
    }
    for d in diags.iter().filter(|d| d.is_error()) {
        issues.push((
            format!("[{}] {}", d.code, d.message),
            format!("typecheck failed: [{}] {}", d.code, d.message),
        ));
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::catalog::Catalog;
    use crate::parser::parse;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::VirtualClock;

    fn registry() -> Registry {
        Registry::standard(&ServiceConfig::default(), VirtualClock::new())
    }

    fn logical(sql: &str) -> LogicalPlan {
        LogicalPlan::build(&parse(sql).unwrap(), &Catalog::with_twitter()).unwrap()
    }

    #[test]
    fn identity_passes() {
        let p = logical("SELECT text, count(*) AS n FROM twitter GROUP BY text WINDOW 100 TUPLES");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        assert!(v.verify(&p, &reg).is_ok());
    }

    #[test]
    fn dropped_select_item_is_rejected() {
        let p = logical("SELECT text, lang FROM twitter");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        broken.select.pop();
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("arity"), "{err}");
    }

    #[test]
    fn renamed_output_is_rejected() {
        let p = logical("SELECT text AS t FROM twitter");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        broken.select[0].alias = Some("other".into());
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("output names"), "{err}");
    }

    #[test]
    fn ill_typed_rewrite_is_rejected() {
        let p = logical("SELECT text FROM twitter WHERE followers > 10");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        // `text > 10` is a type error the checker would have caught.
        broken.filter = vec![Expr::binary(
            crate::ast::BinOp::Gt,
            Expr::col("text"),
            Expr::lit(10i64),
        )];
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("typecheck failed"), "{err}");
    }

    #[test]
    fn non_boolean_filter_is_rejected() {
        let p = logical("SELECT text FROM twitter WHERE followers > 10");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        broken.filter = vec![Expr::binary(
            crate::ast::BinOp::Add,
            Expr::col("followers"),
            Expr::lit(1i64),
        )];
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("non-boolean"), "{err}");
    }

    #[test]
    fn under_pruned_live_mask_is_rejected() {
        let p = logical("SELECT lang FROM twitter WHERE followers > 10");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        let mut live = vec![false; broken.schema.len()];
        live[broken.schema.index_of("lang").unwrap()] = true;
        broken.live = Some(live); // `followers` is read by WHERE but pruned
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("followers"), "{err}");
    }

    #[test]
    fn changed_window_is_rejected() {
        let p = logical("SELECT count(*) FROM twitter WINDOW 1 minutes");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        broken.window = None;
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn conjunct_moved_ahead_of_a_stateful_call_is_rejected() {
        struct Counter;
        impl crate::udf::StatefulUdf for Counter {
            fn call(
                &mut self,
                _: &[tweeql_model::Value],
                _: tweeql_model::Timestamp,
            ) -> Result<tweeql_model::Value, crate::error::QueryError> {
                Ok(tweeql_model::Value::Int(0))
            }
        }
        let mut reg = registry();
        reg.register_stateful("counter", std::sync::Arc::new(|| Box::new(Counter)));
        let rejects = |sql: &str, breaks: &dyn Fn(&mut LogicalPlan)| {
            let p = logical(sql);
            let v = PlanVerifier::capture(&p, &reg);
            let mut broken = p.clone();
            breaks(&mut broken);
            let err = v.verify(&broken, &reg).unwrap_err();
            assert!(err.contains("stateful"), "{sql}: {err}");
        };
        // A conjunct written after the call moves ahead of it.
        let after = "SELECT text FROM twitter WHERE counter(followers) > 1 AND text contains 'kw'";
        rejects(after, &|p| p.filter.reverse());
        // The call moves ahead of a conjunct written before it.
        rejects(
            "SELECT text FROM twitter WHERE text contains 'kw' AND counter(followers) > 1",
            &|p| p.filter.reverse(),
        );
        // Behind the first call, a second one moves ahead of a filter.
        rejects(
            "SELECT text FROM twitter WHERE counter(followers) > 1 AND lang = 'en' \
             AND counter(user_id) > 1",
            &|p| p.filter.swap(1, 2),
        );
        // A candidate taken from a conjunct after the call.
        rejects(after, &|p| {
            p.candidates = vec![(
                p.filter[1].clone(),
                super::super::ApiCandidate {
                    spec: tweeql_firehose::FilterSpec::Track(vec!["kw".into()]),
                    description: "track(kw)".into(),
                },
            )]
        });
        // The in-place rules may still rewrite a conjunct behind it.
        let p = logical(
            "SELECT text FROM twitter WHERE 1 = 1 AND counter(followers) > 1 + 1 \
             AND (text contains 'a' OR text contains 'a') AND 2 > 1",
        );
        let ctx = super::super::rules::RuleCtx {
            registry: &reg,
            hints: &[],
        };
        let out =
            super::super::rules::rewrite(p, &super::super::rules::standard_rules(), &ctx, true);
        assert_eq!(out.plan.filter.len(), 2, "{:?}", out.attributions);
    }

    #[test]
    fn detached_candidate_is_rejected() {
        let p = logical("SELECT text FROM twitter WHERE text contains 'kw'");
        let reg = registry();
        let v = PlanVerifier::capture(&p, &reg);
        let mut broken = p.clone();
        broken.candidates = vec![(
            Expr::contains(Expr::col("text"), Expr::lit("gone")),
            super::super::ApiCandidate {
                spec: tweeql_firehose::FilterSpec::Track(vec!["gone".into()]),
                description: "track(gone)".into(),
            },
        )];
        let err = v.verify(&broken, &reg).unwrap_err();
        assert!(err.contains("candidate"), "{err}");
    }
}
