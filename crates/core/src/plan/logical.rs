//! The logical plan IR: a clause-structured, schema-resolved form of a
//! checked `SELECT`, built *before* any physical decisions (async
//! hoisting, operator fusion, compilation) are taken.
//!
//! Rewrite rules ([`super::rules`]) transform a [`LogicalPlan`] into an
//! equivalent one; the [`super::verify::PlanVerifier`] re-checks types
//! and plan invariants after every rule. Lowering to the physical
//! pipeline ([`super::plan`]) consumes the final `LogicalPlan`.

use crate::ast::{Expr, ExprKind, JoinClause, SelectItem, SelectStmt, WindowSpec};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::udf::Registry;
use std::sync::Arc;
use tweeql_model::{SchemaRef, Value};

/// One SELECT output expression (wildcards already expanded).
#[derive(Debug, Clone)]
pub(crate) struct LogicalSelect {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// The logical plan for one statement.
///
/// Clauses keep their AST expression form — rules are source-level
/// static analyses; compilation to [`crate::expr::CExpr`] happens only
/// at lowering.
#[derive(Debug, Clone)]
pub(crate) struct LogicalPlan {
    /// FROM stream name.
    pub stream: String,
    /// Schema of the FROM stream alone.
    pub left_schema: SchemaRef,
    /// JOIN clause, when present.
    pub join: Option<JoinClause>,
    /// Scan schema the filter/select run over (left ++ right for joins).
    pub schema: SchemaRef,
    /// WHERE conjuncts in evaluation order.
    pub filter: Vec<Expr>,
    /// SELECT list, wildcards expanded.
    pub select: Vec<LogicalSelect>,
    /// GROUP BY key names (aliases or columns).
    pub group_by: Vec<String>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// WINDOW clause.
    pub window: Option<WindowSpec>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// Connection-filter candidates, keyed by the WHERE conjunct they
    /// were extracted from (filled by the pushdown rule; the key lets
    /// later rules that reorder or rewrite conjuncts stay accountable
    /// to the verifier).
    pub candidates: Vec<(Expr, super::ApiCandidate)>,
}

impl LogicalPlan {
    /// Build the IR from a checked statement. Purely structural: no
    /// folding, ordering, or candidate extraction happens here — those
    /// are rewrite rules.
    pub fn build(stmt: &SelectStmt, catalog: &Catalog) -> Result<LogicalPlan, QueryError> {
        let left_schema = catalog.resolve(&stmt.from)?;
        let schema = match &stmt.join {
            None => Arc::clone(&left_schema),
            Some(jc) => Arc::new(left_schema.concat(&*catalog.resolve(&jc.stream)?)),
        };

        let filter: Vec<Expr> = match &stmt.where_clause {
            Some(w) => w.conjuncts().into_iter().cloned().collect(),
            None => Vec::new(),
        };

        let mut select = Vec::new();
        for item in &stmt.select {
            match item {
                SelectItem::Wildcard => {
                    for f in schema.fields() {
                        if !f.name.starts_with("__") {
                            select.push(LogicalSelect {
                                expr: Expr::col(&f.name),
                                alias: None,
                            });
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => select.push(LogicalSelect {
                    expr: expr.clone(),
                    alias: alias.clone(),
                }),
            }
        }

        Ok(LogicalPlan {
            stream: stmt.from.clone(),
            left_schema,
            join: stmt.join.clone(),
            schema,
            filter,
            select,
            group_by: stmt.group_by.clone(),
            having: stmt.having.clone(),
            window: stmt.window.clone(),
            limit: stmt.limit,
            candidates: Vec::new(),
        })
    }

    /// Output column names in SELECT order (pre-dedup) — the signature
    /// the verifier holds rules to.
    pub fn output_names(&self) -> Vec<String> {
        self.select
            .iter()
            .enumerate()
            .map(|(i, s)| super::output_name(&s.expr, s.alias.as_deref(), i))
            .collect()
    }

    /// How many WHERE conjuncts precede the first one that calls a
    /// stateful UDF (all of them when none does). Such a call's results
    /// depend on which rows reach it, so only this prefix may be
    /// reordered or pushed into the connection: nothing written after
    /// the call may run before it.
    pub fn stateful_fence(&self, registry: &Registry) -> usize {
        self.filter
            .iter()
            .take_while(|c| !super::calls_stateful(c, registry))
            .count()
    }

    /// Column-liveness dataflow: which source-schema columns any plan
    /// expression reads (`None`: all of them). Only
    /// [`super::PlannedQuery::live_columns`] keeps it.
    ///
    /// `location in [bbox]` compiles to a [`crate::expr::CExpr`] that
    /// reads `lat`/`lon` by name without mentioning them in the AST, so
    /// a bounding box marks those two columns itself. An alias GROUP BY
    /// key is covered by its select item; a plain column key marks
    /// itself.
    pub fn live_columns(&self) -> Option<Vec<bool>> {
        let mut live = vec![false; self.schema.len()];
        let mut mark = |c: &str| {
            if let Some(i) = self.schema.index_of(c) {
                live[i] = true;
            }
        };
        let selected = self.select.iter().map(|s| &s.expr);
        for e in self.filter.iter().chain(selected).chain(&self.having) {
            e.walk(&mut |n| match &n.kind {
                ExprKind::Column { name, .. } => mark(name),
                ExprKind::InBoundingBox { .. } => ["lat", "lon"].into_iter().for_each(&mut mark),
                _ => {}
            });
        }
        self.group_by.iter().for_each(|g| mark(g));
        (!live.iter().all(|&b| b)).then_some(live)
    }
}

/// Source-level rendering of an expression, for the verifier's
/// messages: it parses back to an expression that renders the same.
pub(crate) fn render_expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        ExprKind::Literal(v) => literal(v),
        ExprKind::Call { name, args } => format!(
            "{name}({})",
            args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        ExprKind::Binary { op, left, right } => {
            format!("({} {} {})", operand(left), op.symbol(), operand(right))
        }
        // Left-nested, as `((a OR b) OR c)`.
        ExprKind::And(items) | ExprKind::Or(items) => items[1..].iter().fold(
            "(".repeat(items.len() - 1) + &render_expr(&items[0]),
            |out, item| out + " " + e.chain_word() + " " + &render_expr(item) + ")",
        ),
        ExprKind::Not(inner) => format!("NOT {}", render_expr(inner)),
        // `--` opens a comment.
        ExprKind::Neg(inner) => match operand(inner) {
            s if s.starts_with('-') => format!("-({s})"),
            s => format!("-{s}"),
        },
        ExprKind::Contains { expr, pattern } => {
            format!("{} contains {}", operand(expr), operand(pattern))
        }
        ExprKind::Matches { expr, pattern } => {
            format!(
                "{} matches {}",
                operand(expr),
                literal(&pattern.as_str().into())
            )
        }
        ExprKind::InList { expr, list } => format!(
            "{} in ({})",
            operand(expr),
            list.iter().map(literal).collect::<Vec<_>>().join(", ")
        ),
        ExprKind::IsNull { expr, negated } => format!(
            "{} is {}null",
            operand(expr),
            if *negated { "not " } else { "" }
        ),
        ExprKind::InBoundingBox { name, .. } => format!("location in [bounding box for {name}]"),
    }
}

/// `e` as an operand of arithmetic, a comparison form or a minus: a
/// NOT or a comparison form goes in parentheses.
fn operand(e: &Expr) -> String {
    match e.kind {
        ExprKind::Not(_)
        | ExprKind::Contains { .. }
        | ExprKind::Matches { .. }
        | ExprKind::InList { .. }
        | ExprKind::IsNull { .. }
        | ExprKind::InBoundingBox { .. } => format!("({})", render_expr(e)),
        _ => render_expr(e),
    }
}

/// A literal as TweeQL spells it, a string's `'` doubled.
fn literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        v => v.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn build(sql: &str) -> LogicalPlan {
        LogicalPlan::build(&parse(sql).unwrap(), &Catalog::with_twitter()).unwrap()
    }

    #[test]
    fn build_expands_wildcard_and_splits_conjuncts() {
        let p = build("SELECT * FROM twitter WHERE text contains 'a' AND followers > 5");
        assert_eq!(p.filter.len(), 2);
        assert_eq!(p.select.len(), p.schema.len());
        assert!(p.candidates.is_empty());
    }

    #[test]
    fn liveness_marks_referenced_columns_only() {
        let p = build("SELECT lang FROM twitter WHERE followers > 10");
        let live = p.live_columns().expect("narrow query prunes");
        let names: Vec<&str> = p
            .schema
            .fields()
            .iter()
            .zip(&live)
            .filter(|(_, l)| **l)
            .map(|(f, _)| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["lang", "followers"]);
    }

    #[test]
    fn liveness_forces_lat_lon_for_bounding_boxes() {
        let p = build("SELECT text FROM twitter WHERE location in [bounding box for NYC]");
        let live = p.live_columns().expect("prunes");
        for c in ["text", "lat", "lon"] {
            assert!(live[p.schema.index_of(c).unwrap()], "{c} must be live");
        }
        assert!(!live[p.schema.index_of("lang").unwrap()]);
    }

    #[test]
    fn liveness_none_when_everything_is_read() {
        let p = build("SELECT * FROM twitter");
        assert!(p.live_columns().is_none());
    }

    #[test]
    fn output_names_match_planner_naming() {
        let p = build("SELECT text, upper(lang) AS u, followers + 1 FROM twitter");
        assert_eq!(p.output_names(), vec!["text", "u", "col2"]);
    }

    #[test]
    fn render_expr_round_trips_shapes() {
        let p = build(
            "SELECT text FROM twitter \
             WHERE (text contains 'a' OR text contains 'b') AND followers > 5",
        );
        let rendered: Vec<String> = p.filter.iter().map(render_expr).collect();
        assert_eq!(rendered[0], "(text contains 'a' OR text contains 'b')");
        assert_eq!(rendered[1], "(followers > 5)");
    }

    /// Forms that parse back only quoted or in parentheses: strings, a
    /// minus over a minus or a NOT, and a NOT or a comparison form as
    /// an operand.
    #[test]
    fn render_expr_parses_back() {
        use crate::ast::BinOp;
        use crate::parser::parse_expr;
        let (a, b) = (Expr::col("a"), Expr::col("b"));
        let cases = [
            (Expr::lit("it's a b"), "'it''s a b'"),
            (Expr::neg(Expr::neg(a.clone())), "-(-a)"),
            (Expr::neg(Expr::not(a.clone())), "-(NOT a)"),
            (
                Expr::binary(
                    BinOp::Eq,
                    Expr::contains(a.clone(), b.clone()),
                    Expr::lit(true),
                ),
                "((a contains b) = true)",
            ),
            (
                Expr::binary(BinOp::Add, Expr::not(a.clone()), b.clone()),
                "((NOT a) + b)",
            ),
            (
                Expr::in_list(b, vec!["x y".into(), Value::Int(-1)]),
                "b in ('x y', -1)",
            ),
        ];
        for (e, text) in cases {
            assert_eq!(render_expr(&e), text);
            assert_eq!(render_expr(&parse_expr(text).unwrap()), text);
        }
    }
}
