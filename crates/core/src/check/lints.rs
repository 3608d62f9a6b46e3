//! Lint rules (`W101`…`W109`) — streaming hazards and likely mistakes
//! that don't stop the query from running.
//!
//! Each rule targets a failure mode the paper's demo users hit:
//! filters the Twitter streaming API can't narrow (full-firehose
//! scans), high-latency web-service UDFs on the filter path, and
//! aggregation shapes that silently drop or mis-window data.

use crate::ast::{Expr, ExprKind, SelectItem, SelectStmt, Span, WindowSpec};
use crate::check::diag::Diagnostic;
use crate::check::sigs;
use crate::check::typecheck::{contains_aggregate, TypeEnv};
use crate::plan::optimizer::fold_constants;
use crate::udf::Registry;

/// Run every lint, appending warnings to `diags`.
pub(crate) fn run(
    stmt: &SelectStmt,
    env: &TypeEnv,
    registry: &Registry,
    group_keys: &[(String, Expr, Span)],
    diags: &mut Vec<Diagnostic>,
) {
    w101_constant_conjunct(stmt, diags);
    w102_unfilterable_firehose(stmt, diags);
    w103_high_latency_filter(stmt, registry, diags);
    w104_location_group_without_confidence(stmt, group_keys, diags);
    w105_self_join(stmt, diags);
    w106_output_names(stmt, env, diags);
    w107_limit_without_order(stmt, diags);
    w108_constant_having(stmt, diags);
    w109_unused_group_key(stmt, group_keys, diags);
}

/// W101: a WHERE conjunct folds to a constant — it either filters
/// nothing or everything.
fn w101_constant_conjunct(stmt: &SelectStmt, diags: &mut Vec<Diagnostic>) {
    let Some(w) = &stmt.where_clause else { return };
    for c in w.conjuncts() {
        let folded = fold_constants(c);
        if let ExprKind::Literal(v) = &folded.kind {
            let effect = if v.is_truthy() {
                "always true — it filters nothing"
            } else {
                "always false — the query matches no tweets"
            };
            diags.push(Diagnostic::warning(
                "W101",
                c.span,
                format!("this WHERE condition is {effect}"),
            ));
        }
    }
}

/// W102: the query reads the `twitter` stream with a WHERE clause that
/// the streaming API cannot evaluate server-side (no `contains`
/// keyword, bounding box, or user filter survives pushdown), so the
/// client scans the full firehose.
fn w102_unfilterable_firehose(stmt: &SelectStmt, diags: &mut Vec<Diagnostic>) {
    if !stmt.from.eq_ignore_ascii_case("twitter") || stmt.join.is_some() {
        return;
    }
    let Some(w) = &stmt.where_clause else { return };
    let folded: Vec<Expr> = w
        .conjuncts()
        .into_iter()
        .map(fold_constants)
        .filter(|c| !matches!(c.kind, ExprKind::Literal(_)))
        .collect();
    if folded.is_empty() {
        return;
    }
    if crate::plan::extract_api_candidates(&folded).is_empty() {
        diags.push(
            Diagnostic::warning(
                "W102",
                w.span,
                "no WHERE condition can be pushed to the streaming API; \
                 the full firehose is scanned client-side",
            )
            .with_help(
                "add a keyword (text contains '…'), bounding box, or user \
                 filter the API can evaluate server-side",
            ),
        );
    }
}

/// W103: a high-latency (web-service) UDF on the filter path is paid
/// for every arriving tweet, even ones the rest of the WHERE discards.
fn w103_high_latency_filter(stmt: &SelectStmt, registry: &Registry, diags: &mut Vec<Diagnostic>) {
    let Some(w) = &stmt.where_clause else { return };
    w.walk(&mut |e| {
        if let ExprKind::Call { name, .. } = &e.kind {
            let slow = sigs::lookup(name).is_some_and(|s| s.high_latency)
                || registry.async_udf(name).is_some();
            if slow {
                diags.push(
                    Diagnostic::warning(
                        "W103",
                        e.span,
                        format!("{name}() is a high-latency web-service call in WHERE"),
                    )
                    .with_help(
                        "every tweet pays the round trip; filter on cheap \
                         conditions first or move the call to SELECT",
                    ),
                );
            }
        }
    });
}

/// W104: grouping by a location-flavored key under a time window emits
/// on a timer whether or not the per-region estimate has converged;
/// `WINDOW CONFIDENCE` emits each group when its estimate is tight.
fn w104_location_group_without_confidence(
    stmt: &SelectStmt,
    group_keys: &[(String, Expr, Span)],
    diags: &mut Vec<Diagnostic>,
) {
    if !matches!(
        stmt.window,
        Some(WindowSpec::Time(_)) | Some(WindowSpec::Sliding { .. })
    ) {
        return;
    }
    let location_flavored = |e: &Expr| {
        let mut hit = false;
        e.walk(&mut |n| match &n.kind {
            ExprKind::Column { name, .. }
                if matches!(name.as_str(), "loc" | "lat" | "lon" | "location") =>
            {
                hit = true;
            }
            ExprKind::Call { name, .. } if matches!(name.as_str(), "latitude" | "longitude") => {
                hit = true;
            }
            _ => {}
        });
        hit
    };
    if let Some((name, _, _)) = group_keys.iter().find(|(_, e, _)| location_flavored(e)) {
        diags.push(
            Diagnostic::warning(
                "W104",
                stmt.window_span,
                format!("grouping by location ({name}) under a fixed time window"),
            )
            .with_help(
                "per-region arrival rates vary wildly; consider WINDOW \
                 CONFIDENCE to emit each region when its estimate converges",
            ),
        );
    }
}

/// W105: joining a stream to itself on the same key matches every
/// tweet against itself and its window-mates — usually a cross product
/// by accident.
fn w105_self_join(stmt: &SelectStmt, diags: &mut Vec<Diagnostic>) {
    let Some(j) = &stmt.join else { return };
    if j.stream.eq_ignore_ascii_case(&stmt.from) && j.left_col == j.right_col {
        diags.push(
            Diagnostic::warning(
                "W105",
                stmt.from_span,
                format!(
                    "self-join of {} on {} = {} pairs each tweet with every \
                     windowed tweet sharing the key",
                    stmt.from, j.left_col, j.right_col
                ),
            )
            .with_help("if intentional, keep the join window small"),
        );
    }
}

/// W106: output-name hazards — duplicate output columns (the sink
/// renames them `name_2`, …) and an alias that shadows a schema column
/// with a different expression (GROUP BY/HAVING then resolve the alias,
/// not the column).
fn w106_output_names(stmt: &SelectStmt, env: &TypeEnv, diags: &mut Vec<Diagnostic>) {
    let mut names: Vec<(String, Span)> = Vec::new();
    for (idx, item) in stmt.select.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (c, _) in &env.columns {
                    if !c.starts_with("__") {
                        names.push((c.clone(), Span::DUMMY));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = crate::plan::output_name(expr, alias.as_deref(), idx);
                names.push((name.clone(), expr.span));
                if let Some(a) = alias {
                    let is_that_column = matches!(
                        &expr.kind,
                        ExprKind::Column { name: n, .. } if n == a
                    );
                    if !is_that_column && env.columns.iter().any(|(c, _)| c == a) {
                        diags.push(
                            Diagnostic::warning(
                                "W106",
                                expr.span,
                                format!("alias {a} shadows the stream column of the same name"),
                            )
                            .with_help(
                                "GROUP BY and HAVING resolve the alias, not the \
                                 original column; rename the alias if that is not intended",
                            ),
                        );
                    }
                }
            }
        }
    }
    for (i, (name, span)) in names.iter().enumerate() {
        if names[..i].iter().any(|(n, _)| n == name) {
            diags.push(
                Diagnostic::warning(
                    "W106",
                    *span,
                    format!("duplicate output column name: {name}"),
                )
                .with_help("the sink renames duplicates to name_2, name_3, …"),
            );
        }
    }
}

/// W107: LIMIT over an aggregation truncates in arrival order — the
/// kept groups are arbitrary, not the biggest.
fn w107_limit_without_order(stmt: &SelectStmt, diags: &mut Vec<Diagnostic>) {
    if stmt.limit.is_none() {
        return;
    }
    let has_topk = stmt.select.iter().any(|i| {
        matches!(i, SelectItem::Expr { expr, .. }
            if expr.calls_function("topk"))
    });
    let aggregating = !stmt.group_by.is_empty()
        || stmt
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)));
    if aggregating && !has_topk {
        diags.push(
            Diagnostic::warning(
                "W107",
                Span::DUMMY,
                "LIMIT over an aggregation keeps groups in arrival order, \
                 not the largest ones",
            )
            .with_help("use topk(expr, k) to keep the k most frequent values"),
        );
    }
}

/// W108: a HAVING conjunct folds to a constant (the same
/// constant-folding abstract interpretation the plan optimizer runs) —
/// it statically keeps or drops every group.
fn w108_constant_having(stmt: &SelectStmt, diags: &mut Vec<Diagnostic>) {
    let Some(h) = &stmt.having else { return };
    for c in h.conjuncts() {
        let folded = fold_constants(c);
        if let ExprKind::Literal(v) = &folded.kind {
            let effect = if !v.is_null() && v.is_truthy() {
                "always true — it filters no groups"
            } else {
                "always false — every group is dropped"
            };
            diags.push(Diagnostic::warning(
                "W108",
                c.span,
                format!("this HAVING predicate is statically {effect}"),
            ));
        }
    }
}

/// W109: a GROUP BY key no SELECT item exposes. The liveness view: the
/// key is computed to tell groups apart, but nothing downstream can
/// read it, so the per-group split is indistinguishable in the output.
fn w109_unused_group_key(
    stmt: &SelectStmt,
    group_keys: &[(String, Expr, Span)],
    diags: &mut Vec<Diagnostic>,
) {
    if stmt
        .select
        .iter()
        .any(|i| matches!(i, SelectItem::Wildcard))
    {
        return;
    }
    for (name, _, span) in group_keys {
        let exposed = stmt.select.iter().any(|i| {
            let SelectItem::Expr { expr, alias } = i else {
                return false;
            };
            alias
                .as_deref()
                .is_some_and(|a| a.eq_ignore_ascii_case(name))
                || expr
                    .referenced_columns()
                    .iter()
                    .any(|c| c.eq_ignore_ascii_case(name))
        });
        if !exposed {
            diags.push(
                Diagnostic::warning(
                    "W109",
                    *span,
                    format!(
                        "GROUP BY key {name} is never selected — downstream \
                             consumers cannot tell the groups apart"
                    ),
                )
                .with_help("select the key (or an expression over it), or drop it from GROUP BY"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::{record::twitter_schema, VirtualClock};

    fn lint(sql: &str) -> Vec<Diagnostic> {
        let stmt = parse(sql).unwrap();
        let env = TypeEnv {
            columns: twitter_schema()
                .fields()
                .iter()
                .map(|f| (f.name.clone(), f.data_type))
                .collect(),
            aliases: Vec::new(),
            streams: vec![stmt.from.clone()],
        };
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        let keys: Vec<(String, Expr, Span)> = stmt
            .group_by
            .iter()
            .enumerate()
            .map(|(i, g)| {
                (
                    g.clone(),
                    Expr::col(g),
                    stmt.group_by_spans.get(i).copied().unwrap_or(Span::DUMMY),
                )
            })
            .collect();
        let mut diags = Vec::new();
        run(&stmt, &env, &reg, &keys, &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn w101_fires_on_constant_conjunct() {
        let d = lint("SELECT text FROM twitter WHERE 1 = 1 AND text contains 'x'");
        assert!(codes(&d).contains(&"W101"), "{d:?}");
        let d = lint("SELECT text FROM twitter WHERE text contains 'x'");
        assert!(!codes(&d).contains(&"W101"), "{d:?}");
    }

    #[test]
    fn w102_fires_when_nothing_pushes_down() {
        let d = lint("SELECT text FROM twitter WHERE followers > 1000");
        assert!(codes(&d).contains(&"W102"), "{d:?}");
        let d = lint("SELECT text FROM twitter WHERE text contains 'obama'");
        assert!(!codes(&d).contains(&"W102"), "{d:?}");
    }

    #[test]
    fn w103_fires_on_web_udf_in_where() {
        let d = lint("SELECT text FROM twitter WHERE latitude(loc) > 40.0");
        assert!(codes(&d).contains(&"W103"), "{d:?}");
        let d = lint("SELECT latitude(loc) FROM twitter WHERE text contains 'x'");
        assert!(!codes(&d).contains(&"W103"), "{d:?}");
    }

    #[test]
    fn w104_fires_on_location_group_in_time_window() {
        let d = lint("SELECT lat, count(*) FROM twitter GROUP BY lat WINDOW 1 hours");
        assert!(codes(&d).contains(&"W104"), "{d:?}");
        let d = lint("SELECT lat, count(*) FROM twitter GROUP BY lat WINDOW 100 TUPLES");
        assert!(!codes(&d).contains(&"W104"), "{d:?}");
    }

    #[test]
    fn w105_fires_on_self_join() {
        let d = lint("SELECT text FROM twitter JOIN twitter ON user_id = user_id WINDOW 1 minutes");
        assert!(codes(&d).contains(&"W105"), "{d:?}");
    }

    #[test]
    fn w106_fires_on_duplicate_names_and_shadowing() {
        let d = lint("SELECT text, text FROM twitter");
        assert!(codes(&d).contains(&"W106"), "{d:?}");
        let d = lint("SELECT floor(lat) AS lat FROM twitter");
        assert!(codes(&d).contains(&"W106"), "{d:?}");
        let d = lint("SELECT text, user_id FROM twitter");
        assert!(!codes(&d).contains(&"W106"), "{d:?}");
    }

    #[test]
    fn w107_fires_on_limited_aggregation() {
        let d =
            lint("SELECT user_id, count(*) FROM twitter GROUP BY user_id WINDOW 1 hours LIMIT 5");
        assert!(codes(&d).contains(&"W107"), "{d:?}");
        let d = lint("SELECT topk(hashtags(text), 5) FROM twitter WINDOW 1 hours LIMIT 5");
        assert!(!codes(&d).contains(&"W107"), "{d:?}");
        let d = lint("SELECT text FROM twitter LIMIT 5");
        assert!(!codes(&d).contains(&"W107"), "{d:?}");
    }

    #[test]
    fn w108_fires_on_constant_having() {
        let d = lint("SELECT count(*) FROM twitter HAVING 1 < 2");
        assert!(codes(&d).contains(&"W108"), "{d:?}");
        let d = lint("SELECT count(*) FROM twitter HAVING 2 < 1");
        assert!(codes(&d).contains(&"W108"), "{d:?}");
        let d = lint("SELECT count(*) FROM twitter HAVING count(*) > 5");
        assert!(!codes(&d).contains(&"W108"), "{d:?}");
    }

    #[test]
    fn w109_fires_on_unselected_group_key() {
        let d = lint("SELECT count(*) FROM twitter GROUP BY lang WINDOW 100 TUPLES");
        assert!(codes(&d).contains(&"W109"), "{d:?}");
        let d = lint("SELECT lang, count(*) FROM twitter GROUP BY lang WINDOW 100 TUPLES");
        assert!(!codes(&d).contains(&"W109"), "{d:?}");
        // An expression over the key exposes it too.
        let d = lint("SELECT upper(lang), count(*) FROM twitter GROUP BY lang WINDOW 100 TUPLES");
        assert!(!codes(&d).contains(&"W109"), "{d:?}");
        // Wildcards select everything.
        let d = lint("SELECT * FROM twitter GROUP BY lang WINDOW 100 TUPLES");
        assert!(!codes(&d).contains(&"W109"), "{d:?}");
    }

    #[test]
    fn clean_query_is_lint_free() {
        let d = lint("SELECT text FROM twitter WHERE text contains 'earthquake'");
        assert!(d.is_empty(), "{d:?}");
    }
}
