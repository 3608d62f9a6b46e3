//! Static analysis for TweeQL queries.
//!
//! A compiler-style semantic pass that runs between [`parse`] and
//! [`plan`](crate::plan::plan): it resolves streams and columns against
//! the [`Catalog`], infers a type for every expression, validates
//! aggregate and clause structure, and lints for streaming hazards the
//! paper's demo users hit (unpushable filters, high-latency UDFs on the
//! filter path, mis-windowed aggregations).
//!
//! Errors (`E001`…`E011`) describe queries the planner or executor
//! would reject or mis-run; [`Engine`](crate::engine::Engine) refuses
//! to plan a query with any error. Warnings (`W101`…`W109`) attach to
//! the planned query and are surfaced by the REPL and `tweeql-lint`.
//!
//! | code | meaning |
//! |------|---------|
//! | E001 | unknown stream |
//! | E002 | unknown column or stream qualifier |
//! | E003 | unknown function |
//! | E004 | wrong number of arguments |
//! | E005 | type mismatch |
//! | E006 | aggregate misuse (nesting, WHERE, bad input type) |
//! | E007 | non-boolean WHERE / HAVING |
//! | E008 | aggregate in GROUP BY |
//! | E009 | WINDOW CONFIDENCE without an AVG |
//! | E010 | invalid regular expression in MATCHES |
//! | E011 | HAVING without GROUP BY or aggregate |
//! | W101 | constant WHERE condition |
//! | W102 | filter cannot push down — full firehose scan |
//! | W103 | high-latency UDF in WHERE |
//! | W104 | location grouping under a fixed time window |
//! | W105 | self-join on the same key |
//! | W106 | duplicate / shadowing output names |
//! | W107 | LIMIT over aggregation without topk |
//! | W108 | HAVING predicate statically always true/false |
//! | W109 | GROUP BY key never selected |

pub mod diag;
pub mod lints;
pub mod sigs;
pub mod typecheck;

pub use diag::{line_col, render_all, Diagnostic, Severity};

use crate::ast::{Expr, SelectItem, SelectStmt, Span, WindowSpec};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::parser::parse;
use crate::udf::Registry;
use tweeql_model::DataType;
use typecheck::{contains_aggregate, infer, InferCtx, Mode, TypeEnv};

/// Parse and [`check`] a query string.
///
/// Returns `Err` only for parse failures; semantic problems come back
/// as the diagnostics list (possibly empty).
pub fn check_sql(
    sql: &str,
    catalog: &Catalog,
    registry: &Registry,
) -> Result<Vec<Diagnostic>, QueryError> {
    let stmt = parse(sql)?;
    Ok(check(&stmt, catalog, registry))
}

/// Analyze a parsed statement and return every finding, errors first
/// in source order.
pub fn check(stmt: &SelectStmt, catalog: &Catalog, registry: &Registry) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // E001: the FROM stream must exist; without its schema nothing else
    // can be resolved, so this is the one early return.
    let left_schema = match catalog.resolve(&stmt.from) {
        Ok(s) => s,
        Err(_) => {
            diags.push(
                Diagnostic::error(
                    "E001",
                    stmt.from_span,
                    format!("unknown stream: {}", stmt.from),
                )
                .with_help(format!(
                    "registered streams: {}",
                    catalog.names().join(", ")
                )),
            );
            return diags;
        }
    };

    // Join: right stream must exist (E001) and both join keys must name
    // real columns on their side (E002). The join output schema is the
    // planner's concat (right-side duplicates get a `_r` suffix).
    let mut schema = (*left_schema).clone();
    let mut streams = vec![stmt.from.to_lowercase()];
    if let Some(j) = &stmt.join {
        match catalog.resolve(&j.stream) {
            Ok(right) => {
                if left_schema.index_of(&j.left_col).is_none() {
                    diags.push(Diagnostic::error(
                        "E002",
                        Span::DUMMY,
                        format!("join key {} is not a column of {}", j.left_col, stmt.from),
                    ));
                }
                if right.index_of(&j.right_col).is_none() {
                    diags.push(Diagnostic::error(
                        "E002",
                        Span::DUMMY,
                        format!("join key {} is not a column of {}", j.right_col, j.stream),
                    ));
                }
                schema = schema.concat(&right);
                streams.push(j.stream.to_lowercase());
            }
            Err(_) => {
                diags.push(
                    Diagnostic::error("E001", Span::DUMMY, format!("unknown stream: {}", j.stream))
                        .with_help(format!(
                            "registered streams: {}",
                            catalog.names().join(", ")
                        )),
                );
            }
        }
    }

    let mut env = TypeEnv {
        columns: schema
            .fields()
            .iter()
            .map(|f| (f.name.clone(), f.data_type))
            .collect(),
        aliases: Vec::new(),
        streams,
    };

    // SELECT list: infer every expression (aggregates allowed), and
    // record alias types + expressions for GROUP BY / HAVING.
    let mut alias_exprs: Vec<(String, Expr)> = Vec::new();
    let mut select_has_agg = false;
    {
        let cx = InferCtx {
            env: &env,
            registry,
            clause: "SELECT",
            use_aliases: false,
        };
        let mut aliases = Vec::new();
        for item in &stmt.select {
            if let SelectItem::Expr { expr, alias } = item {
                let t = infer(expr, &cx, &mut diags, Mode::Aggregating, None);
                select_has_agg |= contains_aggregate(expr);
                if let Some(a) = alias {
                    aliases.push((a.clone(), t));
                    alias_exprs.push((a.clone(), expr.clone()));
                }
            }
        }
        env.aliases = aliases;
    }

    // WHERE: scalar context (E006 for aggregates), boolean result (E007).
    if let Some(w) = &stmt.where_clause {
        let cx = InferCtx {
            env: &env,
            registry,
            clause: "WHERE",
            use_aliases: false,
        };
        let t = infer(w, &cx, &mut diags, Mode::Scalar, None);
        if !matches!(t, DataType::Bool | DataType::Any) {
            diags.push(
                Diagnostic::error(
                    "E007",
                    w.span,
                    format!("WHERE must be a boolean condition, got {t}"),
                )
                .with_help("compare the value to something, e.g. `… > 0`"),
            );
        }
    }

    // GROUP BY: each key resolves like the planner does — a SELECT
    // alias first, then a stream column.
    let mut group_keys: Vec<(String, Expr, Span)> = Vec::new();
    for (i, g) in stmt.group_by.iter().enumerate() {
        let span = stmt.group_by_spans.get(i).copied().unwrap_or(Span::DUMMY);
        if let Some((_, e)) = alias_exprs.iter().find(|(a, _)| a == g) {
            if contains_aggregate(e) {
                diags.push(
                    Diagnostic::error(
                        "E008",
                        span,
                        format!("GROUP BY {g} must not contain aggregates"),
                    )
                    .with_help("group keys partition the input; aggregates summarize it"),
                );
            }
            group_keys.push((g.clone(), e.clone(), span));
        } else if env.columns.iter().any(|(c, _)| c == &g.to_lowercase()) {
            group_keys.push((g.clone(), Expr::col(g), span));
        } else {
            diags.push(
                Diagnostic::error("E002", span, format!("unknown column: {g}")).with_help(format!(
                    "GROUP BY takes a stream column or SELECT alias; \
                         available columns: {}",
                    schema.names().join(", ")
                )),
            );
        }
    }

    // HAVING: needs something to filter (E011), sees aliases, must be
    // boolean (E007).
    if let Some(h) = &stmt.having {
        let having_has_agg = contains_aggregate(h);
        if stmt.group_by.is_empty() && !select_has_agg && !having_has_agg {
            diags.push(
                Diagnostic::error("E011", h.span, "HAVING requires GROUP BY or an aggregate")
                    .with_help("filter plain tuples with WHERE instead"),
            );
        }
        let cx = InferCtx {
            env: &env,
            registry,
            clause: "HAVING",
            use_aliases: true,
        };
        let t = infer(h, &cx, &mut diags, Mode::Aggregating, None);
        if !matches!(t, DataType::Bool | DataType::Any) {
            diags.push(Diagnostic::error(
                "E007",
                h.span,
                format!("HAVING must be a boolean condition, got {t}"),
            ));
        }
    }

    // E009: a confidence window tracks the CI of an AVG aggregate.
    if matches!(stmt.window, Some(WindowSpec::Confidence { .. })) {
        let has_avg = stmt
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.calls_function("avg")));
        if !has_avg {
            diags.push(
                Diagnostic::error(
                    "E009",
                    stmt.window_span,
                    "WINDOW CONFIDENCE requires an AVG aggregate to track",
                )
                .with_help("add avg(…) to the SELECT list or use a time/tuple window"),
            );
        }
    }

    lints::run(stmt, &env, registry, &group_keys, &mut diags);

    // Errors before warnings, then source order, then code.
    diags.sort_by_key(|d| (!d.is_error(), d.span.is_dummy(), d.span.start, d.code));
    diags
}

// Re-exported for external tools that classify call names.
pub use typecheck::is_aggregate_name;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::VirtualClock;

    fn run(sql: &str) -> Vec<Diagnostic> {
        let catalog = Catalog::with_twitter();
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        check_sql(sql, &catalog, &reg).unwrap()
    }

    fn errors(sql: &str) -> Vec<Diagnostic> {
        run(sql).into_iter().filter(|d| d.is_error()).collect()
    }

    #[test]
    fn clean_query_checks_clean() {
        assert!(errors("SELECT text FROM twitter WHERE text contains 'obama'").is_empty());
    }

    #[test]
    fn unknown_stream_is_e001_and_stops() {
        let d = run("SELECT text FROM nostream WHERE bogus > 5");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "E001");
        assert!(d[0].help.as_ref().unwrap().contains("twitter"));
    }

    #[test]
    fn errors_sort_before_warnings() {
        // W102 (unpushable filter) + E005 (bad comparison) in one query.
        let d = run("SELECT text FROM twitter WHERE text > 5");
        assert!(d.len() >= 2, "{d:?}");
        assert_eq!(d[0].code, "E005");
        assert!(!d.last().unwrap().is_error());
    }

    #[test]
    fn group_by_alias_resolution_matches_planner() {
        // Alias to a non-aggregate expression: fine.
        let e = errors(
            "SELECT floor(lat) AS cell, count(*) FROM twitter \
             GROUP BY cell WINDOW 100 TUPLES",
        );
        assert!(e.is_empty(), "{e:?}");
        // Alias to an aggregate: E008.
        let e = errors("SELECT count(*) AS n FROM twitter GROUP BY n WINDOW 100 TUPLES");
        assert_eq!(e[0].code, "E008");
        // Neither alias nor column: E002.
        let e = errors("SELECT count(*) FROM twitter GROUP BY nope WINDOW 100 TUPLES");
        assert_eq!(e[0].code, "E002");
    }

    #[test]
    fn join_keys_are_checked() {
        let e = errors("SELECT text FROM twitter JOIN twitter ON nope = user_id WINDOW 1 minutes");
        assert_eq!(e[0].code, "E002");
        assert!(e[0].message.contains("nope"), "{}", e[0].message);
    }

    #[test]
    fn confidence_window_needs_avg() {
        let e =
            errors("SELECT count(*) FROM twitter GROUP BY lang WINDOW CONFIDENCE 0.1 MAX 1 hours");
        assert_eq!(e[0].code, "E009");
        let e = errors(
            "SELECT avg(followers) FROM twitter GROUP BY lang \
             WINDOW CONFIDENCE 0.1 MAX 1 hours",
        );
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn having_without_group_or_agg_is_e011() {
        let e = errors("SELECT text FROM twitter HAVING followers > 5");
        assert_eq!(e[0].code, "E011");
        assert!(e[0].message.contains("HAVING"));
    }
}
