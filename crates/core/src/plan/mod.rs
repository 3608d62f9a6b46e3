//! The planner: AST → logical plan → rewrite rules → physical pipeline.
//!
//! Planning is now a three-stage pipe:
//! 1. [`logical::LogicalPlan::build`] turns the checked AST into a
//!    clause-structured IR (streams/columns resolved against the
//!    [`crate::catalog::Catalog`], wildcards expanded);
//! 2. [`rules::rewrite`] runs the analysis-driven rule set — constant
//!    folding, multi-`contains` fusion, connection-filter pushdown
//!    extraction (`text contains 'kw'` → `track`, `location in [bbox]`
//!    → `locations`, `user_id = n` → `follow`; §2 "Uncertain
//!    Selectivities"), and cost-based conjunct ordering — with the
//!    [`verify::PlanVerifier`] re-checking the plan after every rule;
//! 3. lowering emits the operator pipeline, where only scan stages
//!    evaluate expressions and every other stage reads input columns:
//!    a join becomes its head stage
//!    ([`crate::exec::join::SymmetricHashJoin`], both sides fed by the
//!    one source), **async UDF calls are hoisted** into
//!    [`crate::exec::asyncop::AsyncUdfOp`] stages (calls WHERE needs
//!    run before the filter, all others after, so tuples the filter
//!    drops never cost a web-service call; §2 "High-latency
//!    Operators"), and windowed aggregation uses a canonical
//!    `[keys…, aggs…]` layout plus a post-projection restoring SELECT
//!    order. A computed aggregate key or argument, or async argument,
//!    is projected as a column by a scan stage before the stage that
//!    reads it, the WHERE fused in when nothing sits between. Every
//!    scan stage (WHERE, SELECT, HAVING, those projections) compiles
//!    into one [`crate::exec::fused::FusedScanOp`] (which re-ranks its
//!    conjuncts adaptively), or in the reference plan the interpreted
//!    operators.
//!
//! The engine and the standing-query host consume the same
//! [`PlannedQuery`]; `explain` carries one `rule <name>: …` line per
//! applied rewrite.

pub(crate) mod logical;
pub mod optimizer;
pub(crate) mod rules;
pub(crate) mod verify;

use crate::ast::{AggFunc, BinOp, Expr, ExprKind, SelectStmt, WindowSpec};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::aggregate::{AggExpr, AggregateOp, WindowPolicy};
use crate::exec::asyncop::AsyncUdfOp;
use crate::exec::filter::FilterOp;
use crate::exec::fused::FusedScanOp;
use crate::exec::join::SymmetricHashJoin;
use crate::exec::limit::LimitOp;
use crate::exec::project::ProjectOp;
use crate::exec::{Operator, Pipeline};
use crate::expr::{compile_into, CExpr, EvalCtx};
use crate::udf::Registry;
use std::sync::Arc;
use tweeql_firehose::FilterSpec;
use tweeql_model::{DataType, Duration, Field, Schema, SchemaRef, Value};

/// Join window when the query gives none.
const DEFAULT_JOIN_WINDOW: Duration = Duration::from_mins(5);

/// Planner knobs (a projection of the engine config).
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Lower the plan exactly as written, onto the interpreted
    /// operators: no rewrite rules (folding, fusion, pushdown
    /// extraction, pruning, conjunct ordering) and no compiled batch
    /// programs. The reference the optimized, compiled plans are
    /// differentially tested against. Otherwise every scan stage —
    /// WHERE, SELECT, HAVING and the projection over an aggregate —
    /// lowers into a compiled [`crate::exec::fused::FusedScanOp`],
    /// stateful UDF calls included.
    pub reference: bool,
    /// Async operator batch size (1 = unbatched).
    pub async_max_batch: usize,
    /// Max stream-time an async tuple waits for batch peers.
    pub async_max_delay: Duration,
    /// `(pushdown-candidate description, measured selectivity)` pairs
    /// from a previous execution's probe — seeds the conjunct-ordering
    /// rule for repeated/standing queries.
    pub selectivity_hints: Vec<(String, f64)>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            reference: false,
            async_max_batch: 25,
            async_max_delay: Duration::from_secs(2),
            selectivity_hints: Vec::new(),
        }
    }
}

/// A WHERE conjunct the streaming API could evaluate server-side.
#[derive(Debug, Clone)]
pub struct ApiCandidate {
    /// The API filter.
    pub spec: FilterSpec,
    /// Human-readable description for stats/EXPLAIN.
    pub description: String,
}

/// The output of planning.
pub struct PlannedQuery {
    /// The operator chain over the source rows; a join is its head.
    pub pipeline: Pipeline,
    /// Final output schema.
    pub output_schema: SchemaRef,
    /// Pushdown candidates extracted from WHERE (empty ⇒ full stream).
    pub api_candidates: Vec<ApiCandidate>,
    /// Textual plan description.
    pub explain: String,
    /// Analyzer warnings attached by [`prepare`] (empty when planning
    /// is invoked directly).
    pub warnings: Vec<crate::check::Diagnostic>,
    // The source columns the plan's expressions read (`None`: all of
    // them, a join, or the reference plan); nothing in the workspace
    // reads it. `benchmark/**` (frozen to source PRs) still reads it in
    // `ladder.rs`; it goes when a `[benchmark]` PR replaces the ladder's
    // mask rungs (ROADMAP 1(a)).
    #[doc(hidden)]
    pub live_columns: Option<Arc<[bool]>>,
    /// Optimizer notices — verifier fallbacks in release builds. The
    /// engine merges these into the run's diagnostics.
    pub notices: Vec<String>,
}

impl std::fmt::Debug for PlannedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlannedQuery {{ {} }}", self.explain.replace('\n', "; "))
    }
}

/// One hoisted async call.
struct Hoist {
    name: String,
    args: Vec<Expr>,
    col: String,
}

/// Parse `sql`, run static analysis (errors abort with the rendered
/// diagnostics), then plan; lint warnings attach to the plan. The one
/// preparation path of the engine and the standing-query host.
pub(crate) fn prepare(
    sql: &str,
    catalog: &Catalog,
    registry: &Registry,
    config: &PlanConfig,
) -> Result<PlannedQuery, QueryError> {
    let stmt = crate::parser::parse(sql)?;
    let diags = crate::check::check(&stmt, catalog, registry);
    if diags.iter().any(|d| d.is_error()) {
        let errors: Vec<_> = diags.into_iter().filter(|d| d.is_error()).collect();
        return Err(QueryError::Check(crate::check::render_all(&errors, sql)));
    }
    let mut planned = plan(&stmt, catalog, registry, config)?;
    planned.warnings = diags;
    Ok(planned)
}

/// Plan `stmt`: build the logical IR, run the verified rewrite pass,
/// and lower to the physical pipeline.
pub fn plan(
    stmt: &SelectStmt,
    catalog: &Catalog,
    registry: &Registry,
    config: &PlanConfig,
) -> Result<PlannedQuery, QueryError> {
    let lp = logical::LogicalPlan::build(stmt, catalog)?;
    let (lp, attributions, notices) = if !config.reference {
        let ctx = rules::RuleCtx {
            registry,
            hints: &config.selectivity_hints,
        };
        // Debug builds panic on a verifier violation; release builds
        // fall back to the unoptimized plan and carry a notice.
        let out = rules::rewrite(lp, &rules::standard_rules(), &ctx, cfg!(debug_assertions));
        (out.plan, out.attributions, out.notices)
    } else {
        (lp, Vec::new(), Vec::new())
    };
    lower(lp, registry, config, attributions, notices)
}

/// Lower a (possibly rewritten) logical plan to the physical pipeline.
fn lower(
    lp: logical::LogicalPlan,
    registry: &Registry,
    config: &PlanConfig,
    attributions: Vec<String>,
    notices: Vec<String>,
) -> Result<PlannedQuery, QueryError> {
    let mut explain = Vec::new();

    let mut ops: Vec<Box<dyn Operator>> = Vec::new();
    let mut working_schema = Arc::clone(&lp.schema);
    let live_columns = (!config.reference && lp.join.is_none())
        .then(|| lp.live_columns())
        .flatten()
        .map(Arc::from);

    // ---- join: the head stage, both sides over the one feed ----
    if let Some(jc) = &lp.join {
        if !jc.stream.eq_ignore_ascii_case(&lp.stream) {
            return Err(QueryError::Plan(format!(
                "{} JOIN {}: both join sides read the one connection, so a join \
                 must be a self-join",
                lp.stream, jc.stream
            )));
        }
        let window = match &lp.window {
            Some(WindowSpec::Time(d)) => *d,
            _ => DEFAULT_JOIN_WINDOW,
        };
        let key = |c: &str| {
            (lp.left_schema.index_of(c)).ok_or_else(|| QueryError::UnknownColumn(c.to_string()))
        };
        let (lk, rk) = (key(&jc.left_col)?, key(&jc.right_col)?);
        explain.push(format!(
            "join {} ⋈ {} on {} = {} within {}",
            lp.stream, jc.stream, jc.left_col, jc.right_col, window
        ));
        ops.push(Box::new(SymmetricHashJoin::new(
            lk,
            rk,
            window,
            Arc::clone(&lp.schema),
        )));
    }

    let api_candidates: Vec<ApiCandidate> = lp.candidates.iter().map(|(_, c)| c.clone()).collect();
    for c in &api_candidates {
        explain.push(format!("api candidate: {}", c.description));
    }

    // ---- hoist async UDFs ----
    let mut hoists: Vec<Hoist> = Vec::new();
    let conjuncts: Vec<Expr> = lp
        .filter
        .into_iter()
        .map(|c| rewrite_async(c, registry, &mut hoists))
        .collect();
    let where_hoists = hoists.len();

    // Rewrite SELECT items; keep the pre-hoist expression for output
    // naming (the user wrote `latitude(loc)`, not `__a0`).
    let mut select_exprs: Vec<(Expr, Expr, Option<String>)> = Vec::new();
    for s in lp.select {
        let rewritten = rewrite_async(s.expr.clone(), registry, &mut hoists);
        select_exprs.push((rewritten, s.expr, s.alias));
    }
    let output_schema = Arc::new(Schema::new(dedupe_names(
        select_exprs
            .iter()
            .enumerate()
            .map(|(i, (_, original, alias))| {
                Field::new(output_name(original, alias.as_deref(), i), DataType::Any)
            })
            .collect(),
    )));

    // HAVING: async-rewritten like SELECT items before any stage is
    // built, so its hoists land in the post-filter set, i.e. before
    // aggregation (constant folding already happened at the rule level).
    let having_expr = lp.having.map(|h| rewrite_async(h, registry, &mut hoists));
    let mut aggs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
    for e in select_exprs.iter().map(|(e, _, _)| e).chain(&having_expr) {
        collect_aggs(e, &mut aggs)?;
    }
    if having_expr.is_some() && aggs.is_empty() && lp.group_by.is_empty() {
        return Err(QueryError::Plan(
            "HAVING requires GROUP BY or an aggregate".into(),
        ));
    }

    let add_async = |h: &Hoist,
                     conjuncts: Vec<Expr>,
                     schema: &mut SchemaRef,
                     ops: &mut Vec<Box<dyn Operator>>,
                     explain: &mut Vec<String>|
     -> Result<(), QueryError> {
        let factory = registry
            .async_udf(&h.name)
            .ok_or_else(|| QueryError::UnknownFunction(h.name.clone()))?;
        let args: Vec<&Expr> = h.args.iter().collect();
        let cols = columns_for(
            &args, true, conjuncts, schema, ops, registry, config, explain,
        )?;
        let mut fields: Vec<Field> = schema.fields().to_vec();
        fields.push(Field::new(h.col.clone(), DataType::Any));
        let out_schema = Arc::new(Schema::new(fields));
        ops.push(Box::new(AsyncUdfOp::new(
            factory(),
            cols,
            out_schema.clone(),
            config.async_max_batch,
            config.async_max_delay,
        )));
        explain.push(format!(
            "async {}(…) → {} (batch ≤ {})",
            h.name, h.col, config.async_max_batch
        ));
        *schema = out_schema;
        Ok(())
    };

    // Async calls WHERE needs, then the filter, then the rest. The
    // filter waits to fuse into the next scan stage built, and runs as
    // its own stage when a stage that reads columns comes first.
    // Conjunct order is already final: the ordering rule ran at the
    // logical level.
    for h in &hoists[..where_hoists] {
        add_async(h, Vec::new(), &mut working_schema, &mut ops, &mut explain)?;
    }
    let mut deferred = conjuncts;
    for h in &hoists[where_hoists..] {
        let conjuncts = std::mem::take(&mut deferred);
        add_async(h, conjuncts, &mut working_schema, &mut ops, &mut explain)?;
    }

    if !aggs.is_empty() || !lp.group_by.is_empty() {
        // Group keys: aliases resolve to their select expressions.
        let mut keys: Vec<(Expr, String)> = Vec::new();
        for g in &lp.group_by {
            let e = select_exprs
                .iter()
                .find(|(_, _, a)| a.as_deref() == Some(g.as_str()))
                .map_or_else(|| Expr::col(g), |(e, _, _)| e.clone());
            if has_agg(&e) {
                return Err(QueryError::Plan(format!(
                    "GROUP BY {g} must not contain aggregates"
                )));
            }
            keys.push((e, g.clone()));
        }

        // Canonical agg schema: [keys…, agg0…].
        let mut fields: Vec<Field> = keys
            .iter()
            .map(|(_, n)| Field::new(n.clone(), DataType::Any))
            .collect();
        for (i, _) in aggs.iter().enumerate() {
            fields.push(Field::new(format!("agg{i}"), DataType::Any));
        }
        let agg_schema = Arc::new(Schema::new(fields));

        let policy = window_policy(&lp.window, lp.join.is_some());
        let confidence_target = if let WindowPolicy::Confidence { .. } = policy {
            match aggs.iter().position(|(f, _)| *f == AggFunc::Avg) {
                Some(i) => i,
                None => {
                    return Err(QueryError::Plan(
                        "WINDOW CONFIDENCE requires an AVG aggregate to track".into(),
                    ))
                }
            }
        } else {
            0
        };

        // The aggregate reads its keys and arguments as columns.
        let inputs: Vec<&Expr> = (keys.iter().map(|(k, _)| k))
            .chain(aggs.iter().filter_map(|(_, a)| a.as_ref()))
            .collect();
        let mut cols = columns_for(
            &inputs,
            false,
            deferred,
            &mut working_schema,
            &mut ops,
            registry,
            config,
            &mut explain,
        )?
        .into_iter();
        let ckeys: Vec<usize> = cols.by_ref().take(keys.len()).collect();
        let cags = (aggs.iter())
            .map(|(func, arg)| AggExpr {
                func: *func,
                arg: arg.as_ref().and_then(|_| cols.next()),
            })
            .collect();
        explain.push(format!(
            "aggregate [{}] by [{}] window {:?}",
            aggs.iter()
                .map(|(f, _)| f.name())
                .collect::<Vec<_>>()
                .join(", "),
            lp.group_by.join(", "),
            policy,
        ));
        ops.push(Box::new(
            AggregateOp::new(
                ckeys,
                cags,
                policy,
                &working_schema,
                agg_schema.clone(),
                confidence_target,
            )
            .columnar(!config.reference),
        ));

        // HAVING filters aggregate output before the final projection.
        let ungrouped = |what: &'static str| {
            move |err| match err {
                QueryError::UnknownColumn(c) => QueryError::Plan(format!(
                    "{what} {c} must appear in GROUP BY or inside an aggregate"
                )),
                other => other,
            }
        };
        if let Some(h) = having_expr {
            let mapped = onto_agg_schema(h, &keys, &aggs);
            ops.extend(
                scan(
                    &[mapped],
                    None,
                    &agg_schema,
                    "having",
                    registry,
                    config,
                    &mut explain,
                )
                .map_err(ungrouped("HAVING column"))?,
            );
        }

        // Post-projection back to SELECT order.
        let pexprs: Vec<Expr> = select_exprs
            .into_iter()
            .map(|(e, _, _)| onto_agg_schema(e, &keys, &aggs))
            .collect();
        ops.extend(
            scan(
                &[],
                Some((&pexprs, output_schema.clone())),
                &agg_schema,
                "where",
                registry,
                config,
                &mut explain,
            )
            .map_err(ungrouped("column"))?,
        );
    } else {
        // The projection, with the WHERE fused in.
        let pexprs: Vec<Expr> = select_exprs.into_iter().map(|(e, _, _)| e).collect();
        ops.extend(scan(
            &deferred,
            Some((&pexprs, output_schema.clone())),
            &working_schema,
            "where",
            registry,
            config,
            &mut explain,
        )?);
    }

    if let Some(n) = lp.limit {
        explain.push(format!("limit {n}"));
        ops.push(Box::new(LimitOp::new(n, output_schema.clone())));
    }

    // Per-rule attribution lines close the plan description.
    explain.extend(attributions);

    Ok(PlannedQuery {
        pipeline: Pipeline::new(ops),
        output_schema,
        api_candidates,
        explain: explain.join("\n"),
        warnings: Vec::new(),
        live_columns,
        notices,
    })
}

fn window_policy(spec: &Option<WindowSpec>, is_join: bool) -> WindowPolicy {
    match spec {
        None => WindowPolicy::Unbounded,
        // For a join query, the time window configured the join itself.
        Some(WindowSpec::Time(_)) if is_join => WindowPolicy::Unbounded,
        Some(WindowSpec::Time(d)) => WindowPolicy::Time(*d),
        Some(WindowSpec::Count(n)) => WindowPolicy::Count(*n),
        Some(WindowSpec::Confidence { epsilon, max_age }) => WindowPolicy::Confidence {
            epsilon: *epsilon,
            max_age: *max_age,
        },
        Some(WindowSpec::Sliding { size, slide }) => WindowPolicy::Sliding {
            size: *size,
            slide: *slide,
        },
    }
}

/// Pull `track` / `locations` / `follow` candidates out of conjuncts.
pub(crate) fn extract_api_candidates(conjuncts: &[Expr]) -> Vec<ApiCandidate> {
    let mut out = Vec::new();
    for c in conjuncts {
        if let Some(kws) = as_track_keywords(c) {
            out.push(ApiCandidate {
                description: format!("track({})", kws.join(", ")),
                spec: FilterSpec::Track(kws),
            });
            continue;
        }
        if let ExprKind::InBoundingBox { bbox, name } = &c.kind {
            out.push(ApiCandidate {
                description: format!("locations({name})"),
                spec: FilterSpec::Locations(*bbox),
            });
            continue;
        }
        if let Some(ids) = as_follow_ids(c) {
            out.push(ApiCandidate {
                description: format!("follow({} users)", ids.len()),
                spec: FilterSpec::Follow(ids),
            });
        }
    }
    out
}

/// `text contains 'kw'`, or an OR-tree of them, as track keywords.
fn as_track_keywords(e: &Expr) -> Option<Vec<String>> {
    match &e.kind {
        ExprKind::Contains { expr, pattern } => match (&expr.kind, &pattern.kind) {
            (ExprKind::Column { name, .. }, ExprKind::Literal(Value::Str(s)))
                if name == "text" && !s.is_empty() =>
            {
                Some(vec![s.to_string()])
            }
            _ => None,
        },
        ExprKind::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let mut l = as_track_keywords(left)?;
            let r = as_track_keywords(right)?;
            l.extend(r);
            Some(l)
        }
        _ => None,
    }
}

/// `user_id = n` or `user_id in (…)` as follow ids.
fn as_follow_ids(e: &Expr) -> Option<Vec<u64>> {
    match &e.kind {
        ExprKind::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&left.kind, &right.kind) {
            (ExprKind::Column { name, .. }, ExprKind::Literal(Value::Int(id)))
            | (ExprKind::Literal(Value::Int(id)), ExprKind::Column { name, .. })
                if name == "user_id" && *id >= 0 =>
            {
                Some(vec![*id as u64])
            }
            _ => None,
        },
        ExprKind::InList { expr, list } => match &expr.kind {
            ExprKind::Column { name, .. } if name == "user_id" => {
                let ids: Option<Vec<u64>> = list
                    .iter()
                    .map(|v| v.as_int().ok().filter(|i| *i >= 0).map(|i| i as u64))
                    .collect();
                ids
            }
            _ => None,
        },
        _ => None,
    }
}

/// One scan stage over `input`: keep the rows every conjunct holds for,
/// then map each survivor through `project` when given. The reference
/// plan lowers it onto the interpreted [`FilterOp`] and [`ProjectOp`];
/// every other plan onto one compiled [`FusedScanOp`].
fn scan(
    conjuncts: &[Expr],
    project: Option<(&[Expr], SchemaRef)>,
    input: &SchemaRef,
    filter_label: &str,
    registry: &Registry,
    config: &PlanConfig,
    explain: &mut Vec<String>,
) -> Result<Vec<Box<dyn Operator>>, QueryError> {
    let compile_all = |exprs: &[Expr], ctx: &mut EvalCtx| -> Result<Vec<CExpr>, QueryError> {
        exprs
            .iter()
            .map(|e| compile_into(e, input, registry, ctx))
            .collect()
    };
    let n = conjuncts.len();
    if config.reference {
        let mut ops: Vec<Box<dyn Operator>> = Vec::new();
        if n > 0 {
            let mut ctx = EvalCtx::default();
            let pred = compile_into(
                &Expr::and_all(conjuncts.to_vec()),
                input,
                registry,
                &mut ctx,
            )?;
            explain.push(format!(
                "interpreted {filter_label} filter, {n} conjunct(s)"
            ));
            ops.push(Box::new(
                FilterOp::new(pred, ctx, input.clone()).with_label(filter_label),
            ));
        }
        if let Some((exprs, schema)) = project {
            let mut ctx = EvalCtx::default();
            let cols = compile_all(exprs, &mut ctx)?;
            explain.push(format!("interpreted project {} columns", schema.len()));
            ops.push(Box::new(ProjectOp::new(cols, ctx, schema)));
        }
        return Ok(ops);
    }
    // A WHERE with a stateful call lowers as one program: its AND masks
    // call it on exactly the rows the interpreter's short-circuit does
    // (NULL on the left included), and a single conjunct never re-ranks.
    let joined;
    let conjuncts = if n > 1 && conjuncts.iter().any(|c| calls_stateful(c, registry)) {
        joined = [Expr::and_all(conjuncts.to_vec())];
        &joined[..]
    } else {
        conjuncts
    };
    let n = conjuncts.len();
    let mut ctx = EvalCtx::default();
    let cwhere = compile_all(conjuncts, &mut ctx)?;
    let cproject = match &project {
        Some((exprs, _)) => compile_all(exprs, &mut ctx)?,
        None => Vec::new(),
    };
    let (label, line) = match &project {
        None => (
            filter_label,
            format!("compiled {filter_label} filter, {n} conjunct(s)"),
        ),
        Some((_, schema)) if n == 0 => (
            "project",
            format!("compiled project {} columns", schema.len()),
        ),
        Some((_, schema)) => (
            "where+project",
            format!(
                "compiled fused where+project ({n} conjuncts, {} columns)",
                schema.len()
            ),
        ),
    };
    explain.push(line);
    let project = project.map(|(_, schema)| (&cproject[..], schema));
    let op = FusedScanOp::new(&cwhere, project, ctx, input.clone(), label)?;
    Ok(vec![Box::new(op)])
}

/// The columns of `*schema` holding `exprs`, in order. Plain columns
/// are read where they are. When any expression is computed, one scan
/// stage projects the distinct expressions — after `*schema`'s own
/// columns when `append` is set, where a plain column stays — and
/// `*schema` becomes its output. The deferred WHERE `conjuncts` fuse
/// into that stage, or run as their own when none is built.
#[allow(clippy::too_many_arguments)]
fn columns_for(
    exprs: &[&Expr],
    append: bool,
    conjuncts: Vec<Expr>,
    schema: &mut SchemaRef,
    ops: &mut Vec<Box<dyn Operator>>,
    registry: &Registry,
    config: &PlanConfig,
    explain: &mut Vec<String>,
) -> Result<Vec<usize>, QueryError> {
    let input = schema.clone();
    let plain = |e: &Expr| match &e.kind {
        ExprKind::Column { name, .. } => input.index_of(name),
        _ => None,
    };
    let mut project: Option<Vec<Expr>> = None;
    let cols = match exprs
        .iter()
        .map(|e| plain(e))
        .collect::<Option<Vec<usize>>>()
    {
        Some(cols) => cols,
        None => {
            let mut fields = if append {
                input.fields().to_vec()
            } else {
                Vec::new()
            };
            let base = fields.len();
            let out = project.insert(fields.iter().map(|f| Expr::col(&f.name)).collect());
            let mut cols = Vec::with_capacity(exprs.len());
            for &e in exprs {
                cols.push(match plain(e).filter(|_| append) {
                    Some(c) => c,
                    None => match out[base..].iter().position(|p| p == e) {
                        Some(i) => base + i,
                        None => {
                            out.push(e.clone());
                            out.len() - 1
                        }
                    },
                });
            }
            fields.extend((base..out.len()).map(|i| Field::new(format!("__c{i}"), DataType::Any)));
            *schema = Arc::new(Schema::new(fields));
            cols
        }
    };
    if project.is_some() || !conjuncts.is_empty() {
        let project = project.as_deref().map(|p| (p, schema.clone()));
        ops.extend(scan(
            &conjuncts, project, &input, "where", registry, config, explain,
        )?);
    }
    Ok(cols)
}

/// Replace async UDF calls with hoisted columns, innermost first, so
/// identical calls share one hoist.
fn rewrite_async(expr: Expr, registry: &Registry, hoists: &mut Vec<Hoist>) -> Expr {
    let e = expr.map_children(|c| rewrite_async(c, registry, hoists));
    match e.kind {
        ExprKind::Call { name, args } if registry.async_udf(&name).is_some() => {
            let col = match hoists.iter().find(|h| h.name == name && h.args == args) {
                Some(h) => h.col.clone(),
                None => {
                    let col = format!("__a{}", hoists.len());
                    hoists.push(Hoist {
                        name,
                        args,
                        col: col.clone(),
                    });
                    col
                }
            };
            Expr::col(&col).with_span(e.span)
        }
        kind => Expr::new(kind, e.span),
    }
}

/// The aggregate `e` calls at its root, if any, handling `topk(expr,
/// k)`'s extra literal argument.
fn agg_of(e: &Expr) -> Option<(AggFunc, Option<Expr>)> {
    let ExprKind::Call { name, args } = &e.kind else {
        return None;
    };
    if name == "topk" {
        let k = match args.get(1).map(|a| &a.kind) {
            Some(ExprKind::Literal(v)) => v.as_int().ok().filter(|k| *k > 0)? as u32,
            _ => return None,
        };
        return Some((AggFunc::TopK(k), args.first().cloned()));
    }
    AggFunc::from_name(name).map(|f| (f, args.first().cloned()))
}

fn has_agg(e: &Expr) -> bool {
    e.any(|n| agg_of(n).is_some())
}

/// Does `e` call a stateful UDF anywhere? Such a call's results depend
/// on which rows reach it.
pub(crate) fn calls_stateful(e: &Expr, registry: &Registry) -> bool {
    e.any(|n| matches!(&n.kind, ExprKind::Call { name, .. } if registry.stateful(name).is_some()))
}

/// Collect aggregate calls (deduplicated, first-seen order); error on
/// nesting.
fn collect_aggs(e: &Expr, out: &mut Vec<(AggFunc, Option<Expr>)>) -> Result<(), QueryError> {
    let mut nested = None;
    e.walk(&mut |n| {
        let Some(agg) = agg_of(n) else {
            return;
        };
        if agg.1.as_ref().is_some_and(has_agg) {
            nested.get_or_insert(agg.0.name());
        }
        if !out.contains(&agg) {
            out.push(agg);
        }
    });
    match nested {
        Some(f) => Err(QueryError::Plan(format!("nested aggregate inside {f}()"))),
        None => Ok(()),
    }
}

/// Map `e` onto the aggregate's `[keys…, agg0…]` output, top-down: a
/// GROUP BY key expression or an aggregate call becomes its column
/// before any part of it can, so the largest matching subtree wins.
fn onto_agg_schema(e: Expr, keys: &[(Expr, String)], aggs: &[(AggFunc, Option<Expr>)]) -> Expr {
    if let Some((_, name)) = keys.iter().find(|(k, _)| *k == e) {
        return Expr::col(name).with_span(e.span);
    }
    if let Some(i) = agg_of(&e).and_then(|a| aggs.iter().position(|b| *b == a)) {
        return Expr::col(&format!("agg{i}")).with_span(e.span);
    }
    e.map_children(|c| onto_agg_schema(c, keys, aggs))
}

/// Derive an output column name.
pub(crate) fn output_name(e: &Expr, alias: Option<&str>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match &e.kind {
        ExprKind::Column { name, .. } => {
            if name.starts_with("__") {
                format!("col{idx}")
            } else {
                name.clone()
            }
        }
        ExprKind::Call { name, .. } => name.clone(),
        ExprKind::Contains { .. } => "contains".to_string(),
        ExprKind::Matches { .. } => "matches".to_string(),
        _ => format!("col{idx}"),
    }
}

/// Suffix duplicate output names (`text`, `text_2`, …).
fn dedupe_names(fields: Vec<Field>) -> Vec<Field> {
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    fields
        .into_iter()
        .map(|f| {
            let n = seen.entry(f.name.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                f
            } else {
                Field::new(format!("{}_{}", f.name, n), f.data_type)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::VirtualClock;

    fn setup() -> (Catalog, Registry, PlanConfig) {
        (
            Catalog::with_twitter(),
            Registry::standard(&ServiceConfig::default(), VirtualClock::new()),
            PlanConfig::default(),
        )
    }

    fn plan_sql(sql: &str) -> PlannedQuery {
        let (c, r, cfg) = setup();
        plan(&parse(sql).unwrap(), &c, &r, &cfg).unwrap()
    }

    #[test]
    fn simple_projection_plan() {
        let p = plan_sql("SELECT text, followers FROM twitter WHERE text contains 'obama'");
        assert_eq!(p.output_schema.names(), vec!["text", "followers"]);
        assert_eq!(p.api_candidates.len(), 1);
        assert!(p.api_candidates[0].description.contains("track"));
        // filter + project fuse into one compiled scan
        assert_eq!(p.pipeline.len(), 1, "{}", p.explain);
        assert!(p.explain.contains("where+project"), "{}", p.explain);
    }

    #[test]
    fn paper_query_one_hoists_two_async_calls_after_filter() {
        let p = plan_sql(
            "SELECT sentiment(text), latitude(loc), longitude(loc) \
             FROM twitter WHERE text contains 'obama'",
        );
        // filter, async lat, async lon, project.
        assert_eq!(p.pipeline.len(), 4, "{}", p.explain);
        assert!(p.explain.contains("async latitude"));
        assert!(p.explain.contains("async longitude"));
        // The filter stage must run before the async stages.
        let stages: Vec<String> = p
            .pipeline
            .stage_stats()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(stages[0], "where");
        assert!(stages[1].starts_with("async:"));
        assert_eq!(
            p.output_schema.names(),
            vec!["sentiment", "latitude", "longitude"]
        );
    }

    #[test]
    fn async_in_where_runs_before_filter() {
        let p = plan_sql("SELECT text FROM twitter WHERE latitude(loc) > 40");
        let stages: Vec<String> = p
            .pipeline
            .stage_stats()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert!(stages[0].starts_with("async:latitude"), "{stages:?}");
        assert!(stages[1].starts_with("where"), "{stages:?}");
    }

    #[test]
    fn duplicate_async_calls_are_shared() {
        let p = plan_sql("SELECT latitude(loc), latitude(loc) + 1 FROM twitter");
        // One async op, one project.
        assert_eq!(p.pipeline.len(), 2, "{}", p.explain);
    }

    #[test]
    fn paper_query_three_aggregate_plan() {
        let p = plan_sql(
            "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, \
             floor(longitude(loc)) AS long \
             FROM twitter WHERE text contains 'obama' \
             GROUP BY lat, long WINDOW 3 hours",
        );
        assert_eq!(p.output_schema.names(), vec!["avg", "lat", "long"]);
        assert!(p.explain.contains("aggregate"));
        assert!(p.explain.contains("Time"));
        // The computed key and argument are projected for the aggregate
        // to read as columns.
        assert_eq!(
            stages(&p),
            [
                "where",
                "async:latitude",
                "async:longitude",
                "project",
                "aggregate",
                "project"
            ],
            "{}",
            p.explain
        );
        assert!(
            p.explain.contains("compiled project 3 columns"),
            "{}",
            p.explain
        );
    }

    #[test]
    fn group_by_non_grouped_column_rejected() {
        let (c, r, cfg) = setup();
        let stmt = parse("SELECT text, count(*) FROM twitter GROUP BY lang").unwrap();
        let err = plan(&stmt, &c, &r, &cfg).unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn confidence_window_requires_avg() {
        let (c, r, cfg) = setup();
        let stmt =
            parse("SELECT count(*) FROM twitter GROUP BY lang WINDOW CONFIDENCE 0.1").unwrap();
        let err = plan(&stmt, &c, &r, &cfg).unwrap_err();
        assert!(err.to_string().contains("AVG"), "{err}");
    }

    #[test]
    fn or_of_contains_becomes_multi_keyword_track() {
        let p = plan_sql(
            "SELECT text FROM twitter WHERE \
             (text contains 'soccer' OR text contains 'football') \
             AND location in [bounding box for london]",
        );
        assert_eq!(p.api_candidates.len(), 2, "{:#?}", p.api_candidates);
        assert!(p.api_candidates[0].description.contains("soccer, football"));
        assert!(p.api_candidates[1].description.contains("london"));
    }

    #[test]
    fn follow_candidate_extracted() {
        let p = plan_sql("SELECT text FROM twitter WHERE user_id = 42");
        assert_eq!(p.api_candidates.len(), 1);
        assert!(matches!(
            p.api_candidates[0].spec,
            FilterSpec::Follow(ref ids) if ids == &vec![42]
        ));
        let p = plan_sql("SELECT text FROM twitter WHERE user_id in (1, 2, 3)");
        assert!(matches!(
            p.api_candidates[0].spec,
            FilterSpec::Follow(ref ids) if ids.len() == 3
        ));
    }

    #[test]
    fn wildcard_expands_without_internal_columns() {
        let p = plan_sql("SELECT * FROM twitter");
        assert!(p.output_schema.names().contains(&"text"));
        assert!(p.output_schema.names().iter().all(|n| !n.starts_with("__")));
    }

    #[test]
    fn join_is_the_head_stage() {
        let p = plan_sql(
            "SELECT text FROM twitter JOIN twitter ON screen_name = screen_name \
             WINDOW 5 minutes",
        );
        let stages: Vec<String> = p
            .pipeline
            .stage_stats()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(stages[0], "join", "{}", p.explain);
        assert!(p.api_candidates.is_empty(), "no pushdown for joins");
    }

    #[test]
    fn join_of_two_streams_is_refused() {
        let (mut c, r, cfg) = setup();
        c.register("news", Schema::shared(&[("screen_name", DataType::Str)]));
        let stmt = parse(
            "SELECT text FROM twitter JOIN news ON screen_name = screen_name WINDOW 5 minutes",
        )
        .unwrap();
        let err = plan(&stmt, &c, &r, &cfg).unwrap_err();
        assert!(matches!(err, QueryError::Plan(_)), "{err}");
    }

    #[test]
    fn join_liveness_skipped_in_the_reference_plan() {
        let (c, r, mut cfg) = setup();
        cfg.reference = true;
        let stmt = parse(
            "SELECT text FROM twitter JOIN twitter ON screen_name = screen_name \
             WINDOW 5 minutes",
        )
        .unwrap();
        assert!(plan(&stmt, &c, &r, &cfg).unwrap().live_columns.is_none());
    }

    #[test]
    fn nested_aggregate_rejected() {
        let (c, r, cfg) = setup();
        let stmt = parse("SELECT avg(sum(followers)) FROM twitter").unwrap();
        assert!(plan(&stmt, &c, &r, &cfg).is_err());
    }

    #[test]
    fn duplicate_output_names_suffixed() {
        let p = plan_sql("SELECT text, text FROM twitter");
        assert_eq!(p.output_schema.names(), vec!["text", "text_2"]);
    }

    #[test]
    fn unknown_stream_errors() {
        let (c, r, cfg) = setup();
        let stmt = parse("SELECT x FROM nostream").unwrap();
        assert!(matches!(
            plan(&stmt, &c, &r, &cfg),
            Err(QueryError::UnknownStream(_))
        ));
    }

    #[test]
    fn explain_carries_rule_attribution() {
        let p = plan_sql("SELECT text FROM twitter WHERE 1 = 1 AND text contains 'obama'");
        assert!(p.explain.contains("rule fold-constants:"), "{}", p.explain);
        assert!(p.explain.contains("rule pushdown-filter:"), "{}", p.explain);
    }

    #[test]
    fn narrow_projection_records_live_columns() {
        let p = plan_sql("SELECT lang, followers FROM twitter WHERE text contains 'obama'");
        let live = p.live_columns.as_ref().expect("narrow query prunes decode");
        // text (WHERE), lang, followers.
        assert_eq!(live.iter().filter(|l| **l).count(), 3);
        let p = plan_sql("SELECT * FROM twitter");
        assert!(p.live_columns.is_none(), "wildcard reads everything");
    }

    /// A fast plan's scan head takes the batch but builds no column:
    /// every read, a `contains` included, takes the value from the
    /// tweet, so a column built for it would go unread.
    #[test]
    fn scan_head_asks_only_for_the_columns_a_contains_reads() {
        let tweets: Vec<_> = (0..8u64)
            .map(|i| tweeql_model::Tweet::builder(i, format!("x {i}")).build())
            .collect();
        let export = "SELECT screen_name, text, lang, followers, created_at FROM twitter";
        for filter in ["", " WHERE text contains 'x'", " WHERE followers > 10000"] {
            let mut p = plan_sql(&format!("{export}{filter}"));
            let mut batch = tweeql_model::TweetBatch::new();
            tweets.iter().for_each(|t| batch.push(t.clone()));
            let all: Vec<u32> = (0..batch.len() as u32).collect();
            let mut out = tweeql_model::RowBatch::new(p.output_schema.clone());
            p.pipeline.push_tweet_batch(&batch, &all, &mut out).unwrap();
            assert!(p.explain.contains("compiled"), "a fast plan: {}", p.explain);
            let built = batch.decode_stats().columns_materialized;
            assert_eq!(built, 0, "{filter}: {}", p.explain);
        }
    }

    #[test]
    fn reference_lowers_plan_as_written_onto_the_interpreter() {
        let (c, r, mut cfg) = setup();
        cfg.reference = true;
        let stmt = parse("SELECT text FROM twitter WHERE 1 = 1 AND text contains 'obama'").unwrap();
        let p = plan(&stmt, &c, &r, &cfg).unwrap();
        assert!(p.live_columns.is_none());
        assert!(p.api_candidates.is_empty(), "pushdown extraction is a rule");
        assert!(!p.explain.contains("rule "), "{}", p.explain);
        assert!(!p.explain.contains("compiled"), "{}", p.explain);
    }

    fn stages(p: &PlannedQuery) -> Vec<String> {
        p.pipeline
            .stage_stats()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    /// HAVING and the projection over an aggregate keep the reference
    /// plan's stages, compiled; a stateful call lets WHERE fuse with
    /// the projection like any other. A computed aggregate key or
    /// argument, or async argument, is projected as a column by a scan
    /// stage before the stage that reads it, with the WHERE fused in
    /// when nothing sits between; plain columns add no stage.
    #[test]
    fn every_scan_stage_compiles_under_its_reference_name() {
        struct Counter;
        impl crate::udf::StatefulUdf for Counter {
            fn call(
                &mut self,
                _: &[Value],
                _: tweeql_model::Timestamp,
            ) -> Result<Value, QueryError> {
                Ok(Value::Null)
            }
        }
        let (c, mut r, cfg) = setup();
        r.register_stateful("counter", Arc::new(|| Box::new(Counter)));
        let reference = PlanConfig {
            reference: true,
            ..PlanConfig::default()
        };
        for (sql, fast, interpreted) in [
            (
                "SELECT lang, count(*) + 1 AS n FROM twitter GROUP BY lang \
                 HAVING count(*) > 1 WINDOW 1 minutes",
                &["aggregate", "having", "project"][..],
                &["aggregate", "having", "project"][..],
            ),
            (
                "SELECT counter(followers) AS k FROM twitter WHERE followers > 1",
                &["where+project"],
                &["where", "project"],
            ),
            (
                "SELECT lang, count(*) FROM twitter WHERE followers > 1 GROUP BY lang",
                &["where", "aggregate", "project"],
                &["where", "aggregate", "project"],
            ),
            (
                "SELECT upper(lang) AS l, avg(followers + 1) FROM twitter \
                 WHERE followers > 1 GROUP BY l",
                &["where+project", "aggregate", "project"],
                &["where", "project", "aggregate", "project"],
            ),
            (
                "SELECT avg(latitude(loc) + 1) FROM twitter WHERE followers > 1",
                &["where", "async:latitude", "project", "aggregate", "project"],
                &["where", "async:latitude", "project", "aggregate", "project"],
            ),
            (
                "SELECT latitude(loc) FROM twitter WHERE followers > 1",
                &["where", "async:latitude", "project"],
                &["where", "async:latitude", "project"],
            ),
            (
                "SELECT latitude(lower(loc)) FROM twitter WHERE followers > 1",
                &["where+project", "async:latitude", "project"],
                &["where", "project", "async:latitude", "project"],
            ),
        ] {
            let stmt = parse(sql).unwrap();
            let p = plan(&stmt, &c, &r, &cfg).unwrap();
            assert_eq!(stages(&p), fast, "{}", p.explain);
            assert!(!p.explain.contains("interpreted"), "{}", p.explain);
            let p = plan(&stmt, &c, &r, &reference).unwrap();
            assert_eq!(stages(&p), interpreted, "{}", p.explain);
            assert!(!p.explain.contains("compiled"), "{}", p.explain);
        }
        // A WHERE with a stateful call is one program (so one conjunct,
        // never re-ranked); without one it keeps a conjunct each.
        for (sql, line) in [
            (
                "SELECT text FROM twitter WHERE followers > 1 AND counter(followers) > 0 \
                 AND lang = 'en'",
                "where+project (1 conjuncts",
            ),
            (
                "SELECT text FROM twitter WHERE followers > 1 AND lang = 'en'",
                "where+project (2 conjuncts",
            ),
        ] {
            let p = plan(&parse(sql).unwrap(), &c, &r, &cfg).unwrap();
            assert!(p.explain.contains(line), "{}", p.explain);
        }
    }

    #[test]
    fn limit_stage_appended() {
        let p = plan_sql("SELECT text FROM twitter LIMIT 3");
        let stages: Vec<String> = p
            .pipeline
            .stage_stats()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(stages.last().unwrap(), "limit");
    }
}
