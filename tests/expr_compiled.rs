//! Differential tests for the compiled expression pipeline: the
//! register-program VM ([`BatchVm`]) must agree with the interpreted
//! tree-walk (`CExpr::eval`) — the reference implementation — on
//! randomly generated expressions and records, including NULLs,
//! non-ASCII text, empty needles, and error cases. A second suite runs
//! whole queries through the default engine (compiled) and the
//! interpreting reference configuration (`EngineBuilder::reference`),
//! clean and under fault injection: WHERE, SELECT, HAVING and the
//! projection over an aggregate, stateful UDF calls in each of them
//! included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use tweeql::engine::{Engine, EngineBuilder, QueryResult};
use tweeql::error::QueryError;
use tweeql::expr::{compile_into, BatchVm, CExpr, EvalCtx, ExprProgram};
use tweeql::parser::parse_expr;
use tweeql::udf::{Registry, ServiceConfig, StatefulUdf};
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::StreamingApi;
use tweeql_model::{
    DataType, Duration, Record, Schema, SchemaRef, Timestamp, Tweet, Value, VirtualClock,
};

// ---- random expression generation ----

fn schema() -> SchemaRef {
    Schema::shared(&[
        ("t", DataType::Str),
        ("u", DataType::Str),
        ("n", DataType::Int),
        ("m", DataType::Int),
        ("f", DataType::Float),
        ("b", DataType::Bool),
    ])
}

/// String pool with ASCII, case-folding edge cases (Kelvin sign K,
/// dotted İ), multibyte text, and the empty string.
const STRINGS: &[&str] = &[
    "",
    "kw",
    "KW spotted HERE",
    "the Kelvin K sign",
    "İstanbul is not istanbul",
    "mixed ÅçÉ content",
    "aaaaaaab",
    "OBAMA gave a SPEECH",
    "ħĸ æß",
    "plain ascii words only",
];

/// Needle pool (literal `contains` patterns), including empty and
/// non-ASCII needles.
const NEEDLES: &[&str] = &["kw", "K", "i", "speech", "", "Åç", "aab", "zzz"];

fn atom(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..10) {
        0 => "t".into(),
        1 => "u".into(),
        2 => "n".into(),
        3 => "m".into(),
        4 => "f".into(),
        5 => "b".into(),
        6 => format!("{}", rng.random_range(-20i64..20)),
        7 => format!("{:.2}", rng.random_range(-5.0f64..5.0)),
        8 => format!("'{}'", NEEDLES[rng.random_range(0usize..NEEDLES.len())]),
        _ => "0".into(),
    }
}

fn gen_expr(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 {
        return atom(rng);
    }
    match rng.random_range(0u32..13) {
        0..=2 => {
            let op = ["+", "-", "*", "/"][rng.random_range(0usize..4)];
            format!(
                "({} {} {})",
                gen_expr(rng, depth - 1),
                op,
                gen_expr(rng, depth - 1)
            )
        }
        3..=5 => {
            let op = [">", ">=", "<", "<=", "=", "!="][rng.random_range(0usize..6)];
            format!(
                "({} {} {})",
                gen_expr(rng, depth - 1),
                op,
                gen_expr(rng, depth - 1)
            )
        }
        6 | 7 => {
            let op = ["and", "or"][rng.random_range(0usize..2)];
            format!(
                "({} {} {})",
                gen_expr(rng, depth - 1),
                op,
                gen_expr(rng, depth - 1)
            )
        }
        8 => format!("(not {})", gen_expr(rng, depth - 1)),
        9 => {
            let col = ["t", "u"][rng.random_range(0usize..2)];
            let needle = NEEDLES[rng.random_range(0usize..NEEDLES.len())];
            format!("({col} contains '{needle}')")
        }
        10 => {
            // Dynamic needle: one string column inside another.
            let a = ["t", "u"][rng.random_range(0usize..2)];
            let b = ["t", "u"][rng.random_range(0usize..2)];
            format!("({a} contains {b})")
        }
        11 => {
            let neg = if rng.random_bool(0.5) { " not" } else { "" };
            format!("({} is{} null)", gen_expr(rng, depth - 1), neg)
        }
        _ => {
            // OR-of-contains on one column: the multi-needle fusion path.
            let col = ["t", "u"][rng.random_range(0usize..2)];
            let k = rng.random_range(2usize..4);
            let parts: Vec<String> = (0..k)
                .map(|_| {
                    let ndl = NEEDLES[rng.random_range(0usize..NEEDLES.len())];
                    format!("{col} contains '{ndl}'")
                })
                .collect();
            format!("({})", parts.join(" or "))
        }
    }
}

fn random_value(rng: &mut StdRng, ty: DataType) -> Value {
    if rng.random_bool(0.15) {
        return Value::Null;
    }
    match ty {
        DataType::Str => Value::Str(STRINGS[rng.random_range(0usize..STRINGS.len())].into()),
        DataType::Int => Value::Int(rng.random_range(-100i64..100)),
        DataType::Float => Value::Float(rng.random_range(-10.0f64..10.0)),
        DataType::Bool => Value::Bool(rng.random_bool(0.5)),
        _ => Value::Null,
    }
}

fn random_record(rng: &mut StdRng, schema: &SchemaRef) -> Record {
    let values = schema
        .fields()
        .iter()
        .map(|f| random_value(rng, f.data_type))
        .collect();
    Record::new(schema.clone(), values, Timestamp::from_secs(1)).unwrap()
}

fn registry() -> Registry {
    Registry::standard(&ServiceConfig::default(), VirtualClock::new())
}

/// Interpreted vs compiled on a single record: same value, or both
/// error.
fn check_record(
    cexpr: &CExpr,
    ctx: &mut EvalCtx,
    prog: &ExprProgram,
    vm: &mut BatchVm,
    rec: &Record,
) {
    let interp = cexpr.eval(rec, ctx);
    let compiled = vm.eval_record(prog, rec);
    match (&interp, &compiled) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "value diverged on {rec:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!("error behavior diverged: interp={interp:?} compiled={compiled:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random expressions over random records: the compiled program
    /// agrees with the interpreter row-by-row.
    #[test]
    fn compiled_agrees_with_interpreter(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.random_range(1u32..4);
        let src = gen_expr(&mut rng, depth);
        let Ok(ast) = parse_expr(&src) else { return Ok(()) };
        let reg = registry();
        let mut ctx = EvalCtx::default();
        let Ok(cexpr) = compile_into(&ast, &schema(), &reg, &mut ctx) else { return Ok(()) };
        let prog = ExprProgram::lower(&cexpr)
            .unwrap_or_else(|e| panic!("lowering rejected stateless expr {src:?}: {e:?}"));
        let mut vm = BatchVm::new();
        let recs: Vec<Record> = (0..12).map(|_| random_record(&mut rng, &schema())).collect();
        for rec in &recs {
            check_record(&cexpr, &mut ctx, &prog, &mut vm, rec);
        }
        // Batch path: when every row evaluates cleanly, batch results
        // must match; when any row errors, the batch must error too.
        let all_ok: Option<Vec<Value>> = recs
            .iter()
            .map(|r| cexpr.eval(r, &mut ctx).ok())
            .collect();
        let sel: Vec<u32> = (0..recs.len() as u32).collect();
        match all_ok {
            Some(expected) => {
                vm.eval_into(&prog, &recs, &sel).expect("clean batch evals");
                for (i, want) in expected.iter().enumerate() {
                    assert_eq!(vm.result(&prog, i as u32), want, "row {i} of {src}");
                }
                // Filter semantics: the selected subset is exactly the
                // rows whose interpreted value is truthy.
                let mut sel_out = Vec::new();
                vm.filter(&prog, &recs, &sel, &mut sel_out).expect("clean filter");
                let want_sel: Vec<u32> = expected
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.is_truthy())
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(sel_out, want_sel, "filter selection diverged on {src}");
            }
            None => {
                prop_assert!(
                    vm.eval_into(&prog, &recs, &sel).is_err(),
                    "interpreter errored but batch eval did not: {}", src
                );
            }
        }
    }
}

/// Guard against the generator rotting: a healthy fraction of random
/// expressions must survive parse + typecheck + lowering, otherwise the
/// differential suite above is silently testing nothing.
#[test]
fn generator_produces_compilable_expressions() {
    let reg = registry();
    let mut compiled_ok = 0usize;
    let total = 400usize;
    for seed in 0..total as u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.random_range(1u32..4);
        let src = gen_expr(&mut rng, depth);
        let Ok(ast) = parse_expr(&src) else { continue };
        let mut ctx = EvalCtx::default();
        if let Ok(cexpr) = compile_into(&ast, &schema(), &reg, &mut ctx) {
            ExprProgram::lower(&cexpr).expect("stateless exprs must lower");
            compiled_ok += 1;
        }
    }
    assert!(
        compiled_ok * 4 >= total,
        "only {compiled_ok}/{total} generated expressions compiled — generator drifted"
    );
}

// ---- engine-level: compiled vs interpreted ----

fn corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let s = Scenario {
            name: "expr-compiled".into(),
            duration: Duration::from_mins(10),
            background_rate_per_min: 80.0,
            topics: vec![Topic::new("kw", vec!["kw"], 35.0)],
            bursts: vec![],
            geotag_rate: 0.0,
            population_size: 300,
        };
        tweeql_firehose::generate(&s, 2026)
    })
}

/// A stateful UDF whose every answer depends on how many rows it has
/// seen: its call count.
struct Counter(i64);

impl StatefulUdf for Counter {
    fn call(&mut self, _: &[Value], _: Timestamp) -> Result<Value, QueryError> {
        self.0 += 1;
        Ok(Value::Int(self.0))
    }
}

/// A stateful UDF that fails on its third call.
struct Boom(u32);

impl StatefulUdf for Boom {
    fn call(&mut self, _: &[Value], _: Timestamp) -> Result<Value, QueryError> {
        self.0 += 1;
        match self.0 {
            3 => Err(QueryError::Exec("boom".into())),
            n => Ok(Value::Int(n.into())),
        }
    }
}

/// The corpus on a fresh builder with `counter`, `boom` and TwitInfo's
/// `detect_peak`/`in_peak` registered.
fn builder(compiled: bool) -> EngineBuilder {
    let api = StreamingApi::new(corpus().clone(), VirtualClock::new());
    Engine::builder(api)
        .reference(!compiled)
        .configure_registry(|r| {
            twitinfo::udfs::register(r, twitinfo::PeakDetectorConfig::default());
            r.register_stateful("counter", Arc::new(|| Box::new(Counter(0))));
            r.register_stateful("boom", Arc::new(|| Box::new(Boom(0))));
        })
}

/// `compiled` runs the default engine, otherwise the reference. The
/// reference pushes no filter into the connection, so neither does the
/// default engine here: a fault plan rolls per delivered tweet, and both
/// must see the same stream.
fn run_engine(sql: &str, compiled: bool, fault: Option<FaultPlan>) -> QueryResult {
    let mut b = builder(compiled).push_down(false);
    if let Some(plan) = fault {
        b = b.fault_policy(plan);
    }
    let mut engine = b.build();
    engine.execute(sql).expect(sql)
}

/// A stateful conjunct written before a pushdown candidate: the call
/// must see every row, so `text contains 'kw'` may neither run before
/// it nor narrow the connection or the host's prefilter.
const STATEFUL_WHERE: &str =
    "SELECT text FROM twitter WHERE counter(followers) % 3 = 0 AND text contains 'kw'";

/// A stateful conjunct behind one that is NULL on every row without
/// `kw` (no tweet in this corpus is geotagged, so `lat` is NULL): `AND`
/// evaluates its right side when the left is NULL, so the call sees
/// every row, not only the `kw` rows.
const STATEFUL_AFTER_NULL: &str = "SELECT text FROM twitter \
     WHERE (text contains 'kw' OR lat > 0) AND counter(followers) % 3 = 0";

const ENGINE_QUERIES: &[&str] = &[
    // Fused where+project.
    "SELECT upper(lang) AS l, followers * 2 AS f2 FROM twitter WHERE text contains 'kw'",
    // Multi-needle OR (compiles to one multi-pattern matcher).
    "SELECT text FROM twitter WHERE text contains 'kw' OR text contains 'speech' OR text contains 'news'",
    // Solo fused filter in front of an aggregate.
    "SELECT count(*) AS c, lang FROM twitter WHERE text contains 'kw' AND followers >= 0 \
     GROUP BY lang WINDOW 2 minutes",
    // Pure compiled projection, no WHERE.
    "SELECT lower(screen_name) AS s, followers + 1 AS f1 FROM twitter",
    // HAVING over the aggregate's output.
    "SELECT lang, count(*) AS n FROM twitter WHERE text contains 'kw' GROUP BY lang \
     HAVING count(*) > 2 AND avg(followers) >= 0 WINDOW 2 minutes",
    // Arithmetic over aggregates and keys in the post-aggregate SELECT.
    "SELECT upper(lang) AS u, count(*) * 2 + 1 AS n2, max(followers) - min(followers) AS spread \
     FROM twitter GROUP BY u WINDOW 3 minutes",
    // Stateful calls in SELECT, in WHERE, and in both HAVING and the
    // post-aggregate SELECT.
    "SELECT counter(followers) AS c, text FROM twitter WHERE text contains 'kw'",
    STATEFUL_WHERE,
    STATEFUL_AFTER_NULL,
    "SELECT lang, counter(lang) AS k FROM twitter GROUP BY lang \
     HAVING counter(lang) % 2 = 1 WINDOW 2 minutes",
    // TwitInfo's peak detector on the aggregate count, and `in_peak`
    // as a HAVING filter.
    "SELECT count(*) AS c, detect_peak(count(*)) AS peak FROM twitter \
     WHERE text contains 'kw' WINDOW 1 minutes",
    "SELECT count(*) AS c FROM twitter GROUP BY lang HAVING NOT in_peak(count(*)) \
     WINDOW 1 minutes",
    // Computed keys and arguments, projected for the aggregate to read
    // as columns: a key, an argument behind a WHERE (which fuses into
    // that projection), the confidence window's AVG, an argument over
    // a self-join's output.
    "SELECT upper(lang) AS l, count(*) AS n FROM twitter GROUP BY l WINDOW 2 minutes",
    "SELECT lang, count(distinct upper(screen_name)) AS d FROM twitter \
     WHERE text contains 'kw' GROUP BY lang WINDOW 2 minutes",
    "SELECT lang, avg(sentiment(text)) AS s FROM twitter GROUP BY lang \
     WINDOW CONFIDENCE 0.2 MAX 2 minutes",
    "SELECT lang, avg(followers_r + 1) AS f FROM twitter \
     JOIN twitter ON screen_name = screen_name GROUP BY lang WINDOW 1 minutes",
    // A computed async argument, appended as a column before the call.
    "SELECT latitude(lower(loc)) AS lat, loc FROM twitter WHERE text contains 'kw'",
];

/// Same query, same stream: compiled output must equal interpreted
/// output exactly.
#[test]
fn compiled_engine_matches_interpreted() {
    for sql in ENGINE_QUERIES {
        let reference = run_engine(sql, false, None);
        let compiled = run_engine(sql, true, None);
        assert_eq!(reference.schema.names(), compiled.schema.names(), "{sql}");
        assert!(!reference.rows.is_empty(), "{sql} selects nothing");
        assert_eq!(
            reference.rows, compiled.rows,
            "compiled diverged from interpreted: {sql}"
        );
    }
}

/// Under chaos fault injection the two paths see the same supervised
/// stream (same seed ⇒ same faults), so output must still be identical
/// — the compiled pipeline cannot change fault-recovery behavior.
#[test]
fn compiled_engine_matches_interpreted_under_chaos() {
    for sql in ENGINE_QUERIES {
        for seed in [3u64, 17] {
            let interp = run_engine(sql, false, Some(FaultPlan::chaos(seed)));
            let compiled = run_engine(sql, true, Some(FaultPlan::chaos(seed)));
            assert_eq!(
                interp.rows, compiled.rows,
                "chaos seed {seed}: compiled diverged: {sql}"
            );
            assert_eq!(
                interp.stats.source_faults.disconnects, compiled.stats.source_faults.disconnects,
                "fault schedule itself diverged (test harness bug)"
            );
        }
    }
}

/// A stateful WHERE conjunct sees the rows the reference shows it, with
/// pushdown on and off and on a standing host next to a query whose
/// `kw` needle the host's prefilter indexes.
#[test]
fn stateful_conjunct_keeps_its_written_order() {
    for sql in [STATEFUL_WHERE, STATEFUL_AFTER_NULL] {
        let reference = run_engine(sql, false, None);
        assert!(!reference.rows.is_empty(), "{sql}");
        for push_down in [false, true] {
            let fast = builder(true)
                .push_down(push_down)
                .build()
                .execute(sql)
                .unwrap();
            assert_eq!(fast.rows, reference.rows, "push_down({push_down}): {sql}");
        }
        let mut host = builder(true).build_host();
        let id = host.register(sql).unwrap();
        host.register("SELECT text FROM twitter WHERE text contains 'kw'")
            .unwrap();
        host.run_to_end().unwrap();
        assert_eq!(
            host.take_output(id).unwrap(),
            reference.rows,
            "standing host: {sql}"
        );
    }
}

/// A call ahead of a literal that settles its chain runs in the fast
/// plan as it does in the reference: `boom` fails on its third call,
/// so both fail, whatever the literal says.
#[test]
fn a_settling_literal_keeps_the_call_before_it() {
    for sql in [
        "SELECT text FROM twitter WHERE boom(followers) > 0 OR true",
        "SELECT text FROM twitter WHERE boom(followers) > 0 AND false",
    ] {
        let run = |compiled| {
            let result = builder(compiled).build().execute(sql);
            result.map(|r| r.rows).map_err(|e| e.to_string())
        };
        let reference = run(false);
        assert!(reference.is_err(), "{sql}: {reference:?}");
        assert_eq!(run(true), reference, "{sql}");
    }
}

/// The fast contains path never allocates per record: spot-check the
/// fused scan against a hand-built expected output on text with
/// non-ASCII case-folding edge cases.
#[test]
fn contains_case_folds_like_interpreter_on_unicode() {
    let reg = registry();
    let mut ctx = EvalCtx::default();
    let ast = parse_expr("t contains 'k'").unwrap();
    let cexpr = compile_into(&ast, &schema(), &reg, &mut ctx).unwrap();
    let prog = ExprProgram::lower(&cexpr).unwrap();
    let mut vm = BatchVm::new();
    for text in STRINGS {
        let values = vec![
            Value::Str((*text).into()),
            Value::Null,
            Value::Int(0),
            Value::Int(0),
            Value::Null,
            Value::Null,
        ];
        let rec = Record::new(schema(), values, Timestamp::ZERO).unwrap();
        check_record(&cexpr, &mut ctx, &prog, &mut vm, &rec);
    }
}

// ---- AND/OR chains against a nested-binary oracle ----

/// One operand of a generated AND/OR chain.
#[derive(Debug)]
enum Operand {
    /// Evaluated alone by the interpreter: a column predicate, a
    /// literal, or [`FAILS`].
    Leaf(&'static str),
    Not(Box<Operand>),
    /// A chain written in parentheses: OR when true, then its operands.
    Chain(bool, Vec<Operand>),
}

/// Column predicates and the three truth literals.
const LEAVES: &[&str] = &[
    "n > 0",
    "m < 10",
    "b",
    "f >= 0.5",
    "t is null",
    "true",
    "false",
    "null",
];

/// Literal `contains` on either string column: the operands an OR
/// chain's fused multi-needle prefix is made of.
const CONTAINS: &[&str] = &[
    "t contains 'kw'",
    "t contains 'i'",
    "u contains 'K'",
    "u contains 'aab'",
    "t contains ''",
];

/// The operand that errors at runtime: text times two, on every row
/// where `t` is not NULL.
const FAILS: &str = "t * 2 > 0";

fn gen_operand(rng: &mut StdRng, depth: u32) -> Operand {
    match rng.random_range(0u32..10) {
        0 if depth > 0 => {
            let n = rng.random_range(2usize..6);
            Operand::Chain(rng.random_bool(0.5), gen_items(rng, n, depth - 1))
        }
        1 => Operand::Not(Box::new(gen_operand(rng, depth))),
        2 => Operand::Leaf(CONTAINS[rng.random_range(0usize..CONTAINS.len())]),
        _ => Operand::Leaf(LEAVES[rng.random_range(0usize..LEAVES.len())]),
    }
}

/// `n` operands, half the time opening with a run of `contains`.
fn gen_items(rng: &mut StdRng, n: usize, depth: u32) -> Vec<Operand> {
    let run = if rng.random_bool(0.5) {
        rng.random_range(0..=n)
    } else {
        0
    };
    (0..n)
        .map(|i| {
            if i < run {
                Operand::Leaf(CONTAINS[rng.random_range(0usize..CONTAINS.len())])
            } else {
                gen_operand(rng, depth)
            }
        })
        .collect()
}

/// A top-level chain of 2–40 operands, one of them [`FAILS`].
fn gen_chain(rng: &mut StdRng) -> (bool, Vec<Operand>) {
    let n = rng.random_range(2usize..=40);
    let mut items = gen_items(rng, n, 2);
    items[rng.random_range(0..n)] = Operand::Leaf(FAILS);
    (rng.random_bool(0.5), items)
}

fn render_chain(or: bool, items: &[Operand]) -> String {
    let parts: Vec<String> = items.iter().map(render_operand).collect();
    parts.join(if or { " OR " } else { " AND " })
}

fn render_operand(op: &Operand) -> String {
    match op {
        Operand::Leaf(src) => src.to_string(),
        Operand::Not(inner) => format!("NOT {}", render_operand(inner)),
        Operand::Chain(or, items) => format!("({})", render_chain(*or, items)),
    }
}

/// The chain read as the nested binary tree `((a ∘ b) ∘ c)`, each node
/// under SQL three-valued logic, its left side first: an operand after
/// the one that decides a node never runs, so its error is never
/// raised.
fn oracle_chain(or: bool, items: &[Operand], rec: &Record) -> Result<Value, QueryError> {
    let decided = |v: &Value| !v.is_null() && v.is_truthy() == or;
    let mut acc = oracle(&items[0], rec)?;
    for item in &items[1..] {
        if decided(&acc) {
            continue;
        }
        let rhs = oracle(item, rec)?;
        acc = if decided(&rhs) {
            rhs
        } else if acc.is_null() || rhs.is_null() {
            Value::Null
        } else {
            Value::Bool(!or)
        };
    }
    Ok(match acc {
        Value::Null => Value::Null,
        v => Value::Bool(v.is_truthy()),
    })
}

fn oracle(op: &Operand, rec: &Record) -> Result<Value, QueryError> {
    match op {
        Operand::Leaf(src) => {
            let ast = parse_expr(src).unwrap();
            let mut ctx = EvalCtx::default();
            compile_into(&ast, &schema(), &registry(), &mut ctx)?.eval(rec, &mut ctx)
        }
        Operand::Not(inner) => Ok(match oracle(inner, rec)? {
            Value::Null => Value::Null,
            v => Value::Bool(!v.is_truthy()),
        }),
        Operand::Chain(or, items) => oracle_chain(*or, items, rec),
    }
}

/// Does `chain` agree with the oracle on every record: the interpreter
/// exactly, the VM with the interpreter, and the folded chain on every
/// value? Folding may drop the error of an operand a literal settles,
/// never a value. Returns how many records the oracle errored on.
fn check_chain(seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let (or, items) = gen_chain(&mut rng);
    let src = render_chain(or, &items);
    let ast = parse_expr(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let (reg, schema) = (registry(), schema());
    let mut ctx = EvalCtx::default();
    let cexpr = compile_into(&ast, &schema, &reg, &mut ctx).unwrap();
    let prog = ExprProgram::lower(&cexpr).unwrap();
    let folded = tweeql::plan::optimizer::fold_constants(&ast);
    let cfolded = compile_into(&folded, &schema, &reg, &mut ctx).unwrap();
    let mut vm = BatchVm::new();
    let mut errors = 0;
    for _ in 0..12 {
        let rec = random_record(&mut rng, &schema);
        let want = oracle_chain(or, &items, &rec);
        match (&want, cexpr.eval(&rec, &mut ctx)) {
            (Ok(w), Ok(got)) => assert_eq!(*w, got, "{src} on {rec:?}"),
            (Err(_), Err(_)) => errors += 1,
            (w, got) => panic!("{src} on {rec:?}: oracle {w:?}, interpreter {got:?}"),
        }
        check_record(&cexpr, &mut ctx, &prog, &mut vm, &rec);
        if let Ok(w) = &want {
            let got = cfolded.eval(&rec, &mut ctx);
            assert_eq!(got.as_ref().ok(), Some(w), "folded {src} on {rec:?}");
        }
    }
    errors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random AND/OR chains of 2–40 operands, nested parenthesised
    /// chains, NOT, truth literals and one operand that errors: every
    /// evaluator reads them as the nested binary tree would.
    #[test]
    fn chains_evaluate_as_nested_binary_trees(seed in 0u64..100_000) {
        check_chain(seed);
    }
}

/// Guard against the chain generator rotting: the erroring operand
/// must both run (its error raised) and be skipped behind a deciding
/// operand in a healthy share of records.
#[test]
fn chain_generator_reaches_errors_and_skips_them() {
    let errors: usize = (0..100).map(check_chain).sum();
    assert!(
        (100..1100).contains(&errors),
        "{errors} of 1200 records errored"
    );
}
