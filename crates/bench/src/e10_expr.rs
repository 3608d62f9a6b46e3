//! E10 — compiled expression pipeline: the register-program batch VM
//! (`compile_exprs = true`, the default) versus the tree-walk
//! interpreter, measured at two levels:
//!
//! - **engine**: whole serial engine, tweets per wall second. Decode,
//!   watermarks, and sink cost are shared by both arms, so this ratio
//!   under-states the expression-pipeline gain (the serial engine is
//!   decode-bound on this corpus).
//! - **exprs**: WHERE + SELECT expression evaluation over pre-decoded
//!   records — the component this pipeline actually compiled.
//!
//! For the headline filter+project query the expression level also
//! reports a **seed-baseline** arm: `contains` evaluated the way the
//! pre-compilation engine did (a per-record Aho–Corasick automaton
//! walk; see the seed's `CExpr::ContainsLiteral`). The shipped
//! interpreter was itself optimized in the same change (pre-folded
//! needle + allocation-free skip-loop scan), so the interpreted arm is
//! a much stronger baseline than what the original benchmark numbers
//! were recorded against — the seed arm keeps the speedup claim
//! anchored to the code the motivation cited.
//!
//! Engine arms run with the same enlarged watermark interval (one
//! stream-minute instead of the default second), set when the serial
//! engine still flushed its micro-batch at every watermark and a 1 s
//! cadence cut ~4-record batches at ~260 tweets/min. The columnar path
//! now cuts by size alone (crossings ride in the batch); the interval
//! stays because the recorded numbers were taken with it. It is
//! identical in both arms and the queries are windowless, so output is
//! watermark-independent.

use std::time::Instant;
use tweeql::engine::Engine;
use tweeql::expr::{compile_into, BatchVm, EvalCtx, ExprProgram};
use tweeql::parser::parse_expr;
use tweeql::udf::{Registry, ServiceConfig};
use tweeql_firehose::StreamingApi;
use tweeql_model::batch::{self, col};
use tweeql_model::record::twitter_schema;
use tweeql_model::{DecodeStats, Duration, Record, Tweet, Value, VirtualClock};
use tweeql_text::ac::AhoCorasick;

pub use crate::e9_parallel::firehose;

/// One benchmark query: SQL for the engine arms plus the WHERE /
/// SELECT expression strings for the expression-level arms.
pub struct E10Query {
    /// Display label.
    pub label: &'static str,
    /// Full SQL (engine arms).
    pub sql: &'static str,
    /// WHERE predicate (expression arms).
    pub where_expr: &'static str,
    /// SELECT expressions (expression arms).
    pub projections: &'static [&'static str],
    /// Single literal needle for the seed-baseline arm, when the WHERE
    /// is a plain `text contains '<needle>'`.
    pub seed_needle: Option<&'static str>,
}

/// Stateless queries exercising the compiled fast paths. The first is
/// E9's "filter+project" verbatim — the acceptance workload.
pub const QUERIES: &[E10Query] = &[
    E10Query {
        label: "filter+project",
        sql: "SELECT upper(lang) AS l, followers * 2 AS f2 FROM twitter \
              WHERE text contains 'obama'",
        where_expr: "text contains 'obama'",
        projections: &["upper(lang)", "followers * 2"],
        seed_needle: Some("obama"),
    },
    E10Query {
        label: "multi-needle or",
        sql: "SELECT text FROM twitter \
              WHERE text contains 'obama' OR text contains 'speech' OR text contains 'news'",
        where_expr: "text contains 'obama' or text contains 'speech' or text contains 'news'",
        projections: &["text"],
        seed_needle: None,
    },
    E10Query {
        label: "selective conjuncts",
        sql: "SELECT screen_name, followers FROM twitter \
              WHERE followers > 500 AND text contains 'obama' AND lang = 'en'",
        where_expr: "followers > 500 and text contains 'obama' and lang = 'en'",
        projections: &["screen_name", "followers"],
        seed_needle: None,
    },
];

/// One arm pair (interpreted vs compiled) at one measurement level.
#[derive(Debug, Clone, Copy)]
pub struct ArmPair {
    /// Interpreted tweets per wall second.
    pub interpreted_tps: f64,
    /// Compiled tweets per wall second.
    pub compiled_tps: f64,
}

impl ArmPair {
    /// compiled / interpreted.
    pub fn speedup(&self) -> f64 {
        self.compiled_tps / self.interpreted_tps.max(1e-9)
    }
}

/// One query measured under every arm.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Query label.
    pub query: &'static str,
    /// SQL text.
    pub sql: &'static str,
    /// Firehose tweets scanned (identical across arms by assertion).
    pub scanned: u64,
    /// Output rows (identical across arms by assertion).
    pub rows: usize,
    /// Whole-engine serial throughput.
    pub engine: ArmPair,
    /// Expression-evaluation throughput over pre-decoded records.
    pub exprs: ArmPair,
    /// Seed-style baseline (per-record Aho–Corasick contains walk) at
    /// the expression level, for queries with a single literal needle.
    pub seed_tps: Option<f64>,
}

impl E10Row {
    /// Expression-level compiled throughput over the seed baseline.
    pub fn speedup_vs_seed(&self) -> Option<f64> {
        self.seed_tps.map(|s| self.exprs.compiled_tps / s.max(1e-9))
    }
}

fn measure_engine(tweets: Vec<Tweet>, sql: &str, compiled: bool) -> (u64, usize, f64) {
    let api = StreamingApi::new(tweets, VirtualClock::new());
    let mut engine = Engine::builder(api)
        .workers(1)
        .compiled_expressions(compiled)
        .watermark_interval(Duration::from_mins(1))
        .build();
    let t0 = Instant::now();
    let result = engine.execute(sql).expect("bench query runs");
    let wall = t0.elapsed().as_secs_f64();
    (result.stats.source.scanned, result.rows.len(), wall)
}

struct ExprArms {
    cwhere: tweeql::expr::CExpr,
    cprojs: Vec<tweeql::expr::CExpr>,
    ctx: EvalCtx,
    pwhere: ExprProgram,
    pprojs: Vec<ExprProgram>,
}

fn compile_arms(q: &E10Query) -> ExprArms {
    let schema = twitter_schema();
    let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
    let mut ctx = EvalCtx::default();
    let cwhere = compile_into(&parse_expr(q.where_expr).unwrap(), &schema, &reg, &mut ctx)
        .expect("bench WHERE compiles");
    let cprojs: Vec<_> = q
        .projections
        .iter()
        .map(|p| {
            compile_into(&parse_expr(p).unwrap(), &schema, &reg, &mut ctx)
                .expect("bench projection compiles")
        })
        .collect();
    let pwhere = ExprProgram::lower(&cwhere).expect("stateless WHERE lowers");
    let pprojs = cprojs
        .iter()
        .map(|c| ExprProgram::lower(c).expect("stateless projection lowers"))
        .collect();
    ExprArms {
        cwhere,
        cprojs,
        ctx,
        pwhere,
        pprojs,
    }
}

/// Interpreted expression arm: tree-walk WHERE per record, projections
/// on survivors. Returns (survivors, wall seconds).
fn run_interpreted(arms: &mut ExprArms, recs: &[Record], reps: usize) -> (usize, f64) {
    let t0 = Instant::now();
    let mut kept = 0usize;
    for _ in 0..reps {
        for rec in recs {
            if arms.cwhere.eval(rec, &mut arms.ctx).unwrap().is_truthy() {
                kept += 1;
                for p in &arms.cprojs {
                    std::hint::black_box(p.eval(rec, &mut arms.ctx).unwrap());
                }
            }
        }
    }
    (kept / reps, t0.elapsed().as_secs_f64())
}

/// Compiled expression arm: batch VM filter + projections over the
/// surviving selection.
fn run_compiled(arms: &mut ExprArms, recs: &[Record], reps: usize) -> (usize, f64) {
    let mut vm = BatchVm::new();
    let mut sel_in: Vec<u32> = Vec::new();
    let mut sel_out: Vec<u32> = Vec::new();
    let batch = 256usize;
    let t0 = Instant::now();
    let mut kept = 0usize;
    for _ in 0..reps {
        for chunk in recs.chunks(batch) {
            sel_in.clear();
            sel_in.extend(0..chunk.len() as u32);
            vm.filter(&arms.pwhere, chunk, &sel_in, &mut sel_out)
                .unwrap();
            kept += sel_out.len();
            for p in &arms.pprojs {
                vm.eval_into(p, chunk, &sel_out).unwrap();
                for &i in &sel_out {
                    std::hint::black_box(vm.result(p, i));
                }
            }
        }
    }
    (kept / reps, t0.elapsed().as_secs_f64())
}

/// Seed-style arm: `contains` via a per-record Aho–Corasick walk (what
/// the pre-compilation interpreter did for literal needles),
/// projections via the tree-walk.
fn run_seed(arms: &mut ExprArms, recs: &[Record], needle: &str, reps: usize) -> (usize, f64) {
    let schema = twitter_schema();
    let text_col = schema.index_of("text").expect("twitter schema has text");
    let ac = AhoCorasick::new([needle]);
    let t0 = Instant::now();
    let mut kept = 0usize;
    for _ in 0..reps {
        for rec in recs {
            let hit = match rec.value(text_col) {
                Value::Str(s) => ac.is_match(s),
                Value::Null => false,
                other => other.to_string().to_lowercase().contains(needle),
            };
            if hit {
                kept += 1;
                for p in &arms.cprojs {
                    std::hint::black_box(p.eval(rec, &mut arms.ctx).unwrap());
                }
            }
        }
    }
    (kept / reps, t0.elapsed().as_secs_f64())
}

/// Run every query under every arm on a shared firehose.
pub fn run(seed: u64, minutes: i64) -> Vec<E10Row> {
    run_with_reps(seed, minutes, 50)
}

/// [`run`] with an explicit repetition count for the expression-level
/// arms (smoke runs use fewer).
pub fn run_with_reps(seed: u64, minutes: i64, reps: usize) -> Vec<E10Row> {
    let tweets = firehose(seed, minutes);
    let recs: Vec<Record> = tweets.iter().map(Record::from_tweet).collect();
    QUERIES
        .iter()
        .map(|q| {
            let (i_scanned, i_rows, i_wall) = measure_engine(tweets.clone(), q.sql, false);
            let (c_scanned, c_rows, c_wall) = measure_engine(tweets.clone(), q.sql, true);
            assert_eq!(i_scanned, c_scanned, "{}: scanned drift", q.label);
            assert_eq!(i_rows, c_rows, "{}: output drift between arms", q.label);

            let mut arms = compile_arms(q);
            let (kept_i, wall_i) = run_interpreted(&mut arms, &recs, reps);
            let (kept_c, wall_c) = run_compiled(&mut arms, &recs, reps);
            assert_eq!(kept_i, kept_c, "{}: filter drift between arms", q.label);
            let per_rep = recs.len() as f64;
            let seed_tps = q.seed_needle.map(|needle| {
                let (kept_s, wall_s) = run_seed(&mut arms, &recs, needle, reps);
                assert_eq!(kept_s, kept_i, "{}: seed arm filter drift", q.label);
                per_rep * reps as f64 / wall_s.max(1e-9)
            });

            E10Row {
                query: q.label,
                sql: q.sql,
                scanned: i_scanned,
                rows: i_rows,
                engine: ArmPair {
                    interpreted_tps: i_scanned as f64 / i_wall.max(1e-9),
                    compiled_tps: c_scanned as f64 / c_wall.max(1e-9),
                },
                exprs: ArmPair {
                    interpreted_tps: per_rep * reps as f64 / wall_i.max(1e-9),
                    compiled_tps: per_rep * reps as f64 / wall_c.max(1e-9),
                },
                seed_tps,
            }
        })
        .collect()
}

/// Projection-pruning comparison: what the optimizer's liveness
/// analysis buys on a decode-bound query.
#[derive(Debug, Clone)]
pub struct PruneRow {
    /// The narrow query both arms run.
    pub sql: &'static str,
    /// Live source columns under the liveness mask.
    pub live_columns: usize,
    /// Total twitter-schema columns.
    pub total_columns: usize,
    /// Decode-only: full `from_tweet` tweets per second.
    pub decode_full_tps: f64,
    /// Decode-only: masked `from_tweet_pruned` tweets per second.
    pub decode_pruned_tps: f64,
    /// Whole engine with the optimizer off (full decode).
    pub engine_unoptimized_tps: f64,
    /// Whole engine with the optimizer on (pruned decode).
    pub engine_optimized_tps: f64,
}

impl PruneRow {
    /// pruned / full decode throughput.
    pub fn decode_speedup(&self) -> f64 {
        self.decode_pruned_tps / self.decode_full_tps.max(1e-9)
    }

    /// optimized / unoptimized engine throughput.
    pub fn engine_speedup(&self) -> f64 {
        self.engine_optimized_tps / self.engine_unoptimized_tps.max(1e-9)
    }
}

/// The pruning workload: two of eleven source columns are live. The
/// predicate is deliberately *unpushable* (no keyword/location
/// candidate), so the optimizer-on and optimizer-off engine arms both
/// skip the connection-filter probe and differ only in the decode mask
/// — anything else would conflate probe cost with pruning gain.
pub const PRUNE_SQL: &str = "SELECT lang, followers FROM twitter WHERE followers >= 0";

fn measure_engine_plan(tweets: Vec<Tweet>, sql: &str, optimize: bool) -> (u64, usize, f64) {
    let api = StreamingApi::new(tweets, VirtualClock::new());
    let mut engine = Engine::builder(api)
        .workers(1)
        .plan_optimizer(optimize)
        .watermark_interval(Duration::from_mins(1))
        .build();
    let t0 = Instant::now();
    let result = engine.execute(sql).expect("bench query runs");
    let wall = t0.elapsed().as_secs_f64();
    (result.stats.source.scanned, result.rows.len(), wall)
}

/// Measure full-vs-pruned decode and optimizer-on/off engine throughput
/// on [`PRUNE_SQL`].
pub fn run_pruning(seed: u64, minutes: i64, reps: usize) -> PruneRow {
    let tweets = firehose(seed, minutes);
    let schema = twitter_schema();
    let mut live = vec![false; schema.len()];
    for name in ["lang", "followers"] {
        live[schema.index_of(name).expect("twitter schema column")] = true;
    }
    let live_columns = live.iter().filter(|l| **l).count();

    let t0 = Instant::now();
    for _ in 0..reps {
        for t in &tweets {
            std::hint::black_box(Record::from_tweet(t));
        }
    }
    let wall_full = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        for t in &tweets {
            std::hint::black_box(Record::from_tweet_pruned(t, &live));
        }
    }
    let wall_pruned = t0.elapsed().as_secs_f64();

    let (u_scanned, u_rows, u_wall) = measure_engine_plan(tweets.clone(), PRUNE_SQL, false);
    let (o_scanned, o_rows, o_wall) = measure_engine_plan(tweets.clone(), PRUNE_SQL, true);
    assert_eq!(u_scanned, o_scanned, "pruning arm: scanned drift");
    assert_eq!(u_rows, o_rows, "pruning arm: output drift");

    let decoded = (tweets.len() * reps) as f64;
    PruneRow {
        sql: PRUNE_SQL,
        live_columns,
        total_columns: schema.len(),
        decode_full_tps: decoded / wall_full.max(1e-9),
        decode_pruned_tps: decoded / wall_pruned.max(1e-9),
        engine_unoptimized_tps: u_scanned as f64 / u_wall.max(1e-9),
        engine_optimized_tps: o_scanned as f64 / o_wall.max(1e-9),
    }
}

/// Columnar decode comparison (E12): the batch decode kernel
/// [`batch::decode_columns`] against the row decoder, at three levels.
#[derive(Debug, Clone)]
pub struct ColumnarRow {
    /// The paper query both engine arms run.
    pub sql: &'static str,
    /// Tweets per batch in the decode-only arms.
    pub chunk_rows: usize,
    /// Decode-only, full width: row-at-a-time `Record::from_tweet`.
    pub decode_row_tps: f64,
    /// Decode-only, full width: `decode_columns`, every column built.
    pub decode_columnar_tps: f64,
    /// Decode-only under [`COLUMNAR_SQL`]'s liveness mask (only `text`
    /// is referenced): `from_tweet_pruned` — what the row engine does
    /// per tweet for this query.
    pub decode_row_pruned_tps: f64,
    /// Decode-only under the same mask: `decode_columns` building only
    /// the `text` column — what the columnar fused scan does.
    pub decode_columnar_query_tps: f64,
    /// Dictionary counters from one full columnar pass.
    pub dict: DecodeStats,
    /// Whole engine, `columnar_decode(false)`.
    pub engine_row_tps: f64,
    /// Whole engine, `columnar_decode(true)`.
    pub engine_columnar_tps: f64,
    /// Worker count both engine arms ran at.
    pub engine_workers: usize,
}

impl ColumnarRow {
    /// Full columnar decode over full row decode.
    pub fn decode_speedup(&self) -> f64 {
        self.decode_columnar_tps / self.decode_row_tps.max(1e-9)
    }

    /// Query-masked columnar decode over the equally-masked row decode
    /// — the engine-representative comparison.
    pub fn decode_query_speedup(&self) -> f64 {
        self.decode_columnar_query_tps / self.decode_row_pruned_tps.max(1e-9)
    }

    /// Query-masked columnar decode over the *unpruned* row decoder —
    /// the seed engine's per-tweet decode, the 1.3M tweets/s bound the
    /// columnar path exists to break.
    pub fn decode_speedup_vs_seed(&self) -> f64 {
        self.decode_columnar_query_tps / self.decode_row_tps.max(1e-9)
    }

    /// Columnar engine over row engine.
    pub fn engine_speedup(&self) -> f64 {
        self.engine_columnar_tps / self.engine_row_tps.max(1e-9)
    }
}

/// The engine workload for the columnar arms: TwitInfo's
/// influential-user filter. Deliberately *unpushable* (no keyword or
/// location candidate), so the source delivers every tweet and the
/// decoder — not the connection's keyword automaton — is the hot loop;
/// keyword queries spend their time in the source's Aho–Corasick match
/// identically in both arms and can't show a decode difference. The
/// fused scan materializes only `screen_name` and `followers` and
/// builds row records solely for the rare tweets that pass.
pub const COLUMNAR_SQL: &str = "SELECT screen_name, followers FROM twitter WHERE followers > 10000";

fn measure_engine_columnar(
    tweets: Vec<Tweet>,
    sql: &str,
    workers: usize,
    columnar: bool,
) -> (u64, usize, f64) {
    let api = StreamingApi::new(tweets, VirtualClock::new());
    // Large batches and a long watermark cadence: the queries are
    // windowless, so output is watermark-independent, and big batches
    // are where a columnar layout is designed to run.
    let mut engine = Engine::builder(api)
        .workers(workers)
        .columnar_decode(columnar)
        .batch_size(1024)
        .watermark_interval(Duration::from_mins(5))
        .build();
    let t0 = Instant::now();
    let result = engine.execute(sql).expect("bench query runs");
    let wall = t0.elapsed().as_secs_f64();
    (result.stats.source.scanned, result.rows.len(), wall)
}

/// Measure row-vs-columnar decode (full and liveness-masked) and the
/// engine end-to-end gap on [`COLUMNAR_SQL`] at `workers`.
pub fn run_columnar(seed: u64, minutes: i64, reps: usize, workers: usize) -> ColumnarRow {
    let tweets = firehose(seed, minutes);
    let chunk_rows = 256usize;
    let all = batch::all_columns();
    // COLUMNAR_SQL references only `screen_name` and `followers`: the
    // liveness mask the optimizer hands both engines for this query.
    let mut live = [false; col::COUNT];
    live[col::SCREEN_NAME] = true;
    live[col::FOLLOWERS] = true;

    // Dictionary counters from one untimed full pass (identical every
    // pass — the kernel is deterministic).
    let mut dict = DecodeStats::default();
    for c in tweets.chunks(chunk_rows) {
        let (_, stats) = batch::decode_columns(c, &all, None);
        dict.merge(&stats);
    }

    // Both decode arms build and drop their output inside the timed
    // loop, so allocator traffic is charged symmetrically.
    let t0 = Instant::now();
    for _ in 0..reps {
        for t in &tweets {
            std::hint::black_box(Record::from_tweet(t));
        }
    }
    let wall_row = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        for c in tweets.chunks(chunk_rows) {
            std::hint::black_box(batch::decode_columns(c, &all, None));
        }
    }
    let wall_col = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..reps {
        for t in &tweets {
            std::hint::black_box(Record::from_tweet_pruned(t, &live));
        }
    }
    let wall_row_pruned = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        for c in tweets.chunks(chunk_rows) {
            std::hint::black_box(batch::decode_columns(c, &live, None));
        }
    }
    let wall_col_query = t0.elapsed().as_secs_f64();

    let (r_scanned, r_rows, r_wall) =
        measure_engine_columnar(tweets.clone(), COLUMNAR_SQL, workers, false);
    let (c_scanned, c_rows, c_wall) =
        measure_engine_columnar(tweets.clone(), COLUMNAR_SQL, workers, true);
    assert_eq!(r_scanned, c_scanned, "columnar arm: scanned drift");
    assert_eq!(r_rows, c_rows, "columnar arm: output drift");

    let decoded = (tweets.len() * reps) as f64;
    ColumnarRow {
        sql: COLUMNAR_SQL,
        chunk_rows,
        decode_row_tps: decoded / wall_row.max(1e-9),
        decode_columnar_tps: decoded / wall_col.max(1e-9),
        decode_row_pruned_tps: decoded / wall_row_pruned.max(1e-9),
        decode_columnar_query_tps: decoded / wall_col_query.max(1e-9),
        dict,
        engine_row_tps: r_scanned as f64 / r_wall.max(1e-9),
        engine_columnar_tps: c_scanned as f64 / c_wall.max(1e-9),
        engine_workers: workers,
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "null".into(),
    }
}

/// Render the comparison as the JSON payload written to
/// `BENCH_expr.json`. Hand-rolled: the vendored `serde` is a stub.
pub fn to_json(
    rows: &[E10Row],
    prune: &PruneRow,
    columnar: &ColumnarRow,
    seed: u64,
    cores: usize,
    tweets: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"expr_compiled\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"firehose_tweets\": {tweets},\n"));
    out.push_str("  \"queries\": [\n");
    for (qi, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"query\": {:?},\n", row.query));
        out.push_str(&format!("      \"sql\": {:?},\n", row.sql));
        out.push_str(&format!("      \"scanned\": {},\n", row.scanned));
        out.push_str(&format!("      \"rows\": {},\n", row.rows));
        out.push_str(&format!(
            "      \"engine\": {{\"interpreted_tweets_per_sec\": {:.1}, \
             \"compiled_tweets_per_sec\": {:.1}, \"speedup\": {:.3}}},\n",
            row.engine.interpreted_tps,
            row.engine.compiled_tps,
            row.engine.speedup(),
        ));
        out.push_str(&format!(
            "      \"exprs\": {{\"interpreted_tweets_per_sec\": {:.1}, \
             \"compiled_tweets_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"seed_baseline_tweets_per_sec\": {}, \"speedup_vs_seed\": {}}}\n",
            row.exprs.interpreted_tps,
            row.exprs.compiled_tps,
            row.exprs.speedup(),
            fmt_opt(row.seed_tps),
            match row.speedup_vs_seed() {
                Some(v) => format!("{v:.3}"),
                None => "null".into(),
            },
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if qi + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"projection_pruning\": {\n");
    out.push_str(&format!("    \"sql\": {:?},\n", prune.sql));
    out.push_str(&format!(
        "    \"live_columns\": {},\n    \"total_columns\": {},\n",
        prune.live_columns, prune.total_columns
    ));
    out.push_str(&format!(
        "    \"decode\": {{\"full_tweets_per_sec\": {:.1}, \
         \"pruned_tweets_per_sec\": {:.1}, \"speedup\": {:.3}}},\n",
        prune.decode_full_tps,
        prune.decode_pruned_tps,
        prune.decode_speedup(),
    ));
    out.push_str(&format!(
        "    \"engine\": {{\"unoptimized_tweets_per_sec\": {:.1}, \
         \"optimized_tweets_per_sec\": {:.1}, \"speedup\": {:.3}}}\n",
        prune.engine_unoptimized_tps,
        prune.engine_optimized_tps,
        prune.engine_speedup(),
    ));
    out.push_str("  },\n");
    out.push_str("  \"columnar\": {\n");
    out.push_str(&format!("    \"sql\": {:?},\n", columnar.sql));
    out.push_str(&format!("    \"chunk_rows\": {},\n", columnar.chunk_rows));
    out.push_str(&format!(
        "    \"decode\": {{\"row_tweets_per_sec\": {:.1}, \
         \"columnar_tweets_per_sec\": {:.1}, \"speedup\": {:.3}}},\n",
        columnar.decode_row_tps,
        columnar.decode_columnar_tps,
        columnar.decode_speedup(),
    ));
    out.push_str(&format!(
        "    \"decode_query\": {{\"row_pruned_tweets_per_sec\": {:.1}, \
         \"columnar_tweets_per_sec\": {:.1}, \"speedup\": {:.3}, \
         \"speedup_vs_seed\": {:.3}}},\n",
        columnar.decode_row_pruned_tps,
        columnar.decode_columnar_query_tps,
        columnar.decode_query_speedup(),
        columnar.decode_speedup_vs_seed(),
    ));
    out.push_str(&format!(
        "    \"dictionary\": {{\"rows\": {}, \"entries\": {}, \
         \"reuse_permille\": {}, \"ptr_hit_permille\": {}}},\n",
        columnar.dict.dict_rows,
        columnar.dict.dict_entries,
        columnar.dict.dict_reuse_permille().unwrap_or(0),
        (columnar.dict.dict_ptr_hits * 1000)
            .checked_div(columnar.dict.dict_rows)
            .unwrap_or(0),
    ));
    out.push_str(&format!(
        "    \"engine\": {{\"workers\": {}, \"row_tweets_per_sec\": {:.1}, \
         \"columnar_tweets_per_sec\": {:.1}, \"speedup\": {:.3}}}\n",
        columnar.engine_workers,
        columnar.engine_row_tps,
        columnar.engine_columnar_tps,
        columnar.engine_speedup(),
    ));
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_and_report_positive_throughput() {
        let rows = run_with_reps(7, 2, 3);
        assert_eq!(rows.len(), QUERIES.len());
        for row in &rows {
            assert!(row.scanned > 0);
            assert!(row.engine.interpreted_tps > 0.0);
            assert!(row.engine.compiled_tps > 0.0);
            assert!(row.exprs.interpreted_tps > 0.0);
            assert!(row.exprs.compiled_tps > 0.0);
        }
        // The acceptance workload must produce matches to be
        // meaningful, and must carry the seed-baseline arm.
        assert!(rows[0].rows > 0, "filter+project matched no tweets");
        assert!(rows[0].seed_tps.is_some());
        assert!(rows[0].speedup_vs_seed().unwrap() > 0.0);
    }

    #[test]
    fn json_is_balanced_and_carries_every_arm() {
        let rows = run_with_reps(7, 1, 2);
        let prune = run_pruning(7, 1, 2);
        let columnar = run_columnar(7, 1, 2, 1);
        let json = to_json(&rows, &prune, &columnar, 7, 1, 321);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bench\": \"expr_compiled\""));
        assert!(json.contains("\"engine\": {\"interpreted_tweets_per_sec\""));
        assert!(json.contains("\"exprs\": {\"interpreted_tweets_per_sec\""));
        assert!(json.contains("\"speedup_vs_seed\""));
        assert!(json.contains("\"query\": \"filter+project\""));
        assert!(json.contains("\"projection_pruning\""));
        assert!(json.contains("\"pruned_tweets_per_sec\""));
        assert!(json.contains("\"unoptimized_tweets_per_sec\""));
        assert!(json.contains("\"columnar\""));
        assert!(json.contains("\"columnar_tweets_per_sec\""));
        assert!(json.contains("\"dictionary\""));
        assert!(json.contains("\"reuse_permille\""));
    }

    #[test]
    fn columnar_arm_reports_positive_throughput_and_dictionary() {
        let c = run_columnar(7, 1, 2, 1);
        assert_eq!(c.chunk_rows, 256);
        assert!(c.decode_row_tps > 0.0);
        assert!(c.decode_columnar_tps > 0.0);
        assert!(c.decode_row_pruned_tps > 0.0);
        assert!(c.decode_columnar_query_tps > 0.0);
        assert!(c.engine_row_tps > 0.0);
        assert!(c.engine_columnar_tps > 0.0);
        // lang + loc go through the dictionary on every full pass.
        assert!(c.dict.dict_rows > 0);
        assert!(c.dict.dict_entries > 0);
        assert!(c.dict.dict_entries <= c.dict.dict_rows);
        // The full-decode ratio is meaningful only in release builds
        // (debug columnar code pays unoptimized bitmap pushes), so this
        // unit test checks plausibility; the hard perf margins live in
        // the CI gate on the release-mode JSON.
        assert!(c.decode_speedup() > 0.1, "{}", c.decode_speedup());
    }

    #[test]
    fn pruning_arm_reports_positive_throughput_and_live_mask() {
        let prune = run_pruning(7, 1, 2);
        assert_eq!(prune.live_columns, 2);
        assert_eq!(prune.total_columns, 11);
        assert!(prune.decode_full_tps > 0.0);
        assert!(prune.decode_pruned_tps > 0.0);
        assert!(prune.engine_unoptimized_tps > 0.0);
        assert!(prune.engine_optimized_tps > 0.0);
        // Decoding 3 of 11 columns must not be slower than decoding all
        // of them; the margin is asserted by the CI gate on the JSON,
        // not here (unit tests run in debug on shared machines).
        assert!(prune.decode_speedup() > 0.5, "{}", prune.decode_speedup());
    }
}
