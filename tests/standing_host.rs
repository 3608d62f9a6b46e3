//! Standing-query host differential battery.
//!
//! The contract under test: K standing queries on one [`QueryHost`]
//! (one shared connection, shared-scan dispatch, one columnar batch
//! handed to every query with its own selection) produce output
//! **byte-identical** to K independent engine runs over the same seeded
//! stream with pushdown disabled — at any batch size, under clean and
//! chaos-faulted sources, and across register/drop churn mid-stream —
//! and the filter index changes what is dispatched, never the output.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use tweeql::prelude::*;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Burst, Scenario, Topic};
use tweeql_firehose::StreamingApi;
use tweeql_model::{Duration, Record, Timestamp, Tweet, VirtualClock};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to [`System`] and adds up the bytes each thread requests
/// (per thread, so tests running side by side do not see each other).
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a const-initialized
// thread-local `Cell` that allocates nothing, and `try_with` declines
// quietly while a thread is being torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|b| b.set(b.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|b| b.set(b.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic firehose: a keyword topic, a burst, quiet tail.
fn tweets() -> &'static Vec<Tweet> {
    static TWEETS: OnceLock<Vec<Tweet>> = OnceLock::new();
    TWEETS.get_or_init(|| {
        let s = Scenario {
            name: "host-equiv".into(),
            duration: Duration::from_mins(10),
            background_rate_per_min: 40.0,
            topics: vec![{
                let mut t = Topic::new("kw", vec!["kw"], 22.0);
                t.sentiment_bias = 0.3;
                t
            }],
            bursts: vec![Burst {
                topic: 0,
                label: "spike".into(),
                start: Timestamp::from_mins(3),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(1),
                peak_multiplier: 5.0,
                phrases: vec!["kw spike".into()],
                sentiment_bias: 0.4,
                url: None,
            }],
            geotag_rate: 0.2,
            population_size: 100,
        };
        tweeql_firehose::generate(&s, 1177)
    })
}

/// Standing-query corpus: filters, scalar UDFs, windowed aggregates,
/// LIMIT early-exit, and the three pipeline-head shapes the dispatcher
/// treats differently — a fused scan (columnar), an aggregate straight
/// over the stream (columnar, needle-free: it sees every row), and an
/// async-UDF stage (rows, only the ones it selected) — and a windowed
/// self-join, whose head stage takes every row into both of its sides.
const CORPUS: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw'",
    "SELECT count(*) AS c, lang FROM twitter WHERE text contains 'kw' \
     GROUP BY lang WINDOW 2 minutes",
    "SELECT avg(followers) AS a FROM twitter WINDOW 3 minutes",
    "SELECT sentiment(text) AS s, text FROM twitter WHERE text contains 'spike' LIMIT 10",
    "SELECT upper(lang) AS l, followers * 2 AS f2 FROM twitter \
     WHERE followers > 3 AND text contains 'kw'",
    "SELECT min(followers) AS mn, max(followers) AS mx FROM twitter WINDOW 2 minutes",
    "SELECT latitude(loc) AS la, sentiment(text) AS s FROM twitter WHERE text contains 'spike'",
    "SELECT lang, count(distinct screen_name) AS authors FROM twitter \
     GROUP BY lang WINDOW 2 minutes",
    "SELECT regex_extract(text, 'kw [a-z]+', 0) AS hit FROM twitter WHERE text contains 'kw'",
    // An int group key read straight from the batch, string distinct
    // members: both tables probed with borrowed views.
    "SELECT followers, count(distinct lang) AS langs FROM twitter \
     GROUP BY followers WINDOW 2 minutes",
    // The dashboard's map panel: two async UDFs on one shared service
    // under an aggregate keyed by their (nullable float) results.
    "SELECT avg(sentiment(text)) AS mood, floor(latitude(loc)) AS cell_lat, \
     floor(longitude(loc)) AS cell_lon FROM twitter WHERE text contains 'kw' \
     GROUP BY cell_lat, cell_lon WINDOW 3 minutes",
    // A confidence window with a deadline: dense groups emit on their
    // CI, sparse ones when a watermark finds them `MAX` old.
    "SELECT avg(followers) AS a, lang FROM twitter WHERE text contains 'kw' \
     GROUP BY lang WINDOW CONFIDENCE 25.0 MAX 90 seconds",
    // Sliding windows over an async UDF's result: the aggregate's next
    // window can hang on rows the batcher upstream still holds.
    "SELECT count(*) AS n, floor(latitude(loc)) AS cell FROM twitter \
     WHERE text contains 'kw' GROUP BY cell WINDOW 2 minutes SLIDE 30 seconds",
    SELF_JOIN,
];

/// A join filtered after the join: its `contains` must not prefilter
/// the rows the join stage is dispatched.
const SELF_JOIN: &str = "SELECT id, id_r, lang_r FROM twitter JOIN twitter \
     ON screen_name = screen_name WHERE text contains 'kw' WINDOW 30 seconds";

fn host_with(fault: Option<FaultPlan>) -> QueryHost {
    host_sized(16, fault)
}

fn host_sized(batch_size: usize, fault: Option<FaultPlan>) -> QueryHost {
    builder(batch_size, fault).build_host()
}

fn builder(batch_size: usize, fault: Option<FaultPlan>) -> EngineBuilder {
    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    let b = Engine::builder(api).batch_size(batch_size).seed(99);
    match fault {
        Some(f) => b.fault_policy(f),
        None => b,
    }
}

/// The per-query reference: an independent serial engine over the same
/// stream. `push_down(false)` pins the source to the full-stream
/// subscription the shared host connection uses, so with equal seeds
/// both sides see the identical (possibly fault-injected) event
/// sequence.
fn engine_run(sql: &str, fault: Option<FaultPlan>) -> QueryResult {
    engine_sized(sql, 16, fault)
}

fn engine_sized(sql: &str, batch_size: usize, fault: Option<FaultPlan>) -> QueryResult {
    builder(batch_size, fault)
        .push_down(false)
        .build()
        .execute(sql)
        .expect(sql)
}

/// The whole corpus on one host against one independent engine run per
/// query, at every batch size (1: every row its own flush; 256: flushes
/// cut only by gaps and the end of the stream).
fn assert_host_matches_engines(fault: Option<FaultPlan>) {
    for batch_size in [1, 16, 256] {
        let mut host = host_sized(batch_size, fault.clone());
        let ids: Vec<QueryId> = CORPUS
            .iter()
            .map(|sql| host.register(sql).expect(sql))
            .collect();
        host.run_to_end().unwrap();
        for (sql, id) in CORPUS.iter().zip(ids) {
            let reference = engine_sized(sql, batch_size, fault.clone());
            let got = host.take_output(id).unwrap();
            assert_eq!(
                host.schema(id).unwrap().names(),
                reference.schema.names(),
                "{sql}"
            );
            assert_eq!(
                got,
                reference.rows,
                "rows diverged: {sql} (batch_size={batch_size}, fault={})",
                fault.is_some()
            );
        }
    }
}

#[test]
fn host_matches_independent_engines_serial() {
    assert_host_matches_engines(None);
}

#[test]
fn host_matches_independent_engines_under_chaos() {
    for seed in [3, 11] {
        assert_host_matches_engines(Some(FaultPlan::chaos(seed)));
    }
}

/// Register/drop churn of *other* queries must never perturb a standing
/// query: the off-cadence batch flushes churn forces are output-
/// invariant.
#[test]
fn churn_does_not_perturb_standing_queries() {
    let mut host = host_with(None);
    let target = host.register(CORPUS[1]).unwrap();
    host.pump_until(Timestamp::from_mins(2)).unwrap();
    let noise1 = host.register(CORPUS[0]).unwrap();
    host.pump_until(Timestamp::from_mins(4)).unwrap();
    let noise2 = host.register(CORPUS[3]).unwrap();
    host.pump_until(Timestamp::from_mins(5)).unwrap();
    host.drop_query(noise1).unwrap();
    host.pump_until(Timestamp::from_mins(7)).unwrap();
    host.drop_query(noise2).unwrap();
    host.run_to_end().unwrap();
    let got = host.take_output(target).unwrap();
    let reference = engine_run(CORPUS[1], None);
    assert_eq!(got, reference.rows);
}

/// Dropping and re-registering the same SQL starts from completely
/// fresh state: the re-registered query behaves exactly like a query
/// first registered at that stream position on an identical host.
#[test]
fn re_registration_gets_fresh_state() {
    let sql = CORPUS[1];
    let churn_at = Timestamp::from_mins(4);

    let mut host_a = host_with(None);
    let first = host_a.register(sql).unwrap();
    host_a.pump_until(churn_at).unwrap();
    let first_rows = host_a.drop_query(first).unwrap();
    assert!(!first_rows.is_empty(), "warm-up phase produced windows");
    let second = host_a.register(sql).unwrap();
    host_a.run_to_end().unwrap();
    let re_registered = host_a.take_output(second).unwrap();

    // Reference: same host timeline, but the query only ever existed
    // from the churn point on.
    let mut host_b = host_with(None);
    host_b.pump_until(churn_at).unwrap();
    let fresh = host_b.register(sql).unwrap();
    host_b.run_to_end().unwrap();
    let fresh_rows = host_b.take_output(fresh).unwrap();

    assert_eq!(
        re_registered, fresh_rows,
        "stale window/dedup state leaked across re-registration"
    );
}

/// The common-filter prefilter is a pure optimization: identical output
/// to the reference host, whose as-written plans give the index no
/// needles so every row reaches every query, and strictly fewer rows
/// dispatched.
#[test]
fn prefilter_is_output_invariant_and_saves_dispatch() {
    let run = |reference: bool| {
        let mut host = builder(16, None).reference(reference).build_host();
        let ids: Vec<QueryId> = CORPUS
            .iter()
            .map(|sql| host.register(sql).unwrap())
            .collect();
        host.run_to_end().unwrap();
        let outs: Vec<Vec<Record>> = ids
            .into_iter()
            .map(|id| host.take_output(id).unwrap())
            .collect();
        (outs, host.stats())
    };
    let (with, stats_with) = run(false);
    let (without, stats_without) = run(true);
    assert_eq!(with, without);
    assert!(
        stats_with.rows_dispatched < stats_without.rows_dispatched,
        "prefilter dispatched {} vs naive {}",
        stats_with.rows_dispatched,
        stats_without.rows_dispatched
    );
}

/// Shared decode economics: with several queries wanting overlapping
/// rows, most dispatched rows must be clone-served, not re-decoded.
#[test]
fn shared_decode_serves_overlapping_queries_from_one_materialization() {
    // The reference plans give the index no needles: every query sees
    // every row.
    let mut host = builder(16, None).reference(true).build_host();
    for sql in CORPUS.iter().take(3) {
        host.register(sql).unwrap();
    }
    host.run_to_end().unwrap();
    let s = host.stats();
    assert_eq!(s.rows_dispatched, 3 * s.tweets_delivered);
    assert_eq!(s.rows_decoded, s.tweets_delivered, "one decode per row");
    assert_eq!(s.rows_shared, 2 * s.tweets_delivered);
}

/// Session-layer semantics: list/schema/take/drop/unknown-id/joins.
#[test]
fn session_layer_api() {
    let mut host = host_with(None);
    let id = host.register(CORPUS[0]).unwrap();
    assert_eq!(host.schema(id).unwrap().names(), vec!["text"]);
    // The host runs joins: the join stage heads the query's pipeline.
    let join = host.register(SELF_JOIN).unwrap();
    assert_eq!(
        host.schema(join).unwrap().names(),
        vec!["id", "id_r", "lang_r"]
    );

    let listed = host.list();
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[0].id, id);
    assert_eq!(listed[0].state, QueryState::Running);
    assert!(listed[0].indexed, "contains-query joins the filter index");
    assert!(!listed[1].indexed, "a join's sides need every row");

    host.run_to_end().unwrap();
    assert_eq!(
        host.take_output(id).unwrap(),
        engine_run(CORPUS[0], None).rows,
        "pending buffer holds every row"
    );
    assert!(host.take_output(id).unwrap().is_empty(), "taken once");
    let joined = host.take_output(join).unwrap();
    assert!(!joined.is_empty());
    assert_eq!(joined, engine_run(SELF_JOIN, None).rows);
    assert!(host.list()[1].rows_in > 0);
    assert_eq!(host.list()[0].state, QueryState::Finished);

    host.drop_query(join).unwrap();
    host.drop_query(id).unwrap();
    assert!(host.list().is_empty());
    assert!(matches!(
        host.take_output(id),
        Err(QueryError::UnknownQuery(_))
    ));
    assert!(matches!(
        host.drop_query(QueryId::new(999)),
        Err(QueryError::UnknownQuery(_))
    ));

    // Bad SQL surfaces check diagnostics, not a panic.
    assert!(host.register("SELECT nope FROM twitter").is_err());
}

/// A LIMIT query finishes mid-stream while its neighbors keep running.
#[test]
fn limit_query_finishes_early_without_stopping_the_host() {
    let mut host = host_with(None);
    let limited = host.register(CORPUS[3]).unwrap();
    let standing = host.register(CORPUS[0]).unwrap();
    host.run_to_end().unwrap();
    let states: Vec<QueryState> = host.list().iter().map(|q| q.state).collect();
    assert_eq!(states, vec![QueryState::Finished, QueryState::Finished]);
    assert_eq!(
        host.take_output(limited).unwrap(),
        engine_run(CORPUS[3], None).rows
    );
    assert_eq!(
        host.take_output(standing).unwrap(),
        engine_run(CORPUS[0], None).rows
    );
}

/// A jump in stream time costs what is *due*, not what was jumped:
/// `decode_log` accepts any `i64` as `created_at`, so two tweets ten
/// virtual years apart — 315,360,000 one-second boundaries — must not
/// buy 315 million watermark deliveries (or a `Vec` of that many
/// boundaries) per windowed query. Host and engine, every kind of
/// operator that watches the clock; inside two seconds and a few
/// megabytes (nine hosts and engines, gazetteers included) where
/// walking the boundaries took a minute and 2.5 GB. The fast
/// configuration only: the reference engine's cadence visits every
/// boundary by design.
#[test]
fn ten_year_gap_is_bounded() {
    const TEN_YEARS_S: i64 = 10 * 365 * 24 * 3600;
    let queries = [
        ("SELECT count(*) AS c FROM twitter WINDOW 1 minutes", 2),
        // Each tweet falls in ten one-minute hops of a ten-minute window.
        (
            "SELECT count(*) AS c FROM twitter WINDOW 10 minutes SLIDE 1 minutes",
            20,
        ),
        (
            "SELECT avg(followers) AS a, lang FROM twitter GROUP BY lang \
             WINDOW CONFIDENCE 0.1 MAX 1 hours",
            2,
        ),
        ("SELECT latitude(loc) AS la, text FROM twitter", 2),
    ];
    let tweets: Vec<Tweet> = [0, TEN_YEARS_S]
        .iter()
        .zip(0u64..)
        .map(|(&at, id)| {
            Tweet::builder(id, format!("tweet {id}"))
                .at(Timestamp::from_secs(at))
                .build()
        })
        .collect();
    let started = std::time::Instant::now();
    let before = REQUESTED.with(Cell::get);
    let builder =
        || Engine::builder(StreamingApi::new(tweets.clone(), VirtualClock::new())).push_down(false);
    // All four on one host (shared dispatch), then each alone (the
    // host's single-query path, and a dedicated engine).
    let mut host = builder().build_host();
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|(sql, _)| host.register(sql).expect(sql))
        .collect();
    host.pump_until(Timestamp::from_secs(TEN_YEARS_S / 2))
        .unwrap();
    host.run_to_end().unwrap();
    assert_eq!(host.stats().watermarks, TEN_YEARS_S as u64);
    for (&(sql, rows), id) in queries.iter().zip(ids) {
        let shared = host.take_output(id).unwrap();
        assert_eq!(shared.len(), rows, "{sql}");
        let mut alone = builder().build_host();
        let id = alone.register(sql).expect(sql);
        alone.run_to_end().unwrap();
        assert_eq!(alone.take_output(id).unwrap(), shared, "{sql}");
        let engine = builder().build().execute(sql).expect(sql);
        assert_eq!(engine.rows, shared, "{sql}");
    }
    let requested = REQUESTED.with(Cell::get) - before;
    let took = started.elapsed();
    println!("ten-year gap: {took:?}, {requested} bytes requested");
    assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    assert!(requested < 64 << 20, "{requested} bytes requested");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized churn schedules: any subset of the corpus registered
    /// up front, noise queries registered and dropped at random stream
    /// times, clean or chaos-faulted source — every surviving query
    /// still matches its independent engine run.
    #[test]
    fn churned_host_matches_engines(
        first in 0usize..CORPUS.len(),
        second in 0usize..CORPUS.len(),
        noise_idx in 0usize..CORPUS.len(),
        churn_start_mins in 1i64..5,
        churn_len_mins in 1i64..4,
        chaos in 0u64..100,
    ) {
        // Odd draws run chaos-faulted; even draws run clean.
        let fault = (chaos % 2 == 1).then(|| FaultPlan::chaos(chaos));
        let mut subset = vec![first];
        if second != first {
            subset.push(second);
        }
        let mut host = host_with(fault.clone());
        let ids: Vec<(usize, QueryId)> = subset
            .iter()
            .map(|&i| (i, host.register(CORPUS[i]).unwrap()))
            .collect();
        host.pump_until(Timestamp::from_mins(churn_start_mins)).unwrap();
        let noise = host.register(CORPUS[noise_idx]).unwrap();
        host.pump_until(Timestamp::from_mins(churn_start_mins + churn_len_mins)).unwrap();
        host.drop_query(noise).unwrap();
        host.run_to_end().unwrap();
        for (i, id) in ids {
            let reference = engine_run(CORPUS[i], fault.clone());
            let got = host.take_output(id).unwrap();
            prop_assert_eq!(got, reference.rows);
            let _ = i;
        }
    }
}
