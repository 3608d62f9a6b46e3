//! The fast-vs-reference differential suite.
//!
//! `EngineBuilder::reference(true)` selects the implementation every
//! fast layer is held to: the plan exactly as written, the interpreted
//! operators, and row decode cut at every watermark boundary. Both
//! configurations pull the same zero-copy source blocks; the source
//! layer has a per-tweet oracle of its own, in `exec/supervise.rs`'s
//! tests. The default engine — optimized plan, compiled batch programs,
//! columnar decode — must match the reference byte for byte: same
//! output rows, same gap windows, same `ConnectionStats` and supervisor
//! fault stats, same final virtual clock, over fixed and random
//! queries, chaos `FaultPlan`s and batch sizes, for the engine and the
//! standing-query host. Two carve-outs, each explained where it is
//! made: LIMIT past one-tweet batches, and async UDFs.
//! On a clean stream the default engine is also run with connection
//! pushdown, which may change what is delivered but not the rows.
//!
//! In debug builds the plan verifier is strict, so a rewrite rule that
//! breaks a plan invariant panics here; in release it would fall back
//! to the as-written plan with a notice, which every fast run checks it
//! did not emit.
//!
//! The fixed cases are what CI runs; the proptest sweeps random queries
//! over a wider seed × batch-size × chaos space.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use tweeql::engine::{Engine, QueryResult};
use tweeql::exec::supervise::RetryPolicy;
use tweeql::host::HostStats;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Burst, Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::breaker::BreakerConfig;
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Clock, DecodeStats, Duration, Record, Timestamp, Tweet, VirtualClock};

/// A keyword topic with a burst, geotagged tweets for the bounding-box
/// queries, twelve minutes so windowed queries close several windows.
fn corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let s = Scenario {
            name: "batched-source".into(),
            duration: Duration::from_mins(12),
            background_rate_per_min: 110.0,
            topics: vec![{
                let mut t = Topic::new("kw", vec!["kw"], 50.0);
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
            geotag_rate: 0.4,
            population_size: 400,
        };
        generate(&s, 90210)
    })
}

/// Filters, projections, scalar UDFs, windowed aggregates with and
/// without HAVING, geo bounding boxes, and one query per rewrite rule:
/// constant folding (tautology and contradiction), OR-of-contains
/// fusion, projection pruning and conjunct ordering.
const FIXED: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw'",
    "SELECT count(*) AS n, lang FROM twitter \
     WHERE text contains 'kw' GROUP BY lang WINDOW 2 minutes",
    "SELECT sentiment(text) AS s, followers FROM twitter WHERE followers > 2000",
    "SELECT text FROM twitter WHERE 1 = 1 AND text contains 'kw'",
    "SELECT text FROM twitter WHERE 2 < 1 AND text contains 'kw'",
    "SELECT text FROM twitter WHERE text contains 'kw' OR text contains 'speech' \
     OR text contains 'zzz'",
    "SELECT lang, followers FROM twitter WHERE text contains 'kw'",
    "SELECT text FROM twitter WHERE text contains 'kw' AND followers > 40 AND lang = 'en'",
    "SELECT lang, count(*) AS n FROM twitter WHERE text contains 'kw' \
     GROUP BY lang HAVING count(*) > 2 WINDOW 2 minutes",
    "SELECT text FROM twitter WHERE location in [bounding box for NYC]",
    "SELECT upper(lang) AS l, followers * 2 AS f2 FROM twitter WHERE text contains 'kw'",
    "SELECT lang, followers FROM twitter WHERE followers >= 0",
    "SELECT text FROM twitter WHERE text contains 'kw' AND location in [bounding box for NYC]",
    "SELECT min(followers) AS mn, max(followers) AS mx, count(distinct screen_name) AS cd \
     FROM twitter WINDOW 3 minutes",
    "SELECT count(*) AS c, lang FROM twitter WHERE text contains 'kw' AND followers >= 0 \
     GROUP BY lang WINDOW 2 minutes",
    "SELECT lower(screen_name) AS s, followers + 1 AS f1 FROM twitter",
];

/// LIMIT early exit behind a fused scan, an interpreted projection and
/// a plain filter.
const LIMITED: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw' LIMIT 25",
    "SELECT upper(lang) AS l, followers + 1 AS f1 FROM twitter WHERE followers >= 0 LIMIT 25",
    "SELECT sentiment(text) AS s, text FROM twitter WHERE text contains 'kw' LIMIT 20",
];

/// The async geo UDFs charge modeled latency to the shared clock.
const ASYNC: &str = "SELECT latitude(loc) AS la, longitude(loc) AS lo \
                     FROM twitter WHERE text contains 'kw'";

/// An async stage ahead of a LIMIT: the boundary that releases the
/// stage's batch can fill the LIMIT.
const ASYNC_LIMIT: &str = "SELECT latitude(loc) AS la FROM twitter LIMIT 40";

/// `tests/drive_golden.rs`'s flaky geocoder: uniform 100–500 ms latency
/// against a 420 ms deadline, no cache, and a breaker that opens after
/// three failures, so where the clock stands at each call is part of
/// the output.
fn flaky_geocoder() -> ServiceConfig {
    ServiceConfig {
        latency: LatencyModel::Uniform(Duration::from_millis(100), Duration::from_millis(500)),
        timeout: Some(Duration::from_millis(420)),
        cache_capacity: 0,
        breaker: BreakerConfig {
            failure_threshold: 3,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        replay_overlap: Duration::from_secs(20),
        ..RetryPolicy::default()
    }
}

/// The engines a case runs.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Reference,
    /// The default engine on the full stream, like the reference.
    Fast,
    /// The default engine with its rarest filter pushed into the
    /// connection.
    FastPushdown,
}

struct EngineRun {
    result: QueryResult,
    clock: Timestamp,
}

fn run_engine(sql: &str, batch_size: usize, plan: Option<FaultPlan>, mode: Mode) -> EngineRun {
    run_engine_on(sql, batch_size, plan, mode, ServiceConfig::default())
}

fn run_engine_on(
    sql: &str,
    batch_size: usize,
    plan: Option<FaultPlan>,
    mode: Mode,
    service: ServiceConfig,
) -> EngineRun {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(corpus().clone(), Arc::clone(&clock));
    let mut b = Engine::builder(api)
        .batch_size(batch_size)
        .reference(mode == Mode::Reference)
        .push_down(mode == Mode::FastPushdown)
        .service(service);
    if let Some(p) = plan {
        b = b.fault_policy(p).retry_policy(chaos_policy());
    }
    let result = b.build().execute(sql).expect(sql);
    let notices = &result.stats.diagnostics.notices;
    assert!(
        !notices.iter().any(|n| n.contains("falling back")),
        "the optimizer fell back to the as-written plan on {sql}: {notices:?}"
    );
    EngineRun {
        result,
        clock: clock.now(),
    }
}

/// `sql` on the reference and on the default engine: everything the two
/// must agree on.
fn assert_engine_matches(sql: &str, batch_size: usize, plan: Option<FaultPlan>) {
    let reference = run_engine(sql, batch_size, plan.clone(), Mode::Reference);
    let fast = run_engine(sql, batch_size, plan.clone(), Mode::Fast);
    let tag = format!("sql={sql:?} batch={batch_size} plan={plan:?}");
    let (r, f) = (&reference.result, &fast.result);
    assert_eq!(f.schema.names(), r.schema.names(), "schema: {tag}");
    assert_eq!(f.rows, r.rows, "rows diverge: {tag}");
    assert_eq!(
        f.stats.gap_windows, r.stats.gap_windows,
        "gap windows diverge: {tag}"
    );
    assert_eq!(
        r.stats.decode,
        DecodeStats::default(),
        "row decode reports no columnar counters: {tag}"
    );
    // A LIMIT query finishes in the flush that fills it, and the pull
    // stops at the end of that flush's block. The reference cuts a flush
    // at every watermark boundary, the default engine only at a full
    // batch, so past one-tweet batches the two flushes can fall in
    // different blocks, and one engine scans, faults and clocks a block
    // more than the other.
    if !sql.contains("LIMIT") || batch_size == 1 {
        assert_eq!(f.stats.source, r.stats.source, "source stats: {tag}");
        assert_eq!(
            f.stats.source_faults, r.stats.source_faults,
            "fault stats: {tag}"
        );
        // An async UDF charges modeled latency from the clock at each
        // flush, and the reference cuts a flush at every boundary.
        if !sql.contains("itude(") {
            assert_eq!(fast.clock, reference.clock, "clock diverges: {tag}");
        }
    }
    // A fault plan rolls per delivered tweet, so only a clean stream can
    // be narrowed by pushdown and still be the same stream.
    if plan.is_none() {
        let pushed = run_engine(sql, batch_size, None, Mode::FastPushdown);
        assert_eq!(pushed.result.rows, r.rows, "pushdown changed rows: {tag}");
    }
}

#[test]
fn engine_batched_matches_per_tweet_clean() {
    for sql in FIXED {
        assert_engine_matches(sql, 256, None);
    }
}

#[test]
fn engine_batched_matches_per_tweet_under_chaos() {
    for seed in [3u64, 7, 17, 42, 99, 1234, 1337, 0xC0FFEE] {
        for sql in [FIXED[1], FIXED[10]] {
            assert_engine_matches(sql, 256, Some(FaultPlan::chaos(seed)));
        }
    }
}

#[test]
fn engine_batched_matches_at_odd_batch_sizes() {
    for batch_size in [1usize, 7, 64, 1024] {
        assert_engine_matches(FIXED[1], batch_size, Some(FaultPlan::chaos(99)));
    }
}

#[test]
fn engine_batched_matches_rows_under_limit() {
    for sql in LIMITED {
        assert_engine_matches(sql, 256, None);
        // One-tweet blocks: the source stats and clock are held too.
        assert_engine_matches(sql, 1, None);
        assert_engine_matches(sql, 1, Some(FaultPlan::chaos(42)));
    }
}

#[test]
fn engine_batched_matches_with_async_udf() {
    assert_engine_matches(ASYNC, 256, None);
}

/// A query finishes inside the flush or punctuation that fills its
/// LIMIT, so neither engine sends its async stage a row past it. At
/// batch size 1 a source block is one tweet, so both stop the pull at
/// the same tweet: the stages, the geocoder calls and the final clock
/// agree too, not only the rows.
#[test]
fn engine_batched_matches_with_async_udf_ahead_of_a_limit() {
    let run = |mode| run_engine_on(ASYNC_LIMIT, 1, None, mode, flaky_geocoder());
    let (reference, fast) = (run(Mode::Reference), run(Mode::Fast));
    let (r, f) = (&reference.result.stats, &fast.result.stats);
    assert_eq!(fast.result.rows, reference.result.rows, "rows diverge");
    let counts = |s: &tweeql::engine::QueryStats| -> Vec<(String, u64, u64)> {
        (s.stages.iter())
            .map(|(name, st)| (name.clone(), st.records_in, st.records_out))
            .collect()
    };
    assert_eq!(counts(f), counts(r), "stage counts diverge");
    assert_eq!(f.geo_requests, r.geo_requests, "geocoder requests diverge");
    assert_eq!(f.source, r.source, "source stats diverge");
    assert_eq!(fast.clock, reference.clock, "clock diverges");
}

/// At batch size 1 each engine flushes every tweet, so even a geocoder
/// whose answers depend on where the clock stands at each call answers
/// both alike, on a chaos-faulted stream too: the source moves the
/// clock the same way under both configurations, and never over tweets
/// its heal buffer still holds back.
#[test]
fn engine_batched_matches_flaky_async_udf_at_batch_one() {
    for plan in [None, Some(FaultPlan::chaos(7))] {
        let run = |mode| run_engine_on(ASYNC, 1, plan.clone(), mode, flaky_geocoder());
        let (reference, fast) = (run(Mode::Reference), run(Mode::Fast));
        let (r, f) = (&reference.result.stats, &fast.result.stats);
        let tag = format!("plan={plan:?}");
        assert_eq!(fast.result.rows, reference.result.rows, "rows: {tag}");
        assert_eq!(f.geo_requests, r.geo_requests, "geocoder requests: {tag}");
        assert_eq!(f.source, r.source, "source stats: {tag}");
        assert_eq!(f.source_faults, r.source_faults, "fault stats: {tag}");
        assert_eq!(fast.clock, reference.clock, "clock: {tag}");
    }
}

struct HostRun {
    outputs: Vec<Vec<Record>>,
    delivered: Vec<u64>,
    stats: HostStats,
    clock: Timestamp,
}

fn run_host(plan: Option<FaultPlan>, reference: bool, queries: &[&str]) -> HostRun {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(corpus().clone(), Arc::clone(&clock));
    let mut b = Engine::builder(api).reference(reference).push_down(false);
    if let Some(p) = plan {
        b = b.fault_policy(p).retry_policy(chaos_policy());
    }
    let mut host = b.build_host();
    let ids: Vec<_> = queries
        .iter()
        .map(|sql| host.register(sql).expect("registers"))
        .collect();
    // Staged pumping exercises the mid-block cursor: pump_until must
    // stop at the same tweet either way, twice, before draining.
    let delivered = vec![
        host.pump_until(Timestamp::from_mins(4)).expect("pump"),
        host.pump_until(Timestamp::from_mins(8)).expect("pump"),
        host.run_to_end().expect("drains"),
    ];
    let outputs = ids
        .into_iter()
        .map(|id| host.take_output(id).expect("output"))
        .collect();
    HostRun {
        outputs,
        delivered,
        stats: host.stats(),
        clock: clock.now(),
    }
}

fn assert_host_matches(plan: Option<FaultPlan>, queries: &[&str]) {
    let reference = run_host(plan.clone(), true, queries);
    let fast = run_host(plan.clone(), false, queries);
    let tag = format!("plan={plan:?} queries={}", queries.len());
    assert_eq!(fast.outputs, reference.outputs, "host outputs: {tag}");
    assert_eq!(fast.delivered, reference.delivered, "deliveries: {tag}");
    assert_eq!(fast.clock, reference.clock, "clock diverges: {tag}");
    // The reference plans give the filter index no needles, so every
    // row reaches every query; the fast host's index may dispatch
    // fewer. Everything else the dispatcher counts is the stream's.
    assert!(fast.stats.rows_dispatched <= reference.stats.rows_dispatched);
    let stream = |s: HostStats| HostStats {
        rows_dispatched: 0,
        rows_decoded: 0,
        rows_shared: 0,
        ..s
    };
    assert_eq!(
        stream(fast.stats),
        stream(reference.stats),
        "host stats: {tag}"
    );
}

#[test]
fn host_batched_matches_per_tweet_clean() {
    assert_host_matches(None, &FIXED[..3]);
}

#[test]
fn host_batched_matches_per_tweet_under_chaos() {
    for seed in [7u64, 1234] {
        assert_host_matches(Some(FaultPlan::chaos(seed)), &FIXED[..3]);
    }
}

/// One query takes every batch whole on both hosts, so even the
/// dispatch counters agree.
#[test]
fn host_single_query_fast_path_matches() {
    for plan in [None, Some(FaultPlan::chaos(42))] {
        let reference = run_host(plan.clone(), true, &FIXED[1..2]);
        let fast = run_host(plan, false, &FIXED[1..2]);
        assert_eq!(fast.outputs, reference.outputs);
        assert_eq!(fast.stats, reference.stats);
        assert_eq!(fast.clock, reference.clock);
    }
}

// ---- random queries over the twitter schema ----

const NEEDLES: &[&str] = &["kw", "speech", "news", "zzz", "K"];
const LANGS: &[&str] = &["en", "es", "ja"];

fn predicate(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..9) {
        0 => format!(
            "text contains '{}'",
            NEEDLES[rng.random_range(0usize..NEEDLES.len())]
        ),
        1 => {
            // OR-of-contains: the fusion rule's input shape.
            let k = rng.random_range(2usize..4);
            let parts: Vec<String> = (0..k)
                .map(|_| {
                    format!(
                        "text contains '{}'",
                        NEEDLES[rng.random_range(0usize..NEEDLES.len())]
                    )
                })
                .collect();
            format!("({})", parts.join(" OR "))
        }
        2 => format!("followers > {}", rng.random_range(0i64..400)),
        3 => format!("followers <= {}", rng.random_range(0i64..400)),
        4 => "1 = 1".into(),
        5 => "2 < 1".into(),
        6 => "lat is not null".into(),
        7 => format!("lang = '{}'", LANGS[rng.random_range(0usize..LANGS.len())]),
        _ => format!("length(text) > {}", rng.random_range(0i64..60)),
    }
}

fn random_query(rng: &mut StdRng) -> String {
    let select = [
        "text",
        "lang, followers",
        "text, followers + 1 AS f1",
        "upper(lang) AS u, lat",
    ][rng.random_range(0usize..4)];
    let n = rng.random_range(1usize..4);
    let preds: Vec<String> = (0..n).map(|_| predicate(rng)).collect();
    let tail = ["", " LIMIT 20"][rng.random_range(0usize..2)];
    format!(
        "SELECT {select} FROM twitter WHERE {}{tail}",
        preds.join(" AND ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A random conjunction over the tweet schema or a fixed query, at
    /// a random batch size, clean or chaos-faulted: the default engine
    /// always matches the reference.
    #[test]
    fn batched_source_always_matches(
        seed in 0u64..100_000,
        random in 0u8..2,
        batch_pick in 0usize..4,
        chaos in 0u8..2,
    ) {
        let sql = match random {
            1 => random_query(&mut StdRng::seed_from_u64(seed)),
            _ => FIXED[seed as usize % FIXED.len()].to_string(),
        };
        let batch_size = [1usize, 7, 64, 256][batch_pick];
        let plan = (chaos == 1).then(|| FaultPlan::chaos(seed));
        assert_engine_matches(&sql, batch_size, plan);
    }
}
