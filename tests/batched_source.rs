//! Differential suite for zero-copy batched source delivery.
//!
//! The batched path (`SourceBatch` → `SourceBlock` → shared-view
//! `TweetBatch`) must be byte-identical to the per-tweet facade it
//! replaced: same output rows, same `ConnectionStats`, same supervisor
//! fault stats and gap windows, same final virtual clock — across
//! seeds and chaos `FaultPlan`s, for both the engine and the
//! standing-query host. The per-tweet path stays available
//! behind `batched_source(false)` as the reference implementation.
//!
//! The fixed-seed tests are what CI runs; the proptest sweeps a wider
//! seed × batch-size space.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use tweeql::engine::{Engine, QueryResult};
use tweeql::exec::supervise::RetryPolicy;
use tweeql::host::HostStats;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_model::{Clock, Duration, Record, Timestamp, Tweet, VirtualClock};

fn corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let s = Scenario {
            name: "batched-source".into(),
            duration: Duration::from_mins(12),
            background_rate_per_min: 110.0,
            topics: vec![Topic::new("kw", vec!["kw"], 50.0)],
            bursts: vec![],
            geotag_rate: 0.4,
            population_size: 400,
        };
        generate(&s, 90210)
    })
}

/// Queries that exercise the paths the source feeds: plain
/// filter+project, a windowed aggregate (time-sensitive, watermark
/// driven), and a UDF projection.
const FULL_STREAM_QUERIES: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw'",
    "SELECT count(*) AS n, lang FROM twitter \
     WHERE text contains 'kw' GROUP BY lang WINDOW 2 minutes",
    "SELECT sentiment(text) AS s, followers FROM twitter WHERE followers > 2000",
];

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        replay_overlap: Duration::from_secs(20),
        ..RetryPolicy::default()
    }
}

struct EngineRun {
    result: QueryResult,
    clock: Timestamp,
}

fn run_engine(sql: &str, batch_size: usize, plan: Option<FaultPlan>, batched: bool) -> EngineRun {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(corpus().clone(), Arc::clone(&clock));
    let mut b = Engine::builder(api)
        .batch_size(batch_size)
        .batched_source(batched);
    if let Some(p) = plan {
        b = b.fault_policy(p).retry_policy(chaos_policy());
    }
    let result = b.build().execute(sql).expect("query runs");
    EngineRun {
        result,
        clock: clock.now(),
    }
}

/// Engine-level comparison: rows, source stats, fault stats, gap
/// windows, and the final clock must all match.
fn assert_engine_identical(sql: &str, batch_size: usize, plan: Option<FaultPlan>) {
    let per_tweet = run_engine(sql, batch_size, plan.clone(), false);
    let batched = run_engine(sql, batch_size, plan.clone(), true);
    let tag = format!("sql={sql:?} batch={batch_size} plan={plan:?}");
    assert_eq!(
        batched.result.rows, per_tweet.result.rows,
        "rows diverge: {tag}"
    );
    assert_eq!(
        batched.result.stats.source, per_tweet.result.stats.source,
        "source stats diverge: {tag}"
    );
    assert_eq!(
        batched.result.stats.source_faults, per_tweet.result.stats.source_faults,
        "fault stats diverge: {tag}"
    );
    assert_eq!(
        batched.result.stats.gap_windows, per_tweet.result.stats.gap_windows,
        "gap windows diverge: {tag}"
    );
    assert_eq!(batched.clock, per_tweet.clock, "clock diverges: {tag}");
}

#[test]
fn engine_batched_matches_per_tweet_clean() {
    for sql in FULL_STREAM_QUERIES {
        assert_engine_identical(sql, 256, None);
    }
}

#[test]
fn engine_batched_matches_per_tweet_under_chaos() {
    for seed in [7u64, 42, 1234] {
        assert_engine_identical(FULL_STREAM_QUERIES[1], 256, Some(FaultPlan::chaos(seed)));
    }
}

#[test]
fn engine_batched_matches_at_odd_batch_sizes() {
    for batch_size in [1usize, 7, 1024] {
        assert_engine_identical(
            FULL_STREAM_QUERIES[1],
            batch_size,
            Some(FaultPlan::chaos(99)),
        );
    }
}

/// LIMIT exits the stream early; the batched source legitimately scans
/// ahead of the per-tweet path (pull granularity), so only the output
/// rows are pinned here.
#[test]
fn engine_batched_matches_rows_under_limit() {
    let sql = "SELECT text FROM twitter WHERE text contains 'kw' LIMIT 25";
    let per_tweet = run_engine(sql, 256, None, false);
    let batched = run_engine(sql, 256, None, true);
    assert_eq!(batched.result.rows, per_tweet.result.rows);
}

/// The async geo UDF charges modeled latency to the shared clock; the
/// lazy batched clock protocol must accrue it from identical bases.
#[test]
fn engine_batched_matches_with_async_udf() {
    let sql = "SELECT latitude(loc) AS la, longitude(loc) AS lo \
               FROM twitter WHERE text contains 'kw'";
    assert_engine_identical(sql, 256, None);
}

struct HostRun {
    outputs: Vec<Vec<Record>>,
    delivered: Vec<u64>,
    stats: HostStats,
    clock: Timestamp,
}

fn run_host(plan: Option<FaultPlan>, batched: bool, queries: &[&str]) -> HostRun {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(corpus().clone(), Arc::clone(&clock));
    let mut b = Engine::builder(api)
        .batched_source(batched)
        .push_down(false);
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

fn assert_host_identical(plan: Option<FaultPlan>, queries: &[&str]) {
    let per_tweet = run_host(plan.clone(), false, queries);
    let batched = run_host(plan.clone(), true, queries);
    let tag = format!("plan={plan:?} queries={}", queries.len());
    assert_eq!(
        batched.outputs, per_tweet.outputs,
        "host outputs diverge: {tag}"
    );
    assert_eq!(
        batched.delivered, per_tweet.delivered,
        "per-stage delivery counts diverge: {tag}"
    );
    assert_eq!(batched.stats, per_tweet.stats, "host stats diverge: {tag}");
    assert_eq!(batched.clock, per_tweet.clock, "clock diverges: {tag}");
}

#[test]
fn host_batched_matches_per_tweet_clean() {
    assert_host_identical(None, FULL_STREAM_QUERIES);
}

#[test]
fn host_batched_matches_per_tweet_under_chaos() {
    for seed in [7u64, 1234] {
        assert_host_identical(Some(FaultPlan::chaos(seed)), FULL_STREAM_QUERIES);
    }
}

/// The single-query fast path dispatches whole shared batches without
/// the prefilter/row-cache machinery; it must stay output- and
/// stats-identical between source modes too.
#[test]
fn host_single_query_fast_path_matches() {
    for plan in [None, Some(FaultPlan::chaos(42))] {
        assert_host_identical(plan, &FULL_STREAM_QUERIES[1..2]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seed × batch size × chaos: batched delivery is
    /// always byte-identical to the per-tweet reference.
    #[test]
    fn batched_source_always_matches(
        seed in 0u64..500,
        batch_pick in 0usize..4,
        chaos in 0u8..2,
    ) {
        let batch_size = [1usize, 7, 64, 256][batch_pick];
        let plan = (chaos == 1).then(|| FaultPlan::chaos(seed));
        let per_tweet = run_engine(FULL_STREAM_QUERIES[1], batch_size, plan.clone(), false);
        let batched = run_engine(FULL_STREAM_QUERIES[1], batch_size, plan, true);
        prop_assert_eq!(batched.result.rows, per_tweet.result.rows);
        prop_assert_eq!(batched.result.stats.source, per_tweet.result.stats.source);
        prop_assert_eq!(
            batched.result.stats.source_faults,
            per_tweet.result.stats.source_faults
        );
        prop_assert_eq!(batched.clock, per_tweet.clock);
    }
}
