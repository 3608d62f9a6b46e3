//! Chaos tests for the fault-tolerance subsystem: a seeded [`FaultPlan`]
//! over a replay corpus must yield the same aggregate rows as the
//! fault-free run — modulo windows the supervisor flagged as
//! under-sampled.
//!
//! The `chaos_smoke_*` tests run three fixed seeds and are what CI's
//! `chaos-smoke` job executes; the proptest sweeps a wider seed range.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use tweeql::engine::{Engine, QueryResult};
use tweeql::exec::supervise::RetryPolicy;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_geo::breaker::BreakerConfig;
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, Timestamp, Tweet, VirtualClock};

const WINDOW_MINS: i64 = 2;
const SQL: &str = "SELECT count(*) AS n, lang FROM twitter \
                   WHERE text contains 'kw' GROUP BY lang WINDOW 2 minutes";

fn corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let s = Scenario {
            name: "fault-tolerance".into(),
            duration: Duration::from_mins(16),
            background_rate_per_min: 90.0,
            topics: vec![Topic::new("kw", vec!["kw"], 45.0)],
            bursts: vec![],
            geotag_rate: 0.0,
            population_size: 500,
        };
        generate(&s, 4242)
    })
}

/// Group aggregate output rows by their tumbling window start; each
/// window maps to a sorted multiset of rendered rows.
fn by_window(result: &QueryResult) -> BTreeMap<Timestamp, Vec<String>> {
    let window = Duration::from_mins(WINDOW_MINS);
    let mut map: BTreeMap<Timestamp, Vec<String>> = BTreeMap::new();
    for row in &result.rows {
        let rendered = row
            .values()
            .iter()
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
            .join("|");
        map.entry(row.timestamp().truncate(window))
            .or_default()
            .push(rendered);
    }
    for rows in map.values_mut() {
        rows.sort();
    }
    map
}

fn run_plain() -> QueryResult {
    let api = StreamingApi::new(corpus().clone(), VirtualClock::new());
    let mut engine = Engine::builder(api).build();
    engine.execute(SQL).expect("fault-free query runs")
}

fn run_chaos(seed: u64, replay_overlap: Duration) -> QueryResult {
    let api = StreamingApi::new(corpus().clone(), VirtualClock::new());
    let mut engine = Engine::builder(api)
        .fault_policy(FaultPlan::chaos(seed))
        .retry_policy(RetryPolicy {
            replay_overlap,
            ..RetryPolicy::default()
        })
        .build();
    engine.execute(SQL).expect("chaos query completes")
}

/// Assert the faulted run matches the baseline on every window the
/// supervisor did not flag as under-sampled.
fn assert_equivalent_modulo_gaps(baseline: &QueryResult, faulted: &QueryResult, ctx: &str) {
    let window = Duration::from_mins(WINDOW_MINS);
    let flagged: Vec<Timestamp> = faulted
        .stats
        .gap_windows
        .iter()
        .map(|t| t.truncate(window))
        .collect();
    let mut base = by_window(baseline);
    let mut chaos = by_window(faulted);
    for t in &flagged {
        base.remove(t);
        chaos.remove(t);
    }
    assert_eq!(
        base, chaos,
        "{ctx}: non-gap windows diverged (flagged: {flagged:?})"
    );
}

/// One full chaos comparison: fault-free baseline vs a seeded chaos run,
/// with and without replay overlap.
fn chaos_round(seed: u64) {
    let baseline = run_plain();
    // Generous overlap: every disconnect is fully replayed, so the
    // output must match the baseline exactly — no flagged windows.
    let healed = run_chaos(seed, Duration::from_mins(30));
    assert!(
        healed.stats.gap_windows.is_empty(),
        "seed {seed}: generous overlap still left gaps"
    );
    assert_equivalent_modulo_gaps(&baseline, &healed, &format!("seed {seed} healed"));

    // No overlap: disconnect backoff opens real coverage gaps; the
    // supervisor must flag every affected window, and everything
    // outside those windows must still match.
    let gappy = run_chaos(seed, Duration::ZERO);
    assert_equivalent_modulo_gaps(&baseline, &gappy, &format!("seed {seed} gappy"));
    let faults = &gappy.stats.source_faults;
    if faults.disconnects > 0 {
        assert_eq!(
            faults.reconnects, faults.disconnects,
            "seed {seed}: supervisor did not reconnect every drop"
        );
    }
}

#[test]
fn chaos_smoke_seed_a() {
    chaos_round(0xC0FFEE);
}

#[test]
fn chaos_smoke_seed_b() {
    chaos_round(1337);
}

#[test]
fn chaos_smoke_seed_c() {
    chaos_round(99);
}

/// A join reads the one supervised connection like every other query:
/// its disconnects show in its stats, and a fully replayed run joins the
/// same pairs as the fault-free one.
#[test]
fn join_under_chaos_is_supervised() {
    let sql = "SELECT id, id_r FROM twitter JOIN twitter ON screen_name = screen_name \
               WINDOW 30 seconds";
    let pairs = |r: &QueryResult| {
        let mut v: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| {
                (
                    row.value(0).as_int().unwrap(),
                    row.value(1).as_int().unwrap(),
                )
            })
            .collect();
        v.sort_unstable();
        v
    };
    let run = |fault: Option<FaultPlan>| {
        let api = StreamingApi::new(corpus().clone(), VirtualClock::new());
        let mut b = Engine::builder(api).retry_policy(RetryPolicy {
            replay_overlap: Duration::from_mins(30),
            ..RetryPolicy::default()
        });
        if let Some(f) = fault {
            b = b.fault_policy(f);
        }
        b.build().execute(sql).expect("join runs")
    };
    let clean = run(None);
    let chaos = run(Some(FaultPlan::chaos(7)));
    let faults = &chaos.stats.source_faults;
    assert!(
        faults.disconnects > 0,
        "no disconnects reported: {faults:?}"
    );
    assert_eq!(faults.reconnects, faults.disconnects);
    assert_eq!(chaos.stats.stages[0].0, "join");
    assert!(!clean.rows.is_empty());
    assert_eq!(
        pairs(&chaos),
        pairs(&clean),
        "healed chaos changed the join"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed's chaos run agrees with the fault-free baseline on
    /// non-flagged windows.
    #[test]
    fn chaos_equivalence_over_seeds(seed in 0u64..10_000) {
        let baseline = run_plain();
        let gappy = run_chaos(seed, Duration::ZERO);
        let window = Duration::from_mins(WINDOW_MINS);
        let flagged: Vec<Timestamp> = gappy
            .stats
            .gap_windows
            .iter()
            .map(|t| t.truncate(window))
            .collect();
        let mut base = by_window(&baseline);
        let mut chaos = by_window(&gappy);
        for t in &flagged {
            base.remove(t);
            chaos.remove(t);
        }
        prop_assert_eq!(base, chaos);
    }
}

/// The ISSUE acceptance scenario: the E1 dashboard workload (the soccer
/// match firehose behind Figure 1) under ≥5 injected disconnects and a
/// ~20% geocode timeout rate. The engine must finish without panicking,
/// resume the pushed-down keyword filter across reconnects, surface
/// breaker transitions through `OpStats`, and agree with the fault-free
/// baseline on all non-gap windows.
#[test]
fn e1_dashboard_workload_survives_disconnects_and_geocode_timeouts() {
    let tweets: &'static Vec<Tweet> = {
        static E1: OnceLock<Vec<Tweet>> = OnceLock::new();
        E1.get_or_init(|| generate(&scenarios::soccer_match(), 42))
    };
    let pred = "text contains 'soccer' OR text contains 'liverpool' \
                OR text contains 'manchester'";
    let timeline_sql = format!("SELECT count(*) AS n FROM twitter WHERE {pred} WINDOW 2 minutes");
    // Uniform(100, 500) ms latency with a 420 ms deadline: 20% of
    // geocode requests time out.
    let flaky_geo = ServiceConfig {
        latency: LatencyModel::Uniform(Duration::from_millis(100), Duration::from_millis(500)),
        timeout: Some(Duration::from_millis(420)),
        cache_capacity: 0,
        breaker: BreakerConfig {
            failure_threshold: 3,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let plan = FaultPlan {
        disconnect_rate: 0.003,
        max_disconnects: 7,
        ..FaultPlan::chaos(7)
    };

    // Part 1: timeline aggregate (the dashboard's peak feed) matches
    // the fault-free baseline on non-gap windows.
    let window = Duration::from_mins(2);
    let baseline = {
        let api = StreamingApi::new(tweets.clone(), VirtualClock::new());
        Engine::builder(api)
            .build()
            .execute(&timeline_sql)
            .expect("baseline timeline")
    };
    let api = StreamingApi::new(tweets.clone(), VirtualClock::new());
    let mut engine = Engine::builder(api).fault_policy(plan.clone()).build();
    let faulted = engine.execute(&timeline_sql).expect("faulted timeline");
    let faults = &faulted.stats.source_faults;
    assert!(
        faults.disconnects >= 5,
        "only {} disconnects injected",
        faults.disconnects
    );
    assert_eq!(faults.reconnects, faults.disconnects, "reconnect count");
    // The reconnects resubscribed the pushed-down keyword filter.
    assert!(
        faulted.stats.pushdown.contains("track"),
        "pushdown lost: {}",
        faulted.stats.pushdown
    );
    let flagged: Vec<Timestamp> = faulted
        .stats
        .gap_windows
        .iter()
        .map(|t| t.truncate(window))
        .collect();
    let mut base = by_window(&baseline);
    let mut chaos = by_window(&faulted);
    for t in &flagged {
        base.remove(t);
        chaos.remove(t);
    }
    assert_eq!(base, chaos, "non-gap windows diverged");

    // Part 2: the geocoding leg of the dashboard under the same fault
    // plan plus the flaky service — breaker transitions must show up in
    // per-stage OpStats and the degradation must be reported.
    let api = StreamingApi::new(tweets.clone(), VirtualClock::new());
    let mut engine = Engine::builder(api)
        .service(flaky_geo)
        .fault_policy(plan)
        .build();
    let geo = engine
        .execute(&format!(
            "SELECT latitude(loc) AS lat, longitude(loc) AS lon \
             FROM twitter WHERE {pred}"
        ))
        .expect("geocode query completes despite timeouts");
    assert!(!geo.rows.is_empty());
    let health = geo
        .stats
        .stages
        .iter()
        .filter_map(|(_, s)| s.health)
        .next()
        .expect("geocode stage surfaces service health");
    assert!(health.timeouts > 0, "no timeouts at 20% rate: {health:?}");
    assert!(
        health.breaker_opens >= 1,
        "breaker never tripped: {health:?}"
    );
    assert!(health.degraded_rows > 0, "no degraded rows: {health:?}");
    assert!(
        geo.stats
            .diagnostics
            .notices
            .iter()
            .any(|n| n.contains("circuit")),
        "degradation notice missing: {:?}",
        geo.stats.diagnostics.notices
    );
}
