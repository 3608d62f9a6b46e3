//! Integration tests for the language features beyond the paper's
//! printed examples: HAVING, sliding windows, COUNT(DISTINCT),
//! geo-distance, and failure injection on the simulated web service.

use tweeql::engine::{Engine, EngineBuilder};
use tweeql::udf::ServiceConfig;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, Value, VirtualClock};

fn engine_with(minutes: i64, service: ServiceConfig) -> Engine {
    builder_with(minutes, service).build()
}

fn builder_with(minutes: i64, service: ServiceConfig) -> EngineBuilder {
    let mut topic = Topic::new("obama", vec!["obama"], 40.0);
    topic.sentiment_bias = 0.2;
    let scenario = Scenario {
        name: "lang-ext".into(),
        duration: Duration::from_mins(minutes),
        background_rate_per_min: 80.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate: 0.2,
        population_size: 800,
    };
    let api = StreamingApi::new(generate(&scenario, 77), VirtualClock::new());
    Engine::builder(api).service(service)
}

fn engine(minutes: i64) -> Engine {
    engine_with(
        minutes,
        ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(50)),
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn having_filters_groups() {
    let mut e = engine(10);
    let all = e
        .execute("SELECT lang, count(*) AS c FROM twitter GROUP BY lang")
        .unwrap();
    let mut filtered_engine = engine(10);
    let filtered = filtered_engine
        .execute("SELECT lang, count(*) AS c FROM twitter GROUP BY lang HAVING count(*) > 200")
        .unwrap();
    assert!(filtered.rows.len() < all.rows.len());
    assert!(!filtered.rows.is_empty());
    for row in &filtered.rows {
        assert!(row.get("c").unwrap().as_int().unwrap() > 200);
    }
    // Every surviving group exists in the unfiltered result with the
    // same count.
    for row in &filtered.rows {
        let lang = row.get("lang").unwrap().clone();
        let c = row.get("c").unwrap().clone();
        assert!(all
            .rows
            .iter()
            .any(|r| r.get("lang").unwrap() == &lang && r.get("c").unwrap() == &c));
    }
}

#[test]
fn having_can_use_aggregates_not_in_select() {
    let mut e = engine(10);
    let r = e
        .execute("SELECT lang FROM twitter GROUP BY lang HAVING avg(followers) > 10")
        .unwrap();
    assert!(!r.rows.is_empty());
    assert_eq!(r.schema.names(), vec!["lang"]);
}

/// Aggregates and GROUP BY key expressions under `IN`, `IS [NOT] NULL`
/// and `contains` map onto the aggregate's output like anywhere else:
/// both configurations plan each query, agree on its rows, and match a
/// form that does not nest them.
#[test]
fn aggregates_and_keys_nest_under_in_is_null_and_contains() {
    let run = |sql: &str, reference: bool| {
        builder_with(10, ServiceConfig::default())
            .reference(reference)
            .build()
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .rows
    };
    for (nested, plain) in [
        (
            "SELECT lang, count(*) AS n FROM twitter GROUP BY lang \
             HAVING count(*) IN (1, 2, 3) WINDOW 2 minutes",
            "SELECT lang, count(*) AS n FROM twitter GROUP BY lang \
             HAVING count(*) >= 1 AND count(*) <= 3 WINDOW 2 minutes",
        ),
        (
            "SELECT lang, count(*) AS n FROM twitter GROUP BY lang \
             HAVING avg(followers) IS NOT NULL WINDOW 2 minutes",
            "SELECT lang, count(*) AS n FROM twitter GROUP BY lang \
             HAVING avg(followers) = avg(followers) WINDOW 2 minutes",
        ),
        (
            "SELECT upper(lang) AS u, count(*) AS n FROM twitter GROUP BY u \
             HAVING upper(lang) contains 'E' WINDOW 2 minutes",
            "SELECT upper(lang) AS u, count(*) AS n FROM twitter GROUP BY u \
             HAVING u contains 'E' WINDOW 2 minutes",
        ),
        (
            "SELECT lang, count(*) IS NULL AS z FROM twitter GROUP BY lang WINDOW 2 minutes",
            "SELECT lang, count(*) < 0 AS z FROM twitter GROUP BY lang WINDOW 2 minutes",
        ),
    ] {
        let fast = run(nested, false);
        assert!(!fast.is_empty(), "{nested} selects nothing");
        assert_eq!(fast, run(nested, true), "{nested}");
        assert_eq!(fast, run(plain, false), "{nested}");
    }
}

/// An async UDF called only inside HAVING is hoisted before the
/// aggregate like one in SELECT: both configurations plan the query
/// and agree on its rows.
#[test]
fn async_udf_only_in_having_runs_before_the_aggregate() {
    let sql = "SELECT lang, count(*) AS n FROM twitter GROUP BY lang \
               HAVING avg(latitude(loc)) > 0 WINDOW 5 minutes";
    let run = |reference: bool| {
        builder_with(10, ServiceConfig::default())
            .reference(reference)
            .build()
            .execute(sql)
            .unwrap_or_else(|e| panic!("reference({reference}): {e}"))
            .rows
    };
    let fast = run(false);
    assert!(!fast.is_empty(), "{sql} selects nothing");
    assert_eq!(fast, run(true));
}

#[test]
fn having_without_group_by_rejected() {
    let mut e = engine(5);
    let err = e
        .execute("SELECT text FROM twitter HAVING followers > 10")
        .unwrap_err();
    assert!(err.to_string().contains("HAVING"), "{err}");
}

#[test]
fn sliding_windows_overlap() {
    // 10-minute window sliding by 5: each tweet is counted in exactly
    // two windows, so the window-count total is ~2× the tweet count.
    let mut e = engine(30);
    let tumbling = e
        .execute("SELECT count(*) FROM twitter WHERE text contains 'obama' WINDOW 10 minutes")
        .unwrap();
    let total_tumbling: i64 = tumbling
        .rows
        .iter()
        .map(|r| r.value(0).as_int().unwrap())
        .sum();

    let mut e2 = engine(30);
    let sliding = e2
        .execute(
            "SELECT count(*) FROM twitter WHERE text contains 'obama' \
             WINDOW 10 minutes SLIDE 5 minutes",
        )
        .unwrap();
    let total_sliding: i64 = sliding
        .rows
        .iter()
        .map(|r| r.value(0).as_int().unwrap())
        .sum();

    assert!(sliding.rows.len() > tumbling.rows.len());
    // Every tweet lands in exactly 2 overlapping windows (edge windows
    // at stream start/end cover slightly less).
    assert!(
        (total_sliding as f64) > 1.7 * total_tumbling as f64,
        "sliding {total_sliding} vs tumbling {total_tumbling}"
    );
    assert!(
        (total_sliding as f64) <= 2.0 * total_tumbling as f64 + 1.0,
        "sliding {total_sliding} vs tumbling {total_tumbling}"
    );
}

#[test]
fn slide_equal_to_window_is_tumbling() {
    let mut e = engine(20);
    let a = e
        .execute("SELECT count(*) FROM twitter WINDOW 5 minutes")
        .unwrap();
    let mut e2 = engine(20);
    let b = e2
        .execute("SELECT count(*) FROM twitter WINDOW 5 minutes SLIDE 5 minutes")
        .unwrap();
    let sum = |r: &tweeql::engine::QueryResult| -> i64 {
        r.rows
            .iter()
            .map(|row| row.value(0).as_int().unwrap())
            .sum()
    };
    assert_eq!(sum(&a), sum(&b));
}

#[test]
fn slide_longer_than_window_rejected() {
    let mut e = engine(5);
    assert!(e
        .execute("SELECT count(*) FROM twitter WINDOW 1 minutes SLIDE 5 minutes")
        .is_err());
}

#[test]
fn count_distinct_in_sql() {
    let mut e = engine(10);
    let r = e
        .execute(
            "SELECT count(*) AS total, count(distinct screen_name) AS authors \
             FROM twitter WHERE text contains 'obama'",
        )
        .unwrap();
    let total = r.rows[0].get("total").unwrap().as_int().unwrap();
    let authors = r.rows[0].get("authors").unwrap().as_int().unwrap();
    assert!(authors > 10);
    assert!(authors < total, "authors {authors} vs total {total}");
}

#[test]
fn distance_km_in_queries() {
    let mut e = engine(10);
    // Distance of each geotagged tweet from Times Square.
    let r = e
        .execute(
            "SELECT distance_km(lat, lon, 40.758, -73.985) AS d \
             FROM twitter WHERE lat is not null LIMIT 50",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    for v in r.column("d").unwrap() {
        let d = v.as_float().unwrap();
        assert!((0.0..=20_100.0).contains(&d));
    }
}

#[test]
fn transient_service_failures_degrade_to_null_not_crash() {
    let mut e = engine_with(
        5,
        ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            failure_rate: 0.4,
            cache_capacity: 0, // make every call hit the flaky remote
            max_batch: 1,
            ..ServiceConfig::default()
        },
    );
    let r = e
        .execute("SELECT latitude(loc), loc FROM twitter WHERE text contains 'obama'")
        .unwrap();
    let lats = r.column("latitude").unwrap();
    let nulls = lats.iter().filter(|v| v.is_null()).count();
    let resolved = lats.len() - nulls;
    // The query completes; failures surface as NULLs alongside
    // successes.
    assert!(resolved > 0, "some calls succeed");
    assert!(
        nulls > lats.len() / 4,
        "failures visible: {nulls}/{}",
        lats.len()
    );
}

#[test]
fn topk_aggregate_finds_popular_links() {
    // The Popular Links panel as one SQL aggregate: bounded-memory
    // SpaceSaving heavy hitters over extracted URLs.
    let scenario = {
        let mut topic = tweeql_firehose::scenario::Topic::new("quake", vec!["quake"], 40.0);
        topic.phrases = vec!["big one".into()];
        Scenario {
            name: "topk".into(),
            duration: Duration::from_mins(15),
            background_rate_per_min: 60.0,
            topics: vec![topic],
            bursts: vec![tweeql_firehose::scenario::Burst {
                topic: 0,
                label: "news".into(),
                start: tweeql_model::Timestamp::from_mins(5),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(5),
                peak_multiplier: 8.0,
                phrases: vec!["usgs report".into()],
                sentiment_bias: 0.0,
                url: Some("http://usgs.gov/big-one".into()),
            }],
            geotag_rate: 0.0,
            population_size: 400,
        }
    };
    let api = StreamingApi::new(generate(&scenario, 3), VirtualClock::new());
    let mut e = Engine::builder(api).build();
    let r = e
        .execute(
            "SELECT topk(urls(text), 3) AS links, count(*)              FROM twitter WHERE text contains 'quake'",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    match r.rows[0].get("links").unwrap() {
        Value::List(items) => {
            assert!(!items.is_empty());
            assert!(items.len() <= 3);
            // The scripted burst URL dominates organic t.co noise.
            assert_eq!(
                items[0],
                Value::from("http://usgs.gov/big-one"),
                "{items:?}"
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn topk_per_group_with_windows() {
    let mut e = engine(20);
    let r = e
        .execute(
            "SELECT lang, topk(first(hashtags(text)), 2)              FROM twitter GROUP BY lang WINDOW 10 minutes",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
}

#[test]
fn sliding_window_with_group_by() {
    let mut e = engine(20);
    let r = e
        .execute(
            "SELECT lang, count(*) FROM twitter \
             GROUP BY lang WINDOW 10 minutes SLIDE 5 minutes",
        )
        .unwrap();
    assert!(r.rows.len() > 4);
    // Values present for the dominant languages.
    let langs = r.column("lang").unwrap();
    assert!(langs.iter().any(|v| v == &Value::from("en")));
}

/// An AND or OR chain is one level toward the parser's depth cap,
/// however long: an OR of 1,000 `contains` and an AND of 200
/// comparisons parse, check, plan and run, and return the rows of their
/// live operands alone.
#[test]
fn wide_boolean_chains_run_like_their_live_operands() {
    let rows = |sql: &str| engine(10).execute(sql).unwrap().rows;
    let needles: Vec<String> = (0..999)
        .map(|i| format!("text contains 'zqxneedle{i:04}'"))
        .collect();
    let wide_or = format!(
        "SELECT text FROM twitter WHERE {} OR text contains 'obama'",
        needles.join(" OR ")
    );
    let obama = rows("SELECT text FROM twitter WHERE text contains 'obama'");
    assert!(!obama.is_empty());
    assert_eq!(rows(&wide_or), obama);
    let bounds: Vec<String> = (0..200).map(|i| format!("followers > {}", -i)).collect();
    let wide_and = format!("SELECT text FROM twitter WHERE {}", bounds.join(" AND "));
    assert_eq!(
        rows(&wide_and),
        rows("SELECT text FROM twitter WHERE followers > 0")
    );
}
