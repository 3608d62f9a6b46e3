//! Integration tests: the three queries printed in §2 of the paper,
//! run end-to-end (parser → planner → pushdown choice → operators →
//! web-service UDFs) over a synthetic firehose.

use tweeql::engine::Engine;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Clock, Duration, Value, VirtualClock};

fn obama_engine(minutes: i64) -> Engine {
    let mut topic = Topic::new("obama", vec!["obama"], 40.0);
    topic.sentiment_bias = 0.25;
    topic.hotspot_cities = vec!["New York".into(), "Washington".into()];
    topic.hotspot_boost = 3.0;
    let scenario = Scenario {
        name: "integration".into(),
        duration: Duration::from_mins(minutes),
        background_rate_per_min: 120.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate: 0.25,
        population_size: 1200,
    };
    let api = StreamingApi::new(generate(&scenario, 1234), VirtualClock::new());
    Engine::builder(api)
        .service(ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(150)),
            ..ServiceConfig::default()
        })
        .build()
}

#[test]
fn paper_query_1_sentiment_and_geocode() {
    let mut engine = obama_engine(10);
    let result = engine
        .execute(
            "SELECT sentiment(text), latitude(loc), longitude(loc) \
             FROM twitter WHERE text contains 'obama';",
        )
        .expect("query runs");

    assert_eq!(
        result.schema.names(),
        vec!["sentiment", "latitude", "longitude"]
    );
    assert!(result.rows.len() > 200, "rows = {}", result.rows.len());

    // Sentiment values are exactly the UDF's codomain.
    for v in result.column("sentiment").unwrap() {
        match v {
            Value::Float(f) => assert!(f == 1.0 || f == -1.0 || f == 0.0),
            other => panic!("unexpected sentiment {other:?}"),
        }
    }
    // A decent share of profile locations geocode; the rest are NULL.
    let lats = result.column("latitude").unwrap();
    let resolved = lats.iter().filter(|v| !v.is_null()).count();
    assert!(
        resolved * 3 > lats.len(),
        "resolved = {resolved}/{}",
        lats.len()
    );
    // Caching collapsed repeated locations into few remote requests.
    assert!(result.stats.geo_requests > 0);
    assert!(
        (result.stats.geo_requests as usize) < result.rows.len() / 2,
        "requests = {}",
        result.stats.geo_requests
    );
    assert!(result.stats.geo_cache.hit_rate() > 0.5);
}

#[test]
fn paper_query_2_pushes_down_the_rarer_filter() {
    let mut engine = obama_engine(10);
    let result = engine
        .execute(
            "SELECT text FROM twitter \
             WHERE text contains 'obama' AND location in [bounding box for NYC];",
        )
        .expect("query runs");

    // The paper's point: TweeQL samples both filters and pushes the
    // rarer one — the NYC geotag box, not the hot keyword.
    assert!(
        result.stats.pushdown.contains("locations(nyc)"),
        "pushdown = {}",
        result.stats.pushdown
    );
    // Both conjuncts still hold on every output row.
    assert!(!result.rows.is_empty());
    for row in &result.rows {
        assert!(row.value(0).to_string().to_lowercase().contains("obama"));
    }
}

#[test]
fn paper_query_3_windowed_geo_buckets() {
    let mut engine = obama_engine(30);
    let result = engine
        .execute(
            "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, \
             floor(longitude(loc)) AS long \
             FROM twitter WHERE text contains 'obama' \
             GROUP BY lat, long WINDOW 10 minutes;",
        )
        .expect("query runs");

    assert_eq!(result.schema.names(), vec!["avg", "lat", "long"]);
    assert!(result.rows.len() > 5, "buckets = {}", result.rows.len());
    // Hotspot: a (40, -75)-ish bucket must exist (NYC-boosted topic).
    let lats = result.column("lat").unwrap();
    assert!(
        lats.iter()
            .any(|v| matches!(v, Value::Float(f) if (*f - 40.0).abs() < 1.5)),
        "no NYC bucket in {lats:?}"
    );
    // Averages are proper fractions of the sentiment codomain.
    for v in result.column("avg").unwrap() {
        if let Value::Float(f) = v {
            assert!((-1.0..=1.0).contains(&f), "avg = {f}");
        }
    }
}

/// Golden EXPLAIN output: the optimizer annotates the plan with one
/// attribution line per applied rule, naming what each static analysis
/// did to the paper's queries.
#[test]
fn explain_shows_rule_attribution_for_paper_queries() {
    let engine = obama_engine(5);

    let q1 = engine
        .explain(
            "SELECT sentiment(text), latitude(loc), longitude(loc) \
             FROM twitter WHERE text contains 'obama'",
        )
        .unwrap();
    assert!(
        q1.plan
            .contains("rule pushdown-filter: 1 connection-filter candidate(s): track(obama)"),
        "{}",
        q1.plan
    );

    let q2 = engine
        .explain(
            "SELECT text FROM twitter \
             WHERE text contains 'obama' AND location in [bounding box for NYC]",
        )
        .unwrap();
    assert!(q2.plan.contains("rule pushdown-filter:"), "{}", q2.plan);
    assert!(q2.plan.contains("track(obama)"), "{}", q2.plan);
    assert!(q2.plan.contains("locations(nyc)"), "{}", q2.plan);
    assert!(
        q2.plan
            .contains("rule order-conjuncts: 2 conjuncts cost-ordered"),
        "{}",
        q2.plan
    );

    let q3 = engine
        .explain(
            "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, \
             floor(longitude(loc)) AS long \
             FROM twitter WHERE text contains 'obama' \
             GROUP BY lat, long WINDOW 10 minutes",
        )
        .unwrap();
    assert!(q3.plan.contains("rule pushdown-filter:"), "{}", q3.plan);
}

#[test]
fn queries_advance_stream_time_deterministically() {
    let mut engine = obama_engine(10);
    let clock = engine.clock();
    let r1 = engine
        .execute("SELECT count(*) FROM twitter")
        .expect("runs");
    assert_eq!(r1.rows.len(), 1);
    let n1 = r1.rows[0].value(0).as_int().unwrap();
    // The stream clock advanced through the full 10 minutes.
    assert!(clock.now() >= tweeql_model::Timestamp::from_mins(9));

    // Rebuilding the same engine reproduces the same count.
    let mut engine2 = obama_engine(10);
    let r2 = engine2.execute("SELECT count(*) FROM twitter").unwrap();
    assert_eq!(n1, r2.rows[0].value(0).as_int().unwrap());
}

/// The windowed self-join against a brute-force nested-loop join over
/// the log: as multisets, every `(id, id_r)` pair with equal non-null
/// keys and |Δt| ≤ w, each tweet paired with itself too.
#[test]
fn windowed_self_join_matches_a_nested_loop_over_the_log() {
    for (seed, population, w) in [(99u64, 300usize, 60i64), (7, 200, 30), (3, 100, 120)] {
        let scenario = Scenario {
            name: "self-join".into(),
            duration: Duration::from_mins(20),
            background_rate_per_min: 120.0,
            topics: vec![Topic::new("obama", vec!["obama"], 40.0)],
            bursts: vec![],
            geotag_rate: 0.3,
            population_size: population,
        };
        let log = generate(&scenario, seed);
        let api = StreamingApi::new(log.clone(), VirtualClock::new());
        let window = Duration::from_secs(w);
        let mut oracle = Vec::new();
        for l in &log {
            for r in &log {
                let near = l.created_at.since(r.created_at) <= window
                    && r.created_at.since(l.created_at) <= window;
                if near && l.user.screen_name == r.user.screen_name {
                    oracle.push((l.id as i64, r.id as i64));
                }
            }
        }
        let sql = format!(
            "SELECT id, id_r FROM twitter JOIN twitter ON screen_name = screen_name \
             WINDOW {w} seconds"
        );
        let result = Engine::builder(api)
            .build()
            .execute(&sql)
            .expect("join runs");
        let mut got: Vec<(i64, i64)> = result
            .rows
            .iter()
            .map(|r| (r.value(0).as_int().unwrap(), r.value(1).as_int().unwrap()))
            .collect();
        got.sort_unstable();
        oracle.sort_unstable();
        assert_eq!(
            got.len(),
            oracle.len(),
            "seed {seed}: {} pairs, the log has {}",
            got.len(),
            oracle.len()
        );
        assert_eq!(got, oracle, "seed {seed}");
    }
}

#[test]
fn named_entities_udf_runs_in_queries() {
    let mut engine = obama_engine(5);
    let result = engine
        .execute(
            "SELECT named_entities(text) AS ents, text \
             FROM twitter WHERE text contains 'obama' LIMIT 30;",
        )
        .expect("query runs");
    let ents = result.column("ents").unwrap();
    // Every obama tweet mentions at least the entity "obama".
    let nonempty = ents
        .iter()
        .filter(|v| matches!(v, Value::List(l) if !l.is_empty()))
        .count();
    assert!(nonempty > 20, "nonempty = {nonempty}");
}
