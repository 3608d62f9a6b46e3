//! E6 — the engine on the paper's three example queries plus a raw
//! scan baseline: tweets scanned and rows out. These are counts, so
//! they repeat exactly. A run over this 30-minute stream takes
//! milliseconds, too short to time; the paper's three queries are
//! timed by the `adhoc` workload of the benchmark under `benchmark/`.

use tweeql::engine::{Engine, QueryResult};
use tweeql::udf::ServiceConfig;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, Tweet, VirtualClock};

/// One query's measurement.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Query label.
    pub query: &'static str,
    /// Firehose tweets scanned.
    pub scanned: u64,
    /// Output rows.
    pub rows: usize,
}

/// The benchmark's standard firehose (generated once, reused).
pub fn firehose(seed: u64) -> Vec<Tweet> {
    let mut topic = Topic::new("obama", vec!["obama"], 60.0);
    topic.hotspot_cities = vec!["New York".into()];
    topic.hotspot_boost = 2.0;
    let s = Scenario {
        name: "e6".into(),
        duration: Duration::from_mins(30),
        background_rate_per_min: 200.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate: 0.1,
        population_size: 3000,
    };
    generate(&s, seed)
}

/// The four benchmark queries.
pub const QUERIES: &[(&str, &str)] = &[
    ("scan+project", "SELECT text FROM twitter"),
    (
        "paper Q1 (sentiment+geocode)",
        "SELECT sentiment(text), latitude(loc), longitude(loc) \
         FROM twitter WHERE text contains 'obama'",
    ),
    (
        "paper Q2 (conjunctive filters)",
        "SELECT text FROM twitter \
         WHERE text contains 'obama' AND location in [bounding box for NYC]",
    ),
    (
        "paper Q3 (windowed geo agg)",
        "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, \
         floor(longitude(loc)) AS long \
         FROM twitter WHERE text contains 'obama' \
         GROUP BY lat, long WINDOW 10 minutes",
    ),
];

/// Execute one query on a fresh engine over `tweets`.
pub fn run_query(tweets: Vec<Tweet>, sql: &str) -> QueryResult {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(tweets, clock);
    let mut engine = Engine::builder(api)
        .service(ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(100)),
            cache_capacity: 65536,
            ..ServiceConfig::default()
        })
        .build();
    engine.execute(sql).expect("query runs")
}

/// Run the full suite.
pub fn run(seed: u64) -> Vec<E6Row> {
    let tweets = firehose(seed);
    QUERIES
        .iter()
        .map(|(label, sql)| {
            let result = run_query(tweets.clone(), sql);
            E6Row {
                query: label,
                scanned: result.stats.source.scanned,
                rows: result.rows.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_run_and_scan_the_stream() {
        let rows = run(3);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.scanned > 5000, "{r:?}");
            assert!(r.rows > 0, "{r:?}");
        }
    }

    /// The seed-42 table `report` prints: every query scans the whole
    /// stream, and the rows out are counts.
    #[test]
    fn seed_42_counts() {
        let got: Vec<_> = run(42).iter().map(|r| (r.scanned, r.rows)).collect();
        assert_eq!(got, [(7861, 7861), (7861, 1820), (7861, 81), (7861, 213)]);
    }
}
