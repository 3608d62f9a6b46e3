//! E5 — high-latency operators (§2): geocoding web-service calls take
//! "hundreds of milliseconds apiece"; measure how caching and batching
//! change the modeled service time and request count of the paper's
//! first query, on the virtual clock.

use tweeql::engine::{Engine, EngineConfig};
use tweeql::udf::ServiceConfig;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, VirtualClock};

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Configuration label.
    pub config: String,
    /// Tweets geocoded (query output rows).
    pub tweets: usize,
    /// Remote requests issued.
    pub requests: u64,
    /// Total modeled web-service latency.
    pub service_time: Duration,
    /// Modeled service ms per tweet.
    pub ms_per_tweet: f64,
    /// Cache hit rate.
    pub cache_hit_rate: f64,
}

fn scenario() -> Scenario {
    let topic = Topic::new("obama", vec!["obama"], 80.0);
    Scenario {
        name: "e5".into(),
        duration: Duration::from_mins(20),
        background_rate_per_min: 80.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate: 0.0,
        population_size: 1500,
    }
}

/// Run the query under one service configuration.
pub fn run_config(label: &str, cache: usize, batch: usize, seed: u64) -> E5Row {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(generate(&scenario(), seed), clock);
    let mut engine = Engine::builder(api)
        .config(EngineConfig {
            service: ServiceConfig {
                latency: LatencyModel::LogNormal {
                    median_ms: 200.0,
                    sigma: 0.45,
                },
                cache_capacity: cache,
                max_batch: batch,
                batch_per_item: Duration::from_millis(5),
                ..ServiceConfig::default()
            },
            async_max_delay: Duration::from_secs(5),
            ..EngineConfig::default()
        })
        .build();
    let result = engine
        .execute(
            "SELECT latitude(loc), longitude(loc) \
             FROM twitter WHERE text contains 'obama'",
        )
        .expect("query runs");
    let tweets = result.rows.len();
    E5Row {
        config: label.to_string(),
        tweets,
        requests: result.stats.geo_requests,
        service_time: result.stats.geo_service_time,
        ms_per_tweet: result.stats.geo_service_time.millis() as f64 / tweets.max(1) as f64,
        cache_hit_rate: result.stats.geo_cache.hit_rate(),
    }
}

/// The full ladder: naive → +cache → +batch → +both.
pub fn run(seed: u64) -> Vec<E5Row> {
    vec![
        run_config("naive (no cache, no batch)", 0, 1, seed),
        run_config("+cache", 65536, 1, seed),
        run_config("+batch(25)", 0, 25, seed),
        run_config("+cache +batch(25)", 65536, 25, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_each_mechanism_helps(rows: &[E5Row]) {
        let naive = &rows[0];
        let cached = &rows[1];
        let batched = &rows[2];
        let both = &rows[3];

        // Same work answered under each configuration.
        assert_eq!(naive.tweets, both.tweets);
        assert!(naive.tweets > 1000, "tweets = {}", naive.tweets);

        // Naive: latitude() and longitude() each issue a ~200ms request
        // per tweet — without the shared cache even the second
        // coordinate of the same location pays full price.
        assert_eq!(naive.requests as usize, 2 * naive.tweets);
        assert!(naive.ms_per_tweet > 300.0, "{naive:?}");

        // Caching collapses repeats: an order of magnitude fewer
        // requests (locations repeat heavily).
        assert!(
            cached.requests * 5 < naive.requests,
            "cached {} vs naive {}",
            cached.requests,
            naive.requests
        );
        assert!(cached.cache_hit_rate > 0.8, "{cached:?}");
        assert!(cached.service_time < naive.service_time);

        // Batching amortizes round trips: at this stream rate the
        // 5-second delay bound caps batches below 25, but still close
        // to an order of magnitude fewer requests.
        assert!(
            batched.requests * 4 < naive.requests,
            "batched {} vs naive {}",
            batched.requests,
            naive.requests
        );
        assert!(batched.service_time.millis() * 4 < naive.service_time.millis());

        // The combination is the cheapest of all.
        assert!(both.service_time <= cached.service_time);
        assert!(both.service_time <= batched.service_time);
        assert!(both.ms_per_tweet < 20.0, "{both:?}");
    }

    #[test]
    fn each_mechanism_reduces_modeled_service_time() {
        assert_each_mechanism_helps(&run(9));
    }

    /// The seed-42 table `report` prints. Requests and modeled service
    /// time are counts on the virtual clock, so they repeat exactly.
    /// Each mechanism beats naive on both, and the two together beat
    /// either alone.
    #[test]
    fn seed_42_caching_and_batching_hide_udf_latency() {
        let rows = run(42);
        assert_each_mechanism_helps(&rows);
        let got: Vec<_> = rows
            .iter()
            .map(|r| (r.requests, r.service_time.millis()))
            .collect();
        let (naive, cache, batch, both) = (got[0], got[1], got[2], got[3]);
        for (less, more) in [(cache, naive), (batch, naive), (both, cache), (both, batch)] {
            assert!(less.0 < more.0 && less.1 < more.1, "{got:?}");
        }
        assert_eq!(
            got,
            [(3340, 727146), (241, 52309), (382, 98706), (106, 24940)]
        );
    }
}
