//! The dashboard in small, for the tests that gate *counts* (which
//! repeat exactly where sub-millisecond timings cannot): the eight
//! standing queries of the `dashboard` workload of `benchmark/` and a
//! seeded stream shaped like the benchmark's.

use tweeql_firehose::{generate, scenarios};
use tweeql_model::{Duration, Timestamp, Tweet};

/// The eight panels of `benchmark/src/workloads.rs::DASHBOARD`.
pub const DASHBOARD: [&str; 8] = [
    "SELECT count(*) AS mentions FROM twitter WHERE text contains 'obama' WINDOW 1 minutes",
    "SELECT lang, avg(sentiment(text)) AS mood, count(*) AS n FROM twitter \
     WHERE text contains 'obama' GROUP BY lang WINDOW 10 minutes SLIDE 5 minutes",
    "SELECT sentiment(text), latitude(loc), longitude(loc) FROM twitter \
     WHERE text contains 'president'",
    "SELECT screen_name, text FROM twitter WHERE text contains 'budget'",
    "SELECT regex_extract(text, 'http://[a-z./0-9-]+', 0) AS link FROM twitter \
     WHERE text contains 'http://'",
    "SELECT lang, count(distinct screen_name) AS authors FROM twitter \
     GROUP BY lang WINDOW 5 minutes",
    "SELECT screen_name, followers FROM twitter WHERE followers > 10000",
    "SELECT avg(sentiment(text)), floor(latitude(loc)) AS cell_lat, \
     floor(longitude(loc)) AS cell_lon FROM twitter WHERE text contains 'obama' \
     GROUP BY cell_lat, cell_lon WINDOW 3 hours",
];

/// Virtual minutes of stream.
pub const MINUTES: i64 = 60;

/// The benchmark's stream in small: the `obama_month` scenario's five
/// news cycles in one virtual hour at six times the rates (about 27
/// tweets a virtual second).
pub fn dashboard_stream(seed: u64) -> Vec<Tweet> {
    let mut scenario = scenarios::obama_month();
    let shrink = |ms: i64| ms * MINUTES / scenario.duration.millis().max(1) * 60_000;
    for burst in &mut scenario.bursts {
        burst.start = Timestamp::from_millis(shrink(burst.start.millis()));
        burst.ramp_up = Duration::from_millis(shrink(burst.ramp_up.millis()));
        burst.ramp_down = Duration::from_millis(shrink(burst.ramp_down.millis()));
    }
    scenario.duration = Duration::from_mins(MINUTES);
    scenario.background_rate_per_min *= 6.0;
    scenario.population_size = 20_000;
    for topic in &mut scenario.topics {
        topic.base_rate_per_min *= 6.0;
    }
    generate(&scenario, seed)
}
