//! E4 — uneven aggregate groups (§2): fixed time window vs count window
//! vs CONTROL-style confidence window on the paper's geo-bucketed
//! sentiment query, over a stream whose user geography is skewed the
//! way the paper describes (Tokyo ≫ Cape Town).
//!
//! Metrics per strategy, separately for the dense (Tokyo) and sparse
//! (Cape Town) buckets: number of emissions, mean samples per emission,
//! and the stream time of the first emission (responsiveness).

use tweeql::engine::Engine;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, Timestamp, Value, VirtualClock};

/// Per-bucket outcome for one windowing strategy.
#[derive(Debug, Clone, Default)]
pub struct BucketOutcome {
    /// Records emitted for this bucket.
    pub emissions: u64,
    /// Mean COUNT(*) per emission.
    pub mean_samples: f64,
    /// Stream time of the first emission (None = never emitted).
    pub first_emission: Option<Timestamp>,
}

/// One strategy's results.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Strategy label.
    pub strategy: String,
    /// Total buckets emitted (all cells).
    pub total_emissions: u64,
    /// Dense bucket (Tokyo, cell 35/139).
    pub tokyo: BucketOutcome,
    /// Sparse bucket (Cape Town, cell −34/18).
    pub cape_town: BucketOutcome,
}

fn scenario() -> Scenario {
    let topic = Topic::new("obama", vec!["obama"], 60.0);
    Scenario {
        name: "e4".into(),
        duration: Duration::from_hours(6),
        background_rate_per_min: 60.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate: 0.0, // the paper's query geocodes profile locations
        population_size: 3000,
    }
}

fn engine(seed: u64) -> Engine {
    let clock = VirtualClock::new();
    let api = StreamingApi::new(generate(&scenario(), seed), clock);
    Engine::builder(api)
        .service(ServiceConfig {
            // Constant latency keeps E4 focused on windowing.
            latency: LatencyModel::Constant(Duration::from_millis(50)),
            cache_capacity: 65536,
            ..ServiceConfig::default()
        })
        .build()
}

fn outcome_for(rows: &[(f64, f64, u64, Timestamp)], lat: f64, lon: f64) -> BucketOutcome {
    let matching: Vec<_> = rows
        .iter()
        .filter(|(la, lo, _, _)| *la == lat && *lo == lon)
        .collect();
    let emissions = matching.len() as u64;
    let mean_samples = if matching.is_empty() {
        0.0
    } else {
        matching.iter().map(|(_, _, n, _)| *n as f64).sum::<f64>() / matching.len() as f64
    };
    BucketOutcome {
        emissions,
        mean_samples,
        first_emission: matching.iter().map(|(_, _, _, t)| *t).min(),
    }
}

/// Run one windowing strategy.
pub fn run_strategy(strategy: &str, window_clause: &str, seed: u64) -> E4Row {
    let mut eng = engine(seed);
    let sql = format!(
        "SELECT AVG(sentiment(text)), count(*) AS n, \
         floor(latitude(loc)) AS lat, floor(longitude(loc)) AS long \
         FROM twitter WHERE text contains 'obama' \
         GROUP BY lat, long {window_clause}"
    );
    let result = eng.execute(&sql).expect("query runs");
    let rows: Vec<(f64, f64, u64, Timestamp)> = result
        .rows
        .iter()
        .filter_map(|r| {
            let lat = match r.get("lat").ok()? {
                Value::Float(f) => *f,
                _ => return None,
            };
            let lon = match r.get("long").ok()? {
                Value::Float(f) => *f,
                _ => return None,
            };
            let n = r.get("n").ok()?.as_int().ok()? as u64;
            Some((lat, lon, n, r.timestamp()))
        })
        .collect();
    E4Row {
        strategy: strategy.to_string(),
        total_emissions: rows.len() as u64,
        tokyo: outcome_for(&rows, 35.0, 139.0),
        cape_town: outcome_for(&rows, -34.0, 18.0),
    }
}

/// Run all three strategies from the paper's discussion.
pub fn run(seed: u64) -> Vec<E4Row> {
    vec![
        run_strategy("fixed 3 hours", "WINDOW 3 hours", seed),
        run_strategy("count 200 tuples", "WINDOW 200 tuples", seed),
        run_strategy(
            "confidence ε=0.15 max 3h",
            "WINDOW CONFIDENCE 0.15 MAX 3 hours",
            seed,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_skew_story(rows: &[E4Row]) {
        let fixed = &rows[0];
        let count = &rows[1];
        let conf = &rows[2];

        // Fixed window: Tokyo bucket is oversampled — hundreds of
        // samples averaged per emission; Cape Town has very few.
        assert!(
            fixed.tokyo.mean_samples > 20.0 * fixed.cape_town.mean_samples.max(1.0),
            "fixed: tokyo {} vs cape {}",
            fixed.tokyo.mean_samples,
            fixed.cape_town.mean_samples
        );

        // Count window: Tokyo fills 200-tuple buckets (the end-of-stream
        // flush adds one partial bucket, pulling the mean below 200);
        // Cape Town never reaches 200 and only flushes at end (stale).
        assert!(count.tokyo.emissions >= 1);
        assert!(count.tokyo.mean_samples >= 100.0, "{:?}", count.tokyo);
        assert!(count.cape_town.mean_samples < 200.0);

        // Confidence window: Tokyo emits early and repeatedly with far
        // fewer samples than the fixed window needed, and Cape Town
        // still gets emitted (deadline), so no starvation.
        assert!(
            conf.tokyo.emissions > fixed.tokyo.emissions,
            "conf {} vs fixed {}",
            conf.tokyo.emissions,
            fixed.tokyo.emissions
        );
        assert!(conf.tokyo.mean_samples < fixed.tokyo.mean_samples);
        assert!(conf.cape_town.emissions >= 1);
        let conf_first = conf.tokyo.first_emission.unwrap();
        let fixed_first = fixed.tokyo.first_emission.unwrap();
        assert!(
            conf_first < fixed_first,
            "confidence first emission {conf_first} not earlier than fixed {fixed_first}"
        );
    }

    #[test]
    fn skew_story_reproduces() {
        assert_skew_story(&run(5));
    }

    /// The seed-42 table `report` prints. Emissions are counted on the
    /// virtual clock, so the figures repeat exactly; first emissions
    /// compare in whole seconds, as printed.
    #[test]
    fn seed_42_confidence_emits_the_dense_group_early() {
        let rows = run(42);
        assert_skew_story(&rows);
        let first = |b: &BucketOutcome| b.first_emission.expect("emitted").to_string();
        let (fixed, count, conf) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(conf.strategy, "confidence ε=0.15 max 3h");
        assert_eq!(conf.total_emissions, 473);
        assert_eq!(conf.tokyo.emissions, 23);
        assert_eq!(first(&conf.tokyo), "00:00:48");
        assert_eq!(conf.cape_town.emissions, 3);
        assert_eq!(first(&fixed.tokyo), "02:59:50");
        assert_eq!(first(&count.tokyo), "01:04:18");
        // Fixed-width clock times order as strings.
        assert!(first(&conf.tokyo) < first(&fixed.tokyo));
        assert!(first(&conf.tokyo) < first(&count.tokyo));
    }
}
