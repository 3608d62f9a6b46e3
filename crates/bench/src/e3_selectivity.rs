//! E3 — uncertain selectivities: the paper's `obama ∧ NYC` example.
//!
//! Only one filter type can be pushed to the streaming API; pushing the
//! wrong one means the client receives (and must locally filter) far
//! more tweets. We sweep the true selectivity ratio by varying the
//! geotag rate and keyword popularity, and compare the *client-side
//! work* (tweets delivered) of: always-keyword, always-location,
//! TweeQL's sampled choice, and the oracle.

use tweeql::plan::ApiCandidate;
use tweeql::selectivity::choose_filter;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, FilterSpec, StreamingApi};
use tweeql_geo::BoundingBox;
use tweeql_model::{Duration, VirtualClock};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Sweep label.
    pub regime: String,
    /// Tweets delivered when pushing the keyword filter.
    pub work_keyword: u64,
    /// Tweets delivered when pushing the location filter.
    pub work_location: u64,
    /// Tweets delivered under TweeQL's sampled choice.
    pub work_sampled: u64,
    /// Which filter sampling chose.
    pub chose: String,
    /// Did sampling match the oracle (min work)?
    pub matched_oracle: bool,
    /// Final answer size (tweets satisfying both conjuncts) — identical
    /// across strategies, asserted in tests.
    pub answer: u64,
}

fn scenario(keyword_rate: f64, geotag_rate: f64) -> Scenario {
    let mut topic = Topic::new("obama", vec!["obama"], keyword_rate);
    topic.hotspot_cities = vec!["New York".into()];
    topic.hotspot_boost = 2.0;
    Scenario {
        name: "e3".into(),
        duration: Duration::from_mins(20),
        background_rate_per_min: 200.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate,
        population_size: 2000,
    }
}

fn delivered(api: &StreamingApi, filter: FilterSpec) -> (u64, u64) {
    let mut conn = api.connect_probe(filter);
    let nyc = BoundingBox::named("nyc").unwrap();
    let mut answer = 0;
    for t in conn.by_ref() {
        let in_nyc = t
            .coordinates()
            .map(|(lat, lon)| nyc.contains(&tweeql_geo::GeoPoint::new(lat, lon)))
            .unwrap_or(false);
        if in_nyc && t.contains("obama") {
            answer += 1;
        }
    }
    (conn.stats().delivered, answer)
}

/// Run one regime.
pub fn run_regime(regime: &str, keyword_rate: f64, geotag_rate: f64, seed: u64) -> E3Row {
    let s = scenario(keyword_rate, geotag_rate);
    let api = StreamingApi::new(generate(&s, seed), VirtualClock::new());

    let candidates = vec![
        ApiCandidate {
            spec: FilterSpec::Track(vec!["obama".into()]),
            description: "track(obama)".into(),
        },
        ApiCandidate {
            spec: FilterSpec::Locations(BoundingBox::named("nyc").unwrap()),
            description: "locations(nyc)".into(),
        },
    ];
    let decision = choose_filter(&api, &candidates, 3000);
    let chosen_idx = decision.chosen.unwrap();

    let (work_keyword, answer_k) = delivered(&api, candidates[0].spec.clone());
    let (work_location, answer_l) = delivered(&api, candidates[1].spec.clone());
    debug_assert_eq!(answer_k, answer_l);
    let work_sampled = if chosen_idx == 0 {
        work_keyword
    } else {
        work_location
    };
    let oracle = work_keyword.min(work_location);

    E3Row {
        regime: regime.to_string(),
        work_keyword,
        work_location,
        work_sampled,
        chose: candidates[chosen_idx].description.clone(),
        matched_oracle: work_sampled == oracle,
        answer: answer_k,
    }
}

/// Run the full sweep: location-rare (the paper's case), balanced, and
/// keyword-rare (the flip).
pub fn run(seed: u64) -> Vec<E3Row> {
    vec![
        // Few geotagged tweets: the NYC box is the rare filter.
        run_regime("location rare (2% geotag)", 120.0, 0.02, seed),
        // Both moderately common.
        run_regime("balanced (20% geotag)", 60.0, 0.20, seed),
        // Keyword rare, geotags plentiful: keyword is the rare filter.
        run_regime("keyword rare (60% geotag)", 2.0, 0.60, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_shape(rows: &[E3Row]) {
        assert_eq!(rows.len(), 3);
        // Paper's case: location is pushed down.
        assert!(rows[0].chose.contains("locations"), "{:?}", rows[0]);
        assert!(rows[0].matched_oracle);
        // Flipped case: keyword is pushed down.
        assert!(rows[2].chose.contains("track"), "{:?}", rows[2]);
        assert!(rows[2].matched_oracle);
        // The sampled choice always does no more work than the worst
        // fixed strategy.
        for r in rows {
            assert!(r.work_sampled <= r.work_keyword.max(r.work_location));
        }
    }

    #[test]
    fn sampling_matches_oracle_in_opposite_regimes() {
        assert_shape(&run(7));
    }

    /// The seed-42 table `report` prints: every regime matches the
    /// oracle, and the regimes flip which filter is the rarer one.
    #[test]
    fn seed_42_pushes_down_the_rarer_filter() {
        let rows = run(42);
        assert_shape(&rows);
        assert!(rows.iter().all(|r| r.matched_oracle), "{rows:?}");
        assert!(rows[0].regime.starts_with("location rare"));
        assert_eq!(rows[0].chose, "locations(nyc)");
        assert!(rows[2].regime.starts_with("keyword rare"));
        assert_eq!(rows[2].chose, "track(obama)");
    }

    #[test]
    fn answer_is_strategy_independent() {
        let r = run_regime("x", 60.0, 0.3, 11);
        assert!(r.answer > 0);
        // delivered() already asserts answer_k == answer_l in debug.
    }
}
