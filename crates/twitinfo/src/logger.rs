//! The TwitInfo logging pipeline, built *on* TweeQL (§3.1: "TwitInfo
//! saves the event and begins logging tweets matching the query").
//!
//! [`log_event_via_tweeql`] turns an [`EventSpec`] into a TweeQL SELECT
//! with the event's keyword OR-chain as the WHERE clause, runs it on
//! the engine (which picks the API pushdown filter by sampled
//! selectivity, exactly as for any other query), and rebuilds tweets
//! from the output records into an [`EventStore`].

use crate::event::EventSpec;
use crate::store::EventStore;
use tweeql::engine::{Engine, QueryStats};
use tweeql::error::QueryError;
use tweeql_model::{Timestamp, TweetBuilder, User, Value};

/// Run the event's query through the TweeQL engine, logging every
/// matched tweet into `store` under `event_id`. Returns the query
/// stats (pushdown decision, per-stage counters).
pub fn log_event_via_tweeql(
    engine: &mut Engine,
    store: &mut EventStore,
    event_id: u64,
    spec: &EventSpec,
) -> Result<QueryStats, QueryError> {
    let sql = format!(
        "SELECT id, text, user_id, screen_name, loc, lat, lon, created_at, lang, followers \
         FROM twitter WHERE {}",
        spec.tweeql_predicate()
    );
    let mut tweets = Vec::new();
    let (_schema, stats) = engine.execute_with_sink(&sql, &mut |rec| {
        let get_str = |name: &str| -> std::sync::Arc<str> {
            rec.get(name)
                .ok()
                .and_then(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| std::sync::Arc::from(""))
        };
        let get_int = |name: &str| {
            rec.get(name)
                .ok()
                .and_then(|v| v.as_int().ok())
                .unwrap_or(0)
        };
        let mut b = TweetBuilder::new(get_int("id").max(0) as u64, get_str("text"))
            .user(User {
                id: get_int("user_id").max(0) as u64,
                screen_name: get_str("screen_name"),
                location: get_str("loc"),
                followers: get_int("followers").max(0) as u32,
                lang: get_str("lang"),
            })
            .at(rec
                .get("created_at")
                .ok()
                .and_then(|v| v.as_time().ok())
                .unwrap_or(Timestamp::ZERO))
            .lang(get_str("lang"));
        if let (Ok(Value::Float(lat)), Ok(Value::Float(lon))) = (rec.get("lat"), rec.get("lon")) {
            b = b.coordinates(*lat, *lon);
        }
        tweets.push(b.build());
    })?;
    // The store re-checks the event's keywords and window, and logs into
    // this event alone: another event the tweets also match has a query
    // of its own.
    store.log(event_id, &tweets);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::AnalysisConfig;
    use tweeql_firehose::scenario::{Scenario, Topic};
    use tweeql_firehose::{generate, StreamingApi};
    use tweeql_model::{Duration, Tweet, VirtualClock};

    fn tweets() -> Vec<Tweet> {
        let s = Scenario {
            name: "logger".into(),
            duration: Duration::from_mins(10),
            background_rate_per_min: 60.0,
            topics: vec![Topic::new("soccer", vec!["soccer", "goal"], 30.0)],
            bursts: vec![],
            geotag_rate: 0.2,
            population_size: 400,
        };
        generate(&s, 12)
    }

    fn engine() -> Engine {
        Engine::builder(StreamingApi::new(tweets(), VirtualClock::new())).build()
    }

    #[test]
    fn logging_through_tweeql_feeds_the_store() {
        let mut eng = engine();
        let mut store = EventStore::new();
        let spec = EventSpec::new("soccer", &["soccer", "goal"]);
        let id = store.create_event(spec.clone());

        let stats = log_event_via_tweeql(&mut eng, &mut store, id, &spec).unwrap();
        let logged = store.logged_count(id).unwrap();
        assert!(logged > 100, "logged = {logged}");
        // The engine pushed the keyword filter down to the API.
        assert!(stats.pushdown.contains("track"), "{}", stats.pushdown);

        // The logged tweets analyze like directly-matched ones.
        let analysis = store.analyze(id, &AnalysisConfig::default()).unwrap();
        assert_eq!(analysis.matched.len(), logged);
        assert!(analysis.timeline.total() as usize == logged);
    }

    #[test]
    fn geotags_survive_the_round_trip() {
        let mut eng = engine();
        let mut store = EventStore::new();
        let spec = EventSpec::new("soccer", &["soccer", "goal"]);
        let id = store.create_event(spec.clone());
        log_event_via_tweeql(&mut eng, &mut store, id, &spec).unwrap();
        let analysis = store.analyze(id, &AnalysisConfig::default()).unwrap();
        // ~20% geotag rate must survive record→tweet reconstruction.
        let geo = analysis
            .matched
            .iter()
            .filter(|t| t.coordinates().is_some())
            .count();
        assert!(
            geo * 3 > analysis.matched.len() / 3,
            "geo = {geo}/{}",
            analysis.matched.len()
        );
        assert!(!analysis.markers.is_empty());
    }

    #[test]
    fn window_restricted_event_only_logs_in_window() {
        let mut eng = engine();
        let mut store = EventStore::new();
        let spec = EventSpec::new("first minutes", &["soccer", "goal"])
            .with_window(Timestamp::ZERO, Timestamp::from_mins(3));
        let id = store.create_event(spec.clone());
        log_event_via_tweeql(&mut eng, &mut store, id, &spec).unwrap();
        let analysis = store.analyze(id, &AnalysisConfig::default()).unwrap();
        assert!(analysis
            .matched
            .iter()
            .all(|t| t.created_at <= Timestamp::from_mins(3)));
        assert!(!analysis.matched.is_empty());
    }

    /// Two events whose keywords overlap: each logs exactly what its own
    /// query matches, once.
    #[test]
    fn overlapping_events_log_only_their_own_matches() {
        let firehose = tweets();
        let mut store = EventStore::new();
        let specs = [
            EventSpec::new("soccer", &["soccer", "goal"]),
            EventSpec::new("goals", &["goal"]),
        ];
        let ids = specs.clone().map(|spec| store.create_event(spec));
        for (&id, spec) in ids.iter().zip(&specs) {
            log_event_via_tweeql(&mut engine(), &mut store, id, spec).unwrap();
        }
        for (&id, spec) in ids.iter().zip(&specs) {
            let want = crate::store::analyze(spec, &firehose, &AnalysisConfig::default());
            assert!(!want.matched.is_empty(), "{}", spec.name);
            assert_eq!(
                store.logged_count(id),
                Some(want.matched.len()),
                "{}",
                spec.name
            );
        }
    }
}
