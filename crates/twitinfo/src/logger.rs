//! The TwitInfo logging pipeline, built *on* TweeQL (§3.1: "TwitInfo
//! saves the event and begins logging tweets matching the query").
//!
//! An [`EventSpec`] becomes one TweeQL query, `SELECT id, created_at
//! FROM twitter WHERE <keyword OR-chain>`, and TweeQL alone decides
//! which tweets belong to the event (picking the API pushdown filter by
//! sampled selectivity, as for any query). Each row names a tweet of
//! the firehose log, so the event gets the firehose's own tweets, truth
//! labels and all.

use crate::event::EventSpec;
use crate::store::EventStore;
use tweeql::engine::{Engine, QueryStats};
use tweeql::error::QueryError;
use tweeql_firehose::StreamingApi;
use tweeql_model::{Record, Tweet};

/// The event's query. `None` for an event without keywords, which
/// matches nothing and runs no query.
pub(crate) fn event_query(spec: &EventSpec) -> Option<String> {
    (!spec.keywords.is_empty()).then(|| {
        format!(
            "SELECT id, created_at FROM twitter WHERE {}",
            spec.tweeql_predicate()
        )
    })
}

/// The tweet of `log` behind one row of the event's query, or `None`
/// when it lies outside the event's window (inclusive at both ends;
/// TweeQL has no time literals, so the window is checked here).
pub(crate) fn row_tweet<'a>(log: &'a [Tweet], spec: &EventSpec, row: &Record) -> Option<&'a Tweet> {
    let id = row.value(0).as_int().expect("the event query selects id") as u64;
    let at = row
        .value(1)
        .as_time()
        .expect("the event query selects created_at");
    if let Some((start, end)) = spec.window {
        if at < start || at > end {
            return None;
        }
    }
    // The log is in stream order, so the row's tweet is among those
    // sharing its timestamp.
    let first = log.partition_point(|t| t.created_at < at);
    let tweet = log[first..]
        .iter()
        .take_while(|t| t.created_at == at)
        .find(|t| t.id == id);
    Some(tweet.expect("every row is a tweet of the log"))
}

/// Run the event's query once on an engine over `api`: the tweets it
/// selects, in stream order, and the run's stats (`None`: no query).
fn run_event_query(
    api: &StreamingApi,
    spec: &EventSpec,
) -> Result<(Vec<Tweet>, Option<QueryStats>), QueryError> {
    let Some(sql) = event_query(spec) else {
        return Ok((Vec::new(), None));
    };
    let log = api.log();
    let result = Engine::builder(api.clone()).build().execute(&sql)?;
    let tweets = result
        .rows
        .iter()
        .filter_map(|row| row_tweet(log, spec, row).cloned())
        .collect();
    Ok((tweets, Some(result.stats)))
}

/// The event's tweets, in stream order: the firehose tweets its TweeQL
/// query selects within its window. What [`crate::store::analyze`]
/// analyzes.
pub fn event_tweets(api: &StreamingApi, spec: &EventSpec) -> Result<Vec<Tweet>, QueryError> {
    run_event_query(api, spec).map(|(tweets, _)| tweets)
}

/// Log event `event_id`'s tweets from `api` into `store`. Returns the
/// query's stats (pushdown decision, per-stage counters), or `None`
/// when no query ran: the id is unknown or the event has no keywords.
pub fn log_event_via_tweeql(
    api: &StreamingApi,
    store: &mut EventStore,
    event_id: u64,
) -> Result<Option<QueryStats>, QueryError> {
    let Some(spec) = store.spec(event_id) else {
        return Ok(None);
    };
    let (tweets, stats) = run_event_query(api, spec)?;
    store.log(event_id, &tweets);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{analyze, AnalysisConfig};
    use tweeql_firehose::generate;
    use tweeql_firehose::scenario::{Burst, Scenario, Topic};
    use tweeql_model::{Duration, Timestamp, TweetBuilder, VirtualClock};

    fn tweets() -> Vec<Tweet> {
        let s = Scenario {
            name: "logger".into(),
            duration: Duration::from_mins(20),
            background_rate_per_min: 60.0,
            topics: vec![Topic::new("soccer", vec!["soccer", "goal"], 30.0)],
            bursts: vec![Burst {
                topic: 0,
                label: "goal".into(),
                start: Timestamp::from_mins(10),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(3),
                peak_multiplier: 8.0,
                phrases: vec!["tevez".into()],
                sentiment_bias: 0.8,
                url: Some("http://bbc.in/goal".into()),
            }],
            geotag_rate: 0.2,
            population_size: 400,
        };
        generate(&s, 12)
    }

    fn api() -> StreamingApi {
        StreamingApi::new(tweets(), VirtualClock::new())
    }

    /// The event's tweets by a plain substring test over the firehose.
    fn matching(spec: &EventSpec) -> Vec<Tweet> {
        tweets()
            .into_iter()
            .filter(|t| {
                let text = t.text.to_lowercase();
                spec.keywords.iter().any(|k| text.contains(k.as_str()))
            })
            .collect()
    }

    #[test]
    fn logging_through_tweeql_feeds_the_store() {
        let mut store = EventStore::new();
        let spec = EventSpec::new("soccer", &["soccer", "goal"]);
        let id = store.create_event(spec.clone());

        let stats = log_event_via_tweeql(&api(), &mut store, id)
            .unwrap()
            .expect("the query ran");
        let logged = store.logged_count(id).unwrap();
        assert!(logged > 100, "logged = {logged}");
        // The engine pushed the keyword filter down to the API.
        assert!(stats.pushdown.contains("track"), "{}", stats.pushdown);

        // The logged tweets analyze like directly-matched ones: the
        // firehose's own tweets, truth labels and all, so the recall
        // that normalizes the pies is measured, not assumed perfect.
        let config = AnalysisConfig::default();
        let analysis = store.analyze(id, &config).unwrap();
        let direct = analyze(&spec, &matching(&spec), &config);
        assert_eq!(analysis.matched.len(), logged);
        assert!(analysis.timeline.total() as usize == logged);
        assert!(!direct.peaks.is_empty(), "{:?}", direct.timeline.bins);
        assert!(direct.recall.positive_recall < 1.0, "{:?}", direct.recall);
        assert_eq!(analysis.recall, direct.recall);
        assert_eq!(analysis.sentiment, direct.sentiment);
        assert_eq!(analysis.peaks.len(), direct.peaks.len());
        for (got, want) in analysis.peaks.iter().zip(&direct.peaks) {
            assert_eq!(got.sentiment, want.sentiment, "peak {}", want.peak.label);
        }
        let truth = |tweets: &[Tweet]| tweets.iter().map(|t| t.truth_polarity).collect::<Vec<_>>();
        assert_eq!(truth(&analysis.matched), truth(&direct.matched));
    }

    #[test]
    fn event_tweets_keep_their_geotags() {
        let spec = EventSpec::new("soccer", &["soccer", "goal"]);
        let analysis = analyze(
            &spec,
            &event_tweets(&api(), &spec).unwrap(),
            &AnalysisConfig::default(),
        );
        // ~20% of the event's tweets are geotagged.
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

    /// The window is inclusive at both ends, and only the window cuts:
    /// inside it the event gets every matching tweet.
    #[test]
    fn window_restricted_event_only_logs_in_window() {
        let (start, end) = (Timestamp::from_mins(2), Timestamp::from_mins(3));
        let spec = EventSpec::new("two minutes", &["soccer", "goal"]).with_window(start, end);
        let got = event_tweets(&api(), &spec).unwrap();
        let want: Vec<Tweet> = matching(&spec)
            .into_iter()
            .filter(|t| start <= t.created_at && t.created_at <= end)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    /// An event gets a tweet holding one of its keywords in any case,
    /// when the tweet lies inside the window, both ends included.
    #[test]
    fn keywords_in_any_case_within_the_window() {
        let (start, end) = (Timestamp::from_mins(10), Timestamp::from_mins(20));
        let log = vec![
            TweetBuilder::new(1, "watching Manchester tonight")
                .at(start)
                .build(),
            TweetBuilder::new(2, "eating lunch").at(start).build(),
            TweetBuilder::new(3, "GOAL")
                .at(Timestamp::from_mins(15))
                .build(),
            TweetBuilder::new(4, "goal").at(end).build(),
            TweetBuilder::new(5, "goal")
                .at(end + Duration::from_millis(1))
                .build(),
        ];
        let api = StreamingApi::new(log, VirtualClock::new());
        let ids = |spec: &EventSpec| -> Vec<u64> {
            event_tweets(&api, spec)
                .unwrap()
                .iter()
                .map(|t| t.id)
                .collect()
        };
        let spec = EventSpec::new("e", &["goal", "MANCHESTER"]);
        assert_eq!(ids(&spec), [1, 3, 4, 5]);
        assert_eq!(ids(&spec.with_window(start, end)), [1, 3, 4]);
    }

    /// Two events whose keywords overlap: each logs exactly what its own
    /// query matches, once.
    #[test]
    fn overlapping_events_log_only_their_own_matches() {
        let mut store = EventStore::new();
        let specs = [
            EventSpec::new("soccer", &["soccer", "goal"]),
            EventSpec::new("goals", &["goal"]),
        ];
        let ids = specs.clone().map(|spec| store.create_event(spec));
        for &id in &ids {
            log_event_via_tweeql(&api(), &mut store, id).unwrap();
        }
        for (&id, spec) in ids.iter().zip(&specs) {
            let want = matching(spec);
            assert!(!want.is_empty(), "{}", spec.name);
            assert_eq!(store.logged_count(id), Some(want.len()), "{}", spec.name);
        }
    }

    #[test]
    fn an_event_without_keywords_runs_no_query() {
        let mut store = EventStore::new();
        let id = store.create_event(EventSpec::new("nothing", &[]));
        assert!(log_event_via_tweeql(&api(), &mut store, id)
            .unwrap()
            .is_none());
        assert_eq!(store.logged_count(id), Some(0));
        assert!(log_event_via_tweeql(&api(), &mut store, 999)
            .unwrap()
            .is_none());
    }
}
