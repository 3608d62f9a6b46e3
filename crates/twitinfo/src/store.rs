//! Event storage and the end-to-end analysis pipeline: "TwitInfo saves
//! the event and begins logging tweets matching the query" (§3.1), then
//! serves the dashboard from the logged tweets.

use crate::event::EventSpec;
use crate::keyterms::{background_df, peak_terms};
use crate::links::{popular_links, PopularLink};
use crate::mapview::{clusters, markers, Cluster, Marker};
use crate::peaks::{Peak, PeakDetector, PeakDetectorConfig};
use crate::relevance::rank_tweets;
use crate::sentiment_agg::{measure_recall, summarize, SentimentSummary};
use crate::timeline::Timeline;
use std::collections::HashMap;
use std::sync::Arc;
use tweeql_model::{Duration, Timestamp, Tweet};
use tweeql_text::sentiment::{LexiconClassifier, Polarity, RecallStats, SentimentClassifier};
use tweeql_text::tfidf::KeyTerm;

/// Analysis knobs.
#[derive(Clone)]
pub struct AnalysisConfig {
    /// Timeline bin width (TwitInfo uses by-minute bins).
    pub bin: Duration,
    /// Peak-detector parameters.
    pub peaks: PeakDetectorConfig,
    /// Key terms per peak.
    pub terms_per_peak: usize,
    /// Relevant tweets kept.
    pub top_tweets: usize,
    /// Popular links kept (paper: top three).
    pub top_links: usize,
    /// Sentiment classifier.
    pub classifier: Arc<dyn SentimentClassifier>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            bin: Duration::from_mins(1),
            peaks: PeakDetectorConfig::default(),
            terms_per_peak: 4,
            top_tweets: 10,
            top_links: 3,
            classifier: Arc::new(LexiconClassifier::new()),
        }
    }
}

/// A peak with its interface annotations.
#[derive(Debug, Clone)]
pub struct AnnotatedPeak {
    /// The detected peak.
    pub peak: Peak,
    /// Automatic key-term labels ("3-0", "tevez").
    pub terms: Vec<KeyTerm>,
    /// Time window covered.
    pub window: (Timestamp, Timestamp),
    /// Sentiment within the peak's window.
    pub sentiment: SentimentSummary,
    /// Popular links within the peak's window.
    pub links: Vec<PopularLink>,
}

/// One row of the Relevant Tweets panel.
#[derive(Debug, Clone)]
pub struct RelevantTweet {
    /// Tweet text.
    pub text: String,
    /// Author handle.
    pub screen_name: String,
    /// Similarity to the event keywords.
    pub similarity: f64,
    /// Panel color.
    pub sentiment: Polarity,
}

/// Everything the dashboard needs for one event.
#[derive(Debug, Clone)]
pub struct EventAnalysis {
    /// Event name.
    pub name: String,
    /// Tracking keywords.
    pub keywords: Vec<String>,
    /// Tweets that matched the event.
    pub matched: Vec<Tweet>,
    /// The volume timeline.
    pub timeline: Timeline,
    /// Detected, annotated peaks.
    pub peaks: Vec<AnnotatedPeak>,
    /// Relevance-ranked tweets for the whole event.
    pub relevant: Vec<RelevantTweet>,
    /// Overall sentiment pie.
    pub sentiment: SentimentSummary,
    /// Overall popular links.
    pub links: Vec<PopularLink>,
    /// Map markers.
    pub markers: Vec<Marker>,
    /// 1°×1° marker clusters, densest first.
    pub clusters: Vec<Cluster>,
    /// Classifier recall used for pie normalization.
    pub recall: RecallStats,
}

impl EventAnalysis {
    /// Publish the analysis' headline numbers into a shared metrics
    /// registry, so the dashboard's counters sit next to the engine's
    /// `tweeql_*` families in one Prometheus exposition. Counters are
    /// cumulative across calls (a registry shared with the engine is
    /// long-lived); gauges reflect this analysis.
    pub fn publish_metrics(&self, m: &tweeql_obs::MetricsRegistry) {
        m.counter("twitinfo_tweets_matched_total", &[])
            .add(self.matched.len() as u64);
        m.counter("twitinfo_peaks_detected_total", &[])
            .add(self.peaks.len() as u64);
        m.gauge("twitinfo_timeline_bins", &[])
            .set(self.timeline.bins.len() as i64);
        m.gauge("twitinfo_timeline_max_bin_count", &[])
            .set(self.timeline.max_count() as i64);
        for (polarity, n) in [
            ("positive", self.sentiment.positive),
            ("negative", self.sentiment.negative),
            ("neutral", self.sentiment.neutral),
        ] {
            m.counter("twitinfo_sentiment_tweets_total", &[("polarity", polarity)])
                .add(n);
        }
        m.counter("twitinfo_links_total", &[])
            .add(self.links.iter().map(|l| l.count).sum());
        m.gauge("twitinfo_map_markers", &[])
            .set(self.markers.len() as i64);
    }
}

/// Run the full TwitInfo analysis over the event's tweets (what
/// [`crate::logger::event_tweets`] selects): bin → detect peaks → label
/// → rank → aggregate.
pub fn analyze(spec: &EventSpec, tweets: &[Tweet], config: &AnalysisConfig) -> EventAnalysis {
    let matched = tweets.to_vec();
    let timeline = Timeline::from_tweets(&matched, config.bin);
    let raw_peaks = PeakDetector::detect(&timeline, config.peaks);

    let recall = measure_recall(&matched, config.classifier.as_ref());
    let df = background_df(&matched);

    let end = timeline.bin_start(timeline.bins.len());
    let peaks = raw_peaks
        .into_iter()
        .map(|peak| {
            let window = peak.window(&timeline);
            let terms = peak_terms(&peak, &timeline, &matched, &df, spec, config.terms_per_peak);
            let sentiment = summarize(
                &matched,
                window.0,
                window.1,
                config.classifier.as_ref(),
                recall,
            );
            let links = popular_links(&matched, window.0, window.1, config.top_links);
            AnnotatedPeak {
                peak,
                terms,
                window,
                sentiment,
                links,
            }
        })
        .collect();

    let ranked = rank_tweets(
        &matched,
        &spec.keywords,
        config.classifier.as_ref(),
        config.top_tweets,
    );
    let relevant = ranked
        .into_iter()
        .map(|r| RelevantTweet {
            text: matched[r.index].text.to_string(),
            screen_name: matched[r.index].user.screen_name.to_string(),
            similarity: r.similarity,
            sentiment: r.sentiment,
        })
        .collect();

    let sentiment = summarize(
        &matched,
        Timestamp::ZERO,
        end,
        config.classifier.as_ref(),
        recall,
    );
    let links = popular_links(&matched, Timestamp::ZERO, end, config.top_links);
    let marks = markers(&matched, Timestamp::ZERO, end, config.classifier.as_ref());
    let cls = clusters(&marks);

    EventAnalysis {
        name: spec.name.clone(),
        keywords: spec.keywords.clone(),
        matched,
        timeline,
        peaks,
        relevant,
        sentiment,
        links,
        markers: marks,
        clusters: cls,
        recall,
    }
}

/// In-memory event store: create events, log tweets, analyze on demand
/// — the serving layer behind the demo web page.
#[derive(Default)]
pub struct EventStore {
    next_id: u64,
    events: HashMap<u64, (EventSpec, Vec<Tweet>)>,
}

impl EventStore {
    /// Empty store.
    pub fn new() -> EventStore {
        EventStore::default()
    }

    /// Save an event; returns its id.
    pub fn create_event(&mut self, spec: EventSpec) -> u64 {
        self.next_id += 1;
        self.events.insert(self.next_id, (spec, Vec::new()));
        self.next_id
    }

    /// Append `tweets` to event `id`'s log (the TweeQL logger pushes
    /// the event query's output here). Unknown ids log nothing.
    pub fn log(&mut self, id: u64, tweets: &[Tweet]) {
        if let Some((_, log)) = self.events.get_mut(&id) {
            log.extend_from_slice(tweets);
        }
    }

    /// Number of tweets logged for an event.
    pub fn logged_count(&self, id: u64) -> Option<usize> {
        self.events.get(&id).map(|(_, log)| log.len())
    }

    /// The event's spec.
    pub fn spec(&self, id: u64) -> Option<&EventSpec> {
        self.events.get(&id).map(|(s, _)| s)
    }

    /// Analyze an event's logged tweets.
    pub fn analyze(&self, id: u64, config: &AnalysisConfig) -> Option<EventAnalysis> {
        let (spec, log) = self.events.get(&id)?;
        Some(analyze(spec, log, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::{event_tweets, log_event_via_tweeql};
    use tweeql_firehose::{generate, scenarios, StreamingApi};
    use tweeql_model::VirtualClock;

    fn soccer_api() -> StreamingApi {
        let mut s = scenarios::soccer_match();
        s.duration = Duration::from_mins(60);
        s.bursts.retain(|b| b.end() <= Timestamp::ZERO + s.duration);
        s.population_size = 800;
        StreamingApi::new(generate(&s, 21), VirtualClock::new())
    }

    fn soccer_spec() -> EventSpec {
        EventSpec::new(
            "Soccer: Manchester City vs. Liverpool",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        )
    }

    fn soccer_tweets() -> Vec<Tweet> {
        event_tweets(&soccer_api(), &soccer_spec()).unwrap()
    }

    #[test]
    fn end_to_end_analysis_detects_the_goal() {
        let tweets = soccer_tweets();
        let analysis = analyze(&soccer_spec(), &tweets, &AnalysisConfig::default());
        assert!(analysis.matched.len() > 500, "{}", analysis.matched.len());
        // Scripted bursts at minutes 15 (kickoff) and 33 (goal 1-0)
        // survive the 60-minute cut; both should be detected.
        assert!(
            !analysis.peaks.is_empty(),
            "no peaks on {:?}",
            analysis.timeline.bins
        );
        let goal_peak = analysis
            .peaks
            .iter()
            .find(|p| {
                p.window.0 <= Timestamp::from_mins(34) && p.window.1 >= Timestamp::from_mins(33)
            })
            .expect("goal peak detected");
        // The goal's burst vocabulary surfaces in the labels.
        let label_text = goal_peak
            .terms
            .iter()
            .map(|t| t.term.clone())
            .collect::<Vec<_>>()
            .join(" ");
        assert!(
            label_text.contains("goal")
                || label_text.contains("1-0")
                || label_text.contains("aguero"),
            "labels: {label_text}"
        );
    }

    #[test]
    fn relevant_tweets_and_links_populated() {
        let tweets = soccer_tweets();
        let analysis = analyze(&soccer_spec(), &tweets, &AnalysisConfig::default());
        assert_eq!(analysis.relevant.len(), 10);
        assert!(analysis.relevant[0].similarity >= analysis.relevant[9].similarity);
        assert!(!analysis.links.is_empty());
        assert!(analysis.links.len() <= 3);
        assert!(!analysis.markers.is_empty());
        assert!(!analysis.clusters.is_empty());
    }

    #[test]
    fn sentiment_shares_sum_to_one() {
        let tweets = soccer_tweets();
        let analysis = analyze(&soccer_spec(), &tweets, &AnalysisConfig::default());
        let s = analysis.sentiment;
        assert!(s.positive + s.negative > 0);
        assert!((s.positive_share + s.negative_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn store_create_log_analyze() {
        let api = soccer_api();
        let mut store = EventStore::new();
        let id = store.create_event(soccer_spec());
        let other = store.create_event(EventSpec::new("quakes", &["earthquake"]));
        for event in [id, other] {
            log_event_via_tweeql(&api, &mut store, event).unwrap();
        }
        assert!(store.logged_count(id).unwrap() > 500);
        assert_eq!(store.logged_count(other), Some(0));
        assert!(store.logged_count(999).is_none());
        let analysis = store.analyze(id, &AnalysisConfig::default()).unwrap();
        assert_eq!(analysis.name, "Soccer: Manchester City vs. Liverpool");
        assert!(store.analyze(999, &AnalysisConfig::default()).is_none());
    }

    /// The store appends what it is given: which tweets belong to the
    /// event is the event query's decision.
    #[test]
    fn log_appends_to_that_event_only() {
        let mut store = EventStore::new();
        let id = store.create_event(EventSpec::new("e", &["goal"]));
        let other = store.create_event(EventSpec::new("o", &["goal", "lunch"]));
        let hit = tweeql_model::TweetBuilder::new(1, "GOAL by tevez").build();
        let miss = tweeql_model::TweetBuilder::new(2, "lunch").build();
        store.log(id, &[hit, miss]);
        store.log(999, &[]);
        assert_eq!(store.logged_count(id), Some(2));
        assert_eq!(store.logged_count(other), Some(0), "another event's log");
        assert_eq!(store.spec(id).unwrap().keywords, vec!["goal"]);
    }

    #[test]
    fn publish_metrics_mirrors_analysis_counts() {
        let tweets = soccer_tweets();
        let analysis = analyze(&soccer_spec(), &tweets, &AnalysisConfig::default());
        let m = tweeql_obs::MetricsRegistry::new();
        analysis.publish_metrics(&m);
        assert_eq!(
            m.counter_value("twitinfo_tweets_matched_total", &[]),
            analysis.matched.len() as u64
        );
        assert_eq!(
            m.counter_value("twitinfo_peaks_detected_total", &[]),
            analysis.peaks.len() as u64
        );
        let text = m.render_prometheus();
        assert!(text.contains("twitinfo_timeline_bins"), "{text}");
        assert!(
            text.contains("twitinfo_sentiment_tweets_total{polarity=\"positive\"}"),
            "{text}"
        );
        // A second publish accumulates counters but re-sets gauges.
        analysis.publish_metrics(&m);
        assert_eq!(
            m.counter_value("twitinfo_tweets_matched_total", &[]),
            2 * analysis.matched.len() as u64
        );
    }

    #[test]
    fn empty_event_analyzes_cleanly() {
        let spec = EventSpec::new("nothing", &["zzzznomatch"]);
        let tweets = event_tweets(&soccer_api(), &spec).unwrap();
        let analysis = analyze(&spec, &tweets, &AnalysisConfig::default());
        assert!(analysis.matched.is_empty());
        assert!(analysis.peaks.is_empty());
        assert!(analysis.relevant.is_empty());
        assert_eq!(analysis.sentiment.positive_share, 0.5);
    }
}
