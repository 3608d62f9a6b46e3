//! Real-time event monitoring (§3.2: "Once users have created an event,
//! they can monitor the event in realtime").
//!
//! [`LiveEvent`] is the incremental counterpart of
//! [`crate::store::analyze`]: it consumes matched tweets one at a time,
//! maintains the timeline bins, the *streaming* peak detector, running
//! sentiment counts and link tallies, and can snapshot the dashboard
//! panels at any stream time — O(1) amortized per tweet, no re-scan.

use crate::event::EventSpec;
use crate::peaks::{Peak, PeakDetector, PeakDetectorConfig};
use crate::timeline::Timeline;
use std::collections::HashMap;
use tweeql_model::{Duration, Timestamp, Tweet};
use tweeql_text::ac::AhoCorasick;
use tweeql_text::sentiment::{Polarity, SentimentClassifier};
use tweeql_text::tfidf::{DocumentFrequency, KeyTerm};

/// A peak finalized during live monitoring, with its labels.
#[derive(Debug, Clone)]
pub struct LivePeak {
    /// The detected peak.
    pub peak: Peak,
    /// Key-term labels computed at detection time.
    pub terms: Vec<KeyTerm>,
    /// Stream time when the peak was flagged.
    pub flagged_at: Timestamp,
}

/// Incremental event monitor.
pub struct LiveEvent {
    spec: EventSpec,
    matcher: AhoCorasick,
    classifier: Box<dyn SentimentClassifier>,
    bin: Duration,
    /// Completed-bin counts (the live timeline).
    bins: Vec<u64>,
    /// Tweets of the in-progress bin.
    current_bin: usize,
    current_count: u64,
    detector: PeakDetector,
    /// Background DF for key-term scoring, updated online.
    df: DocumentFrequency,
    /// Recent tweets kept for peak labeling (ring of the last N).
    recent: Vec<Tweet>,
    recent_cap: usize,
    /// Running totals.
    pub matched: u64,
    positive: u64,
    negative: u64,
    neutral: u64,
    link_counts: HashMap<String, u64>,
    /// Peaks finalized so far.
    pub peaks: Vec<LivePeak>,
}

impl LiveEvent {
    /// Start monitoring with per-minute bins and the given classifier.
    pub fn new(
        spec: EventSpec,
        classifier: Box<dyn SentimentClassifier>,
        config: PeakDetectorConfig,
    ) -> LiveEvent {
        let matcher = spec.matcher();
        LiveEvent {
            spec,
            matcher,
            classifier,
            bin: Duration::from_mins(1),
            bins: Vec::new(),
            current_bin: 0,
            current_count: 0,
            detector: PeakDetector::new(config),
            df: DocumentFrequency::new(),
            recent: Vec::new(),
            recent_cap: 4000,
            matched: 0,
            positive: 0,
            negative: 0,
            neutral: 0,
            link_counts: HashMap::new(),
            peaks: Vec::new(),
        }
    }

    /// Bin width accessor.
    pub fn bin(&self) -> Duration {
        self.bin
    }

    /// Feed the next firehose tweet (any tweet — non-matching ones are
    /// ignored). Returns a finalized peak if one closed on this bin.
    pub fn push(&mut self, tweet: &Tweet) -> Option<LivePeak> {
        // Advance bins up to the tweet's bin, feeding the detector one
        // completed bin at a time.
        let tweet_bin = (tweet.created_at.millis().max(0) / self.bin.millis()) as usize;
        let mut flagged = None;
        while self.current_bin < tweet_bin {
            if let Some(p) = self.close_bin() {
                flagged = Some(p);
            }
        }
        if !self.spec.matches(tweet, &self.matcher) {
            return flagged;
        }
        self.matched += 1;
        self.current_count += 1;
        match self.classifier.classify(&tweet.text) {
            Polarity::Positive => self.positive += 1,
            Polarity::Negative => self.negative += 1,
            Polarity::Neutral => self.neutral += 1,
        }
        for u in tweet.entities().urls {
            *self.link_counts.entry(u.url).or_insert(0) += 1;
        }
        self.df.add_document(&tweet.text);
        if self.recent.len() == self.recent_cap {
            self.recent.remove(0);
        }
        self.recent.push(tweet.clone());
        flagged
    }

    fn close_bin(&mut self) -> Option<LivePeak> {
        let count = self.current_count;
        self.bins.push(count);
        self.current_count = 0;
        self.current_bin += 1;
        self.detector.push(count).map(|peak| {
            let live = self.annotate(peak);
            self.peaks.push(live.clone());
            live
        })
    }

    fn annotate(&self, peak: Peak) -> LivePeak {
        let timeline = self.timeline();
        let (start, end) = peak.window(&timeline);
        let docs = self
            .recent
            .iter()
            .filter(|t| t.created_at >= start && t.created_at < end)
            .map(|t| &*t.text);
        let terms = tweeql_text::tfidf::top_terms(docs, &self.df, 4, &self.spec.keywords);
        LivePeak {
            peak,
            terms,
            flagged_at: Timestamp::from_millis(self.current_bin as i64 * self.bin.millis()),
        }
    }

    /// End of stream: close the in-progress bin and any open peak.
    pub fn finish(&mut self) -> Option<LivePeak> {
        let mut last = self.close_bin();
        if let Some(peak) = self.detector.finish() {
            let live = self.annotate(peak);
            self.peaks.push(live.clone());
            last = Some(live);
        }
        last
    }

    /// Snapshot of the timeline so far (completed bins only).
    pub fn timeline(&self) -> Timeline {
        Timeline {
            start: Timestamp::ZERO,
            bin: self.bin,
            bins: self.bins.clone(),
        }
    }

    /// Recall-less sentiment counts so far: (positive, negative, neutral).
    pub fn sentiment_counts(&self) -> (u64, u64, u64) {
        (self.positive, self.negative, self.neutral)
    }

    /// Top `k` links so far.
    pub fn top_links(&self, k: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .link_counts
            .iter()
            .map(|(u, c)| (u.clone(), *c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// One-line live status (what a ticker UI would show).
    pub fn status_line(&self) -> String {
        format!(
            "[{}] {} tweets | {} peaks | +{} −{} ·{}",
            Timestamp::from_millis(self.current_bin as i64 * self.bin.millis()),
            self.matched,
            self.peaks.len(),
            self.positive,
            self.negative,
            self.neutral
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{analyze, AnalysisConfig};
    use tweeql_firehose::{generate, scenarios};
    use tweeql_text::sentiment::LexiconClassifier;

    fn live_over_soccer() -> (LiveEvent, Vec<Tweet>) {
        let scenario = scenarios::soccer_match();
        let tweets = generate(&scenario, 42);
        let spec = EventSpec::new(
            "soccer",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        );
        let live = LiveEvent::new(
            spec,
            Box::new(LexiconClassifier::new()),
            PeakDetectorConfig::default(),
        );
        (live, tweets)
    }

    #[test]
    fn live_matches_batch_analysis() {
        let (mut live, tweets) = live_over_soccer();
        for t in &tweets {
            live.push(t);
        }
        live.finish();

        let spec = EventSpec::new(
            "soccer",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        );
        let batch = analyze(&spec, &tweets, &AnalysisConfig::default());

        assert_eq!(live.matched as usize, batch.matched.len());
        // Same peak apexes (the detector is the same algorithm fed the
        // same bins).
        let live_apexes: Vec<usize> = live.peaks.iter().map(|p| p.peak.apex).collect();
        let batch_apexes: Vec<usize> = batch.peaks.iter().map(|p| p.peak.apex).collect();
        assert_eq!(live_apexes, batch_apexes);
        // Timeline totals agree.
        assert_eq!(live.timeline().total(), batch.timeline.total());
    }

    /// Counts recorded when every tweet stored its parsed entities;
    /// the panel now parses each matched tweet as it is pushed.
    #[test]
    fn links_panel_counts_what_stored_entities_counted() {
        let (mut live, tweets) = live_over_soccer();
        for t in &tweets {
            live.push(t);
        }
        live.finish();
        let want = [
            ("http://bbc.in/mcfc-goal3", 958),
            ("http://bbc.in/mcfc-goal2", 592),
            ("http://bbc.in/mcfc-goal1", 565),
            ("http://t.co/00070b", 1),
            ("http://t.co/007ef7", 1),
        ]
        .map(|(url, n)| (url.to_string(), n));
        assert_eq!(live.top_links(5), want);
    }

    #[test]
    fn peaks_are_flagged_incrementally_with_labels() {
        let (mut live, tweets) = live_over_soccer();
        let mut flagged_during_stream = 0;
        for t in &tweets {
            if live.push(t).is_some() {
                flagged_during_stream += 1;
            }
        }
        live.finish();
        assert!(flagged_during_stream >= 4, "{flagged_during_stream}");
        // The Tevez peak is labeled at detection time.
        let labels: Vec<String> = live
            .peaks
            .iter()
            .flat_map(|p| p.terms.iter().map(|t| t.term.clone()))
            .collect();
        assert!(
            labels.iter().any(|l| l == "tevez" || l == "3-0"),
            "{labels:?}"
        );
    }

    #[test]
    fn running_totals_and_links() {
        let (mut live, tweets) = live_over_soccer();
        for t in &tweets {
            live.push(t);
        }
        live.finish();
        let (pos, neg, neu) = live.sentiment_counts();
        assert_eq!(pos + neg + neu, live.matched);
        let links = live.top_links(3);
        assert_eq!(links.len(), 3);
        assert!(links[0].1 >= links[1].1);
        assert!(links[0].0.contains("bbc.in"));
        assert!(live.status_line().contains("peaks"));
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let spec = EventSpec::new("e", &["kw"]);
        let mut live = LiveEvent::new(
            spec,
            Box::new(LexiconClassifier::new()),
            PeakDetectorConfig::default(),
        );
        assert!(live.finish().is_none());
        assert_eq!(live.matched, 0);
        assert_eq!(live.timeline().bins.len(), 1);
    }
}
