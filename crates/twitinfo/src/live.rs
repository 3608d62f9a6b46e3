//! Real-time event monitoring (§3.2: "Once users have created an event,
//! they can monitor the event in realtime").
//!
//! [`LiveEvent`] registers the event's TweeQL query on a standing-query
//! host, pumps the stream forward on request and bins the query's rows
//! into the *streaming* peak detector. Peak labels, sentiment and links
//! come from the batch analysis' own code over the tweets matched so far.

use crate::event::EventSpec;
use crate::keyterms::{background_df, peak_terms};
use crate::links::{popular_links, PopularLink};
use crate::logger::{event_query, row_tweet};
use crate::peaks::{Peak, PeakDetector};
use crate::sentiment_agg::summarize;
use crate::store::AnalysisConfig;
use crate::timeline::Timeline;
use std::sync::Arc;
use tweeql::engine::Engine;
use tweeql::error::QueryError;
use tweeql::{QueryHost, QueryId};
use tweeql_firehose::StreamingApi;
use tweeql_model::{Timestamp, Tweet};
use tweeql_text::sentiment::RecallStats;
use tweeql_text::tfidf::KeyTerm;

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
    config: AnalysisConfig,
    host: QueryHost,
    /// The event query; `None` for an event without keywords.
    query: Option<QueryId>,
    log: Arc<Vec<Tweet>>,
    /// Tweets matched so far, in stream order.
    matched: Vec<Tweet>,
    /// Completed-bin counts (the live timeline).
    bins: Vec<u64>,
    /// Tweets of the in-progress bin.
    open: u64,
    detector: PeakDetector,
    /// Peaks finalized so far.
    pub peaks: Vec<LivePeak>,
}

impl LiveEvent {
    /// Start monitoring `spec` on a standing-query host over `api`,
    /// with the bin width, detector, term count and classifier of
    /// `config`.
    pub fn new(
        api: &StreamingApi,
        spec: EventSpec,
        config: AnalysisConfig,
    ) -> Result<LiveEvent, QueryError> {
        let mut host = Engine::builder(api.clone()).build_host();
        let query = event_query(&spec)
            .map(|sql| host.register(&sql))
            .transpose()?;
        Ok(LiveEvent {
            spec,
            detector: PeakDetector::new(config.peaks),
            config,
            host,
            query,
            log: Arc::clone(api.log()),
            matched: Vec::new(),
            bins: Vec::new(),
            open: 0,
            peaks: Vec::new(),
        })
    }

    /// Tweets matched so far, in stream order.
    pub fn matched(&self) -> &[Tweet] {
        &self.matched
    }

    /// Pump the stream through `until` (inclusive) and take the event
    /// query's rows. Returns the peaks flagged on the way.
    pub fn advance_to(&mut self, until: Timestamp) -> Result<Vec<LivePeak>, QueryError> {
        let flagged = self.peaks.len();
        self.host.pump_until(until)?;
        self.take_rows()?;
        Ok(self.peaks[flagged..].to_vec())
    }

    /// End of stream: run the host to the end, then close the
    /// in-progress bin and any open peak. Returns the peaks flagged on
    /// the way.
    pub fn finish(&mut self) -> Result<Vec<LivePeak>, QueryError> {
        let flagged = self.peaks.len();
        self.host.run_to_end()?;
        self.take_rows()?;
        self.close_bin();
        if let Some(peak) = self.detector.finish() {
            self.flag(peak);
        }
        Ok(self.peaks[flagged..].to_vec())
    }

    /// Count the query's new rows, closing bins as stream time passes
    /// them: up to each row's bin before counting it, and last up to
    /// the bin the host has reached.
    fn take_rows(&mut self) -> Result<(), QueryError> {
        if let Some(id) = self.query {
            for row in self.host.take_output(id)? {
                let Some(tweet) = row_tweet(&self.log, &self.spec, &row).cloned() else {
                    continue;
                };
                self.close_bins_before(tweet.created_at);
                self.open += 1;
                self.matched.push(tweet);
            }
        }
        self.close_bins_before(self.host.position());
        Ok(())
    }

    /// Close every bin that ends at or before `at`'s bin.
    fn close_bins_before(&mut self, at: Timestamp) {
        let bin = (at.millis().max(0) / self.config.bin.millis()) as usize;
        while self.bins.len() < bin {
            self.close_bin();
        }
    }

    fn close_bin(&mut self) {
        let count = std::mem::take(&mut self.open);
        self.bins.push(count);
        if let Some(peak) = self.detector.push(count) {
            self.flag(peak);
        }
    }

    /// Label a peak by the key terms of the tweets matched so far.
    fn flag(&mut self, peak: Peak) {
        let timeline = self.timeline();
        let df = background_df(&self.matched);
        let terms = peak_terms(
            &peak,
            &timeline,
            &self.matched,
            &df,
            &self.spec,
            self.config.terms_per_peak,
        );
        self.peaks.push(LivePeak {
            peak,
            terms,
            flagged_at: timeline.bin_start(self.bins.len()),
        });
    }

    /// Snapshot of the timeline so far (completed bins only).
    pub fn timeline(&self) -> Timeline {
        Timeline {
            start: Timestamp::ZERO,
            bin: self.config.bin,
            bins: self.bins.clone(),
        }
    }

    /// Recall-less sentiment counts so far: (positive, negative, neutral).
    pub fn sentiment_counts(&self) -> (u64, u64, u64) {
        let classifier = self.config.classifier.as_ref();
        let uncorrected = RecallStats::measure(classifier, []);
        let s = summarize(
            &self.matched,
            Timestamp::ZERO,
            Timestamp::MAX,
            classifier,
            uncorrected,
        );
        (s.positive, s.negative, s.neutral)
    }

    /// Top `k` links so far.
    pub fn top_links(&self, k: usize) -> Vec<PopularLink> {
        popular_links(&self.matched, Timestamp::ZERO, Timestamp::MAX, k)
    }

    /// One-line live status (what a ticker UI would show).
    pub fn status_line(&self) -> String {
        let (pos, neg, neu) = self.sentiment_counts();
        format!(
            "[{}] {} tweets | {} peaks | +{pos} −{neg} ·{neu}",
            self.timeline().bin_start(self.bins.len()),
            self.matched.len(),
            self.peaks.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::event_tweets;
    use crate::store::analyze;
    use tweeql_firehose::{generate, scenarios};
    use tweeql_model::{Duration, VirtualClock};

    fn soccer_api() -> StreamingApi {
        StreamingApi::new(
            generate(&scenarios::soccer_match(), 42),
            VirtualClock::new(),
        )
    }

    fn soccer_spec() -> EventSpec {
        EventSpec::new(
            "soccer",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        )
    }

    /// Monitor the soccer event to the end, advancing `step` at a time.
    fn live_over_soccer(step: Duration) -> (LiveEvent, Vec<LivePeak>) {
        let api = soccer_api();
        let mut live = LiveEvent::new(&api, soccer_spec(), AnalysisConfig::default()).unwrap();
        let end = api.log().last().unwrap().created_at;
        let mut flagged = Vec::new();
        let mut until = Timestamp::ZERO;
        while until <= end {
            until += step;
            flagged.extend(live.advance_to(until).unwrap());
        }
        flagged.extend(live.finish().unwrap());
        (live, flagged)
    }

    #[test]
    fn live_matches_batch_analysis() {
        let (live, _) = live_over_soccer(Duration::from_mins(15));
        let api = soccer_api();
        let spec = soccer_spec();
        let event = event_tweets(&api, &spec).unwrap();
        let batch = analyze(&spec, &event, &AnalysisConfig::default());

        assert_eq!(live.matched(), &batch.matched[..]);
        // Same peak apexes (the detector is the same algorithm fed the
        // same bins).
        let live_apexes: Vec<usize> = live.peaks.iter().map(|p| p.peak.apex).collect();
        let batch_apexes: Vec<usize> = batch.peaks.iter().map(|p| p.peak.apex).collect();
        assert_eq!(live_apexes, batch_apexes);
        // Timeline totals agree.
        assert_eq!(live.timeline().total(), batch.timeline.total());
    }

    /// How far each call pumps does not change what the monitor sees:
    /// bins, peaks, their labels and when they were flagged.
    #[test]
    fn step_size_does_not_change_the_monitor() {
        let (one, flagged_one) = live_over_soccer(Duration::from_mins(1));
        for mins in [15, 240] {
            let (live, flagged) = live_over_soccer(Duration::from_mins(mins));
            assert_eq!(live.bins, one.bins, "{mins}");
            assert_eq!(format!("{:?}", live.peaks), format!("{:?}", one.peaks));
            assert_eq!(format!("{flagged:?}"), format!("{flagged_one:?}"));
        }
        assert_eq!(one.bins.len(), 120);
        assert_eq!(one.peaks.len(), 5);
    }

    /// Counts recorded when every tweet stored its parsed entities.
    #[test]
    fn links_panel_counts_what_stored_entities_counted() {
        let (live, _) = live_over_soccer(Duration::from_mins(15));
        let link = |url: &str, count| PopularLink {
            url: url.to_string(),
            count,
        };
        assert_eq!(
            live.top_links(5),
            [
                link("http://bbc.in/mcfc-goal3", 958),
                link("http://bbc.in/mcfc-goal2", 592),
                link("http://bbc.in/mcfc-goal1", 565),
                link("http://t.co/00070b", 1),
                link("http://t.co/007ef7", 1),
            ]
        );
    }

    #[test]
    fn peaks_are_flagged_incrementally_with_labels() {
        let (live, flagged) = live_over_soccer(Duration::from_mins(15));
        assert!(flagged.len() >= 4, "{}", flagged.len());
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
        let (live, _) = live_over_soccer(Duration::from_mins(15));
        let (pos, neg, neu) = live.sentiment_counts();
        assert_eq!((pos + neg + neu) as usize, live.matched().len());
        let links = live.top_links(3);
        assert_eq!(links.len(), 3);
        assert!(links[0].count >= links[1].count);
        assert!(links[0].url.contains("bbc.in"));
        assert!(live.status_line().contains("peaks"));
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let api = StreamingApi::new(Vec::new(), VirtualClock::new());
        for keywords in [&["kw"][..], &[]] {
            let spec = EventSpec::new("e", keywords);
            let mut live = LiveEvent::new(&api, spec, AnalysisConfig::default()).unwrap();
            assert!(live.finish().unwrap().is_empty());
            assert!(live.matched().is_empty());
            assert_eq!(live.timeline().bins.len(), 1);
        }
    }
}
