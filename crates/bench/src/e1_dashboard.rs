//! E1 — Figure 1: the TwitInfo dashboard for the soccer match.
//!
//! The figure is qualitative; the measurable reproduction criteria are:
//! every scripted in-match burst appears as a flagged peak, the Tevez
//! goal's key terms include its scripted vocabulary ("3-0"/"tevez"),
//! the Popular Links panel is dominated by the scripted goal URLs, and
//! the sentiment pie leans positive (a 3-0 home win).

use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::VirtualClock;
use twitinfo::event::EventSpec;
use twitinfo::logger::event_tweets;
use twitinfo::store::{analyze, AnalysisConfig, EventAnalysis};

/// The measurable outcomes of the Figure-1 reproduction.
#[derive(Debug, Clone)]
pub struct E1Result {
    /// Tweets matched by the event query.
    pub matched: usize,
    /// Scripted bursts in the scenario.
    pub truth_bursts: usize,
    /// Peaks detected.
    pub peaks_detected: usize,
    /// Truth bursts overlapped by some detected peak.
    pub truth_hit: usize,
    /// Does the Tevez peak carry "3-0" or "tevez" in its labels?
    pub tevez_labeled: bool,
    /// Scripted goal URLs among the top-3 Popular Links.
    pub goal_urls_in_top3: usize,
    /// Recall-normalized positive share of the pie.
    pub positive_share: f64,
    /// The full analysis (for rendering).
    pub analysis: EventAnalysis,
}

/// Run E1.
pub fn run(seed: u64) -> E1Result {
    let scenario = scenarios::soccer_match();
    let api = StreamingApi::new(generate(&scenario, seed), VirtualClock::new());
    let spec = EventSpec::new(
        "Soccer: Manchester City vs. Liverpool",
        &[
            "soccer",
            "football",
            "premierleague",
            "manchester",
            "liverpool",
        ],
    );
    let config = AnalysisConfig::default();
    let tweets = event_tweets(&api, &spec).expect("the event query runs");
    let analysis = analyze(&spec, &tweets, &config);

    let bin_ms = config.bin.millis();
    let truth: Vec<(usize, usize)> = scenario
        .bursts
        .iter()
        .map(|b| {
            (
                (b.start.millis() / bin_ms) as usize,
                (b.end().millis() / bin_ms) as usize + 1,
            )
        })
        .collect();

    let truth_hit = truth
        .iter()
        .filter(|(s, e)| {
            analysis
                .peaks
                .iter()
                .any(|p| p.peak.start < *e && *s < p.peak.end)
        })
        .count();

    // The Tevez goal is scripted burst index 3.
    let (ts, te) = truth[3];
    let tevez_labeled = analysis
        .peaks
        .iter()
        .filter(|p| p.peak.start < te && ts < p.peak.end)
        .any(|p| {
            p.terms
                .iter()
                .any(|t| t.term.contains("tevez") || t.term == "3-0")
        });

    let goal_urls_in_top3 = analysis
        .links
        .iter()
        .filter(|l| l.url.contains("bbc.in/mcfc-goal"))
        .count();

    E1Result {
        matched: analysis.matched.len(),
        truth_bursts: truth.len(),
        peaks_detected: analysis.peaks.len(),
        truth_hit,
        tevez_labeled,
        goal_urls_in_top3,
        positive_share: analysis.sentiment.positive_share,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed-42 table `report` prints: every figure is a count over
    /// the generated stream, so it repeats exactly.
    #[test]
    fn figure_one_criteria_hold() {
        let r = run(42);
        assert_eq!(r.matched, 8906);
        assert_eq!((r.truth_hit, r.truth_bursts), (5, 5));
        assert_eq!(r.peaks_detected, 5);
        assert!(r.tevez_labeled);
        assert_eq!(r.goal_urls_in_top3, 3);
        assert_eq!(format!("{:.0}", r.positive_share * 100.0), "74");
    }
}
