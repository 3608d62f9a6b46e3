//! Integration test for §3.3's map-view claim: "A user should be able
//! to quickly zoom in on clusters of activity around New York and
//! Boston during a Red Sox-Yankees baseball game, with sentiment toward
//! a given peak (e.g., a home run) varying by region."

use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::{Tweet, VirtualClock};
use tweeql_text::sentiment::LexiconClassifier;
use twitinfo::event::EventSpec;
use twitinfo::logger::event_tweets;
use twitinfo::mapview::{clusters, markers};
use twitinfo::store::{analyze, AnalysisConfig};

/// The event's tweets in the seed-1918 baseball stream.
fn baseball_event(spec: &EventSpec) -> Vec<Tweet> {
    let api = StreamingApi::new(generate(&scenarios::baseball(), 1918), VirtualClock::new());
    event_tweets(&api, spec).expect("the event query runs")
}

#[test]
fn baseball_clusters_around_boston_and_new_york() {
    let spec = EventSpec::new(
        "Baseball: Red Sox vs. Yankees",
        &["redsox", "yankees", "baseball", "fenway"],
    );
    let analysis = analyze(&spec, &baseball_event(&spec), &AnalysisConfig::default());

    assert!(analysis.matched.len() > 2000);
    assert!(analysis.clusters.len() >= 2, "{:?}", analysis.clusters);

    // The densest clusters are the NYC-ish cells (40, -75/-74 — the
    // city straddles the −74° meridian, so its jittered users split
    // across two 1° cells) and the Boston-ish cell (42, -72±).
    let top3: Vec<(i32, i32)> = analysis.clusters.iter().take(3).map(|c| c.cell).collect();
    let is_boston = |c: &(i32, i32)| (41..=42).contains(&c.0) && (-72..=-70).contains(&c.1);
    let is_nyc = |c: &(i32, i32)| (40..=41).contains(&c.0) && (-75..=-73).contains(&c.1);
    assert!(
        top3.iter().any(is_boston),
        "no Boston cluster in top3: {top3:?}"
    );
    assert!(top3.iter().any(is_nyc), "no NYC cluster in top3: {top3:?}");

    // Both home-run bursts are detected as peaks.
    assert!(
        analysis.peaks.len() >= 2,
        "peaks: {:?}",
        analysis
            .peaks
            .iter()
            .map(|p| (p.peak.label, p.peak.apex))
            .collect::<Vec<_>>()
    );
}

#[test]
fn sentiment_varies_by_region_during_a_home_run() {
    // The Red Sox homer is scripted positive-biased overall; this test
    // checks the *mechanism* the paper describes — per-peak, per-region
    // sentiment is computable and the map colors markers by it.
    let spec = EventSpec::new("baseball", &["redsox", "yankees", "baseball", "fenway"]);
    let analysis = analyze(&spec, &baseball_event(&spec), &AnalysisConfig::default());

    let hr_peak = analysis
        .peaks
        .iter()
        .find(|p| p.window.0 <= tweeql_model::Timestamp::from_mins(41))
        .expect("first home-run peak");
    let clf = LexiconClassifier::new();
    let peak_markers = markers(&analysis.matched, hr_peak.window.0, hr_peak.window.1, &clf);
    assert!(!peak_markers.is_empty());
    let peak_clusters = clusters(&peak_markers);
    // Per-region net sentiment is defined for the peak window.
    assert!(peak_clusters
        .iter()
        .all(|c| (-1.0..=1.0).contains(&c.net_sentiment)));
    // The scripted positive bias shows up in the peak's own pie.
    assert!(
        hr_peak.sentiment.positive_share > 0.5,
        "{:?}",
        hr_peak.sentiment
    );
}
