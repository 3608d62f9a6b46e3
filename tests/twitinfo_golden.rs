//! Golden pin for TwitInfo's output.
//!
//! One FNV-1a digest per case. An analysis case digests the `Debug`
//! rendering of the whole `EventAnalysis` — the matched tweets with
//! their truth labels, the timeline, every annotated peak, the relevant
//! tweets, the sentiment pie, links, markers, clusters and recall. A
//! live case digests every peak the monitor flagged (with its labels
//! and `flagged_at`), the timeline bins, the sentiment counts and the
//! top five links.
//!
//! The digests were recorded while TwitInfo still matched event tweets
//! with its own keyword automaton and the live monitor was fed one
//! firehose tweet at a time. Event tweets now come from the event's
//! TweeQL query and the monitor is a standing-query client pumped 15
//! minutes at a time; any change in which tweets an event gets, or in
//! what the panels make of them, shows up here.

use std::sync::OnceLock;
use tweeql_firehose::{generate, scenarios, Scenario, StreamingApi};
use tweeql_model::{Duration, Timestamp, Tweet, VirtualClock};
use twitinfo::event::EventSpec;
use twitinfo::live::LiveEvent;
use twitinfo::logger::event_tweets;
use twitinfo::store::{analyze, AnalysisConfig};

const SEED: u64 = 42;

fn corpus(slug: &str) -> &'static Vec<Tweet> {
    static SOCCER: OnceLock<Vec<Tweet>> = OnceLock::new();
    static EARTHQUAKES: OnceLock<Vec<Tweet>> = OnceLock::new();
    static OBAMA: OnceLock<Vec<Tweet>> = OnceLock::new();
    static BASEBALL: OnceLock<Vec<Tweet>> = OnceLock::new();
    let (cell, scenario): (_, fn() -> Scenario) = match slug {
        "soccer" => (&SOCCER, scenarios::soccer_match),
        "earthquakes" => (&EARTHQUAKES, scenarios::earthquakes),
        "obama" => (&OBAMA, scenarios::obama_month),
        "baseball" => (&BASEBALL, scenarios::baseball),
        _ => unreachable!("{slug}"),
    };
    cell.get_or_init(|| generate(&scenario(), SEED))
}

/// The E1/E2 event for each scenario, and the baseball event of the
/// map-view test.
fn spec(slug: &str) -> EventSpec {
    match slug {
        "soccer" => EventSpec::new(
            "Soccer: Manchester City vs. Liverpool",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        ),
        "earthquakes" => EventSpec::new("quake", &["earthquake", "quake", "tsunami", "sendai"]),
        "obama" => EventSpec::new("obama", &["obama"]),
        "baseball" => EventSpec::new(
            "Baseball: Red Sox vs. Yankees",
            &["redsox", "yankees", "baseball", "fenway"],
        ),
        _ => unreachable!("{slug}"),
    }
}

fn api(slug: &str) -> StreamingApi {
    StreamingApi::new(corpus(slug).clone(), VirtualClock::new())
}

fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn analysis_digest(slug: &str, spec: &EventSpec) -> u64 {
    let tweets = event_tweets(&api(slug), spec).expect("the event query runs");
    let analysis = analyze(spec, &tweets, &AnalysisConfig::default());
    fnv(&format!("{analysis:?}"))
}

fn live_digest(slug: &str) -> u64 {
    let api = api(slug);
    let mut live =
        LiveEvent::new(&api, spec(slug), AnalysisConfig::default()).expect("query registers");
    let mut until = Timestamp::ZERO;
    while until <= corpus(slug).last().unwrap().created_at {
        until += Duration::from_mins(15);
        live.advance_to(until).expect("stream pumps");
    }
    live.finish().expect("stream drains");
    let mut text = format!(
        "{:?}\n{:?}\n{:?}\n",
        live.peaks,
        live.timeline().bins,
        live.sentiment_counts()
    );
    for link in live.top_links(5) {
        text.push_str(&format!("{} {}\n", link.url, link.count));
    }
    fnv(&text)
}

/// Panic with the recomputed table when `got` is not `golden`.
fn assert_golden(name: &str, golden: &[u64], got: &[u64], labels: &[&str]) {
    if got != golden {
        let mut report = format!("const {name}: &[u64] = &[\n");
        for (d, label) in got.iter().zip(labels) {
            report.push_str(&format!("    {d:#018x}, // {label}\n"));
        }
        report.push_str("];\n");
        panic!("digests diverge\n{report}");
    }
}

const ANALYSIS_GOLDEN: &[u64] = &[
    0xecfc256d840a12fa, // soccer
    0xe935e98b5df78ced, // earthquakes
    0x43724e658207e449, // obama
    0x09e06a5e3512aa75, // baseball
    0xaed5bb42996c0009, // soccer first hour
];

#[test]
fn analysis_digests_are_unchanged() {
    let first_hour = spec("soccer").with_window(Timestamp::ZERO, Timestamp::from_mins(60));
    let cases = [
        ("soccer", spec("soccer")),
        ("earthquakes", spec("earthquakes")),
        ("obama", spec("obama")),
        ("baseball", spec("baseball")),
        ("soccer first hour", first_hour),
    ];
    let got: Vec<u64> = cases
        .iter()
        .map(|(label, spec)| analysis_digest(label.split(' ').next().unwrap(), spec))
        .collect();
    let labels: Vec<&str> = cases.iter().map(|(label, _)| *label).collect();
    assert_golden("ANALYSIS_GOLDEN", ANALYSIS_GOLDEN, &got, &labels);
}

const LIVE_GOLDEN: &[u64] = &[
    0xb888ce248749021a, // soccer
    0x75903fee802c5775, // earthquakes
];

#[test]
fn live_digests_are_unchanged() {
    let labels = ["soccer", "earthquakes"];
    let got: Vec<u64> = labels.iter().map(|slug| live_digest(slug)).collect();
    assert_golden("LIVE_GOLDEN", LIVE_GOLDEN, &got, &labels);
}
