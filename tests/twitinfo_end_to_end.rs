//! Integration tests: the full TwitInfo application over the three
//! canned demo scenarios (§4), checking the peak detector against the
//! generator's scripted ground truth.

use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::{Timestamp, Tweet, VirtualClock};
use twitinfo::event::EventSpec;
use twitinfo::logger::event_tweets;
use twitinfo::peaks::score_against_truth;
use twitinfo::store::{analyze, AnalysisConfig};

/// Ground-truth burst windows in timeline-bin units.
fn truth_bins(scenario: &tweeql_firehose::Scenario, bin_ms: i64) -> Vec<(usize, usize)> {
    scenario
        .bursts
        .iter()
        .map(|b| {
            (
                (b.start.millis() / bin_ms) as usize,
                (b.end().millis() / bin_ms) as usize + 1,
            )
        })
        .collect()
}

fn run_scenario(
    scenario: tweeql_firehose::Scenario,
    spec: EventSpec,
    seed: u64,
) -> (
    twitinfo::store::EventAnalysis,
    Vec<(usize, usize)>,
    Vec<Tweet>,
) {
    let tweets = generate(&scenario, seed);
    let config = AnalysisConfig::default();
    let truth = truth_bins(&scenario, config.bin.millis());
    let api = StreamingApi::new(tweets.clone(), VirtualClock::new());
    let event = event_tweets(&api, &spec).expect("the event query runs");
    let analysis = analyze(&spec, &event, &config);
    (analysis, truth, tweets)
}

#[test]
fn soccer_all_goals_detected_with_high_precision() {
    let (analysis, truth, _) = run_scenario(
        scenarios::soccer_match(),
        EventSpec::new(
            "soccer",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        ),
        42,
    );
    let peaks: Vec<_> = analysis.peaks.iter().map(|p| p.peak.clone()).collect();
    let score = score_against_truth(&peaks, &truth);
    assert!(
        score.recall() >= 0.8,
        "recall {} with peaks {peaks:?}",
        score.recall()
    );
    assert!(
        score.precision() >= 0.8,
        "precision {} with peaks {peaks:?}",
        score.precision()
    );

    // The Tevez goal's key terms mention the scripted vocabulary.
    let tevez_truth = truth[3]; // 4th scripted burst = GOAL 3-0 Tevez
    let tevez_peak = analysis
        .peaks
        .iter()
        .find(|p| p.peak.start < tevez_truth.1 && tevez_truth.0 < p.peak.end)
        .expect("tevez peak detected");
    let labels = tevez_peak
        .terms
        .iter()
        .map(|t| t.term.clone())
        .collect::<Vec<_>>()
        .join(" ");
    assert!(
        labels.contains("tevez") || labels.contains("3-0"),
        "labels: {labels}"
    );
}

#[test]
fn earthquake_mainshock_and_aftershocks() {
    let (analysis, truth, tweets) = run_scenario(
        scenarios::earthquakes(),
        EventSpec::new("quake", &["earthquake", "quake", "tsunami", "sendai"]),
        311,
    );
    let peaks: Vec<_> = analysis.peaks.iter().map(|p| p.peak.clone()).collect();
    let score = score_against_truth(&peaks, &truth);
    assert!(score.recall() >= 0.66, "recall {}", score.recall());

    // The biggest detected peak is the mainshock (truth burst 0).
    let biggest = analysis
        .peaks
        .iter()
        .max_by_key(|p| p.peak.max_count)
        .expect("peaks exist");
    assert!(
        biggest.peak.start < truth[0].1 && truth[0].0 < biggest.peak.end,
        "biggest peak {:?} vs mainshock {:?}",
        biggest.peak,
        truth[0]
    );

    // Negative event: overall sentiment leans negative.
    assert!(
        analysis.sentiment.negative_share > analysis.sentiment.positive_share,
        "shares: {:?}",
        analysis.sentiment
    );

    // Geo concentration: Japan dominates the geotagged clusters.
    let japanish = analysis
        .clusters
        .iter()
        .take(3)
        .filter(|c| (30..=46).contains(&c.cell.0) && (128..=146).contains(&c.cell.1))
        .count();
    assert!(japanish >= 2, "top clusters: {:?}", analysis.clusters);

    // Ground-truth burst labels exist on matched tweets.
    assert!(tweets.iter().any(|t| t.truth_burst() == Some(0)));
}

#[test]
fn obama_month_news_cycles() {
    let (analysis, truth, _) = run_scenario(
        scenarios::obama_month(),
        EventSpec::new("obama", &["obama"]),
        44,
    );
    let peaks: Vec<_> = analysis.peaks.iter().map(|p| p.peak.clone()).collect();
    let score = score_against_truth(&peaks, &truth);
    // Five scripted news cycles; at least four must be found.
    assert!(
        score.recall() >= 0.8,
        "recall {} ({peaks:?})",
        score.recall()
    );
    assert!(score.precision() >= 0.7, "precision {}", score.precision());
}

#[test]
fn burst_urls_win_the_popular_links_panel() {
    let scenario = scenarios::soccer_match();
    let (analysis, _, _) = run_scenario(
        scenario,
        EventSpec::new(
            "soccer",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        ),
        42,
    );
    let urls: Vec<&str> = analysis.links.iter().map(|l| l.url.as_str()).collect();
    // The scripted goal URLs dominate organic t.co noise.
    assert!(
        urls.iter().filter(|u| u.contains("bbc.in")).count() >= 2,
        "links: {urls:?}"
    );
}

#[test]
fn window_restriction_cuts_the_event() {
    let scenario = scenarios::soccer_match();
    let spec = EventSpec::new("first half", &["manchester", "liverpool"])
        .with_window(Timestamp::ZERO, Timestamp::from_mins(60));
    let (analysis, _, _) = run_scenario(scenario, spec, 42);
    assert!(analysis
        .matched
        .iter()
        .all(|t| t.created_at <= Timestamp::from_mins(60)));
    // Second-half bursts (Tevez at 84') can't be detected.
    for p in &analysis.peaks {
        assert!(p.window.1 <= Timestamp::from_mins(61));
    }
}

#[test]
fn html_and_terminal_renderings_agree_on_content() {
    let (analysis, _, _) = run_scenario(
        scenarios::soccer_match(),
        EventSpec::new(
            "Soccer: Manchester City vs. Liverpool",
            &["soccer", "football", "manchester", "liverpool"],
        ),
        42,
    );
    let term = twitinfo::dashboard::render(
        &analysis,
        &twitinfo::dashboard::DashboardOptions {
            color: false,
            ..Default::default()
        },
    );
    let html = twitinfo::html::render_html(&analysis);
    for p in &analysis.peaks {
        let needle = format!("peak {}", p.peak.label);
        assert!(term.contains(&needle), "terminal missing {needle}");
        assert!(html.contains(&needle), "html missing {needle}");
    }
    for l in &analysis.links {
        assert!(term.contains(&l.url));
        assert!(html.contains(&l.url));
    }
}

/// An event may name as many keywords as a track connection takes: 200
/// phantom keywords beside the scenario's, which no tweet contains,
/// change no tweet the event matches, live or in the batch analysis.
#[test]
fn phantom_keywords_change_no_matched_tweet() {
    let mut scenario = scenarios::soccer_match();
    scenario.duration = tweeql_model::Duration::from_mins(30);
    scenario
        .bursts
        .retain(|b| b.end() <= Timestamp::from_mins(30));
    let tweets = generate(&scenario, 42);
    let live = ["soccer", "football", "manchester", "liverpool"];
    let phantoms: Vec<String> = (0..200).map(|i| format!("zqxneedle{i:04}")).collect();
    let mut wide: Vec<&str> = phantoms.iter().map(String::as_str).collect();
    for (i, kw) in live.iter().enumerate() {
        wide.insert(i * 60, kw);
    }
    let config = AnalysisConfig::default();
    let matched = |keywords: &[&str]| {
        let spec = EventSpec::new("soccer", keywords);
        let api = || StreamingApi::new(tweets.clone(), VirtualClock::new());
        let batch = event_tweets(&api(), &spec).expect("the event query runs");
        let analysis = analyze(&spec, &batch, &config);
        let mut event = twitinfo::live::LiveEvent::new(&api(), spec, config.clone()).unwrap();
        event.finish().unwrap();
        let ids = |ts: &[Tweet]| ts.iter().map(|t| t.id).collect::<Vec<_>>();
        (
            ids(&analysis.matched),
            analysis.timeline,
            ids(event.matched()),
        )
    };
    let (batch, timeline, streamed) = matched(&live);
    assert!(!batch.is_empty(), "the scenario's keywords match tweets");
    assert_eq!(batch, streamed, "live and batch agree");
    assert_eq!(matched(&wide), (batch, timeline, streamed));
}
