//! The earthquake timeline demo (§4's second canned example), driven
//! through TweeQL end-to-end: the tweet-count aggregation runs as a
//! windowed TweeQL query with TwitInfo's `detect_peak` stateful UDF —
//! the architecture the paper describes ("TwitInfo's peak detection
//! algorithm is a stateful TweeQL UDF").
//!
//! Run with `cargo run --release --example earthquake_monitor`.

use tweeql::engine::Engine;
use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::VirtualClock;
use twitinfo::dashboard::{render, DashboardOptions};
use twitinfo::event::EventSpec;
use twitinfo::logger::event_tweets;
use twitinfo::peaks::PeakDetectorConfig;
use twitinfo::store::{analyze, AnalysisConfig};
use twitinfo::udfs;

fn main() {
    let scenario = scenarios::earthquakes();
    println!("generating {} …", scenario.name);
    let tweets = generate(&scenario, 311); // Sendai, 3/11
    println!(
        "firehose: {} tweets over {}\n",
        tweets.len(),
        scenario.duration
    );

    // --- live monitoring through TweeQL ---
    let clock = VirtualClock::new();
    let api = StreamingApi::new(tweets, clock);
    let mut engine = Engine::builder(api.clone())
        .configure_registry(|r| udfs::register(r, PeakDetectorConfig::default()))
        .build();

    let sql = "SELECT count(*) AS c, detect_peak(count(*)) AS peak \
               FROM twitter \
               WHERE text contains 'earthquake' OR text contains 'quake' \
                  OR text contains 'tsunami' OR text contains 'sendai' \
               WINDOW 2 minutes";
    println!("tweeql> {sql}\n");
    let result = engine.execute(sql).expect("query runs");

    println!("windows with detected peaks:");
    for (i, row) in result.rows.iter().enumerate() {
        let peak = row.value(1);
        if !peak.is_null() {
            println!(
                "  window {:>3} ({}): count {:>5}  → peak {}",
                i,
                row.timestamp(),
                row.value(0),
                peak
            );
        }
    }

    // --- the explorable dashboard for the same event ---
    let spec = EventSpec::new(
        "Earthquake timeline",
        &["earthquake", "quake", "tsunami", "sendai"],
    );
    let event = event_tweets(&api, &spec).expect("the event query runs");
    let analysis = analyze(&spec, &event, &AnalysisConfig::default());
    print!(
        "\n{}",
        render(
            &analysis,
            &DashboardOptions {
                map_height: 16,
                ..DashboardOptions::default()
            }
        )
    );

    println!("\nscripted ground truth:");
    for b in &scenario.bursts {
        println!("  {:>18}  at {}", b.label, b.start);
    }
}
