//! The Figure-1 reproduction: the TwitInfo dashboard for "Soccer:
//! Manchester City vs. Liverpool", with scripted goals (including the
//! "3-0" / "Tevez" burst the paper shows as peak F).
//!
//! Run with `cargo run --release --example soccer_dashboard`.
//! Pass `--html dashboard.html` to also write the web version.

use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::VirtualClock;
use twitinfo::dashboard::{render, DashboardOptions};
use twitinfo::event::EventSpec;
use twitinfo::html::render_html;
use twitinfo::logger::event_tweets;
use twitinfo::store::{analyze, AnalysisConfig};

fn main() {
    let scenario = scenarios::soccer_match();
    println!("generating {} …", scenario.name);
    let tweets = generate(&scenario, 42);
    println!(
        "firehose: {} tweets over {}\n",
        tweets.len(),
        scenario.duration
    );

    // §3.1: the user defines the event by keywords and a name.
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

    // TwitInfo logs the tweets the event's TweeQL query selects.
    let api = StreamingApi::new(tweets, VirtualClock::new());
    let event = event_tweets(&api, &spec).expect("the event query runs");
    let analysis = analyze(&spec, &event, &AnalysisConfig::default());
    print!("{}", render(&analysis, &DashboardOptions::default()));

    // Compare detected peaks to the scripted ground truth.
    println!("\nscripted ground truth:");
    for b in &scenario.bursts {
        println!(
            "  {:>22}  at {}  (peak ×{})",
            b.label, b.start, b.peak_multiplier
        );
    }

    if let Some(pos) = std::env::args().position(|a| a == "--html") {
        if let Some(path) = std::env::args().nth(pos + 1) {
            std::fs::write(&path, render_html(&analysis)).expect("write html");
            println!("\nwrote {path}");
        }
    }
}
