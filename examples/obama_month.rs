//! "A summary of a month in Barack Obama's life" — the third canned
//! TwitInfo demo (§4): five scripted news cycles on the `obama`
//! keyword, explored peak by peak.
//!
//! Run with `cargo run --release --example obama_month`.

use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::VirtualClock;
use twitinfo::event::EventSpec;
use twitinfo::keyterms::render_terms;
use twitinfo::logger::event_tweets;
use twitinfo::sentiment_agg::render_pie;
use twitinfo::store::{analyze, AnalysisConfig};

fn main() {
    let scenario = scenarios::obama_month();
    println!("generating {} …", scenario.name);
    let tweets = generate(&scenario, 44);
    println!(
        "firehose: {} tweets over {}\n",
        tweets.len(),
        scenario.duration
    );

    let spec = EventSpec::new("A month in Barack Obama's life", &["obama"]);
    let api = StreamingApi::new(tweets, VirtualClock::new());
    let event = event_tweets(&api, &spec).expect("the event query runs");
    let analysis = analyze(&spec, &event, &AnalysisConfig::default());

    println!("timeline: {}\n", analysis.timeline.sparkline(96));

    // §3.2: "Users can perform text search on this list of key terms to
    // locate a specific peak" — print the peak index the way the right
    // rail of Figure 1 shows it.
    println!("detected news cycles:");
    for p in &analysis.peaks {
        println!(
            "  peak {}  {} – {}  [{}]",
            p.peak.label,
            p.window.0,
            p.window.1,
            render_terms(&p.terms)
        );
        // Clicking a peak filters the panels to its window; show the
        // per-peak sentiment and links the panels would display.
        println!("        sentiment: {}", render_pie(&p.sentiment, 24));
        for l in &p.links {
            println!("        link {:>3}× {}", l.count, l.url);
        }
    }

    println!("\nscripted ground truth:");
    for b in &scenario.bursts {
        println!("  {:>20}  at {}", b.label, b.start);
    }

    println!("\noverall: {}", render_pie(&analysis.sentiment, 40));
}
