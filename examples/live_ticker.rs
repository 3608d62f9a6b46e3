//! Real-time monitoring (§3.2): "they can monitor the event in
//! realtime by navigating to a web page that TwitInfo creates for the
//! event." This example drives the [`twitinfo::live`] monitor, a
//! standing TweeQL query, over the earthquake scenario: it advances the
//! stream to each simulated 15-minute tick, printing a flash line for
//! each peak flagged and labeled on the way, then a ticker line.
//!
//! Run with `cargo run --release --example live_ticker`.

use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::{Duration, Timestamp, VirtualClock};
use twitinfo::event::EventSpec;
use twitinfo::live::LiveEvent;
use twitinfo::store::AnalysisConfig;

fn main() {
    let scenario = scenarios::earthquakes();
    println!("generating {} …\n", scenario.name);
    let api = StreamingApi::new(generate(&scenario, 311), VirtualClock::new());
    let last = api.log().last().expect("a non-empty stream").created_at;

    let spec = EventSpec::new(
        "Earthquake timeline (live)",
        &["earthquake", "quake", "tsunami", "sendai"],
    );
    let mut live = LiveEvent::new(&api, spec, AnalysisConfig::default()).expect("query registers");

    // At each tick, take everything before it, then show the status.
    let tick = Duration::from_mins(15);
    let mut next_tick = Timestamp::ZERO + tick;
    while next_tick <= last {
        let flagged = live
            .advance_to(next_tick - Duration::from_millis(1))
            .expect("stream pumps");
        for peak in flagged {
            let terms = peak
                .terms
                .iter()
                .map(|t| t.term.as_str())
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "  ⚑ PEAK {} flagged at {}  (apex {}/min)  [{}]",
                peak.peak.label, peak.flagged_at, peak.peak.max_count, terms
            );
        }
        println!("{}", live.status_line());
        next_tick += tick;
    }
    live.finish().expect("stream drains");

    println!("\nfinal timeline: {}", live.timeline().sparkline(96));
    let (pos, neg, neu) = live.sentiment_counts();
    println!("sentiment: +{pos} −{neg} ·{neu}");
    println!("top links:");
    for link in live.top_links(3) {
        println!("  {:>4}× {}", link.count, link.url);
    }
    println!(
        "\nscripted ground truth: {} bursts at {}",
        scenario.bursts.len(),
        scenario
            .bursts
            .iter()
            .map(|b| b.start.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
