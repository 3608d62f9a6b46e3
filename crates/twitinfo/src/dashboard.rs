//! The Figure-1 dashboard, rendered for a terminal.
//!
//! Panels, numbered as in the paper's Figure 1:
//! 1. event name and keywords;
//! 2. the event timeline with peak flags (A, B, …) and their key-term
//!    annotations;
//! 3. the tweet map (sentiment-colored ASCII world map + top clusters);
//! 4. relevant tweets, colored by sentiment;
//! 5. popular links;
//! 6. the overall sentiment pie.

use crate::sentiment_agg::render_pie;
use crate::store::EventAnalysis;
use tweeql_text::sentiment::Polarity;

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct DashboardOptions {
    /// Total character width.
    pub width: usize,
    /// Use ANSI colors for sentiment.
    pub color: bool,
    /// Map height in rows (0 hides the map).
    pub map_height: usize,
}

impl Default for DashboardOptions {
    fn default() -> Self {
        DashboardOptions {
            width: 100,
            color: true,
            map_height: 14,
        }
    }
}

fn paint(text: &str, sentiment: Polarity, color: bool) -> String {
    if !color {
        return text.to_string();
    }
    match sentiment {
        // The paper colors tweets blue (positive), red (negative),
        // white (neutral).
        Polarity::Positive => format!("\x1b[34m{text}\x1b[0m"),
        Polarity::Negative => format!("\x1b[31m{text}\x1b[0m"),
        Polarity::Neutral => text.to_string(),
    }
}

fn rule(width: usize, title: &str) -> String {
    let head = format!("── {title} ");
    let pad = width.saturating_sub(head.chars().count());
    format!("{head}{}\n", "─".repeat(pad))
}

/// Render the full dashboard.
pub fn render(analysis: &EventAnalysis, opts: &DashboardOptions) -> String {
    let w = opts.width.max(40);
    let mut out = String::new();

    // (1) Event header.
    out.push_str(&rule(w, "TwitInfo"));
    out.push_str(&format!("Event: {}\n", analysis.name));
    out.push_str(&format!(
        "Keywords: {}   ({} tweets logged)\n",
        analysis.keywords.join(", "),
        analysis.matched.len()
    ));

    // (2) Timeline with peak flags.
    out.push_str(&rule(w, "Event timeline (tweets/min)"));
    let spark_width = w.saturating_sub(2);
    out.push_str(&format!("▕{}▏\n", analysis.timeline.sparkline(spark_width)));
    // Flag row: mark each peak's apex position.
    let n_bins = analysis.timeline.bins.len().max(1);
    let mut flags = vec![' '; spark_width];
    for p in &analysis.peaks {
        let col = p.peak.apex * spark_width / n_bins;
        if col < flags.len() {
            flags[col] = p.peak.label;
        }
    }
    out.push_str(&format!(" {}\n", flags.iter().collect::<String>()));
    out.push_str(&format!(
        "max {}/bin over {} bins of {}\n",
        analysis.timeline.max_count(),
        analysis.timeline.bins.len(),
        analysis.timeline.bin
    ));
    out.push_str(&format!(
        "counters: matched={} peaks={} pos={} neg={} neu={}\n",
        analysis.matched.len(),
        analysis.peaks.len(),
        analysis.sentiment.positive,
        analysis.sentiment.negative,
        analysis.sentiment.neutral
    ));

    // Peak annotations ("peak F: 3-0, tevez").
    if analysis.peaks.is_empty() {
        out.push_str("(no peaks detected)\n");
    }
    for p in &analysis.peaks {
        let terms = p
            .terms
            .iter()
            .map(|t| t.term.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  peak {}  {} – {}  max {:>5}/bin  [{}]\n",
            p.peak.label, p.window.0, p.window.1, p.peak.max_count, terms
        ));
    }

    // (3) Tweet map.
    if opts.map_height > 0 {
        out.push_str(&rule(
            w,
            "Tweet map (+/⊕ positive, -/⊖ negative, ·/# neutral)",
        ));
        out.push_str(&crate::mapview::render_ascii_map(
            &analysis.markers,
            w.saturating_sub(2),
            opts.map_height,
        ));
        for c in analysis.clusters.iter().take(5) {
            out.push_str(&format!(
                "  cluster ({:>4}, {:>5}): {:>5} tweets, net sentiment {:+.2}\n",
                c.cell.0, c.cell.1, c.count, c.net_sentiment
            ));
        }
    }

    // (4) Relevant tweets.
    out.push_str(&rule(w, "Relevant tweets"));
    for t in &analysis.relevant {
        let line = format!(
            "  @{:<14} {:.2}  {}",
            t.screen_name,
            t.similarity,
            t.text
                .chars()
                .take(w.saturating_sub(26))
                .collect::<String>()
        );
        out.push_str(&paint(&line, t.sentiment, opts.color));
        out.push('\n');
    }
    if analysis.relevant.is_empty() {
        out.push_str("  (none)\n");
    }

    // (5) Popular links.
    out.push_str(&rule(w, "Popular links"));
    for l in &analysis.links {
        out.push_str(&format!("  {:>4}×  {}\n", l.count, l.url));
    }
    if analysis.links.is_empty() {
        out.push_str("  (none)\n");
    }

    // (6) Overall sentiment.
    out.push_str(&rule(w, "Overall sentiment"));
    out.push_str(&format!("  {}\n", render_pie(&analysis.sentiment, 40)));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSpec;
    use crate::logger::event_tweets;
    use crate::store::{analyze, AnalysisConfig};
    use tweeql_model::{Duration, Timestamp};

    fn sample_analysis() -> EventAnalysis {
        let mut s = tweeql_firehose::scenarios::soccer_match();
        s.duration = Duration::from_mins(45);
        s.bursts.retain(|b| b.end() <= Timestamp::ZERO + s.duration);
        s.population_size = 500;
        let api = tweeql_firehose::StreamingApi::new(
            tweeql_firehose::generate(&s, 4),
            tweeql_model::VirtualClock::new(),
        );
        let spec = EventSpec::new(
            "Soccer: Manchester City vs. Liverpool",
            &["soccer", "football", "manchester", "liverpool"],
        );
        let tweets = event_tweets(&api, &spec).unwrap();
        analyze(&spec, &tweets, &AnalysisConfig::default())
    }

    #[test]
    fn renders_all_six_panels() {
        let a = sample_analysis();
        let s = render(&a, &DashboardOptions::default());
        assert!(s.contains("TwitInfo"));
        assert!(s.contains("Event timeline"));
        assert!(s.contains("Tweet map"));
        assert!(s.contains("Relevant tweets"));
        assert!(s.contains("Popular links"));
        assert!(s.contains("Overall sentiment"));
        assert!(s.contains("Soccer: Manchester City vs. Liverpool"));
        assert!(s.contains("counters: matched="), "{s}");
    }

    #[test]
    fn no_color_mode_has_no_escapes() {
        let a = sample_analysis();
        let s = render(
            &a,
            &DashboardOptions {
                color: false,
                ..DashboardOptions::default()
            },
        );
        assert!(!s.contains('\x1b'));
    }

    #[test]
    fn map_can_be_hidden() {
        let a = sample_analysis();
        let s = render(
            &a,
            &DashboardOptions {
                map_height: 0,
                ..DashboardOptions::default()
            },
        );
        assert!(!s.contains("Tweet map"));
    }

    #[test]
    fn peak_flags_appear_with_annotations() {
        let a = sample_analysis();
        if a.peaks.is_empty() {
            return; // burst-free cut; nothing to assert
        }
        let s = render(&a, &DashboardOptions::default());
        assert!(s.contains("peak A"), "{s}");
    }
}
