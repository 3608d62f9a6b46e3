//! Event definitions (§3.1 "Creating an Event").
//!
//! "TwitInfo users define an event by specifying a Twitter keyword
//! query ... Users give the event a human-readable name ... as well as
//! an optional time window."

use tweeql_model::Timestamp;

/// A user-defined event to track.
#[derive(Debug, Clone)]
pub struct EventSpec {
    /// Human-readable name, e.g. "Soccer: Manchester City vs. Liverpool".
    pub name: String,
    /// Tracking keywords, e.g. soccer, football, manchester, liverpool.
    pub keywords: Vec<String>,
    /// Optional time window restricting the event.
    pub window: Option<(Timestamp, Timestamp)>,
}

impl EventSpec {
    /// New event with keywords and no time restriction.
    pub fn new(name: impl Into<String>, keywords: &[&str]) -> EventSpec {
        EventSpec {
            name: name.into(),
            keywords: keywords.iter().map(|k| k.to_lowercase()).collect(),
            window: None,
        }
    }

    /// Restrict to a time window.
    pub fn with_window(mut self, start: Timestamp, end: Timestamp) -> EventSpec {
        self.window = Some((start, end));
        self
    }

    /// The event's TweeQL WHERE clause — TwitInfo "begins logging
    /// tweets matching the query" through the stream processor
    /// ([`crate::logger::event_tweets`]).
    pub fn tweeql_predicate(&self) -> String {
        self.keywords
            .iter()
            .map(|k| format!("text contains '{}'", k.replace('\'', "''")))
            .collect::<Vec<_>>()
            .join(" OR ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tweeql_predicate_renders_or_chain() {
        let spec = EventSpec::new("e", &["soccer", "it's"]);
        assert_eq!(
            spec.tweeql_predicate(),
            "text contains 'soccer' OR text contains 'it''s'"
        );
    }

    #[test]
    fn keywords_lowercased() {
        let spec = EventSpec::new("e", &["ObAmA"]);
        assert_eq!(spec.keywords, vec!["obama"]);
    }
}
