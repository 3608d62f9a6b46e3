//! The Popular Links panel (§3.3): "aggregates the top three URLs
//! extracted from tweets in the timeframe being explored."

use std::collections::HashMap;
use tweeql_model::{Timestamp, Tweet};

/// A popular URL and its share count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopularLink {
    /// The URL.
    pub url: String,
    /// Tweets sharing it in the timeframe.
    pub count: u64,
}

/// Top `k` URLs shared in `[start, end)` (the paper's panel uses k = 3).
pub fn popular_links(
    tweets: &[Tweet],
    start: Timestamp,
    end: Timestamp,
    k: usize,
) -> Vec<PopularLink> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for t in tweets {
        if t.created_at < start || t.created_at >= end {
            continue;
        }
        for u in t.entities().urls {
            *counts.entry(u.url).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<PopularLink> = counts
        .into_iter()
        .map(|(url, count)| PopularLink { url, count })
        .collect();
    ranked.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.url.cmp(&b.url)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::TweetBuilder;

    fn tweet(id: u64, text: &str, mins: i64) -> Tweet {
        TweetBuilder::new(id, text)
            .at(Timestamp::from_mins(mins))
            .build()
    }

    #[test]
    fn top_three_by_share_count() {
        let tweets = vec![
            tweet(1, "read http://a.com/x now", 1),
            tweet(2, "see http://a.com/x wow", 2),
            tweet(3, "also http://a.com/x", 3),
            tweet(4, "try http://b.com/y", 4),
            tweet(5, "and http://b.com/y", 5),
            tweet(6, "or http://c.com/z", 6),
            tweet(7, "maybe http://d.com/w", 7),
        ];
        let links = popular_links(&tweets, Timestamp::ZERO, Timestamp::from_mins(60), 3);
        assert_eq!(links.len(), 3);
        assert_eq!(links[0].url, "http://a.com/x");
        assert_eq!(links[0].count, 3);
        assert_eq!(links[1].url, "http://b.com/y");
        assert_eq!(links[2].count, 1);
    }

    /// Counts recorded when every tweet stored its parsed entities;
    /// the panel now parses the tweets of the timeframe on each call.
    #[test]
    fn soccer_match_links_are_what_stored_entities_gave() {
        let tweets = tweeql_firehose::generate(&tweeql_firehose::scenarios::soccer_match(), 42);
        let link = |url: &str, count| PopularLink {
            url: url.to_string(),
            count,
        };
        assert_eq!(
            popular_links(&tweets, Timestamp::ZERO, Timestamp::from_mins(10_000), 5),
            [
                link("http://bbc.in/mcfc-goal3", 1013),
                link("http://bbc.in/mcfc-goal2", 631),
                link("http://bbc.in/mcfc-goal1", 608),
                link("http://t.co/1dad34", 2),
                link("http://t.co/00070b", 1),
            ]
        );
        assert_eq!(
            popular_links(
                &tweets,
                Timestamp::from_mins(60),
                Timestamp::from_mins(120),
                3
            ),
            [
                link("http://bbc.in/mcfc-goal3", 1013),
                link("http://bbc.in/mcfc-goal2", 365),
                link("http://t.co/1dad34", 2),
            ]
        );
    }

    #[test]
    fn timeframe_filters() {
        let tweets = vec![
            tweet(1, "early http://a.com", 1),
            tweet(2, "late http://b.com", 50),
        ];
        let links = popular_links(
            &tweets,
            Timestamp::from_mins(40),
            Timestamp::from_mins(60),
            3,
        );
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].url, "http://b.com");
    }

    #[test]
    fn deterministic_tie_break_and_empty() {
        let tweets = vec![tweet(1, "x http://b.com and http://a.com", 1)];
        let links = popular_links(&tweets, Timestamp::ZERO, Timestamp::from_mins(10), 3);
        assert_eq!(links[0].url, "http://a.com");
        assert!(popular_links(&[], Timestamp::ZERO, Timestamp::from_mins(1), 3).is_empty());
    }
}
