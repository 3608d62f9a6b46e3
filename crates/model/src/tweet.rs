//! The [`Tweet`] record — the unit flowing through every stream in this
//! workspace — and its builder.

use crate::entities::Entities;
use crate::time::Timestamp;
use crate::user::User;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Numeric tweet identifier (monotone within a generated stream).
pub type TweetId = u64;

/// Ground-truth polarity attached by the synthetic generator.
///
/// Real tweets carry no label; the generator records the polarity it
/// *intended* so classifier experiments (E7) and TwitInfo's
/// recall-normalization can be evaluated against truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TruthPolarity {
    /// Intended positive tweet.
    Positive,
    /// Intended negative tweet.
    Negative,
    /// Neutral / objective tweet.
    #[default]
    Neutral,
}

/// A single tweet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tweet {
    /// Monotone id.
    pub id: TweetId,
    /// Raw tweet text (≤ 140 chars in 2011-era streams). Shared so
    /// cloning a tweet (per-connection delivery) and projecting it onto
    /// a record are refcount bumps, not copies.
    pub text: Arc<str>,
    /// The author, shared by every tweet of theirs a source holds:
    /// the generator and the log decoder allocate one `User` per
    /// distinct author, and a tweet costs a pointer.
    pub user: Arc<User>,
    /// Stream time of creation.
    pub created_at: Timestamp,
    /// Exact GPS coordinate, present only for the minority of tweets sent
    /// with geotagging enabled (the paper's Tweet Map uses only these).
    pub coordinates: Option<(f64, f64)>,
    /// BCP-47-ish language code.
    pub lang: Arc<str>,
    /// `Some(original_id)` when this is a retweet.
    pub retweet_of: Option<TweetId>,
    /// Generator-only ground truth (None for externally loaded tweets).
    pub truth_polarity: Option<TruthPolarity>,
    /// Generator-only ground truth: index of the scenario burst this
    /// tweet belongs to, if any. Lets peak-detection experiments compute
    /// precision/recall.
    pub truth_burst: Option<usize>,
}

impl Tweet {
    /// Start building a tweet.
    pub fn builder(id: TweetId, text: impl Into<Arc<str>>) -> TweetBuilder {
        TweetBuilder::new(id, text)
    }

    /// Case-insensitive substring containment — the semantics of the
    /// TweeQL `text contains 'obama'` predicate.
    pub fn contains(&self, needle: &str) -> bool {
        if needle.is_empty() {
            return true;
        }
        self.text.to_lowercase().contains(&needle.to_lowercase())
    }

    /// `(latitude, longitude)` if the tweet was geotagged.
    pub fn latlon(&self) -> Option<(f64, f64)> {
        self.coordinates
    }

    /// Hashtags, mentions and URLs, parsed from the text on each call.
    /// Computed, not stored: TwitInfo's two link panels are the only
    /// readers, and three `Vec`s would cost every held tweet 72 bytes
    /// for the 0.13 entities an average tweet has.
    pub fn entities(&self) -> Entities {
        Entities::parse(&self.text)
    }
}

/// The stream is held as one `Vec<Tweet>`: its stride is half the
/// resident set of every server, so growth here is a decision.
const _: () = assert!(std::mem::size_of::<Tweet>() <= 128);

/// The placeholder author every builder starts from, allocated once.
fn anon() -> Arc<User> {
    static ANON: OnceLock<Arc<User>> = OnceLock::new();
    Arc::clone(ANON.get_or_init(|| Arc::new(User::new(0, "anon"))))
}

/// Fluent builder used pervasively by the generator and tests.
#[derive(Debug, Clone)]
pub struct TweetBuilder {
    tweet: Tweet,
}

impl TweetBuilder {
    /// New builder with required fields; everything else defaulted.
    /// The default author and language are one shared static, so a
    /// builder whose caller sets both allocates nothing for them.
    pub fn new(id: TweetId, text: impl Into<Arc<str>>) -> TweetBuilder {
        let anon = anon();
        TweetBuilder {
            tweet: Tweet {
                id,
                text: text.into(),
                lang: Arc::clone(&anon.lang),
                user: anon,
                created_at: Timestamp::ZERO,
                coordinates: None,
                retweet_of: None,
                truth_polarity: None,
                truth_burst: None,
            },
        }
    }

    /// Set the author: a `User` by value, or an `Arc<User>` to share
    /// one allocation among the author's tweets.
    pub fn user(mut self, user: impl Into<Arc<User>>) -> Self {
        self.tweet.user = user.into();
        self
    }

    /// Set creation time.
    pub fn at(mut self, t: Timestamp) -> Self {
        self.tweet.created_at = t;
        self
    }

    /// Attach a GPS coordinate.
    pub fn coordinates(mut self, lat: f64, lon: f64) -> Self {
        self.tweet.coordinates = Some((lat, lon));
        self
    }

    /// Set language.
    pub fn lang(mut self, lang: impl Into<Arc<str>>) -> Self {
        self.tweet.lang = lang.into();
        self
    }

    /// Mark as a retweet of `original`.
    pub fn retweet_of(mut self, original: TweetId) -> Self {
        self.tweet.retweet_of = Some(original);
        self
    }

    /// Record generator ground-truth polarity.
    pub fn truth_polarity(mut self, p: TruthPolarity) -> Self {
        self.tweet.truth_polarity = Some(p);
        self
    }

    /// Record generator ground-truth burst membership.
    pub fn truth_burst(mut self, burst: usize) -> Self {
        self.tweet.truth_burst = Some(burst);
        self
    }

    /// Finish.
    pub fn build(self) -> Tweet {
        self.tweet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_entity_parse() {
        let t = Tweet::builder(1, "GOAL #mcfc http://t.co/x").build();
        assert_eq!(t.id, 1);
        assert_eq!(t.entities().hashtags[0].tag, "mcfc");
        assert_eq!(t.entities().urls[0].url, "http://t.co/x");
        assert_eq!(&*t.lang, "en");
        assert_eq!(*t.user, User::new(0, "anon"));
        assert!(t.coordinates.is_none());
        assert!(t.retweet_of.is_none());
    }

    #[test]
    fn default_author_and_language_are_shared() {
        let a = Tweet::builder(1, "a").build();
        let b = Tweet::builder(2, "b").build();
        assert!(Arc::ptr_eq(&a.user, &b.user));
        assert!(Arc::ptr_eq(&a.lang, &b.lang));
        assert!(Arc::ptr_eq(&a.lang, &a.user.lang));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let t = Tweet::builder(3, "Barack Obama speaks").build();
        assert!(t.contains("obama"));
        assert!(t.contains("OBAMA"));
        assert!(t.contains("")); // empty needle matches everything
        assert!(!t.contains("soccer"));
    }

    #[test]
    fn builder_sets_all_fields() {
        let u = User::new(9, "karger");
        let t = Tweet::builder(4, "hello")
            .user(u.clone())
            .at(Timestamp::from_secs(30))
            .coordinates(42.36, -71.09)
            .lang("en")
            .retweet_of(1)
            .truth_polarity(TruthPolarity::Positive)
            .truth_burst(2)
            .build();
        assert_eq!(*t.user, u);
        assert_eq!(t.created_at, Timestamp::from_secs(30));
        assert_eq!(t.latlon(), Some((42.36, -71.09)));
        assert_eq!(t.retweet_of, Some(1));
        assert_eq!(t.truth_polarity, Some(TruthPolarity::Positive));
        assert_eq!(t.truth_burst, Some(2));
    }
}
