//! The [`Tweet`] record — the unit flowing through every stream in this
//! workspace — and its builder.

use crate::entities::Entities;
use crate::text::Text;
use crate::time::Timestamp;
use crate::user::User;
use crate::value::Value;
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
///
/// The row is 56 bytes: what every tweet has is inline, and what few
/// tweets have sits behind one `TweetExtra` box that a typical tweet
/// does not allocate. Read the rare fields through their accessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tweet {
    /// Monotone id.
    pub id: TweetId,
    /// Stream time of creation.
    pub created_at: Timestamp,
    /// Raw tweet text (≤ 140 chars in 2011-era streams). A slice of a
    /// chunk the producer shares among many tweets' texts, so cloning
    /// a tweet (per-connection delivery) and projecting it onto a
    /// record are refcount bumps, not copies.
    pub text: Text,
    /// The author, shared by every tweet of theirs a source holds:
    /// the generator and the log decoder allocate one `User` per
    /// distinct author, and a tweet costs a pointer.
    pub user: Arc<User>,
    /// The rare fields; `None` when the tweet has none of them.
    extra: Option<Box<TweetExtra>>,
    /// Generator-only ground truth: the burst index when it fits in
    /// 16 bits (a wider one lives in `extra`).
    burst: Option<u16>,
    /// Generator-only ground truth (None for externally loaded tweets).
    pub truth_polarity: Option<TruthPolarity>,
}

/// The fields most tweets leave empty. [`TweetBuilder::build`] keeps
/// the form canonical — a `lang` equal to the author's, a burst that
/// fits the row, and an all-empty box are never stored — so the
/// derived equality on [`Tweet`] compares values.
#[derive(Debug, Clone, Default, PartialEq)]
struct TweetExtra {
    coordinates: Option<(f64, f64)>,
    retweet_of: Option<TweetId>,
    lang: Option<Text>,
    truth_burst: Option<usize>,
}

impl TweetExtra {
    fn is_empty(&self) -> bool {
        self.coordinates.is_none()
            && self.retweet_of.is_none()
            && self.lang.is_none()
            && self.truth_burst.is_none()
    }
}

impl Tweet {
    /// Start building a tweet.
    pub fn builder(id: TweetId, text: impl Into<Text>) -> TweetBuilder {
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

    /// BCP-47-ish language code: the author's string unless this
    /// tweet's differs.
    #[inline]
    pub fn lang(&self) -> &Text {
        match self.extra.as_deref() {
            Some(TweetExtra {
                lang: Some(lang), ..
            }) => lang,
            _ => &self.user.lang,
        }
    }

    /// Exact GPS `(latitude, longitude)`, present only for the minority
    /// of tweets sent with geotagging enabled (the paper's Tweet Map
    /// uses only these).
    #[inline]
    pub fn coordinates(&self) -> Option<(f64, f64)> {
        self.extra.as_deref().and_then(|e| e.coordinates)
    }

    /// `Some(original_id)` when this is a retweet.
    #[inline]
    pub fn retweet_of(&self) -> Option<TweetId> {
        self.extra.as_deref().and_then(|e| e.retweet_of)
    }

    /// Generator-only ground truth: index of the scenario burst this
    /// tweet belongs to, if any. Lets peak-detection experiments
    /// compute precision/recall.
    #[inline]
    pub fn truth_burst(&self) -> Option<usize> {
        match self.burst {
            Some(b) => Some(usize::from(b)),
            None => self.extra.as_deref().and_then(|e| e.truth_burst),
        }
    }

    /// Geotag an already built tweet.
    pub fn set_coordinates(&mut self, lat: f64, lon: f64) {
        self.extra.get_or_insert_with(Box::default).coordinates = Some((lat, lon));
    }

    /// Hashtags, mentions and URLs, parsed from the text on each call.
    /// Computed, not stored: TwitInfo's two link panels are the only
    /// readers, and three `Vec`s would cost every held tweet 72 bytes
    /// for the 0.13 entities an average tweet has.
    pub fn entities(&self) -> Entities {
        Entities::parse(&self.text)
    }
}

/// The stream is held as one `Vec<Tweet>`: its stride is a quarter of
/// the peak resident set of every server, so growth here is a decision.
const _: () = assert!(std::mem::size_of::<Tweet>() <= 56);
/// A string is two words wherever the model holds one, so a `Value`
/// that carries it stays as wide as a `Vec`.
const _: () = assert!(std::mem::size_of::<Text>() == 16);
const _: () = assert!(std::mem::size_of::<Value>() <= 24);

/// The placeholder author every builder starts from, allocated once.
fn anon() -> Arc<User> {
    static ANON: OnceLock<Arc<User>> = OnceLock::new();
    Arc::clone(ANON.get_or_init(|| Arc::new(User::new(0, "anon"))))
}

/// Fluent builder used pervasively by the generator and tests.
#[derive(Debug, Clone)]
pub struct TweetBuilder {
    id: TweetId,
    created_at: Timestamp,
    text: Text,
    /// The placeholder author until set.
    user: Option<Arc<User>>,
    /// The placeholder author's `"en"` until set.
    lang: Option<Text>,
    truth_polarity: Option<TruthPolarity>,
    extra: TweetExtra,
}

impl TweetBuilder {
    /// New builder with required fields; everything else defaulted.
    /// The default author and language are one shared static, read
    /// only by a build that leaves them unset.
    pub fn new(id: TweetId, text: impl Into<Text>) -> TweetBuilder {
        TweetBuilder {
            id,
            created_at: Timestamp::ZERO,
            text: text.into(),
            user: None,
            lang: None,
            truth_polarity: None,
            extra: TweetExtra::default(),
        }
    }

    /// Set the author: a `User` by value, or an `Arc<User>` to share
    /// one allocation among the author's tweets.
    pub fn user(mut self, user: impl Into<Arc<User>>) -> Self {
        self.user = Some(user.into());
        self
    }

    /// Set creation time.
    #[inline]
    pub fn at(mut self, t: Timestamp) -> Self {
        self.created_at = t;
        self
    }

    /// Attach a GPS coordinate.
    #[inline]
    pub fn coordinates(mut self, lat: f64, lon: f64) -> Self {
        self.extra.coordinates = Some((lat, lon));
        self
    }

    /// Set language (default `"en"`). One equal to the author's is not
    /// stored: the tweet reads the author's string.
    pub fn lang(mut self, lang: impl Into<Text>) -> Self {
        self.lang = Some(lang.into());
        self
    }

    /// Mark as a retweet of `original`.
    #[inline]
    pub fn retweet_of(mut self, original: TweetId) -> Self {
        self.extra.retweet_of = Some(original);
        self
    }

    /// Record generator ground-truth polarity.
    #[inline]
    pub fn truth_polarity(mut self, p: TruthPolarity) -> Self {
        self.truth_polarity = Some(p);
        self
    }

    /// Record generator ground-truth burst membership.
    #[inline]
    pub fn truth_burst(mut self, burst: usize) -> Self {
        self.extra.truth_burst = Some(burst);
        self
    }

    /// Finish, boxing only the rare fields that are present.
    #[inline]
    pub fn build(self) -> Tweet {
        let user = self.user.unwrap_or_else(anon);
        let lang = self.lang.unwrap_or_else(|| anon().lang.clone());
        let mut extra = self.extra;
        if lang != user.lang {
            extra.lang = Some(lang);
        }
        let burst = extra.truth_burst.and_then(|b| u16::try_from(b).ok());
        if burst.is_some() {
            extra.truth_burst = None;
        }
        Tweet {
            id: self.id,
            created_at: self.created_at,
            text: self.text,
            user,
            extra: (!extra.is_empty()).then(|| Box::new(extra)),
            burst,
            truth_polarity: self.truth_polarity,
        }
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
        assert_eq!(&**t.lang(), "en");
        assert_eq!(*t.user, User::new(0, "anon"));
        assert!(t.coordinates().is_none());
        assert!(t.retweet_of().is_none());
    }

    #[test]
    fn default_author_and_language_are_shared() {
        let a = Tweet::builder(1, "a").build();
        let b = Tweet::builder(2, "b").build();
        assert!(Arc::ptr_eq(&a.user, &b.user));
        assert_eq!(a.lang().as_ptr(), b.lang().as_ptr());
        assert_eq!(a.lang().as_ptr(), a.user.lang.as_ptr());
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
        assert_eq!(t.coordinates(), Some((42.36, -71.09)));
        assert_eq!(t.retweet_of(), Some(1));
        assert_eq!(t.truth_polarity, Some(TruthPolarity::Positive));
        assert_eq!(t.truth_burst(), Some(2));
    }

    #[test]
    fn a_plain_tweet_boxes_nothing_and_rare_fields_round_trip() {
        let ja = Arc::new(User {
            lang: "ja".into(),
            ..User::new(5, "yuki")
        });
        let plain = Tweet::builder(1, "x")
            .user(Arc::clone(&ja))
            .lang("ja")
            .truth_burst(usize::from(u16::MAX))
            .build();
        assert!(plain.extra.is_none());
        assert_eq!(plain.lang().as_ptr(), ja.lang.as_ptr());
        assert_eq!(plain.truth_burst(), Some(usize::from(u16::MAX)));

        // The default language stays "en" under a "ja" author.
        let foreign = Tweet::builder(2, "x").user(Arc::clone(&ja)).build();
        assert_eq!(&**foreign.lang(), "en");
        let wide = Tweet::builder(3, "x").truth_burst(1 << 20).build();
        assert_eq!(wide.truth_burst(), Some(1 << 20));
        assert!(wide.burst.is_none());

        let mut tagged = Tweet::builder(4, "x").build();
        tagged.set_coordinates(1.5, -2.5);
        assert_eq!(
            tagged,
            Tweet::builder(4, "x").coordinates(1.5, -2.5).build()
        );
    }
}
