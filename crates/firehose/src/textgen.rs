//! Tweet text synthesis.
//!
//! Composes ≤140-char tweets from topic keywords, burst phrases,
//! sentiment-bearing vocabulary (drawn from the classifier lexicon so
//! ground truth and features align), hashtags, shared URLs, emoticons
//! and elongations — the messy shape real classifier/extractor code has
//! to handle.

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write;
use tweeql_model::TruthPolarity;
use tweeql_text::sentiment::lexicon::{negative_vocabulary, positive_vocabulary};

/// Inputs for one tweet's text.
#[derive(Debug, Clone, Default)]
pub struct TextSpec<'a> {
    /// Topic keywords (one or two will be embedded).
    pub keywords: &'a [String],
    /// Topic/burst hashtags.
    pub hashtags: &'a [String],
    /// Neutral phrase fragments.
    pub phrases: &'a [String],
    /// Burst-specific phrases ("3-0", "tevez") — prioritized.
    pub burst_phrases: &'a [String],
    /// A URL to share with elevated probability.
    pub url: Option<&'a str>,
    /// Intended polarity.
    pub polarity: TruthPolarity,
}

const NEUTRAL_FILLER: &[&str] = &[
    "watching",
    "just saw",
    "hearing about",
    "following",
    "everyone talking about",
    "so",
    "right now",
    "tonight",
    "today",
    "cant believe",
    "did you see",
    "reports of",
    "update on",
    "more on",
    "thinking about",
    "breaking",
    "live",
    "wow",
    "whoa",
    "apparently",
    "they say",
    "people saying",
];

const NEUTRAL_TAIL: &[&str] = &[
    "",
    "for real",
    "right now",
    "tonight",
    "this is big",
    "stay tuned",
    "more soon",
    "what do you think",
    "thoughts?",
    "unreal",
    "no words",
    "seriously",
];

/// Choose a random element.
fn pick<'a>(rng: &mut StdRng, items: &'a [&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

fn pick_string<'a>(rng: &mut StdRng, items: &'a [String]) -> Option<&'a str> {
    if items.is_empty() {
        None
    } else {
        Some(items[rng.random_range(0..items.len())].as_str())
    }
}

/// Choose with a front-weighted (triangular) distribution: scripted
/// phrase lists lead with the headline vocabulary ("goal", "3-0",
/// "tevez", ...) and crowds echo the headline far more often than the
/// filler, which is also what lets TF-IDF peak labels recover the
/// scripted terms.
fn pick_string_front<'a>(rng: &mut StdRng, items: &'a [String]) -> Option<&'a str> {
    if items.is_empty() {
        None
    } else {
        let a = rng.random_range(0..items.len());
        let b = rng.random_range(0..items.len());
        Some(items[a.min(b)].as_str())
    }
}

/// Occasionally elongate the final vowel run of a word ("goal"→"goooal").
fn push_maybe_elongated(rng: &mut StdRng, out: &mut String, word: &str) {
    if rng.random_range(0..10) != 0 || word.len() < 3 {
        out.push_str(word);
        return;
    }
    let last = word.chars().count().saturating_sub(1);
    for (i, c) in word.chars().enumerate() {
        out.push(c);
        if "aeiou".contains(c) && i + 1 == last {
            for _ in 0..rng.random_range(2..5) {
                out.push(c);
            }
        }
    }
}

/// The tweet under construction: space-separated parts in one buffer.
struct Parts {
    text: String,
    any: bool,
}

impl Parts {
    /// Start the next part, returning the buffer to write it into.
    fn next(&mut self) -> &mut String {
        if self.any {
            self.text.push(' ');
        }
        self.any = true;
        &mut self.text
    }

    fn push(&mut self, part: &str) {
        self.next().push_str(part);
    }
}

/// Generate one tweet's text.
pub fn generate_text(rng: &mut StdRng, spec: &TextSpec<'_>) -> String {
    let mut parts = Parts {
        text: String::with_capacity(160),
        any: false,
    };

    // Opening filler ~70%.
    if rng.random_range(0..10) < 7 {
        parts.push(pick(rng, NEUTRAL_FILLER));
    }

    // A topic keyword (always at least one so keyword filters see it).
    if let Some(kw) = pick_string(rng, spec.keywords) {
        push_maybe_elongated(rng, parts.next(), kw);
        // Second keyword 25%.
        if spec.keywords.len() > 1 && rng.random_range(0..4) == 0 {
            if let Some(kw2) = pick_string(rng, spec.keywords) {
                if kw2 != kw {
                    parts.push(kw2);
                }
            }
        }
    }

    // Burst phrase with priority (80% when bursting), else topic phrase 40%.
    if !spec.burst_phrases.is_empty() && rng.random_range(0..10) < 8 {
        if let Some(p) = pick_string_front(rng, spec.burst_phrases) {
            parts.push(p);
        }
    } else if rng.random_range(0..10) < 4 {
        if let Some(p) = pick_string(rng, spec.phrases) {
            parts.push(p);
        }
    }

    // Sentiment payload: 1-2 polar words, plus emoticon 35%.
    let polar = match spec.polarity {
        TruthPolarity::Positive => {
            Some((positive_vocabulary(), &[":)", ":D", ":-)", "<3", ";)"][..]))
        }
        TruthPolarity::Negative => Some((negative_vocabulary(), &[":(", ":-(", "D:", ":/"][..])),
        TruthPolarity::Neutral => None,
    };
    match polar {
        Some((vocab, emoticons)) => {
            let w = vocab[rng.random_range(0..vocab.len())];
            push_maybe_elongated(rng, parts.next(), w);
            if rng.random_range(0..3) == 0 {
                parts.push(vocab[rng.random_range(0..vocab.len())]);
            }
            if rng.random_range(0..100) < 35 {
                parts.push(pick(rng, emoticons));
            }
        }
        None => {
            if rng.random_range(0..10) < 6 {
                parts.push(pick(rng, NEUTRAL_TAIL));
            }
        }
    }

    // Exclamation bursts 30%, on the last part.
    if rng.random_range(0..10) < 3 && parts.any {
        for _ in 0..rng.random_range(1..4) {
            parts.text.push('!');
        }
    }

    // Hashtag 45%.
    if rng.random_range(0..100) < 45 {
        if let Some(h) = pick_string(rng, spec.hashtags) {
            let out = parts.next();
            out.push('#');
            out.push_str(h);
        }
    }

    // URL: 60% when a burst URL exists, 8% generic otherwise.
    if let Some(url) = spec.url {
        if rng.random_range(0..10) < 6 {
            parts.push(url);
        }
    } else if rng.random_range(0..100) < 8 {
        let id = rng.random_range(0..0xffffffu32);
        let _ = write!(parts.next(), "http://t.co/{id:06x}");
    }

    let mut text = parts.text;
    text.truncate(text.trim_end().len());
    text.drain(..text.len() - text.trim_start().len());
    if text.is_empty() {
        text.push_str("...");
    }
    // 2011 limit.
    if let Some((cut, _)) = text.char_indices().nth(140) {
        text.truncate(cut);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tweeql_text::sentiment::{LexiconClassifier, Polarity, SentimentClassifier};

    fn spec_with<'a>(keywords: &'a [String], polarity: TruthPolarity) -> TextSpec<'a> {
        TextSpec {
            keywords,
            polarity,
            ..TextSpec::default()
        }
    }

    #[test]
    fn always_includes_a_keyword() {
        let kws = vec!["obama".to_string()];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let t = generate_text(&mut rng, &spec_with(&kws, TruthPolarity::Neutral));
            assert!(
                t.to_lowercase().contains("obama") || t.contains("obama"),
                "{t}"
            );
        }
    }

    #[test]
    fn respects_140_chars() {
        let kws: Vec<String> = vec!["supercalifragilisticexpialidocious".repeat(3)];
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let t = generate_text(&mut rng, &spec_with(&kws, TruthPolarity::Positive));
            assert!(t.chars().count() <= 140);
        }
    }

    #[test]
    fn polarity_is_recoverable_by_lexicon() {
        let kws = vec!["soccer".to_string()];
        let clf = LexiconClassifier::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pos_correct = 0;
        let mut neg_correct = 0;
        for _ in 0..200 {
            let t = generate_text(&mut rng, &spec_with(&kws, TruthPolarity::Positive));
            if clf.classify(&t) == Polarity::Positive {
                pos_correct += 1;
            }
            let t = generate_text(&mut rng, &spec_with(&kws, TruthPolarity::Negative));
            if clf.classify(&t) == Polarity::Negative {
                neg_correct += 1;
            }
        }
        // The generator embeds lexicon words, so recall should be high
        // (not perfect: elongations and clipping interfere).
        assert!(pos_correct > 150, "pos = {pos_correct}");
        assert!(neg_correct > 150, "neg = {neg_correct}");
    }

    #[test]
    fn burst_phrases_dominate_when_present() {
        let kws = vec!["soccer".to_string()];
        let burst = vec!["3-0".to_string(), "tevez".to_string()];
        let spec = TextSpec {
            keywords: &kws,
            burst_phrases: &burst,
            polarity: TruthPolarity::Neutral,
            ..TextSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..200)
            .filter(|_| {
                let t = generate_text(&mut rng, &spec);
                t.contains("3-0") || t.contains("tevez")
            })
            .count();
        assert!(hits > 120, "hits = {hits}");
    }

    #[test]
    fn burst_url_is_shared_often() {
        let kws = vec!["quake".to_string()];
        let spec = TextSpec {
            keywords: &kws,
            url: Some("http://usgs.gov/quake/123"),
            polarity: TruthPolarity::Neutral,
            ..TextSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..200)
            .filter(|_| generate_text(&mut rng, &spec).contains("usgs.gov"))
            .count();
        assert!((90..=160).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn hashtags_appear_with_hash_sigil() {
        let kws = vec!["mcfc".to_string()];
        let tags = vec!["mcfc".to_string()];
        let spec = TextSpec {
            keywords: &kws,
            hashtags: &tags,
            polarity: TruthPolarity::Neutral,
            ..TextSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let hits = (0..200)
            .filter(|_| generate_text(&mut rng, &spec).contains("#mcfc"))
            .count();
        assert!(hits > 50, "hits = {hits}");
    }

    #[test]
    fn deterministic_given_seed() {
        let kws = vec!["x".to_string()];
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10)
                .map(|_| generate_text(&mut rng, &spec_with(&kws, TruthPolarity::Positive)))
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10)
                .map(|_| generate_text(&mut rng, &spec_with(&kws, TruthPolarity::Positive)))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn empty_spec_still_produces_text() {
        let mut rng = StdRng::seed_from_u64(10);
        let t = generate_text(&mut rng, &TextSpec::default());
        assert!(!t.is_empty());
    }
}
