//! Lexicon-based sentiment baseline: embedded word lists + emoticons,
//! with negation flipping and elongation intensity.

use super::{Polarity, SentimentClassifier};
use crate::tokenize::{tokens, TokenKind};
use std::sync::OnceLock;

const POSITIVE_WORDS: &[&str] = &[
    "good",
    "great",
    "awesome",
    "amazing",
    "excellent",
    "love",
    "loved",
    "loves",
    "win",
    "wins",
    "won",
    "winning",
    "winner",
    "happy",
    "glad",
    "best",
    "beautiful",
    "brilliant",
    "fantastic",
    "wonderful",
    "perfect",
    "nice",
    "cool",
    "sweet",
    "superb",
    "thrilled",
    "excited",
    "exciting",
    "proud",
    "congrats",
    "congratulations",
    "yay",
    "woo",
    "woohoo",
    "goal",
    "score",
    "scored",
    "victory",
    "champions",
    "champion",
    "stunning",
    "incredible",
    "magic",
    "magnificent",
    "delighted",
    "relief",
    "safe",
    "rescued",
    "hope",
    "hopeful",
    "thank",
    "thanks",
    "blessed",
    "epic",
    "legend",
    "legendary",
    "masterclass",
    "clutch",
    "hero",
    "heroic",
    "smile",
    "joy",
    "celebrate",
    "celebration",
    "well",
    "strong",
    "support",
    "supported",
    "wow",
];

const NEGATIVE_WORDS: &[&str] = &[
    "bad",
    "terrible",
    "awful",
    "horrible",
    "hate",
    "hated",
    "hates",
    "lose",
    "loses",
    "lost",
    "losing",
    "loser",
    "sad",
    "angry",
    "furious",
    "worst",
    "ugly",
    "poor",
    "pathetic",
    "useless",
    "disaster",
    "disastrous",
    "tragedy",
    "tragic",
    "fear",
    "afraid",
    "scared",
    "scary",
    "panic",
    "damage",
    "damaged",
    "destroyed",
    "destruction",
    "collapse",
    "collapsed",
    "dead",
    "death",
    "deaths",
    "died",
    "dies",
    "injured",
    "injuries",
    "victims",
    "crisis",
    "fail",
    "failed",
    "failure",
    "fails",
    "shame",
    "shameful",
    "disgrace",
    "disgraceful",
    "embarrassing",
    "cry",
    "crying",
    "tears",
    "pain",
    "painful",
    "hurt",
    "hurts",
    "sick",
    "wrong",
    "broken",
    "worry",
    "worried",
    "worrying",
    "missing",
    "trapped",
    "devastating",
    "devastated",
    "grim",
    "bleak",
    "awful",
    "nightmare",
    "robbed",
    "cheated",
    "offside",
    "sucks",
    "suck",
];

const POSITIVE_EMOTICONS: &[&str] = &[
    ":)", ":-)", ":-))", ":D", ":-D", ";)", ";-)", "=)", "=D", "<3", "^_^", ":P", ":-P", "xD",
    "XD", ":3", ":'-)",
];
const NEGATIVE_EMOTICONS: &[&str] = &[
    ":(", ":-(", ";(", "=(", "D:", "T_T", ":'-(", ":,(", ":/", ":-/", ":|", ":-|",
];

/// Not the list `features.rs` marks negation with (`NB_NEGATORS`, 15
/// entries): the two drifted apart, and E7's Naive Bayes numbers depend
/// on that one staying as it is. Deliberate until E7 is gated.
const LEXICON_NEGATORS: &[&str] = &[
    "not", "no", "never", "don't", "dont", "doesn't", "doesnt", "didn't", "didnt", "can't", "cant",
    "won't", "wont", "isn't", "isnt", "aren't", "arent", "wasn't", "wasnt", "without", "nothing",
    "hardly", "barely",
];

/// What the lexicon says about one folded word.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// Flips the next two sentiment words.
    Negator,
    /// `+1.0` or `-1.0`.
    Valence(f64),
}

/// Longest word the lexicon can hold: every entry is ASCII and packs
/// into one `u128`, which is also the buffer `fold_word` folds into.
const MAX_WORD: usize = 16;

/// The `word → valence | negator` map: open addressing over packed
/// words, built once. A packed word is never 0 (words hold no NUL), so
/// 0 marks an empty slot.
struct Lexicon {
    slots: Vec<(u128, Entry)>,
}

impl Lexicon {
    const SLOTS: usize = 1024;

    fn slot_of(key: u128) -> usize {
        let folded = (key as u64) ^ ((key >> 64) as u64);
        (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize
    }

    fn build() -> Lexicon {
        let mut lex = Lexicon {
            slots: vec![(0, Entry::Negator); Self::SLOTS],
        };
        // A negator wins over a valence word of the same spelling, as
        // the negator test came first in the scorer this map replaced.
        let entries = (LEXICON_NEGATORS.iter().map(|w| (w, Entry::Negator)))
            .chain(POSITIVE_WORDS.iter().map(|w| (w, Entry::Valence(1.0))))
            .chain(NEGATIVE_WORDS.iter().map(|w| (w, Entry::Valence(-1.0))));
        for (word, entry) in entries {
            let key = pack(word.as_bytes()).expect("lexicon words are short ASCII");
            let mut at = Self::slot_of(key);
            while lex.slots[at].0 != 0 && lex.slots[at].0 != key {
                at = (at + 1) % Self::SLOTS;
            }
            if lex.slots[at].0 == 0 {
                lex.slots[at] = (key, entry);
            }
        }
        lex
    }

    fn get(&self, key: u128) -> Option<Entry> {
        let mut at = Self::slot_of(key);
        loop {
            match self.slots[at] {
                (0, _) => return None,
                (k, entry) if k == key => return Some(entry),
                _ => at = (at + 1) % Self::SLOTS,
            }
        }
    }
}

fn lexicon() -> &'static Lexicon {
    static L: OnceLock<Lexicon> = OnceLock::new();
    L.get_or_init(Lexicon::build)
}

/// Pack up to [`MAX_WORD`] non-NUL bytes into a key.
fn pack(bytes: &[u8]) -> Option<u128> {
    if bytes.is_empty() || bytes.len() > MAX_WORD || bytes.contains(&0) {
        return None;
    }
    let mut buf = [0u8; MAX_WORD];
    buf[..bytes.len()].copy_from_slice(bytes);
    Some(u128::from_le_bytes(buf))
}

/// Case-fold `word` and squash its elongations (runs longer than two
/// down to two) in one pass, straight into a packed key: `(key, was
/// elongated)`. `None` when the folded word cannot be a lexicon entry —
/// it holds a non-ASCII char or is longer than any entry.
fn fold_word(word: &str) -> Option<(u128, bool)> {
    let mut buf = [0u8; MAX_WORD];
    let mut len = 0;
    let mut prev = 0u8;
    let mut run = 0u32;
    let mut elongated = false;
    let mut push = |b: u8| {
        if b == prev {
            run += 1;
        } else {
            prev = b;
            run = 1;
        }
        if run > 2 {
            elongated = true;
            return true;
        }
        if b == 0 || len == MAX_WORD {
            return false;
        }
        buf[len] = b;
        len += 1;
        true
    };
    for c in word.chars() {
        if c.is_ascii() {
            if !push(c.to_ascii_lowercase() as u8) {
                return None;
            }
        } else {
            // A few non-ASCII chars fold to ASCII (the Kelvin sign to
            // `k`); most do not, and then no entry can match.
            for lower in c.to_lowercase() {
                if !lower.is_ascii() || !push(lower as u8) {
                    return None;
                }
            }
        }
    }
    Some((u128::from_le_bytes(buf), elongated))
}

/// Words the lexicon knows to be positive (used by the generator to emit
/// ground-truth-labeled text).
pub fn positive_vocabulary() -> &'static [&'static str] {
    POSITIVE_WORDS
}

/// Words the lexicon knows to be negative.
pub fn negative_vocabulary() -> &'static [&'static str] {
    NEGATIVE_WORDS
}

/// The emoticon lists, exposed for distant-supervision training.
pub fn emoticon_labels() -> (&'static [&'static str], &'static [&'static str]) {
    (POSITIVE_EMOTICONS, NEGATIVE_EMOTICONS)
}

/// Lexicon + emoticon classifier with negation handling.
#[derive(Debug, Clone, Default)]
pub struct LexiconClassifier;

impl LexiconClassifier {
    /// Construct (stateless).
    pub fn new() -> LexiconClassifier {
        LexiconClassifier
    }

    /// Signed score: sum of word/emoticon valences; negators flip the
    /// valence of the next 2 sentiment words; elongated sentiment words
    /// count double ("goooood").
    pub fn score(&self, text: &str) -> f64 {
        let lexicon = lexicon();
        let mut score = 0.0;
        let mut negate_scope = 0u8;
        for tok in tokens(text) {
            match tok.kind {
                TokenKind::Emoticon => {
                    if POSITIVE_EMOTICONS.contains(&tok.text) {
                        score += 1.5;
                    } else if NEGATIVE_EMOTICONS.contains(&tok.text) {
                        score -= 1.5;
                    }
                }
                TokenKind::Word | TokenKind::Hashtag => {
                    let folded = fold_word(tok.text);
                    let entry = folded.and_then(|(key, _)| lexicon.get(key));
                    let elongated = folded.is_some_and(|(_, elongated)| elongated);
                    match entry {
                        // Negators are matched unsquashed: "nooo" is
                        // not "no", it is an unknown word.
                        Some(Entry::Negator) if !elongated => negate_scope = 2,
                        Some(Entry::Valence(valence)) => {
                            let weight = if elongated { 2.0 } else { 1.0 };
                            let signed = if negate_scope > 0 {
                                negate_scope = 0;
                                -valence
                            } else {
                                valence
                            };
                            score += signed * weight;
                        }
                        _ => negate_scope = negate_scope.saturating_sub(1),
                    }
                }
                TokenKind::Punct
                    // Sentence-ish punctuation ends a negation scope.
                    if tok.text.starts_with(['.', ',', ';', '!', '?']) => {
                        negate_scope = 0;
                    }
                _ => {}
            }
        }
        score
    }
}

impl SentimentClassifier for LexiconClassifier {
    fn classify(&self, text: &str) -> Polarity {
        let s = self.score(text);
        if s > 0.0 {
            Polarity::Positive
        } else if s < 0.0 {
            Polarity::Negative
        } else {
            Polarity::Neutral
        }
    }

    fn name(&self) -> &'static str {
        "lexicon"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn classify(text: &str) -> Polarity {
        LexiconClassifier::new().classify(text)
    }

    #[test]
    fn obvious_polarity() {
        assert_eq!(classify("what a great goal, amazing!"), Polarity::Positive);
        assert_eq!(classify("terrible disaster, so sad"), Polarity::Negative);
        assert_eq!(classify("the game starts at nine"), Polarity::Neutral);
    }

    #[test]
    fn emoticons_carry_weight() {
        assert_eq!(classify("match today :)"), Polarity::Positive);
        assert_eq!(classify("match today :("), Polarity::Negative);
    }

    #[test]
    fn negation_flips() {
        assert_eq!(classify("not a good game"), Polarity::Negative);
        assert_eq!(classify("never lose hope"), Polarity::Positive);
    }

    #[test]
    fn negation_scope_limited_to_two_words() {
        // "not" is 3 words away from "good": no flip.
        assert_eq!(classify("not that the very good"), Polarity::Positive);
    }

    #[test]
    fn punctuation_ends_negation() {
        assert_eq!(classify("no! good goal"), Polarity::Positive);
    }

    #[test]
    fn elongation_doubles_weight() {
        let clf = LexiconClassifier::new();
        let base = clf.score("good");
        let elongated = clf.score("goooood");
        assert!(elongated > base);
    }

    #[test]
    fn mixed_text_sums() {
        // one positive + one negative = neutral
        assert_eq!(classify("great start but sad ending"), Polarity::Neutral);
        // two positives + one negative = positive
        assert_eq!(
            classify("great amazing start but sad ending"),
            Polarity::Positive
        );
    }

    #[test]
    fn vocab_lists_disjoint() {
        let pos: HashSet<_> = POSITIVE_WORDS.iter().collect();
        for w in NEGATIVE_WORDS {
            assert!(!pos.contains(w), "{w} in both lexicons");
        }
    }

    #[test]
    fn empty_text_is_neutral() {
        assert_eq!(classify(""), Polarity::Neutral);
    }

    #[test]
    fn every_lexicon_word_packs_and_has_no_elongation() {
        // What `fold_word` relies on: ASCII, at most MAX_WORD bytes, and
        // no run of three (an elongated token never *is* an entry, it
        // only squashes to one).
        for w in (POSITIVE_WORDS.iter())
            .chain(NEGATIVE_WORDS)
            .chain(LEXICON_NEGATORS)
        {
            assert!(w.is_ascii() && pack(w.as_bytes()).is_some(), "{w}");
            assert!(!crate::normalize::is_elongated(w), "{w}");
            assert_eq!(fold_word(w), Some((pack(w.as_bytes()).unwrap(), false)));
            assert!(lexicon().get(pack(w.as_bytes()).unwrap()).is_some(), "{w}");
        }
        assert_eq!(lexicon().get(pack(b"obama").unwrap()), None);
    }

    #[test]
    fn folding_that_changes_length_or_script() {
        // Kelvin sign folds to ASCII `k`: "than\u{212a}" is "thank".
        assert_eq!(fold_word("than\u{212a}"), fold_word("thank"));
        // `İ` lower-cases to `i` + U+0307, `ß` stays `ß`: no entry.
        assert_eq!(fold_word("wİn"), None);
        assert_eq!(fold_word("groß"), None);
        assert_eq!(fold_word("GOOOOD"), Some((pack(b"good").unwrap(), true)));
        assert_eq!(fold_word("a".repeat(40).as_str()).map(|f| f.1), Some(true));
        assert_eq!(fold_word("abcdefghijklmnopq"), None);
    }

    /// The scorer `score` replaced — a `String` per token, two
    /// `to_lowercase` and a `squash_elongations` per word, three set
    /// probes — kept as the reference `score` is compared against.
    mod oracle {
        use super::super::*;
        use crate::normalize::{is_elongated, squash_elongations};
        use crate::tokenize::oracle::tokenize;
        use std::collections::HashSet;

        pub fn score(text: &str) -> f64 {
            let pos_set: HashSet<&str> = POSITIVE_WORDS.iter().copied().collect();
            let neg_set: HashSet<&str> = NEGATIVE_WORDS.iter().copied().collect();
            let negator_set: HashSet<&str> = LEXICON_NEGATORS.iter().copied().collect();
            let mut score = 0.0;
            let mut negate_scope = 0u8;
            for tok in tokenize(text) {
                match tok.kind {
                    TokenKind::Emoticon => {
                        if POSITIVE_EMOTICONS.contains(&tok.text.as_str()) {
                            score += 1.5;
                        } else if NEGATIVE_EMOTICONS.contains(&tok.text.as_str()) {
                            score -= 1.5;
                        }
                    }
                    TokenKind::Word | TokenKind::Hashtag => {
                        let raw = tok.text.to_lowercase();
                        if negator_set.contains(raw.as_str()) {
                            negate_scope = 2;
                            continue;
                        }
                        let norm = squash_elongations(&raw);
                        let weight = if is_elongated(&raw) { 2.0 } else { 1.0 };
                        let valence = if pos_set.contains(norm.as_str()) {
                            1.0
                        } else if neg_set.contains(norm.as_str()) {
                            -1.0
                        } else {
                            negate_scope = negate_scope.saturating_sub(1);
                            continue;
                        };
                        let signed = if negate_scope > 0 {
                            negate_scope = 0;
                            -valence
                        } else {
                            valence
                        };
                        score += signed * weight;
                    }
                    TokenKind::Punct if tok.text.starts_with(['.', ',', ';', '!', '?']) => {
                        negate_scope = 0;
                    }
                    _ => {}
                }
            }
            score
        }
    }

    mod one_pass {
        use super::*;
        use crate::tokenize::oracle::{tweet, PIECES};
        use proptest::prelude::*;

        /// Sentiment-bearing pieces: lexicon words plain, shouted,
        /// elongated and hashtagged; negators (one elongated, which must
        /// not negate); scope-ending punctuation; emoticons; and chars
        /// whose lower-casing changes length or script.
        const WORDS: &[&str] = &[
            "good",
            "GOOD",
            "goooood",
            "gooood",
            "#great",
            "#GREAAAT",
            "bad",
            "baaad",
            "sad",
            "awful",
            "not",
            "NOT",
            "nooo",
            "no",
            "don't",
            "DON'T",
            "never",
            "nothing",
            "the",
            "game",
            "obama",
            ".",
            "!",
            ",",
            "?",
            ":)",
            ":(",
            ":-))",
            "D:",
            "thanK",
            "wİn",
            "İİİ",
            "groß",
            "ßßß",
            "ΣΑΣ",
            "hopeful",
            "hopefulllll",
            "congratulationsss",
            "lll",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn score_equals_the_three_set_scorer_bit_for_bit(
                parts in collection::vec((0usize..WORDS.len() + PIECES.len(), 0u8..4), 0..14),
            ) {
                // Lexicon pieces spaced three times in four, tokenizer
                // pieces mixed in.
                let mut text = String::new();
                for &(i, glue) in &parts {
                    match WORDS.get(i) {
                        Some(w) => text.push_str(w),
                        None => text.push_str(&tweet(&[(i - WORDS.len(), 1)])),
                    }
                    if glue != 0 {
                        text.push(' ');
                    }
                }
                let got = LexiconClassifier::new().score(&text);
                prop_assert_eq!(got.to_bits(), oracle::score(&text).to_bits());
            }

            #[test]
            fn score_equals_the_three_set_scorer_on_any_text(text in ".{0,60}") {
                let got = LexiconClassifier::new().score(&text);
                prop_assert_eq!(got.to_bits(), oracle::score(&text).to_bits());
            }
        }
    }
}
