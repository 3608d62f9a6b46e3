//! Feature extraction for the Naive Bayes sentiment classifier:
//! normalized unigrams (+optional bigrams), negation-marked tokens, and
//! an elongation indicator. Emoticons are *excluded* — they are the
//! distant-supervision labels, so using them as features would leak.

use crate::normalize::{is_elongated, squash_elongations};
use crate::tokenize::{tokens, TokenKind};

/// Feature-extraction knobs.
#[derive(Debug, Clone, Copy)]
pub struct FeatureOptions {
    /// Emit `w1_w2` bigram features.
    pub bigrams: bool,
    /// Prefix tokens inside a negation scope with `NOT_`.
    pub mark_negation: bool,
    /// Emit an `__ELONGATED__` indicator when any token was elongated.
    pub elongation_feature: bool,
}

impl Default for FeatureOptions {
    fn default() -> Self {
        FeatureOptions {
            bigrams: true,
            mark_negation: true,
            elongation_feature: true,
        }
    }
}

/// Not the list the lexicon scorer flips on (`LEXICON_NEGATORS`, 23
/// entries): the two drifted apart, and E7's Naive Bayes numbers were
/// measured with this one. Deliberate until E7 is gated.
const NB_NEGATORS: &[&str] = &[
    "not", "no", "never", "don't", "dont", "doesn't", "doesnt", "didn't", "didnt", "can't", "cant",
    "won't", "wont", "isn't", "isnt",
];

/// Extract the feature bag for one tweet.
pub fn extract_features(text: &str, opts: FeatureOptions) -> Vec<String> {
    let mut feats = Vec::new();
    let mut words = Vec::new();
    let mut negated = false;
    let mut any_elongated = false;

    for tok in tokens(text) {
        match tok.kind {
            TokenKind::Word | TokenKind::Hashtag => {
                let lower = tok.text.to_lowercase();
                if is_elongated(&lower) {
                    any_elongated = true;
                }
                let norm = squash_elongations(&lower);
                if NB_NEGATORS.contains(&norm.as_str()) {
                    negated = true;
                    words.push(norm);
                    continue;
                }
                let feat = if negated && opts.mark_negation {
                    format!("NOT_{norm}")
                } else {
                    norm.clone()
                };
                words.push(feat);
            }
            TokenKind::Number => words.push(tok.text.to_string()),
            TokenKind::Punct if tok.text.starts_with(['.', ',', ';', '!', '?']) => {
                negated = false;
            }
            // URLs/mentions are noise for sentiment; emoticons are labels.
            _ => {}
        }
    }

    feats.extend(words.iter().cloned());
    if opts.bigrams {
        for pair in words.windows(2) {
            feats.push(format!("{}_{}", pair[0], pair[1]));
        }
    }
    if opts.elongation_feature && any_elongated {
        feats.push("__ELONGATED__".to_string());
    }
    feats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unigrams_are_normalized() {
        let f = extract_features(
            "GOOOOD Game",
            FeatureOptions {
                bigrams: false,
                mark_negation: false,
                elongation_feature: false,
            },
        );
        assert_eq!(f, vec!["good", "game"]);
    }

    #[test]
    fn emoticons_never_become_features() {
        let f = extract_features("happy :) day", FeatureOptions::default());
        assert!(f.iter().all(|x| !x.contains(':')), "{f:?}");
    }

    #[test]
    fn negation_marking() {
        let f = extract_features("not good", FeatureOptions::default());
        assert!(f.contains(&"NOT_good".to_string()));
        assert!(!f.contains(&"good".to_string()));
    }

    #[test]
    fn negation_resets_at_punctuation() {
        let f = extract_features("not now. good", FeatureOptions::default());
        assert!(f.contains(&"good".to_string()));
    }

    #[test]
    fn bigrams_emitted() {
        let f = extract_features("own goal disaster", FeatureOptions::default());
        assert!(f.contains(&"own_goal".to_string()));
        assert!(f.contains(&"goal_disaster".to_string()));
    }

    #[test]
    fn elongation_indicator() {
        let f = extract_features("goooal", FeatureOptions::default());
        assert!(f.contains(&"__ELONGATED__".to_string()));
        let f = extract_features("goal", FeatureOptions::default());
        assert!(!f.contains(&"__ELONGATED__".to_string()));
    }

    #[test]
    fn empty_text_has_no_features() {
        assert!(extract_features("", FeatureOptions::default()).is_empty());
    }
}
