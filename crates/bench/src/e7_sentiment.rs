//! E7 — the classification framework: Naive Bayes (emoticon
//! distant supervision, as TwitInfo trained) vs the lexicon baseline,
//! evaluated on held-out tweets with generator ground truth. Per-class
//! recall feeds TwitInfo's pie normalization (E1).

use tweeql_firehose::generate;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_model::{Duration, TruthPolarity, Tweet};
use tweeql_text::sentiment::{
    LexiconClassifier, NaiveBayesClassifier, Polarity, SentimentClassifier,
};

/// One classifier's evaluation.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Classifier name.
    pub classifier: String,
    /// Held-out labeled tweets evaluated.
    pub evaluated: usize,
    /// Overall accuracy (3-class).
    pub accuracy: f64,
    /// Recall on truly-positive tweets.
    pub positive_recall: f64,
    /// Recall on truly-negative tweets.
    pub negative_recall: f64,
    /// Precision on predicted-positive.
    pub positive_precision: f64,
}

fn corpus(seed: u64, minutes: i64) -> Vec<Tweet> {
    let mut topic = Topic::new("game", vec!["game", "match", "team"], 120.0);
    topic.sentiment_bias = 0.1;
    let s = Scenario {
        name: "e7".into(),
        duration: Duration::from_mins(minutes),
        background_rate_per_min: 120.0,
        topics: vec![topic],
        bursts: vec![],
        geotag_rate: 0.0,
        population_size: 1500,
    };
    generate(&s, seed)
}

fn truth_to_polarity(t: TruthPolarity) -> Polarity {
    match t {
        TruthPolarity::Positive => Polarity::Positive,
        TruthPolarity::Negative => Polarity::Negative,
        TruthPolarity::Neutral => Polarity::Neutral,
    }
}

/// Evaluate one classifier on the labeled held-out set.
pub fn evaluate(clf: &dyn SentimentClassifier, held_out: &[Tweet]) -> E7Row {
    let mut n = 0usize;
    let mut correct = 0usize;
    let (mut pos_total, mut pos_hit) = (0usize, 0usize);
    let (mut neg_total, mut neg_hit) = (0usize, 0usize);
    let (mut pred_pos, mut pred_pos_right) = (0usize, 0usize);
    for t in held_out {
        let Some(truth) = t.truth_polarity.map(truth_to_polarity) else {
            continue;
        };
        let got = clf.classify(&t.text);
        n += 1;
        if got == truth {
            correct += 1;
        }
        if truth == Polarity::Positive {
            pos_total += 1;
            if got == Polarity::Positive {
                pos_hit += 1;
            }
        }
        if truth == Polarity::Negative {
            neg_total += 1;
            if got == Polarity::Negative {
                neg_hit += 1;
            }
        }
        if got == Polarity::Positive {
            pred_pos += 1;
            if truth == Polarity::Positive {
                pred_pos_right += 1;
            }
        }
    }
    let div = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    E7Row {
        classifier: clf.name().to_string(),
        evaluated: n,
        accuracy: div(correct, n),
        positive_recall: div(pos_hit, pos_total),
        negative_recall: div(neg_hit, neg_total),
        positive_precision: div(pred_pos_right, pred_pos),
    }
}

/// Train NB by distant supervision on one stream, evaluate both
/// classifiers on a held-out stream.
pub fn run(seed: u64) -> (Vec<E7Row>, usize) {
    let train = corpus(seed, 60);
    let held_out = corpus(seed.wrapping_add(1), 20);

    // A wider decision margin suits a neutral-heavy stream (the
    // two-class NB otherwise force-labels weak evidence as polar);
    // 1.2 balances 3-class accuracy against polar recall here.
    let mut nb = NaiveBayesClassifier::default().with_decision_margin(1.2);
    let used = nb.train_distant(train.iter().map(|t| &*t.text));

    let rows = vec![
        evaluate(&LexiconClassifier::new(), &held_out),
        evaluate(&nb, &held_out),
    ];
    (rows, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_both_learn(rows: &[E7Row], used: usize) {
        assert!(used > 1000, "distant supervision used {used} tweets");
        for r in rows {
            assert!(r.evaluated > 2000);
            // 3-class chance is ~0.33; majority-class (all-neutral)
            // would be ~0.55 but with zero polar recall.
            assert!(r.accuracy > 0.5, "{r:?}");
            assert!(r.positive_recall > 0.5, "{r:?}");
            assert!(r.negative_recall > 0.5, "{r:?}");
        }
        // The lexicon is near-perfect here by construction (the
        // generator embeds lexicon words — its home turf; see
        // EXPERIMENTS.md). NB, learning only from emoticon co-occurrence,
        // must still recover most of that signal.
        let lex = &rows[0];
        let nb = &rows[1];
        assert!(
            nb.positive_recall > lex.positive_recall - 0.25,
            "lex {lex:?} vs nb {nb:?}"
        );
        assert!(nb.positive_precision > 0.85, "{nb:?}");
    }

    #[test]
    fn both_classifiers_beat_chance_and_nb_learns() {
        let (rows, used) = run(31);
        assert_both_learn(&rows, used);
    }

    /// The seed-42 table `report` prints: both classifiers are scored
    /// against the generator's truth labels, so it repeats exactly.
    /// Compared at the precision `report` prints.
    #[test]
    fn seed_42_accuracy_and_recall() {
        let (rows, used) = run(42);
        assert_both_learn(&rows, used);
        assert_eq!(used, 3260);
        let got: Vec<_> = rows
            .iter()
            .map(|r| {
                format!(
                    "{} {} {:.2} {:.2} {:.2} {:.2}",
                    r.classifier,
                    r.evaluated,
                    r.accuracy,
                    r.positive_recall,
                    r.negative_recall,
                    r.positive_precision
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                "lexicon 4953 0.97 0.99 0.96 0.93",
                "naive-bayes 4953 0.57 0.77 0.96 0.99",
            ]
        );
    }
}
