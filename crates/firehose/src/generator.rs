//! The stream generator: a non-homogeneous Poisson process over a
//! [`Scenario`], producing a time-ordered tweet log with ground truth.
//!
//! Arrivals are drawn by *thinning*: candidate events arrive at the
//! scenario's majorizing rate and are accepted with probability
//! `rate(t)/max_rate`. Each accepted event is attributed to background,
//! a topic, or a burst proportionally to their instantaneous rate
//! contributions, then rendered into text by [`crate::textgen`].

use crate::pack::Packer;
use crate::population::Population;
use crate::replay::CHUNK_BYTES;
use crate::scenario::Scenario;
use crate::textgen::{generate_text, TextSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tweeql_model::{Timestamp, TruthPolarity, Tweet, TweetBuilder};

/// Generate the full tweet log for `scenario`, deterministically from
/// `seed`. Tweets are returned in nondecreasing timestamp order, their
/// texts packed into shared chunks of about 256 KiB.
pub fn generate(scenario: &Scenario, seed: u64) -> Vec<Tweet> {
    let problems = scenario.validate();
    assert!(problems.is_empty(), "invalid scenario: {problems:?}");

    let mut rng = StdRng::seed_from_u64(seed);
    let population = Population::generate(scenario.population_size, seed.wrapping_add(1));
    let gaz = tweeql_geo::gazetteer::global();
    // Resolve hotspot city names once per topic.
    let hotspots: Vec<Vec<usize>> = scenario
        .topics
        .iter()
        .map(|t| {
            t.hotspot_cities
                .iter()
                .filter_map(|name| gaz.cities().iter().position(|c| c.name == name))
                .collect()
        })
        .collect();

    let max_rate_per_ms = scenario.max_rate() / 60_000.0;
    let mut out = Vec::new();
    let mut t_ms = 0.0f64;
    let end_ms = scenario.duration.millis() as f64;
    let mut id: u64 = 1;
    // The tweets from `packed` on still own their texts.
    let (mut packed, mut unpacked_bytes) = (0, 0);

    while t_ms < end_ms {
        // Exponential inter-arrival at the majorizing rate.
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        t_ms += -u.ln() / max_rate_per_ms;
        if t_ms >= end_ms {
            break;
        }
        let ts = Timestamp::from_millis(t_ms as i64);
        let rate = scenario.rate_at(ts);
        // Thinning.
        if rng.random_range(0.0..1.0) >= rate / scenario.max_rate() {
            continue;
        }

        // Attribute the event to a source proportional to contribution.
        let mut pick = rng.random_range(0.0..rate);
        let tweet = if pick < scenario.background_rate_per_min {
            build_background_tweet(&mut rng, &population, ts, id)
        } else {
            pick -= scenario.background_rate_per_min;
            let mut chosen = None;
            'outer: for (ti, topic) in scenario.topics.iter().enumerate() {
                // Base contribution.
                if pick < topic.base_rate_per_min {
                    chosen = Some((ti, None));
                    break 'outer;
                }
                pick -= topic.base_rate_per_min;
                for (bi, b) in scenario.bursts.iter().enumerate() {
                    if b.topic != ti {
                        continue;
                    }
                    let contrib = topic.base_rate_per_min * b.intensity_at(ts);
                    if pick < contrib {
                        chosen = Some((ti, Some(bi)));
                        break 'outer;
                    }
                    pick -= contrib;
                }
            }
            // Floating-point slack: fall back to the last topic.
            let (ti, burst) = chosen.unwrap_or((scenario.topics.len() - 1, None));
            build_topic_tweet(
                &mut rng,
                scenario,
                &population,
                &hotspots,
                ti,
                burst,
                ts,
                id,
            )
        };
        unpacked_bytes += tweet.text.len();
        out.push(tweet);
        id += 1;
        if unpacked_bytes >= CHUNK_BYTES {
            pack_texts(&mut out[packed..], unpacked_bytes);
            (packed, unpacked_bytes) = (out.len(), 0);
        }
    }
    pack_texts(&mut out[packed..], unpacked_bytes);

    // Geotag a fraction with the author's home coordinate.
    let n = out.len();
    for tweet in out.iter_mut() {
        if rng.random_range(0.0..1.0) < scenario.geotag_rate {
            let user_idx = (tweet.user.id - 1) as usize;
            let home = population.users()[user_idx].home;
            tweet.set_coordinates(home.lat, home.lon);
        }
    }
    debug_assert_eq!(n, out.len());
    // The log outlives this call by the whole run; growth by doubling
    // would leave up to a second log's worth of unused rows behind it.
    out.shrink_to_fit();
    out
}

/// Move the texts of `tweets`, `bytes` in all, into one chunk.
fn pack_texts(tweets: &mut [Tweet], bytes: usize) {
    let mut pack = Packer::with_capacity(bytes);
    let spans: Vec<_> = tweets.iter().map(|t| pack.push(&t.text)).collect();
    let chunk = pack.seal();
    for (tweet, span) in tweets.iter_mut().zip(spans) {
        tweet.text = chunk.slice(span);
    }
}

fn sample_polarity(rng: &mut StdRng, bias: f64) -> TruthPolarity {
    // Base mix: 25% positive, 20% negative, 55% neutral; bias shifts
    // mass between positive and negative (±1 = fully one-sided).
    let pos = (0.25 + 0.30 * bias.max(0.0) + 0.20 * bias.min(0.0)).clamp(0.02, 0.9);
    let neg = (0.20 - 0.18 * bias.max(0.0) - 0.50 * bias.min(0.0)).clamp(0.02, 0.9);
    let x: f64 = rng.random_range(0.0..1.0);
    if x < pos {
        TruthPolarity::Positive
    } else if x < pos + neg {
        TruthPolarity::Negative
    } else {
        TruthPolarity::Neutral
    }
}

const BACKGROUND_WORDS: &[&str] = &[
    "coffee",
    "lunch",
    "dinner",
    "traffic",
    "weather",
    "monday",
    "weekend",
    "work",
    "school",
    "music",
    "movie",
    "sleep",
    "gym",
    "rain",
    "sunny",
    "bus",
    "train",
    "meeting",
    "homework",
    "tv",
    "netflix",
    "pizza",
    "breakfast",
    "commute",
    "deadline",
];

fn build_background_tweet(
    rng: &mut StdRng,
    population: &Population,
    ts: Timestamp,
    id: u64,
) -> Tweet {
    let author = population.sample_author(rng, &[], 1.0);
    let kw = vec![BACKGROUND_WORDS[rng.random_range(0..BACKGROUND_WORDS.len())].to_string()];
    let polarity = sample_polarity(rng, 0.0);
    let spec = TextSpec {
        keywords: &kw,
        polarity,
        ..TextSpec::default()
    };
    let text = generate_text(rng, &spec);
    TweetBuilder::new(id, text)
        .user(Arc::clone(&author.user))
        .at(ts)
        .lang(author.user.lang.clone())
        .truth_polarity(polarity)
        .build()
}

#[allow(clippy::too_many_arguments)]
fn build_topic_tweet(
    rng: &mut StdRng,
    scenario: &Scenario,
    population: &Population,
    hotspots: &[Vec<usize>],
    topic_idx: usize,
    burst_idx: Option<usize>,
    ts: Timestamp,
    id: u64,
) -> Tweet {
    let topic = &scenario.topics[topic_idx];
    let author = population.sample_author(rng, &hotspots[topic_idx], topic.hotspot_boost);
    let (bias, burst_phrases, url) = match burst_idx {
        Some(bi) => {
            let b = &scenario.bursts[bi];
            (b.sentiment_bias, b.phrases.as_slice(), b.url.as_deref())
        }
        None => (topic.sentiment_bias, &[] as &[String], None),
    };
    let polarity = sample_polarity(rng, bias);
    let spec = TextSpec {
        keywords: &topic.keywords,
        hashtags: &topic.hashtags,
        phrases: &topic.phrases,
        burst_phrases,
        url,
        polarity,
    };
    let text = generate_text(rng, &spec);
    let mut builder = TweetBuilder::new(id, text)
        .user(Arc::clone(&author.user))
        .at(ts)
        .lang(author.user.lang.clone())
        .truth_polarity(polarity);
    if let Some(bi) = burst_idx {
        builder = builder.truth_burst(bi);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Burst, Topic};
    use tweeql_model::Duration;

    fn small_scenario() -> Scenario {
        Scenario {
            name: "unit".into(),
            duration: Duration::from_mins(30),
            background_rate_per_min: 20.0,
            topics: vec![{
                let mut t = Topic::new("soccer", vec!["soccer", "manchester"], 10.0);
                t.hashtags = vec!["mcfc".into()];
                t.sentiment_bias = 0.2;
                t
            }],
            bursts: vec![Burst {
                topic: 0,
                label: "goal".into(),
                start: Timestamp::from_mins(10),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(4),
                peak_multiplier: 8.0,
                phrases: vec!["3-0".into(), "tevez".into()],
                sentiment_bias: 0.7,
                url: Some("http://bbc.co.uk/goal".into()),
            }],
            geotag_rate: 0.05,
            population_size: 300,
        }
    }

    #[test]
    fn deterministic_and_time_ordered() {
        let s = small_scenario();
        let a = generate(&s, 42);
        let b = generate(&s, 42);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.created_at, y.created_at);
        }
        for w in a.windows(2) {
            assert!(w[0].created_at <= w[1].created_at);
        }
        // Different seed differs.
        let c = generate(&s, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
    }

    #[test]
    fn volume_matches_expected_rate_roughly() {
        let s = small_scenario();
        let tweets = generate(&s, 1);
        // Integral of rate: 30min × (20+10) + burst area.
        // Burst area ≈ topic_rate × extra × (ramp_up+ramp_down)/2
        //            = 10 × 7 × 2.5min = 175.
        let expected = 30.0 * 30.0 + 175.0;
        let n = tweets.len() as f64;
        assert!(
            (n - expected).abs() < expected * 0.2,
            "n = {n}, expected ≈ {expected}"
        );
    }

    #[test]
    fn burst_window_has_elevated_volume_and_truth_labels() {
        let s = small_scenario();
        let tweets = generate(&s, 7);
        let per_min = |lo: i64, hi: i64| {
            tweets
                .iter()
                .filter(|t| {
                    let m = t.created_at.millis() / 60_000;
                    m >= lo && m < hi
                })
                .count() as f64
                / (hi - lo) as f64
        };
        let baseline = per_min(0, 10);
        let burst = per_min(10, 13);
        assert!(
            burst > baseline * 1.8,
            "burst {burst} vs baseline {baseline}"
        );
        // Truth labels present only inside the burst envelope.
        for t in &tweets {
            if t.truth_burst() == Some(0) {
                let m = t.created_at.millis() / 60_000;
                assert!((10..=15).contains(&m), "burst tweet at minute {m}");
            }
        }
        let labeled = tweets.iter().filter(|t| t.truth_burst() == Some(0)).count();
        assert!(labeled > 50, "labeled = {labeled}");
    }

    #[test]
    fn keyword_reachability_for_filters() {
        let s = small_scenario();
        let tweets = generate(&s, 3);
        let topic_tweets = tweets
            .iter()
            .filter(|t| t.contains("soccer") || t.contains("manchester"))
            .count();
        // All topic+burst tweets carry a keyword; background mostly not.
        assert!(topic_tweets > 200, "topic_tweets = {topic_tweets}");
        let background = tweets.len() - topic_tweets;
        assert!(background > topic_tweets, "background should dominate");
    }

    #[test]
    fn geotag_rate_honored() {
        let s = small_scenario();
        let tweets = generate(&s, 5);
        let tagged = tweets.iter().filter(|t| t.coordinates().is_some()).count();
        let frac = tagged as f64 / tweets.len() as f64;
        assert!((0.02..=0.09).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn burst_sentiment_bias_shows_in_truth() {
        let s = small_scenario();
        let tweets = generate(&s, 11);
        let burst: Vec<_> = tweets
            .iter()
            .filter(|t| t.truth_burst() == Some(0))
            .collect();
        let pos = burst
            .iter()
            .filter(|t| t.truth_polarity == Some(TruthPolarity::Positive))
            .count();
        let neg = burst
            .iter()
            .filter(|t| t.truth_polarity == Some(TruthPolarity::Negative))
            .count();
        assert!(pos > neg * 2, "pos={pos} neg={neg}");
    }

    #[test]
    fn ids_monotone_unique() {
        let tweets = generate(&small_scenario(), 13);
        for w in tweets.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    /// FNV-1a over every generated field of a log, in order.
    fn log_digest(tweets: &[Tweet]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in tweets {
            let line = format!(
                "{}|{}|{}|{}|{:?}|{}|{:?}|{:?}\n",
                t.id,
                t.created_at.millis(),
                t.user.id,
                t.text,
                t.coordinates(),
                t.lang(),
                t.truth_polarity,
                t.truth_burst()
            );
            for b in line.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn scenario_logs_are_pinned_by_digest() {
        let pinned: &[(&str, usize, u64)] = &[
            ("soccer", 40_813, 10_356_590_249_374_688_970),
            ("earthquakes", 88_680, 4_614_932_773_416_495_371),
            ("obama", 189_746, 5_537_579_392_065_406_547),
        ];
        let got: Vec<(&str, usize, u64)> = crate::scenarios::all()
            .iter()
            .map(|(slug, s)| {
                let log = generate(s, 42);
                (*slug, log.len(), log_digest(&log))
            })
            .collect();
        assert_eq!(got, pinned);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_scenario_panics() {
        let mut s = small_scenario();
        s.population_size = 0;
        generate(&s, 1);
    }
}
