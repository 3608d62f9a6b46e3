//! E2 — peak-detection quality: precision / recall / detection delay of
//! the streaming mean-deviation algorithm against the scripted bursts
//! of all three canned scenarios, with a τ (threshold) sweep as the
//! ablation for the design choice.

use tweeql_firehose::{generate, scenarios, Scenario, StreamingApi};
use tweeql_model::{Duration, VirtualClock};
use twitinfo::event::EventSpec;
use twitinfo::logger::event_tweets;
use twitinfo::peaks::{score_against_truth, PeakDetector, PeakDetectorConfig, PeakScore};
use twitinfo::timeline::Timeline;

/// One (scenario, τ) measurement.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Scenario slug.
    pub scenario: &'static str,
    /// Detector threshold τ.
    pub tau: f64,
    /// Scoring vs ground truth.
    pub score: PeakScore,
    /// Number of peaks detected.
    pub detected: usize,
}

fn spec_for(slug: &str) -> EventSpec {
    match slug {
        "soccer" => EventSpec::new(
            "soccer",
            &[
                "soccer",
                "football",
                "premierleague",
                "manchester",
                "liverpool",
            ],
        ),
        "earthquakes" => EventSpec::new("quake", &["earthquake", "quake", "tsunami", "sendai"]),
        _ => EventSpec::new("obama", &["obama"]),
    }
}

/// Timeline of event-matched tweets for a scenario.
pub fn event_timeline(
    scenario: &Scenario,
    slug: &str,
    seed: u64,
) -> (Timeline, Vec<(usize, usize)>) {
    let api = StreamingApi::new(generate(scenario, seed), VirtualClock::new());
    let matched = event_tweets(&api, &spec_for(slug)).expect("the event query runs");
    let bin = Duration::from_mins(1);
    let timeline = Timeline::from_tweets(&matched, bin);
    let truth = scenario
        .bursts
        .iter()
        .map(|b| {
            (
                (b.start.millis() / bin.millis()) as usize,
                (b.end().millis() / bin.millis()) as usize + 1,
            )
        })
        .collect();
    (timeline, truth)
}

/// Run the τ sweep over every canned scenario.
pub fn run(seed: u64, taus: &[f64]) -> Vec<E2Row> {
    let mut rows = Vec::new();
    for (slug, scenario) in scenarios::all() {
        let (timeline, truth) = event_timeline(&scenario, slug, seed);
        for &tau in taus {
            let config = PeakDetectorConfig {
                tau,
                ..PeakDetectorConfig::default()
            };
            let peaks = PeakDetector::detect(&timeline, config);
            let score = score_against_truth(&peaks, &truth);
            rows.push(E2Row {
                scenario: slug,
                tau,
                detected: peaks.len(),
                score,
            });
        }
    }
    rows
}

/// Ablation of the noise gates this reproduction adds on top of the
/// published mean-deviation trigger (relative rise + Poisson apex
/// bound): detect with and without them on each scenario.
pub fn run_noise_gate_ablation(seed: u64) -> Vec<E2Row> {
    let mut rows = Vec::new();
    for (slug, scenario) in scenarios::all() {
        let (timeline, truth) = event_timeline(&scenario, slug, seed);
        for (label_tau, config) in [
            (2.0, PeakDetectorConfig::default()),
            (
                // "paper-literal": trigger + EWMA only, gates disabled.
                -2.0,
                PeakDetectorConfig {
                    min_rise_frac: 0.0,
                    min_apex_frac: 0.0,
                    min_apex_sigmas: 0.0,
                    ..PeakDetectorConfig::default()
                },
            ),
        ] {
            let peaks = PeakDetector::detect(&timeline, config);
            let score = score_against_truth(&peaks, &truth);
            rows.push(E2Row {
                scenario: slug,
                tau: label_tau, // negative τ marks the gate-less variant
                detected: peaks.len(),
                score,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Detected peaks are scored against the generator's ground truth,
    /// so the seed-42 scores repeat exactly: at τ = 2.0 recall is 1.00
    /// everywhere and only obama flags a false peak. Compared at the
    /// precision `report` prints.
    #[test]
    fn default_tau_scores_well_everywhere() {
        let rows: Vec<_> = run(42, &[2.0])
            .iter()
            .map(|r| {
                (
                    r.scenario,
                    format!("{:.2}", r.score.precision()),
                    format!("{:.2}", r.score.recall()),
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("soccer", "1.00".into(), "1.00".into()),
                ("earthquakes", "1.00".into(), "1.00".into()),
                ("obama", "0.83".into(), "1.00".into()),
            ]
        );
    }

    #[test]
    fn noise_gates_raise_precision_without_losing_recall() {
        let rows = run_noise_gate_ablation(42);
        for pair in rows.chunks(2) {
            let (gated, ungated) = (&pair[0], &pair[1]);
            assert!(
                gated.score.recall() >= ungated.score.recall() - 1e-9
                    || gated.score.recall() >= 0.8,
                "{gated:?} vs {ungated:?}"
            );
            assert!(
                gated.score.precision() >= ungated.score.precision(),
                "{gated:?} vs {ungated:?}"
            );
        }
        // On at least one scenario the gate-less detector floods with
        // false positives (that's why the gates exist).
        assert!(rows
            .chunks(2)
            .any(|p| p[1].score.precision() < 0.7 && p[0].score.precision() >= 0.8));
    }

    #[test]
    fn tau_sweep_trades_recall_for_precision() {
        let rows = run(42, &[1.0, 2.0, 4.0]);
        // Looser τ never detects fewer peaks than stricter τ.
        for pair in rows.chunks(3) {
            assert!(pair[0].detected >= pair[1].detected);
            assert!(pair[1].detected >= pair[2].detected);
        }
    }
}
