//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p tweeql-bench --bin report
//! ```

use tweeql_bench::*;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    println!("# Experiment report (seed {seed})\n");

    // ---- E1 ----
    println!("## E1 — Figure 1: TwitInfo dashboard (soccer match)\n");
    let e1 = e1_dashboard::run(seed);
    println!(
        "{}",
        markdown_table(
            &["criterion", "value"],
            &[
                vec!["tweets matched".into(), e1.matched.to_string()],
                vec![
                    "scripted bursts detected".into(),
                    format!("{}/{}", e1.truth_hit, e1.truth_bursts),
                ],
                vec!["peaks flagged".into(), e1.peaks_detected.to_string()],
                vec![
                    "Tevez peak labeled with '3-0'/'tevez'".into(),
                    e1.tevez_labeled.to_string(),
                ],
                vec![
                    "scripted goal URLs in top-3 links".into(),
                    format!("{}/3", e1.goal_urls_in_top3),
                ],
                vec![
                    "positive sentiment share".into(),
                    format!("{:.0}%", e1.positive_share * 100.0),
                ],
            ],
        )
    );

    // ---- E2 ----
    println!("## E2 — peak detection precision/recall (τ sweep)\n");
    let e2 = e2_peaks::run(seed, &[1.5, 2.0, 3.0]);
    let rows: Vec<Vec<String>> = e2
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                format!("{:.1}", r.tau),
                r.detected.to_string(),
                format!("{:.2}", r.score.precision()),
                format!("{:.2}", r.score.recall()),
                format!("{:.2}", r.score.f1()),
                format!("{:.1}", r.score.mean_apex_delay_bins),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "scenario",
                "τ",
                "peaks",
                "precision",
                "recall",
                "F1",
                "apex delay (bins)"
            ],
            &rows,
        )
    );

    println!("### E2b — noise-gate ablation (τ<0 rows = gates disabled)\n");
    let e2b = e2_peaks::run_noise_gate_ablation(seed);
    let rows: Vec<Vec<String>> = e2b
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                if r.tau < 0.0 {
                    "gates off".into()
                } else {
                    "gates on".into()
                },
                r.detected.to_string(),
                format!("{:.2}", r.score.precision()),
                format!("{:.2}", r.score.recall()),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["scenario", "noise gates", "peaks", "precision", "recall"],
            &rows
        )
    );

    // ---- E3 ----
    println!("## E3 — uncertain selectivities: pushdown choice\n");
    let e3 = e3_selectivity::run(seed);
    let rows: Vec<Vec<String>> = e3
        .iter()
        .map(|r| {
            vec![
                r.regime.clone(),
                r.work_keyword.to_string(),
                r.work_location.to_string(),
                r.work_sampled.to_string(),
                r.chose.clone(),
                r.matched_oracle.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "regime",
                "work: push keyword",
                "work: push location",
                "work: sampled choice",
                "chose",
                "matched oracle",
            ],
            &rows,
        )
    );

    // ---- E4 ----
    println!("## E4 — uneven aggregate groups: windowing strategies\n");
    let e4 = e4_confidence::run(seed);
    let fmt_bucket = |b: &e4_confidence::BucketOutcome| {
        format!(
            "{} emits, {:.0} samples/emit, first at {}",
            b.emissions,
            b.mean_samples,
            b.first_emission
                .map(|t| t.to_string())
                .unwrap_or_else(|| "—".into()),
        )
    };
    let rows: Vec<Vec<String>> = e4
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.total_emissions.to_string(),
                fmt_bucket(&r.tokyo),
                fmt_bucket(&r.cape_town),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "strategy",
                "total emissions",
                "Tokyo bucket (dense)",
                "Cape Town bucket (sparse)"
            ],
            &rows,
        )
    );

    // ---- E5 ----
    println!("## E5 — high-latency operators: caching & batching\n");
    let e5 = e5_latency::run(seed);
    let rows: Vec<Vec<String>> = e5
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.tweets.to_string(),
                r.requests.to_string(),
                r.service_time.to_string(),
                format!("{:.1}", r.ms_per_tweet),
                format!("{:.0}%", r.cache_hit_rate * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "tweets geocoded",
                "remote requests",
                "modeled service time",
                "ms/tweet",
                "cache hit rate",
            ],
            &rows,
        )
    );

    // ---- E6 ----
    println!("## E6 — engine: tweets scanned and rows out\n");
    let e6 = e6_engine::run(seed);
    let rows: Vec<Vec<String>> = e6
        .iter()
        .map(|r| {
            vec![
                r.query.to_string(),
                r.scanned.to_string(),
                r.rows.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["query", "tweets scanned", "rows out"], &rows)
    );

    // ---- E7 ----
    println!("## E7 — sentiment classification\n");
    let (e7, used) = e7_sentiment::run(seed);
    println!("(Naive Bayes distant-trained on {used} emoticon-labeled tweets)\n");
    let rows: Vec<Vec<String>> = e7
        .iter()
        .map(|r| {
            vec![
                r.classifier.clone(),
                r.evaluated.to_string(),
                format!("{:.2}", r.accuracy),
                format!("{:.2}", r.positive_recall),
                format!("{:.2}", r.negative_recall),
                format!("{:.2}", r.positive_precision),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "classifier",
                "evaluated",
                "accuracy",
                "pos recall",
                "neg recall",
                "pos precision"
            ],
            &rows,
        )
    );

    // ---- E8 ----
    println!("## E8 — adaptive vs frozen conjunct order under drift\n");
    let e8 = e8_reorder::run(200_000);
    let rows: Vec<Vec<String>> = e8
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.tuples.to_string(),
                r.evaluations.to_string(),
                format!("{:.3}", r.evals_per_tuple),
                r.output.len().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "strategy",
                "tuples",
                "predicate evaluations",
                "evals/tuple",
                "rows out"
            ],
            &rows,
        )
    );
}
