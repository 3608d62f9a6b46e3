//! Differential tests for the verified plan optimizer: every query must
//! produce bit-identical output on the default engine and on the
//! reference configuration (`EngineBuilder::reference(true)`), which
//! lowers the plan exactly as written — no folding, fusion, pushdown
//! rewriting, pruning, or reordering — and interprets it. In debug
//! builds (how CI runs this suite) the [`PlanVerifier`] is in strict
//! mode, so any rule that breaks a plan invariant panics here instead of
//! silently passing. `tests/batched_source.rs` holds the same two
//! configurations to stats, gap windows and clock as well.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use tweeql::engine::{Engine, QueryResult};
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::StreamingApi;
use tweeql_model::{Duration, Tweet, VirtualClock};

fn corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let s = Scenario {
            name: "plan-optimizer".into(),
            duration: Duration::from_mins(4),
            background_rate_per_min: 70.0,
            topics: vec![Topic::new("kw", vec!["kw"], 30.0)],
            bursts: vec![],
            geotag_rate: 0.3,
            population_size: 250,
        };
        tweeql_firehose::generate(&s, 4242)
    })
}

/// `optimize` runs the default engine, otherwise the reference.
fn run(sql: &str, optimize: bool) -> QueryResult {
    let api = StreamingApi::new(corpus().clone(), VirtualClock::new());
    let mut engine = Engine::builder(api).reference(!optimize).build();
    engine.execute(sql).expect(sql)
}

/// Fixed queries, one per rule (and a few that trip several at once).
const QUERIES: &[&str] = &[
    // fold-constants: tautological and contradictory conjuncts.
    "SELECT text FROM twitter WHERE 1 = 1 AND text contains 'kw'",
    "SELECT text FROM twitter WHERE 2 < 1 AND text contains 'kw'",
    // fuse-multicontains: OR-of-contains on one column.
    "SELECT text FROM twitter WHERE text contains 'kw' OR text contains 'speech' OR text contains 'zzz'",
    // prune-projection: narrow select over the wide tweet schema.
    "SELECT lang, followers FROM twitter WHERE text contains 'kw'",
    // order-conjuncts: mixed-cost conjunction.
    "SELECT text FROM twitter WHERE text contains 'kw' AND followers > 40 AND lang = 'en'",
    // pushdown-filter feeding an aggregate with HAVING.
    "SELECT lang, count(*) AS n FROM twitter WHERE text contains 'kw' \
     GROUP BY lang HAVING count(*) > 2 WINDOW 2 minutes",
    // Geo predicate keeps lat/lon live through pruning.
    "SELECT text FROM twitter WHERE location in [bounding box for NYC]",
    // LIMIT interacts with every rewrite downstream of it.
    "SELECT upper(lang) AS l, followers + 1 AS f1 FROM twitter WHERE followers >= 0 LIMIT 25",
];

/// Same query, same stream: optimized output must equal the as-written
/// plan's output exactly.
#[test]
fn optimizer_preserves_output_on_fixed_queries() {
    for sql in QUERIES {
        let reference = run(sql, false);
        let optimized = run(sql, true);
        assert_eq!(reference.schema.names(), optimized.schema.names(), "{sql}");
        assert_eq!(
            reference.rows, optimized.rows,
            "optimized diverged from as-written: {sql}"
        );
    }
}

/// A clean optimized run emits no notices: the verifier accepted every
/// rule, so nothing fell back to the unoptimized plan.
#[test]
fn optimizer_emits_no_fallback_notices_on_clean_runs() {
    for sql in QUERIES {
        let result = run(sql, true);
        assert!(
            result.stats.diagnostics.notices.is_empty(),
            "{sql} produced notices: {:?}",
            result.stats.diagnostics.notices
        );
    }
}

// ---- random queries over the twitter schema ----

const NEEDLES: &[&str] = &["kw", "speech", "news", "zzz", "K"];
const LANGS: &[&str] = &["en", "es", "ja"];

fn predicate(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..9) {
        0 => format!(
            "text contains '{}'",
            NEEDLES[rng.random_range(0usize..NEEDLES.len())]
        ),
        1 => {
            // OR-of-contains: the fusion rule's input shape.
            let k = rng.random_range(2usize..4);
            let parts: Vec<String> = (0..k)
                .map(|_| {
                    format!(
                        "text contains '{}'",
                        NEEDLES[rng.random_range(0usize..NEEDLES.len())]
                    )
                })
                .collect();
            format!("({})", parts.join(" OR "))
        }
        2 => format!("followers > {}", rng.random_range(0i64..400)),
        3 => format!("followers <= {}", rng.random_range(0i64..400)),
        4 => "1 = 1".into(),
        5 => "2 < 1".into(),
        6 => "lat is not null".into(),
        7 => format!("lang = '{}'", LANGS[rng.random_range(0usize..LANGS.len())]),
        _ => format!("length(text) > {}", rng.random_range(0i64..60)),
    }
}

fn random_query(rng: &mut StdRng) -> String {
    let select = [
        "text",
        "lang, followers",
        "text, followers + 1 AS f1",
        "upper(lang) AS u, lat",
    ][rng.random_range(0usize..4)];
    let n = rng.random_range(1usize..4);
    let preds: Vec<String> = (0..n).map(|_| predicate(rng)).collect();
    let tail = ["", " LIMIT 20"][rng.random_range(0usize..2)];
    format!(
        "SELECT {select} FROM twitter WHERE {}{tail}",
        preds.join(" AND ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random conjunctions over the tweet schema: the optimized plan and
    /// the as-written plan agree row-for-row. With debug assertions on,
    /// every rewrite inside these runs also passed the strict plan
    /// verifier.
    #[test]
    fn optimizer_preserves_output_on_random_queries(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = random_query(&mut rng);
        let reference = run(&sql, false);
        let optimized = run(&sql, true);
        prop_assert!(reference.rows == optimized.rows, "optimized diverged on {}", &sql);
    }
}
