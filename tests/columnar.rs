//! Columnar decode differential suite.
//!
//! Two contracts, both exact (zero divergence):
//!
//! 1. **Decode-level**: a [`TweetBatch`]'s row views (`to_records`,
//!    `value_at` and the column views) agree with the row decoder
//!    `Record::from_tweet` for every tweet shape — missing
//!    coordinates, retweet links, unicode text, empty locations.
//! 2. **Engine-level**: the default engine (columnar decode) and the
//!    reference configuration (`EngineBuilder::reference(true)`: row
//!    decode, as-written plan) produce byte-identical rows and read the
//!    same stream — source and fault stats — for filters, projections,
//!    windowed aggregates, geo bounding boxes, LIMIT early-exit, and
//!    under chaos fault injection. `tests/batched_source.rs` holds the
//!    two configurations to gap windows and clock as well.

use proptest::prelude::*;
use std::sync::OnceLock;
use tweeql::engine::{Engine, QueryResult};
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Burst, Scenario, Topic};
use tweeql_firehose::StreamingApi;
use tweeql_model::batch::col;
use tweeql_model::{Duration, Record, Timestamp, Tweet, TweetBatch, User, VirtualClock};

// ---------------------------------------------------------------------
// Decode-level differential
// ---------------------------------------------------------------------

/// Build one tweet from raw proptest scalars, covering every optional
/// field and value edge the decoder distinguishes.
#[allow(clippy::too_many_arguments)]
fn make_tweet(
    id: u64,
    text: String,
    screen_name: String,
    location: String,
    followers: u32,
    lang_pick: u8,
    coords: Option<(i32, i32)>,
    retweet: Option<u64>,
    at_ms: i64,
) -> Tweet {
    let mut user = User::new(id.wrapping_mul(31), screen_name);
    user.location = location.into();
    user.followers = followers;
    let lang = match lang_pick % 4 {
        0 => "en",
        1 => "ja",
        2 => "es",
        _ => "",
    };
    let mut b = Tweet::builder(id, text)
        .user(user)
        .at(Timestamp::from_millis(at_ms))
        .lang(lang);
    if let Some((la, lo)) = coords {
        b = b.coordinates(la as f64 / 100.0, lo as f64 / 100.0);
    }
    if let Some(orig) = retweet {
        b = b.retweet_of(orig);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TweetBatch::to_records` and per-column `value_at` agree with
    /// the row decoder for arbitrary tweets, both before and after
    /// column materialization.
    #[test]
    fn batch_views_match_row_decoder(
        texts in proptest::collection::vec(".{0,40}", 1..12),
        names in proptest::collection::vec("[a-z_]{1,10}", 1..12),
        locs in proptest::collection::vec("[A-Za-z ,]{0,12}", 1..12),
        seeds in proptest::collection::vec(0u64..1_000_000, 1..12),
    ) {
        let n = texts.len().min(names.len()).min(locs.len()).min(seeds.len());
        let tweets: Vec<Tweet> = (0..n)
            .map(|i| {
                let s = seeds[i];
                make_tweet(
                    s,
                    texts[i].clone(),
                    names[i].clone(),
                    locs[i].clone(),
                    (s % 90_000) as u32,
                    (s % 251) as u8,
                    (s % 3 == 0).then_some(((s % 18_000) as i32 - 9_000, (s % 36_000) as i32 - 18_000)),
                    (s % 5 == 0).then_some(s / 2),
                    (s % 1_000_000) as i64,
                )
            })
            .collect();
        let expected: Vec<Record> = tweets.iter().map(Record::from_tweet).collect();

        let mut batch = TweetBatch::new();
        for t in &tweets {
            batch.push(t.clone());
        }

        // Lazy path: row views before any column is built.
        prop_assert_eq!(&batch.to_records(), &expected);

        // Materialized path: build every column, then check the
        // columnar accessors against the row decoder value-by-value.
        batch.materialize(&tweeql_model::batch::all_columns());
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(&batch.record_at(i), want);
            for c in 0..col::COUNT {
                prop_assert_eq!(&batch.value_at(i, c), want.value(c));
            }
            prop_assert_eq!(batch.ts(i), want.timestamp());
        }
    }
}

/// A replayed log decodes to the columns its generated stream does:
/// same values, same dictionaries in the same order, same counters —
/// `dict_ptr_hits` too, though the two streams' strings live at
/// different addresses: both sources intern `lang` and `loc`.
#[test]
fn decoded_log_and_generated_stream_materialize_identical_columns() {
    use tweeql_firehose::replay::{decode_log, encode_log};
    let generated = corpus();
    let decoded = decode_log(encode_log(generated)).expect("a log this suite encoded");
    assert_eq!(&decoded, generated);
    for (a, b) in generated.chunks(256).zip(decoded.chunks(256)) {
        let (mut from_gen, mut from_log) = (TweetBatch::new(), TweetBatch::new());
        a.iter().for_each(|t| from_gen.push(t.clone()));
        b.iter().for_each(|t| from_log.push(t.clone()));
        let gen_stats = from_gen.materialize(&tweeql_model::batch::all_columns());
        let log_stats = from_log.materialize(&tweeql_model::batch::all_columns());
        for c in 0..col::COUNT {
            assert_eq!(
                format!("{:?}", from_gen.column(c)),
                format!("{:?}", from_log.column(c)),
                "column {c}"
            );
        }
        assert!(gen_stats.dict_rows > 0);
        assert_eq!(gen_stats, log_stats);
    }
}

/// Over interned strings a dictionary's pointer cache resolves every
/// repeat row: in each 256-row batch, of the generated stream and of
/// its decoded log, `lang` hashes one row per distinct value and no
/// more — a count that repeats exactly, wherever the strings lie.
#[test]
fn a_batch_lang_column_resolves_every_repeat_row_by_pointer() {
    use tweeql_firehose::replay::{decode_log, encode_log};
    let generated = corpus();
    let decoded = decode_log(encode_log(generated)).expect("a log this suite encoded");
    let mut lang = [false; col::COUNT];
    lang[col::LANG] = true;
    for log in [generated, &decoded] {
        for chunk in log.chunks_exact(256) {
            let mut batch = TweetBatch::new();
            chunk.iter().for_each(|t| batch.push(t.clone()));
            let stats = batch.materialize(&lang);
            assert_eq!(stats.dict_rows, 256);
            assert!(stats.dict_entries > 1);
            assert_eq!(stats.dict_ptr_hits, stats.dict_rows - stats.dict_entries);
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level differential
// ---------------------------------------------------------------------

/// One deterministic firehose shared by every engine case: keyword
/// topic, a burst, geotagged tweets (for bounding-box queries), and a
/// quiet tail so windowed queries cross idle gaps.
fn corpus() -> &'static Vec<Tweet> {
    static TWEETS: OnceLock<Vec<Tweet>> = OnceLock::new();
    TWEETS.get_or_init(|| {
        let s = Scenario {
            name: "columnar".into(),
            duration: Duration::from_mins(12),
            background_rate_per_min: 40.0,
            topics: vec![{
                let mut t = Topic::new("kw", vec!["kw"], 25.0);
                t.sentiment_bias = 0.3;
                t
            }],
            bursts: vec![Burst {
                topic: 0,
                label: "spike".into(),
                start: Timestamp::from_mins(3),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(1),
                peak_multiplier: 5.0,
                phrases: vec!["kw spike".into()],
                sentiment_bias: 0.4,
                url: None,
            }],
            geotag_rate: 0.25,
            population_size: 120,
        };
        tweeql_firehose::generate(&s, 4242)
    })
}

const QUERIES: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw'",
    "SELECT upper(lang) AS l, followers * 2 AS f2 FROM twitter WHERE text contains 'kw'",
    "SELECT lang, followers FROM twitter WHERE followers >= 0",
    "SELECT count(*) AS c, lang FROM twitter WHERE text contains 'kw' \
     GROUP BY lang WINDOW 2 minutes",
    "SELECT text FROM twitter WHERE text contains 'kw' AND location in [bounding box for NYC]",
    "SELECT sentiment(text) AS s, text FROM twitter WHERE text contains 'kw' LIMIT 20",
    "SELECT min(followers) AS mn, max(followers) AS mx, count(distinct screen_name) AS cd \
     FROM twitter WINDOW 3 minutes",
];

/// `columnar` runs the default engine, otherwise the reference. The
/// reference pushes no filter into the connection, so neither does the
/// default engine here: both read the same stream.
fn run(sql: &str, columnar: bool, fault: Option<FaultPlan>) -> QueryResult {
    let api = StreamingApi::new(corpus().clone(), VirtualClock::new());
    let mut b = Engine::builder(api)
        .batch_size(64)
        .reference(!columnar)
        .push_down(false);
    if let Some(f) = fault {
        b = b.fault_policy(f);
    }
    let mut engine = b.build();
    engine.execute(sql).expect(sql)
}

fn assert_columnar_equivalent(sql: &str, fault: Option<FaultPlan>) {
    let row = run(sql, false, fault.clone());
    let col = run(sql, true, fault);
    assert_eq!(row.schema.names(), col.schema.names(), "{sql}");
    assert_eq!(row.rows, col.rows, "rows diverged: {sql}");
    // The two run different plans (optimized vs as written), so their
    // per-stage counts differ by design; what the scan read must not.
    // Under LIMIT how far the source reads past the early exit follows
    // the flush cuts — the reference also cuts at every watermark
    // boundary, the default engine by size only — so it is only
    // comparable without it.
    if !sql.contains("LIMIT") {
        assert_eq!(
            row.stats.source, col.stats.source,
            "source stats diverged: {sql}"
        );
        assert_eq!(
            row.stats.source_faults, col.stats.source_faults,
            "fault stats diverged: {sql}"
        );
    }
    assert_eq!(
        row.stats.decode.columns_materialized, 0,
        "row decode must not report columnar counters"
    );
}

#[test]
fn columnar_matches_row_engine_serial() {
    for sql in QUERIES {
        assert_columnar_equivalent(sql, None);
    }
}

#[test]
fn columnar_matches_row_engine_under_chaos() {
    for seed in [0xC0FFEE_u64, 1337, 99] {
        assert_columnar_equivalent(QUERIES[3], Some(FaultPlan::chaos(seed)));
        assert_columnar_equivalent(QUERIES[1], Some(FaultPlan::chaos(seed)));
    }
}

/// Decode counters: a `GROUP BY` head materializes only the columns
/// it names, and what it counts — per row (rows through the dictionary
/// encoder) and per batch (columns built or skipped, dictionary
/// entries) — repeats exactly run to run.
#[test]
fn decode_counters_deterministic_run_to_run() {
    // The head reads `lang` through a built dictionary and `followers`
    // through a built integer column; every other column stays cold.
    let sql = "SELECT lang, count(*) AS c, max(followers) AS mx FROM twitter \
               GROUP BY lang WINDOW 2 minutes";
    let d = run(sql, true, None).stats.decode;
    assert!(d.columns_materialized > 0, "aggregate head decodes columns");
    assert!(d.columns_skipped > 0, "untouched columns stay cold");
    assert_eq!(d, run(sql, true, None).stats.decode, "rerun");
    // Dictionaries are rebuilt per batch, so reuse depends on the corpus
    // and on the cuts — assert only the invariants: the lang column went
    // through the dictionary, and a dictionary never holds more entries
    // than rows.
    assert!(d.dict_rows > 0, "lang column should be dictionary-encoded");
    assert!(
        d.dict_entries <= d.dict_rows,
        "dictionary can't have more entries than rows: {d:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random query template × chaos seed: columnar and row decode never
    /// diverge.
    #[test]
    fn columnar_equivalence_sweep(
        template in 0usize..7,
        chaos_seed in 0u64..1_000,
        inject in 0u8..2,
    ) {
        let sql = QUERIES[template % QUERIES.len()];
        let fault = (inject == 1).then(|| FaultPlan::chaos(chaos_seed));
        let row = run(sql, false, fault.clone());
        let col = run(sql, true, fault);
        prop_assert_eq!(&row.rows, &col.rows);
        if !sql.contains("LIMIT") {
            prop_assert_eq!(&row.stats.source, &col.stats.source);
            prop_assert_eq!(&row.stats.source_faults, &col.stats.source_faults);
        }
    }
}
