//! The deferred index rebuild and the non-ASCII prefilter.

use super::*;
use crate::engine::Engine;
use crate::host::durable::DurabilityConfig;
use tweeql_firehose::StreamingApi;
use tweeql_model::{Duration, Tweet, Value};
use tweeql_wal::TempDir;

/// Ten minutes, two tweets a second, keywords `kw0`..`kw4` in rotation.
fn stream() -> Vec<Tweet> {
    (0..1200u64)
        .map(|i| {
            Tweet::builder(i, format!("tweet {i} about kw{} and more", i % 5))
                .at(Timestamp::from_millis(i as i64 * 500))
                .build()
        })
        .collect()
}

fn builder(tweets: Vec<Tweet>) -> EngineBuilder {
    Engine::builder(StreamingApi::new(tweets, VirtualClock::new())).batch_size(16)
}

fn kw_query(i: usize) -> String {
    format!("SELECT text FROM twitter WHERE text contains 'kw{i}'")
}

fn needles_gauge(host: &QueryHost) -> i64 {
    host.metrics()
        .gauge("tweeql_host_prefilter_needles", &[])
        .get()
}

#[test]
fn registration_burst_reads_final_values_and_builds_once() {
    let mut host = builder(stream()).build_host();
    for i in 0..1000 {
        host.register(&kw_query(i)).expect("registers");
    }
    // Before any pump: what a client can ask about is already final.
    assert_eq!(host.needle_count(), 1000);
    assert!(host.list().iter().all(|q| q.indexed));
    assert_eq!(needles_gauge(&host), 1000);
    assert_eq!(host.stats().index_rebuilds, 0, "nothing built yet");

    host.pump_until(Timestamp::from_mins(1)).expect("pumps");
    assert_eq!(
        host.stats().index_rebuilds,
        1,
        "one build for 1,000 registers"
    );
    host.pump_until(Timestamp::from_mins(2)).expect("pumps");
    assert_eq!(
        host.stats().index_rebuilds,
        1,
        "a clean index is left alone"
    );

    let dropped = host.list()[3].id;
    host.drop_query(dropped).expect("drops");
    assert_eq!(host.needle_count(), 999);
    assert_eq!(needles_gauge(&host), 999);
    host.run_to_end().expect("drains");
    assert_eq!(host.stats().index_rebuilds, 2);
    let m = host.metrics();
    assert_eq!(
        m.counter_value("tweeql_host_filter_index_rebuilds_total", &[]),
        2
    );
    assert!(m.gauge("tweeql_host_filter_index_states", &[]).get() > 999);
    assert!(m.gauge("tweeql_host_filter_index_bytes", &[]).get() > 4 * 999);
}

/// One registered query has nothing to share a scan with: every batch
/// goes to its pipeline whole, so each delivered tweet is dispatched and
/// decoded exactly once although the query keeps one in five (through
/// the index only those 240 rows would be dispatched).
#[test]
fn a_lone_query_takes_every_batch_whole() {
    let mut host = builder(stream()).build_host();
    let id = host.register(&kw_query(0)).expect("registers");
    host.run_to_end().expect("drains");
    let s = host.stats();
    assert_eq!(s.tweets_delivered, 1200);
    assert_eq!(s.rows_dispatched, s.tweets_delivered);
    assert_eq!(s.rows_decoded, s.tweets_delivered);
    assert_eq!(s.rows_shared, 0);
    assert_eq!(host.take_output(id).expect("output").len(), 240);
}

/// A standing host counts the columns its queries' heads build, adds
/// them into `HostStats::decode` before each reset and publishes the
/// sum, and a one-query host counts what `Engine::execute` reports.
#[test]
fn a_standing_host_counts_and_publishes_the_columns_its_queries_build() {
    let group = "SELECT lang, count(*) AS n FROM twitter GROUP BY lang WINDOW 2 minutes";
    let langs = || -> Vec<Tweet> {
        let langs = ["en", "es", "ja"];
        (stream().into_iter().enumerate())
            .map(|(i, t)| {
                Tweet::builder(t.id, t.text.to_string())
                    .at(t.created_at)
                    .lang(langs[i % 3])
                    .build()
            })
            .collect()
    };
    let mut host = builder(langs()).build_host();
    host.register(group).expect("registers");
    host.register(&kw_query(1)).expect("registers");
    host.run_to_end().expect("drains");
    let decode = host.stats().decode;
    assert!(decode.columns_materialized > 0, "{decode:?}");
    assert!(decode.dict_rows > 0, "{decode:?}");
    assert_eq!(
        host.metrics()
            .counter_value("tweeql_decode_columns_materialized_total", &[]),
        decode.columns_materialized
    );

    let mut lone = builder(langs()).build_host();
    lone.register(group).expect("registers");
    lone.run_to_end().expect("drains");
    let mut engine = builder(langs()).build();
    let run = engine.execute(group).expect("runs");
    assert!(run.stats.decode.columns_materialized > 0);
    assert_eq!(run.stats.decode, lone.stats().decode);
}

/// A standing host keeps reading after its only query reached its
/// LIMIT (a client may register another); the drive `Engine::execute`
/// runs stops the pull there.
#[test]
fn only_the_one_query_drive_stops_at_a_limit() {
    let sql = "SELECT text FROM twitter WHERE text contains 'kw0' LIMIT 3";
    let mut host = builder(stream()).build_host();
    let id = host.register(sql).expect("registers");
    host.pump_until(Timestamp::from_mins(5)).expect("pumps");
    assert_eq!(host.list()[0].state, QueryState::Finished);
    assert_eq!(host.stats().tweets_delivered, 601, "read to the pump's end");
    assert_eq!(host.take_output(id).expect("output").len(), 3);

    let mut one = builder(stream()).build_host();
    let id = one.register(sql).expect("registers");
    one.run_until_finished(id).expect("runs");
    assert_eq!(
        one.stats().tweets_delivered,
        16,
        "the first batch ends the pull"
    );
    assert_eq!(one.take_output(id).expect("output").len(), 3);
}

/// Register and drop between pumps, on the fast or the reference
/// configuration. Returns every row handed out, in a fixed order.
fn churn(reference: bool) -> Vec<Vec<Record>> {
    let mut host = builder(stream()).reference(reference).build_host();
    let mut out = Vec::new();
    let mut ids: Vec<QueryId> = (0..3)
        .map(|i| host.register(&kw_query(i)).expect("registers"))
        .collect();
    host.pump_until(Timestamp::from_mins(2)).expect("pumps");
    out.push(host.drop_query(ids.remove(1)).expect("drops"));
    ids.push(host.register(&kw_query(4)).expect("registers"));
    ids.push(
        host.register(
            "SELECT count(*) AS c FROM twitter WHERE text contains 'kw1' WINDOW 1 minutes",
        )
        .expect("registers"),
    );
    host.pump_until(Timestamp::from_mins(5)).expect("pumps");
    ids.push(host.register(&kw_query(1)).expect("registers"));
    out.push(host.drop_query(ids.remove(0)).expect("drops"));
    // Two pumps with nothing in between, then a drop straight after a
    // register with no pump in between.
    host.pump_until(Timestamp::from_mins(6)).expect("pumps");
    host.pump_until(Timestamp::from_mins(7)).expect("pumps");
    let short_lived = host.register(&kw_query(3)).expect("registers");
    out.push(host.drop_query(short_lived).expect("drops"));
    host.run_to_end().expect("drains");
    for id in ids {
        out.push(host.take_output(id).expect("output"));
    }
    out
}

#[test]
fn churn_between_pumps_matches_the_reference() {
    let (fast, reference) = (churn(false), churn(true));
    assert!(fast.iter().filter(|rows| !rows.is_empty()).count() >= 5);
    assert_eq!(fast, reference);
}

#[test]
fn durable_host_recovered_mid_burst_rebuilds_once() {
    let dir = TempDir::new("tweeql-host-burst");
    let cfg = || DurabilityConfig::new(dir.path()).fsync(false);
    let mut host = builder(stream()).recover_with(cfg()).expect("opens");
    let first = host.register(&kw_query(0)).expect("registers");
    host.pump_until(Timestamp::from_mins(3)).expect("pumps");
    let taken = host.take_output(first).expect("output");
    for i in 1..=200 {
        host.register(&kw_query(i)).expect("registers");
    }
    // Killed inside the burst: no pump, no checkpoint since.
    drop(host);

    let mut host = builder(stream()).recover_with(cfg()).expect("recovers");
    assert_eq!(
        host.stats().index_rebuilds,
        1,
        "one build to replay to the burst's frontier, none per replayed register"
    );
    assert_eq!(host.needle_count(), 201);
    for i in 201..=300 {
        host.register(&kw_query(i)).expect("registers");
    }
    host.run_to_end().expect("drains");
    assert_eq!(host.stats().index_rebuilds, 2);

    let mut whole = builder(stream()).build_host();
    let id = whole.register(&kw_query(0)).expect("registers");
    whole.run_to_end().expect("drains");
    let mut rows = taken;
    rows.extend(host.take_output(first).expect("output"));
    assert_eq!(rows, whole.take_output(id).expect("output"));
}

#[test]
fn non_ascii_needles_are_prefiltered_and_match_a_dedicated_engine() {
    let texts = [
        "un CAFÉ au lait",
        "cafe without the accent",
        "今日地震があった",
        "\u{0130}STANBUL'da kahve",
        "istanbul in ascii",
        "Café in \u{0130}stanbul, 地震 drill",
        "nothing relevant at all",
        "津波注意",
    ];
    let tweets: Vec<Tweet> = (0..400u64)
        .map(|i| {
            Tweet::builder(i, texts[i as usize % texts.len()])
                .at(Timestamp::from_secs(i as i64))
                .build()
        })
        .collect();
    let sqls = ["café", "地震", "\u{0130}stanbul"]
        .map(|kw| format!("SELECT id, text FROM twitter WHERE text contains '{kw}'"));

    let mut host = builder(tweets.clone()).build_host();
    let ids: Vec<QueryId> = sqls
        .iter()
        .map(|sql| host.register(sql).expect("registers"))
        .collect();
    assert!(host.list().iter().all(|q| q.indexed), "no ASCII carve-out");
    assert_eq!(host.needle_count(), 3);
    host.run_to_end().expect("drains");
    // Five of the eight texts carry a needle; the rest are never decoded.
    assert_eq!(host.stats().rows_decoded, 250);

    // `istanbul` folds to the same needle as `\u{0130}stanbul`.
    for ((sql, id), rows) in sqls.iter().zip(ids).zip([100, 100, 150]) {
        let got = host.take_output(id).expect("output");
        assert_eq!(got.len(), rows, "{sql}");
        for push_down in [false, true] {
            let mut engine = builder(tweets.clone()).push_down(push_down).build();
            let want = engine.execute(sql).expect("executes");
            assert_eq!(got, want.rows, "{sql} (push_down={push_down})");
        }
    }
}

// ---- the reference cadence, kept as the oracle ----------------------

mod cadence_oracle {
    use super::*;
    use crate::engine::EngineConfig;
    use proptest::prelude::*;
    use tweeql_firehose::fault::FaultPlan;
    use tweeql_model::User;

    /// Every window policy, the async-UDF shapes, LIMIT early exit and a
    /// plain scan. Window lengths on and off the one-second boundary
    /// grid, so windows close by watermark and by row.
    const SHAPES: &[&str] = &[
        "SELECT count(*) AS c, lang FROM twitter WHERE text contains 'kw' \
         GROUP BY lang WINDOW 7 seconds",
        "SELECT max(followers) AS m FROM twitter WINDOW 2500 ms",
        "SELECT count(*) AS c FROM twitter WINDOW 1 minutes",
        "SELECT count(*) AS c, lang FROM twitter GROUP BY lang WINDOW 10 seconds SLIDE 4 seconds",
        "SELECT sum(followers) AS s FROM twitter WHERE text contains 'kw' \
         WINDOW 3500 ms SLIDE 1500 ms",
        "SELECT avg(followers) AS a, lang FROM twitter GROUP BY lang \
         WINDOW CONFIDENCE 40.0 MAX 9 seconds",
        "SELECT avg(followers) AS a FROM twitter WINDOW CONFIDENCE 0.5",
        "SELECT count(*) AS c, lang FROM twitter GROUP BY lang WINDOW 5 TUPLES",
        "SELECT count(distinct lang) AS langs FROM twitter",
        "SELECT latitude(loc) AS la, text FROM twitter WHERE text contains 'kw'",
        "SELECT latitude(loc) AS la, longitude(loc) AS lo FROM twitter",
        "SELECT avg(followers) AS a, floor(latitude(loc)) AS cell FROM twitter \
         GROUP BY cell WINDOW 12 seconds SLIDE 6 seconds",
        "SELECT count(*) AS c, floor(longitude(loc)) AS cell FROM twitter \
         WHERE text contains 'kw' GROUP BY cell WINDOW 8 seconds",
        "SELECT count(*) AS c, floor(latitude(loc)) AS cell FROM twitter \
         GROUP BY cell WINDOW 3 seconds",
        "SELECT avg(latitude(loc)) AS a, lang FROM twitter GROUP BY lang \
         WINDOW CONFIDENCE 0.01 MAX 4 seconds",
        "SELECT text FROM twitter WHERE text contains 'kw' LIMIT 7",
        "SELECT count(*) AS c FROM twitter WINDOW 5 seconds LIMIT 3",
        "SELECT upper(lang) AS l, followers FROM twitter WHERE followers > 40",
    ];

    const LOCS: &[&str] = &["tokyo", "nyc", "london", "", "the moon", "boston", "paris"];
    const LANGS: &[&str] = &["en", "ja", "es"];

    /// A stream whose clock moves as `steps` say: bursts inside one
    /// second, idle seconds, jumps over many boundaries at once — and,
    /// with `disorder`, steps backwards (what a reorder the supervisor
    /// could not heal looks like to a pipeline).
    fn stream(steps: &[(u8, u16, u8)], disorder: bool) -> Vec<Tweet> {
        let mut now = 0i64;
        steps
            .iter()
            .enumerate()
            .map(|(i, &(kind, amount, pick))| {
                now += match kind {
                    0..=5 => i64::from(amount % 400),
                    6 | 7 => 1000 + i64::from(amount) * 3,
                    8 => 20_000 + i64::from(amount) * 40,
                    _ if disorder => -i64::from(amount % 2500).min(now),
                    _ => 0,
                };
                let pick = usize::from(pick);
                let mut user = User::new(i as u64 % 17, format!("u{}", i % 17));
                user.location = LOCS[pick % LOCS.len()].into();
                user.followers = (pick as u32 * 37) % 200;
                let text = match pick % 3 {
                    0 => format!("tweet {i} with kw inside"),
                    _ => format!("tweet {i} about nothing"),
                };
                Tweet::builder(i as u64, text)
                    .user(user)
                    .lang(LANGS[pick % LANGS.len()])
                    .at(Timestamp::from_millis(now))
                    .build()
            })
            .collect()
    }

    struct Setup {
        tweets: Vec<Tweet>,
        config: EngineConfig,
    }

    impl Setup {
        /// `reference`: the feed's reference cadence, which cuts the
        /// batch at every crossing and broadcasts every boundary.
        fn host(&self, reference: bool) -> QueryHost {
            let api = StreamingApi::new(self.tweets.clone(), VirtualClock::new());
            let mut host = Engine::builder(api)
                .config(self.config.clone())
                .build_host();
            host.feed.reference_cadence = reference;
            host
        }
    }

    fn digests(host: &QueryHost) -> Vec<(QueryId, QueryState, u64, u64)> {
        host.queries
            .iter()
            .map(|q| {
                let mut d = tweeql_wal::Digest::new();
                q.planned.pipeline.state_digest(&mut d);
                (q.id, q.state, q.rows_out, d.finish())
            })
            .collect()
    }

    /// A pipeline planned for `sql`, with its own fresh services.
    fn planned(sql: &str, config: &EngineConfig) -> crate::plan::PlannedQuery {
        let api = StreamingApi::new(Vec::new(), VirtualClock::new());
        let engine = Engine::builder(api).config(config.clone()).build();
        engine.checked_plan(sql).expect(sql)
    }

    fn digest(p: &crate::exec::Pipeline) -> u64 {
        let mut d = tweeql_wal::Digest::new();
        p.state_digest(&mut d);
        d.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The contract of `Operator::next_deadline`, through
        /// `Pipeline::next_deadline` so that the fold over the stages
        /// (an async stage holding rows back from an aggregate) is held
        /// to it too: from any state rows and watermarks can reach, a
        /// watermark below the deadline given for `unseen` changes
        /// neither output nor digest — not now, and not after any rows
        /// at or after `unseen`. `spared` is never shown the watermarks
        /// below the deadline; `shown` is shown every one.
        #[test]
        fn a_watermark_below_the_deadline_is_a_no_op(
            shape in 0usize..SHAPES.len(),
            knobs in (0usize..3, 0usize..3),
            steps in collection::vec((0u8..10, 0u16..1000, 0u8..250), 1..80),
            // Per tweet: whether a watermark follows it, and which — one
            // somewhere around the tweet's own time, the last one below
            // the deadline, or the deadline itself.
            marks in collection::vec((0u8..6, 0i64..9000), 80..81),
        ) {
            let config = EngineConfig {
                service: crate::udf::ServiceConfig {
                    max_batch: [1, 3, 25][knobs.0],
                    ..Default::default()
                },
                async_max_delay: Duration::from_secs([0, 2, 10][knobs.1]),
                ..EngineConfig::default()
            };
            let mut shown = planned(SHAPES[shape], &config).pipeline;
            let mut spared = planned(SHAPES[shape], &config).pipeline;
            let schema = shown.output_schema().unwrap();
            let (mut out_shown, mut out_spared) =
                (RowBatch::new(schema.clone()), RowBatch::new(schema));
            let tweets = stream(&steps, true);
            // The earliest row yet to come, from each position on.
            let mut unseen_from = vec![None; tweets.len() + 1];
            for (i, t) in tweets.iter().enumerate().rev() {
                unseen_from[i] = Some(unseen_from[i + 1].map_or(t.created_at, |u: Timestamp| u.min(t.created_at)));
            }
            let mut deadline = spared.next_deadline(unseen_from[0]);
            for (i, (tweet, &(mark, back))) in tweets.iter().zip(&marks).enumerate() {
                for p in [(&mut shown, &mut out_shown), (&mut spared, &mut out_spared)] {
                    p.0.push_batch(&mut vec![Record::from_tweet(tweet)], p.1).unwrap();
                }
                prop_assert_eq!(format!("{out_shown:?}"), format!("{out_spared:?}"));
                prop_assert_eq!(digest(&shown), digest(&spared));
                if shown.done() {
                    break;
                }
                let unseen = unseen_from[i + 1];
                let wm = match (mark, deadline) {
                    (0, _) => Some(Timestamp::from_millis(tweet.created_at.millis() + 2000 - back)),
                    (1, Some(due)) if due > Timestamp::MIN => Some(Timestamp::from_millis(due.millis() - 1)),
                    (2, Some(due)) => Some(due),
                    _ => None,
                };
                if let Some(wm) = wm {
                    shown.watermark(wm, &mut out_shown).unwrap();
                    if deadline.is_some_and(|due| wm >= due) {
                        spared.watermark(wm, &mut out_spared).unwrap();
                        deadline = spared.next_deadline(unseen);
                    }
                    prop_assert_eq!(format!("{out_shown:?}"), format!("{out_spared:?}"));
                    prop_assert_eq!(digest(&shown), digest(&spared));
                } else if mark == 3 {
                    // Asking again is always allowed, never required.
                    deadline = spared.next_deadline(unseen);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The host as it is — crossings ride in the batch, each
        /// pipeline delivers itself what is due — against the same host
        /// cutting the batch at every boundary and broadcasting every
        /// one: equal rows per poll, equal operator state at every poll,
        /// equal crossed-boundary count, equal final clock.
        #[test]
        fn riding_punctuation_equals_cutting_at_every_boundary(
            steps in collection::vec((0u8..10, 0u16..1000, 0u8..250), 20..260),
            shapes in collection::vec(0usize..SHAPES.len(), 1..9),
            knobs in (0usize..3, 0usize..3, 0usize..3, 0u8..2),
            fault_pick in 0u8..3,
            polls in collection::vec(0u16..1000, 0..6),
            churn in (0usize..SHAPES.len(), 0usize..8, 0u16..1000),
            chaos in 0u64..1000,
        ) {
            let (batch_pick, async_batch, async_delay, reference) = knobs;
            let mut config = EngineConfig {
                batch_size: [1, 16, 256][batch_pick],
                service: crate::udf::ServiceConfig {
                    max_batch: [1, 3, 25][async_batch],
                    ..Default::default()
                },
                async_max_delay: Duration::from_secs([0, 2, 10][async_delay]),
                reference: reference == 1,
                allow_pushdown: false,
                ..EngineConfig::default()
            };
            config.fault = match fault_pick {
                0 => None,
                1 => Some(FaultPlan::chaos(chaos)),
                // Disconnects only, often: source gaps between the rows.
                _ => Some(FaultPlan {
                    seed: chaos,
                    disconnect_rate: 0.02,
                    max_disconnects: 6,
                    ..FaultPlan::none()
                }),
            };
            let setup = Setup { tweets: stream(&steps, false), config };
            // One query: the host's single-pipeline fast path. Up to
            // eight: shared dispatch.
            let mut new = setup.host(false);
            let mut old = setup.host(true);
            let mut ids = Vec::new();
            for &shape in &shapes {
                let id = new.register(SHAPES[shape]).unwrap();
                prop_assert_eq!(old.register(SHAPES[shape]).unwrap(), id);
                ids.push(id);
            }
            let end = setup.tweets.last().map_or(0, |t| t.created_at.millis());
            let at = |permille: u16| Timestamp::from_millis(end * i64::from(permille) / 1000);
            let mut polls: Vec<Timestamp> = polls.iter().map(|&p| at(p)).collect();
            polls.sort();
            let (churn_shape, churn_drop, churn_at) = churn;
            let churn_at = at(churn_at);
            let mut churned = false;
            for until in polls.into_iter().map(Some).chain([None]) {
                if !churned && until.is_none_or(|u| u >= churn_at) {
                    // Mid-stream: one query arrives, one leaves.
                    churned = true;
                    prop_assert_eq!(new.pump_until(churn_at).unwrap(), old.pump_until(churn_at).unwrap());
                    let id = new.register(SHAPES[churn_shape]).unwrap();
                    prop_assert_eq!(old.register(SHAPES[churn_shape]).unwrap(), id);
                    let gone = ids[churn_drop % ids.len()];
                    prop_assert_eq!(new.drop_query(gone).unwrap(), old.drop_query(gone).unwrap());
                    ids.retain(|&q| q != gone);
                    ids.push(id);
                }
                let (a, b) = match until {
                    Some(until) => (new.pump_until(until).unwrap(), old.pump_until(until).unwrap()),
                    None => (new.run_to_end().unwrap(), old.run_to_end().unwrap()),
                };
                prop_assert_eq!(a, b);
                for &id in &ids {
                    prop_assert_eq!(new.take_output(id).unwrap(), old.take_output(id).unwrap());
                }
                prop_assert_eq!(digests(&new), digests(&old));
                prop_assert_eq!(new.stats.watermarks, old.stats.watermarks);
                prop_assert_eq!(new.stats.gaps, old.stats.gaps);
                prop_assert_eq!(new.position, old.position);
            }
            // Modeled service latency accrues from the clock at each
            // flush, so with an async UDF in play the clock follows the
            // cuts (as it always followed `batch_size`); without one it
            // is the stream's alone.
            let charges_clock = |sql: &str| sql.contains("itude(");
            if !shapes.iter().chain([&churn_shape]).any(|&s| charges_clock(SHAPES[s])) {
                prop_assert_eq!(new.clock.now(), old.clock.now());
            }
            prop_assert!(new.stats.batches <= old.stats.batches);
        }
    }
}

/// Fails on every call.
struct Boom;

impl crate::udf::StatefulUdf for Boom {
    fn call(&mut self, _: &[Value], _: Timestamp) -> Result<Value, QueryError> {
        Err(QueryError::Exec("boom".into()))
    }
}

/// A query whose final flush fails still retires: its drop returns the
/// error, and its trace span is closed and its counters published all
/// the same.
#[test]
fn a_query_whose_finish_fails_still_retires() {
    let sink = Arc::new(tweeql_obs::VecSink::new(1 << 12));
    let mut host = builder(stream())
        .configure_registry(|r| r.register_stateful("boom", Arc::new(|| Box::new(Boom))))
        .trace_sink(sink.clone())
        .build_host();
    let sql = "SELECT count(*) AS n FROM twitter GROUP BY lang HAVING boom(count(*)) > 0";
    let id = host.register(sql).expect("registers");
    host.pump_until(Timestamp::from_mins(1)).expect("pumps");
    let err = host.drop_query(id).expect_err("the final flush fails");
    assert!(
        matches!(&err, QueryError::Exec(m) if m == "boom"),
        "{err:?}"
    );
    assert_eq!(tweeql_obs::trace::validate_span_tree(&sink.events()), None);
    let rows_in = host
        .metrics()
        .counter_value("tweeql_host_rows_in_total", &[("query", "q1")]);
    assert_eq!(rows_in, 121, "one minute of tweets, two a second");
}
