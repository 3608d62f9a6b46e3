//! The deferred index rebuild and the non-ASCII prefilter.

use super::*;
use crate::engine::Engine;
use crate::host::durable::DurabilityConfig;
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

/// Register and drop between pumps, at one prefilter setting. Returns
/// every row handed out, in a fixed order.
fn churn(prefilter: bool) -> Vec<Vec<Record>> {
    let mut host = builder(stream()).build_host();
    host.prefilter(prefilter);
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
fn churn_between_pumps_matches_prefilter_off() {
    let (on, off) = (churn(true), churn(false));
    assert!(on.iter().filter(|rows| !rows.is_empty()).count() >= 5);
    assert_eq!(on, off);
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
