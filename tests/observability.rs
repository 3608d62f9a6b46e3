//! Deterministic test battery for the observability layer: the E1
//! dashboard workload (faulted source + flaky geocoder) must publish
//! identical counters across two same-seeded runs, and so must a
//! standing host, whose registry carries its live query's operator and
//! service counters and its connection's; traces must form well-formed
//! span trees stamped in virtual stream time; the profiler must report every stage of every fixture
//! plan shape; and the Prometheus exposition must parse.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use tweeql::engine::{Engine, QueryResult};
use tweeql::exec::supervise::SourceFaultStats;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::api::ConnectionStats;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, Tweet, VirtualClock};
use tweeql_obs::trace::validate_span_tree;
use tweeql_obs::{MetricsRegistry, Phase, SpanEvent, SpanKind, VecSink};

const E1_SQL: &str = "SELECT count(*) AS n FROM twitter \
                      WHERE text contains 'soccer' OR text contains 'liverpool' \
                      OR text contains 'manchester' WINDOW 2 minutes";

fn soccer_corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| generate(&scenarios::soccer_match(), 42))
}

/// A small corpus for the trace tests: the full span stream of the
/// 6-hour soccer scenario would be hundreds of thousands of events.
fn short_corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut s = scenarios::soccer_match();
        s.duration = Duration::from_mins(20);
        s.bursts
            .retain(|b| b.end() <= tweeql_model::Timestamp::ZERO + s.duration);
        s.population_size = 300;
        generate(&s, 42)
    })
}

/// The flaky geocoder from the E1 dashboard experiment: uniform
/// 100-500 ms modeled latency under a 420 ms timeout, so a fixed
/// fraction of requests times out and degrades.
fn flaky_service(seed: u64) -> ServiceConfig {
    ServiceConfig {
        latency: LatencyModel::Uniform(Duration::from_millis(100), Duration::from_millis(500)),
        timeout: Some(Duration::from_millis(420)),
        seed,
        ..ServiceConfig::default()
    }
}

/// Run the E1 workload with its own registry.
fn run_e1(seed: u64) -> (QueryResult, MetricsRegistry) {
    let api = StreamingApi::new(soccer_corpus().clone(), VirtualClock::new());
    let registry = MetricsRegistry::new();
    let mut engine = Engine::builder(api)
        .fault_policy(FaultPlan {
            disconnect_rate: 0.003,
            max_disconnects: 7,
            ..FaultPlan::chaos(7)
        })
        .service(flaky_service(seed))
        .metrics(registry.clone())
        .build();
    let result = engine.execute(E1_SQL).expect("E1 query runs");
    (result, registry)
}

/// The `tweeql_decode_*` series count columns built *per batch*, so
/// they follow the batch cuts and are pinned run to run.
fn decode_series(registry: &MetricsRegistry) -> BTreeMap<String, i64> {
    series(registry, |name| name.starts_with("tweeql_decode_"))
}

fn series(registry: &MetricsRegistry, keep: impl Fn(&str) -> bool) -> BTreeMap<String, i64> {
    registry
        .snapshot()
        .into_iter()
        .filter(|(name, _, _)| keep(name))
        .map(|(name, labels, v)| (format!("{name}{labels}"), v))
        .collect()
}

#[test]
fn e1_two_same_seeded_runs_publish_identical_registries() {
    // Same seed: the ENTIRE registry must match, histograms included
    // (batch boundaries are deterministic).
    let (_, a) = run_e1(7);
    let (_, b) = run_e1(7);
    assert!(
        a.counter_value("tweeql_records_decoded_total", &[]) > 0,
        "workload decoded nothing"
    );
    assert_eq!(a.snapshot(), b.snapshot(), "same-seed runs diverged");
}

#[test]
fn e1_publishes_columnar_decode_metrics() {
    // The E1 dashboard runs on the default columnar path, but its fused
    // scan reads every value, `text` included, from the tweets: it
    // views no column, so its batches build none and, viewed by no
    // reader, count none skipped either.
    let (_, metrics) = run_e1(7);
    assert_eq!(
        metrics.counter_value("tweeql_decode_columns_materialized_total", &[]),
        0,
        "a scan head builds no column"
    );
    assert_eq!(
        metrics.counter_value("tweeql_decode_columns_skipped_total", &[]),
        0,
        "a batch no reader viewed skips nothing"
    );
    assert_eq!(
        decode_series(&metrics),
        decode_series(&run_e1(7).1),
        "decode metrics diverged between two runs"
    );

    // E1 never touches `lang` or `loc`, so no dictionary is built and
    // the reuse gauge stays unpublished. A GROUP BY over `lang` at the
    // head of the plan drives the dictionary path: it materializes the
    // column, and its gauge is published and repeats run to run. (A
    // projection over `lang` reads it from the row and builds no
    // column.)
    let lang_sql = "SELECT count(*) AS n, lang FROM twitter GROUP BY lang WINDOW 2 minutes";
    let run_lang = || {
        let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
        let registry = MetricsRegistry::new();
        let mut engine = Engine::builder(api).metrics(registry.clone()).build();
        engine.execute(lang_sql).expect("lang query runs");
        registry
    };
    let lang_registry = run_lang();
    assert!(
        lang_registry.counter_value("tweeql_decode_columns_materialized_total", &[]) > 0,
        "the GROUP BY head materialized no column"
    );
    let lang_decode = decode_series(&lang_registry);
    let gauge = lang_decode
        .iter()
        .find(|(k, _)| k.starts_with("tweeql_decode_dict_reuse_permille"));
    let (_, reuse) = gauge.unwrap_or_else(|| {
        panic!("dictionary reuse gauge missing after GROUP BY lang: {lang_decode:?}")
    });
    assert!((0..=1000).contains(reuse), "permille out of range: {reuse}");
    assert_eq!(lang_decode, decode_series(&run_lang()), "rerun");

    // The reference configuration decodes rows, so the fused scan never
    // runs and no decode counters may be published at all.
    let api = StreamingApi::new(soccer_corpus().clone(), VirtualClock::new());
    let registry = MetricsRegistry::new();
    let mut engine = Engine::builder(api)
        .reference(true)
        .service(flaky_service(7))
        .metrics(registry.clone())
        .build();
    engine.execute(E1_SQL).expect("row-mode E1 runs");
    assert_eq!(
        registry.counter_value("tweeql_decode_columns_materialized_total", &[]),
        0,
        "row-mode run must not report materialized columns"
    );
}

#[test]
fn serial_batch_histogram_is_populated_and_consistent() {
    let (result, metrics) = run_e1(7);
    let h = metrics.histogram("tweeql_batch_rows", &[]);
    assert!(h.count() > 0, "no batches observed");
    assert_eq!(
        h.sum(),
        result.stats.stages[0].1.records_in,
        "histogram sum must equal rows entering the first stage"
    );
    let buckets = h.cumulative_buckets();
    assert_eq!(buckets.last().map(|&(_, c)| c), Some(h.count()));
    // Cumulative counts are monotone.
    for w in buckets.windows(2) {
        assert!(w[0].1 <= w[1].1, "non-monotone buckets: {buckets:?}");
    }
}

// ---- trace capture ----

/// Valid (non-broken) fixture queries, one statement per file.
fn fixture_queries() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut out = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .filter(|n| n.ends_with(".tweeql") && n != "broken.tweeql")
        .collect();
    names.sort();
    for name in names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("read fixture");
        let sql: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with("--"))
            .collect::<Vec<_>>()
            .join(" ");
        let sql = sql.trim().trim_end_matches(';').trim().to_string();
        assert!(!sql.is_empty(), "{name}: no statement");
        out.push((name, sql));
    }
    out
}

fn trace_run(sql: &str) -> Vec<SpanEvent> {
    let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
    let sink = Arc::new(VecSink::new(1 << 20));
    let mut engine = Engine::builder(api)
        .service(flaky_service(7))
        .trace_sink(sink.clone())
        .build();
    engine.execute(sql).expect("fixture query runs");
    assert_eq!(sink.dropped(), 0, "trace ring overflowed");
    sink.events()
}

#[test]
fn fixture_traces_are_well_formed_and_reproducible() {
    let fixtures = fixture_queries();
    assert!(fixtures.len() >= 4, "expected the four plan-shape fixtures");
    for (name, sql) in &fixtures {
        let events = trace_run(sql);
        assert!(!events.is_empty(), "{name}: empty trace");
        if let Some(err) = validate_span_tree(&events) {
            panic!("{name}: malformed span tree: {err}");
        }
        // Exactly one query root; operator spans directly under it.
        let roots: Vec<_> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Query && e.parent.is_none())
            .collect();
        assert_eq!(roots.iter().filter(|e| e.rows == 0).count(), 1, "{name}");
        // Virtual timestamps never decrease (validate_span_tree checks
        // this too; assert explicitly so a regression names the fixture).
        for w in events.windows(2) {
            assert!(w[0].ts_ms <= w[1].ts_ms, "{name}: time went backwards");
        }
        // Same seed, same query: identical event stream.
        assert_eq!(events, trace_run(sql), "{name}: trace not reproducible");
    }
}

#[test]
fn profiler_reports_every_stage_of_every_fixture() {
    for (name, sql) in &fixture_queries() {
        let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
        let mut engine = Engine::builder(api).service(flaky_service(7)).build();
        let result = engine.execute(sql).expect("fixture query runs");
        let profile = engine.profile().expect("profile recorded");
        assert_eq!(profile.sql, *sql);
        assert_eq!(
            profile.stages.len(),
            result.stats.stages.len(),
            "{name}: profiler missed a stage"
        );
        for (stage, (op_name, op_stats)) in profile.stages.iter().zip(&result.stats.stages) {
            assert_eq!(&stage.name, op_name, "{name}");
            assert_eq!(stage.records_in, op_stats.records_in, "{name}");
            assert_eq!(stage.records_out, op_stats.records_out, "{name}");
            if stage.records_in > 0 {
                let sel = stage.selectivity.expect("selectivity when rows flowed");
                assert!((0.0..=f64::MAX).contains(&sel), "{name}: bad selectivity");
            }
        }
        let report = engine.profile_report().expect("report renders");
        for (op_name, _) in &result.stats.stages {
            assert!(report.contains(op_name), "{name}: {op_name} not in report");
        }
        let json = engine.profile_json().expect("json renders");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{name}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{name}"
        );
    }
}

/// A standing query's span runs from its registration to its retiring,
/// on the host clock: registrations a minute apart, a drop and the end
/// of the stream give a trace whose stamps never go backwards.
#[test]
fn standing_query_spans_end_when_the_query_retires() {
    let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
    let sink = Arc::new(VecSink::new(1 << 16));
    let mut host = Engine::builder(api).trace_sink(sink.clone()).build_host();
    host.register("SELECT text FROM twitter WHERE text contains 'goal'")
        .unwrap();
    host.pump_until(tweeql_model::Timestamp::ZERO + Duration::from_mins(1))
        .unwrap();
    let q2 = host.register("SELECT lang FROM twitter").unwrap();
    host.pump_until(tweeql_model::Timestamp::ZERO + Duration::from_mins(2))
        .unwrap();
    host.register("SELECT screen_name FROM twitter").unwrap();
    host.drop_query(q2).unwrap();
    host.run_to_end().unwrap();
    let events = sink.events();
    if let Some(err) = validate_span_tree(&events) {
        panic!("malformed host trace: {err}");
    }
    let queries: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Query)
        .collect();
    assert_eq!(queries.len(), 6, "one start and one end per query");
    for start in queries.iter().filter(|e| e.phase == Phase::Start) {
        let end = queries
            .iter()
            .find(|e| e.id == start.id && e.phase == Phase::End)
            .expect("every query span ends");
        assert!(end.ts_ms > start.ts_ms, "span {} has no length", start.id);
    }
}

// ---- a standing host publishes what an engine run does ----

/// The live query: needle-free, so the host dispatches it every row as
/// a lone engine run does, with an async stage behind the flaky
/// geocoder and a windowed aggregate.
const LIVE_SQL: &str = "SELECT lang, count(*) AS n, avg(latitude(loc)) AS lat FROM twitter \
                        GROUP BY lang WINDOW 5 minutes";

fn faulted_builder(api: StreamingApi) -> tweeql::EngineBuilder {
    Engine::builder(api)
        .fault_policy(FaultPlan {
            disconnect_rate: 0.003,
            max_disconnects: 7,
            ..FaultPlan::chaos(7)
        })
        .service(flaky_service(7))
}

/// One live query and three whose needles never occur, through
/// `run_to_end` on a faulted stream: the host's registry and source
/// statistics.
fn standing_run() -> (MetricsRegistry, ConnectionStats, SourceFaultStats) {
    let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
    let mut host = faulted_builder(api).build_host();
    host.register(LIVE_SQL).expect("the live query registers");
    for i in 0..3 {
        let phantom = format!("SELECT text FROM twitter WHERE text contains 'zz{i}phantom'");
        host.register(&phantom).expect("a phantom query registers");
    }
    host.run_to_end().expect("the stream drains");
    let (source, faults) = host.source_stats().expect("the host pulled");
    (host.metrics().clone(), source, faults)
}

#[test]
fn a_standing_host_publishes_its_queries_and_its_connection() {
    let (registry, source, faults) = standing_run();
    let counter = |name: &str, labels: &[(&str, &str)]| registry.counter_value(name, labels);

    // The live query's stages, as a lone engine run over the same
    // stream with pushdown off reports them (`Pipeline::stage_stats`).
    let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
    let run = faulted_builder(api)
        .push_down(false)
        .build()
        .execute(LIVE_SQL)
        .expect("the engine run");
    let mut ops: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, s) in &run.stats.stages {
        let op = ops.entry(name.as_str()).or_default();
        op.0 += s.records_in;
        op.1 += s.records_out;
    }
    assert!(ops.contains_key("async:latitude"), "{ops:?}");
    for (&name, &(records_in, records_out)) in &ops {
        let op = [("op", name)];
        assert_eq!(
            counter("tweeql_op_records_in_total", &op),
            records_in,
            "{name}"
        );
        assert_eq!(
            counter("tweeql_op_records_out_total", &op),
            records_out,
            "{name}"
        );
    }
    let published_ops = registry
        .snapshot()
        .into_iter()
        .filter(|(name, _, _)| name.starts_with("tweeql_op_records_in_total"))
        .count();
    assert_eq!(published_ops, ops.len(), "an op series no stage explains");
    for (name, s) in &run.stats.stages {
        let Some(h) = &s.health else { continue };
        let service = [("service", name.as_str())];
        assert!(h.requests > 0, "{name} made no request");
        assert_eq!(
            counter("tweeql_service_requests_total", &service),
            h.requests
        );
        assert_eq!(
            counter("tweeql_service_timeouts_total", &service),
            h.timeouts
        );
        assert_eq!(
            counter("tweeql_service_degraded_rows_total", &service),
            h.degraded_rows
        );
    }

    // The connection's families are the host's source statistics.
    assert!(faults.disconnects > 0, "the stream was not faulted");
    assert_eq!(
        counter("tweeql_records_decoded_total", &[]),
        source.delivered
    );
    for (name, v) in [
        ("tweeql_source_disconnects_total", faults.disconnects),
        ("tweeql_source_reconnects_total", faults.reconnects),
        (
            "tweeql_source_duplicates_dropped_total",
            faults.duplicates_dropped,
        ),
        (
            "tweeql_source_malformed_skipped_total",
            faults.malformed_skipped,
        ),
        ("tweeql_source_gaps_total", faults.gaps.len() as u64),
    ] {
        assert_eq!(counter(name, &[]), v, "{name}");
    }

    // Every query counts at admission; only the live one publishes.
    assert_eq!(counter("tweeql_queries_total", &[]), 4);
    let live = registry
        .snapshot()
        .into_iter()
        .filter(|(_, labels, _)| labels.contains("query="))
        .inspect(|(name, labels, _)| {
            assert!(
                labels.contains("query=\"q1\""),
                "{name}{labels}: a quiet query published"
            );
        })
        .count();
    assert!(live > 0, "the live query published nothing");

    // Two same-seeded runs publish identical registries.
    assert_eq!(registry.snapshot(), standing_run().0.snapshot());
}

// ---- stale per-run state on reused engines ----

#[test]
fn reused_engine_reports_per_run_geo_stats() {
    // A reliable service (no timeouts, no failures): every request
    // succeeds and lands in the cache, so the second identical run is
    // answered entirely from cache.
    let api = StreamingApi::new(short_corpus().clone(), VirtualClock::new());
    let mut engine = Engine::builder(api)
        .service(ServiceConfig::default())
        .build();
    let geo_sql = "SELECT latitude(loc) AS lat FROM twitter \
                   WHERE text contains 'manchester' LIMIT 40";
    let first = engine.execute(geo_sql).expect("first query runs");
    assert!(first.stats.geo_requests > 0, "first run used the geocoder");
    let first_lookups = first.stats.geo_cache.hits + first.stats.geo_cache.misses;
    assert!(first_lookups > 0);

    // Second, identical query on the SAME engine: the shared geo
    // service is cumulative, so without baseline snapshots this run
    // would re-report the first run's requests on top of its own.
    let second = engine.execute(geo_sql).expect("second query runs");
    let second_lookups = second.stats.geo_cache.hits + second.stats.geo_cache.misses;
    assert!(
        second_lookups <= first_lookups,
        "second run reported cumulative cache stats: {} then {}",
        first_lookups,
        second_lookups
    );
    // Every location the second run needs is already cached: per-run
    // requests must be zero (cumulative reporting would show > 0).
    assert_eq!(
        second.stats.geo_requests, 0,
        "second run leaked the first run's geo requests"
    );
    assert_eq!(second.stats.geo_cache.misses, 0);

    // A geo-free third query must report no geo activity at all.
    let third = engine
        .execute("SELECT text FROM twitter WHERE text contains 'soccer' LIMIT 5")
        .expect("third query runs");
    assert_eq!(third.stats.geo_requests, 0);
    assert_eq!(third.stats.geo_cache.hits + third.stats.geo_cache.misses, 0);
}

// ---- Prometheus exposition ----

/// Mini Prometheus text-format parser: every line is a `# TYPE` comment
/// or `name{labels} value`; families are typed once; values are finite.
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("family kind").to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown type: {line}"
            );
            assert!(
                types.insert(name, kind).is_none(),
                "family typed twice: {line}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample has value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(value.is_finite(), "non-finite sample: {line}");
        let name = series.split('{').next().expect("series name");
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_count")
            .trim_end_matches("_sum");
        assert!(
            types.contains_key(name) || types.contains_key(family),
            "untyped series: {line}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unbalanced labels: {line}");
            let labels = &series[name.len() + 1..series.len() - 1];
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=').expect("label k=v");
                assert!(
                    !k.is_empty() && v.starts_with('"') && v.ends_with('"'),
                    "{line}"
                );
            }
        }
        assert!(
            samples.insert(series.to_string(), value).is_none(),
            "duplicate series: {line}"
        );
    }
    samples
}

#[test]
fn prometheus_exposition_parses_and_covers_all_subsystems() {
    let api = StreamingApi::new(soccer_corpus().clone(), VirtualClock::new());
    let registry = MetricsRegistry::new();
    let mut engine = Engine::builder(api)
        .fault_policy(FaultPlan {
            disconnect_rate: 0.003,
            max_disconnects: 7,
            ..FaultPlan::chaos(7)
        })
        .service(flaky_service(7))
        .metrics(registry.clone())
        .build();
    let geo_sql = "SELECT count(*) AS n, AVG(latitude(loc)) AS lat FROM twitter \
                   WHERE text contains 'soccer' GROUP BY lang WINDOW 5 minutes";
    engine.execute(geo_sql).expect("geo query runs");

    // The TwitInfo dashboard shares the registry: its peak-detector
    // counters sit next to the engine's families.
    let spec = twitinfo::EventSpec::new("soccer", &["soccer", "liverpool", "manchester"]);
    let api = StreamingApi::new(soccer_corpus().clone(), VirtualClock::new());
    let event = twitinfo::event_tweets(&api, &spec).expect("the event query runs");
    let analysis = twitinfo::analyze(&spec, &event, &twitinfo::AnalysisConfig::default());
    analysis.publish_metrics(&registry);

    let text = registry.render_prometheus();
    let samples = parse_prometheus(&text);
    for required in [
        "tweeql_records_decoded_total",
        "tweeql_gap_windows_total",
        "tweeql_service_cache_hits_total{service=\"geocode\"}",
        "tweeql_service_breaker_state{service=\"async:latitude\"}",
        "tweeql_op_records_in_total{op=\"where\"}",
        "tweeql_windows_emitted_total{op=\"aggregate\"}",
        "tweeql_batch_rows_count",
        "twitinfo_peaks_detected_total",
        "twitinfo_sentiment_tweets_total{polarity=\"positive\"}",
    ] {
        assert!(
            samples.contains_key(required),
            "missing {required} in:\n{text}"
        );
    }
    assert!(samples["tweeql_records_decoded_total"] > 0.0);
    assert!(samples["twitinfo_peaks_detected_total"] >= 1.0);
    // Histogram +Inf bucket equals the count series.
    assert_eq!(
        samples["tweeql_batch_rows_bucket{le=\"+Inf\"}"],
        samples["tweeql_batch_rows_count"]
    );
}

// ---- property: any mini-grammar query yields a well-formed span tree ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_query_produces_well_formed_span_tree(
        kw_idx in 0usize..4,
        limit in 1u64..40,
        mins in 1i64..6,
        shape in 0usize..4,
    ) {
        let kw = ["soccer", "liverpool", "manchester", "goal"][kw_idx];
        let sql = match shape {
            0 => format!("SELECT text FROM twitter WHERE text contains '{kw}' LIMIT {limit}"),
            1 => format!(
                "SELECT count(*) AS n FROM twitter WHERE text contains '{kw}' \
                 WINDOW {mins} minutes"
            ),
            2 => format!(
                "SELECT lang, count(*) AS c FROM twitter GROUP BY lang \
                 WINDOW {mins} minutes SLIDE 1 minutes"
            ),
            _ => format!(
                "SELECT upper(lang) AS l, sentiment(text) AS s FROM twitter \
                 WHERE text contains '{kw}' LIMIT {limit}"
            ),
        };
        let events = trace_run(&sql);
        prop_assert!(!events.is_empty());
        let verdict = validate_span_tree(&events);
        prop_assert!(verdict.is_none(), "{}: {:?}", sql, verdict);
    }
}
