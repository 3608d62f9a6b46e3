//! Golden pin for the single-stream drive path.
//!
//! One FNV-1a digest per engine run and per host run over a fixed
//! grid: the fast configuration or the reference one
//! (`EngineBuilder::reference`) × clean or chaos-faulted stream × batch
//! size 1 or 256. An
//! engine digest covers the output rows, every `QueryStats` field
//! except operator busy time (wall clock), the final virtual clock and
//! the rendered metrics registry. A host digest covers the rows of
//! every poll between staged `pump_until` calls, `HostStats`, the
//! source statistics, the final clock and the registry.
//!
//! The async query also runs against a flaky geocoder (timeouts and a
//! circuit breaker whose cooldown is read off the virtual clock), which
//! makes where the clock stands at each flush part of the output. So
//! does `named_entities`, pinned in its own table on the same service.
//!
//! The fast values were recorded before the engine and host loops were
//! folded into one source cursor and batch filler, and the reference
//! values before the four per-layer mode flags became the one
//! `reference` switch (seven of them again when the reference began
//! pulling source blocks; `GOLDEN` says which and why), so any change
//! in what either drive path delivers — rows, counters, where the
//! clock stands — shows up here as a changed digest.

mod drive_queries;

use drive_queries::QUERIES;
use std::sync::{Arc, OnceLock};
use tweeql::engine::Engine;
use tweeql::exec::supervise::RetryPolicy;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::{generate, StreamingApi};
use tweeql_geo::breaker::BreakerConfig;
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Clock, Duration, Timestamp, Tweet, VirtualClock};

fn corpus() -> &'static Vec<Tweet> {
    static CORPUS: OnceLock<Vec<Tweet>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let s = Scenario {
            name: "drive-golden".into(),
            duration: Duration::from_mins(10),
            background_rate_per_min: 110.0,
            topics: vec![Topic::new("kw", vec!["kw"], 50.0)],
            bursts: vec![],
            geotag_rate: 0.4,
            population_size: 400,
        };
        generate(&s, 90210)
    })
}

/// The async query.
const GEO: usize = 5;

/// Every engine run: each query on a healthy geocoder, then the async
/// one on the flaky geocoder.
fn engine_runs() -> impl Iterator<Item = (usize, bool)> {
    (0..QUERIES.len()).map(|q| (q, false)).chain([(GEO, true)])
}

/// The host registers `tests/batched_source.rs`'s three and the async
/// query, on the flaky geocoder.
const HOST_QUERIES: [usize; 4] = [0, 1, 2, GEO];

/// Uniform 100–500 ms latency against a 420 ms deadline, no cache, and
/// a breaker that opens after three failures.
fn flaky_geocoder() -> ServiceConfig {
    ServiceConfig {
        latency: LatencyModel::Uniform(Duration::from_millis(100), Duration::from_millis(500)),
        timeout: Some(Duration::from_millis(420)),
        cache_capacity: 0,
        breaker: BreakerConfig {
            failure_threshold: 3,
            ..BreakerConfig::default()
        },
        ..ServiceConfig::default()
    }
}

#[derive(Clone, Copy, Debug)]
struct Grid {
    reference: bool,
    chaos: bool,
    batch: usize,
}

fn grid() -> Vec<Grid> {
    let mut out = Vec::new();
    for reference in [false, true] {
        for chaos in [false, true] {
            for batch in [1, 256] {
                out.push(Grid {
                    reference,
                    chaos,
                    batch,
                });
            }
        }
    }
    out
}

fn builder(g: Grid, flaky: bool, clock: &Arc<VirtualClock>) -> tweeql::EngineBuilder {
    let api = StreamingApi::new(corpus().clone(), Arc::clone(clock));
    let mut b = Engine::builder(api)
        .batch_size(g.batch)
        .reference(g.reference);
    if flaky {
        b = b.service(flaky_geocoder());
    }
    if g.chaos {
        b = b
            .fault_policy(FaultPlan::chaos(7))
            .retry_policy(RetryPolicy {
                replay_overlap: Duration::from_secs(20),
                ..RetryPolicy::default()
            });
    }
    b
}

fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn engine_digest(sql: &str, g: Grid, flaky: bool) -> u64 {
    let clock = VirtualClock::new();
    let mut engine = builder(g, flaky, &clock).build();
    let r = engine.execute(sql).expect(sql);
    let mut stats = r.stats.clone();
    for (_, s) in &mut stats.stages {
        s.busy_nanos = 0;
    }
    fnv(&format!(
        "{:?}\n{:?}\n{}\n{}",
        r.rows,
        stats,
        clock.now().millis(),
        engine.render_prometheus()
    ))
}

fn host_digest(g: Grid) -> u64 {
    let clock = VirtualClock::new();
    let mut host = builder(g, true, &clock).build_host();
    let ids: Vec<_> = HOST_QUERIES
        .iter()
        .map(|&q| host.register(QUERIES[q]).expect(QUERIES[q]))
        .collect();
    let mut text = String::new();
    for minute in [3, 6, 9, i64::MAX] {
        let delivered = match minute {
            i64::MAX => host.run_to_end().expect("drains"),
            m => host.pump_until(Timestamp::from_mins(m)).expect("pumps"),
        };
        text.push_str(&format!("{delivered}\n"));
        for &id in &ids {
            text.push_str(&format!("{:?}\n", host.take_output(id).expect("output")));
        }
    }
    text.push_str(&format!(
        "{:?}\n{:?}\n{}\n{}",
        host.stats(),
        host.source_stats(),
        clock.now().millis(),
        host.metrics().render_prometheus()
    ));
    fnv(&text)
}

/// Every digest: the fast ones recorded before the drive loops were
/// unified, the reference ones before the one `reference` switch. The
/// four fast `engine q4` values were re-recorded when the aggregate's
/// columnar head began naming its columns for the batch to
/// materialize: with `QueryStats::decode` and the `tweeql_decode_*`
/// metrics drawn from it left out, they equal the values before. The
/// four fast `engine q2` values were re-recorded when a scan stage
/// stopped asking for columns it reads from the row (`followers`): with
/// the same left out, every digest equals the value before. The 24
/// fast scan-headed `engine` values (q0, q1, q2, q3, q5, q5 flaky) and
/// the eight `host` values were re-recorded when a batch began building
/// a column at its first reader's view and counting what it built: a
/// scan head views no column, so its runs count no column skipped, and
/// `HostStats` and the host's registry now carry the decode counters.
/// With `QueryStats::decode`, `HostStats::decode` and the
/// `tweeql_decode_*` metrics left out, every digest equals the value
/// before. All 64 were re-recorded when a query's host became the one
/// place its counters are published: an engine's registry gained the
/// `tweeql_host_*` families, and a host's gained the per-query
/// (`tweeql_queries_total`, `tweeql_query_rows_out_total`,
/// `tweeql_gap_windows_total`, `tweeql_op_*`, `tweeql_<key>_total{op}`,
/// `tweeql_service_*`) and connection (`tweeql_records_decoded_total`,
/// `tweeql_source_*`) families. With the engine registry's
/// `tweeql_host_*` lines and the host registry's lines outside
/// `tweeql_host_*`, `tweeql_decode_*`, `tweeql_batch_rows*` and
/// `tweeql_wal_*` left out, every digest equals the value before; no
/// run here is a quiet query, so no zero-valued series went missing.
/// Five reference values were re-recorded when the reference
/// configuration stopped pulling tweets one at a time and began pulling
/// the source blocks every other configuration pulls. The two `engine
/// q3` (LIMIT) values at batch 256: the pull now reads to the end of
/// the block that fills the LIMIT and stops the clock at the source
/// frontier; clean, its source stats and clock now equal the fast
/// engine's without pushdown. The `engine q5 flaky` values under chaos
/// and the chaos `host` value at batch 1: the per-tweet pull had moved
/// the clock over the tweets the heal buffer held back, so the flaky
/// geocoder was called at a later clock than the one a flush sets; at
/// batch 1 under chaos the reference's rows, source stats, geocoder
/// requests and clock now equal the fast engine's without pushdown,
/// which they did not before.
const GOLDEN: &[u64] = &[
    0x5b819f55080e7d69, // engine q0 Grid { reference: false, chaos: false, batch: 1 }
    0xff220cb98731e420, // engine q1 Grid { reference: false, chaos: false, batch: 1 }
    0x55b0fdee0c23a9c6, // engine q2 Grid { reference: false, chaos: false, batch: 1 }
    0xfa14ef90f625111a, // engine q3 Grid { reference: false, chaos: false, batch: 1 }
    0x240a4c04ca52c7bc, // engine q4 Grid { reference: false, chaos: false, batch: 1 }
    0xd09f7cb7d9745d71, // engine q5 Grid { reference: false, chaos: false, batch: 1 }
    0xa39260161b43e13f, // engine q5 flaky Grid { reference: false, chaos: false, batch: 1 }
    0x2597d0555ad9a0c4, // host Grid { reference: false, chaos: false, batch: 1 }
    0xa4d1aeebca83b59f, // engine q0 Grid { reference: false, chaos: false, batch: 256 }
    0x47e1cc0a1bbab0e8, // engine q1 Grid { reference: false, chaos: false, batch: 256 }
    0x8ae454bfd4594919, // engine q2 Grid { reference: false, chaos: false, batch: 256 }
    0x18896bae14ed7630, // engine q3 Grid { reference: false, chaos: false, batch: 256 }
    0x9e32740759843125, // engine q4 Grid { reference: false, chaos: false, batch: 256 }
    0x37fc3050297165b0, // engine q5 Grid { reference: false, chaos: false, batch: 256 }
    0xa23531f03cc296e9, // engine q5 flaky Grid { reference: false, chaos: false, batch: 256 }
    0x456bd758e629ea93, // host Grid { reference: false, chaos: false, batch: 256 }
    0x76c5cd374722d06e, // engine q0 Grid { reference: false, chaos: true, batch: 1 }
    0x3644c7e4e1b1daa7, // engine q1 Grid { reference: false, chaos: true, batch: 1 }
    0x5fdf835d904b8185, // engine q2 Grid { reference: false, chaos: true, batch: 1 }
    0xeca1b06b342f31a5, // engine q3 Grid { reference: false, chaos: true, batch: 1 }
    0xeaa1aebc8ab187cd, // engine q4 Grid { reference: false, chaos: true, batch: 1 }
    0x7d5f655b53ef9b54, // engine q5 Grid { reference: false, chaos: true, batch: 1 }
    0x4b4479568fca651a, // engine q5 flaky Grid { reference: false, chaos: true, batch: 1 }
    0x0842ccec4921013d, // host Grid { reference: false, chaos: true, batch: 1 }
    0x3ab8272486c3bcee, // engine q0 Grid { reference: false, chaos: true, batch: 256 }
    0x55d43d113c0c3523, // engine q1 Grid { reference: false, chaos: true, batch: 256 }
    0xe858597a1342dffc, // engine q2 Grid { reference: false, chaos: true, batch: 256 }
    0xec4a276a91b6e88d, // engine q3 Grid { reference: false, chaos: true, batch: 256 }
    0x689942d49799b332, // engine q4 Grid { reference: false, chaos: true, batch: 256 }
    0xffbd848d196c0ebf, // engine q5 Grid { reference: false, chaos: true, batch: 256 }
    0xe9486dfa9acad07c, // engine q5 flaky Grid { reference: false, chaos: true, batch: 256 }
    0xea70aa412c0575c4, // host Grid { reference: false, chaos: true, batch: 256 }
    0x09d3c1cdfb2b00e4, // engine q0 Grid { reference: true, chaos: false, batch: 1 }
    0xdfc43706a841ddb8, // engine q1 Grid { reference: true, chaos: false, batch: 1 }
    0xec03e7febe8f03f2, // engine q2 Grid { reference: true, chaos: false, batch: 1 }
    0xd98d26de82ba7589, // engine q3 Grid { reference: true, chaos: false, batch: 1 }
    0xbd289d9e9a5d60d4, // engine q4 Grid { reference: true, chaos: false, batch: 1 }
    0xba6b510f317d4018, // engine q5 Grid { reference: true, chaos: false, batch: 1 }
    0x70213277ff849b8b, // engine q5 flaky Grid { reference: true, chaos: false, batch: 1 }
    0x9bba0bc07dff59f7, // host Grid { reference: true, chaos: false, batch: 1 }
    0x447ff3372f46423c, // engine q0 Grid { reference: true, chaos: false, batch: 256 }
    0x66eef4bce77d872a, // engine q1 Grid { reference: true, chaos: false, batch: 256 }
    0xe730c6e7eae89d56, // engine q2 Grid { reference: true, chaos: false, batch: 256 }
    0x48d73aab48e5cd6f, // engine q3 Grid { reference: true, chaos: false, batch: 256 }
    0x77f0335fd1b008d4, // engine q4 Grid { reference: true, chaos: false, batch: 256 }
    0xcab6bb6799ddf884, // engine q5 Grid { reference: true, chaos: false, batch: 256 }
    0x02983a0de9e6ad99, // engine q5 flaky Grid { reference: true, chaos: false, batch: 256 }
    0xcf92edd5b9aef22a, // host Grid { reference: true, chaos: false, batch: 256 }
    0x94e2cdff79340109, // engine q0 Grid { reference: true, chaos: true, batch: 1 }
    0x04b240e37295ec89, // engine q1 Grid { reference: true, chaos: true, batch: 1 }
    0x28a8648aa43b997f, // engine q2 Grid { reference: true, chaos: true, batch: 1 }
    0x611cdfc4ca6a32c5, // engine q3 Grid { reference: true, chaos: true, batch: 1 }
    0x56664a445ca9d805, // engine q4 Grid { reference: true, chaos: true, batch: 1 }
    0x38f2beae68762cfd, // engine q5 Grid { reference: true, chaos: true, batch: 1 }
    0x3966aa9a92869d10, // engine q5 flaky Grid { reference: true, chaos: true, batch: 1 }
    0x65e33ae5d97f2b94, // host Grid { reference: true, chaos: true, batch: 1 }
    0xb602ab675482b541, // engine q0 Grid { reference: true, chaos: true, batch: 256 }
    0x092c8c4b42b45833, // engine q1 Grid { reference: true, chaos: true, batch: 256 }
    0x2b51e2e604a571db, // engine q2 Grid { reference: true, chaos: true, batch: 256 }
    0xf1c4a28f3ffe430f, // engine q3 Grid { reference: true, chaos: true, batch: 256 }
    0x2de1319144ade0dd, // engine q4 Grid { reference: true, chaos: true, batch: 256 }
    0xbf16bf4047de4b51, // engine q5 Grid { reference: true, chaos: true, batch: 256 }
    0xf0d4223f69fb294e, // engine q5 flaky Grid { reference: true, chaos: true, batch: 256 }
    0x3a67f7a19070c09f, // host Grid { reference: true, chaos: true, batch: 256 }
];

/// Panic with the recomputed table when `got` is not `golden`.
fn assert_golden(name: &str, golden: &[u64], got: &[u64], labels: &[String]) {
    if got != golden {
        let mut report = format!("const {name}: &[u64] = &[\n");
        for (d, label) in got.iter().zip(labels) {
            report.push_str(&format!("    {d:#018x}, // {label}\n"));
        }
        report.push_str("];\n");
        let diverged: Vec<&String> = labels
            .iter()
            .zip(got.iter().zip(golden.iter().chain(std::iter::repeat(&0))))
            .filter(|(_, (a, b))| a != b)
            .map(|(l, _)| l)
            .collect();
        panic!(
            "{} digests diverge: {diverged:#?}\n{report}",
            diverged.len()
        );
    }
}

#[test]
fn drive_path_digests_are_unchanged() {
    let mut got = Vec::new();
    let mut labels = Vec::new();
    for g in grid() {
        for (q, flaky) in engine_runs() {
            got.push(engine_digest(QUERIES[q], g, flaky));
            let geocoder = if flaky { " flaky" } else { "" };
            labels.push(format!("engine q{q}{geocoder} {g:?}"));
        }
        got.push(host_digest(g));
        labels.push(format!("host {g:?}"));
    }
    assert_golden("GOLDEN", GOLDEN, &got, &labels);
}

/// The entity extractor on the flaky service: its own latency stream
/// (seeded apart from the geocoder's), timeouts and breaker.
const ENTITIES: &str = "SELECT named_entities(text) AS e FROM twitter WHERE text contains 'kw'";

/// `ENTITIES`' engine digests over the grid, recorded before the entity
/// extractor and the geocoder shared one simulated remote. The four
/// fast values were re-recorded with `GOLDEN`'s scan-headed ones, for
/// the same reason, and all eight with `GOLDEN`'s 64 when the host
/// became the one publisher; under the same filter they equal the
/// values before. The two reference values under chaos were
/// re-recorded when the reference configuration began pulling source
/// blocks, for the reason `GOLDEN`'s `engine q5 flaky` ones were.
const ENTITIES_GOLDEN: &[u64] = &[
    0xbbd5c076170bc173, // Grid { reference: false, chaos: false, batch: 1 }
    0x25cef3c2983122b6, // Grid { reference: false, chaos: false, batch: 256 }
    0x559562ff0a5cda8f, // Grid { reference: false, chaos: true, batch: 1 }
    0xd99d23b606680c09, // Grid { reference: false, chaos: true, batch: 256 }
    0xb2b2c879945ea704, // Grid { reference: true, chaos: false, batch: 1 }
    0xa35fe9e96943fa3c, // Grid { reference: true, chaos: false, batch: 256 }
    0x1fbb9da970978591, // Grid { reference: true, chaos: true, batch: 1 }
    0xbcbecfd3150e0081, // Grid { reference: true, chaos: true, batch: 256 }
];

#[test]
fn named_entities_digests_are_unchanged() {
    let (got, labels): (Vec<u64>, Vec<String>) = grid()
        .into_iter()
        .map(|g| (engine_digest(ENTITIES, g, true), format!("{g:?}")))
        .unzip();
    assert_golden("ENTITIES_GOLDEN", ENTITIES_GOLDEN, &got, &labels);
}
