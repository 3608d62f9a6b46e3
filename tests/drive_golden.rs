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
//! `reference` switch, so any change in what either drive path
//! delivers — rows, counters, where the clock stands — shows up here as
//! a changed digest.

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
/// before.
const GOLDEN: &[u64] = &[
    0xa2009a2653a0ae5f, // engine q0 Grid { reference: false, chaos: false, batch: 1 }
    0x2243ef9d56468831, // engine q1 Grid { reference: false, chaos: false, batch: 1 }
    0x37fa8b746d762a7c, // engine q2 Grid { reference: false, chaos: false, batch: 1 }
    0x07460ff3075d9d59, // engine q3 Grid { reference: false, chaos: false, batch: 1 }
    0xc4c3fc287e7ea64f, // engine q4 Grid { reference: false, chaos: false, batch: 1 }
    0x1b58bd8772aec450, // engine q5 Grid { reference: false, chaos: false, batch: 1 }
    0x03a70bef1a7c25f6, // engine q5 flaky Grid { reference: false, chaos: false, batch: 1 }
    0x650223ac846ff6a4, // host Grid { reference: false, chaos: false, batch: 1 }
    0xb440944c07cc4615, // engine q0 Grid { reference: false, chaos: false, batch: 256 }
    0x44bf8db794b6c369, // engine q1 Grid { reference: false, chaos: false, batch: 256 }
    0xe93eb476a75bb417, // engine q2 Grid { reference: false, chaos: false, batch: 256 }
    0x550a585e3f457244, // engine q3 Grid { reference: false, chaos: false, batch: 256 }
    0xd9fc1f7bdab1f6bc, // engine q4 Grid { reference: false, chaos: false, batch: 256 }
    0x0645cb4c7149bd03, // engine q5 Grid { reference: false, chaos: false, batch: 256 }
    0xe0881a82aff205fc, // engine q5 flaky Grid { reference: false, chaos: false, batch: 256 }
    0xb68992476fcb2d81, // host Grid { reference: false, chaos: false, batch: 256 }
    0xf4053e0ee178e244, // engine q0 Grid { reference: false, chaos: true, batch: 1 }
    0xc4ae4798100a145c, // engine q1 Grid { reference: false, chaos: true, batch: 1 }
    0xdab8f2ee192bc16f, // engine q2 Grid { reference: false, chaos: true, batch: 1 }
    0xef2e2f784c701156, // engine q3 Grid { reference: false, chaos: true, batch: 1 }
    0x448efe2be8ca5624, // engine q4 Grid { reference: false, chaos: true, batch: 1 }
    0x9d280fa769ab4ecf, // engine q5 Grid { reference: false, chaos: true, batch: 1 }
    0x26a2504e781f187d, // engine q5 flaky Grid { reference: false, chaos: true, batch: 1 }
    0x7e64871d80f9c27c, // host Grid { reference: false, chaos: true, batch: 1 }
    0x30c50ed285855ec4, // engine q0 Grid { reference: false, chaos: true, batch: 256 }
    0xf59a924ccc24a8c8, // engine q1 Grid { reference: false, chaos: true, batch: 256 }
    0xc5e1c6b7726b8c76, // engine q2 Grid { reference: false, chaos: true, batch: 256 }
    0xada2860a4b844679, // engine q3 Grid { reference: false, chaos: true, batch: 256 }
    0x57b0786bc352780d, // engine q4 Grid { reference: false, chaos: true, batch: 256 }
    0xc4946515af083486, // engine q5 Grid { reference: false, chaos: true, batch: 256 }
    0xf7435a2691a30de3, // engine q5 flaky Grid { reference: false, chaos: true, batch: 256 }
    0x1ebc52a65a996ce9, // host Grid { reference: false, chaos: true, batch: 256 }
    0x8bb660608f3801c0, // engine q0 Grid { reference: true, chaos: false, batch: 1 }
    0x187d1dd65bdc00d2, // engine q1 Grid { reference: true, chaos: false, batch: 1 }
    0x43fde870065624e4, // engine q2 Grid { reference: true, chaos: false, batch: 1 }
    0xed766d8dfde9354a, // engine q3 Grid { reference: true, chaos: false, batch: 1 }
    0xba229d50a28195b9, // engine q4 Grid { reference: true, chaos: false, batch: 1 }
    0x252421919003c751, // engine q5 Grid { reference: true, chaos: false, batch: 1 }
    0xea941477007aebbe, // engine q5 flaky Grid { reference: true, chaos: false, batch: 1 }
    0xb14885756b34bccb, // host Grid { reference: true, chaos: false, batch: 1 }
    0xf15bc8fad8c47bc8, // engine q0 Grid { reference: true, chaos: false, batch: 256 }
    0xc6abf775dce88fb0, // engine q1 Grid { reference: true, chaos: false, batch: 256 }
    0xdeab46ca1216d0c0, // engine q2 Grid { reference: true, chaos: false, batch: 256 }
    0x49b44baf7d8a2096, // engine q3 Grid { reference: true, chaos: false, batch: 256 }
    0x99fa236853e33db9, // engine q4 Grid { reference: true, chaos: false, batch: 256 }
    0xfcb49be79de3c58d, // engine q5 Grid { reference: true, chaos: false, batch: 256 }
    0xbd96e1ec04153f2c, // engine q5 flaky Grid { reference: true, chaos: false, batch: 256 }
    0xf479177dc9f64420, // host Grid { reference: true, chaos: false, batch: 256 }
    0x15de8704339fe5f5, // engine q0 Grid { reference: true, chaos: true, batch: 1 }
    0x91d695e9147e24cb, // engine q1 Grid { reference: true, chaos: true, batch: 1 }
    0x6456c8baa7bd4ca1, // engine q2 Grid { reference: true, chaos: true, batch: 1 }
    0x8a9c800027a56c02, // engine q3 Grid { reference: true, chaos: true, batch: 1 }
    0x12bf8576bed2ba5e, // engine q4 Grid { reference: true, chaos: true, batch: 1 }
    0x611950a44fbb5af2, // engine q5 Grid { reference: true, chaos: true, batch: 1 }
    0xe6a574734261c099, // engine q5 flaky Grid { reference: true, chaos: true, batch: 1 }
    0x1d0d2e256f49962e, // host Grid { reference: true, chaos: true, batch: 1 }
    0xdcb264315d4ab27d, // engine q0 Grid { reference: true, chaos: true, batch: 256 }
    0xbb64890d43149851, // engine q1 Grid { reference: true, chaos: true, batch: 256 }
    0x62ab226294a80c45, // engine q2 Grid { reference: true, chaos: true, batch: 256 }
    0x52f11f00a4e5f48a, // engine q3 Grid { reference: true, chaos: true, batch: 256 }
    0x1fd28d5d7ff5e566, // engine q4 Grid { reference: true, chaos: true, batch: 256 }
    0xf030011d77494e96, // engine q5 Grid { reference: true, chaos: true, batch: 256 }
    0x5ecbaf62e81d6355, // engine q5 flaky Grid { reference: true, chaos: true, batch: 256 }
    0x8383992a86e3c9c8, // host Grid { reference: true, chaos: true, batch: 256 }
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
/// the same reason.
const ENTITIES_GOLDEN: &[u64] = &[
    0x827c2442e12ff60c, // Grid { reference: false, chaos: false, batch: 1 }
    0xc556563700494c29, // Grid { reference: false, chaos: false, batch: 256 }
    0xb91bab102a24452c, // Grid { reference: false, chaos: true, batch: 1 }
    0x8cef30ccefa2fea8, // Grid { reference: false, chaos: true, batch: 256 }
    0xe6e079ff33a47c45, // Grid { reference: true, chaos: false, batch: 1 }
    0x3fd78763dfb4868d, // Grid { reference: true, chaos: false, batch: 256 }
    0x7d6d2ccdc6b0eb2a, // Grid { reference: true, chaos: true, batch: 1 }
    0x79060d11b9664192, // Grid { reference: true, chaos: true, batch: 256 }
];

#[test]
fn named_entities_digests_are_unchanged() {
    let (got, labels): (Vec<u64>, Vec<String>) = grid()
        .into_iter()
        .map(|g| (engine_digest(ENTITIES, g, true), format!("{g:?}")))
        .unzip();
    assert_golden("ENTITIES_GOLDEN", ENTITIES_GOLDEN, &got, &labels);
}
