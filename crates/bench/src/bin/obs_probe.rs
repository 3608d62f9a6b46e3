//! Deterministic observability probe: runs a seeded E1-style dashboard
//! workload (faulted source + flaky geocoder) with a JSONL trace sink
//! attached, then writes the profiler report.
//!
//! ```text
//! cargo run --release -p tweeql-bench --bin obs_probe -- \
//!     [--seed N] [--trace-out PATH] [--profile-out PATH]
//! ```
//!
//! CI's `metrics-determinism` job runs this twice with identical flags
//! and byte-compares the outputs: the trace is stamped in virtual
//! stream time, so two same-seeded runs must be `cmp`-identical.

use std::sync::Arc;
use tweeql::engine::Engine;
use tweeql::udf::ServiceConfig;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_geo::latency::LatencyModel;
use tweeql_model::{Duration, VirtualClock};
use tweeql_obs::JsonlSink;

const SQL: &str = "SELECT count(*) AS n, AVG(latitude(loc)) AS lat FROM twitter \
                   WHERE text contains 'soccer' OR text contains 'liverpool' \
                   GROUP BY lang WINDOW 2 minutes";

fn main() {
    let mut seed = 42u64;
    let mut trace_out = String::from("obs_trace.jsonl");
    let mut profile_out = String::from("obs_profile.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--trace-out" => trace_out = args.next().expect("--trace-out PATH"),
            "--profile-out" => profile_out = args.next().expect("--profile-out PATH"),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    let tweets = generate(&scenarios::soccer_match(), seed);
    eprintln!("obs probe: {} tweets, seed {seed}", tweets.len());
    let api = StreamingApi::new(tweets, VirtualClock::new());
    let sink = Arc::new(JsonlSink::create(&trace_out).expect("create trace file"));
    let mut engine = Engine::builder(api)
        .fault_policy(FaultPlan {
            disconnect_rate: 0.003,
            max_disconnects: 7,
            ..FaultPlan::chaos(seed)
        })
        .service(ServiceConfig {
            latency: LatencyModel::Uniform(Duration::from_millis(100), Duration::from_millis(500)),
            timeout: Some(Duration::from_millis(420)),
            seed,
            ..ServiceConfig::default()
        })
        .trace_sink(sink.clone())
        .build();

    let result = engine.execute(SQL).expect("probe query runs");
    sink.flush();
    let profile = engine.profile_json().expect("profile recorded");
    std::fs::write(&profile_out, &profile).expect("write profile json");
    eprintln!(
        "  {} rows, {} decoded, {} gap windows",
        result.rows.len(),
        result.stats.source.delivered,
        result.stats.gap_windows.len()
    );
    eprintln!("wrote {trace_out} and {profile_out}");
}
