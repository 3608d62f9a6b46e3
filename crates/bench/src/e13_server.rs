//! E13 — standing-query server: shared-scan dispatch vs the naive
//! query loop.
//!
//! The naive baseline is what a single-connection server would do
//! without a shared-scan dispatcher: run each registered query as its
//! own full-stream engine pass (client-side filtering — one connection
//! means no per-query pushdown either way). The shared arm registers
//! all N queries on one [`QueryHost`]: one text scan per row through
//! the common-filter index, one decode per candidate row, `Arc`-clone
//! fan-out.
//!
//! The query mix mirrors a topic-tracking deployment: the first eight
//! queries track real scenario topics (they match traffic), every
//! query past that tracks a phantom needle that never occurs — the
//! realistic long tail of mostly-quiet standing queries that makes
//! per-query scanning ruinous at N=1000.

use std::time::Instant;
use tweeql::prelude::*;
use tweeql_firehose::scenario::{Scenario, Topic};
use tweeql_firehose::StreamingApi;
use tweeql_model::{Duration, Timestamp, Tweet, VirtualClock};

/// Real topic keywords the generated stream actually contains.
pub const TOPICS: [&str; 8] = [
    "goal", "penalty", "referee", "keeper", "corner", "offside", "striker", "derby",
];

/// The benchmark firehose: eight live topics over background chatter.
pub fn firehose(seed: u64, minutes: i64) -> Vec<Tweet> {
    let s = Scenario {
        name: "server-bench".into(),
        duration: Duration::from_mins(minutes),
        background_rate_per_min: 60.0,
        topics: TOPICS
            .iter()
            .map(|kw| Topic::new(*kw, vec![kw], 6.0))
            .collect(),
        bursts: vec![],
        geotag_rate: 0.1,
        population_size: 200,
    };
    tweeql_firehose::generate(&s, seed)
}

/// Query `i` of the registration order: real topics first, phantom
/// needles (never matching) after.
pub fn query_sql(i: usize) -> String {
    let needle = if i < TOPICS.len() {
        TOPICS[i].to_string()
    } else {
        format!("zzzneedle{i}")
    };
    format!("SELECT text FROM twitter WHERE text contains '{needle}'")
}

/// One point on the query-count curve.
#[derive(Debug, Clone)]
pub struct ServerCell {
    /// Registered standing queries.
    pub queries: usize,
    /// Wall seconds for the shared-scan host to drain the stream.
    pub shared_wall_secs: f64,
    /// Wall seconds for N independent engine passes.
    pub naive_wall_secs: f64,
    /// `naive / shared`.
    pub speedup: f64,
    /// Host stream throughput (tweets / shared wall).
    pub shared_tweets_per_sec: f64,
    /// Effective naive stream throughput (tweets / naive wall).
    pub naive_tweets_per_sec: f64,
    /// Rows entering pipelines across all queries (host arm).
    pub rows_dispatched: u64,
    /// Rows materialized from the shared batch (host arm).
    pub rows_decoded: u64,
    /// Dispatched rows served as clones (host arm).
    pub rows_shared: u64,
    /// Total result rows from the host arm — must equal the naive sum.
    pub rows_out: u64,
    /// Distinct needles in the common-filter index.
    pub needles: usize,
}

fn api(tweets: &[Tweet]) -> StreamingApi {
    StreamingApi::new(tweets.to_vec(), VirtualClock::new())
}

/// Best-of-N repeats for the shared arm: its walls are sub-millisecond,
/// so a single scheduler hiccup would swamp the curve-flatness signal.
const SHARED_REPEATS: usize = 3;

/// Measure one curve point.
pub fn run_point(tweets: &[Tweet], n: usize, seed: u64) -> ServerCell {
    // Shared arm: one host, N standing queries, one pass.
    let mut shared_wall = f64::INFINITY;
    let mut stats = HostStats::default();
    let mut rows_out = 0u64;
    let mut needles = 0usize;
    // The timed window is the steady state: everything up to (not
    // including) the stream's final tweet. The end-of-stream teardown —
    // finishing and retiring every registered pipeline — is a one-off
    // O(N) epilogue a standing-query server never pays per batch, and
    // on a short smoke stream it would swamp the throughput curve.
    let until = tweets
        .last()
        .map(|t| t.created_at - Duration::from_millis(1))
        .unwrap_or(Timestamp::ZERO);
    for rep in 0..SHARED_REPEATS {
        let mut host = Engine::builder(api(tweets)).seed(seed).build_host();
        let ids: Vec<QueryId> = (0..n)
            .map(|i| host.register(&query_sql(i)).expect("register"))
            .collect();
        needles = host.needle_count();
        // The host defers the index build from `register` to the next
        // pump; an empty pump keeps that set-up outside the window.
        host.pump_until(Timestamp::from_millis(-1))
            .expect("host index build");
        let t0 = Instant::now();
        host.pump_until(until).expect("host pump");
        shared_wall = shared_wall.min(t0.elapsed().as_secs_f64());
        host.run_to_end().expect("host finish");
        let mut out = 0u64;
        for id in ids {
            out += host.take_output(id).expect("output").len() as u64;
        }
        if rep == 0 {
            stats = host.stats();
            rows_out = out;
        } else {
            assert_eq!(out, rows_out, "host repeats disagree at N={n}");
        }
    }

    // Naive arm: each query is its own full-stream engine pass.
    let mut naive_rows = 0u64;
    let mut naive_wall = 0.0f64;
    for i in 0..n {
        let mut engine = Engine::builder(api(tweets))
            .seed(seed)
            .push_down(false)
            .build();
        let sql = query_sql(i);
        let t0 = Instant::now();
        let result = engine.execute(&sql).expect("naive run");
        naive_wall += t0.elapsed().as_secs_f64();
        naive_rows += result.rows.len() as u64;
    }
    assert_eq!(
        rows_out, naive_rows,
        "shared-scan host and naive loop disagree on result rows at N={n}"
    );

    let tweets_n = tweets.len() as f64;
    ServerCell {
        queries: n,
        shared_wall_secs: shared_wall,
        naive_wall_secs: naive_wall,
        speedup: naive_wall / shared_wall.max(1e-12),
        shared_tweets_per_sec: tweets_n / shared_wall.max(1e-12),
        naive_tweets_per_sec: tweets_n / naive_wall.max(1e-12),
        rows_dispatched: stats.rows_dispatched,
        rows_decoded: stats.rows_decoded,
        rows_shared: stats.rows_shared,
        rows_out,
        needles,
    }
}

/// Sweep the query-count curve.
pub fn run(seed: u64, minutes: i64, counts: &[usize]) -> (usize, Vec<ServerCell>) {
    let tweets = firehose(seed, minutes);
    let cells = counts
        .iter()
        .map(|&n| run_point(&tweets, n, seed))
        .collect();
    (tweets.len(), cells)
}

/// Render `BENCH_server.json`.
pub fn to_json(cells: &[ServerCell], seed: u64, minutes: i64, tweets: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"server_shared_scan\",\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"stream_minutes\": {minutes},\n"));
    s.push_str(&format!("  \"firehose_tweets\": {tweets},\n"));
    s.push_str("  \"curve\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"queries\": {}, \"shared_wall_secs\": {:.6}, \"naive_wall_secs\": {:.6}, \
             \"speedup\": {:.3}, \"shared_tweets_per_sec\": {:.1}, \
             \"naive_tweets_per_sec\": {:.1}, \"rows_dispatched\": {}, \
             \"rows_decoded\": {}, \"rows_shared\": {}, \"rows_out\": {}, \"needles\": {}}}{}\n",
            c.queries,
            c.shared_wall_secs,
            c.naive_wall_secs,
            c.speedup,
            c.shared_tweets_per_sec,
            c.naive_tweets_per_sec,
            c.rows_dispatched,
            c.rows_decoded,
            c.rows_shared,
            c.rows_out,
            c.needles,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_and_naive_agree_and_json_renders() {
        let tweets = firehose(7, 1);
        let cell = run_point(&tweets, 12, 7);
        assert!(cell.rows_out > 0, "topic queries saw traffic");
        assert!(cell.rows_decoded <= cell.rows_dispatched.max(1));
        let json = to_json(&[cell], 7, 1, tweets.len());
        assert!(json.contains("\"server_shared_scan\""));
        assert!(json.contains("\"queries\": 12"));
    }
}
