//! A budget for how often the dashboard's pump cuts a batch.
//!
//! A pump that cuts at every watermark second pays each pipeline's
//! entry — stage timers, scratch set-up, column builds — once a second
//! per query, whatever the queries' windows are; the count of batches
//! says so exactly, where a timing on a shared CI host cannot. The
//! eight dashboard queries (`common::DASHBOARD`) run on one
//! [`QueryHost`] over a seeded, chaos-faulted stream, polled every five
//! virtual minutes: the host may cut one batch per `batch_size` tweets,
//! plus one per poll, per source gap and at the end — and what the
//! queries were shown must not move with the cuts.

use tweeql::exec::supervise::RetryPolicy;
use tweeql::prelude::*;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::StreamingApi;
use tweeql_model::{Duration, Timestamp, VirtualClock};

mod common;
use common::{dashboard_stream, DASHBOARD, MINUTES};

const BATCH_SIZE: usize = 256;

/// Recorded from this stream (seed 42, `FaultPlan::chaos(42)`, no replay). They are
/// the stream's and the queries', not the pump's: the same at any
/// `batch_size`, and the same as when every boundary cut a batch.
const ROWS_DISPATCHED: u64 = 210_542;
const WATERMARKS: u64 = 3_599;

fn run(batch_size: usize) -> (HostStats, u64, Vec<usize>) {
    let api = StreamingApi::new(dashboard_stream(42), VirtualClock::new());
    let mut host = Engine::builder(api)
        .seed(42)
        .batch_size(batch_size)
        .fault_policy(FaultPlan::chaos(42))
        // No replay on reconnect: every disconnect leaves a gap.
        .retry_policy(RetryPolicy {
            replay_overlap: Duration::ZERO,
            ..RetryPolicy::default()
        })
        .build_host();
    let ids: Vec<QueryId> = DASHBOARD
        .iter()
        .map(|sql| host.register(sql).expect(sql))
        .collect();
    let mut pumps = 0;
    for minute in (5..MINUTES).step_by(5) {
        host.pump_until(Timestamp::from_mins(minute)).unwrap();
        pumps += 1;
    }
    host.run_to_end().unwrap();
    let rows = (ids.iter())
        .map(|&id| host.take_output(id).unwrap().len())
        .collect();
    (host.stats(), pumps + 1, rows)
}

#[test]
fn dashboard_pump_cuts_batches_by_size_not_by_the_clock() {
    let (stats, pumps, rows) = run(BATCH_SIZE);
    println!("{stats:?}, {pumps} pumps, rows {rows:?}");
    assert!(
        stats.tweets_delivered > 50_000 && stats.gaps > 0,
        "{stats:?}"
    );
    let budget = stats.tweets_delivered / BATCH_SIZE as u64 + pumps + stats.gaps + 1;
    assert!(
        stats.batches <= budget,
        "{} batches for {} tweets, {pumps} pumps and {} gaps: budget {budget}",
        stats.batches,
        stats.tweets_delivered,
        stats.gaps
    );
    assert_eq!(stats.rows_dispatched, ROWS_DISPATCHED);
    assert_eq!(stats.watermarks, WATERMARKS);
    // Wherever the cuts fall, the queries are shown the same thing.
    let (small, _, small_rows) = run(16);
    assert_eq!(small_rows, rows);
    assert_eq!(
        (small.rows_dispatched, small.watermarks, small.gaps),
        (ROWS_DISPATCHED, WATERMARKS, stats.gaps)
    );
}
