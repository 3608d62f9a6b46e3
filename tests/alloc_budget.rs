//! Allocation budgets for the dashboard's pump and the export path.
//!
//! Timings under a millisecond cannot gate anything on a shared CI
//! host; a count of allocations repeats exactly. Eight standing queries
//! shaped like TwitInfo's own dashboard (the `dashboard` workload of
//! `benchmark/`) run on one [`QueryHost`] over a seeded `obama_month`
//! stream, and once every table, buffer and cache has reached its
//! working size the pump may allocate [`BUDGET_PER_100_TWEETS`] times
//! per hundred delivered tweets — what is left is one allocation per
//! *new* group, distinct member, cache entry or batch, and a few per
//! output batch as its columns grow, none per dispatched or output row.
//! Before the leaf kernels stopped allocating per row (a `String` per
//! token in `sentiment`, a thread list per step in `regex_extract`, a
//! key `Vec` per aggregated row, an argument `Vec` and a copied record
//! per geocoded row) the same pump made 6.97 a tweet.
//!
//! Under the pump, the batched source pull has a budget of its own:
//! exactly zero.
//!
//! The export shape — one standing query that turns every tweet into a
//! row, the `export` workload's — is pumped and taken as the server
//! takes it, a [`QueryHost::take_batch`] after each step, within
//! [`EXPORT_BUDGET_PER_100_TWEETS`]: the output columns grow by
//! doubling, and no row is a `Record` or an allocation of its own.
//! When every output row was a `Record`, the same run made more than
//! one allocation a tweet.
//!
//! This file holds one test, running its three cases in turn: the
//! counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tweeql::prelude::*;
use tweeql_firehose::{FilterSpec, SourceBatch, StreamingApi};
use tweeql_model::{Timestamp, VirtualClock};

mod common;
use common::{dashboard_stream, DASHBOARD, MINUTES};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] and counts `alloc` + `realloc` calls.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// that allocates nothing, so the GlobalAlloc contract is System's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the steady-state pump may make per hundred delivered
/// tweets: the 37 this stream measures (22,687 for 61,649 tweets and
/// 8,210 output rows), plus a sixth. It read 46 (28,519) while every
/// output row was a `Record` of its own, and 96 while the pump cut a
/// batch — and set up every pipeline's scratch — at each of the 2,400
/// watermark seconds instead of every 256 tweets.
const BUDGET_PER_100_TWEETS: u64 = 44;

/// Allocations the export query's pump and takes may make per hundred
/// delivered tweets: 1.19 measured (734 for 61,649 tweets and 9
/// takes); more than 100 while every row was a `Record`.
const EXPORT_BUDGET_PER_100_TWEETS: u64 = 5;

/// The `export` workload's query.
const EXPORT: &str = "SELECT screen_name, text, lang, followers, created_at FROM twitter";

/// `Connection::next_batch` hands out log indices in a buffer the
/// caller owns, so once that buffer has its capacity a pull allocates
/// nothing, however many tweets it delivers. (The pull leaves the
/// virtual clock alone, so the stream is still unread for the pump.)
fn batched_source_pull_allocates_nothing(api: &StreamingApi) {
    let mut conn = api.connect(FilterSpec::Sample(1.0));
    let mut block = SourceBatch::new();
    assert_eq!(conn.next_batch(256, &mut block), 256, "sizes the buffer");
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut delivered = 0;
    while conn.next_batch(256, &mut block) > 0 {
        delivered += block.len();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(delivered > 20_000, "{delivered} tweets");
    assert_eq!(allocs, 0, "{allocs} allocations for {delivered} tweets");
}

/// The export query, pumped five virtual minutes at a time and taken
/// through the server's entry after each step, once warm.
fn export_pump_and_take_stay_inside_their_budget(api: StreamingApi) {
    let mut host = Engine::builder(api).seed(42).build_host();
    let id = host.register(EXPORT).unwrap();
    let warm = host.pump_until(Timestamp::from_mins(MINUTES / 3)).unwrap();
    assert_eq!(host.take_batch(id).unwrap().len() as u64, warm);

    let mut taken = Vec::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut tweets = 0;
    for minute in (MINUTES / 3..MINUTES).step_by(5) {
        tweets += host.pump_until(Timestamp::from_mins(minute + 5)).unwrap();
        taken.push(host.take_batch(id).unwrap());
    }
    tweets += host.run_to_end().unwrap();
    taken.push(host.take_batch(id).unwrap());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let rows: usize = taken.iter().map(|b| b.len()).sum();

    assert!(tweets > 20_000, "{tweets} tweets");
    assert_eq!(rows as u64, tweets, "every tweet is a row");
    println!(
        "export: {allocs} allocations for {tweets} tweets and {} takes: {:.2} per 100 tweets",
        taken.len(),
        allocs as f64 * 100.0 / tweets as f64
    );
    assert!(
        allocs * 100 <= tweets * EXPORT_BUDGET_PER_100_TWEETS,
        "{allocs} allocations for {tweets} tweets: {:.2} per 100, budget {EXPORT_BUDGET_PER_100_TWEETS}",
        allocs as f64 * 100.0 / tweets as f64,
    );
}

#[test]
fn dashboard_pump_stays_inside_its_allocation_budget() {
    let stream = dashboard_stream(42);
    let api = |tweets: &Vec<_>| StreamingApi::new(tweets.clone(), VirtualClock::new());
    export_pump_and_take_stay_inside_their_budget(api(&stream));
    let api = api(&stream);
    batched_source_pull_allocates_nothing(&api);
    let mut host = Engine::builder(api).seed(42).build_host();
    let ids: Vec<QueryId> = DASHBOARD
        .iter()
        .map(|sql| host.register(sql).expect(sql))
        .collect();

    let warm = host.pump_until(Timestamp::from_mins(MINUTES / 3)).unwrap();
    let mut rows = 0;
    for &id in &ids {
        rows += host.take_output(id).unwrap().len();
    }
    assert!(warm > 10_000 && rows > 100, "{warm} tweets, {rows} rows");

    let before = ALLOCS.load(Ordering::Relaxed);
    let tweets = host.run_to_end().unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let rows: usize = (ids.iter())
        .map(|&id| host.take_output(id).unwrap().len())
        .sum();

    assert!(
        tweets > 20_000 && rows > 1_000,
        "{tweets} tweets, {rows} rows"
    );
    println!(
        "steady state: {allocs} allocations for {tweets} tweets and {rows} rows: {:.2} a tweet",
        allocs as f64 / tweets as f64
    );
    assert!(
        allocs * 100 <= tweets * BUDGET_PER_100_TWEETS,
        "{allocs} allocations for {tweets} tweets: {:.2} a tweet, budget {:.2}",
        allocs as f64 / tweets as f64,
        BUDGET_PER_100_TWEETS as f64 / 100.0
    );
}
