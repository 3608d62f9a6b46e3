//! A memory budget for the held stream.
//!
//! Resident set is a gated end-to-end metric, but a test cannot read
//! it steadily; counts of allocations and of live heap bytes repeat
//! exactly. A seeded `obama_month` stream is generated, encoded and
//! decoded, and each way of obtaining a `Vec<Tweet>` must hold what
//! the layout promises: the 56-byte row, its text's bytes in a chunk it
//! shares with a run of other texts, a share of its author, and a box of
//! rare fields only on the tweets that have one.
//! With an `Arc<str>` per text and per screen name, both producers held
//! 1.13 allocations and 106.5 bytes a tweet.
//! With a 248-byte row, its own copy of five strings per tweet and a
//! `Bytes` → `Vec` → `Arc` hop for each, `decode_log` made 19
//! allocations and kept 416 bytes a tweet; with a 120-byte row it kept
//! 171.
//! The decoder also gives its input back as it decodes: the live bytes
//! while it runs never exceed the larger of the raw log handed over and
//! what the decoded log holds by more than an eighth of the raw log. A
//! decoder that held the whole input to the end peaked at raw plus
//! decoded. (While each text cost an allocation, the decoded log was
//! the larger; with texts in shared chunks the raw log was, at 99
//! bytes a tweet; since the log stores each author once, in a table
//! before the records, the decoded log is the larger again.)
//! The encoded log is gated too: a tweet may cost it 58 bytes, 55.2
//! measured, where a record that carried its author's profile cost 99.1.
//!
//! This file holds one test: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tweeql_firehose::replay::{decode_log, encode_log};
use tweeql_firehose::{generate, scenarios};
use tweeql_model::{Duration, Text};

/// `alloc` + `realloc` calls.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Allocations made and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Requested bytes of those.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE_BYTES` has been since [`peak_during`] reset it.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(by: usize) {
    let live = LIVE_BYTES.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Delegates to [`System`] and counts.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counters are relaxed atomics
// that allocate nothing, so the GlobalAlloc contract is System's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // A resize counts as its net change: for a block as large as a
        // log it is an `mremap` on glibc, which never holds the old and
        // the new block at once.
        match new_size.checked_sub(layout.size()) {
            Some(by) => grow(by),
            None => {
                LIVE_BYTES.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
            }
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

/// `f`'s result, and the most live bytes rose above where they stood
/// before it while it ran.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Ordering::Relaxed) - before)
}

/// What a value holds, read as what dropping it frees: allocations
/// and requested bytes.
fn held_by<T>(value: T) -> (u64, u64) {
    let before = (
        LIVE.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    drop(value);
    (
        before.0 - LIVE.load(Ordering::Relaxed),
        before.1 - LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations a held tweet may own, in hundredths: its share of an
/// author's `User`, of the geotagged minority's boxes and of the text
/// chunks.
const ALLOCS_PER_100_TWEETS: u64 = 10;

/// Bytes the encoded log may spend a tweet: its record (29 fixed
/// bytes, its text, the rare fields it has) and its share of the author
/// table (55.2 measured; 99.1 when each record carried its author's
/// profile).
const LOG_BYTES_PER_TWEET: u64 = 58;

/// Live heap bytes a held tweet may cost: 56 of row, its text's bytes,
/// its share of an author and of the geotagged minority's boxes (86.1
/// measured; 108.9 with an `Arc<str>` per text).
const LIVE_BYTES_PER_TWEET: u64 = 95;

#[test]
fn a_held_stream_stays_inside_its_memory_budget() {
    // Four hours of `obama_month` without its bursts (a burst must end
    // inside the scenario), one author per ~20 tweets as in the
    // benchmark's stream.
    let mut scenario = scenarios::obama_month();
    scenario.bursts.clear();
    scenario.duration = Duration::from_mins(240);
    scenario.population_size = 3_000;

    let (generated, gen_calls) = calls_during(|| generate(&scenario, 42));
    let n = generated.len() as u64;
    assert!(n > 50_000, "{n} tweets");
    let raw = encode_log(&generated).to_vec();
    let raw_len = raw.len() as u64;
    println!(
        "encode_log: {n} tweets in {raw_len} bytes ({:.1} a tweet)",
        raw_len as f64 / n as f64
    );
    assert!(
        raw_len <= n * LOG_BYTES_PER_TWEET,
        "encode_log wrote {raw_len} bytes for {n} tweets"
    );
    let ((decoded, dec_calls), rise) =
        peak_during(|| calls_during(|| decode_log(raw.into()).expect("a log this test encoded")));
    assert_eq!(decoded, generated);

    // The decoder copies out only what it keeps; its other allocator
    // calls are a few a run of the log (growing the output, giving the
    // input back) and the author map's growth. (The generator composes
    // each text in scratch strings, so only what it holds is budgeted.)
    assert!(
        dec_calls * 100 <= n * ALLOCS_PER_100_TWEETS,
        "decode_log made {dec_calls} allocator calls for {n} tweets"
    );
    let dec_held = held_by(decoded);
    // Measured from the level before the call less the log handed over:
    // what the caller holds besides it.
    let peak = raw_len + rise;
    println!(
        "decode_log: {raw_len} raw bytes, {} bytes decoded, peak {peak} bytes above the caller",
        dec_held.1
    );
    assert!(
        peak <= dec_held.1.max(raw_len) + raw_len / 8,
        "decode_log peaked {peak} bytes above its caller, with {raw_len} raw and {} decoded",
        dec_held.1
    );
    for (what, calls, (allocs, bytes)) in [
        ("decode_log", dec_calls, dec_held),
        ("generate", gen_calls, held_by(generated)),
    ] {
        println!(
            "{what}: {n} tweets, {calls} allocator calls ({:.2} a tweet), \
             {allocs} allocations held ({:.2} a tweet), {bytes} bytes held ({:.1} a tweet)",
            calls as f64 / n as f64,
            allocs as f64 / n as f64,
            bytes as f64 / n as f64,
        );
        assert!(
            allocs * 100 <= n * ALLOCS_PER_100_TWEETS,
            "{what} holds {allocs} allocations for {n} tweets"
        );
        assert!(
            bytes <= n * LIVE_BYTES_PER_TWEET,
            "{what} holds {bytes} bytes for {n} tweets"
        );
    }

    // Without geotags, retweets, bursts or a tweet `lang` that is not
    // its author's, no tweet boxes anything: what the decoded log holds
    // is its `Vec`, per distinct author the `User`, and its chunks of
    // strings (two allocations each: the bytes and their shared
    // header), however many texts and authors share them.
    scenario.geotag_rate = 0.0;
    scenario.duration = Duration::from_mins(30);
    let raw = encode_log(&generate(&scenario, 7)).to_vec();
    let plain = decode_log(raw.into()).expect("a log this test encoded");
    let n = plain.len() as u64;
    assert!(plain.iter().all(|t| t.coordinates().is_none()
        && t.retweet_of().is_none()
        && t.truth_burst().is_none()
        && t.lang().as_ptr() == t.user.lang.as_ptr()));
    let authors = plain
        .iter()
        .map(|t| Arc::as_ptr(&t.user))
        .collect::<HashSet<_>>()
        .len() as u64;
    let chunks = plain
        .iter()
        .flat_map(|t| [&t.text, &t.user.screen_name, &t.user.location, &t.user.lang])
        .filter_map(Text::chunk_addr)
        .collect::<HashSet<_>>()
        .len() as u64;
    assert!(chunks * 1000 < n, "{chunks} chunks for {n} tweets");
    let (allocs, _) = held_by(plain);
    assert_eq!(
        allocs,
        1 + authors + 2 * chunks,
        "{n} plain tweets by {authors} authors in {chunks} chunks \
         hold a box of rare fields or a string of their own"
    );
}
