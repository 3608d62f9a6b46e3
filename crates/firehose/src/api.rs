//! The streaming-API facade.
//!
//! Reproduces the 2011 Twitter streaming API semantics TweeQL planned
//! around (§2, "Uncertain Selectivities"):
//!
//! * a long-running connection carries **exactly one filter type** —
//!   keyword `track`, a location bounding box, or `follow` userids;
//!   conjunctive queries must pick *one* to push down and evaluate the
//!   rest client-side;
//! * the stream delivers "**most** tweets" matching the filter: above a
//!   delivery cap the API silently drops;
//! * a `sample` endpoint returns a deterministic 1%-style sample.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tweeql_geo::bbox::BoundingBox;
use tweeql_model::{Timestamp, Tweet, UserId, VirtualClock};
use tweeql_text::ac::AhoCorasick;

/// The one filter a connection may carry.
#[derive(Debug, Clone)]
pub enum FilterSpec {
    /// OR-match over keywords in the tweet text (case-insensitive
    /// substring, as `track` behaved).
    Track(Vec<String>),
    /// Geotagged tweets within the box.
    Locations(BoundingBox),
    /// Tweets authored by any of these users.
    Follow(Vec<UserId>),
    /// The statuses/sample endpoint: a deterministic `rate` sample of
    /// the whole firehose (0 < rate ≤ 1).
    Sample(f64),
}

impl FilterSpec {
    /// Human-readable filter-type name (the API parameter it maps to).
    pub fn kind(&self) -> &'static str {
        match self {
            FilterSpec::Track(_) => "track",
            FilterSpec::Locations(_) => "locations",
            FilterSpec::Follow(_) => "follow",
            FilterSpec::Sample(_) => "sample",
        }
    }
}

/// Compiled filter with fast matchers.
enum CompiledFilter {
    Track(AhoCorasick),
    Locations(BoundingBox),
    Follow(Vec<UserId>),
    Sample(u64), // threshold in 0..=10_000
}

impl CompiledFilter {
    fn compile(spec: &FilterSpec) -> CompiledFilter {
        match spec {
            FilterSpec::Track(kws) => CompiledFilter::Track(AhoCorasick::new(kws)),
            FilterSpec::Locations(b) => CompiledFilter::Locations(*b),
            FilterSpec::Follow(ids) => {
                let mut ids = ids.clone();
                ids.sort_unstable();
                CompiledFilter::Follow(ids)
            }
            FilterSpec::Sample(rate) => {
                CompiledFilter::Sample((rate.clamp(0.0, 1.0) * 10_000.0) as u64)
            }
        }
    }

    /// True when every tweet matches (the full-firehose `Sample(1.0)`
    /// endpoint) — lets the batched scan skip the per-tweet hash.
    fn matches_all(&self) -> bool {
        matches!(self, CompiledFilter::Sample(t) if *t >= 10_000)
    }

    fn matches(&self, tweet: &Tweet) -> bool {
        match self {
            CompiledFilter::Track(ac) => ac.is_match(&tweet.text),
            CompiledFilter::Locations(b) => tweet
                .coordinates()
                .map(|(lat, lon)| b.contains(&tweeql_geo::GeoPoint::new(lat, lon)))
                .unwrap_or(false),
            CompiledFilter::Follow(ids) => ids.binary_search(&tweet.user.id).is_ok(),
            CompiledFilter::Sample(threshold) => {
                // Deterministic hash of the id.
                let mut z = tweet.id.wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z ^= z >> 31;
                (z % 10_000) < *threshold
            }
        }
    }
}

/// Connection delivery statistics — the observable a client has for
/// estimating filter selectivity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Firehose tweets scanned.
    pub scanned: u64,
    /// Tweets that matched the filter.
    pub matched: u64,
    /// Matched tweets actually delivered.
    pub delivered: u64,
    /// Matched tweets dropped by the delivery cap.
    pub dropped: u64,
}

impl ConnectionStats {
    /// Observed selectivity: matched / scanned.
    pub fn selectivity(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.matched as f64 / self.scanned as f64
        }
    }
}

/// A zero-copy batch of delivered tweets: selection indices into the
/// `Arc`-shared firehose log plus the scan frontier, instead of cloned
/// `Tweet`s. Produced by [`Connection::next_batch`]; the buffer is
/// caller-owned so a steady-state pull loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SourceBatch {
    /// Log indices of the delivered tweets, in delivery order.
    pub sel: Vec<u32>,
    /// The batch watermark: `created_at` of the last firehose tweet
    /// *scanned* while producing this batch (delivered or not).
    /// Consumers advance the virtual clock here once the batch is
    /// consumed, mirroring the per-tweet path's scan-time clock.
    pub scan_end: Timestamp,
}

impl SourceBatch {
    /// An empty batch buffer.
    pub fn new() -> SourceBatch {
        SourceBatch::default()
    }

    /// Delivered tweets in the batch.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Drop the selection, keeping its allocation.
    pub fn clear(&mut self) {
        self.sel.clear();
    }
}

/// The simulated streaming API over a pre-generated firehose log.
#[derive(Clone)]
pub struct StreamingApi {
    tweets: Arc<Vec<Tweet>>,
    clock: Arc<VirtualClock>,
    /// Max matched tweets delivered per minute before silent drops
    /// ("receive most tweets").
    delivery_cap_per_min: u64,
}

impl StreamingApi {
    /// Wrap a firehose log. The default delivery cap is high enough
    /// that only genuinely hot filters hit it.
    pub fn new(tweets: Vec<Tweet>, clock: Arc<VirtualClock>) -> StreamingApi {
        StreamingApi {
            tweets: Arc::new(tweets),
            clock,
            delivery_cap_per_min: 6_000,
        }
    }

    /// Change the delivery cap (tweets/minute of matched output).
    pub fn with_delivery_cap(mut self, per_min: u64) -> StreamingApi {
        self.delivery_cap_per_min = per_min.max(1);
        self
    }

    /// The shared clock.
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// Full log access for ground-truth evaluation (not part of the
    /// public "API surface" a TweeQL client would see).
    pub fn ground_truth(&self) -> &[Tweet] {
        &self.tweets
    }

    /// The `Arc`-shared log itself — what zero-copy batch consumers
    /// bind their row stores to.
    pub fn log(&self) -> &Arc<Vec<Tweet>> {
        &self.tweets
    }

    /// Open a streaming connection with exactly one filter.
    pub fn connect(&self, filter: FilterSpec) -> Connection {
        self.connect_at(filter, Timestamp::ZERO)
    }

    /// Open a connection whose stream starts at log time `from` — the
    /// reconnect primitive: a supervisor resubscribing after a
    /// disconnect asks for the stream from just before the drop.
    pub fn connect_at(&self, filter: FilterSpec, from: Timestamp) -> Connection {
        let pos = self.tweets.partition_point(|t| t.created_at < from);
        Connection {
            tweets: Arc::clone(&self.tweets),
            clock: Arc::clone(&self.clock),
            filter: CompiledFilter::compile(&filter),
            pos,
            stats: ConnectionStats::default(),
            cap_per_min: self.delivery_cap_per_min,
            window_start: Timestamp::ZERO,
            window_delivered: 0,
            rng: StdRng::seed_from_u64(0xF1173),
            advance_clock: true,
        }
    }

    /// Open a short *probe* connection for selectivity sampling: same
    /// delivery semantics, but it does not advance the shared stream
    /// clock (a TweeQL client samples candidate filters before running
    /// the real query).
    pub fn connect_probe(&self, filter: FilterSpec) -> Connection {
        let mut c = self.connect(filter);
        c.advance_clock = false;
        c
    }
}

/// A long-running streaming connection: an iterator over delivered
/// tweets that advances the shared virtual clock to each tweet's
/// timestamp (the engine "receives" them in stream time).
pub struct Connection {
    tweets: Arc<Vec<Tweet>>,
    clock: Arc<VirtualClock>,
    filter: CompiledFilter,
    pos: usize,
    stats: ConnectionStats,
    cap_per_min: u64,
    window_start: Timestamp,
    window_delivered: u64,
    rng: StdRng,
    advance_clock: bool,
}

impl Connection {
    /// Delivery statistics so far.
    pub fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// The shared firehose log this connection scans. Batch consumers
    /// bind their `TweetBatch` row store to this and read delivered
    /// rows through [`SourceBatch::sel`] without cloning a tweet.
    pub fn log(&self) -> &Arc<Vec<Tweet>> {
        &self.tweets
    }

    /// True when the scan has consumed the whole log.
    pub fn at_end(&self) -> bool {
        self.pos >= self.tweets.len()
    }

    /// Deliver up to `max` tweets as log indices into `out`, returning
    /// the number delivered. Zero-copy batched delivery: no `Tweet` is
    /// cloned and the clock is not touched — the consumer advances it
    /// from the selection (and [`SourceBatch::scan_end`]) as it drains
    /// the batch, which is the only granularity at which the per-tweet
    /// path's scan-time clock is observable.
    ///
    /// Cap, sample-hash, and drop-RNG accounting are byte-identical to
    /// [`Connection::next`]: the scan stops exactly at the `max`-th
    /// delivered tweet, the minute-window truncate is hoisted to window
    /// boundaries (the log is time-ordered), and the drop RNG is drawn
    /// in the same order — only for matched tweets past the cap — so
    /// the delivered tweet *set*, the RNG stream, and
    /// [`ConnectionStats`] all agree with the per-tweet facade.
    pub fn next_batch(&mut self, max: usize, out: &mut SourceBatch) -> usize {
        out.sel.clear();
        let tweets: &[Tweet] = &self.tweets;
        let n = tweets.len();
        let match_all = self.filter.matches_all();
        let minute = tweeql_model::Duration::from_mins(1);
        let mut win_start = self.window_start;
        let mut win_end = win_start + minute;
        let mut win_delivered = self.window_delivered;
        let mut scanned = 0u64;
        let mut matched = 0u64;
        let mut dropped = 0u64;
        while self.pos < n && out.sel.len() < max {
            let i = self.pos;
            let tweet = &tweets[i];
            self.pos += 1;
            scanned += 1;
            if !match_all && !self.filter.matches(tweet) {
                continue;
            }
            matched += 1;
            let ts = tweet.created_at;
            if ts >= win_end || ts < win_start {
                win_start = ts.truncate(minute);
                win_end = win_start + minute;
                win_delivered = 0;
            }
            if win_delivered >= self.cap_per_min && self.rng.random_range(0..10) < 9 {
                dropped += 1;
                continue;
            }
            win_delivered += 1;
            out.sel.push(i as u32);
        }
        self.window_start = win_start;
        self.window_delivered = win_delivered;
        self.stats.scanned += scanned;
        self.stats.matched += matched;
        self.stats.dropped += dropped;
        self.stats.delivered += out.sel.len() as u64;
        out.scan_end = self.scan_end();
        out.sel.len()
    }

    /// Scan exactly `n` firehose tweets (or to end of stream),
    /// discarding deliveries, and return the stats — the primitive
    /// selectivity probing uses.
    pub fn probe_scan(&mut self, n: usize) -> ConnectionStats {
        let end = (self.pos + n).min(self.tweets.len());
        while self.pos < end {
            let _ = self.step();
        }
        self.stats
    }

    /// Advance one firehose tweet; Some when it was delivered.
    fn step(&mut self) -> Option<Tweet> {
        self.step_at(self.advance_clock)
            .map(|i| self.tweets[i as usize].clone())
    }

    /// The step core: one scanned tweet, returning the log index on
    /// delivery. Cap / sample / drop-RNG accounting lives here so the
    /// per-tweet path and the index paths cannot drift.
    fn step_at(&mut self, advance_clock: bool) -> Option<u32> {
        let i = self.pos;
        let tweet = &self.tweets[i];
        self.pos += 1;
        self.stats.scanned += 1;
        if advance_clock {
            self.clock.advance_to(tweet.created_at);
        }
        if !self.filter.matches(tweet) {
            return None;
        }
        self.stats.matched += 1;
        // Rolling 1-minute delivery cap.
        let minute = tweet
            .created_at
            .truncate(tweeql_model::Duration::from_mins(1));
        if minute != self.window_start {
            self.window_start = minute;
            self.window_delivered = 0;
        }
        if self.window_delivered >= self.cap_per_min {
            // Past the cap: drop most (90%) of the overage.
            if self.rng.random_range(0..10) < 9 {
                self.stats.dropped += 1;
                return None;
            }
        }
        self.window_delivered += 1;
        self.stats.delivered += 1;
        Some(i as u32)
    }

    /// Deliver the next tweet as a log index, without touching the
    /// clock — the per-tweet primitive the batched fault layer drives
    /// (its consumer owns clock advancement, exactly like
    /// [`Connection::next_batch`]).
    pub fn next_index(&mut self) -> Option<u32> {
        while self.pos < self.tweets.len() {
            if let Some(i) = self.step_at(false) {
                return Some(i);
            }
        }
        None
    }

    /// `created_at` of the last firehose tweet scanned, `ZERO` before
    /// the first scan — the clock frontier a batch consumer advances to.
    pub fn scan_end(&self) -> Timestamp {
        if self.pos > 0 {
            self.tweets[self.pos - 1].created_at
        } else {
            Timestamp::ZERO
        }
    }
}

impl Iterator for Connection {
    type Item = Tweet;

    fn next(&mut self) -> Option<Tweet> {
        while self.pos < self.tweets.len() {
            if let Some(t) = self.step() {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Topic};
    use tweeql_model::{Clock, Duration};

    fn api() -> StreamingApi {
        let s = Scenario {
            name: "api-test".into(),
            duration: Duration::from_mins(20),
            background_rate_per_min: 60.0,
            topics: vec![Topic::new("obama", vec!["obama"], 30.0)],
            bursts: vec![],
            geotag_rate: 0.5,
            population_size: 500,
        };
        let tweets = crate::generator::generate(&s, 42);
        StreamingApi::new(tweets, VirtualClock::new())
    }

    #[test]
    fn track_filter_delivers_only_matches() {
        let api = api();
        let conn = api.connect(FilterSpec::Track(vec!["obama".into()]));
        let tweets: Vec<Tweet> = conn.collect();
        assert!(!tweets.is_empty());
        assert!(tweets.iter().all(|t| t.contains("obama")));
    }

    #[test]
    fn selectivity_is_observable() {
        let api = api();
        let mut conn = api.connect(FilterSpec::Track(vec!["obama".into()]));
        for _ in conn.by_ref() {}
        let s = conn.stats();
        assert_eq!(s.scanned as usize, api.ground_truth().len());
        // Topic is 30/90 of traffic → selectivity ≈ 1/3.
        assert!(
            (0.2..=0.5).contains(&s.selectivity()),
            "{}",
            s.selectivity()
        );
    }

    #[test]
    fn location_filter_requires_geotag_in_box() {
        let api = api();
        let tokyo = BoundingBox::named("tokyo").unwrap();
        let tweets: Vec<Tweet> = api.connect(FilterSpec::Locations(tokyo)).collect();
        assert!(!tweets.is_empty(), "Tokyo users are plentiful");
        for t in &tweets {
            let (lat, lon) = t.coordinates().unwrap();
            assert!(tokyo.contains(&tweeql_geo::GeoPoint::new(lat, lon)));
        }
    }

    #[test]
    fn follow_filter_matches_user_ids() {
        let api = api();
        let target = api.ground_truth()[0].user.id;
        let tweets: Vec<Tweet> = api.connect(FilterSpec::Follow(vec![target])).collect();
        assert!(!tweets.is_empty());
        assert!(tweets.iter().all(|t| t.user.id == target));
    }

    #[test]
    fn sample_rate_is_roughly_honored_and_deterministic() {
        let api = api();
        let a: Vec<u64> = api.connect(FilterSpec::Sample(0.1)).map(|t| t.id).collect();
        let b: Vec<u64> = api.connect(FilterSpec::Sample(0.1)).map(|t| t.id).collect();
        assert_eq!(a, b, "sampling must be deterministic");
        let frac = a.len() as f64 / api.ground_truth().len() as f64;
        assert!((0.06..=0.14).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn delivery_cap_drops_most_overage() {
        let api = api().with_delivery_cap(10);
        let mut conn = api.connect(FilterSpec::Track(vec!["obama".into()]));
        for _ in conn.by_ref() {}
        let s = conn.stats();
        assert!(s.dropped > 0, "cap must bite: {s:?}");
        assert!(s.delivered < s.matched);
        assert_eq!(s.delivered + s.dropped, s.matched);
    }

    #[test]
    fn clock_advances_with_stream() {
        let api = api();
        let clock = api.clock();
        let mut conn = api.connect(FilterSpec::Sample(1.0));
        let first = conn.next().unwrap();
        assert_eq!(clock.now(), first.created_at);
        for _ in conn.by_ref() {}
        assert!(clock.now() >= Timestamp::from_mins(19));
    }

    /// Drain a connection through the batched path, collecting ids.
    fn drain_batched(mut conn: Connection, max: usize) -> (Vec<u64>, ConnectionStats) {
        let mut b = SourceBatch::new();
        let mut ids = Vec::new();
        while !conn.at_end() {
            conn.next_batch(max, &mut b);
            ids.extend(b.sel.iter().map(|&i| conn.log()[i as usize].id));
        }
        (ids, conn.stats())
    }

    #[test]
    fn batched_delivery_matches_per_tweet_sets_and_stats() {
        for (name, filter, cap) in [
            ("track", FilterSpec::Track(vec!["obama".into()]), u64::MAX),
            ("capped", FilterSpec::Track(vec!["obama".into()]), 10),
            ("sample", FilterSpec::Sample(0.1), u64::MAX),
            ("firehose", FilterSpec::Sample(1.0), u64::MAX),
            ("capped-firehose", FilterSpec::Sample(1.0), 25),
        ] {
            let mut api = api();
            if cap != u64::MAX {
                api = api.with_delivery_cap(cap);
            }
            let mut per_tweet = api.connect(filter.clone());
            let ref_ids: Vec<u64> = per_tweet.by_ref().map(|t| t.id).collect();
            let ref_stats = per_tweet.stats();
            for max in [1usize, 7, 256, usize::MAX] {
                let (ids, stats) = drain_batched(api.connect(filter.clone()), max);
                assert_eq!(ids, ref_ids, "{name} delivered set diverged at max={max}");
                assert_eq!(stats, ref_stats, "{name} stats diverged at max={max}");
            }
        }
    }

    #[test]
    fn batch_scan_end_tracks_the_scan_frontier() {
        let api = api();
        let mut conn = api.connect(FilterSpec::Track(vec!["obama".into()]));
        let mut b = SourceBatch::new();
        let delivered = conn.next_batch(5, &mut b);
        assert_eq!(delivered, 5);
        // The scan stops exactly at the 5th delivered tweet.
        assert_eq!(b.scan_end, api.ground_truth()[b.sel[4] as usize].created_at);
        // Draining the rest pushes the frontier to the last log tweet.
        while !conn.at_end() {
            conn.next_batch(usize::MAX, &mut b);
        }
        assert_eq!(b.scan_end, api.ground_truth().last().unwrap().created_at);
        // A batched pull never touches the clock.
        assert_eq!(api.clock().now(), Timestamp::ZERO);
    }

    #[test]
    fn filter_kind_names() {
        assert_eq!(FilterSpec::Track(vec![]).kind(), "track");
        assert_eq!(
            FilterSpec::Locations(BoundingBox::new(0.0, 0.0, 1.0, 1.0)).kind(),
            "locations"
        );
        assert_eq!(FilterSpec::Follow(vec![]).kind(), "follow");
        assert_eq!(FilterSpec::Sample(0.01).kind(), "sample");
    }
}
