//! Supervised stream source: reconnect, replay, dedup, gap markers.
//!
//! The 2011 streaming API dropped connections routinely; a production
//! ingest tier reconnects with capped exponential backoff, resubscribes
//! the same pushed-down filter, and replays a short overlap to cover
//! in-flight loss. [`SupervisedSource`] wraps the firehose API behind
//! exactly that loop and yields [`SourceBlock`]s
//! ([`SupervisedSource::next_block`], the one way a tweet leaves the
//! source):
//!
//! * `Tweets` — delivered tweets as zero-copy indices into the shared
//!   log, deduplicated by id across replay overlaps and healed of small
//!   reorderings;
//! * `Gap { from, to }` — the supervisor could not re-cover `[from,
//!   to)` of stream time; windowed aggregates downstream flag windows
//!   overlapping the interval as under-sampled instead of silently
//!   undercounting.
//!
//! Everything is deterministic: backoff jitter comes from a seeded
//! splitmix, delays advance the [`VirtualClock`], and the injected
//! faults themselves come from a seeded [`FaultPlan`]. The tests hold
//! the block pull to a per-tweet supervisor over the firehose's
//! per-tweet pull (`oracle`), which exists only there.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::Arc;
use tweeql_firehose::api::{Connection, ConnectionStats, FilterSpec, SourceBatch, StreamingApi};
use tweeql_firehose::fault::{
    FaultPlan, FaultStats, FaultyConnection, StreamConnection, StreamFault,
};
use tweeql_model::{Duration, Timestamp, Tweet, VirtualClock};

/// Reconnect policy: capped exponential backoff with deterministic
/// jitter, plus how much stream time each reconnect replays.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Consecutive failed attempts before giving up on the stream.
    pub max_attempts: u32,
    /// How far before the disconnect point each reconnect resubscribes
    /// (the replay overlap; dedup drops the duplicates).
    pub replay_overlap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_secs(1),
            cap: Duration::from_secs(60),
            max_attempts: 8,
            replay_overlap: Duration::from_secs(30),
        }
    }
}

/// Counters describing what the supervisor saw and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFaultStats {
    /// Disconnects observed.
    pub disconnects: u64,
    /// Successful reconnects.
    pub reconnects: u64,
    /// Replay duplicates dropped by id.
    pub duplicates_dropped: u64,
    /// Malformed payloads skipped.
    pub malformed_skipped: u64,
    /// Total virtual time spent backing off.
    pub backoff_total: Duration,
    /// Un-healed coverage gaps `[from, to)`.
    pub gaps: Vec<(Timestamp, Timestamp)>,
    /// True when reconnection was abandoned after `max_attempts`.
    pub gave_up: bool,
    /// Faults the injection layer reports having injected.
    pub injected: FaultStats,
}

impl Default for SourceFaultStats {
    fn default() -> SourceFaultStats {
        SourceFaultStats {
            disconnects: 0,
            reconnects: 0,
            duplicates_dropped: 0,
            malformed_skipped: 0,
            backoff_total: Duration::ZERO,
            gaps: Vec::new(),
            gave_up: false,
            injected: FaultStats::default(),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One connection epoch: plain, or wrapped in fault injection.
enum Seg {
    Plain(Connection),
    Faulty(FaultyConnection<Connection>),
}

impl Seg {
    fn stats(&self) -> ConnectionStats {
        match self {
            Seg::Plain(c) => StreamConnection::stats(c),
            Seg::Faulty(f) => f.stats(),
        }
    }

    fn injected(&self) -> FaultStats {
        match self {
            Seg::Plain(_) => FaultStats::default(),
            Seg::Faulty(f) => f.fault_stats(),
        }
    }
}

/// How many tweets the reorder-healing buffer holds back when fault
/// injection is active. Injected reorders are adjacent swaps; a few
/// slots of lookahead re-sorts them.
const REORDER_HOLD: usize = 4;

/// A log index held in the reorder-healing buffer, ordered by
/// `(created_at, id)` — generator ids are monotone in log order, so
/// this restores log order exactly.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeldIdx {
    ts: Timestamp,
    id: u64,
    idx: u32,
}

/// A block yielded by the supervisor's pull
/// ([`SupervisedSource::next_block`]): zero-copy delivered tweets, or a
/// coverage gap.
#[derive(Debug)]
pub enum SourceBlock<'a> {
    /// Delivered (deduplicated, reorder-healed) tweets as selection
    /// indices into the shared firehose log.
    Tweets(&'a SourceBatch),
    /// Stream time `[from, to)` may be under-covered.
    Gap {
        /// Inclusive start of the suspect interval.
        from: Timestamp,
        /// Exclusive end of the suspect interval.
        to: Timestamp,
    },
}

/// A block queued for delivery (held tweets drained at a disconnect,
/// and gap markers).
enum PendingBlock {
    Sel(Vec<u32>),
    Gap(Timestamp, Timestamp),
}

/// The supervised source. Pull it in blocks like a connection; it
/// reconnects, dedups, heals reorders, and emits gap markers
/// internally.
///
/// With no fault plan (or an inactive one) it is a zero-overhead
/// pass-through over a plain connection: no dedup set, no hold buffer,
/// byte-identical delivery to `api.connect(filter)`.
pub struct SupervisedSource {
    api: StreamingApi,
    filter: FilterSpec,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    seed: u64,
    clock: Arc<VirtualClock>,
    seg: Option<Seg>,
    epoch: u64,
    disconnects_left: u32,
    stats_acc: ConnectionStats,
    fstats: SourceFaultStats,
    seen: HashSet<u64>,
    hold: usize,
    consecutive: u32,
    max_seen_ts: Timestamp,
    done: bool,
    /// Scratch for raw segment pulls.
    sbatch: SourceBatch,
    /// Output staging: the block handed to the consumer.
    obatch: SourceBatch,
    /// The reorder-healing buffer.
    iheap: BinaryHeap<Reverse<HeldIdx>>,
    /// Blocks queued behind the current one.
    pending_blocks: VecDeque<PendingBlock>,
    /// A disconnect observed at the end of a partial batch, deferred
    /// until the consumer has drained that batch; carries the faulted
    /// segment's scan frontier (where a per-tweet scan has the clock at
    /// the disconnect).
    pending_disconnect: Option<Timestamp>,
    /// `created_at` of the furthest firehose tweet scanned.
    frontier: Timestamp,
}

impl SupervisedSource {
    /// Open the supervised stream. `plan` (when active) injects faults;
    /// `retry` governs reconnection; `seed` drives backoff jitter.
    pub fn new(
        api: StreamingApi,
        filter: FilterSpec,
        plan: Option<FaultPlan>,
        retry: RetryPolicy,
        seed: u64,
    ) -> SupervisedSource {
        let active = plan.as_ref().is_some_and(|p| p.is_active());
        let mut s = SupervisedSource {
            clock: api.clock(),
            disconnects_left: plan.as_ref().map_or(0, |p| p.max_disconnects),
            hold: if active { REORDER_HOLD } else { 0 },
            api,
            filter,
            plan,
            retry,
            seed,
            seg: None,
            epoch: 0,
            stats_acc: ConnectionStats::default(),
            fstats: SourceFaultStats::default(),
            seen: HashSet::new(),
            consecutive: 0,
            max_seen_ts: Timestamp::ZERO,
            done: false,
            sbatch: SourceBatch::new(),
            obatch: SourceBatch::new(),
            iheap: BinaryHeap::new(),
            pending_blocks: VecDeque::new(),
            pending_disconnect: None,
            frontier: Timestamp::ZERO,
        };
        s.open_segment(Timestamp::ZERO);
        s
    }

    /// Combined delivery statistics across all connection epochs.
    pub fn stats(&self) -> ConnectionStats {
        let mut s = self.stats_acc;
        if let Some(seg) = &self.seg {
            let cur = seg.stats();
            s.scanned += cur.scanned;
            s.matched += cur.matched;
            s.delivered += cur.delivered;
            s.dropped += cur.dropped;
        }
        s
    }

    /// Supervisor counters (gaps, reconnects, dedup, injected faults).
    pub fn fault_stats(&self) -> SourceFaultStats {
        let mut f = self.fstats.clone();
        if let Some(seg) = &self.seg {
            f.injected.absorb(&seg.injected());
        }
        f
    }

    /// Exclusive end of the firehose log (last tweet time + 1ms) — the
    /// bound for terminal gap markers.
    fn log_end(&self) -> Timestamp {
        self.api
            .ground_truth()
            .last()
            .map_or(Timestamp::ZERO, |t| t.created_at + Duration::from_millis(1))
    }

    fn open_segment(&mut self, from: Timestamp) {
        let conn = self.api.connect_at(self.filter.clone(), from);
        self.seg = Some(match &self.plan {
            Some(plan) if plan.is_active() => Seg::Faulty(FaultyConnection::new(
                conn,
                plan.clone(),
                self.api.clock(),
                self.epoch,
                self.disconnects_left,
            )),
            _ => Seg::Plain(conn),
        });
    }

    fn close_segment(&mut self) {
        if let Some(seg) = self.seg.take() {
            let s = seg.stats();
            self.stats_acc.scanned += s.scanned;
            self.stats_acc.matched += s.matched;
            self.stats_acc.delivered += s.delivered;
            self.stats_acc.dropped += s.dropped;
            let injected = seg.injected();
            self.disconnects_left = self
                .disconnects_left
                .saturating_sub(injected.disconnects as u32);
            self.fstats.injected.absorb(&injected);
        }
    }

    /// Record the coverage gap `[from, to)` clamped to the log end;
    /// `None` when nothing is left of it.
    fn record_gap(&mut self, from: Timestamp, to: Timestamp) -> Option<(Timestamp, Timestamp)> {
        let to = to.min(self.log_end());
        (to > from).then(|| {
            self.fstats.gaps.push((from, to));
            (from, to)
        })
    }

    /// The reconnect machinery: count the disconnect, close the epoch,
    /// then give up after `max_attempts` or back off and resubscribe.
    /// Returns the coverage gap the disconnect leaves (already
    /// recorded), which the caller queues behind the tweets the heal
    /// buffer held.
    fn reconnect(&mut self) -> Option<(Timestamp, Timestamp)> {
        self.fstats.disconnects += 1;
        self.close_segment();
        self.consecutive += 1;
        // Conservative loss start: the last stream time we know we
        // delivered. (Not clock.now() — async UDF latency inflates the
        // clock past stream time, and a too-late gap start would
        // under-flag.)
        let t_d = self.max_seen_ts;
        if self.consecutive > self.retry.max_attempts {
            self.fstats.gave_up = true;
            self.done = true;
            return self.record_gap(t_d, self.log_end());
        }
        // Capped exponential backoff with deterministic jitter
        // (at most delay/4, from a seeded splitmix).
        let exp = (self.consecutive - 1).min(20);
        let base_ms = self.retry.base.millis().max(1);
        let delay_ms = base_ms
            .saturating_mul(1i64 << exp)
            .min(self.retry.cap.millis().max(1));
        let jitter_ms = (splitmix(self.seed ^ (self.fstats.reconnects.wrapping_mul(0x9E37) + 1))
            % (delay_ms as u64 / 4 + 1)) as i64;
        let delay = Duration::from_millis(delay_ms + jitter_ms);
        self.clock.advance(delay);
        self.fstats.backoff_total = self.fstats.backoff_total + delay;
        self.fstats.reconnects += 1;
        // Resubscribe the same filter from (reconnect time − overlap);
        // dedup eats the replayed prefix. Anything between the
        // disconnect point and the resume point is lost for good.
        let resume_ms = t_d.millis() + delay.millis() - self.retry.replay_overlap.millis();
        let resume = Timestamp::from_millis(resume_ms.max(0));
        self.open_segment(resume);
        self.record_gap(t_d, resume)
    }

    /// The `Arc`-shared firehose log every block's indices point into.
    pub fn log(&self) -> &Arc<Vec<Tweet>> {
        self.api.log()
    }

    /// The shared virtual clock (the streaming API's).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// `created_at` of the furthest firehose tweet scanned so far. At
    /// end of stream the consumer advances the virtual clock here,
    /// where a per-tweet scan leaves it.
    pub fn frontier(&self) -> Timestamp {
        self.frontier
    }

    /// Pull the next block: up to `max` delivered tweets as zero-copy
    /// log indices, or a gap marker. `None` means end of stream.
    ///
    /// Clock protocol: the pull itself advances the clock only where a
    /// per-tweet pull does off-consumer work (stalls, reconnect
    /// backoff — and a disconnect observed mid-batch is deferred until
    /// the consumer has drained the partial batch, so backoff never
    /// runs ahead of undelivered tweets). The consumer advances the
    /// clock to each tweet's timestamp as it consumes the block, and to
    /// [`frontier`](SupervisedSource::frontier) at end of stream.
    pub fn next_block(&mut self, max: usize) -> Option<SourceBlock<'_>> {
        loop {
            if let Some(block) = self.pending_blocks.pop_front() {
                match block {
                    PendingBlock::Sel(sel) => {
                        self.obatch.sel = sel;
                        self.obatch.scan_end = self.frontier;
                        return Some(SourceBlock::Tweets(&self.obatch));
                    }
                    PendingBlock::Gap(from, to) => return Some(SourceBlock::Gap { from, to }),
                }
            }
            if let Some(scan_end) = self.pending_disconnect.take() {
                // The consumer has drained everything delivered before
                // the drop; put the clock where a per-tweet scan leaves
                // it, then queue the held tweets and the gap the
                // reconnect leaves, in that order.
                self.clock.advance_to(scan_end);
                self.drain_iheap_to_pending();
                if let Some((from, to)) = self.reconnect() {
                    self.pending_blocks.push_back(PendingBlock::Gap(from, to));
                }
                continue;
            }
            if self.done {
                return None;
            }
            let Some(seg) = self.seg.as_mut() else {
                self.done = true;
                continue;
            };
            match seg {
                Seg::Plain(conn) => {
                    conn.next_batch(max, &mut self.obatch);
                    self.frontier = self.frontier.max(self.obatch.scan_end);
                    if self.obatch.is_empty() {
                        self.close_segment();
                        self.done = true;
                        return None;
                    }
                    return Some(SourceBlock::Tweets(&self.obatch));
                }
                Seg::Faulty(fc) => {
                    let meta = fc.next_batch(max, &mut self.sbatch);
                    self.frontier = self.frontier.max(self.sbatch.scan_end);
                    self.fstats.malformed_skipped += meta.malformed as u64;
                    if !self.sbatch.sel.is_empty() {
                        self.consecutive = 0;
                    }
                    // Dedup + reorder-heal the raw deliveries into the
                    // output selection.
                    self.obatch.clear();
                    let log: &[Tweet] = self.api.ground_truth();
                    for k in 0..self.sbatch.sel.len() {
                        let idx = self.sbatch.sel[k];
                        let t = &log[idx as usize];
                        if !self.seen.insert(t.id) {
                            self.fstats.duplicates_dropped += 1;
                            continue;
                        }
                        if t.created_at > self.max_seen_ts {
                            self.max_seen_ts = t.created_at;
                        }
                        self.iheap.push(Reverse(HeldIdx {
                            ts: t.created_at,
                            id: t.id,
                            idx,
                        }));
                        if self.iheap.len() > self.hold {
                            let Reverse(h) = self.iheap.pop().expect("non-empty heap");
                            self.obatch.sel.push(h.idx);
                        }
                    }
                    match meta.fault {
                        Some(StreamFault::Disconnect) => {
                            self.pending_disconnect = Some(self.sbatch.scan_end);
                        }
                        Some(StreamFault::Malformed) => {
                            unreachable!("malformed is counted, never surfaced")
                        }
                        None if self.sbatch.sel.is_empty() => {
                            // End of stream: release the hold buffer.
                            self.close_segment();
                            self.drain_iheap_to_pending();
                            self.done = true;
                        }
                        None => {}
                    }
                    self.obatch.scan_end = self.sbatch.scan_end;
                    if !self.obatch.sel.is_empty() {
                        return Some(SourceBlock::Tweets(&self.obatch));
                    }
                }
            }
        }
    }

    /// Queue the heal buffer, in stream order, as one block.
    fn drain_iheap_to_pending(&mut self) {
        let mut held = Vec::with_capacity(self.iheap.len());
        while let Some(Reverse(h)) = self.iheap.pop() {
            held.push(h.idx);
        }
        if !held.is_empty() {
            self.pending_blocks.push_back(PendingBlock::Sel(held));
        }
    }

    /// Fold the supervisor's semantic state into a durability digest:
    /// delivery counters, fault counters, the dedup set, the
    /// reorder-healing buffers, and queued-but-undelivered events. Two
    /// supervisors that digest identically will deliver identical event
    /// sequences for the rest of the stream — which is what recovery
    /// replay verification needs to assert.
    pub fn state_digest(&self, d: &mut tweeql_wal::Digest) {
        let s = self.stats();
        d.write_u64(s.scanned);
        d.write_u64(s.matched);
        d.write_u64(s.delivered);
        d.write_u64(s.dropped);
        let f = self.fault_stats();
        d.write_u64(f.disconnects);
        d.write_u64(f.reconnects);
        d.write_u64(f.duplicates_dropped);
        d.write_u64(f.malformed_skipped);
        d.write_i64(f.backoff_total.millis());
        d.write_u64(f.gaps.len() as u64);
        for (from, to) in &f.gaps {
            d.write_i64(from.millis());
            d.write_i64(to.millis());
        }
        d.write_bool(f.gave_up);
        d.write_u64(f.injected.disconnects);
        d.write_u64(f.injected.stalls);
        d.write_u64(f.injected.duplicates);
        d.write_u64(f.injected.reorders);
        d.write_u64(f.injected.malformed);
        // The dedup set is unordered; an order-independent mix (xor of
        // a per-id hash) digests it without sorting.
        d.write_u64(self.seen.len() as u64);
        let mut mix = 0u64;
        for &id in &self.seen {
            mix ^= splitmix(id);
        }
        d.write_u64(mix);
        d.write_i64(self.max_seen_ts.millis());
        d.write_u64(self.consecutive as u64);
        d.write_bool(self.done);
        d.write_i64(self.frontier.millis());
        // Heal-buffer contents, in (ts, id) order — BinaryHeap
        // iteration order is unspecified, so sort a copy of the keys.
        let mut held: Vec<_> = self
            .iheap
            .iter()
            .map(|Reverse(h)| (h.ts.millis(), h.id))
            .collect();
        held.sort_unstable();
        d.write_u64(held.len() as u64);
        for (ts, id) in held {
            d.write_i64(ts);
            d.write_u64(id);
        }
        // The length of a queue of per-tweet events this source no
        // longer has: always empty, and still written so that the
        // checkpoints already logged keep verifying.
        d.write_u64(0);
        // Queued-but-undelivered blocks (drained holds, gap markers).
        d.write_u64(self.pending_blocks.len() as u64);
        for b in &self.pending_blocks {
            match b {
                PendingBlock::Sel(sel) => {
                    d.write_u32(1);
                    d.write_u64(sel.len() as u64);
                    for &i in sel {
                        d.write_u32(i);
                    }
                }
                PendingBlock::Gap(from, to) => {
                    d.write_u32(2);
                    d.write_i64(from.millis());
                    d.write_i64(to.millis());
                }
            }
        }
        d.write_bool(self.pending_disconnect.is_some());
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{Event, PerTweet};
    use super::*;
    use tweeql_firehose::scenario::{Scenario, Topic};
    use tweeql_model::Clock;

    fn api(clock: Arc<VirtualClock>) -> StreamingApi {
        let s = Scenario {
            name: "supervise-test".into(),
            duration: Duration::from_mins(12),
            background_rate_per_min: 150.0,
            topics: vec![Topic::new("obama", vec!["obama"], 40.0)],
            bursts: vec![],
            geotag_rate: 0.5,
            population_size: 400,
        };
        StreamingApi::new(tweeql_firehose::generate(&s, 21), clock)
    }

    fn baseline_ids(api: &StreamingApi, filter: FilterSpec) -> Vec<u64> {
        api.connect(filter).map(|t| t.id).collect()
    }

    fn heal_all_policy() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_secs(1),
            cap: Duration::from_secs(60),
            max_attempts: 8,
            // Overlap dwarfs any possible backoff: every reconnect
            // re-covers the loss window entirely.
            replay_overlap: Duration::from_mins(30),
        }
    }

    /// Block size of the tests that do not sweep it: smaller than a
    /// disconnect's spacing, so blocks end short at faults.
    const BLOCK: usize = 64;

    /// Pull `src` to the end in blocks of `max`, consumed as the feed
    /// consumes them: the clock moves to each delivered tweet, and to
    /// the source frontier at the end. Returns the delivered ids and
    /// the gap markers, in order.
    fn drain(src: &mut SupervisedSource, max: usize) -> (Vec<u64>, Vec<(Timestamp, Timestamp)>) {
        let (log, clock) = (Arc::clone(src.log()), Arc::clone(src.clock()));
        let (mut ids, mut gaps) = (Vec::new(), Vec::new());
        loop {
            match src.next_block(max) {
                Some(SourceBlock::Tweets(b)) => {
                    for &i in &b.sel {
                        let t = &log[i as usize];
                        clock.advance_to(t.created_at);
                        ids.push(t.id);
                    }
                }
                Some(SourceBlock::Gap { from, to }) => gaps.push((from, to)),
                None => break,
            }
        }
        clock.advance_to(src.frontier());
        (ids, gaps)
    }

    #[test]
    fn no_fault_plan_is_a_pure_passthrough() {
        let api = api(VirtualClock::new());
        let filter = FilterSpec::Track(vec!["obama".into()]);
        let expected = baseline_ids(&api, filter.clone());
        let mut src = SupervisedSource::new(api.clone(), filter, None, RetryPolicy::default(), 0);
        let (got, gaps) = drain(&mut src, BLOCK);
        assert!(gaps.is_empty(), "no gaps without faults");
        assert_eq!(got, expected);
    }

    #[test]
    fn passthrough_stats_match_plain_connection() {
        let api = api(VirtualClock::new());
        let filter = FilterSpec::Track(vec!["obama".into()]);
        let mut conn = api.connect(filter.clone());
        for _ in conn.by_ref() {}
        let expected = conn.stats();
        let mut src = SupervisedSource::new(api, filter, None, RetryPolicy::default(), 0);
        drain(&mut src, BLOCK);
        assert_eq!(src.stats(), expected);
        let f = src.fault_stats();
        assert_eq!(f.disconnects, 0);
        assert!(f.gaps.is_empty());
    }

    #[test]
    fn generous_replay_overlap_heals_chaos_exactly() {
        let api = api(VirtualClock::new());
        let filter = FilterSpec::Sample(1.0);
        let expected = baseline_ids(&api, filter.clone());
        let mut src = SupervisedSource::new(
            api,
            filter,
            Some(FaultPlan::chaos(1234)),
            heal_all_policy(),
            77,
        );
        let (got, gaps) = drain(&mut src, BLOCK);
        let f = src.fault_stats();
        assert!(f.disconnects >= 1, "chaos plan must disconnect: {f:?}");
        assert_eq!(f.reconnects, f.disconnects);
        assert!(f.duplicates_dropped > 0);
        assert!(gaps.is_empty(), "full overlap leaves no gaps");
        assert_eq!(got, expected, "dedup + reorder healing restore the log");
    }

    #[test]
    fn zero_overlap_reports_gaps_covering_every_lost_tweet() {
        let clock = VirtualClock::new();
        let api = api(Arc::clone(&clock));
        let filter = FilterSpec::Sample(1.0);
        let expected = baseline_ids(&api, filter.clone());
        let mut plan = FaultPlan::chaos(5);
        plan.disconnect_rate = 0.004;
        let policy = RetryPolicy {
            replay_overlap: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut src = SupervisedSource::new(api.clone(), filter, Some(plan), policy, 9);
        let (got, gap_events) = drain(&mut src, BLOCK);
        let f = src.fault_stats();
        assert!(f.disconnects >= 1);
        assert_eq!(gap_events, f.gaps);
        assert!(!gap_events.is_empty(), "no overlap ⇒ losses become gaps");
        // Every baseline tweet either arrived or falls inside a gap.
        let got_ids: HashSet<u64> = got.iter().copied().collect();
        let by_id: std::collections::HashMap<u64, Timestamp> = api
            .ground_truth()
            .iter()
            .map(|t| (t.id, t.created_at))
            .collect();
        for id in &expected {
            if !got_ids.contains(id) {
                let ts = by_id[id];
                assert!(
                    gap_events.iter().any(|&(from, to)| ts >= from && ts < to),
                    "lost tweet {id} at {ts:?} not covered by any gap {gap_events:?}"
                );
            }
        }
        // No duplicates in the output.
        assert_eq!(got_ids.len(), got.len());
    }

    #[test]
    fn gives_up_after_max_attempts_and_flags_the_tail() {
        let api = api(VirtualClock::new());
        let mut plan = FaultPlan::chaos(2);
        plan.disconnect_rate = 1.0; // every delivery attempt drops
        plan.max_disconnects = 100;
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut src =
            SupervisedSource::new(api.clone(), FilterSpec::Sample(1.0), Some(plan), policy, 4);
        let (_, gaps) = drain(&mut src, BLOCK);
        let f = src.fault_stats();
        assert!(f.gave_up);
        assert_eq!(f.disconnects, 4, "initial + 3 retries");
        let (_, to) = *gaps.last().expect("terminal gap marker");
        let log_last = api.ground_truth().last().unwrap().created_at;
        assert_eq!(to, log_last + Duration::from_millis(1));
    }

    #[test]
    fn backoff_advances_the_virtual_clock_deterministically() {
        let run = |seed: u64| {
            let clock = VirtualClock::new();
            let api = api(Arc::clone(&clock));
            let mut src = SupervisedSource::new(
                api,
                FilterSpec::Sample(1.0),
                Some(FaultPlan::chaos(8)),
                heal_all_policy(),
                seed,
            );
            drain(&mut src, BLOCK);
            (src.fault_stats().backoff_total, clock.now())
        };
        let (b1, c1) = run(42);
        let (b2, c2) = run(42);
        assert_eq!(b1, b2);
        assert_eq!(c1, c2);
        assert!(b1 > Duration::ZERO);
        let (b3, _) = run(43);
        assert_ne!(b1, b3, "jitter differs by seed");
    }

    // ------------------------------------------------------------------
    // Direct unit tests of the dedup set and the reorder-healing heap.
    // The engine-level differentials above exercise these only through
    // whole-stream runs; durability snapshots/restores this state, so
    // it gets a tight harness of its own.
    // ------------------------------------------------------------------

    fn held(ts_ms: i64, id: u64, idx: u32) -> Reverse<HeldIdx> {
        Reverse(HeldIdx {
            ts: Timestamp::from_millis(ts_ms),
            id,
            idx,
        })
    }

    /// A fresh source with fault machinery active (hold buffer and
    /// dedup set live). None of the direct tests pull from the stream,
    /// so the plan's rates never actually fire.
    fn idle_faulty_source() -> SupervisedSource {
        SupervisedSource::new(
            api(VirtualClock::new()),
            FilterSpec::Sample(1.0),
            Some(FaultPlan::chaos(1)),
            RetryPolicy::default(),
            3,
        )
    }

    #[test]
    fn heal_heap_orders_by_timestamp_then_id() {
        let mut src = idle_faulty_source();
        assert_eq!(src.hold, REORDER_HOLD, "fault plan activates the hold");
        // Push out of order, including a timestamp tie broken by id. The
        // log indices run against the key, so they decide nothing.
        for (ts, id, idx) in [(300i64, 5u64, 10u32), (100, 2, 9), (200, 9, 8), (200, 3, 7)] {
            src.iheap.push(held(ts, id, idx));
        }
        let ids: Vec<u64> = std::iter::from_fn(|| src.iheap.pop())
            .map(|Reverse(h)| h.id)
            .collect();
        assert_eq!(ids, vec![2, 3, 9, 5], "(ts, id) order restored");
    }

    #[test]
    fn index_heal_heap_drains_in_stream_order() {
        let mut src = idle_faulty_source();
        for (ts, id, idx) in [
            (300i64, 5u64, 50u32),
            (100, 2, 20),
            (200, 9, 90),
            (200, 3, 30),
        ] {
            src.iheap.push(held(ts, id, idx));
        }
        src.drain_iheap_to_pending();
        assert!(src.iheap.is_empty());
        assert!(matches!(
            src.pending_blocks.pop_front(),
            Some(PendingBlock::Sel(sel)) if sel == [20, 30, 90, 50]
        ));
        src.drain_iheap_to_pending();
        assert!(
            src.pending_blocks.is_empty(),
            "an empty buffer queues nothing"
        );
    }

    #[test]
    fn dedup_set_admits_each_id_once() {
        let mut src = idle_faulty_source();
        assert!(src.seen.insert(7));
        assert!(src.seen.insert(8));
        assert!(!src.seen.insert(7), "replayed id is a duplicate");
        assert_eq!(src.seen.len(), 2);
    }

    fn digest(s: &SupervisedSource) -> u64 {
        let mut d = tweeql_wal::Digest::new();
        s.state_digest(&mut d);
        d.finish()
    }

    #[test]
    fn state_digest_is_insertion_order_independent_for_dedup() {
        let mut a = idle_faulty_source();
        let mut b = idle_faulty_source();
        for id in [10u64, 20, 30] {
            a.seen.insert(id);
        }
        for id in [30u64, 10, 20] {
            b.seen.insert(id);
        }
        assert_eq!(
            digest(&a),
            digest(&b),
            "set digest must ignore insertion order"
        );
        b.seen.insert(40);
        assert_ne!(digest(&a), digest(&b), "different sets must digest apart");
    }

    #[test]
    fn state_digest_covers_heal_heap_and_pending_queue() {
        let mut a = idle_faulty_source();
        let base = digest(&idle_faulty_source());
        assert_eq!(digest(&a), base, "identical fresh sources digest equal");
        a.iheap.push(held(50, 1, 0));
        let with_held = digest(&a);
        assert_ne!(with_held, base, "held tweet must show in the digest");
        a.drain_iheap_to_pending();
        assert_ne!(digest(&a), with_held, "held vs pending are distinct states");
        assert_ne!(digest(&a), base);
    }

    #[test]
    fn gap_markers_clamp_to_log_end_and_drop_empty_intervals() {
        let mut src = idle_faulty_source();
        let end = src.log_end();
        // Past-the-end gap clamps to the log end.
        let clamped = (end - Duration::from_secs(1), end);
        assert_eq!(
            src.record_gap(clamped.0, end + Duration::from_mins(5)),
            Some(clamped)
        );
        assert_eq!(src.fstats.gaps, vec![clamped]);
        // Empty and inverted intervals are ignored entirely.
        assert_eq!(src.record_gap(end, end), None);
        assert_eq!(src.record_gap(end, end - Duration::from_secs(1)), None);
        assert_eq!(src.fstats.gaps.len(), 1);
    }

    /// The block pull must be byte-identical to the per-tweet oracle:
    /// same delivered ids in order, same gap windows, same connection +
    /// fault stats, same final virtual clock — across fault plans and
    /// block sizes.
    #[test]
    fn batched_blocks_match_per_tweet_supervision() {
        let mut plan_gappy = FaultPlan::chaos(5);
        plan_gappy.disconnect_rate = 0.004;
        let zero_overlap = RetryPolicy {
            replay_overlap: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut plan_giveup = FaultPlan::chaos(2);
        plan_giveup.disconnect_rate = 1.0;
        plan_giveup.max_disconnects = 100;
        let giveup_policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let cases: Vec<(Option<FaultPlan>, RetryPolicy, u64)> = vec![
            (None, RetryPolicy::default(), 0),
            (Some(FaultPlan::chaos(1234)), heal_all_policy(), 77),
            (Some(FaultPlan::chaos(42)), RetryPolicy::default(), 13),
            (Some(plan_gappy), zero_overlap, 9),
            (Some(plan_giveup), giveup_policy, 4),
        ];
        for (plan, policy, seed) in cases {
            let filter = FilterSpec::Sample(1.0);
            // Reference: the per-tweet oracle.
            let ref_clock = VirtualClock::new();
            let mut reference = PerTweet::new(
                api(Arc::clone(&ref_clock)),
                filter.clone(),
                plan.clone(),
                policy.clone(),
                seed,
            );
            let mut ref_ids = Vec::new();
            let mut ref_gaps = Vec::new();
            for e in reference.by_ref() {
                match e {
                    Event::Tweet(t) => ref_ids.push(t.id),
                    Event::Gap { from, to } => ref_gaps.push((from, to)),
                }
            }
            for max in [1usize, 7, 256] {
                let clock = VirtualClock::new();
                let mut src = SupervisedSource::new(
                    api(Arc::clone(&clock)),
                    filter.clone(),
                    plan.clone(),
                    policy.clone(),
                    seed,
                );
                let (ids, gaps) = drain(&mut src, max);
                let tag = format!("plan={plan:?} max={max}");
                assert_eq!(ids, ref_ids, "delivered ids diverge: {tag}");
                assert_eq!(gaps, ref_gaps, "gap windows diverge: {tag}");
                assert_eq!(src.stats(), reference.stats(), "stats diverge: {tag}");
                assert_eq!(
                    src.fault_stats(),
                    reference.fault_stats(),
                    "fault stats diverge: {tag}"
                );
                assert_eq!(clock.now(), ref_clock.now(), "clock diverges: {tag}");
            }
        }
    }
}

/// The per-tweet supervisor the block pull is held to: the source's own
/// reconnect machinery ([`SupervisedSource::reconnect`]), dedup set and
/// counters, driven one tweet at a time through the firehose's
/// per-tweet pull, which moves the clock as it scans. Held tweets are
/// whole tweets in a heap of their own, and what a disconnect releases
/// queues as per-tweet events.
#[cfg(test)]
mod oracle {
    use super::*;

    /// What the per-tweet supervisor yields.
    #[derive(Debug)]
    pub(super) enum Event {
        /// A delivered (deduplicated) tweet.
        Tweet(Tweet),
        /// Stream time `[from, to)` may be under-covered.
        Gap { from: Timestamp, to: Timestamp },
    }

    /// A tweet in the heal heap, ordered by `(created_at, id)`.
    struct Held(Tweet);

    impl Held {
        fn key(&self) -> (Timestamp, u64) {
            (self.0.created_at, self.0.id)
        }
    }

    impl PartialEq for Held {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }
    impl Eq for Held {}
    impl PartialOrd for Held {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Held {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key().cmp(&other.key())
        }
    }

    pub(super) struct PerTweet {
        src: SupervisedSource,
        heap: BinaryHeap<Reverse<Held>>,
        pending: VecDeque<Event>,
    }

    impl PerTweet {
        pub(super) fn new(
            api: StreamingApi,
            filter: FilterSpec,
            plan: Option<FaultPlan>,
            retry: RetryPolicy,
            seed: u64,
        ) -> PerTweet {
            PerTweet {
                src: SupervisedSource::new(api, filter, plan, retry, seed),
                heap: BinaryHeap::new(),
                pending: VecDeque::new(),
            }
        }

        pub(super) fn stats(&self) -> ConnectionStats {
            self.src.stats()
        }

        pub(super) fn fault_stats(&self) -> SourceFaultStats {
            self.src.fault_stats()
        }

        fn drain_heap_to_pending(&mut self) {
            while let Some(Reverse(h)) = self.heap.pop() {
                self.pending.push_back(Event::Tweet(h.0));
            }
        }
    }

    impl Iterator for PerTweet {
        type Item = Event;

        fn next(&mut self) -> Option<Event> {
            loop {
                if let Some(ev) = self.pending.pop_front() {
                    return Some(ev);
                }
                let src = &mut self.src;
                if src.done {
                    return None;
                }
                let Some(seg) = src.seg.as_mut() else {
                    src.done = true;
                    continue;
                };
                let pulled = match seg {
                    Seg::Plain(c) => c.try_next(),
                    Seg::Faulty(f) => f.try_next(),
                };
                match pulled {
                    Ok(Some(t)) => {
                        src.consecutive = 0;
                        if src.hold > 0 {
                            // Fault injection is active: dedup replays
                            // and injected duplicates, heal small
                            // reorders.
                            if !src.seen.insert(t.id) {
                                src.fstats.duplicates_dropped += 1;
                                continue;
                            }
                            src.max_seen_ts = src.max_seen_ts.max(t.created_at);
                            self.heap.push(Reverse(Held(t)));
                            if self.heap.len() > src.hold {
                                let Reverse(h) = self.heap.pop().expect("non-empty heap");
                                return Some(Event::Tweet(h.0));
                            }
                            continue;
                        }
                        src.max_seen_ts = src.max_seen_ts.max(t.created_at);
                        return Some(Event::Tweet(t));
                    }
                    Ok(None) => {
                        src.close_segment();
                        src.done = true;
                        self.drain_heap_to_pending();
                    }
                    Err(StreamFault::Malformed) => src.fstats.malformed_skipped += 1,
                    Err(StreamFault::Disconnect) => {
                        self.drain_heap_to_pending();
                        if let Some((from, to)) = self.src.reconnect() {
                            self.pending.push_back(Event::Gap { from, to });
                        }
                    }
                }
            }
        }
    }
}
