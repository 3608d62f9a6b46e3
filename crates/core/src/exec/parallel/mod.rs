//! The parallel micro-batched execution engine.
//!
//! Splits a single-stream query across threads while producing output
//! byte-identical to the serial engine:
//!
//! ```text
//!  decoder ──batches──▶ worker pool ──results──▶ merge + suffix (caller)
//!     │                 (stateless prefix,          reorder by seq,
//!     └──watermarks──────── pre-aggregation) ─────▶ stateful suffix, sink
//! ```
//!
//! * **Decoder thread** pulls the connection, projects tweets onto
//!   records, cuts micro-batches at `batch_size` *and* at watermark
//!   boundaries (so no punctuation ever falls mid-batch), and stamps
//!   every batch/watermark with a monotone sequence number.
//! * **Worker pool** runs independent clones of the stateless operator
//!   prefix ([`crate::exec::Operator::parallel_clone`]) over batches, in
//!   any order. When the first stateful stage is a mergeable aggregate,
//!   workers also pre-aggregate each batch into a
//!   [`PartialTable`](crate::exec::aggregate::PartialTable).
//! * **Merge** (the calling thread) reassembles results in sequence
//!   order and drives the stateful suffix — so every order-sensitive
//!   operator observes exactly the event sequence the serial engine
//!   would have produced.
//!
//! Determinism argument: the decoder emits one totally-ordered event
//! stream (batches ⊎ watermarks, numbered). Workers compute pure
//! functions of single batches (stateless prefix) or order-insensitive
//! mergeable summaries (COUNT/MIN/MAX/COUNT DISTINCT partials). The
//! merge applies results strictly in sequence order, therefore the
//! suffix's state transitions — and its output — are identical to the
//! serial run. Early exit (LIMIT) truncates the event stream at the
//! same event in both engines; `LimitOp` hard-caps emission either way.

mod chan;
mod reorder;

pub use chan::Chan;
pub use reorder::Reorder;

use super::aggregate::{PartialAggBuilder, PartialTable};
use super::supervise::{SourceBlock, SourceEvent, SourceFaultStats, SupervisedSource};
use super::{full_sel, OpStats, Operator, Pipeline};
use crate::error::QueryError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tweeql_firehose::api::ConnectionStats;
use tweeql_model::{DecodeStats, Duration, Record, Timestamp, TweetBatch};

/// Knobs for one parallel run (a slice of
/// [`EngineConfig`](crate::engine::EngineConfig)).
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Prefix worker threads (the decoder and merge are extra).
    pub workers: usize,
    /// Records per micro-batch.
    pub batch_size: usize,
    /// Bounded-channel capacity (batches in flight per queue).
    pub channel_capacity: usize,
    /// Watermark injection interval (must match the serial engine's).
    pub watermark_interval: Duration,
    /// Live source columns for the pruned decode path (`None` = decode
    /// everything). Set by the planner's projection-pruning rule.
    pub live_columns: Option<std::sync::Arc<[bool]>>,
    /// Ship raw tweets to the workers as columnar [`TweetBatch`]es and
    /// let each worker materialize only what its operators read.
    /// `false` decodes row-at-a-time on the decoder thread — the
    /// reference the columnar path is differentially tested against.
    pub columnar_decode: bool,
    /// Pull the source in zero-copy index batches. Columnar work items
    /// become shared views into the firehose log (no `Tweet` clone
    /// between the log and the workers); `false` keeps the per-tweet
    /// facade as the differential reference.
    pub batched_source: bool,
}

/// One worker's owned state: cloned stateless-prefix operators plus an
/// optional pre-aggregation builder.
type WorkerKit = (Vec<Box<dyn Operator>>, Option<PartialAggBuilder>);

/// An item stamped with its position in the decoder's event stream.
struct Seq<T> {
    seq: u64,
    item: T,
}

/// One micro-batch in flight between decoder and workers.
///
/// Row mode decodes on the decoder thread (every tweet becomes a
/// `Record` before fan-out); columnar mode ships the raw tweets and the
/// *workers* materialize — only the columns their operators read, only
/// for rows that survive. That moves the decode bottleneck off the
/// single decoder thread and onto the pool.
enum Work {
    /// Row-decoded records (columnar decode off).
    Rows(Vec<Record>),
    /// Raw tweets, column-decoded lazily by the receiving worker.
    Tweets(TweetBatch),
}

impl Work {
    fn len(&self) -> usize {
        match self {
            Work::Rows(r) => r.len(),
            Work::Tweets(t) => t.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a worker (or the decoder, for watermarks) hands to the merge.
enum Done {
    /// Prefix output rows for one batch.
    Rows(Vec<Record>),
    /// Pre-aggregated partial table for one batch.
    Partial(PartialTable),
    /// Punctuation, routed around the worker pool.
    Watermark(Timestamp),
    /// A source coverage gap `[from, to)`, routed around the worker
    /// pool like punctuation.
    Gap(Timestamp, Timestamp),
    /// A batch failed; the error surfaces at its sequence position.
    Error(QueryError),
}

/// Run a planned single-stream pipeline over the supervised source
/// using the parallel engine. Mirrors the serial `run_single` loop:
/// same watermark injection, same gap routing, same end-of-stream
/// flush, same early exit on `done()`.
pub fn run_parallel(
    src: SupervisedSource,
    pipeline: &mut Pipeline,
    cfg: &ParallelConfig,
    sink: &mut dyn FnMut(&Record),
) -> Result<(ConnectionStats, SourceFaultStats), QueryError> {
    let workers = cfg.workers.max(1);
    let batch_size = cfg.batch_size.max(1);
    let prefix_len = pipeline.parallel_prefix_len();

    // Hash-partition-free pre-aggregation: if the first stateful stage
    // is a mergeable aggregate, each worker pre-aggregates its batches
    // and the merge absorbs the partial tables in order.
    let spec: Option<PartialAggBuilder> = if prefix_len < pipeline.len() {
        pipeline
            .op_mut(prefix_len)
            .as_aggregate()
            .and_then(|a| a.partial_spec())
    } else {
        None
    };

    let mut kits: Vec<WorkerKit> = (0..workers)
        .map(|_| (pipeline.clone_prefix(prefix_len), spec.clone()))
        .collect();

    let to_workers: Chan<Seq<Work>> = Chan::bounded(cfg.channel_capacity);
    // The merge queue is sized per producer so one slow worker cannot
    // starve the others of result slots.
    let to_merge: Chan<Seq<Done>> = Chan::bounded(cfg.channel_capacity.max(1) * (workers + 1));
    // Drained batch buffers flow back here instead of being dropped:
    // the decoder and workers refill them, so the steady state moves
    // records through the pool without allocating a `Vec` per batch.
    // Strictly opportunistic — `try_push` drops the buffer when the
    // pool is full, `try_pop` falls back to a fresh allocation.
    let recycle: Chan<Vec<Record>> = Chan::bounded(cfg.channel_capacity.max(1) * (workers + 2));
    // Columnar mode recycles drained `TweetBatch`es the same way.
    let recycle_tb: Chan<TweetBatch> = Chan::bounded(cfg.channel_capacity.max(1) * (workers + 2));
    let live_workers = AtomicUsize::new(workers);
    let wm_interval = cfg.watermark_interval;

    let mut result: Result<(), QueryError> = Ok(());
    let mut conn_stats = ConnectionStats::default();
    let mut fault_stats = SourceFaultStats::default();
    let mut worker_stats: Vec<(Vec<OpStats>, OpStats, DecodeStats)> = Vec::new();

    std::thread::scope(|s| {
        let live = cfg.live_columns.clone();
        let columnar = cfg.columnar_decode;
        let batched = cfg.batched_source;
        let (tw, tm, rc, rtb) = (&to_workers, &to_merge, &recycle, &recycle_tb);
        let decoder = s.spawn(move || {
            if batched {
                decode_loop_batched(
                    src,
                    tw,
                    tm,
                    rc,
                    rtb,
                    batch_size,
                    wm_interval,
                    live,
                    columnar,
                )
            } else {
                decode_loop(
                    src,
                    tw,
                    tm,
                    rc,
                    rtb,
                    batch_size,
                    wm_interval,
                    live,
                    columnar,
                )
            }
        });
        let handles: Vec<_> = kits
            .drain(..)
            .map(|(ops, builder)| {
                let (tw, tm, rc, rtb, live) =
                    (&to_workers, &to_merge, &recycle, &recycle_tb, &live_workers);
                s.spawn(move || {
                    let stats = worker_loop(ops, builder, tw, tm, rc, rtb);
                    // Last worker out closes the merge queue; the
                    // decoder has already stopped feeding by then.
                    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        tm.close();
                    }
                    stats
                })
            })
            .collect();

        // Merge + stateful suffix on the calling thread.
        let mut reorder: Reorder<Done> = Reorder::new();
        let mut out: Vec<Record> = Vec::new();
        'merge: while let Some(Seq { seq, item }) = to_merge.pop() {
            reorder.insert(seq, item);
            while let Some(item) = reorder.pop_next() {
                let step = match item {
                    Done::Rows(mut rows) => {
                        let step = pipeline.push_batch_from(prefix_len, &mut rows, &mut out);
                        let _ = recycle.try_push(rows);
                        step
                    }
                    Done::Partial(table) => pipeline.absorb_partial(prefix_len, table, &mut out),
                    Done::Watermark(wm) => pipeline.watermark_from(prefix_len, wm, &mut out),
                    Done::Gap(from, to) => pipeline.gap_from(prefix_len, from, to, &mut out),
                    Done::Error(e) => Err(e),
                };
                match step {
                    Ok(()) => {
                        for r in out.drain(..) {
                            sink(&r);
                        }
                        if pipeline.done() {
                            break 'merge;
                        }
                    }
                    Err(e) => {
                        result = Err(e);
                        break 'merge;
                    }
                }
            }
        }
        // Normal end: channels already drained; early exit: closing
        // wakes and stops every blocked producer.
        to_workers.close();
        to_merge.close();
        recycle.close();
        recycle_tb.close();

        let (cs, fs) = decoder.join().expect("decoder thread panicked");
        conn_stats = cs;
        fault_stats = fs;
        for h in handles {
            worker_stats.push(h.join().expect("worker thread panicked"));
        }
    });

    // Fold worker-side stats into the pipeline's per-stage counters.
    for (prefix, builder_stat, decode) in &worker_stats {
        for (i, st) in prefix.iter().enumerate() {
            pipeline.add_stage_stats(i, st);
        }
        pipeline.add_stage_stats(prefix_len, builder_stat);
        pipeline.add_decode_stats(decode);
    }
    result?;

    // End-of-stream flush, exactly like the serial path. The prefix
    // stages of the main pipeline are stateless, so finishing from 0 is
    // a no-op for them.
    let mut out = Vec::new();
    pipeline.finish(&mut out)?;
    for r in out.drain(..) {
        sink(&r);
    }
    Ok((conn_stats, fault_stats))
}

/// Decoder thread: supervised source → sequenced batches, watermarks,
/// and gap markers. Row mode decodes each tweet to a `Record` here;
/// columnar mode ships raw tweets and defers decode to the workers.
#[allow(clippy::too_many_arguments)]
fn decode_loop(
    mut src: SupervisedSource,
    to_workers: &Chan<Seq<Work>>,
    to_merge: &Chan<Seq<Done>>,
    recycle: &Chan<Vec<Record>>,
    recycle_tb: &Chan<TweetBatch>,
    batch_size: usize,
    wm_interval: Duration,
    live: Option<std::sync::Arc<[bool]>>,
    columnar: bool,
) -> (ConnectionStats, SourceFaultStats) {
    // Prefer a recycled buffer (drained downstream) over allocating.
    let fresh = |live: &Option<std::sync::Arc<[bool]>>| {
        if columnar {
            let mut tb = recycle_tb.try_pop().unwrap_or_default();
            tb.reset();
            tb.set_live(live.clone());
            Work::Tweets(tb)
        } else {
            Work::Rows(
                recycle
                    .try_pop()
                    .map(|mut v| {
                        v.clear();
                        v
                    })
                    .unwrap_or_else(|| Vec::with_capacity(batch_size)),
            )
        }
    };
    let mut seq = 0u64;
    let mut batch: Work = fresh(&live);
    let mut next_wm: Option<Timestamp> = None;
    'stream: for event in src.by_ref() {
        let tweet = match event {
            SourceEvent::Tweet(t) => t,
            SourceEvent::Gap { from, to } => {
                // Cut the batch so records before the gap keep an
                // earlier sequence number, then route the marker
                // around the worker pool like punctuation.
                if !batch.is_empty() {
                    let full = std::mem::replace(&mut batch, fresh(&live));
                    if to_workers.push(Seq { seq, item: full }).is_err() {
                        break 'stream;
                    }
                    seq += 1;
                }
                let g = Seq {
                    seq,
                    item: Done::Gap(from, to),
                };
                if to_merge.push(g).is_err() {
                    break 'stream;
                }
                seq += 1;
                continue;
            }
        };
        // `Record::from_tweet` stamps records with `created_at`, so
        // both decode modes cut batches at identical stream times.
        let ts = tweet.created_at;
        if let Some(wm) = next_wm {
            if ts >= wm {
                // Cut the batch so records before the boundary keep an
                // earlier sequence number than the watermark.
                if !batch.is_empty() {
                    let full = std::mem::replace(&mut batch, fresh(&live));
                    if to_workers.push(Seq { seq, item: full }).is_err() {
                        break 'stream;
                    }
                    seq += 1;
                }
                // Emit every boundary the stream jumped over, not just
                // one — idle gaps must still tick time-driven flushes.
                let last = ts.truncate(wm_interval);
                let mut b = wm;
                while b <= last {
                    let w = Seq {
                        seq,
                        item: Done::Watermark(b),
                    };
                    if to_merge.push(w).is_err() {
                        break 'stream;
                    }
                    seq += 1;
                    b += wm_interval;
                }
            }
        }
        next_wm = Some(ts.truncate(wm_interval) + wm_interval);
        match &mut batch {
            Work::Tweets(tb) => tb.push(tweet),
            Work::Rows(rows) => rows.push(match &live {
                Some(l) => Record::from_tweet_pruned(&tweet, l),
                None => Record::from_tweet(&tweet),
            }),
        }
        if batch.len() >= batch_size {
            let full = std::mem::replace(&mut batch, fresh(&live));
            if to_workers.push(Seq { seq, item: full }).is_err() {
                break 'stream;
            }
            seq += 1;
        }
    }
    if !batch.is_empty() {
        let _ = to_workers.push(Seq { seq, item: batch });
    }
    to_workers.close();
    (src.stats(), src.fault_stats())
}

/// The decoder over zero-copy source blocks: identical batch cuts,
/// watermarks, and gap routing to [`decode_loop`], but columnar work
/// items are shared views into the firehose log (selection indices, no
/// `Tweet` clone between the log and the worker pool), and the virtual
/// clock is advanced lazily at cut points instead of per scanned tweet.
#[allow(clippy::too_many_arguments)]
fn decode_loop_batched(
    mut src: SupervisedSource,
    to_workers: &Chan<Seq<Work>>,
    to_merge: &Chan<Seq<Done>>,
    recycle: &Chan<Vec<Record>>,
    recycle_tb: &Chan<TweetBatch>,
    batch_size: usize,
    wm_interval: Duration,
    live: Option<std::sync::Arc<[bool]>>,
    columnar: bool,
) -> (ConnectionStats, SourceFaultStats) {
    let log = std::sync::Arc::clone(src.log());
    let clock = std::sync::Arc::clone(src.clock());
    let fresh = |live: &Option<std::sync::Arc<[bool]>>| {
        if columnar {
            let mut tb = recycle_tb.try_pop().unwrap_or_default();
            tb.reset();
            tb.set_live(live.clone());
            // Rebinding a recycled batch to the same log keeps its
            // selection allocation; only a fresh batch allocates.
            tb.bind_log(&log);
            Work::Tweets(tb)
        } else {
            Work::Rows(
                recycle
                    .try_pop()
                    .map(|mut v| {
                        v.clear();
                        v
                    })
                    .unwrap_or_else(|| Vec::with_capacity(batch_size)),
            )
        }
    };
    let mut seq = 0u64;
    let mut batch: Work = fresh(&live);
    let mut next_wm: Option<Timestamp> = None;
    'stream: while let Some(block) = src.next_block(batch_size) {
        match block {
            SourceBlock::Gap { from, to } => {
                if !batch.is_empty() {
                    let full = std::mem::replace(&mut batch, fresh(&live));
                    if to_workers.push(Seq { seq, item: full }).is_err() {
                        break 'stream;
                    }
                    seq += 1;
                }
                let g = Seq {
                    seq,
                    item: Done::Gap(from, to),
                };
                if to_merge.push(g).is_err() {
                    break 'stream;
                }
                seq += 1;
            }
            SourceBlock::Tweets(b) => {
                for &i in &b.sel {
                    let tweet = &log[i as usize];
                    let ts = tweet.created_at;
                    if let Some(wm) = next_wm {
                        if ts >= wm {
                            clock.advance_to(ts);
                            if !batch.is_empty() {
                                let full = std::mem::replace(&mut batch, fresh(&live));
                                if to_workers.push(Seq { seq, item: full }).is_err() {
                                    break 'stream;
                                }
                                seq += 1;
                            }
                            let last = ts.truncate(wm_interval);
                            let mut bdy = wm;
                            while bdy <= last {
                                let w = Seq {
                                    seq,
                                    item: Done::Watermark(bdy),
                                };
                                if to_merge.push(w).is_err() {
                                    break 'stream;
                                }
                                seq += 1;
                                bdy += wm_interval;
                            }
                        }
                    }
                    next_wm = Some(ts.truncate(wm_interval) + wm_interval);
                    match &mut batch {
                        Work::Tweets(tb) => tb.push_index(i),
                        Work::Rows(rows) => rows.push(match &live {
                            Some(l) => Record::from_tweet_pruned(tweet, l),
                            None => Record::from_tweet(tweet),
                        }),
                    }
                    if batch.len() >= batch_size {
                        clock.advance_to(ts);
                        let full = std::mem::replace(&mut batch, fresh(&live));
                        if to_workers.push(Seq { seq, item: full }).is_err() {
                            break 'stream;
                        }
                        seq += 1;
                    }
                }
            }
        }
    }
    clock.advance_to(src.frontier());
    if !batch.is_empty() {
        let _ = to_workers.push(Seq { seq, item: batch });
    }
    to_workers.close();
    (src.stats(), src.fault_stats())
}

/// Worker thread: stateless prefix (and optional pre-aggregation) over
/// each batch, results pushed with their sequence numbers.
fn worker_loop(
    mut ops: Vec<Box<dyn Operator>>,
    mut builder: Option<PartialAggBuilder>,
    to_workers: &Chan<Seq<Work>>,
    to_merge: &Chan<Seq<Done>>,
    recycle: &Chan<Vec<Record>>,
    recycle_tb: &Chan<TweetBatch>,
) -> (Vec<OpStats>, OpStats, DecodeStats) {
    let mut stats = vec![OpStats::default(); ops.len()];
    let mut builder_stat = OpStats::default();
    // Thread-local spare buffers for intermediate stages; drained
    // inputs drop back in here, so a worker's steady state allocates
    // nothing per batch.
    let mut spares: Vec<Vec<Record>> = Vec::new();
    // Columns built for the prefix's columnar head, and the identity
    // selection it is handed (workers own their batches whole).
    let mut decode = DecodeStats::default();
    let mut identity: Vec<u32> = Vec::new();
    while let Some(Seq { seq, item }) = to_workers.pop() {
        let mut failed: Option<QueryError> = None;
        // Stages already consumed before the generic row loop below.
        let mut start = 0;
        let mut cur = match item {
            Work::Rows(rows) => rows,
            Work::Tweets(mut tb) => {
                // Columnar head: the first stage consumes the batch
                // directly (a fused scan materializes only the columns
                // it reads); anything else gets the row shim.
                let mut rows = spares
                    .pop()
                    .or_else(|| recycle.try_pop())
                    .unwrap_or_default();
                rows.clear();
                if let Some(op) = ops.first_mut() {
                    start = 1;
                    stats[0].records_in += tb.len() as u64;
                    stats[0].batches += 1;
                    let t0 = Instant::now();
                    let columnar = match op.wants_tweet_batch() {
                        Some(cols) => {
                            if !cols.is_empty() {
                                decode.merge(&tb.materialize(cols));
                            }
                            true
                        }
                        None => false,
                    };
                    let res = if columnar {
                        op.on_tweet_batch(&tb, full_sel(&mut identity, tb.len()), &mut rows)
                    } else {
                        // Row shim with a pooled buffer (the trait's
                        // default allocates a fresh Vec per batch).
                        let mut recs = spares.pop().unwrap_or_default();
                        recs.clear();
                        tb.append_records(&mut recs);
                        let res = op.on_batch(&mut recs, &mut rows);
                        recs.clear();
                        spares.push(recs);
                        res
                    };
                    stats[0].busy_nanos += t0.elapsed().as_nanos() as u64;
                    match res {
                        Ok(()) => stats[0].records_out += rows.len() as u64,
                        Err(e) => {
                            failed = Some(e);
                            rows.clear();
                        }
                    }
                } else {
                    // Empty prefix (pre-aggregation only): materialize
                    // every live row, exactly like the row decoder.
                    tb.append_records(&mut rows);
                }
                tb.reset();
                let _ = recycle_tb.try_push(tb);
                rows
            }
        };
        for (i, op) in ops.iter_mut().enumerate().skip(start) {
            if failed.is_some() {
                break;
            }
            stats[i].records_in += cur.len() as u64;
            stats[i].batches += 1;
            let mut next = spares.pop().unwrap_or_default();
            next.clear();
            let t0 = Instant::now();
            let res = op.on_batch(&mut cur, &mut next);
            stats[i].busy_nanos += t0.elapsed().as_nanos() as u64;
            // `cur` is drained now. The first stage's input came from
            // the decoder's pool; hand it back. Later inputs are this
            // worker's own scratch.
            let drained = std::mem::replace(&mut cur, next);
            if i == 0 {
                let _ = recycle.try_push(drained);
            } else {
                spares.push(drained);
            }
            match res {
                Ok(()) => stats[i].records_out += cur.len() as u64,
                Err(e) => {
                    failed = Some(e);
                    cur.clear();
                    break;
                }
            }
        }
        let done = match failed {
            Some(e) => Done::Error(e),
            None => match &mut builder {
                Some(b) => {
                    let t0 = Instant::now();
                    let built = b.build(&cur);
                    builder_stat.busy_nanos += t0.elapsed().as_nanos() as u64;
                    cur.clear();
                    if ops.is_empty() {
                        let _ = recycle.try_push(std::mem::take(&mut cur));
                    } else {
                        spares.push(std::mem::take(&mut cur));
                    }
                    match built {
                        Ok(table) => Done::Partial(table),
                        Err(e) => Done::Error(e),
                    }
                }
                None => Done::Rows(cur),
            },
        };
        if to_merge.push(Seq { seq, item: done }).is_err() {
            break; // merge stopped early (LIMIT or error)
        }
    }
    (stats, builder_stat, decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::supervise::RetryPolicy;
    use tweeql_firehose::{FilterSpec, StreamingApi};
    use tweeql_model::{Tweet, VirtualClock};

    fn supervised(api: &StreamingApi) -> SupervisedSource {
        SupervisedSource::new(
            api.clone(),
            FilterSpec::Sample(1.0),
            None,
            RetryPolicy::default(),
            0,
        )
    }

    #[test]
    fn decoder_emits_every_intermediate_watermark() {
        // Two tweets 4.7s apart with a 1s watermark interval: the gap
        // must produce watermarks 1,2,3,4,5 — not just the last one.
        let tweets = vec![
            Tweet::builder(1, "a")
                .at(Timestamp::from_millis(500))
                .build(),
            Tweet::builder(2, "b")
                .at(Timestamp::from_millis(5200))
                .build(),
        ];
        let api = StreamingApi::new(tweets, VirtualClock::new());
        for columnar in [false, true] {
            let to_workers: Chan<Seq<Work>> = Chan::bounded(64);
            let to_merge: Chan<Seq<Done>> = Chan::bounded(64);
            let recycle: Chan<Vec<Record>> = Chan::bounded(64);
            let recycle_tb: Chan<TweetBatch> = Chan::bounded(64);
            decode_loop(
                supervised(&api),
                &to_workers,
                &to_merge,
                &recycle,
                &recycle_tb,
                8,
                Duration::from_secs(1),
                None,
                columnar,
            );
            to_merge.close();

            let mut batches = Vec::new();
            while let Some(Seq { seq, item }) = to_workers.pop() {
                assert_eq!(
                    matches!(item, Work::Tweets(_)),
                    columnar,
                    "payload kind must follow the decode mode"
                );
                batches.push((seq, item.len()));
            }
            let mut wms = Vec::new();
            while let Some(Seq { seq, item }) = to_merge.pop() {
                if let Done::Watermark(w) = item {
                    wms.push((seq, w.millis()));
                }
            }
            // Batch before the boundary (seq 0), five watermarks
            // (1..=5), final batch (seq 6) — same cuts in both modes.
            assert_eq!(batches, vec![(0, 1), (6, 1)]);
            assert_eq!(
                wms,
                vec![(1, 1000), (2, 2000), (3, 3000), (4, 4000), (5, 5000)]
            );
        }
    }

    #[test]
    fn decoder_cuts_batches_at_size() {
        let tweets: Vec<Tweet> = (0..10)
            .map(|i| {
                Tweet::builder(i + 1, "x")
                    .at(Timestamp::from_millis(i as i64 * 10))
                    .build()
            })
            .collect();
        let api = StreamingApi::new(tweets, VirtualClock::new());
        for columnar in [false, true] {
            let to_workers: Chan<Seq<Work>> = Chan::bounded(64);
            let to_merge: Chan<Seq<Done>> = Chan::bounded(64);
            let recycle: Chan<Vec<Record>> = Chan::bounded(64);
            let recycle_tb: Chan<TweetBatch> = Chan::bounded(64);
            decode_loop(
                supervised(&api),
                &to_workers,
                &to_merge,
                &recycle,
                &recycle_tb,
                4,
                Duration::from_secs(60),
                None,
                columnar,
            );
            let mut sizes = Vec::new();
            while let Some(Seq { item, .. }) = to_workers.pop() {
                sizes.push(item.len());
            }
            assert_eq!(sizes, vec![4, 4, 2]);
        }
    }
}
