//! Push-based streaming operators.
//!
//! Every operator consumes records and punctuation (watermarks) and
//! pushes results downstream. Watermarks are what make replay
//! deterministic: time windows flush on watermark, not on wall clock.

// Only the submodules external code actually needs stay public: `fused`
// (E8 drives its conjunct re-ranker directly) and `supervise`
// (fault-tolerance tests build `RetryPolicy` / consume `SourceEvent`s).
// The rest are lowering details reachable only through `plan::plan`,
// and `feed`, the source half of the host's one drive loop.
pub(crate) mod aggregate;
pub(crate) mod asyncop;
pub(crate) mod confidence;
pub(crate) mod feed;
pub(crate) mod filter;
pub mod fused;
pub(crate) mod join;
mod keys;
pub(crate) mod limit;
pub(crate) mod project;
pub mod supervise;
pub(crate) mod topk;

use crate::error::QueryError;
use std::time::Instant;
use tweeql_geo::breaker::ServiceHealth;
use tweeql_model::{Duration, Record, RowBatch, SchemaRef, Timestamp, TweetBatch};
use tweeql_obs::{Histogram, SpanKind, Tracer};

/// A streaming operator.
pub trait Operator: Send {
    /// Operator name for stats/EXPLAIN.
    fn name(&self) -> &str;

    /// Output schema.
    fn schema(&self) -> SchemaRef;

    /// Consume one record, pushing any outputs.
    fn on_record(&mut self, rec: Record, out: &mut Vec<Record>) -> Result<(), QueryError>;

    /// Consume a micro-batch of records, pushing any outputs.
    ///
    /// The operator takes the records by draining `recs` — it must
    /// leave the vector empty — so the *caller keeps the allocation*
    /// and can refill it for the next batch instead of allocating a
    /// fresh `Vec` per flush.
    ///
    /// The default loops [`Operator::on_record`]; operators with a
    /// cheaper vectorized path (filter, project, fused scans, async
    /// UDFs) override it to amortize dispatch and pre-size buffers.
    fn on_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        for rec in recs.drain(..) {
            self.on_record(rec, out)?;
        }
        Ok(())
    }

    /// True when this operator consumes columnar [`TweetBatch`]es
    /// natively via [`Operator::on_tweet_batch`]. Only source-side
    /// stages over the `twitter` stream opt in; a pipeline whose head
    /// returns `false` gets rows instead.
    fn reads_tweet_batch(&self) -> bool {
        false
    }

    /// Consume the rows of a columnar tweet batch listed in `sel`
    /// (ascending row indexes), pushing row outputs.
    ///
    /// The batch is shared and read-only — the standing-query host
    /// hands the same one to every query that selected rows from it —
    /// and the caller resets it afterward. A column the operator reads
    /// through [`TweetBatch::view`] is built by the first reader of
    /// the batch to view it and shared with the rest. The default is
    /// the row shim: decode the selected rows as [`Record`]s and take
    /// the ordinary batch path;
    /// native implementations filter *before* decoding, which is where
    /// the columnar win comes from.
    fn on_tweet_batch(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        row_shim(self, batch, sel, out)
    }

    /// [`Operator::on_tweet_batch`] for the last stage of a pipeline:
    /// the rows go onto the pipeline's output batch. The default takes
    /// the row path through `rows` (scratch, left empty) and appends
    /// each row; a scan that reads the batch natively writes its
    /// columns straight into `out`.
    fn on_tweet_batch_rows(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        rows: &mut Vec<Record>,
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        self.on_tweet_batch(batch, sel, rows)?;
        emit(rows, out);
        Ok(())
    }

    /// Stream time has advanced to `wm`; flush anything due.
    fn on_watermark(&mut self, _wm: Timestamp, _out: &mut Vec<Record>) -> Result<(), QueryError> {
        Ok(())
    }

    /// True when the operator reacts to stream-time punctuation —
    /// it overrides [`Operator::on_watermark`] or [`Operator::on_gap`]
    /// with real behavior. For everything else punctuation is a no-op
    /// traversal: a pipeline of only time-insensitive operators takes
    /// every batch whole and is never shown a watermark or a gap.
    /// A time-sensitive operator says *which* watermarks matter through
    /// [`Operator::next_deadline`].
    fn time_sensitive(&self) -> bool {
        false
    }

    /// A lower bound on the first watermark that can change this
    /// operator's state or output, given its current state and that the
    /// earliest row it has not yet been shown is at `unseen` (`None`:
    /// no such row is in sight). `None` means no watermark ever will.
    ///
    /// The contract the pipeline's punctuation walk rests on: a
    /// watermark *below* the returned deadline leaves
    /// [`Operator::state_digest`] and the output untouched, and stays a
    /// no-op after the operator is fed any rows at or after `unseen`.
    /// Too low an answer only costs a delivery that does nothing; the
    /// default — every watermark, for a [`time_sensitive`]
    /// (Operator::time_sensitive) operator — is always sound.
    fn next_deadline(&self, _unseen: Option<Timestamp>) -> Option<Timestamp> {
        self.time_sensitive().then_some(Timestamp::MIN)
    }

    /// A lower bound on the timestamps of rows this operator has taken
    /// in and may still emit (`None`: it holds nothing back). The stages
    /// after it have not seen those rows, so the pipeline lowers their
    /// `unseen` to this. The default suits operators that emit a row
    /// when it arrives or never; a time-sensitive operator that does
    /// not say is taken to hold rows from the beginning of time.
    fn holds_since(&self) -> Option<Timestamp> {
        self.time_sensitive().then_some(Timestamp::MIN)
    }

    /// The source lost coverage over `[from, to)` (a disconnect the
    /// supervisor could not fully replay). Windowed aggregates record
    /// the interval so affected windows can be flagged as
    /// under-sampled; everything else ignores it.
    fn on_gap(
        &mut self,
        _from: Timestamp,
        _to: Timestamp,
        _out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        Ok(())
    }

    /// End of stream; flush everything.
    fn finish(&mut self, _out: &mut Vec<Record>) -> Result<(), QueryError> {
        Ok(())
    }

    /// True once the operator will never emit again (e.g. LIMIT
    /// reached); lets the engine stop pulling the source early.
    fn done(&self) -> bool {
        false
    }

    /// Window start timestamps this operator flagged as under-sampled
    /// because of source coverage gaps (windowed aggregates only).
    fn gap_windows(&self) -> Vec<Timestamp> {
        Vec::new()
    }

    /// Health counters of the remote service behind this operator, if
    /// any (async web-service UDF stages).
    fn service_health(&self) -> Option<ServiceHealth> {
        None
    }

    /// Operator-specific counters for the metrics registry and the
    /// profiler (e.g. windows emitted, conjunct re-ranks). Keys become
    /// `tweeql_<key>_total{op=...}` metric families; values must be
    /// deterministic for a seeded run.
    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Fold this operator's *semantic* state into a durability digest.
    ///
    /// The contract: two operators that would emit identical output for
    /// every possible future input sequence must digest identically —
    /// and the digest must not depend on micro-batch cut points, which
    /// differ between a live run and its recovery replay. Stateless
    /// operators (the default) contribute nothing; windowed aggregates
    /// and LIMIT override this so checkpoint verification can catch
    /// replay divergence.
    fn state_digest(&self, _d: &mut tweeql_wal::Digest) {}
}

/// The earlier of two optional points in stream time, `None` standing
/// for "never" (deadlines) or "nothing" (rows held or unseen).
pub(crate) fn earlier(a: Option<Timestamp>, b: Option<Timestamp>) -> Option<Timestamp> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Append `rows` to `out` (draining them): where a last stage's records
/// become the pipeline's output.
pub(crate) fn emit(rows: &mut Vec<Record>, out: &mut RowBatch) {
    rows.drain(..).for_each(|r| out.push_record(&r));
}

/// The row shim behind [`Operator::on_tweet_batch`]: decode the selected
/// rows and take the batch path.
pub(crate) fn row_shim<O: Operator + ?Sized>(
    op: &mut O,
    batch: &TweetBatch,
    sel: &[u32],
    out: &mut Vec<Record>,
) -> Result<(), QueryError> {
    let mut recs = sel.iter().map(|&i| batch.record_at(i as usize)).collect();
    op.on_batch(&mut recs, out)
}

/// Per-operator tuple counters and timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Records consumed.
    pub records_in: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Micro-batches consumed via the vectorized path (0 for purely
    /// record-at-a-time stages).
    pub batches: u64,
    /// Wall time spent inside the operator, in nanoseconds.
    pub busy_nanos: u64,
    /// Remote-service health, for stages backed by a web service.
    pub health: Option<ServiceHealth>,
}

/// Open trace spans for one pipeline run.
struct TraceCtx {
    tracer: Tracer,
    /// One open Operator span per stage (parallel to `Pipeline::ops`).
    op_spans: Vec<u64>,
    /// Stage names as opened, so the close events match.
    op_names: Vec<String>,
    /// Parent query span id.
    query_span: u64,
}

/// Observability hooks attached to a pipeline for one query run.
///
/// All timestamps are *stream time*: batch spans are stamped with the
/// batch's last record timestamp and punctuation advances `last_ts`, so
/// a seeded replay emits byte-identical traces (a wall clock never
/// leaks in).
pub struct PipelineObs {
    trace: Option<TraceCtx>,
    /// Rows per pipeline entry (`tweeql_batch_rows`): one observation
    /// per record batch and per *segment* of a tweet batch — the rows
    /// between two watermarks that were due — so it reads how wide the
    /// operators really ran, not where the source cut.
    batch_rows: Histogram,
    /// High-water stream time seen by this run, milliseconds.
    last_ts: i64,
}

impl PipelineObs {
    /// Latest stream time the run has reached (for closing the query
    /// span at a deterministic timestamp).
    pub fn last_ts(&self) -> i64 {
        self.last_ts
    }
}

/// A linear chain of operators with per-stage stats.
///
/// Its output is a [`RowBatch`] the caller owns: every entry point
/// appends the rows the last stage emits. Between stages rows are
/// records, in two scratch buffers that ping-pong, so steady-state
/// pushes allocate nothing beyond what operators themselves allocate;
/// a last stage's records are copied into the output as they leave.
pub struct Pipeline {
    ops: Vec<Box<dyn Operator>>,
    stats: Vec<OpStats>,
    cur: Vec<Record>,
    next: Vec<Record>,
    /// Head-stage output (or shimmed rows) of a tweet batch in flight.
    staged: Vec<Record>,
    obs: Option<PipelineObs>,
    /// Whether any stage reacts to punctuation (fixed at construction).
    time_sensitive: bool,
    /// Watermarks run through the stages (not the ones skipped as
    /// below the deadline).
    watermarks_delivered: u64,
}

impl Pipeline {
    /// Build from a stage list (source side first).
    pub fn new(ops: Vec<Box<dyn Operator>>) -> Pipeline {
        let stats = vec![OpStats::default(); ops.len()];
        Pipeline {
            time_sensitive: ops.iter().any(|o| o.time_sensitive()),
            watermarks_delivered: 0,
            ops,
            stats,
            cur: Vec::new(),
            next: Vec::new(),
            staged: Vec::new(),
            obs: None,
        }
    }

    /// Attach metrics/tracing for one run. When `trace` carries a
    /// tracer and an open query span, one Operator span per stage is
    /// opened at `start_ts_ms` (virtual stream time).
    pub fn attach_obs(
        &mut self,
        trace: Option<(Tracer, u64)>,
        registry: &tweeql_obs::MetricsRegistry,
        start_ts_ms: i64,
    ) {
        let trace = trace.map(|(tracer, query_span)| {
            let op_names: Vec<String> = self.ops.iter().map(|o| o.name().to_string()).collect();
            let op_spans = op_names
                .iter()
                .map(|name| tracer.start(SpanKind::Operator, name, Some(query_span), start_ts_ms))
                .collect();
            TraceCtx {
                tracer,
                op_spans,
                op_names,
                query_span,
            }
        });
        self.obs = Some(PipelineObs {
            trace,
            batch_rows: registry.histogram("tweeql_batch_rows", &[]),
            last_ts: start_ts_ms,
        });
    }

    /// Close the run's operator spans (at the last stream time seen)
    /// and detach the observability hooks, returning them so the engine
    /// can close the query span at the same timestamp.
    pub fn close_obs(&mut self) -> Option<PipelineObs> {
        let obs = self.obs.take()?;
        if let Some(ctx) = &obs.trace {
            for (i, &span) in ctx.op_spans.iter().enumerate() {
                ctx.tracer.end(
                    span,
                    Some(ctx.query_span),
                    SpanKind::Operator,
                    &ctx.op_names[i],
                    obs.last_ts,
                    self.stats[i].records_out,
                );
            }
        }
        Some(obs)
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when there are no stages (records pass through).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Schema of the final stage (None when empty).
    pub fn output_schema(&self) -> Option<SchemaRef> {
        self.ops.last().map(|o| o.schema())
    }

    /// `(name, stats)` per stage, with current service health attached
    /// for stages backed by a remote service.
    pub fn stage_stats(&self) -> Vec<(String, OpStats)> {
        self.ops
            .iter()
            .zip(&self.stats)
            .map(|(o, s)| {
                let mut s = *s;
                if let Some(h) = o.service_health() {
                    s.health = Some(h);
                }
                (o.name().to_string(), s)
            })
            .collect()
    }

    /// Operator-specific metric counters per stage, aligned with
    /// [`Pipeline::stage_stats`] (empty for stages with none).
    pub fn stage_metric_counters(&self) -> Vec<Vec<(&'static str, u64)>> {
        self.ops.iter().map(|o| o.metric_counters()).collect()
    }

    /// True once the pipeline will never produce more output.
    pub fn done(&self) -> bool {
        self.ops.iter().any(|o| o.done())
    }

    /// Fold every stage's semantic state into `d`, prefixed by the
    /// stage name so a plan-shape change (different operators, not just
    /// different state) also diverges the digest.
    pub fn state_digest(&self, d: &mut tweeql_wal::Digest) {
        d.write_u64(self.ops.len() as u64);
        for op in &self.ops {
            d.write_str(op.name());
            op.state_digest(d);
        }
    }

    /// True when any stage reacts to watermarks or coverage gaps;
    /// false means the pipeline never needs to be shown either.
    pub fn time_sensitive(&self) -> bool {
        self.time_sensitive
    }

    /// The first watermark that can change anything in this pipeline
    /// ([`Operator::next_deadline`] folded over the stages), given that
    /// the earliest source row not yet pushed is at `unseen`. Each stage
    /// is asked with `unseen` lowered to what the stages before it
    /// still hold back ([`Operator::holds_since`]).
    pub fn next_deadline(&self, mut unseen: Option<Timestamp>) -> Option<Timestamp> {
        let mut deadline = None;
        for op in &self.ops {
            deadline = earlier(deadline, op.next_deadline(unseen));
            unseen = earlier(unseen, op.holds_since());
        }
        deadline
    }

    /// Watermarks this pipeline's stages have been run through — the
    /// ones at or past a deadline, not every boundary the stream crossed.
    pub fn watermarks_delivered(&self) -> u64 {
        self.watermarks_delivered
    }

    /// Push a micro-batch through every stage via the operators' batch
    /// path. Drains `recs`, leaving the caller its allocation.
    pub fn push_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        if self.ops.is_empty() {
            emit(recs, out);
            return Ok(());
        }
        let batch_ts = self.observe_batch(recs.len(), recs.last().map(Record::timestamp));
        self.batch_stages(0, recs, batch_ts, out)
    }

    /// Push the rows of a columnar [`TweetBatch`] listed in `sel`
    /// (ascending) through every stage — the one columnar entry point:
    /// a lone query gets the full selection, and a host with several
    /// queries gives each its share of the batch it holds for all.
    ///
    /// Punctuation rides in the batch ([`TweetBatch::crossings`]) and is
    /// resolved here, against this pipeline's own deadline
    /// ([`Pipeline::next_deadline`]): the rows before the first crossing
    /// that reaches the deadline enter as one segment, then the
    /// watermarks from the first boundary at or past the deadline are
    /// delivered, re-asking the deadline after each. Every watermark
    /// skipped is below the deadline, hence a no-op by the operators'
    /// contract — so the stages see exactly the rows and effective
    /// watermarks, in exactly the order, that a flush at every boundary
    /// would have shown them, wherever the batch happens to be cut. A
    /// pipeline that is [`done`](Pipeline::done) takes nothing further.
    ///
    /// Per segment: when the first stage consumes tweet batches
    /// natively ([`Operator::reads_tweet_batch`]), it reads the batch
    /// directly and only its output becomes records for the downstream
    /// stages; when it is also the last stage, its rows go straight
    /// into `out` ([`Operator::on_tweet_batch_rows`]). Otherwise the
    /// selected rows cross the row shim first — behaviorally identical
    /// to decoding rows at the source, including stats, batch spans,
    /// and the batch-rows histogram (observed once per segment, like
    /// [`Pipeline::push_batch`]).
    pub fn push_tweet_batch(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        let crossings = batch.crossings();
        if crossings.is_empty() || !self.time_sensitive {
            return self.push_segment(batch, sel, out);
        }
        // The earliest row not yet pushed: the next one, unless the
        // source delivered out of order (a reorder the supervisor could
        // not heal), in which case the rest is searched.
        let ts = |&i: &u32| batch.ts(i as usize);
        let ordered = sel.windows(2).all(|w| ts(&w[0]) <= ts(&w[1]));
        let unseen = |pos: usize| match ordered {
            true => sel.get(pos).map(ts),
            false => sel[pos..].iter().map(ts).min(),
        };
        let mut pos = 0;
        let mut deadline = self.next_deadline(unseen(pos));
        for &(before_row, crossed) in crossings {
            let Some(due) = deadline else { break };
            if crossed.last < due {
                continue;
            }
            let end = pos + sel[pos..].partition_point(|&i| i < before_row);
            if end > pos {
                self.push_segment(batch, &sel[pos..end], out)?;
                pos = end;
                if self.done() {
                    return Ok(());
                }
                deadline = self.next_deadline(unseen(pos));
            }
            let mut from = crossed.first;
            while let Some(wm) = deadline.and_then(|due| crossed.at_or_after(due.max(from))) {
                self.watermark(wm, out)?;
                if self.done() || wm == crossed.last {
                    break;
                }
                from = wm.saturating_add(Duration::from_millis(1));
                deadline = self.next_deadline(unseen(pos));
            }
            if self.done() {
                return Ok(());
            }
        }
        if pos < sel.len() {
            self.push_segment(batch, &sel[pos..], out)?;
        }
        Ok(())
    }

    /// One run of rows with no watermark due among them, through every
    /// stage.
    fn push_segment(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        let last_ts = sel.last().map(|&i| batch.ts(i as usize));
        let batch_ts = self.observe_batch(sel.len(), last_ts);
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        let columnar = self.ops.first().is_some_and(|o| o.reads_tweet_batch());
        let res = match (columnar, self.ops.len()) {
            (true, 1) => self.stage(0, batch_ts, sel.len(), out, RowBatch::len, |op, out| {
                op.on_tweet_batch_rows(batch, sel, &mut staged, out)
            }),
            (true, _) => self.stage(0, batch_ts, sel.len(), &mut staged, Vec::len, |op, next| {
                op.on_tweet_batch(batch, sel, next)
            }),
            (false, _) => {
                staged.extend(sel.iter().map(|&i| batch.record_at(i as usize)));
                Ok(())
            }
        };
        let res =
            res.and_then(|()| self.batch_stages(usize::from(columnar), &mut staged, batch_ts, out));
        staged.clear();
        self.staged = staged;
        res
    }

    /// Record one pipeline entry of `rows` rows ending at `last_ts` in
    /// the batch-rows histogram and the stream-time high-water mark;
    /// returns the timestamp batch spans are stamped with.
    fn observe_batch(&mut self, rows: usize, last_ts: Option<Timestamp>) -> i64 {
        let Some(o) = self.obs.as_mut() else {
            return 0;
        };
        o.batch_rows.observe(rows as u64);
        if let Some(last) = last_ts {
            o.last_ts = o.last_ts.max(last.millis());
        }
        o.last_ts
    }

    /// Run `recs` through stages `start..` on the operators' batch
    /// path, ping-ponging between the two scratch buffers.
    fn batch_stages(
        &mut self,
        start: usize,
        recs: &mut Vec<Record>,
        batch_ts: i64,
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        if start >= self.ops.len() {
            emit(recs, out);
            return Ok(());
        }
        let mut cur = std::mem::take(&mut self.cur);
        let mut next = std::mem::take(&mut self.next);
        let mut res = Ok(());
        for i in start..self.ops.len() {
            let input: &mut Vec<Record> = if i == start { recs } else { &mut cur };
            next.clear();
            res = self.stage(i, batch_ts, input.len(), &mut next, Vec::len, |op, next| {
                op.on_batch(input, next)
            });
            if res.is_err() {
                break;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        if res.is_ok() {
            emit(&mut cur, out);
        }
        self.cur = cur;
        self.next = next;
        res
    }

    /// One batch-path call into stage `i`, with its stats, busy time
    /// and batch span. The stage's rows out are what it added to
    /// `next` (rows counted by `len`).
    fn stage<T>(
        &mut self,
        i: usize,
        batch_ts: i64,
        rows_in: usize,
        next: &mut T,
        len: fn(&T) -> usize,
        call: impl FnOnce(&mut dyn Operator, &mut T) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        self.stats[i].records_in += rows_in as u64;
        self.stats[i].batches += 1;
        let span = Self::batch_span_open(&self.obs, i, batch_ts);
        let before = len(next);
        let t0 = Instant::now();
        let res = call(self.ops[i].as_mut(), next);
        self.stats[i].busy_nanos += t0.elapsed().as_nanos() as u64;
        let rows_out = len(next).saturating_sub(before) as u64;
        self.stats[i].records_out += rows_out;
        Self::batch_span_close(&self.obs, span, batch_ts, rows_out);
        res
    }

    /// Open a batch span under stage `i`'s operator span, if tracing.
    fn batch_span_open(
        obs: &Option<PipelineObs>,
        i: usize,
        batch_ts: i64,
    ) -> Option<(u64, Option<u64>)> {
        obs.as_ref().and_then(|o| o.trace.as_ref()).map(|ctx| {
            let parent = Some(ctx.op_spans[i]);
            (
                ctx.tracer.start(SpanKind::Batch, "batch", parent, batch_ts),
                parent,
            )
        })
    }

    /// Close a span opened by [`Pipeline::batch_span_open`].
    fn batch_span_close(
        obs: &Option<PipelineObs>,
        span: Option<(u64, Option<u64>)>,
        batch_ts: i64,
        rows_out: u64,
    ) {
        if let (Some((span, parent)), Some(ctx)) =
            (span, obs.as_ref().and_then(|o| o.trace.as_ref()))
        {
            ctx.tracer
                .end(span, parent, SpanKind::Batch, "batch", batch_ts, rows_out);
        }
    }

    /// Propagate a watermark through every stage.
    pub fn watermark(&mut self, wm: Timestamp, out: &mut RowBatch) -> Result<(), QueryError> {
        self.cur.clear();
        self.watermarks_delivered += 1;
        self.advance_obs_ts(wm);
        self.run(None, Some(wm), false, out)
    }

    /// Advance the observed stream time high-water mark (punctuation
    /// carries time forward even when no records do).
    fn advance_obs_ts(&mut self, ts: Timestamp) {
        if let Some(o) = self.obs.as_mut() {
            // `Timestamp::MAX` is the end-of-stream sentinel; letting it
            // into the trace would destroy the "stamped in stream time"
            // reading, so it is ignored.
            if ts != Timestamp::MAX {
                o.last_ts = o.last_ts.max(ts.millis());
            }
        }
    }

    /// Propagate a source coverage gap `[from, to)` through every stage.
    pub fn gap(
        &mut self,
        from: Timestamp,
        to: Timestamp,
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        self.cur.clear();
        self.advance_obs_ts(to);
        self.run(Some((from, to)), None, false, out)
    }

    /// Window start timestamps the aggregate stage (if any) flagged as
    /// under-sampled because of source coverage gaps.
    pub fn gap_windows(&self) -> Vec<Timestamp> {
        self.ops.iter().flat_map(|o| o.gap_windows()).collect()
    }

    /// End of stream: flush every stage in order.
    pub fn finish(&mut self, out: &mut RowBatch) -> Result<(), QueryError> {
        self.cur.clear();
        self.run(None, None, true, out)
    }

    /// Run `self.cur` (plus optional punctuation / finish) through every
    /// stage, ping-ponging between the two scratch buffers.
    fn run(
        &mut self,
        gap: Option<(Timestamp, Timestamp)>,
        wm: Option<Timestamp>,
        finishing: bool,
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        for i in 0..self.ops.len() {
            let op = &mut self.ops[i];
            self.next.clear();
            self.stats[i].records_in += self.cur.len() as u64;
            let t0 = Instant::now();
            if !self.cur.is_empty() {
                op.on_batch(&mut self.cur, &mut self.next)?;
            }
            if let Some((from, to)) = gap {
                op.on_gap(from, to, &mut self.next)?;
            }
            if let Some(w) = wm {
                op.on_watermark(w, &mut self.next)?;
            }
            if finishing {
                op.finish(&mut self.next)?;
            }
            self.stats[i].busy_nanos += t0.elapsed().as_nanos() as u64;
            self.stats[i].records_out += self.next.len() as u64;
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        emit(&mut self.cur, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use tweeql_model::{DataType, Schema, Value};

    /// Doubles every record's single int column; drops odd inputs.
    struct EvenDoubler {
        schema: SchemaRef,
    }

    impl Operator for EvenDoubler {
        fn name(&self) -> &str {
            "even_doubler"
        }
        fn schema(&self) -> SchemaRef {
            self.schema.clone()
        }
        fn on_record(&mut self, rec: Record, out: &mut Vec<Record>) -> Result<(), QueryError> {
            let v = rec.value(0).as_int().unwrap_or(0);
            if v % 2 == 0 {
                out.push(rec.with_shape(self.schema.clone(), vec![Value::Int(v * 2)]));
            }
            Ok(())
        }
    }

    /// Buffers everything until a watermark or finish.
    struct Buffered {
        schema: SchemaRef,
        held: Vec<Record>,
    }

    impl Operator for Buffered {
        fn name(&self) -> &str {
            "buffered"
        }
        fn schema(&self) -> SchemaRef {
            self.schema.clone()
        }
        fn on_record(&mut self, rec: Record, _out: &mut Vec<Record>) -> Result<(), QueryError> {
            self.held.push(rec);
            Ok(())
        }
        fn on_watermark(
            &mut self,
            _wm: Timestamp,
            out: &mut Vec<Record>,
        ) -> Result<(), QueryError> {
            out.append(&mut self.held);
            Ok(())
        }
        fn finish(&mut self, out: &mut Vec<Record>) -> Result<(), QueryError> {
            out.append(&mut self.held);
            Ok(())
        }
    }

    /// Passes records through, logging the size of each `on_batch`
    /// call with rows and counting `on_record` calls.
    struct Calls {
        schema: SchemaRef,
        batches: Arc<Mutex<Vec<usize>>>,
        records: Arc<Mutex<usize>>,
    }

    impl Operator for Calls {
        fn name(&self) -> &str {
            "calls"
        }
        fn schema(&self) -> SchemaRef {
            self.schema.clone()
        }
        fn on_record(&mut self, rec: Record, out: &mut Vec<Record>) -> Result<(), QueryError> {
            *self.records.lock() += 1;
            out.push(rec);
            Ok(())
        }
        fn on_batch(
            &mut self,
            recs: &mut Vec<Record>,
            out: &mut Vec<Record>,
        ) -> Result<(), QueryError> {
            if !recs.is_empty() {
                self.batches.lock().push(recs.len());
            }
            out.append(recs);
            Ok(())
        }
    }

    fn int_schema() -> SchemaRef {
        Schema::shared(&[("x", DataType::Int)])
    }

    fn rec(v: i64) -> Record {
        Record::new(int_schema(), vec![Value::Int(v)], Timestamp::ZERO).unwrap()
    }

    #[test]
    fn pipeline_chains_and_counts() {
        let mut p = Pipeline::new(vec![
            Box::new(EvenDoubler {
                schema: int_schema(),
            }),
            Box::new(EvenDoubler {
                schema: int_schema(),
            }),
        ]);
        let mut out = RowBatch::new(int_schema());
        let mut batch = vec![rec(1), rec(2), rec(3), rec(4)];
        p.push_batch(&mut batch, &mut out).unwrap();
        assert!(batch.is_empty(), "the batch is drained");
        // 2→4→8, 4→8→16 (all doubles stay even).
        let vals: Vec<i64> = (out.into_records().iter())
            .map(|r| r.value(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![8, 16]);
        let stats = p.stage_stats();
        assert_eq!(stats[0].1.records_in, 4);
        assert_eq!(stats[0].1.records_out, 2);
        assert_eq!(stats[1].1.records_in, 2);
        assert_eq!(stats[1].1.records_out, 2);
        assert_eq!(stats[0].1.batches, 1);
    }

    #[test]
    fn finish_flushes_buffered_stages_in_order() {
        let mut p = Pipeline::new(vec![
            Box::new(Buffered {
                schema: int_schema(),
                held: vec![],
            }),
            Box::new(EvenDoubler {
                schema: int_schema(),
            }),
        ]);
        let mut out = RowBatch::new(int_schema());
        p.push_batch(&mut vec![rec(2)], &mut out).unwrap();
        p.push_batch(&mut vec![rec(4)], &mut out).unwrap();
        assert!(out.is_empty(), "buffered stage holds records");
        p.finish(&mut out).unwrap();
        let vals: Vec<i64> = (out.into_records().iter())
            .map(|r| r.value(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![4, 8]);
    }

    #[test]
    fn a_watermark_release_reaches_the_next_stage_as_one_batch() {
        let (batches, records) = (Arc::default(), Arc::default());
        let mut p = Pipeline::new(vec![
            Box::new(Buffered {
                schema: int_schema(),
                held: vec![],
            }),
            Box::new(Calls {
                schema: int_schema(),
                batches: Arc::clone(&batches),
                records: Arc::clone(&records),
            }),
        ]);
        let mut out = RowBatch::new(int_schema());
        for v in 0..3 {
            p.push_batch(&mut vec![rec(v), rec(v + 10)], &mut out)
                .unwrap();
        }
        assert!(out.is_empty() && batches.lock().is_empty());
        p.watermark(Timestamp::from_secs(1), &mut out).unwrap();
        assert_eq!(out.len(), 6);
        // A watermark that releases nothing calls no stage with rows.
        p.watermark(Timestamp::from_secs(2), &mut out).unwrap();
        p.push_batch(&mut vec![rec(7)], &mut out).unwrap();
        p.watermark(Timestamp::from_secs(3), &mut out).unwrap();
        assert_eq!(*batches.lock(), vec![6, 1], "one on_batch per release");
        assert_eq!(*records.lock(), 0, "no row-at-a-time calls");
    }

    #[test]
    fn empty_pipeline_passes_through() {
        let mut p = Pipeline::new(vec![]);
        assert!(p.is_empty());
        let mut out = RowBatch::new(int_schema());
        p.push_batch(&mut vec![rec(7)], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert!(p.output_schema().is_none());
    }
}
