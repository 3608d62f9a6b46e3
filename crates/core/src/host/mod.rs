//! The standing-query host: one supervised firehose connection, many
//! live queries.
//!
//! [`QueryHost`] is the one drive from source to operators: a host owns
//! a **single** `Feed` (the source cursor and batch filler) and
//! dispatches every batch it flushes to its registered queries through
//! a shared-scan dispatcher (`Dispatch`). `pump_until`, `run_to_end`,
//! durable replay and [`crate::engine::Engine::execute`]'s
//! `run_query` are one loop each over that feed, differing only in
//! where they stop. `Engine::execute` runs its query on a host of its
//! own ([`QueryHost::one_query`]): one query, subscribed with the
//! pushdown filter the engine chose. A standing host subscribes to the
//! full stream.
//! The dispatcher:
//!
//! * **Common-filter index** ([`index`]) — every query's `contains`
//!   needles (taken from its optimized logical plan's pushdown
//!   candidates) are interned into one Aho-Corasick automaton. Each
//!   row's text is scanned once; a query whose conjunct groups all hit
//!   becomes a dispatch target. Queries without indexable needles
//!   dispatch unconditionally. The pipeline re-filters every row, so
//!   the prefilter only needs to over-approximate. Register and drop
//!   only intern needles and mark the index dirty; the automaton and
//!   the dispatch table are built once at the next pump entry, so a
//!   burst of registrations costs one build. The index is clean
//!   whenever a batch is non-empty.
//! * **Shared columnar dispatch** — each flush hands every selecting
//!   pipeline the host's one [`TweetBatch`] and its own selection
//!   vector ([`crate::exec::Pipeline::push_tweet_batch`]). A column an
//!   aggregate head reads is built by the first head to view it and
//!   shared with the rest (a scan head reads the tweets and views
//!   none); the dispatcher counts what was built
//!   ([`HostStats::decode`]) before it resets the batch. A lone query
//!   takes every row without the prefilter scan. A columnar head
//!   (fused scan, plain-column aggregate) never sees a [`Record`]; a
//!   row-only head gets one for each row it selected, no more.
//! * **Punctuation rides in the batch** — the feed only fills: each
//!   watermark-boundary crossing is recorded in the batch
//!   ([`TweetBatch::cross`]) and the batch is flushed when it is full,
//!   at a source gap, at the end of a pump or of the stream, and before
//!   register, drop and checkpoint. Each query's pipeline then delivers
//!   itself the watermarks that are due *to it*, between the right rows
//!   ([`crate::exec::Pipeline::push_tweet_batch`]), so what a query
//!   sees is a function of the stream alone — byte-identical to an
//!   independent engine run over the same seeded (even chaos-faulted)
//!   stream with pushdown disabled, wherever the flushes fall.
//!   `tests/standing_host.rs` enforces this differentially.
//!
//! Hosts are assembled through the same [`EngineBuilder`]
//! (`Engine::builder(api).fault_policy(plan).build_host()`), so fault
//! policy, UDF packs, metrics, tracing, and the `reference` switch
//! carry over unchanged.
//!
//! Each registered query gets a **private** registry and geo service,
//! so aggregate windows, dedup state, and service caches start fresh on
//! every registration — dropping and re-registering the same SQL never
//! resurrects stale state.

pub mod durable;
pub(crate) mod index;
#[cfg(test)]
mod tests;

use crate::catalog::Catalog;
use crate::engine::{Diagnostics, EngineBuilder, EngineConfig, RegistryFn};
use crate::error::QueryError;
use crate::exec::feed::{Feed, Next};
use crate::exec::supervise::SourceFaultStats;
use crate::exec::Pipeline;
use crate::plan::{prepare, PlannedQuery};
use crate::udf::Registry;
use index::{FilterIndex, NeedleGroups};
use std::sync::Arc;
use tweeql_firehose::api::ConnectionStats;
use tweeql_firehose::{FilterSpec, StreamingApi};
use tweeql_model::{
    Clock, Crossing, DecodeStats, Record, RowBatch, SchemaRef, Timestamp, TweetBatch, VirtualClock,
};
use tweeql_obs::{MetricsRegistry, QueryId, SpanKind, Tracer};

/// Lifecycle of a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// Receiving stream data.
    Running,
    /// Completed (LIMIT satisfied, stream ended, or finished at drop);
    /// results remain pollable until the query is dropped.
    Finished,
}

impl std::fmt::Display for QueryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryState::Running => write!(f, "running"),
            QueryState::Finished => write!(f, "finished"),
        }
    }
}

/// One row of [`QueryHost::list`].
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// The query's id.
    pub id: QueryId,
    /// The SQL as registered.
    pub sql: String,
    /// Running or finished.
    pub state: QueryState,
    /// Rows dispatched into the query's pipeline so far.
    pub rows_in: u64,
    /// Rows the query has emitted so far.
    pub rows_out: u64,
    /// Stream time at registration.
    pub registered_at: Timestamp,
    /// Whether the common-filter index prefilters this query's rows.
    pub indexed: bool,
}

/// Aggregate dispatcher statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Tweets the shared source delivered.
    pub tweets_delivered: u64,
    /// Micro-batches flushed through the dispatcher: one per
    /// `batch_size` tweets, plus the partial ones cut by a pump's end, a
    /// source gap, a register, a drop or a checkpoint — never by a
    /// watermark boundary.
    pub batches: u64,
    /// Rows entering query pipelines, summed over queries.
    pub rows_dispatched: u64,
    /// Batch rows at least one query selected (each counted once).
    pub rows_decoded: u64,
    /// Dispatched rows beyond a row's first consumer: what sharing the
    /// one batch saved over a decode per query.
    pub rows_shared: u64,
    /// Watermark boundaries the stream crossed. How many of them a
    /// query's pipeline actually ran is
    /// [`Pipeline::watermarks_delivered`](crate::exec::Pipeline::watermarks_delivered).
    pub watermarks: u64,
    /// Coverage gaps broadcast to the queries.
    pub gaps: u64,
    /// Times the filter automaton and dispatch table were built.
    pub index_rebuilds: u64,
    /// The batch columns the queries' heads built, summed over batches
    /// ([`TweetBatch::decode_stats`], read before each reset).
    pub decode: DecodeStats,
}

/// One registered standing query.
struct HostQuery {
    id: QueryId,
    sql: String,
    planned: PlannedQuery,
    /// Whether any pipeline stage reacts to watermarks/gaps; cached at
    /// registration so punctuation skips the (typically vast)
    /// stateless majority.
    time_sensitive: bool,
    groups: Option<NeedleGroups>,
    state: QueryState,
    /// Row indices selected from the current batch (dispatch scratch).
    sel: Vec<u32>,
    /// The rows emitted and not yet taken: the pipeline's output batch,
    /// appended to where the rows are made.
    pending: RowBatch,
    rows_in: u64,
    rows_out: u64,
    /// Rows to swallow before anything stays in `pending`:
    /// set during recovery to the query's logged cumulative
    /// `take_output` count, so a restart never re-delivers output the
    /// caller already took. Counted rows still increment `rows_out`.
    suppress: u64,
    registered_at: Timestamp,
    metrics: MetricsRegistry,
    tracer: Option<Tracer>,
    span: Option<u64>,
    retired: bool,
    /// [`crate::engine::Engine::execute`]'s query: the engine attached
    /// its obs and publishes its stats, and its drive
    /// ([`QueryHost::run_query`]) finishes it only after the pull has
    /// stopped.
    held: bool,
}

impl HostQuery {
    /// Run `push` on the pipeline with `pending` as its output, then
    /// count the rows it added and swallow the ones still suppressed.
    /// Rows are suppressed from the first ever emitted on, so while any
    /// are, `pending` holds nothing before them.
    fn push(
        &mut self,
        push: impl FnOnce(&mut Pipeline, &mut RowBatch) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        let before = self.pending.len();
        let res = push(&mut self.planned.pipeline, &mut self.pending);
        let fresh = (self.pending.len() - before) as u64;
        self.rows_out += fresh;
        if self.suppress > 0 && fresh > 0 {
            debug_assert_eq!(before, 0, "rows kept before a suppressed one");
            let swallowed = self.suppress.min(fresh);
            self.pending.drop_front(swallowed as usize);
            self.suppress -= swallowed;
        }
        res
    }

    /// After any push: when the pipeline reports done (LIMIT reached),
    /// finish it immediately, so a standing query's final output is
    /// pollable at once. A held query is left to its drive.
    fn check_done(&mut self) -> Result<(), QueryError> {
        if self.state == QueryState::Running && !self.held && self.planned.pipeline.done() {
            self.finish()?;
        }
        Ok(())
    }

    /// Finish the pipeline (final aggregate windows etc.) and retire.
    fn finish(&mut self) -> Result<(), QueryError> {
        if self.state == QueryState::Finished {
            return Ok(());
        }
        self.state = QueryState::Finished;
        self.push(|pipeline, out| pipeline.finish(out))?;
        self.retire();
        Ok(())
    }

    /// Publish the query's per-id labeled counters and close its trace
    /// span; runs exactly once per registration. Queries that never saw
    /// a row publish nothing — an absent per-query series reads as
    /// zero, and skipping it keeps retiring a quiet long tail cheap.
    fn retire(&mut self) {
        if self.retired || self.held {
            return;
        }
        self.retired = true;
        self.planned.pipeline.close_obs();
        // `tweeql_host_watermarks_delivered_total` against
        // `tweeql_host_watermarks_total` (boundaries crossed) is the
        // share of punctuation this query had any use for.
        let delivered = self.planned.pipeline.watermarks_delivered();
        if self.rows_in > 0 || self.rows_out > 0 || delivered > 0 {
            let label = self.id.label();
            let l = [("query", label.as_str())];
            let publish = |name, n| self.metrics.counter(name, &l).add(n);
            if self.rows_in > 0 || self.rows_out > 0 {
                publish("tweeql_host_rows_in_total", self.rows_in);
                publish("tweeql_host_rows_out_total", self.rows_out);
            }
            if delivered > 0 {
                publish("tweeql_host_watermarks_delivered_total", delivered);
            }
        }
        if let (Some(t), Some(span)) = (&self.tracer, self.span.take()) {
            t.end(
                span,
                None,
                SpanKind::Query,
                "standing",
                self.registered_at.millis(),
                self.rows_out,
            );
        }
    }
}

/// Inverted dispatch structure: per-needle subscription lists plus
/// version-stamped saturation counters, so the per-row selection cost
/// is O(automaton matches), never O(registered queries). Slot indices
/// are positions in `QueryHost::queries` and are rebuilt (with the
/// index) at the first pump after a register/drop.
#[derive(Default)]
struct DispatchTable {
    /// Query slots dispatched unconditionally (running, no indexable
    /// groups). These are inherently O(queries) per row — such a query
    /// wants every row anyway.
    always: Vec<u32>,
    /// Per query slot: how many conjunct groups must hit (0 for
    /// always/finished queries).
    group_count: Vec<u32>,
    /// Per needle id: the (query slot, flat group slot) pairs that
    /// needle satisfies.
    needle_subs: Vec<Vec<(u32, u32)>>,
    /// Row stamp marking `sat` valid for the current row.
    q_mark: Vec<u64>,
    /// Satisfied-group count for the current row.
    sat: Vec<u32>,
    /// Row stamp marking a flat group slot as already counted.
    g_mark: Vec<u64>,
    /// Monotone per-row version; never reset, so stale marks can't
    /// collide across batches or rebuilds.
    stamp: u64,
}

impl DispatchTable {
    /// Rebuild slot assignments from the current query set.
    fn rebuild(&mut self, queries: &[HostQuery], needle_count: usize) {
        self.always.clear();
        self.group_count.clear();
        self.group_count.resize(queries.len(), 0);
        self.needle_subs.clear();
        self.needle_subs.resize(needle_count, Vec::new());
        let mut flat_groups = 0u32;
        for (slot, q) in queries.iter().enumerate() {
            if q.state != QueryState::Running {
                continue;
            }
            match &q.groups {
                None => self.always.push(slot as u32),
                Some(groups) => {
                    self.group_count[slot] = groups.len() as u32;
                    for group in groups {
                        let g = flat_groups;
                        flat_groups += 1;
                        for &needle in group {
                            self.needle_subs[needle as usize].push((slot as u32, g));
                        }
                    }
                }
            }
        }
        self.q_mark.clear();
        self.q_mark.resize(queries.len(), 0);
        self.sat.clear();
        self.sat.resize(queries.len(), 0);
        self.g_mark.clear();
        self.g_mark.resize(flat_groups as usize, 0);
    }
}

/// A long-running multi-query host over one shared firehose connection.
///
/// ```ignore
/// let mut host = Engine::builder(api).build_host();
/// let id = host.register("SELECT text FROM twitter WHERE text contains 'obama'")?;
/// host.pump_until(Timestamp::from_mins(5))?;
/// for row in host.take_output(id)? { /* ... */ }
/// host.drop_query(id)?;
/// ```
pub struct QueryHost {
    config: EngineConfig,
    clock: Arc<VirtualClock>,
    catalog: Catalog,
    registry_fns: Vec<RegistryFn>,
    metrics: MetricsRegistry,
    tracer: Option<Tracer>,
    /// The shared connection, its cursor, and the batch it fills.
    feed: Feed,
    next_id: u64,
    queries: Vec<HostQuery>,
    filter_index: FilterIndex,
    dispatch: DispatchTable,
    /// A register/drop happened since the automaton, the dispatch
    /// table, the union mask and `punctual` were derived; see
    /// [`QueryHost::ensure_index`].
    index_dirty: bool,
    /// Slots whose `sel` is non-empty for the batch being flushed;
    /// empty between flushes (so register/drop slot shifts stay sound).
    active: Vec<u32>,
    /// Slots of the running queries that react to punctuation (see
    /// [`QueryHost::ensure_index`]): shown every batch that carries a
    /// crossing, and every gap, whether or not they selected a row.
    punctual: Vec<u32>,
    position: Timestamp,
    stats: HostStats,
    host_metrics_published: bool,
    /// Attached durability layer (WAL + checkpoints); None runs fully
    /// in memory. See [`durable`].
    durable: Option<durable::DurableState>,
}

impl QueryHost {
    /// Assemble from a configured [`EngineBuilder`], subscribed with
    /// `filter` (the public entry point is [`EngineBuilder::build_host`],
    /// which subscribes to the full stream).
    pub(crate) fn from_builder(b: EngineBuilder, filter: FilterSpec) -> QueryHost {
        QueryHost {
            feed: Feed::new(&b.api, filter, &b.config),
            clock: b.api.clock(),
            config: b.config,
            catalog: Catalog::with_twitter(),
            registry_fns: b.registry_fns,
            metrics: b.metrics.unwrap_or_default(),
            tracer: b.trace.map(Tracer::new),
            next_id: 0,
            queries: Vec::new(),
            filter_index: FilterIndex::default(),
            dispatch: DispatchTable::default(),
            index_dirty: false,
            active: Vec::new(),
            punctual: Vec::new(),
            position: Timestamp::ZERO,
            stats: HostStats::default(),
            host_metrics_published: false,
            durable: None,
        }
    }

    /// The host [`crate::engine::Engine::execute`] runs `planned` on: one
    /// held query, subscribed with the pushdown `filter`, a private
    /// metrics registry and no tracer. The reference configuration cuts the
    /// batch at every watermark boundary.
    pub(crate) fn one_query(
        api: &StreamingApi,
        filter: FilterSpec,
        config: &EngineConfig,
        id: QueryId,
        sql: &str,
        planned: PlannedQuery,
    ) -> QueryHost {
        let b = crate::engine::Engine::builder(api.clone()).config(config.clone());
        let mut host = QueryHost::from_builder(b, filter);
        host.feed.reference_cadence = config.reference;
        let now = host.clock.now();
        host.admit(id, sql, planned, now, true);
        host
    }

    // ---- session/catalog layer -------------------------------------

    /// Register a standing query; it sees every stream event from the
    /// current position on. Errors on parse/check/plan failure. A join
    /// is a query like any other: its pipeline's head stage joins the
    /// rows the shared connection dispatches to it.
    pub fn register(&mut self, sql: &str) -> Result<QueryId, QueryError> {
        let id = self.register_inner(sql, None)?;
        // Logged only after the in-memory registration succeeded: an
        // unlogged registration is indistinguishable from one that
        // never happened.
        self.log_register(id, sql)?;
        Ok(id)
    }

    /// Registration body, shared with recovery. `forced` replays a
    /// logged registration under its original id and timestamp.
    fn register_inner(
        &mut self,
        sql: &str,
        forced: Option<(QueryId, i64)>,
    ) -> Result<QueryId, QueryError> {
        // Flush buffered rows first: the new query starts at a clean
        // batch boundary and never sees pre-registration tweets.
        self.flush_batch()?;
        // A private registry + geo service per query: stateful UDFs,
        // service caches, and breaker state are never shared across
        // queries or registrations (fresh-state-on-re-register).
        let mut registry = Registry::standard(&self.config.service, Arc::clone(&self.clock));
        for f in &self.registry_fns {
            f(&mut registry);
        }
        let config = self.config.plan_config(Vec::new());
        let mut planned = prepare(sql, &self.catalog, &registry, &config)?;
        let (id, now) = match forced {
            Some((fid, at_millis)) => {
                self.next_id = self.next_id.max(fid.raw());
                (fid, Timestamp::from_millis(at_millis))
            }
            None => {
                self.next_id += 1;
                (QueryId::new(self.next_id), self.clock.now())
            }
        };
        planned
            .pipeline
            .attach_obs(None, &self.metrics, now.millis());
        self.admit(id, sql, planned, now, false);
        Ok(id)
    }

    /// Add a planned query to the dispatcher's set.
    fn admit(&mut self, id: QueryId, sql: &str, planned: PlannedQuery, now: Timestamp, held: bool) {
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.start(SpanKind::Query, "standing", None, now.millis()));
        let time_sensitive = planned.pipeline.time_sensitive();
        let groups = self.filter_index.groups_for(&planned.api_candidates);
        let pending = RowBatch::new(planned.output_schema.clone());
        self.queries.push(HostQuery {
            id,
            sql: sql.to_string(),
            planned,
            time_sensitive,
            groups,
            state: QueryState::Running,
            sel: Vec::new(),
            pending,
            rows_in: 0,
            rows_out: 0,
            suppress: 0,
            registered_at: now,
            metrics: self.metrics.clone(),
            tracer: self.tracer.clone(),
            span,
            retired: false,
            held,
        });
        self.index_changed();
    }

    /// Drop a query: finish its pipeline (final aggregate windows) and
    /// return everything it had pending plus the finish output.
    pub fn drop_query(&mut self, id: QueryId) -> Result<Vec<Record>, QueryError> {
        self.drop_batch(id).map(RowBatch::into_records)
    }

    /// [`QueryHost::drop_query`]'s rows as the one batch they are held
    /// in: the server's entry, which renders them without a [`Record`].
    pub fn drop_batch(&mut self, id: QueryId) -> Result<RowBatch, QueryError> {
        let rows = self.drop_inner(id)?;
        // Logged and synced before the rows cross the API boundary, so
        // recovery discards them instead of re-delivering.
        self.log_drop(id)?;
        Ok(rows)
    }

    /// Drop body, shared with recovery (which must not re-log).
    fn drop_inner(&mut self, id: QueryId) -> Result<RowBatch, QueryError> {
        self.flush_batch()?;
        let idx = self
            .queries
            .iter()
            .position(|q| q.id == id)
            .ok_or_else(|| QueryError::UnknownQuery(id.to_string()))?;
        let mut q = self.queries.remove(idx);
        // Needle ids are dense: re-intern what the survivors still use.
        self.filter_index.clear();
        for q in &mut self.queries {
            q.groups = (q.state == QueryState::Running)
                .then(|| self.filter_index.groups_for(&q.planned.api_candidates))
                .flatten();
        }
        self.index_changed();
        q.finish()?;
        Ok(q.pending)
    }

    /// Every registered query, in registration order.
    pub fn list(&self) -> Vec<QueryInfo> {
        self.queries
            .iter()
            .map(|q| QueryInfo {
                id: q.id,
                sql: q.sql.clone(),
                state: q.state,
                rows_in: q.rows_in,
                rows_out: q.rows_out,
                registered_at: q.registered_at,
                indexed: q.groups.is_some(),
            })
            .collect()
    }

    /// Drain the query's pending output buffer.
    pub fn take_output(&mut self, id: QueryId) -> Result<Vec<Record>, QueryError> {
        self.take_batch(id).map(RowBatch::into_records)
    }

    /// [`QueryHost::take_output`]'s rows as the one batch they are held
    /// in: the server's entry, which renders them without a [`Record`].
    pub fn take_batch(&mut self, id: QueryId) -> Result<RowBatch, QueryError> {
        let q = self.query_mut(id)?;
        let empty = RowBatch::new(q.pending.schema().clone());
        let rows = std::mem::replace(&mut q.pending, empty);
        // The cumulative taken-count is synced before the rows are
        // returned: a crash after this call replays with these rows
        // suppressed.
        self.log_taken(id, rows.len() as u64)?;
        Ok(rows)
    }

    /// The query's output schema.
    pub fn schema(&self, id: QueryId) -> Result<SchemaRef, QueryError> {
        self.query(id).map(|q| q.planned.output_schema.clone())
    }

    /// The query's static warnings and optimizer notices.
    pub fn diagnostics(&self, id: QueryId) -> Result<Diagnostics, QueryError> {
        self.query(id).map(|q| Diagnostics {
            warnings: q.planned.warnings.clone(),
            notices: q.planned.notices.clone(),
        })
    }

    // ---- stream driving --------------------------------------------

    /// Pump stream events with event time `<= until` through the
    /// dispatcher. Returns the number of tweets delivered by this call.
    /// Stops early when the stream is exhausted.
    pub fn pump_until(&mut self, until: Timestamp) -> Result<u64, QueryError> {
        self.ensure_index();
        let before = self.stats.tweets_delivered;
        while let Some(next) = self.feed.peek() {
            if next.at() > until {
                break;
            }
            self.take_next(next)?;
        }
        if self.feed.exhausted() {
            self.finish_stream()?;
        } else {
            // Drain the batch tail to pollers.
            self.flush_batch()?;
        }
        Ok(self.stats.tweets_delivered - before)
    }

    /// Pump the whole remaining stream, then finish every running
    /// query. Returns the number of tweets delivered by this call.
    pub fn run_to_end(&mut self) -> Result<u64, QueryError> {
        // No event is past the end of time, so the pump stops only at
        // the end of the stream, which finishes every query.
        self.pump_until(Timestamp::MAX)
    }

    /// [`crate::engine::Engine::execute`]'s drive: pump until the stream
    /// ends or the held query is done (LIMIT reached; `LIMIT 0` before
    /// the first pull), stop the pull, which moves the clock to the
    /// source frontier, then flush the batch unless the query is done,
    /// and finish it.
    pub(crate) fn run_query(&mut self) -> Result<(), QueryError> {
        self.ensure_index();
        let done = |host: &QueryHost| host.queries[0].planned.pipeline.done();
        while !done(self) {
            let Some(next) = self.feed.peek() else { break };
            self.take_next(next)?;
        }
        self.feed.stop();
        if !done(self) {
            self.flush_batch()?;
        }
        self.queries[0].finish()
    }

    /// The held query's plan and output rows, after
    /// [`QueryHost::run_query`].
    pub(crate) fn into_query(mut self) -> (PlannedQuery, Vec<Record>) {
        let q = self.queries.swap_remove(0);
        (q.planned, q.pending.into_records())
    }

    /// High-water stream time of the events processed so far.
    pub fn position(&self) -> Timestamp {
        self.position
    }

    /// Dispatcher statistics so far.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Distinct needles in the common-filter index.
    pub fn needle_count(&self) -> usize {
        self.filter_index.needle_count()
    }

    /// Rows produced but not yet taken, summed over every query: the
    /// backlog that `take_output` and `drop_query` hand out.
    pub fn pending_rows(&self) -> usize {
        self.queries.iter().map(|q| q.pending.len()).sum()
    }

    /// Heap bytes that backlog holds, summed over every query
    /// ([`RowBatch::heap_bytes`]).
    pub fn pending_bytes(&self) -> usize {
        self.queries.iter().map(|q| q.pending.heap_bytes()).sum()
    }

    /// Shared-source connection and supervisor statistics (None until
    /// the first pump).
    pub fn source_stats(&self) -> Option<(ConnectionStats, SourceFaultStats)> {
        self.feed.source().map(|s| (s.stats(), s.fault_stats()))
    }

    /// The metrics registry the host and its queries publish into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The host's clock (shared with the streaming API).
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    // ---- internals --------------------------------------------------

    fn query(&self, id: QueryId) -> Result<&HostQuery, QueryError> {
        self.queries
            .iter()
            .find(|q| q.id == id)
            .ok_or_else(|| QueryError::UnknownQuery(id.to_string()))
    }

    fn query_mut(&mut self, id: QueryId) -> Result<&mut HostQuery, QueryError> {
        self.queries
            .iter_mut()
            .find(|q| q.id == id)
            .ok_or_else(|| QueryError::UnknownQuery(id.to_string()))
    }

    /// After a register/drop interned or released needles: the needle
    /// count is current at once, everything derived from the query set
    /// waits for [`QueryHost::ensure_index`].
    fn index_changed(&mut self) {
        self.index_dirty = true;
        self.metrics
            .gauge("tweeql_host_prefilter_needles", &[])
            .set(self.filter_index.needle_count() as i64);
    }

    /// Every pump entry: if the query set changed, build the filter
    /// automaton, the dispatch table and the punctuation interest, once
    /// for however many register/drop calls came since. Register and
    /// drop flush first and rows enter the batch only inside a pump, so
    /// this runs on an empty batch and a non-empty batch always meets a
    /// clean index.
    fn ensure_index(&mut self) {
        if !self.index_dirty {
            return;
        }
        self.index_dirty = false;
        self.stats.index_rebuilds += 1;
        self.filter_index.build();
        self.dispatch
            .rebuild(&self.queries, self.filter_index.needle_count());
        // Cached punctuation interest, so a flush never scans the
        // registered queries for it. A time-sensitive query that
        // finishes mid-stream stays listed until the next rebuild; its
        // state is re-checked where the list is used.
        self.punctual.clear();
        self.punctual
            .extend((0u32..).zip(&self.queries).filter_map(|(slot, q)| {
                (q.state == QueryState::Running && q.time_sensitive).then_some(slot)
            }));
    }

    /// Take the event the feed peeked: a tweet through the feed into the
    /// batch, a gap to the time-sensitive queries; then the host's own
    /// counters and, after a tweet, a due checkpoint.
    fn take_next(&mut self, next: Next) -> Result<(), QueryError> {
        let (feed, mut dispatch) = self.split();
        let crossed = feed.take(next, &mut dispatch)?;
        match next {
            Next::Tweet(ts) => {
                self.position = self.position.max(ts);
                self.stats.watermarks += crossed;
                self.stats.tweets_delivered += 1;
                self.maybe_checkpoint()
            }
            Next::Gap(_, to) => {
                self.position = self.position.max(to);
                self.stats.gaps += 1;
                Ok(())
            }
        }
    }

    /// Dispatch the buffered batch now (see [`Dispatch`]).
    fn flush_batch(&mut self) -> Result<(), QueryError> {
        let (feed, mut dispatch) = self.split();
        feed.flush(&mut dispatch)
    }

    /// The feed, and the dispatcher it flushes into, borrowed apart.
    fn split(&mut self) -> (&mut Feed, Dispatch<'_>) {
        let dispatch = Dispatch {
            queries: &mut self.queries,
            filter_index: &mut self.filter_index,
            table: &mut self.dispatch,
            active: &mut self.active,
            punctual: &self.punctual,
            stats: &mut self.stats,
        };
        (&mut self.feed, dispatch)
    }

    /// End of stream: flush, finish every running query, publish host
    /// metrics. Idempotent.
    fn finish_stream(&mut self) -> Result<(), QueryError> {
        self.flush_batch()?;
        for q in &mut self.queries {
            if q.state == QueryState::Running {
                q.finish()?;
            }
        }
        self.publish_host_metrics();
        Ok(())
    }

    fn publish_host_metrics(&mut self) {
        if self.host_metrics_published {
            return;
        }
        self.host_metrics_published = true;
        let m = &self.metrics;
        m.counter("tweeql_host_tweets_total", &[])
            .add(self.stats.tweets_delivered);
        m.counter("tweeql_host_rows_dispatched_total", &[])
            .add(self.stats.rows_dispatched);
        m.counter("tweeql_host_rows_decoded_total", &[])
            .add(self.stats.rows_decoded);
        m.counter("tweeql_host_rows_shared_total", &[])
            .add(self.stats.rows_shared);
        m.counter("tweeql_host_watermarks_total", &[])
            .add(self.stats.watermarks);
        m.gauge("tweeql_host_prefilter_needles", &[])
            .set(self.filter_index.needle_count() as i64);
        m.gauge("tweeql_host_filter_index_states", &[])
            .set(self.filter_index.states() as i64);
        m.gauge("tweeql_host_filter_index_bytes", &[])
            .set(self.filter_index.table_bytes() as i64);
        m.counter("tweeql_host_filter_index_rebuilds_total", &[])
            .add(self.stats.index_rebuilds);
        crate::engine::publish_decode(m, &self.stats.decode);
        if let Some(s) = self.wal_stats() {
            m.counter("tweeql_wal_records_total", &[]).add(s.records);
            m.counter("tweeql_wal_bytes_total", &[]).add(s.bytes);
            m.counter("tweeql_wal_fsyncs_total", &[]).add(s.fsyncs);
            m.counter("tweeql_wal_checkpoints_total", &[])
                .add(s.checkpoints);
            m.counter("tweeql_wal_checkpoint_bytes_total", &[])
                .add(s.checkpoint_bytes);
        }
    }
}

/// The host's side of the feed: everything a flush, a gap or a
/// boundary touches, borrowed apart from the [`Feed`] that calls it
/// ([`QueryHost::split`]).
pub(crate) struct Dispatch<'a> {
    queries: &'a mut [HostQuery],
    filter_index: &'a mut FilterIndex,
    table: &'a mut DispatchTable,
    active: &'a mut Vec<u32>,
    punctual: &'a [u32],
    stats: &'a mut HostStats,
}

impl Dispatch<'_> {
    /// Show punctuation to every running time-sensitive query.
    fn punctuate(
        &mut self,
        mut show: impl FnMut(&mut Pipeline, &mut RowBatch) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        if self.punctual.is_empty() {
            return Ok(());
        }
        for q in self.queries.iter_mut() {
            if q.state != QueryState::Running || !q.time_sensitive {
                continue;
            }
            q.push(&mut show)?;
            q.check_done()?;
        }
        Ok(())
    }

    /// Dispatch the buffered batch: one prefilter scan per row (none
    /// for a lone query), then every selecting pipeline over the same
    /// batch with its own selection. The columns their heads view are built once, by the
    /// first of them, and counted into [`HostStats::decode`].
    pub(crate) fn flush(&mut self, batch: &mut TweetBatch) -> Result<(), QueryError> {
        let n = batch.len();
        if n == 0 {
            return Ok(());
        }
        self.stats.batches += 1;
        // ---- select: which rows does each query want? ----
        // Invariant: every `sel` and the `active` slot list are empty
        // between flushes. Selection records a slot in `active` the
        // moment its `sel` first becomes non-empty, so the dispatch and
        // cleanup phases below cost O(queries that matched) rather than
        // O(queries registered).
        // Rows at least one query selected.
        let mut decoded = 0u64;
        // A lone query has nothing to share the scan with, so it takes
        // every row, as a query without needles does; `Engine::execute`'s
        // host is one. Register and drop flush first, so the count
        // cannot change mid-batch.
        if !self.filter_index.is_empty() && self.queries.len() > 1 {
            let DispatchTable {
                ref always,
                ref group_count,
                ref needle_subs,
                ref mut q_mark,
                ref mut sat,
                ref mut g_mark,
                ref mut stamp,
            } = *self.table;
            // A non-empty batch hands every needle-free query at least
            // one row, so their slots go straight onto the active list.
            self.active.extend_from_slice(always);
            for i in 0..n {
                let t = batch.tweet_at(i);
                self.filter_index.match_row(&t.text);
                *stamp += 1;
                let mut wanted = !always.is_empty();
                for &nid in self.filter_index.touched() {
                    for &(q, g) in &needle_subs[nid as usize] {
                        let (q, g) = (q as usize, g as usize);
                        if g_mark[g] == *stamp {
                            continue;
                        }
                        g_mark[g] = *stamp;
                        if q_mark[q] != *stamp {
                            q_mark[q] = *stamp;
                            sat[q] = 0;
                        }
                        sat[q] += 1;
                        if sat[q] == group_count[q] {
                            if self.queries[q].sel.is_empty() {
                                self.active.push(q as u32);
                            }
                            self.queries[q].sel.push(i as u32);
                            wanted = true;
                        }
                    }
                }
                for &q in always {
                    self.queries[q as usize].sel.push(i as u32);
                }
                decoded += u64::from(wanted);
            }
        } else {
            for (slot, q) in self.queries.iter_mut().enumerate() {
                if q.state != QueryState::Running {
                    continue;
                }
                q.sel.extend(0..n as u32);
                self.active.push(slot as u32);
            }
            if !self.active.is_empty() {
                decoded = n as u64;
            }
        }
        // A batch that carries a crossing also goes to the time-sensitive
        // queries that selected none of its rows: a window of theirs may
        // be due all the same.
        if !batch.crossings().is_empty() {
            for &slot in self.punctual {
                let q = &self.queries[slot as usize];
                if q.sel.is_empty() && q.state == QueryState::Running {
                    self.active.push(slot);
                }
            }
        }
        // ---- dispatch: every active pipeline reads the one batch ----
        let dispatched: u64 = self
            .active
            .iter()
            .map(|&slot| self.queries[slot as usize].sel.len() as u64)
            .sum();
        let shared: &TweetBatch = batch;
        let result = self.active.iter().try_for_each(|&slot| {
            let q = &mut self.queries[slot as usize];
            if q.state != QueryState::Running {
                return Ok(());
            }
            q.rows_in += q.sel.len() as u64;
            let sel = std::mem::take(&mut q.sel);
            let res = q.push(|pipeline, out| pipeline.push_tweet_batch(shared, &sel, out));
            q.sel = sel;
            res?;
            q.check_done()
        });
        self.stats.rows_dispatched += dispatched;
        self.stats.rows_decoded += decoded;
        self.stats.rows_shared += dispatched - decoded;
        self.stats.decode.merge(&batch.decode_stats());
        batch.reset();
        // Restore the between-flush invariant even on error: register
        // and drop flush first, and `Vec::remove` shifts slot indices,
        // so a stale `active` entry or `sel` row would be unsound.
        for &slot in self.active.iter() {
            self.queries[slot as usize].sel.clear();
        }
        self.active.clear();
        result
    }

    /// A source coverage gap reaches the time-sensitive queries; the
    /// batch before it has been flushed.
    pub(crate) fn gap(&mut self, from: Timestamp, to: Timestamp) -> Result<(), QueryError> {
        self.punctuate(|pipeline, out| pipeline.gap(from, to, out))
    }

    /// The reference cadence: every crossed boundary through every
    /// time-sensitive query, after the flush that cut the batch there.
    pub(crate) fn boundaries(&mut self, crossed: Crossing) -> Result<(), QueryError> {
        self.punctuate(|pipeline, out| {
            crossed
                .boundaries()
                .try_for_each(|wm| pipeline.watermark(wm, out))
        })
    }
}
