//! The TweeQL engine: parse → plan → optimize → choose pushdown →
//! stream → collect.
//!
//! A query runs on a [`crate::host::QueryHost`] of its own, subscribed
//! with the pushdown filter the engine chose: the same feed, dispatcher
//! and query lifecycle a standing-query server runs. The engine plans
//! the query, admits it under its own [`QueryId`], drives the host until
//! the query has finished (its LIMIT stops the pull) and drops it to
//! take its plan and rows back. A join is the pipeline's head stage,
//! both of its sides fed by the one connection. The host publishes the
//! run's counters into the engine's registry; the engine publishes only
//! its shared geo service's.
//!
//! Engines are assembled with the fluent [`EngineBuilder`]
//! (`Engine::builder(api).seed(7).fault_policy(plan).build()`).

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::supervise::{RetryPolicy, SourceFaultStats};
use crate::exec::OpStats;
use crate::host::QueryHost;
use crate::plan::{prepare, PlanConfig, PlannedQuery};
use crate::selectivity::{choose_filter, PushdownDecision};
use crate::udf::{Registry, ServiceConfig, SharedGeoService};
use std::sync::Arc;
use tweeql_firehose::api::ConnectionStats;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::{FilterSpec, StreamingApi};
use tweeql_geo::cache::CacheStats;
use tweeql_model::{DecodeStats, Duration, Record, SchemaRef, Timestamp, Value, VirtualClock};
use tweeql_obs::{MetricsRegistry, QueryId, QueryProfile, StageProfile, TraceSink, Tracer};

/// Stream-time spacing of the watermark boundaries (punctuation).
pub(crate) const WATERMARK_INTERVAL: Duration = Duration::from_secs(1);

/// Firehose tweets scanned per candidate during selectivity probing.
const SELECTIVITY_SAMPLE: usize = 2000;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated web-service knobs (latency, cache, batching, breaker).
    /// Async-UDF operators release batches of the service's
    /// `max_batch`.
    pub service: ServiceConfig,
    /// Max stream-time a tuple waits in a partial async batch.
    pub async_max_delay: Duration,
    /// Tweets buffered before a flush through the pipeline: the
    /// engine's fill and the standing-query host's shared batch.
    pub batch_size: usize,
    /// Fault-injection plan for the source connection (None = clean).
    pub fault: Option<FaultPlan>,
    /// Reconnect policy for the supervised source.
    pub retry: RetryPolicy,
    /// Engine seed: backoff jitter and other engine-level randomness.
    pub seed: u64,
    /// [`Engine::execute`] only: probe WHERE-derived connection-filter
    /// candidates and subscribe its one-query host with the best one.
    /// `false` reads the full stream (`sample(1.0)`) and filters
    /// client-side, as a standing host always does: one shared
    /// connection cannot serve per-query pushdowns.
    pub allow_pushdown: bool,
    /// Run the reference implementation every fast layer is
    /// differentially tested against: the plan exactly as written (no
    /// rewrite rules), the interpreted operators, and row decode
    /// (`Record::from_tweet`) cut at every watermark boundary. The
    /// source is not switched: every configuration pulls the same
    /// zero-copy log-index blocks, whose per-tweet reference lives in
    /// the supervisor's tests. Output, gap windows and (with pushdown
    /// off) source statistics equal the default configuration's; under
    /// LIMIT the statistics can differ by the block read past the flush
    /// that fills it. Only the host [`Engine::execute`] builds cuts at
    /// every boundary; a standing-query host keeps its columnar
    /// dispatch and cadence, and its as-written plans have no index
    /// needles, so every row reaches every query.
    pub reference: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            service: ServiceConfig::default(),
            async_max_delay: Duration::from_secs(2),
            batch_size: 256,
            fault: None,
            retry: RetryPolicy::default(),
            seed: 0x5EED,
            allow_pushdown: true,
            reference: false,
        }
    }
}

impl EngineConfig {
    /// The planner's projection of this configuration, with conjunct
    /// ordering seeded from `selectivity_hints`.
    pub(crate) fn plan_config(&self, selectivity_hints: Vec<(String, f64)>) -> PlanConfig {
        PlanConfig {
            reference: self.reference,
            selectivity_hints,
            async_max_batch: self.service.max_batch,
            async_max_delay: self.async_max_delay,
        }
    }
}

/// The shared diagnostics attachment every engine entry point returns:
/// static-analysis warnings plus runtime degradation notices.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Lint warnings from static analysis (never errors — those abort
    /// with [`QueryError::Check`]).
    pub warnings: Vec<crate::check::Diagnostic>,
    /// Runtime degradation notices, e.g. "async:latitude: circuit open,
    /// 312 rows NULL" or "source: 3 disconnects, 3 reconnects".
    pub notices: Vec<String>,
}

impl Diagnostics {
    /// True when there is nothing to report.
    pub fn is_empty(&self) -> bool {
        self.warnings.is_empty() && self.notices.is_empty()
    }
}

impl std::fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in &self.warnings {
            writeln!(f, "warning[{}]: {}", w.code, w.message)?;
        }
        for n in &self.notices {
            writeln!(f, "notice: {n}")?;
        }
        Ok(())
    }
}

/// What EXPLAIN returns: the plan text plus any static diagnostics.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Rendered plan (stages + pushdown candidates).
    pub plan: String,
    /// Warnings attached at plan time.
    pub diagnostics: Diagnostics,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.plan)?;
        if !self.diagnostics.is_empty() {
            write!(f, "{}", self.diagnostics)?;
        }
        Ok(())
    }
}

/// Post-run statistics.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The run's identity within this engine (ordinal, starting at 1).
    pub query: QueryId,
    /// Pushdown decision rendered for humans.
    pub pushdown: String,
    /// Source connection delivery stats (summed across reconnects).
    pub source: ConnectionStats,
    /// What the stream supervisor saw: disconnects, reconnects,
    /// duplicates dropped, gaps, injected faults.
    pub source_faults: SourceFaultStats,
    /// Window starts the aggregate flagged as under-sampled because of
    /// source coverage gaps.
    pub gap_windows: Vec<Timestamp>,
    /// Per-stage tuple counters (including per-service health).
    pub stages: Vec<(String, OpStats)>,
    /// Warnings + degradation notices for this run.
    pub diagnostics: Diagnostics,
    /// Geocoding web-service stats (requests, modeled time, cache).
    pub geo_requests: u64,
    /// Total modeled web-service latency.
    pub geo_service_time: Duration,
    /// Geocode cache statistics.
    pub geo_cache: CacheStats,
    /// Stream time consumed by the run.
    pub stream_time: Duration,
    /// What the query's head built of its batches' columns, as its host
    /// counted it ([`crate::host::HostStats::decode`]): zero when the
    /// head viewed no column (a scan reads the tweets) or the run
    /// decoded row-at-a-time.
    pub decode: DecodeStats,
}

/// The result of a collected query run.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: SchemaRef,
    /// Output records.
    pub rows: Vec<Record>,
    /// Run statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Values of the named column across all rows.
    pub fn column(&self, name: &str) -> Result<Vec<Value>, QueryError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))?;
        Ok(self.rows.iter().map(|r| r.value(idx).clone()).collect())
    }

    /// Warnings + degradation notices for this run.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.stats.diagnostics
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        crate::sink::to_csv(&self.schema, &self.rows)
    }

    /// Render as JSON lines (one object per row).
    pub fn to_json_lines(&self) -> String {
        crate::sink::to_json_lines(&self.schema, &self.rows)
    }

    /// Render as an ASCII table (REPL output).
    pub fn render_table(&self, max_rows: usize) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown: Vec<Vec<String>> = self
            .rows
            .iter()
            .take(max_rows)
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &shown {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count().min(48));
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &shown {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                let trunc: String = cell.chars().take(48).collect();
                out.push_str(&format!(" {trunc:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        if self.rows.len() > max_rows {
            out.push_str(&format!("… {} more rows\n", self.rows.len() - max_rows));
        }
        out
    }
}

/// Fluent engine assembly: configuration knobs plus deferred UDF
/// registration, resolved in one [`EngineBuilder::build`] call. The
/// catalog holds the one stream the API serves, `twitter`.
///
/// ```ignore
/// let engine = Engine::builder(api)
///     .seed(7)
///     .fault_policy(FaultPlan::chaos(7))
///     .configure_registry(|r| udfs::register(r, PeakDetectorConfig::default()))
///     .build();
/// ```
pub struct EngineBuilder {
    pub(crate) config: EngineConfig,
    pub(crate) api: StreamingApi,
    pub(crate) registry_fns: Vec<RegistryFn>,
    pub(crate) metrics: Option<MetricsRegistry>,
    pub(crate) trace: Option<Arc<dyn TraceSink>>,
}

/// A deferred registry mutation, applied at [`EngineBuilder::build`].
/// `Fn` (not `FnOnce`) so the standing-query host can re-apply the same
/// setup to each registered query's private registry.
pub(crate) type RegistryFn = Box<dyn Fn(&mut Registry) + Send>;

impl EngineBuilder {
    /// Replace the whole configuration (knob methods still apply on
    /// top, in call order).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Simulated web-service knobs (latency, cache, breaker, retries).
    pub fn service(mut self, service: ServiceConfig) -> Self {
        self.config.service = service;
        self
    }

    // Accepted and ignored: the parallel engine is gone and there is no
    // config field behind this. `benchmark/**` (frozen to source PRs)
    // still calls it in `reference.rs`, `ladder.rs` and `bench_server.rs`;
    // it goes when a `[benchmark]` PR deletes the `w2` rungs.
    #[doc(hidden)]
    pub fn workers(self, _: usize) -> Self {
        self
    }

    /// Tweets buffered before a flush through the pipeline.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Run the reference implementation (as-written plan, interpreter,
    /// row decode at the reference cadence) instead of the fast layers;
    /// `false` by default. The source is the same either way; see
    /// [`EngineConfig::reference`].
    pub fn reference(mut self, on: bool) -> Self {
        self.config.reference = on;
        self
    }

    // `columnar_decode`, `compiled_expressions`, `plan_optimizer` and
    // `batched_source` are the four per-layer switches `reference`
    // replaced. `benchmark/**` (frozen to source PRs) still calls them
    // in `reference.rs`, all four off; they go when a `[benchmark]` PR
    // calls `reference(true)` there.
    #[doc(hidden)]
    pub fn columnar_decode(self, on: bool) -> Self {
        self.reference(!on)
    }

    #[doc(hidden)]
    pub fn compiled_expressions(self, on: bool) -> Self {
        self.reference(!on)
    }

    #[doc(hidden)]
    pub fn plan_optimizer(self, on: bool) -> Self {
        self.reference(!on)
    }

    #[doc(hidden)]
    pub fn batched_source(self, on: bool) -> Self {
        self.reference(!on)
    }

    /// One seed for everything the engine randomizes: service latency
    /// and failures, and reconnect-backoff jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self.config.service.seed = seed;
        self
    }

    /// Inject faults into the source connection (chaos testing).
    pub fn fault_policy(mut self, plan: FaultPlan) -> Self {
        self.config.fault = Some(plan);
        self
    }

    /// Reconnect/backoff/replay policy for the supervised source.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Toggle connection-filter pushdown (`true` by default). `false`
    /// reads the full stream and filters client-side, which makes an
    /// engine's source event sequence identical to a standing-query
    /// host's shared connection — the mode the differential host tests
    /// run in.
    pub fn push_down(mut self, on: bool) -> Self {
        self.config.allow_pushdown = on;
        self
    }

    /// Registry setup: scalar, stateful and async UDFs, or a whole UDF
    /// pack like TwitInfo's `udfs::register`. The closure may run more
    /// than once: the standing-query host applies it to every
    /// registered query's private registry.
    pub fn configure_registry(mut self, f: impl Fn(&mut Registry) + Send + 'static) -> Self {
        self.registry_fns.push(Box::new(f));
        self
    }

    /// Publish per-query metrics into an externally-owned registry —
    /// lets several engines (or the TwitInfo dashboard) share one
    /// registry. Without this an engine-private registry is created.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Emit structured trace spans (query → operator → batch) into
    /// `sink`. Span timestamps are virtual stream time, so traces from
    /// a seeded run are byte-reproducible.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Assemble the engine. The clock is the streaming API's clock, so
    /// source delivery and modeled service latency share one timeline.
    pub fn build(self) -> Engine {
        let clock = self.api.clock();
        let geo = SharedGeoService::new(&self.config.service, Arc::clone(&clock));
        let mut registry =
            Registry::standard_with_geo(&self.config.service, Arc::clone(&clock), geo.clone());
        for f in &self.registry_fns {
            f(&mut registry);
        }
        Engine {
            config: self.config,
            api: self.api,
            clock,
            catalog: Catalog::with_twitter(),
            registry,
            geo,
            metrics: self.metrics.unwrap_or_default(),
            trace: self.trace,
            last_profile: None,
            selectivity_hints: Vec::new(),
            queries_run: 0,
        }
    }

    /// Assemble a standing-query [`crate::host::QueryHost`] instead of
    /// a one-query-at-a-time engine: one supervised full-stream
    /// connection, shared-scan dispatch to every registered query, the
    /// same fault policy, UDF registrations, metrics, and optimizer
    /// settings this builder carries.
    pub fn build_host(self) -> crate::host::QueryHost {
        crate::host::QueryHost::from_builder(self, FilterSpec::Sample(1.0))
    }

    /// Build a **durable** standing-query host backed by `dir`: WAL
    /// records and checkpoints land there, and if the directory already
    /// holds a previous host's state (after a crash or shutdown), the
    /// host is recovered from it — registrations, aggregate windows,
    /// source dedup state, and output positions all resume exactly
    /// where the log says, with already-taken rows suppressed. An
    /// empty or missing directory yields a fresh host with logging
    /// armed. Uses default durability knobs; see
    /// [`EngineBuilder::recover_with`].
    pub fn recover_from(
        self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<crate::host::QueryHost, QueryError> {
        self.recover_with(crate::host::durable::DurabilityConfig::new(dir))
    }

    /// [`EngineBuilder::recover_from`] with explicit durability knobs
    /// (segment size, checkpoint cadence, fsync).
    pub fn recover_with(
        self,
        cfg: crate::host::durable::DurabilityConfig,
    ) -> Result<crate::host::QueryHost, QueryError> {
        crate::host::durable::recover(self, cfg)
    }
}

/// The TweeQL query engine.
pub struct Engine {
    pub(crate) config: EngineConfig,
    pub(crate) api: StreamingApi,
    pub(crate) clock: Arc<VirtualClock>,
    pub(crate) catalog: Catalog,
    pub(crate) registry: Registry,
    pub(crate) geo: SharedGeoService,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) trace: Option<Arc<dyn TraceSink>>,
    pub(crate) last_profile: Option<QueryProfile>,
    /// `(candidate description, measured selectivity)` pairs from the
    /// most recent run's pushdown probe — fed back into the planner so
    /// conjunct ordering on a reused engine is seeded from measurement.
    pub(crate) selectivity_hints: Vec<(String, f64)>,
    /// Queries executed so far — the source of per-run [`QueryId`]s.
    pub(crate) queries_run: u64,
}

impl Engine {
    /// Start building an engine over a streaming API.
    pub fn builder(api: StreamingApi) -> EngineBuilder {
        EngineBuilder {
            config: EngineConfig::default(),
            api,
            registry_fns: Vec::new(),
            metrics: None,
            trace: None,
        }
    }

    /// The engine's clock.
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// The metrics registry queries publish into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The profile of the most recent `execute()` call.
    pub fn profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_ref()
    }

    /// `EXPLAIN ANALYZE`-style report for the most recent run: per-
    /// operator rows in/out, busy time, batches, observed vs estimated
    /// selectivity, and service/window counters.
    pub fn profile_report(&self) -> Option<String> {
        self.last_profile.as_ref().map(|p| p.render_text())
    }

    /// The most recent run's profile as JSON (CI schema-validates it).
    pub fn profile_json(&self) -> Option<String> {
        self.last_profile.as_ref().map(|p| p.to_json(0))
    }

    /// Render every metric this engine has published in the Prometheus
    /// text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// EXPLAIN: the plan text plus pushdown candidates and any static
    /// warnings, without running.
    pub fn explain(&self, sql: &str) -> Result<Explanation, QueryError> {
        let planned = self.checked_plan(sql)?;
        Ok(Explanation {
            plan: planned.explain,
            diagnostics: Diagnostics {
                warnings: planned.warnings,
                notices: planned.notices,
            },
        })
    }

    /// Run static analysis on `sql` without planning or executing.
    ///
    /// Errors abort with [`QueryError::Check`] (rendered with caret
    /// snippets); lint warnings come back in [`Diagnostics`].
    pub fn check(&self, sql: &str) -> Result<Diagnostics, QueryError> {
        let diags = crate::check::check_sql(sql, &self.catalog, &self.registry)?;
        if diags.iter().any(|d| d.is_error()) {
            return Err(QueryError::Check(crate::check::render_all(&diags, sql)));
        }
        Ok(Diagnostics {
            warnings: diags,
            notices: Vec::new(),
        })
    }

    /// [`prepare`] `sql` against this engine's registry, conjunct
    /// ordering seeded from the last run's measured selectivities.
    pub(crate) fn checked_plan(&self, sql: &str) -> Result<PlannedQuery, QueryError> {
        let config = self.config.plan_config(self.selectivity_hints.clone());
        prepare(sql, &self.catalog, &self.registry, &config)
    }

    /// Parse, plan, run to end of stream or LIMIT, and collect all
    /// output rows.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, QueryError> {
        let mut planned = self.checked_plan(sql)?;
        self.queries_run += 1;
        let query_id = QueryId::new(self.queries_run);
        let started_at = {
            use tweeql_model::Clock;
            self.clock.now()
        };
        // The shared geo service accumulates across queries on a reused
        // engine; snapshotting here makes every geo figure below a
        // per-run delta (regression-tested by tests/observability.rs).
        let geo_base_requests = self.geo.requests_issued();
        let geo_base_service_ms = self.geo.modeled_service_time().millis();
        let geo_base_cache = self.geo.cache_stats();

        // ---- uncertain selectivities: choose the pushdown filter ----
        // With pushdown disabled no candidate is probed or chosen, so
        // the source subscription degenerates to `sample(1.0)` and the
        // run reads the exact event sequence a standing-query host's
        // shared connection would deliver.
        let decision: PushdownDecision = if self.config.allow_pushdown {
            choose_filter(&self.api, &planned.api_candidates, SELECTIVITY_SAMPLE)
        } else {
            PushdownDecision {
                chosen: None,
                estimates: Vec::new(),
            }
        };
        let pushdown = decision.describe(&planned.api_candidates);
        let filter = decision.filter(&planned.api_candidates);
        // Feed measured selectivities back to the planner: the next
        // query on this engine seeds conjunct ordering from them.
        let measured: Vec<(String, f64)> = decision
            .estimates
            .iter()
            .filter(|e| e.selectivity.is_finite())
            .map(|e| (e.description.clone(), e.selectivity))
            .collect();
        if !measured.is_empty() {
            self.selectivity_hints = measured;
        }

        // ---- observability: query span + per-stage instrumentation ----
        let tracer = self.trace.as_ref().map(|s| Tracer::new(Arc::clone(s)));
        planned
            .pipeline
            .attach_obs(tracer, &self.metrics, started_at.millis());

        // ---- the run: one query on a host of its own ----
        // The host publishes the query's counters and its own into the
        // engine's registry. The reference configuration cuts its
        // batches at every watermark boundary.
        let b = Engine::builder(self.api.clone())
            .config(self.config.clone())
            .metrics(self.metrics.clone());
        let mut host = QueryHost::from_builder(b, filter);
        host.feed.reference_cadence = self.config.reference;
        host.admit(query_id, sql, planned, started_at);
        let run = host.run_until_finished(query_id);
        let (source_stats, source_faults) = host.source_stats().unwrap_or_default();
        let decode = host.stats().decode;
        // A failed run is dropped too: the drop retires the query, which
        // closes its trace spans.
        let dropped = host.drop_inner(query_id);
        run?;
        let (mut planned, rows) = dropped.and_then(|(planned, rows)| Ok((planned, rows?)))?;

        let ended_at = {
            use tweeql_model::Clock;
            self.clock.now()
        };
        let gap_windows = planned.pipeline.gap_windows();
        let stages = planned.pipeline.stage_stats();
        let stage_counters = planned.pipeline.stage_metric_counters();

        // The shared geo service is the engine's alone, so it publishes
        // the service's counters itself; every value here derives from
        // deterministic run data (never wall time).
        let geo_requests = self.geo.requests_issued().saturating_sub(geo_base_requests);
        let geo_service_time = Duration::from_millis(
            (self.geo.modeled_service_time().millis() - geo_base_service_ms).max(0),
        );
        let geo_cache = self.geo.cache_stats().delta_since(&geo_base_cache);
        let m = &self.metrics;
        let geo = [("service", "geocode")];
        m.counter("tweeql_service_cache_hits_total", &geo)
            .add(geo_cache.hits);
        m.counter("tweeql_service_cache_misses_total", &geo)
            .add(geo_cache.misses);
        m.counter("tweeql_service_cache_evictions_total", &geo)
            .add(geo_cache.evictions);
        m.counter("tweeql_geo_requests_total", &[])
            .add(geo_requests);

        let mut notices = std::mem::take(&mut planned.notices);
        notices.extend(degradation_notices(&source_faults, &gap_windows, &stages));
        let diagnostics = Diagnostics {
            warnings: std::mem::take(&mut planned.warnings),
            notices,
        };
        let stats = QueryStats {
            query: query_id,
            pushdown,
            source: source_stats,
            source_faults,
            gap_windows,
            stages,
            diagnostics,
            geo_requests,
            geo_service_time,
            geo_cache,
            stream_time: ended_at.since(started_at),
            decode,
        };
        self.last_profile = Some(build_profile(sql, &stats, &stage_counters, &decision));
        Ok(QueryResult {
            schema: planned.output_schema.clone(),
            rows: rows.into_records(),
            stats,
        })
    }
}

/// Assemble the post-run [`QueryProfile`] from the typed statistics.
fn build_profile(
    sql: &str,
    stats: &QueryStats,
    stage_counters: &[Vec<(&'static str, u64)>],
    decision: &PushdownDecision,
) -> QueryProfile {
    // The chosen pushdown candidate's probe estimate anchors the
    // "estimated vs observed" comparison on the scan stage. NaN marks
    // an unprobed single candidate.
    let est = decision
        .chosen
        .and_then(|i| decision.estimates.get(i))
        .map(|e| e.selectivity)
        .filter(|s| s.is_finite());
    let stages = stats
        .stages
        .iter()
        .enumerate()
        .map(|(i, (name, s))| {
            let mut extras: Vec<(String, u64)> = stage_counters
                .get(i)
                .into_iter()
                .flatten()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            if let Some(h) = &s.health {
                extras.push(("service_requests".into(), h.requests));
                extras.push(("service_timeouts".into(), h.timeouts));
                extras.push(("service_short_circuits".into(), h.short_circuits));
                extras.push(("service_degraded_rows".into(), h.degraded_rows));
                extras.push(("breaker_opens".into(), h.breaker_opens));
            }
            extras.sort();
            StageProfile {
                name: name.clone(),
                records_in: s.records_in,
                records_out: s.records_out,
                batches: s.batches,
                busy_nanos: s.busy_nanos,
                selectivity: StageProfile::observed(s.records_in, s.records_out),
                est_selectivity: if i == 0 { est } else { None },
                extras,
            }
        })
        .collect();
    QueryProfile {
        query: stats.query,
        sql: sql.to_string(),
        pushdown: stats.pushdown.clone(),
        stages,
        records_decoded: stats.source.delivered,
        source_disconnects: stats.source_faults.disconnects,
        source_reconnects: stats.source_faults.reconnects,
        source_duplicates_dropped: stats.source_faults.duplicates_dropped,
        source_gaps: stats.source_faults.gaps.len() as u64,
        gap_windows: stats.gap_windows.len() as u64,
        geo_requests: stats.geo_requests,
        geo_cache_hits: stats.geo_cache.hits,
        geo_cache_misses: stats.geo_cache.misses,
        stream_time_ms: stats.stream_time.millis(),
    }
}

/// Human-readable degradation notices from supervisor and per-service
/// health counters.
fn degradation_notices(
    faults: &SourceFaultStats,
    gap_windows: &[Timestamp],
    stages: &[(String, OpStats)],
) -> Vec<String> {
    let mut notices = Vec::new();
    if faults.disconnects > 0 {
        notices.push(format!(
            "source: {} disconnect(s), {} reconnect(s), {} replay duplicate(s) dropped, {} malformed payload(s) skipped",
            faults.disconnects,
            faults.reconnects,
            faults.duplicates_dropped,
            faults.malformed_skipped,
        ));
    }
    if !faults.gaps.is_empty() {
        notices.push(format!(
            "source: {} coverage gap(s); {} window(s) flagged under-sampled",
            faults.gaps.len(),
            gap_windows.len(),
        ));
    }
    if faults.gave_up {
        notices.push("source: reconnection abandoned after max attempts; stream tail lost".into());
    }
    for (name, s) in stages {
        if let Some(h) = s.health {
            if h.degraded_rows > 0 || h.breaker_opens > 0 {
                notices.push(format!(
                    "{name}: circuit {}, {} rows NULL ({} short-circuited, {} timeout(s), {} retr{}, {} breaker open(s))",
                    h.state,
                    h.degraded_rows,
                    h.short_circuits,
                    h.timeouts,
                    h.retries,
                    if h.retries == 1 { "y" } else { "ies" },
                    h.breaker_opens,
                ));
            }
        }
    }
    notices
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_firehose::scenario::{Burst, Scenario, Topic};
    use tweeql_firehose::{generate, scenarios};
    use tweeql_geo::latency::LatencyModel;
    use tweeql_model::Clock;
    use tweeql_obs::SpanKind;

    fn small_api(clock: Arc<VirtualClock>) -> StreamingApi {
        let s = Scenario {
            name: "engine-test".into(),
            duration: Duration::from_mins(10),
            background_rate_per_min: 60.0,
            topics: vec![{
                let mut t = Topic::new("obama", vec!["obama"], 30.0);
                t.sentiment_bias = 0.4;
                t
            }],
            bursts: vec![Burst {
                topic: 0,
                label: "speech".into(),
                start: Timestamp::from_mins(5),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(2),
                peak_multiplier: 6.0,
                phrases: vec!["speech".into()],
                sentiment_bias: 0.5,
                url: None,
            }],
            geotag_rate: 0.3,
            population_size: 500,
        };
        StreamingApi::new(generate(&s, 99), clock)
    }

    fn engine() -> Engine {
        let clock = VirtualClock::new();
        let api = small_api(clock);
        Engine::builder(api)
            .service(ServiceConfig {
                latency: LatencyModel::Constant(Duration::from_millis(100)),
                ..ServiceConfig::default()
            })
            .build()
    }

    #[test]
    fn select_with_filter_and_limit() {
        let mut e = engine();
        let r = e
            .execute("SELECT text FROM twitter WHERE text contains 'obama' LIMIT 10")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        for row in &r.rows {
            assert!(row.value(0).to_string().to_lowercase().contains("obama"));
        }
        assert!(r.stats.pushdown.contains("track"));
    }

    #[test]
    fn limit_zero_returns_nothing_and_leaves_the_stream_unread() {
        let join = "SELECT screen_name FROM twitter JOIN twitter \
                    ON screen_name = screen_name WINDOW 1 minutes LIMIT 0";
        for reference in [false, true] {
            for sql in ["SELECT text FROM twitter LIMIT 0", join] {
                let mut e = Engine::builder(small_api(VirtualClock::new()))
                    .reference(reference)
                    .build();
                let r = e.execute(sql).unwrap();
                assert!(r.rows.is_empty(), "{sql}");
                let block = e.config.batch_size as u64;
                assert!(
                    r.stats.source.scanned <= block,
                    "{sql} (reference={reference}): scanned {} tweets, one block is {block}",
                    r.stats.source.scanned
                );
            }
        }
    }

    #[test]
    fn paper_query_one_runs_end_to_end() {
        let mut e = engine();
        let r = e
            .execute(
                "SELECT sentiment(text), latitude(loc), longitude(loc) \
                 FROM twitter WHERE text contains 'obama' LIMIT 50",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 50);
        assert_eq!(r.schema.names(), vec!["sentiment", "latitude", "longitude"]);
        // Some locations geocode, some are garbage → NULL.
        let lats = r.column("latitude").unwrap();
        assert!(lats.iter().any(|v| matches!(v, Value::Float(_))));
        // The web service was exercised with caching.
        assert!(r.stats.geo_requests > 0);
        assert!(r.stats.geo_cache.hits > 0);
    }

    #[test]
    fn paper_query_two_selects_location_pushdown() {
        let mut e = engine();
        let r = e
            .execute(
                "SELECT text FROM twitter \
                 WHERE text contains 'obama' AND location in [bounding box for NYC]",
            )
            .unwrap();
        // The NYC geotag filter is far rarer than the keyword.
        assert!(
            r.stats.pushdown.contains("locations(nyc)"),
            "{}",
            r.stats.pushdown
        );
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn windowed_group_by_emits_multiple_windows() {
        let mut e = engine();
        let r = e
            .execute(
                "SELECT count(*) AS c, lang FROM twitter \
                 WHERE text contains 'obama' GROUP BY lang WINDOW 2 minutes",
            )
            .unwrap();
        assert!(r.rows.len() > 3, "rows = {}", r.rows.len());
        let total: i64 = r
            .column("c")
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .sum();
        assert!(total > 100);
    }

    #[test]
    fn aggregate_without_group_by() {
        let mut e = engine();
        let r = e
            .execute("SELECT count(*), avg(followers) FROM twitter")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let n = r.rows[0].value(0).as_int().unwrap();
        assert!(n > 500);
        assert!(r.rows[0].value(1).as_float().unwrap() > 0.0);
    }

    #[test]
    fn stats_track_stages_and_stream_time() {
        let mut e = engine();
        let r = e
            .execute("SELECT text FROM twitter WHERE text contains 'obama'")
            .unwrap();
        assert!(!r.stats.stages.is_empty());
        let (name, s) = &r.stats.stages[0];
        assert_eq!(name, "where+project");
        assert!(s.records_in > 0);
        assert!(r.stats.stream_time >= Duration::from_mins(9));
        assert!(r.stats.source.scanned > 0);
    }

    #[test]
    fn clean_run_reports_no_faults_or_notices() {
        let mut e = engine();
        let r = e
            .execute("SELECT text FROM twitter WHERE text contains 'obama' LIMIT 5")
            .unwrap();
        assert_eq!(r.stats.source_faults.disconnects, 0);
        assert!(r.stats.source_faults.gaps.is_empty());
        assert!(r.stats.gap_windows.is_empty());
        assert!(r.stats.diagnostics.notices.is_empty());
    }

    #[test]
    fn explain_does_not_run() {
        let e = engine();
        let ex = e
            .explain("SELECT sentiment(text) FROM twitter WHERE text contains 'x'")
            .unwrap();
        assert!(ex.plan.contains("project"));
        assert!(ex.to_string().contains("project"));
        assert_eq!(e.clock().now(), Timestamp::ZERO);
    }

    #[test]
    fn parse_errors_surface() {
        let mut e = engine();
        assert!(e.execute("SELEC nope").is_err());
        assert!(e.execute("SELECT missing_col FROM twitter").is_err());
        assert!(e.execute("SELECT x FROM missing_stream").is_err());
    }

    #[test]
    fn ill_typed_query_rejected_before_planning() {
        let mut e = engine();
        let err = e
            .execute("SELECT text FROM twitter WHERE text > 5")
            .unwrap_err();
        let QueryError::Check(rendered) = &err else {
            panic!("expected Check error, got {err:?}");
        };
        assert!(rendered.contains("E005"), "{rendered}");
        assert!(rendered.contains("cannot compare"), "{rendered}");
        // Errors reference the source with a caret snippet.
        assert!(rendered.contains('^'), "{rendered}");
        // The stream was never touched.
        assert_eq!(e.clock().now(), Timestamp::ZERO);
    }

    #[test]
    fn lint_warnings_attach_to_planned_query() {
        let e = engine();
        let planned = e
            .checked_plan("SELECT text FROM twitter WHERE followers > 1000 LIMIT 5")
            .unwrap();
        assert!(
            planned.warnings.iter().any(|d| d.code == "W102"),
            "{:?}",
            planned.warnings
        );
        assert!(planned.warnings.iter().all(|d| !d.is_error()));
    }

    #[test]
    fn lint_warnings_surface_in_run_diagnostics() {
        let mut e = engine();
        let r = e
            .execute("SELECT text FROM twitter WHERE followers > 1000 LIMIT 5")
            .unwrap();
        assert!(
            r.diagnostics().warnings.iter().any(|d| d.code == "W102"),
            "{:?}",
            r.diagnostics()
        );
        assert!(r.diagnostics().to_string().contains("W102"));
    }

    #[test]
    fn check_reports_warnings_and_rejects_errors() {
        let e = engine();
        let diags = e
            .check("SELECT text FROM twitter WHERE latitude(loc) > 40.0")
            .unwrap();
        assert!(diags.warnings.iter().any(|d| d.code == "W103"), "{diags:?}");
        assert_eq!(e.clock().now(), Timestamp::ZERO);
        let err = e.check("SELECT text FROM twitter WHERE text > 5");
        assert!(matches!(err, Err(QueryError::Check(_))), "{err:?}");
    }

    #[test]
    fn render_table_formats() {
        let mut e = engine();
        let r = e
            .execute("SELECT screen_name, followers FROM twitter LIMIT 3")
            .unwrap();
        let table = r.render_table(10);
        assert!(table.contains("screen_name"));
        assert!(table.lines().count() >= 7);
    }

    #[test]
    fn self_join_runs() {
        let mut e = engine();
        let r = e
            .execute(
                "SELECT screen_name FROM twitter JOIN twitter \
                 ON screen_name = screen_name WINDOW 1 minutes LIMIT 5",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        // The join heads the pipeline, and LIMIT stops the one pull.
        assert_eq!(r.stats.stages[0].0, "join");
        assert!(r.stats.source.scanned <= e.config.batch_size as u64);
    }

    #[test]
    fn full_scenario_soccer_smoke() {
        let clock = VirtualClock::new();
        let mut sc = scenarios::soccer_match();
        sc.duration = Duration::from_mins(20);
        sc.bursts
            .retain(|b| b.end() <= Timestamp::ZERO + sc.duration);
        sc.population_size = 400;
        let api = StreamingApi::new(generate(&sc, 5), Arc::clone(&clock));
        let mut e = Engine::builder(api).build();
        let r = e
            .execute(
                "SELECT count(*) AS c FROM twitter \
                 WHERE text contains 'manchester' OR text contains 'liverpool' \
                 WINDOW 1 minutes",
            )
            .unwrap();
        assert!(r.rows.len() >= 15, "rows = {}", r.rows.len());
    }

    #[test]
    fn builder_seed_flows_into_service_and_engine() {
        let clock = VirtualClock::new();
        let api = small_api(clock);
        let b = Engine::builder(api).seed(42).batch_size(64).reference(true);
        assert_eq!(b.config.seed, 42);
        assert_eq!(b.config.service.seed, 42);
        let e = b.build();
        assert_eq!(e.config.batch_size, 64);
        assert!(e.config.reference);
    }

    /// Fails on its hundredth call.
    struct Boom(u32);

    impl crate::udf::StatefulUdf for Boom {
        fn call(&mut self, _: &[Value], _: Timestamp) -> Result<Value, QueryError> {
            self.0 += 1;
            match self.0 {
                100 => Err(QueryError::Exec("boom".into())),
                n => Ok(Value::Int(i64::from(n))),
            }
        }
    }

    #[test]
    fn a_failed_run_returns_its_error_and_closes_its_operator_spans() {
        let sink = Arc::new(tweeql_obs::VecSink::new(1 << 16));
        let mut e = Engine::builder(small_api(VirtualClock::new()))
            .configure_registry(|r| r.register_stateful("boom", Arc::new(|| Box::new(Boom(0)))))
            .trace_sink(sink.clone())
            .build();
        let err = e
            .execute("SELECT boom(followers) AS b FROM twitter")
            .unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
        let events = sink.events();
        assert_eq!(tweeql_obs::trace::validate_span_tree(&events), None);
        let phases = |phase| {
            (events.iter())
                .filter(|ev| ev.kind == SpanKind::Operator && ev.phase == phase)
                .count()
        };
        assert!(phases(tweeql_obs::Phase::Start) > 0);
        assert_eq!(
            phases(tweeql_obs::Phase::Start),
            phases(tweeql_obs::Phase::End)
        );
    }

    #[test]
    fn faulted_run_survives_and_reports_degradation() {
        let clock = VirtualClock::new();
        let api = small_api(clock);
        let mut plan = FaultPlan::chaos(11);
        plan.disconnect_rate = 0.01;
        let mut e = Engine::builder(api)
            .fault_policy(plan)
            .retry_policy(RetryPolicy {
                replay_overlap: Duration::ZERO,
                ..RetryPolicy::default()
            })
            .build();
        let r = e
            .execute(
                "SELECT count(*) AS c FROM twitter \
                 WHERE text contains 'obama' WINDOW 1 minutes",
            )
            .unwrap();
        assert!(r.stats.source_faults.disconnects > 0);
        assert!(
            r.stats
                .diagnostics
                .notices
                .iter()
                .any(|n| n.starts_with("source:")),
            "{:?}",
            r.stats.diagnostics.notices
        );
        assert!(!r.rows.is_empty());
    }
}
