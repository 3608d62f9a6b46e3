//! The traced run: each workload replayed in-process as a ladder, one
//! rung per layer (the layers are the repository's modules), with a
//! span around every call into a layer's public functions. The rungs
//! isolate a layer's work so that the parts can be set against the
//! whole: the top rung is the in-process `Service::handle` replay of
//! the workload (`Engine::execute` for the ad-hoc workload), and
//! `trace.unattributed_share` is the part of it the lower rungs do not
//! explain.

use crate::alloc;
use crate::child::Scratch;
use crate::reference::{check, Digest, Ops};
use crate::spans::Trace;
use crate::stats::{median, percentile};
use crate::tcp::{steps, STEP_SECS};
use crate::workloads::{durability, Kind, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tweeql::catalog::Catalog;
use tweeql::exec::supervise::{RetryPolicy, SourceBlock, SupervisedSource};
use tweeql::plan::{plan, PlanConfig};
use tweeql::prelude::*;
use tweeql::selectivity::choose_filter;
use tweeql::sink;
use tweeql::udf::{Registry, ServiceConfig};
use tweeql_firehose::{FilterSpec, SourceBatch, StreamingApi};
use tweeql_model::batch::col;
use tweeql_model::{Record, RowCache, SchemaRef, Timestamp, Tweet, TweetBatch, VirtualClock};
use tweeql_server::protocol::{Request, Response};
use tweeql_server::Service;
use tweeql_text::sentiment::{LexiconClassifier, SentimentClassifier};
use tweeql_text::{AhoCorasick, Regex};
use tweeql_wal::Wal;

/// Rows the source hands over per pull, the engine's default.
const BLOCK: usize = 256;

/// Tweets the sentiment and regex micro-rungs look at.
const TEXT_SAMPLE: usize = 20_000;

/// What the ladder reads.
pub struct Input<'a> {
    pub workload: &'a Workload,
    pub tweets: &'a [Tweet],
    pub sqls: &'a [String],
    /// Reference digests of the first `expected.len()` queries; the
    /// rest must be empty.
    pub expected: &'a [Digest],
    pub minutes: i64,
    pub seed: u64,
    pub scratch: &'a Scratch,
    /// Polls the TCP run fitted into one `STEP`, replayed in-process.
    pub polls_per_step: usize,
}

/// What the ladder found.
#[derive(Default)]
pub struct Output {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ops: Ops,
}

type Mask = Option<Arc<[bool]>>;

fn api(tweets: &[Tweet]) -> StreamingApi {
    StreamingApi::new(tweets.to_vec(), VirtualClock::new())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One source subscription a workload opens, and the columns its
/// consumers read.
struct Sub {
    filter: FilterSpec,
    mask: Mask,
}

/// What planning says about a workload: subscriptions, index needles,
/// and whether a host shares one scan among several queries (it then
/// scans for needles itself and decodes rows, not columns).
struct Plans {
    subs: Vec<Sub>,
    needles: Vec<String>,
    multi_query: bool,
}

fn union(a: Mask, b: &Mask) -> Mask {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.iter().zip(b.iter()).map(|(x, y)| *x || *y).collect()),
        _ => None,
    }
}

fn plan_workload(input: &Input, shared: &StreamingApi) -> Result<Plans, String> {
    let registry = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
    let catalog = Catalog::with_twitter();
    let tcp = matches!(input.workload.kind, Kind::Tcp { .. });
    let mut out = Plans {
        subs: Vec::new(),
        needles: Vec::new(),
        multi_query: tcp && input.sqls.len() > 1,
    };
    let mut host_mask: Mask = Some(vec![false; col::COUNT].into());
    for sql in input.sqls {
        let stmt = tweeql::parser::parse(sql).map_err(err)?;
        let p = plan(&stmt, &catalog, &registry, &PlanConfig::default()).map_err(err)?;
        for c in &p.api_candidates {
            if let FilterSpec::Track(kws) = &c.spec {
                out.needles.extend(kws.iter().cloned());
            }
        }
        match input.workload.kind {
            Kind::Tcp { .. } => host_mask = union(host_mask, &p.live_columns),
            Kind::Adhoc => out.subs.push(Sub {
                filter: choose_filter(shared, &p.api_candidates, 2000).filter(&p.api_candidates),
                mask: p.live_columns.clone(),
            }),
        }
    }
    if out.subs.is_empty() {
        out.subs.push(Sub {
            filter: FilterSpec::Sample(1.0),
            mask: host_mask,
        });
    }
    Ok(out)
}

/// Rungs 1-3: the facade alone, the supervisor over it, and the decode
/// of what was delivered. Returns tweets delivered.
fn source_rungs(
    input: &Input,
    plans: &Plans,
    shared: &StreamingApi,
    rows_per_batch: usize,
    t: &mut Trace,
    root: u32,
    m: &mut BTreeMap<&'static str, f64>,
) -> u64 {
    let rung = t.enter("rung.firehose", Some(root));
    let mut batch = SourceBatch::new();
    let (mut scanned, mut delivered) = (0u64, 0u64);
    for sub in &plans.subs {
        let mut conn = shared.connect(sub.filter.clone());
        while t.time("firehose.next_batch", rung, || {
            conn.next_batch(BLOCK, &mut batch)
        }) > 0
        {}
        scanned += conn.stats().scanned;
        delivered += conn.stats().delivered;
    }
    t.exit(rung);

    let rung = t.enter("rung.supervise", Some(root));
    let mut blocks: Vec<(usize, Vec<u32>)> = Vec::new();
    for (s, sub) in plans.subs.iter().enumerate() {
        let mut src = SupervisedSource::new(
            shared.clone(),
            sub.filter.clone(),
            None,
            RetryPolicy::default(),
            input.seed,
        );
        loop {
            let span = t.enter("supervise.next_block", Some(rung));
            let block = src.next_block(BLOCK);
            t.exit(span);
            match block {
                Some(SourceBlock::Tweets(b)) => blocks.push((s, b.sel.clone())),
                Some(SourceBlock::Gap { .. }) => {}
                None => break,
            }
        }
    }
    t.exit(rung);

    // Decode in the batch size the consumer really flushes at: a host
    // with time-sensitive queries flushes at every watermark second.
    let rung = t.enter("rung.model", Some(root));
    let log = Arc::clone(shared.log());
    let mut tb = TweetBatch::new();
    let mut cache = RowCache::new();
    let all = [true; col::COUNT];
    let (mut built, mut skipped) = (0u64, 0u64);
    for (s, sel) in &blocks {
        let mask = &plans.subs[*s].mask;
        tb.set_live(mask.clone());
        for chunk in sel.chunks(rows_per_batch.max(1)) {
            t.time("model.decode", rung, || {
                tb.bind_log(&log);
                tb.extend_indices(chunk);
                let d = tb.materialize(mask.as_deref().unwrap_or(&all));
                built += d.columns_materialized;
                skipped += d.columns_skipped;
            });
            if plans.multi_query {
                // A host with several queries turns each selected row
                // into one shared `Record` instead.
                t.time("model.row_decode", rung, || {
                    tb.bind_log(&log);
                    tb.extend_indices(chunk);
                    cache.begin(chunk.len());
                    for i in 0..chunk.len() {
                        std::hint::black_box(cache.get(&tb, i));
                    }
                });
            }
        }
    }
    t.exit(rung);

    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let f_ns = t.total_ns("firehose.next_batch");
    m.insert("firehose.next_batch_ns_per_tweet", per(f_ns, scanned));
    m.insert("firehose.tweets_delivered", delivered as f64);
    m.insert(
        "supervise.next_block_ns_per_tweet",
        per(
            (t.total_ns("supervise.next_block") - f_ns).max(0.0),
            scanned,
        ),
    );
    m.insert(
        "model.decode_ns_per_tweet",
        per(t.total_ns("model.decode"), delivered),
    );
    m.insert(
        "model.row_decode_ns_per_row",
        per(t.total_ns("model.row_decode"), delivered),
    );
    m.insert("model.columns_materialized", built as f64);
    m.insert("model.columns_skipped", skipped as f64);
    delivered
}

/// Rung 4: the text layer's three primitives on this workload's text.
fn text_rung(
    input: &Input,
    plans: &Plans,
    t: &mut Trace,
    root: u32,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let rung = t.enter("rung.text", Some(root));
    let uses = |f: &str| input.sqls.iter().any(|q| q.contains(f));
    // Only a host with several queries scans for needles itself.
    if plans.multi_query && !plans.needles.is_empty() {
        let ac = AhoCorasick::new(&plans.needles);
        for chunk in input.tweets.chunks(4096) {
            t.time("text.ac_scan", rung, || {
                for tw in chunk {
                    std::hint::black_box(ac.matching_patterns(&tw.text));
                }
            });
        }
    }
    let sample = &input.tweets[..input.tweets.len().min(TEXT_SAMPLE)];
    if uses("sentiment(") {
        let clf = LexiconClassifier::new();
        t.time("text.sentiment", rung, || {
            for tw in sample {
                std::hint::black_box(clf.classify(&tw.text));
            }
        });
    }
    let mut regex_calls = 0u64;
    if uses("regex_extract(") {
        let re = Regex::new("http://[a-z./0-9-]+").expect("the dashboard's pattern compiles");
        t.time("text.regex", rung, || {
            for tw in sample.iter().filter(|tw| tw.text.contains("http://")) {
                std::hint::black_box(re.extract(&tw.text, 0));
                regex_calls += 1;
            }
        });
    }
    t.exit(rung);
    let n = input.tweets.len().max(1) as f64;
    m.insert("text.ac_ns_per_tweet", t.total_ns("text.ac_scan") / n);
    m.insert(
        "text.sentiment_ns_per_call",
        t.total_ns("text.sentiment") / sample.len().max(1) as f64,
    );
    m.insert(
        "text.regex_ns_per_call",
        t.total_ns("text.regex") / regex_calls.max(1) as f64,
    );
}

/// Rows a host run handed out, per query, in `take_output` order.
type Taken = Vec<(usize, SchemaRef, Vec<Record>)>;

/// An in-process replay of what the TCP clients ask of a host: register
/// everything, pump one `STEP` at a time with a few polls after each,
/// run to the end, drain.
struct HostRun<'a> {
    sqls: &'a [String],
    polls_per_step: usize,
    ids: Vec<QueryId>,
    next: usize,
    taken: Option<Taken>,
    rows: u64,
}

impl<'a> HostRun<'a> {
    fn new(input: &'a Input, keep_rows: bool) -> HostRun<'a> {
        HostRun {
            sqls: input.sqls,
            polls_per_step: input.polls_per_step,
            ids: Vec::new(),
            next: 0,
            taken: keep_rows.then(Vec::new),
            rows: 0,
        }
    }

    fn register(&mut self, host: &mut QueryHost, t: &mut Trace, rung: u32) -> Result<(), String> {
        for sql in self.sqls {
            let id = t.time("plan.register", rung, || host.register(sql));
            self.ids.push(id.map_err(err)?);
        }
        Ok(())
    }

    fn take(
        &mut self,
        host: &mut QueryHost,
        i: usize,
        t: &mut Trace,
        rung: u32,
    ) -> Result<(), String> {
        let id = self.ids[i];
        let rows = t
            .time("host.take_output", rung, || host.take_output(id))
            .map_err(err)?;
        self.rows += rows.len() as u64;
        if let Some(taken) = &mut self.taken {
            if !rows.is_empty() {
                taken.push((i, host.schema(id).map_err(err)?, rows));
            }
        }
        Ok(())
    }

    /// Pump steps `from+1 ..= to`, each what one `STEP` covers.
    fn pump(
        &mut self,
        host: &mut QueryHost,
        from: i64,
        to: i64,
        t: &mut Trace,
        rung: u32,
    ) -> Result<(), String> {
        for step in from + 1..=to {
            t.time("host.pump", rung, || {
                host.pump_until(Timestamp::from_secs(step * STEP_SECS))
            })
            .map_err(err)?;
            for _ in 0..self.polls_per_step {
                let i = self.next;
                self.next = (i + 1) % self.ids.len();
                self.take(host, i, t, rung)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, host: &mut QueryHost, t: &mut Trace, rung: u32) -> Result<(), String> {
        t.time("host.pump", rung, || host.run_to_end())
            .map_err(err)?;
        for i in 0..self.ids.len() {
            self.take(host, i, t, rung)?;
        }
        Ok(())
    }
}

fn host_builder(input: &Input, workers: usize) -> EngineBuilder {
    Engine::builder(api(input.tweets))
        .workers(workers)
        .seed(input.seed)
}

/// A whole host replay with spans going to `t`: wall seconds,
/// allocations, dispatcher statistics.
fn plain_host_run(
    input: &Input,
    workers: usize,
    run: &mut HostRun,
    t: &mut Trace,
    rung: u32,
) -> Result<(f64, u64, HostStats), String> {
    let mut host = host_builder(input, workers).build_host();
    let (t0, a0) = (Instant::now(), alloc::count());
    run.register(&mut host, t, rung)?;
    run.pump(&mut host, 0, steps(input.minutes), t, rung)?;
    run.finish(&mut host, t, rung)?;
    Ok((
        t0.elapsed().as_secs_f64(),
        alloc::count() - a0,
        host.stats(),
    ))
}

/// Digest the rows a run kept, rendering them through the sink rung.
fn sink_rung(taken: &Taken, n: usize, t: &mut Trace, root: u32) -> (Vec<Digest>, u64) {
    let rung = t.enter("rung.sink", Some(root));
    let mut digests = vec![Digest::EMPTY; n];
    let mut bytes = 0u64;
    for (i, schema, rows) in taken {
        let text = t.time("sink.to_json_lines", rung, || {
            sink::to_json_lines(schema, rows)
        });
        bytes += text.len() as u64;
        for line in text.lines() {
            digests[*i].line(line);
        }
    }
    t.exit(rung);
    (digests, bytes)
}

/// The server rung: the workload through `Service::handle`, with the
/// protocol's parse and render around each request as a client's
/// session thread would run them.
fn server_rung(
    input: &Input,
    data_dir: Option<&Path>,
    t: &mut Trace,
    root: u32,
) -> Result<f64, String> {
    let b = host_builder(input, 1);
    let host = match data_dir {
        Some(dir) => b.recover_with(durability(dir)).map_err(err)?,
        None => b.build_host(),
    };
    let mut svc = Service::new(host);
    let mut ids = Vec::new();
    for sql in input.sqls {
        let r = svc.handle(Request::Register(sql.clone()));
        ids.push(r.detail.parse::<QueryId>().map_err(err)?);
    }
    let rung = t.enter("rung.server", Some(root));
    let mut lines = 0u64;
    let mut ask = |svc: &mut Service, line: &str, span: &'static str, t: &mut Trace| {
        let req = t
            .time("server.parse", rung, || Request::parse(line))
            .map_err(err)?;
        let resp: Response = t.time(span, rung, || svc.handle(req));
        if !resp.ok {
            return Err(format!("{line} -> ERR {}", resp.detail));
        }
        let frame = t.time("server.render", rung, || resp.render());
        lines += 2 + resp.body.len() as u64;
        std::hint::black_box(frame);
        Ok(())
    };
    let mut next = 0;
    let step = format!("STEP {STEP_SECS}");
    for _ in 0..steps(input.minutes) {
        ask(&mut svc, &step, "server.handle_step", t)?;
        for _ in 0..input.polls_per_step {
            let line = format!("POLL {}", ids[next]);
            next = (next + 1) % ids.len();
            ask(&mut svc, &line, "server.handle_poll", t)?;
        }
    }
    ask(&mut svc, "RUN", "server.handle_step", t)?;
    for id in &ids {
        ask(&mut svc, &format!("POLL {id}"), "server.handle_poll", t)?;
    }
    t.exit(rung);
    Ok(lines as f64)
}

/// The WAL's three primitives alone, then the durable host: half the
/// stream, a crash (the host is dropped without a checkpoint), a timed
/// recovery, the rest of the stream.
fn wal_rungs(
    input: &Input,
    t: &mut Trace,
    root: u32,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<u32, String> {
    let rung = t.enter("rung.wal", Some(root));
    let dir = input.scratch.subdir("ladder-wal").map_err(err)?;
    let (mut wal, _) = Wal::open(&dir, 1 << 20, true).map_err(err)?;
    let payload = [0xA5u8; 64];
    for _ in 0..200 {
        t.time("wal.append", rung, || wal.append(&payload))
            .map_err(err)?;
        t.time("wal.sync", rung, || wal.sync()).map_err(err)?;
    }
    let checkpoint = vec![0x5Au8; 4096];
    for _ in 0..20 {
        t.time("wal.write_checkpoint", rung, || {
            wal.write_checkpoint(&checkpoint)
        })
        .map_err(err)?;
    }
    drop(wal);
    t.exit(rung);

    let rung = t.enter("rung.durable", Some(root));
    let dir = input.scratch.subdir("ladder-durable").map_err(err)?;
    let mut run = HostRun::new(input, false);
    let (half, all) = (steps(input.minutes) / 2, steps(input.minutes));
    let mut host = host_builder(input, 1)
        .recover_with(durability(&dir))
        .map_err(err)?;
    run.register(&mut host, t, rung)?;
    run.pump(&mut host, 0, half, t, rung)?;
    let mut wal_stats = host.wal_stats().unwrap_or_default();
    drop(host);
    let span = t.enter("durable.recover", Some(rung));
    let mut host = host_builder(input, 1)
        .recover_with(durability(&dir))
        .map_err(err)?;
    t.exit(span);
    let replayed = host.stats().tweets_delivered;
    run.pump(&mut host, half, all, t, rung)?;
    run.finish(&mut host, t, rung)?;
    let second = host.wal_stats().unwrap_or_default();
    wal_stats.records += second.records;
    wal_stats.bytes += second.bytes;
    wal_stats.fsyncs += second.fsyncs;
    wal_stats.checkpoints += second.checkpoints;
    t.exit(rung);

    let us = |name: &str| {
        t.durations(name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect::<Vec<_>>()
    };
    m.insert(
        "wal.append_us",
        us("wal.append").iter().sum::<f64>() / 200.0,
    );
    m.insert("wal.sync_us_p50", median(&us("wal.sync")));
    m.insert("wal.checkpoint_us", median(&us("wal.write_checkpoint")));
    m.insert("wal.records", wal_stats.records as f64);
    m.insert("wal.fsyncs", wal_stats.fsyncs as f64);
    m.insert("wal.bytes", wal_stats.bytes as f64);
    m.insert("wal.checkpoints", wal_stats.checkpoints as f64);
    m.insert(
        "durable.replay_tweets_per_s",
        replayed as f64 / (t.total_ns("durable.recover") / 1e9).max(1e-9),
    );
    Ok(rung)
}

/// One dedicated engine per live query with the default configuration
/// (pushdown on): `Engine::profile()` gives the operators' busy time on
/// just the rows the query's needle lets through — the rows a host
/// dispatches to it. For the ad-hoc workload this is also the top
/// rung.
fn exec_rung(
    input: &Input,
    t: &mut Trace,
    root: u32,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(Vec<Digest>, u64), String> {
    let rung = t.enter("rung.exec", Some(root));
    let mut digests = Vec::new();
    let mut bytes = 0u64;
    let (mut scan, mut agg, mut udf) = (0u64, 0u64, 0u64);
    let (mut rows_in, mut rows_out) = (0u64, 0u64);
    let (mut geo, mut hits, mut misses) = (0u64, 0u64, 0u64);
    for sql in &input.sqls[..input.expected.len()] {
        let mut engine = host_builder(input, 1).build();
        let result = t
            .time("engine.execute", rung, || engine.execute(sql))
            .map_err(err)?;
        let text = t.time("engine.to_json_lines", rung, || {
            sink::to_json_lines(&result.schema, &result.rows)
        });
        let mut d = Digest::EMPTY;
        text.lines().for_each(|l| d.line(l));
        digests.push(d);
        bytes += text.len() as u64;
        let Some(p) = engine.profile() else {
            continue;
        };
        for s in &p.stages {
            let bucket = if s.name.contains("aggregate") || s.name.contains("topk") {
                &mut agg
            } else if s.name.contains("async") {
                &mut udf
            } else {
                &mut scan
            };
            *bucket += s.busy_nanos;
        }
        rows_in += p.stages.first().map_or(0, |s| s.records_in);
        rows_out += p.stages.last().map_or(0, |s| s.records_out);
        geo += p.geo_requests;
        hits += p.geo_cache_hits;
        misses += p.geo_cache_misses;
    }
    t.exit(rung);
    m.insert("exec.scan_busy_ms", scan as f64 / 1e6);
    m.insert("exec.aggregate_busy_ms", agg as f64 / 1e6);
    m.insert("exec.async_udf_busy_ms", udf as f64 / 1e6);
    m.insert("exec.rows_in", rows_in as f64);
    m.insert("exec.rows_out", rows_out as f64);
    m.insert("geo.requests", geo as f64);
    m.insert(
        "geo.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok((digests, bytes))
}

/// Climb the ladder for one workload.
pub fn climb(input: &Input, t: &mut Trace) -> Result<Output, String> {
    let mut out = Output::default();
    let m = &mut out.metrics;
    let root = t.enter("ladder", None);
    let shared = api(input.tweets);
    let plans = plan_workload(input, &shared)?;
    let tcp = matches!(input.workload.kind, Kind::Tcp { .. });
    let durable = input.workload.kind == Kind::Tcp { durable: true };
    let multi_query = plans.multi_query;
    let ms = |ns: f64| ns / 1e6;

    // The rows the operators see, and — for ad-hoc — the whole.
    let (exec_digests, exec_bytes) = exec_rung(input, t, root, m)?;
    let exec_ms =
        m["exec.scan_busy_ms"] + m["exec.aggregate_busy_ms"] + m["exec.async_udf_busy_ms"];

    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let total_ms;
    let mut rows_per_batch = BLOCK;
    let mut rows_decoded = None;
    if tcp {
        // The host rung, traced, with its allocation count; then its
        // untraced twin for the tracing overhead.
        let host_rung = t.enter("rung.host", Some(root));
        let mut run = HostRun::new(input, true);
        let (traced_s, allocs, stats) = plain_host_run(input, 1, &mut run, t, host_rung)?;
        t.exit(host_rung);
        let taken = run.taken.take().expect("rows were kept");
        let (digests, bytes) = sink_rung(&taken, input.sqls.len(), t, root);
        check(&digests, input.expected, "in-process host", &mut out.ops);
        drop(taken);
        let (untraced_s, _, _) = plain_host_run(
            input,
            1,
            &mut HostRun::new(input, true),
            &mut Trace::disabled(),
            0,
        )?;
        // The same replay on two workers. Not for the durable workload:
        // its plain replay is `dashboard`'s, and this is the longest rung.
        let mut w2_s = 0.0;
        if !durable {
            let rung = t.enter("rung.host_w2", Some(root));
            (w2_s, _, _) = plain_host_run(
                input,
                2,
                &mut HostRun::new(input, false),
                &mut Trace::disabled(),
                0,
            )?;
            t.exit(rung);
        }

        let tweets = stats.tweets_delivered.max(1) as f64;
        rows_per_batch = (tweets / stats.batches.max(1) as f64).round() as usize;
        rows_decoded = Some(stats.rows_decoded);
        let registers: Vec<f64> = t
            .durations("plan.register")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        m.insert("plan.register_us_p50", median(&registers));
        m.insert(
            "plan.register_us_last100",
            median(&registers[registers.len().saturating_sub(100)..]),
        );
        m.insert("host.pump_ms", ms(t.total_ns_in("host.pump", host_rung)));
        m.insert("host.batches", stats.batches as f64);
        m.insert(
            "host.tweets_per_batch",
            tweets / stats.batches.max(1) as f64,
        );
        m.insert("host.rows_dispatched", stats.rows_dispatched as f64);
        m.insert("host.rows_decoded", stats.rows_decoded as f64);
        m.insert("host.rows_shared", stats.rows_shared as f64);
        m.insert(
            "host.take_output_ns_per_row",
            t.total_ns_in("host.take_output", host_rung) / run.rows.max(1) as f64,
        );
        m.insert("host.allocs_per_tweet", allocs as f64 / tweets);
        m.insert("host.w2_pump_ms", w2_s * 1e3);
        m.insert(
            "sink.json_ns_per_row",
            t.total_ns("sink.to_json_lines") / run.rows.max(1) as f64,
        );
        m.insert("sink.bytes_per_row", bytes as f64 / run.rows.max(1) as f64);
        m.insert("trace.overhead_share", (traced_s - untraced_s) / untraced_s);

        if durable {
            let durable_rung = wal_rungs(input, t, root, m)?;
            let plain = m["host.pump_ms"];
            let delta = ms(t.total_ns_in("host.pump", durable_rung)) - plain;
            m.insert("durable.pump_overhead_share", delta / plain);
            layers.push(("layer.wal_ms", delta.max(0.0)));
        }
        let dir = match durable {
            true => Some(input.scratch.subdir("ladder-server").map_err(err)?),
            false => None,
        };
        let lines = server_rung(input, dir.as_deref(), t, root)?;
        let steps: Vec<f64> = t
            .durations("server.handle_step")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        let polls: Vec<f64> = t
            .durations("server.handle_poll")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        let protocol_ns = t.total_ns("server.parse") + t.total_ns("server.render");
        m.insert("server.handle_step_ms_p50", median(&steps));
        m.insert("server.handle_step_ms_p95", percentile(&steps, 95.0));
        m.insert("server.handle_poll_us_p50", median(&polls));
        m.insert("server.protocol_ns_per_line", protocol_ns / lines.max(1.0));
        total_ms = ms(t.total_ns("rung.server"));
        layers.push((
            "layer.take_output_ms",
            ms(t.total_ns_in("host.take_output", host_rung)),
        ));
        layers.push(("layer.sink_ms", ms(t.total_ns("sink.to_json_lines"))));
        layers.push(("layer.protocol_ms", ms(protocol_ns)));
    } else {
        check(
            &exec_digests,
            input.expected,
            "in-process engine",
            &mut out.ops,
        );
        total_ms = ms(t.total_ns("engine.execute") + t.total_ns("engine.to_json_lines"));
        m.insert("engine.execute_ms", ms(t.total_ns("engine.execute")));
        // The same list on the parallel engine, the only route to
        // `exec/parallel`: one number, no rungs under it.
        let rung = t.enter("rung.engine_w2", Some(root));
        for sql in input.sqls {
            let mut engine = host_builder(input, 2).build();
            t.time("engine.w2_execute", rung, || engine.execute(sql))
                .map_err(err)?;
        }
        t.exit(rung);
        m.insert("engine.w2_execute_ms", ms(t.total_ns("engine.w2_execute")));
        m.insert(
            "sink.json_ns_per_row",
            t.total_ns("engine.to_json_lines") / m["exec.rows_out"].max(1.0),
        );
        m.insert(
            "sink.bytes_per_row",
            exec_bytes as f64 / m["exec.rows_out"].max(1.0),
        );
        layers.push(("layer.sink_ms", ms(t.total_ns("engine.to_json_lines"))));
    }

    let delivered = source_rungs(input, &plans, &shared, rows_per_batch, t, root, m);
    text_rung(input, &plans, t, root, m);
    t.exit(root);

    // Set the parts against the whole.
    let firehose = ms(t.total_ns("firehose.next_batch"));
    let supervise = (ms(t.total_ns("supervise.next_block")) - firehose).max(0.0);
    let decode_ns = match multi_query {
        true => m["model.row_decode_ns_per_row"],
        false => m["model.decode_ns_per_tweet"],
    };
    let model = ms(decode_ns * rows_decoded.unwrap_or(delivered) as f64);
    let text_ac = ms(t.total_ns("text.ac_scan"));
    layers.push(("layer.firehose_ms", firehose));
    layers.push(("layer.supervise_ms", supervise));
    layers.push(("layer.model_ms", model));
    layers.push(("layer.text_ac_ms", text_ac));
    // A lone pipeline decodes inside its first stage, so its busy time
    // already holds the decode; a host with several queries decodes
    // before it dispatches.
    let exec_ms = match multi_query {
        true => exec_ms,
        false => (exec_ms - model).max(0.0),
    };
    layers.push(("layer.exec_ms", exec_ms));
    if tcp {
        let pump = m["host.pump_ms"];
        let host_self = pump - firehose - supervise - model - text_ac - exec_ms;
        m.insert("host.self_ms", host_self);
        layers.push(("layer.host_self_ms", host_self.max(0.0)));
    }
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    m.insert("layer.total_ms", total_ms);
    m.insert(
        "trace.unattributed_share",
        (total_ms - attributed).abs() / total_ms.max(1e-9),
    );
    for (name, v) in layers {
        m.insert(name, v);
    }
    Ok(out)
}
