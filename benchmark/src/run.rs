//! One run of one workload: generate the stream from the seed, compute
//! the reference, then either measure (end-to-end metrics, tracing off)
//! or trace (per-layer metrics).

use crate::adhoc;
use crate::child::{ChildSpec, Scratch};
use crate::ladder;
use crate::reference::{self, check, Digest, Ops};
use crate::spans::Trace;
use crate::stats::{median, percentile};
use crate::tcp::{self, POLL_THINK};
use crate::workloads::{self, Kind, Sizing, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tweeql_firehose::replay::encode_log;

/// A metric the benchmark reports: name, unit, which way is better, and
/// — for end-to-end metrics — the share of the parent's median by which
/// it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. Every workload reports every one.
/// The bounds are set by the machine, not by the metrics (README): on a
/// quiet container the ten-seed spreads are 0.02-0.06, but the shared
/// host slows a core by 1.3-2x for seconds to minutes at a time, and
/// then they reach 0.10-0.22. The driver's contract accepts a benchmark
/// only while every spread stays inside its bound and caps a bound at
/// 0.25, so the two timings take the cap and `peak_rss_mb` 0.15, above
/// `export`'s widest spread (0.09). Poll latency is not here: it could not be
/// made to repeat within a tenth even on a quiet machine, so it is a
/// per-layer metric (`server.poll_ms_*`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("tweets_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, from the traced run. A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("firehose.next_batch_ns_per_tweet", "ns", "lower"),
    layer("firehose.tweets_delivered", "count", "higher"),
    layer("supervise.next_block_ns_per_tweet", "ns", "lower"),
    layer("model.decode_ns_per_tweet", "ns", "lower"),
    layer("model.row_decode_ns_per_row", "ns", "lower"),
    layer("model.columns_materialized", "count", "lower"),
    layer("model.columns_skipped", "count", "higher"),
    layer("text.ac_ns_per_tweet", "ns", "lower"),
    layer("text.sentiment_ns_per_call", "ns", "lower"),
    layer("text.regex_ns_per_call", "ns", "lower"),
    layer("plan.register_us_p50", "us", "lower"),
    layer("plan.register_us_last100", "us", "lower"),
    layer("plan.register_ms_p50", "ms", "lower"),
    layer("exec.scan_busy_ms", "ms", "lower"),
    layer("exec.aggregate_busy_ms", "ms", "lower"),
    layer("exec.async_udf_busy_ms", "ms", "lower"),
    layer("exec.rows_in", "count", "lower"),
    layer("exec.rows_out", "count", "higher"),
    layer("geo.requests", "count", "lower"),
    layer("geo.cache_hit_share", "share", "higher"),
    layer("engine.execute_ms", "ms", "lower"),
    layer("engine.w2_execute_ms", "ms", "lower"),
    layer("host.pump_ms", "ms", "lower"),
    layer("host.self_ms", "ms", "lower"),
    layer("host.batches", "count", "lower"),
    layer("host.tweets_per_batch", "count", "higher"),
    layer("host.rows_dispatched", "count", "lower"),
    layer("host.rows_decoded", "count", "lower"),
    layer("host.rows_shared", "count", "higher"),
    layer("host.take_output_ns_per_row", "ns", "lower"),
    layer("host.allocs_per_tweet", "count", "lower"),
    layer("host.w2_pump_ms", "ms", "lower"),
    layer("sink.json_ns_per_row", "ns", "lower"),
    layer("sink.bytes_per_row", "bytes", "lower"),
    layer("server.handle_step_ms_p50", "ms", "lower"),
    layer("server.handle_step_ms_p95", "ms", "lower"),
    layer("server.handle_poll_us_p50", "us", "lower"),
    layer("server.protocol_ns_per_line", "ns", "lower"),
    layer("server.step_ms_p50", "ms", "lower"),
    layer("server.step_ms_p95", "ms", "lower"),
    layer("server.poll_ms_p50", "ms", "lower"),
    layer("server.poll_ms_p95", "ms", "lower"),
    layer("server.poll_wait_ms_p50", "ms", "lower"),
    layer("server.wire_bytes", "bytes", "lower"),
    layer("wal.append_us", "us", "lower"),
    layer("wal.sync_us_p50", "us", "lower"),
    layer("wal.checkpoint_us", "us", "lower"),
    layer("wal.records", "count", "lower"),
    layer("wal.fsyncs", "count", "lower"),
    layer("wal.bytes", "bytes", "lower"),
    layer("wal.checkpoints", "count", "lower"),
    layer("durable.pump_overhead_share", "share", "lower"),
    layer("durable.replay_tweets_per_s", "1/s", "higher"),
    layer("durable.recovery_s", "s", "lower"),
    layer("gen.polls_sent", "count", "higher"),
    layer("gen.poll_late_ms_p95", "ms", "lower"),
    layer("trace.unattributed_share", "share", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("layer.total_ms", "ms", "lower"),
    layer("layer.firehose_ms", "ms", "lower"),
    layer("layer.supervise_ms", "ms", "lower"),
    layer("layer.model_ms", "ms", "lower"),
    layer("layer.text_ac_ms", "ms", "lower"),
    layer("layer.exec_ms", "ms", "lower"),
    layer("layer.host_self_ms", "ms", "lower"),
    layer("layer.take_output_ms", "ms", "lower"),
    layer("layer.sink_ms", "ms", "lower"),
    layer("layer.protocol_ms", "ms", "lower"),
    layer("layer.wal_ms", "ms", "lower"),
];

/// What every run of a session shares.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// How long to keep starting measured passes.
    pub seconds: f64,
    pub sizing: Sizing,
    /// Passes to make even when `seconds` is already over, so that
    /// `setup_s` and the rest are medians over several set-ups.
    pub min_passes: usize,
    /// The `bench_server` executable.
    pub server_bin: PathBuf,
    /// `benchmark/out`: scratch files and traces go here.
    pub out_dir: PathBuf,
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No operation failed and every output equals the reference.
    pub correct: bool,
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    pub stream_tweets: usize,
    /// Measured passes (0 for a traced run).
    pub passes: usize,
    /// The poller sent later than its own think time at its 95th
    /// percentile: poll latency then measures the generator.
    pub generator_bound: bool,
}

/// A pass that ended in an error is one more failed operation, on top
/// of the requests it had sent.
fn failed_pass(what: &str, e: std::io::Error, ops: &mut Ops) {
    eprintln!("benchmark: {what} pass failed: {e}");
    ops.attempted += 1;
    ops.failed += 1;
}

/// What every run of one workload at one seed shares: the generated
/// stream, its log file, the queries and the reference digests. A set
/// prepares once per workload; a driver run prepares for itself.
pub struct Prepared {
    scratch: Scratch,
    tweets: Vec<tweeql_model::Tweet>,
    sqls: Vec<String>,
    expected: Vec<Digest>,
    spec: ChildSpec,
}

/// Set-up that is outside `setup_s` and every timed window.
pub fn prepare(workload: &Workload, opts: &RunOpts) -> Result<Prepared, String> {
    let scratch = Scratch::new(&opts.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let t0 = Instant::now();
    let tweets = workloads::stream(opts.seed, opts.sizing.minutes);
    let t_gen = t0.elapsed().as_secs_f64();
    let log = scratch.path().join("stream.log");
    std::fs::write(&log, encode_log(&tweets).to_vec()).map_err(|e| format!("stream log: {e}"))?;
    let t_log = t0.elapsed().as_secs_f64();
    let sqls = workloads::queries(workload, &opts.sizing);
    let live = workloads::live_queries(workload, sqls.len());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let expected = reference::digests(&tweets, &sqls[..live], opts.seed, threads)?;
    eprintln!(
        "benchmark: set-up: {} tweets generated in {t_gen:.2} s, log written in {:.2} s, reference of {live} queries in {:.2} s",
        tweets.len(),
        t_log - t_gen,
        t0.elapsed().as_secs_f64() - t_log
    );
    Ok(Prepared {
        scratch,
        tweets,
        sqls,
        expected,
        spec: ChildSpec {
            bin: opts.server_bin.clone(),
            log,
            seed: opts.seed,
        },
    })
}

/// Run passes until `seconds` are over and `min_passes` are made.
fn passes<P>(opts: &RunOpts, mut one: impl FnMut(usize) -> Option<P>) -> Vec<P> {
    let t0 = Instant::now();
    let mut done = Vec::new();
    let mut attempts = 0;
    while attempts < opts.min_passes || t0.elapsed().as_secs_f64() < opts.seconds {
        done.extend(one(attempts));
        attempts += 1;
    }
    done
}

fn tcp_pass(
    p: &Prepared,
    durable: bool,
    minutes: i64,
    n: usize,
    ops: &mut Ops,
) -> Option<tcp::TcpPass> {
    let dir = match durable {
        true => match p.scratch.subdir(&format!("data-{n}")) {
            Ok(d) => Some(d),
            Err(e) => {
                failed_pass("durable", e, ops);
                return None;
            }
        },
        false => None,
    };
    let sent = tcp::OpCounter::default();
    let pass = tcp::pass(&p.spec, &p.sqls, tcp::steps(minutes), dir.as_deref(), &sent);
    ops.add(sent.ops());
    match pass {
        Ok(pass) => {
            eprintln!(
                "benchmark: pass {n}: {:.0} tweets/s, window {:.3} s, setup {:.3} s, {} polls at p50 {:.2} ms",
                pass.tweets as f64 / pass.window_s,
                pass.window_s,
                pass.setup_s,
                pass.poll_ms.len(),
                percentile(&pass.poll_ms, 50.0)
            );
            check(&pass.digests, &p.expected, "tcp", ops);
            Some(pass)
        }
        Err(e) => {
            failed_pass("tcp", e, ops);
            None
        }
    }
}

/// Run one workload once: measured, or traced.
pub fn run(workload: &'static Workload, trace: bool, opts: &RunOpts) -> Result<RunResult, String> {
    run_prepared(&prepare(workload, opts)?, workload, trace, opts)
}

/// [`run`] on a stream and reference that are already there.
pub fn run_prepared(
    p: &Prepared,
    workload: &'static Workload,
    trace: bool,
    opts: &RunOpts,
) -> Result<RunResult, String> {
    let durable = workload.kind == Kind::Tcp { durable: true };
    let minutes = opts.sizing.minutes;
    let mut ops = Ops::default();
    let mut out = RunResult {
        correct: false,
        ops,
        metrics: Vec::new(),
        stream_tweets: p.tweets.len(),
        passes: 0,
        generator_bound: false,
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let specs = if trace { PER_LAYER } else { END_TO_END };

    match (workload.kind, trace) {
        (Kind::Tcp { .. }, false) => {
            let done = passes(opts, |n| tcp_pass(p, durable, minutes, n, &mut ops));
            if done.is_empty() {
                return Err("no pass completed".into());
            }
            let each = |f: &dyn Fn(&tcp::TcpPass) -> f64| done.iter().map(f).collect::<Vec<_>>();
            values.insert("setup_s", median(&each(&|d| d.setup_s)));
            values.insert(
                "tweets_per_s",
                median(&each(&|d| d.tweets as f64 / d.window_s)),
            );
            values.insert("peak_rss_mb", median(&each(&|d| d.peak_rss_mb)));
            out.passes = done.len();
        }
        (Kind::Adhoc, false) => {
            let done = passes(opts, |n| match adhoc::pass(&p.spec, &p.sqls) {
                Ok(pass) => {
                    eprintln!(
                        "benchmark: pass {n}: answers {:.3} s, setup {:.3} s",
                        pass.answer_ms.iter().sum::<f64>() / 1e3,
                        pass.setup_s
                    );
                    ops.add(pass.ops);
                    check(&pass.digests, &p.expected, "adhoc", &mut ops);
                    Some(pass)
                }
                Err(e) => {
                    failed_pass("adhoc", e, &mut ops);
                    None
                }
            });
            if done.is_empty() {
                return Err("no pass completed".into());
            }
            let each =
                |f: &dyn Fn(&adhoc::AdhocPass) -> f64| done.iter().map(f).collect::<Vec<_>>();
            let scanned = (p.sqls.len() * p.tweets.len()) as f64;
            values.insert("setup_s", median(&each(&|d| d.setup_s)));
            values.insert(
                "tweets_per_s",
                median(&each(&|d| {
                    scanned / (d.answer_ms.iter().sum::<f64>() / 1e3)
                })),
            );
            values.insert("peak_rss_mb", median(&each(&|d| d.peak_rss_mb)));
            out.passes = done.len();
        }
        (kind, true) => {
            // One TCP pass first: it says how many polls fit into a
            // step, and gives the layer metrics only a socket shows.
            let mut polls_per_step = 1;
            if let Kind::Tcp { .. } = kind {
                let pass =
                    tcp_pass(p, durable, minutes, 0, &mut ops).ok_or("the TCP pass failed")?;
                let steps = pass.step_ms.len().max(1);
                polls_per_step =
                    (pass.poll_ms.len() as f64 / steps as f64).round().max(1.0) as usize;
                values.insert("server.step_ms_p50", median(&pass.step_ms));
                values.insert("server.step_ms_p95", percentile(&pass.step_ms, 95.0));
                values.insert("server.wire_bytes", pass.wire_bytes as f64);
                values.insert("plan.register_ms_p50", median(&pass.register_ms));
                values.insert("durable.recovery_s", pass.recovery_s.unwrap_or(0.0));
                values.insert("gen.polls_sent", pass.poll_ms.len() as f64);
                let late = percentile(&pass.late_ms, 95.0);
                values.insert("gen.poll_late_ms_p95", late);
                out.generator_bound = late > POLL_THINK.as_secs_f64() * 1e3;
                values.insert("server.poll_ms_p50", percentile(&pass.poll_ms, 50.0));
                values.insert("server.poll_ms_p95", percentile(&pass.poll_ms, 95.0));
            }
            let mut spans = Trace::new(workload.name);
            let input = ladder::Input {
                workload,
                tweets: &p.tweets,
                sqls: &p.sqls,
                expected: &p.expected,
                minutes,
                seed: opts.seed,
                scratch: &p.scratch,
                polls_per_step,
            };
            let climbed = ladder::climb(&input, &mut spans)?;
            ops.add(climbed.ops);
            values.extend(climbed.metrics);
            if let Some(&tcp_p50) = values.get("server.poll_ms_p50") {
                // What a poll waits for beyond its own service time:
                // the lock a STEP holds, and the transport.
                let service_us = values.get("server.handle_poll_us_p50").copied();
                values.insert(
                    "server.poll_wait_ms_p50",
                    tcp_p50 - service_us.unwrap_or(0.0) / 1e3,
                );
            }
            let path = opts.out_dir.join(format!("trace-{}.jsonl", workload.name));
            std::fs::write(&path, spans.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    out.metrics = specs
        .iter()
        .map(|s| Metric {
            name: s.name,
            unit: s.unit,
            value: values.get(s.name).copied().unwrap_or(0.0),
        })
        .collect();
    out.correct = ops.failed == 0;
    out.ops = ops;
    Ok(out)
}
