//! What the benchmark prints and writes: the driver's result line, the
//! contents of `BENCHMARK.json`, and — for `run.sh` without
//! `--workload` — whole sets of runs as a table and a result file with
//! provenance and spread.

use crate::json::quote;
use crate::reference::Ops;
use crate::run::{self, MetricSpec, RunOpts, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;
use std::fmt::Write;

/// Seconds one run measures for, as `BENCHMARK.json` fixes it.
pub const RUN_SECONDS: u32 = 6;

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of a driver run: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.ops.attempted.max(1),
        r.ops.failed,
        metrics.join(", ")
    )
}

/// `BENCHMARK.json`, generated so that it cannot drift from the code
/// (`tests/smoke.rs` compares it with the committed file).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |items: Vec<String>| items.join(",\n");
    let _ = writeln!(
        s,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quote(w.name),
                    quote(w.why)
                ))
                .collect()
        )
    );
    let spec = |m: &MetricSpec, bound: bool| {
        let mut row = format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        );
        if bound {
            let _ = write!(row, ", \"bound\": {}", m.bound);
        }
        row + "}"
    };
    let _ = writeln!(
        s,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(END_TO_END.iter().map(|m| spec(m, true)).collect())
    );
    let _ = writeln!(
        s,
        "  \"per_layer\": [\n{}\n  ]",
        rows(PER_LAYER.iter().map(|m| spec(m, false)).collect())
    );
    s + "}\n"
}

/// One (metric, workload) row of a set.
struct Row {
    workload: &'static str,
    spec: MetricSpec,
    end_to_end: bool,
    values: Vec<f64>,
}

/// Runs of each workload in a set.
pub const RUNS_PER_SET: usize = 5;

/// Run every workload [`RUNS_PER_SET`] times with tracing off and once
/// traced, all at `opts.seed`, so the stream and the reference are made
/// once per workload; print every metric by name with unit, direction
/// and bound; return the result file and the failed-operation count.
pub fn run_set(opts: &RunOpts) -> Result<(String, u64), String> {
    let runs = RUNS_PER_SET;
    let mut rows: Vec<Row> = Vec::new();
    let mut operations: Vec<(&'static str, Ops)> = Vec::new();
    let mut stream_tweets = 0;
    for w in WORKLOADS {
        let mut ops = Ops::default();
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let prepared = run::prepare(w, opts)?;
        for k in 0..runs {
            eprintln!("benchmark: {} run {}/{runs}", w.name, k + 1);
            let r = run::run_prepared(&prepared, w, false, opts)?;
            ops.add(r.ops);
            stream_tweets = r.stream_tweets;
            for (values, m) in per_metric.iter_mut().zip(&r.metrics) {
                values.push(m.value);
            }
        }
        for (spec, values) in END_TO_END.iter().zip(per_metric) {
            rows.push(Row {
                workload: w.name,
                spec: *spec,
                end_to_end: true,
                values,
            });
        }
        eprintln!("benchmark: {} traced run", w.name);
        let traced = run::run_prepared(&prepared, w, true, opts)?;
        ops.add(traced.ops);
        for (spec, m) in PER_LAYER.iter().zip(&traced.metrics) {
            if traced.generator_bound && spec.name.starts_with("server.poll_") {
                // A poller that cannot keep its own schedule measures
                // itself, not the server.
                eprintln!(
                    "benchmark: {}: generator-bound run, {} not reported",
                    w.name, spec.name
                );
                continue;
            }
            rows.push(Row {
                workload: w.name,
                spec: *spec,
                end_to_end: false,
                values: vec![m.value],
            });
        }
        operations.push((w.name, ops));
    }

    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>14} {:>8} {:>3}  {:<7} {:<6} bound",
        "workload", "metric", "median", "q1", "q3", "spread", "n", "unit", "better"
    );
    let mut results = Vec::new();
    for r in &rows {
        let (q1, med, q3) = quartiles(&r.values);
        let sp = spread(&r.values);
        let bound = match r.end_to_end {
            true => format!("{}", r.spec.bound),
            false => "-".into(),
        };
        println!(
            "{:<18} {:<34} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>3}  {:<7} {:<6} {bound}",
            r.workload,
            r.spec.name,
            med,
            q1,
            q3,
            sp,
            r.values.len(),
            r.spec.unit,
            r.spec.better
        );
        let values: Vec<String> = r.values.iter().map(|v| num(*v)).collect();
        results.push(format!(
            "    {{\"workload\": {}, \"metric\": {}, \"kind\": {}, \"unit\": {}, \"better\": {}, \
             \"bound\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \
             \"samples\": {}, \"values\": [{}]}}",
            quote(r.workload),
            quote(r.spec.name),
            quote(if r.end_to_end {
                "end_to_end"
            } else {
                "per_layer"
            }),
            quote(r.spec.unit),
            quote(r.spec.better),
            r.spec.bound,
            num(med),
            num(q1),
            num(q3),
            num(sp),
            r.values.len(),
            values.join(", ")
        ));
    }
    let mut failed = 0;
    let ops_json: Vec<String> = operations
        .iter()
        .map(|(w, o)| {
            println!(
                "{w:<18} operations attempted {} failed {}",
                o.attempted, o.failed
            );
            failed += o.failed;
            format!(
                "    {}: {{\"attempted\": {}, \"failed\": {}}}",
                quote(w),
                o.attempted,
                o.failed
            )
        })
        .collect();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let file = format!(
        "{{\n  \"schema\": \"tweeql-benchmark/1\",\n  \"provenance\": {{\"host_cores\": {}, \
         \"profile\": {}, \"git_commit\": {}, \"seed\": {}, \"virtual_minutes\": {}, \
         \"stream_tweets\": {}, \"runs_per_set\": {}, \"run_seconds\": {}}},\n  \
         \"operations\": {{\n{}\n  }},\n  \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        quote(&commit),
        opts.seed,
        opts.sizing.minutes,
        stream_tweets,
        runs,
        num(opts.seconds),
        ops_json.join(",\n"),
        results.join(",\n")
    );
    Ok((file, failed))
}
