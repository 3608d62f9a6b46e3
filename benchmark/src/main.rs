//! `benchmark` — the driver. `run.sh` builds and calls it.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is the result object
//! benchmark [--seed N] [--sets K]
//!     K sets of five runs of every workload plus a traced run each;
//!     prints every metric, writes benchmark/out/set<k>.json
//! benchmark compare <a.json> <b.json>
//! benchmark spec
//!     prints BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use tweeql_benchmark::alloc::CountingAlloc;
use tweeql_benchmark::run::{self, RunOpts};
use tweeql_benchmark::workloads::{self, Sizing};
use tweeql_benchmark::{compare, report};

// Counts the driver's own allocations for the traced run's in-process
// rungs; the system under test is the child process, without it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

/// Scratch files, traces and result files, relative to the repository
/// root `run.sh` is called from.
const OUT_DIR: &str = "benchmark/out";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        sets: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = Some(v.clone()),
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v == "1",
            "--sets" => a.sets = v.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(a)
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", report::benchmark_json());
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: benchmark compare <a.json> <b.json>".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            return compare::compare(&read(a)?, &read(b)?);
        }
        _ => {}
    }
    let args = parse_args(&argv)?;
    let server_bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("bench_server");
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        sizing: Sizing::default(),
        min_passes: 3,
        server_bin,
        out_dir: PathBuf::from(OUT_DIR),
    };
    if let Some(name) = &args.workload {
        let workload = workloads::find(name).ok_or_else(|| format!("unknown workload: {name}"))?;
        let result = run::run(workload, args.trace, &opts)?;
        if result.generator_bound {
            eprintln!(
                "benchmark: generator-bound run: server.poll_* measure the poller, not the server"
            );
        }
        eprintln!(
            "benchmark: {name}: {} tweets, {} passes",
            result.stream_tweets, result.passes
        );
        println!("{}", report::result_line(&result));
        return Ok(true);
    }
    let mut ok = true;
    for k in 1..=args.sets {
        let (file, failed) = report::run_set(&opts)?;
        let path = opts.out_dir.join(format!("set{k}.json"));
        std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "set {k}: wrote {}, {failed} failed operations",
            path.display()
        );
        ok &= failed == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
