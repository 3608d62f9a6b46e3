//! The system under test, as its own process: the repository's real
//! `Service`, `QueryHost` and TCP loop (or `Engine::execute`) over a
//! stream the driver generated. The stock `tweeql-server` binary only
//! accepts its three canned scenarios, so this one decodes a log file.
//!
//! ```text
//! bench_server serve --log F --seed S [--data-dir D]
//!     prints `LISTENING <port>`, serves until SHUTDOWN or stdin closes
//! bench_server adhoc --log F --seed S
//!     prints `READY`; per SQL line on stdin prints the result rows as
//!     JSON lines, then `DONE <rows>` (or `ERR <message>`), then `READY`
//! ```

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use tweeql::prelude::*;
use tweeql::sink;
use tweeql_benchmark::workloads::durability;
use tweeql_firehose::replay::decode_log;
use tweeql_firehose::StreamingApi;
use tweeql_model::{Tweet, VirtualClock};
use tweeql_server::{serve, Service};

struct Args {
    mode: String,
    log: PathBuf,
    seed: u64,
    data_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        mode: it.next().ok_or("usage: bench_server serve|adhoc --log F")?,
        log: PathBuf::new(),
        seed: 42,
        data_dir: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match flag.as_str() {
            "--log" => args.log = PathBuf::from(value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--data-dir" => args.data_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn builder(tweets: Vec<Tweet>, args: &Args) -> EngineBuilder {
    let api = StreamingApi::new(tweets, VirtualClock::new());
    Engine::builder(api).workers(1).seed(args.seed)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let raw = std::fs::read(&args.log).map_err(|e| format!("{}: {e}", args.log.display()))?;
    let tweets = decode_log(raw.into()).map_err(|e| e.to_string())?;
    match args.mode.as_str() {
        "serve" => {
            let b = builder(tweets, &args);
            let host = match &args.data_dir {
                Some(dir) => b.recover_with(durability(dir)).map_err(|e| e.to_string())?,
                None => b.build_host(),
            };
            let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
            let port = listener.local_addr().map_err(|e| e.to_string())?.port();
            println!("LISTENING {port}");
            // The driver holds our stdin open for as long as it lives;
            // when it goes away, however it dies, so do we.
            std::thread::spawn(|| {
                let _ = std::io::stdin().lock().lines().count();
                std::process::exit(0);
            });
            serve(listener, Service::new(host)).map_err(|e| e.to_string())
        }
        "adhoc" => {
            let mut out = std::io::stdout().lock();
            let mut say = |s: &str| writeln!(out, "{s}").and_then(|()| out.flush());
            let mut lines = std::io::stdin().lock().lines();
            loop {
                // A fresh engine over a fresh clock per query, built
                // before READY so the driver does not time it.
                let mut engine = builder(tweets.clone(), &args).build();
                say("READY").map_err(|e| e.to_string())?;
                let Some(Ok(sql)) = lines.next() else {
                    return Ok(());
                };
                let reply = match engine.execute(&sql) {
                    Ok(r) => format!(
                        "{}DONE {}",
                        sink::to_json_lines(&r.schema, &r.rows),
                        r.rows.len()
                    ),
                    Err(e) => format!("ERR {}", e.to_string().replace('\n', " ")),
                };
                say(&reply).map_err(|e| e.to_string())?;
            }
        }
        other => Err(format!("unknown mode: {other}")),
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_server: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
