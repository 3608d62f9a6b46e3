//! `tweeql-server` — serve a standing-query host on a local TCP port.
//!
//! ```text
//! tweeql-server [--port N] [--scenario NAME] [--seed N] [--data-dir PATH]
//! ```
//!
//! Prints `LISTENING <port>` once the socket is bound (`--port 0` picks
//! a free port), then serves connections until a client sends
//! `SHUTDOWN`.
//!
//! With `--data-dir`, the host logs registrations, drops, and polls to
//! a write-ahead log under PATH and recovers them on the next start
//! with the same scenario and seed; `SHUTDOWN` flushes a checkpoint.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use tweeql_server::{scenario_host_in, serve, Service};

struct Args {
    port: u16,
    scenario: String,
    seed: u64,
    data_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7878,
        scenario: "soccer".into(),
        seed: 42,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--scenario" => args.scenario = value("--scenario")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: tweeql-server [--port N] [--scenario NAME] [--seed N] \
                     [--data-dir PATH]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let host = match scenario_host_in(&args.scenario, args.seed, args.data_dir.as_deref()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(args.port);
    println!("LISTENING {port}");
    if let Err(e) = serve(listener, Service::new(host)) {
        eprintln!("serve failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
