//! `tweeql-client` — one-shot CLI for the standing-query server.
//!
//! ```text
//! tweeql-client [--port N] <verb> [args...]
//!
//! tweeql-client register "SELECT text FROM twitter WHERE text contains 'goal'"
//! tweeql-client list
//! tweeql-client step 120
//! tweeql-client poll q1
//! tweeql-client drop q1
//! tweeql-client shutdown
//! ```
//!
//! Prints the response detail and body to stdout; exits non-zero when
//! the server answers `ERR` (the message goes to stderr).

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use tweeql_server::client::Client;
use tweeql_server::protocol::{Request, Response};

/// Detail line, then the body: one lock and one buffer for all of it,
/// not a locked, line-buffered write per row.
fn print(resp: &Response) -> io::Result<()> {
    let mut out = BufWriter::new(io::stdout().lock());
    if !resp.detail.is_empty() {
        writeln!(out, "{}", resp.detail)?;
    }
    out.write_all(resp.body.as_str().as_bytes())?;
    out.flush()
}

fn main() -> ExitCode {
    let mut port = 7878u16;
    let mut words: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => port = p,
                None => {
                    eprintln!("--port needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: tweeql-client [--port N] <verb> [args...]");
                return ExitCode::FAILURE;
            }
            _ => words.push(a),
        }
    }
    if words.is_empty() {
        eprintln!("usage: tweeql-client [--port N] <verb> [args...]");
        return ExitCode::FAILURE;
    }
    let req = match Request::parse(&words.join(" ")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(port) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect to 127.0.0.1:{port} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.request(&req) {
        Ok(resp) if resp.ok => match print(&resp) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing to stdout failed: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(resp) => {
            eprintln!("{}", resp.detail);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            ExitCode::FAILURE
        }
    }
}
