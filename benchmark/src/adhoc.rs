//! One pass of an ad-hoc workload: `bench_server adhoc` runs each query
//! through `Engine::execute` with pushdown on — the paper's
//! command-line user — and prints the rows; the driver times each
//! answer from the SQL line it sent to the `DONE` line it read.

use crate::child::{ChildSpec, Proc};
use crate::reference::{Digest, Ops};
use std::io;
use std::time::Instant;

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct AdhocPass {
    /// Child spawn to the first `READY` (log decoded, engine built).
    pub setup_s: f64,
    /// Per query: SQL sent to `DONE` read, in milliseconds.
    pub answer_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub digests: Vec<Digest>,
    pub ops: Ops,
}

/// Run every query once, in order.
pub fn pass(spec: &ChildSpec, sqls: &[String]) -> io::Result<AdhocPass> {
    let mut out = AdhocPass::default();
    let t_spawn = Instant::now();
    let mut proc = Proc::spawn(spec, "adhoc", None)?;
    proc.expect("READY")?;
    out.setup_s = t_spawn.elapsed().as_secs_f64();
    for sql in sqls {
        out.ops.attempted += 1;
        let mut d = Digest::EMPTY;
        let t = Instant::now();
        proc.send_line(sql)?;
        loop {
            let line = proc.read_line()?;
            if line.starts_with('{') {
                d.line(&line);
            } else if line.strip_prefix("DONE ") == Some(d.rows.to_string().as_str()) {
                break;
            } else {
                eprintln!("benchmark: {sql} -> {line}");
                out.ops.failed += 1;
                break;
            }
        }
        out.answer_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.digests.push(d);
        // The next engine is built outside the timed answer.
        proc.expect("READY")?;
    }
    out.peak_rss_mb = proc.peak_rss_mb()?;
    Ok(out)
}
