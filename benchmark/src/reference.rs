//! The reference computation every run's outputs are checked against:
//! one dedicated `Engine` per live query in the slowest, simplest
//! configuration — as-written plan, interpreter, row decode, per-tweet
//! source, no pushdown. Its rows, rendered as the JSON lines a client
//! receives, are reduced to a row count and an FNV-1a digest.

use std::sync::atomic::{AtomicUsize, Ordering};
use tweeql::prelude::*;
use tweeql::sink;
use tweeql_firehose::StreamingApi;
use tweeql_model::{Tweet, VirtualClock};

/// Row count and FNV-1a digest of one query's output lines, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub fnv: u64,
}

impl Digest {
    /// The digest of no rows — what a phantom `tracker` query must
    /// produce.
    pub const EMPTY: Digest = Digest {
        rows: 0,
        fnv: 0xcbf2_9ce4_8422_2325,
    };

    /// Fold in one output line (without its newline).
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.rows += 1;
    }
}

/// Operations sent and operations that failed: an `ERR` frame, a
/// timeout, a broken connection, a digest that differs from the
/// reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Compare what `what` received with the reference: one operation per
/// query. Queries past `expected` are phantom needles and must be
/// empty; a reference query with no received digest is a failure.
pub fn check(got: &[Digest], expected: &[Digest], what: &str, ops: &mut Ops) {
    for i in 0..got.len().max(expected.len()) {
        let want = expected.get(i).copied().unwrap_or(Digest::EMPTY);
        ops.attempted += 1;
        if got.get(i) != Some(&want) {
            ops.failed += 1;
            eprintln!(
                "benchmark: {what} query {i}: got {:?}, reference {want:?}",
                got.get(i)
            );
        }
    }
}

fn reference_one(tweets: &[Tweet], sql: &str, seed: u64) -> Result<Digest, QueryError> {
    let api = StreamingApi::new(tweets.to_vec(), VirtualClock::new());
    let mut engine = Engine::builder(api)
        .workers(1)
        .seed(seed)
        .plan_optimizer(false)
        .compiled_expressions(false)
        .columnar_decode(false)
        .batched_source(false)
        .push_down(false)
        .build();
    let result = engine.execute(sql)?;
    let mut d = Digest::EMPTY;
    for line in sink::to_json_lines(&result.schema, &result.rows).lines() {
        d.line(line);
    }
    Ok(d)
}

/// Reference digests for `sqls`, computed on `threads` threads (set-up
/// work, outside every timed window).
pub fn digests(
    tweets: &[Tweet],
    sqls: &[String],
    seed: u64,
    threads: usize,
) -> Result<Vec<Digest>, String> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(sql) = sqls.get(i) else {
                return Ok(mine);
            };
            let d = reference_one(tweets, sql, seed)
                .map_err(|e| format!("reference run of {sql:?} failed: {e}"))?;
            mine.push((i, d));
        }
    };
    let mut out = vec![Digest::EMPTY; sqls.len()];
    let parts: Vec<Result<Vec<(usize, Digest)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    for part in parts {
        for (i, d) in part? {
            out[i] = d;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_missing_and_differing_digests() {
        let mut one = Digest::EMPTY;
        one.line("x");
        let mut ops = Ops::default();
        check(&[one, Digest::EMPTY], &[one], "t", &mut ops);
        assert_eq!((ops.attempted, ops.failed), (2, 0));
        check(&[], &[one], "t", &mut ops);
        assert_eq!((ops.attempted, ops.failed), (3, 1));
        check(&[one, one], &[one], "t", &mut ops);
        assert_eq!((ops.attempted, ops.failed), (5, 2));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::EMPTY;
        a.line("x");
        a.line("y");
        let mut b = Digest::EMPTY;
        b.line("y");
        b.line("x");
        assert_eq!(a.rows, 2);
        assert_ne!(a.fnv, b.fnv);
        assert_ne!(a.fnv, Digest::EMPTY.fnv);
    }
}
