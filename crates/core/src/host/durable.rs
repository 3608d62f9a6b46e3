//! Durability for the standing-query host: a logical write-ahead log,
//! periodic checkpoints, and deterministic crash recovery.
//!
//! The host's stream is a seeded, fully deterministic simulation, so
//! durability here is **command logging** (VoltDB-style), not state
//! snapshotting. The WAL records only the control events that change
//! what the host is running or what it has handed to callers:
//!
//! * `Register` — a query id, its SQL, its registration timestamp, and
//!   the **stream frontier** at registration: `(tweets delivered,
//!   gaps broadcast, stream exhausted)`. Delivered-count alone is
//!   ambiguous — a registration can land after a gap was pumped but
//!   before the next tweet — so the frontier is the full triple.
//! * `Drop` — the id and the frontier at drop time. Dropped queries'
//!   pending rows were returned to the caller before the record was
//!   synced, so replay discards them.
//! * `Taken` — the **cumulative** count of rows a query has handed out
//!   through [`QueryHost::take_output`]. Replay suppresses exactly that
//!   many leading rows, so a restart never re-delivers output.
//! * `Source` — a new log's first record: the stream it was written
//!   against. A log without a checkpoint recovers only against it.
//!
//! Every record is appended and fsynced *after* the in-memory effect
//! for registrations (an unlogged registration is as if it never
//! happened) and *before* rows cross the API boundary for drops and
//! polls (an externalized row is always covered by a synced record).
//!
//! A checkpoint is a record that compacts the log: it persists the live
//! registrations (with their frontiers and taken-counts) plus
//! replay-validation assertions — the host frontier, stream position,
//! watermark cursor, and two state digests (per-pipeline operator
//! state, supervised source state) — and the segments before it are
//! pruned. Recovery replays the last checkpoint's registrations (a torn
//! one falls back to the one before), pumps to its frontier, and
//! **verifies** the digests before applying the records after it; a
//! divergence is a [`QueryError::Durability`], never silently corrupt
//! state. Digests only include cadence-*invariant* state (operator
//! windows, rows emitted, source dedup/heal state), never micro-batch
//! bookkeeping, so recovery is exact at any batch cadence.

use super::{QueryHost, QueryState};
use crate::engine::{EngineBuilder, EngineConfig, WATERMARK_INTERVAL};
use crate::error::QueryError;
use crate::exec::feed::Next;
use std::collections::HashMap;
use std::path::PathBuf;
use tweeql_firehose::FilterSpec;
use tweeql_obs::QueryId;
use tweeql_wal::{
    put_i64, put_str, put_u32, put_u64, put_u8, Dec, Digest, Wal, WalError, WalStats,
};

/// Record tags in the WAL payload's first byte.
const TAG_REGISTER: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_TAKEN: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_SOURCE: u8 = 5;

/// Checkpoint payload format version.
const CHECKPOINT_VERSION: u32 = 1;

fn dur(e: WalError) -> QueryError {
    QueryError::Durability(e.to_string())
}

fn refuse<T>(message: impl Into<String>) -> Result<T, QueryError> {
    Err(QueryError::Durability(message.into()))
}

/// Where and how the host persists its write-ahead log and checkpoints.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the `wal-*.log` segments, checkpoints included.
    pub dir: PathBuf,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Delivered tweets between automatic checkpoints (0 = only
    /// explicit [`QueryHost::checkpoint`] calls).
    pub checkpoint_every: u64,
    /// Fsync on every record sync point. Disabling keeps the sync-point
    /// accounting (for tests and benchmarks) without the I/O.
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Durability under `dir` with 1 MiB segments, a checkpoint every
    /// 4096 delivered tweets, and fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            checkpoint_every: 4096,
            fsync: true,
        }
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes;
        self
    }

    /// Set the automatic checkpoint cadence in delivered tweets.
    pub fn checkpoint_every(mut self, tweets: u64) -> DurabilityConfig {
        self.checkpoint_every = tweets;
        self
    }

    /// Toggle fsync at sync points.
    pub fn fsync(mut self, on: bool) -> DurabilityConfig {
        self.fsync = on;
        self
    }
}

/// The stream frontier an event happened at: how many tweets had been
/// delivered, how many gaps broadcast, and whether the stream had
/// already been exhausted (`finish_stream` ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Frontier {
    pub delivered: u64,
    pub gaps: u64,
    pub exhausted: bool,
}

/// The host's attached durability layer.
pub(crate) struct DurableState {
    pub wal: Wal,
    pub cfg: DurabilityConfig,
    /// Cumulative `take_output` row counts per live query id.
    pub taken: HashMap<u64, u64>,
    /// Stream frontier at each live query's registration.
    pub frontiers: HashMap<u64, Frontier>,
    /// `tweets_delivered` at the last checkpoint.
    pub last_checkpoint: u64,
    /// Replay in progress: suppress logging and auto-checkpoints.
    pub recovering: bool,
}

impl DurableState {
    fn append_synced(&mut self, rec: &[u8]) -> Result<(), QueryError> {
        self.wal
            .append(rec)
            .map_err(|e| QueryError::Durability(format!("append: {e}")))?;
        self.wal
            .sync()
            .map_err(|e| QueryError::Durability(format!("sync: {e}")))
    }
}

/// A decoded WAL record.
enum WalRecord {
    Register {
        id: u64,
        at: i64,
        fr: Frontier,
        sql: String,
    },
    Drop {
        id: u64,
        fr: Frontier,
    },
    Taken {
        id: u64,
        total: u64,
    },
}

fn put_frontier(buf: &mut Vec<u8>, fr: Frontier) {
    put_u64(buf, fr.delivered);
    put_u64(buf, fr.gaps);
    put_u8(buf, fr.exhausted as u8);
}

fn dec_frontier(d: &mut Dec<'_>) -> Result<Frontier, WalError> {
    Ok(Frontier {
        delivered: d.u64()?,
        gaps: d.u64()?,
        exhausted: d.u8()? != 0,
    })
}

fn encode_register(id: u64, at: i64, fr: Frontier, sql: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + sql.len());
    put_u8(&mut buf, TAG_REGISTER);
    put_u64(&mut buf, id);
    put_i64(&mut buf, at);
    put_frontier(&mut buf, fr);
    put_str(&mut buf, sql);
    buf
}

fn encode_drop(id: u64, fr: Frontier) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    put_u8(&mut buf, TAG_DROP);
    put_u64(&mut buf, id);
    put_frontier(&mut buf, fr);
    buf
}

fn encode_taken(id: u64, total: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24);
    put_u8(&mut buf, TAG_TAKEN);
    put_u64(&mut buf, id);
    put_u64(&mut buf, total);
    buf
}

fn decode_record(bytes: &[u8]) -> Result<WalRecord, QueryError> {
    let mut d = Dec::new(bytes);
    let rec = match d.u8().map_err(dur)? {
        TAG_REGISTER => WalRecord::Register {
            id: d.u64().map_err(dur)?,
            at: d.i64().map_err(dur)?,
            fr: dec_frontier(&mut d).map_err(dur)?,
            sql: d.str().map_err(dur)?,
        },
        TAG_DROP => WalRecord::Drop {
            id: d.u64().map_err(dur)?,
            fr: dec_frontier(&mut d).map_err(dur)?,
        },
        TAG_TAKEN => WalRecord::Taken {
            id: d.u64().map_err(dur)?,
            total: d.u64().map_err(dur)?,
        },
        tag => return refuse(format!("unknown WAL record tag {tag}")),
    };
    if !d.done() {
        return refuse("trailing bytes after WAL record");
    }
    Ok(rec)
}

/// The first record of a log: the stream it was written against, as
/// the builder's [`config_fingerprint`], the API log's length, and its
/// first and last tweets' ids and timestamps.
fn source_header(b: &EngineBuilder) -> Vec<u8> {
    let log = b.api.log();
    let mut buf = vec![TAG_SOURCE];
    put_u64(&mut buf, config_fingerprint(&b.config));
    put_u64(&mut buf, log.len() as u64);
    for t in [log.first(), log.last()].into_iter().flatten() {
        put_u64(&mut buf, t.id);
        put_i64(&mut buf, t.created_at.millis());
    }
    buf
}

/// One live registration inside a checkpoint.
struct CkptQuery {
    id: u64,
    at: i64,
    fr: Frontier,
    taken: u64,
    sql: String,
}

/// A decoded checkpoint payload.
struct Checkpoint {
    fingerprint: u64,
    fr: Frontier,
    position: i64,
    next_wm: Option<i64>,
    next_id: u64,
    watermarks: u64,
    host_digest: u64,
    source_digest: u64,
    queries: Vec<CkptQuery>,
}

/// Decode the checkpoint record logged at `lsn`.
fn decode_checkpoint(lsn: u64, bytes: &[u8]) -> Result<Checkpoint, QueryError> {
    let mut d = Dec::new(&bytes[1..]); // past the tag
    let version = d.u32().map_err(dur)?;
    if version != CHECKPOINT_VERSION {
        return refuse(format!("unsupported checkpoint version {version}"));
    }
    let fingerprint = d.u64().map_err(dur)?;
    let last_lsn = d.u64().map_err(dur)?;
    if last_lsn != lsn - 1 {
        return refuse(format!(
            "checkpoint at lsn {lsn} says it follows lsn {last_lsn}"
        ));
    }
    let fr = dec_frontier(&mut d).map_err(dur)?;
    let position = d.i64().map_err(dur)?;
    let has_wm = d.u8().map_err(dur)? != 0;
    let wm = d.i64().map_err(dur)?;
    let next_id = d.u64().map_err(dur)?;
    let watermarks = d.u64().map_err(dur)?;
    let host_digest = d.u64().map_err(dur)?;
    let source_digest = d.u64().map_err(dur)?;
    let n = d.u32().map_err(dur)?;
    let mut queries = Vec::with_capacity(n as usize);
    for _ in 0..n {
        queries.push(CkptQuery {
            id: d.u64().map_err(dur)?,
            at: d.i64().map_err(dur)?,
            fr: dec_frontier(&mut d).map_err(dur)?,
            taken: d.u64().map_err(dur)?,
            sql: d.str().map_err(dur)?,
        });
    }
    if !d.done() {
        return refuse("trailing bytes after checkpoint payload");
    }
    Ok(Checkpoint {
        fingerprint,
        fr,
        position,
        next_wm: has_wm.then_some(wm),
        next_id,
        watermarks,
        host_digest,
        source_digest,
        queries,
    })
}

/// Digest of the builder configuration knobs that determine the
/// deterministic stream and plan shapes. Recovery refuses a checkpoint
/// written under a different fingerprint: replaying someone else's
/// stream would silently produce different output. Pushdown is
/// excluded — it is proven output-invariant by the differential
/// suites. The parallel engine's knobs (worker count, channel depth)
/// were never hashed, so checkpoints logged while they existed still
/// recover.
///
/// The byte layout is the one checkpoints were written under before
/// the watermark interval became a constant and four per-layer mode
/// flags became the one `reference` switch: the constant interval
/// still sits where its field was, and `!reference` fills each of the
/// four flag positions, so checkpoints logged before that change
/// recover.
pub(crate) fn config_fingerprint(c: &EngineConfig) -> u64 {
    let mut d = Digest::new();
    d.write_str("tweeql-config-v1");
    d.write_u64(c.seed);
    d.write_u64(c.batch_size as u64);
    d.write_i64(WATERMARK_INTERVAL.millis());
    d.write_i64(c.retry.base.millis());
    d.write_i64(c.retry.cap.millis());
    d.write_u32(c.retry.max_attempts);
    d.write_i64(c.retry.replay_overlap.millis());
    match &c.fault {
        None => d.write_bool(false),
        Some(p) => {
            d.write_bool(true);
            d.write_u64(p.seed);
            d.write_u64(p.disconnect_rate.to_bits());
            d.write_u32(p.max_disconnects);
            d.write_u64(p.stall_rate.to_bits());
            d.write_i64(p.stall.millis());
            d.write_u64(p.duplicate_rate.to_bits());
            d.write_u64(p.reorder_rate.to_bits());
            d.write_u64(p.malformed_rate.to_bits());
        }
    }
    // Source blocks, columnar decode, compiled programs, optimizer.
    for _ in 0..4 {
        d.write_bool(!c.reference);
    }
    d.finish()
}

impl QueryHost {
    /// The stream frontier right now.
    fn current_frontier(&self) -> Frontier {
        Frontier {
            delivered: self.stats.tweets_delivered,
            gaps: self.stats.gaps,
            exhausted: self.feed.exhausted(),
        }
    }

    /// WAL statistics, when a durability layer is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|d| d.wal.stats())
    }

    /// Log a successful registration (no-op without durability).
    pub(super) fn log_register(&mut self, id: QueryId, sql: &str) -> Result<(), QueryError> {
        if self.durable.is_none() {
            return Ok(());
        }
        let fr = self.current_frontier();
        let at = self
            .queries
            .iter()
            .find(|q| q.id == id)
            .map(|q| q.registered_at.millis())
            .unwrap_or(0);
        let rec = encode_register(id.raw(), at, fr, sql);
        let d = self.durable.as_mut().expect("checked above");
        d.frontiers.insert(id.raw(), fr);
        d.append_synced(&rec)
    }

    /// Log a drop. Synced before the dropped query's rows are returned,
    /// so a crash after the caller saw them never re-delivers.
    pub(super) fn log_drop(&mut self, id: QueryId) -> Result<(), QueryError> {
        if self.durable.is_none() {
            return Ok(());
        }
        let fr = self.current_frontier();
        let rec = encode_drop(id.raw(), fr);
        let d = self.durable.as_mut().expect("checked above");
        d.frontiers.remove(&id.raw());
        d.taken.remove(&id.raw());
        d.append_synced(&rec)
    }

    /// Log `n` more rows handed out via `take_output` as a cumulative
    /// total. Synced before the rows are returned.
    pub(super) fn log_taken(&mut self, id: QueryId, n: u64) -> Result<(), QueryError> {
        if n == 0 {
            return Ok(());
        }
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let total = d.taken.entry(id.raw()).or_insert(0);
        *total += n;
        let rec = encode_taken(id.raw(), *total);
        d.append_synced(&rec)
    }

    /// Checkpoint when the configured delivered-tweet cadence is due.
    pub(super) fn maybe_checkpoint(&mut self) -> Result<(), QueryError> {
        let Some(d) = self.durable.as_ref() else {
            return Ok(());
        };
        if d.recovering || d.cfg.checkpoint_every == 0 {
            return Ok(());
        }
        if self.stats.tweets_delivered - d.last_checkpoint >= d.cfg.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write a checkpoint now: flush the in-flight batch, log every live
    /// registration with its frontier and taken-count plus the
    /// replay-validation digests as one synced record, then prune the
    /// segments before it so the log stays bounded. Returns `false`
    /// when the host has no durability layer.
    pub fn checkpoint(&mut self) -> Result<bool, QueryError> {
        if self.durable.is_none() {
            return Ok(false);
        }
        // Digests are defined at a batch boundary; replay verification
        // flushes the same way before comparing.
        self.flush_batch()?;
        let host_digest = self.host_digest();
        let source_digest = self.source_digest();
        let fingerprint = config_fingerprint(&self.config);
        let d = self.durable.as_ref().expect("checked above");
        let last_lsn = d.wal.next_lsn() - 1; // the checkpoint is the next record
        let mut buf = Vec::with_capacity(128);
        put_u8(&mut buf, TAG_CHECKPOINT);
        put_u32(&mut buf, CHECKPOINT_VERSION);
        put_u64(&mut buf, fingerprint);
        put_u64(&mut buf, last_lsn);
        put_frontier(&mut buf, self.current_frontier());
        put_i64(&mut buf, self.position.millis());
        let next_wm = self.feed.cadence().next();
        put_u8(&mut buf, next_wm.is_some() as u8);
        put_i64(&mut buf, next_wm.map_or(0, |t| t.millis()));
        put_u64(&mut buf, self.next_id);
        put_u64(&mut buf, self.stats.watermarks);
        put_u64(&mut buf, host_digest);
        put_u64(&mut buf, source_digest);
        put_u32(&mut buf, self.queries.len() as u32);
        for q in &self.queries {
            let fr = d.frontiers.get(&q.id.raw()).copied().unwrap_or_default();
            let taken = d.taken.get(&q.id.raw()).copied().unwrap_or(0);
            put_u64(&mut buf, q.id.raw());
            put_i64(&mut buf, q.registered_at.millis());
            put_frontier(&mut buf, fr);
            put_u64(&mut buf, taken);
            put_str(&mut buf, &q.sql);
        }
        let d = self.durable.as_mut().expect("checked above");
        d.wal
            .write_checkpoint(&buf)
            .map_err(|e| QueryError::Durability(format!("write_checkpoint: {e}")))?;
        d.wal
            .prune(last_lsn)
            .map_err(|e| QueryError::Durability(format!("prune: {e}")))?;
        d.last_checkpoint = self.stats.tweets_delivered;
        Ok(true)
    }

    /// Cadence-invariant digest over every registered query: id, rows
    /// emitted, liveness, and the pipeline's operator state. Pending
    /// buffers are excluded — replay suppresses already-externalized
    /// rows, so pending contents legitimately differ after recovery.
    fn host_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.queries.len() as u64);
        for q in &self.queries {
            d.write_u64(q.id.raw());
            d.write_u64(q.rows_out);
            d.write_bool(q.state == QueryState::Running);
            q.planned.pipeline.state_digest(&mut d);
        }
        d.finish()
    }

    /// Cadence-invariant digest of the supervised source (dedup set,
    /// heal heaps, fault counters). Zero before the first pump.
    fn source_digest(&self) -> u64 {
        match self.feed.source() {
            None => 0,
            Some(s) => {
                let mut d = Digest::new();
                s.state_digest(&mut d);
                d.finish()
            }
        }
    }

    /// Replay the deterministic stream until the host frontier matches
    /// `fr` exactly: tweets up to `fr.delivered`, then gap events up to
    /// `fr.gaps`; an event of the wrong kind at the boundary means the
    /// log and the stream disagree. When the record was logged after
    /// stream exhaustion, finish the same way.
    fn pump_to_frontier(&mut self, fr: Frontier) -> Result<(), QueryError> {
        if self.stats.tweets_delivered > fr.delivered || self.stats.gaps > fr.gaps {
            return refuse(format!(
                "log frontier regression: host is at {}t/{}g, record wants {}t/{}g",
                self.stats.tweets_delivered, self.stats.gaps, fr.delivered, fr.gaps
            ));
        }
        // Replayed registrations that share a frontier (a burst) reach
        // here with nothing to pump and must not each pay a build.
        if self.stats.tweets_delivered < fr.delivered || self.stats.gaps < fr.gaps {
            self.ensure_index();
        }
        while self.stats.tweets_delivered < fr.delivered || self.stats.gaps < fr.gaps {
            let mismatch = match self.feed.peek() {
                None => "stream ended before the logged frontier",
                Some(Next::Tweet(_)) if self.stats.tweets_delivered >= fr.delivered => {
                    "replay found a tweet where the log recorded a gap"
                }
                Some(Next::Gap(..)) if self.stats.gaps >= fr.gaps => {
                    "replay found a gap where the log recorded a tweet"
                }
                Some(next) => {
                    self.take_next(next)?;
                    continue;
                }
            };
            return Err(QueryError::Durability(mismatch.into()));
        }
        if fr.exhausted && !self.feed.exhausted() {
            self.run_to_end()?;
        }
        Ok(())
    }

    /// Replay one logged registration: pump to its frontier, register
    /// under the logged id and timestamp, and arm output suppression
    /// with the query's final cumulative taken-count.
    fn replay_register(
        &mut self,
        id: u64,
        at: i64,
        fr: Frontier,
        sql: &str,
        suppress: u64,
    ) -> Result<(), QueryError> {
        self.pump_to_frontier(fr)?;
        let got = self.register_inner(sql, Some((QueryId::new(id), at)))?;
        if got.raw() != id {
            return refuse(format!("replayed registration got {got}, log says q{id}"));
        }
        if let Some(q) = self.queries.last_mut() {
            q.suppress = suppress;
        }
        if let Some(d) = self.durable.as_mut() {
            d.frontiers.insert(id, fr);
        }
        Ok(())
    }

    /// Verify the rebuilt host against a checkpoint's assertions.
    fn ckpt_verify(&mut self, c: &Checkpoint) -> Result<(), QueryError> {
        self.flush_batch()?;
        let mut bad = Vec::new();
        let position = self.position.millis();
        if position != c.position {
            bad.push(format!("position {position} != logged {}", c.position));
        }
        if self.feed.cadence().next().map(|t| t.millis()) != c.next_wm {
            bad.push("watermark cursor diverged".into());
        }
        let (watermarks, logged) = (self.stats.watermarks, c.watermarks);
        if watermarks != logged {
            bad.push(format!("watermarks {watermarks} != logged {logged}"));
        }
        let (hd, logged) = (self.host_digest(), c.host_digest);
        if hd != logged {
            bad.push(format!(
                "query state digest {hd:#018x} != logged {logged:#018x}"
            ));
        }
        let (sd, logged) = (self.source_digest(), c.source_digest);
        if sd != logged {
            bad.push(format!(
                "source state digest {sd:#018x} != logged {logged:#018x}"
            ));
        }
        if !bad.is_empty() {
            return refuse(format!(
                "replay diverged from checkpoint: {}",
                bad.join("; ")
            ));
        }
        if let Some(d) = self.durable.as_mut() {
            d.last_checkpoint = c.fr.delivered;
        }
        Ok(())
    }
}

/// Open (or create) the durability directory and rebuild a host from
/// it: find the last checkpoint record, replay its registrations to
/// their frontiers, verify the state digests, then apply the records
/// after it in LSN order. An empty directory yields a fresh host with
/// logging armed. The entry points are [`EngineBuilder::recover_from`]
/// and [`EngineBuilder::recover_with`].
pub(crate) fn recover(b: EngineBuilder, cfg: DurabilityConfig) -> Result<QueryHost, QueryError> {
    let fingerprint = config_fingerprint(&b.config);
    let source = source_header(&b);
    let (mut wal, log) = Wal::open(&cfg.dir, cfg.segment_bytes, cfg.fsync).map_err(dur)?;
    // The records before the last checkpoint are compacted into it, and
    // only a checkpoint lets the log's start be pruned.
    let last = log
        .iter()
        .rposition(|(_, r)| r.first() == Some(&TAG_CHECKPOINT));
    let ckpt = match last {
        Some(i) => Some(decode_checkpoint(log[i].0, &log[i].1)?),
        None if wal.next_lsn() != log.len() as u64 + 1 => {
            return refuse("the log was pruned but holds no checkpoint")
        }
        None => None,
    };
    if let Some(c) = &ckpt {
        if c.fingerprint != fingerprint {
            return refuse(format!(
                "checkpoint was written under a different engine configuration \
                 (logged fingerprint {:#018x}, this builder {:#018x})",
                c.fingerprint, fingerprint
            ));
        }
    }
    // A log that holds no checkpoint is checked against the source its
    // header names; a log written before headers existed has none.
    let header = log.first().filter(|(_, r)| r.first() == Some(&TAG_SOURCE));
    if let (None, Some((_, logged))) = (&ckpt, header) {
        let values = |h: &[u8]| {
            let mut d = Dec::new(&h[1..]);
            std::iter::from_fn(|| d.u64().ok()).collect::<Vec<_>>()
        };
        let (logged, ours) = (values(logged), values(&source));
        if logged != ours {
            return refuse(format!(
                "the log was written against another source: logged {logged:?}, this builder \
                 {ours:?} (fingerprint, tweets, first and last tweet's id and ms)"
            ));
        }
    }
    if wal.next_lsn() == 1 {
        wal.append(&source).map_err(dur)?;
        wal.sync().map_err(dur)?;
    }
    let mut records = Vec::new();
    for (_, bytes) in &log[last.map_or(usize::from(header.is_some()), |i| i + 1)..] {
        records.push(decode_record(bytes)?);
    }
    // The final cumulative taken-count per query (checkpoint value
    // overridden by later Taken records) drives output suppression at
    // registration replay.
    let mut final_taken: HashMap<u64, u64> = HashMap::new();
    if let Some(c) = &ckpt {
        for q in &c.queries {
            final_taken.insert(q.id, q.taken);
        }
    }
    for r in &records {
        if let WalRecord::Taken { id, total } = r {
            final_taken.insert(*id, *total);
        }
    }

    let mut host = QueryHost::from_builder(b, FilterSpec::Sample(1.0));
    host.durable = Some(DurableState {
        wal,
        cfg,
        taken: HashMap::new(),
        frontiers: HashMap::new(),
        last_checkpoint: 0,
        recovering: true,
    });

    // Frontiers are monotone in log order, so events replay naturally:
    // checkpoint registrations first, digest verification at the
    // checkpoint frontier, then the tail.
    if let Some(c) = &ckpt {
        for q in &c.queries {
            let suppress = final_taken.get(&q.id).copied().unwrap_or(0);
            host.replay_register(q.id, q.at, q.fr, &q.sql, suppress)?;
        }
        host.pump_to_frontier(c.fr)?;
        host.ckpt_verify(c)?;
        host.next_id = host.next_id.max(c.next_id);
    }
    for r in records {
        match r {
            WalRecord::Register { id, at, fr, sql } => {
                let suppress = final_taken.get(&id).copied().unwrap_or(0);
                host.replay_register(id, at, fr, &sql, suppress)?;
            }
            WalRecord::Drop { id, fr } => {
                host.pump_to_frontier(fr)?;
                let _ = host.drop_inner(QueryId::new(id))?;
                final_taken.remove(&id);
                if let Some(d) = host.durable.as_mut() {
                    d.frontiers.remove(&id);
                }
            }
            WalRecord::Taken { .. } => {}
        }
    }
    let d = host.durable.as_mut().expect("installed above");
    d.taken = final_taken;
    d.recovering = false;
    Ok(host)
}

/// A seeded generator of crash points in virtual time, for the
/// crash-equivalence harness: pump to the kill time, drop the host
/// without flushing (everything not yet fsynced is lost, exactly like
/// `kill -9`), then recover from the same directory.
#[derive(Debug, Clone)]
pub struct KillPlan {
    state: u64,
}

impl KillPlan {
    /// A kill schedule from a seed.
    pub fn new(seed: u64) -> KillPlan {
        KillPlan {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        // splitmix64: one multiply-xorshift round per draw.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next kill time, strictly after `after` and at or before
    /// `horizon` (millisecond granularity).
    pub fn next_kill(
        &mut self,
        after: tweeql_model::Timestamp,
        horizon: tweeql_model::Timestamp,
    ) -> tweeql_model::Timestamp {
        let span = (horizon.millis() - after.millis()).max(1) as u64;
        tweeql_model::Timestamp::from_millis(after.millis() + 1 + (self.next() % span) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_records_round_trip() {
        let fr = Frontier {
            delivered: 1234,
            gaps: 7,
            exhausted: true,
        };
        let r = decode_record(&encode_register(3, 987_654, fr, "SELECT text FROM twitter"))
            .expect("decode register");
        match r {
            WalRecord::Register { id, at, fr: f, sql } => {
                assert_eq!((id, at, f), (3, 987_654, fr));
                assert_eq!(sql, "SELECT text FROM twitter");
            }
            _ => panic!("wrong variant"),
        }
        match decode_record(&encode_drop(9, fr)).expect("decode drop") {
            WalRecord::Drop { id, fr: f } => assert_eq!((id, f), (9, fr)),
            _ => panic!("wrong variant"),
        }
        match decode_record(&encode_taken(5, 42)).expect("decode taken") {
            WalRecord::Taken { id, total } => assert_eq!((id, total), (5, 42)),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn bad_records_are_rejected() {
        assert!(matches!(
            decode_record(&[99]),
            Err(QueryError::Durability(_))
        ));
        let mut rec = encode_taken(5, 42);
        rec.push(0); // trailing byte
        assert!(matches!(
            decode_record(&rec),
            Err(QueryError::Durability(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_stream_knobs_only_so_logged_checkpoints_stay_recoverable() {
        let base = EngineConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()), "deterministic");

        let mut c = base.clone();
        c.seed = 777;
        assert_ne!(fp, config_fingerprint(&c), "seed included");

        let mut c = base.clone();
        c.batch_size = 17;
        assert_ne!(fp, config_fingerprint(&c), "batch size included");

        let mut c = base;
        c.fault = Some(tweeql_firehose::FaultPlan::chaos(3));
        assert_ne!(fp, config_fingerprint(&c), "fault plan included");
    }

    /// Fingerprints of checkpoints written before the `reference`
    /// switch replaced the four per-layer flags: the default
    /// configuration and the all-four-off one.
    #[test]
    fn fingerprints_of_older_checkpoints_are_unchanged() {
        let fast = EngineConfig::default();
        assert_eq!(config_fingerprint(&fast), 0x3097_aa06_af2e_3c25);
        let reference = EngineConfig {
            reference: true,
            ..fast
        };
        assert_eq!(config_fingerprint(&reference), 0x852d_aa0f_007e_db81);
    }

    /// The source digest a checkpoint logs, at two points of one fixed
    /// chaos run: recovery compares it with the digest of the replayed
    /// source, so checkpoints already logged verify only while its
    /// byte layout and what it covers stay as they were.
    #[test]
    fn source_digests_of_older_checkpoints_are_unchanged() {
        use crate::engine::Engine;
        use tweeql_firehose::scenario::{Scenario, Topic};
        use tweeql_firehose::{FaultPlan, StreamingApi};
        use tweeql_model::{Duration, Timestamp, VirtualClock};
        let s = Scenario {
            name: "source-digest-pin".into(),
            duration: Duration::from_mins(6),
            background_rate_per_min: 120.0,
            topics: vec![Topic::new("kw", vec!["kw"], 40.0)],
            bursts: vec![],
            geotag_rate: 0.3,
            population_size: 200,
        };
        let api = StreamingApi::new(tweeql_firehose::generate(&s, 11), VirtualClock::new());
        let mut host = Engine::builder(api)
            .batch_size(16)
            .fault_policy(FaultPlan::chaos(7))
            .build_host();
        assert_eq!(host.source_digest(), 0, "nothing pulled yet");
        host.register("SELECT text FROM twitter WHERE text contains 'kw'")
            .expect("registers");
        host.pump_until(Timestamp::from_mins(3)).expect("pumps");
        assert_eq!(host.source_digest(), 0x272f_9695_ba0c_1cce);
        host.run_to_end().expect("drains");
        let (_, faults) = host.source_stats().expect("pulled");
        assert!(faults.disconnects > 0 && faults.duplicates_dropped > 0);
        assert_eq!(host.source_digest(), 0xf01a_2e81_4c72_0482);
    }

    #[test]
    fn kill_plan_is_deterministic_and_in_range() {
        use tweeql_model::Timestamp;
        let mut a = KillPlan::new(11);
        let mut b = KillPlan::new(11);
        let lo = Timestamp::from_mins(1);
        let hi = Timestamp::from_mins(9);
        for _ in 0..50 {
            let ka = a.next_kill(lo, hi);
            assert_eq!(ka, b.next_kill(lo, hi), "same seed, same schedule");
            assert!(ka > lo && ka <= hi, "{ka:?} outside ({lo:?}, {hi:?}]");
        }
        let mut c = KillPlan::new(12);
        let distinct = (0..50).any(|_| a.next_kill(lo, hi) != c.next_kill(lo, hi));
        assert!(distinct, "different seeds should diverge");
    }
}
