//! Crash-equivalence battery for the durability subsystem.
//!
//! The contract under test: a durable [`QueryHost`] that is killed at
//! arbitrary virtual times (dropped without a flush — everything not
//! yet fsynced is lost, like `kill -9`) and recovered from its data
//! directory produces output **byte-identical** to the same schedule
//! run uninterrupted — per-query rows (across every poll boundary),
//! rows-out counts, query states, connection and fault-injection
//! statistics including the gap list, stream position, and the final
//! virtual-clock value. Only cadence bookkeeping (micro-batch counts,
//! rows-dispatched) may differ, because recovery replays at its own
//! batch cadence.
//!
//! Fixed regressions cover each recovery shape (WAL-only, checkpoint +
//! tail, post-checkpoint churn, drops, multi-kill, a checkpoint torn
//! mid-write, a log on small segments); a proptest sweeps seeds × chaos
//! plans × kill schedules × batch sizes × checkpoint cadences.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;
use tweeql::prelude::*;
use tweeql_firehose::api::ConnectionStats;
use tweeql_firehose::fault::FaultPlan;
use tweeql_firehose::scenario::{Burst, Scenario, Topic};
use tweeql_firehose::StreamingApi;
use tweeql_model::{Clock, Duration, Record, Timestamp, Tweet, Value, VirtualClock};
use tweeql_wal::{TempDir, Wal};

/// Deterministic firehose shared by every run: keyword topic, a burst,
/// a quiet tail (same shape as the standing-host battery).
fn tweets() -> &'static Vec<Tweet> {
    static TWEETS: OnceLock<Vec<Tweet>> = OnceLock::new();
    TWEETS.get_or_init(|| {
        let s = Scenario {
            name: "durability".into(),
            duration: Duration::from_mins(10),
            background_rate_per_min: 40.0,
            topics: vec![{
                let mut t = Topic::new("kw", vec!["kw"], 22.0);
                t.sentiment_bias = 0.3;
                t
            }],
            bursts: vec![Burst {
                topic: 0,
                label: "spike".into(),
                start: Timestamp::from_mins(3),
                ramp_up: Duration::from_mins(1),
                ramp_down: Duration::from_mins(1),
                peak_multiplier: 5.0,
                phrases: vec!["kw spike".into()],
                sentiment_bias: 0.4,
                url: None,
            }],
            geotag_rate: 0.2,
            population_size: 100,
        };
        tweeql_firehose::generate(&s, 4251)
    })
}

const CORPUS: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw'",
    "SELECT count(*) AS c, lang FROM twitter WHERE text contains 'kw' \
     GROUP BY lang WINDOW 2 minutes",
    "SELECT avg(followers) AS a FROM twitter WINDOW 3 minutes",
    "SELECT sentiment(text) AS s, text FROM twitter WHERE text contains 'spike' LIMIT 10",
    "SELECT upper(lang) AS l, followers * 2 AS f2 FROM twitter \
     WHERE followers > 3 AND text contains 'kw'",
    "SELECT min(followers) AS mn, max(followers) AS mx FROM twitter WINDOW 2 minutes",
    // A windowed self-join: its state is two hash tables of rows.
    "SELECT id, id_r FROM twitter JOIN twitter ON screen_name = screen_name \
     WINDOW 2 minutes",
];

/// Host-construction knobs a whole differential comparison shares, and
/// what its runs do beside the schedule.
#[derive(Clone)]
struct Params {
    fault: Option<FaultPlan>,
    batch: usize,
    ckpt_every: u64,
    segment_bytes: u64,
    /// The reference configuration (`EngineBuilder::reference`): its
    /// as-written, interpreted plans, over the same block source.
    reference: bool,
    /// Runs at each kill point, just before the crash.
    at_kill: Option<fn(&mut QueryHost, &Path)>,
    /// Runs after each pump that wrote a checkpoint.
    after_checkpoint: Option<fn(&QueryHost)>,
}

impl Params {
    fn base() -> Params {
        Params {
            fault: None,
            batch: 16,
            ckpt_every: 64,
            segment_bytes: 1 << 20,
            reference: false,
            at_kill: None,
            after_checkpoint: None,
        }
    }
}

/// Whether a log record is the host's checkpoint: its payload begins
/// with the checkpoint tag, 4.
fn is_checkpoint(payload: &[u8]) -> bool {
    payload.first() == Some(&4)
}

/// How many checkpoint records `dir`'s log holds.
fn checkpoint_records(dir: &Path) -> usize {
    let (_, records) = Wal::open(dir, 1 << 20, false).expect("open log");
    records.iter().filter(|(_, r)| is_checkpoint(r)).count()
}

/// Open (or recover) a durable host over the shared stream. fsync is
/// off for test speed; sync-point accounting and file contents are
/// identical, and the in-process "crash" (dropping the host) loses
/// nothing the OS already has.
fn durable_host(dir: &Path, p: &Params) -> QueryHost {
    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    let mut b = tweeql::Engine::builder(api)
        .batch_size(p.batch)
        .reference(p.reference)
        .seed(99);
    if let Some(f) = &p.fault {
        b = b.fault_policy(f.clone());
    }
    b.recover_with(
        DurabilityConfig::new(dir)
            .checkpoint_every(p.ckpt_every)
            .segment_bytes(p.segment_bytes)
            .fsync(false),
    )
    .expect("open durable host")
}

/// What the schedule did to one registration, accumulated across
/// crashes: every row externalized through `take_output`/`drop_query`,
/// in order.
#[derive(Debug, PartialEq)]
struct QueryOutcome {
    sql: String,
    rows: Vec<Record>,
    /// Present for queries still registered at end-of-run.
    end_state: Option<(u64, QueryState, Vec<String>)>, // rows_out, state, schema
}

/// Everything the contract promises is crash-invariant.
#[derive(Debug, PartialEq)]
struct Observed {
    queries: Vec<QueryOutcome>,
    delivered: u64,
    gaps: u64,
    watermarks: u64,
    position: Timestamp,
    conn: ConnectionStats,
    fault_gaps: Vec<(Timestamp, Timestamp)>,
    disconnects: u64,
    duplicates_dropped: u64,
    clock_ms: i64,
}

/// One timeline action.
#[derive(Clone, Copy)]
enum Act {
    /// Register `CORPUS[i]`.
    Reg(usize),
    /// Drop the query made by the n-th registration.
    Drop(usize),
    /// `take_output` every still-registered query.
    PollAll,
}

/// A schedule: `(virtual time, action)` pairs, non-decreasing in time.
type Schedule = Vec<(Timestamp, Act)>;

/// Drive `sched` against a durable host rooted at `dir`, killing and
/// recovering the host at each time in `kills` (which may interleave
/// anywhere, including after the last action). Returns the observable
/// outcome.
fn run(dir: &Path, p: &Params, sched: &Schedule, kills: &[Timestamp]) -> Observed {
    let mut host = durable_host(dir, p);
    let mut kills: VecDeque<Timestamp> = kills.iter().copied().collect();
    let mut ids: Vec<QueryId> = Vec::new();
    let mut outcomes: Vec<QueryOutcome> = Vec::new();
    let mut live: Vec<bool> = Vec::new();

    // Drive the host with `f`, then run `after_checkpoint` if that
    // wrote a checkpoint.
    fn pump(
        host: &mut QueryHost,
        p: &Params,
        f: impl FnOnce(&mut QueryHost) -> Result<u64, QueryError>,
    ) {
        let checkpoints = |h: &QueryHost| h.wal_stats().expect("durable host").checkpoints;
        let before = checkpoints(host);
        f(host).expect("pump");
        if let Some(check) = p.after_checkpoint.filter(|_| checkpoints(host) > before) {
            check(host);
        }
    }
    // A crash is dropping the host on the floor: no checkpoint, no
    // flush; the next `durable_host` call replays the directory.
    fn crash(host: &mut QueryHost, dir: &Path, p: &Params) {
        if let Some(at_kill) = p.at_kill {
            at_kill(host, dir);
        }
        *host = durable_host(dir, p); // old host dropped: crash
    }
    // Pump to `t`, crashing at every kill point on the way.
    fn advance(
        host: &mut QueryHost,
        dir: &Path,
        p: &Params,
        kills: &mut VecDeque<Timestamp>,
        t: Timestamp,
    ) {
        while let Some(&k) = kills.front() {
            if k >= t {
                break;
            }
            kills.pop_front();
            pump(host, p, |h| h.pump_until(k));
            crash(host, dir, p);
        }
        pump(host, p, |h| h.pump_until(t));
    }

    for &(t, act) in sched {
        advance(&mut host, dir, p, &mut kills, t);
        match act {
            Act::Reg(i) => {
                let id = host.register(CORPUS[i]).expect(CORPUS[i]);
                ids.push(id);
                live.push(true);
                outcomes.push(QueryOutcome {
                    sql: CORPUS[i].to_string(),
                    rows: Vec::new(),
                    end_state: None,
                });
            }
            Act::Drop(n) => {
                let rows = host.drop_query(ids[n]).expect("drop");
                outcomes[n].rows.extend(rows);
                live[n] = false;
            }
            Act::PollAll => {
                for (n, &id) in ids.iter().enumerate() {
                    if live[n] {
                        outcomes[n].rows.extend(host.take_output(id).expect("poll"));
                    }
                }
            }
        }
    }
    // Remaining kills land during the run-out to end-of-stream.
    while let Some(k) = kills.pop_front() {
        pump(&mut host, p, |h| h.pump_until(k));
        crash(&mut host, dir, p);
    }
    pump(&mut host, p, |h| h.run_to_end());

    let infos = host.list();
    for (n, &id) in ids.iter().enumerate() {
        if !live[n] {
            continue;
        }
        outcomes[n]
            .rows
            .extend(host.take_output(id).expect("final poll"));
        let info = infos
            .iter()
            .find(|q| q.id == id)
            .expect("live query listed");
        let schema: Vec<String> = host
            .schema(id)
            .expect("schema")
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        outcomes[n].end_state = Some((info.rows_out, info.state, schema));
    }
    let stats = host.stats();
    let (conn, faults) = host.source_stats().expect("stream was pumped");
    Observed {
        queries: outcomes,
        delivered: stats.tweets_delivered,
        gaps: stats.gaps,
        watermarks: stats.watermarks,
        position: host.position(),
        conn,
        fault_gaps: faults.gaps.clone(),
        disconnects: faults.disconnects,
        duplicates_dropped: faults.duplicates_dropped,
        clock_ms: host.clock().now().millis(),
    }
}

/// The core assertion: identical `Observed` with and without kills.
fn assert_crash_equivalent(p: &Params, sched: &Schedule, kills: &[Timestamp]) {
    let clean_dir = TempDir::new("tweeql-dur-clean");
    let killed_dir = TempDir::new("tweeql-dur-killed");
    let clean = run(clean_dir.path(), p, sched, &[]);
    let killed = run(killed_dir.path(), p, sched, kills);
    assert_eq!(
        clean, killed,
        "kill/recover diverged from uninterrupted run"
    );
}

fn mins(m: i64) -> Timestamp {
    Timestamp::from_mins(m)
}

#[test]
fn kill_and_recover_matches_uninterrupted() {
    let sched = vec![
        (mins(0), Act::Reg(0)),
        (mins(0), Act::Reg(1)),
        (mins(2), Act::PollAll),
        (mins(6), Act::PollAll),
    ];
    let p = Params::base();
    assert_crash_equivalent(&p, &sched, &[Timestamp::from_millis(3 * 60_000 + 17_000)]);

    // And the recovered output is the engine gold standard, not merely
    // self-consistent: a from-registration query equals an independent
    // serial engine run with pushdown pinned off.
    let dir = TempDir::new("tweeql-dur-gold");
    let got = run(dir.path(), &p, &sched, &[mins(4)]);
    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    let reference = tweeql::Engine::builder(api)
        .batch_size(16)
        .seed(99)
        .push_down(false)
        .build()
        .execute(CORPUS[0])
        .expect("reference engine run");
    assert_eq!(got.queries[0].rows, reference.rows);
}

#[test]
fn chaos_faulted_windowed_aggregates_survive_kills() {
    let sched = vec![
        (mins(0), Act::Reg(1)),
        (mins(1), Act::Reg(2)),
        (mins(4), Act::PollAll),
    ];
    for fault_seed in [3u64, 11] {
        let p = Params {
            fault: Some(FaultPlan::chaos(fault_seed)),
            ..Params::base()
        };
        assert_crash_equivalent(
            &p,
            &sched,
            &[Timestamp::from_millis(2 * 60_000 + 31_000), mins(7)],
        );
    }
}

/// The reference configuration (which once pulled a per-tweet source,
/// hence the name): the same kills, checkpoint verification and gap
/// frontiers as the fast configuration's, over chaos.
#[test]
fn per_tweet_source_replays_chaos_to_the_same_output() {
    let sched = vec![
        (mins(0), Act::Reg(1)),
        (mins(1), Act::Reg(0)),
        (mins(3), Act::PollAll),
        (mins(5), Act::Drop(1)),
    ];
    let p = Params {
        fault: Some(FaultPlan::chaos(11)),
        reference: true,
        ..Params::base()
    };
    assert_crash_equivalent(
        &p,
        &sched,
        &[Timestamp::from_millis(2 * 60_000 + 31_000), mins(6)],
    );
}

/// The join's checkpoint digest reads only the columns the join query
/// decodes: rows it stored while a neighbour widened the shared batch's
/// decode (registered, then dropped before the checkpoint) must verify
/// against a replay in which that neighbour never ran.
#[test]
fn windowed_self_join_survives_kills_across_a_dropped_neighbour() {
    let sched = vec![
        (mins(0), Act::Reg(6)),
        (mins(0), Act::Reg(0)),
        (mins(2), Act::Drop(1)),
        (mins(3), Act::PollAll),
    ];
    for fault in [None, Some(FaultPlan::chaos(11))] {
        let p = Params {
            fault,
            ckpt_every: 32,
            ..Params::base()
        };
        assert_crash_equivalent(
            &p,
            &sched,
            &[Timestamp::from_millis(2 * 60_000 + 40_000), mins(5)],
        );
    }
}

#[test]
fn wal_only_recovery_before_any_checkpoint() {
    // checkpoint_every = 0: no automatic checkpoints, so the kill
    // exercises pure WAL replay.
    let p = Params {
        ckpt_every: 0,
        ..Params::base()
    };
    let sched = vec![
        (mins(0), Act::Reg(0)),
        (mins(1), Act::Reg(5)),
        (mins(2), Act::PollAll),
    ];
    assert_crash_equivalent(&p, &sched, &[mins(3)]);

    let dir = TempDir::new("tweeql-dur-walonly");
    let _ = run(dir.path(), &p, &sched, &[mins(3)]);
    let host = durable_host(dir.path(), &p);
    assert!(host.wal_stats().is_some(), "host must be durable");
    assert_eq!(
        checkpoint_records(dir.path()),
        0,
        "this shape must not have checkpointed"
    );
}

#[test]
fn checkpoint_plus_tail_with_post_checkpoint_register() {
    // Small cadence forces several checkpoints before the kill; the
    // second registration lands after them, so recovery replays a
    // checkpoint AND a WAL tail.
    let p = Params {
        ckpt_every: 50,
        ..Params::base()
    };
    let sched = vec![
        (mins(0), Act::Reg(1)),
        (mins(2), Act::PollAll),
        (mins(4), Act::Reg(0)),
    ];
    assert_crash_equivalent(&p, &sched, &[mins(5)]);

    let dir = TempDir::new("tweeql-dur-tail");
    let _ = run(dir.path(), &p, &sched, &[mins(5)]);
    assert!(
        checkpoint_records(dir.path()) > 0,
        "this shape must have checkpointed"
    );
    let host = durable_host(dir.path(), &p);
    assert_eq!(host.list().len(), 2, "both registrations recovered");
}

/// A crash inside a checkpoint's write: the log's last record, that
/// checkpoint, is torn by a few bytes. `Wal::open` truncates it, and
/// recovery starts from the checkpoint before it plus the records
/// after that one, here the `Taken` records of the poll at the kill.
#[test]
fn a_checkpoint_torn_mid_write_falls_back_to_the_one_before() {
    fn checkpoint_then_tear(host: &mut QueryHost, dir: &Path) {
        assert!(host.checkpoint().expect("checkpoint"));
        let (_, records) = Wal::open(dir, 1 << 20, false).expect("open log");
        let n = records.len();
        assert!(
            is_checkpoint(&records[n - 1].1),
            "the last record is the checkpoint"
        );
        assert!(
            !is_checkpoint(&records[n - 2].1),
            "records follow the one before"
        );
        let checkpoints = records.iter().filter(|(_, r)| is_checkpoint(r)).count();
        assert!(checkpoints >= 2, "a checkpoint to fall back to");
        let mut segments: Vec<_> = fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        segments.sort();
        let last = segments.last().expect("a segment");
        let len = fs::metadata(last).expect("segment metadata").len();
        let f = fs::OpenOptions::new()
            .write(true)
            .open(last)
            .expect("open segment");
        f.set_len(len - 3).expect("tear the checkpoint");
    }
    let sched = vec![
        (mins(0), Act::Reg(1)),
        (mins(0), Act::Reg(0)),
        (mins(2), Act::PollAll),
        (mins(5), Act::PollAll),
        (mins(7), Act::PollAll),
    ];
    let p = Params {
        at_kill: Some(checkpoint_then_tear),
        ..Params::base()
    };
    assert_crash_equivalent(&p, &sched, &[mins(5)]);
}

/// On segments smaller than a checkpoint, every checkpoint prunes the
/// log down to at most two segments, and kills between them still
/// recover the run without kills. Only checkpoints append during a
/// pump, so the log after a pump is the log after its last checkpoint.
#[test]
fn the_log_stays_bounded_on_small_segments_across_kills() {
    fn bounded(host: &QueryHost) {
        let s = host.wal_stats().expect("durable host");
        assert!(
            s.segments <= 2,
            "{} segments after a checkpoint",
            s.segments
        );
    }
    let sched = vec![
        (mins(0), Act::Reg(1)),
        (mins(0), Act::Reg(0)),
        (mins(1), Act::PollAll),
        (mins(3), Act::Reg(2)),
        (mins(3), Act::PollAll),
        (mins(5), Act::PollAll),
        (mins(8), Act::PollAll),
    ];
    let p = Params {
        ckpt_every: 32,
        segment_bytes: 256,
        after_checkpoint: Some(bounded),
        ..Params::base()
    };
    assert_crash_equivalent(
        &p,
        &sched,
        &[
            Timestamp::from_millis(2 * 60_000 + 7_000),
            Timestamp::from_millis(4 * 60_000 + 51_000),
            mins(6),
        ],
    );
}

/// A directory whose checkpoint is a `checkpoint.bin` file, as an older
/// log format kept it, is refused: that format pruned the log up to its
/// checkpoint, so replaying the log alone would lose registrations.
#[test]
fn a_directory_in_the_old_checkpoint_format_is_refused() {
    let dir = TempDir::new("tweeql-dur-old");
    // The older file: magic, crc32 and length of the payload, payload.
    let payload = b"older checkpoint";
    let mut file = b"TQCKPT01".to_vec();
    file.extend(tweeql_wal::crc32(payload).to_le_bytes());
    file.extend((payload.len() as u32).to_le_bytes());
    file.extend(payload);
    fs::write(dir.path().join("checkpoint.bin"), file).unwrap();

    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    let err = match tweeql::Engine::builder(api)
        .recover_with(DurabilityConfig::new(dir.path()).fsync(false))
    {
        Err(e) => e,
        Ok(_) => panic!("a directory in the old format must be refused"),
    };
    assert!(
        matches!(err, QueryError::Durability(ref m) if m.contains("checkpoint.bin")),
        "{err}"
    );
}

#[test]
fn dropped_queries_stay_dropped_across_recovery() {
    let sched = vec![
        (mins(0), Act::Reg(0)),
        (mins(0), Act::Reg(2)),
        (mins(3), Act::Drop(0)),
    ];
    let p = Params::base();
    assert_crash_equivalent(&p, &sched, &[mins(4)]);

    let dir = TempDir::new("tweeql-dur-drop");
    let _ = run(dir.path(), &p, &sched, &[mins(4)]);
    let host = durable_host(dir.path(), &p);
    let listed = host.list();
    assert_eq!(listed.len(), 1, "dropped query must not resurrect");
    assert_eq!(listed[0].sql, CORPUS[2]);
}

/// A scalar function that fails on every call.
struct Boom;

impl tweeql::udf::ScalarUdf for Boom {
    fn name(&self) -> &str {
        "boom"
    }

    fn call(&self, _: &[Value]) -> Result<Value, QueryError> {
        Err(QueryError::Exec("boom".into()))
    }
}

/// A durable host over the shared stream whose registry has [`Boom`].
fn boom_host(dir: &Path) -> QueryHost {
    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    tweeql::Engine::builder(api)
        .seed(99)
        .configure_registry(|r| r.register_scalar(std::sync::Arc::new(Boom)))
        .recover_with(DurabilityConfig::new(dir).fsync(false))
        .expect("open durable host")
}

#[test]
fn a_drop_whose_finish_fails_stays_dropped_across_recovery() {
    let dir = TempDir::new("tweeql-dur-drop-fails");
    let mut host = boom_host(dir.path());
    // A global aggregate emits its one row, and calls `boom`, only
    // when it is finished.
    let sql = "SELECT count(*) AS c FROM twitter HAVING boom(count(*)) > 0";
    let id = host.register(sql).expect(sql);
    host.pump_until(mins(1)).expect("pump");
    let err = host.drop_query(id).expect_err("the finish calls boom");
    assert!(err.to_string().contains("boom"), "{err}");
    assert!(host.list().is_empty(), "the failed drop removed the query");
    drop(host);
    let host = boom_host(dir.path());
    assert_eq!(
        host.list()
            .iter()
            .map(|q| (q.id, q.state))
            .collect::<Vec<_>>(),
        Vec::new(),
        "a dropped query must not come back, however its finish went"
    );
}

#[test]
fn repeated_kills_between_every_poll() {
    let sched = vec![
        (mins(0), Act::Reg(1)),
        (mins(1), Act::PollAll),
        (mins(3), Act::PollAll),
        (mins(5), Act::PollAll),
        (mins(8), Act::PollAll),
    ];
    let p = Params {
        ckpt_every: 100,
        ..Params::base()
    };
    assert_crash_equivalent(
        &p,
        &sched,
        &[
            Timestamp::from_millis(2 * 60_000 + 11_000),
            Timestamp::from_millis(4 * 60_000 + 43_000),
            Timestamp::from_millis(6 * 60_000 + 29_000),
        ],
    );
}

#[test]
fn recovered_host_accepts_new_queries() {
    let p = Params::base();
    let dir = TempDir::new("tweeql-dur-newq");
    let mut host = durable_host(dir.path(), &p);
    let first = host.register(CORPUS[0]).unwrap();
    host.pump_until(mins(2)).unwrap();
    drop(host); // crash

    let mut host = durable_host(dir.path(), &p);
    let second = host.register(CORPUS[2]).unwrap();
    assert_ne!(
        first, second,
        "recovered id allocator must not reuse live ids"
    );
    host.run_to_end().unwrap();
    assert_eq!(host.list().len(), 2);
    assert!(!host.take_output(first).unwrap().is_empty());

    // The post-recovery registration survives the *next* crash too.
    drop(host);
    let host = durable_host(dir.path(), &p);
    assert_eq!(host.list().len(), 2, "second-generation registration lost");
}

#[test]
fn explicit_checkpoint_then_clean_restart_preserves_queries() {
    let p = Params {
        ckpt_every: 0,
        ..Params::base()
    };
    let dir = TempDir::new("tweeql-dur-ckpt");
    let mut host = durable_host(dir.path(), &p);
    host.register(CORPUS[0]).unwrap();
    host.register(CORPUS[1]).unwrap();
    host.pump_until(mins(3)).unwrap();
    assert!(host.checkpoint().unwrap(), "durable host checkpoints");
    let stats = host.wal_stats().unwrap();
    assert_eq!(stats.checkpoints, 1);
    assert!(stats.checkpoint_bytes > 0);
    drop(host);

    let host = durable_host(dir.path(), &p);
    let listed = host.list();
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[0].sql, CORPUS[0]);
    assert_eq!(listed[1].sql, CORPUS[1]);
}

#[test]
fn recovery_rejects_a_different_engine_configuration() {
    let p = Params::base();
    let dir = TempDir::new("tweeql-dur-fp");
    let mut host = durable_host(dir.path(), &p);
    host.register(CORPUS[0]).unwrap();
    host.pump_until(mins(2)).unwrap();
    host.checkpoint().unwrap();
    drop(host);

    // Same directory, different stream seed: replaying someone else's
    // stream would silently produce different output, so recovery must
    // refuse.
    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    let err = match tweeql::Engine::builder(api)
        .batch_size(16)
        .seed(100)
        .recover_with(DurabilityConfig::new(dir.path()).fsync(false))
    {
        Err(e) => e,
        Ok(_) => panic!("fingerprint mismatch must be rejected"),
    };
    assert!(
        matches!(err, QueryError::Durability(ref m) if m.contains("configuration")),
        "{err}"
    );
}

/// A log with no checkpoint yet names its source in its first record,
/// so recovering it with another seed or over another scenario's
/// stream is refused instead of replaying the log against other tweets.
#[test]
fn recovery_without_a_checkpoint_rejects_another_source() {
    let p = Params {
        ckpt_every: 1 << 40,
        ..Params::base()
    };
    let dir = TempDir::new("tweeql-dur-source");
    let mut host = durable_host(dir.path(), &p);
    host.register(CORPUS[0]).unwrap();
    host.pump_until(mins(2)).unwrap();
    assert_eq!(host.wal_stats().unwrap().checkpoints, 0);
    drop(host);

    let other = Scenario {
        name: "another".into(),
        duration: Duration::from_mins(10),
        background_rate_per_min: 40.0,
        topics: vec![Topic::new("kw", vec!["kw"], 22.0)],
        bursts: vec![],
        geotag_rate: 0.2,
        population_size: 100,
    };
    for (what, tweets, seed) in [
        ("seed", tweets().clone(), 100),
        ("scenario", tweeql_firehose::generate(&other, 4251), 99),
    ] {
        let api = StreamingApi::new(tweets, VirtualClock::new());
        let err = match tweeql::Engine::builder(api)
            .batch_size(p.batch)
            .seed(seed)
            .recover_with(DurabilityConfig::new(dir.path()).fsync(false))
        {
            Err(e) => e,
            Ok(_) => panic!("a log recovered with another {what}"),
        };
        assert!(
            matches!(err, QueryError::Durability(ref m) if m.contains("another source")),
            "{err}"
        );
    }
    let host = durable_host(dir.path(), &p);
    assert_eq!(host.list().len(), 1, "the logged source still recovers");
}

#[test]
fn non_durable_host_reports_no_wal() {
    let api = StreamingApi::new(tweets().clone(), VirtualClock::new());
    let mut host = tweeql::Engine::builder(api).build_host();
    assert!(host.wal_stats().is_none());
    assert!(!host.checkpoint().unwrap(), "nothing to checkpoint into");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized crash-equivalence: seeds × clean/chaos
    /// × 1–3 seeded kill points × batch sizes × checkpoint cadences ×
    /// fast or reference configuration × registration/poll schedules.
    #[test]
    fn crash_equivalence_randomized(
        kill_seed in 0u64..1_000,
        chaos in 0u64..100,
        nkills in 1usize..4,
        batch_sel in 0usize..3,
        ckpt_sel in 0usize..3,
        reference in 0u8..2,
        qa in 0usize..CORPUS.len(),
        qb in 0usize..CORPUS.len(),
        reg2_min in 1i64..5,
        poll_min in 1i64..8,
    ) {
        let p = Params {
            // Odd draws run chaos-faulted; even draws run clean.
            fault: (chaos % 2 == 1).then(|| FaultPlan::chaos(chaos)),
            batch: [7, 16, 64][batch_sel],
            ckpt_every: [0, 32, 256][ckpt_sel],
            reference: reference == 1,
            ..Params::base()
        };
        let sched = vec![
            (mins(0), Act::Reg(qa)),
            (mins(reg2_min), Act::Reg(qb)),
            (mins(poll_min), Act::PollAll),
        ];
        let mut plan = KillPlan::new(kill_seed);
        let mut kills: Vec<Timestamp> = (0..nkills)
            .map(|_| plan.next_kill(mins(1), mins(9)))
            .collect();
        kills.sort();
        kills.dedup();

        let clean_dir = TempDir::new("tweeql-dur-prop-clean");
        let killed_dir = TempDir::new("tweeql-dur-prop-killed");
        let clean = run(clean_dir.path(), &p, &sched, &[]);
        let killed = run(killed_dir.path(), &p, &sched, &kills);
        prop_assert_eq!(clean, killed);
    }
}
