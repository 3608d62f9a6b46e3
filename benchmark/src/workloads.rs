//! The workloads: their names, why each exists, their queries, and the
//! one input stream they all read.

use std::path::Path;
use tweeql::DurabilityConfig;
use tweeql_firehose::scenario::Topic;
use tweeql_firehose::{generate, scenarios};
use tweeql_model::{Duration, Timestamp, Tweet};

/// How a workload reaches the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Standing queries through `bench_server serve` over TCP; `durable`
    /// adds a data directory and a `kill -9` half-way.
    Tcp { durable: bool },
    /// One-shot `Engine::execute` calls in `bench_server adhoc`.
    Adhoc,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// Every workload, in the order `run.sh` runs them. Names are fixed:
/// later issues cite them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dashboard",
        kind: Kind::Tcp { durable: false },
        why: "8 TwitInfo-panel queries: every tweet is decoded and crosses filter, VM, sentiment and aggregates; index and output stay small",
    },
    Workload {
        name: "tracker",
        kind: Kind::Tcp { durable: false },
        why: "1,000 keyword queries, 980 never match: shared Aho-Corasick scan, dispatch and register path; operator work near zero, so a decode or VM gain must not show",
    },
    Workload {
        name: "export",
        kind: Kind::Tcp { durable: false },
        why: "one query that turns every tweet into a row: take_output, JSON sink, response rendering and the socket dominate; output queue is the memory",
    },
    Workload {
        name: "dashboard_durable",
        kind: Kind::Tcp { durable: true },
        why: "dashboard with WAL records and checkpoints beside the reads (no device flush: the disk is shared), killed with -9 half-way and recovered; output must equal dashboard's",
    },
    Workload {
        name: "adhoc",
        kind: Kind::Adhoc,
        why: "7 one-shot Engine::execute queries with pushdown: the only route to the selectivity probe, API pushdown and confidence windows; traced also at workers=2",
    },
];

/// How `dashboard_durable` logs: every record and checkpoint is written,
/// checksummed and read back by the recovery, but the device is left out.
/// The container's disk is shared: between two sets of one commit the
/// median `fsync` went from 133 to 766 us and a checkpoint from 445 to
/// 5,155 us, and the workload's throughput fell by 35 % while
/// `dashboard`'s held. So no `fsync` per record, and a checkpoint (which
/// always syncs its file and directory) every 32,768 tweets, not every
/// 4,096: a dozen a pass. `kill -9` loses nothing the page cache holds.
/// What the device costs is the `wal` rung's `wal.sync_us_p50` and
/// `wal.checkpoint_us`; how often it would be asked is `wal.fsyncs`.
pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .fsync(false)
        .checkpoint_every(32_768)
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What scales with the machine's time budget. The defaults are what
/// `BENCHMARK.json` measures; the smoke test shrinks both.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Virtual minutes of stream (one `STEP 300` per five).
    pub minutes: i64,
    /// Registered `tracker` queries; the first [`LIVE_KEYWORDS`] match
    /// traffic, the rest are phantom needles.
    pub tracker_queries: usize,
}

impl Default for Sizing {
    fn default() -> Self {
        Sizing {
            minutes: 240,
            tracker_queries: 1000,
        }
    }
}

/// Low-rate keyword topics added to the scenario for `tracker`.
const EXTRA_TOPICS: usize = 12;

/// Scenario vocabulary that `tracker` also tracks.
const SCENARIO_KEYWORDS: [&str; 8] = [
    "obama",
    "president",
    "whitehouse",
    "budget",
    "summit",
    "congress",
    "speech",
    "approval",
];

/// Keywords with traffic: the extra topics plus scenario vocabulary.
pub const LIVE_KEYWORDS: usize = EXTRA_TOPICS + SCENARIO_KEYWORDS.len();

fn extra_keyword(i: usize) -> String {
    format!("trend{i:02}")
}

/// The input stream, a function of `seed` alone: `obama_month()` with
/// background and topic rates x6, 20,000 users and 12 extra low-rate
/// keyword topics — about 26 tweets per virtual second, under the
/// facade's delivery cap, so nothing is dropped. The month's five news
/// cycles are compressed into `minutes` so every keyword the queries
/// name has traffic at any length.
pub fn stream(seed: u64, minutes: i64) -> Vec<Tweet> {
    let mut s = scenarios::obama_month();
    let scale = minutes as f64 * 60_000.0 / s.duration.millis() as f64;
    s.duration = Duration::from_mins(minutes);
    s.background_rate_per_min *= 6.0;
    s.population_size = 20_000;
    for t in &mut s.topics {
        t.base_rate_per_min *= 6.0;
    }
    for b in &mut s.bursts {
        let scaled = |ms: i64| (ms as f64 * scale) as i64;
        b.start = Timestamp::from_millis(scaled(b.start.millis()));
        b.ramp_up = Duration::from_millis(scaled(b.ramp_up.millis()));
        b.ramp_down = Duration::from_millis(scaled(b.ramp_down.millis()));
    }
    for i in 0..EXTRA_TOPICS {
        let kw = extra_keyword(i);
        s.topics
            .push(Topic::new(kw.clone(), vec![kw.as_str()], 1.5));
    }
    generate(&s, seed)
}

const DASHBOARD: [&str; 8] = [
    "SELECT count(*) AS mentions FROM twitter WHERE text contains 'obama' WINDOW 1 minutes",
    "SELECT lang, avg(sentiment(text)) AS mood, count(*) AS n FROM twitter \
     WHERE text contains 'obama' GROUP BY lang WINDOW 10 minutes SLIDE 5 minutes",
    "SELECT sentiment(text), latitude(loc), longitude(loc) FROM twitter \
     WHERE text contains 'president'",
    "SELECT screen_name, text FROM twitter WHERE text contains 'budget'",
    // Guarded with `contains`: the unguarded `matches 'http://'` form
    // alone costs more than the other seven together and would hide
    // every other layer.
    "SELECT regex_extract(text, 'http://[a-z./0-9-]+', 0) AS link FROM twitter \
     WHERE text contains 'http://'",
    "SELECT lang, count(distinct screen_name) AS authors FROM twitter \
     GROUP BY lang WINDOW 5 minutes",
    "SELECT screen_name, followers FROM twitter WHERE followers > 10000",
    "SELECT avg(sentiment(text)), floor(latitude(loc)) AS cell_lat, \
     floor(longitude(loc)) AS cell_lon FROM twitter WHERE text contains 'obama' \
     GROUP BY cell_lat, cell_lon WINDOW 3 hours",
];

const EXPORT: [&str; 1] = ["SELECT screen_name, text, lang, followers, created_at FROM twitter"];

const ADHOC: [&str; 7] = [
    // The paper's Queries 1-3, without LIMIT.
    "SELECT sentiment(text), latitude(loc), longitude(loc) FROM twitter \
     WHERE text contains 'obama'",
    "SELECT text FROM twitter WHERE text contains 'obama' \
     AND location in [bounding box for NYC]",
    "SELECT avg(sentiment(text)), floor(latitude(loc)) AS cell_lat, \
     floor(longitude(loc)) AS cell_lon FROM twitter WHERE text contains 'obama' \
     GROUP BY cell_lat, cell_lon WINDOW 3 hours",
    "SELECT lang, avg(followers) AS reach FROM twitter WHERE text contains 'president' \
     GROUP BY lang WINDOW CONFIDENCE 0.5 MAX 1 hours",
    "SELECT lang, count(*) AS n, avg(followers) AS reach, min(followers) AS lo, \
     max(followers) AS hi, count(distinct screen_name) AS authors FROM twitter \
     GROUP BY lang WINDOW 5 minutes",
    "SELECT screen_name, followers FROM twitter WHERE followers > 10000",
    "SELECT topk(urls(text), 3) AS links, count(*) AS n FROM twitter \
     WHERE text contains 'obama'",
];

/// The keyword `tracker` query `i` looks for: live ones first, then
/// needles the text generator cannot produce.
pub fn tracker_keyword(i: usize) -> String {
    if i < EXTRA_TOPICS {
        extra_keyword(i)
    } else if i < LIVE_KEYWORDS {
        SCENARIO_KEYWORDS[i - EXTRA_TOPICS].to_string()
    } else {
        format!("zqxneedle{i:04}")
    }
}

/// The workload's queries, in registration order.
pub fn queries(w: &Workload, sizing: &Sizing) -> Vec<String> {
    let own = |qs: &[&str]| qs.iter().map(|q| q.to_string()).collect();
    match w.name {
        "dashboard" | "dashboard_durable" => own(&DASHBOARD),
        "export" => own(&EXPORT),
        "tracker" => (0..sizing.tracker_queries)
            .map(|i| {
                format!(
                    "SELECT text FROM twitter WHERE text contains '{}'",
                    tracker_keyword(i)
                )
            })
            .collect(),
        _ => own(&ADHOC),
    }
}

/// Queries whose reference output must be computed; the rest (phantom
/// `tracker` needles) must be empty.
pub fn live_queries(w: &Workload, total: usize) -> usize {
    if w.name == "tracker" {
        total.min(LIVE_KEYWORDS)
    } else {
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_names_are_unique() {
        let a = stream(3, 2);
        let b = stream(3, 2);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, stream(4, 2));
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(!queries(w, &Sizing::default()).is_empty());
        }
    }
}
