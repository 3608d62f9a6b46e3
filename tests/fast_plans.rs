//! One expression path: a fast plan runs every scan stage — WHERE,
//! SELECT, HAVING and the projection over an aggregate — on the
//! compiled batch VM. No query in the repository's query sets lowers
//! onto the interpreted `FilterOp` or `ProjectOp`, which only the
//! `reference` plan builds; EXPLAIN names each scan stage `compiled`
//! or `interpreted` as it is built. The dashboard's panels, whose
//! post-aggregate projections moved onto the VM, also run end to end
//! in both configurations.

mod common;
mod drive_queries;

use std::path::Path;
use tweeql::engine::{Engine, EngineBuilder};
use tweeql_firehose::StreamingApi;
use tweeql_model::{Timestamp, Tweet, VirtualClock};

/// TwitInfo's peak queries: `detect_peak` over the minute count, and
/// `in_peak` in SELECT and in HAVING.
const PEAK_QUERIES: &[&str] = &[
    "SELECT count(*) AS c, detect_peak(count(*)) AS peak \
     FROM twitter WHERE text contains 'goal' WINDOW 1 minutes",
    "SELECT in_peak(count(*)) AS flag FROM twitter WHERE text contains 'goal' WINDOW 1 minutes",
    "SELECT count(*) AS c FROM twitter WHERE text contains 'goal' \
     HAVING in_peak(count(*)) WINDOW 1 minutes",
];

/// Every statement in `examples/*.tweeql`, comments stripped.
fn example_queries() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("readable examples/")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tweeql"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable example");
        let code: Vec<&str> = text
            .lines()
            .filter(|l| !l.trim_start().starts_with("--"))
            .collect();
        out.extend(
            code.join("\n")
                .split(';')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from),
        );
    }
    out
}

fn builder(tweets: Vec<Tweet>, reference: bool) -> EngineBuilder {
    Engine::builder(StreamingApi::new(tweets, VirtualClock::new()))
        .reference(reference)
        .push_down(false)
        .configure_registry(|r| {
            twitinfo::udfs::register(r, twitinfo::PeakDetectorConfig::default())
        })
}

#[test]
fn fast_plans_build_no_interpreted_stage() {
    let examples = example_queries();
    assert!(examples.len() >= 10, "{examples:?}");
    let queries = examples
        .iter()
        .map(String::as_str)
        .chain(common::DASHBOARD)
        .chain(drive_queries::QUERIES.iter().copied())
        .chain(PEAK_QUERIES.iter().copied());
    let fast = builder(Vec::new(), false).build();
    let reference = builder(Vec::new(), true).build();
    for sql in queries {
        let plan = fast
            .explain(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .plan;
        assert!(
            plan.lines().any(|l| l.starts_with("compiled ")),
            "{sql}\n{plan}"
        );
        assert!(!plan.contains("interpreted"), "{sql}\n{plan}");
        // The same reading sees the interpreter where it is built.
        let plan = reference.explain(sql).unwrap().plan;
        assert!(plan.contains("interpreted "), "{sql}\n{plan}");
    }
}

#[test]
fn dashboard_panels_match_the_reference() {
    // The whole virtual hour: every news cycle's burst.
    let stream = common::dashboard_stream(7);
    assert!(stream.last().unwrap().created_at >= Timestamp::from_mins(common::MINUTES - 1));
    for sql in common::DASHBOARD {
        let run = |reference| {
            builder(stream.clone(), reference)
                .build()
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .rows
        };
        let fast = run(false);
        assert!(!fast.is_empty(), "{sql} selects nothing");
        assert_eq!(fast, run(true), "{sql}");
    }
}

/// Only scan stages evaluate expressions: outside the reference
/// `FilterOp` and `ProjectOp` and the compiled `FusedScanOp`, no
/// operator's non-test code names a compiled expression (`CExpr`) or
/// its evaluation context (`EvalCtx`). The aggregate, async-UDF and
/// join stages read columns of their input.
#[test]
fn only_scan_stages_hold_expressions() {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable exec/") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let exec = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/exec");
    let mut files = Vec::new();
    walk(&exec, &mut files);
    assert!(files.len() >= 10, "{files:?}");
    let scan_stages = ["filter.rs", "project.rs", "fused.rs"];
    let mut offenders = Vec::new();
    for file in files {
        if scan_stages.iter().any(|s| file.ends_with(s)) {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("readable source file");
        let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (n, line) in code.enumerate() {
            if line.contains("CExpr") || line.contains("EvalCtx") {
                offenders.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(offenders.is_empty(), "{}", offenders.join("\n"));
}
