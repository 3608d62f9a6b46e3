//! `benchmark compare <a.json> <b.json>`: set `b` against its base `a`,
//! one row per (end-to-end metric, workload), judged by the bounds the
//! benchmark fixed. Two files are comparable only when they come from
//! the same benchmark: same input, run length, machine size, build
//! profile and bounds. Anything else is an error, not a verdict.

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// How `b` stands against `a` on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound,
    /// so the row can show neither a hold nor a regression.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judge one row. `worse` is how much worse `b`'s median is than
/// `a`'s, as a share of `a`'s (negative when better).
pub fn judge(worse: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    let spread = spread_a.max(spread_b);
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    bound: f64,
    better: String,
    unit: String,
}

fn rows(doc: &Value) -> BTreeMap<(String, String), Side> {
    let f = |r: &Value, k: &str| r.get(k).as_f64().unwrap_or(0.0);
    let s = |r: &Value, k: &str| r.get(k).as_str().unwrap_or("").to_string();
    doc.get("results")
        .as_arr()
        .iter()
        .filter(|r| r.get("kind").as_str() == Some("end_to_end"))
        .map(|r| {
            (
                (s(r, "workload"), s(r, "metric")),
                Side {
                    median: f(r, "median"),
                    q1: f(r, "q1"),
                    q3: f(r, "q3"),
                    spread: f(r, "spread"),
                    bound: f(r, "bound"),
                    better: s(r, "better"),
                    unit: s(r, "unit"),
                },
            )
        })
        .collect()
}

fn failed_share(doc: &Value) -> f64 {
    let (mut attempted, mut failed) = (0.0, 0.0);
    if let Value::Obj(ops) = doc.get("operations") {
        for o in ops.values() {
            attempted += o.get("attempted").as_f64().unwrap_or(0.0);
            failed += o.get("failed").as_f64().unwrap_or(0.0);
        }
    }
    if attempted == 0.0 {
        0.0
    } else {
        failed / attempted
    }
}

/// What two result files must agree on before their numbers can be
/// set against each other (`git_commit` is what may differ).
const SAME_BENCHMARK: [&str; 7] = [
    "seed",
    "virtual_minutes",
    "stream_tweets",
    "runs_per_set",
    "run_seconds",
    "host_cores",
    "profile",
];

/// Print the comparison; `Ok(true)` when nothing regressed, no row is
/// missing from either file and `b` did not fail a larger share of its
/// operations. `Err` when the files are not of the same benchmark.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a_doc = json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b_doc = json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    for key in SAME_BENCHMARK {
        let (va, vb) = (
            a_doc.get("provenance").get(key),
            b_doc.get("provenance").get(key),
        );
        if va != vb {
            return Err(format!("not comparable: {key} is {va:?} and {vb:?}"));
        }
    }
    let (a, b) = (rows(&a_doc), rows(&b_doc));
    if a.is_empty() {
        return Err("first file has no end-to-end results".into());
    }
    for (key, sa) in &a {
        if let Some(sb) = b.get(key).filter(|sb| sb.bound != sa.bound) {
            return Err(format!(
                "not comparable: {} of {} has bound {} and {}",
                key.1, key.0, sa.bound, sb.bound
            ));
        }
    }
    println!(
        "{:<18} {:<14} {:>30} {:>30} {:>7}  verdict    (ratio = b/a, base a)",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "ratio"
    );
    let mut ok = true;
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for ((workload, metric), sa) in &a {
        let Some(sb) = b.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<18} {metric:<14} missing from the second file");
            ok = false;
            continue;
        };
        let change = (sb.median - sa.median) / sa.median;
        let worse = if sa.better == "higher" {
            -change
        } else {
            change
        };
        let verdict = judge(worse, sa.spread, sb.spread, sa.bound);
        ok &= verdict != Verdict::Regressed;
        *counts.entry(verdict.to_string()).or_default() += 1;
        let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
        println!(
            "{workload:<18} {metric:<14} {:>30} {:>30} {:>7.4}  {verdict:<10} (base {:.4} {}, bound {}, spread {:.4}/{:.4})",
            side(sa),
            side(sb),
            sb.median / sa.median,
            sa.median,
            sa.unit,
            sa.bound,
            sa.spread,
            sb.spread
        );
    }
    for (workload, metric) in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{workload:<18} {metric:<14} missing from the first file");
        ok = false;
    }
    let (fa, fb) = (failed_share(&a_doc), failed_share(&b_doc));
    println!("failed-operation share: a {fa:.6}, b {fb:.6}");
    if fb > fa {
        println!("the second set failed a larger share of its operations");
        ok = false;
    }
    let summary: Vec<String> = counts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!("{}", summary.join(", "));
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(judge(0.02, 0.01, 0.01, 0.08), Verdict::Unchanged);
        assert_eq!(judge(0.09, 0.01, 0.01, 0.08), Verdict::Regressed);
        assert_eq!(judge(-0.09, 0.01, 0.02, 0.08), Verdict::Improved);
        assert_eq!(judge(-0.05, 0.01, 0.02, 0.08), Verdict::Unchanged);
        assert_eq!(judge(0.0, 0.01, 0.09, 0.08), Verdict::Unresolved);
    }

    fn doc_of(seed: u64, workload: &str, bound: f64, median: f64, failed: u64) -> String {
        format!(
            "{{\"provenance\": {{\"seed\": {seed}, \"profile\": \"release\"}}, \
             \"operations\": {{\"w\": {{\"attempted\": 10, \"failed\": {failed}}}}}, \
             \"results\": [{{\"workload\": \"{workload}\", \"metric\": \"tweets_per_s\", \
             \"kind\": \"end_to_end\", \"unit\": \"1/s\", \"better\": \"higher\", \
             \"bound\": {bound}, \"median\": {median}, \"q1\": {median}, \"q3\": {median}, \
             \"spread\": 0.01}}]}}"
        )
    }

    fn doc(median: f64, failed: u64) -> String {
        doc_of(42, "w", 0.08, median, failed)
    }

    #[test]
    fn files_of_another_benchmark_are_refused_and_missing_rows_fail() {
        let base = doc(100.0, 0);
        assert!(compare(&base, &doc_of(7, "w", 0.08, 100.0, 0)).is_err());
        assert!(compare(&base, &doc_of(42, "w", 0.25, 100.0, 0)).is_err());
        assert_eq!(compare(&base, &doc_of(42, "v", 0.08, 100.0, 0)), Ok(false));
    }

    #[test]
    fn a_regression_or_more_failures_fail_the_comparison() {
        assert_eq!(compare(&doc(100.0, 0), &doc(99.0, 0)), Ok(true));
        assert_eq!(compare(&doc(100.0, 0), &doc(150.0, 0)), Ok(true));
        assert_eq!(compare(&doc(100.0, 0), &doc(90.0, 0)), Ok(false));
        assert_eq!(compare(&doc(100.0, 0), &doc(100.0, 1)), Ok(false));
        assert!(compare("{}", &doc(1.0, 0)).is_err());
    }
}
