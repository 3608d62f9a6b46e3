//! The prose follows the gate: every E1–E8 table in EXPERIMENTS.md is
//! the one `report 42` prints, row for row.

use std::collections::BTreeMap;
use std::process::Command;

/// The experiments whose tables EXPERIMENTS.md records from `report 42`.
const EXPERIMENTS: &[&str] = &["E1", "E2", "E2b", "E3", "E4", "E5", "E6", "E7", "E8"];

/// Table lines (those starting with `|`) per `##`/`###` section, keyed
/// by the section's experiment id: `## E2b — …` is `E2b`.
fn tables(markdown: &str) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut section = None;
    for line in markdown.lines() {
        if let Some(heading) = line
            .strip_prefix("## ")
            .or_else(|| line.strip_prefix("### "))
        {
            section = heading.split_whitespace().next().map(str::to_string);
        } else if line.starts_with('|') {
            if let Some(id) = &section {
                out.entry(id.clone()).or_default().push(line.to_string());
            }
        }
    }
    out
}

#[test]
fn experiments_md_tables_match_report_42() {
    let report = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("42")
        .output()
        .expect("the report binary runs");
    assert!(report.status.success(), "report 42 failed");
    let printed = tables(&String::from_utf8(report.stdout).expect("UTF-8 report"));
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc_path).expect("EXPERIMENTS.md is readable");
    let recorded = tables(&doc);
    let ids: Vec<&str> = printed.keys().map(String::as_str).collect();
    let mut expected = EXPERIMENTS.to_vec();
    expected.sort_unstable();
    assert_eq!(ids, expected, "report 42 prints one table per experiment");
    for id in EXPERIMENTS {
        assert_eq!(
            recorded.get(*id),
            printed.get(*id),
            "EXPERIMENTS.md's {id} table differs from `report 42`'s"
        );
    }
}
