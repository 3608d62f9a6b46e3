//! Net lines are a tracked figure: this counts each crate's non-test
//! lines and holds `crates/core` to a ceiling.
//!
//! The count takes every `.rs` file under a crate's `src/` up to its
//! first top-level `#[cfg(test)]`, `host/mod.rs` whole and
//! `host/tests.rs` (the host's tests) not at all. A change that grows
//! `crates/core` raises the ceiling in its own diff and says why.
//! Run with `--nocapture` to see every crate's figure.

use std::path::{Path, PathBuf};

/// Non-test lines `crates/core` may have.
const CORE_CEILING: usize = 14_541;

/// Every `.rs` file under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn non_test_lines(file: &Path) -> usize {
    if file.ends_with("host/tests.rs") {
        return 0;
    }
    let text = std::fs::read_to_string(file).expect("readable source file");
    if file.ends_with("host/mod.rs") {
        return text.lines().count();
    }
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .count()
}

#[test]
fn core_stays_within_its_line_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("readable crates/")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    let mut core = None;
    for dir in dirs {
        let mut files = Vec::new();
        rust_sources(&dir.join("src"), &mut files);
        let lines: usize = files.iter().map(|f| non_test_lines(f)).sum();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        println!("crates/{name}: {lines} non-test lines");
        if name == "core" {
            core = Some(lines);
        }
    }
    let core = core.expect("the walk must reach crates/core");
    assert!(
        core <= CORE_CEILING,
        "crates/core has {core} non-test lines, over its ceiling of {CORE_CEILING}: \
         shrink it, or raise the ceiling in the same change and say why"
    );
}
