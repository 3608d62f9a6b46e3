//! Retired entry points stay retired.
//!
//! `EngineBuilder::reference` replaced the four per-layer mode flags;
//! they and `workers` remain only as hidden aliases for `benchmark/`,
//! which cannot change in the same commit as the engine. Every query
//! runs on a `QueryHost`, so `Engine::execute_with_sink` and the
//! engine's own `run_single` drive are gone. The server writes a reply
//! to its socket in bounded chunks as it renders it, so `render_into`,
//! which built a whole reply in one `String` first, is gone too. A scan
//! reads strings from the tweet, so the scan column mask
//! (`columns_to_materialize`), the text arena (`str_column`) and the
//! column-first `float_at` are gone. A batch builds a column at its
//! first reader's view, so the head's column mask
//! (`wants_tweet_batch`, `tweet_columns`), the pipeline's own batch
//! drain (`drain_tweet_batch`) and the build beside the batch
//! (`decode_column`) are gone. Query output reaches the server as a
//! column batch that the JSON writer reads line by line, so the
//! writer's per-`Record` `write_row` is gone. A batch builds only the
//! columns its readers view, so the projection-pruning mask is gone:
//! its rule (`prune_projection_rule`), the masked batch (`with_live`,
//! and `set_live`, a hidden no-op the benchmark still calls) and the
//! pruned row decode (`from_tweet_pruned`). `Engine::execute` admits
//! its query to a host of its own and drops it like any other, so the
//! one-query host constructor (`one_query`) and its plan hand-back
//! (`into_query`) are gone. A checkpoint is a record in the log, so
//! the checkpoint file's reader (`read_checkpoint`) is gone. Rows
//! enter an operator only as a batch, so the per-row entry
//! (`on_record`) and the tweet-batch decode behind it (`row_shim`) are
//! gone. One precedence loop parses an expression, so the functions
//! that each parsed one level (`logic_chain`, `not_expr`, `additive`,
//! `multiplicative`, their `eat_op`, and `in_rhs`) are gone. The host
//! publishes a query's counters when it retires and the connection's
//! when the pull ends, so the engine's decode publisher
//! (`publish_decode`) is gone. No Rust source outside `benchmark/` may
//! call or define any of them.

use std::path::Path;

/// Called as methods: `.name(`.
const RETIRED_METHODS: &[&str] = &[
    "columnar_decode",
    "compiled_expressions",
    "plan_optimizer",
    "batched_source",
    "workers",
    "set_live",
];

/// Called or defined anywhere: `name(`.
const RETIRED_FNS: &[&str] = &[
    "execute_with_sink",
    "run_single",
    "render_into",
    "columns_to_materialize",
    "str_column",
    "float_at",
    "wants_tweet_batch",
    "tweet_columns",
    "drain_tweet_batch",
    "decode_column",
    "write_row",
    "from_tweet_pruned",
    "with_live",
    "prune_projection_rule",
    "one_query",
    "into_query",
    "read_checkpoint",
    "on_record",
    "row_shim",
    "logic_chain",
    "not_expr",
    "additive",
    "multiplicative",
    "eat_op",
    "in_rhs",
    "publish_decode",
];

/// Every `.rs` file under `dir`, skipping the root's `benchmark/`, build
/// output (`target/`) and hidden directories.
fn rust_sources(root: &Path, dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            let skipped =
                name.starts_with('.') || name == "target" || (dir == root && name == "benchmark");
            if !skipped {
                rust_sources(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn retired_switches_have_no_caller_outside_benchmark() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(root, root, &mut files);
    assert!(
        files
            .iter()
            .any(|f| f.ends_with("crates/core/src/engine.rs")),
        "the walk must reach the engine's source"
    );
    let needles: Vec<String> = RETIRED_METHODS
        .iter()
        .map(|m| format!(".{m}("))
        .chain(RETIRED_FNS.iter().map(|f| format!("{f}(")))
        .collect();
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            if needles.iter().any(|needle| line.contains(needle.as_str())) {
                let at = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{}:{}: {}", at.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "call the reference switch, `Engine::execute`, the server's chunked reply writer \
         or the tweet's own strings instead:\n{}",
        hits.join("\n")
    );
}
