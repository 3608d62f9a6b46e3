#!/usr/bin/env bash
# The one command: build release, then run the benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's driver calls)
#   benchmark/run.sh [--seed S] [--sets K]
#       every workload, every check, every metric by name
#   benchmark/run.sh compare <a.json> <b.json>
#
# Run from the repository root. Builds into $CARGO_TARGET_DIR when set.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
target="${CARGO_TARGET_DIR:-$(dirname "$0")/target}"
cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"
