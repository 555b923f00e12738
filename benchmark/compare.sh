#!/usr/bin/env bash
# benchmark/compare.sh A/results.json B/results.json
#
# One row per (end-to-end metric, workload): both medians, the delta of B
# against the base A, the bound BENCHMARK.json fixes, each side's own
# spread, and better / same / worse / unresolved.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/tq-benchmark" compare "$@" --dir "$here"
