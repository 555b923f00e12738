#!/usr/bin/env bash
# Full verification: build, tests, lints, the release-only oracles
# and the paper-scale perf gate.
#
# The two-worker smoke figure is tier-1:
# crates/bench/tests/cli.rs runs the real `tq-fig` binary with
# TQ_JOBS=2 and checks its stdout against the registry's.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== formatting =="
cargo fmt --check

# The source-structure gates (raw pins in joins, batch-size forks,
# per-kind request stages, `Stat` literals, byte codecs outside
# proto.rs, static atomics) are tests/structure.rs, run by the
# workspace tests below.

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== benchmark package (builds against the crates' API; smoke run + metric-name lock) =="
# benchmark/ is a workspace of its own, so nothing above compiles it: an
# objstore/query API change that breaks it would otherwise surface only
# when the benchmark is next run.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== copy-on-write snapshot tests (release) =="
cargo test --release -q -p tq-pagestore --test prop_cow
cargo test --release -q -p tq-bench --test cow_sharing

echo "== determinism oracle at paper-relevant scale (release) =="
cargo test --release -q -p tq-bench --test parallel_matches_serial -- --ignored

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== sharded differential oracle (release) =="
# Sharded results byte-identical to the unsharded engine for every
# join algorithm × clustering at 1/2/4 shards, and the router's merged
# Stats exactly merge_stats over the per-shard truth.
cargo test --release -q -p tq-router --test sharded_equivalence

echo "== parallel differential oracle (release, degrees 2/4) =="
# Morsel-parallel runs against the serial engine for every join
# algorithm × clustering: result counts, full pair lists, trace shape,
# per-row handle_gets, Emit rows, and the attribution sums must match
# at the raw, Stat, served, and sharded-composed layers; the fault
# suite pins the typed panic/deadline paths with zero leaked handles.
cargo test --release -q -p tq-bench --test parallel_equivalence
cargo test --release -q -p tq-bench --test parallel_faults

echo "== perf gate: paper-scale fig11_14 vs committed trajectory (CPU) =="
# CPU time (user+sys, min of 3 rounds) of the paper's headline figure
# must stay within 15% of the best committed cpu_ms_min3 record
# (figure=fig11_14, paper scale, TQ_JOBS=1). Wall clock swings ±60%
# with neighbour load on shared hosts (BENCH_vectorized.json, the one
# committed record file, documents the measurement) — CPU time is the
# noise-robust signal. Skippable on
# hosts with a different CPU class: TQ_SKIP_PERF_GATE=1.
# Each round's peak resident set (VmHWM) is printed beside the CPU
# time, for information only: it is not gated.

# Runs "$@" with its output discarded, polling /proc/<pid>/status every
# 50 ms, and prints the run's VmHWM in kB. Bash builtins only, so the
# polling forks nothing and adds next to no CPU to the time it is
# measured under; `read -t` on a pipe no one writes is the sleep.
run_polling_hwm() {
    local pid tick key val hwm=0
    "$@" >/dev/null 2>&1 &
    pid=$!
    exec {tick}<> <(:)
    while kill -0 "$pid" 2>/dev/null; do
        while read -r key val _; do
            if [ "$key" = VmHWM: ] && [ "$val" -gt "$hwm" ]; then hwm=$val; fi
        done 2>/dev/null <"/proc/$pid/status" || true
        read -rt 0.05 -u "$tick" || true
    done
    exec {tick}<&-
    wait "$pid"
    echo "$hwm"
}

if [ "${TQ_SKIP_PERF_GATE:-0}" = "1" ]; then
    echo "skipped (TQ_SKIP_PERF_GATE=1)"
else
    BASE_MS=$(grep -h '"figure": "fig11_14"' BENCH_vectorized.json 2>/dev/null \
        | grep '"scale": 1,' | grep '"jobs": 1,' | grep '"cpu_ms_min3":' \
        | sed -E 's/.*"cpu_ms_min3": ([0-9]+).*/\1/' \
        | sort -n | head -1)
    if [ -z "${BASE_MS:-}" ]; then
        echo "no committed paper-scale fig11_14 cpu_ms_min3 record;" \
             "nothing to gate"
    else
        CUR_MS="" HWM_KB=0
        for _ in 1 2 3; do
            OUT=$( { TIMEFORMAT='%U %S'; time run_polling_hwm env TQ_SCALE=1 \
                TQ_JOBS=1 ./target/release/tq-fig fig11_14_joins --db db2 --org class; } 2>&1 )
            T=$(tail -n 1 <<<"$OUT")
            KB=$(head -n 1 <<<"$OUT")
            MS=$(awk -v u="${T% *}" -v s="${T#* }" \
                'BEGIN { printf "%d", (u + s) * 1000 }')
            [ -z "$CUR_MS" ] || [ "$MS" -lt "$CUR_MS" ] && CUR_MS=$MS
            [ "$KB" -gt "$HWM_KB" ] && HWM_KB=$KB
        done
        LIMIT_MS=$(( BASE_MS * 115 / 100 ))
        echo "paper fig11_14: ${CUR_MS} ms CPU, VmHWM $(( HWM_KB / 1024 )) MB" \
             "(best committed ${BASE_MS} ms, limit ${LIMIT_MS} ms)"
        if [ "$CUR_MS" -gt "$LIMIT_MS" ]; then
            echo "error: paper-scale fig11_14 CPU time regressed >15% over" \
                 "the committed trajectory (TQ_SKIP_PERF_GATE=1 to bypass)" >&2
            exit 1
        fi
    fi
fi

echo "verify: OK"
