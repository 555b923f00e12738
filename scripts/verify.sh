#!/usr/bin/env bash
# Full verification: build, tests, lints, and a parallel smoke figure.
#
# The smoke step runs one join figure at reduced scale with two
# workers — it exercises the worker pool, the database clone path and
# the figure printers end to end, and fails loudly if any of them
# regress.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== formatting =="
cargo fmt --check

# The source-structure gates (raw pins in joins, batch-size forks,
# per-kind request stages, `Stat` literals, byte codecs outside
# proto.rs) are tests/structure.rs, run by the workspace tests below.

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

echo "== smoke figure (TQ_SCALE=200, TQ_JOBS=2) =="
# Planner agreement across --planner policies, TQ_PARALLEL=1 stdout
# identity and the exit-2 contract for bad flags and knobs are tier-1
# tests now (crates/bench/tests/figures_golden.rs and cli.rs).
SMOKE_T0=$(date +%s%N)
TQ_SCALE=200 TQ_JOBS=2 \
    cargo run --release -p tq-bench --bin tq-fig -- fig11_14_joins --db db2 --org class
SMOKE_T1=$(date +%s%N)
echo "smoke figure wall clock: $(( (SMOKE_T1 - SMOKE_T0) / 1000000 )) ms"

echo "== smoke serve (TQ_SCALE=200, TQ_CONCURRENCY=4, 2s) =="
# loadgen itself exits non-zero on any serving error or leaked handle;
# on top of that, check the latency CSV on stdout is well formed.
SERVE_CSV=$(TQ_SCALE=200 TQ_JOBS=2 TQ_CONCURRENCY=4 TQ_DURATION=2 \
    cargo run --release -p tq-bench --bin loadgen)
echo "$SERVE_CSV"
echo "$SERVE_CSV" | grep -q \
    '^label,concurrency,workers,queue_depth,duration_ns,ok,shed,shed_router,deadline_exceeded,errors,' \
    || { echo "error: loadgen latency-CSV header missing" >&2; exit 1; }
SERVE_ROWS=$(echo "$SERVE_CSV" | awk -F, '/^label,/{h=1;next} h && NF==18' | wc -l)
[ "$SERVE_ROWS" -eq 1 ] \
    || { echo "error: expected 1 well-formed latency-CSV row, got $SERVE_ROWS" >&2; exit 1; }
echo "$SERVE_CSV" | awk -F, '/^label,/{h=1;next} h { exit !($11 == 0 && $12 == 0) }' \
    || { echo "error: read-only serve reported commits/aborts" >&2; exit 1; }
# Unsharded runs shed only at the (single) server's queue: the
# router-edge column must be zero.
echo "$SERVE_CSV" | awk -F, '/^label,/{h=1;next} h { exit !($8 == 0) }' \
    || { echo "error: unsharded serve reported router-edge sheds" >&2; exit 1; }

echo "== smoke serve, mixed writes (TQ_WRITE_MIX=30) =="
# Same loadgen gate under a 30% write mix: still zero errors and zero
# leaked handles (loadgen exits non-zero otherwise), at least one
# commit actually published, and the abort column well formed (aborts
# never exceed commit attempts; both land in their own CSV columns).
MIX_CSV=$(TQ_SCALE=200 TQ_JOBS=2 TQ_CONCURRENCY=4 TQ_DURATION=2 TQ_WRITE_MIX=30 \
    cargo run --release -p tq-bench --bin loadgen)
echo "$MIX_CSV"
MIX_ROWS=$(echo "$MIX_CSV" | awk -F, '/^label,/{h=1;next} h && NF==18' | wc -l)
[ "$MIX_ROWS" -eq 1 ] \
    || { echo "error: expected 1 well-formed mixed latency-CSV row, got $MIX_ROWS" >&2; exit 1; }
echo "$MIX_CSV" | awk -F, '/^label,/{h=1;next} h { exit !($10 == 0 && $11 > 0 && $12 >= 0) }' \
    || { echo "error: mixed serve must commit writes without errors" >&2; exit 1; }

echo "== smoke serve, sharded (TQ_SHARDS=2) =="
# Two engine shards behind the scatter-gather router, same closed loop:
# zero errors and zero leaked handles (loadgen exits non-zero
# otherwise), a well-formed 18-column row, and shed accounting that
# distinguishes the router edge from the shard queues (router-edge
# sheds are a subset of the total).
SHARD_CSV=$(TQ_SCALE=200 TQ_JOBS=2 TQ_CONCURRENCY=4 TQ_DURATION=2 TQ_SHARDS=2 \
    cargo run --release -p tq-bench --bin loadgen)
echo "$SHARD_CSV"
SHARD_ROWS=$(echo "$SHARD_CSV" | awk -F, '/^label,/{h=1;next} h && NF==18' | wc -l)
[ "$SHARD_ROWS" -eq 1 ] \
    || { echo "error: expected 1 well-formed sharded latency-CSV row, got $SHARD_ROWS" >&2; exit 1; }
echo "$SHARD_CSV" | awk -F, '/^label,/{h=1;next} h { exit !($8 <= $7 && $10 == 0) }' \
    || { echo "error: sharded serve errored or mis-attributed sheds" >&2; exit 1; }

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
