#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--trace] [--smoke] [--sets K] [--seconds S]
#       builds, then runs every workload, one process after another, and
#       writes benchmark/out/<git_rev>/results.json (+ trace-<workload>.json).
#       --trace adds the traced run that yields the per-layer metrics.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       builds, then runs that one workload and prints its result line last
#       (what BENCHMARK.json's `command` is given).
#
# Exits non-zero when the build fails or any answer was wrong.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

workload="" seed=1 seconds="" trace=0 smoke="" sets=1
while (($#)); do
    case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --sets) sets=$2; shift 2 ;;
    --smoke) smoke=--smoke; shift ;;
    --trace)
        # A flag on its own, or the driver's `--trace 0|1`.
        if [[ "${2-}" == [01] ]]; then trace=$2; shift 2; else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [[ -z $seconds && -n $smoke ]]; then
    seconds=0 # one block of each
elif [[ -z $seconds ]]; then
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
fi

# Cargo's messages go to stderr; stdout carries only the benchmark's lines.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/tq-benchmark"

if [[ -n $workload ]]; then
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" $smoke --dir "$here"
fi

rev=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
out="$here/out/$rev"
mkdir -p "$out"
runs="$out/runs.jsonl"
: >"$runs"
status=0
for set in $(seq 1 "$sets"); do
    for w in $("$bin" workloads); do
        for t in $(seq 0 "$trace"); do
            echo "== $w  set $set  trace $t"
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
                $smoke --dir "$here" --out "$out" --record "$runs" || status=1
        done
    done
done

{
    printf '{"stamp": {"git_rev": "%s", "host_cores": %s, "rustc": "%s", "seed": %s, ' \
        "$rev" "$(nproc)" "$(rustc -V)" "$seed"
    printf '"run_seconds": %s, "sets": %s, "smoke": %s},\n "runs": [\n' \
        "$seconds" "$sets" "$([[ -n $smoke ]] && echo true || echo false)"
    sed '$!s/$/,/' "$runs"
    printf ']}\n'
} >"$out/results.json"
rm "$runs"
echo "wrote $out/results.json"
exit $status
