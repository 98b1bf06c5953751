#!/usr/bin/env bash
# Pinned-workload throughput harness around the bench_throughput binary.
#
#   scripts/bench.sh             measure and print the suite as JSON
#   scripts/bench.sh --check     regression gate: fail when any entry is
#                                >20% below the post_cycles_per_sec
#                                committed in BENCH_PR10.json, or when a
#                                full-scale entry's recorded pre->post
#                                speedup is below 1.10x (entries with a
#                                recorded pre of 0 skip that floor with
#                                a note — unmeasured baselines)
#   scripts/bench.sh --update    re-measure and rewrite BENCH_PR10.json,
#                                keeping the recorded pre-PR baselines
#   scripts/bench.sh --audit-overhead
#                                decision-audit overhead gate: fail when
#                                --audit costs more than 3% cycles/sec
#
# The gate compares wall-clock throughput, so it is machine- and
# load-sensitive: run it on an otherwise idle machine. Set
# CMPSIM_BENCH_NO_GATE=1 to demote a --check failure to a warning
# (e.g. on slower CI hosts where the committed numbers don't apply).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p cmpsim-bench --bin bench_throughput --quiet
BIN=./target/release/bench_throughput

case "${1:-}" in
    --check)
        exec "$BIN" --check BENCH_PR10.json
        ;;
    --audit-overhead)
        exec "$BIN" --audit-overhead-check
        ;;
    --update)
        tmp=$(mktemp)
        trap 'rm -f "$tmp"' EXIT
        "$BIN" --emit BENCH_PR10.json > "$tmp"
        mv "$tmp" BENCH_PR10.json
        trap - EXIT
        echo "bench: BENCH_PR10.json updated (pre_* baselines carried over)" >&2
        ;;
    "")
        exec "$BIN" --emit
        ;;
    *)
        echo "usage: scripts/bench.sh [--check|--update|--audit-overhead]" >&2
        exit 2
        ;;
esac
