#!/usr/bin/env bash
# Throughput gate: perfbench (the benchmark BENCHMARK.json declares)
# checked against the committed ledger BENCH.jsonl. The instrument
# overhead gate is `bench_throughput --overhead-check`.
#
#   scripts/bench.sh --check     run each perfbench workload once and
#                                compare it with the last BENCH.jsonl
#                                entry recorded with the same host_cores
#                                and seconds: sim_cycles_per_cpu_s must
#                                be >= 0.80x the entry, wall_s and
#                                peak_rss_mb <= 1.20x, sim_cycles and
#                                policy_speedup equal, and no run may
#                                fail. Any violation, or no matching
#                                entry, exits 1
#   scripts/bench.sh --record    run each workload 5 times and append
#                                one BENCH.jsonl entry of per-metric
#                                medians (fails, recording nothing, if
#                                the runs disagree on a modelled output
#                                or any run fails)
#
# perfbench corrects for host speed, but a busy host still slows it:
# run the check on an otherwise idle machine. It has no escape.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS="paper_trade2_wbht quick_notes_wbht quick_tp_snarf_sweep"
LEDGER=BENCH.jsonl

cargo build --release -p cmpsim-bench --bin bench_throughput --quiet
BIN=./target/release/bench_throughput

# Runs every workload $1 times, one process per run (so peak RSS is the
# run's own), exactly as BENCHMARK.json's command does: no --seconds,
# no --trace. Leaves one output file per run in $out.
perfbench_runs() {
    for w in $WORKLOADS; do
        for i in $(seq "$1"); do
            cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
                --workload "$w" > "$out/$w.$i"
        done
    done
}

case "${1:-}" in
    --check | --record)
        out=$(mktemp -d)
        trap 'rm -rf "$out"' EXIT
        if [ "$1" = --check ]; then runs=1; else runs=5; fi
        perfbench_runs "$runs"
        "$BIN" "$1" "$LEDGER" "$out"/*
        ;;
    *)
        echo "usage: scripts/bench.sh --check|--record" >&2
        exit 2
        ;;
esac
