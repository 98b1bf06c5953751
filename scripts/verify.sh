#!/usr/bin/env bash
# Full verification: build, tests, formatting, and lints.
# Tier-1 (ROADMAP.md) is the build + test pair; fmt and clippy extend it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p cmpsim-bench"
# The root build makes only cmpsim; the gates below run exp, report and
# bench_throughput from target/release, so build them explicitly.
cargo build --release -p cmpsim-bench

echo "==> cargo check perfbench"
# The benchmark builds RunReport by struct literal and calls System::set_*,
# RunSpec::for_workload and SystemConfig::scaled, so an API edit can break
# it without failing any test. Writes only the git-ignored
# perfbench/target/ and perfbench/Cargo.lock.
cargo check --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test --workspace -q"
# Every crate's suite, not only the root package's: per-crate unit and
# integration tests (among them the cmpsim-cache mirror suite, which
# diffs the packed tag array against a test-only reference model, and
# its static layout assertions) run here too.
cargo test --workspace -q

echo "==> cargo test --release --workspace --lib -q"
# The unit suites again, in the release profile the published numbers
# come from: code that differs under debug_assertions is tested as run.
cargo test --release --workspace --lib -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Tests, benches and examples are linted too, not only library code.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> golden traces regenerate cleanly"
# Telemetry and span traces, the policy matrix (the cmpsim --json
# --audit report of every mechanism and of the compositions), the
# cmpsim outputs (each report format and every file the binary writes),
# the pinned audit metrics, the synthetic reference streams and the
# write-back reuse counters.
UPDATE_GOLDEN=1 cargo test -q --test telemetry --test spans --test policy_matrix \
    --test cmpsim_golden --test audit_golden --test synthetic_streams --test wb_reuse \
    golden >/dev/null
if ! git diff --exit-code -- tests/golden >/dev/null; then
    git --no-pager diff --stat -- tests/golden
    echo "verify: FAILED — golden traces drifted from committed files" >&2
    echo "        (inspect with: git diff tests/golden; commit if intentional)" >&2
    exit 1
fi

echo "==> source files stay under 900 lines"
# Monolith guard: the System decomposition must not silently regrow.
# Exempt files list a reason; everything else in src/ trees is capped.
max_lines=900
exempt=""  # e.g. "crates/foo/src/big_table.rs" (space-separated)
oversized=0
while IFS= read -r f; do
    case " $exempt " in *" $f "*) continue ;; esac
    lines=$(wc -l < "$f")
    if [ "$lines" -gt "$max_lines" ]; then
        echo "verify: $f has $lines lines (cap $max_lines)" >&2
        oversized=1
    fi
done < <(find src crates -path '*/src/*' -name '*.rs' | sort)
if [ "$oversized" -ne 0 ]; then
    echo "verify: FAILED — split oversized modules (or add to the exemption list with a reason)" >&2
    exit 1
fi

echo "==> criterion benches compile"
cargo bench -p cmpsim-bench --features bench --no-run --quiet

echo "==> throughput regression gate (scripts/bench.sh --check)"
# Fails when any pinned suite entry falls >20% below the cycles/sec
# committed in BENCH_PR10.json, or when a full-scale entry's recorded
# pre->post speedup is under 1.10x. CMPSIM_BENCH_NO_GATE=1 demotes to a
# warning on machines the committed numbers don't represent.
./scripts/bench.sh --check

echo "==> profiler overhead gate (bench_throughput --overhead-check)"
# The host profiler + telemetry stream at default settings must cost at
# most 3% cycles/sec. CMPSIM_BENCH_NO_GATE=1 demotes to a warning.
./target/release/bench_throughput --overhead-check

echo "==> decision-audit overhead gate (scripts/bench.sh --audit-overhead)"
# The --audit decision-outcome lineage must also cost at most 3%
# cycles/sec when on (and exactly nothing when off — see the next gate).
./scripts/bench.sh --audit-overhead

echo "==> decision-audit consistency gate (report audit --check)"
# Audit-on metrics minus the audit_* section must be byte-identical to
# audit-off, and (nearly) every recorded decision must resolve.
CMPSIM_PROFILE=smoke ./target/release/report audit --check >/dev/null

echo "==> policy face-off harness gate (exp policy-faceoff --check)"
# Every contender must complete, the new policies must populate their
# report sections, and the span attribution must record fills.
CMPSIM_PROFILE=smoke ./target/release/exp policy-faceoff --check

echo "==> live telemetry stream smoke (report profile + report tail)"
# End to end: a --jobs 2 grid serves frames on a Unix socket while a
# tail attaches, consumes at least one host sample, and exits 0.
tel_sock="./target/verify-telemetry.sock"
rm -f "$tel_sock"
CMPSIM_PROFILE=smoke ./target/release/report profile --jobs 2 \
    --stream-telemetry="$tel_sock" --wait-client 15 --check >/dev/null &
tel_pid=$!
if ! ./target/release/report tail --once --wait 15 "$tel_sock" >/dev/null; then
    kill "$tel_pid" 2>/dev/null || true
    rm -f "$tel_sock"
    echo "verify: FAILED — report tail could not consume a live host sample" >&2
    exit 1
fi
if ! wait "$tel_pid"; then
    rm -f "$tel_sock"
    echo "verify: FAILED — report profile failed under a live stream (coverage < 95%?)" >&2
    exit 1
fi
rm -f "$tel_sock"

echo "==> parallel experiment driver is a pure wall-clock optimization"
# Smoke-profile `exp all` serial vs parallel: identical numbers, and the
# parallel run must actually be parallel (faster on multi-core hosts).
smoke_serial=$(mktemp)
smoke_par=$(mktemp)
trap 'rm -f "$smoke_serial" "$smoke_par"' EXIT
t0=$(date +%s.%N)
CMPSIM_PROFILE=smoke ./target/release/exp all --jobs 1 > "$smoke_serial"
t1=$(date +%s.%N)
CMPSIM_PROFILE=smoke ./target/release/exp all --jobs "$(nproc)" > "$smoke_par"
t2=$(date +%s.%N)
# Per-experiment wall-clock lines differ by construction; strip them.
if ! diff <(grep -v '^(.*s)$' "$smoke_serial") <(grep -v '^(.*s)$' "$smoke_par") >/dev/null; then
    diff <(grep -v '^(.*s)$' "$smoke_serial") <(grep -v '^(.*s)$' "$smoke_par") | head -20 >&2
    echo "verify: FAILED — exp all --jobs $(nproc) diverged from --jobs 1" >&2
    exit 1
fi
serial_s=$(echo "$t1 $t0" | awk '{printf "%.1f", $1 - $2}')
par_s=$(echo "$t2 $t1" | awk '{printf "%.1f", $1 - $2}')
echo "    serial ${serial_s}s, parallel ${par_s}s ($(nproc) jobs)"

echo "verify: OK"
