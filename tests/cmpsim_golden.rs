//! `cmpsim` output golden: the report in each format and every file the
//! binary writes, byte for byte, so a change to how `cmpsim` builds,
//! instruments or reports a run cannot move a single output unseen.
//!
//! Each case runs the binary (Trade2, combined policy, `--scale 16
//! -n 2000 --seed 42`) and compares one output with its file under
//! `tests/golden/cmpsim/`. Small outputs are pinned verbatim; the span
//! trace and the event trace run to megabytes, so their golden holds
//! the line count, the byte count and an FNV-1a digest of the whole
//! file, plus its first and last lines verbatim to make a drift
//! readable. Every case also requires an empty stderr.
//!
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test cmpsim_golden` and inspect the
//! diff.

use std::path::{Path, PathBuf};
use std::process::Command;

use cmp_hierarchies::adaptive::SystemConfig;
use cmp_hierarchies::trace::{file, SyntheticWorkload, Workload};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cmpsim");

/// The run every case shares.
const RUN: [&str; 10] = [
    "-w", "trade2", "-p", "combined", "-n", "2000", "--scale", "16", "--seed", "42",
];

/// Lines kept verbatim at each end of a digested file.
const EDGE_LINES: usize = 20;

/// A working directory of this case's own; `cmpsim` runs inside it, so
/// the file names it writes (and a trace's name in its report) are
/// relative and the same on every machine.
fn workdir(case: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cmpsim_golden")
        .join(case);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `cmpsim` in `dir` and returns its stdout; the run must succeed
/// and write nothing to stderr.
fn cmpsim(dir: &Path, args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cmpsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    out.stdout
}

/// [`RUN`] followed by `extra`.
fn run_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    RUN.iter().copied().chain(extra.iter().copied()).collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A large output's golden: its size and digest, then its first and
/// last [`EDGE_LINES`] lines.
fn digest(bytes: &[u8]) -> String {
    let text = String::from_utf8(bytes.to_vec()).expect("UTF-8 output");
    let lines: Vec<&str> = text.lines().collect();
    let tail = lines.len().saturating_sub(EDGE_LINES).max(EDGE_LINES);
    let mut out = format!(
        "lines {}\nbytes {}\nfnv1a64 {:016x}\n--- first {EDGE_LINES} lines\n",
        lines.len(),
        bytes.len(),
        fnv1a(bytes)
    );
    for line in lines.iter().take(EDGE_LINES) {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!("--- last {EDGE_LINES} lines\n"));
    for line in lines.iter().skip(tail) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Compares `produced` with `tests/golden/cmpsim/<name>` (or rewrites
/// it under `UPDATE_GOLDEN`).
fn compare(name: &str, produced: &[u8]) {
    let path = Path::new(GOLDEN_DIR).join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(GOLDEN_DIR).unwrap();
        std::fs::write(&path, produced).unwrap();
        return;
    }
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; regenerate with UPDATE_GOLDEN=1", path.display()));
    assert!(
        produced == golden.as_slice(),
        "{name} drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1\n\
         --- produced\n{}",
        path.display(),
        String::from_utf8_lossy(produced)
    );
}

#[test]
fn golden_human_report() {
    let dir = workdir("human");
    compare("human.txt", &cmpsim(&dir, &run_args(&[])));
}

#[test]
fn golden_csv_report() {
    let dir = workdir("csv");
    compare("csv.txt", &cmpsim(&dir, &run_args(&["--csv"])));
}

#[test]
fn golden_verbose_interval_report() {
    let dir = workdir("verbose");
    let out = cmpsim(&dir, &run_args(&["-v", "--interval-stats", "20000"]));
    compare("verbose.txt", &out);
}

#[test]
fn golden_trace_replay_report() {
    // A recorded CPW2 stream replayed under the WBHT: the report names
    // the trace by the path it was given.
    let dir = workdir("trace");
    let cfg = SystemConfig::scaled(16);
    let params = Workload::Cpw2.params(cfg.num_threads(), cfg.cache_scale());
    let records = SyntheticWorkload::new(params, 99).unwrap().generate(16_000);
    let mut buf = Vec::new();
    file::write_trace(&mut buf, &records).unwrap();
    std::fs::write(dir.join("cpw2.trc"), buf).unwrap();
    let args = [
        "--trace", "cpw2.trc", "-p", "wbht", "-n", "1500", "--scale", "16", "--json",
    ];
    compare("trace_replay.json", &cmpsim(&dir, &args));
}

#[test]
fn golden_chrome_span_trace() {
    // Spans, plus the audit's decision track on the interval cadence.
    let dir = workdir("spans");
    let args = run_args(&[
        "-q",
        "--audit",
        "--interval-stats",
        "20000",
        "--trace-spans",
        "spans.json",
        "--span-sample",
        "4",
    ]);
    assert!(cmpsim(&dir, &args).is_empty(), "-q printed a report");
    let trace = std::fs::read(dir.join("spans.json")).unwrap();
    compare("spans_digest.txt", digest(&trace).as_bytes());
}

#[test]
fn golden_jsonl_event_trace() {
    let dir = workdir("events");
    let args = run_args(&[
        "-q",
        "--trace-events",
        "events.jsonl",
        "--interval-stats",
        "20000",
    ]);
    assert!(cmpsim(&dir, &args).is_empty(), "-q printed a report");
    let events = std::fs::read(dir.join("events.jsonl")).unwrap();
    compare("events_digest.txt", digest(&events).as_bytes());
}

#[test]
fn golden_metrics_out_file() {
    let dir = workdir("metrics");
    let args = run_args(&["-q", "--audit", "--metrics-out", "metrics.json"]);
    assert!(cmpsim(&dir, &args).is_empty(), "-q printed a report");
    compare(
        "metrics_out.json",
        &std::fs::read(dir.join("metrics.json")).unwrap(),
    );
}
