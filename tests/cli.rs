//! Command-line contract of the `cmpsim` binary: bad flag values exit 1
//! with a message that names the flag and the value as typed, instead
//! of being wrapped, truncated or ignored; a closed stdout ends the run
//! with status 0 instead of a panic.

use std::process::{Command, Output, Stdio};

use cmp_hierarchies::cache::Addr;
use cmp_hierarchies::engine::profiler::DEFAULT_STRIDE;
use cmp_hierarchies::trace::{file, MemOp, ThreadId, TraceRecord};

fn cmpsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(args)
        .output()
        .expect("cmpsim runs")
}

/// Asserts a run failed with exit code 1 and a stderr naming `needles`.
fn assert_rejected(args: &[&str], needles: &[&str]) {
    let out = cmpsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: {needle:?} not in {stderr:?}"
        );
    }
}

#[test]
fn cores_past_the_u8_range_are_rejected_not_wrapped() {
    assert_rejected(&["--cores", "300", "-q"], &["--cores", "300"]);
    assert_rejected(&["--cores", "256", "-q"], &["--cores", "256"]);
}

#[test]
fn odd_core_count_is_rejected() {
    assert_rejected(&["--cores", "3", "-q"], &["--cores", "got 3"]);
}

#[test]
fn outstanding_past_the_u32_range_is_rejected_not_truncated() {
    assert_rejected(&["-o", "4294967297", "-q"], &["-o", "4294967297"]);
}

#[test]
fn outstanding_outside_1_to_64_is_rejected_not_clamped() {
    for o in ["0", "65"] {
        assert_rejected(&["-o", o, "-q"], &[&format!("-o {o}: out of range")]);
    }
}

#[test]
fn zero_scale_is_rejected_not_run_at_paper_scale() {
    assert_rejected(&["--scale", "0", "-q"], &["--scale 0: out of range"]);
}

#[test]
fn zero_periods_and_strides_are_rejected_before_any_file_is_opened() {
    // Each once ran as 1; the span trace it names is never created.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("zero_stride_spans.json");
    let _ = std::fs::remove_file(&path);
    for flag in ["--interval-stats", "--span-sample", "--profile-stride"] {
        assert_rejected(
            &[flag, "0", "--trace-spans", path.to_str().unwrap(), "-q"],
            &[&format!("{flag} 0: out of range (1..)")],
        );
    }
    assert!(!path.exists(), "{} was created", path.display());
}

#[test]
fn help_gives_the_range_of_every_period_and_stride() {
    let help = String::from_utf8(cmpsim(&["--help"]).stdout).unwrap();
    for needle in [
        "every N cycles, N >= 1",
        "span only, N >= 1 [1]",
        "every N (>= 1) event-loop",
    ] {
        assert!(help.contains(needle), "{needle:?} not in {help}");
    }
}

#[test]
fn scale_without_a_valid_geometry_is_rejected_not_a_panic() {
    for scale in ["3", "1000", "4096", "65536"] {
        assert_rejected(
            &["--scale", scale, "-q"],
            &[&format!("--scale {scale}: invalid geometry")],
        );
    }
}

#[test]
fn entries_that_no_table_can_hold_are_rejected_not_an_abort() {
    // 3 and 8 entries make no power-of-two count of 16-way sets; 2^44
    // entries once asked the host for 128 TiB and aborted.
    assert_rejected(
        &["--entries", "3", "-p", "wbht", "-q"],
        &["--entries 3", "WBHT"],
    );
    assert_rejected(
        &["--entries", "8", "-p", "snarf", "-q"],
        &["--entries 8", "snarf table"],
    );
    assert_rejected(
        &["--entries", "0x100000000000", "-p", "wbht", "-q"],
        &["--entries 17592186044416", "WBHT", "limit"],
    );
}

#[test]
fn granularity_that_is_not_a_power_of_two_names_the_flag() {
    assert_rejected(
        &["--granularity", "3", "-p", "wbht", "-q"],
        &["--granularity 3", "power of two"],
    );
    assert_rejected(
        &["--granularity", "0", "-p", "wbht", "-q"],
        &["--granularity 0", "power of two"],
    );
}

#[test]
fn unknown_policy_lists_the_accepted_names() {
    let names = "baseline|wbht|snarf|combined|rdcb|hybrid";
    assert_rejected(&["-p", "wbht+lru", "-q"], &["unknown policy lru", names]);
}

#[test]
fn unknown_workload_is_rejected() {
    assert_rejected(&["-w", "bogus", "-q"], &["unknown workload bogus"]);
}

#[test]
fn help_gives_the_profiler_default_stride() {
    let help = String::from_utf8(cmpsim(&["--help"]).stdout).unwrap();
    let stride = format!("event-loop iterations [{DEFAULT_STRIDE}]");
    assert!(help.contains(&stride), "{help}");
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let quick = ["-w", "trade2", "-n", "2000", "--scale", "16"];
    for extra in [
        &["-v", "--interval-stats", "1000"][..],
        &["--json", "--audit"],
    ] {
        let args = [&quick[..], extra].concat();
        let mut child = Command::new(env!("CARGO_BIN_EXE_cmpsim"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cmpsim runs");
        // The reader goes away before the report is written.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("cmpsim exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn shards_flag_is_unknown() {
    assert_rejected(&["--shards", "2", "-q"], &["unknown flag --shards"]);
}

#[test]
fn valid_core_count_runs() {
    let out = cmpsim(&["--cores", "4", "-n", "200", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"refs\":1600"));
}

#[test]
fn trace_naming_threads_past_the_configuration_is_rejected() {
    // Threads 16-31 on the default 16-thread machine, half of them
    // stores: replaying it must fail, not silently spin every thread on
    // an idle load.
    let records: Vec<_> = (0..1_000u64)
        .map(|i| {
            let op = if i % 2 == 0 {
                MemOp::Load
            } else {
                MemOp::Store
            };
            TraceRecord::new(ThreadId::new(16 + (i % 16) as u16), op, Addr::new(i * 128))
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("threads_16_to_31.trc");
    let mut buf = Vec::new();
    file::write_trace(&mut buf, &records).unwrap();
    std::fs::write(&path, buf).unwrap();
    let trace = path.to_str().unwrap();
    assert_rejected(
        &["--trace", trace, "-n", "2000", "--json"],
        &["trace record 0", "thread 16", "has 16 threads"],
    );
}

#[test]
fn unwritable_trace_events_path_names_the_flag_and_the_path() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_such_dir/events.jsonl");
    let path = path.to_str().unwrap();
    assert_rejected(
        &["--trace-events", path, "-n", "10", "-q"],
        &["--trace-events", path],
    );
}
