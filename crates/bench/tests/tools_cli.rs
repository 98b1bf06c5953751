//! Command-line contract of the analysis tools: `span_report` accepts
//! every policy spec `cmpsim` does, and `trace_stats` rejects bad input
//! with an exit code instead of a panic or a silent default.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("tool runs")
}

fn trace_stats(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_trace_stats"), args)
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn span_report_accepts_composed_policies() {
    let out = run(
        env!("CARGO_BIN_EXE_span_report"),
        &["-p", "wbht+hybrid", "--scale", "16", "-n", "200"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("policy wbht+hybrid"), "{stdout}");
}

#[test]
fn trace_stats_bad_arguments_print_usage() {
    for args in [&["bogus", "50"][..], &["trade2", "many"], &["--file"]] {
        let out = trace_stats(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: trace_stats"), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_stats_unreadable_or_malformed_file_names_the_path() {
    let malformed = tmp("not_a_trace.trc");
    std::fs::write(&malformed, b"definitely not CMPTRC01").unwrap();
    for path in [tmp("no_such_trace.trc"), malformed] {
        let path = path.to_str().unwrap();
        let out = trace_stats(&["--file", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(path), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
